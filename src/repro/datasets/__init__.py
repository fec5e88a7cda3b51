"""Synthetic datasets reproducing the paper's evaluation data (Section 6.1).

The paper evaluates on a 1M-user Twitter ROI dataset and a synthetic
USA + DBLP dataset, neither of which ships with the paper.  These
generators reproduce their *published statistics* — region-area
distribution, space extent, tokens per object, Zipf token frequencies —
at configurable scale, which is what the filtering algorithms actually
respond to.  All generators are deterministic given a seed.
"""

from repro.datasets.queries import generate_queries
from repro.datasets.twitter import generate_twitter
from repro.datasets.usa import generate_usa
from repro.datasets.zipf import ZipfVocabulary

__all__ = [
    "ZipfVocabulary",
    "generate_queries",
    "generate_twitter",
    "generate_usa",
]
