"""Hypothesis strategies for spatio-textual data.

Coordinates are drawn from a bounded grid of multiples of 0.25 inside
[0, 100] — exact in binary floating point, so geometric identities tested
against them hold without tolerance fudging, while still exercising
degenerate (zero-width/height) rectangles and boundary alignments.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.core.objects import Query, SpatioTextualObject, make_corpus
from repro.core.similarity import spatial_similarity, textual_similarity
from repro.geometry import Rect
from repro.text.weights import TokenWeighter

#: Exact-in-binary coordinates.
coords = st.integers(min_value=0, max_value=400).map(lambda n: n * 0.25)

#: A small token alphabet keeps overlap probability high.
tokens = st.sampled_from([f"t{i}" for i in range(12)])

token_sets = st.frozensets(tokens, min_size=0, max_size=6)

nonempty_token_sets = st.frozensets(tokens, min_size=1, max_size=6)


@st.composite
def rects(draw, allow_degenerate: bool = True) -> Rect:
    x1 = draw(coords)
    y1 = draw(coords)
    if allow_degenerate:
        dx = draw(st.integers(min_value=0, max_value=80))
        dy = draw(st.integers(min_value=0, max_value=80))
    else:
        dx = draw(st.integers(min_value=1, max_value=80))
        dy = draw(st.integers(min_value=1, max_value=80))
    return Rect(x1, y1, x1 + dx * 0.25, y1 + dy * 0.25)


@st.composite
def corpora(draw, min_size: int = 1, max_size: int = 12):
    """A small corpus of objects with dense oids."""
    pairs = draw(
        st.lists(
            st.tuples(rects(), nonempty_token_sets),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return make_corpus(pairs)


thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0])


@st.composite
def queries(draw) -> Query:
    return Query(
        region=draw(rects()),
        tokens=draw(token_sets),
        tau_r=draw(thresholds),
        tau_t=draw(thresholds),
    )


@st.composite
def corpus_and_query(draw, min_size: int = 1, max_size: int = 12):
    corpus = draw(corpora(min_size=min_size, max_size=max_size))
    return corpus, draw(queries())


@st.composite
def boundary_cases(draw, min_size: int = 1, max_size: int = 10):
    """A corpus and a query whose thresholds sit on one object's boundary.

    Pick an object, draw a query near it (its own region or any other,
    some of its tokens plus any others), and set ``τR`` and/or ``τT`` to
    that object's canonical ``simR`` / ``simT``
    (:mod:`repro.core.similarity`, under the corpus weighter) — exactly,
    or ``math.nextafter`` one ulp below or above.  Those are the floats
    where a filter bound an ulp stricter than the verifier's loses the
    object.  A threshold not put on the boundary is drawn as usual.
    """
    corpus = draw(corpora(min_size=min_size, max_size=max_size))
    target = corpus[draw(st.integers(0, len(corpus) - 1))]
    region = draw(st.one_of(st.just(target.region), rects()))
    tokens = draw(st.frozensets(st.sampled_from(sorted(target.tokens)))) | draw(token_sets)
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    step = draw(st.sampled_from([None, -math.inf, math.inf]))

    def on_boundary(sim: float) -> float:
        tau = sim if step is None else math.nextafter(sim, step)
        return min(max(tau, 0.0), 1.0)

    axes = draw(st.sampled_from(["r", "t", "rt"]))
    tau_r = (on_boundary(spatial_similarity(region, target.region)) if "r" in axes
             else draw(thresholds))
    tau_t = (on_boundary(textual_similarity(tokens, target.tokens, weighter)) if "t" in axes
             else draw(thresholds))
    return corpus, Query(region, tokens, tau_r, tau_t)
