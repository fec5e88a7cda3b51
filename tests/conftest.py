"""Shared fixtures: the paper's Figure 1 example and small corpora."""

from __future__ import annotations

import pytest

from repro import Query, Rect, TokenWeighter, make_corpus
from repro.datasets import generate_queries, generate_twitter, generate_usa


def touches(a: Rect, b: Rect) -> bool:
    """True when the closed rectangles share at least one point."""
    return max(a.x1, b.x1) <= min(a.x2, b.x2) and max(a.y1, b.y1) <= min(a.y2, b.y2)


@pytest.fixture(scope="session")
def figure1_objects():
    """The seven objects of the paper's Figure 1, with geometry
    reverse-engineered from the text's exact numbers:

    * |q.R| = 2400 (Figure 5's query weights sum), |o1.R| = 3000 and
      |q∩o1| = 1000 so simR(q,o1) = 1000/4400 ≈ 0.23;
    * |o2.R| = 1750 (Figure 5) and |q∩o2| = 1000 so simR(q,o2) ≈ 0.32;
    * o2's per-cell weights on the 120×120 space with a 4×4 grid are
      exactly Figure 5's {225, 450, 375, 150, 300, 250}.
    """
    return make_corpus(
        [
            (Rect(10, 30, 60, 90), {"t1", "t2"}),               # o1: 50×60
            (Rect(15, 20, 85, 45), {"t1", "t2", "t3"}),         # o2: 70×25
            (Rect(10, 95, 40, 115), {"t3", "t4", "t5"}),        # o3
            (Rect(85, 90, 115, 115), {"t2", "t3", "t5"}),       # o4
            (Rect(55, 25, 85, 55), {"t1", "t2", "t5"}),         # o5: simR = 0.22
            (Rect(90, 35, 115, 70), {"t2", "t4"}),              # o6
            (Rect(60, 98, 75, 108), {"t5"}),                    # o7
        ]
    )


@pytest.fixture(scope="session")
def figure1_weighter(figure1_objects):
    return TokenWeighter(obj.tokens for obj in figure1_objects)


@pytest.fixture(scope="session")
def figure1_query():
    """q = (Rq, {t1, t2, t3}, τR=0.25, τT=0.3); the answer is {o2}."""
    return Query(Rect(35, 10, 75, 70), frozenset({"t1", "t2", "t3"}), 0.25, 0.3)


#: The paper's plot space (Figure 1's 120×120 canvas).
FIGURE1_SPACE = Rect(0, 0, 120, 120)


@pytest.fixture(scope="session")
def figure1_space():
    return FIGURE1_SPACE


@pytest.fixture(scope="session")
def twitter_small():
    """A 400-object Twitter-like corpus (session-cached: index builds are
    the slow part of this suite)."""
    return generate_twitter(400, seed=42)


@pytest.fixture(scope="session")
def twitter_small_weighter(twitter_small):
    return TokenWeighter(obj.tokens for obj in twitter_small)


@pytest.fixture(scope="session")
def twitter_small_queries(twitter_small):
    return generate_queries(twitter_small, "small", num_queries=10, seed=3, tau_r=0.2, tau_t=0.2)


@pytest.fixture(scope="session")
def usa_small():
    return generate_usa(400, seed=42)
