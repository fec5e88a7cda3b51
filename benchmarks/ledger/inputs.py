"""Seeded input generation and fingerprints.

``--seed`` drives every generator here and nothing else does: the
program under test receives only what this module returns.  Each
workload's inputs carry a SHA-256 of the corpus and of the op sequence;
the default seed's digests are pinned in ``fingerprints.json`` so a
silent change to a ``repro.datasets`` generator fails the run instead of
moving the numbers.

Non-empty answers: the paper's anchored query shape yields ~0 results
per query at τ = 0.4 on this corpus, so a quarter of every query set is
*profile-match* queries — a corpus ROI scaled by U(0.9, 1.1) about its
centre with its most common token dropped.  Spatial Jaccard is then
≥ 0.81 and at least half the idf weight survives (the dropped token is
the lightest), so each has ≥ 1 answer at every threshold used here.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import Query, Rect, SpatioTextualObject
from repro.datasets import generate_twitter

from .metrics import CANONICAL, CHURN, FIG16, HOT, MIXED, TOY, WORKLOADS, Scale

PAPER_N = 1_000_000
TWITTER_FULL_SIDE = 36_633.0
PROFILE_MATCH_SHARE = 0.25
ZIPF_EXPONENT = 1.1

#: (kind, tau_r, tau_t) of the four regimes of ``mixed_regimes``.
REGIMES: Tuple[Tuple[str, float, float], ...] = (
    ("large", 0.4, 0.4),
    ("small", 0.4, 0.4),
    ("small", 0.3, 0.0),   # spatial-only
    ("small", 0.0, 0.3),   # textual-only
)

#: Section 6.1's two query shapes: mean region area (km²), mean tokens.
_MEAN_AREA = {"large": 554.0, "small": 0.44}
_MEAN_TOKENS = {"large": 6.97, "small": 12.9}

FINGERPRINTS_PATH = Path(__file__).with_name("fingerprints.json")


class FingerprintMismatch(RuntimeError):
    """The default seed no longer generates the pinned inputs."""


def _subseed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_corpus(num_objects: int, seed: int) -> List[SpatioTextualObject]:
    """The density-scaled Twitter-like corpus (space side ∝ √N keeps
    objects per km² — and so the overlap pressure — at the paper's)."""
    side = TWITTER_FULL_SIDE * math.sqrt(num_objects / PAPER_N)
    return generate_twitter(
        num_objects,
        seed=_subseed(seed, "corpus"),
        space=Rect(0.0, 0.0, side, side),
        num_clusters=max(8, num_objects // 500),
        cluster_spread_fraction=0.002,
    )


def _profile_match(
    corpus: Sequence[SpatioTextualObject], kind: str, count: int,
    tau_r: float, tau_t: float, seed: int,
) -> List[Query]:
    rng = np.random.default_rng(seed)
    frequency = Counter(token for obj in corpus for token in obj.tokens)
    mean_area = _MEAN_AREA[kind]
    # Anchor on ROIs of the regime's own size, so a "large" workload's
    # profile matches are still large-region queries.
    pool = [
        obj for obj in corpus
        if mean_area / 8.0 <= obj.region.area <= mean_area * 8.0
    ] or list(corpus)
    queries = []
    for _ in range(count):
        anchor = pool[int(rng.integers(0, len(pool)))]
        tokens = set(anchor.tokens)
        if len(tokens) > 1:
            tokens.remove(max(sorted(tokens), key=frequency.__getitem__))
        region = anchor.region.scale(float(rng.uniform(0.9, 1.1)))
        queries.append(Query(region, frozenset(tokens), tau_r, tau_t))
    return queries


def _anchored(
    corpus: Sequence[SpatioTextualObject], kind: str, count: int,
    tau_r: float, tau_t: float, seed: int,
) -> List[Query]:
    """The paper's anchored workload: a lognormal-area region jittered
    about a random ROI's centre, ~70 % of the tokens from that ROI and
    the rest from the vocabulary.  (``repro.datasets.generate_queries``
    has the same shape but shuffles a frozenset, so its output moves
    with ``PYTHONHASHSEED``; this one sorts first.)"""
    rng = np.random.default_rng(seed)
    vocabulary = sorted({token for obj in corpus for token in obj.tokens})
    sigma = 0.6
    mu = math.log(_MEAN_AREA[kind]) - sigma * sigma / 2.0
    queries = []
    for _ in range(count):
        anchor = corpus[int(rng.integers(0, len(corpus)))]
        area = float(rng.lognormal(mu, sigma))
        aspect = float(np.exp(rng.normal(0.0, 0.3)))
        cx, cy = anchor.region.center
        jitter = math.sqrt(area) / 4.0
        cx += float(rng.normal(0.0, jitter))
        cy += float(rng.normal(0.0, jitter))
        region = Rect.from_center(cx, cy, math.sqrt(area * aspect), math.sqrt(area / aspect))
        wanted = max(1, int(rng.poisson(_MEAN_TOKENS[kind])))
        own = sorted(anchor.tokens)
        rng.shuffle(own)
        tokens = set(own[: max(1, int(round(wanted * 0.7)))])
        while len(tokens) < wanted:
            tokens.add(vocabulary[int(rng.integers(0, len(vocabulary)))])
        queries.append(Query(region, frozenset(tokens), tau_r, tau_t))
    return queries


def make_queries(
    corpus: Sequence[SpatioTextualObject], kind: str, count: int,
    tau_r: float, tau_t: float, seed: int,
) -> List[Query]:
    """``count`` queries of one regime: three anchored, then one profile
    match, repeating."""
    matches = _profile_match(
        corpus, kind, int(round(count * PROFILE_MATCH_SHARE)), tau_r, tau_t,
        _subseed(seed, "match"),
    )
    anchored = _anchored(
        corpus, kind, count - len(matches), tau_r, tau_t, _subseed(seed, "anchored"),
    )
    queries: List[Query] = []
    while anchored or matches:
        queries.extend(anchored[-3:])
        del anchored[-3:]
        if matches:
            queries.append(matches.pop())
    return queries


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(json.dumps(part, separators=(",", ":")).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _object_wire(obj: SpatioTextualObject):
    return [list(obj.region.as_tuple()), sorted(obj.tokens)]


def _query_wire(query: Query):
    return [list(query.region.as_tuple()), sorted(query.tokens), query.tau_r, query.tau_t]


@dataclass
class QueryInputs:
    """Inputs of one wire workload: what to index, what to ask, in what order."""

    corpus: List[SpatioTextualObject]
    queries: List[Query]            # the distinct queries
    sequence: List[int]             # one pass: indexes into ``queries``
    batch: bool                     # run the query_batch phase too
    fingerprint: Dict[str, str] = field(default_factory=dict)


@dataclass
class ChurnInputs:
    """Inputs of ``churn_durable``: a base corpus and a fixed op script."""

    base: List[SpatioTextualObject]
    inserts: List[SpatioTextualObject]     # step i inserts inserts[i]
    queries: List[Query]                   # step i then asks queries[i]
    deletes: Dict[int, int]                # step -> oid deleted after the query
    coda: List[SpatioTextualObject]        # inserted after the checkpoint
    fingerprint: Dict[str, str] = field(default_factory=dict)


def query_inputs(workload: str, scale: Scale, seed: int) -> QueryInputs:
    corpus = make_corpus(scale.objects, seed)
    if workload == FIG16:
        queries = make_queries(corpus, "large", scale.fig16_queries, 0.4, 0.4, seed)
        sequence = list(range(len(queries)))
    elif workload == MIXED:
        regimes = [
            make_queries(corpus, kind, scale.regime_queries, tau_r, tau_t,
                         _subseed(seed, f"regime{i}"))
            for i, (kind, tau_r, tau_t) in enumerate(REGIMES)
        ]
        queries = [query for group in zip(*regimes) for query in group]
        sequence = list(range(len(queries)))
    elif workload == HOT:
        queries = make_queries(corpus, "large", scale.zipf_distinct, 0.4, 0.4, seed)
        ranks = np.arange(1, len(queries) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        rng = np.random.default_rng(_subseed(seed, "zipf"))
        sequence = rng.choice(
            len(queries), size=scale.zipf_ops, p=weights / weights.sum()
        ).tolist()
    else:
        raise ValueError(f"{workload!r} is not a wire query workload")
    inputs = QueryInputs(corpus, queries, sequence, batch=workload != HOT)
    inputs.fingerprint = {
        "corpus": _digest(_object_wire(obj) for obj in corpus),
        "ops": _digest([[_query_wire(q) for q in queries], sequence]),
    }
    return inputs


def churn_inputs(scale: Scale, seed: int) -> ChurnInputs:
    total = scale.churn_base + scale.churn_inserts + scale.churn_coda
    pool = make_corpus(total, seed)
    base = pool[: scale.churn_base]
    inserts = pool[scale.churn_base: scale.churn_base + scale.churn_inserts]
    coda = pool[scale.churn_base + scale.churn_inserts:]
    queries = make_queries(pool, "large", len(inserts), 0.4, 0.4, seed)
    # The durable engine hands out oids in insertion order, so the script
    # can name its delete victims up front: every 4th step, one live oid.
    rng = np.random.default_rng(_subseed(seed, "deletes"))
    live = list(range(len(base)))
    deletes: Dict[int, int] = {}
    for step in range(len(inserts)):
        live.append(len(base) + step)
        if step % 4 == 3:
            deletes[step] = live.pop(int(rng.integers(0, len(live))))
    inputs = ChurnInputs(base, inserts, queries, deletes, coda)
    inputs.fingerprint = {
        "corpus": _digest(_object_wire(obj) for obj in pool),
        "ops": _digest([[_query_wire(q) for q in queries], sorted(deletes.items())]),
    }
    return inputs


def make_inputs(workload: str, scale: Scale, seed: int):
    if workload == CHURN:
        return churn_inputs(scale, seed)
    return query_inputs(workload, scale, seed)


def check_fingerprint(workload: str, scale: Scale, seed: int, fingerprint: Dict[str, str]) -> None:
    """Fail loudly when a pinned (scale, seed, workload) digest moved."""
    pinned = json.loads(FINGERPRINTS_PATH.read_text())
    expected = pinned.get(scale.name, {}).get(str(seed), {}).get(workload)
    if expected is not None and expected != fingerprint:
        raise FingerprintMismatch(
            f"inputs of {workload} (scale {scale.name}, seed {seed}) no longer "
            f"match {FINGERPRINTS_PATH.name}: got {fingerprint}, pinned {expected}; "
            "a generator changed — numbers from this run are not comparable"
        )


def pin_fingerprints(seed: int) -> None:
    """Rewrite ``fingerprints.json`` for ``seed`` at every scale — only
    after a generator change that is *meant* to move the inputs."""
    pinned = {
        scale.name: {str(seed): {
            workload: make_inputs(workload, scale, seed).fingerprint
            for workload in WORKLOADS
        }}
        for scale in (CANONICAL, TOY)
    }
    FINGERPRINTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
