"""A verifier holds its columns from construction on.

Every build hands its :class:`~repro.core.verification.Verifier` the
box block and token CSR (the columns it read, or ones the verifier
derives once, at construction), and a snapshot carries them.  So before
any query, after a build, a seal, a tier merge, ``compact()`` and either
kind of load, every verifier's columns equal a derivation from its
objects, bit for bit; and ``TextualScheme.corpus_rows`` runs once per
build and never while queries are answered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SealSearch, build_method
from repro.core.engine import METHOD_REGISTRY
from repro.datasets import generate_queries, generate_twitter
from repro.exec import segments
from repro.exec.pipeline import BatchExecutor
from repro.io.snapshot import load_engine, save_engine
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

KNOBS = {"seal": {"mt": 8, "max_level": 5}, "planned": {"granularity": 64}}


@pytest.fixture(scope="module")
def objects():
    return generate_twitter(300, seed=11)


def columns_from_objects(corpus, weighter) -> tuple:
    """The box block and token CSR of ``corpus``, one object at a time:
    box rows ``x1, y1, −x2, −y2, |o|, −|o|``; ids numbered by first
    appearance, object after object, each object's tokens in the global
    order; one weight per id; row offsets; exact totals."""
    boxes, vocabulary, offsets, ids, totals = [], {}, [0], [], []
    for obj in corpus:
        x1, y1, x2, y2 = map(float, obj.region.as_tuple())
        area = (x2 - x1) * (y2 - y1)
        boxes.append((x1, y1, -x2, -y2, area, -area))
        for token in weighter.sort_tokens(obj.tokens):
            ids.append(vocabulary.setdefault(token, len(vocabulary)))
        offsets.append(len(ids))
        totals.append(weighter.total_weight(obj.tokens))
    weights = [weighter.weight(token) for token in vocabulary]
    return (np.array(boxes).reshape(-1, 6).T.tolist(), list(vocabulary.items()),
            weights, offsets, ids, totals)


def held_columns(verifier) -> tuple:
    """The same, read off the verifier (without spare capacity)."""
    vocabulary, weights, offsets, ids, totals = verifier._token_rows
    rows = len(verifier.corpus)
    return (
        verifier._boxes[:, :rows].tolist(), list(vocabulary.items()),
        weights[: len(vocabulary)].tolist(), offsets[: rows + 1].tolist(),
        ids[: offsets[rows]].tolist(), totals[:rows].tolist(),
    )


def verifiers(engine) -> list:
    if isinstance(engine, SealSearch):
        return [segment.method.verifier for segment in engine._segments]
    return [engine.verifier]


def assert_columns_held(engine) -> None:
    """Each verifier's columns equal a derivation from its objects; its
    float totals are the CSR's."""
    found = verifiers(engine)
    assert found
    for verifier in found:
        expected = columns_from_objects(verifier.corpus, verifier.weighter)
        assert held_columns(verifier) == expected
        assert verifier.token_totals() == expected[-1]


def loads(engine, tmp_path, name) -> list:
    save_engine(engine, tmp_path / f"{name}.pkl")
    return [load_engine(tmp_path / f"{name}.pkl", mmap=mmap) for mmap in (False, True)]


@pytest.mark.parametrize("name", sorted(METHOD_REGISTRY))
def test_registry_method_holds_its_columns(objects, tmp_path, name):
    engine = build_method(objects, name, **KNOBS.get(name, {}))
    assert_columns_held(engine)
    for loaded in loads(engine, tmp_path, name):
        assert_columns_held(loaded)


@pytest.mark.parametrize("method", ["seal", "planned"])
def test_sealsearch_holds_its_columns(objects, tmp_path, method):
    pairs = [(obj.region, obj.tokens) for obj in objects]
    engine = SealSearch(pairs[:100], method, buffer_capacity=25, merge_fanout=2,
                        **KNOBS[method])
    assert_columns_held(engine)                  # the fresh build
    for pair in pairs[100:125]:
        engine.insert(*pair)
    assert len(engine._segments) == 2            # a seal
    assert_columns_held(engine)
    for pair in pairs[125:150]:
        engine.insert(*pair)
    assert [len(s) for s in engine._segments] == [100, 50]   # a tier merge
    assert_columns_held(engine)
    for pair in pairs[150:160]:
        engine.insert(*pair)
    engine.delete(3)
    engine.compact()
    assert [len(s) for s in engine._segments] == [159]
    assert_columns_held(engine)
    for loaded in loads(engine, tmp_path, method):
        assert_columns_held(loaded)


class TestOneCorpusRowsPass:
    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        real = TextualScheme.corpus_rows

        def counted(self, objects):
            seen.append(len(objects))
            return real(self, objects)

        monkeypatch.setattr(TextualScheme, "corpus_rows", counted)
        return seen

    @pytest.fixture(scope="class")
    def queries(self, objects):
        half = 32
        return (generate_queries(objects, "large", num_queries=half, seed=5, tau_r=0.05,
                                 tau_t=0.1)
                + generate_queries(objects, "small", num_queries=half, seed=5, tau_r=0.1,
                                   tau_t=0.2))

    @pytest.mark.parametrize("name", ["token", "hash-hybrid", "seal", "keyword-first", "planned"])
    def test_one_pass_per_build_and_none_per_query(self, objects, queries, calls, name):
        weighter = TokenWeighter(obj.tokens for obj in objects)
        engine = build_method(objects, name, weighter, **KNOBS.get(name, {}))
        assert calls == [len(objects)]
        singles = [engine.search(query).answers for query in queries]
        batch = BatchExecutor().run(engine, queries)
        assert calls == [len(objects)]
        assert [result.answers for result in batch] == singles
        assert sum(map(len, singles)) > 0

    def test_one_pass_per_sealed_or_merged_segment(self, objects, queries, calls, monkeypatch):
        built = []
        real = segments.build_method

        def counted(local, *args, **kwargs):
            built.append(len(local))
            return real(local, *args, **kwargs)

        monkeypatch.setattr(segments, "build_method", counted)
        pairs = [(obj.region, obj.tokens) for obj in objects]
        engine = SealSearch(pairs[:100], "planned", buffer_capacity=25, merge_fanout=2,
                            **KNOBS["planned"])
        for pair in pairs[100:200]:
            engine.insert(*pair)
        assert engine.pending == 0
        # The initial build, four seals of 25 and the merges they set off.
        assert built[:2] == [100, 25] and built.count(25) == 4 and len(built) > 5
        assert calls == built
        del calls[:]
        singles = [engine.search_query(query).answers for query in queries]
        assert [result.answers for result in engine.search_batch(queries)] == singles
        assert calls == []
