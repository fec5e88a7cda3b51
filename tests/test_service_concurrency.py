"""Concurrency stress tests: threaded service answers == serial answers.

Satellite of the serving-layer PR.  Three escalating regimes:

* **static hammer** — N client threads over one engine must produce
  exactly the serial run's answers (pins PR 2's thread-local probe
  scratch and the result cache under contention);
* **phased churn** — threads hammer, the engine mutates between phases,
  and every phase's answers must equal a from-scratch oracle over the
  live set *at that phase* (pins epoch-keyed cache invalidation: a
  phase-N answer served from phase N-1's cache would fail);
* **chaos churn** — a mutator thread runs concurrently with the query
  threads (no per-answer assertion is possible mid-race), then the
  quiesced service must agree with the from-scratch oracle exactly.
"""

from __future__ import annotations

import random
import threading

from repro import (
    Query,
    Rect,
    SegmentedSealSearch,
    SpatioTextualObject,
    build_method,
    execute_query,
)
from repro.service import QueryService
from repro.text.weights import TokenWeighter

VOCAB = [f"tok{i}" for i in range(12)]


def _rand_object(rng: random.Random):
    x, y = rng.uniform(0, 80), rng.uniform(0, 80)
    w, h = rng.uniform(1, 14), rng.uniform(1, 14)
    return Rect(x, y, x + w, y + h), frozenset(rng.sample(VOCAB, rng.randint(1, 4)))


def _rand_query(rng: random.Random) -> Query:
    region, tokens = _rand_object(rng)
    tau = rng.choice([0.05, 0.2, 0.4])
    return Query(region, tokens, tau, tau)


def _oracle_answers(engine: SegmentedSealSearch, query: Query):
    """From-scratch build over the live set with the engine's weighter."""
    live = sorted((engine.object(oid) for oid in engine._live), key=lambda o: o.oid)
    if not live:
        return []
    local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)]
    oracle = build_method(local, "token", engine.weighter)
    result = execute_query(oracle, query)
    return sorted(live[i].oid for i in result.answers)


def _hammer(service: QueryService, queries, threads: int, repeats: int):
    """Each thread replays a privately-shuffled workload; returns
    {query index -> list of answer lists seen}, plus raised errors."""
    observed = [[] for _ in queries]
    errors = []
    lock = threading.Lock()

    def client(seed: int) -> None:
        rng = random.Random(seed)
        order = list(range(len(queries)))
        try:
            for _ in range(repeats):
                rng.shuffle(order)
                for index in order:
                    answers = service.query(queries[index]).answers
                    with lock:
                        observed[index].append(answers)
        except BaseException as exc:  # pragma: no cover - failure reporting
            with lock:
                errors.append(exc)

    workers = [threading.Thread(target=client, args=(seed,)) for seed in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)
    assert not any(worker.is_alive() for worker in workers)
    return observed, errors


class TestStaticHammer:
    def test_threaded_answers_identical_to_serial(self, twitter_small):
        weighter = TokenWeighter(obj.tokens for obj in twitter_small)
        method = build_method(twitter_small, "seal", weighter)
        rng = random.Random(31)
        queries = [_rand_query(rng) for _ in range(16)]
        serial = [execute_query(method, query).answers for query in queries]

        with QueryService(method, workers=4, max_queue=256) as service:
            observed, errors = _hammer(service, queries, threads=6, repeats=3)
            metrics = service.metrics()
        assert not errors
        for index, expected in enumerate(serial):
            assert observed[index], "every query must have been served"
            assert all(answers == expected for answers in observed[index])
        # 6 threads × 3 repeats × 16 queries, most served from cache.
        assert metrics["requests"]["total"] == 6 * 3 * 16
        assert metrics["cache"]["hits"] > 0

    def test_threaded_answers_identical_without_cache(self, twitter_small):
        """Same pin with the cache off: every request runs the engine, so
        this isolates the shared read-only engine under contention."""
        weighter = TokenWeighter(obj.tokens for obj in twitter_small)
        method = build_method(twitter_small, "seal", weighter)
        rng = random.Random(57)
        queries = [_rand_query(rng) for _ in range(8)]
        serial = [execute_query(method, query).answers for query in queries]
        with QueryService(
            method, enable_cache=False, workers=4, max_queue=256
        ) as service:
            observed, errors = _hammer(service, queries, threads=4, repeats=2)
        assert not errors
        for index, expected in enumerate(serial):
            assert all(answers == expected for answers in observed[index])


class TestChurn:
    def test_phased_churn_never_serves_stale_answers(self):
        rng = random.Random(11)
        engine = SegmentedSealSearch(
            [_rand_object(rng) for _ in range(40)],
            method="token",
            buffer_capacity=8,
            merge_fanout=2,
        )
        queries = [_rand_query(rng) for _ in range(10)]
        with QueryService(engine, workers=4, max_queue=256) as service:
            epochs = []
            for _ in range(3):
                expected = [_oracle_answers(engine, query) for query in queries]
                observed, errors = _hammer(service, queries, threads=4, repeats=2)
                assert not errors
                for index, answers_list in enumerate(observed):
                    assert all(a == expected[index] for a in answers_list)
                epochs.append(service.epoch)
                # Churn between phases: every mutation bumps the epoch,
                # which must invalidate all of this phase's cache fill.
                for _ in range(8):
                    service.insert(*_rand_object(rng))
                live = sorted(engine._live)
                for oid in rng.sample(live, 3):
                    service.delete(oid)
            assert epochs == sorted(set(epochs)), "each phase saw a fresh epoch"

    def test_chaos_churn_quiesces_to_oracle(self):
        rng = random.Random(23)
        engine = SegmentedSealSearch(
            [_rand_object(rng) for _ in range(30)],
            method="token",
            buffer_capacity=6,
            merge_fanout=2,
        )
        queries = [_rand_query(rng) for _ in range(8)]
        service = QueryService(engine, workers=4, max_queue=512)
        mutator_errors = []

        def mutator():
            mut_rng = random.Random(99)
            try:
                for step in range(24):
                    if step % 3 == 2:
                        live = sorted(engine._live)
                        if live:
                            service.delete(mut_rng.choice(live))
                    else:
                        service.insert(*_rand_object(mut_rng))
            except BaseException as exc:  # pragma: no cover - failure reporting
                mutator_errors.append(exc)

        mutator_thread = threading.Thread(target=mutator)
        mutator_thread.start()
        observed, errors = _hammer(service, queries, threads=3, repeats=3)
        mutator_thread.join(timeout=120.0)
        assert not mutator_thread.is_alive()
        assert not errors and not mutator_errors
        # Every mid-race answer must at least be well-formed and sorted.
        for answers_list in observed:
            for answers in answers_list:
                assert answers == sorted(answers)
                assert all(isinstance(oid, int) for oid in answers)
        # Quiesced: the service (cache and all) agrees with the oracle.
        try:
            for query in queries:
                assert service.query(query).answers == _oracle_answers(engine, query)
        finally:
            service.close()
