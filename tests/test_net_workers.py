"""ProcessSupervisor tests: fork, differential, recycle, kill, drain.

The contract under test is the cross-process epoch bump: after
``publish_engine``/``swap_snapshot`` returns, **every** answer comes
from the new generation; in-flight requests finish on the old one; a
SIGKILLed worker surfaces as a loud :class:`ProtocolError` on its
connections (never a wrong or empty answer) and is respawned.  Every
response carries ``(generation, pid)``, so each answer in a concurrent
run is attributed to the snapshot that produced it and checked against
that snapshot's oracle.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import Query, Rect, SegmentedSealSearch
from repro.core.errors import ProtocolError
from repro.io import GenerationError, publish_snapshot, save_engine
from repro.service import NetworkClient, ProcessSupervisor
from service_testlib import ThreadReportingEngine, decode_threads

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ProcessSupervisor needs the POSIX fork start method",
)

#: Worker count for every test pool.
WORKERS = 2


def _build_engine(corpus) -> SegmentedSealSearch:
    pairs = [(obj.region, obj.tokens) for obj in corpus]
    return SegmentedSealSearch(pairs, "token", buffer_capacity=64)


def _oracle(engine, queries):
    return [
        engine.search(q.region, q.tokens, q.tau_r, q.tau_t).answers for q in queries
    ]


def _connect(address, timeout: float = 15.0, attempts: int = 20) -> NetworkClient:
    """Connect with retries (a recycle window may refuse briefly)."""
    host, port = address
    for attempt in range(attempts):
        try:
            return NetworkClient(host, port, timeout=timeout)
        except OSError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.1)
    raise AssertionError("unreachable")


def _wait_until(predicate, timeout: float = 20.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {message}")


def test_workers_match_local_oracle(twitter_small, twitter_small_queries, tmp_path):
    engine = _build_engine(twitter_small)
    expected = _oracle(engine, twitter_small_queries)
    publish_snapshot(tmp_path / "serving", engine=engine)
    with ProcessSupervisor(
        tmp_path / "serving", workers=WORKERS,
        service_config={"enable_cache": False},
    ) as supervisor:
        pids = supervisor.worker_pids()
        assert len(pids) == WORKERS
        with _connect(supervisor.address) as client:
            for i, query in enumerate(twitter_small_queries):
                result = client.query(query)
                assert result.answers == expected[i]
                assert client.last_meta["generation"] == 1
                assert client.last_meta["pid"] in pids


def test_epoch_bump_mid_traffic_never_serves_stale(
    twitter_small, twitter_small_queries, tmp_path
):
    engine = _build_engine(twitter_small)
    queries = list(twitter_small_queries)
    oracle = {1: _oracle(engine, queries)}

    serving = tmp_path / "serving"
    publish_snapshot(serving, engine=engine)

    # Generation 2 adds an object sitting exactly on query 0's region and
    # tokens, so the two generations provably answer differently.
    probe = queries[0]
    engine.insert(probe.region, set(probe.tokens))
    oracle[2] = _oracle(engine, queries)
    assert oracle[1][0] != oracle[2][0], "the bump must change query 0's answer"

    observed: list = []
    errors: list = []
    stop = threading.Event()

    with ProcessSupervisor(
        serving, workers=WORKERS, service_config={"enable_cache": False}
    ) as supervisor:
        def drive() -> None:
            client = None
            try:
                client = _connect(supervisor.address)
                while not stop.is_set():
                    for i, query in enumerate(queries):
                        try:
                            result = client.query(query)
                        except ProtocolError:
                            # Recycled under us: reconnect, never accept
                            # a wrong answer silently.
                            client.close()
                            client = _connect(supervisor.address)
                            continue
                        observed.append(
                            (i, client.last_meta["generation"], result.answers)
                        )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                if client is not None:
                    client.close()

        threads = [threading.Thread(target=drive) for _ in range(3)]
        for t in threads:
            t.start()
        _wait_until(lambda: len(observed) > 20, message="traffic to start")

        assert supervisor.publish_engine(engine) == 2

        # The swap has returned: every subsequent answer must come from
        # generation 2 — check on a fresh connection immediately.
        with _connect(supervisor.address) as fresh:
            result = fresh.query(probe)
            assert fresh.last_meta["generation"] == 2
            assert result.answers == oracle[2][0]

        post_swap_floor = len(observed)
        _wait_until(
            lambda: len(observed) > post_swap_floor + 20,
            message="traffic after the swap",
        )
        stop.set()
        for t in threads:
            t.join(timeout=30.0)

    assert not errors, errors[:1]
    assert not any(t.is_alive() for t in threads)

    generations_seen = set()
    for i, generation, answers in observed:
        # The attribution invariant: whatever generation answered, the
        # answer is that generation's oracle — bit-identical, never a
        # blend and never a third thing.
        assert generation in oracle, f"unknown generation {generation}"
        assert answers == oracle[generation][i], (
            f"query {i} from generation {generation}: {answers} != oracle"
        )
        generations_seen.add(generation)
    assert generations_seen == {1, 2}, (
        f"traffic should straddle the bump, saw {generations_seen}"
    )


def test_killed_worker_raises_loudly_and_is_respawned(
    twitter_small, twitter_small_queries, tmp_path
):
    engine = _build_engine(twitter_small)
    expected = _oracle(engine, twitter_small_queries)
    publish_snapshot(tmp_path / "serving", engine=engine)
    with ProcessSupervisor(
        tmp_path / "serving", workers=WORKERS,
        service_config={"enable_cache": False},
    ) as supervisor:
        client = _connect(supervisor.address)
        try:
            client.query(twitter_small_queries[0])
            victim = client.last_meta["pid"]
            assert victim in supervisor.worker_pids()

            os.kill(victim, signal.SIGKILL)

            # The dead worker's connections fail LOUDLY: a ProtocolError,
            # not a wrong/empty answer.  (The kill can race the next
            # request, so allow a handful of successes first.)
            with pytest.raises(ProtocolError):
                for _ in range(50):
                    client.query(twitter_small_queries[0])
                    time.sleep(0.05)
        finally:
            client.close()

        _wait_until(
            lambda: supervisor.respawns >= 1
            and len(supervisor.worker_pids()) == WORKERS
            and victim not in supervisor.worker_pids(),
            message="the supervisor to respawn the killed worker",
        )

        # The pool is whole again and still answer-correct.
        with _connect(supervisor.address) as fresh:
            for i, query in enumerate(twitter_small_queries):
                assert fresh.query(query).answers == expected[i]


def test_swap_snapshot_from_file(twitter_small, twitter_small_queries, tmp_path):
    engine = _build_engine(twitter_small)
    publish_snapshot(tmp_path / "serving", engine=engine)

    probe = twitter_small_queries[0]
    engine.insert(probe.region, set(probe.tokens))
    after = tmp_path / "after.pkl"
    save_engine(engine, after)
    expected = _oracle(engine, twitter_small_queries)

    with ProcessSupervisor(
        tmp_path / "serving", workers=WORKERS,
        service_config={"enable_cache": False},
    ) as supervisor:
        assert supervisor.swap_snapshot(after) == 2
        assert supervisor.generation == 2
        with _connect(supervisor.address) as client:
            for i, query in enumerate(twitter_small_queries):
                assert client.query(query).answers == expected[i]
                assert client.last_meta["generation"] == 2


def test_worker_runs_the_engine_on_its_connection_thread(twitter_small, tmp_path, monkeypatch):
    """No hand-off inside a worker either: the engine call happens on
    the ``seal-worker-conn`` thread that read the frame."""
    publish_snapshot(tmp_path / "serving", engine=_build_engine(twitter_small[:20]))
    # Forked workers inherit the patched loader, so each serves an engine
    # that answers with the names of its own process's threads.
    monkeypatch.setattr(
        "repro.service.workers.load_engine",
        lambda path, mmap=False: ThreadReportingEngine(),
    )
    with ProcessSupervisor(
        tmp_path / "serving", workers=1, service_config={"enable_cache": False},
    ) as supervisor:
        with _connect(supervisor.address) as client:
            result = client.query(Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.1, 0.1))
            assert client.last_meta["pid"] in supervisor.worker_pids()
    caller, live = decode_threads(result)
    assert caller == "seal-worker-conn"
    assert "seal-worker-control" in live
    assert not any(name.startswith("seal-service") for name in live)


def test_close_reaps_every_worker(twitter_small, tmp_path):
    engine = _build_engine(twitter_small)
    publish_snapshot(tmp_path / "serving", engine=engine)
    supervisor = ProcessSupervisor(tmp_path / "serving", workers=WORKERS)
    supervisor.start()
    pids = supervisor.worker_pids()
    assert len(pids) == WORKERS
    supervisor.close()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert supervisor.worker_pids() == []
    # Idempotent.
    supervisor.close()


def test_supervisor_refuses_unpublished_directory(tmp_path):
    with pytest.raises(GenerationError):
        ProcessSupervisor(tmp_path / "nothing-here", workers=1)
