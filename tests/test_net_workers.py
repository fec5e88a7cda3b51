"""ProcessSupervisor tests: fork, differential, kill, drain.

Every worker memory-maps the supervisor's snapshot and answers exactly
as the engine it was saved from; a SIGKILLed worker surfaces as a loud
:class:`ProtocolError` on its connections (never a wrong or empty
answer) and is respawned onto the same path.  Every response carries
the worker's ``pid``, so each answer is attributed to the process that
produced it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro import Query, Rect, SegmentedSealSearch
from repro.core.errors import ConfigurationError, ProtocolError, ServiceError
from repro.io import load_engine, save_engine
from repro.io.snapshot import SnapshotError, sidecar_path
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


def _save(engine, tmp_path):
    """Save ``engine`` to ``tmp_path / "engine.pkl"`` and return the path."""
    path = tmp_path / "engine.pkl"
    save_engine(engine, path)
    return path


@pytest.fixture()
def snapshot(twitter_small, tmp_path):
    """A saved small engine."""
    return _save(_build_engine(twitter_small[:20]), tmp_path)


def _oracle(engine, queries):
    return [
        engine.search(q.region, q.tokens, q.tau_r, q.tau_t).answers for q in queries
    ]


def _connect(address, timeout: float = 15.0, attempts: int = 20) -> NetworkClient:
    """Connect with retries (a respawn window may refuse briefly)."""
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
    with ProcessSupervisor(
        _save(engine, tmp_path), workers=WORKERS,
        service_config={"enable_cache": False},
    ) as supervisor:
        pids = supervisor.worker_pids()
        assert len(pids) == WORKERS
        with _connect(supervisor.address) as client:
            for i, query in enumerate(twitter_small_queries):
                result = client.query(query)
                assert result.answers == expected[i]
                assert client.last_meta["generation"] is None
                assert client.last_meta["pid"] in pids


def test_killed_worker_raises_loudly_and_is_respawned(
    twitter_small, twitter_small_queries, tmp_path, monkeypatch
):
    engine = _build_engine(twitter_small)
    expected = _oracle(engine, twitter_small_queries)
    path = _save(engine, tmp_path)
    loads = tmp_path / "loads"
    loads.mkdir()

    def recording_load(snapshot, mmap=False):
        # Forked workers inherit this loader: each notes the path it maps.
        (loads / str(os.getpid())).write_text(str(snapshot))
        return load_engine(snapshot, mmap=mmap)

    monkeypatch.setattr("repro.service.workers.load_engine", recording_load)
    with ProcessSupervisor(
        path, workers=WORKERS,
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

        # The respawned worker maps the supervisor's own path.
        for pid in supervisor.worker_pids():
            assert (loads / str(pid)).read_text() == str(path)
        # The pool is whole again and still answer-correct.
        with _connect(supervisor.address) as fresh:
            for i, query in enumerate(twitter_small_queries):
                assert fresh.query(query).answers == expected[i]


def test_worker_runs_the_engine_on_its_connection_thread(twitter_small, tmp_path, monkeypatch):
    """No hand-off inside a worker either: the engine call happens on
    the ``seal-worker-conn`` thread that read the frame."""
    path = _save(_build_engine(twitter_small[:20]), tmp_path)
    # Forked workers inherit the patched loader, so each serves an engine
    # that answers with the names of its own process's threads.
    monkeypatch.setattr(
        "repro.service.workers.load_engine",
        lambda path, mmap=False: ThreadReportingEngine(),
    )
    with ProcessSupervisor(
        path, workers=1, service_config={"enable_cache": False},
    ) as supervisor:
        with _connect(supervisor.address) as client:
            result = client.query(Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.1, 0.1))
            assert client.last_meta["pid"] in supervisor.worker_pids()
    caller, live = decode_threads(result)
    assert caller == "seal-worker-conn"
    assert "seal-worker-control" in live
    assert not any(name.startswith("seal-service") for name in live)


def test_close_reaps_every_worker(twitter_small, tmp_path):
    supervisor = ProcessSupervisor(_save(_build_engine(twitter_small), tmp_path), workers=WORKERS)
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


def test_supervisor_refuses_an_empty_pool(snapshot):
    with pytest.raises(ConfigurationError, match="workers"):
        ProcessSupervisor(snapshot, workers=0)


def test_an_unstarted_supervisor_has_no_address_or_workers(snapshot):
    supervisor = ProcessSupervisor(snapshot, workers=1)
    assert supervisor.worker_pids() == []
    with pytest.raises(ServiceError, match="not started"):
        supervisor.address
    supervisor.close()  # nothing forked: closing is a no-op


@pytest.mark.parametrize("case", ["missing", "garbage", "stale-format", "missing-sidecar"])
def test_supervisor_refuses_a_bad_snapshot_before_forking(twitter_small, tmp_path, case):
    path = tmp_path / "engine.pkl"
    if case == "garbage":
        path.write_bytes(b"not a snapshot")
    elif case == "stale-format":
        _save(_build_engine(twitter_small[:20]), tmp_path)
        envelope = pickle.loads(path.read_bytes())
        envelope["format"] -= 1
        path.write_bytes(pickle.dumps(envelope))
    elif case == "missing-sidecar":
        # A worker would die booting it; the supervisor refuses first.
        _save(_build_engine(twitter_small[:20]), tmp_path)
        sidecar_path(path).unlink()
    children = set(multiprocessing.active_children())
    with pytest.raises(SnapshotError):
        ProcessSupervisor(path, workers=1)
    assert set(multiprocessing.active_children()) == children


def test_supervisor_serves_a_relative_snapshot_path(twitter_small, twitter_small_queries,
                                                    tmp_path, monkeypatch):
    """Forked workers inherit the supervisor's working directory, so a
    relative path names the same file in every worker."""
    engine = _build_engine(twitter_small[:20])
    expected = _oracle(engine, twitter_small_queries)
    _save(engine, tmp_path)
    monkeypatch.chdir(tmp_path)
    with ProcessSupervisor(
        "engine.pkl", workers=1, service_config={"enable_cache": False},
    ) as supervisor:
        with _connect(supervisor.address) as client:
            for i, query in enumerate(twitter_small_queries):
                assert client.query(query).answers == expected[i]
