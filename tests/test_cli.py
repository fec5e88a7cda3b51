"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.io import load_corpus, load_queries, save_corpus, save_queries


@pytest.fixture()
def corpus_file(tmp_path, figure1_objects):
    path = tmp_path / "corpus.jsonl"
    save_corpus(figure1_objects, path)
    return path


class TestGenerate:
    def test_generate_twitter(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        rc = main(["generate", "twitter", "--num-objects", "50", "--out", str(out)])
        assert rc == 0
        assert len(load_corpus(out)) == 50
        assert "wrote 50 objects" in capsys.readouterr().out

    def test_generate_with_queries(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        queries = tmp_path / "q.jsonl"
        rc = main(
            [
                "generate", "usa", "--num-objects", "40", "--out", str(out),
                "--queries", str(queries), "--num-queries", "5", "--kind", "large",
            ]
        )
        assert rc == 0
        assert len(load_queries(queries)) == 5

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "twitter", "--num-objects", "30", "--seed", "3", "--out", str(a)])
        main(["generate", "twitter", "--num-objects", "30", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestStats:
    def test_stats(self, corpus_file, capsys):
        rc = main(["stats", str(corpus_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objects:            7" in out
        assert "distinct tokens:    5" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBuildAndQuery:
    def test_build_then_query(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "engine.pkl"
        rc = main(
            ["build", str(corpus_file), "--method", "seal", "--out", str(engine),
             "--mt", "8", "--max-level", "4"]
        )
        assert rc == 0
        assert "built seal over 7 objects" in capsys.readouterr().out

        # Figure 1's query; the answer is object 1 (o2).
        rc = main(
            ["query", str(engine), "--region", "35,10,75,70",
             "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 answers [1]" in out

    def test_query_with_workload_file(self, corpus_file, tmp_path, capsys, figure1_query):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query, figure1_query], workload)
        rc = main(["query", str(engine), "--queries", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query 0:" in out and "query 1:" in out

    def test_query_requires_region_or_file(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        rc = main(["query", str(engine)])
        assert rc == 2

    def test_query_bad_region(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        rc = main(["query", str(engine), "--region", "1,2,3", "--tokens", "a"])
        assert rc == 2

    def test_build_unknown_params_ignored_when_none(self, corpus_file, tmp_path):
        engine = tmp_path / "engine.pkl"
        rc = main(["build", str(corpus_file), "--method", "grid", "--out", str(engine),
                   "--granularity", "8"])
        assert rc == 0

    def test_build_and_query_mmap(self, corpus_file, tmp_path, capsys):
        """A signature index writes its CSR arrays to a sidecar that
        --mmap memory-maps; a baseline without a posting store writes
        none.  Answers match in all combinations."""
        from repro.io.snapshot import sidecar_path

        for method, knobs, has_sidecar in (
            ("seal", ["--mt", "8", "--max-level", "4"], True),
            ("spatial-first", [], False),
        ):
            engine = tmp_path / f"{method}.pkl"
            rc = main(
                ["build", str(corpus_file), "--method", method, "--out", str(engine), *knobs]
            )
            assert rc == 0
            assert sidecar_path(engine).exists() == has_sidecar
            capsys.readouterr()
            for extra in ([], ["--mmap"]):
                rc = main(
                    ["query", str(engine), "--region", "35,10,75,70",
                     "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3",
                     *extra]
                )
                assert rc == 0
                assert "1 answers [1]" in capsys.readouterr().out

    def test_build_has_no_backend_flag(self, corpus_file, tmp_path, capsys):
        """There is one posting store; the flag that chose one is gone."""
        with pytest.raises(SystemExit) as usage:
            main(["build", str(corpus_file), "--method", "token",
                  "--out", str(tmp_path / "x.pkl"), "--backend", "python"])
        assert usage.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not (tmp_path / "x.pkl").exists()

    @pytest.mark.parametrize("segmented", [[], ["--segmented"]], ids=["flat", "segmented"])
    @pytest.mark.parametrize(
        "method, flag, knob",
        [
            ("keyword-first", "--granularity", "granularity"),
            ("token", "--mt", "mt"),
            # Neither of the planner's members is an R-tree or takes a
            # per-token grid budget.
            ("planned", "--max-entries", "max_entries"),
            ("planned", "--mt", "mt"),
        ],
    )
    def test_build_unsupported_knob_errors_cleanly(
        self, corpus_file, tmp_path, capsys, method, flag, knob, segmented
    ):
        """A knob the method (for ``planned``, both of its members) has
        no use for exits 2 naming the knob and the method — not a
        constructor TypeError traceback, not a silent no-op — and writes
        no snapshot."""
        rc = main(["build", str(corpus_file), "--method", method,
                   "--out", str(tmp_path / "x.pkl"), flag, "8", *segmented])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(knob) in err and repr(method) in err
        assert not (tmp_path / "x.pkl").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("build", ["--planner-methods", "token,grid"]),
            ("build", ["--coefficients", "c.json"]),
            ("plan", ["--record", "rows.jsonl"]),
            ("plan", ["--fit", "c.json"]),
            ("plan", ["--apply"]),
        ],
    )
    def test_the_cost_models_flags_are_gone(self, corpus_file, tmp_path, capsys,
                                            command, flags):
        target = str(corpus_file) if command == "build" else str(tmp_path / "p.pkl")
        with pytest.raises(SystemExit) as usage:
            main([command, target, "--out", str(tmp_path / "x.pkl"), *flags])
        assert usage.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "x.pkl").exists()

    def test_query_batch_file(self, corpus_file, tmp_path, capsys, figure1_query):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query, figure1_query], workload)
        rc = main(["query", str(engine), "--batch-file", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query 0: 1 answers [1]" in out
        assert "query 1: 1 answers [1]" in out
        assert "batch: 2 queries" in out

    def test_query_batch_file_segmented_engine(self, corpus_file, tmp_path, capsys, figure1_query):
        engine = tmp_path / "live.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine),
              "--segmented", "--buffer-capacity", "4"])
        capsys.readouterr()
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query], workload)
        rc = main(["query", str(engine), "--batch-file", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query 0: 1 answers [1]" in out
        assert "batch: 1 queries" in out


class TestSegmentedCommands:
    @pytest.fixture()
    def segmented_engine(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "live.pkl"
        rc = main(["build", str(corpus_file), "--method", "token", "--segmented",
                   "--buffer-capacity", "4", "--out", str(engine)])
        assert rc == 0
        assert "token segmented" in capsys.readouterr().out
        return engine

    def test_update_single_object(self, segmented_engine, capsys):
        rc = main(["update", str(segmented_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 1 objects (oid 7)" in out
        assert "8 live objects" in out
        # The inserted object answers queries straight from the snapshot.
        rc = main(["query", str(segmented_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2", "--tau-r", "0.9", "--tau-t", "0.0"])
        assert rc == 0
        assert "[7]" in capsys.readouterr().out

    def test_update_from_corpus_file(self, segmented_engine, corpus_file, capsys):
        rc = main(["update", str(segmented_engine), "--from", str(corpus_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 7 objects (oids 7..13)" in out
        assert "14 live objects" in out

    def test_update_requires_input(self, segmented_engine, capsys):
        rc = main(["update", str(segmented_engine)])
        assert rc == 2
        assert "provide --region/--tokens and/or --from" in capsys.readouterr().err

    def test_update_from_empty_corpus_is_noop_success(self, segmented_engine,
                                                      tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["update", str(segmented_engine), "--from", str(empty)])
        assert rc == 0
        assert "inserted 0 objects" in capsys.readouterr().out

    def test_update_bad_region_is_friendly(self, segmented_engine, capsys):
        rc = main(["update", str(segmented_engine), "--region", "1,2,x,4",
                   "--tokens", "a"])
        assert rc == 2
        assert "--region needs x1,y1,x2,y2" in capsys.readouterr().err

    def test_segmented_knobs_require_segmented(self, corpus_file, tmp_path, capsys):
        rc = main(["build", str(corpus_file), "--method", "token",
                   "--buffer-capacity", "64", "--out", str(tmp_path / "x.pkl")])
        assert rc == 2
        assert "require --segmented" in capsys.readouterr().err

    def test_delete_and_compact(self, segmented_engine, capsys):
        rc = main(["delete", str(segmented_engine), "--oids", "1,99"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deleted 1 objects (not live: [99])" in out
        rc = main(["query", str(segmented_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3"])
        assert rc == 0
        assert "0 answers" in capsys.readouterr().out  # object 1 was the answer
        rc = main(["compact", str(segmented_engine)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "0 tombstones" in out

    def test_update_rejects_non_segmented_snapshot(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "static.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        for argv in (
            ["update", str(engine), "--region", "0,0,1,1", "--tokens", "a"],
            ["delete", str(engine), "--oids", "1"],
            ["compact", str(engine)],
        ):
            rc = main(argv)
            assert rc == 2
            assert "does not hold a segmented engine" in capsys.readouterr().err


class TestWALCommands:
    @pytest.fixture()
    def durable_engine(self, corpus_file, tmp_path, capsys):
        engine, wal = tmp_path / "live.pkl", tmp_path / "live.wal"
        rc = main(["build", str(corpus_file), "--method", "token", "--segmented",
                   "--buffer-capacity", "4", "--out", str(engine),
                   "--wal", str(wal), "--wal-sync", "batch"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"WAL at {wal} (batch sync)" in out
        return engine, wal

    def test_build_wal_requires_segmented(self, corpus_file, tmp_path, capsys):
        rc = main(["build", str(corpus_file), "--out", str(tmp_path / "e.pkl"),
                   "--wal", str(tmp_path / "e.wal")])
        assert rc == 2
        assert "--wal requires --segmented" in capsys.readouterr().err

    def test_build_refuses_existing_wal(self, corpus_file, tmp_path, capsys,
                                        durable_engine):
        engine, wal = durable_engine
        rc = main(["build", str(corpus_file), "--method", "token", "--segmented",
                   "--out", str(engine), "--wal", str(wal)])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_update_logs_instead_of_rewriting_snapshot(self, durable_engine, capsys):
        engine, wal = durable_engine
        before = engine.read_bytes()
        rc = main(["update", str(engine), "--wal", str(wal),
                   "--region", "35,10,75,70", "--tokens", "t1,t9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 1 objects (oid 7)" in out
        assert "snapshot unchanged" in out
        assert engine.read_bytes() == before  # the O(1)-update contract

    def test_delete_with_wal_then_recover_round_trips(self, durable_engine, capsys):
        engine, wal = durable_engine
        main(["update", str(engine), "--wal", str(wal),
              "--region", "35,10,75,70", "--tokens", "t1,t9"])
        rc = main(["delete", str(engine), "--wal", str(wal), "--oids", "2,99"])
        assert rc == 0
        assert "deleted 1 objects (not live: [99])" in capsys.readouterr().out
        rc = main(["recover", str(engine), "--wal", str(wal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered 7 live objects from snapshot+wal (3 WAL records replayed)" in out
        assert f"checkpointed to {engine}" in out
        # The checkpoint truncated the log: recovering again replays 0.
        rc = main(["recover", str(engine), "--wal", str(wal), "--no-checkpoint"])
        assert rc == 0
        assert "(0 WAL records replayed)" in capsys.readouterr().out

    def test_recover_out_writes_elsewhere(self, durable_engine, tmp_path, capsys):
        engine, wal = durable_engine
        main(["update", str(engine), "--wal", str(wal),
              "--region", "35,10,75,70", "--tokens", "t1"])
        target = tmp_path / "repaired.pkl"
        rc = main(["recover", str(engine), "--wal", str(wal), "--out", str(target)])
        assert rc == 0
        assert f"checkpointed to {target}" in capsys.readouterr().out
        assert target.exists()

    def test_update_with_out_checkpoints(self, durable_engine, tmp_path, capsys):
        engine, wal = durable_engine
        target = tmp_path / "checkpointed.pkl"
        rc = main(["update", str(engine), "--wal", str(wal), "--out", str(target),
                   "--region", "35,10,75,70", "--tokens", "t1"])
        assert rc == 0
        assert f"checkpointed to {target}" in capsys.readouterr().out
        rc = main(["recover", str(target), "--wal", str(wal), "--no-checkpoint"])
        assert rc == 0
        assert "(0 WAL records replayed)" in capsys.readouterr().out

    def test_compact_with_wal_logs_the_compaction(self, durable_engine, capsys):
        engine, wal = durable_engine
        rc = main(["compact", str(engine), "--wal", str(wal)])
        assert rc == 0
        assert "snapshot unchanged" in capsys.readouterr().out
        from repro.io.wal import read_wal

        assert [r.payload["op"] for r in read_wal(wal).operations()] == ["compact"]

    @pytest.fixture()
    def recovered(self, monkeypatch):
        """Every engine a command recovers from its WAL, in order."""
        import repro.cli as cli

        engines = []
        real = cli.recover_engine

        def recording(*args, **kwargs):
            engines.append(real(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(cli, "recover_engine", recording)
        return engines

    @pytest.mark.parametrize("usage_error", [
        ["update", "--region", "35,10,75,70"],
        ["update", "--region", "not-a-region", "--tokens", "t1"],
        ["update"],
    ], ids=["tokens-missing", "bad-region", "nothing-to-insert"])
    def test_update_usage_error_leaves_no_wal_open(self, durable_engine, recovered,
                                                  usage_error, capsys):
        engine, wal = durable_engine
        command, *flags = usage_error
        rc = main([command, str(engine), "--wal", str(wal), *flags])
        assert rc == 2 and "error:" in capsys.readouterr().err
        assert all(durable.wal.closed for durable in recovered)
        # Nothing holds the log: the next command recovers it as usual.
        assert main(["recover", str(engine), "--wal", str(wal), "--no-checkpoint"]) == 0

    def test_update_from_an_empty_file_closes_the_wal(self, durable_engine, recovered,
                                                     tmp_path, capsys):
        engine, wal = durable_engine
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["update", str(engine), "--wal", str(wal), "--from", str(empty)])
        assert rc == 0 and "inserted 0 objects" in capsys.readouterr().out
        assert len(recovered) == 1 and recovered[0].wal.closed

    @pytest.mark.parametrize("oids", ["1,x", ","])
    def test_delete_usage_error_leaves_no_wal_open(self, durable_engine, recovered, oids,
                                                  capsys):
        engine, wal = durable_engine
        rc = main(["delete", str(engine), "--wal", str(wal), "--oids", oids])
        assert rc == 2 and "--oids needs" in capsys.readouterr().err
        assert all(durable.wal.closed for durable in recovered)

    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--repeat", "0"], ["--empty"]],
                             ids=["threads-0", "repeat-0", "no-queries"])
    def test_serve_usage_error_leaves_no_wal_open(self, durable_engine, recovered, flags,
                                                 tmp_path, figure1_query, capsys):
        engine, wal = durable_engine
        workload = tmp_path / "q.jsonl"
        save_queries([] if flags == ["--empty"] else [figure1_query], workload)
        flags = [] if flags == ["--empty"] else flags
        rc = main(["serve", str(engine), "--queries", str(workload), "--wal", str(wal), *flags])
        assert rc == 2 and "error:" in capsys.readouterr().err
        assert all(durable.wal.closed for durable in recovered)

    def test_recover_missing_wal_fails_loudly(self, durable_engine, capsys):
        engine, _ = durable_engine
        rc = main(["recover", str(engine), "--wal", str(engine) + ".nope"])
        assert rc == 2
        assert "WAL not found" in capsys.readouterr().err

    def test_serve_with_wal_recovers_and_checkpoints(self, durable_engine, tmp_path,
                                                     figure1_query, capsys):
        engine, wal = durable_engine
        main(["update", str(engine), "--wal", str(wal),
              "--region", "35,10,75,70", "--tokens", "t1,t2"])
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query], workload)
        capsys.readouterr()
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--threads", "2", "--repeat", "2",
                   "--wal", str(wal), "--wal-sync", "batch"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered 8 live objects from snapshot+wal (1 WAL records replayed)" in out
        assert "served 4 requests" in out
        assert f"checkpointed to {engine}" in out
        # The serve-exit checkpoint absorbed the tail.
        rc = main(["recover", str(engine), "--wal", str(wal), "--no-checkpoint"])
        assert rc == 0
        assert "(0 WAL records replayed)" in capsys.readouterr().out


class TestSweep:
    def test_sweep_prints_table(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "twitter", "--num-objects", "120", "--out", str(corpus)])
        capsys.readouterr()
        rc = main(
            ["sweep", str(corpus), "--methods", "token,naive", "--taus", "0.1,0.5",
             "--num-queries", "4", "--axis", "tau_t"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "token" in out and "naive" in out
        assert "candidates per query" in out


class TestViaService:
    @pytest.fixture()
    def engine_and_workload(self, corpus_file, tmp_path, figure1_query, capsys):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query, figure1_query], workload)
        capsys.readouterr()
        return engine, workload

    def test_single_query_via_service(self, engine_and_workload, capsys):
        engine, _ = engine_and_workload
        rc = main(["query", str(engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3",
                   "--via-service"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 answers [1]" in out
        assert "service: epoch 0" in out and "rejected 0" in out

    def test_workload_via_service_hits_cache_on_repeat(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["query", str(engine), "--queries", str(workload), "--via-service"])
        assert rc == 0
        out = capsys.readouterr().out
        # The workload repeats one query: the second run is a cache hit.
        assert "query 0: 1 answers [1]" in out
        assert "query 1: 1 answers [1]" in out
        assert "cache hits 1/2 (50%)" in out

    def test_batch_via_service(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["query", str(engine), "--batch-file", str(workload), "--via-service"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch: 2 queries" in out
        assert "service: epoch 0" in out

    def test_plain_batch_output_unchanged(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["query", str(engine), "--batch-file", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch: 2 queries" in out and "service:" not in out


class TestServe:
    @pytest.fixture()
    def engine_and_workload(self, corpus_file, tmp_path, figure1_query, capsys):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query], workload)
        capsys.readouterr()
        return engine, workload

    def test_serve_prints_summary_and_metrics_json(self, engine_and_workload, capsys):
        import json

        engine, workload = engine_and_workload
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--threads", "2", "--repeat", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 6 requests" in out
        assert "service: epoch 0" in out
        # The metrics document prints as valid JSON after the summary.
        metrics = json.loads(out[out.index("{"):])
        assert metrics["requests"]["total"] == 6
        assert metrics["cache"]["hits"] + metrics["cache"]["misses"] == 6
        assert metrics["admission"]["rejected"] == 0

    def test_serve_metrics_out_writes_file(self, engine_and_workload, tmp_path, capsys):
        import json

        engine, workload = engine_and_workload
        metrics_path = tmp_path / "metrics.json"
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--threads", "2", "--repeat", "2",
                   "--metrics-out", str(metrics_path)])
        assert rc == 0
        assert "metrics JSON written to" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["engine"] == "TokenFilter"
        assert metrics["latency_ms"]["count"] == 4

    def test_serve_no_cache_runs_every_request(self, engine_and_workload, capsys):
        import json

        engine, workload = engine_and_workload
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--threads", "2", "--repeat", "2", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        metrics = json.loads(out[out.index("{"):])
        assert metrics["cache"] is None
        assert metrics["admission"]["submitted"] == 4

    def test_serve_rejects_empty_workload(self, engine_and_workload, tmp_path, capsys):
        engine, _ = engine_and_workload
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["serve", str(engine), "--queries", str(empty)])
        assert rc == 2
        assert "no queries" in capsys.readouterr().err

    def test_serve_validates_thread_counts(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["serve", str(engine), "--queries", str(workload), "--threads", "0"])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    def test_serve_rejects_zero_deadline(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--deadline-ms", "0"])
        assert rc == 2
        assert "--deadline-ms must be positive" in capsys.readouterr().err

    def test_serve_with_deadline_runs(self, engine_and_workload, capsys):
        engine, workload = engine_and_workload
        rc = main(["serve", str(engine), "--queries", str(workload),
                   "--threads", "2", "--deadline-ms", "5000"])
        assert rc == 0
        assert "served 2 requests" in capsys.readouterr().out

    def test_serve_segmented_engine(self, corpus_file, tmp_path, figure1_query, capsys):
        engine = tmp_path / "live.pkl"
        main(["build", str(corpus_file), "--method", "token", "--segmented",
              "--out", str(engine)])
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query], workload)
        capsys.readouterr()
        rc = main(["serve", str(engine), "--queries", str(workload), "--threads", "2"])
        assert rc == 0
        assert "SegmentedSealSearch" in capsys.readouterr().out


class TestInspect:
    @pytest.fixture()
    def plain_engine(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "engine.pkl"
        assert main(["build", str(corpus_file), "--method", "token",
                     "--out", str(engine)]) == 0
        capsys.readouterr()
        return engine

    def test_inspect_plain_snapshot(self, plain_engine, capsys):
        rc = main(["inspect", str(plain_engine)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "format:             7" in out
        assert "columnar arrays:" in out
        assert "not a segmented engine" in out

    def test_inspect_segmented_shows_manifest(self, corpus_file, tmp_path, capsys):
        import json

        engine = tmp_path / "live.pkl"
        main(["build", str(corpus_file), "--method", "token", "--segmented",
              "--buffer-capacity", "4", "--out", str(engine)])
        main(["delete", str(engine), "--oids", "0"])
        capsys.readouterr()
        rc = main(["inspect", str(engine)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 tombstones" in out
        assert "segments:" in out
        assert "tier 0, token index" in out
        main(["inspect", str(engine), "--json"])
        segments = json.loads(capsys.readouterr().out)["manifest"]["segments"]
        assert segments and all(segment["method"] == "token" for segment in segments)

    def test_inspect_serving_directory(self, plain_engine, tmp_path, capsys):
        from repro.io import publish_snapshot

        serving = tmp_path / "serving"
        publish_snapshot(serving, source_path=plain_engine)
        rc = main(["inspect", str(serving)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "current generation: 1" in out
        assert str(plain_engine.resolve()) in out

    def test_inspect_json_mode(self, plain_engine, capsys):
        import json

        rc = main(["inspect", str(plain_engine), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == 7
        assert document["num_arrays"] >= 1
        assert document["sidecar"]["bytes"] > 0

    def test_inspect_missing_path_is_friendly(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "nope.pkl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestNetServeAndClient:
    """End-to-end: `serve --net` in a child process, `client` against it."""

    @pytest.fixture()
    def engine_and_workload(self, corpus_file, tmp_path, figure1_query, capsys):
        engine = tmp_path / "engine.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        workload = tmp_path / "q.jsonl"
        save_queries([figure1_query], workload)
        capsys.readouterr()
        return engine, workload

    def test_serve_without_net_requires_queries(self, engine_and_workload, capsys):
        engine, _ = engine_and_workload
        rc = main(["serve", str(engine)])
        assert rc == 2
        assert "--queries is required" in capsys.readouterr().err

    def test_client_validates_counts(self, engine_and_workload, capsys):
        _, workload = engine_and_workload
        rc = main(["client", "--port", "1", "--queries", str(workload),
                   "--connections", "0"])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    def test_client_against_no_server_fails_loudly(self, engine_and_workload, capsys):
        _, workload = engine_and_workload
        # A port from the dynamic range with nothing listening.
        rc = main(["client", "--port", "1", "--queries", str(workload),
                   "--connections", "1", "--timeout", "2"])
        assert rc == 2
        assert "failed" in capsys.readouterr().err

    def test_net_serve_client_oracle_round_trip(self, engine_and_workload, tmp_path):
        import re
        import signal as signal_module
        import subprocess
        import sys

        engine, workload = engine_and_workload
        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(engine), "--net",
             "--workers-procs", "2", "--port", "0", "--max-seconds", "120",
             "--serving-dir", str(tmp_path / "serving")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            address = None
            for line in server.stdout:
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                if match:
                    address = match.group(1), int(match.group(2))
                    break
            assert address, "server never reported its address"

            rc = main(["client", "--host", address[0], "--port", str(address[1]),
                       "--queries", str(workload), "--connections", "2",
                       "--repeat", "3", "--oracle", str(engine)])
            assert rc == 0

            server.send_signal(signal_module.SIGINT)
            out, _ = server.communicate(timeout=60)
            assert "drained" in out
            assert server.returncode == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()

    def test_net_serve_client_oracle_output(self, engine_and_workload, tmp_path, capsys):
        # The in-process half of the round trip: drive `client` against a
        # ProcessSupervisor started through the library, checking output.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        from repro.io import publish_snapshot
        from repro.service import ProcessSupervisor

        engine, workload = engine_and_workload
        serving = tmp_path / "serving"
        publish_snapshot(serving, source_path=engine)
        with ProcessSupervisor(serving, workers=1) as supervisor:
            host, port = supervisor.address
            rc = main(["client", "--host", host, "--port", str(port),
                       "--queries", str(workload), "--connections", "1",
                       "--repeat", "2", "--oracle", str(engine)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "drove 2 requests" in out
        assert "identical to" in out

    def test_net_serve_with_wal_boots_from_recovered_checkpoint(
        self, corpus_file, tmp_path, capsys
    ):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        engine, wal = tmp_path / "live.pkl", tmp_path / "live.wal"
        main(["build", str(corpus_file), "--method", "token", "--segmented",
              "--buffer-capacity", "4", "--out", str(engine),
              "--wal", str(wal), "--wal-sync", "batch"])
        # Leave an unreplayed tail in the log.
        main(["update", str(engine), "--wal", str(wal), "--region", "0,0,5,5",
              "--tokens", "t9"])
        capsys.readouterr()
        rc = main(["serve", str(engine), "--net", "--wal", str(wal),
                   "--workers-procs", "1", "--max-seconds", "1.0",
                   "--serving-dir", str(tmp_path / "serving")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert f"checkpointed to {engine}" in out
        assert "listening on" in out
        assert "drained" in out


    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_net_serve_with_wal_boots_from_a_legacy_config_record(
        self, tmp_path, capsys, backend
    ):
        """A generation-0 log whose config record names the index backend
        an earlier `build --backend …` chose: `serve --wal` boots from it
        and serves the from-scratch oracle's answers."""
        import multiprocessing

        from repro import Query, Rect
        from repro.io import load_engine
        from tests.durable_testlib import fill, make_uncheckpointed, oracle_answers, snapshot_of, wal_of

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        primary = make_uncheckpointed(tmp_path, params={"backend": backend})
        fill(primary, 9)
        primary.delete(4)
        probe = Query(Rect(0.0, 0.0, 14.0, 6.0), frozenset({"coffee"}), 0.01, 0.0)
        expected = oracle_answers(primary, probe)
        assert expected
        primary.close()
        rc = main(["serve", str(snapshot_of(tmp_path)), "--net", "--wal", str(wal_of(tmp_path)),
                   "--workers-procs", "1", "--max-seconds", "1.0",
                   "--serving-dir", str(tmp_path / "serving")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wal-only" in out and "listening on" in out and "drained" in out
        # What it booted, served and checkpointed is the oracle's engine.
        assert load_engine(snapshot_of(tmp_path)).search_query(probe).answers == expected


class TestPlan:
    """`build --method planned`, `plan`, and `query --explain` smoke."""

    @pytest.fixture()
    def planned_engine(self, corpus_file, tmp_path):
        engine = tmp_path / "planned.pkl"
        rc = main(["build", str(corpus_file), "--method", "planned",
                   "--granularity", "8", "--out", str(engine)])
        assert rc == 0
        return engine

    def test_build_accepts_the_members_knobs_for_planned(self, corpus_file, tmp_path, capsys):
        # The planner wrapper takes **params; the knob validation must
        # not reject flags it cannot see in the signature.
        rc = main(["build", str(corpus_file), "--method", "planned",
                   "--granularity", "8", "--out", str(tmp_path / "p.pkl")])
        assert rc == 0
        assert "built planned over 7 objects" in capsys.readouterr().out

    def test_inspect_shows_planner_manifest(self, planned_engine, capsys):
        rc = main(["inspect", str(planned_engine)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planned over ['token', 'grid']" in out
        assert "rule:" in out and "-> grid" in out

    def test_inspect_json_manifest_kind(self, planned_engine, capsys):
        import json

        rc = main(["inspect", str(planned_engine), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["manifest"]["kind"] == "planned"
        assert document["manifest"]["methods"] == ["token", "grid"]

    def test_query_explain(self, planned_engine, capsys):
        rc = main(["query", str(planned_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3",
                   "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 answers [1]" in out
        assert "plan: token  [tau_t > 0 and query tokens: c_T > 0" in out

    def test_query_explain_names_the_spatial_branch(self, planned_engine, capsys):
        rc = main(["query", str(planned_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0",
                   "--explain"])
        assert rc == 0
        assert "plan: grid  [tau_t = 0: c_T = 0" in capsys.readouterr().out

    def test_query_explain_rejects_unplanned_engine(self, corpus_file, tmp_path,
                                                    capsys):
        engine = tmp_path / "token.pkl"
        main(["build", str(corpus_file), "--method", "token", "--out", str(engine)])
        capsys.readouterr()
        rc = main(["query", str(engine), "--region", "35,10,75,70",
                   "--tokens", "t1", "--explain"])
        assert rc == 2
        assert "planned engine" in capsys.readouterr().err

    def test_plan_single_query(self, planned_engine, capsys):
        rc = main(["plan", str(planned_engine), "--region", "35,10,75,70",
                   "--tokens", "t1,t2,t3", "--tau-r", "0.25", "--tau-t", "0.3"])
        assert rc == 0
        assert "query 0: ->" in capsys.readouterr().out

    def test_plan_workload_tallies_the_rule(self, planned_engine, tmp_path, capsys,
                                            figure1_query):
        queries = tmp_path / "q.jsonl"
        save_queries([figure1_query, figure1_query.with_thresholds(tau_r=0.25, tau_t=0.0)],
                     queries)
        rc = main(["plan", str(planned_engine), "--queries", str(queries)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query 1: -> grid  [tau_t = 0: c_T = 0" in out
        assert "selections over 2 queries: grid: 1, token: 1" in out

    def test_plan_json_document(self, planned_engine, capsys):
        import json

        rc = main(["plan", str(planned_engine), "--region", "35,10,75,70",
                   "--tokens", "t1", "--json"])
        assert rc == 0
        (decision,) = json.loads(capsys.readouterr().out)["queries"]
        assert decision["chosen"] == "token" and decision["branch"] == "tau_t > 0 and query tokens"
        assert set(decision) == {"chosen", "branch", "why"}

    def test_plan_workload_json_document(self, planned_engine, tmp_path, capsys,
                                         figure1_query):
        import json

        queries = tmp_path / "q.jsonl"
        save_queries([figure1_query, figure1_query.with_thresholds(tau_r=0.25, tau_t=0.0),
                      figure1_query.with_thresholds(tau_r=0.0, tau_t=0.3)], queries)
        rc = main(["plan", str(planned_engine), "--queries", str(queries), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["engine"] == str(planned_engine)
        assert [(d["chosen"], d["branch"]) for d in document["queries"]] == [
            ("token", "tau_t > 0 and query tokens"),
            ("grid", "tau_t = 0"),
            ("token", "tau_t > 0 and query tokens"),
        ]

    def test_plan_rejects_unplanned_engine(self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "grid.pkl"
        main(["build", str(corpus_file), "--method", "grid", "--out", str(engine)])
        capsys.readouterr()
        rc = main(["plan", str(engine), "--region", "0,0,1,1", "--tokens", "t1"])
        assert rc == 2
        assert "no query planner" in capsys.readouterr().err

    def test_query_explain_says_why_a_small_segmented_planned_engine_has_no_planner(
            self, corpus_file, tmp_path, capsys):
        """The engine was built with --method planned: the hint is the
        segment size, not "build a planned engine" (as ``plan`` says)."""
        engine = tmp_path / "live.pkl"
        main(["build", str(corpus_file), "--method", "planned", "--segmented",
              "--out", str(engine)])
        capsys.readouterr()
        for command in (["query", "--explain"], ["plan"]):
            rc = main([command[0], str(engine), "--region", "0,0,1,1", "--tokens", "t1",
                       *command[1:]])
            assert rc == 2
            err = capsys.readouterr().err
            assert "holds no query planner" in err and "every segment is below" in err
            assert "--method planned" not in err

    def test_plan_says_why_a_small_segmented_planned_engine_has_no_planner(
            self, corpus_file, tmp_path, capsys):
        engine = tmp_path / "live.pkl"
        main(["build", str(corpus_file), "--method", "planned", "--segmented",
              "--out", str(engine)])
        capsys.readouterr()
        rc = main(["plan", str(engine), "--region", "0,0,1,1", "--tokens", "t1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no query planner" in err and "every segment is below the size" in err
