"""Tests for corpus/workload files and engine snapshots."""

from __future__ import annotations

import pytest

from repro import METHOD_REGISTRY, Query, Rect, SealSearch, build_method, make_corpus
from repro.io import load_corpus, load_engine, load_queries, save_corpus, save_engine, save_queries
from repro.io.corpus_io import CorpusFormatError
from repro.io.snapshot import SnapshotError


class TestCorpusRoundTrip:
    def test_round_trip(self, tmp_path, figure1_objects):
        path = tmp_path / "corpus.jsonl"
        assert save_corpus(figure1_objects, path) == len(figure1_objects)
        loaded = load_corpus(path)
        assert loaded == list(figure1_objects)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":0,"region":[0,0,1,1],"tokens":["a"]}\n\n')
        assert len(load_corpus(path)) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{nope}\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_oid_gap_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":5,"region":[0,0,1,1],"tokens":["a"]}\n')
        with pytest.raises(CorpusFormatError, match="expected oid 0"):
            load_corpus(path)

    def test_bad_region(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":0,"region":[0,0,1],"tokens":["a"]}\n')
        with pytest.raises(CorpusFormatError, match="region"):
            load_corpus(path)

    def test_boolean_coordinate_is_not_a_number(self, tmp_path):
        """JSON ``true`` is an ``int`` to Python; it used to load as x1 = 1.0."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":0,"region":[true,0,2,2],"tokens":["a"]}\n')
        with pytest.raises(CorpusFormatError, match=r"c\.jsonl:1: 'region'"):
            load_corpus(path)

    def test_inverted_region(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":0,"region":[5,0,1,1],"tokens":["a"]}\n')
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_bad_tokens(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"oid":0,"region":[0,0,1,1],"tokens":[1,2]}\n')
        with pytest.raises(CorpusFormatError, match="tokens"):
            load_corpus(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(CorpusFormatError, match="JSON object"):
            load_corpus(path)


class TestQueriesRoundTrip:
    def test_round_trip(self, tmp_path, figure1_query):
        path = tmp_path / "queries.jsonl"
        save_queries([figure1_query], path)
        loaded = load_queries(path)
        assert loaded == [figure1_query]

    def test_bad_threshold(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"region":[0,0,1,1],"tokens":[],"tau_r":1.5,"tau_t":0}\n')
        with pytest.raises(CorpusFormatError):
            load_queries(path)

    def test_defaults(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"region":[0,0,1,1],"tokens":["a"]}\n{"region":[0,0,1,1],"tau_t":0.5}\n')
        q, bare = load_queries(path)
        assert q.tau_r == 0.0 and q.tau_t == 0.0
        assert bare.tokens == frozenset() and (bare.tau_r, bare.tau_t) == (0.0, 0.5)

    @pytest.mark.parametrize(
        "line, field",
        [
            # Each of the first three used to load into a Query whose own
            # repr (and every filter's token sort) raised TypeError.
            ('{"region":[0,0,1,1],"tokens":[1,"a"],"tau_r":0.1,"tau_t":0.1}', "tokens"),
            ('{"region":[0,0,1,1],"tokens":["a"],"tau_r":true,"tau_t":0.1}', "tau_r"),
            ('{"region":[true,0,2,2],"tokens":["a"],"tau_r":0.1,"tau_t":0.1}', "region"),
            ('{"region":[0,0,1,1],"tokens":"ab","tau_r":0.1,"tau_t":0.1}', "tokens"),
            ('{"region":[0,0,1,1],"tokens":["a"],"tau_r":0.1,"tau_t":"0.1"}', "tau_t"),
            ('{"region":[0,0,1,1],"tokens":["a"],"tau_r":null,"tau_t":0.1}', "tau_r"),
            ('{"region":[0,0,1,1' + "0" * 400 + '],"tokens":["a"],"tau_r":0.1,"tau_t":0.1}',
             "region"),
        ],
    )
    def test_malformed_fields_name_the_line(self, tmp_path, line, field):
        """Workload files get the wire protocol's validation (one
        validator beside Query), reported with path:line."""
        from repro.core.errors import ProtocolError
        from repro.service.protocol import decode_payload, query_from_wire

        path = tmp_path / "q.jsonl"
        path.write_text('{"region":[0,0,1,1],"tokens":["a"],"tau_r":0.1,"tau_t":0.1}\n' + line + "\n")
        with pytest.raises(CorpusFormatError, match=rf"q\.jsonl:2: '{field}'"):
            load_queries(path)
        with pytest.raises(ProtocolError, match=f"^'{field}'"):
            query_from_wire(decode_payload(line.encode()))

    def test_file_lines_and_wire_fields_are_one_record(self, tmp_path, figure1_query):
        import json

        from repro.service.protocol import query_from_wire, query_to_wire

        path = tmp_path / "q.jsonl"
        save_queries([figure1_query], path)
        record = json.loads(path.read_text())
        assert record == query_to_wire(figure1_query)
        assert query_from_wire(record) == figure1_query


class TestSnapshot:
    def test_round_trip_engine(self, tmp_path):
        engine = SealSearch(
            [(Rect(0, 0, 10, 10), {"coffee"}), (Rect(5, 5, 15, 15), {"tea"})],
            method="token",
        )
        path = tmp_path / "engine.pkl"
        save_engine(engine, path)
        restored = load_engine(path)
        probe = (Rect(0, 0, 10, 10), {"coffee"}, 0.5, 0.5)
        assert restored.search(*probe).answers == engine.search(*probe).answers

    def test_round_trip_method(self, tmp_path, figure1_objects, figure1_weighter, figure1_query):
        method = build_method(figure1_objects, "seal", figure1_weighter, mt=8, max_level=4)
        path = tmp_path / "seal.pkl"
        save_engine(method, path)
        restored = load_engine(path)
        assert restored.search(figure1_query).answers == [1]

    def test_seal_round_trip_keeps_frontier_columns(
        self, tmp_path, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        """A ``seal`` snapshot carries its frontier columns as they were
        built and answers every query as the live method does."""
        method = build_method(twitter_small, "seal", twitter_small_weighter, mt=16)
        path = tmp_path / "seal.pkl"
        save_engine(method, path)
        restored = load_engine(path)
        columns = ("frontier_offsets", "frontier_boxes", "frontier_codes")
        assert [getattr(restored, c) for c in columns] == [getattr(method, c) for c in columns]
        for query in twitter_small_queries:
            assert restored.probes(query) == method.probes(query)
            assert restored.search(query).answers == method.search(query).answers

    @pytest.mark.parametrize(
        "method_name", ["irtree", "spatial-first", "token", "grid", "keyword-first", "planned"]
    )
    def test_snapshot_with_retired_tree_and_weighter_state_loads(
        self, tmp_path, twitter_small, twitter_small_queries, method_name
    ):
        """A snapshot written while the R-tree still had Guttman
        insertion and the weighter its rank table pickles
        ``RTree.min_entries``/``_height`` and
        ``TokenWeighter._ranks``/``_counts``; one written while ``grid``
        still shared the token filter's build pickles ``token_ids = None``
        on every grid filter, and one written while ``keyword-first``
        kept its own copy of the token totals pickles ``_token_totals``.
        None of these classes is slotted, so that state loads as inert
        attributes, and answers are the method's."""
        from repro.text.weights import TokenWeighter

        weighter = TokenWeighter(obj.tokens for obj in twitter_small)
        method = build_method(twitter_small, method_name, weighter)
        ordered = weighter.sort_tokens({t for obj in twitter_small for t in obj.tokens})
        weighter._ranks = {token: rank for rank, token in enumerate(ordered)}
        weighter._counts = {token: 1 for token in ordered}
        if method_name in ("irtree", "spatial-first"):
            method.rtree.min_entries = method.rtree.max_entries // 2
            method.rtree._height = 2
        grid = {"grid": lambda m: m, "planned": lambda m: m.methods["grid"]}.get(method_name)
        if grid is not None:
            grid(method).token_ids = None
        if method_name == "keyword-first":
            method._token_totals = [weighter.total_weight(obj.tokens) for obj in twitter_small]
        path = tmp_path / "retired.pkl"
        save_engine(method, path)
        restored = load_engine(path)
        if grid is not None:
            assert grid(restored).token_ids is None
        fresh = build_method(
            twitter_small, method_name, TokenWeighter(obj.tokens for obj in twitter_small)
        )
        for query in twitter_small_queries:
            assert restored.search(query).answers == fresh.search(query).answers

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            load_engine(tmp_path / "nope.pkl")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SnapshotError):
            load_engine(path)

    def test_wrong_magic(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(SnapshotError, match="not a repro engine snapshot"):
            load_engine(path)

    def test_wrong_format_version(self, tmp_path):
        import pickle

        path = tmp_path / "old.pkl"
        path.write_bytes(
            pickle.dumps({"magic": "repro-seal-snapshot", "format": 99, "engine": None})
        )
        with pytest.raises(SnapshotError, match="format 99"):
            load_engine(path)

    @pytest.mark.parametrize("stale", [1, 2, 3, 4, 5, 6])
    def test_earlier_formats_rejected(self, tmp_path, stale):
        """Formats 1–6 (pre keyword-only constructors, pre sidecar, pre
        segment manifest, pre WAL block, pre one-posting-store, pre element
        codes) fail loudly at the envelope."""
        import pickle

        path = tmp_path / "stale.pkl"
        path.write_bytes(
            pickle.dumps({"magic": "repro-seal-snapshot", "format": stale, "engine": None})
        )
        with pytest.raises(SnapshotError, match=f"format {stale}.*rebuild the index"):
            load_engine(path)

    @pytest.mark.parametrize("module, name", [
        ("repro.exec.sharded", "Sharded" "SealSearch"),   # module gone
        ("repro.exec.pipeline", "Serial" "Executor"),     # class gone
    ])
    def test_blob_naming_a_removed_class_is_a_snapshot_error(self, tmp_path, module, name):
        """Current format, valid envelope, but the engine blob pickles a
        class deleted since: ``SnapshotError``, never a bare
        ``ModuleNotFoundError`` / ``AttributeError``."""
        import pickle

        from repro.io.snapshot import SNAPSHOT_FORMAT

        path = tmp_path / "removed.pkl"
        path.write_bytes(pickle.dumps({
            "magic": "repro-seal-snapshot", "format": SNAPSHOT_FORMAT,
            "manifest": None, "wal": None, "num_arrays": 0, "array_meta": [],
            "engine": f"c{module}\n{name}\n.".encode(),
        }))
        with pytest.raises(SnapshotError, match="incompatible snapshot"):
            load_engine(path)

    def test_snapshot_bytes_unchanged_by_serving(self, tmp_path, twitter_small,
                                                 twitter_small_weighter):
        """Serving changes no state: an engine that has answered
        large-candidate queries (the verifier's kernels) pickles to the
        same bytes (snapshot and sidecar) as it did fresh from the
        build."""
        from repro.core.verification import VECTOR_MIN_CANDIDATES
        from repro.io.snapshot import sidecar_path

        engine = build_method(
            twitter_small, "planned", twitter_small_weighter, granularity=32,
        )

        def saved(path):
            save_engine(engine, path)
            sidecar = sidecar_path(path)
            return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None

        fresh = saved(tmp_path / "fresh.pkl")
        # Over the whole corpus, and τR, τT > 0: the spatial check (which
        # builds the box block) is skipped at τR = 0, the textual check
        # (which builds the token CSR) at τT = 0.
        query = Query(Rect(0, 0, 40_000, 40_000), frozenset(), 1e-9, 1e-9)
        assert engine.search(query).stats.candidates >= VECTOR_MIN_CANDIDATES
        assert saved(tmp_path / "served.pkl") == fresh
        restored = load_engine(tmp_path / "served.pkl")
        assert restored.search(query).answers == engine.search(query).answers

    def test_save_engine_fsyncs_files_and_directory(self, tmp_path, figure1_objects,
                                                    figure1_weighter):
        """Power-loss discipline (regression): both write paths must
        fsync the temp file before the rename and the parent directory
        after it — os.replace alone can surface as a zero-length or
        missing snapshot/sidecar after power loss."""
        import os
        import stat

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        method = build_method(figure1_objects, "token", figure1_weighter)
        path = tmp_path / "engine.pkl"
        from unittest import mock

        with mock.patch("os.fsync", recording_fsync):
            save_engine(method, path)
        # Two write paths (sidecar + snapshot), each: file fsync before
        # the rename, directory fsync after it.
        assert synced.count(False) >= 2
        assert synced.count(True) >= 2

    def test_corpus_order_of_fsync_and_replace(self, tmp_path, figure1_objects,
                                               figure1_weighter):
        """The file fsync must happen before os.replace publishes the
        name (fsync-after-rename leaves a window where the new name
        points at unsynced data)."""
        import os

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        from unittest import mock

        method = build_method(figure1_objects, "token", figure1_weighter)
        with mock.patch("os.fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]), \
             mock.patch("os.replace", lambda a, b: (events.append("replace"),
                                                    real_replace(a, b))[1]):
            save_engine(method, tmp_path / "engine.pkl")
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_format4_segmented_round_trip(self, tmp_path):
        """Format 4: a segmented engine — segments, write buffer and
        tombstones — round-trips with identical answers, eagerly and
        memory-mapped, and keeps accepting updates after the load."""
        import numpy as np

        from repro import SegmentedSealSearch
        from repro.io import validate_snapshot
        from repro.io.snapshot import sidecar_path

        engine = SegmentedSealSearch(
            method="seal", buffer_capacity=4, merge_fanout=2,
            mt=4, max_level=4,
        )
        for i in range(11):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})
        engine.delete(2)   # sealed → tombstone
        engine.delete(10)  # buffered → dropped outright
        probe = Query(Rect(0, 0, 13, 2), frozenset({"coffee"}), 0.05, 0.0)
        expected = engine.search_query(probe).answers
        assert expected  # the probe is non-trivial

        path = tmp_path / "segmented.pkl"
        save_engine(engine, path)
        assert sidecar_path(path).exists()
        manifest = validate_snapshot(path)["manifest"]
        assert manifest["kind"] == "segmented"
        assert manifest["tombstones"] == 1
        assert manifest["live"] == len(engine)
        for mmap in (False, True):
            restored = load_engine(path, mmap=mmap)
            assert restored.search_query(probe).answers == expected
            assert len(restored) == len(engine)
            assert restored.tombstones == 1
            index = restored.segment_methods()[0].index
            assert isinstance(index.oids, np.memmap) == mmap
        # The restored engine keeps taking writes.
        restored = load_engine(path)
        oid = restored.insert(Rect(20, 0, 22, 2), {"coffee"})
        assert oid == 11
        restored.compact()
        assert restored.search_query(probe).answers == expected

    def test_format4_plain_method_manifest_is_none(self, tmp_path, figure1_objects,
                                                   figure1_weighter):
        from repro.io import validate_snapshot

        method = build_method(figure1_objects, "token", figure1_weighter)
        path = tmp_path / "plain.pkl"
        save_engine(method, path)
        assert validate_snapshot(path)["manifest"] is None

    @pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
    def test_validate_snapshot_describes_what_load_engine_restores(
        self, tmp_path, method, figure1_objects, figure1_weighter, figure1_query
    ):
        """For every method, the envelope ``validate_snapshot`` reads
        without unpickling the engine matches the files on disk, and the
        snapshot it passed memory-maps back to the same answers."""
        from repro.io import validate_snapshot
        from repro.io.snapshot import SNAPSHOT_FORMAT, sidecar_path

        built = build_method(figure1_objects, method, figure1_weighter)
        path = tmp_path / f"{method}.pkl"
        save_engine(built, path)
        info = validate_snapshot(path)
        assert info["format"] == SNAPSHOT_FORMAT
        manifest = getattr(built, "snapshot_manifest", None)
        assert info["manifest"] == (manifest() if manifest else None)
        assert info["wal"] is None
        assert (info["num_arrays"] > 0) == sidecar_path(path).exists()
        restored = load_engine(path, mmap=True)
        assert restored.search(figure1_query).answers == built.search(figure1_query).answers

    @pytest.mark.parametrize("case", ["missing", "garbage", "wrong-magic", "missing-sidecar"])
    def test_validate_snapshot_refuses_what_load_engine_refuses(self, tmp_path, case):
        """The gate and the loader agree: a file ``validate_snapshot``
        refuses is one ``load_engine`` refuses, with the same message."""
        import pickle

        from repro.io import validate_snapshot
        from repro.io.snapshot import sidecar_path

        path = tmp_path / "engine.pkl"
        if case == "garbage":
            path.write_bytes(b"not a pickle at all")
        elif case == "wrong-magic":
            path.write_bytes(pickle.dumps({"magic": "something-else"}))
        elif case == "missing-sidecar":
            save_engine(SealSearch([(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(12)],
                                   method="token"), path)
            sidecar_path(path).unlink()
        with pytest.raises(SnapshotError) as gate:
            validate_snapshot(path)
        with pytest.raises(SnapshotError) as loader:
            load_engine(path)
        assert str(gate.value) == str(loader.value)

    def test_format3_sidecar_round_trip(self, tmp_path, figure1_objects,
                                         figure1_weighter, figure1_query):
        """Signature indexes externalise CSR arrays to an .npz sidecar;
        loads resolve them back — eagerly or memory-mapped — with
        identical answers, and a true ``np.memmap`` under ``mmap=True``."""
        import numpy as np

        from repro.io.snapshot import sidecar_path

        method = build_method(
            figure1_objects, "seal", figure1_weighter, mt=8, max_level=4
        )
        expected = method.search(figure1_query).answers
        path = tmp_path / "columnar.pkl"
        save_engine(method, path)
        sidecar = sidecar_path(path)
        assert sidecar.exists() and sidecar.stat().st_size > 0
        for mmap in (False, True):
            restored = load_engine(path, mmap=mmap)
            assert restored.search(figure1_query).answers == expected
            assert isinstance(restored.index.oids, np.memmap) == mmap
        # The pair travels together: a missing sidecar fails loudly.
        sidecar.unlink()
        with pytest.raises(SnapshotError, match="sidecar missing"):
            load_engine(path)

    def test_directory_codes_travel_in_the_sidecar(self, tmp_path, figure1_objects,
                                                   figure1_weighter, figure1_query):
        """The directory is one more sidecar array — the code column — and
        an mmap load maps it read-only."""
        import numpy as np

        from repro.io.snapshot import sidecar_path

        method = build_method(figure1_objects, "hash-hybrid", figure1_weighter, granularity=4)
        path = tmp_path / "hybrid.pkl"
        save_engine(method, path)
        with np.load(sidecar_path(path)) as npz:
            stored = [npz[name] for name in npz.files]
        assert any(np.array_equal(array, method.index.codes) for array in stored)
        restored = load_engine(path, mmap=True)
        assert isinstance(restored.index.codes, np.memmap)
        assert not restored.index.codes.flags.writeable
        assert restored.index.codes.tolist() == method.index.codes.tolist()
        assert restored.search(figure1_query).answers == method.search(figure1_query).answers

    def test_format3_resave_mmap_loaded_engine_to_same_path(self, tmp_path,
                                                            figure1_objects,
                                                            figure1_weighter,
                                                            figure1_query):
        """Re-saving an mmap-loaded engine over its own snapshot must not
        truncate the sidecar its arrays are mapped from (regression: this
        crashed the process with SIGBUS before the atomic replace)."""
        method = build_method(
            figure1_objects, "seal", figure1_weighter, mt=8, max_level=4
        )
        expected = method.search(figure1_query).answers
        path = tmp_path / "engine.pkl"
        save_engine(method, path)
        mapped = load_engine(path, mmap=True)
        save_engine(mapped, path)  # sidecar replaced atomically
        assert mapped.search(figure1_query).answers == expected
        assert load_engine(path, mmap=True).search(figure1_query).answers == expected

    def test_format3_engine_without_arrays_writes_no_sidecar(self, tmp_path, figure1_query):
        """Every built method has arrays (its verifier's columns, at
        least); an empty segmented engine has none."""
        from repro.io.snapshot import sidecar_path

        engine = SealSearch()
        path = tmp_path / "empty.pkl"
        save_engine(engine, path)
        assert not sidecar_path(path).exists()
        restored = load_engine(path, mmap=True)  # mmap is a no-op here
        assert restored.search_query(figure1_query).answers == []

    def test_format3_stale_sidecar_rejected(self, tmp_path, figure1_objects,
                                            figure1_weighter):
        """A snapshot paired with another build's sidecar fails loudly:
        array (dtype, shape) fingerprints in the envelope must match."""
        import shutil

        from repro.io.snapshot import sidecar_path

        small = build_method(figure1_objects, "token", figure1_weighter)
        big = build_method(figure1_objects, "seal", figure1_weighter, mt=8, max_level=4)
        a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
        save_engine(small, a)
        save_engine(big, b)
        shutil.copy(sidecar_path(b), sidecar_path(a))  # wrong arrays for a
        with pytest.raises(SnapshotError, match="rebuild the index"):
            load_engine(a)

    def test_format3_stale_sidecar_removed_on_resave(self, tmp_path, figure1_objects,
                                                     figure1_weighter):
        from repro.io.snapshot import sidecar_path

        path = tmp_path / "engine.pkl"
        save_engine(build_method(figure1_objects, "token", figure1_weighter), path)
        assert sidecar_path(path).exists()
        save_engine(SealSearch(), path)
        assert not sidecar_path(path).exists()


@pytest.mark.parametrize("consumer", ["load_engine", "validate_snapshot", "pre-swap gate", "recover"])
def test_format5_checkpoint_is_refused_at_the_envelope(tmp_path, consumer):
    """What the parent commit wrote: a format-5 envelope around an engine
    blob that pickles ``repro.index.postings`` / ``repro.index.columnar``
    classes this library no longer has.  Every way in refuses it by its
    format number with the "rebuild the index" error — the blob is never
    (half-)unpickled — and leaves what was live untouched."""
    import pickle

    from repro.exec.durable import recover
    from repro.io import validate_snapshot
    from repro.io.snapshot import SNAPSHOT_FORMAT
    from repro.service import QueryService
    from tests.durable_testlib import fill, make_durable, snapshot_of, wal_of

    assert SNAPSHOT_FORMAT == 9
    engine = make_durable(tmp_path)
    fill(engine, 6)
    engine.checkpoint()
    fill(engine, 2, start=6)
    engine.close()
    path = snapshot_of(tmp_path)
    envelope = pickle.loads(path.read_bytes())
    envelope["format"] = 5
    envelope["engine"] = b"crepro.index.postings\nPostingList\n."
    path.write_bytes(pickle.dumps(envelope))
    wal_before = wal_of(tmp_path).read_bytes()

    refusal = pytest.raises(SnapshotError, match="format 5.*reads format 9; rebuild the index")
    if consumer == "load_engine":
        with refusal:
            load_engine(path)
    elif consumer == "validate_snapshot":
        with refusal:
            validate_snapshot(path)
    elif consumer == "pre-swap gate":
        live = SealSearch([(Rect(0, 0, 1, 1), {"a"})], method="token")
        service = QueryService(live)
        with refusal:
            service.swap_engine(load_engine(path))
        assert service.engine is live and service.epoch == 0
    else:
        with refusal:
            recover(path, wal_of(tmp_path))
        assert wal_of(tmp_path).read_bytes() == wal_before


@pytest.mark.parametrize("fmt", [6, 7, 8])
@pytest.mark.parametrize("consumer", ["load_engine", "validate_snapshot", "inspect", "query",
                                      "recover"])
def test_old_format_snapshot_is_refused_with_rebuild(tmp_path, consumer, fmt, capsys):
    """Format 6 keyed its directories by token strings and tuples; format
    7 could pickle a plain Sig-Filter whose postings hold raw element
    weights where Sig-Filter+ reads Lemma-3 suffix bounds; format 8
    pickled each ``seal`` frontier as a per-token object, where the
    filter now reads flat frontier columns.  Each envelope is refused by
    its format number, before the blob — here a
    real, loadable engine — is unpickled, and recovery leaves the WAL as
    it was."""
    import pickle

    from repro.cli import main
    from repro.exec.durable import recover
    from repro.io.snapshot import validate_snapshot
    from tests.durable_testlib import fill, make_durable, snapshot_of, wal_of

    engine = make_durable(tmp_path)
    fill(engine, 6)
    engine.checkpoint()
    engine.close()
    path = snapshot_of(tmp_path)
    envelope = pickle.loads(path.read_bytes())
    envelope["format"] = fmt
    path.write_bytes(pickle.dumps(envelope))
    wal_before = wal_of(tmp_path).read_bytes()
    refusal = pytest.raises(
        SnapshotError, match=f"format {fmt}.*reads format 9; rebuild the index"
    )
    if consumer == "load_engine":
        with refusal:
            load_engine(path, mmap=True)
    elif consumer == "validate_snapshot":
        with refusal:
            validate_snapshot(path)
    elif consumer == "recover":
        with refusal:
            recover(path, wal_of(tmp_path))
        assert wal_of(tmp_path).read_bytes() == wal_before
    else:
        argv = [consumer, str(path)]
        if consumer == "query":
            argv += ["--region", "0,0,1,1", "--tokens", "t1"]
        assert main(argv) == 2
        assert "rebuild the index" in capsys.readouterr().err
