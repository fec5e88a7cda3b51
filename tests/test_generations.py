"""Tests for snapshot generations (the cross-process epoch counter)."""

from __future__ import annotations

import json

import pytest

from repro import SegmentedSealSearch
from repro.core.errors import SealError
from repro.io.snapshot import SnapshotError
from repro.io import (
    GenerationError,
    current_snapshot,
    publish_snapshot,
    read_current,
    save_engine,
)


@pytest.fixture()
def engine(figure1_objects):
    pairs = [(obj.region, obj.tokens) for obj in figure1_objects]
    return SegmentedSealSearch(pairs, "token", buffer_capacity=4)


@pytest.fixture()
def source(engine, tmp_path):
    path = tmp_path / "engine.pkl"
    save_engine(engine, path)
    return path


class TestPublish:
    def test_generation_numbers_are_monotonic(self, source, tmp_path):
        serving = tmp_path / "serving"
        assert publish_snapshot(serving, source_path=source)[0] == 1
        assert publish_snapshot(serving, source_path=source)[0] == 2
        assert publish_snapshot(serving, source_path=source)[0] == 3
        assert read_current(serving)["generation"] == 3

    def test_publish_existing_snapshot_by_reference(self, source, tmp_path):
        serving = tmp_path / "serving"
        generation, snapshot = publish_snapshot(serving, source_path=source)
        assert generation == 1
        # Referenced in place, not copied into the serving directory.
        assert snapshot == source.resolve()
        assert [p.name for p in serving.iterdir()] == ["CURRENT"]
        assert current_snapshot(serving) == (1, source.resolve())

    def test_publish_rejects_garbage_source(self, tmp_path):
        garbage = tmp_path / "junk.pkl"
        garbage.write_bytes(b"not a snapshot")
        with pytest.raises(SnapshotError):
            publish_snapshot(tmp_path / "serving", source_path=garbage)
        # The failed publish must not have repointed anything.
        with pytest.raises(GenerationError):
            read_current(tmp_path / "serving")

    def test_publish_rejects_a_missing_source(self, tmp_path):
        with pytest.raises(SnapshotError):
            publish_snapshot(tmp_path / "serving", source_path=tmp_path / "gone.pkl")
        assert not (tmp_path / "serving").exists()

    def test_the_pointer_names_the_resolved_source(self, source, tmp_path, monkeypatch):
        """A relative source path is recorded absolute, so the pointer
        means the same file whatever directory a worker starts in."""
        monkeypatch.chdir(tmp_path)
        serving = tmp_path / "serving"
        publish_snapshot(serving, source_path="engine.pkl")
        document = json.loads((serving / "CURRENT").read_text(encoding="utf-8"))
        assert document == {"generation": 1, "snapshot": str(source.resolve())}

    @pytest.mark.parametrize("pointer", [None, "{torn"])
    def test_a_missing_or_corrupt_pointer_restarts_at_one(self, source, tmp_path, pointer):
        """The pointer is the only lineage witness: the directory holds
        no snapshot a restarted count could overwrite."""
        serving = tmp_path / "serving"
        for _ in range(3):
            publish_snapshot(serving, source_path=source)
        if pointer is None:
            (serving / "CURRENT").unlink()
        else:
            (serving / "CURRENT").write_text(pointer, encoding="utf-8")
        assert publish_snapshot(serving, source_path=source) == (1, source.resolve())
        assert read_current(serving)["generation"] == 1

    def test_relative_pointer_resolves_inside_the_directory(self, engine, tmp_path):
        """Older serving directories name their snapshot relative to
        the directory; workers still boot from them."""
        serving = tmp_path / "serving"
        serving.mkdir()
        save_engine(engine, serving / "gen-000004.pkl")
        (serving / "CURRENT").write_text(
            json.dumps({"generation": 4, "snapshot": "gen-000004.pkl"}),
            encoding="utf-8",
        )
        assert current_snapshot(serving) == (4, serving / "gen-000004.pkl")
        assert publish_snapshot(serving, source_path=serving / "gen-000004.pkl")[0] == 5

    def test_roundtrip_through_loader(self, engine, source, figure1_query, tmp_path):
        from repro.io import load_engine

        _, snapshot = publish_snapshot(tmp_path / "serving", source_path=source)
        loaded = load_engine(snapshot, mmap=True)
        q = figure1_query
        assert (
            loaded.search(q.region, q.tokens, q.tau_r, q.tau_t).answers
            == engine.search(q.region, q.tokens, q.tau_r, q.tau_t).answers
        )


class TestReadCurrent:
    def test_missing_pointer_is_loud(self, tmp_path):
        with pytest.raises(GenerationError, match="publish a snapshot first"):
            read_current(tmp_path)

    def test_corrupt_pointer_is_loud(self, tmp_path):
        (tmp_path / "CURRENT").write_text("{half a docu", encoding="utf-8")
        with pytest.raises(GenerationError, match="corrupt"):
            read_current(tmp_path)

    @pytest.mark.parametrize(
        "document",
        [
            {"generation": "one", "snapshot": "gen-000001.pkl"},
            {"generation": 1},
            {"snapshot": "gen-000001.pkl"},
            [1, "gen-000001.pkl"],
        ],
    )
    def test_malformed_pointer_is_loud(self, tmp_path, document):
        (tmp_path / "CURRENT").write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(GenerationError):
            read_current(tmp_path)

    def test_dangling_snapshot_is_loud(self, tmp_path):
        (tmp_path / "CURRENT").write_text(
            json.dumps({"generation": 1, "snapshot": "gen-000001.pkl"}),
            encoding="utf-8",
        )
        with pytest.raises(GenerationError, match="does not exist"):
            current_snapshot(tmp_path)

    def test_generation_error_is_a_seal_error(self):
        assert issubclass(GenerationError, SealError)
