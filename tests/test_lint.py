"""The ``repro lint`` framework and checker suite.

Every checker gets at least one positive (seeded-violation fixture) and
one negative (clean fixture) test, the suppression grammar is pinned,
the JSON reporter schema is pinned, and a meta-test asserts the
committed tree itself lints clean — the acceptance bar the CI job
enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    BARE_SUPPRESSION,
    LintDriver,
    REGISTRY,
    SYNTAX_ERROR,
    parse_suppressions,
    render_json,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent


def lint_fixture(name: str, *rules: str):
    """Run selected rules over one fixture file, scopes off (fixtures
    live outside the real tree the scopes point at)."""
    driver = LintDriver(rules=list(rules), respect_scopes=False)
    return driver.lint_file(FIXTURES / name)


def lines(findings, rule=None):
    return [f.line for f in findings if rule is None or f.rule == rule]


# ----------------------------------------------------------------------
# Per-checker positives and negatives
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_flags_seeded_violations(self):
        findings = lint_fixture("bad_atomic_write.py", "atomic-write")
        assert lines(findings) == [8, 14, 19, 24]
        assert all(f.rule == "atomic-write" for f in findings)

    def test_clean_fixture_passes(self):
        assert lint_fixture("good_atomic_write.py", "atomic-write") == []


class TestFsyncOrdering:
    def test_flags_raw_renames(self):
        findings = lint_fixture("bad_fsync_ordering.py", "fsync-ordering")
        assert lines(findings) == [7, 11]

    def test_replace_durably_and_str_replace_pass(self):
        assert lint_fixture("good_fsync_ordering.py", "fsync-ordering") == []


class TestLockOrder:
    def test_catches_seeded_cycle_through_call_graph(self):
        findings = lint_fixture("bad_lock_order.py", "lock-order")
        cycle = [f for f in findings if "cycle" in f.message]
        assert len(cycle) == 1
        assert "_append_lock" in cycle[0].message
        assert "_flush_lock" in cycle[0].message
        assert "CycleEngine" in cycle[0].message

    def test_catches_checkpoint_mutex_inversion(self):
        findings = lint_fixture("bad_lock_order.py", "lock-order")
        inversions = [f for f in findings if "checkpoint mutex" in f.message]
        assert len(inversions) == 1
        assert "InvertedCheckpoint.snapshot" in inversions[0].message

    def test_catches_reacquisition_deadlock(self):
        findings = lint_fixture("bad_lock_order.py", "lock-order")
        reentrant = [f for f in findings if "re-acquires" in f.message]
        assert len(reentrant) == 1
        assert "Reentrant.stats" in reentrant[0].message

    def test_clean_ordering_passes(self):
        assert lint_fixture("good_lock_order.py", "lock-order") == []


class TestReplayDeterminism:
    def test_flags_clocks_entropy_and_set_iteration(self):
        findings = lint_fixture("bad_determinism.py", "replay-determinism")
        assert lines(findings) == [10, 11, 12, 13, 14, 16]

    def test_sorted_iteration_and_record_timestamps_pass(self):
        assert lint_fixture("good_determinism.py", "replay-determinism") == []


class TestHashOrderedSum:
    def test_flags_sums_over_every_set_expression(self):
        findings = lint_fixture("bad_hash_ordered_sum.py", "hash-ordered-sum")
        assert lines(findings) == [5, 6, 7, 8, 9, 10, 11, 12]

    def test_fsum_and_ordered_sums_pass(self):
        assert lint_fixture("good_hash_ordered_sum.py", "hash-ordered-sum") == []

    def test_scoped_to_the_similarity_paths(self):
        checker = REGISTRY["hash-ordered-sum"]()
        for path in ("src/repro/core/verification.py", "src/repro/text/weights.py",
                     "src/repro/signatures/textual.py", "src/repro/filters/base.py",
                     "src/repro/exec/planner.py"):
            assert checker.applies_to(path)
        assert not checker.applies_to("src/repro/baselines/keyword_first.py")
        assert not checker.applies_to("tests/test_verification.py")


class TestThresholdContract:
    def test_flags_products_formed_outside_filter_threshold(self):
        findings = lint_fixture("bad_threshold_contract.py", "threshold-contract")
        assert lines(findings) == [5, 6, 8, 9]

    def test_products_routed_through_filter_threshold_pass(self):
        assert lint_fixture("good_threshold_contract.py", "threshold-contract") == []

    def test_scoped_to_the_filter_side(self):
        checker = REGISTRY["threshold-contract"]()
        for path in ("src/repro/filters/base.py", "src/repro/signatures/spatial.py",
                     "src/repro/baselines/keyword_first.py", "src/repro/extensions/predicates.py",
                     "src/repro/index/iomodel.py"):
            assert checker.applies_to(path)
        # The verifier is the other side of the contract.
        assert not checker.applies_to("src/repro/core/verification.py")


class TestErrorTransport:
    def test_flags_unregistered_raises_and_broad_swallow(self):
        findings = lint_fixture("bad_error_transport.py", "error-transport")
        assert lines(findings) == [6, 11, 14]
        raises = [f for f in findings if "not registered" in f.message]
        assert {6, 11} == set(f.line for f in raises)

    def test_registered_raises_and_reraises_pass(self):
        assert lint_fixture("good_error_transport.py", "error-transport") == []


class TestNoPickle:
    def test_flags_import_and_attribute_use(self):
        findings = lint_fixture("bad_pickle.py", "no-pickle")
        assert lines(findings) == [3, 7]

    def test_snapshot_api_passes(self):
        assert lint_fixture("good_pickle.py", "no-pickle") == []


class TestForkSafety:
    def test_flags_import_time_state_and_primitives(self):
        findings = lint_fixture("bad_fork_safety.py", "fork-safety")
        assert lines(findings) == [6, 7, 8, 9, 10, 11]

    def test_constants_and_instance_state_pass(self):
        assert lint_fixture("good_fork_safety.py", "fork-safety") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_rationaled_suppression_silences(self):
        findings = lint_fixture("suppressed.py", "atomic-write", "fsync-ordering")
        # line 10 (atomic-write, rationaled) and line 23 (covered by the
        # standalone comment on 22) are silenced; the bare fsync
        # suppression on 15 silences its finding but is itself flagged.
        assert lines(findings, "atomic-write") == []
        assert lines(findings, "fsync-ordering") == []

    def test_bare_suppression_is_flagged(self):
        findings = lint_fixture("suppressed.py", "fsync-ordering")
        bare = [f for f in findings if f.rule == BARE_SUPPRESSION]
        assert [f.line for f in bare if "without a rationale" in f.message] == [15]

    def test_unknown_rule_in_suppression_is_flagged(self):
        findings = lint_fixture("suppressed.py", "atomic-write")
        unknown = [
            f
            for f in findings
            if f.rule == BARE_SUPPRESSION and "unknown rule" in f.message
        ]
        assert [f.line for f in unknown] == [19]
        assert "no-such-rule" in unknown[0].message

    # The marker is split so linting this test file doesn't parse the
    # literals below as real (unknown-rule) suppressions.
    MARKER = "# repro-lint: " + "disable="

    def test_grammar(self):
        sup = parse_suppressions(
            f"x = 1  {self.MARKER}a-rule,b-rule -- because reasons\n"
        )
        assert len(sup) == 1
        assert sup[0].rules == ("a-rule", "b-rule")
        assert sup[0].rationale == "because reasons"
        assert sup[0].covers == (1,)

    def test_standalone_comment_covers_next_line(self):
        sup = parse_suppressions(f"{self.MARKER}a-rule -- why\nx = 1\n")
        assert sup[0].covers == (1, 2)


# ----------------------------------------------------------------------
# Driver and reporters
# ----------------------------------------------------------------------


class TestDriver:
    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            LintDriver(rules=["no-such-rule"])

    def test_syntax_error_is_a_finding(self):
        driver = LintDriver()
        findings = driver.lint_source("def broken(:\n", "x.py")
        assert [f.rule for f in findings] == [SYNTAX_ERROR]
        assert findings[0].line == 1

    def test_scopes_keep_rules_off_foreign_paths(self):
        checker = REGISTRY["atomic-write"]()
        assert checker.applies_to("src/repro/io/corpus_io.py")
        assert not checker.applies_to("src/repro/io/atomic.py")  # exempt
        assert not checker.applies_to("tests/test_wal.py")  # out of scope

    def test_lint_paths_skips_fixture_trees(self):
        driver = LintDriver(rules=["atomic-write"])
        findings, checked = driver.lint_paths([FIXTURES])
        assert checked == 0  # every fixture file is skipped
        assert findings == []

    def test_missing_path_raises(self):
        driver = LintDriver()
        with pytest.raises(FileNotFoundError):
            driver.lint_paths(["does/not/exist"])


class TestReporters:
    def test_json_schema(self):
        driver = LintDriver(rules=["atomic-write"], respect_scopes=False)
        findings = driver.lint_file(FIXTURES / "bad_atomic_write.py")
        document = json.loads(render_json(findings, 1))
        assert document["version"] == 1
        assert document["checked_files"] == 1
        assert document["count"] == len(findings) == 4
        assert "atomic-write" in document["rules"]
        first = document["findings"][0]
        assert set(first) == {"path", "line", "rule", "message"}
        assert first["rule"] == "atomic-write"
        assert first["line"] == 8


# ----------------------------------------------------------------------
# CLI and the committed tree
# ----------------------------------------------------------------------


class TestCli:
    def test_lint_src_exits_zero_on_committed_tree(self, capsys):
        """The acceptance bar: the repo's own source lints clean."""
        rc = main(["lint", str(REPO_ROOT / "src")])
        assert rc == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_lint_tests_exits_zero_on_committed_tree(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "tests")])
        assert rc == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "newmod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\n\ndef f(a, b):\n    os.replace(a, b)\n")
        rc = main(["lint", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[fsync-ordering]" in out
        assert "newmod.py:4" in out

    def test_json_flag(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src" / "repro" / "io" / "atomic.py"),
                   "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 0
        assert document["checked_files"] == 1

    def test_rules_subset_and_unknown_rule(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src"), "--rules", "no-pickle"])
        assert rc == 0
        rc = main(["lint", str(REPO_ROOT / "src"), "--rules", "bogus"])
        assert rc == 2
        assert "unknown lint rules" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in REGISTRY:
            assert rule in out
        assert BARE_SUPPRESSION in out
