"""Tests for the invariant linter (``repro.lint``).

Structure mirrors the acceptance contract:

* per-rule fixture pairs — a snippet that must fire and a near-miss
  that must not, for every shipped rule;
* suppression mechanics — reason mandatory, standalone-line form,
  unused suppressions flagged, strings are not suppressions;
* baseline round-trip — findings baselined out, stale entries
  surfaced, ``--write-baseline`` regeneration;
* the self-lint — the repository lints clean with an empty committed
  baseline, and removing a real suppression makes it fail;
* CLI integration — ``repro lint`` and ``python -m repro.lint`` exit
  codes and formats.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from repro.lint.determinism import (
    UnseededRandomRule,
    UnsortedIterationRule,
    WallClockRule,
)
from repro.lint.engine import (
    Finding,
    all_rules,
    doc_rules,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.executor import (
    AtomicWriteRule,
    BroadExceptRule,
    GlobalMutationRule,
    LruCacheMethodRule,
    MutableDefaultRule,
    PackedResultCoverageRule,
    PoolDataclassSlotsRule,
    SwallowedExceptionRule,
)
from repro.lint.report import render_json, render_text
from repro.lint.sync import (
    BenchSchemaRule,
    CliReferenceRule,
    DocReferenceRule,
    MetricCatalogRule,
    NamedProfileRule,
    StageNameRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, code, rule, rel="src/mod.py"):
    """Write one snippet under ``tmp_path`` and run one rule over it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(code), encoding="utf-8")
    result = run_lint(tmp_path, targets=[path], rules=[rule])
    return [finding.rule for finding in result.findings], result


# ----------------------------------------------------------------------
# D family fixture pairs
# ----------------------------------------------------------------------


class TestDeterminismRules:
    def test_d_random_fires_on_module_call(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            UnseededRandomRule(),
        )
        assert fired == ["D-RANDOM"]

    def test_d_random_fires_on_from_import(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "from random import shuffle\n",
            UnseededRandomRule(),
        )
        assert fired == ["D-RANDOM"]

    def test_d_random_near_miss_seeded_instance(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
            """,
            UnseededRandomRule(),
        )
        assert fired == []

    def test_d_random_near_miss_unrelated_name(self, tmp_path):
        # A local variable named ``random`` (e.g. a TLS client random)
        # must not trip the rule when the module never imports random.
        fired, _ = lint_snippet(
            tmp_path,
            """
            def keylog_line(random, secret):
                return f"{random.hex()} {secret.hex()}"
            """,
            UnseededRandomRule(),
        )
        assert fired == []

    def test_d_now_fires_on_time_time(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return int(time.time())
            """,
            WallClockRule(),
        )
        assert fired == ["D-NOW"]

    def test_d_now_fires_on_datetime_now_and_uuid4(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import uuid
            from datetime import datetime

            def ident():
                return f"{datetime.now()}-{uuid.uuid4()}"
            """,
            WallClockRule(),
        )
        assert fired == ["D-NOW", "D-NOW"]

    def test_d_now_near_miss_perf_counter(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def measure():
                return time.perf_counter() - time.monotonic()
            """,
            WallClockRule(),
        )
        assert fired == []

    def test_d_sort_fires_on_glob_for_loop(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import glob

            def emit(out):
                for path in glob.glob("*.json"):
                    out.write(path)
            """,
            UnsortedIterationRule(),
        )
        assert fired == ["D-SORT"]

    def test_d_sort_fires_on_set_literal_listcomp(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "order = [x for x in {3, 1, 2}]\n",
            UnsortedIterationRule(),
        )
        assert fired == ["D-SORT"]

    def test_d_sort_near_miss_sorted_wrap(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import glob

            def emit(out):
                for path in sorted(glob.glob("*.json")):
                    out.write(path)
            """,
            UnsortedIterationRule(),
        )
        assert fired == []

    def test_d_sort_near_miss_commutative_reducer(self, tmp_path):
        # Reducers whose result ignores order sanction the iteration,
        # even through a generator expression.
        fired, _ = lint_snippet(
            tmp_path,
            """
            def total(directory):
                return sum(p.stat().st_size for p in directory.iterdir())
            """,
            UnsortedIterationRule(),
        )
        assert fired == []

    def test_d_sort_near_miss_set_comprehension(self, tmp_path):
        # Building a set from unordered iteration is order-insensitive.
        fired, _ = lint_snippet(
            tmp_path,
            """
            import os

            def stems(d):
                return sorted({p.split(".")[0] for p in os.listdir(d)})
            """,
            UnsortedIterationRule(),
        )
        assert fired == []


# ----------------------------------------------------------------------
# X family fixture pairs
# ----------------------------------------------------------------------


class TestExecutorRules:
    def test_x_mutdef_fires(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "def add(item, bucket=[]):\n    bucket.append(item)\n",
            MutableDefaultRule(),
        )
        assert fired == ["X-MUTDEF"]

    def test_x_mutdef_fires_on_kwonly_dict(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "def f(*, options={}):\n    return options\n",
            MutableDefaultRule(),
        )
        assert fired == ["X-MUTDEF"]

    def test_x_mutdef_near_miss_none_and_tuple(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def add(item, bucket=None, order=()):
                bucket = [] if bucket is None else bucket
                bucket.append(item)
            """,
            MutableDefaultRule(),
        )
        assert fired == []

    def test_x_global_fires(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            _COUNTER = 0

            def bump():
                global _COUNTER
                _COUNTER += 1
            """,
            GlobalMutationRule(),
        )
        assert fired == ["X-GLOBAL"]

    def test_x_global_near_miss_read_only(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            _TABLE = {"a": 1}

            def lookup(key):
                value = _TABLE[key]
                return value
            """,
            GlobalMutationRule(),
        )
        assert fired == []

    def test_x_lru_fires_on_instance_method(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from functools import lru_cache

            class Classifier:
                @lru_cache(maxsize=64)
                def classify(self, key):
                    return key.lower()
            """,
            LruCacheMethodRule(),
        )
        assert fired == ["X-LRU"]

    def test_x_lru_near_miss_module_function_and_static(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from functools import lru_cache

            @lru_cache(maxsize=64)
            def classify(key):
                return key.lower()

            class Helper:
                @staticmethod
                @lru_cache(maxsize=4)
                def fold(key):
                    return key.casefold()
            """,
            LruCacheMethodRule(),
        )
        assert fired == []

    def test_x_bare_except_fires(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def guarded(op):
                try:
                    return op()
                except Exception:
                    return None
            """,
            BroadExceptRule(),
        )
        assert fired == ["X-BARE-EXCEPT"]

    def test_x_bare_except_fires_on_bare(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def guarded(op):
                try:
                    return op()
                except:
                    return None
            """,
            BroadExceptRule(),
        )
        assert fired == ["X-BARE-EXCEPT"]

    def test_x_bare_except_near_miss_specific(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def guarded(op):
                try:
                    return op()
                except (ValueError, KeyError):
                    return None
            """,
            BroadExceptRule(),
        )
        assert fired == []

    def test_x_swallow_fires_on_pass(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def cleanup(path):
                try:
                    path.unlink()
                except OSError:
                    pass
            """,
            SwallowedExceptionRule(),
        )
        assert fired == ["X-SWALLOW"]

    def test_x_swallow_fires_on_continue(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def drain(items):
                out = []
                for item in items:
                    try:
                        out.append(item.decode())
                    except ValueError:
                        continue
                return out
            """,
            SwallowedExceptionRule(),
        )
        assert fired == ["X-SWALLOW"]

    def test_x_swallow_near_miss_recorded_failure(self, tmp_path):
        # A handler that *records* the failure — appends, logs, counts,
        # or re-raises — is exactly what the rule wants instead.
        fired, _ = lint_snippet(
            tmp_path,
            """
            def drain(items, errors):
                out = []
                for item in items:
                    try:
                        out.append(item.decode())
                    except ValueError as exc:
                        errors.append(exc)
                        continue
                return out
            """,
            SwallowedExceptionRule(),
        )
        assert fired == []

    def test_x_pickle_fires_on_unslotted_pool_payload(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class FooTask:
                service: str
            """,
            PoolDataclassSlotsRule(),
            rel="pipeline/engine.py",
        )
        assert fired == ["X-PICKLE"]

    def test_x_pickle_near_miss_slotted_or_parent_side(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class FooTask:
                service: str

            @dataclass
            class FooEngine:  # parent-side, never crosses the pool
                jobs: int = 1
            """,
            PoolDataclassSlotsRule(),
            rel="pipeline/engine.py",
        )
        assert fired == []

    def test_x_pickle_ignores_non_boundary_modules(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class FooTask:
                service: str
            """,
            PoolDataclassSlotsRule(),
            rel="src/other.py",
        )
        assert fired == []

    def test_x_pack_fires_on_dropped_field(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class ShardResult:
                service: str
                trace_count: int

            def pack_shard_result(result):
                return (result.service,)  # trace_count dropped!
            """,
            PackedResultCoverageRule(),
        )
        assert fired == ["X-PACK"]

    def test_x_pack_near_miss_full_coverage(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class ShardResult:
                service: str
                trace_count: int

            def pack_shard_result(result):
                return (result.service, result.trace_count)
            """,
            PackedResultCoverageRule(),
        )
        assert fired == []

    def test_x_atomic_fires_on_raw_writes(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from pathlib import Path

            def export(path, text, blob):
                Path(path).write_text(text)
                Path(path).write_bytes(blob)
            """,
            AtomicWriteRule(),
        )
        assert fired == ["X-ATOMIC", "X-ATOMIC"]

    def test_x_atomic_near_miss_atomic_helpers(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            from pathlib import Path

            from repro.fsutil import atomic_write_bytes, atomic_write_text

            def export(path, text, blob):
                atomic_write_text(Path(path), text)
                atomic_write_bytes(Path(path), blob)
            """,
            AtomicWriteRule(),
        )
        assert fired == []

    def test_x_atomic_ignores_tests_and_fsutil(self, tmp_path):
        code = """
            from pathlib import Path

            def fixture(path):
                Path(path).write_text("raw on purpose")
            """
        fired, _ = lint_snippet(
            tmp_path, code, AtomicWriteRule(), rel="tests/test_mod.py"
        )
        assert fired == []
        fired, _ = lint_snippet(
            tmp_path, code, AtomicWriteRule(), rel="src/repro/fsutil.py"
        )
        assert fired == []


# ----------------------------------------------------------------------
# S family fixture pairs
# ----------------------------------------------------------------------


class TestSyncRules:
    def test_s_stage_fires_on_unknown_stage(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def run(timer):
                with timer.stage("warpdrive"):
                    pass
            """,
            StageNameRule(),
            rel="pipeline/mod.py",
        )
        assert fired == ["S-STAGE"]

    def test_s_stage_near_miss_known_and_dynamic(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            def run(timer, name):
                with timer.stage("classify"):
                    pass
                with timer.stage("shard_setup"):
                    pass
                with timer.stage(name):  # dynamic: runtime validates
                    pass
            """,
            StageNameRule(),
            rel="pipeline/mod.py",
        )
        assert fired == []

    def test_s_stage_ignores_non_pipeline_files(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            'def run(timer):\n    with timer.stage("warpdrive"):\n        pass\n',
            StageNameRule(),
            rel="src/other.py",
        )
        assert fired == []

    def test_s_doc_ref_fires_on_bad_module_and_link(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "Uses `repro.nonexistent.widget` — see [more](missing.md).\n"
        )
        result = run_lint(tmp_path, targets=[], rules=[DocReferenceRule()])
        assert [f.rule for f in result.findings] == ["S-DOC-REF", "S-DOC-REF"]
        messages = " / ".join(f.message for f in result.findings)
        assert "repro.nonexistent.widget" in messages
        assert "missing.md" in messages

    def test_s_doc_ref_near_miss_real_references(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "x.md").write_text(
            "Uses `repro.bench` and [itself](x.md).\n\n"
            "```console\n$ python -m repro audit --json\n```\n"
        )
        result = run_lint(tmp_path, targets=[], rules=[DocReferenceRule()])
        assert result.findings == []

    def test_s_doc_ref_fires_on_unparseable_snippet(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "```console\n$ python -m repro audit --no-such-flag\n```\n"
        )
        result = run_lint(tmp_path, targets=[], rules=[DocReferenceRule()])
        assert [f.rule for f in result.findings] == ["S-DOC-REF"]

    def test_s_cli_doc_fires_on_unknown_section(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "cli.md").write_text("## `repro warp`\n")
        result = run_lint(tmp_path, targets=[], rules=[CliReferenceRule()])
        rules = {f.rule for f in result.findings}
        assert rules == {"S-CLI-DOC"}
        assert any(
            "unknown command" in f.message for f in result.findings
        )

    def test_s_cli_doc_fires_when_missing(self, tmp_path):
        result = run_lint(tmp_path, targets=[], rules=[CliReferenceRule()])
        assert [f.rule for f in result.findings] == ["S-CLI-DOC"]

    def test_s_profile_doc_fires_on_undocumented_profile(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "cli.md").write_text("# CLI\n\nnothing here\n")
        result = run_lint(tmp_path, targets=[], rules=[NamedProfileRule()])
        assert result.findings
        assert {f.rule for f in result.findings} == {"S-PROFILE-DOC"}
        # every named profile must be reported missing
        from repro.faults import FAULT_PROFILES
        from repro.services.config import IMPAIRMENT_PROFILES, LOAD_PROFILES

        expected = (
            len(LOAD_PROFILES)
            + len(IMPAIRMENT_PROFILES)
            + len(FAULT_PROFILES)
        )
        assert len(result.findings) == expected

    def test_s_bench_doc_fires_when_missing(self, tmp_path):
        result = run_lint(tmp_path, targets=[], rules=[BenchSchemaRule()])
        assert [f.rule for f in result.findings] == ["S-BENCH-DOC"]

    def test_s_metric_doc_fires_when_missing(self, tmp_path):
        result = run_lint(tmp_path, targets=[], rules=[MetricCatalogRule()])
        assert [f.rule for f in result.findings] == ["S-METRIC-DOC"]
        assert "missing" in result.findings[0].message

    def test_s_metric_doc_fires_on_undocumented_metric(self, tmp_path):
        from repro.obs.catalog import CATALOG

        names = sorted(CATALOG)
        dropped = names[0]
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(
            "\n".join(f"`{name}`" for name in names[1:]) + "\n"
        )
        result = run_lint(tmp_path, targets=[], rules=[MetricCatalogRule()])
        assert [f.rule for f in result.findings] == ["S-METRIC-DOC"]
        assert dropped in result.findings[0].message

    def test_s_metric_doc_near_miss_all_documented(self, tmp_path):
        from repro.obs.catalog import CATALOG

        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(
            "\n".join(f"`{name}`" for name in sorted(CATALOG)) + "\n"
        )
        result = run_lint(tmp_path, targets=[], rules=[MetricCatalogRule()])
        assert result.findings == []

    def test_s_rules_clean_on_real_repo(self):
        result = run_lint(REPO_ROOT, targets=[], rules=list(doc_rules()))
        assert result.findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=D-NOW — test seam
            """,
            WallClockRule(),
        )
        assert fired == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                # repro-lint: disable=D-NOW — test seam
                return time.time()
            """,
            WallClockRule(),
        )
        assert fired == []

    def test_suppression_without_reason_is_an_error(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=D-NOW
            """,
            WallClockRule(),
        )
        # The D-NOW finding stays AND the malformed marker is flagged.
        assert sorted(fired) == ["D-NOW", "L-SUPPRESS"]

    def test_unknown_rule_in_suppression_is_an_error(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "x = 1  # repro-lint: disable=NO-SUCH-RULE — because\n",
            WallClockRule(),
        )
        assert fired == ["L-SUPPRESS"]

    def test_unused_suppression_is_an_error(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            "x = 1  # repro-lint: disable=D-NOW — nothing to excuse\n",
            WallClockRule(),
        )
        assert fired == ["L-UNUSED"]

    def test_marker_inside_string_is_not_a_suppression(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            's = "# repro-lint: disable=D-NOW — documentation example"\n',
            WallClockRule(),
        )
        assert fired == []

    def test_one_comment_can_disable_several_rules(self, tmp_path):
        fired, _ = lint_snippet(
            tmp_path,
            """
            import time

            def f(bucket=[]):  # repro-lint: disable=X-MUTDEF,D-NOW — fixture
                bucket.append(time.time())
            """,
            MutableDefaultRule(),
        )
        # X-MUTDEF is suppressed; D-NOW is a known registry rule even
        # though it is not enabled here, so the comment is legal and
        # not flagged unused (its unused-ness is undecidable).
        assert fired == []


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def _violating_file(self, tmp_path):
        path = tmp_path / "src" / "mod.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("import time\nstamp = time.time()\n")
        return path

    def test_round_trip(self, tmp_path):
        path = self._violating_file(tmp_path)
        rule = WallClockRule()
        first = run_lint(tmp_path, targets=[path], rules=[rule])
        assert not first.ok

        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, first.findings)
        entries = load_baseline(baseline_path)
        assert len(entries) == 1 and entries[0]["rule"] == "D-NOW"

        second = run_lint(
            tmp_path, targets=[path], rules=[rule], baseline_path=baseline_path
        )
        assert second.ok
        assert [f.rule for f in second.baselined] == ["D-NOW"]

        # Removing the baseline re-arms the finding.
        third = run_lint(tmp_path, targets=[path], rules=[rule])
        assert not third.ok

    def test_baseline_is_line_insensitive(self, tmp_path):
        path = self._violating_file(tmp_path)
        rule = WallClockRule()
        first = run_lint(tmp_path, targets=[path], rules=[rule])
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, first.findings)

        # Shift the violation down; the baseline still covers it.
        path.write_text("import time\n\n\nstamp = time.time()\n")
        shifted = run_lint(
            tmp_path, targets=[path], rules=[rule], baseline_path=baseline_path
        )
        assert shifted.ok and len(shifted.baselined) == 1

    def test_stale_entries_are_reported_not_fatal(self, tmp_path):
        path = self._violating_file(tmp_path)
        rule = WallClockRule()
        first = run_lint(tmp_path, targets=[path], rules=[rule])
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, first.findings)

        path.write_text("import time\nstamp = time.perf_counter()\n")
        fixed = run_lint(
            tmp_path, targets=[path], rules=[rule], baseline_path=baseline_path
        )
        assert fixed.ok
        assert len(fixed.stale_baseline) == 1

    def test_corrupt_baseline_is_a_usage_error(self, tmp_path):
        path = self._violating_file(tmp_path)
        baseline_path = tmp_path / "lint-baseline.json"
        baseline_path.write_text("{not json")
        with pytest.raises(Exception):
            run_lint(
                tmp_path,
                targets=[path],
                rules=[WallClockRule()],
                baseline_path=baseline_path,
            )


# ----------------------------------------------------------------------
# Self-lint: the repository must be clean
# ----------------------------------------------------------------------


class TestSelfLint:
    def test_repo_lints_clean(self):
        result = run_lint(
            REPO_ROOT, baseline_path=REPO_ROOT / "lint-baseline.json"
        )
        assert result.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
        )
        assert result.files_scanned > 100

    def test_committed_baseline_is_empty(self):
        entries = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert entries == []

    def test_removing_a_real_suppression_fails_the_lint(self, tmp_path):
        """The bench.py wall-clock seam is load-bearing: strip its
        suppression comment and D-NOW must fire on the copy."""
        source = (REPO_ROOT / "src" / "repro" / "bench.py").read_text()
        assert "# repro-lint: disable=D-NOW" in source
        stripped = source.replace(
            "  # repro-lint: disable=D-NOW — BENCH entries are dated "
            "historical records; this seam is the single sanctioned "
            "call site",
            "",
        )
        assert stripped != source
        path = tmp_path / "src" / "bench.py"
        path.parent.mkdir(parents=True)
        path.write_text(stripped)
        result = run_lint(tmp_path, targets=[path], rules=[WallClockRule()])
        assert [f.rule for f in result.findings] == ["D-NOW"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestLintCli:
    def test_module_entry_clean_repo(self, capsys):
        code = lint_main(["--root", str(REPO_ROOT)])
        assert code == 0
        assert "lint ok" in capsys.readouterr().out

    def test_repro_subcommand(self, capsys):
        code = repro_main(["lint", "--root", str(REPO_ROOT), "--select", "S-STAGE"])
        assert code == 0

    def test_findings_exit_one_and_json(self, tmp_path, capsys):
        path = tmp_path / "src" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\nstamp = time.time()\n")
        code = lint_main(
            ["--root", str(tmp_path), "--format", "json", "--select", "D-NOW",
             str(path)]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["findings"][0]["rule"] == "D-NOW"

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "--select", "D-WARP"])
        assert code == 2

    def test_missing_target_exits_two(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), str(tmp_path / "nope")])
        assert code == 2

    def test_list_rules(self, capsys):
        code = lint_main(["--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        path = tmp_path / "src" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\nstamp = time.time()\n")
        args = ["--root", str(tmp_path), "--select", "D-NOW", str(path)]
        assert lint_main(args + ["--write-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").exists()
        assert lint_main(args) == 0  # baselined → clean
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_render_text_summary_shapes(self):
        from repro.lint.engine import LintResult

        finding = Finding(
            rule="D-NOW", path="x.py", line=1, col=1, message="m", hint="h"
        )
        text = render_text(
            LintResult(
                findings=[finding],
                baselined=[],
                stale_baseline=[],
                files_scanned=1,
            )
        )
        assert "x.py:1:1: D-NOW [error] m" in text
        assert "hint: h" in text
        clean = render_json(
            LintResult(
                findings=[], baselined=[], stale_baseline=[], files_scanned=1
            )
        )
        assert json.loads(clean)["ok"] is True


class TestCheckDocsWrapper:
    def test_wrapper_runs_clean(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        assert "docs ok" in completed.stdout
