"""Fault tolerance: seeded injection, crash recovery, degradation, resume.

Structure mirrors the feature's contract:

* ``FaultPlan`` — decisions are a pure function of (profile, seed,
  identity), plans pickle/hash, kills are transient by construction;
* executor recovery — a killed pool worker is retried; a persistent
  crash becomes a :class:`ShardCrash` sentinel, never an exception;
* poison bisection — a unit that crashes its worker on every attempt
  is isolated to exactly itself (quarantined under ``--keep-going``,
  named in strict mode);
* graceful degradation — real on-disk corruption quarantines the
  damaged unit with path + digest, exit code 3 at the CLI;
* byte parity — non-data fault plans (kill/stall/store) never change
  output bytes (Hypothesis, across seeds);
* crash-safe resume — an audit SIGKILLed mid-run resumes from the
  per-unit results its finished tasks already stored, byte-identical
  to a cold run, and its pool workers exit instead of outliving it;
* atomic writes — ``repro.fsutil`` never tears a file, even when the
  write itself fails.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import CorpusConfig, DiffAudit
from repro.cli import main as repro_main
from repro.datatypes.store import StoreError, store_path_for
from repro.faults import FAULT_PROFILES, FaultPlan, FlakyStore, corrupt_artifact
from repro.fsutil import atomic_write_text
from repro.pipeline.engine import (
    ProcessPoolShardExecutor,
    ShardCrash,
    generate_corpus_artifacts,
)
from repro.pipeline.replay import ReplayCorpus, ReplayError
from repro.reporting.export import result_to_json

REPO_ROOT = Path(__file__).resolve().parents[1]

CONFIG = CorpusConfig(
    seed=11, scale=0.002, profile="light", services=("tiktok", "youtube")
)


@pytest.fixture(scope="module")
def pristine_corpus(tmp_path_factory) -> Path:
    """One generated corpus, treated as read-only; tests copy it."""
    directory = tmp_path_factory.mktemp("faults-corpus")
    generate_corpus_artifacts(CONFIG, directory)
    return directory


@pytest.fixture(scope="module")
def clean_json(pristine_corpus) -> str:
    """The fault-free replay output every parity assertion compares to."""
    result = DiffAudit(CONFIG, replay=pristine_corpus).run()
    assert not result.degraded
    return result_to_json(result)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_profiles_registry(self):
        assert set(FAULT_PROFILES) == {
            "corrupt-unit", "kill-worker", "slow-worker", "flaky-store", "chaos"
        }
        # "none" is the programmatic poison-only escape hatch, never a
        # CLI choice.
        assert "none" not in FAULT_PROFILES
        FaultPlan("none")  # but it must construct

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultPlan("tornado")

    def test_decisions_are_deterministic(self):
        a = FaultPlan("chaos", seed=42)
        b = FaultPlan("chaos", seed=42)
        names = [f"unit-{i}" for i in range(50)]
        assert [a.corrupt_unit(n) for n in names] == [
            b.corrupt_unit(n) for n in names
        ]
        assert [a.kill_worker("svc", p, 0) for p in range(50)] == [
            b.kill_worker("svc", p, 0) for p in range(50)
        ]
        assert [a.stall_worker("svc", p) for p in range(50)] == [
            b.stall_worker("svc", p) for p in range(50)
        ]

    def test_seed_changes_the_schedule(self):
        names = [f"unit-{i}" for i in range(200)]
        schedules = {
            seed: tuple(FaultPlan("corrupt-unit", seed=seed).corrupt_unit(n) for n in names)
            for seed in (0, 1, 2)
        }
        assert len(set(schedules.values())) == 3

    def test_rates_are_roughly_honored(self):
        plan = FaultPlan("corrupt-unit", seed=0)
        hits = sum(plan.corrupt_unit(f"unit-{i}") for i in range(400))
        # rate 0.2 over 400 draws; loose bounds, no flakiness.
        assert 40 <= hits <= 160

    def test_kills_fire_only_on_first_attempt(self):
        plan = FaultPlan("kill-worker", seed=0)
        first = [plan.kill_worker("svc", p, 0) for p in range(100)]
        assert any(first)  # rate 0.6: some workers do die
        for attempt in (1, 2, 3):
            assert not any(
                plan.kill_worker("svc", p, attempt) for p in range(100)
            )

    def test_stalls_are_bounded(self):
        plan = FaultPlan("slow-worker", seed=3)
        delays = [plan.stall_worker("svc", p) for p in range(100)]
        assert any(delays)
        assert all(0.0 <= d <= plan.rates.stall_max_s for d in delays)

    def test_plan_pickles_and_hashes(self):
        plan = FaultPlan("chaos", seed=7, poison_unit="u")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)
        assert clone.corrupt_unit("x") == plan.corrupt_unit("x")

    def test_flaky_store_schedule_is_reproducible(self):
        class _Fake:
            def get_many(self, *args):
                return "ok"

            def stats(self):
                return "stats"

        plan = FaultPlan("flaky-store", seed=5)

        def schedule():
            store = FlakyStore(_Fake(), plan)
            outcomes = []
            for _ in range(40):
                try:
                    outcomes.append(store.get_many())
                except StoreError as exc:
                    assert "injected transient store fault" in str(exc)
                    outcomes.append("fault")
            return outcomes

        first, second = schedule(), schedule()
        assert first == second
        assert "fault" in first and "ok" in first
        # Non-hot operations pass straight through, never fault.
        assert FlakyStore(_Fake(), plan).stats() == "stats"

    def test_wrap_store_is_identity_without_store_faults(self):
        sentinel = object()
        assert FaultPlan("kill-worker").wrap_store(sentinel) is sentinel
        assert isinstance(
            FaultPlan("flaky-store").wrap_store(sentinel), FlakyStore
        )

    def test_corrupt_artifact_modes(self, tmp_path):
        target = tmp_path / "t.har"
        payload = b"x" * 4096
        target.write_bytes(payload)
        corrupt_artifact(target, seed=1, mode="scribble")
        scribbled = target.read_bytes()
        assert len(scribbled) == len(payload) and scribbled != payload
        corrupt_artifact(target, mode="truncate")
        assert target.stat().st_size == len(payload) // 2
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_artifact(target, mode="shred")


# ----------------------------------------------------------------------
# Process-pool crash recovery (executor level)
# ----------------------------------------------------------------------


def _exit_on_first_attempt(spec):
    """Die with os._exit the first time each value is attempted."""
    directory, value = spec
    marker = Path(directory) / f"attempted-{value}"
    if not marker.exists():
        marker.write_text("dead")
        os._exit(1)
    return value * 2


def _exit_by_spec(spec):
    kind, value = spec
    if kind == "die":
        os._exit(1)
    return value * 2


def _exit_or_sleep(spec):
    """Like _exit_by_spec, but healthy tasks outlast the crash."""
    kind, value = spec
    if kind == "die":
        os._exit(1)
    time.sleep(0.3)
    return value * 2


class TestProcessPoolRecovery:
    def test_transient_worker_death_is_retried(self, tmp_path):
        # max_attempts=5: a pool break can poison a not-yet-started
        # sibling task, so a task may burn an attempt without running.
        # Every attempt still makes progress (the worker that died DID
        # write its marker), so 5 attempts cover 3 tasks with margin.
        executor = ProcessPoolShardExecutor(
            jobs=3, max_attempts=5, retry_backoff_s=0.01
        )
        tasks = [(str(tmp_path), value) for value in (1, 2, 3)]
        results = executor.map_shards(tasks, work=_exit_on_first_attempt)
        assert results == [2, 4, 6]

    def test_persistent_crash_becomes_sentinel_not_exception(self):
        executor = ProcessPoolShardExecutor(
            jobs=2, max_attempts=4, retry_backoff_s=0.01
        )
        results = executor.map_shards(
            [("die", 0), ("ok", 2), ("ok", 3)], work=_exit_by_spec
        )
        assert isinstance(results[0], ShardCrash)
        assert results[0].attempts == 4
        assert "died on all 4 attempts" in results[0].error
        assert results[1:] == [4, 6]

    def test_healthy_shards_never_inherit_a_siblings_crash(self):
        # Both healthy tasks are still running when the poison kills
        # its worker, so every generation of a shared pool would
        # break under them and charge them an attempt.  Retried in
        # pools of their own, they finish on their second attempt.
        executor = ProcessPoolShardExecutor(
            jobs=2, max_attempts=4, retry_backoff_s=0.01
        )
        results = executor.map_shards(
            [("die", 0), ("ok", 2), ("ok", 3)], work=_exit_or_sleep
        )
        assert isinstance(results[0], ShardCrash)
        assert results[0].attempts == 4
        assert results[1:] == [4, 6]

    def test_pool_break_during_submission_is_retried(self, monkeypatch):
        # A worker can die while later shards are still being
        # submitted; submit() then raises BrokenProcessPool itself.
        submits = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("a worker died during submission")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        executor = ProcessPoolShardExecutor(jobs=2, retry_backoff_s=0.01)
        tasks = [("ok", value) for value in range(5)]
        results = executor.map_shards(tasks, work=_exit_by_spec)
        assert results == [0, 2, 4, 6, 8]


# ----------------------------------------------------------------------
# Poison-unit bisection (engine level)
# ----------------------------------------------------------------------


class TestPoisonBisection:
    def _poison_name(self, corpus: Path) -> str:
        units = ReplayCorpus.scan(corpus).units
        assert len(units) >= 4  # bisection needs something to split
        return units[len(units) // 2].meta.name

    def test_keep_going_quarantines_exactly_the_poison_unit(
        self, pristine_corpus
    ):
        poison = self._poison_name(pristine_corpus)
        result = DiffAudit(
            CONFIG,
            replay=pristine_corpus,
            jobs=2,
            keep_going=True,
            faults=FaultPlan("none", poison_unit=poison),
        ).run()
        assert [entry.unit for entry in result.degraded] == [poison]
        entry = result.degraded[0]
        assert entry.stage == "process"
        assert entry.error == "WorkerCrash"
        assert entry.digest and entry.digest != "unavailable"

    def test_lone_dirty_poison_unit_is_still_quarantined(
        self, pristine_corpus, tmp_path
    ):
        # The warm rerun's one dirty unit is the poison, so the pool
        # gets a single task: it must still crash in a worker and be
        # quarantined, never run in the parent.
        poison = self._poison_name(pristine_corpus)
        plan = FaultPlan("none", poison_unit=poison)
        reference = result_to_json(
            DiffAudit(
                CONFIG, replay=pristine_corpus, jobs=2, keep_going=True, faults=plan
            ).run()
        )
        for run in ("cold", "warm"):
            result = DiffAudit(
                CONFIG,
                replay=pristine_corpus,
                jobs=2,
                keep_going=True,
                faults=plan,
                cache_dir=tmp_path / "cache",
            ).run()
            assert [entry.unit for entry in result.degraded] == [poison], run
            assert result_to_json(result) == reference, run

    def test_strict_mode_names_the_poison_unit(self, pristine_corpus):
        poison = self._poison_name(pristine_corpus)
        with pytest.raises(ReplayError, match=poison):
            DiffAudit(
                CONFIG,
                replay=pristine_corpus,
                jobs=2,
                faults=FaultPlan("none", poison_unit=poison),
            ).run()


# ----------------------------------------------------------------------
# Graceful degradation on real on-disk corruption
# ----------------------------------------------------------------------


class TestRealCorruption:
    def _corrupted_copy(self, pristine: Path, tmp_path: Path):
        import shutil

        corpus = tmp_path / "corpus"
        shutil.copytree(pristine, corpus)
        units = ReplayCorpus.scan(corpus).units
        # Scribble a HAR: binary garbage in JSON fails decode for
        # certain, where a damaged pcap might just parse fewer records.
        unit = next(u for u in units if u.har is not None)
        victim = unit.har
        corrupt_artifact(victim, seed=9, mode="scribble")
        return corpus, unit.meta.name, victim

    def test_strict_failure_names_unit_path_and_remedy(
        self, pristine_corpus, tmp_path
    ):
        corpus, name, victim = self._corrupted_copy(pristine_corpus, tmp_path)
        with pytest.raises(ReplayError) as excinfo:
            DiffAudit(CONFIG, replay=corpus).run()
        message = str(excinfo.value)
        assert name in message
        assert str(victim) in message
        assert "digest" in message
        assert "--keep-going" in message

    def test_keep_going_completes_and_records_the_unit(
        self, pristine_corpus, tmp_path
    ):
        corpus, name, victim = self._corrupted_copy(pristine_corpus, tmp_path)
        result = DiffAudit(CONFIG, replay=corpus, keep_going=True).run()
        assert [entry.unit for entry in result.degraded] == [name]
        entry = result.degraded[0]
        assert entry.stage == "decode"
        assert entry.path == str(victim)
        assert entry.digest and entry.digest != "unavailable"
        # The rest of the corpus was audited: the JSON document carries
        # real findings plus the degraded section.
        document = json.loads(result_to_json(result))
        assert document["degraded"][0]["unit"] == name
        assert document["findings"]

    def test_degraded_units_are_not_cached(
        self, pristine_corpus, tmp_path
    ):
        # A quarantined unit must be re-attempted every run — repairing
        # the artifact heals the audit without touching the cache.
        corpus, name, victim = self._corrupted_copy(pristine_corpus, tmp_path)
        pristine_bytes = (
            pristine_corpus / victim.name
        ).read_bytes()
        cache = tmp_path / "cache"
        degraded_run = DiffAudit(
            CONFIG, replay=corpus, cache_dir=cache, keep_going=True
        ).run()
        assert [entry.unit for entry in degraded_run.degraded] == [name]
        victim.write_bytes(pristine_bytes)  # repair
        healed = DiffAudit(
            CONFIG, replay=corpus, cache_dir=cache, keep_going=True
        ).run()
        assert healed.degraded == []


# ----------------------------------------------------------------------
# Byte parity under non-data fault plans
# ----------------------------------------------------------------------


class TestNonDataFaultParity:
    @given(
        profile=st.sampled_from(["kill-worker", "slow-worker", "flaky-store"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=4, deadline=None)
    def test_non_data_faults_never_change_output_bytes(
        self, pristine_corpus, clean_json, tmp_path_factory, profile, seed
    ):
        cache = tmp_path_factory.mktemp("fault-cache")
        result = DiffAudit(
            CONFIG,
            replay=pristine_corpus,
            jobs=2,
            cache_dir=cache,
            faults=FaultPlan(profile, seed=seed),
        ).run()
        assert result.degraded == []
        assert result_to_json(result) == clean_json

    def test_chaos_with_keep_going_degrades_only_data_faults(
        self, pristine_corpus, clean_json
    ):
        # chaos includes corruption, so it needs keep-going; every
        # degraded entry must be an injected decode fault, and a seed
        # with no corruption hits must reproduce the clean bytes.
        result = DiffAudit(
            CONFIG,
            replay=pristine_corpus,
            jobs=2,
            keep_going=True,
            faults=FaultPlan("chaos", seed=1),
        ).run()
        for entry in result.degraded:
            assert entry.stage == "decode"
            assert "fault injection" in entry.detail
        if not result.degraded:
            assert result_to_json(result) == clean_json


# ----------------------------------------------------------------------
# SIGKILL + --resume
# ----------------------------------------------------------------------


def _unit_result_rows(store_path: Path) -> int:
    try:
        with sqlite3.connect(f"file:{store_path}?mode=ro", uri=True) as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM unit_results"
            ).fetchone()[0]
    except sqlite3.Error:
        return 0


def _child_pids(pid: int) -> set[int]:
    """Current children of ``pid``, from every thread's ``/proc`` list."""
    children: set[int] = set()
    for listing in sorted(Path(f"/proc/{pid}/task").glob("*/children")):
        try:
            children.update(int(child) for child in listing.read_text().split())
        # repro-lint: disable=X-SWALLOW — a thread that exited meanwhile has no children left to list
        except OSError:
            continue
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; an unreaped zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestSigkillResume:
    def test_resume_after_sigkill_matches_cold_run_bytes(
        self, pristine_corpus, clean_json, tmp_path
    ):
        cache = tmp_path / "cache"
        command = [
            sys.executable, "-m", "repro", "audit",
            "--from-artifacts", str(pristine_corpus),
            "--cache-dir", str(cache),
            "--jobs", "2",
            "--inject-faults", "slow-worker",  # widen the kill window
            "--json", "--output", os.devnull,
        ]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            command, env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        store_path = store_path_for(cache)
        workers: set[int] = set()
        deadline = time.monotonic() + 120
        try:
            # Kill the instant the run has flushed its first per-unit
            # results — mid-run by construction.
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                workers |= _child_pids(process.pid)
                if _unit_result_rows(store_path) >= 1:
                    process.kill()
                    break
                time.sleep(0.05)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        flushed = _unit_result_rows(store_path)
        assert flushed >= 1, "the interrupted run flushed nothing"

        # Nobody is left to shut the pool down: its workers must notice
        # on their own that their parent is gone.
        assert workers, "the audit started no pool workers"
        deadline = time.monotonic() + 15
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = sorted(pid for pid in workers if _running(pid))
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)  # leak nothing past a failure
        assert not survivors, f"pool workers outlived their killed parent: {survivors}"

        output = tmp_path / "resumed.json"
        status = repro_main([
            "audit",
            "--from-artifacts", str(pristine_corpus),
            "--cache-dir", str(cache),
            "--resume", "--json", "--output", str(output),
        ])
        assert status == 0
        assert output.read_text() == clean_json


# ----------------------------------------------------------------------
# CLI surface: exit codes and flag validation
# ----------------------------------------------------------------------


class TestCliExitCodes:
    def test_injected_corruption_strict_exits_2(self, pristine_corpus, capsys):
        status = repro_main([
            "audit", "--from-artifacts", str(pristine_corpus),
            "--inject-faults", "corrupt-unit", "--strict",
        ])
        assert status == 2
        stderr = capsys.readouterr().err
        assert "treated as corrupt" in stderr
        assert "--keep-going" in stderr

    def test_injected_corruption_keep_going_exits_3(
        self, pristine_corpus, tmp_path, capsys
    ):
        output = tmp_path / "out.json"
        status = repro_main([
            "audit", "--from-artifacts", str(pristine_corpus),
            "--inject-faults", "corrupt-unit", "--keep-going",
            "--json", "--output", str(output),
        ])
        assert status == 3
        assert "degraded" in capsys.readouterr().err
        document = json.loads(output.read_text())
        assert document["degraded"]
        for entry in document["degraded"]:
            assert entry["stage"] == "decode"
            assert entry["error"] == "ReplayError"

    def test_strict_and_keep_going_conflict(self, pristine_corpus, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main([
                "audit", "--from-artifacts", str(pristine_corpus),
                "--strict", "--keep-going",
            ])
        assert excinfo.value.code == 2

    def test_resume_requires_artifacts_and_cache(self, capsys):
        assert repro_main(["audit", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_resume_conflicts_with_no_incremental(
        self, pristine_corpus, tmp_path, capsys
    ):
        status = repro_main([
            "audit", "--from-artifacts", str(pristine_corpus),
            "--cache-dir", str(tmp_path / "cache"),
            "--resume", "--no-incremental",
        ])
        assert status == 2
        assert "conflict" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicWrites:
    def test_write_replaces_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["doc.json"]

    def test_failed_write_keeps_old_bytes_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "doc.json"
        target.write_text("old")

        def explode(src, dst):
            raise OSError("simulated torn rename")

        monkeypatch.setattr("repro.fsutil.os.replace", explode)
        with pytest.raises(OSError, match="torn rename"):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["doc.json"]
