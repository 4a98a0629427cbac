"""Deterministic, seed-driven fault injection.

A :class:`FaultPlan` is a frozen value object: every decision it makes
— which units "corrupt", which workers die or stall, which store calls
flake — is a pure function of ``(profile, seed, identity key)`` via
SHA-256, so the same plan replays the same faults on every run, in
every process, with no RNG state to carry around.  Plans travel inside
:class:`repro.pipeline.engine.ShardTask` pickles and key the worker's
memoized classifier stack, so they must stay hashable and cheap.

Two fault families, with very different contracts:

* **Non-data faults** — ``kill-worker``, ``slow-worker``,
  ``flaky-store`` — perturb *where and when* work happens, never its
  inputs.  The engine's recovery machinery (shard retry, store
  degradation) must make runs under these plans byte-identical to a
  clean run; CI's ``chaos-smoke`` job and the Hypothesis suite assert
  exactly that.
* **Data faults** — ``corrupt-unit`` — make selected trace units fail
  decode.  Under ``--keep-going`` the run completes with those units
  quarantined into the report's ``degraded`` section (exit code 3);
  under ``--strict`` (the default) the run fails fast naming the unit.

Injected corruption is *synthetic*: the plan makes the decoder treat
the unit as unreadable without ever touching the artifact bytes on
disk — ``--inject-faults corrupt-unit`` must never vandalize a user's
corpus.  Tests and CI that want real on-disk damage use
:func:`corrupt_artifact` on a copy.

Worker-kill faults only fire inside process-pool workers
(``multiprocessing.parent_process()`` is set); in-process — the
sequential executor and the engine's crash-recovery fallback — they
are no-ops rather than suicide.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.obs.metrics import REGISTRY

# Fired-fault accounting, labeled (kind, profile).  Corrupt/stall/store
# firings increment at their decision site — inside a pool worker that
# is counting its own work, so the engine ships them home in the packed
# shard snapshot.  Kill firings cannot be counted here: the worker
# ``os._exit``\\ s with its registry, so the engine's retry loop counts
# them parent-side by replaying the (pure) decision.
FAULTS_FIRED = REGISTRY.counter("repro_faults_fired_total")

#: CLI-facing fault profiles (``--inject-faults``), name → description.
#: ``chaos`` layers every family at once — including the data-fault
#: corruption, so chaos runs want ``--keep-going``.
FAULT_PROFILES: dict[str, str] = {
    "corrupt-unit": "selected trace units fail decode (data fault)",
    "kill-worker": "selected pool workers die on their first attempt",
    "slow-worker": "selected shards stall before processing",
    "flaky-store": "a fraction of store calls raise transient StoreError",
    "chaos": "all of the above at once",
}


@dataclass(frozen=True, slots=True)
class _Rates:
    corrupt: float = 0.0
    kill: float = 0.0
    stall: float = 0.0
    stall_max_s: float = 0.0
    store: float = 0.0


_RATES: dict[str, _Rates] = {
    # "none" is the programmatic escape hatch: zero ambient rates, so a
    # plan can carry only an explicit poison_unit (tests, bisection).
    "none": _Rates(),
    "corrupt-unit": _Rates(corrupt=0.2),
    "kill-worker": _Rates(kill=0.6),
    "slow-worker": _Rates(stall=0.5, stall_max_s=0.15),
    "flaky-store": _Rates(store=0.25),
    "chaos": _Rates(
        corrupt=0.1, kill=0.35, stall=0.35, stall_max_s=0.1, store=0.2
    ),
}


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """One seeded fault schedule.  Hashable, picklable, stateless."""

    profile: str
    seed: int = 0
    # A trace unit whose shard kills its worker on EVERY attempt — a
    # persistent "poison" crash (think a segfaulting decode), unlike
    # the transient kill fault below.  Exercises the engine's
    # bisection + quarantine path.  Test/CI facing; not a profile.
    poison_unit: str | None = None

    def __post_init__(self) -> None:
        if self.profile not in _RATES:
            known = ", ".join(sorted(_RATES))
            raise ValueError(
                f"unknown fault profile {self.profile!r} (choose from {known})"
            )

    @property
    def rates(self) -> _Rates:
        return _RATES[self.profile]

    def _fraction(self, kind: str, key: str) -> float:
        """Uniform [0, 1) draw, fully determined by the plan + key."""
        token = f"{self.seed}|{self.profile}|{kind}|{key}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- data faults ---------------------------------------------------

    def corrupt_unit(self, unit_name: str) -> bool:
        """Should this trace unit be treated as a corrupt artifact?"""
        rates = self.rates
        fired = (
            rates.corrupt > 0
            and self._fraction("corrupt", unit_name) < rates.corrupt
        )
        if fired:
            FAULTS_FIRED.labels("corrupt-unit", self.profile).inc()
        return fired

    # -- worker faults -------------------------------------------------

    def kill_worker(self, service: str, part: int, attempt: int) -> bool:
        """Should the worker running this shard die right now?

        Fires only on ``attempt == 0``: injected kills are transient by
        construction, so the executor's retry is guaranteed to
        terminate and the run stays byte-identical to a clean one.
        """
        if attempt != 0:
            return False
        rates = self.rates
        return rates.kill > 0 and self._fraction("kill", f"{service}:{part}") < rates.kill

    def stall_worker(self, service: str, part: int) -> float:
        """Seconds this shard's worker should sleep before starting."""
        rates = self.rates
        if rates.stall <= 0:
            return 0.0
        key = f"{service}:{part}"
        if self._fraction("stall", key) >= rates.stall:
            return 0.0
        FAULTS_FIRED.labels("slow-worker", self.profile).inc()
        return rates.stall_max_s * (0.2 + 0.8 * self._fraction("stall-length", key))

    # -- store faults --------------------------------------------------

    def store_fault(self, op: str, call_index: int) -> bool:
        """Should this (per-process) store call raise a StoreError?"""
        rates = self.rates
        return rates.store > 0 and self._fraction("store", f"{op}:{call_index}") < rates.store

    @property
    def injects_store_faults(self) -> bool:
        return self.rates.store > 0

    def wrap_store(self, store):
        """Layer store-fault injection over a ClassificationStore."""
        if not self.injects_store_faults:
            return store
        return FlakyStore(store, self)


class FlakyStore:
    """A :class:`~repro.datatypes.store.ClassificationStore` proxy that
    raises deterministic transient :class:`StoreError`\\ s.

    Only the hot read/write operations flake; everything else passes
    straight through.  The call counter is per-process — harmless,
    because every store failure path in the pipeline degrades without
    changing output bytes (uncached recompute, disabled persistence).
    """

    _FLAKY_OPS = frozenset(
        {"get_many", "put_many", "get_unit_results", "put_unit_results"}
    )

    def __init__(self, store, plan: FaultPlan) -> None:
        self._store = store
        self._plan = plan
        self._calls = 0

    def __getattr__(self, name: str):
        attr = getattr(self._store, name)
        if name not in self._FLAKY_OPS:
            return attr

        def flaky(*args, **kwargs):
            self._calls += 1
            if self._plan.store_fault(name, self._calls):
                # Local: the CLI reads FAULT_PROFILES for its flags, and
                # no other command should load the store for that.
                from repro.datatypes.store import StoreError

                FAULTS_FIRED.labels("flaky-store", self._plan.profile).inc()
                raise StoreError(
                    f"injected transient store fault ({name} call "
                    f"#{self._calls}, profile {self._plan.profile!r}, "
                    f"seed {self._plan.seed})"
                )
            return attr(*args, **kwargs)

        return flaky


def corrupt_artifact(path, seed: int = 0, mode: str = "scribble") -> None:
    """Deterministically damage an artifact file on disk (tests/CI).

    ``scribble`` overwrites a window in the middle of the file with
    seed-derived garbage (same size, wrecked content); ``truncate``
    chops the file to half its length (torn write).  Never used by
    ``--inject-faults`` — live runs inject corruption synthetically.
    """
    from pathlib import Path

    path = Path(path)
    size = path.stat().st_size
    if mode == "truncate":
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
        return
    if mode != "scribble":
        raise ValueError(f"unknown corruption mode {mode!r}")
    garbage = hashlib.sha256(f"{seed}|{path.name}".encode()).digest() * 4
    offset = min(size // 3, max(size - len(garbage), 0))
    with open(path, "rb+") as handle:
        handle.seek(offset)
        handle.write(garbage[: max(size - offset, 1)])
        handle.flush()
        os.fsync(handle.fileno())
