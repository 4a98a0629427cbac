"""Lightweight stage profiling for the audit hot path.

The optimization work on the audit pipeline is measured, not guessed:
every shard attributes its wall time to named stages (generate/decode,
extraction, classification, store round-trips, flow building,
labeling), the engine adds its own orchestration stages (shard setup,
execution, ``unpack`` — weaving cached and fresh results back into
order and absorbing worker metrics — and merge), and the result is
one JSON document with a stable schema that ``repro bench`` records
next to every ``BENCH_<n>.json`` entry and ``repro audit
--profile-out FILE`` writes on demand.

Timing uses :func:`time.perf_counter` around stage boundaries — a few
calls per trace, well under the cost of the stages themselves — so the
profile can stay on permanently instead of being a special mode that
measures an execution path nobody runs.

Since the telemetry subsystem landed (:mod:`repro.obs`), the timer is
a *view over spans*: every ``timer.stage("…")`` is a
:meth:`repro.obs.trace.SpanRecorder.span`, so stage wall time also
feeds the ``repro_spans_total`` / ``repro_span_seconds_total`` metrics
and profile documents are one projection of the same span stream.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager
from pathlib import Path
from typing import Mapping

from repro.fsutil import atomic_write_text
from repro.obs.trace import SpanRecorder

PROFILE_VERSION = 1

# Engine-level keys every profile's ``engine`` section carries.
ENGINE_PROFILE_FIELDS = (
    "executor",
    "jobs",
    "tasks",
    "shard_setup_s",
    "execute_s",
    "unpack_s",
    "merge_s",
    "stages",
)

# Shard stage names (the ``stages`` table).  A profile only contains
# the stages that ran — a generated corpus has no ``decode`` time, a
# run without --cache-dir has no store round-trips, and only an
# incremental replay (--from-artifacts with --cache-dir) spends time
# in ``digest`` (content-addressing trace units; its unit-result
# store round-trips fold into ``store_get``/``store_put``).
SHARD_STAGES = (
    "setup",
    "generate",
    "decode",
    "digest",
    "dataset",
    "extract",
    "classify",
    "store_get",
    "store_put",
    "flow_build",
    "label",
)


class StageTimer:
    """Accumulates wall time per named stage — a view over spans.

    The historical profiling surface (``stage``/``add``/``merge``/
    ``get``/``as_dict``/``times``) is unchanged; the implementation
    delegates to a :class:`repro.obs.trace.SpanRecorder`, so every
    timed stage is also a span and lands in the metrics registry.
    Pass a recorder with ``retain_events=True`` to additionally keep
    the per-span event stream for a ``--spans-out`` sidecar.
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = SpanRecorder() if recorder is None else recorder

    @property
    def times(self) -> dict[str, float]:
        """The live name → accumulated-seconds table."""
        return self.recorder.totals

    def stage(self, name: str) -> "AbstractContextManager[None]":
        return self.recorder.span(name)

    def add(self, name: str, seconds: float) -> None:
        self.recorder.record(name, seconds)

    def merge(self, other: Mapping[str, float]) -> None:
        """Fold another timer's (or shard's) stage table into this one."""
        self.recorder.merge(other)

    def get(self, name: str) -> float:
        return self.recorder.get(name)

    def as_dict(self) -> dict[str, float]:
        """Stage table, rounded and sorted for stable JSON output."""
        return self.recorder.as_dict()


def profile_document(
    workload: str,
    wall_time_s: float,
    engine: Mapping[str, object],
    downstream_s: float = 0.0,
) -> dict:
    """One schema-versioned profile document.

    ``engine`` is :attr:`repro.pipeline.engine.EngineOutput.profile`;
    ``downstream_s`` is everything after the merge (audit assembly,
    linkability, census).
    """
    return {
        "version": PROFILE_VERSION,
        "workload": workload,
        "wall_time_s": round(wall_time_s, 6),
        "engine": dict(engine),
        "downstream_s": round(downstream_s, 6),
    }


def validate_profile(document: Mapping) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid profile."""
    if not isinstance(document, Mapping):
        raise ValueError("profile document must be a mapping")
    missing = {"version", "workload", "wall_time_s", "engine", "downstream_s"} - set(
        document
    )
    if missing:
        raise ValueError(f"profile document missing fields: {sorted(missing)}")
    if document["version"] != PROFILE_VERSION:
        raise ValueError(
            f"unsupported profile version {document['version']!r} "
            f"(expected {PROFILE_VERSION})"
        )
    engine = document["engine"]
    if not isinstance(engine, Mapping):
        raise ValueError("profile 'engine' section must be a mapping")
    missing = set(ENGINE_PROFILE_FIELDS) - set(engine)
    if missing:
        raise ValueError(f"profile engine section missing fields: {sorted(missing)}")
    stages = engine["stages"]
    if not isinstance(stages, Mapping):
        raise ValueError("profile 'engine.stages' must be a mapping")
    unknown = set(stages) - set(SHARD_STAGES)
    if unknown:
        raise ValueError(f"profile has unknown stages: {sorted(unknown)}")
    for key in ("wall_time_s", "downstream_s"):
        if not isinstance(document[key], (int, float)):
            raise ValueError(f"profile {key!r} must be a number")
    for name, seconds in stages.items():
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ValueError(f"profile stage {name!r} must be a non-negative number")


def write_profile(path: Path | str, document: Mapping) -> Path:
    """Validate and write one profile document as JSON."""
    validate_profile(document)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
