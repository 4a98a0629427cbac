"""``repro.obs`` — the unified telemetry subsystem.

Three pieces, one contract:

* :mod:`repro.obs.metrics` — a process-local registry of cataloged
  counters/gauges/histograms with Prometheus text rendering, JSON
  snapshots, and a deterministic cross-process merge.
* :mod:`repro.obs.trace` — span tracing (``span("stage")`` context
  managers over an injectable monotonic clock) that the stage
  profiler is now a view over.
* :mod:`repro.obs.http` — a read-only ``/metrics`` + ``/stats``
  endpoint for live sessions.  Import it from its module: only
  ``repro stream --metrics-port`` serves, and the HTTP stack it loads
  would otherwise ride along with every process that counts a metric.

The contract: telemetry is *observational only*.  Audit and report
outputs are byte-identical with telemetry surfaced or not, because
instrumentation always runs (it is cheap) and the flags only control
where the numbers go — a file, a port, or nowhere.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fsutil import atomic_write_text
from repro.obs.catalog import CATALOG, MetricSpec, spec_for
from repro.obs.metrics import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import SpanEvent, SpanRecorder, span

__all__ = [
    "CATALOG",
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "MetricSpec",
    "MetricsRegistry",
    "SpanEvent",
    "SpanRecorder",
    "merge_snapshots",
    "span",
    "spec_for",
    "write_metrics",
]


def write_metrics(
    path: Path | str, registry: MetricsRegistry | None = None
) -> Path:
    """Write the registry to ``path`` — format chosen by extension.

    ``.prom``/``.txt`` get Prometheus text exposition format; anything
    else gets the JSON snapshot.  Both writes are atomic, like every
    other run artifact.
    """
    registry = REGISTRY if registry is None else registry
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix in (".prom", ".txt"):
        return atomic_write_text(path, registry.render_prometheus())
    document = registry.snapshot()
    return atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
