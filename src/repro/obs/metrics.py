"""Process-local metrics registry with a lock-free fast path.

Counters, gauges, and histograms with label sets; every metric must
be declared in :mod:`repro.obs.catalog` first.  The hot path — one
``inc(n)`` per event — takes no lock: on a child it is one method
call doing a float ``+=`` on an attribute, and a label-less family
forwards it straight to its single child (a labelled family first
looks the child up by label values).  Under CPython's GIL that
``+=`` never tears, and the pipeline's executors either share one
registry in one process (sequential) or keep fully separate
registries that merge deterministically afterwards (process pool,
via :func:`merge_snapshots`).  Locks guard only child *creation*,
which happens once per label set.

Telemetry is observational by construction: nothing in this module
feeds back into audit results, and every rendering (Prometheus text,
JSON snapshot) iterates in sorted order so two registries holding the
same values always serialize to the same bytes.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.catalog import CATALOG, MetricSpec, spec_for

SNAPSHOT_VERSION = 1

#: Default histogram bucket upper bounds (seconds): spans store
#: round-trips from sub-millisecond page-cache reads out to
#: multi-second degraded retries.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotonically increasing count. ``inc`` is the lock-free path."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (or be computed on scrape)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def max(self, value: float) -> None:
        """High-water update: keep the larger of current and ``value``."""
        if value > self.value:
            self.value = value


class Histogram:
    """Cumulative-bucket histogram over fixed upper bounds."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
        self.sum += value
        self.count += 1


class Family:
    """All children of one cataloged metric, keyed by label values."""

    def __init__(self, spec: MetricSpec, registry: "MetricsRegistry") -> None:
        self.spec = spec
        self._registry = registry
        self._children: dict[tuple[str, ...], object] = {}
        # A label-less family gets its single child eagerly so the
        # metric renders (at zero) from the moment it is registered —
        # scrapes and goldens never depend on whether an event fired.
        # The conveniences below go straight to it; a labelled family
        # has none and routes them through ``labels()``, which rejects
        # the missing label values.
        self._single: object | None = None
        if not spec.labels:
            self._single = self._children[()] = self._make()

    def _make(self) -> object:
        if self.spec.type == "counter":
            return Counter()
        if self.spec.type == "gauge":
            return Gauge()
        return Histogram()

    def labels(self, *values: str) -> object:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.spec.labels):
            raise ValueError(
                f"metric {self.spec.name!r} takes labels "
                f"{self.spec.labels}, got {values!r}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.setdefault(key, self._make())
        return child

    # Label-less conveniences: module-level call sites hold the family
    # and call .inc()/.set()/.observe() directly.
    def inc(self, amount: float = 1.0) -> None:
        (self._single or self.labels()).inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        (self._single or self.labels()).dec(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        (self._single or self.labels()).set(value)  # type: ignore[union-attr]

    def max(self, value: float) -> None:
        (self._single or self.labels()).max(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        (self._single or self.labels()).observe(value)  # type: ignore[union-attr]

    def items(self) -> list[tuple[tuple[str, ...], object]]:
        """Children in sorted label order — the deterministic view."""
        return sorted(self._children.items())


class MetricsRegistry:
    """One process's metrics: families, callbacks, and serializers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self._callbacks: dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def family(self, name: str) -> Family:
        """The family for a cataloged metric (created on first use)."""
        family = self._families.get(name)
        if family is None:
            spec = spec_for(name)
            with self._lock:
                family = self._families.setdefault(name, Family(spec, self))
        return family

    def counter(self, name: str) -> Family:
        return self._typed(name, "counter")

    def gauge(self, name: str) -> Family:
        return self._typed(name, "gauge")

    def histogram(self, name: str) -> Family:
        return self._typed(name, "histogram")

    def _typed(self, name: str, metric_type: str) -> Family:
        family = self.family(name)
        if family.spec.type != metric_type:
            raise TypeError(
                f"metric {name!r} is a {family.spec.type}, not a "
                f"{metric_type}"
            )
        return family

    def gauge_callback(self, name: str, fn: Callable[[], float]) -> None:
        """Compute a label-less gauge on scrape instead of on event.

        Live stream state (flows resident, bytes buffered) changes on
        every packet; sampling it when someone actually looks is both
        cheaper and more truthful than eagerly mirroring it.
        """
        family = self.gauge(name)
        if family.spec.labels:
            raise ValueError(
                f"gauge_callback only supports label-less gauges, "
                f"{name!r} has labels {family.spec.labels}"
            )
        with self._lock:
            self._callbacks[name] = fn

    def clear_callback(self, name: str) -> None:
        with self._lock:
            self._callbacks.pop(name, None)

    def _run_callbacks(self) -> None:
        for name, fn in sorted(self._callbacks.items()):
            try:
                self.gauge(name).set(float(fn()))
            # repro-lint: disable=X-SWALLOW — a scrape racing session teardown reads dead state; the gauge keeps its last good value
            except (ValueError, TypeError, AttributeError):
                continue

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able, deterministic dump of every sample."""
        self._run_callbacks()
        metrics: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            spec = family.spec
            samples = []
            for key, child in family.items():
                labels = {
                    label: value
                    for label, value in zip(spec.labels, key)
                }
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": [
                                [bound, count]
                                for bound, count in zip(
                                    child.buckets, child.counts
                                )
                            ],
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics[name] = {
                "type": spec.type,
                "help": spec.help,
                "samples": samples,
            }
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self._run_callbacks()
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            spec = family.spec
            lines.append(f"# HELP {name} {spec.help}")
            lines.append(f"# TYPE {name} {spec.type}")
            for key, child in family.items():
                if isinstance(child, Histogram):
                    # ``counts`` is already cumulative: observe()
                    # increments every bucket whose bound covers the
                    # value, which is exactly Prometheus ``le`` form.
                    for bound, count in zip(child.buckets, child.counts):
                        bucket_labels = _label_str(
                            spec.labels + ("le",),
                            key + (_format_value(bound),),
                        )
                        lines.append(f"{name}_bucket{bucket_labels} {count}")
                    inf_labels = _label_str(
                        spec.labels + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{inf_labels} {child.count}")
                    label_str = _label_str(spec.labels, key)
                    lines.append(
                        f"{name}_sum{label_str} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{label_str} {child.count}")
                else:
                    label_str = _label_str(spec.labels, key)
                    lines.append(
                        f"{name}{label_str} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Merge / reset
    # ------------------------------------------------------------------

    def absorb(self, snapshot: Mapping) -> None:
        """Fold one worker snapshot into this registry.

        Counters and histograms add; gauges keep the maximum (their
        one cross-process use is high-water style state).  Callers
        absorb worker snapshots in canonical task order, which pins
        the float addition order and keeps merged metrics
        deterministic for a given run plan.
        """
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"cannot absorb metrics snapshot version "
                f"{snapshot.get('version')!r}"
            )
        for name, entry in sorted(snapshot.get("metrics", {}).items()):
            if name not in CATALOG:
                raise KeyError(f"snapshot carries uncataloged metric {name!r}")
            family = self.family(name)
            spec = family.spec
            for sample in entry.get("samples", ()):
                labels = sample.get("labels", {})
                values = tuple(str(labels.get(label, "")) for label in spec.labels)
                child = family.labels(*values)
                if spec.type == "histogram":
                    assert isinstance(child, Histogram)
                    for index, (bound, count) in enumerate(
                        sample.get("buckets", ())
                    ):
                        if (
                            index < len(child.buckets)
                            and child.buckets[index] == bound
                        ):
                            child.counts[index] += count
                    child.sum += sample.get("sum", 0.0)
                    child.count += sample.get("count", 0)
                elif spec.type == "counter":
                    assert isinstance(child, Counter)
                    child.value += sample.get("value", 0.0)
                else:
                    assert isinstance(child, Gauge)
                    child.max(sample.get("value", 0.0))

    def reset(self) -> None:
        """Zero every sample, keeping families and callbacks.

        Process-pool workers reset before each task so the task-end
        snapshot *is* the task's delta; tests reset between cases.
        """
        with self._lock:
            for family in self._families.values():
                for _, child in family.items():
                    if isinstance(child, Histogram):
                        child.counts = [0] * len(child.buckets)
                        child.sum = 0.0
                        child.count = 0
                    else:
                        child.value = 0.0  # type: ignore[union-attr]


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Deterministically merge snapshots into one.

    Pure function used by tests and offline tooling: the same
    multiset of snapshots merges to the same document regardless of
    input order for integer-valued samples, and in the engine the
    absorb order is pinned to canonical task order so float sums are
    stable too.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()


#: The process-wide default registry every instrumentation site uses.
REGISTRY = MetricsRegistry()
