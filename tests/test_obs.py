"""Tests for the unified telemetry subsystem (``repro.obs``).

The load-bearing contracts, in test order:

* registry mechanics — the catalog is enforced, types are checked,
  renderings are deterministic;
* the Prometheus text golden — the exposition format is pinned byte
  for byte, so a scraper that worked yesterday works tomorrow;
* deterministic merge — worker snapshots fold the same way whatever
  order shards finished in (Hypothesis);
* span tracing — events, the JSONL sidecar, the sink fan-in, and the
  no-double-count rule for merged shard tables;
* telemetry parity — surfacing metrics/spans changes zero bytes of
  audit output, across jobs and executors;
* the live HTTP endpoint — ``/metrics`` scrapes as valid Prometheus
  text and ``/stats`` as JSON while a stream session is resident.
"""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import CorpusConfig, DiffAudit
from repro.cli import main as repro_main
from repro.obs import write_metrics
from repro.obs.catalog import CATALOG, MetricSpec, spec_for
from repro.obs.http import MetricsServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import SpanRecorder
from repro.reporting.export import result_to_json
from repro.stream import LiveGeneratorSource, StreamAudit

CONFIG = CorpusConfig(scale=0.004, profile="light", seed=11, services=("youtube",))


class FakeClock:
    """A deterministic clock: every read advances by ``step``."""

    def __init__(self, start: float = 100.0, step: float = 0.5) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------


class TestRegistry:
    def test_catalog_is_enforced(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError, match="not in repro.obs.catalog"):
            registry.counter("repro_made_up_total")
        with pytest.raises(KeyError):
            spec_for("repro_made_up_total")

    def test_catalog_specs_are_well_formed(self):
        for name, spec in CATALOG.items():
            assert spec.name == name
            assert spec.help.strip()
            if spec.type == "counter":
                assert name.endswith("_total"), name

    def test_bad_metric_type_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            MetricSpec("repro_x_total", "summary", "nope")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_stream_traces_total")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("repro_stream_traces_total")

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_faults_fired_total")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels("kill-worker")  # missing the profile label

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("repro_stream_traces_total").inc(-1)

    def test_gauge_max_is_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_stream_high_water_bytes")
        gauge.max(10)
        gauge.max(3)
        assert gauge.labels().value == 10

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        assert histogram.counts == [1, 1, 2]
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(5.05)

    def test_labelless_family_renders_at_zero(self):
        registry = MetricsRegistry()
        registry.counter("repro_stream_traces_total")
        assert "repro_stream_traces_total 0" in registry.render_prometheus()

    def test_gauge_callback_computes_on_scrape(self):
        registry = MetricsRegistry()
        state = {"flows": 0}
        registry.gauge_callback(
            "repro_stream_flows_live", lambda: state["flows"]
        )
        state["flows"] = 7
        assert "repro_stream_flows_live 7" in registry.render_prometheus()
        registry.clear_callback("repro_stream_flows_live")
        state["flows"] = 9
        assert "repro_stream_flows_live 7" in registry.render_prometheus()

    def test_gauge_callback_rejects_non_gauges(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge_callback("repro_faults_fired_total", lambda: 0)

    def test_reset_zeroes_but_keeps_families(self):
        registry = MetricsRegistry()
        registry.counter("repro_stream_traces_total").inc(5)
        registry.reset()
        snapshot = registry.snapshot()
        samples = snapshot["metrics"]["repro_stream_traces_total"]["samples"]
        assert samples == [{"labels": {}, "value": 0.0}]


# ----------------------------------------------------------------------
# Prometheus text golden
# ----------------------------------------------------------------------


GOLDEN = """\
# HELP repro_engine_runs_total Audit engine runs started, by executor kind.
# TYPE repro_engine_runs_total counter
repro_engine_runs_total{executor="process"} 2
repro_engine_runs_total{executor="sequential"} 1
# HELP repro_store_get_seconds Latency of classification store batch reads.
# TYPE repro_store_get_seconds histogram
repro_store_get_seconds_bucket{le="0.5"} 1
repro_store_get_seconds_bucket{le="2.5"} 2
repro_store_get_seconds_bucket{le="+Inf"} 2
repro_store_get_seconds_sum 2.5
repro_store_get_seconds_count 2
# HELP repro_stream_buffered_bytes Reassembly bytes currently buffered across live flows.
# TYPE repro_stream_buffered_bytes gauge
repro_stream_buffered_bytes 4096
# HELP repro_stream_traces_total Packet traces consumed by stream sessions.
# TYPE repro_stream_traces_total counter
repro_stream_traces_total 3
"""


def golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_stream_traces_total").inc(3)
    registry.gauge("repro_stream_buffered_bytes").set(4096)
    runs = registry.counter("repro_engine_runs_total")
    runs.labels("sequential").inc()
    runs.labels("process").inc(2)
    store = registry.histogram("repro_store_get_seconds")
    child = store.labels()
    child.buckets = (0.5, 2.5)  # narrow buckets keep the golden short
    child.counts = [0, 0]
    store.observe(0.4)
    store.observe(2.1)
    return registry


class TestPrometheusText:
    def test_golden_rendering(self):
        assert golden_registry().render_prometheus() == GOLDEN

    def test_rendering_is_deterministic(self):
        assert (
            golden_registry().render_prometheus()
            == golden_registry().render_prometheus()
        )

    def test_integer_values_have_no_decimal_point(self):
        registry = MetricsRegistry()
        registry.counter("repro_stream_traces_total").inc(2)
        text = registry.render_prometheus()
        assert "repro_stream_traces_total 2\n" in text
        assert "2.0" not in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_faults_fired_total").labels(
            'kind"with\\quote', "chaos\nline"
        ).inc()
        text = registry.render_prometheus()
        assert '\\"with\\\\quote' in text
        assert "chaos\\nline" in text

    def test_write_metrics_picks_format_by_extension(self, tmp_path):
        registry = golden_registry()
        prom = write_metrics(tmp_path / "m.prom", registry)
        txt = write_metrics(tmp_path / "m.txt", registry)
        blob = write_metrics(tmp_path / "m.json", registry)
        assert prom.read_text() == GOLDEN
        assert txt.read_text() == GOLDEN
        document = json.loads(blob.read_text())
        assert document["version"] == 1
        assert "repro_stream_traces_total" in document["metrics"]


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------


def snapshot_of(traces: int, high_water: int, observations: list[float]) -> dict:
    registry = MetricsRegistry()
    registry.counter("repro_stream_traces_total").inc(traces)
    registry.gauge("repro_stream_high_water_bytes").max(high_water)
    histogram = registry.histogram("repro_store_get_seconds")
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()


class TestDeterministicMerge:
    def test_counters_sum_gauges_max(self):
        merged = merge_snapshots(
            [snapshot_of(2, 100, [0.01]), snapshot_of(3, 40, [0.2])]
        )
        metrics = merged["metrics"]
        assert (
            metrics["repro_stream_traces_total"]["samples"][0]["value"] == 5
        )
        assert (
            metrics["repro_stream_high_water_bytes"]["samples"][0]["value"]
            == 100
        )
        histogram = metrics["repro_store_get_seconds"]["samples"][0]
        assert histogram["count"] == 2

    def test_absorb_rejects_foreign_versions(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="snapshot version"):
            registry.absorb({"version": 99, "metrics": {}})

    def test_absorb_rejects_uncataloged_names(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError, match="uncataloged"):
            registry.absorb(
                {
                    "version": 1,
                    "metrics": {
                        "repro_made_up_total": {"samples": [{"value": 1}]}
                    },
                }
            )

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=10_000),
                # Dyadic values sum exactly in binary floating point,
                # so the order-independence claim is testable without
                # tripping over float non-associativity (the engine
                # pins absorb order for arbitrary floats).
                st.lists(
                    st.sampled_from([0.25, 0.5, 2.0, 16.0]),
                    max_size=4,
                ),
            ),
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_merge_is_order_independent(self, shards, seed):
        snapshots = [
            snapshot_of(traces, high, observations)
            for traces, high, observations in shards
        ]
        shuffled = list(snapshots)
        random.Random(seed).shuffle(shuffled)
        assert merge_snapshots(shuffled) == merge_snapshots(snapshots)


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------


class TestSpans:
    def test_span_events_use_injected_clock(self):
        clock = FakeClock(start=100.0, step=0.5)
        recorder = SpanRecorder(
            clock=clock, retain_events=True, metrics=MetricsRegistry()
        )
        with recorder.span("decode", unit="t0"):
            pass
        [event] = recorder.events
        assert event.name == "decode"
        assert event.start_s == pytest.approx(0.5)
        assert event.duration_s == pytest.approx(0.5)
        assert event.attrs == {"unit": "t0"}
        assert recorder.get("decode") == pytest.approx(0.5)

    def test_spans_land_in_metrics(self):
        metrics = MetricsRegistry()
        recorder = SpanRecorder(clock=FakeClock(), metrics=metrics)
        recorder.record("classify", 1.25)
        recorder.record("classify", 0.75)
        text = metrics.render_prometheus()
        assert 'repro_spans_total{name="classify"} 2' in text
        assert 'repro_span_seconds_total{name="classify"} 2' in text

    def test_merge_does_not_reemit_metrics(self):
        metrics = MetricsRegistry()
        recorder = SpanRecorder(clock=FakeClock(), metrics=metrics)
        recorder.merge({"decode": 3.0, "classify": 1.0})
        assert recorder.get("decode") == 3.0
        assert "repro_spans_total" not in metrics.render_prometheus()

    def test_sink_receives_events_rebased(self):
        sink_clock = FakeClock(start=50.0, step=0.0)
        sink = SpanRecorder(
            clock=sink_clock, retain_events=True, metrics=MetricsRegistry()
        )
        scoped_metrics = MetricsRegistry()
        scoped = SpanRecorder(
            clock=FakeClock(start=60.0, step=1.0),
            metrics=scoped_metrics,
            sink=sink,
        )
        with scoped.span("execute"):
            pass
        assert scoped.events == []  # scoped recorder does not retain
        [event] = sink.events
        assert event.name == "execute"
        assert event.start_s == pytest.approx(11.0)  # 61.0 - 50.0
        # Metrics stayed local to the scoped recorder — the sink's
        # registry (the default) is not double-counted through it.
        text = scoped_metrics.render_prometheus()
        assert 'repro_spans_total{name="execute"} 1' in text

    def test_non_retaining_sink_is_ignored(self):
        sink = SpanRecorder(clock=FakeClock(), metrics=MetricsRegistry())
        scoped = SpanRecorder(
            clock=FakeClock(), metrics=MetricsRegistry(), sink=sink
        )
        scoped.record("merge", 0.5)
        assert sink.events == []

    def test_jsonl_sidecar_roundtrip(self, tmp_path):
        recorder = SpanRecorder(
            clock=FakeClock(start=0.0, step=0.25),
            retain_events=True,
            metrics=MetricsRegistry(),
        )
        with recorder.span("shard_setup"):
            pass
        recorder.record("assemble", 2.0, start=1.0)
        path = recorder.write_jsonl(tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"version": 1, "events": 2}
        assert lines[1]["name"] == "shard_setup"
        assert lines[2] == {
            "name": "assemble",
            "start_s": 1.0,
            "duration_s": 2.0,
        }


# ----------------------------------------------------------------------
# Telemetry parity: surfacing changes nothing
# ----------------------------------------------------------------------


class TestTelemetryParity:
    @pytest.fixture(scope="class")
    def plain_json(self, tmp_path_factory) -> str:
        out = tmp_path_factory.mktemp("parity") / "plain.json"
        assert (
            repro_main(
                [
                    "audit",
                    "--services",
                    "youtube",
                    "--scale",
                    "0.004",
                    "--profile",
                    "light",
                    "--seed",
                    "11",
                    "--json",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        return out.read_text()

    @pytest.mark.parametrize("extra", [["--jobs", "2"]], ids=["process"])
    def test_audit_output_identical_with_telemetry_surfaced(
        self, tmp_path, plain_json, extra
    ):
        out = tmp_path / "instrumented.json"
        status = repro_main(
            [
                "audit",
                "--services",
                "youtube",
                "--scale",
                "0.004",
                "--profile",
                "light",
                "--seed",
                "11",
                "--json",
                "--output",
                str(out),
                "--metrics-out",
                str(tmp_path / "metrics.prom"),
                "--spans-out",
                str(tmp_path / "spans.jsonl"),
                *extra,
            ]
        )
        assert status == 0
        assert out.read_bytes() == plain_json.encode()
        metrics_text = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_engine_runs_total counter" in metrics_text
        header = json.loads(
            (tmp_path / "spans.jsonl").read_text().splitlines()[0]
        )
        assert header["version"] == 1
        assert header["events"] >= 4  # shard_setup/execute/merge/assemble

    def test_process_workers_ship_metric_deltas_home(self, tmp_path):
        REGISTRY.reset()
        result = DiffAudit(CONFIG, jobs=2).run()
        assert len(result.flows) > 0  # the audit actually ran
        snapshot = REGISTRY.snapshot()["metrics"]
        decode_packets = snapshot["repro_pcap_packets_total"]["samples"][0]
        assert decode_packets["value"] > 0  # counted in workers, merged here

    def test_stream_metrics_out_writes_snapshot(self, tmp_path):
        out = tmp_path / "stream.json"
        status = repro_main(
            [
                "stream",
                "--live",
                "--services",
                "youtube",
                "--scale",
                "0.004",
                "--profile",
                "light",
                "--seed",
                "11",
                "--json",
                "--output",
                str(tmp_path / "result.json"),
                "--metrics-out",
                str(out),
            ]
        )
        assert status == 0
        document = json.loads(out.read_text())
        samples = document["metrics"]["repro_stream_traces_total"]["samples"]
        assert samples[0]["value"] > 0


# ----------------------------------------------------------------------
# The live HTTP endpoint
# ----------------------------------------------------------------------


def http_get(port: int, path: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestMetricsEndpoint:
    def test_scrape_with_live_stream_session(self):
        REGISTRY.reset()
        session = StreamAudit(config=CONFIG)
        result = session.run(LiveGeneratorSource(config=CONFIG))
        server = MetricsServer(
            port=0,
            stats_fn=lambda: {
                "traces": session.trace_count,
                "evictions": session.evictions,
            },
        )
        port = server.start()
        try:
            status, content_type, body = http_get(port, "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            assert "# TYPE repro_stream_traces_total counter" in body
            assert f"repro_stream_traces_total {session.trace_count}" in body
            # Between traces no decoder is resident: callback gauges
            # read the truth, which is zero.
            assert "repro_stream_flows_live 0" in body

            status, content_type, body = http_get(port, "/stats")
            assert status == 200
            assert content_type == "application/json"
            document = json.loads(body)
            assert document["stats"]["traces"] == session.trace_count
            assert document["metrics"]["version"] == 1

            status, _, _ = http_get(port, "/metrics?format=prometheus")
            assert status == 200
        finally:
            server.stop()
        assert result_to_json(result) == result_to_json(
            StreamAudit(config=CONFIG).run(LiveGeneratorSource(config=CONFIG))
        )

    def test_unknown_path_is_404(self):
        server = MetricsServer(port=0, registry=MetricsRegistry())
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(port, "/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_cli_rejects_unbindable_port(self, tmp_path):
        holder = MetricsServer(port=0, registry=MetricsRegistry())
        holder.start()
        try:
            status = repro_main(
                [
                    "stream",
                    "--live",
                    "--services",
                    "youtube",
                    "--scale",
                    "0.004",
                    "--metrics-port",
                    str(holder.port),
                ]
            )
            assert status == 2
        finally:
            holder.stop()
