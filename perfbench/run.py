"""The repo's benchmark: closed-loop audits of captured corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``repro audit`` or ``repro stream
--from-artifacts`` run in a fresh process (module-level caches — the
lexicon, PSL, packet codecs, entity DB — start cold, as they do for
every CLI user), over artifacts generated from ``--seed`` by the
repo's own generate, capture and impair code.  One client: the next
operation starts when the previous one has exited.

Workloads (see BENCHMARK.json for why each exists):

* ``replay-cold``   — six-service mix (HAR + PCAP/keylog units), audited
  with ``--jobs 2`` into an empty ``--cache-dir``;
* ``replay-delta``  — the same command against a store filled by a cold
  audit, after ~10% of the units were re-captured from a second seed;
* ``mobile-batch``  — PCAP/keylog-only corpus (heavy profile), batch
  audit with ``--jobs 1`` and no store;
* ``mobile-stream`` — the same shape impaired with ``reorder-dup``,
  audited by ``repro stream``.

Every operation's report must hash to a reference produced by another
path (sequential vs parallel, cold vs warm, batch vs stream); an
operation that exits non-zero, quarantines a unit, differs from the
reference, or (on ``replay-delta``) recomputes anything but the delta
counts as failed.

``--trace 0`` prints the end-to-end metrics (medians over the
operations of the run); ``--trace 1`` follows the untraced operations
with a few traced ones and prints the per-layer ledger of the median
one (see :mod:`tracing`).  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up is repeated this many times per run and its median reported,
# so set-up time is steady enough to compare across commits.
SETUP_REPEATS = 3
# A run measures at least this many operations, however long they take.
MIN_OPERATIONS = 3
# Traced operations per --trace 1 run, after the untraced ones.
TRACED_OPERATIONS = 3
# No single process may outlive this (seconds).
PROCESS_TIMEOUT = 60.0
# Share of each corpus kind re-captured before every replay-delta run.
DELTA_SHARE = 0.10

# (scale, profile) per corpus; the toy sizes serve the smoke test.
SIZES = {
    "replay": (0.05, "standard"),
    "mobile": (0.2, "heavy"),
}
TOY_SIZES = {
    "replay": (0.004, "standard"),
    "mobile": (0.01, "heavy"),
}


def derive(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one input, derived from ``seed``."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# -- processes -------------------------------------------------------------


@dataclass
class Step:
    """One finished process: how long, how much CPU and memory."""

    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def launch(args: list, log: Path, trace: Path | None = None) -> Step:
    """Run ``launch.py ARGS`` in a fresh process and measure it.

    Wall time runs from just before the process starts to the moment
    its command returned (reported by the child on the same monotonic
    clock); CPU time and peak RSS come from ``wait4`` and cover the
    whole process tree, pool workers included.
    """
    done = log.with_suffix(".done")
    done.unlink(missing_ok=True)
    options = ["--done", str(done)]
    if trace is not None:
        options += ["--trace", str(trace)]
    # Temporary files stay inside the checkout too.
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(log.parent))
    with open(log, "wb") as output:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), "--spawned-at", repr(started)]
            + options
            + [str(arg) for arg in args],
            stdout=output,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=ROOT,
        )
        timer = threading.Timer(PROCESS_TIMEOUT, process.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        ended = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(wait_status)
    finished = float(done.read_text()) if done.exists() else ended
    return Step(
        status=process.returncode,
        wall_s=finished - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def must_succeed(step: Step, log: Path, what: str) -> Step:
    if step.status != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{what} exited {step.status}:\n{tail}")
    return step


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- inputs ----------------------------------------------------------------


@dataclass
class Seeds:
    """Every input's seed, all derived from the benchmark's ``--seed``."""

    corpus: int  # the generated corpus (and, per trace, its impairment)
    variant: int  # the re-captured units of replay-delta
    delta: int  # which units replay-delta re-captures

    @classmethod
    def choose(cls, seed: int, directory: Path) -> "Seeds":
        """Derive the seeds, skipping ones the generator refuses."""
        groups = [
            ",".join(str(derive(seed, f"{purpose}/{attempt}")) for attempt in range(8))
            for purpose in ("corpus", "variant")
        ]
        log = directory / "seeds.log"
        must_succeed(launch(["corpus", "usable", *groups], log), log, "seed choice")
        corpus, variant = map(int, log.read_text().split()[-2:])
        return cls(corpus=corpus, variant=variant, delta=derive(seed, "delta"))


# -- workloads -------------------------------------------------------------


@dataclass
class Inputs:
    """What set-up leaves behind for the operations of one run."""

    directory: Path
    corpus: Path
    store: Path | None = None
    delta: list[str] = field(default_factory=list)
    units: int = 0
    traces: list[Path] = field(default_factory=list)  # set-up traces


@dataclass
class Workload:
    name: str
    corpus: str  # "replay" or "mobile"
    command: list[str]  # repro arguments after the corpus/store/output
    reference: list[str]  # the other path every report must match
    impair: str | None = None
    delta: bool = False
    # Entry points that must record calls on the traced operation.
    must_call: tuple[str, ...] = ()
    # The traced run fails below this share of traced wall time
    # attributed to named layers.
    min_coverage: float = 0.0

    @property
    def jobs(self) -> int:
        """Shard workers the operation may use."""
        if "--jobs" not in self.command:
            return 1
        return int(self.command[self.command.index("--jobs") + 1])

    def setup(self, directory: Path, seeds: "Seeds", toy: bool, traced: bool) -> Inputs:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        corpus = directory / "corpus"
        log = directory / "setup.log"
        traces: list[Path] = []
        if traced:
            (directory / "trace").mkdir()

        def step(args: list, what: str) -> None:
            trace = directory / "trace" / f"setup-{what}" if traced else None
            must_succeed(launch(args, log, trace), log, what)
            if trace is not None:
                traces.append(trace)

        scale, profile = (TOY_SIZES if toy else SIZES)[self.corpus]
        if self.corpus == "replay":
            step(
                ["repro", "generate", "--scale", scale, "--profile", profile,
                 "--seed", seeds.corpus, "--output", corpus, "--jobs", 2],
                "generate",
            )
        else:
            step(
                ["corpus", "mobile", "--scale", scale, "--profile", profile,
                 "--seed", seeds.corpus, "--output", corpus]
                + (["--impair", self.impair] if self.impair else []),
                "generate",
            )
        manifest = json.loads((corpus / "manifest.json").read_text())
        inputs = Inputs(directory, corpus, units=len(manifest["traces"]), traces=traces)
        if self.delta:
            inputs.store = directory / "store"
            step(
                ["repro", "audit", "--from-artifacts", corpus, "--cache-dir",
                 inputs.store, "--jobs", 1, "--json", "--output",
                 directory / "fill.json"],
                "fill",
            )
            inputs.delta = delta_units(corpus, seeds.delta)
            step(
                ["corpus", "variant", "--output", corpus,
                 "--seed", seeds.variant, "--units", *inputs.delta],
                "variant",
            )
        return inputs

    def reference_digest(self, inputs: Inputs) -> str:
        report = inputs.directory / "reference.json"
        log = inputs.directory / "reference.log"
        args = ["repro", *self.reference, "--from-artifacts", inputs.corpus,
                "--json", "--output", report]
        must_succeed(launch(args, log), log, "reference")
        return sha256(report)

    def operate(
        self, inputs: Inputs, reference: str, trace: Path | None = None
    ) -> tuple[Step, list[str]]:
        """One operation; returns its measurements and what was wrong."""
        directory = inputs.directory
        report = directory / "report.json"
        log = directory / "op.log"
        report.unlink(missing_ok=True)
        args = ["repro", *self.command, "--from-artifacts", inputs.corpus,
                "--json", "--output", report]
        if self.corpus == "replay":
            store = directory / "opstore"
            shutil.rmtree(store, ignore_errors=True)
            if inputs.store is not None:
                shutil.copytree(inputs.store, store)
            args += ["--cache-dir", store, "--verbose"]
        # Write back what set-up and the previous operation left dirty,
        # so the kernel does not flush it while this one is timed.
        os.sync()
        step = launch(args, log, trace)
        problems = []
        if step.status != 0:
            problems.append(f"exit status {step.status}")
        if not report.exists():
            problems.append("no report written")
        else:
            if "degraded" in json.loads(report.read_text()):
                problems.append("units were quarantined")
            if sha256(report) != reference:
                problems.append("report differs from the reference")
        if self.delta:
            expected = (inputs.units - len(inputs.delta), len(inputs.delta))
            found = recomputed_units(log)
            if found != expected:
                problems.append(
                    f"(unit hits, recomputed) = {found}, expected {expected}"
                )
        return step, problems


def delta_units(corpus: Path, seed: int) -> list[str]:
    """The seeded ~10% of units re-captured for ``replay-delta``.

    Units cost in proportion to their artifact bytes, which span an
    order of magnitude, so a plain random draw would make the delta's
    work vary with the seed.  Instead the HAR units and the PCAP units
    are each sorted by size and cut into as many runs of neighbours as
    units are drawn, and one unit is drawn from every run: each delta
    has the same size mix and exercises both decode paths.
    """
    rng = random.Random(seed)
    chosen: list[str] = []
    for suffix in (".har", ".pcap"):
        units = sorted(
            (unit_bytes(corpus, artifact.stem), artifact.stem)
            for artifact in corpus.glob("*" + suffix)
        )
        draws = max(1, round(DELTA_SHARE * len(units)))
        for index in range(draws):
            neighbours = units[index * len(units) // draws : (index + 1) * len(units) // draws]
            chosen.append(rng.choice(neighbours)[1])
    return chosen


def unit_bytes(corpus: Path, name: str) -> int:
    """Bytes of one unit's artifacts (HAR, or PCAP plus key log)."""
    return sum(path.stat().st_size for path in corpus.glob(glob.escape(name) + ".*"))


def recomputed_units(log: Path) -> tuple[int, int] | None:
    """``(unit hits, dirty units)`` from ``audit --verbose`` output."""
    for line in log.read_text(errors="replace").splitlines():
        if line.startswith("incremental replay:") and "unit hits" in line:
            words = line.split()
            return int(words[2]), int(words[5])
    return None


_E = "repro.pipeline.engine."
_REPLAY_MUST = (
    "repro.pipeline.replay.ReplayCorpus.scan",
    "repro.pipeline.replay.load_parsed_trace",
    "repro.pipeline.replay.unit_digest",
    "repro.datatypes.store.ClassificationStore.get_unit_results",
    "repro.datatypes.store.ClassificationStore.put_unit_results",
    "repro.net.har.read_har",
    "repro.capture.decrypt.decrypt_mobile_artifact",
    "repro.datatypes.extract.extract_from_request",
    "repro.flows.builder.FlowBuilder.prime_sequence",
    "repro.flows.builder.FlowBuilder.flows_for_destination",
    "repro.destinations.party.DestinationLabeler.label",
    _E + "AuditEngine.run",
    _E + "process_shard",
    _E + "AuditEngine.merge",
    "repro.pipeline.diffaudit.assemble_result",
    "repro.reporting.export.result_to_json",
)
_DECODE_MUST = (
    "repro.net.pcap.PcapReader.iter_packets",
    "repro.net.packet.parse_tcp_segment",
    "repro.net.tcp.TcpReassembler.add_segment",
    "repro.net.http.scan_request_stream",
)
_STARTUP_MUST = (
    _E + "prepare_classifier",
    "repro.destinations.entities.default_entity_db",
    "repro.destinations.blocklists.default_blocklists",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="replay-cold",
            corpus="replay",
            command=["audit", "--jobs", "2"],
            reference=["audit", "--jobs", "1"],
            must_call=_REPLAY_MUST
            + _DECODE_MUST
            + _STARTUP_MUST
            + ("repro.datatypes.store.ClassificationStore.put_many",),
        ),
        Workload(
            name="replay-delta",
            corpus="replay",
            command=["audit", "--jobs", "2"],
            reference=["audit", "--jobs", "1"],
            delta=True,
            must_call=_REPLAY_MUST
            + _DECODE_MUST
            + _STARTUP_MUST
            + (_E + "PackedShardResult.unpack",),
        ),
        Workload(
            name="mobile-batch",
            corpus="mobile",
            command=["audit", "--jobs", "1"],
            reference=["stream"],
            must_call=_DECODE_MUST
            + _STARTUP_MUST
            + (
                "repro.pipeline.replay.load_parsed_trace",
                "repro.capture.decrypt.decrypt_mobile_artifact",
                "repro.net.tcp.TcpReassembler.flows",
                "repro.net.tls.unwrap_hello",
                "repro.net.tls.decrypt_stream",
                "repro.net.http.parse_request_stream",
                "repro.datatypes.extract.extract_from_request",
                "repro.flows.builder.FlowBuilder.prime_sequence",
                "repro.flows.builder.FlowBuilder.flows_for_destination",
                _E + "process_shard",
                "repro.pipeline.diffaudit.assemble_result",
                "repro.reporting.export.result_to_json",
            ),
            min_coverage=0.9,
        ),
        Workload(
            name="mobile-stream",
            corpus="mobile",
            command=["stream"],
            reference=["audit", "--jobs", "1"],
            impair="reorder-dup",
            must_call=_DECODE_MUST
            + _STARTUP_MUST
            + (
                "repro.net.tcp.TcpReassembler.drain_ready",
                "repro.net.tcp.TcpReassembler.pop_flow",
                "repro.net.tls.scan_records",
                "repro.net.tls.decrypt_record",
                "repro.stream.incremental.IncrementalTraceDecoder.feed",
                "repro.stream.incremental.IncrementalTraceDecoder.finish",
                "repro.stream.session.StreamAudit.consume",
                "repro.stream.session.StreamAudit.result",
                "repro.datatypes.extract.extract_from_request",
                "repro.flows.builder.FlowBuilder.prime",
                "repro.flows.builder.FlowBuilder.flows_for_request",
                "repro.pipeline.diffaudit.assemble_result",
                "repro.reporting.export.result_to_json",
            ),
            min_coverage=0.9,
        ),
    )
}


# -- the per-layer ledger --------------------------------------------------

_LAYER_OF = {
    tracing.entry_point_id(module, qualname): layer
    for module, qualname, layer, _ in tracing.ENTRY_POINTS
}
_LAYER_OF[tracing.ROOT_SPAN] = tracing.ROOT_SPAN
_EXECUTE = "pipeline.engine.execute"
_PROCESS_SHARD = _E + "process_shard"

# Layers whose self time is a busy_s metric of its own name; the other
# metrics are derived in ledger().
BUSY_LAYERS = (
    "startup",
    "pipeline.replay",
    "net.har",
    "capture.decrypt",
    "net.pcap",
    "net.packet",
    "net.tcp",
    "net.tls",
    "net.http",
    "stream.incremental",
    "stream.session",
    "datatypes.extract",
    "datatypes.classify",
    "datatypes.store",
    "destinations",
    "flows.builder",
    "pipeline.engine",
    "audit",
    "reporting.export",
)


# Every per-layer metric with its unit, as printed under --trace 1.
PER_LAYER_UNITS = {
    **{f"{layer}.busy_s": "s" for layer in BUSY_LAYERS},
    "pipeline.replay.digest_busy_s": "s",
    "pipeline.replay.digest_mb": "MB",
    "net.har.mb": "MB",
    "net.pcap.records": "count",
    "net.packet.accept_ratio": "ratio",
    "net.tcp.segments": "count",
    "net.tcp.flows": "count",
    "net.tls.plaintext_mb": "MB",
    "net.tls.decrypted_ratio": "ratio",
    "net.http.requests": "count",
    "stream.incremental.high_water_kb": "KB",
    "stream.incremental.evictions": "count",
    "datatypes.extract.keys": "count",
    "datatypes.classify.keys": "count",
    "datatypes.store.rows_read": "count",
    "datatypes.store.rows_written": "count",
    "datatypes.store.unit_hit_ratio": "ratio",
    "flows.builder.observations": "count",
    "pipeline.engine.tasks": "count",
    "pipeline.engine.execute_s": "s",
    "pipeline.engine.worker_busy_share": "ratio",
    "pipeline.engine.unpack_busy_s": "s",
    "pipeline.engine.merge_busy_s": "s",
    "services.generator.busy_s": "s",
    "capture.busy_s": "s",
    "capture.write_busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.absent": "count",
}


def self_times(documents: list[dict]) -> tuple[dict, dict, float]:
    """Per-layer self time, per-entry-point inclusive time, and the
    outermost executor wall time, over one process tree's traces."""
    busy: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    execute = 0.0
    for document in documents:
        spans = document["spans"]
        children: dict[int, float] = {}
        names = {}
        for sid, parent, name, start, end, _ in spans:
            names[sid] = name
            if parent:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, _ in spans:
            duration = end - start
            layer = _LAYER_OF.get(name, name)
            busy[layer] = busy.get(layer, 0.0) + duration - children.get(sid, 0.0)
            inclusive[name] = inclusive.get(name, 0.0) + duration
            if layer == _EXECUTE and _LAYER_OF.get(names.get(parent)) != _EXECUTE:
                execute += duration
    return busy, inclusive, execute


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(
    workload: Workload,
    op_trace: Path,
    setup_traces: list[Path],
    wall: float,
    untraced_wall: float,
) -> tuple[dict[str, float], list[str], list[str], dict[str, float]]:
    """Per-layer metrics of one traced operation and its set-up.

    ``wall`` is the traced operation's wall time, ``untraced_wall`` the
    median of the run's untraced ones.  Returns ``(metrics, problems,
    absent entry points, self time per layer)``.
    """
    documents = tracing.load(str(op_trace))
    main = documents[0]
    busy, inclusive, execute = self_times(documents)
    busy["reporting.export"] = busy.get("reporting.export", 0.0) + busy.pop("io.write", 0.0)
    calls = tracing.merge_counts(document["calls"] for document in documents)
    counts = tracing.merge_counts(document["counts"] for document in documents)
    setup_documents = [doc for path in setup_traces for doc in tracing.load(str(path))]
    setup_busy, _, _ = self_times(setup_documents)

    covered = sum(
        end - start
        for _, parent, _, start, end, tid in main["spans"]
        if not parent and tid == main["main_tid"]
    )
    metrics = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in BUSY_LAYERS}
    pcap_calls = calls.get("repro.net.pcap.PcapReader.iter_packets", 0)
    segment_calls = calls.get("repro.net.packet.parse_tcp_segment", 0)
    extract_calls = calls.get("repro.datatypes.extract.extract_from_request", 0)
    metrics.update(
        {
            "pipeline.replay.digest_busy_s": busy.get("pipeline.replay.digest", 0.0),
            "pipeline.replay.digest_mb": counts.get("digest.bytes", 0) / 1e6,
            "net.har.mb": counts.get("har.bytes", 0) / 1e6,
            "net.pcap.records": pcap_calls,
            "net.packet.accept_ratio": ratio(counts.get("packet.accepted", 0), segment_calls),
            "net.tcp.segments": counts.get("tcp.segments", 0),
            "net.tcp.flows": counts.get("tcp.flows", 0),
            "net.tls.plaintext_mb": counts.get("tls.plaintext_bytes", 0) / 1e6,
            "net.tls.decrypted_ratio": ratio(
                counts.get("tls.recovered_flows", 0),
                counts.get("tls.recovered_flows", 0) + counts.get("tls.lost_flows", 0),
            ),
            "net.http.requests": counts.get("http.requests", 0),
            "stream.incremental.high_water_kb": counts.get("stream.high_water_bytes", 0) / 1024,
            "stream.incremental.evictions": counts.get("stream.evictions", 0),
            "datatypes.extract.keys": counts.get("extract.keys", 0),
            "datatypes.classify.keys": counts.get("classify.keys", 0),
            "datatypes.store.rows_read": counts.get("store.rows_read", 0),
            "datatypes.store.rows_written": counts.get("store.rows_written", 0),
            "datatypes.store.unit_hit_ratio": ratio(
                counts.get("store.unit_hits", 0), counts.get("store.unit_lookups", 0)
            ),
            "flows.builder.observations": counts.get("flows.observations", 0),
            "pipeline.engine.tasks": calls.get(_PROCESS_SHARD, 0),
            "pipeline.engine.execute_s": execute,
            "pipeline.engine.worker_busy_share": ratio(
                inclusive.get(_PROCESS_SHARD, 0.0), workload.jobs * execute
            ),
            "pipeline.engine.unpack_busy_s": busy.get("pipeline.engine.unpack", 0.0),
            "pipeline.engine.merge_busy_s": busy.get("pipeline.engine.merge", 0.0),
            "services.generator.busy_s": setup_busy.get("services.generator", 0.0),
            "capture.busy_s": setup_busy.get("capture", 0.0),
            "capture.write_busy_s": setup_busy.get("capture.write", 0.0)
            + setup_busy.get("io.write", 0.0),
            "trace.wall_s": wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.coverage": ratio(covered, wall),
            "trace.absent": len(set(main["absent"])),
        }
    )

    problems = []
    absent = sorted(set(main["absent"]))
    for key in workload.must_call:
        if key not in absent and not calls.get(key):
            problems.append(f"entry point {key} recorded no calls")
    for left, right, what in (
        (pcap_calls, segment_calls, "pcap records vs parse_tcp_segment calls"),
        (counts.get("packet.accepted", 0), counts.get("tcp.segments", 0),
         "accepted segments vs reassembled segments"),
        (counts.get("http.requests", 0) + counts.get("har.requests", 0), extract_calls,
         "HTTP + HAR requests vs extract_from_request calls"),
    ):
        if left != right:
            problems.append(f"{what} not conserved: {left} != {right}")
    if metrics["trace.coverage"] < workload.min_coverage:
        problems.append(
            f"named layers cover {metrics['trace.coverage']:.1%} of traced wall "
            f"time, below {workload.min_coverage:.0%}"
        )
    return metrics, problems, absent, {k: v for k, v in busy.items() if v > 0}


# -- a run -----------------------------------------------------------------


def measure(
    workload: Workload, inputs: Inputs, reference: str, seconds: float
) -> tuple[list[Step], int]:
    """Closed loop: operations back to back until ``seconds`` have passed."""
    steps: list[Step] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(steps) < MIN_OPERATIONS:
        step, problems = workload.operate(inputs, reference)
        steps.append(step)
        print(
            f"operation {len(steps)}: wall {step.wall_s:.4f} s, cpu {step.cpu_s:.4f} s, "
            f"peak rss {step.peak_rss_mb:.1f} MB",
            file=sys.stderr,
        )
        if problems:
            failed += 1
            print(f"operation {len(steps)} failed: {'; '.join(problems)}", file=sys.stderr)
    return steps, failed


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    directory = WORK / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    seeds = Seeds.choose(args.seed, directory)
    traced = bool(args.trace)
    repeats = 1 if (traced or args.toy) else SETUP_REPEATS
    setup_times = []
    for attempt in range(repeats):
        started = time.perf_counter()
        inputs = workload.setup(directory / f"setup{attempt}", seeds, args.toy, traced)
        setup_times.append(time.perf_counter() - started)
        if attempt + 1 < repeats:
            shutil.rmtree(inputs.directory)
    reference = workload.reference_digest(inputs)
    if args.tamper_reference:
        reference = hashlib.sha256(reference.encode()).hexdigest()

    steps, failed = measure(workload, inputs, reference, args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {},
    }
    wall = statistics.median(step.wall_s for step in steps)
    if not traced:
        result["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(s.cpu_s for s in steps), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(s.peak_rss_mb for s in steps),
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        return result

    ledgers = []
    for attempt in range(TRACED_OPERATIONS):
        op_trace = inputs.directory / "trace" / f"op{attempt}"
        step, problems = workload.operate(inputs, reference, trace=op_trace)
        metrics, trace_problems, absent, busy = ledger(
            workload, op_trace, inputs.traces, step.wall_s, wall
        )
        problems += trace_problems
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["correct"] = False
            print(f"traced operation failed: {'; '.join(problems)}", file=sys.stderr)
        ledgers.append((step.wall_s, metrics, absent, busy))
    # The traced operation of median wall time gives the ledger, so the
    # tracing overhead compares two medians.
    traced_wall, metrics, absent, busy = sorted(ledgers, key=lambda item: item[0])[
        len(ledgers) // 2
    ]
    for key in absent:
        print(f"absent entry point: {key}", file=sys.stderr)
    print(f"ledger ({workload.name}, traced wall {traced_wall:.3f} s, "
          f"untraced median {wall:.3f} s):", file=sys.stderr)
    for layer, value in sorted(busy.items(), key=lambda item: -item[1]):
        print(f"  {layer:28s} {value:8.3f} s  {value / traced_wall:6.1%}", file=sys.stderr)
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny corpora, one set-up (smoke test)"
    )
    parser.add_argument(
        "--tamper-reference",
        action="store_true",
        help="corrupt the reference digest, so every operation must fail "
        "(smoke test of the correctness check)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
