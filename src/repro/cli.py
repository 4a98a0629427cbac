"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``audit``      run the DiffAudit pipeline and print/export results
``stream``     incremental bounded-memory audit over a packet feed
``classify``   classify raw data type keys from the command line
``generate``   write raw capture artifacts (HAR/PCAP/keylog) to disk
``report``     render one paper table/figure from a fresh run
``distill``    train the small local classifier from the LLM teacher
``cache``      inspect/maintain the persistent classification store
``bench``      run the benchmark suite and record ``BENCH_<n>.json``
``lint``       static invariant analysis (determinism/executor/sync)

``audit``, ``report``, ``stream`` and ``classify`` accept
``--cache-dir DIR`` to persist classifications across runs and worker
processes; see ``docs/cli.md`` for the complete flag reference.

SIGINT/SIGTERM are handled gracefully everywhere: parallel shard
workers are torn down without traceback spew, a streaming session
flushes a final snapshot, and the process exits 130.

Every command imports the subsystems it runs inside its own function;
at module level this file loads only what ``build_parser`` needs, so a
process pays start-up for its own command and nothing else.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro.faults.plan import FAULT_PROFILES, FaultPlan
from repro.fsutil import atomic_write_text
from repro.lint.cli import add_lint_arguments
from repro.lint.cli import run_from_args as _run_lint_args
from repro.services.config import (
    IMPAIRMENT_PROFILES,
    LOAD_PROFILES,
    SERVICE_KEYS,
    CorpusConfig,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.replay import ReplayCorpus

# Effective defaults for corpus flags.  The parser's own defaults are
# None ("not specified") so `audit --from-artifacts` can tell an
# omitted flag — fill it from the corpus manifest — apart from an
# explicitly typed value, which always wins.
_DEFAULT_SEED = 2023
_DEFAULT_SCALE = 0.02
_DEFAULT_PROFILE = "standard"


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--services",
        nargs="+",
        choices=SERVICE_KEYS,
        default=None,
        help="subset of services (default: all six)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="traffic volume relative to the paper's (default 0.02)",
    )
    parser.add_argument("--seed", type=int, default=None, help="(default 2023)")
    parser.add_argument(
        "--profile",
        choices=sorted(LOAD_PROFILES),
        default=None,
        help="named load profile scaling traffic volume and request rate "
        "(default standard)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for per-service shards (default 1: sequential)",
    )
    _add_impair_argument(parser)


def _add_impair_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--impair",
        choices=sorted(IMPAIRMENT_PROFILES),
        default=None,
        help="seeded network-impairment profile applied to every mobile "
        "capture (reorder/duplicate are recoverable by reassembly; "
        "drop/jitter/fragment are not)",
    )


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's final telemetry snapshot to FILE on exit "
        "(.prom/.txt: Prometheus text exposition format; any other "
        "suffix: a JSON snapshot); telemetry is observational only — "
        "results are byte-identical with or without it",
    )


def _write_metrics_out(args) -> None:
    """Honor ``--metrics-out`` after a command's work is done."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro.obs import write_metrics

    write_metrics(path)
    print(f"wrote metrics to {path}", file=sys.stderr)


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory for the persistent classification store; verdicts "
        "persist across runs and are shared by --jobs workers, so warm "
        "re-runs skip the inner classifier entirely (results are "
        "byte-identical either way)",
    )


def _add_replay_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--from-artifacts",
        metavar="DIR",
        default=None,
        help="replay captured HAR/PCAP artifacts from DIR (a generate "
        "output directory or an external corpus) instead of generating "
        "traffic in-memory; omitted corpus flags are filled from DIR's "
        "manifest.json",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help="with --from-artifacts and --cache-dir: disable per-unit "
        "result reuse and recompute every trace unit (results are "
        "byte-identical either way; this only trades time)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run: requires --from-artifacts and "
        "--cache-dir, and reuses every per-unit result the killed run "
        "already flushed to the store (results are byte-identical to a "
        "cold run; prints how many units were reused)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults",
        metavar="PROFILE",
        choices=sorted(FAULT_PROFILES),
        default=None,
        help="seeded fault-injection profile exercising the recovery "
        "machinery: " + ", ".join(sorted(FAULT_PROFILES)) + ". Faults "
        "are deterministic in (--fault-seed, profile); kill/stall/store "
        "faults never change output bytes, data faults (corrupt-unit, "
        "chaos) need --keep-going",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the --inject-faults plan (default 0)",
    )
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict",
        action="store_true",
        default=True,
        help="fail fast on the first undecodable or worker-killing trace "
        "unit, naming its path and digest (this is the default)",
    )
    strictness.add_argument(
        "--keep-going",
        dest="strict",
        action="store_false",
        help="quarantine failing trace units instead of aborting: the run "
        "completes, the report gains a `degraded` section naming each "
        "quarantined unit, and the exit code is 3",
    )


def _fault_plan(args) -> FaultPlan | None:
    if not getattr(args, "inject_faults", None):
        return None
    return FaultPlan(profile=args.inject_faults, seed=args.fault_seed)


def _resume_usage_error(args) -> str | None:
    if not getattr(args, "resume", False):
        return None
    if not args.from_artifacts or not args.cache_dir:
        return (
            "error: --resume requires --from-artifacts DIR and --cache-dir "
            "DIR (resume reuses the per-unit results the interrupted run "
            "flushed into the store)"
        )
    if args.no_incremental:
        return (
            "error: --resume and --no-incremental conflict (resume IS "
            "per-unit result reuse)"
        )
    return None


def _config(args, corpus: ReplayCorpus | None = None) -> CorpusConfig:
    services = tuple(args.services) if args.services else None
    impair = getattr(args, "impair", None)
    if corpus is not None:
        manifest_config = (corpus.manifest or {}).get("config", {})
        for name in ("seed", "scale", "profile", "impair"):
            value = getattr(args, name, None)
            if value is None:
                continue
            if name in manifest_config:
                recorded = manifest_config[name]
            elif name == "impair" and manifest_config:
                recorded = None  # a manifest without the key is clean
            else:
                continue
            if value != recorded:
                # Replay never regenerates traffic, so these flags only
                # change what the result's config block *claims* about
                # the archived corpus — say so instead of silently
                # mislabeling the data.
                print(
                    f"warning: --{name} {value} overrides the corpus manifest's "
                    f"{name} {recorded}; replayed traffic is "
                    "unchanged, only the reported config differs",
                    file=sys.stderr,
                )
        from repro.pipeline.replay import replay_config

        return replay_config(
            corpus,
            seed=args.seed,
            scale=args.scale,
            profile=args.profile,
            impair=impair,
            services=services,
            fallback=CorpusConfig(
                seed=_DEFAULT_SEED, scale=_DEFAULT_SCALE, profile=_DEFAULT_PROFILE
            ),
        )
    return CorpusConfig(
        seed=args.seed if args.seed is not None else _DEFAULT_SEED,
        scale=args.scale if args.scale is not None else _DEFAULT_SCALE,
        services=services,
        profile=args.profile if args.profile is not None else _DEFAULT_PROFILE,
        impair=impair,
    )


def _scan_replay_corpus(args) -> ReplayCorpus | None:
    if not getattr(args, "from_artifacts", None):
        return None
    from repro.pipeline.replay import ReplayCorpus

    return ReplayCorpus.scan(Path(args.from_artifacts))


def _output_usage_error(args) -> str | None:
    """Reject the ambiguous ``--output`` forms before running anything.

    With ``--json``, ``--output`` names the JSON summary *file*;
    without it, ``--output`` names the *directory* that receives
    ``flows.csv`` and ``findings.csv``.  Mixing the two used to fail
    only after a full (multi-minute at scale) audit run, or worse,
    silently create a directory named ``results.json``.
    """
    if not args.output:
        return None
    path = Path(args.output)
    if args.json:
        if path.is_dir():
            return (
                f"error: with --json, --output must be a file path, but "
                f"{args.output!r} is an existing directory"
            )
        if not path.parent.is_dir():
            return (
                f"error: cannot write {args.output!r}: parent directory "
                f"{str(path.parent)!r} does not exist"
            )
    else:
        if path.suffix == ".json":
            return (
                f"error: without --json, --output names a directory for CSV "
                f"exports, but {args.output!r} looks like a JSON file path "
                "(add --json for a JSON summary file)"
            )
        if path.is_file():
            return (
                f"error: without --json, --output names a directory for CSV "
                f"exports, but {args.output!r} is an existing file"
            )
    return None


def cmd_audit(args) -> int:
    error = _resume_usage_error(args) or _output_usage_error(args)
    if error is None and args.with_provenance and not (
        args.from_artifacts and args.json
    ):
        error = "error: --with-provenance requires --from-artifacts and --json"
    if error:
        print(error, file=sys.stderr)
        return 2
    from repro.datatypes.store import StoreError
    from repro.pipeline.diffaudit import DiffAudit
    from repro.pipeline.replay import ReplayError

    span_sink = None
    if args.spans_out:
        from repro.obs.trace import SpanRecorder

        span_sink = SpanRecorder(retain_events=True)
    try:
        corpus = _scan_replay_corpus(args)
        result, profile = DiffAudit(
            _config(args, corpus),
            replay=corpus,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            incremental=not args.no_incremental,
            keep_going=not args.strict,
            faults=_fault_plan(args),
            span_sink=span_sink,
        ).run_profiled()
    except (ReplayError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.profile_out:
        from repro.pipeline.profile import write_profile

        write_profile(args.profile_out, profile)
        print(f"wrote profile to {args.profile_out}", file=sys.stderr)
    if span_sink is not None:
        span_sink.write_jsonl(args.spans_out)
        print(f"wrote spans to {args.spans_out}", file=sys.stderr)
    _write_metrics_out(args)
    if args.verbose:
        # One consistent run summary, whether the corpus was generated
        # in-memory or replayed from disk.
        engine_profile = profile.get("engine", {})
        print(
            f"run summary: {engine_profile.get('traces', 0)} traces, "
            f"{len(result.degraded)} degraded, "
            f"{engine_profile.get('store_hits', 0)} store hits, "
            f"{profile['wall_time_s']:.2f}s wall",
            file=sys.stderr,
        )
    if args.verbose or args.resume:
        engine_profile = profile.get("engine", {})
        if "unit_hits" in engine_profile:
            if args.resume:
                print(
                    f"resumed: {engine_profile['unit_hits']} unit results "
                    f"reused, {engine_profile['unit_misses']} recomputed",
                    file=sys.stderr,
                )
            else:
                print(
                    f"incremental replay: {engine_profile['unit_hits']} unit "
                    f"hits, {engine_profile['unit_misses']} dirty units "
                    "recomputed",
                    file=sys.stderr,
                )
        else:
            print(
                "incremental replay: inactive (requires --from-artifacts "
                "and --cache-dir)",
                file=sys.stderr,
            )
    provenance = corpus.provenance() if args.with_provenance else None
    status = _emit_result(result, json_flag=args.json, output=args.output,
                          provenance=provenance)
    return _degraded_status(result) if status == 0 else status


def _degraded_status(result) -> int:
    """Exit 3 ("completed with degraded units") when any unit was
    quarantined under --keep-going; 0 on a fully clean run."""
    if not result.degraded:
        return 0
    print(
        f"warning: completed with {len(result.degraded)} degraded unit(s); "
        "see the report's `degraded` section",
        file=sys.stderr,
    )
    return 3


def _emit_result(result, json_flag: bool, output: str | None, provenance=None) -> int:
    """Print/export one audit result (shared by ``audit`` and ``stream``)."""
    if json_flag:
        from repro.reporting.export import result_to_json

        document = result_to_json(result, provenance=provenance)
        if output:
            atomic_write_text(Path(output), document)
            print(f"wrote {output}")
        else:
            print(document)
        return 0
    for service in sorted(result.audits):
        for line in result.audits[service].summary_lines():
            print(line)
        print()
    if output:
        from repro.reporting.export import findings_to_csv, flows_to_csv

        directory = Path(output)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(directory / "flows.csv", flows_to_csv(result.flows))
        atomic_write_text(directory / "findings.csv", findings_to_csv(result))
        print(f"wrote {directory}/flows.csv and {directory}/findings.csv")
    return 0


def cmd_stream(args) -> int:
    """Incremental bounded-memory audit over a packet feed."""
    import json as json_module

    from repro.datatypes.store import StoreError
    from repro.net.pcap import PcapError
    from repro.pipeline.replay import ReplayCorpus, ReplayError
    from repro.stream.incremental import EvictionPolicy
    from repro.stream.session import StreamAudit, StreamError, snapshot_summary
    from repro.stream.sources import (
        ArtifactStreamSource,
        FollowPcapSource,
        LiveGeneratorSource,
        SingleCaptureSource,
    )

    chosen = [
        name
        for name, value in (
            ("--from-artifacts", args.from_artifacts),
            ("--pcap", args.pcap),
            ("--live", args.live),
        )
        if value
    ]
    if len(chosen) != 1:
        print(
            "error: stream needs exactly one source: --from-artifacts DIR, "
            "--pcap FILE, or --live",
            file=sys.stderr,
        )
        return 2
    if args.follow and not args.pcap:
        print("error: --follow requires --pcap FILE", file=sys.stderr)
        return 2
    if args.pcap and args.services:
        # The capture's service comes from its file stem; a filter that
        # could contradict it must not be silently ignored.
        print(
            "error: --services cannot be combined with --pcap (the trace's "
            "service comes from the capture's file stem)",
            file=sys.stderr,
        )
        return 2
    error = _output_usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2

    snapshot_dir = Path(args.snapshot_dir) if args.snapshot_dir else None
    if snapshot_dir is not None:
        snapshot_dir.mkdir(parents=True, exist_ok=True)

    def write_snapshot(index: int, output, final: bool = False) -> None:
        summary = snapshot_summary(output)
        if snapshot_dir is not None:
            name = "snapshot_final.json" if final else f"snapshot_{index:05d}.json"
            # Atomic so a kill mid-write (the exact moment snapshots
            # exist for) never leaves a truncated JSON file behind.
            atomic_write_text(
                snapshot_dir / name, json_module.dumps(summary, indent=1) + "\n"
            )
        print(
            f"snapshot {index}: {summary['traces']} traces, "
            f"{summary['packets']} packets, "
            f"{summary['flow_observations']} flow observations",
            file=sys.stderr,
        )

    try:
        if args.from_artifacts:
            corpus = ReplayCorpus.scan(Path(args.from_artifacts))
            config = _config(args, corpus)
            source = ArtifactStreamSource(
                corpus=corpus, services=config.services or tuple(corpus.services())
            )
        elif args.pcap:
            if args.follow:
                source = FollowPcapSource(
                    pcap=Path(args.pcap),
                    keylog=Path(args.keylog) if args.keylog else None,
                    poll_interval=args.poll_interval,
                    stop_after_idle=args.stop_after_idle,
                )
            else:
                source = SingleCaptureSource(
                    pcap=Path(args.pcap),
                    keylog=Path(args.keylog) if args.keylog else None,
                )
            meta = source.meta()
            args.services = [meta.service]
            config = _config(args)
        else:  # --live
            config = _config(args)
        if not config.service_specs():
            raise StreamError(
                "no catalog services to stream (configured: "
                f"{', '.join(config.services or ())})"
            )
        if args.live:
            source = LiveGeneratorSource(config=config)
        session = StreamAudit(
            config=config,
            policy=EvictionPolicy(
                idle_timeout=args.idle_timeout, byte_budget=args.byte_budget
            ),
            snapshot_every=args.snapshot_every,
            cache_dir=args.cache_dir,
        )
    except (ReplayError, StreamError, StoreError, PcapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    server = None
    if args.metrics_port is not None:
        from repro.obs.http import MetricsServer

        def _live_stats() -> dict:
            return {
                "traces": session.trace_count,
                "packets": session.packet_count,
                "evictions": session.evictions,
                "high_water_bytes": session.high_water_bytes,
            }

        try:
            # The constructor binds the socket, so it belongs in the
            # try with start(): a port already in use fails here.
            server = MetricsServer(port=args.metrics_port, stats_fn=_live_stats)
            port = server.start()
        except OSError as exc:
            print(
                f"error: cannot bind metrics port {args.metrics_port}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(
            f"serving metrics on http://127.0.0.1:{port}/metrics "
            f"(JSON: /stats)",
            file=sys.stderr,
        )

    index = 0
    try:
        for output in session.snapshots(source):
            index += 1
            write_snapshot(index, output)
    except KeyboardInterrupt:
        # Graceful teardown: flush a final snapshot of everything the
        # stream had fully consumed, then exit non-zero.  With
        # --cache-dir, classifications already persisted, so the next
        # run starts warm.
        write_snapshot(index + 1, session.snapshot(), final=True)
        print(
            f"interrupted after {session.trace_count} traces "
            f"({session.packet_count} packets); final snapshot flushed",
            file=sys.stderr,
        )
        return 130
    except (ReplayError, StreamError, PcapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
    if snapshot_dir is not None or args.snapshot_every:
        write_snapshot(index + 1, session.snapshot(), final=True)
    status = _emit_result(session.result(), json_flag=args.json, output=args.output)
    _write_metrics_out(args)
    return status


def cmd_classify(args) -> int:
    from repro.datatypes.cache import CachingClassifier
    from repro.datatypes.majority import MajorityVoteClassifier
    from repro.datatypes.store import PersistentClassifier, StoreError, store_path_for

    keys = args.keys
    if not keys:
        if sys.stdin.isatty():
            # Without this, an interactive `repro classify` blocks
            # silently on a terminal read that looks like a hang.
            print(
                "error: no keys given and stdin is a terminal; pass keys as "
                "arguments (repro classify email age) or pipe them in "
                "(printf 'email\\nage\\n' | repro classify)",
                file=sys.stderr,
            )
            return 2
        keys = [line.strip() for line in sys.stdin if line.strip()]
    classifier: object = MajorityVoteClassifier(confidence_mode=args.mode)
    persistent = None
    if args.cache_dir:
        # Interactive use warms the exact store a full `audit
        # --cache-dir` run reads, and benefits from it in turn.
        persistent = PersistentClassifier.wrap(
            classifier, store_path_for(args.cache_dir)
        )
        classifier = persistent
    cache = CachingClassifier.wrap(classifier)
    try:
        if persistent is not None:
            persistent.store  # fail fast on an unusable --cache-dir
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for verdict in cache.classify_batch(keys):
        print(verdict.formatted())
    if persistent is not None and keys and not persistent._disabled:
        # Statistics are best-effort: classification succeeded, so a
        # store failure here warns instead of failing the command
        # (mirroring AuditEngine.run's record_run handling).
        try:
            persistent.store.record_run(
                persistent.inner.name,
                memory_hits=cache.hits,
                store_hits=persistent.store_hits,
                misses=persistent.misses,
            )
        except StoreError as exc:
            print(
                f"warning: could not record run statistics: {exc}",
                file=sys.stderr,
            )
    if args.verbose:
        from repro.datatypes.store import RunRecord

        counters = RunRecord(
            id=0,
            classifier=cache.name,
            memory_hits=cache.hits,
            store_hits=persistent.store_hits if persistent else 0,
            misses=persistent.misses if persistent else cache.misses,
        )
        print(f"cache: {counters.summary()}", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    from repro.pipeline.engine import generate_corpus_artifacts
    from repro.pipeline.replay import ReplayError

    directory = Path(args.output)
    try:
        count = generate_corpus_artifacts(_config(args), directory, jobs=args.jobs)
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {count} trace artifacts into {directory}/")
    return 0


def cmd_report(args) -> int:
    error = _resume_usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    from repro.datatypes.store import StoreError
    from repro.pipeline.diffaudit import DiffAudit
    from repro.pipeline.replay import ReplayError

    try:
        corpus = _scan_replay_corpus(args)
        result = DiffAudit(
            _config(args, corpus),
            replay=corpus,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            incremental=not args.no_incremental,
            keep_going=not args.strict,
            faults=_fault_plan(args),
        ).run()
    except (ReplayError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.linkability.analysis import linkability_matrix
    from repro.reporting.figures import (
        render_census,
        render_fig3,
        render_fig4,
        render_fig5,
    )
    from repro.reporting.tables import (
        render_table1,
        render_table2,
        render_table4,
        render_table5,
    )

    def render_ci() -> str:
        from repro.audit.contextual import summarize
        from repro.reporting.tables import render_table

        rows = []
        for service in sorted(result.audits):
            summary = summarize(
                [o for o in result.flows.observations() if o.service == service]
            )
            rows.append(
                [
                    service,
                    str(summary.appropriate),
                    str(summary.conditional),
                    str(summary.inappropriate),
                    f"{summary.inappropriate_fraction:.1%}",
                ]
            )
        return render_table(
            ["Service", "Appropriate", "Conditional", "Inappropriate", "Inapp. %"],
            rows,
            "Contextual-integrity judgment",
        )

    renderers = {
        "table1": lambda: render_table1(result.dataset),
        "table2": lambda: render_table2(result.flows),
        "table4": lambda: render_table4(result.flows),
        "table5": render_table5,
        "fig3": lambda: render_fig3(linkability_matrix(result.flows)),
        "fig4": lambda: render_fig4(linkability_matrix(result.flows)),
        "fig5": lambda: render_fig5(result.alluvial),
        "census": lambda: render_census(result.census),
        "ci": render_ci,
    }
    print(renderers[args.artifact]())
    _write_metrics_out(args)
    return _degraded_status(result)


def cmd_distill(args) -> int:
    from repro.datatypes.distill import distill
    from repro.datatypes.majority import MajorityVoteClassifier
    from repro.services.payloads import PayloadFactory

    factory = PayloadFactory(seed=args.seed)
    teacher = MajorityVoteClassifier(confidence_mode="avg")
    keys = sorted(factory.registry.truth)
    student, report = distill(
        teacher,
        keys,
        confidence_threshold=args.threshold,
        truth=factory.registry.truth,
    )
    print(f"training labels:     {report.training_size}")
    print(f"student parameters:  {report.student_parameters}")
    print(f"teacher agreement:   {report.teacher_agreement:.3f}")
    if report.student_accuracy is not None:
        print(f"student accuracy:    {report.student_accuracy:.3f}")
        print(f"teacher accuracy:    {report.teacher_accuracy:.3f}")
    return 0


def _open_store(args):
    """Open an existing store, or report why it can't be.

    Inspection/maintenance commands open with ``recover=False``: a
    corrupt store is reported (exit 2) with the file left untouched
    for salvage, never silently quarantined and rebuilt empty — that
    recovery behavior is for the audit pipeline, where the store is
    disposable, not for the command asked to show its contents.
    """
    from repro.datatypes.store import ClassificationStore, StoreError, store_path_for

    path = store_path_for(args.cache_dir)
    if not path.exists():
        print(f"error: no classification store at {path}", file=sys.stderr)
        return None
    try:
        return ClassificationStore(path, recover=False)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_cache_stats(args) -> int:
    from repro.datatypes.store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    try:
        with store:
            stats = store.stats()
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"store:   {stats.path}")
    print(f"entries: {stats.total_entries}")
    for name, count in stats.entries.items():
        print(f"  {name}: {count}")
    print(f"unit results: {stats.total_unit_results}")
    for service, count in stats.unit_results.items():
        print(f"  {service}: {count}")
    if stats.stale_unit_results:
        print(
            f"  stale (older result schema): {stats.stale_unit_results} "
            "(prune with `cache prune --unit-results`)"
        )
    print(f"runs recorded: {stats.run_count}")
    last = stats.last_run
    if last is not None:
        print(f"last run ({last.classifier}): {last.summary()}")
    return 0


def cmd_cache_export(args) -> int:
    import json

    from repro.datatypes.store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    try:
        with store:
            lines = [
                json.dumps(
                    {
                        "classifier": name,
                        "text": verdict.text,
                        "label": verdict.label.value if verdict.label else None,
                        "confidence": verdict.confidence,
                        "explanation": verdict.explanation,
                    },
                    sort_keys=True,
                )
                for name, verdict in store.entries(args.classifier)
            ]
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = "\n".join(lines)
    if args.output:
        try:
            atomic_write_text(Path(args.output), output + "\n" if output else "")
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(lines)} entries to {args.output}")
    else:
        if output:
            print(output)
    return 0


def cmd_cache_prune(args) -> int:
    from repro.datatypes.store import StoreError

    if args.classifier is None and args.below is None and not args.unit_results:
        print(
            "error: prune needs --classifier, --below and/or --unit-results "
            "(use `cache clear` to wipe the store)",
            file=sys.stderr,
        )
        return 2
    store = _open_store(args)
    if store is None:
        return 2
    try:
        with store:
            removed = 0
            if args.classifier is not None or args.below is not None:
                removed = store.prune(
                    classifier=args.classifier, below=args.below
                )
            removed_units = (
                store.prune_unit_results() if args.unit_results else 0
            )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    message = f"pruned {removed} entries"
    if args.unit_results:
        message += f" and {removed_units} stale unit results"
    print(message)
    return 0


def cmd_cache_clear(args) -> int:
    from repro.datatypes.store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    try:
        with store:
            removed = store.clear()
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"cleared {removed} entries")
    return 0


def cmd_bench(args) -> int:
    from repro.bench import main as bench_main

    argv = ["--output-dir", args.output_dir, "--jobs", str(args.jobs)]
    if args.quick:
        argv.append("--quick")
    if args.scale is not None:
        argv.extend(["--scale", str(args.scale)])
    if args.profile is not None:
        argv.extend(["--profile", args.profile])
    if args.repeats is not None:
        argv.extend(["--repeats", str(args.repeats)])
    if args.min_decode_speedup is not None:
        argv.extend(["--min-decode-speedup", str(args.min_decode_speedup)])
    if args.min_audit_speedup is not None:
        argv.extend(["--min-audit-speedup", str(args.min_audit_speedup)])
    if args.min_audit_parallel_speedup is not None:
        argv.extend(
            ["--min-audit-parallel-speedup", str(args.min_audit_parallel_speedup)]
        )
    if args.min_parallel_efficiency is not None:
        argv.extend(
            ["--min-parallel-efficiency", str(args.min_parallel_efficiency)]
        )
    if args.min_incremental_speedup is not None:
        argv.extend(
            ["--min-incremental-speedup", str(args.min_incremental_speedup)]
        )
    status = bench_main(argv)
    # Bench workloads run in isolated child processes, so this snapshot
    # covers the orchestrating process — written even on a failed gate,
    # since that is exactly when telemetry is wanted.
    _write_metrics_out(args)
    return status


def cmd_lint(args) -> int:
    """``repro lint`` — thin shim over :mod:`repro.lint.cli`."""
    return _run_lint_args(args)


def _package_version() -> str:
    """The installed distribution's version, else the source tree's.

    ``pip install -e .`` registers package metadata; a bare
    ``PYTHONPATH=src`` checkout has none, so fall back to
    ``repro.__version__``.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except (ImportError, PackageNotFoundError):
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: print ``repro <version>`` and exit.

    argparse's own version action needs the string when the parser is
    built, and the metadata lookup behind it costs every command tens
    of milliseconds; this one looks the version up only when asked.
    """

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(
            option_strings,
            dest=argparse.SUPPRESS,
            default=argparse.SUPPRESS,
            nargs=0,
            help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        print(f"{parser.prog} {_package_version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiffAudit reproduction — differential privacy auditing",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run the full audit pipeline")
    _add_corpus_arguments(audit)
    _add_replay_argument(audit)
    _add_cache_argument(audit)
    _add_fault_arguments(audit)
    audit.add_argument("--json", action="store_true", help="emit a JSON summary")
    audit.add_argument(
        "--output",
        help="with --json: file path for the JSON summary; without --json: "
        "directory that receives flows.csv and findings.csv",
    )
    audit.add_argument(
        "--with-provenance",
        action="store_true",
        help="include replay provenance (source directory, trace counts) in "
        "the JSON summary; requires --from-artifacts and --json",
    )
    audit.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="write a stage-attribution profile of this run (wall time per "
        "pipeline stage and executor overheads) as JSON",
    )
    audit.add_argument(
        "--spans-out",
        metavar="FILE",
        default=None,
        help="write the run's span events (engine orchestration stages, "
        "unit-store round-trips, result assembly) as JSON lines; the "
        "first line is a schema header",
    )
    _add_metrics_argument(audit)
    audit.add_argument(
        "--verbose",
        action="store_true",
        help="print a one-line run summary (traces, degraded units, store "
        "hits, wall time) plus incremental-replay unit hit/miss counts "
        "to stderr",
    )
    audit.set_defaults(func=cmd_audit)

    stream = sub.add_parser(
        "stream",
        help="incremental bounded-memory audit over a packet feed",
    )
    stream.add_argument(
        "--from-artifacts",
        metavar="DIR",
        default=None,
        help="stream a captured corpus from disk to EOF, trace by trace "
        "and packet by packet (final results are byte-identical to "
        "`repro audit --from-artifacts DIR`)",
    )
    stream.add_argument(
        "--pcap",
        metavar="FILE",
        default=None,
        help="stream one capture file; trace identity comes from the "
        "{service}-{platform}-{kind}-{age} file stem",
    )
    stream.add_argument(
        "--keylog",
        metavar="FILE",
        default=None,
        help="NSS key-log file next to --pcap (omitted: all TLS flows opaque)",
    )
    stream.add_argument(
        "--live",
        action="store_true",
        help="synthetic live feed: drive the traffic generator through the "
        "--impair injector with no artifacts on disk",
    )
    stream.add_argument(
        "--follow",
        action="store_true",
        help="with --pcap: tail a capture file that is still being written, "
        "ending after --stop-after-idle seconds of quiet",
    )
    stream.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="S",
        help="follow mode: seconds between file polls (default 0.2)",
    )
    stream.add_argument(
        "--stop-after-idle",
        type=float,
        default=5.0,
        metavar="S",
        help="follow mode: end the stream after the capture file stays "
        "unchanged this many wall-clock seconds (default 5)",
    )
    stream.add_argument(
        "--services",
        nargs="+",
        choices=SERVICE_KEYS,
        default=None,
        help="subset of services (default: all six / all in the corpus)",
    )
    stream.add_argument(
        "--scale", type=float, default=None,
        help="traffic volume relative to the paper's (default 0.02)",
    )
    stream.add_argument("--seed", type=int, default=None, help="(default 2023)")
    stream.add_argument(
        "--profile",
        choices=sorted(LOAD_PROFILES),
        default=None,
        help="named load profile (default standard)",
    )
    _add_impair_argument(stream)
    stream.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="evict a flow after this many stream-time seconds without a "
        "segment (default 60)",
    )
    stream.add_argument(
        "--byte-budget",
        type=int,
        default=32 << 20,
        metavar="BYTES",
        help="cap on buffered payload bytes across all flows; least-recently-"
        "active flows are finalized to stay under it (default 33554432)",
    )
    stream.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=0,
        metavar="N",
        help="emit an engine-state snapshot every N finished traces "
        "(default: none)",
    )
    stream.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        default=None,
        help="write snapshot_<n>.json digests (plus snapshot_final.json) "
        "into DIR",
    )
    _add_cache_argument(stream)
    stream.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve live telemetry over HTTP on 127.0.0.1:N while the "
        "stream runs — GET /metrics returns Prometheus text "
        "exposition, GET /stats a JSON digest of the session; N=0 "
        "binds an ephemeral port (printed to stderr)",
    )
    _add_metrics_argument(stream)
    stream.add_argument(
        "--json", action="store_true", help="emit a JSON summary at EOF"
    )
    stream.add_argument(
        "--output",
        help="with --json: file path for the JSON summary; without --json: "
        "directory that receives flows.csv and findings.csv",
    )
    stream.set_defaults(func=cmd_stream)

    classify = sub.add_parser("classify", help="classify raw data type keys")
    classify.add_argument("keys", nargs="*", help="keys (default: read stdin)")
    classify.add_argument("--mode", choices=("avg", "max"), default="avg")
    _add_cache_argument(classify)
    classify.add_argument(
        "--verbose",
        action="store_true",
        help="print cache hit/miss statistics to stderr after classifying",
    )
    classify.set_defaults(func=cmd_classify)

    generate = sub.add_parser("generate", help="write raw capture artifacts")
    _add_corpus_arguments(generate)
    generate.add_argument("--output", default="./artifacts")
    generate.set_defaults(func=cmd_generate)

    report = sub.add_parser("report", help="render one paper table/figure")
    _add_corpus_arguments(report)
    _add_replay_argument(report)
    _add_cache_argument(report)
    _add_fault_arguments(report)
    _add_metrics_argument(report)
    report.add_argument(
        "artifact",
        choices=(
            "table1",
            "table2",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5",
            "census",
            "ci",
        ),
    )
    report.set_defaults(func=cmd_report)

    distill = sub.add_parser("distill", help="train the small local classifier")
    distill.add_argument("--seed", type=int, default=2023)
    distill.add_argument("--threshold", type=float, default=0.8)
    distill.set_defaults(func=cmd_distill)

    cache = sub.add_parser(
        "cache", help="inspect/maintain the persistent classification store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def _cache_dir_arg(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--cache-dir",
            metavar="DIR",
            required=True,
            help="directory holding the classification store",
        )

    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts and per-run hit rates"
    )
    _cache_dir_arg(cache_stats)
    cache_stats.set_defaults(func=cmd_cache_stats)

    cache_export = cache_sub.add_parser(
        "export", help="dump stored verdicts as JSON lines"
    )
    _cache_dir_arg(cache_export)
    cache_export.add_argument(
        "--classifier", default=None, help="restrict to one classifier's entries"
    )
    cache_export.add_argument(
        "--output", default=None, help="write to a file instead of stdout"
    )
    cache_export.set_defaults(func=cmd_cache_export)

    cache_prune = cache_sub.add_parser(
        "prune", help="delete entries by classifier and/or confidence"
    )
    _cache_dir_arg(cache_prune)
    cache_prune.add_argument(
        "--classifier", default=None, help="delete this classifier's entries"
    )
    cache_prune.add_argument(
        "--below",
        type=float,
        default=None,
        help="delete entries with confidence below this threshold",
    )
    cache_prune.add_argument(
        "--unit-results",
        action="store_true",
        help="age out per-unit replay results recorded under an older "
        "result-schema version (current-schema rows are kept)",
    )
    cache_prune.set_defaults(func=cmd_cache_prune)

    cache_clear = cache_sub.add_parser(
        "clear", help="delete every entry and the run history"
    )
    _cache_dir_arg(cache_clear)
    cache_clear.set_defaults(func=cmd_cache_clear)

    bench = sub.add_parser(
        "bench", help="run the benchmark suite and record BENCH_<n>.json"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small corpus, one repeat per workload",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=None,
        help="corpus scale for the workloads (default 0.02; --quick 0.005)",
    )
    bench.add_argument(
        "--profile",
        choices=sorted(LOAD_PROFILES),
        default=None,
        help="load profile for the workloads (default standard)",
    )
    bench.add_argument(
        "--jobs",
        type=_positive_int,
        default=2,
        help="worker processes for the audit-parallel workload (default 2)",
    )
    bench.add_argument(
        "--repeats",
        type=_positive_int,
        default=None,
        help="runs per workload, best-of-N recorded (default 3, or 1 with "
        "--quick); raise on noisy hosts",
    )
    bench.add_argument(
        "--output-dir",
        default=".",
        help="directory receiving BENCH_<n>.json (default: current directory)",
    )
    bench.add_argument(
        "--min-decode-speedup",
        type=float,
        default=None,
        help="exit non-zero unless decode throughput is at least this "
        "multiple of the previous comparable entry",
    )
    bench.add_argument(
        "--min-audit-speedup",
        type=float,
        default=None,
        help="exit non-zero unless audit throughput is at least this "
        "multiple of the previous comparable entry",
    )
    bench.add_argument(
        "--min-audit-parallel-speedup",
        type=float,
        default=None,
        help="exit non-zero unless audit-parallel throughput is at least "
        "this multiple of the previous comparable entry",
    )
    bench.add_argument(
        "--min-parallel-efficiency",
        type=float,
        default=None,
        help="exit non-zero unless this entry's own audit-parallel "
        "throughput is at least this multiple of its sequential audit "
        "throughput (needs >1 physical core to exceed 1.0)",
    )
    _add_metrics_argument(bench)
    bench.add_argument(
        "--min-incremental-speedup",
        type=float,
        default=None,
        help="exit non-zero unless this entry's own warm incremental "
        "re-audit is at least this multiple faster than its cold replay "
        "(the audit-incremental workload's in-entry ratio)",
    )
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="statically enforce determinism/executor/sync invariants",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Route SIGTERM through the same graceful-teardown path as Ctrl-C:
    # executors cancel and terminate their workers, the stream command
    # flushes a final snapshot, and the process exits 130 — no
    # traceback spew either way.  Signal handlers only exist in the
    # main thread; embedded callers elsewhere keep their own handling.
    restore = None
    if threading.current_thread() is threading.main_thread():
        restore = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if restore is not None:
            signal.signal(signal.SIGTERM, restore)


if __name__ == "__main__":
    raise SystemExit(main())
