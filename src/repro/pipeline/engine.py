"""Parallel sharded audit engine.

The corpus shards naturally by service: trace generation is seeded per
``(seed, service, platform, kind, age)``, the beacon cursor is
per-service, and classification is a pure function of the key — so one
service's capture → parse → classify → flow-build stage never observes
another's state.  The engine exploits that:

1. **shard** — one :class:`ShardTask` per configured service;
2. **capture/parse/classify/flow-build** — :func:`process_shard` runs
   the whole per-service stage through a :class:`ShardFold` (the fold
   the streaming session shares) and returns its :class:`ShardResult`
   packed (:func:`pack_shard_result`), in-process and in a pool worker
   alike;
3. **merge** — shard results fold into one :class:`FlowTable` and
   :class:`DatasetSummary` in service-spec order, so the merged state
   is byte-for-byte what the sequential loop produces;
4. **audit/linkability** — downstream analyses run on the merged state
   (in :class:`repro.pipeline.diffaudit.DiffAudit`).

Executors decide *where* stage 2 runs: :class:`SequentialExecutor`
in-process (deterministic fallback, zero overhead), or
:class:`ProcessPoolShardExecutor` across worker processes
(``--jobs N``).

Parallel scheduling is size-balanced: per-service shards are badly
cost-skewed (a heavy service can cost more than the rest of the corpus
combined), so the engine estimates every shard's cost — trace-unit
packet volume for generated corpora, artifact byte sizes for replayed
ones — splits oversized service shards into contiguous sub-shards of
trace units (:func:`split_shard_tasks`), and submits the lot to the
pool unordered, largest first (LPT).  Results are reassembled into the
canonical service/unit order before merging, so sequential and
parallel runs stay byte-identical no matter how workers were
scheduled.  Splitting is safe because a skipped trace unit still
advances cross-unit generator state (see
:meth:`repro.services.generator.TrafficGenerator.generate_service`),
making every sub-shard's traffic identical to its slice of a whole-
service run.

With ``cache_dir`` set, classifications additionally persist in a
process-safe SQLite store (:mod:`repro.datatypes.store`) shared by
every shard worker and every run: a shard drains its cache misses
in one batch, warm re-runs never reach the inner classifier, and
results stay byte-identical either way.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Protocol

from repro.capture.base import TraceMeta
from repro.datatypes.base import Classifier
from repro.datatypes.cache import CachingClassifier
from repro.datatypes.extract import extract_from_request
from repro.datatypes.store import (
    ClassificationStore,
    PersistentClassifier,
    StoreError,
    store_path_for,
    unit_result_epoch,
)
from repro.destinations.blocklists import BlockListCollection
from repro.destinations.entities import EntityDatabase
from repro.destinations.party import DestinationLabeler, PartyLabel
from repro.faults.plan import FAULTS_FIRED, FaultPlan
from repro.flows.builder import FlowBuilder
from repro.flows.dataflow import FlowTable, pack_indexes, unpack_indexes
from repro.model import Platform, TraceColumn
from repro.obs.metrics import REGISTRY
from repro.obs.trace import SpanRecorder
from repro.ontology.nodes import Level3
from repro.pipeline.corpus import CorpusProcessor, ParsedTrace
from repro.pipeline.dataset import DatasetSummary
from repro.pipeline.profile import StageTimer
from repro.pipeline.replay import (
    ReplayCorpus,
    ReplayError,
    TraceUnit,
    load_parsed_trace,
    merge_manifest_traces,
    read_manifest,
    strict_unit_error,
    trace_record,
    unit_digest,
    unit_digest_or_placeholder,
    write_manifest,
)
from repro.services.catalog import ServiceSpec
from repro.services.config import CorpusConfig

# Engine telemetry (see docs/observability.md).  Bound once; every
# increment is a plain attribute add.  Instrumentation is
# observational only — nothing here feeds back into results.
_RUNS = REGISTRY.counter("repro_engine_runs_total")
_TASKS_DISPATCHED = REGISTRY.counter("repro_engine_tasks_dispatched_total")
_UNITS_CACHED = REGISTRY.counter("repro_engine_units_cached_total")
_UNITS_DIRTY = REGISTRY.counter("repro_engine_units_dirty_total")
_UNIT_STORE_HITS = REGISTRY.counter("repro_store_unit_hits_total")
_QUEUE_DEPTH = REGISTRY.gauge("repro_engine_queue_depth")
_SHARD_RETRIES = REGISTRY.counter("repro_engine_shard_retries_total")
_SHARD_CRASHES = REGISTRY.counter("repro_engine_shard_crashes_total")
_BISECTION_PROBES = REGISTRY.counter("repro_engine_bisection_probes_total")
_DEGRADED_UNITS = REGISTRY.counter("repro_engine_degraded_units_total")


@dataclass(slots=True)
class ShardTask:
    """Everything one worker needs to process one service shard.

    The task is self-contained and picklable: a worker process
    reconstructs the processor, labeler and flow builder from it
    without sharing any state with the parent.

    With ``replay_units`` set, the shard's traces come from artifact
    files on disk instead of the in-memory generate → capture → parse
    loop; everything downstream of trace parsing is identical.
    ``repro generate`` runs the same tasks and stops after capture.

    A task may cover the whole service (``unit_range is None``,
    ``part == 0``) or one contiguous sub-shard of its trace units —
    the scheduler splits oversized services so worker wall time
    balances.  ``estimated_cost`` is the scheduler's relative cost
    guess, used only for splitting and largest-first submission.

    In an incremental run a task covers one run of consecutive dirty
    units of its service (or a sub-shard of one), and ``unit_digests``
    maps each unit's name to its content digest: the task then stores
    every unit's result under ``epoch`` itself when it finishes (see
    :func:`process_shard`).  The map is keyed by name, so sub-shards,
    bisection halves and crash remainders carry it unsliced.

    ``classifier``, ``entity_db`` and ``blocklists`` may be ``None``,
    meaning "the defaults": the worker rebuilds them locally (memoized
    per process) instead of the parent pickling the full default stack
    — catalog, entity database, blocklists — into every task.  A
    ``None`` classifier is rebuilt over ``cache_dir``'s persistent
    store when set.  Only non-default components are ever serialized.
    """

    service: str
    config: CorpusConfig  # already restricted to this one service
    classifier: Classifier | None = None
    confidence_threshold: float = 0.8
    entity_db: EntityDatabase | None = None
    blocklists: BlockListCollection | None = None
    cache_dir: Path | str | None = None
    artifacts_dir: Path | None = None
    replay_units: tuple[TraceUnit, ...] | None = None
    unit_range: tuple[int, int] | None = None  # [start, stop) trace units
    part: int = 0  # sub-shard index within the service (canonical order)
    estimated_cost: float = 0.0
    # Graceful degradation (``--keep-going``): a unit that fails decode
    # is quarantined into ``ShardResult.degraded`` instead of aborting
    # the shard.  False (``--strict``, the default) fails fast with an
    # error naming the unit.
    keep_going: bool = False
    # Seeded fault-injection plan (``--inject-faults``); None in
    # normal operation.  Evaluated worker-side so pool workers replay
    # the exact same fault schedule as a sequential run would.
    faults: FaultPlan | None = None
    # Which executor attempt is running this task (0 = first).  The
    # retrying process pool bumps it on resubmission so transient
    # injected kills don't re-fire and recovery terminates.
    fault_attempt: int = 0
    unit_digests: dict[str, str] | None = None  # unit name -> digest
    epoch: str = ""  # unit-result epoch (repro.datatypes.store)


@dataclass(slots=True, frozen=True)
class DegradedUnit:
    """One quarantined trace unit: the record of a contained failure.

    Collected instead of raised under ``--keep-going``: the audit
    completes without the unit, the report gains a ``degraded``
    section listing these, and the CLI exits 3 ("completed with
    degraded units").  Carries everything an operator needs to triage
    without re-running: which unit, where its artifact lives, its
    content digest, the pipeline stage that failed, and the error.
    """

    service: str
    unit: str  # trace unit name
    path: str  # primary artifact path
    digest: str  # content digest ("unavailable" if undigestable)
    stage: str  # "decode" (artifact unreadable) or "process" (worker died)
    error: str  # exception class name, e.g. "ReplayError", "WorkerCrash"
    detail: str  # human-readable failure description


def _degraded_for_unit(
    service: str, unit: TraceUnit, stage: str, error: str, detail: str
) -> DegradedUnit:
    source = unit.har if unit.har is not None else unit.pcap
    return DegradedUnit(
        service=service,
        unit=unit.meta.name,
        path=str(source),
        digest=unit_digest_or_placeholder(unit),
        stage=stage,
        error=error,
        detail=detail,
    )


@dataclass(slots=True)
class ShardResult:
    """One service's slice of the corpus, ready to merge."""

    service: str
    flows: FlowTable
    dataset: DatasetSummary
    contacted: set[str]
    raw_keys: set[str]  # unique extracted keys; every one is classified
    owners: dict[str, str | None] = field(default_factory=dict)  # fqdn -> owner
    trace_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # Persistent-store layer counters (zero without --cache-dir): of
    # the in-memory misses above, how many the disk store answered vs
    # how many reached the inner classifier.
    store_hits: int = 0
    store_misses: int = 0
    # Wall time per stage (see repro.pipeline.profile.SHARD_STAGES).
    stage_times: dict[str, float] = field(default_factory=dict)
    # Units quarantined under --keep-going (empty in strict mode —
    # their failures raise instead).
    degraded: list[DegradedUnit] = field(default_factory=list)


def default_classifier() -> Classifier:
    """The paper's final labeling scheme: majority-average @0.8."""
    from repro.datatypes.majority import MajorityVoteClassifier

    return MajorityVoteClassifier(confidence_mode="avg")


def prepare_classifier(
    classifier: Classifier | None,
    cache_dir: Path | str | None,
    faults: FaultPlan | None = None,
) -> Classifier:
    """The classifier stack every pipeline front door builds.

    Defaults, then — with a ``--cache-dir`` — layers the persistent
    store underneath, touching it eagerly so an unusable directory (a
    file, unwritable, unrecoverably corrupt) fails before any
    expensive work starts; store failures *mid-run* degrade to
    uncached instead.  Shared by the batch engine and the streaming
    session so the two can never wire the store differently.  A
    ``faults`` plan that injects store faults rides on the persistent
    layer (see :class:`repro.faults.FlakyStore`).
    """
    if classifier is None:
        classifier = default_classifier()
    if cache_dir is not None:
        classifier = PersistentClassifier.wrap(
            classifier, store_path_for(cache_dir), faults=faults
        )
        classifier.store
    return classifier


def record_run_stats(
    classifier: Classifier,
    *,
    memory_hits: int,
    store_hits: int,
    misses: int,
) -> None:
    """Append one run's merged counters to the persistent store.

    Best-effort by contract: the audit already succeeded, so a store
    failure here warns instead of discarding the result.  No-op
    without a persistent layer.
    """
    if not isinstance(classifier, PersistentClassifier):
        return
    try:
        classifier.store.record_run(
            classifier.inner.name,
            memory_hits=memory_hits,
            store_hits=store_hits,
            misses=misses,
        )
    except StoreError as exc:
        print(
            f"warning: could not record run statistics: {exc}",
            file=sys.stderr,
        )


@lru_cache(maxsize=4)
def _worker_classifier(
    cache_dir: str | None, faults: FaultPlan | None = None
) -> Classifier:
    """The default classifier stack, rebuilt worker-side.

    Memoized per process so every sub-shard a worker picks up shares
    one stack (and, with a ``cache_dir``, one store connection).  On
    Linux the pool forks, so workers usually inherit the parent's
    warmed module caches for free; this covers spawn too.  The fault
    plan is part of the key — frozen and hashable by design — so a
    faulted run never reuses a clean run's store wiring.
    """
    return prepare_classifier(None, cache_dir, faults=faults)


def resolve_task_stack(
    task: ShardTask,
) -> tuple[Classifier, EntityDatabase, BlockListCollection]:
    """A task's (classifier, entity_db, blocklists), defaults rebuilt.

    The inverse of task slimming: components the parent left ``None``
    (because they were the defaults) are reconstructed from the
    memoized default builders instead of having been pickled through
    the pool.
    """
    classifier = task.classifier
    if classifier is None:
        cache_dir = (
            str(task.cache_dir) if task.cache_dir is not None else None
        )
        classifier = _worker_classifier(cache_dir, task.faults)
    entity_db = task.entity_db
    if entity_db is None:
        from repro.destinations.entities import default_entity_db

        entity_db = default_entity_db()
    blocklists = task.blocklists
    if blocklists is None:
        from repro.destinations.blocklists import default_blocklists

        blocklists = default_blocklists()
    return classifier, entity_db, blocklists


def labeler_for(
    spec: ServiceSpec,
    entity_db: EntityDatabase,
    blocklists: BlockListCollection,
) -> DestinationLabeler:
    """One service's destination labeler (shared by shard and audit)."""
    return DestinationLabeler(
        service_names=spec.first_party_names,
        first_party_owner=spec.first_party_owner,
        entity_db=entity_db,
        blocklists=blocklists,
    )


def shard_trace_source(task: ShardTask) -> "Iterable[ParsedTrace]":
    """Where a shard's parsed traces come from: replayed artifact
    files when the task carries replay units, the in-memory generate →
    capture → parse loop otherwise.  Both stream one trace at a time."""
    if task.replay_units is not None:
        return (load_parsed_trace(unit) for unit in task.replay_units)
    return CorpusProcessor(
        config=task.config,
        artifacts_dir=task.artifacts_dir,
        unit_range=task.unit_range,
    )


def _replay_trace_source(
    task: ShardTask, degraded: list[DegradedUnit]
) -> "Iterable[ParsedTrace]":
    """Replay decode with per-unit error containment.

    A unit whose artifact cannot be decoded (real corruption, or a
    fault plan's synthetic corruption) either aborts the shard with an
    error naming the unit, its path and its digest (strict mode) or is
    quarantined into ``degraded`` and skipped (``--keep-going``) — one
    bad unit never costs the rest of the shard.
    """
    for unit in task.replay_units or ():
        try:
            if task.faults is not None and task.faults.corrupt_unit(
                unit.meta.name
            ):
                raise ReplayError(
                    f"fault injection (profile {task.faults.profile!r}, "
                    f"seed {task.faults.seed}): artifact for trace "
                    f"{unit.meta.name!r} treated as corrupt"
                )
            yield load_parsed_trace(unit)
        except ReplayError as exc:
            if not task.keep_going:
                raise strict_unit_error(unit, exc) from exc
            cause = exc.__cause__
            degraded.append(
                _degraded_for_unit(
                    task.service,
                    unit,
                    stage="decode",
                    error=type(cause or exc).__name__,
                    detail=str(exc),
                )
            )


def _apply_worker_faults(task: ShardTask) -> None:
    """Evaluate a task's kill/stall faults, worker-side.

    Kill faults (including a persistent ``poison_unit``) only fire in
    process-pool workers — ``multiprocessing.parent_process()`` is set
    there — never in the parent or the in-process fallback:
    injected crashes must exercise recovery, not commit suicide.
    Stalls fire everywhere; a sleep never changes output bytes.
    """
    faults = task.faults
    if faults is None:
        return
    import multiprocessing

    in_pool_worker = multiprocessing.parent_process() is not None
    if in_pool_worker:
        poison = faults.poison_unit
        if poison is not None and any(
            unit.meta.name == poison for unit in task.replay_units or ()
        ):
            os._exit(1)
        if faults.kill_worker(task.service, task.part, task.fault_attempt):
            os._exit(1)
    delay = faults.stall_worker(task.service, task.part)
    if delay:
        time.sleep(delay)


#: Unit stores this process has already warned it could not write.
_UNWRITABLE_STORES: set[Path] = set()


def _put_unit_results(
    persistent: PersistentClassifier | None,
    epoch: str,
    rows: list[tuple[str, str, bytes]],
) -> None:
    """Store one task's unit rows; best-effort by contract.

    A failed write never changes the audit's output — the next run
    just recomputes the units whose rows are missing — so it warns,
    once per process and store, and carries on.
    """
    if persistent is None or not rows:
        return
    try:
        persistent.store.put_unit_results(epoch, rows)
    except StoreError as exc:
        if persistent.path not in _UNWRITABLE_STORES:
            _UNWRITABLE_STORES.add(persistent.path)
            print(
                f"warning: could not persist unit results: {exc}",
                file=sys.stderr,
            )


@dataclass
class ShardFold:
    """One service's traces folded into :class:`ShardResult` targets.

    The one per-trace fold of the audit: :func:`process_shard` adds a
    task's traces and builds once, :class:`repro.stream.session.
    StreamAudit` builds after every trace.  Where builds fall changes
    neither flows nor counters (see
    :meth:`repro.flows.builder.FlowBuilder.prime_sequence`), so batch
    and stream agree by construction.

    * :meth:`add` folds a trace's dataset row, contacted hosts and raw
      keys into its target and keeps only ``(fqdn, keys)`` per
      request, so request bodies are dropped as soon as they are mined;
    * :meth:`build` classifies the keys of every trace added since the
      last build in ONE descent through the classifier stack — one
      persistent-store round-trip, one inner batch — then builds their
      flows from the kept pairs, every lookup an in-memory hit, and
      appends them to each target's table as packed rows;
    * :meth:`label` registers party and owner for every host a target
      contacted, so destination-only (opaque) contacts count too.  It
      is idempotent: registration never overrides a label.

    Wall time goes to ``timer`` under the shard stage names.
    """

    service: str
    labeler: DestinationLabeler
    builder: FlowBuilder
    timer: StageTimer = field(default_factory=StageTimer)
    # Per trace added since the last build: its target, its meta and
    # its requests' (fqdn, keys) pairs; and the trace's keys.
    _pending: list[tuple[ShardResult, TraceMeta, list[tuple[str, list[str]]]]] = (
        field(default_factory=list, init=False, repr=False)
    )
    _key_lists: list[list[str]] = field(default_factory=list, init=False, repr=False)

    def add(self, parsed: ParsedTrace, target: ShardResult) -> None:
        target.trace_count += 1
        with self.timer.stage("dataset"):
            target.dataset.add_trace(parsed)
            target.contacted.update(parsed.contacted_hosts())
        with self.timer.stage("extract"):
            requests: list[tuple[str, list[str]]] = []
            trace_keys: list[str] = []
            for request in parsed.requests:
                keys = [item.key for item in extract_from_request(request)]
                requests.append((request.url.fqdn, keys))
                trace_keys.extend(keys)
                target.raw_keys.update(keys)
        self._pending.append((target, parsed.meta, requests))
        self._key_lists.append(trace_keys)

    def build(self) -> None:
        with self.timer.stage("classify"):
            self.builder.prime_sequence(self._key_lists)
        with self.timer.stage("flow_build"):
            for target, meta, requests in self._pending:
                for fqdn, keys in requests:
                    target.flows.extend(
                        self.builder.flows_for_destination(
                            fqdn,
                            self.labeler,
                            service=self.service,
                            platform=meta.platform,
                            kind=meta.kind,
                            age=meta.age,
                            keys=keys,
                        )
                    )
        self._pending = []
        self._key_lists = []

    def label(self, target: ShardResult) -> None:
        with self.timer.stage("label"):
            for host in target.contacted:
                label = self.labeler.label(host)
                target.flows.register_party(self.service, host, label.party)
                target.owners[host] = label.owner


def process_shard(task: ShardTask) -> PackedShardResult | list[PackedShardResult]:
    """Run capture → parse → classify → flow-build for one service.

    Drains the trace source (generation or artifact decode) into a
    :class:`ShardFold`, builds once — so the whole shard costs one
    classifier-stack descent instead of one per trace — labels each
    result's contacted hosts and returns the result packed.  Wall time
    is attributed per stage in ``stage_times``.

    A task with ``unit_digests`` (an incremental run's dirty units)
    runs the same setup and the same single descent, but folds each
    unit into a result of its own: exactly what a one-unit task
    computes.  It writes the packed unit results to the unit store in
    one call through its own classifier stack's store, and returns
    them in unit order, followed by one result with no rows that
    carries the task's counters, stage times and quarantined units.
    Stored rows carry none of those; a quarantined unit has no result
    at all.

    In a pool worker the task's metrics delta rides back on its own
    (last) result: the worker registry is reset first — pool workers
    run tasks serially, so the end-of-task snapshot IS the delta — and
    absorbed parent-side in canonical order.  In the parent
    (sequentially, or as the crash-recovery fallback) the increments
    land in the parent registry already, so nothing is reset and no
    snapshot ships.  A process that never imported
    ``multiprocessing`` is no pool worker.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    in_pool_worker = (
        multiprocessing is not None and multiprocessing.parent_process() is not None
    )
    if in_pool_worker:
        REGISTRY.reset()
    _apply_worker_faults(task)
    timer = StageTimer()
    with timer.stage("setup"):
        classifier, entity_db, blocklists = resolve_task_stack(task)
        (spec,) = [
            s for s in task.config.service_specs() if s.key == task.service
        ]
        # A task may arrive with an already-cached classifier (the
        # sequential executor shares one cache across shards, so keys
        # common to several services are classified once per corpus);
        # count only this shard's hits/misses either way.
        cache = CachingClassifier.wrap(classifier)
        hits_before, misses_before = cache.hits, cache.misses
        # With --cache-dir the classifier stack is memory → disk store
        # → inner; snapshot the persistent layer's counters so the
        # shard can report how much of its work the store absorbed.
        persistent = (
            cache.inner
            if isinstance(cache.inner, PersistentClassifier)
            else None
        )
        store_hits_before = persistent.store_hits if persistent else 0
        store_misses_before = persistent.misses if persistent else 0
        store_get_before = persistent.store_get_s if persistent else 0.0
        store_put_before = persistent.store_put_s if persistent else 0.0
        fold = ShardFold(
            task.service,
            labeler_for(spec, entity_db, blocklists),
            FlowBuilder(
                classifier=cache, confidence_threshold=task.confidence_threshold
            ),
            timer,
        )

    def empty() -> ShardResult:
        return ShardResult(
            task.service, FlowTable(), DatasetSummary(), set(), set()
        )

    # Every trace folds into the last of ``targets``: the shard's one
    # result, or with unit digests a fresh result per trace (unit).
    shard = empty()
    digests = task.unit_digests
    targets = [shard] if digests is None else []
    names: list[str] = []  # with unit digests: each target's unit

    degraded: list[DegradedUnit] = []
    source_stage = "decode" if task.replay_units is not None else "generate"
    if task.replay_units is not None:
        # The containment-aware source: decode failures quarantine
        # (keep-going) or raise an enriched strict error per unit.
        source = iter(_replay_trace_source(task, degraded))
    else:
        source = iter(shard_trace_source(task))
    while True:
        with timer.stage(source_stage):
            parsed = next(source, None)
        if parsed is None:
            break
        if digests is not None:
            targets.append(empty())
            names.append(parsed.meta.name)
        fold.add(parsed, targets[-1])
    fold.build()
    for target in targets:
        fold.label(target)

    if persistent is not None:
        timer.add("store_get", persistent.store_get_s - store_get_before)
        timer.add("store_put", persistent.store_put_s - store_put_before)

    shard.cache_hits = cache.hits - hits_before + fold.builder.lookup_hits
    shard.cache_misses = cache.misses - misses_before
    if persistent is not None:
        shard.store_hits = persistent.store_hits - store_hits_before
        shard.store_misses = persistent.misses - store_misses_before
    shard.stage_times = timer.times
    shard.degraded = degraded
    units: list[PackedShardResult] = []
    if digests is not None:
        # Let each table go before the rows are pickled.
        units = [pack_shard_result(target) for target in targets]
        targets.clear()
        with timer.stage("store_put"):
            _put_unit_results(
                persistent,
                task.epoch,
                [
                    (digests[name], task.service, pickle.dumps(unit))
                    for name, unit in zip(names, units)
                ],
            )
    own = pack_shard_result(shard)
    if in_pool_worker:
        own.metrics = REGISTRY.snapshot()
    return own if digests is None else units + [own]


# ----------------------------------------------------------------------
# Compact shard-result transport (process pool IPC)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PackedShardResult:
    """A :class:`ShardResult` flattened for cheap pickling and storage.

    Every value — strings and enums alike — is interned into one pool
    and everything else is encoded as fixed-width pool indexes: each
    observation is one :data:`repro.flows.dataflow.PACKED_ROW` record
    in ``observations``, and each index set is one ``bytes``
    (:func:`repro.flows.dataflow.pack_indexes`; pairs and triples run
    flat).  The shard's :class:`FlowTable` holds its rows in this form
    already; the dataset's fqdn set, which equals ``contacted``, is
    dropped.  This is the form every shard result leaves
    :func:`process_shard` in, a pool worker ships and the unit store
    keeps.  Nothing unpacks it: :meth:`AuditEngine.merge` folds
    ``pool``, ``observations`` and ``parties`` straight into the
    corpus table (:meth:`FlowTable.merge_packed`), which keeps the
    rows as they are.
    """

    service: str
    pool: tuple
    observations: bytes  # PACKED_ROW records
    parties: bytes  # (service, fqdn, party) index triples: registrations
    contacted: bytes  # original iteration order
    raw_keys: bytes
    owners: bytes  # (fqdn, owner) index pairs; owner interned too (may be None)
    # (packets, tcp_flows, esld indexes) of the shard's dataset row;
    # None when the shard decoded no trace and so has no row.
    dataset: tuple[int, int, bytes] | None
    trace_count: int
    cache_hits: int
    cache_misses: int
    store_hits: int
    store_misses: int
    stage_times: dict[str, float]
    # Quarantined units travel as-is: a handful at most, each a small
    # frozen record — not worth interning.
    degraded: tuple = ()
    # Worker-side metrics snapshot (repro.obs): populated only when
    # the shard actually ran in a pool worker, absorbed parent-side in
    # canonical task order, and stripped before unit-result caching —
    # a cached unit's metrics describe work THIS run never did.
    metrics: dict | None = None


def pack_shard_result(result: ShardResult) -> PackedShardResult:
    """Flatten one shard result into its compact transport form.

    The shard table's pool and rows are taken as they are (see
    :meth:`FlowTable.packed`).  Only the shard's own sets are interned
    after them: its party map, contacted hosts, raw keys, owners and
    dataset row.  A shard's dataset holds its own service's row only,
    whose fqdns are the shard's contacted hosts; the packed form keeps
    the rest of that row.
    """
    indexes, observations, labels = result.flows.packed()

    def intern(value: object) -> int:
        index = indexes.get(value)
        if index is None:
            index = len(indexes)
            indexes[value] = index
        return index

    parties = pack_indexes(
        [
            index
            for (service, fqdn), party in labels.items()
            for index in (intern(service), intern(fqdn), intern(party))
        ]
    )
    stats = result.dataset.per_service.get(result.service)
    packed = PackedShardResult(
        service=result.service,
        pool=(),  # filled below, once the intern table is complete
        observations=observations,
        parties=parties,
        contacted=pack_indexes([intern(host) for host in result.contacted]),
        raw_keys=pack_indexes([intern(key) for key in result.raw_keys]),
        owners=pack_indexes(
            [
                index
                for fqdn, owner in result.owners.items()
                for index in (intern(fqdn), intern(owner))
            ]
        ),
        dataset=None
        if stats is None
        else (
            stats.packets,
            stats.tcp_flows,
            pack_indexes([intern(esld) for esld in stats.eslds]),
        ),
        trace_count=result.trace_count,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        store_hits=result.store_hits,
        store_misses=result.store_misses,
        stage_times=result.stage_times,
        degraded=tuple(result.degraded),
    )
    packed.pool = tuple(indexes)
    return packed


# ----------------------------------------------------------------------
# Incremental replay (per-unit result cache)
# ----------------------------------------------------------------------


def _decode_unit_payload(payload: bytes, service: str) -> PackedShardResult | None:
    """A stored unit payload back as a packed result, or ``None``.

    Corrupt-row quarantine: a payload that does not unpickle to a
    :class:`PackedShardResult` for the right service — truncated blob,
    bit rot, a hand-edited store — is reported as undecodable; the
    caller deletes the row and treats the unit as dirty, so the worst
    a damaged row can cost is one recomputation.  So is one that
    unpickles but whose index fields are not whole records of indexes
    into its pool, each at a value of the kind its position holds
    (:func:`_packed_indexes_valid`): folding it would fail, or read
    the wrong values, mid-merge.
    """
    try:
        packed = pickle.loads(payload)
    except (
        # Everything pickle.loads raises on garbage input: framing and
        # opcode errors, truncation, references to missing classes.
        pickle.UnpicklingError,
        AttributeError,
        EOFError,
        ImportError,
        IndexError,
        TypeError,
        ValueError,
    ):
        return None
    if not isinstance(packed, PackedShardResult) or packed.service != service:
        return None
    return packed if _packed_indexes_valid(packed) else None


#: The kind of value each position of a packed row points at.
_ROW_KINDS = (str, TraceColumn, Platform, Level3, str, str, PartyLabel, str)


def _packed_indexes_valid(packed: PackedShardResult) -> bool:
    """Whether every index field of ``packed`` is a ``bytes`` of whole
    records whose indexes all fall inside its pool, each at a value of
    the kind its position holds.

    The indexes are unpacked into one temporary tuple for the bound
    check and the kind check reads it too, once per distinct index
    and kind; no object built here outlives the call.
    """
    # (field, the kind at each position of its records); one index is
    # 4 bytes.
    fields: list[tuple[bytes, tuple]] = [
        (packed.observations, _ROW_KINDS),
        (packed.parties, (str, str, PartyLabel)),
        (packed.contacted, (str,)),
        (packed.raw_keys, (str,)),
        (packed.owners, (str, (str, type(None)))),
    ]
    dataset = packed.dataset
    if dataset is not None:
        if not (isinstance(dataset, tuple) and len(dataset) == 3):
            return False
        fields.append((dataset[2], (str,)))
    pool = packed.pool
    if not isinstance(pool, tuple) or any(
        not isinstance(data, bytes) or len(data) % (4 * len(kinds))
        for data, kinds in fields
    ):
        return False
    flat = unpack_indexes(b"".join(data for data, _ in fields))
    if flat and max(flat) >= len(pool):
        return False
    wanted: dict[type | tuple, set[int]] = {}
    start = 0
    for data, kinds in fields:
        stop = start + len(data) // 4
        for position, kind in enumerate(kinds):
            wanted.setdefault(kind, set()).update(
                flat[start + position : stop : len(kinds)]
            )
        start = stop
    return all(
        isinstance(pool[index], kind)
        for kind, indexes in wanted.items()
        for index in indexes
    )


# ----------------------------------------------------------------------
# Size-balanced scheduling
# ----------------------------------------------------------------------

# How many cost chunks to aim for per worker.  >1 keeps the pool busy
# when estimates are imperfect: a worker that finishes a light chunk
# early picks up another instead of idling behind the heavy one.
_CHUNKS_PER_WORKER = 2


def _replay_unit_cost(unit: TraceUnit) -> float:
    """A replayed unit's cost estimate: bytes of artifact to decode."""
    cost = 0.0
    for path in (unit.har, unit.pcap, unit.keylog):
        if path is not None:
            try:
                cost += path.stat().st_size
            # repro-lint: disable=X-SWALLOW — cost estimation only; a vanished artifact fails at decode with a real, recorded error
            except OSError:
                pass
    return cost


def shard_unit_costs(task: ShardTask) -> list[float]:
    """Per-trace-unit cost estimates for one service's shard task."""
    if task.replay_units is not None:
        return [_replay_unit_cost(unit) for unit in task.replay_units]
    from repro.services.generator import estimate_unit_costs

    (spec,) = [s for s in task.config.service_specs() if s.key == task.service]
    return estimate_unit_costs(task.config, spec)


def partition_costs(costs: list[float], parts: int) -> list[tuple[int, int]]:
    """Split indexes 0..len(costs) into ≤ ``parts`` contiguous ranges
    of near-equal estimated cost (every range non-empty, order kept)."""
    parts = max(1, min(parts, len(costs)))
    total = sum(costs)
    if parts == 1 or total <= 0:
        return [(0, len(costs))]
    ranges: list[tuple[int, int]] = []
    start = 0
    cumulative = 0.0
    cut = 1
    for index, cost in enumerate(costs):
        cumulative += cost
        remaining_units = len(costs) - (index + 1)
        if cut < parts and remaining_units >= parts - cut and (
            # this range reached its share of the total cost, or
            cumulative >= cut * total / parts
            # exactly enough units remain to keep later ranges non-empty
            or remaining_units == parts - cut
        ):
            ranges.append((start, index + 1))
            start = index + 1
            cut += 1
    ranges.append((start, len(costs)))
    return ranges


def balanced_split_plan(
    per_item_costs: list[list[float]], jobs: int
) -> list[list[tuple[int, int, float]]]:
    """For each work item, the ``(start, stop, cost)`` sub-ranges to run.

    Every item whose estimated cost exceeds its fair chunk of the
    total (total cost over ``jobs * _CHUNKS_PER_WORKER``) is split
    into contiguous unit ranges of near-equal cost; the rest stay
    whole.  Plans preserve input order, so flattening them yields the
    canonical merge order.
    """
    total = sum(sum(costs) for costs in per_item_costs)
    chunk = total / (jobs * _CHUNKS_PER_WORKER) if total > 0 and jobs > 1 else 0.0
    plans: list[list[tuple[int, int, float]]] = []
    for costs in per_item_costs:
        item_cost = sum(costs)
        parts = min(len(costs), math.ceil(item_cost / chunk)) if chunk > 0 else 1
        if parts <= 1:
            plans.append([(0, len(costs), item_cost)])
            continue
        plans.append(
            [
                (start, stop, sum(costs[start:stop]))
                for start, stop in partition_costs(costs, parts)
            ]
        )
    return plans


def _shard_sub_task(
    task: ShardTask, part: int, start: int, stop: int, cost: float
) -> ShardTask:
    """One sub-shard: replay tasks carry their unit slice directly,
    generated tasks carry the ``unit_range`` the processor slices by."""
    return dataclasses.replace(
        task,
        part=part,
        unit_range=None if task.replay_units is not None else (start, stop),
        replay_units=(
            task.replay_units[start:stop] if task.replay_units is not None else None
        ),
        estimated_cost=cost,
    )


def split_shard_tasks(tasks: list[ShardTask], jobs: int) -> list[ShardTask]:
    """Split cost-skewed service shards into balanced sub-shards.

    The one place the split policy is applied: audit and generate
    shards both go through here, so the two commands can never
    schedule differently.  The returned list is in canonical order —
    service-spec order, then unit order — which is the order results
    must merge in; executors are free to *run* it in any order.
    """
    if jobs <= 1:
        return tasks
    per_task_costs = [shard_unit_costs(task) for task in tasks]
    out: list[ShardTask] = []
    for task, plan in zip(tasks, balanced_split_plan(per_task_costs, jobs)):
        if len(plan) == 1:
            out.append(dataclasses.replace(task, estimated_cost=plan[0][2]))
            continue
        for part, (start, stop, cost) in enumerate(plan):
            out.append(_shard_sub_task(task, part, start, stop, cost))
    return out


def _import_generation() -> None:
    """Load generate → capture in the parent before a pool forks.

    Generated shards run it in every worker, and a module first
    imported after the fork is compiled once per worker; imported
    here, the workers inherit it.  Replayed corpora never need it.
    """
    import repro.capture.devtools  # noqa: F401
    import repro.capture.pcapdroid  # noqa: F401
    import repro.capture.proxyman  # noqa: F401


def _generate_shard(task: ShardTask) -> list[dict]:
    """Generate, capture and write one shard's artifacts; nothing is
    parsed back.

    Returns one manifest record per trace, in generation order."""
    captures = CorpusProcessor(
        config=task.config,
        artifacts_dir=task.artifacts_dir,
        unit_range=task.unit_range,
    ).captures()
    return [trace_record(captured.meta) for captured in captures]


def generate_corpus_artifacts(
    config: CorpusConfig,
    artifacts_dir: Path | None,
    jobs: int = 1,
) -> int:
    """Write every trace artifact plus a manifest; returns the trace count.

    The generate-only sibling of :meth:`AuditEngine.run`: shards (and
    size-balances) the same way but stops after capture — nothing is
    parsed back, classified, labeled or flow-built — since ``python -m
    repro generate`` discards those.  ``manifest.json`` records the
    corpus config and per-trace metadata in generation order, so
    ``audit --from-artifacts`` can replay the directory without
    re-deriving anything from filenames.
    """
    pool = executor_for(jobs)
    existing = read_manifest(artifacts_dir) if artifacts_dir is not None else None
    if existing is not None:
        # Fail fast on mismatched corpus knobs before writing anything.
        merge_manifest_traces(existing, config, [])
    if jobs > 1:
        _import_generation()
    tasks = split_shard_tasks(
        [
            ShardTask(
                service=spec.key,
                config=config.for_service(spec.key),
                artifacts_dir=artifacts_dir,
            )
            for spec in config.service_specs()
        ],
        jobs,
    )
    records = [
        record
        for shard_records in pool.map_shards(tasks, work=_generate_shard)
        for record in shard_records
    ]
    generated = len(records)
    if artifacts_dir is not None:
        if existing is not None:
            # Incremental generation into an existing corpus directory:
            # keep the other services' traces instead of clobbering them.
            records = merge_manifest_traces(existing, config, records)
        write_manifest(artifacts_dir, config, records)
    return generated


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class ShardExecutor(Protocol):
    """Anything that can run shard work and return ordered results."""

    jobs: int

    def map_shards(
        self, tasks: list, work: Callable = process_shard
    ) -> list:  # pragma: no cover
        ...


@dataclass(slots=True)
class ShardCrash:
    """Sentinel result for a task whose worker died repeatedly.

    The retrying process pool emits one per slot that still failed
    after every attempt; the engine then bisects the shard to isolate
    the poison unit and runs the clean remainder in-process.  Never
    leaves the parent process.
    """

    task: object
    attempts: int
    error: str


@dataclass
class SequentialExecutor:
    """In-process execution — the deterministic, zero-overhead fallback."""

    kind = "sequential"
    jobs: int = 1

    def map_shards(self, tasks: list, work: Callable = process_shard) -> list:
        return [work(task) for task in tasks]


#: How often a pool worker checks that the process that started it is
#: still its parent.
_PARENT_POLL_S = 0.25


def _init_worker(parent: int) -> None:
    """Pool-worker initializer: leave Ctrl-C to the parent, die with it.

    A terminal SIGINT goes to the whole process group; without this,
    every worker dies printing its own ``KeyboardInterrupt`` traceback
    while the parent is already tearing the pool down.  The parent
    terminates workers explicitly instead.

    SIGTERM goes back to its default: a forked worker inherits the
    CLI's SIGTERM→KeyboardInterrupt handler, which turns the parent's
    own teardown ``terminate()`` into per-worker traceback spew right
    under the one real error message.

    A parent killed outright (SIGKILL, OOM) tears nothing down, and an
    idle worker would wait on the call queue forever: every worker
    holds the queue's pipe open, so no EOF ever arrives.  A daemon
    thread ends the worker once it is re-parented.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent,), name="parent-watch", daemon=True
    ).start()


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


@dataclass
class ProcessPoolShardExecutor:
    """Shard execution across worker processes.

    Tasks are *submitted* unordered — largest estimated cost first
    (LPT scheduling, the classic makespan heuristic) — and collected
    as they complete, but the returned list is always in the input
    tasks' order: the caller's canonical merge order never depends on
    worker scheduling.

    Interrupts tear down cleanly: workers ignore SIGINT, and on any
    exception in the parent (a Ctrl-C included) pending shards are
    cancelled and running workers terminated before the exception
    propagates — no traceback spew from the pool, no orphaned
    processes grinding on work nobody will collect.

    Worker crashes are survivable: a killed worker (OOM, segfault,
    injected fault) breaks the whole pool and poisons every pending
    future with :class:`BrokenProcessPool`.  Completed results are
    kept and the failed shards are retried with bounded exponential
    backoff (``max_attempts`` total tries), each in a single-worker
    pool of its own: only the first generation is shared, so a shard
    that keeps killing its worker never uses up a healthy sibling's
    attempts.  A shard that dies on every attempt comes back as a
    :class:`ShardCrash` sentinel in its slot — the engine decides
    whether to bisect, degrade, or raise.  Retries never reorder
    anything: results still land by input index, so output bytes are
    untouched by how many times the pool died.
    """

    kind = "process"
    jobs: int = 2
    # Total tries per shard (first run + retries) before its slot
    # becomes a ShardCrash.
    max_attempts: int = 3
    # First retry delay; doubles per retry.  Long enough to let a
    # transient cause (OOM pressure, a dying sibling) clear, short
    # enough to be invisible next to shard wall time.
    retry_backoff_s: float = 0.05

    def map_shards(self, tasks: list, work: Callable = process_shard) -> list:
        results: list = [None] * len(tasks)
        current: dict[int, object] = dict(enumerate(tasks))
        pending = list(current)
        for attempt in range(self.max_attempts):
            if not pending:
                break
            if attempt:
                _SHARD_RETRIES.inc(len(pending))
                time.sleep(
                    min(self.retry_backoff_s * (2 ** (attempt - 1)), 1.0)
                )
                # Tasks that understand attempts get told which one
                # this is — transient injected kills key off it.
                for index in pending:
                    task = current[index]
                    if isinstance(task, ShardTask):
                        # A killed worker takes its metrics registry
                        # with it, so injected kills are accounted here
                        # instead, by replaying the plan's pure decision
                        # for the attempt that just crashed (mirroring
                        # _apply_worker_faults: poison fires first).
                        faults = task.faults
                        if faults is not None:
                            poison = faults.poison_unit
                            poisoned = poison is not None and any(
                                unit.meta.name == poison
                                for unit in task.replay_units or ()
                            )
                            if poisoned or faults.kill_worker(
                                task.service, task.part, task.fault_attempt
                            ):
                                FAULTS_FIRED.labels(
                                    "kill-worker", faults.profile
                                ).inc()
                        current[index] = dataclasses.replace(
                            task, fault_attempt=attempt
                        )
            if attempt == 0:
                pending = self._run_attempt(current, work, results)
            else:
                pending = [
                    index
                    for index in pending
                    if self._run_attempt({index: current[index]}, work, results)
                ]
        for index in pending:
            results[index] = ShardCrash(
                task=current[index],
                attempts=self.max_attempts,
                error=(
                    f"worker process died on all {self.max_attempts} "
                    "attempts (BrokenProcessPool)"
                ),
            )
        return results

    def _run_attempt(
        self, slots: dict[int, object], work: Callable, results: list
    ) -> list[int]:
        """One pool generation over ``slots``; returns crashed indexes.

        Completed futures write straight into ``results``; a broken
        pool only costs the shards that had not finished — including
        any it broke before they could even be submitted.
        """
        # Imported here, not with the engine: ``--jobs 1`` and
        # ``repro stream`` never start a pool.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.jobs, len(slots))
        # Heaviest first; ties keep canonical order for determinism.
        submission = sorted(
            slots,
            key=lambda i: (-getattr(slots[i], "estimated_cost", 0.0), i),
        )
        failed: list[int] = []
        futures: dict = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(os.getpid(),)
        ) as pool:
            try:
                for position, index in enumerate(submission):
                    try:
                        futures[pool.submit(work, slots[index])] = index
                    except BrokenProcessPool:
                        # A worker died while later shards were still
                        # being submitted: this slot and every one not
                        # yet submitted go to the next generation.
                        failed.extend(submission[position:])
                        break
                _QUEUE_DEPTH.set(len(futures))
                for future in as_completed(futures):
                    index = futures[future]
                    _QUEUE_DEPTH.dec()
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        # One dead worker poisons every pending future
                        # in this generation; collect them all and let
                        # the caller retry in a fresh pool.
                        failed.append(index)
            # repro-lint: disable=X-BARE-EXCEPT — teardown guard: terminate pool workers on ANY interrupt (incl. KeyboardInterrupt), then re-raise unchanged
            except BaseException:
                # Snapshot the worker list first — shutdown(wait=False)
                # nulls the executor's process table.
                processes = list((getattr(pool, "_processes", None) or {}).values())
                pool.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    process.terminate()
                raise
        _QUEUE_DEPTH.set(0)
        if failed:
            # However many futures one dead worker poisoned, the pool
            # broke once this generation.
            _SHARD_CRASHES.inc()
        return sorted(failed)


def executor_for(jobs: int) -> ShardExecutor:
    """Pick the executor for ``--jobs N``.

    One job runs in-process (sequential, one shared classification
    cache); more run on the process pool, for generated and replayed
    corpora alike.  Shard work is CPU-bound Python (decode,
    extraction, classification), so only worker processes scale it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SequentialExecutor()
    return ProcessPoolShardExecutor(jobs=jobs)


# ----------------------------------------------------------------------
# Worker-crash recovery: poison-unit bisection
# ----------------------------------------------------------------------


def _isolate_poison_units(task: ShardTask) -> list[TraceUnit]:
    """Bisect a repeatedly-crashing replay shard down to its poison units.

    Splits the shard's unit slice in half and probes each half in a
    fresh single-worker pool, so a genuinely crashing unit dies in a
    child, never in the parent.  Halves that survive are clean; halves
    that crash recurse.  A singleton that crashes IS the poison.
    O(k·log n) probe launches for k poison units — the probes exist to
    *identify* them, their results are discarded (a clean dirty-unit
    half has stored its unit rows, as its rerun will); the caller
    reruns the clean remainder in-process.
    """
    units = task.replay_units or ()
    if len(units) <= 1:
        return list(units)
    probe = ProcessPoolShardExecutor(jobs=1, max_attempts=2, retry_backoff_s=0.01)
    mid = len(units) // 2
    halves = [
        dataclasses.replace(task, replay_units=units[:mid]),
        dataclasses.replace(task, replay_units=units[mid:]),
    ]
    poisons: list[TraceUnit] = []
    for half in halves:
        # One pool generation per half: probing both in a shared pool
        # would let the poison half's crash poison the clean sibling's
        # pending future (BrokenProcessPool taints every in-flight
        # future), and a clean unit would get blamed at singleton depth.
        _BISECTION_PROBES.inc()
        if isinstance(probe.map_shards([half], work=process_shard)[0], ShardCrash):
            poisons.extend(_isolate_poison_units(half))
    return poisons


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@dataclass
class EngineOutput:
    """The merged corpus-wide state the downstream audit consumes."""

    flows: FlowTable
    dataset: DatasetSummary
    contacted: dict[str, set[str]]  # service -> contacted hosts
    raw_keys: set[str]
    classified_keys: int
    owners: dict[tuple[str, str], str | None] = field(default_factory=dict)
    trace_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0  # lookups that reached the inner classifier
    # Incremental replay counters (zero outside incremental mode):
    # trace units whose shard result was served from the unit-result
    # cache vs. units that went through process_shard this run.
    unit_hits: int = 0
    unit_misses: int = 0
    # Units quarantined this run (keep-going mode): decode failures
    # contained in shards plus poison units isolated by crash
    # bisection.  Empty in strict mode and on every clean run.
    degraded: list[DegradedUnit] = field(default_factory=list)
    # Wall-time attribution for this run (the ``engine`` section of a
    # profile document — see repro.pipeline.profile): orchestration
    # stages and the aggregated per-shard stages.
    profile: dict = field(default_factory=dict)


@dataclass
class AuditEngine:
    """Stages 1–3 of the pipeline: shard, process, merge."""

    config: CorpusConfig = field(default_factory=CorpusConfig)
    classifier: Classifier | None = None
    confidence_threshold: float = 0.8
    entity_db: EntityDatabase | None = None
    blocklists: BlockListCollection | None = None
    artifacts_dir: Path | None = None
    # Audit artifacts from disk instead of generating in-memory: a
    # directory path (scanned once here) or an already-scanned
    # ReplayCorpus (no rescan — pass this when the caller scanned the
    # directory itself, e.g. for config resolution).
    replay: "ReplayCorpus | Path | str | None" = None
    # Shard workers: 1 runs in-process, N > 1 runs N worker processes
    # (see executor_for).
    jobs: int = 1
    # Directory holding the persistent classification store
    # (``--cache-dir``): classifications persist across runs and are
    # shared by all shard workers, so a warm re-audit never calls the
    # inner classifier at all.  None: in-memory caching only.
    cache_dir: Path | str | None = None
    # Per-unit result reuse for replayed corpora (``--no-incremental``
    # turns it off): with both ``replay`` and ``cache_dir`` set, each
    # trace unit is content-addressed (repro.pipeline.replay.
    # unit_digest) and its shard result persisted in the store's
    # ``unit_results`` table; re-audits recompute only units whose
    # bytes (or processing epoch) changed and merge the rest from
    # cache.  Output is byte-identical either way — merge folds
    # per-unit results exactly as it folds sub-shards.
    incremental: bool = True
    # Graceful degradation (``--keep-going``): quarantine units that
    # fail decode (and poison units that crash workers) into
    # ``EngineOutput.degraded`` instead of aborting.  False keeps
    # today's fail-fast behaviour (``--strict``, the parity-CI
    # default).
    keep_going: bool = False
    # Seeded fault-injection plan (``--inject-faults PROFILE``); None
    # in normal operation.
    faults: FaultPlan | None = None
    # Optional retained-event span recorder (``--spans-out FILE``):
    # the engine's orchestration and unit-store spans are mirrored
    # into it (events only — totals and metrics stay on the scoped
    # recorders, so profiles and counters are unchanged).  Worker-side
    # shard spans cannot cross the process boundary as events; their
    # durations still arrive via stage tables and metric snapshots.
    span_sink: "SpanRecorder | None" = None

    def __post_init__(self) -> None:
        # Remember which components are the defaults BEFORE resolving
        # them: default components are never pickled into pool tasks —
        # workers rebuild them locally (see resolve_task_stack).
        self._default_classifier = self.classifier is None
        self._default_entity_db = self.entity_db is None
        self._default_blocklists = self.blocklists is None
        self.classifier = prepare_classifier(
            self.classifier, self.cache_dir, faults=self.faults
        )
        if self.entity_db is None:
            from repro.destinations.entities import default_entity_db

            self.entity_db = default_entity_db()
        if self.blocklists is None:
            from repro.destinations.blocklists import default_blocklists

            self.blocklists = default_blocklists()

    def shard_tasks(self) -> list[ShardTask]:
        """One task per configured service, in service-spec order.

        In replay mode each task carries its service's trace units
        (replay shards by service exactly like generation does), and a
        configured service with no artifacts on disk is an error — a
        silently empty audit would read as a compliant service.
        """
        replay_units: dict[str, tuple[TraceUnit, ...]] = {}
        corpus = self.replay
        if corpus is not None and not isinstance(corpus, ReplayCorpus):
            corpus = ReplayCorpus.scan(corpus)
        if corpus is not None:
            # service_specs() silently filters against the catalog, so
            # a corpus of uncatalogued services would otherwise shard
            # to nothing and exit 0 as a spotless "audit".
            known = {spec.key for spec in self.config.service_specs()}
            unknown = sorted(set(self.config.services or ()) - known)
            if unknown:
                raise ReplayError(
                    f"service(s) {', '.join(unknown)} are not in the service "
                    "catalog; only catalog services can be audited"
                )
            replay_units = {
                spec.key: tuple(corpus.units_for(spec.key))
                for spec in self.config.service_specs()
            }
            missing = sorted(key for key, units in replay_units.items() if not units)
            if missing:
                raise ReplayError(
                    f"no artifacts for configured service(s) {', '.join(missing)} "
                    f"in {corpus.directory} (found: {', '.join(corpus.services())})"
                )
        return [
            ShardTask(
                service=spec.key,
                config=self.config.for_service(spec.key),
                classifier=self.classifier,
                confidence_threshold=self.confidence_threshold,
                entity_db=self.entity_db,
                blocklists=self.blocklists,
                artifacts_dir=self.artifacts_dir,
                replay_units=replay_units.get(spec.key),
                keep_going=self.keep_going,
                faults=self.faults,
            )
            for spec in self.config.service_specs()
        ]

    @staticmethod
    def merge(results: list[PackedShardResult]) -> EngineOutput:
        """Fold ordered shard results into corpus-wide state.

        Results must arrive in canonical order: service-spec order,
        then sub-shard (trace-unit) order within a split service.  A
        service's sub-shard results are folded exactly as one whole-
        service result would be — contacted sets union, counters sum.
        Every result is packed, whoever computed it — in-process, a
        pool worker, the unit store or a stream snapshot: its rows go
        into the corpus table as they are, and its index sets are read
        through its pool.  Every extracted key is classified, so the
        classified-key count is the number of raw keys.
        """
        flows = FlowTable()
        dataset = DatasetSummary()
        contacted: dict[str, set[str]] = {}
        raw_keys: set[str] = set()
        owners: dict[tuple[str, str], str | None] = {}
        trace_count = 0
        hits = misses = store_hits = store_misses = 0
        degraded: list[DegradedUnit] = []
        for result in results:
            pool = result.pool
            flows.merge_packed(pool, result.observations, result.parties)
            shard_hosts = [pool[i] for i in unpack_indexes(result.contacted)]
            contacted.setdefault(result.service, set()).update(shard_hosts)
            raw_keys.update(pool[i] for i in unpack_indexes(result.raw_keys))
            pairs = unpack_indexes(result.owners)
            for fqdn_i, owner_i in zip(pairs[::2], pairs[1::2]):
                owners[(result.service, pool[fqdn_i])] = pool[owner_i]
            if result.dataset is not None:
                packets, tcp_flows, eslds = result.dataset
                dataset.add_counts(
                    result.service,
                    shard_hosts,
                    (pool[i] for i in unpack_indexes(eslds)),
                    packets,
                    tcp_flows,
                )
            trace_count += result.trace_count
            hits += result.cache_hits
            misses += result.cache_misses
            store_hits += result.store_hits
            store_misses += result.store_misses
            degraded.extend(result.degraded)
        return EngineOutput(
            flows=flows,
            dataset=dataset,
            contacted=contacted,
            raw_keys=raw_keys,
            classified_keys=len(raw_keys),
            owners=owners,
            trace_count=trace_count,
            cache_hits=hits,
            cache_misses=misses,
            store_hits=store_hits,
            store_misses=store_misses,
            degraded=degraded,
        )

    def _slim_tasks(self, tasks: list[ShardTask]) -> None:
        """Strip default components from pool-bound tasks.

        The catalog-backed default classifier stack, entity database
        and blocklists dominate a task's pickle; workers rebuild them
        locally instead (memoized per process).  Components the caller
        customized are kept on the task and travel by pickle as
        before.
        """
        for task in tasks:
            if self._default_classifier:
                task.classifier = None
                task.cache_dir = self.cache_dir
            if self._default_entity_db:
                task.entity_db = None
            if self._default_blocklists:
                task.blocklists = None

    def _unit_result_scope(self) -> tuple[ClassificationStore, str] | None:
        """The ``(store, epoch)`` unit-result reuse runs under, if any.

        Incremental mode needs a persistent store to keep results in
        (``cache_dir``) and components the epoch can *name*: the
        default classifier stack, entity database and blocklists.  A
        caller-supplied component has no stable fingerprint — results
        computed under it must never be served to a different one — so
        custom stacks fall back to full recompute (byte-identical
        output, just no reuse).  A store that cannot be opened also
        degrades to full recompute: the cache is a performance
        artifact, never a prerequisite.
        """
        if not self.incremental or self.replay is None or self.cache_dir is None:
            return None
        if not (
            self._default_classifier
            and self._default_entity_db
            and self._default_blocklists
        ):
            return None
        classifier = self.classifier
        if not isinstance(classifier, PersistentClassifier):
            return None
        try:
            store = classifier.store
        except StoreError as exc:
            print(
                f"warning: incremental replay disabled: {exc}", file=sys.stderr
            )
            return None
        return store, unit_result_epoch(
            classifier.inner.name, self.confidence_threshold
        )

    def _partition_replay_tasks(
        self,
        tasks: list[ShardTask],
        store: ClassificationStore,
        epoch: str,
        timer: StageTimer,
    ) -> tuple[list[PackedShardResult | str], list[ShardTask]] | None:
        """Split replay tasks into cached unit results and dirty tasks.

        Returns ``(slots, dirty_tasks)`` — ``slots`` has one entry per
        trace unit in canonical order (service-spec order, then unit
        order): a cached packed result, or the name of a dirty unit.
        Each run of consecutive dirty units of a service becomes one
        :class:`ShardTask` carrying its units' digests, so a cold run
        starts from the same tasks as a plain one and the scheduler
        splits them alike.  ``None`` (the whole return) means the
        store failed mid-partition and the caller should fall back to
        full recompute.
        """
        slots: list[PackedShardResult | str] = []
        dirty_tasks: list[ShardTask] = []
        for task in tasks:
            units = task.replay_units or ()
            with timer.stage("digest"):
                digests = [unit_digest(unit) for unit in units]
            try:
                with timer.stage("store_get"):
                    found = store.get_unit_results(epoch, digests)
            except StoreError as exc:
                print(
                    f"warning: incremental replay disabled: {exc}",
                    file=sys.stderr,
                )
                return None
            corrupt: list[str] = []
            runs: list[list[tuple[TraceUnit, str]]] = []
            run: list[tuple[TraceUnit, str]] | None = None
            for unit, digest in zip(units, digests):
                payload = found.get(digest)
                packed = (
                    _decode_unit_payload(payload, task.service)
                    if payload is not None
                    else None
                )
                if payload is not None and packed is None:
                    corrupt.append(digest)
                if packed is None:
                    slots.append(unit.meta.name)
                    if run is None:
                        run = []
                        runs.append(run)
                    run.append((unit, digest))
                    continue
                _UNIT_STORE_HITS.inc()
                # The stored counters and stage times describe the run
                # that produced the unit; this run did none of that
                # work, so they are zeroed — EngineOutput counters and
                # profiles describe only work actually performed.
                packed.cache_hits = packed.cache_misses = 0
                packed.store_hits = packed.store_misses = 0
                packed.stage_times = {}
                slots.append(packed)
                run = None
            dirty_tasks.extend(
                dataclasses.replace(
                    task,
                    replay_units=tuple(unit for unit, _ in pairs),
                    part=part,
                    unit_digests={unit.meta.name: digest for unit, digest in pairs},
                    epoch=epoch,
                )
                for part, pairs in enumerate(runs)
            )
            if corrupt:
                try:
                    store.delete_unit_results(epoch, corrupt)
                # repro-lint: disable=X-SWALLOW — quarantine cleanup is cosmetic; undeleted corrupt rows stay invisible to lookups anyway
                except StoreError:
                    pass
        return slots, dirty_tasks

    def _resolve_crashes(
        self, raw_results: list, degraded: list[DegradedUnit]
    ) -> list:
        """Turn :class:`ShardCrash` slots into results, quarantine, or error.

        For each shard whose worker died on every pool attempt: bisect
        its replay units to isolate the poison (see
        :func:`_isolate_poison_units`), then run the clean remainder
        in-process sequentially — the most robust executor there is.
        Poison units raise in strict mode (naming unit, path, digest)
        and become ``stage="process"`` :class:`DegradedUnit` records
        under ``--keep-going``.  A crash with no isolatable poison
        (transient environmental failure that outlived the retries, or
        a generated — unit-less — shard) falls back to in-process for
        the whole shard.  Slots whose every unit was quarantined
        become ``None`` (dropped before merge).
        """
        resolved = list(raw_results)
        for index, raw in enumerate(raw_results):
            if not isinstance(raw, ShardCrash):
                continue
            task = raw.task
            units = task.replay_units if isinstance(task, ShardTask) else None
            if units is None:
                # Nothing to bisect: retry the whole shard in-process.
                resolved[index] = process_shard(task)
                continue
            poisons = _isolate_poison_units(task)
            poison_names = {unit.meta.name for unit in poisons}
            if poisons and not self.keep_going:
                unit = poisons[0]
                source = unit.har if unit.har is not None else unit.pcap
                raise ReplayError(
                    f"worker process died repeatedly while processing "
                    f"unit {unit.meta.name!r} [artifact {source}, digest "
                    f"{unit_digest_or_placeholder(unit)}; {raw.error}; "
                    "use --keep-going to quarantine this unit and continue]"
                )
            for unit in poisons:
                degraded.append(
                    _degraded_for_unit(
                        task.service,
                        unit,
                        stage="process",
                        error="WorkerCrash",
                        detail=(
                            "worker process died while processing this "
                            f"unit ({raw.error})"
                        ),
                    )
                )
            remainder = tuple(
                unit for unit in units if unit.meta.name not in poison_names
            )
            if not remainder:
                resolved[index] = None
                continue
            resolved[index] = process_shard(
                dataclasses.replace(task, replay_units=remainder)
            )
        return resolved

    def _stage_timer(self) -> StageTimer:
        """A stage timer, mirroring its spans into ``span_sink``."""
        if self.span_sink is None:
            return StageTimer()
        return StageTimer(SpanRecorder(sink=self.span_sink))

    def run(self) -> EngineOutput:
        timer = self._stage_timer()
        # Engine-side per-shard-stage time (digesting, unit-result
        # lookups) — merged into the shards' stage table.
        unit_stages = self._stage_timer()
        slots: list[PackedShardResult | str] | None = None
        with timer.stage("shard_setup"):
            executor = executor_for(self.jobs)
            _RUNS.labels(executor.kind).inc()
            tasks = self.shard_tasks()
            scope = self._unit_result_scope()
            if scope is not None:
                partition = self._partition_replay_tasks(tasks, *scope, unit_stages)
                if partition is not None:
                    # From here on ``tasks`` covers the dirty units
                    # only: one task per run of consecutive dirty units.
                    slots, tasks = partition
            pooled = False
            if isinstance(executor, SequentialExecutor):
                # In-process shards can share one classification
                # cache, so keys common to several services classify
                # once per corpus (results are unchanged:
                # classification is per-key pure).
                shared = CachingClassifier.wrap(self.classifier)
                for task in tasks:
                    task.classifier = shared
            else:
                # Size-balance the pool: split cost-skewed services
                # (or dirty runs) into sub-shards and let the executor
                # run them unordered.
                tasks = split_shard_tasks(tasks, executor.jobs)
                if self.replay is None:
                    _import_generation()
                self._slim_tasks(tasks)
                pooled = True
        _TASKS_DISPATCHED.inc(len(tasks))
        with timer.stage("execute"):
            raw_results = executor.map_shards(tasks, work=process_shard)
        crash_degraded: list[DegradedUnit] = []
        if any(isinstance(raw, ShardCrash) for raw in raw_results):
            raw_results = self._resolve_crashes(raw_results, crash_degraded)
        if pooled:
            # Fold worker-side metric deltas into the parent registry
            # in canonical task order (raw_results is in input order),
            # so the merged telemetry is the same whatever order
            # workers finished in.  A dirty-unit task's delta rides on
            # its last result; ``None`` slots are fully-quarantined
            # shards.
            with timer.stage("unpack"):
                for raw in raw_results:
                    own = raw[-1] if isinstance(raw, list) else raw
                    if own is not None and own.metrics is not None:
                        REGISTRY.absorb(own.metrics)
        results: list[PackedShardResult] = []
        unit_hits = unit_misses = 0
        if slots is None:
            results = [result for result in raw_results if result is not None]
        else:
            unit_hits = sum(not isinstance(slot, str) for slot in slots)
            unit_misses = len(slots) - unit_hits - len(crash_degraded)
            # Weave cached and fresh results back into canonical
            # order (service-spec order, then unit order) — the order
            # merge requires.  A dirty task's results fill its units'
            # slots, from its first unit's on.  merge folds per-unit
            # results exactly as it folds sub-shards, so output bytes
            # cannot depend on what was cached.  A quarantined unit
            # has no result: it contributes nothing, exactly as if the
            # unit were absent from the corpus.
            fresh = {
                task.replay_units[0].meta.name: raw
                for task, raw in zip(tasks, raw_results)
                if task.replay_units and raw is not None
            }
            with timer.stage("unpack"):
                for slot in slots:
                    if isinstance(slot, str):
                        results.extend(fresh.get(slot, ()))
                    else:
                        results.append(slot)
        with timer.stage("merge"):
            merged = self.merge(results)
        merged.degraded.extend(crash_degraded)
        _UNITS_CACHED.inc(unit_hits)
        _UNITS_DIRTY.inc(unit_misses)
        _DEGRADED_UNITS.inc(len(merged.degraded))
        stages = StageTimer()
        for result in results:
            stages.merge(result.stage_times)
        stages.merge(unit_stages.times)
        merged.unit_hits = unit_hits
        merged.unit_misses = unit_misses
        merged.profile = {
            "executor": executor.kind,
            "jobs": executor.jobs,
            "tasks": len(tasks),
            "shard_setup_s": round(timer.get("shard_setup"), 6),
            "execute_s": round(timer.get("execute"), 6),
            "unpack_s": round(timer.get("unpack"), 6),
            "merge_s": round(timer.get("merge"), 6),
            "stages": stages.as_dict(),
            # Schema-optional run-summary extras (like unit_hits below):
            # what the CLI's --verbose one-liner reports without
            # re-deriving engine state downstream.
            "traces": merged.trace_count,
            "store_hits": merged.store_hits,
        }
        if slots is not None:
            # Extra (schema-optional) keys: only incremental runs
            # carry them, so profiles keep answering "was unit reuse
            # active, and how much did it cover?"
            merged.profile["unit_hits"] = unit_hits
            merged.profile["unit_misses"] = unit_misses
        # Parallel shards write through the shared store file; the
        # parent process appends the run's merged counters so
        # ``cache stats`` can report per-run hit rates.
        record_run_stats(
            self.classifier,
            memory_hits=merged.cache_hits,
            store_hits=merged.store_hits,
            misses=merged.store_misses,
        )
        return merged
