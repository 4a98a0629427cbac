"""Parallel sharded audit engine.

The corpus shards naturally by service: trace generation is seeded per
``(seed, service, platform, kind, age)``, the beacon cursor is
per-service, and classification is a pure function of the key — so one
service's capture → parse → classify → flow-build stage never observes
another's state.  The engine exploits that:

1. **shard** — one :class:`ShardTask` per configured service;
2. **capture/parse/classify/flow-build** — :func:`process_shard` runs
   the whole per-service stage and returns a :class:`ShardResult`;
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
every shard worker and every run: shards drain their cache misses
through per-trace batches, warm re-runs never reach the inner
classifier, and results stay byte-identical either way.
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
from repro.destinations.party import DestinationLabeler
from repro.faults.plan import FAULTS_FIRED, FaultPlan
from repro.flows.builder import FlowBuilder
from repro.flows.dataflow import FlowObservation, FlowTable
from repro.obs.metrics import REGISTRY
from repro.obs.trace import SpanRecorder
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

    A task may cover the whole service (``unit_range is None``,
    ``part == 0``) or one contiguous sub-shard of its trace units —
    the scheduler splits oversized services so worker wall time
    balances.  ``estimated_cost`` is the scheduler's relative cost
    guess, used only for splitting and largest-first submission.

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
    raw_keys: set[str]
    classified: set[str]  # unique keys this shard's builder classified
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


def process_shard(task: ShardTask) -> ShardResult:
    """Run capture → parse → classify → flow-build for one service.

    Two passes over the shard: the first pass drains the trace source
    (generation or artifact decode), folds dataset stats and extracts
    each request's raw keys — keeping only ``(fqdn, keys)`` per
    request, so request bodies are dropped as soon as they are mined.
    Classification then happens ONCE for the whole shard
    (:meth:`repro.flows.builder.FlowBuilder.prime_sequence`): one
    descent through the classifier stack — one persistent-store
    round-trip, one inner batch — instead of one per trace.  The
    second pass builds flows from the retained pairs; every lookup is
    an in-memory hit.  Wall time is attributed per stage in
    ``ShardResult.stage_times``.
    """
    _apply_worker_faults(task)
    timer = StageTimer()
    with timer.stage("setup"):
        classifier, entity_db, blocklists = resolve_task_stack(task)
        (spec,) = [
            s for s in task.config.service_specs() if s.key == task.service
        ]
        labeler = labeler_for(spec, entity_db, blocklists)
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
        builder = FlowBuilder(
            classifier=cache, confidence_threshold=task.confidence_threshold
        )

    flows = FlowTable()
    dataset = DatasetSummary()
    contacted: set[str] = set()
    raw_keys: set[str] = set()
    trace_count = 0
    # Per trace: (platform, kind, age, [(fqdn, keys), ...]) — all the
    # flow-building pass needs once keys are extracted.
    trace_plans: list[tuple[object, object, object, list[tuple[str, list[str]]]]] = []
    key_lists: list[list[str]] = []

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
        trace_count += 1
        with timer.stage("dataset"):
            dataset.add_trace(parsed)
            contacted.update(parsed.contacted_hosts())
        with timer.stage("extract"):
            requests: list[tuple[str, list[str]]] = []
            trace_keys: list[str] = []
            for request in parsed.requests:
                keys = [
                    item.key for item in extract_from_request(request)
                ]
                requests.append((request.url.fqdn, keys))
                trace_keys.extend(keys)
                raw_keys.update(keys)
        with timer.stage("label"):
            # Opaque flows still label their destinations (party/ATS
            # classification does not need plaintext).
            for host in parsed.opaque_hosts:
                if host:
                    labeler.label(host)
        trace_plans.append(
            (parsed.meta.platform, parsed.meta.kind, parsed.meta.age, requests)
        )
        key_lists.append(trace_keys)

    # One classification descent for the whole shard.  Equivalent to
    # per-trace priming, key for key (see prime_sequence), so cache
    # hit/miss arithmetic is unchanged.
    with timer.stage("classify"):
        builder.prime_sequence(key_lists)

    with timer.stage("flow_build"):
        for platform, kind, age, requests in trace_plans:
            for fqdn, keys in requests:
                observations = builder.flows_for_destination(
                    fqdn,
                    labeler,
                    service=task.service,
                    platform=platform,
                    kind=kind,
                    age=age,
                    keys=keys,
                )
                flows.extend(observations)

    # Register parties (and owners, for the census/alluvial lookups
    # downstream) for every contacted host so destination-only
    # (opaque) contacts count too.
    with timer.stage("label"):
        owners: dict[str, str | None] = {}
        for host in contacted:
            label = labeler.label(host)
            flows.register_party(task.service, host, label.party)
            owners[host] = label.owner

    if persistent is not None:
        timer.add("store_get", persistent.store_get_s - store_get_before)
        timer.add("store_put", persistent.store_put_s - store_put_before)

    return ShardResult(
        service=task.service,
        flows=flows,
        dataset=dataset,
        contacted=contacted,
        raw_keys=raw_keys,
        classified=builder.classified_key_set(),
        owners=owners,
        trace_count=trace_count,
        cache_hits=cache.hits - hits_before + builder.lookup_hits,
        cache_misses=cache.misses - misses_before,
        store_hits=(persistent.store_hits - store_hits_before) if persistent else 0,
        store_misses=(persistent.misses - store_misses_before) if persistent else 0,
        stage_times=timer.times,
        degraded=degraded,
    )


# ----------------------------------------------------------------------
# Compact shard-result transport (process pool IPC)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PackedShardResult:
    """A :class:`ShardResult` flattened for cheap pickling.

    A raw ``ShardResult`` pickles its :class:`FlowTable` roll-ups
    (grid, per-destination sets, party map) alongside the observation
    list they are derived from, and every observation as an object
    with eight attribute slots.  The packed form interns every field
    value — strings and enums alike — into one pool and encodes each
    observation as eight pool indexes; roll-ups are dropped entirely
    and rebuilt on unpack by replaying the observations through
    :meth:`FlowTable.add`, exactly as :meth:`FlowTable.merge` would.
    Unpacking is faithful by construction: party registrations replay
    after the adds through ``register_party`` (setdefault semantics),
    the same order merge uses.
    """

    service: str
    pool: tuple
    observations: tuple  # 8-index tuples into ``pool``
    parties: tuple  # (service_i, fqdn_i, party_i) registrations
    contacted: tuple  # pool indexes, original iteration order
    raw_keys: tuple
    classified: tuple
    owners: tuple  # (fqdn_i, owner_i) pairs; owner interned too (may be None)
    dataset: DatasetSummary
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

    def unpack(self) -> ShardResult:
        pool = self.pool
        flows = FlowTable()
        for s, col, plat, lvl, fqdn, esld, party, raw in self.observations:
            flows.add(
                FlowObservation(
                    service=pool[s],
                    column=pool[col],
                    platform=pool[plat],
                    level3=pool[lvl],
                    fqdn=pool[fqdn],
                    esld=pool[esld],
                    party=pool[party],
                    raw_key=pool[raw],
                )
            )
        for s, fqdn, party in self.parties:
            flows.register_party(pool[s], pool[fqdn], pool[party])
        return ShardResult(
            service=self.service,
            flows=flows,
            dataset=self.dataset,
            contacted={pool[i] for i in self.contacted},
            raw_keys={pool[i] for i in self.raw_keys},
            classified={pool[i] for i in self.classified},
            owners={pool[f]: pool[o] for f, o in self.owners},
            trace_count=self.trace_count,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            store_hits=self.store_hits,
            store_misses=self.store_misses,
            stage_times=self.stage_times,
            degraded=list(self.degraded),
        )


def pack_shard_result(result: ShardResult) -> PackedShardResult:
    """Flatten one shard result into its compact transport form."""
    indexes: dict = {}

    def intern(value) -> int:
        index = indexes.get(value)
        if index is None:
            index = len(indexes)
            indexes[value] = index
        return index

    observations = tuple(
        (
            intern(o.service),
            intern(o.column),
            intern(o.platform),
            intern(o.level3),
            intern(o.fqdn),
            intern(o.esld),
            intern(o.party),
            intern(o.raw_key),
        )
        for o in result.flows.observations()
    )
    parties = tuple(
        (intern(service), intern(fqdn), intern(party))
        for (service, fqdn), party in result.flows._party_by_fqdn.items()
    )
    packed = PackedShardResult(
        service=result.service,
        pool=(),  # filled below, once the intern table is complete
        observations=observations,
        parties=parties,
        contacted=tuple(intern(host) for host in result.contacted),
        raw_keys=tuple(intern(key) for key in result.raw_keys),
        classified=tuple(intern(key) for key in result.classified),
        owners=tuple(
            (intern(fqdn), intern(owner))
            for fqdn, owner in result.owners.items()
        ),
        dataset=result.dataset,
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


def _process_shard_packed(task: ShardTask) -> PackedShardResult:
    """Pool-worker entry point: process a shard, ship it packed.

    In a real pool worker the task's metrics delta rides back on the
    packed result: the worker registry is reset before the task (pool
    workers run tasks serially, so the end-of-task snapshot IS the
    delta) and absorbed parent-side in canonical order.  When this
    function runs in the *parent* (single-task shortcut, crash
    recovery fallback) the increments already landed in the parent
    registry — resetting it would destroy the run's telemetry, so no
    snapshot ships.
    """
    import multiprocessing

    in_pool_worker = multiprocessing.parent_process() is not None
    if in_pool_worker:
        REGISTRY.reset()
    packed = pack_shard_result(process_shard(task))
    if in_pool_worker:
        packed.metrics = REGISTRY.snapshot()
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
    a damaged row can cost is one recomputation.
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
    return packed


def _cached_shard_result(packed: PackedShardResult) -> ShardResult:
    """Unpack a cached unit result for merging into *this* run.

    The stored payload carries the counters and stage times of the run
    that produced it; a run that merely loaded it did none of that
    work, so they are zeroed — ``EngineOutput`` counters and profiles
    describe only work actually performed.  The merged audit state is
    untouched (counters never reach the exported report).
    """
    result = packed.unpack()
    result.cache_hits = result.cache_misses = 0
    result.store_hits = result.store_misses = 0
    result.stage_times = {}
    return result


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


def _apply_split_plans(
    items: list, per_item_costs: list[list[float]], jobs: int, make_sub: Callable
) -> list:
    """Turn work items into their planned sub-items, canonical order.

    The one place the split policy is applied — audit shards and
    generate shards both go through here, so the two commands can
    never schedule differently.  ``make_sub(item, part, start, stop,
    cost)`` builds one sub-item; unsplit items just get their cost
    stamped.
    """
    out: list = []
    for item, plan in zip(items, balanced_split_plan(per_item_costs, jobs)):
        if len(plan) == 1:
            out.append(dataclasses.replace(item, estimated_cost=plan[0][2]))
            continue
        for part, (start, stop, cost) in enumerate(plan):
            out.append(make_sub(item, part, start, stop, cost))
    return out


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

    The returned list is in canonical order — service-spec order,
    then unit order — which is the order results must merge in;
    executors are free to *run* it in any order.
    """
    if jobs <= 1:
        return tasks
    per_task_costs = [shard_unit_costs(task) for task in tasks]
    return _apply_split_plans(tasks, per_task_costs, jobs, _shard_sub_task)


def _import_generation() -> None:
    """Load generate → capture in the parent before a pool forks.

    Generated shards run it in every worker, and a module first
    imported after the fork is compiled once per worker; imported
    here, the workers inherit it.  Replayed corpora never need it.
    """
    import repro.capture.devtools  # noqa: F401
    import repro.capture.pcapdroid  # noqa: F401
    import repro.capture.proxyman  # noqa: F401


@dataclass(slots=True)
class GenerateShard:
    """One generate-only work item (whole service or a unit slice)."""

    service: str
    config: CorpusConfig  # already restricted to this one service
    artifacts_dir: Path | None
    unit_range: tuple[int, int] | None = None
    part: int = 0
    estimated_cost: float = 0.0


def _generate_shard(shard: GenerateShard) -> list[dict]:
    """Generate + capture one shard's artifacts, skipping analysis.

    Returns one manifest record per trace, in generation order."""
    processor = CorpusProcessor(
        config=shard.config,
        artifacts_dir=shard.artifacts_dir,
        unit_range=shard.unit_range,
    )
    return [trace_record(parsed.meta) for parsed in processor]


def generate_corpus_artifacts(
    config: CorpusConfig,
    artifacts_dir: Path | None,
    jobs: int = 1,
) -> int:
    """Write every trace artifact plus a manifest; returns the trace count.

    The generate-only sibling of :meth:`AuditEngine.run`: shards (and
    size-balances) the same way but stops after capture — no
    classification, labeling or flow building — since ``python -m
    repro generate`` discards those.  ``manifest.json`` records the
    corpus config and per-trace metadata in generation order, so
    ``audit --from-artifacts`` can replay the directory without
    re-deriving anything from filenames.
    """
    from repro.services.generator import estimate_unit_costs

    pool = executor_for(jobs)
    existing = read_manifest(artifacts_dir) if artifacts_dir is not None else None
    if existing is not None:
        # Fail fast on mismatched corpus knobs before writing anything.
        merge_manifest_traces(existing, config, [])
    specs = config.service_specs()
    shards = [
        GenerateShard(
            service=spec.key,
            config=config.for_service(spec.key),
            artifacts_dir=artifacts_dir,
        )
        for spec in specs
    ]
    if jobs > 1:
        _import_generation()
        per_shard_costs = [
            estimate_unit_costs(shard.config, spec)
            for shard, spec in zip(shards, specs)
        ]
        shards = _apply_split_plans(
            shards,
            per_shard_costs,
            jobs,
            lambda shard, part, start, stop, cost: dataclasses.replace(
                shard, part=part, unit_range=(start, stop), estimated_cost=cost
            ),
        )
    records = [
        record
        for shard_records in pool.map_shards(shards, work=_generate_shard)
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
        self,
        tasks: list,
        work: Callable = process_shard,
        on_result: Callable | None = None,
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


def _invoke_on_result(on_result: Callable | None, index: int, result) -> None:
    """Deliver one completed raw result to the caller's flush hook.

    ``on_result(index, result)`` fires parent-side as results land, in
    completion order — the engine uses it to persist per-unit results
    the moment they exist, so a SIGKILL later in the run loses nothing
    already computed.  Hooks are best-effort observers: they must not
    raise (the engine's hook swallows into a warning itself), and they
    never see :class:`ShardCrash` sentinels.
    """
    if on_result is not None and not isinstance(result, ShardCrash):
        on_result(index, result)


@dataclass
class SequentialExecutor:
    """In-process execution — the deterministic, zero-overhead fallback."""

    kind = "sequential"
    jobs: int = 1

    def map_shards(
        self,
        tasks: list,
        work: Callable = process_shard,
        on_result: Callable | None = None,
    ) -> list:
        results = []
        for index, task in enumerate(tasks):
            result = work(task)
            _invoke_on_result(on_result, index, result)
            results.append(result)
        return results


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
    # Run even a single task through the pool instead of the
    # sequential shortcut — the engine's bisection probes need crash
    # isolation for exactly one task.
    isolate_single: bool = False

    def map_shards(
        self,
        tasks: list,
        work: Callable = process_shard,
        on_result: Callable | None = None,
    ) -> list:
        if len(tasks) <= 1 and not self.isolate_single:
            return SequentialExecutor().map_shards(tasks, work, on_result)
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
                pending = self._run_attempt(current, work, results, on_result)
            else:
                pending = [
                    index
                    for index in pending
                    if self._run_attempt(
                        {index: current[index]}, work, results, on_result
                    )
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
        self,
        slots: dict[int, object],
        work: Callable,
        results: list,
        on_result: Callable | None,
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
                        continue
                    _invoke_on_result(on_result, index, results[index])
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


def _isolate_poison_units(task: ShardTask, work: Callable) -> list[TraceUnit]:
    """Bisect a repeatedly-crashing replay shard down to its poison units.

    Splits the shard's unit slice in half and probes each half in a
    fresh single-worker pool (``isolate_single`` keeps even one task
    out of the in-process shortcut — a genuinely crashing unit must
    die in a child, never in the parent).  Halves that survive are
    clean; halves that crash recurse.  A singleton that crashes IS the
    poison.  O(k·log n) probe launches for k poison units — the probes
    exist to *identify* them, their results are discarded; the caller
    reruns the clean remainder in-process.
    """
    units = task.replay_units or ()
    if len(units) <= 1:
        return list(units)
    probe = ProcessPoolShardExecutor(
        jobs=1, max_attempts=2, retry_backoff_s=0.01, isolate_single=True
    )
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
        if isinstance(probe.map_shards([half], work=work)[0], ShardCrash):
            poisons.extend(_isolate_poison_units(half, work))
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
    def merge(results: list[ShardResult]) -> EngineOutput:
        """Fold ordered shard results into corpus-wide state.

        Results must arrive in canonical order: service-spec order,
        then sub-shard (trace-unit) order within a split service.  A
        service's sub-shard results are folded exactly as one whole-
        service result would be — contacted sets union, counters sum.
        """
        flows = FlowTable()
        dataset = DatasetSummary()
        contacted: dict[str, set[str]] = {}
        raw_keys: set[str] = set()
        classified: set[str] = set()
        owners: dict[tuple[str, str], str | None] = {}
        trace_count = 0
        hits = misses = store_hits = store_misses = 0
        degraded: list[DegradedUnit] = []
        for result in results:
            flows.merge(result.flows)
            dataset.merge(result.dataset)
            contacted.setdefault(result.service, set()).update(result.contacted)
            raw_keys.update(result.raw_keys)
            classified.update(result.classified)
            for fqdn, owner in result.owners.items():
                owners[(result.service, fqdn)] = owner
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
            classified_keys=len(classified),
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
    ) -> tuple[list[PackedShardResult | None], list[ShardTask], list[str]] | None:
        """Split replay tasks into cached unit results and dirty tasks.

        Returns ``(slots, dirty_tasks, dirty_digests)`` — ``slots`` has
        one entry per trace unit in canonical order (service-spec
        order, then unit order): a cached packed result, or ``None``
        meaning "take the next dirty task's result".  Every dirty unit
        becomes its own single-unit :class:`ShardTask` so its result is
        individually cacheable for the next run.  ``None`` (the whole
        return) means the store failed mid-partition and the caller
        should fall back to full recompute.
        """
        slots: list[PackedShardResult | None] = []
        dirty_tasks: list[ShardTask] = []
        dirty_digests: list[str] = []
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
            for part, (unit, digest) in enumerate(zip(units, digests)):
                payload = found.get(digest)
                packed = (
                    _decode_unit_payload(payload, task.service)
                    if payload is not None
                    else None
                )
                if payload is not None and packed is None:
                    corrupt.append(digest)
                if packed is not None:
                    _UNIT_STORE_HITS.inc()
                    slots.append(packed)
                    continue
                slots.append(None)
                dirty_tasks.append(
                    dataclasses.replace(
                        task,
                        replay_units=(unit,),
                        part=part,
                        estimated_cost=_replay_unit_cost(unit),
                    )
                )
                dirty_digests.append(digest)
            if corrupt:
                try:
                    store.delete_unit_results(corrupt)
                # repro-lint: disable=X-SWALLOW — quarantine cleanup is cosmetic; undeleted corrupt rows stay invisible to lookups anyway
                except StoreError:
                    pass
        return slots, dirty_tasks, dirty_digests

    @staticmethod
    def _unit_flush_hook(
        store: ClassificationStore,
        epoch: str,
        digests: list[str],
        timer: StageTimer,
    ) -> Callable:
        """The per-unit write-through hook for ``map_shards(on_result=)``.

        Crash-safe resume is built on flushing *as results complete*,
        not at run end: every unit result reaches the store the moment
        its shard finishes, so a SIGKILL mid-run loses only in-flight
        work and ``audit --resume`` reuses everything already
        persisted.  Best-effort by contract — the first store failure
        disables flushing with one warning (this run's audit is
        unaffected; only the next run's warm start is lost).  Degraded
        results are never cached: a quarantined unit is re-attempted
        on every run.
        """
        state = {"disabled": False}

        def flush(index: int, raw) -> None:
            if state["disabled"]:
                return
            packed = (
                raw
                if isinstance(raw, PackedShardResult)
                else pack_shard_result(raw)
            )
            if packed.degraded:
                return
            if packed.metrics is not None:
                # Never persist telemetry: a later run merging this
                # unit from cache did none of the work the snapshot
                # describes.
                packed = dataclasses.replace(packed, metrics=None)
            with timer.stage("store_put"):
                try:
                    store.put_unit_results(
                        epoch,
                        [(digests[index], packed.service, pickle.dumps(packed))],
                    )
                except StoreError as exc:
                    state["disabled"] = True
                    print(
                        f"warning: could not persist unit results: {exc}",
                        file=sys.stderr,
                    )

        return flush

    def _resolve_crashes(
        self,
        raw_results: list,
        work: Callable,
        degraded: list[DegradedUnit],
        flush: Callable | None,
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
                resolved[index] = work(task)
                _invoke_on_result(flush, index, resolved[index])
                continue
            poisons = _isolate_poison_units(task, work)
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
            resolved[index] = work(
                dataclasses.replace(task, replay_units=remainder)
            )
            _invoke_on_result(flush, index, resolved[index])
        return resolved

    def _stage_timer(self) -> StageTimer:
        """A stage timer, mirroring its spans into ``span_sink``."""
        if self.span_sink is None:
            return StageTimer()
        return StageTimer(SpanRecorder(sink=self.span_sink))

    def run(self) -> EngineOutput:
        timer = self._stage_timer()
        # Engine-side per-shard-stage time (digesting, unit-result
        # store round-trips) — merged into the shards' stage table.
        unit_stages = self._stage_timer()
        slots: list[PackedShardResult | None] | None = None
        dirty_digests: list[str] = []
        unit_store: ClassificationStore | None = None
        epoch = ""
        with timer.stage("shard_setup"):
            executor = executor_for(self.jobs)
            _RUNS.labels(executor.kind).inc()
            tasks = self.shard_tasks()
            scope = self._unit_result_scope()
            if scope is not None:
                unit_store, epoch = scope
                partition = self._partition_replay_tasks(
                    tasks, unit_store, epoch, unit_stages
                )
                if partition is None:
                    unit_store = None
                else:
                    # From here on ``tasks`` is the dirty set only —
                    # one single-unit task per unit to recompute.
                    slots, tasks, dirty_digests = partition
            packed = False
            if isinstance(executor, SequentialExecutor):
                # In-process shards can share one classification
                # cache, so keys common to several services classify
                # once per corpus (results are unchanged:
                # classification is per-key pure).
                shared = CachingClassifier.wrap(self.classifier)
                for task in tasks:
                    task.classifier = shared
            else:
                if slots is None:
                    # Size-balance the pool: split cost-skewed
                    # services into sub-shards and let the executor
                    # run them unordered.  (Incremental dirty tasks
                    # are already single-unit — nothing to split;
                    # their costs were stamped for LPT submission.)
                    tasks = split_shard_tasks(tasks, executor.jobs)
                if self.replay is None:
                    _import_generation()
                self._slim_tasks(tasks)
                packed = True
        work = _process_shard_packed if packed else process_shard
        _TASKS_DISPATCHED.inc(len(tasks))
        # Crash-safe resume: in incremental mode every fresh unit
        # result is flushed to the store the moment its shard
        # completes, so an interrupted run (even SIGKILL) leaves
        # everything already computed for ``--resume`` to reuse.
        flush = (
            self._unit_flush_hook(unit_store, epoch, dirty_digests, unit_stages)
            if unit_store is not None
            else None
        )
        with timer.stage("execute"):
            raw_results = executor.map_shards(tasks, work=work, on_result=flush)
        crash_degraded: list[DegradedUnit] = []
        if any(isinstance(raw, ShardCrash) for raw in raw_results):
            raw_results = self._resolve_crashes(
                raw_results, work, crash_degraded, flush
            )
        if packed:
            # Results crossed the pool pickled; unpack them
            # parent-side.  ``None`` slots are fully-quarantined
            # shards — nothing to unpack or merge.
            with timer.stage("unpack"):
                results = [
                    raw.unpack() if raw is not None else None
                    for raw in raw_results
                ]
                # Fold worker-side metric deltas into the parent
                # registry in canonical task order (raw_results is in
                # input order), so the merged telemetry is the same
                # whatever order workers finished in.  getattr guards
                # payloads unpickled from stores written before the
                # metrics field existed.
                for raw in raw_results:
                    shipped = getattr(raw, "metrics", None) if raw else None
                    if shipped is not None:
                        REGISTRY.absorb(shipped)
        else:
            results = raw_results
        unit_hits = unit_misses = 0
        if slots is not None:
            unit_hits = sum(1 for cached in slots if cached is not None)
            unit_misses = sum(1 for result in results if result is not None)
            # Weave cached and fresh results back into canonical
            # order (service-spec order, then unit order) — the order
            # merge requires.  merge folds per-unit results exactly
            # as it folds sub-shards, so output bytes cannot depend
            # on what was cached.  A ``None`` fresh result is a
            # quarantined unit: it contributes nothing, exactly as if
            # the unit were absent from the corpus.
            with timer.stage("unpack"):
                dirty_iter = iter(results)
                woven: list[ShardResult] = []
                for cached in slots:
                    if cached is not None:
                        woven.append(_cached_shard_result(cached))
                        continue
                    fresh = next(dirty_iter)
                    if fresh is not None:
                        woven.append(fresh)
                results = woven
        else:
            results = [result for result in results if result is not None]
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
