"""The DiffAudit orchestrator — paper Figure 1, end to end.

``DiffAudit(config).run()`` executes the whole methodology:

1. traffic collection (simulated services → HAR/PCAP artifacts);
2. post-processing (decryption, HTTP parsing, key extraction);
3. data type classification (GPT-4 substitute, majority-avg @ 0.8 by
   default) and destination analysis (eSLD, entities, blocklists);
4. data flow construction and the differential audit;
5. linkability analysis.

Stages 1–3 run per-service inside :class:`repro.pipeline.engine.AuditEngine`
— sequentially by default, or across worker processes with ``jobs > 1``
(the CLI's ``--jobs N``).  Both paths produce identical results for the
same config: shards merge in service-spec order and classification is a
pure function of the key.

The result object carries everything the paper's tables and figures
are derived from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.audit.report import ServiceAuditReport, audit_service
from repro.datatypes.base import Classifier
from repro.destinations.blocklists import BlockListCollection
from repro.destinations.entities import EntityDatabase
from repro.flows.dataflow import FlowTable
from repro.linkability.alluvial import AlluvialEdge, alluvial_edges
from repro.linkability.analysis import (
    DestinationCensus,
    LinkabilityResult,
    destination_census,
    linkability_matrix,
    most_common_linkable_set,
)
from repro.model import TraceColumn
from repro.ontology.nodes import Level3
from repro.pipeline.dataset import DatasetSummary
from repro.pipeline.engine import AuditEngine, labeler_for
from repro.pipeline.profile import profile_document
from repro.pipeline.replay import ReplayCorpus
from repro.services.generator import CorpusConfig


@dataclass
class DiffAuditResult:
    """Everything one DiffAudit run concludes."""

    config: CorpusConfig
    flows: FlowTable
    dataset: DatasetSummary
    audits: dict[str, ServiceAuditReport]
    linkability: dict[tuple[str, TraceColumn], LinkabilityResult]
    census: DestinationCensus
    alluvial: list[AlluvialEdge]
    common_linkable_set: frozenset[Level3]
    common_linkable_count: int
    classified_keys: int
    unique_data_types: int
    # Units quarantined under --keep-going, sorted (service, unit) for
    # stable reporting.  Empty on clean runs and in strict mode; the
    # CLI exits 3 when non-empty ("completed with degraded units").
    degraded: list = field(default_factory=list)

    def audit_for(self, service: str) -> ServiceAuditReport:
        return self.audits[service]

    def linkability_for(self, service: str, column: TraceColumn) -> LinkabilityResult:
        return self.linkability[(service, column)]


@dataclass
class DiffAudit:
    """Configured end-to-end audit run."""

    config: CorpusConfig = field(default_factory=CorpusConfig)
    classifier: Classifier | None = None
    confidence_threshold: float = 0.8
    entity_db: EntityDatabase | None = None
    blocklists: BlockListCollection | None = None
    artifacts_dir: Path | None = None
    # Replay a captured/archived artifacts directory instead of
    # generating traffic in-memory (``audit --from-artifacts DIR``):
    # a directory path, or an already-scanned ReplayCorpus so callers
    # that scanned the directory themselves (e.g. for config
    # resolution) don't pay, or race, a second scan.
    replay: ReplayCorpus | Path | str | None = None
    jobs: int = 1  # shard workers; 1 = sequential in-process
    # Persistent classification store directory (``--cache-dir``):
    # verdicts persist across runs and across worker processes, so a
    # warm re-audit performs zero inner-classifier calls.  Results are
    # unchanged either way — classification is a pure function of the
    # key — only how often the expensive path runs.
    cache_dir: Path | str | None = None
    # Per-unit result reuse for replayed corpora (on by default, the
    # CLI's ``--no-incremental`` turns it off): with ``replay`` and
    # ``cache_dir`` both set, unchanged trace units merge straight
    # from the store's unit-result cache and only dirty units pass
    # through process_shard — byte-identical output, O(delta) work.
    incremental: bool = True
    # Graceful degradation (``--keep-going``): quarantine units that
    # fail decode or crash workers instead of aborting; the result's
    # ``degraded`` list records them.  False = fail fast
    # (``--strict``, the default).
    keep_going: bool = False
    # Seeded fault-injection plan (``--inject-faults``); None in
    # normal operation.  See repro.faults.
    faults: object | None = None
    # Optional retained-event span recorder (``--spans-out FILE``):
    # engine orchestration spans plus this orchestrator's own
    # ``assemble`` span are mirrored into it for a JSONL sidecar.
    # Observational only — results are byte-identical either way.
    span_sink: object | None = None

    def engine(self) -> AuditEngine:
        """The shard/process/merge engine this run is configured for.

        Built fresh from the current field values, so assigning e.g.
        ``audit.classifier`` after construction still takes effect.
        ``None`` components stay ``None`` here — the engine resolves
        defaults itself, and remembering *that* they were defaults is
        what lets it keep them out of worker-task pickles.
        """
        return AuditEngine(
            config=self.config,
            classifier=self.classifier,
            confidence_threshold=self.confidence_threshold,
            entity_db=self.entity_db,
            blocklists=self.blocklists,
            artifacts_dir=self.artifacts_dir,
            replay=self.replay,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            incremental=self.incremental,
            keep_going=self.keep_going,
            faults=self.faults,
            span_sink=self.span_sink,
        )

    def run(self) -> DiffAuditResult:
        result, _ = self.run_profiled()
        return result

    def run_profiled(self) -> tuple[DiffAuditResult, dict]:
        """Run the audit and return ``(result, profile_document)``.

        The profile attributes the run's wall time per stage (see
        :mod:`repro.pipeline.profile`); ``repro audit --profile-out``
        writes it to disk, ``repro bench`` records one per benchmark
        entry.  Profiling is always on — its cost is a handful of
        clock reads per trace.
        """
        start = time.perf_counter()
        engine = self.engine()
        merged = engine.run()
        downstream_start = time.perf_counter()
        result = assemble_result(
            self.config, merged, engine.entity_db, engine.blocklists
        )
        end = time.perf_counter()
        if self.span_sink is not None:
            self.span_sink.record(
                "assemble", end - downstream_start, start=downstream_start
            )
        profile = profile_document(
            workload="audit",
            wall_time_s=end - start,
            engine=merged.profile,
            downstream_s=end - downstream_start,
        )
        return result, profile


def assemble_result(
    config: CorpusConfig,
    merged,
    entity_db: EntityDatabase,
    blocklists: BlockListCollection,
) -> DiffAuditResult:
    """Stages 4–5 over merged engine state: audits, linkability, census.

    Shared by the batch orchestrator above and the streaming session
    (:class:`repro.stream.session.StreamAudit`) — both hand in an
    :class:`repro.pipeline.engine.EngineOutput`, so however the corpus
    was consumed, the downstream analyses and the exported result are
    assembled by exactly one code path.
    """
    specs = {spec.key: spec for spec in config.service_specs()}
    labelers = {
        key: labeler_for(spec, entity_db, blocklists)
        for key, spec in specs.items()
    }
    flows = merged.flows

    audits = {service: audit_service(flows, service) for service in specs}
    linkability = linkability_matrix(flows, services=sorted(specs))

    def owner_of(service: str, fqdn: str) -> str | None:
        # Shards already labeled every contacted host; fall back to
        # a fresh labeler only for destinations they never saw.
        key = (service, fqdn)
        if key in merged.owners:
            return merged.owners[key]
        return labelers[service].label(fqdn).owner

    census = destination_census(flows, merged.contacted, owner_of)
    edges = alluvial_edges(flows, owner_of)
    common_set, common_count = most_common_linkable_set(flows)

    return DiffAuditResult(
        config=config,
        flows=flows,
        dataset=merged.dataset,
        audits=audits,
        linkability=linkability,
        census=census,
        alluvial=edges,
        common_linkable_set=common_set,
        common_linkable_count=common_count,
        classified_keys=merged.classified_keys,
        unique_data_types=len(merged.raw_keys),
        degraded=sorted(
            merged.degraded, key=lambda d: (d.service, d.unit, d.stage)
        ),
    )
