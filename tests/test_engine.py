"""Unit tests for the parallel sharded audit engine."""

import dataclasses
import json
import os
import pickle
from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.pipeline.engine as engine_module
from repro import CorpusConfig, DiffAudit
from repro.datatypes.base import Classification
from repro.datatypes.cache import CachingClassifier
from repro.destinations.blocklists import default_blocklists
from repro.destinations.entities import default_entity_db
from repro.destinations.party import PartyLabel
from repro.flows.builder import FlowBuilder
from repro.flows.dataflow import (
    FlowObservation,
    FlowTable,
    pack_indexes,
    unpack_indexes,
)
from repro.linkability.alluvial import alluvial_edges
from repro.linkability.analysis import (
    destination_census,
    linkability_matrix,
    most_common_linkable_set,
)
from repro.model import ALL_COLUMNS, FlowCell, Platform, Presence, TraceColumn
from repro.ontology.nodes import Level2, Level3
from repro.pipeline.corpus import CorpusProcessor
from repro.pipeline.dataset import DatasetSummary, ServiceDatasetStats
from repro.pipeline.engine import (
    AuditEngine,
    EngineOutput,
    PackedShardResult,
    ProcessPoolShardExecutor,
    SequentialExecutor,
    ShardFold,
    ShardResult,
    _decode_unit_payload,
    default_classifier,
    executor_for,
    generate_corpus_artifacts,
    labeler_for,
    pack_shard_result,
    partition_costs,
    process_shard,
    shard_unit_costs,
    split_shard_tasks,
)
from repro.services.generator import LOAD_PROFILES, estimate_unit_costs


def _observation(
    service="svc",
    fqdn="t.tracker.com",
    level3=Level3.AGE,
    party=PartyLabel.THIRD_PARTY_ATS,
    platform=Platform.WEB,
    column=TraceColumn.ADULT,
):
    return FlowObservation(
        service=service,
        column=column,
        platform=platform,
        level3=level3,
        fqdn=fqdn,
        esld="tracker.com",
        party=party,
        raw_key="age",
    )


class TestFlowTableMerge:
    def test_merge_rebuilds_rollups(self):
        left = FlowTable()
        left.add(_observation(service="a"))
        right = FlowTable()
        right.add(_observation(service="b", fqdn="x.other.com"))
        right.add(
            _observation(
                service="b", level3=Level3.ALIASES, platform=Platform.MOBILE
            )
        )

        left.merge(right)
        assert len(left) == 3
        assert left.services() == ["a", "b"]
        assert left.party_of("b", "x.other.com") is PartyLabel.THIRD_PARTY_ATS
        # Per-destination linkability sets merged for third parties,
        # keyed by service: b's aliases never mix into a's set.
        sets = left.third_party_type_sets("b", TraceColumn.ADULT)
        assert sets["t.tracker.com"] == {Level3.ALIASES}
        assert sets["x.other.com"] == {Level3.AGE}
        assert left.third_party_type_sets("a", TraceColumn.ADULT)[
            "t.tracker.com"
        ] == {Level3.AGE}

    def test_merge_is_order_preserving(self):
        one, two = FlowTable(), FlowTable()
        first = _observation(service="a")
        second = _observation(service="b")
        one.add(first)
        two.add(second)
        merged = FlowTable()
        merged.merge(one)
        merged.merge(two)
        assert merged.observations() == [first, second]

    def test_merge_equals_direct_adds(self):
        observations = [
            _observation(service="a"),
            _observation(service="a", level3=Level3.NAME),
            _observation(service="b", fqdn="y.other.com", party=PartyLabel.THIRD_PARTY),
        ]
        direct = FlowTable()
        direct.extend(observations)
        sharded = FlowTable()
        for observation in observations:
            shard = FlowTable()
            shard.add(observation)
            sharded.merge(shard)
        assert sharded.observations() == direct.observations()
        # Grid, type sets, party map and ATS contacts alike.
        assert sharded._rollups() == direct._rollups()

    def test_rollups_follow_later_adds(self):
        table = FlowTable()
        table.add(_observation())
        assert table.unique_flows() == {(Level3.AGE, "t.tracker.com")}
        table.add(_observation(level3=Level3.ALIASES))
        assert table.third_party_type_sets("svc", TraceColumn.ADULT) == {
            "t.tracker.com": {Level3.AGE, Level3.ALIASES}
        }
        assert table.third_party_ats_contacts("svc", TraceColumn.ADULT) == {
            "t.tracker.com": 2
        }
        assert len(table.unique_flows()) == 2

    def test_register_party_never_overrides_observed(self):
        table = FlowTable()
        table.add(_observation())
        table.register_party("svc", "t.tracker.com", PartyLabel.FIRST_PARTY)
        assert table.party_of("svc", "t.tracker.com") is PartyLabel.THIRD_PARTY_ATS

    def test_register_party_fills_opaque_contacts(self):
        table = FlowTable()
        table.register_party("svc", "pinned.cdn.com", PartyLabel.FIRST_PARTY)
        assert table.party_of("svc", "pinned.cdn.com") is PartyLabel.FIRST_PARTY

    def test_merge_keeps_registered_parties(self):
        shard = FlowTable()
        shard.register_party("svc", "opaque.host.com", PartyLabel.THIRD_PARTY)
        merged = FlowTable()
        merged.merge(shard)
        assert merged.party_of("svc", "opaque.host.com") is PartyLabel.THIRD_PARTY


class TestDatasetSummaryMerge:
    """Shard slices fold into one summary through ``add_counts``."""

    def test_merge_disjoint_services(self):
        summary = DatasetSummary()
        summary.add_counts("a", {"x.a.com"}, {"a.com"}, packets=5, tcp_flows=2)
        summary.add_counts("b", {"y.b.com"}, {"b.com"}, packets=7, tcp_flows=3)
        assert summary.total_packets == 12
        assert summary.total_domains == 2

    def test_merge_same_service_unions(self):
        summary = DatasetSummary()
        summary.add_counts("a", {"x.a.com"}, {"a.com"}, packets=5, tcp_flows=2)
        summary.add_counts(
            "a", {"x.a.com", "z.a.com"}, {"a.com"}, packets=1, tcp_flows=1
        )
        stats = summary.per_service["a"]
        assert stats.domain_count == 2
        assert stats.packets == 6
        assert stats.tcp_flows == 3


class CountingClassifier:
    """Deterministic classifier that counts classify() invocations."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def classify(self, text):
        self.calls += 1
        return Classification(text=text, label=Level3.AGE, confidence=0.9)

    def classify_batch(self, texts):
        return [self.classify(text) for text in texts]


class TestCachingClassifier:
    def test_repeated_keys_classified_once(self):
        inner = CountingClassifier()
        cache = CachingClassifier(inner)
        first = cache.classify("age")
        second = cache.classify("age")
        assert first == second
        assert inner.calls == 1
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        assert cache.cached_keys() == {"age"}

    def test_distinct_keys_all_miss(self):
        inner = CountingClassifier()
        cache = CachingClassifier(inner)
        cache.classify_batch(["a", "b", "a", "c"])
        assert inner.calls == 3
        assert cache.hit_rate == pytest.approx(0.25)
        assert cache.name == "cached-counting"


class TestExecutors:
    def test_jobs_one_is_sequential(self):
        assert isinstance(executor_for(1), SequentialExecutor)

    def test_jobs_many_is_process_pool(self):
        executor = executor_for(4)
        assert isinstance(executor, ProcessPoolShardExecutor)
        assert executor.jobs == 4

    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError):
            executor_for(0)


class TestLoadProfiles:
    def test_known_profiles(self):
        assert set(LOAD_PROFILES) == {"light", "standard", "heavy", "stress"}

    def test_standard_is_identity(self):
        config = CorpusConfig(scale=0.01)
        assert config.effective_scale == pytest.approx(0.01)

    def test_profiles_scale_volume(self):
        light = CorpusConfig(scale=0.01, profile="light")
        heavy = CorpusConfig(scale=0.01, profile="heavy")
        assert light.effective_scale == pytest.approx(0.0025)
        assert heavy.effective_scale == pytest.approx(0.04)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown load profile"):
            CorpusConfig(profile="ludicrous")

    def test_for_service_restricts_and_keeps_knobs(self):
        config = CorpusConfig(scale=0.01, seed=9, profile="light")
        shard = config.for_service("tiktok")
        assert shard.services == ("tiktok",)
        assert shard.seed == 9 and shard.profile == "light"
        assert [spec.key for spec in shard.service_specs()] == ["tiktok"]

    def test_heavier_profile_means_more_packets(self):
        # At scale 0.02 the volume targets bind (filler traffic is
        # non-zero), so profiles must separate the packet totals.
        light = CorpusConfig(scale=0.02, services=("youtube",), profile="light")
        heavy = CorpusConfig(scale=0.02, services=("youtube",), profile="heavy")
        engine_light = AuditEngine(config=light).run()
        engine_heavy = AuditEngine(config=heavy).run()
        assert (
            engine_heavy.dataset.total_packets
            > engine_light.dataset.total_packets
        )
        # A profile is exactly a scale multiplier for volume purposes:
        # heavy at 0.02 produces the same packet count as standard at
        # the equivalent 0.08 scale.
        equivalent = CorpusConfig(scale=0.08, services=("youtube",))
        engine_equivalent = AuditEngine(config=equivalent).run()
        assert (
            engine_heavy.dataset.total_packets
            == engine_equivalent.dataset.total_packets
        )


class _CostedItem:
    """Minimal picklable work item for executor-ordering tests."""

    def __init__(self, index: int, estimated_cost: float) -> None:
        self.index = index
        self.estimated_cost = estimated_cost


def _echo_index(item: _CostedItem) -> int:
    return item.index


def _worker_pid(item: _CostedItem) -> int:
    return os.getpid()


class TestSizeBalancedScheduling:
    """Cost estimation, shard splitting, and unordered execution."""

    def test_partition_costs_covers_contiguously(self):
        costs = [5.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0]
        ranges = partition_costs(costs, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start  # contiguous, no gaps or overlaps
        assert all(stop > start for start, stop in ranges)

    def test_partition_costs_balances_skew(self):
        # One heavy unit up front must not drag everything into part 0.
        costs = [10.0] + [1.0] * 10
        ranges = partition_costs(costs, 2)
        assert ranges[0][1] <= 2  # the heavy unit fills its part quickly
        assert len(ranges) == 2

    def test_partition_costs_clamps_parts(self):
        assert partition_costs([1.0, 2.0], 10) == [(0, 1), (1, 2)]
        assert partition_costs([1.0, 2.0, 3.0], 1) == [(0, 3)]
        assert partition_costs([0.0, 0.0], 2) == [(0, 2)]  # zero total: whole

    def test_estimated_unit_costs_are_positive_and_skewed(self):
        config = CorpusConfig(scale=0.01)
        for spec in config.service_specs():
            costs = estimate_unit_costs(config, spec)
            assert len(costs) > 0
            assert all(cost > 0 for cost in costs)
        totals = {
            spec.key: sum(estimate_unit_costs(config, spec))
            for spec in config.service_specs()
        }
        # The paper's services differ in volume — the estimates must
        # reflect that skew, or splitting would have nothing to fix.
        assert max(totals.values()) > 1.2 * min(totals.values())

    def test_split_preserves_canonical_order_and_unit_coverage(self):
        config = CorpusConfig(scale=0.01)
        engine = AuditEngine(config=config, jobs=4)
        tasks = split_shard_tasks(engine.shard_tasks(), 4)
        assert len(tasks) > len(config.service_specs())  # something split
        services = [spec.key for spec in config.service_specs()]
        seen_order = [task.service for task in tasks]
        # Canonical order: grouped by service in spec order, parts ascending.
        assert seen_order == sorted(
            seen_order, key=lambda s: services.index(s)
        )
        by_service: dict[str, list] = {}
        for task in tasks:
            by_service.setdefault(task.service, []).append(task)
        for service, parts in by_service.items():
            assert [task.part for task in parts] == list(range(len(parts)))
            if len(parts) == 1:
                continue
            ranges = [task.unit_range for task in parts]
            assert ranges[0][0] == 0
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            assert all(task.estimated_cost > 0 for task in parts)

    def test_split_balances_estimated_cost(self):
        config = CorpusConfig(scale=0.05)
        engine = AuditEngine(config=config, jobs=4)
        whole = engine.shard_tasks()
        whole_costs = [sum(shard_unit_costs(task)) for task in whole]
        split = split_shard_tasks(whole, 4)
        split_costs = [task.estimated_cost for task in split]
        # Splitting must strictly shrink the largest schedulable chunk —
        # that is the whole point of sub-sharding a skewed corpus.
        assert max(split_costs) < max(whole_costs)
        assert sum(split_costs) == pytest.approx(sum(whole_costs))

    def test_split_replay_units_cover_the_corpus(self, tmp_path):
        config = CorpusConfig(scale=0.002, seed=3, services=("youtube",))
        generate_corpus_artifacts(config, tmp_path)
        engine = AuditEngine(config=config, replay=tmp_path, jobs=3)
        tasks = split_shard_tasks(engine.shard_tasks(), 3)
        rejoined = [
            unit for task in tasks for unit in (task.replay_units or ())
        ]
        (original,) = engine.shard_tasks()
        assert tuple(rejoined) == original.replay_units
        # Replay sub-shards carry their slice in replay_units directly.
        assert all(task.unit_range is None for task in tasks)
        assert all(task.estimated_cost > 0 for task in tasks)

    def test_sequential_jobs_never_split(self):
        engine = AuditEngine(config=CorpusConfig(scale=0.05), jobs=1)
        tasks = engine.shard_tasks()
        assert split_shard_tasks(tasks, 1) is tasks

    def test_pool_executor_returns_results_in_input_order(self):
        items = [_CostedItem(i, cost) for i, cost in enumerate([1, 9, 3, 7, 5])]
        results = ProcessPoolShardExecutor(jobs=2).map_shards(
            items, work=_echo_index
        )
        assert results == [0, 1, 2, 3, 4]


class TestExecutorSelection:
    """``--jobs N`` alone picks the executor that runs, for generated
    and replayed corpora alike."""

    CONFIG = CorpusConfig(scale=0.002, seed=3, services=("tiktok", "youtube"))

    @pytest.mark.parametrize(("jobs", "kind"), [(1, "sequential"), (2, "process")])
    def test_jobs_alone_pick_the_executor(self, jobs, kind, tmp_path):
        generate_corpus_artifacts(self.CONFIG, tmp_path)
        for replay in (None, tmp_path):
            output = AuditEngine(config=self.CONFIG, replay=replay, jobs=jobs).run()
            assert output.profile["executor"] == kind

    def test_lone_task_runs_in_a_child_process(self):
        # One task gets the pool's crash isolation like any other: it
        # runs in a worker process, never in the parent.
        (pid,) = ProcessPoolShardExecutor(jobs=4).map_shards(
            [_CostedItem(0, 1.0)], work=_worker_pid
        )
        assert pid != os.getpid()


@lru_cache(maxsize=1)
def _fold_inputs():
    """One service's parsed traces and an inner classifier, built once."""
    config = CorpusConfig(scale=0.002, seed=3, services=("tiktok",))
    (spec,) = config.service_specs()
    return spec, list(CorpusProcessor(config=config)), default_classifier()


def _fold(build_after: frozenset[int], per_trace: bool):
    """Fold the traces through a fresh fold and classifier stack,
    building after each trace index in ``build_after`` and after the
    last; into one target, or one per trace as dirty units are."""
    spec, traces, inner = _fold_inputs()
    cache = CachingClassifier(inner)
    fold = ShardFold(
        spec.key,
        labeler_for(spec, default_entity_db(), default_blocklists()),
        FlowBuilder(classifier=cache),
    )
    targets: list[ShardResult] = []
    for index, parsed in enumerate(traces):
        if per_trace or not targets:
            targets.append(
                ShardResult(spec.key, FlowTable(), DatasetSummary(), set(), set())
            )
        fold.add(parsed, targets[-1])
        if index in build_after:
            fold.build()
    fold.build()
    for target in targets:
        fold.label(target)
    counters = (
        cache.hits,
        cache.misses,
        fold.builder.lookup_hits,
        fold.builder.classified_keys,
    )
    return [pack_shard_result(target) for target in targets], counters


@lru_cache(maxsize=2)
def _single_build(per_trace: bool):
    """The reference: one build, after the last trace."""
    return _fold(frozenset(), per_trace)


class TestShardFoldBuildPlacement:
    """Where ``ShardFold.build`` runs — once per task as the engine
    does, after every trace as the stream does, or anywhere between —
    changes neither the folded results nor the classifier counters, so
    batch ≡ stream holds at the fold by construction."""

    @given(build_after=st.frozensets(st.integers(0, 13)), per_trace=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_build_placement_never_changes_the_fold(self, build_after, per_trace):
        packed, counters = _fold(build_after, per_trace)
        reference_packed, reference_counters = _single_build(per_trace)
        assert len(packed) == len(reference_packed)
        for result, reference in zip(packed, reference_packed):
            for item in dataclasses.fields(PackedShardResult):
                assert getattr(result, item.name) == getattr(
                    reference, item.name
                ), item.name
        assert counters == reference_counters


class TestSlimTasks:
    """Pool-bound tasks must stay cheap to pickle."""

    CONFIG = CorpusConfig(scale=0.002, seed=3, services=("tiktok", "youtube"))

    def test_default_components_stripped_and_payload_small(self):
        engine = AuditEngine(config=self.CONFIG, jobs=2)
        tasks = split_shard_tasks(engine.shard_tasks(), 2)
        engine._slim_tasks(tasks)
        for task in tasks:
            assert task.classifier is None
            assert task.entity_db is None
            assert task.blocklists is None
            # The whole point of slimming: a task is a service name
            # plus config knobs, not a pickled catalog + entity
            # database + blocklist stack.
            assert len(pickle.dumps(task)) < 16 * 1024

    def test_slimming_forwards_cache_dir(self, tmp_path):
        engine = AuditEngine(config=self.CONFIG, jobs=2, cache_dir=tmp_path)
        tasks = engine.shard_tasks()
        engine._slim_tasks(tasks)
        assert all(task.classifier is None for task in tasks)
        assert all(task.cache_dir == tmp_path for task in tasks)

    def test_custom_classifier_still_travels(self):
        engine = AuditEngine(
            config=self.CONFIG, classifier=CountingClassifier(), jobs=2
        )
        tasks = engine.shard_tasks()
        engine._slim_tasks(tasks)
        for task in tasks:
            # Only *default* components are rebuilt worker-side; a
            # caller-customized classifier must keep travelling.
            assert task.classifier is engine.classifier
            assert task.entity_db is None
            assert task.blocklists is None


class TestPackedShardResult:
    """The compact IPC transport must be faithful and actually compact."""

    @pytest.fixture(scope="class")
    def shard_result(self):
        """youtube's shard as ``process_shard`` folded it, and what
        ``process_shard`` returned: the shard packed."""
        config = CorpusConfig(scale=0.002, seed=3, services=("youtube",))
        (task,) = AuditEngine(config=config).shard_tasks()
        shards = []

        def keep(result):
            shards.append(result)
            return pack_shard_result(result)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "pack_shard_result", keep)
            packed = process_shard(task)
        (shard,) = shards
        return shard, packed

    def test_round_trip_is_faithful(self, shard_result):
        # Folding the pickled packed result reads back everything the
        # shard folded: roll-ups are not shipped, yet come out
        # identical to the ones the shard's own table derives.
        shard, packed = shard_result
        packed = pickle.loads(pickle.dumps(packed))
        folded = AuditEngine.merge([packed])
        service = shard.service
        assert packed.service == service
        flows, own = folded.flows, shard.flows
        assert flows.observations() == own.observations()
        assert len(flows) == len(own) > 0
        assert flows.grid_for(service) == own.grid_for(service)
        assert flows.unique_flows() == own.unique_flows()
        assert flows._rollups() == own._rollups()
        assert [flows.party_of(service, host) for host in shard.contacted] == [
            own.party_of(service, host) for host in shard.contacted
        ]
        assert folded.contacted == {service: shard.contacted}
        assert folded.raw_keys == shard.raw_keys
        assert folded.classified_keys == len(shard.raw_keys)
        assert folded.dataset == shard.dataset
        assert folded.owners == {
            (service, fqdn): owner for fqdn, owner in shard.owners.items()
        }
        assert folded.trace_count == shard.trace_count
        assert folded.cache_hits == shard.cache_hits
        assert folded.cache_misses == shard.cache_misses
        # The run profile's stage table folds each merged result's
        # stage_times.
        assert packed.stage_times == shard.stage_times

    def test_packed_pickle_is_smaller(self, shard_result):
        shard, packed = shard_result
        assert len(pickle.dumps(packed)) < len(pickle.dumps(shard))


_SERVICES = ("alpha", "beta", "gamma")
# FQDNs sharing eSLDs, with owners for some (the rest are unknown).
_FQDNS = ("a.ads.com", "b.ads.com", "x.cdn.net", "y.cdn.net", "t.tracker.io")
_OWNERS = {"a.ads.com": "Ads Inc", "b.ads.com": "Ads Inc", "t.tracker.io": "Tracker"}
# Identifiers and personal information, so linkable sets occur.
_LEVEL3 = (
    Level3.ALIASES,
    Level3.DEVICE_HARDWARE_IDENTIFIERS,
    Level3.LANGUAGE,
    Level3.APP_OR_SERVICE_USAGE,
    Level3.AGE,
)

_observations = st.builds(
    lambda service, column, platform, level3, fqdn, party, raw_key: FlowObservation(
        service=service,
        column=column,
        platform=platform,
        level3=level3,
        fqdn=fqdn,
        esld=fqdn.split(".", 1)[1],
        party=party,
        raw_key=raw_key,
    ),
    st.sampled_from(_SERVICES),
    st.sampled_from(ALL_COLUMNS),
    st.sampled_from(list(Platform)),
    st.sampled_from(_LEVEL3),
    st.sampled_from(_FQDNS),
    st.sampled_from(list(PartyLabel)),
    st.sampled_from(("uid", "lang", "")),
)


_registrations = st.tuples(st.sampled_from(_FQDNS), st.sampled_from(list(PartyLabel)))


@st.composite
def _units(draw):
    """Units ``(service, observations, registrations, register_first,
    stored)``.  Registrations may name hosts the unit never observed;
    ``register_first`` registers before adding, as a stream snapshot
    taken mid-trace does; a ``stored`` unit's result reaches the merge
    through pickled bytes.  Observations often repeat, within a unit
    and across units, as a trace's requests do.  Every draw also
    holds, at drawn positions, a unit with no rows and no parties and
    one whose parties are all registered-only."""
    palette = draw(st.lists(_observations, min_size=1, max_size=6))
    observation = st.one_of(st.sampled_from(palette), _observations)
    units = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_SERVICES),
                st.lists(observation, max_size=12),
                st.lists(_registrations, max_size=3),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    for registrations in ([], draw(st.lists(_registrations, min_size=1, max_size=3))):
        service = draw(st.sampled_from(_SERVICES))
        unit = (service, [], registrations, False, draw(st.booleans()))
        units.insert(draw(st.integers(0, len(units))), unit)
    return units


def _fill(flows, service, observations, registrations, register_first):
    """Add a unit's observations to ``flows`` and register its parties,
    in the unit's order."""
    if not register_first:
        flows.extend(observations)
    for fqdn, party in registrations:
        flows.register_party(service, fqdn, party)
    if register_first:
        flows.extend(observations)
    return flows


def _unit_result(service, observations, registrations, register_first):
    flows = _fill(FlowTable(), service, observations, registrations, register_first)
    contacted = {o.fqdn for o in observations} | {f for f, _ in registrations}
    # As process_shard: a unit that contacted nothing decoded no
    # trace, and a dataset row's fqdns are the contacted hosts.
    dataset = DatasetSummary()
    if contacted:
        dataset.per_service[service] = ServiceDatasetStats(
            service=service,
            fqdns=set(contacted),
            eslds={fqdn.split(".", 1)[1] for fqdn in contacted},
            packets=3 * len(observations),
            tcp_flows=len(registrations),
        )
    return ShardResult(
        service=service,
        flows=flows,
        dataset=dataset,
        contacted=contacted,
        raw_keys={o.raw_key for o in observations},
        owners={fqdn: _OWNERS.get(fqdn) for fqdn in contacted},
        trace_count=1,
        cache_hits=len(observations),
        stage_times={"classify": 0.5},
    )


def _round_trip(result):
    """``result`` through a pool worker's or the unit store's bytes."""
    packed = _decode_unit_payload(
        pickle.dumps(pack_shard_result(result)), result.service
    )
    assert packed is not None
    return packed


class _EagerTable:
    """The flow table's read API kept up observation by observation, as
    the table once kept its roll-ups: the oracle a packed table's
    derived roll-ups must match, orders included."""

    def __init__(self):
        self._observations = []
        self._grid = defaultdict(set)
        self._type_sets = {}
        self._contacts = {}
        self._parties = {}

    def extend(self, observations):
        for o in observations:
            self._observations.append(o)
            self._grid[(o.service, o.level2, o.column, o.cell)].add(o.platform)
            if o.party.is_third_party:
                self._type_sets.setdefault((o.service, o.column), {}).setdefault(
                    o.fqdn, set()
                ).add(o.level3)
            if o.party is PartyLabel.THIRD_PARTY_ATS:
                cell = self._contacts.setdefault((o.service, o.column), {})
                cell[o.fqdn] = cell.get(o.fqdn, 0) + 1
            self._parties[(o.service, o.fqdn)] = o.party

    def register_party(self, service, fqdn, party):
        self._parties.setdefault((service, fqdn), party)

    def observations(self):
        return list(self._observations)

    def __len__(self):
        return len(self._observations)

    def services(self):
        return sorted({key[0] for key in self._grid})

    def grid_for(self, service):
        grid = {}
        for level2 in Level2:
            for column in ALL_COLUMNS:
                for cell in FlowCell:
                    platforms = self._grid.get((service, level2, column, cell), set())
                    grid[(level2, column, cell)] = Presence.from_platforms(
                        web=bool({Platform.WEB, Platform.DESKTOP} & platforms),
                        mobile=Platform.MOBILE in platforms,
                    )
        return grid

    def unique_flows(self):
        return {o.flow_pair for o in self._observations}

    def third_party_type_sets(self, service, column):
        cell = self._type_sets.get((service, column), {})
        return {fqdn: set(types) for fqdn, types in cell.items()}

    def third_party_ats_contacts(self, service, column):
        return dict(self._contacts.get((service, column), {}))

    def party_of(self, service, fqdn):
        return self._parties.get((service, fqdn))


def _reference_merge(units):
    """What merging ``units`` must read back, folded the plain way:
    every observation and registration replayed in order through one
    :class:`_EagerTable`, every other field of each unit's result
    folded straight in."""
    flows = _EagerTable()
    dataset = DatasetSummary()
    contacted, raw_keys, owners = {}, set(), {}
    trace_count = cache_hits = 0
    for unit in units:
        _fill(flows, *unit[:4])
        result = _unit_result(*unit[:4])
        contacted.setdefault(result.service, set()).update(result.contacted)
        raw_keys.update(result.raw_keys)
        for fqdn, owner in result.owners.items():
            owners[(result.service, fqdn)] = owner
        for stats in result.dataset.per_service.values():
            dataset.add_counts(
                stats.service, stats.fqdns, stats.eslds, stats.packets, stats.tcp_flows
            )
        trace_count += result.trace_count
        cache_hits += result.cache_hits
    return EngineOutput(
        flows=flows,
        dataset=dataset,
        contacted=contacted,
        raw_keys=raw_keys,
        classified_keys=len(raw_keys),
        owners=owners,
        trace_count=trace_count,
        cache_hits=cache_hits,
    )


class TestPackedFold:
    """Folding packed results equals replaying every unit's observations
    and registrations, one by one, into one table."""

    @settings(max_examples=60, deadline=None)
    @given(_units())
    def test_packed_merges_agree_with_eager_fold(self, units):
        def results(stored):
            return [
                _round_trip(_unit_result(*unit[:4])) if stored(unit)
                else pack_shard_result(_unit_result(*unit[:4]))
                for unit in units
            ]

        reference = _reference_merge(units)
        merges = [
            AuditEngine.merge(results(lambda unit: True)),
            AuditEngine.merge(results(lambda unit: unit[4])),
        ]
        # A table holding packed rows merges into another as well.
        again = FlowTable()
        again.merge(merges[1].flows)
        def owner_of(service, fqdn):
            return _OWNERS.get(fqdn)

        expected = self._views(reference, reference.flows, owner_of)
        for merged in merges:
            assert self._views(merged, merged.flows, owner_of) == expected
            assert merged.contacted == reference.contacted
            assert merged.raw_keys == reference.raw_keys
            assert merged.classified_keys == reference.classified_keys
            assert merged.owners == reference.owners
            assert merged.dataset == reference.dataset
            assert list(merged.dataset.per_service) == list(
                reference.dataset.per_service
            )
            assert merged.trace_count == reference.trace_count
            assert merged.cache_hits == reference.cache_hits
        assert self._views(reference, again, owner_of) == expected

    @staticmethod
    def _views(merged, flows, owner_of):
        """Everything the downstream reads off a table, orders included."""
        cells = [(service, column) for service in _SERVICES for column in ALL_COLUMNS]
        return {
            "observations": flows.observations(),
            "len": len(flows),
            "grid": [flows.grid_for(service) for service in _SERVICES],
            "parties": [
                flows.party_of(service, fqdn)
                for service in _SERVICES
                for fqdn in _FQDNS
            ],
            "type_sets": [
                list(flows.third_party_type_sets(*cell).items()) for cell in cells
            ],
            "unique_flows": flows.unique_flows(),
            "contacts": [
                list(flows.third_party_ats_contacts(*cell).items()) for cell in cells
            ],
            "services": flows.services(),
            "alluvial": alluvial_edges(flows, owner_of),
            "linkability": linkability_matrix(flows),
            "common_set": most_common_linkable_set(flows),
            "census": destination_census(flows, merged.contacted, owner_of),
        }


# Every index field of a packed result, with its pool indexes per
# record; "dataset" is the dataset row's esld set.
_INDEX_FIELDS = (
    ("observations", 8),
    ("parties", 3),
    ("contacted", 1),
    ("raw_keys", 1),
    ("owners", 2),
    ("dataset", 1),
)


# The kind of value each position of a field's records holds.
_FIELD_KINDS = {
    "observations": (str, TraceColumn, Platform, Level3, str, str, PartyLabel, str),
    "parties": (str, str, PartyLabel),
    "contacted": (str,),
    "raw_keys": (str,),
    "owners": (str, (str, type(None))),
    "dataset": (str,),
}


def _index_field(packed, name):
    if name == "dataset":
        return packed.dataset[2] if packed.dataset is not None else b""
    return getattr(packed, name)


def _with_index_field(packed, name, data):
    if name == "dataset":
        packets, tcp_flows, _ = packed.dataset
        return dataclasses.replace(packed, dataset=(packets, tcp_flows, data))
    return dataclasses.replace(packed, **{name: data})


class TestPackedDecodeValidation:
    """A stored payload whose index fields are damaged never decodes:
    the unit store treats it as corrupt and recomputes the unit."""

    @settings(max_examples=80, deadline=None)
    @given(_units(), st.data())
    def test_out_of_pool_index_or_partial_record_is_refused(self, units, data):
        packed_units = [pack_shard_result(_unit_result(*unit[:4])) for unit in units]
        for packed in packed_units:
            decoded = _decode_unit_payload(pickle.dumps(packed), packed.service)
            assert isinstance(decoded, PackedShardResult)
        damageable = [
            p for p in packed_units if any(_index_field(p, n) for n, _ in _INDEX_FIELDS)
        ]
        packed = data.draw(st.sampled_from(damageable))
        name, width = data.draw(
            st.sampled_from([f for f in _INDEX_FIELDS if _index_field(packed, f[0])])
        )
        original = _index_field(packed, name)
        if data.draw(st.booleans(), label="bump an index"):
            indexes = list(unpack_indexes(original))
            indexes[data.draw(st.integers(0, len(indexes) - 1))] = len(packed.pool)
            damaged = pack_indexes(indexes)
        else:
            damaged = original[: -data.draw(st.integers(1, 4 * width - 1))]
        payload = pickle.dumps(_with_index_field(packed, name, damaged))
        assert _decode_unit_payload(payload, packed.service) is None

    @settings(max_examples=80, deadline=None)
    @given(_units(), st.data())
    def test_index_at_a_value_of_another_kind_is_refused(self, units, data):
        # Every index stays inside the pool, but one points at a value
        # its position cannot hold: a string or another enum where an
        # enum belongs, or None where a string does.
        packed_units = [pack_shard_result(_unit_result(*unit[:4])) for unit in units]
        assume(any(p.observations for p in packed_units))
        packed = data.draw(st.sampled_from([p for p in packed_units if p.observations]))
        name, width = data.draw(
            st.sampled_from([f for f in _INDEX_FIELDS if _index_field(packed, f[0])])
        )
        indexes = list(unpack_indexes(_index_field(packed, name)))
        position = data.draw(st.integers(0, len(indexes) - 1))
        kind = _FIELD_KINDS[name][position % width]
        wrong = [
            index
            for index, value in enumerate(packed.pool)
            if not isinstance(value, kind)
        ]
        assume(wrong)
        indexes[position] = data.draw(st.sampled_from(wrong))
        damaged = _with_index_field(packed, name, pack_indexes(indexes))
        payload = pickle.dumps(damaged)
        assert _decode_unit_payload(payload, packed.service) is None


class TestEngineParity:
    """Sequential and parallel paths must be result-identical."""

    CONFIG = CorpusConfig(scale=0.003, seed=11, services=("tiktok", "youtube"))

    def test_sequential_vs_parallel_results(self):
        from repro.reporting.export import result_to_json

        sequential = DiffAudit(self.CONFIG, jobs=1).run()
        parallel = DiffAudit(self.CONFIG, jobs=2).run()
        assert result_to_json(sequential) == result_to_json(parallel)
        assert sequential.flows.observations() == parallel.flows.observations()
        assert sequential.classified_keys == parallel.classified_keys
        assert sequential.unique_data_types == parallel.unique_data_types
        assert sequential.linkability == parallel.linkability
        assert (
            sequential.common_linkable_set == parallel.common_linkable_set
        )

    def test_engine_output_contacts_every_service(self):
        merged = AuditEngine(config=self.CONFIG).run()
        assert set(merged.contacted) == {"tiktok", "youtube"}
        assert merged.trace_count > 0
        assert merged.classified_keys > 0
        # The per-request memoization means far more hits than misses.
        assert merged.cache_hits > merged.cache_misses

    def test_artifacts_written_once_per_shard(self, tmp_path):
        config = CorpusConfig(scale=0.002, seed=3, services=("youtube",))
        AuditEngine(config=config, artifacts_dir=tmp_path).run()
        assert list(tmp_path.glob("*.har"))
        assert list(tmp_path.glob("*.pcap"))


def _result_bytes(result) -> bytes:
    """The audit result as canonical JSON bytes, for byte-equality."""
    from repro.reporting.export import result_to_json

    return json.dumps(result_to_json(result), sort_keys=True).encode()


class TestExecutorParityMatrix:
    """Every jobs × store-temperature cell must produce the
    byte-identical audit result.

    This is the contract that makes ``--jobs`` a pure performance
    knob: sequential at one job is the reference, and no worker count
    or persistent-store state may perturb a single output byte.  Each
    cell also pins the executor its job count selects.
    """

    CONFIG = CorpusConfig(scale=0.002, seed=7, services=("tiktok", "youtube"))
    CELLS = [("sequential", 1), ("process", 2), ("process", 4)]

    @pytest.fixture(scope="class")
    def baseline(self):
        return _result_bytes(DiffAudit(self.CONFIG, jobs=1).run())

    @pytest.fixture(scope="class")
    def warm_cache_dir(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("parity-store")
        DiffAudit(self.CONFIG, jobs=1, cache_dir=cache_dir).run()
        return cache_dir

    def _run(self, jobs, cache_dir):
        result, profile = DiffAudit(
            self.CONFIG, jobs=jobs, cache_dir=cache_dir
        ).run_profiled()
        return _result_bytes(result), profile["engine"]["executor"]

    @pytest.mark.parametrize(("executor", "jobs"), CELLS)
    def test_cold_store_parity(self, executor, jobs, baseline, tmp_path):
        assert self._run(jobs, tmp_path) == (baseline, executor)

    @pytest.mark.parametrize(("executor", "jobs"), CELLS)
    def test_warm_store_parity(self, executor, jobs, baseline, warm_cache_dir):
        assert self._run(jobs, warm_cache_dir) == (baseline, executor)


class TestStoreRoundTripBudget:
    """Batched priming means O(shards) store round-trips, not O(keys)."""

    CONFIG = CorpusConfig(scale=0.002, seed=5, services=("tiktok", "youtube"))

    def _counting_store(self, monkeypatch) -> dict:
        from repro.datatypes.store import ClassificationStore

        calls = {"get_many": 0, "put_many": 0}
        real_get = ClassificationStore.get_many
        real_put = ClassificationStore.put_many

        def counting_get(store, classifier, texts):
            calls["get_many"] += 1
            return real_get(store, classifier, texts)

        def counting_put(store, classifier, verdicts):
            calls["put_many"] += 1
            return real_put(store, classifier, verdicts)

        monkeypatch.setattr(ClassificationStore, "get_many", counting_get)
        monkeypatch.setattr(ClassificationStore, "put_many", counting_put)
        return calls

    def test_cold_audit_one_round_trip_per_shard(self, tmp_path, monkeypatch):
        calls = self._counting_store(monkeypatch)
        DiffAudit(self.CONFIG, jobs=1, cache_dir=tmp_path).run()
        shards = len(self.CONFIG.service_specs())
        assert 1 <= calls["get_many"] <= shards
        assert 1 <= calls["put_many"] <= shards

    def test_warm_audit_never_writes(self, tmp_path, monkeypatch):
        DiffAudit(self.CONFIG, jobs=1, cache_dir=tmp_path).run()  # prime
        calls = self._counting_store(monkeypatch)
        DiffAudit(self.CONFIG, jobs=1, cache_dir=tmp_path).run()
        shards = len(self.CONFIG.service_specs())
        # One batched get per shard answers everything; a fully warm
        # store has no misses left to write back.
        assert 1 <= calls["get_many"] <= shards
        assert calls["put_many"] == 0
