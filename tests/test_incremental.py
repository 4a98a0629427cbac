"""Incremental re-audit: content-addressed units, O(delta) recompute.

Layers of guarantees, each with its own test class:

* the **digest** (:func:`repro.pipeline.replay.unit_digest`) is a pure
  function of a unit's metadata and member-file bytes — identical
  across eager and mmap reads, independent of corpus enumeration
  order, and changed by any single-byte perturbation of any member
  file (Hypothesis pins these as properties, not examples);
* **mutation invalidation**: flipping one byte in exactly one unit's
  artifact makes the warm re-audit recompute exactly that unit
  (observed via a spy on ``process_shard``) and still produce output
  byte-identical to a cold run of the mutated corpus; bumping the
  result schema invalidates everything;
* the **unit-result store UX**: ``stats`` reports unit results,
  version-mismatch rows are pruned not served, and a corrupt payload
  row costs one recomputation and is then replaced;
* **dirty runs**: any mix of cached and dirty units folds to the
  plain report, each maximal run of consecutive dirty units of a
  service is one task, and the tasks store every recomputed unit's
  row (Hypothesis over dirty masks);
* **failed unit writes** change no output bytes, warn, and cost the
  next run exactly the unwritten units.
"""

import dataclasses
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.datatypes.store as store_module
import repro.pipeline.engine as engine_module
from repro import CorpusConfig, DiffAudit
from repro.datatypes.store import (
    ClassificationStore,
    StoreError,
    store_path_for,
    unit_result_epoch,
)
from repro.capture.base import TraceMeta
from repro.flows.dataflow import PACKED_ROW
from repro.model import AgeGroup, Platform, TraceKind
from repro.pipeline.engine import generate_corpus_artifacts
from repro.pipeline.replay import (
    ReplayCorpus,
    ReplayError,
    TraceUnit,
    unit_digest,
)
from repro.reporting.export import result_to_json

CONFIG = CorpusConfig(
    seed=11, scale=0.002, profile="light", services=("tiktok", "youtube")
)


def _meta(service="svc"):
    return TraceMeta(
        service=service,
        platform=Platform.MOBILE,
        kind=TraceKind.LOGGED_IN,
        age=AgeGroup.ADULT,
    )


def _mobile_unit(tmp_path, pcap=b"pcap-bytes", keylog=b"keylog-bytes"):
    pcap_path = tmp_path / "t.pcap"
    pcap_path.write_bytes(pcap)
    keylog_path = None
    if keylog is not None:
        keylog_path = tmp_path / "t.keylog"
        keylog_path.write_bytes(keylog)
    return TraceUnit(meta=_meta(), pcap=pcap_path, keylog=keylog_path)


class TestUnitDigestProperties:
    @given(
        pcap=st.binary(min_size=0, max_size=64),
        keylog=st.one_of(st.none(), st.binary(min_size=0, max_size=64)),
    )
    @settings(max_examples=25, deadline=None)
    def test_eager_and_mmap_reads_agree(self, tmp_path_factory, pcap, keylog):
        unit = _mobile_unit(
            tmp_path_factory.mktemp("digest"), pcap=pcap, keylog=keylog
        )
        assert unit_digest(unit) == unit_digest(unit, eager=True)

    @given(
        pcap=st.binary(min_size=1, max_size=64),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_byte_perturbation_changes_digest(
        self, tmp_path_factory, pcap, data
    ):
        tmp = tmp_path_factory.mktemp("digest")
        unit = _mobile_unit(tmp, pcap=pcap)
        before = unit_digest(unit)
        index = data.draw(st.integers(0, len(pcap) - 1))
        flip = data.draw(st.integers(1, 255))
        mutated = bytearray(pcap)
        mutated[index] ^= flip
        unit.pcap.write_bytes(bytes(mutated))
        assert unit_digest(unit) != before

    def test_independent_of_construction_and_enumeration_order(self, tmp_path):
        generate_corpus_artifacts(CONFIG, tmp_path)
        corpus = ReplayCorpus.scan(tmp_path)
        forward = {u.meta.name: unit_digest(u) for u in corpus.units}
        # A fresh scan and reversed enumeration must address every
        # unit identically: only (metadata, bytes) enter the digest.
        rescanned = ReplayCorpus.scan(tmp_path)
        backward = {
            u.meta.name: unit_digest(u) for u in reversed(rescanned.units)
        }
        assert forward == backward
        assert len(set(forward.values())) == len(forward)  # all distinct

    def test_keylog_presence_is_part_of_the_address(self, tmp_path):
        with_keylog = _mobile_unit(tmp_path, keylog=b"")
        bare = TraceUnit(meta=_meta(), pcap=with_keylog.pcap)
        # Framing records which roles are present: an *empty* keylog
        # still addresses differently from an absent one.
        assert unit_digest(with_keylog) != unit_digest(bare)

    def test_metadata_is_part_of_the_address(self, tmp_path):
        unit = _mobile_unit(tmp_path)
        renamed = dataclasses.replace(unit, meta=_meta(service="other"))
        assert unit_digest(unit) != unit_digest(renamed)

    def test_bytes_cannot_shift_between_member_files(self, tmp_path):
        # Length framing: moving a trailing pcap byte onto the front
        # of the keylog keeps the concatenated byte stream identical
        # but must change the address.
        a = _mobile_unit(tmp_path, pcap=b"ABCX", keylog=b"YZ")
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        b = _mobile_unit(b_dir, pcap=b"ABC", keylog=b"XYZ")
        assert unit_digest(a) != unit_digest(b)

    def test_unreadable_member_file_raises_replay_error(self, tmp_path):
        unit = _mobile_unit(tmp_path)
        unit.pcap.unlink()
        with pytest.raises(ReplayError, match="cannot digest"):
            unit_digest(unit)


@pytest.fixture(scope="module")
def pristine_corpus(tmp_path_factory) -> Path:
    """One generated corpus, treated as read-only; tests copy it."""
    directory = tmp_path_factory.mktemp("incremental-corpus")
    generate_corpus_artifacts(CONFIG, directory)
    return directory


class _ShardSpy:
    """Counts process_shard invocations and the units they carried."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.units: list[str] = []
        real = engine_module.process_shard

        def spy(task):
            self.calls += 1
            self.units.extend(u.meta.name for u in task.replay_units or ())
            return real(task)

        monkeypatch.setattr(engine_module, "process_shard", spy)


def _audit(corpus: Path, cache: Path, **kwargs) -> tuple[str, dict]:
    result, profile = DiffAudit(
        CONFIG, replay=corpus, cache_dir=cache, **kwargs
    ).run_profiled()
    return result_to_json(result), profile["engine"]


class TestMutationInvalidation:
    def _mutable_copy(self, pristine: Path, tmp_path: Path) -> Path:
        corpus = tmp_path / "corpus"
        shutil.copytree(pristine, corpus)
        return corpus

    def test_unchanged_corpus_recomputes_nothing(
        self, pristine_corpus, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cold_json, cold_engine = _audit(pristine_corpus, cache)
        total = cold_engine["unit_misses"]
        assert total > 0 and cold_engine["unit_hits"] == 0
        spy = _ShardSpy(monkeypatch)
        warm_json, warm_engine = _audit(pristine_corpus, cache)
        assert spy.calls == 0
        assert warm_engine["unit_hits"] == total
        assert warm_engine["unit_misses"] == 0
        assert warm_json == cold_json

    @pytest.mark.parametrize("role", ["pcap", "keylog", "har"])
    def test_one_byte_mutation_recomputes_exactly_that_unit(
        self, pristine_corpus, tmp_path, monkeypatch, role
    ):
        corpus = self._mutable_copy(pristine_corpus, tmp_path)
        cache = tmp_path / "cache"
        _audit(corpus, cache)

        scanned = ReplayCorpus.scan(corpus)
        unit = next(u for u in scanned.units if getattr(u, role) is not None)
        before = unit_digest(unit)
        path = getattr(unit, role)
        if role == "pcap":
            # Flip a timestamp byte in the first record header: the
            # decoder accepts any timestamp, so the mutated corpus
            # still replays cleanly.
            raw = bytearray(path.read_bytes())
            raw[24] ^= 0xFF
            path.write_bytes(bytes(raw))
        elif role == "keylog":
            path.write_bytes(path.read_bytes() + b"# mutated\n")
        else:
            path.write_bytes(path.read_bytes() + b"\n")
        assert unit_digest(unit) != before

        spy = _ShardSpy(monkeypatch)
        delta_json, delta_engine = _audit(corpus, cache)
        assert spy.units == [unit.meta.name]
        assert delta_engine["unit_misses"] == 1
        assert delta_engine["unit_hits"] == len(scanned.units) - 1
        # The merged report equals a from-scratch audit of the
        # mutated corpus — cached neighbors plus one recompute.
        fresh = result_to_json(DiffAudit(CONFIG, replay=corpus).run())
        assert delta_json == fresh

    def test_schema_bump_invalidates_every_unit(
        self, pristine_corpus, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cold_json, cold_engine = _audit(pristine_corpus, cache)
        total = cold_engine["unit_misses"]
        monkeypatch.setattr(
            store_module, "UNIT_RESULT_SCHEMA", store_module.UNIT_RESULT_SCHEMA + 1
        )
        spy = _ShardSpy(monkeypatch)
        bumped_json, bumped_engine = _audit(pristine_corpus, cache)
        # Every unit exactly once, in one dirty run per service.
        units = [u.meta.name for u in ReplayCorpus.scan(pristine_corpus).units]
        assert sorted(spy.units) == sorted(units)
        assert spy.calls == len(CONFIG.services)
        assert bumped_engine["unit_misses"] == total
        assert bumped_engine["unit_hits"] == 0
        assert bumped_json == cold_json
        # The old rows are now stale: invisible to lookups, counted
        # for (and removed by) prune.
        with ClassificationStore(store_path_for(cache)) as store:
            assert store.stats().stale_unit_results == total
            assert store.prune_unit_results() == total
            assert store.stats().stale_unit_results == 0
            assert store.stats().total_unit_results == total

    def test_no_incremental_bypasses_the_unit_cache(
        self, pristine_corpus, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cold_json, _ = _audit(pristine_corpus, cache)
        spy = _ShardSpy(monkeypatch)
        off_json, off_engine = _audit(pristine_corpus, cache, incremental=False)
        assert spy.calls > 0
        assert "unit_hits" not in off_engine  # reuse never activated
        assert off_json == cold_json


def _repacked(payload: bytes, **fields) -> bytes:
    packed = pickle.loads(payload)
    assert packed.observations, "the victim unit must have flow rows"
    return pickle.dumps(dataclasses.replace(packed, **fields))


def _fqdn_index_past_pool(payload: bytes) -> bytes:
    """The stored result with its first row's fqdn index one past its
    pool: it still unpickles, but folding it cannot work."""
    packed = pickle.loads(payload)
    row = list(PACKED_ROW.unpack_from(packed.observations))
    row[4] = len(packed.pool)  # FlowObservation.fqdn
    rows = PACKED_ROW.pack(*row) + packed.observations[PACKED_ROW.size :]
    return _repacked(payload, observations=rows)


def _party_index_at_service(payload: bytes) -> bytes:
    """The stored result with its first row's party index pointing at
    its pool's service string: every index stays inside the pool, but
    a party label is not there."""
    packed = pickle.loads(payload)
    row = list(PACKED_ROW.unpack_from(packed.observations))
    row[6] = packed.pool.index(packed.service)  # FlowObservation.party
    rows = PACKED_ROW.pack(*row) + packed.observations[PACKED_ROW.size :]
    return _repacked(payload, observations=rows)


def _rows_cut_mid_row(payload: bytes) -> bytes:
    """The stored result with its row buffer cut half a row short."""
    packed = pickle.loads(payload)
    return _repacked(
        payload, observations=packed.observations[: -PACKED_ROW.size // 2]
    )


class TestUnitResultStoreUX:
    EPOCH = unit_result_epoch("clf", 0.8)

    def test_stats_report_unit_results_per_service(
        self, pristine_corpus, tmp_path
    ):
        cache = tmp_path / "cache"
        _, engine = _audit(pristine_corpus, cache)
        with ClassificationStore(store_path_for(cache)) as store:
            stats = store.stats()
        assert stats.total_unit_results == engine["unit_misses"]
        assert set(stats.unit_results) == {"tiktok", "youtube"}
        assert all(count > 0 for count in stats.unit_results.values())
        assert stats.stale_unit_results == 0

    def test_version_mismatch_rows_never_served_and_pruned(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_unit_results(
                self.EPOCH, [("d1", "svc", b"old")], schema_version=0
            )
            store.put_unit_results(self.EPOCH, [("d2", "svc", b"new")])
            assert store.get_unit_results(self.EPOCH, ["d1", "d2"]) == {
                "d2": b"new"
            }
            stats = store.stats()
            assert stats.unit_results == {"svc": 1}
            assert stats.stale_unit_results == 1
            assert store.prune_unit_results() == 1
            assert store.stats().stale_unit_results == 0
            assert store.get_unit_results(self.EPOCH, ["d2"]) == {"d2": b"new"}

    def test_epoch_scopes_lookups(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_unit_results(self.EPOCH, [("d", "svc", b"a")])
            other = unit_result_epoch("clf", 0.5)
            assert store.get_unit_results(other, ["d"]) == {}
            assert store.get_unit_results(self.EPOCH, ["d"]) == {"d": b"a"}

    def test_epoch_and_schema_scope_deletes(self, tmp_path):
        other = unit_result_epoch("clfB", 0.9)
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_unit_results(self.EPOCH, [("d", "svc", b"a")])
            store.put_unit_results(other, [("d", "svc", b"b")])
            store.put_unit_results(self.EPOCH, [("d", "svc", b"c")], schema_version=0)
            assert store.delete_unit_results(self.EPOCH, ["d"]) == 1
            assert store.get_unit_results(self.EPOCH, ["d"]) == {}
            assert store.get_unit_results(other, ["d"]) == {"d": b"b"}
            assert store.get_unit_results(self.EPOCH, ["d"], schema_version=0) == {
                "d": b"c"
            }

    def test_clear_also_drops_unit_results(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_unit_results(self.EPOCH, [("d", "svc", b"a")])
            store.clear()
            assert store.stats().total_unit_results == 0

    def test_corrupt_row_costs_one_recompute_and_is_replaced(
        self, pristine_corpus, tmp_path, monkeypatch
    ):
        # Each case is one damaged payload for the victim's row: one
        # that does not unpickle, and three that do but cannot be folded.
        cases = [
            ("not-a-pickle", lambda payload: b"not a pickle"),
            ("fqdn-index-past-pool", _fqdn_index_past_pool),
            ("party-index-at-service", _party_index_at_service),
            ("rows-cut-mid-row", _rows_cut_mid_row),
        ]
        victim = ReplayCorpus.scan(pristine_corpus).units_for("tiktok")[0]
        digest = unit_digest(victim)
        epoch = unit_result_epoch("gpt4-majority-avg", 0.8)
        # The victim's healthy row under another configuration must
        # outlive the quarantine: switching back re-hits it.
        other_epoch = unit_result_epoch("gpt4-majority-avg", 0.9)
        for case, damage in cases:
            cache = tmp_path / case
            cold_json, cold_engine = _audit(pristine_corpus, cache)
            total = cold_engine["unit_misses"]
            with ClassificationStore(store_path_for(cache)) as store:
                (payload,) = store.get_unit_results(epoch, [digest]).values()
                store.put_unit_results(
                    epoch, [(digest, victim.meta.service, damage(payload))]
                )
                store.put_unit_results(
                    other_epoch, [(digest, victim.meta.service, payload)]
                )
            spy = _ShardSpy(monkeypatch)
            warm_json, warm_engine = _audit(pristine_corpus, cache)
            assert spy.units == [victim.meta.name], case
            assert warm_engine["unit_misses"] == 1, case
            assert warm_engine["unit_hits"] == total - 1, case
            assert warm_json == cold_json, case
            with ClassificationStore(store_path_for(cache)) as store:
                assert store.get_unit_results(other_epoch, [digest]) == {
                    digest: payload
                }, case
            # The quarantined row was replaced with a servable payload:
            # the next run is fully warm again.
            spy2 = _ShardSpy(monkeypatch)
            again_json, again_engine = _audit(pristine_corpus, cache)
            assert spy2.calls == 0, case
            assert again_engine["unit_hits"] == total, case
            assert again_json == cold_json, case


# ----------------------------------------------------------------------
# Dirty runs: any mix of cached and dirty units folds to the plain report
# ----------------------------------------------------------------------

EPOCH = unit_result_epoch("gpt4-majority-avg", 0.8)
# Longer than the corpus has units; a mask is cut to the corpus.
MASK_SIZE = 64


@pytest.fixture(scope="module")
def plain_json(pristine_corpus) -> str:
    """The plain (store-less) audit every incremental run must match."""
    return result_to_json(DiffAudit(CONFIG, replay=pristine_corpus).run())


@pytest.fixture(scope="module")
def filled_store(pristine_corpus, tmp_path_factory) -> Path:
    """A store a cold audit filled; tests copy it."""
    cache = tmp_path_factory.mktemp("filled-store")
    _audit(pristine_corpus, cache)
    return cache


def _units_by_service(corpus: Path) -> list[list[TraceUnit]]:
    scanned = ReplayCorpus.scan(corpus)
    return [scanned.units_for(service) for service in CONFIG.services]


class TestDirtyRuns:
    @given(
        mask=st.lists(st.booleans(), min_size=MASK_SIZE, max_size=MASK_SIZE),
        jobs=st.sampled_from([1, 2]),
    )
    @example(mask=[False] * MASK_SIZE, jobs=1)
    @example(mask=[True] * MASK_SIZE, jobs=2)
    # Cached units separate dirty ones at the start of the corpus.
    @example(mask=[True, False, True, False, True] + [False] * 59, jobs=1)
    @example(mask=[True, False, True, True] + [False] * 60, jobs=2)
    @settings(max_examples=12, deadline=None)
    def test_any_dirty_mask_folds_to_the_plain_report(
        self, pristine_corpus, plain_json, filled_store, tmp_path_factory, mask, jobs
    ):
        groups = _units_by_service(pristine_corpus)
        units = [unit for group in groups for unit in group]
        assert len(units) <= MASK_SIZE
        dirty = {unit.meta.name for unit, bit in zip(units, mask) if bit}
        runs = sum(
            1
            for group in groups
            for index, unit in enumerate(group)
            if unit.meta.name in dirty
            and (index == 0 or group[index - 1].meta.name not in dirty)
        )
        cache = tmp_path_factory.mktemp("masked") / "cache"
        shutil.copytree(filled_store, cache)
        digests = [unit_digest(unit) for unit in units]
        with ClassificationStore(store_path_for(cache)) as store:
            store.delete_unit_results(
                EPOCH,
                [d for unit, d in zip(units, digests) if unit.meta.name in dirty],
            )
        report, engine = _audit(pristine_corpus, cache, jobs=jobs)
        assert report == plain_json
        assert engine["unit_misses"] == len(dirty)
        assert engine["unit_hits"] == len(units) - len(dirty)
        if jobs == 1:
            # One task per maximal run of consecutive dirty units.
            assert engine["tasks"] == runs
        with ClassificationStore(store_path_for(cache)) as store:
            assert len(store.get_unit_results(EPOCH, digests)) == len(units)


class TestUnitWriteFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_write_changes_no_bytes_and_recomputes_only_its_units(
        self, pristine_corpus, plain_json, tmp_path, monkeypatch, capfd, jobs
    ):
        real = ClassificationStore.put_unit_results

        def put_unit_results(self, epoch, rows, schema_version=None):
            if any(service == "youtube" for _, service, _ in rows):
                raise StoreError("simulated unit-result write failure")
            return real(self, epoch, rows, schema_version)

        # Forked pool workers inherit the patch.
        monkeypatch.setattr(ClassificationStore, "put_unit_results", put_unit_results)
        cache = tmp_path / "cache"
        report, _ = _audit(pristine_corpus, cache, jobs=jobs)
        assert report == plain_json
        assert "could not persist unit results" in capfd.readouterr().err
        monkeypatch.undo()

        spy = _ShardSpy(monkeypatch)
        warm, engine = _audit(pristine_corpus, cache)
        youtube = ReplayCorpus.scan(pristine_corpus).units_for("youtube")
        assert sorted(spy.units) == sorted(unit.meta.name for unit in youtube)
        assert engine["unit_misses"] == len(youtube)
        assert warm == plain_json
