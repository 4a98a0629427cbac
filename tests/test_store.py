"""Unit tests for the persistent classification store."""

import os
import pickle
import sqlite3
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import CorpusConfig, DiffAudit
from repro.datatypes.base import Classification
from repro.datatypes.cache import CachingClassifier
from repro.datatypes.store import (
    ClassificationStore,
    PersistentClassifier,
    StoreError,
    store_path_for,
)
from repro.ontology.nodes import Level3
from repro.pipeline.engine import AuditEngine
from repro.reporting.export import result_to_json


def _verdict(text, label=Level3.AGE, confidence=0.9, explanation="x"):
    return Classification(
        text=text, label=label, confidence=confidence, explanation=explanation
    )


class BatchCountingClassifier:
    """Counts classify/classify_batch invocations and keys classified."""

    name = "batch-counting"

    def __init__(self):
        self.batch_calls = 0
        self.keys_classified = 0

    def classify(self, text):
        return self.classify_batch([text])[0]

    def classify_batch(self, texts):
        self.batch_calls += 1
        self.keys_classified += len(texts)
        return [_verdict(text) for text in texts]


class TestClassificationStore:
    def test_roundtrip(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            verdicts = [
                _verdict("age", Level3.AGE, 0.93, "clear"),
                _verdict("bffp", None, 0.31, "declined"),
            ]
            store.put_many("clf", verdicts)
            found = store.get_many("clf", ["age", "bffp", "unseen"])
        assert found["age"] == verdicts[0]
        assert found["bffp"] == verdicts[1]
        assert found["bffp"].label is None
        assert "unseen" not in found

    def test_entries_keyed_by_classifier(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_many("a", [_verdict("k", Level3.AGE)])
            store.put_many("b", [_verdict("k", Level3.NAME)])
            assert store.get("a", "k").label is Level3.AGE
            assert store.get("b", "k").label is Level3.NAME
            assert store.stats().entries == {"a": 1, "b": 1}

    def test_racing_duplicates_ignored(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_many("clf", [_verdict("k", confidence=0.9)])
            store.put_many("clf", [_verdict("k", confidence=0.1)])
            assert store.get("clf", "k").confidence == 0.9

    def test_large_batch_crosses_chunk_boundary(self, tmp_path):
        keys = [f"key-{i}" for i in range(1000)]
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_many("clf", [_verdict(key) for key in keys])
            found = store.get_many("clf", keys)
        assert len(found) == 1000

    def test_prune_and_clear(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.put_many(
                "a", [_verdict("low", confidence=0.2), _verdict("high")]
            )
            store.put_many("b", [_verdict("other")])
            assert store.prune(below=0.5) == 1
            assert store.prune(classifier="b") == 1
            assert store.stats().entries == {"a": 1}
            assert store.clear() == 1
            assert store.stats().total_entries == 0
            assert store.stats().run_count == 0

    def test_prune_needs_a_criterion(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError):
                store.prune()

    def test_run_records(self, tmp_path):
        with ClassificationStore(tmp_path / "s.sqlite") as store:
            store.record_run("clf", memory_hits=10, store_hits=5, misses=0)
            stats = store.stats()
        assert stats.run_count == 1
        assert stats.last_run.lookups == 15
        assert stats.last_run.hit_rate == 1.0

    def test_corrupt_store_recovered(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is definitely not an sqlite database" * 40)
        with ClassificationStore(path) as store:
            store.put_many("clf", [_verdict("k")])
            assert store.get("clf", "k") is not None
        # The corrupt bytes were quarantined, not destroyed.
        assert (tmp_path / "s.sqlite.corrupt").exists()

    def test_corrupt_store_without_recovery_raises_and_keeps_file(self, tmp_path):
        path = tmp_path / "s.sqlite"
        garbage = b"not an sqlite database" * 40
        path.write_bytes(garbage)
        with pytest.raises(StoreError, match="corrupt"):
            ClassificationStore(path, recover=False)
        # Evidence preserved for salvage: no quarantine, no rebuild.
        assert path.read_bytes() == garbage
        assert not (tmp_path / "s.sqlite.corrupt").exists()

    def test_transient_corruption_recovers_without_quarantine(self, tmp_path):
        # One corrupt read over a healthy file (or a store a racing
        # worker already rebuilt): reconnect-and-retry must succeed
        # WITHOUT moving the healthy file aside or losing its entries.
        class CorruptOnce:
            def __init__(self, real):
                self._real = real
                self.fired = False

            def execute(self, *args):
                if not self.fired:
                    self.fired = True
                    raise sqlite3.DatabaseError(
                        "database disk image is malformed"
                    )
                return self._real.execute(*args)

            def __getattr__(self, name):
                return getattr(self._real, name)

        path = tmp_path / "s.sqlite"
        with ClassificationStore(path) as store:
            store.put_many("clf", [_verdict("k")])
            store._conn = CorruptOnce(store._conn)
            assert store.get("clf", "k") is not None  # data survived
        assert not (tmp_path / "s.sqlite.corrupt").exists()

    def test_corruption_mid_operation_quarantines_and_rebuilds(self, tmp_path):
        # A store can pass the connect-time check (valid header) and
        # still surface corruption on a later page read; when the
        # corruption survives a reconnect, the operation must
        # quarantine, rebuild and retry instead of crashing the audit.
        class CorruptAlways:
            def __init__(self, real):
                self._real = real

            def execute(self, *args):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def __getattr__(self, name):
                return getattr(self._real, name)

        path = tmp_path / "s.sqlite"
        with ClassificationStore(path) as store:
            store.put_many("clf", [_verdict("k")])
            # Make the on-disk file genuinely unreadable so the
            # reconnect-and-retry fails too, forcing quarantine.
            store._conn.close()
            path.write_bytes(b"valid header gone" * 50)
            store._conn = CorruptAlways(store._conn)
            assert store.get_many("clf", ["k"]) == {}  # rebuilt empty
            store.put_many("clf", [_verdict("k2")])
            assert store.get("clf", "k2") is not None
        assert (tmp_path / "s.sqlite.corrupt").exists()

    def test_corruption_mid_operation_without_recovery_raises(self, tmp_path):
        class CorruptAlways:
            def __init__(self, real):
                self._real = real

            def execute(self, *args):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def __getattr__(self, name):
                return getattr(self._real, name)

        path = tmp_path / "s.sqlite"
        store = ClassificationStore(path, recover=False)
        store._conn = CorruptAlways(store._conn)
        with pytest.raises(StoreError, match="corrupt"):
            store.get_many("clf", ["k"])
        assert not (tmp_path / "s.sqlite.corrupt").exists()

    def test_locked_store_waits_out_short_transactions(self, tmp_path):
        # A writer holding the database briefly must not fail readers
        # or other writers — the busy timeout absorbs the contention.
        path = tmp_path / "s.sqlite"
        with ClassificationStore(path) as store:
            blocker = sqlite3.connect(path, timeout=30.0)
            blocker.execute("BEGIN IMMEDIATE")
            blocker.execute(
                "INSERT OR IGNORE INTO classifications VALUES "
                "('clf', 'held', 'Age', 0.5, '')"
            )
            blocker.commit()  # release immediately: WAL readers never block
            blocker.close()
            store.put_many("clf", [_verdict("after")])
            assert store.get("clf", "after") is not None


def _worker_put(args):
    path, worker = args
    with ClassificationStore(path) as store:
        verdicts = [_verdict(f"w{worker}-k{i}") for i in range(50)]
        store.put_many("clf", verdicts)
        # Every worker also writes a shared key: racing writers must
        # coexist, with first-write-wins on the duplicate.
        store.put_many("clf", [_verdict("shared", confidence=0.5)])
    return worker


def _open_at(args):
    path, start = args
    # Line every opener up on one instant (the monotonic clock is
    # system-wide on Linux, so processes can share it).
    while time.monotonic() < start:
        pass
    with ClassificationStore(path) as store:
        store.put_many("clf", [_verdict("shared")])
    return True


class TestConcurrentAccess:
    def test_simultaneous_opens_of_a_fresh_store(self, tmp_path):
        # More openers than cores race to create one fresh store per
        # round; the loser of the switch to WAL must wait, not fail
        # with "database is locked".
        openers = (os.cpu_count() or 1) + 2
        with ProcessPoolExecutor(max_workers=openers) as pool:
            for round_ in range(30):
                start = time.monotonic() + 0.05
                job = (tmp_path / f"s{round_}.sqlite", start)
                futures = [pool.submit(_open_at, job) for _ in range(openers)]
                assert all(future.result(timeout=60) for future in futures)

    def test_multi_process_writers(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ProcessPoolExecutor(max_workers=4) as pool:
            done = list(pool.map(_worker_put, [(path, w) for w in range(4)]))
        assert sorted(done) == [0, 1, 2, 3]
        with ClassificationStore(path) as store:
            assert store.stats().total_entries == 4 * 50 + 1
            assert store.get("clf", "shared").confidence == 0.5


class TestPersistentClassifier:
    def test_second_instance_answers_from_disk(self, tmp_path):
        path = tmp_path / "s.sqlite"
        first_inner = BatchCountingClassifier()
        first = PersistentClassifier(first_inner, path)
        first.classify_batch(["a", "b", "a"])
        assert first_inner.keys_classified == 2
        assert first.misses == 2

        second_inner = BatchCountingClassifier()
        second = PersistentClassifier(second_inner, path)
        verdicts = second.classify_batch(["a", "b"])
        assert [v.text for v in verdicts] == ["a", "b"]
        assert second_inner.keys_classified == 0
        assert second.store_hits == 2 and second.misses == 0
        assert second.hit_rate == 1.0

    def test_misses_drain_in_one_inner_batch(self, tmp_path):
        inner = BatchCountingClassifier()
        persistent = PersistentClassifier(inner, tmp_path / "s.sqlite")
        persistent.classify_batch(["a", "b", "c", "a"])
        assert inner.batch_calls == 1
        assert inner.keys_classified == 3

    def test_layers_under_caching_classifier(self, tmp_path):
        inner = BatchCountingClassifier()
        persistent = PersistentClassifier(inner, tmp_path / "s.sqlite")
        cache = CachingClassifier.wrap(persistent)
        cache.classify_batch(["a", "b"])
        cache.classify_batch(["a", "b", "c"])
        # Memory layer absorbed the repeats; the store only ever saw
        # each unique key once, the inner one batched call per miss set.
        assert cache.hits == 2 and cache.misses == 3
        assert persistent.misses == 3
        assert inner.batch_calls == 2

    def test_pickle_drops_connection_and_reopens(self, tmp_path):
        persistent = PersistentClassifier(
            BatchCountingClassifier(), tmp_path / "s.sqlite"
        )
        persistent.classify_batch(["a"])
        clone = pickle.loads(pickle.dumps(persistent))
        assert clone._store is None
        assert clone.classify("a").text == "a"
        assert clone.store_hits == persistent.store_hits + 1

    def test_mid_run_store_failure_degrades_to_inner(self, tmp_path, capsys):
        # The store is a performance artifact: once open, a failing
        # store must disable itself with a warning and let the inner
        # classifier carry the run, never crash it.
        inner = BatchCountingClassifier()
        persistent = PersistentClassifier(inner, tmp_path / "s.sqlite")
        persistent.classify_batch(["a"])  # opens the store

        def explode(*args, **kwargs):
            raise StoreError("store went away")

        persistent.store.get_many = explode
        persistent.store.put_many = explode
        verdicts = persistent.classify_batch(["a", "b"])
        assert [v.text for v in verdicts] == ["a", "b"]
        assert persistent._disabled
        assert "disabled for this process" in capsys.readouterr().err
        # Later batches skip the store without further warnings.
        assert persistent.classify_batch(["c"])[0].text == "c"
        assert inner.keys_classified == 4  # a + (a, b) + c

    def test_unusable_cache_dir_fails_fast_at_engine_construction(self, tmp_path):
        from repro.pipeline.engine import AuditEngine

        target = tmp_path / "occupied"
        target.write_text("a file, not a directory")
        with pytest.raises(StoreError, match="cannot create"):
            AuditEngine(config=self.CONFIG_FAST, cache_dir=target / "sub")

    CONFIG_FAST = CorpusConfig(scale=0.002, services=("youtube",))

    def test_wrap_is_idempotent(self, tmp_path):
        path = tmp_path / "s.sqlite"
        persistent = PersistentClassifier.wrap(BatchCountingClassifier(), path)
        assert PersistentClassifier.wrap(persistent, path) is persistent
        assert persistent.name == "persistent-batch-counting"


class TestWarmPathAudits:
    CONFIG = CorpusConfig(scale=0.003, seed=11, services=("tiktok", "youtube"))

    def test_cold_vs_warm_byte_identical_and_zero_inner_calls(self, tmp_path):
        baseline = result_to_json(DiffAudit(self.CONFIG).run())
        cold = DiffAudit(self.CONFIG, cache_dir=tmp_path).run()
        warm = DiffAudit(self.CONFIG, cache_dir=tmp_path).run()
        assert result_to_json(cold) == baseline
        assert result_to_json(warm) == baseline

        engine = AuditEngine(config=self.CONFIG, cache_dir=tmp_path)
        merged = engine.run()
        assert merged.store_misses == 0  # zero inner-classifier calls
        assert merged.store_hits > 0

    def test_parallel_shards_reuse_across_processes(self, tmp_path):
        # PR 1 limitation: the in-memory cache was shared only in
        # sequential mode.  With the store, every parallel shard must
        # observe cross-shard (here: cross-run, via disk) reuse.
        DiffAudit(self.CONFIG, cache_dir=tmp_path, jobs=1).run()
        engine = AuditEngine(config=self.CONFIG, cache_dir=tmp_path, jobs=2)
        tasks = engine.shard_tasks()
        from repro.pipeline.engine import ProcessPoolShardExecutor

        results = ProcessPoolShardExecutor(jobs=2).map_shards(tasks)
        assert len(results) == 2
        for shard in results:
            assert shard.store_hits > 0, f"{shard.service} saw no store reuse"
            assert shard.store_misses == 0
        merged = AuditEngine.merge(results)
        assert result_to_json(
            DiffAudit(self.CONFIG).run()
        ) == result_to_json(
            DiffAudit(self.CONFIG, cache_dir=tmp_path, jobs=2).run()
        )
        assert merged.store_hits == sum(r.store_hits for r in results)

    def test_run_records_appended(self, tmp_path):
        AuditEngine(config=self.CONFIG, cache_dir=tmp_path).run()
        AuditEngine(config=self.CONFIG, cache_dir=tmp_path).run()
        with ClassificationStore(store_path_for(tmp_path)) as store:
            stats = store.stats()
        assert stats.run_count == 2
        assert stats.last_run.misses == 0
        assert stats.last_run.hit_rate == 1.0
