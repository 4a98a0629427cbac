"""Persistent, process-safe classification store.

The paper's core economy is classifying ~3,968 unique raw data types
once instead of 440K packets (§3.2.2).  :class:`~repro.datatypes.cache.
CachingClassifier` realizes that within one process and one run; this
module extends it across both:

* :class:`ClassificationStore` — an SQLite-backed key→verdict store
  keyed by ``(classifier_name, text)``, WAL-journaled so concurrent
  shard workers (``--jobs N``) and concurrent runs can read and write
  the same file safely;
* :class:`PersistentClassifier` — a classifier wrapper that answers
  from the store before falling back to the wrapped (expensive) inner
  classifier, writing fresh verdicts through so the next lookup — in
  another worker process or another run — hits disk instead.

Layering is deliberate: the in-memory :class:`CachingClassifier` stays
the top layer (process-local dict lookups), the store sits under it
(cross-process, cross-run), and the inner classifier is the layer of
last resort.  Classification is a pure function of the key, so neither
cache layer can change any result — only how often the expensive path
runs.  The store file is self-contained and relocatable; deleting it
merely makes the next run cold.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.datatypes.base import Classification, Classifier, batch_classify
from repro.obs.metrics import REGISTRY
from repro.ontology.nodes import Level3

_STORE_HITS = REGISTRY.counter("repro_store_hits_total")
_STORE_MISSES = REGISTRY.counter("repro_store_misses_total")
_STORE_GET_SECONDS = REGISTRY.histogram("repro_store_get_seconds")
_STORE_PUT_SECONDS = REGISTRY.histogram("repro_store_put_seconds")
_STORE_DISABLED = REGISTRY.gauge("repro_store_disabled")

STORE_FILENAME = "classifications.sqlite"

# SQLite's default variable limit is 999; stay comfortably under it
# when expanding IN (...) lookups.
_CHUNK = 400

# How long one connection waits for another's lock before failing.
_BUSY_TIMEOUT_S = 30.0

# Result-schema version for per-unit replay results (the incremental
# re-audit cache).  Bump whenever the *meaning* of a stored payload
# changes — a new PackedShardResult layout, a pipeline change that
# alters shard output for identical input bytes.  Rows recorded under
# an older version are never served and are aged out by
# ``prune_unit_results`` (``repro cache prune --unit-results``).
# 2: rows and index sets are fixed-width uint32 ``bytes``, the
# duplicate ``classified`` set is gone and the dataset row ships as
# (packets, tcp_flows, esld indexes) — schema-1 payloads hold tuples
# of ints and a whole DatasetSummary, which this build cannot fold.
UNIT_RESULT_SCHEMA = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS classifications (
    classifier  TEXT NOT NULL,
    text        TEXT NOT NULL,
    label       TEXT,
    confidence  REAL NOT NULL,
    explanation TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (classifier, text)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    classifier  TEXT NOT NULL,
    memory_hits INTEGER NOT NULL,
    store_hits  INTEGER NOT NULL,
    misses      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS unit_results (
    digest         TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    epoch          TEXT NOT NULL,
    service        TEXT NOT NULL,
    payload        BLOB NOT NULL,
    PRIMARY KEY (digest, schema_version, epoch)
) WITHOUT ROWID;
"""


def unit_result_epoch(classifier_name: str, confidence_threshold: float) -> str:
    """The invalidation scope one stored unit result is valid under.

    A unit's digest addresses its *input bytes*; the epoch names the
    *processing configuration* those bytes were run through — the
    classifier and the confidence threshold, the two knobs that change
    shard output for identical input.  Kept out of the digest so a
    config switch leaves old rows intact (switching back re-hits them)
    instead of silently orphaning them under unreachable digests.
    """
    return f"{classifier_name}@{confidence_threshold:g}"


class StoreError(Exception):
    """A classification store problem the caller should surface."""


@dataclass(frozen=True)
class RunRecord:
    """Hit/miss counters one pipeline run recorded in the store."""

    id: int
    classifier: str
    memory_hits: int
    store_hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without the inner classifier."""
        total = self.lookups
        return (self.memory_hits + self.store_hits) / total if total else 0.0

    def summary(self) -> str:
        """The one-line form both ``cache stats`` and ``classify
        --verbose`` print (the CI parity job greps its hit rate)."""
        return (
            f"{self.lookups} lookups — {self.memory_hits} memory hits, "
            f"{self.store_hits} store hits, {self.misses} classified "
            f"(hit rate {self.hit_rate:.1%})"
        )


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store file."""

    path: Path
    entries: dict[str, int]  # classifier name -> stored verdicts
    run_count: int
    last_run: RunRecord | None
    # Per-unit replay results under the *current* result schema,
    # keyed by service; rows recorded under older schema versions are
    # counted separately (they are prune fodder, never served).
    unit_results: dict[str, int] = field(default_factory=dict)
    stale_unit_results: int = 0

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_unit_results(self) -> int:
        return sum(self.unit_results.values())


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Put the connection's database in WAL mode, waiting out rivals.

    The switch upgrades a read lock to the write lock, and SQLite
    refuses that upgrade at once with "database is locked" (skipping
    the busy timeout) while another connection holds the write lock —
    as it does when several processes open one fresh store together.
    So retry for as long as the busy timeout would have waited; once
    one opener has switched the file, the pragma is a no-op.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
        time.sleep(0.01)


def store_path_for(cache_dir: Path | str) -> Path:
    """The store file a ``--cache-dir`` directory holds."""
    return Path(cache_dir) / STORE_FILENAME


class ClassificationStore:
    """SQLite-backed ``(classifier, text) -> Classification`` store.

    Safe for concurrent readers and writers across processes: WAL
    journaling lets readers proceed during a write, a generous busy
    timeout serializes writers, and inserts are ``OR IGNORE`` —
    classification is pure, so two workers racing on the same key
    write the same verdict and either copy is correct.

    A corrupt store file (truncated disk, garbage bytes) is recovered
    by moving it aside to ``<name>.corrupt`` and starting empty: the
    cache is a performance artifact, never the source of truth, so
    losing it only makes the next run cold.  Corruption can also
    surface mid-operation (a valid header over damaged pages), so
    every query runs under the same quarantine-and-retry.  Pass
    ``recover=False`` to raise :class:`StoreError` instead — for
    inspection commands that must never destroy evidence they were
    asked to report on.
    """

    def __init__(self, path: Path | str, recover: bool = True) -> None:
        self.path = Path(path)
        self.recover = recover
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --cache-dir points at a file, unwritable, …
            raise StoreError(
                f"cannot create classification store directory "
                f"{self.path.parent}: {exc}"
            ) from exc
        try:
            self._conn = self._open()
        except sqlite3.Error as exc:  # unopenable, locked beyond timeout, …
            raise StoreError(
                f"cannot open classification store {self.path}: {exc}"
            ) from exc

    # -- connection lifecycle -------------------------------------------

    @staticmethod
    def _is_corruption(exc: sqlite3.DatabaseError) -> bool:
        """Corruption (SQLITE_CORRUPT/NOTADB) vs. operational errors.

        Locked/busy databases raise OperationalError and must never be
        quarantined — they are healthy files in momentary contention.
        """
        return not isinstance(
            exc,
            (
                sqlite3.OperationalError,
                sqlite3.IntegrityError,
                sqlite3.ProgrammingError,
            ),
        )

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError as exc:
            if not self._is_corruption(exc):
                raise  # locked/unopenable is not corruption: keep the file
            if not self.recover:
                raise StoreError(
                    f"classification store {self.path} is corrupt ({exc}); "
                    "delete it (or the --cache-dir) to start cold"
                ) from exc
            return self._recover_connection()

    def _recover_connection(self) -> sqlite3.Connection:
        """Quarantine a corrupt store and reconnect, race-tolerantly.

        Under ``--jobs N`` several workers can hit the same corrupt
        file at once.  Reconnecting first gives whoever lost the race
        the store the winner already rebuilt, instead of moving the
        winner's healthy file aside; a file another process quarantined
        in the meantime counts as handled, not as a new failure.
        """
        try:
            return self._connect()
        except sqlite3.DatabaseError as exc:
            if not self._is_corruption(exc):
                raise
        self._quarantine()
        return self._connect()

    def _execute(self, operation):
        """Run one store operation; nothing escapes but StoreError.

        SQLite failures that survive recovery — lock timeouts, I/O
        errors — are wrapped so callers have one exception type for
        "the store is unusable" and can degrade instead of crashing.
        """
        try:
            return self._execute_with_recovery(operation)
        except sqlite3.Error as exc:
            raise StoreError(
                f"classification store {self.path} operation failed: {exc}"
            ) from exc

    def _execute_with_recovery(self, operation):
        """Run one store operation, quarantining corruption mid-flight.

        ``operation`` is a zero-argument closure reading ``self._conn``
        at call time, so each retry runs against whichever connection
        recovery installed — a fresh one to the intact file, or to the
        rebuilt (empty) store after quarantine.
        """
        try:
            return operation()
        except sqlite3.DatabaseError as exc:
            if not self._is_corruption(exc):
                raise
            if not self.recover:
                raise StoreError(
                    f"classification store {self.path} is corrupt ({exc}); "
                    "delete it (or the --cache-dir) to start cold"
                ) from exc
            self._conn.close()
            # Reconnect and retry first: a racing worker may have
            # already quarantined and rebuilt the store, or the error
            # was transient — quarantining then would discard a healthy
            # file.  Only corruption that survives a fresh connection
            # gets the file moved aside.
            try:
                self._conn = self._connect()
                return operation()
            except sqlite3.DatabaseError as retry_exc:
                if not self._is_corruption(retry_exc):
                    raise
                self._conn.close()
                self._quarantine()
                self._conn = self._connect()
                return operation()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        try:
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> None:
        """Move a corrupt store aside so a fresh one can be created."""
        corrupt = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, corrupt)
        # repro-lint: disable=X-SWALLOW — a racing process already quarantined the file; the recovery goal is met either way
        except FileNotFoundError:
            pass
        except OSError as exc:  # unreadable *and* unmovable: give up
            raise StoreError(
                f"classification store {self.path} is corrupt and could "
                f"not be moved aside: {exc}"
            ) from exc

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ClassificationStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- lookups ---------------------------------------------------------

    def get_many(
        self, classifier: str, texts: list[str]
    ) -> dict[str, Classification]:
        """Stored verdicts for the given keys (missing keys absent)."""

        def lookup() -> dict[str, Classification]:
            found: dict[str, Classification] = {}
            for start in range(0, len(texts), _CHUNK):
                chunk = texts[start : start + _CHUNK]
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT text, label, confidence, explanation "
                    f"FROM classifications WHERE classifier = ? "
                    f"AND text IN ({placeholders})",
                    [classifier, *chunk],
                )
                for text, label, confidence, explanation in rows:
                    found[text] = Classification(
                        text=text,
                        label=Level3(label) if label is not None else None,
                        confidence=confidence,
                        explanation=explanation,
                    )
            return found

        return self._execute(lookup)

    def get(self, classifier: str, text: str) -> Classification | None:
        return self.get_many(classifier, [text]).get(text)

    def put_many(
        self, classifier: str, verdicts: list[Classification]
    ) -> None:
        """Write verdicts through; racing duplicates are ignored."""
        if not verdicts:
            return
        rows = [
            (
                classifier,
                verdict.text,
                verdict.label.value if verdict.label is not None else None,
                verdict.confidence,
                verdict.explanation,
            )
            for verdict in verdicts
        ]

        def write() -> None:
            self._conn.executemany(
                "INSERT OR IGNORE INTO classifications "
                "(classifier, text, label, confidence, explanation) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()

        self._execute(write)

    # -- per-unit replay results (incremental re-audit) ------------------

    def get_unit_results(
        self, epoch: str, digests: list[str], schema_version: int | None = None
    ) -> dict[str, bytes]:
        """Stored unit payloads for the given digests (missing absent).

        Only rows recorded under the current result schema *and* the
        requested epoch are served — anything else is invisible to
        lookups (and prunable), never silently wrong.
        """
        if schema_version is None:
            schema_version = UNIT_RESULT_SCHEMA

        def lookup() -> dict[str, bytes]:
            found: dict[str, bytes] = {}
            for start in range(0, len(digests), _CHUNK):
                chunk = digests[start : start + _CHUNK]
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT digest, payload FROM unit_results "
                    f"WHERE schema_version = ? AND epoch = ? "
                    f"AND digest IN ({placeholders})",
                    [schema_version, epoch, *chunk],
                )
                for digest, payload in rows:
                    found[digest] = payload
            return found

        return self._execute(lookup)

    def put_unit_results(
        self,
        epoch: str,
        rows: list[tuple[str, str, bytes]],
        schema_version: int | None = None,
    ) -> None:
        """Write ``(digest, service, payload)`` rows through.

        ``OR REPLACE`` rather than ``OR IGNORE``: a digest being
        rewritten means its previous payload was judged unusable
        (corrupt-row quarantine), and shard processing is deterministic
        — racing writers produce equivalent payloads, so last-write-
        wins is safe.
        """
        if not rows:
            return
        if schema_version is None:
            schema_version = UNIT_RESULT_SCHEMA
        records = [
            (digest, schema_version, epoch, service, payload)
            for digest, service, payload in rows
        ]

        def write() -> None:
            self._conn.executemany(
                "INSERT OR REPLACE INTO unit_results "
                "(digest, schema_version, epoch, service, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                records,
            )
            self._conn.commit()

        self._execute(write)

    def delete_unit_results(self, epoch: str, digests: list[str]) -> int:
        """Drop specific rows (corrupt-payload quarantine); returns count.

        Scoped like :meth:`get_unit_results`: only the rows of
        ``digests`` under the current result schema and ``epoch`` go.
        The same units' rows under other epochs are healthy results of
        another configuration, which switching back must re-hit.
        """
        if not digests:
            return 0

        def delete() -> int:
            removed = 0
            for start in range(0, len(digests), _CHUNK):
                chunk = digests[start : start + _CHUNK]
                placeholders = ",".join("?" * len(chunk))
                cursor = self._conn.execute(
                    f"DELETE FROM unit_results "
                    f"WHERE schema_version = ? AND epoch = ? "
                    f"AND digest IN ({placeholders})",
                    [UNIT_RESULT_SCHEMA, epoch, *chunk],
                )
                removed += cursor.rowcount
            self._conn.commit()
            return removed

        return self._execute(delete)

    def prune_unit_results(self, schema_version: int | None = None) -> int:
        """Age out unit results from older result-schema versions.

        Deliberately *not* wall-clock based (determinism contract):
        staleness here means "recorded under a schema this build will
        never serve", which is exactly the set lookups skip over.
        Returns how many rows were removed.
        """
        if schema_version is None:
            schema_version = UNIT_RESULT_SCHEMA

        def delete() -> int:
            cursor = self._conn.execute(
                "DELETE FROM unit_results WHERE schema_version != ?",
                (schema_version,),
            )
            self._conn.commit()
            return cursor.rowcount

        return self._execute(delete)

    # -- instrumentation -------------------------------------------------

    def record_run(
        self, classifier: str, memory_hits: int, store_hits: int, misses: int
    ) -> None:
        """Append one run's hit/miss counters (``cache stats`` history)."""

        def write() -> None:
            self._conn.execute(
                "INSERT INTO runs (classifier, memory_hits, store_hits, misses) "
                "VALUES (?, ?, ?, ?)",
                (classifier, memory_hits, store_hits, misses),
            )
            self._conn.commit()

        self._execute(write)

    def stats(self) -> StoreStats:
        def read() -> StoreStats:
            entries = dict(
                self._conn.execute(
                    "SELECT classifier, COUNT(*) FROM classifications "
                    "GROUP BY classifier ORDER BY classifier"
                )
            )
            run_count = self._conn.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()[0]
            last = self._conn.execute(
                "SELECT id, classifier, memory_hits, store_hits, misses "
                "FROM runs ORDER BY id DESC LIMIT 1"
            ).fetchone()
            unit_results = dict(
                self._conn.execute(
                    "SELECT service, COUNT(*) FROM unit_results "
                    "WHERE schema_version = ? GROUP BY service ORDER BY service",
                    (UNIT_RESULT_SCHEMA,),
                )
            )
            stale = self._conn.execute(
                "SELECT COUNT(*) FROM unit_results WHERE schema_version != ?",
                (UNIT_RESULT_SCHEMA,),
            ).fetchone()[0]
            return StoreStats(
                path=self.path,
                entries=entries,
                run_count=run_count,
                last_run=RunRecord(*last) if last else None,
                unit_results=unit_results,
                stale_unit_results=stale,
            )

        return self._execute(read)

    def entries(
        self, classifier: str | None = None
    ) -> Iterator[tuple[str, Classification]]:
        """Every stored verdict, ``(classifier_name, verdict)`` pairs."""
        query = (
            "SELECT classifier, text, label, confidence, explanation "
            "FROM classifications"
        )
        params: tuple = ()
        if classifier is not None:
            query += " WHERE classifier = ?"
            params = (classifier,)
        query += " ORDER BY classifier, text"
        rows = self._execute(
            lambda: self._conn.execute(query, params).fetchall()
        )
        for name, text, label, confidence, explanation in rows:
            yield name, Classification(
                text=text,
                label=Level3(label) if label is not None else None,
                confidence=confidence,
                explanation=explanation,
            )

    # -- maintenance -----------------------------------------------------

    def prune(
        self, classifier: str | None = None, below: float | None = None
    ) -> int:
        """Delete matching entries; returns how many were removed.

        ``classifier`` restricts to one classifier's entries; ``below``
        removes entries with confidence under the threshold (they would
        be re-asked and re-filtered next run anyway — results cannot
        change, classification is pure).  At least one criterion is
        required: wiping everything is :meth:`clear`'s explicit job.
        """
        if classifier is None and below is None:
            raise StoreError("prune needs a criterion (classifier or below)")
        clauses, params = [], []
        if classifier is not None:
            clauses.append("classifier = ?")
            params.append(classifier)
        if below is not None:
            clauses.append("confidence < ?")
            params.append(below)
        def delete() -> int:
            cursor = self._conn.execute(
                f"DELETE FROM classifications WHERE {' AND '.join(clauses)}",
                params,
            )
            self._conn.commit()
            return cursor.rowcount

        return self._execute(delete)

    def clear(self) -> int:
        """Delete every entry, unit result and the run history;
        returns the classification-entry count (the number the CLI has
        always reported)."""

        def delete() -> int:
            cursor = self._conn.execute("DELETE FROM classifications")
            self._conn.execute("DELETE FROM runs")
            self._conn.execute("DELETE FROM unit_results")
            self._conn.commit()
            return cursor.rowcount

        return self._execute(delete)


@dataclass
class PersistentClassifier:
    """Disk-persistence layer between a cache and the inner classifier.

    Answers from the :class:`ClassificationStore` at ``path`` and
    falls back to ``inner`` (one batched call per miss set), writing
    fresh verdicts through.  Store entries are keyed by ``inner.name``,
    so any wrapper stack over the same inner classifier shares them.

    Instances are picklable: the SQLite connection is process-local
    state, dropped on pickling and lazily reopened in whichever worker
    process the copy lands in (``--jobs N`` shard tasks carry one).

    A store failure mid-run (lock timeout, I/O error, unrecoverable
    corruption) disables the layer for this process with a warning and
    falls through to the inner classifier: the store is a performance
    artifact, and a completed audit must never be discarded over it.
    Opening an *unusable* store in the first place still raises
    :class:`StoreError` — callers that want fail-fast validation of a
    fresh ``--cache-dir`` touch :attr:`store` eagerly.
    """

    inner: Classifier
    path: Path
    name: str = field(init=False)
    store_hits: int = 0
    misses: int = 0
    # Cumulative wall time spent in store round-trips (the profiling
    # layer reports these as the ``store_get``/``store_put`` stages).
    store_get_s: float = 0.0
    store_put_s: float = 0.0
    # Optional fault-injection plan (repro.faults.FaultPlan): when it
    # injects store faults, the opened store is wrapped in a FlakyStore
    # proxy that raises deterministic transient StoreErrors.  Pickles
    # with the classifier so pool workers inject the same schedule.
    faults: object | None = None
    _store: ClassificationStore | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _store_pid: int = field(default=-1, init=False, repr=False, compare=False)
    _disabled: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self.name = f"persistent-{self.inner.name}"

    @classmethod
    def wrap(
        cls,
        classifier: Classifier,
        path: Path | str,
        faults: object | None = None,
    ) -> "PersistentClassifier":
        """Layer persistence under ``classifier``, idempotently."""
        if (
            isinstance(classifier, cls)
            and classifier.path == Path(path)
            and classifier.faults == faults
        ):
            return classifier
        return cls(classifier, Path(path), faults=faults)

    @property
    def store(self) -> ClassificationStore:
        """The open store, (re)opened per process — connections must
        never cross a fork/pickle boundary."""
        if self._store is None or self._store_pid != os.getpid():
            store: ClassificationStore = ClassificationStore(self.path)
            if self.faults is not None:
                store = self.faults.wrap_store(store)
            self._store = store
            self._store_pid = os.getpid()
        return self._store

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_store"] = None
        state["_store_pid"] = -1
        state["_disabled"] = False  # each process decides for itself
        return state

    def _disable(self, exc: StoreError) -> None:
        self._disabled = True
        _STORE_DISABLED.set(1)
        print(
            f"warning: classification store {self.path} disabled for this "
            f"process: {exc}",
            file=sys.stderr,
        )

    # -- classification --------------------------------------------------

    def classify(self, text: str) -> Classification:
        return self.classify_batch([text])[0]

    def classify_batch(self, texts: list[str]) -> list[Classification]:
        """Answer from disk, draining misses in one batched inner call."""
        unique = list(dict.fromkeys(texts))
        found: dict[str, Classification] = {}
        if not self._disabled:
            start = time.perf_counter()
            try:
                found = self.store.get_many(self.inner.name, unique)
            except StoreError as exc:
                self._disable(exc)
            finally:
                elapsed = time.perf_counter() - start
                self.store_get_s += elapsed
                _STORE_GET_SECONDS.observe(elapsed)
        self.store_hits += len(found)
        _STORE_HITS.inc(len(found))
        missing = [text for text in unique if text not in found]
        if missing:
            self.misses += len(missing)
            _STORE_MISSES.inc(len(missing))
            fresh = batch_classify(self.inner, missing)
            if not self._disabled:
                start = time.perf_counter()
                try:
                    self.store.put_many(self.inner.name, fresh)
                except StoreError as exc:
                    self._disable(exc)
                finally:
                    elapsed = time.perf_counter() - start
                    self.store_put_s += elapsed
                    _STORE_PUT_SECONDS.observe(elapsed)
            found.update((verdict.text, verdict) for verdict in fresh)
        return [found[text] for text in texts]

    # -- instrumentation -------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.store_hits + self.misses
        return self.store_hits / total if total else 0.0
