"""Span tracing of the program's public entry points, from outside it.

:func:`install` wraps every entry point in :data:`ENTRY_POINTS` at run
time: each call (or, for generator functions, each ``next``) becomes a
span ``(id, parent id, entry point, start, end, thread id)`` in a
:class:`Recorder`.  Spans stay in memory and :meth:`Recorder.dump`
writes them out once the run ends, together with per-entry-point call
counts and the work counts the wrappers read off arguments and return
values.

Workers: thread-pool workers record into the same recorder (each
thread keeps its own span stack, so self time never crosses threads).
Forked process-pool workers inherit the wrappers; a multiprocessing
after-fork hook empties the inherited buffers and registers an exit
finalizer that writes the worker's spans next to the parent's trace
(``<trace>.<pid>``), where :func:`load` picks them up.

Clocks: spans use ``time.perf_counter``, which is ``CLOCK_MONOTONIC``
on Linux, so the benchmark can compare them with timestamps taken in
its own process.

An entry point missing from the program is recorded as absent rather
than failing the run: the timed operations only use the CLI.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import itertools
import marshal
import multiprocessing.util
import os
import sys
import threading
from time import perf_counter


# -- work counts read off arguments and return values ---------------------


def _add(counts: dict, key: str, amount) -> None:
    counts[key] = counts.get(key, 0) + amount


def _count_har_requests(counts, args, kwargs, result) -> None:
    if args[0].har is not None:
        _add(counts, "har.requests", len(result.requests))


def _count_digest_bytes(counts, args, kwargs, result) -> None:
    unit = args[0]
    for path in (unit.har, unit.pcap, unit.keylog):
        if path is not None:
            _add(counts, "digest.bytes", path.stat().st_size)


def _count_har_bytes(counts, args, kwargs, result) -> None:
    _add(counts, "har.bytes", os.path.getsize(args[0]))


def _count_decryption(counts, args, kwargs, result) -> None:
    recovered = len({item.flow for item in result.requests})
    _add(counts, "tls.recovered_flows", recovered)
    _add(counts, "tls.lost_flows", result.undecryptable_flows)


def _count_decoder(counts, args, kwargs, result) -> None:
    _count_decryption(counts, args, kwargs, result)
    decoder = args[0]
    _add(counts, "stream.evictions", decoder.evictions)
    if decoder.high_water_bytes > counts.get("stream.high_water_bytes", 0):
        counts["stream.high_water_bytes"] = decoder.high_water_bytes


def _count_one(key):
    def hook(counts, args, kwargs, result) -> None:
        counts[key] = counts.get(key, 0) + 1

    return hook


def _count_len(key, pick=lambda result: result):
    def hook(counts, args, kwargs, result) -> None:
        _add(counts, key, len(pick(result)))

    return hook


def _count_arg_len(key, position: int):
    def hook(counts, args, kwargs, result) -> None:
        _add(counts, key, len(args[position]))

    return hook


def _count_key_lists(counts, args, kwargs, result) -> None:
    _add(counts, "classify.keys", sum(len(keys) for keys in args[1]))


def _count_unit_lookups(counts, args, kwargs, result) -> None:
    _add(counts, "store.rows_read", len(result))
    _add(counts, "store.unit_lookups", len(args[2]))
    _add(counts, "store.unit_hits", len(result))


def _count_tcp_flows(counts, args, kwargs, result) -> None:
    _add(counts, "tcp.flows", len(result))


_TCP_METHODS = (
    "add_frame",
    "add_segment",
    "flows",
    "drain_ready",
    "pop_flow",
    "buffered_bytes",
    "flow_ids",
    "last_activity",
    "idle_flows",
    "lru_flow",
)
_TCP_HOOKS = {
    "add_frame": _count_one("tcp.segments"),
    "add_segment": _count_one("tcp.segments"),
    "flows": _count_tcp_flows,
    "pop_flow": _count_one("tcp.flows"),
}

# (module, qualified name, layer, work-count hook).  Layers name the
# repo's modules; sub-layers after a module's name split its cost.
ENTRY_POINTS: list[tuple[str, str, str, object]] = [
    ("repro.pipeline.engine", "prepare_classifier", "startup", None),
    ("repro.destinations.entities", "default_entity_db", "startup", None),
    ("repro.destinations.blocklists", "default_blocklists", "startup", None),
    ("repro.pipeline.replay", "ReplayCorpus.scan", "pipeline.replay", None),
    ("repro.pipeline.replay", "load_parsed_trace", "pipeline.replay", _count_har_requests),
    ("repro.pipeline.replay", "unit_digest", "pipeline.replay.digest", _count_digest_bytes),
    ("repro.net.har", "read_har", "net.har", _count_har_bytes),
    ("repro.capture.decrypt", "decrypt_mobile_artifact", "capture.decrypt", _count_decryption),
    ("repro.net.pcap", "PcapReader.iter_packets", "net.pcap", None),
    ("repro.net.packet", "parse_tcp_segment", "net.packet", _count_one("packet.accepted")),
    *[
        ("repro.net.tcp", f"TcpReassembler.{name}", "net.tcp", _TCP_HOOKS.get(name))
        for name in _TCP_METHODS
    ],
    ("repro.net.tls", "unwrap_hello", "net.tls", None),
    ("repro.net.tls", "decrypt_stream", "net.tls", None),
    ("repro.net.tls", "scan_records", "net.tls", None),
    ("repro.net.tls", "decrypt_record", "net.tls", _count_len("tls.plaintext_bytes")),
    ("repro.net.http", "parse_request_stream", "net.http", None),
    (
        "repro.net.http",
        "scan_request_stream",
        "net.http",
        _count_len("http.requests", lambda result: result[0]),
    ),
    ("repro.stream.incremental", "IncrementalTraceDecoder.feed", "stream.incremental", None),
    ("repro.stream.incremental", "IncrementalTraceDecoder.finish", "stream.incremental", _count_decoder),
    ("repro.stream.session", "StreamAudit.consume", "stream.session", None),
    ("repro.stream.session", "StreamAudit.snapshot", "stream.session", None),
    ("repro.stream.session", "StreamAudit.result", "stream.session", None),
    ("repro.datatypes.extract", "extract_from_request", "datatypes.extract", _count_len("extract.keys")),
    ("repro.flows.builder", "FlowBuilder.prime_sequence", "datatypes.classify", _count_key_lists),
    ("repro.flows.builder", "FlowBuilder.prime", "datatypes.classify", _count_arg_len("classify.keys", 1)),
    ("repro.datatypes.store", "ClassificationStore.get_many", "datatypes.store", _count_len("store.rows_read")),
    ("repro.datatypes.store", "ClassificationStore.put_many", "datatypes.store", _count_arg_len("store.rows_written", 2)),
    ("repro.datatypes.store", "ClassificationStore.get_unit_results", "datatypes.store", _count_unit_lookups),
    ("repro.datatypes.store", "ClassificationStore.put_unit_results", "datatypes.store", _count_arg_len("store.rows_written", 2)),
    ("repro.destinations.party", "DestinationLabeler.label", "destinations", None),
    ("repro.flows.builder", "FlowBuilder.flows_for_destination", "flows.builder", _count_len("flows.observations")),
    ("repro.flows.builder", "FlowBuilder.flows_for_request", "flows.builder", None),
    ("repro.pipeline.engine", "AuditEngine.run", "pipeline.engine", None),
    ("repro.pipeline.engine", "process_shard", "pipeline.engine", None),
    ("repro.pipeline.engine", "pack_shard_result", "pipeline.engine", None),
    ("repro.pipeline.engine", "SequentialExecutor.map_shards", "pipeline.engine.execute", None),
    ("repro.pipeline.engine", "ThreadPoolShardExecutor.map_shards", "pipeline.engine.execute", None),
    ("repro.pipeline.engine", "ProcessPoolShardExecutor.map_shards", "pipeline.engine.execute", None),
    ("repro.pipeline.engine", "PackedShardResult.unpack", "pipeline.engine.unpack", None),
    ("repro.pipeline.engine", "AuditEngine.merge", "pipeline.engine.merge", None),
    ("repro.pipeline.diffaudit", "assemble_result", "audit", None),
    ("repro.reporting.export", "result_to_json", "reporting.export", None),
    ("repro.services.generator", "TrafficGenerator.generate_corpus", "services.generator", None),
    ("repro.pipeline.corpus", "CorpusProcessor.capture_mobile", "capture", None),
    ("repro.pipeline.corpus", "CorpusProcessor.process_web", "capture", None),
    ("repro.net.har", "write_har", "capture.write", None),
    ("repro.fsutil", "atomic_write_bytes", "io.write", None),
]

ROOT_SPAN = "startup"


def entry_point_id(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def merge_counts(tables) -> dict[str, int]:
    """Sum count tables from several threads or processes; high-water
    marks take the maximum instead."""
    total: dict[str, int] = {}
    for table in tables:
        for key, value in table.items():
            if key == "stream.high_water_bytes":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


# -- the recorder ----------------------------------------------------------


class _ThreadState:
    __slots__ = ("stack", "calls", "counts", "tid")

    def __init__(self) -> None:
        self.stack: list = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.tid = threading.get_ident()


class Recorder:
    """In-memory spans and counts of one process."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self.main_tid = threading.get_ident()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def enter(self, state: _ThreadState, name: str) -> tuple:
        stack = state.stack
        frame = (next(self._ids), stack[-1][0] if stack else 0, name, perf_counter())
        stack.append(frame)
        return frame

    def leave(self, state: _ThreadState, frame: tuple) -> None:
        end = perf_counter()
        state.stack.pop()
        self.spans.append((*frame, end, state.tid))

    def record(self, name: str, start: float, end: float) -> None:
        """A root span measured by the caller (e.g. interpreter start-up)."""
        self.spans.append((next(self._ids), 0, name, start, end, self.main_tid))

    def _after_fork(self) -> None:
        # A forked pool worker: drop what the parent had recorded and
        # ship this process's own spans home when it exits.
        self.spans.clear()
        self._states.clear()
        self._local = threading.local()
        self.main_tid = threading.get_ident()
        multiprocessing.util.Finalize(
            None, self.dump, args=(f"{self.path}.{os.getpid()}",), exitpriority=100
        )

    def dump(self, path: str | None = None) -> None:
        document = {
            "pid": os.getpid(),
            "main_tid": self.main_tid,
            "spans": self.spans,
            "calls": merge_counts(state.calls for state in self._states),
            "counts": merge_counts(state.counts for state in self._states),
            "absent": self.absent,
        }
        with open(path or self.path, "wb") as handle:
            marshal.dump(document, handle)


# -- wrapping --------------------------------------------------------------


class _TimedIterator:
    """An iterator whose every ``next`` is one span."""

    __slots__ = ("_iterator", "_recorder", "_key")

    def __init__(self, iterator, recorder: Recorder, key: str) -> None:
        self._iterator = iterator
        self._recorder = recorder
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        recorder = self._recorder
        state = recorder.state()
        frame = recorder.enter(state, self._key)
        try:
            item = next(self._iterator)
        finally:
            recorder.leave(state, frame)
        calls = state.calls
        calls[self._key] = calls.get(self._key, 0) + 1
        return item


def _wrap(fn, recorder: Recorder, key: str, hook):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def iterating(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), recorder, key)

        return iterating

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        state = recorder.state()
        calls = state.calls
        calls[key] = calls.get(key, 0) + 1
        frame = recorder.enter(state, key)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(state.counts, args, kwargs, result)
            return result
        finally:
            recorder.leave(state, frame)

    return timed


def _patch(recorder: Recorder, module_name: str, qualname: str, hook):
    key = entry_point_id(module_name, qualname)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        recorder.absent.append(key)
        return None
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        recorder.absent.append(key)
        return None
    raw = vars(owner).get(attr)
    if raw is None:
        recorder.absent.append(key)
        return None
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(_wrap(raw.__func__, recorder, key, hook))
        setattr(owner, attr, wrapped)
        return None
    wrapped = _wrap(raw, recorder, key, hook)
    setattr(owner, attr, wrapped)
    # Module-level functions are also bound by ``from x import f`` in
    # other modules; those names are rebound in install().
    return (raw, wrapped) if not owner_name else None


def install(path: str) -> Recorder:
    """Wrap every entry point; returns the recorder that collects spans."""
    recorder = Recorder(path)
    rebinds = {}
    for module_name, qualname, _, hook in ENTRY_POINTS:
        pair = _patch(recorder, module_name, qualname, hook)
        if pair is not None:
            rebinds[id(pair[0])] = pair
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            pair = rebinds.get(id(value))
            if pair is not None and value is pair[0]:
                setattr(module, attr, pair[1])
    return recorder


# -- reading traces back ---------------------------------------------------


def load(path: str) -> list[dict]:
    """The trace at ``path``, then every worker trace shipped next to it."""
    documents = []
    for name in [path, *sorted(glob.glob(glob.escape(path) + ".*"))]:
        with open(name, "rb") as handle:
            documents.append(marshal.load(handle))
    return documents
