"""X family: executor- and IPC-safety rules.

The sharded engine runs the same shard code in-process (``--jobs 1``)
and on a pool of worker processes (``--jobs N``) and promises
byte-identical results from both.  These rules flag the patterns that
break that promise: state shared through module globals or mutable
defaults, caches that pin instances, payloads that pickle poorly,
and packed-IPC transports that silently drop fields.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.determinism import dotted_name
from repro.lint.engine import AstRule, Finding, ModuleSource

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
        "defaultdict",
        "deque",
        "OrderedDict",
        "Counter",
    }
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        return dotted in _MUTABLE_CALLS
    return False


class MutableDefaultRule(AstRule):
    """X-MUTDEF: mutable default argument values."""

    rule_id = "X-MUTDEF"
    severity = "error"
    summary = (
        "mutable default argument — shared across calls, and across "
        "shards when the function object crosses an executor"
    )
    hint = "default to None and create the container inside the function"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module.rel,
                        default.lineno,
                        default.col_offset + 1,
                        f"mutable default argument in {name}()",
                    )


class GlobalMutationRule(AstRule):
    """X-GLOBAL: functions that rebind module globals."""

    rule_id = "X-GLOBAL"
    severity = "error"
    summary = (
        "function rebinds a module global — invisible to process-pool "
        "workers, so parallel runs diverge from sequential ones"
    )
    hint = (
        "thread state through arguments/return values, or move it onto "
        "an object the caller owns"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: dict[str, ast.Global] = {}
            assigned: set[str] = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Global):
                    for name in child.names:
                        declared.setdefault(name, child)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                assigned.add(leaf.id)
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    if isinstance(child.target, ast.Name):
                        assigned.add(child.target.id)
            for name, stmt in declared.items():
                if name in assigned:
                    yield self.finding(
                        module.rel,
                        stmt.lineno,
                        stmt.col_offset + 1,
                        f"{node.name}() rebinds module global {name!r}",
                    )


_CACHE_DECORATORS = frozenset(
    {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}
)


class LruCacheMethodRule(AstRule):
    """X-LRU: ``lru_cache`` on an instance method."""

    rule_id = "X-LRU"
    severity = "error"
    summary = (
        "lru_cache on an instance method — the cache keys on self, "
        "pinning every instance alive and breaking pool pickling"
    )
    hint = (
        "cache a module-level function of the method's real inputs, or "
        "memoize on the instance explicitly"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                names = {
                    dotted_name(
                        d.func if isinstance(d, ast.Call) else d
                    )
                    for d in item.decorator_list
                }
                if "staticmethod" in names or "classmethod" in names:
                    continue
                if not item.args.args or item.args.args[0].arg != "self":
                    continue
                if names & _CACHE_DECORATORS:
                    yield self.finding(
                        module.rel,
                        item.lineno,
                        item.col_offset + 1,
                        f"lru_cache on instance method "
                        f"{node.name}.{item.name}",
                    )


class BroadExceptRule(AstRule):
    """X-BARE-EXCEPT: ``except:`` / ``except Exception:``."""

    rule_id = "X-BARE-EXCEPT"
    severity = "error"
    summary = (
        "bare or Exception-wide except — swallows executor teardown "
        "(KeyboardInterrupt aside) and masks real shard failures"
    )
    hint = "catch the specific exception(s) the guarded code can raise"

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module.rel,
                    node.lineno,
                    node.col_offset + 1,
                    "bare except catches everything",
                )
                continue
            names = (
                [elt for elt in node.type.elts]
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for name_node in names:
                dotted = dotted_name(name_node)
                if dotted in self._BROAD:
                    yield self.finding(
                        module.rel,
                        node.lineno,
                        node.col_offset + 1,
                        f"except {dotted} is too broad",
                    )


class SwallowedExceptionRule(AstRule):
    """X-SWALLOW: except handlers whose whole body is pass/continue.

    A handler that only passes (or continues) makes a failure
    invisible: no degraded record, no log line, no counter.  The
    fault-tolerance machinery depends on every error either
    propagating or being *recorded* — decode failures become
    DegradedUnit entries, store failures disable the store loudly.
    Where discarding really is correct (quarantining an already-
    corrupt file, probing optional modules), say why in a suppression.
    """

    rule_id = "X-SWALLOW"
    severity = "error"
    summary = (
        "except handler swallows the exception — its entire body is "
        "pass/continue, so the failure leaves no trace anywhere"
    )
    hint = (
        "record the failure (degraded list, warning, counter) or "
        "suppress with a comment saying why discarding is safe"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if all(
                isinstance(stmt, (ast.Pass, ast.Continue))
                for stmt in node.body
            ):
                caught = (
                    dotted_name(node.type) if node.type is not None else None
                ) or "exception"
                yield self.finding(
                    module.rel,
                    node.lineno,
                    node.col_offset + 1,
                    f"handler swallows {caught} without recording it",
                )


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | ast.Call | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


class PoolDataclassSlotsRule(AstRule):
    """X-PICKLE: pool-boundary dataclasses must be slotted.

    Every dataclass defined in an executor-boundary module crosses (or
    feeds something that crosses) the process pool; ``slots=True``
    keeps the pickled payload to the declared fields — no ``__dict__``
    to drift, no silently-pickled extra state.
    """

    rule_id = "X-PICKLE"
    severity = "error"
    summary = (
        "pool-boundary dataclass without slots=True — pickles a "
        "__dict__ that can carry undeclared state across the pool"
    )
    hint = "declare @dataclass(slots=True) (or define __slots__)"

    #: Modules whose dataclasses are considered pool-crossing.
    boundary_suffixes = ("pipeline/engine.py",)
    #: Within those modules, the pool payloads by naming convention:
    #: executors/engines stay parent-side, tasks/results/shards cross.
    boundary_names = re.compile(r"(Task|Result|Shard)$")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.rel.endswith(self.boundary_suffixes)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self.boundary_names.search(node.name):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            slotted = isinstance(decorator, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            )
            has_dunder_slots = any(
                isinstance(item, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets
                )
                for item in node.body
            )
            if not slotted and not has_dunder_slots:
                yield self.finding(
                    module.rel,
                    node.lineno,
                    node.col_offset + 1,
                    f"dataclass {node.name} crosses the pool boundary "
                    "without slots=True",
                )


def _class_field_names(node: ast.ClassDef) -> list[str]:
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


class PackedResultCoverageRule(AstRule):
    """X-PACK: the packed IPC transport must cover every result field.

    ``pack_shard_result`` flattens a ``ShardResult`` for cheap process
    pool IPC.  A field added to ``ShardResult`` but never read inside
    ``pack_shard_result`` would silently vanish on the packed path —
    sequential and parallel runs would diverge.  Applies to any module
    defining both names, so the invariant follows the code if it moves.
    """

    rule_id = "X-PACK"
    severity = "error"
    summary = (
        "ShardResult field not referenced by pack_shard_result — the "
        "packed process-pool path would drop it"
    )
    hint = (
        "intern/copy the new field in pack_shard_result and fold it "
        "in AuditEngine.merge"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        result_class: ast.ClassDef | None = None
        pack_fn: ast.FunctionDef | None = None
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "ShardResult":
                result_class = node
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "pack_shard_result"
            ):
                pack_fn = node
        if result_class is None or pack_fn is None:
            return
        packed_attrs = {
            child.attr
            for child in ast.walk(pack_fn)
            if isinstance(child, ast.Attribute)
        }
        for field_name in _class_field_names(result_class):
            if field_name not in packed_attrs:
                yield self.finding(
                    module.rel,
                    pack_fn.lineno,
                    pack_fn.col_offset + 1,
                    f"pack_shard_result never reads ShardResult."
                    f"{field_name}",
                )


class AtomicWriteRule(AstRule):
    """X-ATOMIC: artifacts must not be written with raw Path writes.

    A raw ``Path.write_text`` / ``Path.write_bytes`` truncates the
    destination before the new bytes land: a crash (or SIGKILL — the
    exact scenario the resumable-audit machinery exists for) in the
    window leaves a torn file that poisons the next run.  Everything
    the pipeline writes goes through
    ``repro.fsutil.atomic_write_text`` / ``atomic_write_bytes``
    (temp + fsync + rename); writes that are genuinely fine torn
    (test fixtures, deliberate corruption) say why in a suppression.
    """

    rule_id = "X-ATOMIC"
    severity = "error"
    summary = (
        "raw Path.write_text/write_bytes — truncate-then-write leaves "
        "a torn file behind on a crash mid-write"
    )
    hint = (
        "write through repro.fsutil.atomic_write_text/atomic_write_bytes"
    )

    _WRITERS = frozenset({"write_text", "write_bytes"})

    def applies_to(self, module: ModuleSource) -> bool:
        # Production code only: tests write fixtures raw on purpose,
        # and fsutil implements the atomic primitive itself.
        return module.rel.startswith("src/") and not module.rel.endswith(
            "fsutil.py"
        )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._WRITERS
            ):
                continue
            yield self.finding(
                module.rel,
                node.lineno,
                node.col_offset + 1,
                f"raw .{func.attr}() is not crash-safe",
            )


ALL = (
    MutableDefaultRule(),
    GlobalMutationRule(),
    LruCacheMethodRule(),
    BroadExceptRule(),
    SwallowedExceptionRule(),
    PoolDataclassSlotsRule(),
    PackedResultCoverageRule(),
    AtomicWriteRule(),
)
