"""``lock-discipline``: thread-shared state mutates under its lock or not at all.

The cache LRUs (:class:`~repro.cache.store.JsonDiskCache`) and the SQLite
store both follow the same pattern: a class holds a
``threading.Lock``/``RLock`` and promises that its bookkeeping mutates
only while holding it.  The pattern
decays silently — a new method writes ``self._entries`` without the
``with`` block and nothing fails until a sweep races.

This pass finds classes that create a lock in ``__init__``/``__post_init__``
(``self._lock = threading.RLock()``), collects every write to a ``self``
attribute across the class's methods, and flags attributes written **both**
inside and outside ``with self._lock:`` blocks.  Constructor methods are
exempt (no concurrent access exists before ``__init__`` returns), as is
the lock attribute itself.  Attributes written *only* outside the lock are
not flagged — a class may legitimately keep some members single-threaded;
it is the mixed pattern that indicates a forgotten guard.

Limits, stated so nobody trusts this further than it sees: mutation
through method calls (``self._entries.move_to_end(...)``) and writes in
nested functions are invisible; reads are not tracked at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.loader import Codebase, ModuleInfo
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import dotted_name

__all__ = ["LOCK_TYPES", "CONSTRUCTOR_METHODS", "check_locks"]

#: Callables whose result is a lock (after alias resolution).
LOCK_TYPES = ("threading.Lock", "threading.RLock", "Lock", "RLock")

#: Methods where unguarded attribute writes are expected and safe.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__init_subclass__"})


@dataclass
class _AttrWrites:
    locked: "list[int]" = field(default_factory=list)
    unlocked: "list[int]" = field(default_factory=list)


def _self_attr_path(node: ast.expr, self_name: str) -> "str | None":
    """``self.a.b`` -> ``a.b`` (None when not rooted at ``self``)."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == self_name and parts:
        return ".".join(reversed(parts))
    return None


def _lock_attrs(class_node: ast.ClassDef, aliases: "dict[str, str]") -> "set[str]":
    """Names of ``self.<attr>`` assigned a Lock/RLock anywhere in the class."""
    locks: "set[str]" = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None:
            continue
        head, _, rest = dotted.partition(".")
        canonical = aliases.get(head, head) + (f".{rest}" if rest else "")
        if canonical not in LOCK_TYPES and dotted not in LOCK_TYPES:
            continue
        for target in node.targets:
            path = _self_attr_path(target, "self")
            if path is not None and "." not in path:
                locks.add(path)
    return locks


class _MethodVisitor:
    """Track attribute writes and whether they happen under the lock."""

    def __init__(self, self_name: str, lock_attrs: "set[str]") -> None:
        self.self_name = self_name
        self.lock_attrs = lock_attrs
        self.writes: "dict[str, _AttrWrites]" = {}

    def _is_lock_context(self, item: ast.withitem) -> bool:
        path = _self_attr_path(item.context_expr, self.self_name)
        if path is not None:
            return path in self.lock_attrs
        # ``with self._lock.acquire_timeout():``-style wrappers: treat any
        # context manager reached through the lock attribute as the lock.
        if isinstance(item.context_expr, ast.Call):
            receiver = _self_attr_path(item.context_expr.func, self.self_name)
            if receiver is not None:
                return receiver.split(".")[0] in self.lock_attrs
        return False

    def _record(self, target: ast.expr, line: int, locked: bool) -> None:
        path = _self_attr_path(target, self.self_name)
        if path is None or path.split(".")[0] in self.lock_attrs:
            return
        writes = self.writes.setdefault(path, _AttrWrites())
        (writes.locked if locked else writes.unlocked).append(line)

    def visit_block(self, statements: "list[ast.stmt]", locked: bool) -> None:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes run elsewhere; out of static reach
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for element in self._flatten(target):
                        self._record(element, node.lineno, locked)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._record(node.target, node.lineno, locked)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or any(self._is_lock_context(item) for item in node.items)
                self.visit_block(node.body, inner)
                continue
            # Recurse into compound statements, keeping the lock context.
            for child_block in self._child_blocks(node):
                self.visit_block(child_block, locked)

    @staticmethod
    def _flatten(target: ast.expr) -> "list[ast.expr]":
        if isinstance(target, (ast.Tuple, ast.List)):
            out: "list[ast.expr]" = []
            for element in target.elts:
                out.extend(_MethodVisitor._flatten(element))
            return out
        if isinstance(target, ast.Starred):
            return _MethodVisitor._flatten(target.value)
        return [target]

    @staticmethod
    def _child_blocks(node: ast.stmt) -> "list[list[ast.stmt]]":
        blocks: "list[list[ast.stmt]]" = []
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list) and not isinstance(node, (ast.With, ast.AsyncWith)):
                blocks.append(block)
        for handler in getattr(node, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks


def _check_class(info: ModuleInfo, class_node: ast.ClassDef) -> "list[Finding]":
    lock_attrs = _lock_attrs(class_node, info.aliases)
    if not lock_attrs:
        return []
    writes: "dict[str, _AttrWrites]" = {}
    for node in class_node.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in CONSTRUCTOR_METHODS:
            continue
        if not node.args.args:
            continue
        visitor = _MethodVisitor(node.args.args[0].arg, lock_attrs)
        visitor.visit_block(node.body, locked=False)
        for path, seen in visitor.writes.items():
            merged = writes.setdefault(path, _AttrWrites())
            merged.locked.extend(seen.locked)
            merged.unlocked.extend(seen.unlocked)

    findings: "list[Finding]" = []
    lock_display = "/".join(sorted(lock_attrs))
    for path in sorted(writes):
        seen = writes[path]
        if seen.locked and seen.unlocked:
            findings.append(
                Finding(
                    rule="lock-discipline",
                    file=info.relpath,
                    line=min(seen.unlocked),
                    message=(
                        f"{class_node.name}.{path} is written under "
                        f"'with self.{lock_display}:' (line "
                        f"{min(seen.locked)}) but also without it (line "
                        f"{min(seen.unlocked)})"
                    ),
                    detail=f"{class_node.name}.{path}",
                    hint=(
                        "move the unguarded write inside the with-lock block, "
                        "or document why this attribute is single-threaded and "
                        "stop guarding the other sites"
                    ),
                )
            )
    return findings


@register_pass(
    "lock-discipline",
    "attributes of lock-holding classes must not be written both inside and "
    "outside the lock",
)
def check_locks(codebase: Codebase) -> "list[Finding]":
    findings: "list[Finding]" = []
    for info in codebase.modules:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(info, node))
    return findings
