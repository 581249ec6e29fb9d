"""``async-blocking``: serve coroutines must never stall the event loop.

The serving layer's responsiveness contract (one compute thread, an always
-free event loop for admission/coalescing/rejection — see
:mod:`repro.serve.service`) holds only if no coroutine calls a blocking
function directly.  This pass walks every ``async def`` under
``repro/serve/`` and flags:

* calls to known-blocking callees: ``time.sleep``, sqlite, ``open`` and
  the ``Path`` read/write methods, ``subprocess``, synchronous
  ``urllib``/``socket`` entry points, and the repo's own compute entry
  points (``run_configs``/``run_experiment``/``run_sweep``/
  ``estimate_experiment``) and the default-cache accessors
  (``get_default_cache``/``get_default_activity_cache``/``resolve_cache``/
  ``resolve_activity_cache``, whose first call opens SQLite; the loop may
  only ``peek_default_caches``) — the documented escape hatch is handing the
  callable to ``run_in_executor``/``asyncio.to_thread``, which passes a
  *reference*, not a call, and therefore never trips this rule;
* ``import`` statements inside coroutine bodies — first import executes
  module code and hits the filesystem, on the event loop.

Calls that *look* blocking but are awaited through an executor are not
flagged because the blocking callee appears as an argument, not as a call
expression.  Nested ``def``/``async def`` bodies are analyzed in their own
right (a sync helper defined inside a coroutine runs wherever it is
called, which this pass cannot see).
"""

from __future__ import annotations

import ast

from repro.staticcheck.loader import Codebase, ModuleInfo
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import canonical_name, dotted_name

__all__ = ["SERVE_PREFIX", "BLOCKING_CALLS", "BLOCKING_METHODS", "check_blocking"]

#: Module prefix whose coroutines are checked.
SERVE_PREFIX = "repro.serve"

#: Canonical dotted names (after alias resolution) that block the loop.
#: Exact names or ``prefix.`` entries matching a whole subtree.
BLOCKING_CALLS = (
    "time.sleep",
    "open",
    "input",
    "sqlite3.connect",
    "subprocess.",
    "urllib.request.urlopen",
    "socket.create_connection",
    "requests.",
    "shutil.",
    # The repo's own compute/estimation entry points: each drains a whole
    # batch of experiments and belongs on the compute thread, never inline
    # in a coroutine.
    "repro.experiments.sweep.run_configs",
    "repro.experiments.sweep.run_sweep",
    "repro.experiments.harness.run_experiment",
    "repro.core.pipeline.estimate_experiment",
    "repro.api.run_configs",
    "repro.api.run_sweep",
    "repro.api.run_experiment",
    # The lazy default cache tiers: the first call creates one, which
    # opens its SQLite database under REPRO_CACHE_DIR (and may prune it).
    "repro.cache.store.get_default_cache",
    "repro.cache.store.get_default_activity_cache",
    "repro.cache.store.resolve_cache",
    "repro.cache.store.resolve_activity_cache",
    "repro.cache.get_default_cache",
    "repro.cache.get_default_activity_cache",
    "repro.cache.resolve_cache",
    "repro.cache.resolve_activity_cache",
    "repro.api.get_default_cache",
    "repro.api.get_default_activity_cache",
)

#: Method names (attribute calls on any receiver) that mean file I/O.
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

_HINT = (
    "run blocking work on the compute thread: await "
    "loop.run_in_executor(...)/asyncio.to_thread(...) with the callable, "
    "or use the asyncio-native equivalent (asyncio.sleep, streams)"
)


def _is_blocking(canonical: str) -> bool:
    for entry in BLOCKING_CALLS:
        if entry.endswith("."):
            if canonical.startswith(entry):
                return True
        elif canonical == entry:
            return True
    return False


def _walk_coroutine(node: ast.AsyncFunctionDef):
    """Yield nodes of the coroutine body without entering nested defs."""
    stack: "list[ast.AST]" = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _check_module(info: ModuleInfo) -> "list[Finding]":
    findings: "list[Finding]" = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                findings.extend(_check_coroutine(info, qualname, child))
                visit(child, qualname)
            elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}" if prefix else child.name)

    visit(info.tree, "")
    return findings


def _check_coroutine(
    info: ModuleInfo, qualname: str, node: ast.AsyncFunctionDef
) -> "list[Finding]":
    findings: "list[Finding]" = []
    for child in _walk_coroutine(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            what = ", ".join(
                alias.name for alias in child.names
            )
            findings.append(
                Finding(
                    rule="async-blocking",
                    file=info.relpath,
                    line=child.lineno,
                    message=(
                        f"async def {qualname} imports {what} in its body; "
                        "first import runs module code and filesystem I/O "
                        "on the event loop"
                    ),
                    detail=f"{qualname}:import:{what}",
                    hint="move the import to module scope",
                )
            )
            continue
        if not isinstance(child, ast.Call):
            continue
        dotted = dotted_name(child.func)
        blocking_name: "str | None" = None
        if dotted is not None:
            canonical = canonical_name(dotted, info.aliases)
            if _is_blocking(canonical):
                blocking_name = canonical
        if (
            blocking_name is None
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in BLOCKING_METHODS
        ):
            blocking_name = f"*.{child.func.attr}"
        if blocking_name is not None:
            findings.append(
                Finding(
                    rule="async-blocking",
                    file=info.relpath,
                    line=child.lineno,
                    message=(
                        f"async def {qualname} calls blocking "
                        f"{blocking_name} directly on the event loop"
                    ),
                    detail=f"{qualname}:{blocking_name}",
                    hint=_HINT,
                )
            )
    return findings


@register_pass(
    "async-blocking",
    "repro.serve coroutines must not call blocking functions on the event loop",
)
def check_blocking(codebase: Codebase) -> "list[Finding]":
    findings: "list[Finding]" = []
    for info in codebase.iter_modules(SERVE_PREFIX):
        findings.extend(_check_module(info))
    return findings
