"""``fingerprint-purity``: cache keys must be functions of their inputs.

Every cache tier's correctness rests on one sentence in
:mod:`repro.cache.fingerprint`: *two configs with the same fingerprint are
guaranteed to produce bit-identical results*.  That guarantee dies quietly
if any function reachable from a fingerprint entry point consults ambient
state — the environment, the clock, a random source — because the key
would no longer determine the value and stale cache entries would be
served as fresh.  Review vigilance does not scale to that class of bug;
this pass makes it a CI failure.

Mechanics: build a best-effort static call graph over the codebase (direct
calls and module-attribute calls; method calls through objects are out of
static reach and documented as such), take every top-level function of the
entry module as a root, and flag two things inside the reachable set:

* calls/reads of known-impure stdlib and numpy surfaces (``os.environ``,
  ``os.getenv``, the wall clocks in ``time``/``datetime``, ``random``,
  ``numpy.random``, ``uuid``, ``secrets``), and calls into
  :mod:`repro.env`, the package's one environment reader;
* reads of module globals that some function of the same module rebinds
  via ``global`` — mutable module state is invisible to a content hash.

Registry *lookups* (``get_dtype`` reading ``_REGISTRY``) are deliberately
not flagged: the registries mutate through container item assignment, not
``global`` rebinding, and the fingerprint payload already folds in the
resolved specs precisely so that re-registration invalidates keys.
"""

from __future__ import annotations

import ast

from repro.staticcheck.loader import Codebase, ModuleInfo
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import canonical_name, dotted_name

__all__ = ["ENTRY_MODULE", "IMPURE_PREFIXES", "check_purity"]

#: The module whose top-level functions are the purity roots.
ENTRY_MODULE = "repro.cache.fingerprint"

#: Canonical dotted prefixes whose call (or attribute read, for
#: ``os.environ``) is impure.  Aliases are resolved through each module's
#: import table before matching (``np.random`` -> ``numpy.random``).
IMPURE_PREFIXES = (
    "os.environ",
    "os.getenv",
    "repro.env",
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "random.",
    "numpy.random",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.",
)

_HINT = (
    "fingerprint inputs must come from arguments alone; thread ambient "
    "state in explicitly (and include it in the fingerprint payload)"
)


def _is_impure(canonical: str) -> bool:
    for prefix in IMPURE_PREFIXES:
        if prefix.endswith("."):
            if canonical.startswith(prefix):
                return True
        elif canonical == prefix or canonical.startswith(prefix + "."):
            return True
    return False


def _call_targets(info: ModuleInfo, node: ast.AST, codebase: Codebase) -> "set[str]":
    """Qualified names of in-repo functions ``node``'s body calls.

    Resolution is deliberately conservative: bare names through the local
    module or its from-imports, dotted names through imported-module
    aliases.  Method calls on objects are skipped — the entry module's
    reachable surface is free functions, which is what makes this pass
    tractable without type inference.
    """
    targets: "set[str]" = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        dotted = dotted_name(child.func)
        if dotted is None:
            continue
        if "." not in dotted:
            local = f"{info.name}.{dotted}"
            if local in codebase.functions:
                targets.add(local)
                continue
            imported = info.aliases.get(dotted)
            if imported is not None and imported in codebase.functions:
                targets.add(imported)
        else:
            canonical = canonical_name(dotted, info.aliases)
            if canonical in codebase.functions:
                targets.add(canonical)
    return targets


def _rebound_globals(info: ModuleInfo) -> "set[str]":
    """Module globals some function rebinds via a ``global`` statement."""
    rebound: "set[str]" = set()
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Global):
            rebound.update(node.names)
    return rebound


def _impure_uses(info: ModuleInfo, func: ast.AST) -> "list[tuple[int, str]]":
    """(line, canonical name) of impure calls/reads inside ``func``.

    One finding per line: a flagged call's own ``Attribute`` chain (and
    ``os.environ`` inside ``os.environ.get``) must not double-report.
    """
    by_line: "dict[int, str]" = {}
    for child in ast.walk(func):
        if not isinstance(child, ast.Call):
            continue
        dotted = dotted_name(child.func)
        if dotted is None:
            continue
        canonical = canonical_name(dotted, info.aliases)
        if _is_impure(canonical):
            by_line.setdefault(child.lineno, canonical)
    for child in ast.walk(func):
        if not isinstance(child, ast.Attribute) or child.lineno in by_line:
            continue
        # Bare ``os.environ`` reads (subscripts, iteration) have no call;
        # catch the attribute access itself.
        dotted = dotted_name(child)
        if dotted is None:
            continue
        canonical = canonical_name(dotted, info.aliases)
        if canonical == "os.environ" or canonical.startswith("os.environ."):
            by_line.setdefault(child.lineno, canonical)
    return sorted(by_line.items())


@register_pass(
    "fingerprint-purity",
    "functions reachable from the fingerprint entry points must be pure",
)
def check_purity(codebase: Codebase) -> "list[Finding]":
    entry = codebase.module(ENTRY_MODULE)
    if entry is None:
        return []

    # Roots: every top-level function of the entry module.
    queue = [
        f"{entry.name}.{node.name}"
        for node in entry.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    reachable: "set[str]" = set()
    while queue:
        qualname = queue.pop()
        if qualname in reachable:
            continue
        reachable.add(qualname)
        func = codebase.functions.get(qualname)
        if func is None:
            continue
        info = codebase.module(func.module)
        if info is None:
            continue
        queue.extend(_call_targets(info, func.node, codebase))

    findings: "list[Finding]" = []
    rebound_cache: "dict[str, set[str]]" = {}
    for qualname in sorted(reachable):
        func = codebase.functions[qualname]
        info = codebase.module(func.module)
        if info is None:
            continue
        for line, name in _impure_uses(info, func.node):
            findings.append(
                Finding(
                    rule="fingerprint-purity",
                    file=info.relpath,
                    line=line,
                    message=(
                        f"{qualname} (reachable from {ENTRY_MODULE}) uses "
                        f"impure {name}; fingerprints derived through it can "
                        "go stale without the key changing"
                    ),
                    detail=f"{qualname}:{name}",
                    hint=_HINT,
                )
            )
        rebound = rebound_cache.setdefault(func.module, _rebound_globals(info))
        if rebound:
            for child in ast.walk(func.node):
                if (
                    isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Load)
                    and child.id in rebound
                ):
                    findings.append(
                        Finding(
                            rule="fingerprint-purity",
                            file=info.relpath,
                            line=child.lineno,
                            message=(
                                f"{qualname} (reachable from {ENTRY_MODULE}) reads "
                                f"module global {child.id!r}, which is rebound via "
                                "'global' elsewhere in the module"
                            ),
                            detail=f"{qualname}:global:{child.id}",
                            hint=_HINT,
                        )
                    )
    return findings
