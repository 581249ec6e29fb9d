"""Shared AST plumbing for the invariant checker and the repo scripts.

This module is deliberately **self-contained** (stdlib only, no imports
from the rest of :mod:`repro`): ``scripts/check_docs.py`` and
``scripts/lint.py`` run in CI jobs that install nothing, so they side-load
this file through ``scripts/_staticcheck_bootstrap.py`` (stub packages in
``sys.modules``) instead of importing the (numpy-importing) ``repro``
package.  Keep it that way — anything here must work on a bare Python
interpreter.

What lives here:

* file discovery and parsing (:func:`iter_python_files`, :func:`parse_source`),
* the name-usage and import-binding walkers that ``scripts/lint.py``'s
  offline fallback used to carry privately,
* small resolution helpers shared by several checker passes: rendering an
  attribute chain as a dotted name and resolving it through the
  ``import``/``from-import`` aliases.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "iter_python_files",
    "parse_source",
    "used_names",
    "imported_bindings",
    "import_aliases",
    "dotted_name",
    "canonical_name",
    "module_bindings",
]

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def iter_python_files(root: Path, trees: Iterable[str]) -> Iterator[Path]:
    """Yield every ``*.py`` file under ``root/<tree>`` (sorted, per tree).

    A tree entry may also name a single file; missing entries are skipped
    so callers can pass a fixed tuple of candidate directories.
    """
    for tree in trees:
        target = Path(root) / tree
        if target.is_file():
            yield target
        elif target.is_dir():
            yield from sorted(target.rglob("*.py"))


def parse_source(source: str, filename: str = "<unknown>") -> ast.Module:
    """``ast.parse`` under its canonical name (one import site for scripts)."""
    return ast.parse(source, filename=filename)


def used_names(tree: ast.AST) -> set[str]:
    """Names referenced anywhere, including inside string annotations/docs.

    String constants are scanned for identifier tokens so imports used only
    in quoted annotations (``"Sequence[int] | None"``) do not come back as
    false positives; this errs on the permissive side, which is the right
    bias for an offline fallback linter.
    """
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def imported_bindings(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(bound name, display name, line) for every module-or-function import."""
    bindings: list[tuple[str, str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                bindings.append((bound, alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                bindings.append((bound, alias.name, node.lineno))
    return bindings


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> canonical dotted target for every import in ``tree``.

    ``import numpy as np`` maps ``np -> numpy``; ``from os import environ``
    maps ``environ -> os.environ``; ``from repro.cache import store as s``
    maps ``s -> repro.cache.store``.  Relative imports keep their leading
    dots (callers resolve them against the importing module's package).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # Unaliased dotted imports bind the *top* package name.
                aliases[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
    return aliases


def dotted_name(node: ast.AST) -> "str | None":
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_name(dotted: str, aliases: "dict[str, str]") -> str:
    """Rewrite the first segment of ``dotted`` through an import table
    (``np.random.rand`` -> ``numpy.random.rand``)."""
    head, _, rest = dotted.partition(".")
    target = aliases.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def module_bindings(tree: ast.Module) -> set[str]:
    """Every name bound at module level: assignments, defs, classes, imports.

    The export-drift pass uses this to decide whether an ``__all__`` entry
    resolves.  Names bound inside ``if``/``try`` blocks at module level
    count (conditional exports are still exports).
    """
    bound: set[str] = set()

    def visit_block(statements: "list[ast.stmt]") -> None:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.update(_target_names(target))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                visit_block(node.body)
                visit_block(node.orelse)
            elif isinstance(node, ast.Try):
                visit_block(node.body)
                for handler in node.handlers:
                    visit_block(handler.body)
                visit_block(node.orelse)
                visit_block(node.finalbody)
            elif isinstance(node, (ast.With, ast.For, ast.While)):
                visit_block(node.body)

    def _target_names(target: ast.expr) -> set[str]:
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            names: set[str] = set()
            for element in target.elts:
                names.update(_target_names(element))
            return names
        if isinstance(target, ast.Starred):
            return _target_names(target.value)
        return set()

    visit_block(tree.body)
    return bound
