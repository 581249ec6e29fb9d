#!/usr/bin/env python
"""Lint gate with an offline fallback.

Runs ``ruff check .`` (the configuration lives in ``pyproject.toml``) when
ruff is installed — this is what CI enforces.  In environments without ruff
(e.g. air-gapped containers) it falls back to a minimal built-in pass that
still catches the highest-value problems: syntax errors (via compilation),
unused imports and undefined names (ruff's F821: a load that no module
binding, import, builtin or module dunder resolves).  The AST plumbing for
the fallback is shared with ``python -m repro.staticcheck`` (see
:mod:`repro.staticcheck.walker`), side-loaded so the script still runs on a
bare interpreter.

Usage:  python scripts/lint.py [paths...]
"""

from __future__ import annotations

import ast
import builtins
import shutil
import subprocess
import symtable
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _staticcheck_bootstrap  # noqa: E402

walker = _staticcheck_bootstrap.load("walker")

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ["src", "tests", "benchmarks", "examples", "scripts"]


def run_ruff(paths: list[str]) -> int:
    return subprocess.call(["ruff", "check", *paths], cwd=REPO_ROOT)


#: Names every module loads without binding them.
MODULE_NAMES = frozenset(dir(builtins)) | {
    "__file__",
    "__builtins__",
    "__path__",
    "__cached__",
    "__annotations__",
}


def undefined_names(source: str, tree: ast.Module, filename: str) -> list[tuple[str, int]]:
    """(name, first line) of every global load no binding resolves.

    A name resolves when the module binds it (assignment, definition or
    import, including a ``global`` assignment inside a function), or it is
    a builtin or a module dunder.  Locals and closures resolve by
    construction.  A module with ``from x import *`` binds names nobody
    can see, so it is skipped.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names):
            return []
    bound, loaded = set(MODULE_NAMES), set()
    tables = [symtable.symtable(source, filename, "exec")]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        at_module = table.get_type() == "module"
        for symbol in table.get_symbols():
            name = symbol.get_name()
            binds = symbol.is_assigned() or symbol.is_imported()
            if binds and (at_module or symbol.is_declared_global()):
                bound.add(name)
            if symbol.is_referenced() and (at_module or symbol.is_global()):
                loaded.add(name)
    missing = loaded - bound
    lines = {name: [] for name in missing}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in missing:
            lines[node.id].append(node.lineno)
    first = [(name, min(found, default=1)) for name, found in lines.items()]
    return sorted(first, key=lambda item: (item[1], item[0]))


def check_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = walker.parse_source(source, filename=str(path))
    except SyntaxError as error:
        return [f"{path}:{error.lineno}: syntax error: {error.msg}"]
    used = walker.used_names(tree)
    problems = []
    for bound, display, lineno in walker.imported_bindings(tree):
        if bound.startswith("_") or bound == "annotations":
            continue
        if bound not in used:
            problems.append(f"{path}:{lineno}: unused import: {display}")
    for name, lineno in undefined_names(source, tree, str(path)):
        problems.append(f"{path}:{lineno}: undefined name: {name}")
    return problems


def run_fallback(paths: list[str]) -> int:
    print("ruff not found; running built-in fallback (syntax, unused imports, undefined names)")
    problems: list[str] = []
    for file in walker.iter_python_files(REPO_ROOT, paths):
        problems.extend(check_file(file))
    for problem in problems:
        print(problem)
    print(f"fallback lint: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    paths = sys.argv[1:] or DEFAULT_PATHS
    if shutil.which("ruff"):
        return run_ruff(paths)
    return run_fallback(paths)


if __name__ == "__main__":
    raise SystemExit(main())
