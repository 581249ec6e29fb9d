#!/usr/bin/env python
"""Documentation consistency checks (stdlib only; run by CI's docs job).

Three checks, any of which fails the build:

1. **Link resolution** — every intra-repo Markdown link in ``README.md``
   and ``docs/**/*.md`` must point at a file or directory that exists.
   External links (``http(s)://``, ``mailto:``) and pure in-page anchors
   (``#...``) are ignored; a link's ``#fragment`` suffix is stripped
   before the filesystem check.

2. **Environment-variable sync** — ``src/repro/env.py`` declares every
   ``REPRO_*`` knob (``KNOBS``).
   ``docs/configuration.md`` must have a table row for each declared
   name and mention no other ``REPRO_*`` name, and no file under ``src/``
   or ``benchmarks/`` may mention an undeclared one (prose about a
   removed knob is drift too).

3. **Default-value sync** — the second cell of each row must match the
   declaration: the backticked default (prose starting with ``unset``
   when the default is ``None`` or off).

The knob table imports only the standard library and :mod:`repro.errors`,
so this script side-loads it, with the stdlib-only staticcheck helpers it
shares with the ``env-registry`` pass (:mod:`repro.staticcheck.envscan`),
and still runs on a bare interpreter.

Usage::

    python scripts/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Any, Mapping

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _staticcheck_bootstrap  # noqa: E402

envscan = _staticcheck_bootstrap.load("envscan")
walker = _staticcheck_bootstrap.load("walker")

#: Markdown inline link: ``[text](target)``.  Targets with spaces are not
#: used in this repo, which keeps the pattern simple.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Markdown files whose links are checked.
LINKED_DOCS = ("README.md", "docs")

#: Where env vars must be documented.
CONFIG_DOC = Path("docs") / "configuration.md"

#: Code trees whose REPRO_* mentions must be declared knobs.
CODE_TREES = ("src", "benchmarks")

#: The knob table, relative to the repo root.
ENV_TABLE = Path("src") / "repro" / "env.py"


def _markdown_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for entry in LINKED_DOCS:
        path = root / entry
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
    return files


def check_links(root: Path) -> list[str]:
    problems: list[str] = []
    for md_file in _markdown_files(root):
        text = md_file.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (md_file.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md_file.relative_to(root)}: broken link -> {target}"
                )
    return problems


def check_env_sync(root: Path, knobs: "Mapping[str, Any]") -> list[str]:
    config_doc = root / CONFIG_DOC
    if not config_doc.is_file():
        return [f"missing {CONFIG_DOC} (the authoritative env-var reference)"]
    text = config_doc.read_text(encoding="utf-8")
    rows = envscan.doc_rows(text)
    problems = [
        f"undocumented environment variable: {name} "
        f"(declared in {ENV_TABLE}, no row in {CONFIG_DOC})"
        for name in sorted(set(knobs) - set(rows))
    ]
    problems += [
        f"stale documentation: {name} is listed in {CONFIG_DOC} "
        f"but not declared in {ENV_TABLE}"
        for name in sorted(envscan.env_names_in_text(text) - set(knobs))
    ]
    in_code: set[str] = set()
    for py_file in walker.iter_python_files(root, CODE_TREES):
        in_code |= envscan.env_names_in_text(py_file.read_text(encoding="utf-8"))
    problems += [
        f"undeclared environment variable: {name} (mentioned under "
        + " or ".join(CODE_TREES)
        + f", not declared in {ENV_TABLE})"
        for name in sorted(in_code - set(knobs))
    ]
    return problems


def _expected_cell(knob: Any) -> "str | None":
    """The second table cell ``knob``'s declaration calls for; ``None``
    asks for prose starting with ``unset``."""
    if knob.default is None or knob.default is False:
        return None
    default = knob.default
    return f"`{default:g}`" if isinstance(default, float) else f"`{default}`"


def check_env_defaults(root: Path, knobs: "Mapping[str, Any]") -> list[str]:
    config_doc = root / CONFIG_DOC
    if not config_doc.is_file():
        return []  # check_env_sync already reports the missing page
    rows = envscan.doc_rows(config_doc.read_text(encoding="utf-8"))
    problems: list[str] = []
    for name, knob in sorted(knobs.items()):
        cell = rows.get(name)
        expected = _expected_cell(knob)
        if cell is None or cell == expected or (expected is None and cell.startswith("unset")):
            continue
        problems.append(
            f"default mismatch for {name}: {ENV_TABLE} declares "
            f"{expected or 'no default (unset)'} but {CONFIG_DOC} documents {cell or 'nothing'}"
        )
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    problems = check_links(root)
    try:
        knobs = _staticcheck_bootstrap.load_env(root).KNOBS
    except FileNotFoundError:
        problems.append(f"missing {ENV_TABLE} (the knob table)")
    else:
        problems += check_env_sync(root, knobs) + check_env_defaults(root, knobs)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    md_count = len(_markdown_files(root))
    print(
        f"docs OK: {md_count} markdown files checked, "
        "env-var table and defaults in sync"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
