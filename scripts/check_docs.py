#!/usr/bin/env python
"""Documentation consistency checks (stdlib only; run by CI's docs job).

Three checks, any of which fails the build:

1. **Link resolution** — every intra-repo Markdown link in ``README.md``
   and ``docs/**/*.md`` must point at a file or directory that exists.
   External links (``http(s)://``, ``mailto:``) and pure in-page anchors
   (``#...``) are ignored; a link's ``#fragment`` suffix is stripped
   before the filesystem check.

2. **Environment-variable sync** — ``docs/configuration.md`` claims to be
   the authoritative table of every ``REPRO_*`` knob.  This check scans
   ``src/**/*.py`` and ``benchmarks/**/*.py`` for ``REPRO_[A-Z_]+`` names
   and fails if any is missing from the configuration page (undocumented
   knob) or documented there without appearing in the code (stale doc).

3. **Default-value sync** — for knobs whose read site spells the fallback
   as a literal (``environ.get("REPRO_X", "quick")``,
   ``_env_int("REPRO_X", 64)``, or an UPPER_CASE constant assigned a
   literal in the same file), the *Default* cell of the configuration
   table must carry the same value in backticks.  Knobs with sentinel
   fallbacks (empty string) or prose defaults (``unset``, ``enabled``)
   are exempt — there is nothing mechanical to compare.

The name and default extraction is shared with the ``env-registry`` pass
of ``python -m repro.staticcheck`` (see
:mod:`repro.staticcheck.envscan`); this script side-loads the stdlib-only
modules so it still runs on a bare interpreter.

Usage::

    python scripts/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _staticcheck_bootstrap  # noqa: E402

envscan = _staticcheck_bootstrap.load("envscan")
walker = _staticcheck_bootstrap.load("walker")

#: Markdown inline link: ``[text](target)``.  Targets with spaces are not
#: used in this repo, which keeps the pattern simple.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Environment-variable names; see envscan.ENV_NAME_RE for the shape
#: rationale (digit support, wildcard-prose lookahead).
ENV_RE = envscan.ENV_NAME_RE

#: Markdown files whose links are checked.
LINKED_DOCS = ("README.md", "docs")

#: Where env vars must be documented.
CONFIG_DOC = Path("docs") / "configuration.md"

#: Code trees whose REPRO_* references must be documented.
CODE_TREES = ("src", "benchmarks")


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


def check_env_sync(root: Path) -> list[str]:
    problems: list[str] = []
    config_doc = root / CONFIG_DOC
    if not config_doc.is_file():
        return [f"missing {CONFIG_DOC} (the authoritative env-var reference)"]
    documented = envscan.env_names_in_text(config_doc.read_text(encoding="utf-8"))

    in_code: set[str] = set()
    for py_file in walker.iter_python_files(root, CODE_TREES):
        in_code |= envscan.env_names_in_text(py_file.read_text(encoding="utf-8"))

    for name in sorted(in_code - documented):
        problems.append(
            f"undocumented environment variable: {name} "
            f"(used in code, absent from {CONFIG_DOC})"
        )
    for name in sorted(documented - in_code):
        problems.append(
            f"stale documentation: {name} is listed in {CONFIG_DOC} "
            "but appears nowhere under " + " or ".join(CODE_TREES)
        )
    return problems


#: A table row of the configuration page: ``| `REPRO_X` | <default> | ...``.
DOC_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|\s*([^|]*)\|")

#: A Default cell that is one backticked literal (anything else is prose).
DOC_LITERAL_RE = re.compile(r"^`([^`]+)`$")


def _code_defaults(root: Path) -> "dict[str, set[str]]":
    """Env-var name -> literal fallback values found at read sites."""
    defaults: "dict[str, set[str]]" = {}
    for py_file in walker.iter_python_files(root, CODE_TREES):
        try:
            tree = walker.parse_source(
                py_file.read_text(encoding="utf-8"), filename=str(py_file)
            )
        except SyntaxError:
            continue  # lint's job, not the doc gate's
        for name, values in envscan.env_default_literals(tree).items():
            defaults.setdefault(name, set()).update(values)
    return defaults


def check_env_defaults(root: Path) -> list[str]:
    problems: list[str] = []
    config_doc = root / CONFIG_DOC
    if not config_doc.is_file():
        return []  # check_env_sync already reports the missing page
    documented: "dict[str, str]" = {}
    for line in config_doc.read_text(encoding="utf-8").splitlines():
        row = DOC_ROW_RE.match(line)
        if row is None:
            continue
        literal = DOC_LITERAL_RE.match(row.group(2).strip())
        if literal is not None:
            documented[row.group(1)] = literal.group(1)

    code = _code_defaults(root)
    for name, values in sorted(code.items()):
        if len(values) > 1:
            problems.append(
                f"inconsistent defaults in code for {name}: "
                + ", ".join(sorted(values))
            )
            continue
        (value,) = values
        doc_value = documented.get(name)
        if doc_value is None:
            if name in config_doc.read_text(encoding="utf-8"):
                problems.append(
                    f"default mismatch for {name}: code falls back to "
                    f"`{value}` but the Default cell in {CONFIG_DOC} is not "
                    f"the literal `{value}`"
                )
            continue
        if doc_value != value:
            problems.append(
                f"default mismatch for {name}: code falls back to `{value}` "
                f"but {CONFIG_DOC} documents `{doc_value}`"
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

    problems = check_links(root) + check_env_sync(root) + check_env_defaults(root)
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
