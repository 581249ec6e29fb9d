"""``env-registry``: the environment is read in one place, and every knob
is documented.

:mod:`repro.env` declares every ``REPRO_*`` knob once and holds the one
reader, so the pass has two rules:

* outside ``src/repro/env.py``, nothing touches ``os.environ`` or calls
  ``os.getenv`` (aliases resolved: ``from os import environ``,
  ``import os as o``); declare the knob in :mod:`repro.env` and call
  :func:`repro.env.read` instead;
* every knob declared there (a ``Knob("REPRO_...", ...)`` row) is in the
  ``REPRO_*`` namespace and has a row in ``docs/configuration.md``.

``scripts/check_docs.py`` checks the other direction: the table's Default
cells against the declared defaults.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.staticcheck.envscan import ENV_NAME_RE, doc_rows
from repro.staticcheck.loader import Codebase, ModuleInfo
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import canonical_name, dotted_name

__all__ = ["CONFIG_DOC", "ENV_MODULE", "check_env_registry"]

#: Where every knob must be documented, relative to the repo root.
CONFIG_DOC = Path("docs") / "configuration.md"

#: The one module that reads the environment and declares the knobs.
ENV_MODULE = "repro.env"

#: The process-environment surfaces only :data:`ENV_MODULE` may use.
_ENVIRON = ("os.environ", "os.getenv")


def _environ_uses(info: ModuleInfo) -> "dict[int, str]":
    """Line -> the ``os.environ``/``os.getenv`` surface used on it."""
    by_line: "dict[int, str]" = {}
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        dotted = dotted_name(node)
        canonical = canonical_name(dotted, info.aliases) if dotted else ""
        if canonical in _ENVIRON or canonical.startswith("os.environ."):
            by_line.setdefault(node.lineno, canonical)
    return by_line


def _declared_knobs(info: ModuleInfo) -> "list[tuple[str, int]]":
    """``(name, line)`` of every ``Knob("NAME", ...)`` declaration."""
    return [
        (node.args[0].value, node.lineno)
        for node in ast.walk(info.tree)
        if isinstance(node, ast.Call)
        and dotted_name(node.func) == "Knob"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


@register_pass(
    "env-registry",
    "only repro.env reads the environment, and every knob it declares is documented",
)
def check_env_registry(codebase: Codebase) -> "list[Finding]":
    findings: "list[Finding]" = []
    for info in codebase.modules:
        if info.name == ENV_MODULE:
            continue
        for line, name in sorted(_environ_uses(info).items()):
            findings.append(
                Finding(
                    rule="env-registry",
                    file=info.relpath,
                    line=line,
                    message=f"{name} used outside {ENV_MODULE}",
                    detail=f"read:{name}",
                    hint=f"declare the knob in {ENV_MODULE}.KNOBS and call {ENV_MODULE}.read",
                )
            )

    env_module = codebase.module(ENV_MODULE)
    if env_module is None:
        return findings
    config_doc = codebase.root / CONFIG_DOC
    rows = doc_rows(config_doc.read_text(encoding="utf-8")) if config_doc.is_file() else {}
    for name, line in _declared_knobs(env_module):
        if not ENV_NAME_RE.fullmatch(name):
            findings.append(
                Finding(
                    rule="env-registry",
                    file=env_module.relpath,
                    line=line,
                    message=f"knob {name!r} is outside the REPRO_* namespace",
                    detail=name,
                    hint="rename the knob into the REPRO_* family",
                )
            )
        elif name not in rows:
            findings.append(
                Finding(
                    rule="env-registry",
                    file=env_module.relpath,
                    line=line,
                    message=f"{name} is declared here but has no row in {CONFIG_DOC.as_posix()}",
                    detail=f"undocumented:{name}",
                    hint=f"add a table row for {name} (name, default, effect)",
                )
            )
    return findings
