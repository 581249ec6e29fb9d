"""``REPRO_*`` names in text, and the rows of the configuration table.

Shared by the ``env-registry`` checker pass
(:mod:`repro.staticcheck.passes.envvars`) and ``scripts/check_docs.py``.
Like :mod:`repro.staticcheck.walker` this module must stay importable on a
bare interpreter (the docs CI job installs nothing): stdlib only.
"""

from __future__ import annotations

import re

__all__ = ["DOC_ROW_RE", "ENV_NAME_RE", "doc_rows", "env_names_in_text"]

#: Environment-variable names (digits allowed, so a hypothetical tier-2
#: cache knob matches whole); the trailing guard strips regex/prose artifacts
#: like a dangling underscore, and the lookahead keeps wildcard prose such
#: as ``REPRO_SERVE_*`` ("the whole family") from half-matching as a name.
ENV_NAME_RE = re.compile(r"REPRO_[A-Z0-9][A-Z0-9_]*[A-Z0-9](?![\w*])")

#: A table row of the configuration page: ``| `REPRO_X` | <cell> | ...``.
DOC_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|\s*([^|]*)\|", re.MULTILINE)


def env_names_in_text(text: str) -> set[str]:
    """Every ``REPRO_*`` name mentioned in ``text`` (code or Markdown)."""
    return set(ENV_NAME_RE.findall(text))


def doc_rows(text: str) -> "dict[str, str]":
    """Variable -> the second cell of its table row in ``text``: the
    *Default* of a live knob, the *Replacement* of a deprecated one."""
    return {name: cell.strip() for name, cell in DOC_ROW_RE.findall(text)}
