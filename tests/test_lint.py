"""The offline fallback of ``scripts/lint.py``, which runs when ruff is absent."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

import pytest

LINT = Path(__file__).resolve().parent.parent / "scripts" / "lint.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_script", LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    return path


def test_undefined_global_name_fails(lint, tmp_path, capsys):
    path = _module(
        tmp_path,
        """\
        import sys


        def pid():
            return os.getpid(), sys.argv
        """,
    )
    assert lint.run_fallback([str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:5: undefined name: os" in out
    assert "fallback lint: 1 problem(s)" in out


def test_every_kind_of_binding_resolves(lint, tmp_path):
    path = _module(
        tmp_path,
        """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from pathlib import Path

        LIMIT = 3


        def configure():
            global STATE
            STATE = 1


        class Box:
            size = LIMIT

            def items(self) -> "list[Path]":
                return [item for item in range(self.size)] + [STATE, __file__, __name__]


        def outer():
            step = 1

            def inner():
                try:
                    return step + len(Box().items())
                except ValueError as error:
                    return (found := error)

            return inner
        """,
    )
    assert lint.check_file(path) == []


def test_names_in_a_class_body_are_checked(lint, tmp_path):
    path = _module(tmp_path, "class Box:\n    size = missing\n")
    assert lint.check_file(path) == [f"{path}:2: undefined name: missing"]


def test_star_import_skips_the_check(lint, tmp_path):
    path = _module(tmp_path, "from os import *\n\n\ndef pid():\n    return getpid()\n")
    assert lint.check_file(path) == []


def test_unused_import_is_still_reported(lint, tmp_path):
    path = _module(tmp_path, "import os\n")
    assert lint.check_file(path) == [f"{path}:1: unused import: os"]
