"""Load ``repro``'s stdlib-only modules on a bare interpreter.

The docs and lint CI jobs install nothing, and ``import repro`` executes
``repro/__init__.py``, which imports numpy — so the repo scripts cannot
simply ``from repro.staticcheck import walker``.  Instead this helper
registers *stub* package objects for ``repro`` and ``repro.staticcheck``
in ``sys.modules`` whose ``__path__`` points at the real source
directories, then imports the requested module through the normal
machinery.  Intra-package imports between the stdlib-only modules
(``repro.env`` importing ``repro.errors``) resolve through the stubs too,
and the package ``__init__`` files are never executed.

Only :mod:`repro.staticcheck.walker`, :mod:`repro.staticcheck.envscan`
and :mod:`repro.env` are safe to load this way — they are the modules
contractually kept free of third-party imports (``repro.env`` imports
:mod:`repro.errors` alone).  If the real ``repro`` package is already
imported (e.g. a test process with the package installed), the stubs are
skipped and the genuine package serves the import.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules this loader is allowed to serve; everything else in the package
#: may import numpy-adjacent code and must go through a real install.
_STDLIB_ONLY = ("walker", "envscan")

_PACKAGE_DIRS = {
    "repro": REPO_ROOT / "src" / "repro",
    "repro.staticcheck": REPO_ROOT / "src" / "repro" / "staticcheck",
}


def _stub_packages() -> None:
    for package, directory in _PACKAGE_DIRS.items():
        if package not in sys.modules:
            stub = types.ModuleType(package)
            stub.__path__ = [str(directory)]
            sys.modules[package] = stub


def load(name: str) -> types.ModuleType:
    """Import ``repro.staticcheck.<name>`` without running ``repro/__init__``."""
    if name not in _STDLIB_ONLY:
        raise ValueError(
            f"refusing to side-load repro.staticcheck.{name}: only "
            f"{', '.join(_STDLIB_ONLY)} are stdlib-only"
        )
    full = f"repro.staticcheck.{name}"
    if full in sys.modules:
        return sys.modules[full]
    _stub_packages()
    return importlib.import_module(full)


def load_env(root: Path = REPO_ROOT) -> types.ModuleType:
    """Import ``<root>/src/repro/env.py``, the knob table, as ``repro.env``.

    ``root`` may be another checkout than this script's; its
    ``repro.errors`` import resolves through this checkout's package.
    """
    path = Path(root) / "src" / "repro" / "env.py"
    if not path.is_file():
        raise FileNotFoundError(f"no knob table at {path}")
    _stub_packages()
    spec = importlib.util.spec_from_file_location("repro.env", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["repro.env"] = module
    spec.loader.exec_module(module)
    return module
