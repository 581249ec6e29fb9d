"""Deprecation shims for removed knobs, each kept for one release.

Plans used to live in a process-wide LRU keyed by a plan fingerprint.  No
two points of the paper's sweeps share a plan, so the tier never hit, and
:class:`~repro.core.EstimationPipeline` now builds one plan per
configuration and shares it across that configuration's seeds.  Under the
:mod:`repro.api` deprecation policy the old spellings keep working:

* every public ``plan_cache=`` keyword (and ``build_plan(cache=)``) is
  accepted and ignored via :func:`ignore_plan_cache` — a value other than
  ``None`` warns, ``None`` is silent because it asks for what now always
  happens;
* ``PlanCache`` and ``get_default_plan_cache`` still resolve through the
  façades' module ``__getattr__`` (:func:`removed_attribute`), with a
  :class:`DeprecationWarning`: the class builds an inert object and the
  accessor returns ``None``.

``ServiceConfig(batch_window_s=)`` follows the same rule through
:func:`ignore_batch_window`: the estimation service has no batch timer.
So does ``ExperimentCache``/``ActivityCache(disk_backend=)`` through
:func:`ignore_disk_backend`: SQLite is the only disk layout, and
``run_configs(chunksize=)`` through :func:`ignore_chunksize`: only the
removed process pool submitted work in chunks.

The ``processes`` backend (a process pool with shared-memory result
transfer) was removed: on the NumPy-bound estimators, whose kernels
release the GIL, threads kept pace with it.  :func:`processes_backend`
maps the old name, wherever a backend is named, to ``threads``.

The fleet CLI, the optimize CLI and the server used to read their own
backend and worker knobs; :data:`RENAMED_ENV` maps each old name to the one
that replaced it, as :data:`repro.env.KNOBS` declares them, and
:func:`renamed_env` is the only place that looks them up.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping

from repro.env import KNOBS, is_set

__all__ = [
    "RENAMED_ENV",
    "ignore_batch_window",
    "ignore_chunksize",
    "ignore_disk_backend",
    "ignore_plan_cache",
    "processes_backend",
    "removed_attribute",
    "renamed_env",
]

#: Deprecated environment variable -> the variable that replaced it, as
#: :data:`repro.env.KNOBS` declares them.
RENAMED_ENV = {knob.name: knob.replaced_by for knob in KNOBS.values() if knob.replaced_by}


def renamed_env(
    subsystem: str, environ: "Mapping[str, str] | None" = None
) -> "dict[str, str]":
    """The deprecated ``REPRO_<subsystem>_*`` names that are set, by replacement.

    Maps each replacement to the old name, which the caller reads with
    :func:`repro.env.read`.  Every old name that is set raises one
    :class:`DeprecationWarning` naming its replacement.  For one release
    the caller keeps the old meaning: the old name is the default of its
    own subsystem and beats the replacement there.
    """
    found: "dict[str, str]" = {}
    for old, new in RENAMED_ENV.items():
        if old.startswith(f"REPRO_{subsystem}_") and is_set(old, environ):
            warnings.warn(
                f"{old} is deprecated: set {new} instead; the old name will be "
                "removed in a future release",
                DeprecationWarning,
                stacklevel=3,
            )
            found[new] = old
    return found


def ignore_plan_cache(value: object, keyword: str = "plan_cache") -> None:
    """Accept a deprecated plan-cache argument; warn unless it is ``None``.

    Call it first thing in the public function that takes the keyword, so
    the warning points at that function's caller.
    """
    _ignore(value, keyword, "the plan cache tier was removed and each run builds its plan once")


def ignore_batch_window(value: object) -> None:
    """Accept ``ServiceConfig(batch_window_s=)``; called from its ``__post_init__``."""
    _ignore(value, "batch_window_s", "batches no longer wait on a timer", stacklevel=4)


def ignore_disk_backend(value: object) -> None:
    """Accept a cache's ``disk_backend=``; called from its ``__post_init__``."""
    _ignore(value, "disk_backend", "the disk tier is always SQLite", stacklevel=4)


def ignore_chunksize(value: object) -> None:
    """Accept ``run_configs(chunksize=)``; called first thing in it."""
    _ignore(value, "chunksize", "every backend submits one task at a time")


def processes_backend(name: str, source: str = "backend") -> str:
    """``name``, or ``"threads"`` with a warning when it is ``"processes"``.

    ``source`` names where the value came from (an argument or a variable).
    """
    if name != "processes":
        return name
    warnings.warn(
        f"{source}='processes' is deprecated and runs on threads: the process "
        "backend was removed; the name will be removed in a future release",
        DeprecationWarning,
        stacklevel=3,
    )
    return "threads"


def _ignore(value: object, keyword: str, reason: str, stacklevel: int = 3) -> None:
    if value is not None:
        warnings.warn(
            f"{keyword}= is deprecated and ignored: {reason}; the keyword will be "
            "removed in a future release",
            DeprecationWarning,
            stacklevel=stacklevel + 1,
        )


class PlanCache:
    """Inert stand-in for the removed plan tier; takes its old arguments."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        pass


def get_default_plan_cache() -> None:
    """There is no default plan tier any more."""
    return None


_REMOVED = {"PlanCache": PlanCache, "get_default_plan_cache": get_default_plan_cache}


def removed_attribute(module: str, name: str) -> Any:
    """Module ``__getattr__`` body: serve a removed name with a warning."""
    if name in _REMOVED:
        warnings.warn(
            f"{module}.{name} is deprecated: the plan cache tier was removed; "
            "the name will be removed in a future release",
            DeprecationWarning,
            stacklevel=3,
        )
        return _REMOVED[name]
    raise AttributeError(f"module {module!r} has no attribute {name!r}")
