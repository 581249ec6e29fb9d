"""The environment knobs: every ``REPRO_*`` variable, declared once.

:data:`KNOBS` is the one table of the variables the package and its
benchmarks read.  Each :class:`Knob` names the variable, its value when
unset, its parse rule and bounds, and the error its subsystem raises for a
malformed value.  :func:`read` is the one reader: nothing else under
``src/`` or ``benchmarks/`` touches ``os.environ`` (the ``env-registry``
check of ``python -m repro.staticcheck``), and ``docs/configuration.md``
has one row per knob with the same default (``scripts/check_docs.py``).

A value is stripped first, and a blank value means unset.  The reader
never looks at a name the table does not declare.  The deprecated names
of :data:`repro._deprecated.RENAMED_ENV` are declared here too, with the
variable that replaced them, until 1.2.0.

This module imports only the standard library and :mod:`repro.errors`, so
the docs gate loads it on a bare interpreter.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import (
    ExperimentError,
    FaultInjectionError,
    FleetError,
    OptimizationError,
    ServingError,
)

__all__ = ["KNOBS", "Knob", "is_set", "parse", "parse_size", "read"]

_SIZE_SUFFIXES = {"": 1, "B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str) -> int:
    """Parse a human byte size (``"1048576"``, ``"512K"``, ``"1.5G"``)."""
    cleaned = text.strip().upper().removesuffix("IB").removesuffix("B")
    cleaned = cleaned if cleaned else text.strip().upper()
    suffix = cleaned[-1] if cleaned and cleaned[-1] in _SIZE_SUFFIXES else ""
    number = cleaned[: len(cleaned) - len(suffix)] if suffix else cleaned
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"unparseable size {text!r}") from None
    size = value * _SIZE_SUFFIXES[suffix]
    if not 0 <= size < math.inf:
        raise ValueError(f"size must be finite and >= 0, got {text!r}")
    return int(size)


#: Parse rule -> (function of the stripped text, what it accepts).
_RULES: "dict[str, tuple[Callable[[str], Any], str]]" = {
    "text": (str, "text"),
    "lower": (str.lower, "text"),
    "flag": (lambda raw: raw != "0", "a flag"),
    "integer": (int, "an integer"),
    "number": (float, "a number"),
    "size": (parse_size, "a finite byte size >= 0 (K/M/G suffixes allowed)"),
}


class Knob(NamedTuple):
    """One environment variable: how it is read and what it means unset."""

    name: str
    #: the value when the variable is unset or blank
    default: Any
    #: a key of the parse rules: ``text``, ``lower`` (lower-cased text),
    #: ``flag`` (anything but ``"0"`` is on), ``integer``, ``number`` or
    #: ``size`` (bytes, with ``K``/``M``/``G`` suffixes)
    rule: str
    #: raised for a malformed value
    error: "type[Exception]"
    #: inclusive bounds of a numeric value
    low: "int | None" = None
    high: "int | None" = None
    #: for a deprecated name, the variable that replaced it
    replaced_by: "str | None" = None

    @property
    def accepts(self) -> str:
        """What a valid value is, as error messages spell it."""
        noun = _RULES[self.rule][1]
        if self.high is not None:
            return f"{noun} in {self.low}..{self.high}"
        return noun if self.low is None else f"{noun} >= {self.low}"


def _table(*knobs: Knob) -> "dict[str, Knob]":
    return {knob.name: knob for knob in knobs}


KNOBS: "Mapping[str, Knob]" = _table(
    # caching (repro.cache)
    Knob("REPRO_NO_CACHE", False, "flag", ExperimentError),
    Knob("REPRO_CACHE_DIR", None, "text", ExperimentError),
    Knob("REPRO_CACHE_MAX_ENTRIES", 128, "integer", ExperimentError, low=1),
    Knob("REPRO_ACTIVITY_CACHE_MAX_ENTRIES", 1024, "integer", ExperimentError, low=1),
    Knob("REPRO_CACHE_MAX_BYTES", None, "size", ExperimentError),
    Knob("REPRO_CACHE_MAX_AGE_DAYS", None, "number", ExperimentError),
    Knob("REPRO_CACHE_EXPERIMENT_COST", 100.0, "number", ExperimentError),
    Knob("REPRO_CACHE_RETRIES", 5, "integer", ExperimentError, low=0),
    Knob("REPRO_CACHE_BACKOFF_MS", 10, "integer", ExperimentError, low=0),
    # parallel execution (repro.parallel)
    Knob("REPRO_PARALLEL_BACKEND", None, "lower", ExperimentError),
    Knob("REPRO_PARALLEL_WORKERS", 1, "integer", ExperimentError, low=1),
    # serving (repro.serve)
    Knob("REPRO_SERVE_HOST", "127.0.0.1", "text", ServingError),
    Knob("REPRO_SERVE_PORT", 8035, "integer", ServingError, low=0, high=65535),
    Knob("REPRO_SERVE_MAX_PENDING", 64, "integer", ServingError, low=1),
    Knob("REPRO_SERVE_MAX_BATCH", 16, "integer", ServingError, low=1),
    Knob("REPRO_SERVE_TIMEOUT_S", 0.0, "number", ServingError),
    # seeds of the fleet generators and the optimization engines
    Knob("REPRO_FLEET_SEED", 0, "integer", FleetError),
    Knob("REPRO_OPT_SEED", 0, "integer", OptimizationError),
    # fault injection (repro.faults)
    Knob("REPRO_FAULTS", None, "text", FaultInjectionError),
    Knob("REPRO_FAULTS_SEED", 0, "integer", FaultInjectionError),
    # benchmarks only
    Knob("REPRO_BENCH_SIZE", 1024, "integer", ValueError),
    Knob("REPRO_BENCH_PROFILE", "quick", "lower", ValueError),
    Knob("REPRO_FLEET_BENCH_GPUS", 256, "integer", ValueError),
    # deprecated: each entry point's own executor knobs, until 1.2.0
    Knob("REPRO_FLEET_BACKEND", None, "text", ExperimentError,
         replaced_by="REPRO_PARALLEL_BACKEND"),
    Knob("REPRO_FLEET_WORKERS", 1, "integer", ExperimentError, low=1,
         replaced_by="REPRO_PARALLEL_WORKERS"),
    Knob("REPRO_OPT_BACKEND", None, "text", ExperimentError,
         replaced_by="REPRO_PARALLEL_BACKEND"),
    Knob("REPRO_OPT_WORKERS", 1, "integer", ExperimentError, low=1,
         replaced_by="REPRO_PARALLEL_WORKERS"),
    Knob("REPRO_SERVE_BACKEND", None, "text", ExperimentError,
         replaced_by="REPRO_PARALLEL_BACKEND"),
    Knob("REPRO_SERVE_WORKERS", 1, "integer", ExperimentError, low=1,
         replaced_by="REPRO_PARALLEL_WORKERS"),
)


def _raw(name: str, environ: "Mapping[str, str] | None") -> str:
    if name not in KNOBS:
        raise KeyError(f"{name} is not declared in repro.env.KNOBS")
    return (os.environ if environ is None else environ).get(name, "").strip()


def is_set(name: str, environ: "Mapping[str, str] | None" = None) -> bool:
    """Whether ``name`` holds a value that is not blank."""
    return bool(_raw(name, environ))


def read(name: str, environ: "Mapping[str, str] | None" = None) -> Any:
    """The value of knob ``name`` in ``environ`` (default: the process
    environment), or its default when unset or blank."""
    raw = _raw(name, environ)
    return parse(name, raw) if raw else KNOBS[name].default


def parse(name: str, raw: str, source: "str | None" = None) -> Any:
    """``raw`` parsed by knob ``name``'s rule and bounds.

    A malformed value raises the knob's error naming ``source`` (default:
    the variable), so a flag that stands in for the variable is checked
    the same way.
    """
    knob = KNOBS[name]
    try:
        value = _RULES[knob.rule][0](raw)
    except ValueError:
        value = None
    low, high = knob.low, knob.high
    if value is None or (low is not None and value < low) or (high is not None and value > high):
        raise knob.error(f"{source or name} must be {knob.accepts}, got {raw!r}")
    return value
