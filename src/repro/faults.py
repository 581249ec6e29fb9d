"""Deterministic fault injection for chaos-testing the repro stack.

The resilience layer (cache retry/degrade, serve batch isolation and
deadlines) is only trustworthy if its failure paths are exercised on
purpose.  This module provides *named injection points* — call sites in
the cache and serve layers invoke :func:`fault_point` with a stable dotted
name —
driven by a *seeded schedule* parsed from the ``REPRO_FAULTS`` environment
variable, e.g.::

    REPRO_FAULTS="cache.sqlite.write:busy@0.1;cache.sqlite.read:eio@3"

Each ``;``-separated entry is ``point:mode[@arg]``:

* no ``@arg``   — fire on every invocation of the point,
* ``@N`` (int)  — fire exactly on the N-th invocation (1-based),
* ``@p`` (float in ``(0, 1]``) — fire with probability *p* per invocation,
  drawn from a per-spec RNG seeded from ``REPRO_FAULTS_SEED`` and the spec
  identity, so the same seed replays the same fault sequence bit-for-bit.

When no schedule is active :func:`fault_point` is a single global load and
an identity check — cheap enough to leave in production call sites.

The catalogue of points and the failure each mode simulates lives in
:data:`CATALOGUE` and is documented in ``docs/resilience.md``.
"""

from __future__ import annotations

import errno
import hashlib
import os
import random
import re
import sqlite3
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro import env
from repro.errors import FaultInjectionError, InjectedFaultError

__all__ = [
    "CATALOGUE",
    "FaultSchedule",
    "FaultSpec",
    "active_schedule",
    "fault_point",
    "install_schedule",
    "parse_schedule",
    "register_fault_modes",
    "reset",
    "schedule_from_env",
    "uninstall_schedule",
]

_POINT_RE = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+)*$")
_MODE_RE = re.compile(r"^[a-z0-9_]+$")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``point:mode[@arg]`` entry of a fault schedule."""

    point: str
    mode: str
    probability: "Optional[float]" = None  # Bernoulli trigger per invocation
    at: "Optional[int]" = None  # fire exactly on this 1-based invocation

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        point, colon, rest = text.partition(":")
        if not colon or not rest:
            raise FaultInjectionError(
                f"fault spec {text!r} must look like 'point:mode[@arg]'"
            )
        mode, at_sep, arg = rest.partition("@")
        if not _POINT_RE.match(point):
            raise FaultInjectionError(f"invalid fault point name {point!r}")
        if not _MODE_RE.match(mode):
            raise FaultInjectionError(f"invalid fault mode name {mode!r}")
        if not at_sep:
            return cls(point=point, mode=mode)
        if re.fullmatch(r"\d+", arg):
            nth = int(arg)
            if nth < 1:
                raise FaultInjectionError(
                    f"fault spec {text!r}: invocation index must be >= 1"
                )
            return cls(point=point, mode=mode, at=nth)
        try:
            probability = float(arg)
        except ValueError:
            raise FaultInjectionError(
                f"fault spec {text!r}: argument must be an int count "
                f"or a float probability"
            ) from None
        if not 0.0 < probability <= 1.0:
            raise FaultInjectionError(
                f"fault spec {text!r}: probability must be in (0, 1]"
            )
        return cls(point=point, mode=mode, probability=probability)

    def fires(self, invocation: int, rng: "random.Random") -> bool:
        if self.at is not None:
            return invocation == self.at
        if self.probability is not None:
            return rng.random() < self.probability
        return True

    def __str__(self) -> str:
        if self.at is not None:
            return f"{self.point}:{self.mode}@{self.at}"
        if self.probability is not None:
            return f"{self.point}:{self.mode}@{self.probability:g}"
        return f"{self.point}:{self.mode}"


def parse_schedule(text: str) -> "list[FaultSpec]":
    """Parse a ``;``-separated ``REPRO_FAULTS`` value into specs."""
    specs = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            specs.append(FaultSpec.parse(part))
    return specs


def _spec_rng(seed: int, index: int, spec: FaultSpec) -> "random.Random":
    """A private RNG per spec so trigger draws never interleave across
    points — the fault sequence depends only on each point's hit order."""
    material = f"{seed}:{index}:{spec.point}:{spec.mode}".encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultSchedule:
    """A set of :class:`FaultSpec` plus per-point invocation counters.

    Thread-safe; the ``fired`` log records every injected fault in order,
    which the replay tests compare across runs with the same seed.
    """

    def __init__(self, specs: "Iterable[FaultSpec]", seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._by_point: "dict[str, list[tuple[FaultSpec, random.Random]]]" = {}
        for index, spec in enumerate(self.specs):
            pair = (spec, _spec_rng(seed, index, spec))
            self._by_point.setdefault(spec.point, []).append(pair)
        self._hits: "dict[str, int]" = {}
        self._fired: "list[dict]" = []
        self._lock = threading.Lock()

    @property
    def fired(self) -> "list[dict]":
        with self._lock:
            return list(self._fired)

    def hits(self, point: str) -> int:
        with self._lock:
            return self._hits.get(point, 0)

    def describe(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [str(spec) for spec in self.specs],
                "hits": dict(self._hits),
                "fired": list(self._fired),
            }

    def hit(self, point: str) -> None:
        """Record one invocation of ``point``; raise if a spec fires."""
        armed = self._by_point.get(point)
        if armed is None:
            return
        with self._lock:
            invocation = self._hits.get(point, 0) + 1
            self._hits[point] = invocation
            firing = None
            for spec, rng in armed:
                if firing is None and spec.fires(invocation, rng):
                    firing = spec
                    self._fired.append(
                        {
                            "point": point,
                            "mode": spec.mode,
                            "invocation": invocation,
                        }
                    )
        if firing is not None:
            _trigger(point, firing.mode)


def _oserror(code: int) -> OSError:
    return OSError(code, os.strerror(code))


# Injection-point catalogue: point -> mode -> builder.  A builder returns
# the exception to raise at the call site, or None to only record the hit.
CATALOGUE: "dict[str, dict[str, Callable[[], Optional[BaseException]]]]" = {
    "cache.sqlite.open": {
        "busy": lambda: sqlite3.OperationalError("database is locked"),
        "corrupt": lambda: sqlite3.DatabaseError(
            "database disk image is malformed"
        ),
        "error": lambda: InjectedFaultError("injected cache.sqlite.open fault"),
    },
    "cache.sqlite.read": {
        "busy": lambda: sqlite3.OperationalError("database is locked"),
        "corrupt": lambda: sqlite3.DatabaseError(
            "database disk image is malformed"
        ),
        "eio": lambda: _oserror(errno.EIO),
        "error": lambda: InjectedFaultError("injected cache.sqlite.read fault"),
    },
    "cache.sqlite.write": {
        "busy": lambda: sqlite3.OperationalError("database is locked"),
        "corrupt": lambda: sqlite3.DatabaseError(
            "database disk image is malformed"
        ),
        "full": lambda: _oserror(errno.ENOSPC),
        "readonly": lambda: _oserror(errno.EROFS),
        "error": lambda: InjectedFaultError("injected cache.sqlite.write fault"),
    },
    "serve.batch": {
        "error": lambda: InjectedFaultError("injected serve.batch fault"),
    },
}


def register_fault_modes(
    point: str, modes: "Mapping[str, Callable[[], Optional[BaseException]]]"
) -> None:
    """Extend the catalogue with custom modes (used by tests)."""
    if not _POINT_RE.match(point):
        raise FaultInjectionError(f"invalid fault point name {point!r}")
    CATALOGUE.setdefault(point, {}).update(modes)


def _trigger(point: str, mode: str) -> None:
    modes = CATALOGUE.get(point)
    builder = modes.get(mode) if modes else None
    if builder is None:
        raise FaultInjectionError(
            f"fault point {point!r} has no mode {mode!r}; "
            f"known: {sorted(modes) if modes else 'none'}"
        )
    outcome = builder()
    if outcome is not None:
        raise outcome


ENV_FAULTS = "REPRO_FAULTS"
ENV_FAULTS_SEED = "REPRO_FAULTS_SEED"


def schedule_from_env(environ: "Optional[Mapping[str, str]]" = None) -> "Optional[FaultSchedule]":
    """Build a schedule from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``.

    Returns ``None`` when ``REPRO_FAULTS`` is unset or empty.
    """
    raw = env.read(ENV_FAULTS, environ)
    if raw is None:
        return None
    seed = env.read(ENV_FAULTS_SEED, environ)
    return FaultSchedule(parse_schedule(raw), seed=seed)


# The active schedule resolves lazily from the environment on the first
# fault_point() hit.
_UNRESOLVED = object()
_active: object = _UNRESOLVED


def active_schedule() -> "Optional[FaultSchedule]":
    """The schedule in effect, resolving ``REPRO_FAULTS`` on first use."""
    global _active
    if _active is _UNRESOLVED:
        _active = schedule_from_env()
    return _active  # type: ignore[return-value]


def install_schedule(schedule: "Optional[FaultSchedule]") -> "Optional[FaultSchedule]":
    """Activate ``schedule`` for this process (bypassing the environment)."""
    global _active
    _active = schedule
    return schedule


def uninstall_schedule() -> None:
    """Disable fault injection regardless of the environment."""
    global _active
    _active = None


def reset() -> None:
    """Forget any resolved schedule; the next hit re-reads the environment."""
    global _active
    _active = _UNRESOLVED


def fault_point(point: str) -> None:
    """Hook for a named injection point; near-zero overhead when inactive."""
    schedule = _active
    if schedule is None:
        return
    if schedule is _UNRESOLVED:
        schedule = active_schedule()
        if schedule is None:
            return
    schedule.hit(point)  # type: ignore[union-attr]
