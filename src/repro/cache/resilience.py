"""Retry policy and resilience accounting for the disk cache tiers.

The disk tiers treat three classes of failure differently:

* **transient** (SQLite busy/locked) — retried with capped exponential
  backoff and deterministic jitter, governed by :class:`RetryPolicy`;
* **corruption** (malformed database image) — the database file is
  quarantined (renamed aside) and rebuilt empty, losing cached entries
  but never correctness;
* **fatal** (ENOSPC, read-only filesystem) — the cache degrades to
  memory-only operation with a sticky ``degraded`` flag and reason, so
  the failure is loud in ``/stats`` and ``python -m repro.cache stats``
  while results stay bit-for-bit identical to the healthy path.

:class:`ResilienceStats` counts all three so operators can distinguish
"retried and recovered" from "running without a disk tier".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro import env

__all__ = ["RetryPolicy", "ResilienceStats"]


def _jitter_fraction(attempt: int) -> float:
    """Deterministic stand-in for random jitter in ``[0, 1)``.

    Derived from the attempt index alone so backoff sequences are
    replayable bit-for-bit under fault injection, while still
    decorrelating competing writers' retry timing across attempts.
    """
    digest = hashlib.sha256(f"repro-backoff-{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay_s(attempt)`` is the sleep before retry number ``attempt``
    (0-based), or ``None`` once the retry budget is exhausted.  The raw
    delay doubles per attempt from ``base_delay_s`` up to ``max_delay_s``
    and is then scaled into ``[0.5, 1.0)`` of itself by the jitter.
    """

    attempts: int = 5
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25

    @classmethod
    def from_env(cls, environ: "Optional[Mapping[str, str]]" = None) -> "RetryPolicy":
        """Policy from ``REPRO_CACHE_RETRIES`` / ``REPRO_CACHE_BACKOFF_MS``."""
        attempts = env.read("REPRO_CACHE_RETRIES", environ)
        backoff_ms = env.read("REPRO_CACHE_BACKOFF_MS", environ)
        return cls(attempts=attempts, base_delay_s=backoff_ms / 1000.0)

    def delay_s(self, attempt: int) -> "Optional[float]":
        if attempt >= self.attempts:
            return None
        raw = min(self.max_delay_s, self.base_delay_s * (2**attempt))
        return raw * (0.5 + 0.5 * _jitter_fraction(attempt))


@dataclass
class ResilienceStats:
    """Counters describing how a cache tier has absorbed faults.

    ``degraded`` is *sticky*: once a tier falls back to memory-only
    operation it stays degraded (and keeps its first reason) until the
    process restarts, so a transient window of disk-full can never be
    silently forgotten.
    """

    retries: int = 0
    backoff_s: float = 0.0
    quarantines: int = 0
    degraded: bool = False
    degraded_reason: str = ""

    def record_retry(self, delay_s: float) -> None:
        self.retries += 1
        self.backoff_s += delay_s

    def degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason

    def as_dict(self) -> "dict[str, Any]":
        return {
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "quarantines": self.quarantines,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }
