"""The batched activity engine's per-chunk working-set budget: one constant.

The batched estimators (:mod:`repro.activity.engine`) stack several seeds'
operand words per pass, as many as fit this budget.  The budget only sizes
chunks; chunked estimation is bit-for-bit identical to unchunked estimation
at any chunk size, so it can change speed but never a result.

The value is fixed at 1 MiB because measurement found nothing better to
pick.  From 256 KiB to 16 MiB no budget was consistently fastest on
256²–1024² configs, and at paper scale (2048²) any budget under 64 MiB
stacks one seed per chunk anyway.  A machine probe that used to choose the
budget picked anywhere from 256 KiB to 8 MiB in fresh processes on one
machine, so it bought noise, not speed.
"""

from __future__ import annotations

__all__ = ["DEFAULT_CHUNK_BUDGET_BYTES", "chunk_budget_bytes"]

#: Per-chunk working-set budget, in bytes: half a typical per-core L2.
DEFAULT_CHUNK_BUDGET_BYTES = 1 << 20


def chunk_budget_bytes() -> int:
    """The per-chunk working-set budget the batched engine targets."""
    return DEFAULT_CHUNK_BUDGET_BYTES
