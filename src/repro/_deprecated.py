"""The one deprecation shim left: the removed plan-cache tier's keyword.

Plans used to live in a process-wide LRU keyed by a plan fingerprint.  No
two points of the paper's sweeps share a plan, so the tier never hit, and
:class:`~repro.core.EstimationPipeline` now builds one plan per
configuration and shares it across that configuration's seeds.  Every
public ``plan_cache=`` keyword (and ``build_plan(cache=)``) is still
accepted and ignored via :func:`ignore_plan_cache`: a value other than
``None`` warns, ``None`` is silent because it asks for what now always
happens.
"""

from __future__ import annotations

import warnings

__all__ = ["ignore_plan_cache"]


def ignore_plan_cache(value: object, keyword: str = "plan_cache") -> None:
    """Accept a deprecated plan-cache argument; warn unless it is ``None``.

    Call it first thing in the public function that takes the keyword, so
    the warning points at that function's caller.
    """
    if value is not None:
        warnings.warn(
            f"{keyword}= is deprecated and ignored: the plan cache tier was removed "
            "and each run builds its plan once; the keyword will be removed in a "
            "future release",
            DeprecationWarning,
            stacklevel=3,
        )
