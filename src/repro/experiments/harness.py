"""Experiment runner: orchestration over the pure estimation core.

The measurement pipeline itself — plan construction, per-seed operand
generation, batched activity estimation, power/runtime modeling and the
simulated DCGM trace — lives in :mod:`repro.core` and is side-effect-free.
This module owns the *orchestration* concerns of a one-shot run:

* :class:`ExperimentRunner` wraps one
  :class:`~repro.core.EstimationPipeline` per configuration (kept as a
  class so callers can hold per-config state), and
* :func:`run_experiment` consults the content-addressed result cache
  (:mod:`repro.cache`) around the pipeline, so repeated runs of the same
  configuration are served without recomputation.

The sweep runner (:mod:`repro.experiments.sweep`) drives the same core
directly, one seed group at a time
(:func:`~repro.core.pipeline.run_seed_group`), and the serving layer
(:mod:`repro.serve`) adds request coalescing over the sweep; sharing the
core is what keeps their results bit-for-bit identical to a direct call
here.
"""

from __future__ import annotations

from repro._deprecated import ignore_plan_cache
from repro.cache.fingerprint import experiment_fingerprint
from repro.cache.store import DEFAULT_CACHE, resolve_cache
from repro.core.pipeline import EstimationPipeline
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import ExperimentPlan
from repro.experiments.results import ExperimentResult

__all__ = ["ExperimentRunner", "run_experiment"]

class ExperimentRunner:
    """Runs one :class:`~repro.experiments.config.ExperimentConfig`.

    A thin orchestration wrapper around the pure
    :class:`~repro.core.EstimationPipeline`: the pipeline computes, the
    runner is the stable per-config handle that :func:`run_experiment` (and
    older callers) hold on to.  The pipeline's plan/model attributes are
    mirrored here so existing introspection keeps working.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
    ) -> None:
        ignore_plan_cache(plan_cache)
        self.pipeline = EstimationPipeline(config, activity_cache=activity_cache)
        self.config = config
        self.plan: ExperimentPlan = self.pipeline.plan
        self.device = self.pipeline.device
        self.power_model = self.pipeline.power_model
        self.runtime_model = self.pipeline.runtime_model
        self.activity_engine = self.pipeline.activity_engine

    # ------------------------------------------------------------------ API

    def run(self) -> ExperimentResult:
        """Run all seeds through the batched core pipeline."""
        return self.pipeline.run()


def run_experiment(
    config: ExperimentConfig,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
) -> ExperimentResult:
    """Run a configuration, consulting the content-addressed result caches.

    ``cache`` accepts an explicit :class:`~repro.cache.store.ExperimentCache`,
    ``None`` to force recomputation, or the default sentinel to use the
    process-wide cache (see :mod:`repro.cache`).  Cache hits return a copy
    whose label is re-stamped from ``config``, since labels are excluded
    from the fingerprint.  ``activity_cache`` (same convention, with
    :class:`~repro.cache.store.ActivityCache`) feeds the per-seed activity
    tier beneath the experiment cache: on an experiment-cache miss, seeds
    whose workload was already estimated — for any device or measurement
    procedure — are reused instead of recomputed.  ``plan_cache`` is
    deprecated and ignored.
    """
    ignore_plan_cache(plan_cache)
    resolved = resolve_cache(cache)
    if resolved is None:
        return ExperimentRunner(config, activity_cache=activity_cache).run()
    key = experiment_fingerprint(config)
    hit = resolved.get(key)
    if hit is not None:
        hit.config["label"] = config.describe()["label"]
        return hit
    result = ExperimentRunner(config, activity_cache=activity_cache).run()
    resolved.put(key, result)
    return result
