"""Content-addressed caching of experiment results and activity reports.

The measurement pipeline is fully deterministic: an
:class:`~repro.experiments.config.ExperimentConfig` (plus the code version)
completely determines its :class:`~repro.experiments.results.ExperimentResult`,
and the expensive part — the per-seed bit-level activity estimate — depends
on even less (just the workload, seed derivation and sampling knobs).  This
package exploits that with two cache tiers:

* :mod:`repro.cache.fingerprint` — canonical SHA-256 keys:
  :func:`experiment_fingerprint` over config + code version for whole
  results, :func:`activity_fingerprint` over the workload subset + seed
  for per-seed :class:`~repro.activity.report.ActivityReport` objects.
* :mod:`repro.cache.store` — bounded in-memory LRUs with an optional
  on-disk SQLite store (:class:`ExperimentCache` and :class:`ActivityCache`),
  plus the process-wide default instances that :func:`repro.run_experiment`,
  the sweep runner and the activity engine consult automatically.
* :mod:`repro.cache.sqlite_store` — the disk tier: one WAL-mode
  ``entries.sqlite`` database per tier directory.
* :mod:`repro.cache.lifecycle` — disk-cache garbage collection (by total
  size and entry age) behind the ``python -m repro.cache`` CLI
  (``stats`` / ``ls`` / ``prune`` / ``clear``).

Typical use::

    from repro.cache import ExperimentCache
    cache = ExperimentCache(max_entries=256, disk_dir="results/cache")
    result = repro.run_experiment(config, cache=cache)   # cold: computes
    result = repro.run_experiment(config, cache=cache)   # warm: cache hit
    print(cache.stats.hit_rate)

The activity tier makes sweeps that vary only the device or the measurement
procedure (e.g. the fig7 cross-GPU study) estimate activity once per seed::

    configs = [base.with_overrides(gpu=gpu) for gpu in ("v100", "a100", "h100")]
    results = repro.run_configs(configs)   # one activity estimate per seed

Environment variables: ``REPRO_NO_CACHE=1`` disables both default tiers,
``REPRO_CACHE_DIR`` gives them a disk store (activity entries live in an
``activity/`` subdirectory), ``REPRO_CACHE_MAX_ENTRIES`` /
``REPRO_ACTIVITY_CACHE_MAX_ENTRIES`` bound the LRUs, and
``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE_DAYS`` trigger a prune of
the disk directory when the first default cache is created.
"""

from repro.cache.fingerprint import (
    RESULT_SCHEMA_VERSION,
    activity_fingerprint,
    canonical_json,
    code_fingerprint,
    experiment_fingerprint,
    fingerprint_payload,
)
from repro.cache.lifecycle import (
    CacheEntry,
    PruneReport,
    cache_dir_stats,
    clear_cache_dir,
    prune_cache_dir,
    scan_cache_dir,
)
from repro.cache.store import (
    DEFAULT_CACHE,
    ActivityCache,
    CacheStats,
    ExperimentCache,
    get_default_activity_cache,
    get_default_cache,
    resolve_activity_cache,
    resolve_cache,
    set_default_activity_cache,
    set_default_cache,
)

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "experiment_fingerprint",
    "activity_fingerprint",
    "fingerprint_payload",
    "CacheStats",
    "ExperimentCache",
    "ActivityCache",
    "DEFAULT_CACHE",
    "get_default_cache",
    "set_default_cache",
    "resolve_cache",
    "get_default_activity_cache",
    "set_default_activity_cache",
    "resolve_activity_cache",
    "CacheEntry",
    "PruneReport",
    "scan_cache_dir",
    "cache_dir_stats",
    "prune_cache_dir",
    "clear_cache_dir",
]
