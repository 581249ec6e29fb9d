"""Content-addressed fingerprints for experiment configurations.

A fingerprint is the SHA-256 digest of a canonical JSON rendering of
everything that determines an experiment's output: the full configuration
(workload, device, measurement procedure, estimator and telemetry knobs) and
a code-version tag.  Two configs with the same fingerprint are guaranteed to
produce bit-identical :class:`~repro.experiments.results.ExperimentResult`s,
because the whole pipeline is deterministic given the config — which is what
makes the fingerprint safe to use as a cache key and as a deduplication key
for sweeps.

The ``label`` field is deliberately excluded: it is presentation-only
bookkeeping, and excluding it lets different figure panels share cached
results for physically identical sweep points (callers re-stamp the label on
retrieval).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import fields
from typing import TYPE_CHECKING, Any, Mapping

from repro._version import __version__
from repro.dtypes.registry import get_dtype
from repro.gpu.specs import get_gpu_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "fingerprint_payload",
    "experiment_fingerprint",
    "activity_fingerprint",
]

#: Bump when the serialized result layout (or the meaning of any estimator
#: statistic) changes, so stale on-disk entries are never deserialized into
#: a newer schema.
RESULT_SCHEMA_VERSION = 1


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Render ``payload`` as deterministic JSON (sorted keys, fixed separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def code_fingerprint() -> str:
    """Version tag mixed into every key: package version + result schema."""
    return f"{__version__}/schema{RESULT_SCHEMA_VERSION}"


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@functools.cache
def _field_names(cls: type) -> "tuple[str, ...]":
    return tuple(spec.name for spec in fields(cls))


def _fields_payload(obj: Any) -> dict[str, Any]:
    """A flat dataclass's fields by name.

    This is what ``dataclasses.asdict`` returns for a dataclass whose
    fields hold no dataclass, minus its recursive deep copy, which cost
    more than the rest of a fingerprint; :func:`canonical_json` renders
    the two byte for byte alike, so every stored key stays valid.
    """
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _dtype_spec_payload(name: str) -> dict[str, Any]:
    """Resolved dtype spec, included so re-registering a dtype name under a
    different definition can never serve stale cached results."""
    spec = get_dtype(name)
    return {
        "kind": spec.kind,
        "bits": spec.bits,
        "tensor_core": spec.tensor_core,
        "float_format": _fields_payload(spec.float_format)
        if spec.float_format is not None
        else None,
        "int_format": _fields_payload(spec.int_format)
        if spec.int_format is not None
        else None,
    }


def experiment_fingerprint(
    config: "ExperimentConfig",
    seed: int | None = None,
    code_version: str | None = None,
) -> str:
    """Content-addressed key for one experiment configuration.

    Parameters
    ----------
    config:
        The experiment configuration.  Every field that affects the result is
        included — ``describe()`` output (minus the presentation-only label)
        plus the sampling/telemetry knobs and the process-variation switch.
    seed:
        Optional seed index for sub-experiment granularity (e.g. caching one
        :class:`~repro.activity.report.ActivityReport` per seed rather than a
        whole result).  ``None`` keys the whole multi-seed experiment.
    code_version:
        Override of :func:`code_fingerprint`, mainly for tests; any change to
        it invalidates every previously stored entry.
    """
    description = {
        key: value for key, value in config.describe().items() if key != "label"
    }
    # The dtype and GPU registries are mutable (register_* with overwrite), so
    # the names in the config are not enough: fingerprint the resolved specs
    # too, or re-registering a name would silently serve stale results.
    payload: dict[str, Any] = {
        "kind": "experiment",
        "config": description,
        "dtype_spec": _dtype_spec_payload(config.dtype),
        "gpu_spec": _fields_payload(get_gpu_spec(config.gpu)),
        "sampling": _fields_payload(config.sampling),
        "telemetry": _fields_payload(config.telemetry),
        "include_process_variation": config.include_process_variation,
        "code": code_version if code_version is not None else code_fingerprint(),
    }
    if seed is not None:
        payload["seed"] = int(seed)
    return fingerprint_payload(payload)


def activity_fingerprint(
    config: "ExperimentConfig",
    seed: int,
    code_version: str | None = None,
) -> str:
    """Content-addressed key for one seed's switching-activity estimate.

    This is the canonical subset of :func:`experiment_fingerprint`: a seed's
    :class:`~repro.activity.report.ActivityReport` depends only on the
    workload (pattern, dtype, matrix size, transposition), the seed
    derivation (``base_seed`` + seed index), the estimator's sampling knobs
    and the code version.  The GPU model, clocks, telemetry configuration,
    iteration counts and the number of seeds in the experiment are all
    deliberately excluded — that is what lets cross-device sweeps (e.g. the
    fig7 generalization study) and measurement-procedure sweeps reuse one
    estimate per seed across every point.
    """
    payload: dict[str, Any] = {
        "kind": "activity",
        "workload": {
            "pattern_family": config.pattern_family,
            "pattern_params": dict(config.pattern_params),
            "dtype": config.dtype,
            "matrix_size": config.matrix_size,
            "transpose_b": config.transpose_b,
            "base_seed": config.base_seed,
        },
        "dtype_spec": _dtype_spec_payload(config.dtype),
        "sampling": _fields_payload(config.sampling),
        "seed": int(seed),
        "code": code_version if code_version is not None else code_fingerprint(),
    }
    return fingerprint_payload(payload)
