"""Golden cache keys: the fingerprint format is pinned digest for digest.

Every stored cache entry (memory, SQLite, a shared ``REPRO_CACHE_DIR``) is
addressed by these hex digests, so a change to how the fingerprint payload
is built must be deliberate: it orphans every entry already on disk.  The
digests below were taken with the payload built through
``dataclasses.asdict``; any faster construction must reproduce them byte
for byte.  ``code_version`` is fixed so a package version bump (which
rightly changes every key) does not touch this file.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.activity.sampler import SamplingConfig
from repro.cache.fingerprint import activity_fingerprint, experiment_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.gpu import specs as gpu_specs
from repro.telemetry.sampler import TelemetryConfig

CODE = "golden/schema1"
CUSTOM_GPU = "golden-gpu"


def _paper(family: str, params: dict) -> ExperimentConfig:
    return ExperimentConfig.paper_defaults(
        "fp16_t", pattern_family=family, pattern_params=params,
        matrix_size=2048, seeds=10, base_seed=2025, label=family,
    )


def _configs() -> "dict[str, ExperimentConfig]":
    return {
        # The paper's method, one config per input-variation kind.
        "paper_gaussian": _paper("gaussian", {}),
        "paper_zero_lsb": _paper("zero_lsb", {"fraction": 0.5}),
        "paper_sorted_rows": _paper("sorted_rows", {}),
        "paper_sparsity": _paper("sparsity", {"sparsity": 0.5}),
        # A repeated /estimate request, as the wire delivers it.
        "serve_hot": ExperimentConfig.from_dict({
            "matrix_size": 128, "seeds": 2, "pattern_family": "sparsity",
            "pattern_params": {"sparsity": 0.5}, "dtype": "int8", "base_seed": 1002,
        }),
        # Every non-default knob the payload carries, on a custom GPU.
        "custom": ExperimentConfig(
            pattern_family="uniform", dtype="fp32", gpu=CUSTOM_GPU,
            matrix_size=96, transpose_b=False, instance_id=3, seeds=2,
            base_seed=77, iterations=500, warmup_trim_s=0.25,
            include_process_variation=False,
            sampling=SamplingConfig(output_samples=64, max_k=32, seed=5),
            telemetry=TelemetryConfig(
                sample_period_s=0.05, warmup_time_constant_s=0.2,
                noise_std_watts=0.5, drift_watts=0.0, drift_period_s=3.0,
            ),
            label="custom",
        ),
    }


#: name -> (experiment key, experiment key of seed 1, activity key of seed 1)
GOLDEN = {
    "custom": (
        "b05a00ca9b82de6cde5422eee630788c84ca791d0bd9aa39fb020fcc8b2bfb96",
        "f0d11e2d802721f9bc9f1ae3d83bca9b0e1bb0ec98e7cd698ffff8d97a3a7caa",
        "6bbb40e6b24070bfafb4978e8ce4d7ba1ef8455107b3f66b4130c545c017baed",
    ),
    "paper_gaussian": (
        "4e8946425b934ad029b783f8e417e77c5c6f580cf1a59deff812c481e5ceff0d",
        "e70de40c1e393152669741a2131e93d304f40fdd5af68fd6ba30afec1beef741",
        "97feb3cae0e564679f1797ba07182f54468585f3911b8acbb8335ad0dfa9d436",
    ),
    "paper_sorted_rows": (
        "a413424326aa9c2c917f21e90f7f647c100d1345299c3a4ff7315e86c4245818",
        "984d0fbeea773be0dfcaedd93a7543cfaf8c3b7a88e9e7b13c29daf69e556756",
        "e7080f0059a43909ea5e7623c298807e5bd0c0218869feef0cd1efb393a863cb",
    ),
    "paper_sparsity": (
        "5d492bfff0da579877187869a2672281c20c30fd8ccc52f5377a6ac5c31d354c",
        "be277fe7420a93995bc123e1a3f22d9ff8f86128d8176fec317104c1cdc017d0",
        "6c18dc367831d14d216d928f30a069db7c8863c7d341a543ea2c76a285f2aa06",
    ),
    "paper_zero_lsb": (
        "cd206d61c3a037f03fa46424c83f014429e41b8f3d3837835d2850c83625f5ac",
        "0c538f77965d0dd51fbc5ef20cc2d876f3cb0e16e40222613fffd9697f33f7b9",
        "752eb5ab990c2144e17c6e7789c5bbaabe7f017949d59cc0fb89ee0d8eef8aa6",
    ),
    "serve_hot": (
        "7728250572b4e0897f074e44d4f73d27924651099469124fa809421137cf9d27",
        "78412e98711ec04602768172ca24db7ebb34bc795a9bd4cf233a5308a5445b30",
        "8d47e12ecd3ad84f0c06f7f1f8ace2391deb1bddf2d3c3921b534669fb2d2e7a",
    ),
}


@pytest.fixture
def custom_gpu():
    spec = dataclasses.replace(
        gpu_specs.get_gpu_spec("a100"), name=CUSTOM_GPU, tdp_watts=275.0,
        peak_tflops={"fp32": 17.5, "fp16_t": 280.0, "int8": 560.0},
    )
    gpu_specs.register_gpu_spec(spec)
    yield spec
    gpu_specs.GPU_SPECS.pop(CUSTOM_GPU, None)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprints_match_golden(name, custom_gpu):
    config = _configs()[name]
    got = (
        experiment_fingerprint(config, code_version=CODE),
        experiment_fingerprint(config, seed=1, code_version=CODE),
        activity_fingerprint(config, 1, code_version=CODE),
    )
    assert got == GOLDEN[name]


def test_golden_covers_every_config(custom_gpu):
    assert sorted(GOLDEN) == sorted(_configs())
