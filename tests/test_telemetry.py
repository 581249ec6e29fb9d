"""Unit tests for the repro.telemetry package (traces, sampler, NVML, DCGM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.gpu.device import Device
from repro.telemetry.dcgm import (
    DCGM_FI_DEV_GPU_UTIL,
    DCGM_FI_DEV_POWER_USAGE,
    DcgmMonitor,
    DcgmRecord,
)
from repro.telemetry.nvml import SimulatedNVML
from repro.telemetry.sampler import TelemetryConfig, simulate_power_trace
from repro.telemetry.trace import PowerTrace


class TestPowerTrace:
    def _trace(self, watts, period=0.1):
        times = np.arange(len(watts)) * period
        return PowerTrace(timestamps_s=times, power_watts=np.array(watts, dtype=float), sample_period_s=period)

    def test_basic_stats(self):
        trace = self._trace([100.0, 200.0, 300.0])
        assert trace.num_samples == 3
        assert trace.mean_power_watts() == pytest.approx(200.0)
        assert trace.duration_s == pytest.approx(0.3)
        assert trace.energy_joules() == pytest.approx(60.0)

    def test_summary(self):
        summary = self._trace([100.0, 200.0]).summary()
        assert summary.count == 2
        assert summary.minimum == 100.0

    def test_trim_warmup_drops_early_samples(self):
        trace = self._trace([10.0] * 5 + [100.0] * 10)
        trimmed = trace.trim_warmup(0.5)
        assert trimmed.num_samples == 10
        assert trimmed.mean_power_watts() == pytest.approx(100.0)

    def test_trim_past_last_sample_raises(self):
        trace = self._trace([10.0, 20.0])
        assert trace.trim_warmup(0.1).power_watts.tolist() == [20.0]
        with pytest.raises(TelemetryError, match="no sample"):
            trace.trim_warmup(100.0)

    def test_trim_negative_rejected(self):
        with pytest.raises(TelemetryError):
            self._trace([1.0]).trim_warmup(-1.0)

    def test_mean_of_empty_trace_rejected(self):
        trace = PowerTrace(np.array([]), np.array([]), 0.1)
        with pytest.raises(TelemetryError):
            trace.mean_power_watts()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TelemetryError):
            PowerTrace(np.array([0.0, 0.1]), np.array([1.0]), 0.1)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(TelemetryError):
            PowerTrace(np.array([0.1, 0.0]), np.array([1.0, 2.0]), 0.1)

    def test_invalid_period_rejected(self):
        with pytest.raises(TelemetryError):
            PowerTrace(np.array([0.0]), np.array([1.0]), 0.0)

    def test_resample(self):
        trace = self._trace([1.0, 2.0, 3.0, 4.0], period=0.1)
        resampled = trace.resampled(0.2)
        assert resampled.sample_period_s == 0.2
        assert resampled.num_samples == 2

    def test_as_dict(self):
        d = self._trace([5.0]).as_dict()
        assert d["power_watts"] == [5.0]


class TestSimulatedTrace:
    def test_length_matches_duration(self):
        trace = simulate_power_trace(250.0, duration_s=5.0, idle_power_watts=50.0)
        assert trace.num_samples == 50

    def test_warmup_ramp_starts_low(self, quiet_telemetry):
        trace = simulate_power_trace(
            250.0, duration_s=5.0, idle_power_watts=50.0, config=quiet_telemetry
        )
        assert trace.power_watts[0] < 150.0
        assert trace.power_watts[-1] == pytest.approx(250.0, abs=1.0)

    def test_trimmed_mean_close_to_steady(self, quiet_telemetry):
        trace = simulate_power_trace(
            250.0, duration_s=10.0, idle_power_watts=50.0, config=quiet_telemetry
        )
        assert trace.trim_warmup(0.5).mean_power_watts() == pytest.approx(250.0, abs=2.0)

    def test_noise_changes_samples_but_not_mean_much(self):
        noisy = TelemetryConfig(noise_std_watts=2.0, drift_watts=0.0)
        trace = simulate_power_trace(200.0, 20.0, 50.0, config=noisy, seed=1)
        assert trace.power_watts.std() > 0.5
        assert trace.trim_warmup(0.5).mean_power_watts() == pytest.approx(200.0, abs=2.0)

    def test_deterministic_per_seed(self):
        a = simulate_power_trace(200.0, 3.0, 50.0, seed=7)
        b = simulate_power_trace(200.0, 3.0, 50.0, seed=7)
        np.testing.assert_array_equal(a.power_watts, b.power_watts)

    def test_power_never_negative(self):
        config = TelemetryConfig(noise_std_watts=100.0)
        trace = simulate_power_trace(5.0, 3.0, 1.0, config=config)
        assert trace.power_watts.min() >= 0.0

    def test_invalid_duration(self):
        with pytest.raises(TelemetryError):
            simulate_power_trace(100.0, 0.0, 50.0)

    def test_invalid_config(self):
        with pytest.raises(TelemetryError):
            TelemetryConfig(sample_period_s=0.0)
        with pytest.raises(TelemetryError):
            TelemetryConfig(noise_std_watts=-1.0)
        with pytest.raises(TelemetryError, match="drift period"):
            TelemetryConfig(drift_period_s=0.0)

    @pytest.mark.parametrize("knob", ["sample_period_s", "noise_std_watts", "drift_period_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_non_finite_knob_rejected(self, knob, value):
        with pytest.raises(TelemetryError, match=f"{knob} must be a finite number"):
            TelemetryConfig(**{knob: value})


class TestSimulatedNVML:
    def test_lifecycle_and_queries(self):
        nvml = SimulatedNVML([Device.create("a100"), Device.create("h100")])
        with nvml:
            assert nvml.device_get_count() == 2
            handle = nvml.device_get_handle_by_index(0)
            assert "A100" in nvml.device_get_name(handle)
            assert nvml.device_get_enforced_power_limit(handle) == 300_000

    def test_idle_power_read(self):
        nvml = SimulatedNVML([Device.create("a100")])
        with nvml:
            handle = nvml.device_get_handle_by_index(0)
            milliwatts = nvml.device_get_power_usage(handle)
            assert 30_000 < milliwatts < 90_000

    def test_load_attach_detach(self):
        nvml = SimulatedNVML([Device.create("a100")])
        with nvml:
            handle = nvml.device_get_handle_by_index(0)
            nvml.attach_load(handle, power_watts=275.0, utilization_percent=98.5)
            assert nvml.device_get_power_usage(handle) > 200_000
            assert nvml.device_get_utilization_rates(handle)["gpu"] == pytest.approx(98.5)
            nvml.detach_load(handle)
            assert nvml.device_get_utilization_rates(handle)["gpu"] == 0.0

    def test_uninitialized_access_rejected(self):
        nvml = SimulatedNVML([Device.create("a100")])
        with pytest.raises(TelemetryError):
            nvml.device_get_handle_by_index(0)

    def test_out_of_range_index(self):
        nvml = SimulatedNVML([Device.create("a100")])
        nvml.init()
        with pytest.raises(TelemetryError):
            nvml.device_get_handle_by_index(5)

    def test_needs_devices(self):
        with pytest.raises(TelemetryError):
            SimulatedNVML([])

    def test_negative_load_rejected(self):
        nvml = SimulatedNVML([Device.create("a100")])
        nvml.init()
        handle = nvml.device_get_handle_by_index(0)
        with pytest.raises(TelemetryError):
            nvml.attach_load(handle, power_watts=-1.0)


class TestDcgmMonitor:
    def test_watch_run_produces_records(self, quiet_telemetry):
        monitor = DcgmMonitor(Device.create("a100"), config=quiet_telemetry)
        records = monitor.watch_run(steady_power_watts=260.0, duration_s=2.0)
        assert len(records) == 20
        assert records[-1].value(DCGM_FI_DEV_POWER_USAGE) == pytest.approx(260.0, abs=2.0)
        assert records[0].value(DCGM_FI_DEV_GPU_UTIL) == pytest.approx(98.5)

    def test_records_to_trace_round_trip(self, quiet_telemetry):
        monitor = DcgmMonitor(Device.create("a100"), config=quiet_telemetry)
        records = monitor.watch_run(200.0, duration_s=1.0)
        trace = DcgmMonitor.records_to_trace(records, sample_period_s=0.1)
        assert trace.num_samples == len(records)

    def test_records_to_trace_empty_rejected(self):
        with pytest.raises(TelemetryError):
            DcgmMonitor.records_to_trace([], 0.1)

    def test_unsupported_field_rejected(self):
        with pytest.raises(TelemetryError):
            DcgmMonitor(Device.create("a100"), field_ids=(999,))

    def test_missing_field_value_raises(self):
        record = DcgmRecord(timestamp_s=0.0, fields={DCGM_FI_DEV_POWER_USAGE: 100.0})
        with pytest.raises(TelemetryError):
            record.value(DCGM_FI_DEV_GPU_UTIL)

    def test_power_trace_sample_period_default_100ms(self):
        monitor = DcgmMonitor(Device.create("a100"))
        trace = monitor.power_trace(200.0, duration_s=1.0)
        assert trace.sample_period_s == pytest.approx(0.1)
