"""Device/host specs: Table 1 fidelity and scaling helpers."""

import pytest

from repro.core import SolverConfig, factorize
from repro.gpusim import V100, XEON_E5_2680, scaled_device, scaled_host
from repro.workloads import circuit_like


class TestTable1:
    """The V100 spec must reproduce Table 1 of the paper."""

    def test_sm_count(self):
        assert V100.num_sms == 80

    def test_fp32_cores(self):
        assert V100.fp32_cores == 5120

    def test_memory_interface(self):
        assert V100.memory_interface == "4096-bit HBM2"

    def test_max_thread_block_size(self):
        assert V100.max_threads_per_block == 1024

    def test_max_registers_per_thread(self):
        assert V100.max_registers_per_thread == 255

    def test_shared_memory_configurable_to_96kb(self):
        assert V100.shared_memory_per_sm_kb == 96

    def test_tb_max_is_160(self):
        """§4.4 footnote: 'the maximal number of thread blocks of our GPU
        is 160'."""
        assert V100.max_concurrent_blocks == 160

    def test_memory_16gb(self):
        assert V100.memory_bytes == 16 * 1024**3

    def test_derived_quantities(self):
        assert V100.cores_per_sm == 64
        assert V100.peak_flops > 1e13  # ~14 TFLOP/s fp32

    def test_pipeline_bringup_on_the_default_device(self):
        """The whole pipeline runs on the default (Table 1) device and
        releases every device byte it allocated."""
        res = factorize(circuit_like(300, 8.0, seed=1), SolverConfig())
        assert res.gpu.spec.num_sms == V100.num_sms
        assert res.sim_seconds > 0
        assert res.gpu.pool.live_bytes == 0


class TestHost:
    def test_xeon_cores(self):
        """§4.1: 14 physical cores, 2 hyper-threads each, 128 GB."""
        assert XEON_E5_2680.physical_cores == 14
        assert XEON_E5_2680.hw_threads == 28
        assert XEON_E5_2680.memory_bytes == 128 * 1024**3


class TestScaling:
    def test_scaled_device_changes_only_memory(self):
        d = scaled_device(1024**2)
        assert d.memory_bytes == 1024**2
        assert d.num_sms == V100.num_sms
        assert d.max_concurrent_blocks == V100.max_concurrent_blocks
        assert "scaled" in d.name

    def test_scaled_device_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_device(0)

    def test_scaled_host(self):
        h = scaled_host(8 * 1024**2)
        assert h.memory_bytes == 8 * 1024**2
        assert h.hw_threads == XEON_E5_2680.hw_threads

    def test_scaled_host_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_host(-1)
