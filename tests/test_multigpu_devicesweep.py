"""Multi-device symbolic sharding, the scaling sweep's single-device
point and the device-memory sweep."""

import dataclasses

import pytest

from repro.core import SolverConfig, multi_gpu_symbolic
from repro.gpusim import scaled_device, scaled_host
from repro.symbolic import symbolic_fill_reference
from repro.workloads import by_abbr, circuit_like

pytestmark = pytest.mark.multigpu


def cfg(mem=16 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


@pytest.fixture(scope="module")
def matrix():
    return circuit_like(900, 7.0, seed=111)


class TestMultiGpu:
    def test_structure_matches_single_device(self, matrix):
        res = multi_gpu_symbolic(matrix, cfg(), num_devices=4)
        assert res.filled.same_pattern(symbolic_fill_reference(matrix))

    def test_blocks_partition_rows(self, matrix):
        res = multi_gpu_symbolic(matrix, cfg(), num_devices=3)
        covered = sorted(
            r for dev in res.shard_blocks for lo, hi in dev
            for r in range(lo, hi)
        )
        assert covered == list(range(matrix.n_rows))

    def test_makespan_shrinks_with_devices(self, matrix):
        t1 = multi_gpu_symbolic(matrix, cfg(), num_devices=1)
        t2 = multi_gpu_symbolic(matrix, cfg(), num_devices=2)
        t4 = multi_gpu_symbolic(matrix, cfg(), num_devices=4)
        assert t2.makespan_seconds < t1.makespan_seconds
        assert t4.makespan_seconds < t2.makespan_seconds

    def test_efficiency_bounded(self, matrix):
        t1 = multi_gpu_symbolic(matrix, cfg(), num_devices=1)
        t4 = multi_gpu_symbolic(matrix, cfg(), num_devices=4)
        eff = t4.parallel_efficiency(t1.makespan_seconds)
        assert 0.2 < eff <= 1.0

    def test_balance_metric(self, matrix):
        res = multi_gpu_symbolic(matrix, cfg(), num_devices=2)
        assert 0.0 < res.balance() <= 1.0

    def test_single_device_equivalent_counts(self, matrix):
        res = multi_gpu_symbolic(matrix, cfg(), num_devices=1)
        assert res.num_devices == 1
        assert res.makespan_seconds == res.total_device_seconds

    def test_invalid_device_count(self, matrix):
        with pytest.raises(ValueError):
            multi_gpu_symbolic(matrix, cfg(), num_devices=0)

    def test_devices_release_memory(self, matrix):
        res = multi_gpu_symbolic(matrix, cfg(), num_devices=3)
        for gpu in res.gpus:
            assert gpu.pool.live_bytes == 0


def test_strong_sweep_one_device_point_has_speedup_one(smoke_report):
    """One device of the multi-GPU solver is the single-device pipeline,
    so the strong sweep's 1-device speedup (single-device time over the
    makespan) is exactly 1 at the smoke and the full point."""
    from repro.bench import multigpu
    from repro.bench.gates import EXPERIMENTS

    (exp,) = (e for e in EXPERIMENTS if e.command == "multigpu-bench")
    smoke = smoke_report(exp).sweeps[0]
    full = multigpu._run_sweep(
        dataclasses.replace(multigpu.FULL_SWEEPS[0], devices=(1,)), 0
    )
    for sweep in (smoke, full):
        assert not sweep.sweep.weak
        one = sweep.points[0]
        assert one.num_devices == 1
        assert one.speedup == 1.0, sweep.sweep


class TestDeviceSweep:
    def test_sweep_shapes(self):
        from repro.bench.device_sweep import run_device_sweep

        res = run_device_sweep(by_abbr("OT2"),
                               fractions=(0.01, 0.05, 0.2, 0.5))
        assert len(res.points) == 4
        # out-of-core never beats in-core
        assert all(p.overhead_vs_incore >= 0.99 for p in res.points)
        # more memory -> fewer iterations
        iters = [p.iterations for p in res.points]
        assert iters == sorted(iters, reverse=True)
        # and never much slower with more memory
        assert res.monotone_nonincreasing(tolerance=0.10)
        # tightest memory shows real naive overhead; Algorithm 4 reduces it
        tight = res.points[0]
        assert tight.overhead_vs_incore > 1.2
        assert tight.dynamic_seconds <= tight.symbolic_seconds
        assert "Device-memory sweep" in str(res)
