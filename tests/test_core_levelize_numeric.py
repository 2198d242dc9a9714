"""GPU levelization executors and the numeric format machinery."""

import numpy as np
import pytest

from repro.core import (
    SolverConfig,
    choose_format,
    dense_format_max_blocks,
    levelize_cpu_serial,
    levelize_gpu_dynamic,
    levelize_gpu_hostlaunch,
    numeric_factorize_gpu,
)
from repro.core import levelize_gpu
from repro.gpusim import GPU, scaled_device, scaled_host
from repro.graph import build_dependency_graph, kahn_levels
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like, fem_like

from helpers import per_wave_workloads


@pytest.fixture
def setup():
    a = circuit_like(250, 8.0, seed=31)
    filled = symbolic_fill_reference(a)
    graph = build_dependency_graph(filled)
    return a, filled, graph


def make_gpu(mem=64 << 20):
    return GPU(spec=scaled_device(mem), host=scaled_host(512 << 20))


class TestLevelizeExecutors:
    def test_all_three_same_schedule(self, setup):
        _, _, graph = setup
        expected = kahn_levels(graph).level_of
        for fn in (levelize_gpu_dynamic, levelize_gpu_hostlaunch,
                   levelize_cpu_serial):
            res = fn(make_gpu(), graph)
            np.testing.assert_array_equal(res.schedule.level_of, expected)

    def test_dynamic_uses_child_launches(self, setup):
        _, _, graph = setup
        res = levelize_gpu_dynamic(make_gpu(), graph)
        assert res.child_kernel_launches > 0
        # two child kernels per level plus the initial cons_queue
        assert res.child_kernel_launches == 2 * res.num_levels + 1

    def test_hostlaunch_uses_host_launches(self, setup):
        _, _, graph = setup
        res = levelize_gpu_hostlaunch(make_gpu(), graph)
        assert res.child_kernel_launches == 0
        assert res.kernel_launches >= 2 * res.num_levels

    def test_dynamic_faster_than_hostlaunch(self, setup):
        """The paper's Algorithm 5 claim: removing host round-trips and
        paying device-side launch overheads wins."""
        _, _, graph = setup
        dyn = levelize_gpu_dynamic(make_gpu(), graph)
        host = levelize_gpu_hostlaunch(make_gpu(), graph)
        assert dyn.sim_seconds < host.sim_seconds

    @pytest.mark.parametrize(
        "fn", [levelize_gpu_dynamic, levelize_gpu_hostlaunch]
    )
    def test_books_the_per_wave_ledger(self, setup, fn, monkeypatch):
        """Per-level counts from two bincounts book exactly what one
        gather per wave booked: same launches, same seconds."""
        _, _, graph = setup
        new = make_gpu()
        fn(new, graph)
        monkeypatch.setattr(levelize_gpu, "wave_workloads", per_wave_workloads)
        old = make_gpu()
        fn(old, graph)
        assert new.ledger.get_count("kernel_launches") > 0
        assert new.ledger.snapshot() == old.ledger.snapshot()

    def test_time_in_levelize_phase(self, setup):
        _, _, graph = setup
        gpu = make_gpu()
        res = levelize_gpu_dynamic(gpu, graph)
        assert gpu.ledger.seconds("levelize") == pytest.approx(
            res.sim_seconds
        )


class TestChooseFormat:
    def test_explicit_formats_respected(self):
        gpu = make_gpu()
        cfg_d = SolverConfig(device=gpu.spec, numeric_format="dense")
        cfg_c = SolverConfig(device=gpu.spec, numeric_format="csc")
        assert choose_format(gpu, 100, cfg_d)[0] == "dense"
        assert choose_format(gpu, 100, cfg_c)[0] == "csc"

    def test_auto_rule(self):
        cfg = SolverConfig(numeric_format="auto")
        tight = make_gpu(100 * 1024)  # M = 100KiB/(n*4) small
        fmt, cap = choose_format(tight, 1000, cfg)
        assert fmt == "csc" and cap == 160
        roomy = make_gpu(64 << 20)
        fmt, cap = choose_format(roomy, 1000, cfg)
        assert fmt == "dense"
        # the exact switch point: free bytes = TB_max x n x sizeof(dtype)
        n = 1000
        at = roomy.spec.max_concurrent_blocks * n * cfg.value_bytes
        assert choose_format(make_gpu(at), n, cfg)[0] == "dense"
        assert choose_format(make_gpu(at - 1), n, cfg)[0] == "csc"

    def test_dense_cap_below_tbmax(self):
        gpu = make_gpu(100 * 1000 * 4)  # exactly M=100 for n=1000
        cfg = SolverConfig(device=gpu.spec, numeric_format="dense")
        fmt, cap = choose_format(gpu, 1000, cfg)
        assert cap == 100

    def test_max_blocks_helper(self):
        gpu = make_gpu(124 * 1000 * 4)
        assert dense_format_max_blocks(gpu, 1000, SolverConfig()) == 124


class TestNumericGpu:
    def test_dense_and_csc_identical_factors(self, setup):
        a, filled, graph = setup
        sched = kahn_levels(graph)
        cfg_d = SolverConfig(numeric_format="dense")
        cfg_c = SolverConfig(numeric_format="csc")
        rd = numeric_factorize_gpu(make_gpu(), filled.to_csc(), filled, sched, cfg_d)
        rc = numeric_factorize_gpu(make_gpu(), filled.to_csc(), filled, sched, cfg_c)
        assert rd.data_format == "dense"
        assert rc.data_format == "csc"
        assert rd.As.allclose(rc.As)

    def test_csc_counts_search_steps_dense_does_not(self, setup):
        a, filled, graph = setup
        sched = kahn_levels(graph)
        rd = numeric_factorize_gpu(
            make_gpu(), filled.to_csc(), filled, sched,
            SolverConfig(numeric_format="dense"),
        )
        rc = numeric_factorize_gpu(
            make_gpu(), filled.to_csc(), filled, sched,
            SolverConfig(numeric_format="csc"),
        )
        assert rd.stats.search_steps == 0
        assert rc.stats.search_steps > 0

    def test_dense_charges_hbm_traffic(self, setup):
        a, filled, graph = setup
        sched = kahn_levels(graph)
        gpu = make_gpu()
        numeric_factorize_gpu(
            gpu, filled.to_csc(), filled, sched,
            SolverConfig(numeric_format="dense"),
        )
        assert gpu.ledger.get_count("bytes_hbm") > 0

    def test_factors_reconstruct_matrix(self, setup):
        a, filled, graph = setup
        sched = kahn_levels(graph)
        res = numeric_factorize_gpu(
            make_gpu(), filled.to_csc(), filled, sched, SolverConfig()
        )
        L, U = res.factors()
        np.testing.assert_allclose(
            L.to_dense() @ U.to_dense(), a.to_dense(), atol=1e-7
        )

    def test_device_memory_released(self, setup):
        a, filled, graph = setup
        sched = kahn_levels(graph)
        gpu = make_gpu()
        numeric_factorize_gpu(
            gpu, filled.to_csc(), filled, sched, SolverConfig()
        )
        assert gpu.pool.live_bytes == 0

    def test_capped_concurrency_slower(self):
        """Under-occupancy from M < TB_max (the Fig. 8 mechanism) costs
        simulated time even at identical work."""
        a = fem_like(220, 25.0, seed=33)
        filled = symbolic_fill_reference(a)
        sched = kahn_levels(build_dependency_graph(filled))
        n = a.n_rows
        # dense buffers limited to M=40 columns vs roomy device
        tight = GPU(spec=scaled_device(
            filled.nnz * 8 + (n + 1) * 4 + 40 * n * 4 + (n + 1) * 4
            + a.nnz * 8))
        roomy = make_gpu()
        cfg = SolverConfig(numeric_format="dense")
        t_tight = numeric_factorize_gpu(
            tight, filled.to_csc(), filled, sched, cfg
        )
        t_roomy = numeric_factorize_gpu(
            roomy, filled.to_csc(), filled, sched, cfg
        )
        assert t_tight.max_parallel_columns < t_roomy.max_parallel_columns
        assert t_tight.sim_seconds > t_roomy.sim_seconds
