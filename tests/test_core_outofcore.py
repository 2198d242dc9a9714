"""Out-of-core symbolic factorization: chunk planning, memory behaviour,
structure equivalence with the in-core path."""

import numpy as np
import pytest

from repro.core import SolverConfig, outofcore_symbolic, plan_chunks
from repro.errors import DeviceMemoryError
from repro.gpusim import GPU, scaled_device, scaled_host
from repro.symbolic import frontier_counts, symbolic_fill_reference
from repro.workloads import circuit_like


@pytest.fixture
def matrix():
    return circuit_like(300, 7.0, seed=21)


def make_gpu(mem_bytes):
    return GPU(spec=scaled_device(mem_bytes), host=scaled_host(64 << 20))


def config_for(gpu):
    return SolverConfig(device=gpu.spec, host=gpu.host)


class TestChunkPlanning:
    def test_naive_single_plan(self, matrix):
        gpu = make_gpu(4 << 20)
        cfg = config_for(gpu)
        plans, split = plan_chunks(gpu, matrix, cfg, num_parts=1)
        assert split is None
        assert len(plans) == 1
        p = plans[0]
        assert p.row_start == 0 and p.row_end == matrix.n_rows
        assert p.scratch_bytes_per_row == cfg.scratch_bytes_per_row(
            matrix.n_rows
        )

    def test_dynamic_two_plans_with_larger_first_chunk(self, matrix):
        gpu = make_gpu(4 << 20)
        cfg = config_for(gpu)
        frontier = frontier_counts(symbolic_fill_reference(matrix))
        plans, split = plan_chunks(
            gpu, matrix, cfg, num_parts=2, frontier=frontier
        )
        assert split is not None and 0 < split < matrix.n_rows
        assert len(plans) == 2
        part1, part2 = plans
        assert part1.row_end == part2.row_start == split
        # Algorithm 4's point: the low-frontier part gets more parallelism
        assert part1.chunk_size >= part2.chunk_size
        assert part1.scratch_bytes_per_row <= part2.scratch_bytes_per_row

    def test_plans_cover_all_rows_exactly(self, matrix):
        gpu = make_gpu(4 << 20)
        cfg = config_for(gpu)
        frontier = frontier_counts(symbolic_fill_reference(matrix))
        plans, _ = plan_chunks(
            gpu, matrix, cfg, num_parts=2, frontier=frontier
        )
        covered = []
        for p in plans:
            covered.extend(range(p.row_start, p.row_end))
        assert covered == list(range(matrix.n_rows))

    def test_oom_when_one_row_does_not_fit(self, matrix):
        gpu = make_gpu(1024)  # cannot host even one row's scratch
        cfg = config_for(gpu)
        with pytest.raises(DeviceMemoryError):
            plan_chunks(gpu, matrix, cfg, num_parts=1)

    def test_dynamic_requires_frontier(self, matrix):
        gpu = make_gpu(4 << 20)
        with pytest.raises(ValueError):
            plan_chunks(gpu, matrix, config_for(gpu), num_parts=2)


class TestExecution:
    def test_structure_matches_reference(self, matrix):
        gpu = make_gpu(4 << 20)
        res = outofcore_symbolic(gpu, matrix, config_for(gpu))
        assert res.filled.same_pattern(symbolic_fill_reference(matrix))
        np.testing.assert_array_equal(
            res.fill_count, res.filled.row_nnz()
        )

    def test_chunking_invariant_to_memory_size(self, matrix):
        """Any chunking must produce bit-identical structure."""
        patterns = []
        for mem in (2 << 20, 4 << 20, 64 << 20):
            gpu = make_gpu(mem)
            res = outofcore_symbolic(gpu, matrix, config_for(gpu))
            patterns.append(res.filled)
        assert patterns[0].same_pattern(patterns[1])
        assert patterns[1].same_pattern(patterns[2])

    def test_smaller_memory_more_iterations(self, matrix):
        small = outofcore_symbolic(
            make_gpu(2 << 20), matrix,
            config_for(make_gpu(2 << 20)), dynamic=False,
        )
        big = outofcore_symbolic(
            make_gpu(32 << 20), matrix,
            config_for(make_gpu(32 << 20)), dynamic=False,
        )
        assert small.iterations > big.iterations

    def test_two_stages_counted(self, matrix):
        gpu = make_gpu(4 << 20)
        res = outofcore_symbolic(gpu, matrix, config_for(gpu), dynamic=False)
        stage_iters = sum(p.num_iterations for p in res.plans)
        assert res.iterations == 2 * stage_iters

    def test_device_residents_returned_live(self, matrix):
        gpu = make_gpu(8 << 20)
        res = outofcore_symbolic(gpu, matrix, config_for(gpu))
        assert res.device_filled is not None
        assert len(res.device_graph) == 4
        live = {b.buffer_id for b in gpu.pool.live_buffers()}
        assert res.device_filled.buffer_id in live
        gpu.free(res.device_filled)
        for b in res.device_graph:
            gpu.free(b)
        assert gpu.pool.live_bytes == 0

    def test_keep_on_device_false_frees_everything(self, matrix):
        gpu = make_gpu(8 << 20)
        res = outofcore_symbolic(
            gpu, matrix, config_for(gpu), keep_on_device=False
        )
        assert res.device_filled is None
        assert gpu.pool.live_bytes == 0
        # the factorized matrix was downloaded instead
        assert gpu.ledger.get_count("bytes_d2h") > 0

    def test_time_charged_to_symbolic_phase(self, matrix):
        gpu = make_gpu(4 << 20)
        res = outofcore_symbolic(gpu, matrix, config_for(gpu))
        assert res.sim_seconds > 0
        assert gpu.ledger.seconds("symbolic") == pytest.approx(
            res.sim_seconds
        )

    def test_dynamic_wins_when_chunking_binds(self, matrix):
        """Algorithm 4 pays off when the conservative chunk is small enough
        to under-occupy the device (the Fig. 7 regime).  Like the paper
        ("up to ~10%", improvement "limited" for high-frontier steps), the
        gain is not guaranteed at every memory size — chunk boundaries
        interact with the heavy tail — so assert the binding-regime win
        plus a bounded worst case across sizes."""
        g1, g2 = make_gpu(900_000), make_gpu(900_000)
        naive = outofcore_symbolic(g1, matrix, config_for(g1), dynamic=False)
        dyn = outofcore_symbolic(g2, matrix, config_for(g2), dynamic=True)
        assert dyn.sim_seconds < naive.sim_seconds
        assert dyn.iterations <= naive.iterations
        for mem in (1_200_000, 1_600_000, 2_400_000):
            ga, gb = make_gpu(mem), make_gpu(mem)
            nv = outofcore_symbolic(ga, matrix, config_for(ga), dynamic=False)
            dy = outofcore_symbolic(gb, matrix, config_for(gb), dynamic=True)
            assert dy.sim_seconds <= nv.sim_seconds * 1.25


class TestMultipartPlans:
    @pytest.fixture
    def setup(self):
        a = circuit_like(300, 7.0, seed=72)
        filled = symbolic_fill_reference(a)
        frontier = frontier_counts(filled)
        gpu = make_gpu(4 << 20)
        return a, frontier, gpu

    def test_one_part_is_naive(self, setup):
        a, frontier, gpu = setup
        cfg = config_for(gpu)
        plans, split = plan_chunks(
            gpu, a, cfg, num_parts=1, frontier=frontier
        )
        assert len(plans) == 1 and split is None
        assert plans[0].scratch_bytes_per_row == cfg.scratch_bytes_per_row(
            a.n_rows
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_parts_cover_rows_and_order_scratch(self, setup, k):
        a, frontier, gpu = setup
        plans, split = plan_chunks(
            gpu, a, config_for(gpu), num_parts=k, frontier=frontier
        )
        assert plans[0].row_start == 0
        assert plans[-1].row_end == a.n_rows
        for p, q in zip(plans, plans[1:]):
            assert p.row_end == q.row_start
            # later parts have costlier rows
            assert p.scratch_bytes_per_row <= q.scratch_bytes_per_row
        assert len(plans) <= k
        assert split == (plans[1].row_start if len(plans) > 1 else None)

    def test_invalid_num_parts(self, setup):
        a, frontier, gpu = setup
        with pytest.raises(ValueError):
            plan_chunks(
                gpu, a, config_for(gpu), num_parts=0, frontier=frontier
            )

    def test_symbolic_with_num_parts_same_structure(self, setup):
        a, _, _ = setup
        ref = symbolic_fill_reference(a)
        for k in (1, 3, 5):
            gpu = make_gpu(4 << 20)
            res = outofcore_symbolic(gpu, a, config_for(gpu), num_parts=k)
            assert res.filled.same_pattern(ref)
