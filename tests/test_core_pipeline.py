"""End-to-end pipeline: correctness against scipy, phase accounting, modes."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import SolverConfig, factorize, solve
from repro.errors import DeviceMemoryError
from repro.gpusim import scaled_device, scaled_host
from repro.sparse import residual_norm, to_scipy_csr
from repro.workloads import circuit_like

from helpers import random_dense


def small_config(mem=8 << 20, **kw):
    return SolverConfig(
        device=scaled_device(mem), host=scaled_host(8 * mem), **kw
    )


@pytest.fixture
def matrix():
    return circuit_like(200, 7.0, seed=41)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_solution_matches_scipy(self, seed):
        a = circuit_like(150, 6.0, seed=seed)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=a.n_rows)
        x = solve(a, b, small_config())
        x_ref = spla.spsolve(to_scipy_csr(a).tocsc(), b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-6, atol=1e-8)

    def test_residual_small(self, matrix, rng):
        res = factorize(matrix, small_config())
        b = rng.normal(size=matrix.n_rows)
        assert residual_norm(matrix, res.solve(b), b) < 1e-10

    def test_factors_triangular_and_reconstruct(self, matrix):
        res = factorize(matrix, small_config())
        ld, ud = res.L.to_dense(), res.U.to_dense()
        assert np.all(np.triu(ld, 1) == 0)
        np.testing.assert_allclose(np.diag(ld), 1.0)
        assert np.all(np.tril(ud, -1) == 0)
        np.testing.assert_allclose(
            ld @ ud, res.pre.matrix.to_dense(), atol=1e-7
        )

    def test_accepts_dense_and_scipy_inputs(self, rng):
        d = random_dense(40, 0.2, seed=77)
        b = rng.normal(size=40)
        x1 = solve(d, b, small_config())
        x2 = solve(sp.csr_matrix(d), b, small_config())
        np.testing.assert_allclose(x1, x2, atol=1e-10)

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            factorize("not a matrix")


class TestModesAgree:
    """All symbolic modes and numeric formats must produce identical
    factors — they differ only in simulated time."""

    def test_symbolic_modes_same_factors(self, matrix):
        base = factorize(matrix, small_config())
        um = factorize(
            matrix, small_config(symbolic_mode="unified", um_prefetch=True)
        )
        um_np = factorize(
            matrix, small_config(symbolic_mode="unified", um_prefetch=False)
        )
        assert base.L.allclose(um.L) and base.U.allclose(um.U)
        assert base.L.allclose(um_np.L)

    def test_numeric_formats_same_factors(self, matrix):
        d = factorize(matrix, small_config(numeric_format="dense"))
        c = factorize(matrix, small_config(numeric_format="csc"))
        assert d.L.allclose(c.L) and d.U.allclose(c.U)

    def test_naive_vs_dynamic_assignment_same_factors(self, matrix):
        a = factorize(matrix, small_config(dynamic_assignment=False))
        b = factorize(matrix, small_config(dynamic_assignment=True))
        assert a.L.allclose(b.L) and a.U.allclose(b.U)


class TestAccounting:
    def test_breakdown_sums_to_total(self, matrix):
        res = factorize(matrix, small_config())
        bd = res.breakdown()
        assert bd.total == pytest.approx(res.sim_seconds)
        assert bd.symbolic + bd.levelize + bd.numeric <= bd.total * 1.0001
        assert min(bd.symbolic, bd.levelize, bd.numeric) > 0

    def test_normalized_breakdown(self, matrix):
        res = factorize(matrix, small_config())
        norm = res.breakdown().normalized(res.sim_seconds * 2)
        assert norm.total == pytest.approx(0.5)
        with pytest.raises(ValueError):
            res.breakdown().normalized(0.0)

    def test_fill_ins_counted(self, matrix):
        res = factorize(matrix, small_config())
        assert res.fill_ins == res.filled.nnz - res.pre.matrix.nnz
        assert res.fill_ins > 0

    def test_device_memory_fully_released(self, matrix):
        res = factorize(matrix, small_config())
        assert res.gpu.pool.live_bytes == 0

    def test_incore_mode_raises_when_too_small(self, matrix):
        """The Table 2 condition: in-core symbolic needs ~6n^2 bytes
        (960 KB for n=200), which a 700 KB device cannot host."""
        with pytest.raises(DeviceMemoryError):
            factorize(matrix, small_config(mem=700 << 10,
                                           symbolic_mode="incore"))

    def test_incore_mode_works_with_huge_device(self, matrix):
        n = matrix.n_rows
        cfg = small_config(
            mem=6 * 4 * n * n * 2, symbolic_mode="incore"
        )
        res = factorize(matrix, cfg)
        assert res.symbolic.iterations == 2  # one chunk per stage
