"""Numeric factorization: right-looking vs left-looking vs dense vs scipy."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import SolverConfig, factorize
from repro.errors import SingularMatrixError
from repro.gpusim import scaled_device, scaled_host
from repro.graph import build_dependency_graph, kahn_levels
from repro.numeric import (
    dense_lu_nopivot,
    extract_lu,
    factorize_in_place,
    factorize_leftlooking,
    iterative_refinement,
    make_lu_solver,
)
from repro.sparse import CSRMatrix, residual_norm
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like

from helpers import random_dense


def rightlooking_factors(a: CSRMatrix, **kw):
    filled = symbolic_fill_reference(a)
    schedule = kahn_levels(build_dependency_graph(filled))
    As = filled.to_csc()
    stats = factorize_in_place(As, filled, schedule, **kw)
    L, U = extract_lu(As)
    return L, U, stats


def cfg(mem=8 << 20, **kw):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem),
                        **kw)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_lu(self, seed):
        d = random_dense(30, 0.15, seed=seed)
        a = CSRMatrix.from_dense(d)
        L, U, _ = rightlooking_factors(a)
        Ld, Ud = dense_lu_nopivot(d)
        np.testing.assert_allclose(L.to_dense(), Ld, atol=1e-9)
        np.testing.assert_allclose(U.to_dense(), Ud, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_lu_product_reconstructs(self, seed):
        d = random_dense(25, 0.2, seed=seed + 20)
        a = CSRMatrix.from_dense(d)
        L, U, _ = rightlooking_factors(a)
        np.testing.assert_allclose(
            L.to_dense() @ U.to_dense(), d, atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_leftlooking_agrees(self, seed):
        d = random_dense(22, 0.2, seed=seed + 40)
        a = CSRMatrix.from_dense(d)
        filled = symbolic_fill_reference(a)
        L1, U1, _ = rightlooking_factors(a)
        L2, U2 = factorize_leftlooking(a, filled)
        np.testing.assert_allclose(L1.to_dense(), L2.to_dense(), atol=1e-9)
        np.testing.assert_allclose(U1.to_dense(), U2.to_dense(), atol=1e-9)

    def test_matches_scipy_splu_natural(self):
        """scipy's superLU with natural ordering and no pivoting must give
        the same factors (up to its internal representation)."""
        d = random_dense(20, 0.25, seed=99)
        a = CSRMatrix.from_dense(d)
        L, U, _ = rightlooking_factors(a)
        lu = spla.splu(
            sp.csc_matrix(d), permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": False},
        )
        np.testing.assert_allclose(L.to_dense(), lu.L.toarray(), atol=1e-8)
        np.testing.assert_allclose(U.to_dense(), lu.U.toarray(), atol=1e-8)


class TestStats:
    def test_flop_counts_positive_and_partitioned(self, small_csr):
        _, _, stats = rightlooking_factors(small_csr)
        assert stats.total_flops == stats.div_flops + stats.update_flops
        assert stats.columns == small_csr.n_rows
        per_level_flops = sum(f for f, *_ in stats.per_level)
        assert per_level_flops == stats.total_flops

    def test_search_steps_only_when_requested(self, small_csr):
        _, _, s0 = rightlooking_factors(small_csr, count_search_steps=False)
        _, _, s1 = rightlooking_factors(small_csr, count_search_steps=True)
        assert s0.search_steps == 0
        assert s1.search_steps > 0
        assert s1.total_flops == s0.total_flops

    def test_search_steps_sum_per_level(self, small_csr):
        _, _, st = rightlooking_factors(small_csr, count_search_steps=True)
        assert sum(s for *_, s in st.per_level) == st.search_steps

    def test_diagonal_matrix_zero_flops(self):
        a = CSRMatrix.identity(6)
        _, _, stats = rightlooking_factors(a)
        assert stats.total_flops == 0


class TestPivotFailures:
    def test_zero_pivot_raises(self):
        d = np.eye(4)
        d[2, 2] = 0.0
        d[2, 3] = 1.0
        d[3, 2] = 1.0
        a = CSRMatrix.from_dense(d)
        filled = symbolic_fill_reference(a)
        schedule = kahn_levels(build_dependency_graph(filled))
        with pytest.raises(SingularMatrixError) as ei:
            factorize_in_place(filled.to_csc(), filled, schedule)
        assert ei.value.column == 2

    def test_pivot_tolerance(self):
        d = np.eye(3)
        d[1, 1] = 1e-12
        a = CSRMatrix.from_dense(d)
        filled = symbolic_fill_reference(a)
        schedule = kahn_levels(build_dependency_graph(filled))
        with pytest.raises(SingularMatrixError):
            factorize_in_place(
                filled.to_csc(), filled, schedule, pivot_tolerance=1e-8
            )

    def test_leftlooking_zero_pivot(self):
        d = np.eye(3)
        d[0, 0] = 0.0
        d[0, 1] = 1.0
        d[1, 0] = 1.0
        a = CSRMatrix.from_dense(d)
        filled = symbolic_fill_reference(a)
        with pytest.raises(SingularMatrixError):
            factorize_leftlooking(a, filled)


class TestDenseReference:
    def test_dense_lu_identity(self):
        L, U = dense_lu_nopivot(np.eye(3))
        np.testing.assert_array_equal(L, np.eye(3))
        np.testing.assert_array_equal(U, np.eye(3))

    def test_dense_lu_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            dense_lu_nopivot(np.zeros((2, 2)))

    def test_dense_lu_known_example(self):
        a = np.array([[4.0, 3.0], [6.0, 3.0]])
        L, U = dense_lu_nopivot(a)
        np.testing.assert_allclose(L, [[1.0, 0.0], [1.5, 1.0]])
        np.testing.assert_allclose(U, [[4.0, 3.0], [0.0, -1.5]])


class TestFloat32Compute:
    def test_float32_factors_coarser_but_refinable(self, rng):
        a = circuit_like(250, 7.0, seed=165)
        b = rng.normal(size=a.n_rows)
        r64 = factorize(a, cfg())
        r32 = factorize(a, cfg(compute_dtype=np.dtype(np.float32)))
        assert r32.L.data.dtype == np.float32
        res64 = residual_norm(a, r64.solve(b), b)
        res32 = residual_norm(a, r32.solve(b), b)
        assert res64 < 1e-12
        assert 1e-12 < res32 < 1e-4  # single precision, still accurate-ish
        # one refinement sweep recovers double-precision accuracy
        solver = make_lu_solver(
            r32.L, r32.U,
            row_perm=r32.pre.row_perm, col_perm=r32.pre.col_perm,
        )
        refined = iterative_refinement(a, b, solver, max_iter=4, tol=1e-12)
        assert refined.final_residual < 1e-12
        assert refined.iterations <= 2
