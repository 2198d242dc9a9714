"""Triangular solves and the permuted/scaled solve composition."""

import numpy as np
import pytest

from repro.core import SolverConfig, factorize
from repro.errors import (
    NotLowerTriangularError,
    NotUpperTriangularError,
    SingularMatrixError,
)
from repro.gpusim import scaled_device, scaled_host
from repro.numeric import (
    backward_substitute,
    forward_substitute,
    iterative_refinement,
    lu_solve,
    lu_solve_permuted,
    make_lu_solver,
)
from repro.sparse import CSCMatrix, CSRMatrix
from repro.workloads import circuit_like

from helpers import random_dense


def cfg(mem=8 << 20, **kw):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem),
                        **kw)


def lower_unit(n, seed):
    d = np.tril(random_dense(n, 0.4, seed=seed, dominant=False), -1)
    np.fill_diagonal(d, 1.0)
    return d


def upper_nonsing(n, seed):
    d = np.triu(random_dense(n, 0.4, seed=seed, dominant=False), 1)
    np.fill_diagonal(d, np.arange(1, n + 1, dtype=float))
    return d


class TestForward:
    @pytest.mark.parametrize("seed", range(4))
    def test_solves_unit_lower(self, seed, rng):
        d = lower_unit(15, seed)
        L = CSCMatrix.from_dense(d)
        x_true = rng.normal(size=15)
        x = forward_substitute(L, d @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-10)

    def test_non_unit_diagonal(self, rng):
        d = lower_unit(10, 3)
        np.fill_diagonal(d, 2.0)
        L = CSCMatrix.from_dense(d)
        x_true = rng.normal(size=10)
        x = forward_substitute(L, d @ x_true, unit_diagonal=False)
        np.testing.assert_allclose(x, x_true, atol=1e-10)

    def test_rejects_upper_entries(self):
        d = np.eye(3)
        d[0, 2] = 1.0
        with pytest.raises(NotLowerTriangularError):
            forward_substitute(CSCMatrix.from_dense(d), np.ones(3))

    def test_missing_diag_nonunit_raises(self):
        d = np.zeros((2, 2))
        d[1, 0] = 1.0
        d[1, 1] = 1.0
        with pytest.raises(SingularMatrixError):
            forward_substitute(
                CSCMatrix.from_dense(d), np.ones(2), unit_diagonal=False
            )

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            forward_substitute(CSCMatrix.identity(3), np.ones(4))


class TestBackward:
    @pytest.mark.parametrize("seed", range(4))
    def test_solves_upper(self, seed, rng):
        d = upper_nonsing(15, seed)
        U = CSCMatrix.from_dense(d)
        x_true = rng.normal(size=15)
        x = backward_substitute(U, d @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_rejects_lower_entries(self):
        d = np.eye(3)
        d[2, 0] = 1.0
        with pytest.raises(NotUpperTriangularError):
            backward_substitute(CSCMatrix.from_dense(d), np.ones(3))

    def test_zero_diag_raises(self):
        d = np.eye(3)
        d[1, 1] = 0.0
        d[1, 2] = 1.0  # keep structural entry in the row above diag
        with pytest.raises(SingularMatrixError):
            backward_substitute(CSCMatrix.from_dense(d), np.ones(3))


class TestComposed:
    def test_lu_solve(self, rng):
        Ld = lower_unit(12, 1)
        Ud = upper_nonsing(12, 2)
        a = Ld @ Ud
        x_true = rng.normal(size=12)
        x = lu_solve(
            CSCMatrix.from_dense(Ld), CSCMatrix.from_dense(Ud), a @ x_true
        )
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_lu_solve_permuted_full_transform(self, rng):
        """Factor B = P A Q and solve the original A x = b."""
        n = 10
        d = random_dense(n, 0.5, seed=7)
        p = rng.permutation(n)
        # symmetric permutation keeps the dominant diagonal on the
        # diagonal, so the no-pivot factorization of B stays well-defined
        q = p
        b_mat = d[p][:, q]
        from repro.numeric import dense_lu_nopivot

        Ld, Ud = dense_lu_nopivot(b_mat)
        x_true = rng.normal(size=n)
        b = d @ x_true
        x = lu_solve_permuted(
            CSCMatrix.from_dense(Ld), CSCMatrix.from_dense(Ud), b,
            row_perm=p, col_perm=q,
        )
        np.testing.assert_allclose(x, x_true, atol=1e-8)


class TestRefinement:
    def test_converges_with_perturbed_solver(self, rng):
        d = random_dense(12, 0.5, seed=11)
        a = CSRMatrix.from_dense(d)
        inv = np.linalg.inv(d)
        noisy_inv = inv * (1 + 1e-3)  # deliberately inexact solver

        res = iterative_refinement(
            a, rng.normal(size=12), lambda r: noisy_inv @ r,
            max_iter=20, tol=1e-12,
        )
        assert res.final_residual < 1e-12
        assert res.iterations < 20
        # residual history is decreasing
        assert all(
            b <= a_ * 1.01
            for a_, b in zip(res.residual_norms, res.residual_norms[1:])
        )

    def test_exact_solver_converges_immediately(self, rng):
        d = random_dense(10, 0.5, seed=12)
        a = CSRMatrix.from_dense(d)
        inv = np.linalg.inv(d)
        res = iterative_refinement(a, np.ones(10), lambda r: inv @ r)
        assert res.iterations == 0

    def test_make_lu_solver_binding(self, rng):
        from repro.numeric import dense_lu_nopivot

        d = random_dense(8, 0.6, seed=13)
        Ld, Ud = dense_lu_nopivot(d)
        solver = make_lu_solver(
            CSCMatrix.from_dense(Ld), CSCMatrix.from_dense(Ud)
        )
        x_true = rng.normal(size=8)
        np.testing.assert_allclose(solver(d @ x_true), x_true, atol=1e-9)


class TestMultiRhs:
    def test_block_solve_matches_column_solves(self, rng):
        a = circuit_like(100, 6.0, seed=75)
        res = factorize(a, cfg())
        B = rng.normal(size=(a.n_rows, 5))
        X = lu_solve(res.L, res.U, B)
        for k in range(5):
            np.testing.assert_allclose(
                X[:, k], lu_solve(res.L, res.U, B[:, k]), atol=1e-10
            )

    def test_shape_validation(self):
        from repro.numeric import forward_substitute
        from repro.sparse import CSCMatrix

        with pytest.raises(ValueError):
            forward_substitute(CSCMatrix.identity(3), np.ones((3, 2, 1)))
        with pytest.raises(ValueError):
            forward_substitute(CSCMatrix.identity(3), np.ones((4, 2)))
