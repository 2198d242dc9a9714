"""Additional coverage: GPU trisolve schedules, refinement-in-pipeline,
multi-RHS at the result level, and cross-feature composition."""

import numpy as np

from repro import SolverConfig, factorize
from repro.core import analyze, solve_gpu
from repro.core.trisolve_gpu import _triangular_levels
from repro.gpusim import GPU, scaled_device, scaled_host
from repro.numeric import (
    iterative_refinement,
    lu_solve,
    make_lu_solver,
)
from repro.sparse import CSCMatrix, residual_norm
from repro.workloads import circuit_like, fem_like


def cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


class TestTriangularLevels:
    def test_lower_levels_respect_substitution_order(self):
        a = circuit_like(120, 6.0, seed=121)
        res = factorize(a, cfg())
        sched = _triangular_levels(res.L, lower=True)
        level_of = sched.level_of
        # x[j] depends on x[k] when L(j,k) != 0, k < j
        rows = res.L.indices
        cols = res.L.col_ids_of_entries()
        mask = rows > cols
        assert np.all(level_of[rows[mask]] > level_of[cols[mask]])

    def test_upper_levels_respect_back_substitution(self):
        a = circuit_like(120, 6.0, seed=122)
        res = factorize(a, cfg())
        sched = _triangular_levels(res.U, lower=False)
        level_of = sched.level_of
        rows = res.U.indices
        cols = res.U.col_ids_of_entries()
        mask = rows < cols
        # x[row] depends on x[col] (col resolved first in backward order)
        assert np.all(level_of[rows[mask]] > level_of[cols[mask]])

    def test_trisolve_levels_at_most_n(self):
        a = fem_like(100, 10.0, seed=123)
        res = factorize(a, cfg())
        sched = _triangular_levels(res.L, lower=True)
        assert 1 <= sched.num_levels <= a.n_rows


class TestComposition:
    def test_refinement_with_pipeline_factors(self, rng):
        """Iterative refinement drives pipeline factors to tolerance even
        with a deliberately perturbed U."""
        a = circuit_like(90, 6.0, seed=124)
        res = factorize(a, cfg())
        U = res.U.copy()
        U.data *= 1.0 + 1e-4  # perturbed solver
        solver = make_lu_solver(
            res.L, U, row_perm=res.pre.row_perm, col_perm=res.pre.col_perm
        )
        out = iterative_refinement(a, rng.normal(size=90), solver,
                                   max_iter=30, tol=1e-12)
        assert out.final_residual < 1e-12

    def test_multirhs_on_pipeline_factors(self, rng):
        a = circuit_like(80, 6.0, seed=125)
        res = factorize(a, cfg())
        # solve 4 rhs through the permutation-aware single-rhs path and the
        # raw multi-rhs kernel; both must agree on the factorized system
        B = rng.normal(size=(80, 4))
        X = lu_solve(res.L, res.U, B)
        for k in range(4):
            np.testing.assert_allclose(X[:, k],
                                       lu_solve(res.L, res.U, B[:, k]),
                                       atol=1e-10)

    def test_analysis_plus_gpu_solve(self, rng):
        """analyze() -> refactorize() -> solve_gpu(): the full device-side
        circuit workflow end to end."""
        a = circuit_like(150, 7.0, seed=126)
        an = analyze(a, cfg())
        re = an.refactorize(a)
        gpu = GPU(spec=scaled_device(8 << 20), host=scaled_host(64 << 20))
        b = rng.normal(size=a.n_rows)
        # the analysis pattern has no permutations (full diagonal), so the
        # raw factors solve the original system directly
        out = solve_gpu(gpu, re.L, re.U, b, cfg())
        assert residual_norm(a, out.x, b) < 1e-9

    def test_solve_gpu_rejects_nothing_but_charges_phases(self):
        gpu = GPU(spec=scaled_device(4 << 20), host=scaled_host(32 << 20))
        eye = CSCMatrix.identity(4)
        solve_gpu(gpu, eye, eye, np.ones(4), cfg(4 << 20))
        assert gpu.ledger.seconds("solve") > 0
        assert gpu.ledger.get_count("bytes_h2d") > 0
        assert gpu.ledger.get_count("bytes_d2h") > 0
