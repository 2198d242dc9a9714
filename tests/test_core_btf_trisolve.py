"""BTF solver, multi-RHS solves."""

import numpy as np
import pytest

from repro.core import (
    SolverConfig,
    factorize,
    factorize_btf,
)
from repro.gpusim import scaled_device, scaled_host
from repro.numeric import lu_solve
from repro.sparse import CSRMatrix, residual_norm
from repro.workloads import circuit_like

from helpers import random_dense


def cfg(mem=8 << 20, **kw):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem),
                        **kw)


def block_diag_matrix(sizes, seed=0):
    """Dense block-diagonal + a lower coupling entry between blocks."""
    n = sum(sizes)
    d = np.zeros((n, n))
    s = 0
    for k, sz in enumerate(sizes):
        blk = random_dense(sz, 0.6, seed=seed + k)
        d[s : s + sz, s : s + sz] = blk
        if s > 0:
            d[s, s - 1] = 0.5  # lower coupling only: stays block triangular
        s += sz
    return CSRMatrix.from_dense(d)


class TestBTF:
    def test_block_structure_detected(self):
        a = block_diag_matrix([4, 3, 5], seed=2)
        f = factorize_btf(a, cfg())
        # lower couplings do not merge SCCs
        assert f.num_blocks >= 3
        sizes = sorted(int(x) for x in f.btf.block_sizes())
        assert sum(sizes) == a.n_rows

    def test_btf_solve_correct(self, rng):
        a = block_diag_matrix([6, 1, 8, 3], seed=3)
        f = factorize_btf(a, cfg())
        b = rng.normal(size=a.n_rows)
        assert residual_norm(a, f.solve(b), b) < 1e-9

    def test_matches_monolithic_factorize(self, rng):
        a = circuit_like(150, 6.0, seed=71)
        f = factorize_btf(a, cfg())
        mono = factorize(a, cfg())
        b = rng.normal(size=a.n_rows)
        np.testing.assert_allclose(f.solve(b), mono.solve(b), atol=1e-8)

    def test_one_by_one_blocks_skip_factorization(self):
        # upper-triangular matrix: all SCCs are singletons
        d = np.triu(random_dense(10, 0.5, seed=5, dominant=True))
        f = factorize_btf(CSRMatrix.from_dense(d), cfg())
        assert f.num_blocks == 10
        assert f.factorized_blocks == 0
        b = np.ones(10)
        assert residual_norm(CSRMatrix.from_dense(d), f.solve(b), b) < 1e-10

    def test_zero_pivot_singleton_raises(self):
        """A structurally-present but numerically-zero singleton pivot."""
        from repro.errors import SingularMatrixError
        from repro.sparse import COOMatrix

        d = np.triu(random_dense(6, 0.5, seed=6, dominant=True))
        rows, cols = np.nonzero(d)
        vals = d[rows, cols]
        vals[(rows == 3) & (cols == 3)] = 0.0  # explicit stored zero
        a = COOMatrix(6, 6, rows, cols, vals).to_csr()
        assert a.has_full_diagonal()  # structurally fine
        with pytest.raises(SingularMatrixError):
            factorize_btf(a, cfg())


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
