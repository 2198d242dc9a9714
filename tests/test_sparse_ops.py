"""Permutation and residual helpers."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import (
    CSRMatrix,
    invert_permutation,
    permute,
    residual_norm,
)

from helpers import random_dense


class TestPermute:
    def test_row_permutation_gather(self, rng):
        d = random_dense(9, 0.4, seed=1, dominant=False)
        m = CSRMatrix.from_dense(d)
        p = rng.permutation(9)
        out = permute(m, row_perm=p)
        np.testing.assert_array_equal(out.to_dense(), d[p])

    def test_col_permutation_gather(self, rng):
        d = random_dense(9, 0.4, seed=2, dominant=False)
        m = CSRMatrix.from_dense(d)
        q = rng.permutation(9)
        out = permute(m, col_perm=q)
        np.testing.assert_array_equal(out.to_dense(), d[:, q])

    def test_both_permutations(self, rng):
        d = random_dense(11, 0.4, seed=3, dominant=False)
        m = CSRMatrix.from_dense(d)
        p, q = rng.permutation(11), rng.permutation(11)
        out = permute(m, row_perm=p, col_perm=q)
        np.testing.assert_array_equal(out.to_dense(), d[p][:, q])

    def test_invalid_permutation_rejected(self, small_csr):
        bad = np.zeros(small_csr.n_rows, dtype=int)  # not a permutation
        with pytest.raises(SparseFormatError):
            permute(small_csr, row_perm=bad)

    def test_wrong_length_rejected(self, small_csr):
        with pytest.raises(SparseFormatError):
            permute(small_csr, row_perm=np.arange(3))

    def test_invert_permutation(self, rng):
        p = rng.permutation(20)
        inv = invert_permutation(p)
        np.testing.assert_array_equal(p[inv], np.arange(20))
        np.testing.assert_array_equal(inv[p], np.arange(20))


class TestMisc:
    def test_residual_norm_zero_for_exact(self, small_dense, rng):
        m = CSRMatrix.from_dense(small_dense)
        x = rng.normal(size=m.n_cols)
        b = small_dense @ x
        assert residual_norm(m, x, b) < 1e-12

    def test_residual_norm_nonzero_for_wrong(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        b = np.ones(m.n_rows)
        assert residual_norm(m, np.zeros(m.n_cols), b) == pytest.approx(1.0)
