"""Pattern utilities: stats, triangular splits, symmetrization, diagonal."""

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    ensure_diagonal,
    lower_pattern_csr,
    pattern_stats,
    replace_zero_diagonal,
    split_lu_pattern,
    upper_pattern_csr,
)

from helpers import random_dense


class TestPatternStats:
    def test_counts(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        st = pattern_stats(m)
        assert st.n == m.n_rows
        assert st.nnz == m.nnz
        assert st.nnz_per_row == pytest.approx(m.nnz / m.n_rows)
        assert st.full_diagonal

    def test_symmetric_matrix_symmetry_one(self):
        d = random_dense(12, 0.3, seed=1, dominant=False)
        d = d + d.T
        st = pattern_stats(CSRMatrix.from_dense(d))
        assert st.structural_symmetry == pytest.approx(1.0)

    def test_bandwidth_tridiagonal(self):
        d = np.diag(np.ones(5)) + np.diag(np.ones(4), 1) + np.diag(
            np.ones(4), -1
        )
        assert pattern_stats(CSRMatrix.from_dense(d)).bandwidth == 1

    def test_empty_matrix(self):
        st = pattern_stats(CSRMatrix(3, 3, [0, 0, 0, 0], [], []))
        assert st.nnz == 0
        assert st.bandwidth == 0


class TestTriangularSplits:
    def test_lower_upper_partition(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        low = lower_pattern_csr(m)
        up = upper_pattern_csr(m)
        diag_nnz = int(np.count_nonzero(np.diag(small_dense)))
        assert low.nnz + up.nnz + diag_nnz == m.nnz
        np.testing.assert_array_equal(
            low.to_dense(), np.tril(small_dense, -1)
        )
        np.testing.assert_array_equal(up.to_dense(), np.triu(small_dense, 1))

    def test_non_strict_includes_diagonal(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        low = lower_pattern_csr(m, strict=False)
        np.testing.assert_array_equal(low.to_dense(), np.tril(small_dense))


class TestSplitLU:
    def test_l_unit_diagonal_u_upper(self, small_dense):
        m = CSRMatrix.from_dense(small_dense)
        L, U = split_lu_pattern(m)
        ld = L.to_dense()
        np.testing.assert_allclose(np.diag(ld), 1.0)
        assert np.all(np.triu(ld, 1) == 0)
        ud = U.to_dense()
        assert np.all(np.tril(ud, -1) == 0)
        # L (sans diag) + U recompose the original
        np.testing.assert_allclose(
            np.tril(ld, -1) + ud, small_dense, atol=1e-12
        )


class TestDiagonalRepair:
    def test_ensure_diagonal_inserts_missing(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        m = ensure_diagonal(CSRMatrix.from_dense(d), value=0.0)
        assert m.has_full_diagonal()
        assert m.nnz == 4

    def test_ensure_diagonal_noop_when_full(self, small_csr):
        m = ensure_diagonal(small_csr)
        assert m is small_csr  # unchanged object, no copy

    def test_replace_zero_diagonal(self):
        d = np.eye(4)
        d[1, 1] = 0.0
        d[0, 1] = 5.0
        m = CSRMatrix.from_dense(d)
        # explicit structural zero on the diagonal
        fixed = replace_zero_diagonal(m, 1000.0)
        assert fixed.get(1, 1) == pytest.approx(1000.0)
        assert fixed.get(0, 0) == pytest.approx(1.0)  # untouched

    def test_replace_zero_diagonal_paper_value(self):
        """§4.4: zero diagonals replaced with 1000."""
        d = np.zeros((2, 2))
        d[0, 1] = 1.0
        d[1, 0] = 1.0
        fixed = replace_zero_diagonal(CSRMatrix.from_dense(d))
        np.testing.assert_allclose(np.diag(fixed.to_dense()), 1000.0)
