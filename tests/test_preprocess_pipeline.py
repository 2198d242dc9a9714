"""The pre-processing pipeline: checks plus zero-free-diagonal matching."""

import numpy as np
import pytest

from repro.core import EndToEndLU, analyze
from repro.preprocess import preprocess
from repro.serve.loadgen import restamp
from repro.sparse import CSRMatrix, permute
from repro.workloads import circuit_like

from helpers import random_dense


class TestPipeline:
    def test_solve_transform_consistency(self, rng):
        """The PreprocessResult permutations must compose so that
        ``matrix == P A Q`` with gather-convention perms."""
        d = random_dense(14, 0.35, seed=5)
        for dense in (d, d[rng.permutation(14)]):
            res = preprocess(CSRMatrix.from_dense(dense))
            expected = dense[np.asarray(res.row_perm)][
                :, np.asarray(res.col_perm)
            ]
            np.testing.assert_array_equal(res.matrix.to_dense(), expected)

    def test_diagonal_matched_when_deficient(self, rng):
        d = random_dense(10, 0.4, seed=6)
        shuffled = d[rng.permutation(10)]
        a = CSRMatrix.from_dense(shuffled)
        res = preprocess(a)
        assert res.matrix.has_full_diagonal()

    def test_missing_diagonal_inserted_structurally(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = d[1, 2] = d[2, 1] = 1.0
        d[0, 0] = 1.0
        res = preprocess(CSRMatrix.from_dense(d))
        assert res.matrix.has_full_diagonal()

    def test_rejects_rectangular(self):
        m = CSRMatrix(2, 3, [0, 0, 0], [], [])
        with pytest.raises(ValueError):
            preprocess(m)

    def test_natural_ordering_is_identity_perm(self, small_csr):
        res = preprocess(small_csr)
        np.testing.assert_array_equal(res.row_perm,
                                      np.arange(small_csr.n_rows))
        np.testing.assert_array_equal(res.col_perm,
                                      np.arange(small_csr.n_cols))


class TestMatchingThroughRefactorize:
    """Matching is the one transform pre-processing applies; a pattern
    that needs it must analyze once and refactorize like a cold run."""

    def test_row_shuffled_pattern_refactorizes_bitwise(self):
        base = circuit_like(80, 5.0, seed=2)
        shuffle = np.random.default_rng(0).permutation(base.n_rows)
        a = permute(base, row_perm=shuffle)
        assert not a.has_full_diagonal()
        analysis = analyze(a)
        assert not np.array_equal(
            analysis.pre.row_perm, np.arange(a.n_rows)
        )
        b = np.random.default_rng(1).normal(size=a.n_rows)
        for m in (a, restamp(a, 3), restamp(a, 4)):
            warm = analysis.refactorize(m)
            cold = EndToEndLU().factorize(m)
            for f in ("L", "U"):
                w, c = getattr(warm, f), getattr(cold, f)
                assert np.array_equal(w.indptr, c.indptr)
                assert np.array_equal(w.indices, c.indices)
                assert w.data.tobytes() == c.data.tobytes()
            x = warm.solve(b)
            assert x.tobytes() == cold.solve(b).tobytes()
            # normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||)
            anorm = np.abs(m.to_dense()).sum(axis=1).max()
            err = np.abs(m.matvec(x) - b).max() / (
                anorm * np.abs(x).max() + np.abs(b).max()
            )
            assert err <= 1e-8
