"""Reusable analysis + numeric-only refactorization (the circuit workflow)."""

import numpy as np
import pytest

from repro.core import SolverConfig, analyze
from repro.errors import SparseFormatError
from repro.gpusim import scaled_device, scaled_host
from repro.sparse import CSRMatrix, residual_norm
from repro.workloads import circuit_like


def cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


@pytest.fixture
def pattern():
    return circuit_like(180, 7.0, seed=61)


def restamp(pattern: CSRMatrix, seed: int) -> CSRMatrix:
    """New diagonally-dominant values on the identical pattern."""
    rng = np.random.default_rng(seed)
    out = pattern.copy()
    rows = out.row_ids_of_entries()
    off = rows != out.indices
    out.data[off] = rng.uniform(-1, 1, int(off.sum()))
    rowsum = np.zeros(out.n_rows)
    np.add.at(rowsum, rows[off], np.abs(out.data[off]))
    out.data[~off] = rowsum[rows[~off]] + 1.0
    return out


class TestAnalyze:
    def test_analysis_contents(self, pattern):
        an = analyze(pattern, cfg())
        assert an.num_levels > 1
        assert an.analysis_seconds > 0
        assert an.same_pattern(pattern)
        assert an.gpu.pool.live_bytes == 0  # nothing left resident

    def test_refactorize_solves_each_value_set(self, pattern):
        an = analyze(pattern, cfg())
        rng = np.random.default_rng(0)
        for seed in range(3):
            a = restamp(pattern, seed)
            res = an.refactorize(a)
            b = rng.normal(size=a.n_rows)
            assert residual_norm(a, res.solve(b), b) < 1e-10

    def test_refactorize_matches_full_pipeline(self, pattern):
        from repro import factorize

        an = analyze(pattern, cfg())
        a = restamp(pattern, 99)
        quick = an.refactorize(a)
        full = factorize(a, cfg())
        assert quick.L.allclose(full.L)
        assert quick.U.allclose(full.U)

    def test_refactorize_cheaper_than_analysis(self, pattern):
        an = analyze(pattern, cfg())
        res = an.refactorize(restamp(pattern, 1))
        assert res.sim_seconds < an.analysis_seconds

    def test_rejects_different_pattern(self, pattern):
        an = analyze(pattern, cfg())
        other = circuit_like(180, 7.0, seed=62)  # different structure
        with pytest.raises(SparseFormatError):
            an.refactorize(other)

    def test_original_values_refactorize_identically(self, pattern):
        an = analyze(pattern, cfg())
        res = an.refactorize(pattern)
        from repro import factorize

        full = factorize(pattern, cfg())
        assert res.L.allclose(full.L)
        assert res.U.allclose(full.U)

    def test_rejects_pattern_superset(self, pattern):
        """Extra entries (same shape, more nonzeros) must be refused —
        silently scattering them would corrupt the factorization."""
        from repro.sparse import COOMatrix

        an = analyze(pattern, cfg())
        coo = pattern.to_coo()
        free = next(
            (i, j)
            for i in range(pattern.n_rows)
            for j in range(pattern.n_cols)
            if j not in pattern.row(i)[0]
        )
        rows = np.append(coo.rows, free[0])
        cols = np.append(coo.cols, free[1])
        vals = np.append(coo.data, 0.5)
        grown = COOMatrix(
            pattern.n_rows, pattern.n_cols, rows, cols, vals
        ).to_csr()
        with pytest.raises(SparseFormatError):
            an.refactorize(grown)

    def test_filled_row_missing_its_last_entry_is_refused(self, pattern):
        """An original entry past the last column of its filled row is a
        typed error, not an ``IndexError`` (and survives ``python -O``)."""
        an = analyze(pattern, cfg())
        src, filled = an.pre.matrix, an.filled
        last = filled.indptr[1:] - 1
        # a row whose last filled entry is an original one
        row = next(
            i for i in range(src.n_rows)
            if filled.indices[last[i]] == src.row(i)[0].max()
        )
        keep = np.ones(filled.nnz, dtype=bool)
        keep[last[row]] = False
        indptr = filled.indptr.copy()
        indptr[row + 1 :] -= 1
        broken = CSRMatrix(
            filled.n_rows, filled.n_cols, indptr,
            filled.indices[keep], filled.data[keep],
        )
        with pytest.raises(SparseFormatError):
            type(an)(
                an.gpu, an.config, an.pre, broken, an.graph, an.schedule,
                an.analysis_seconds,
            )


class TestAnalysisFootprint:
    """The nbytes accounting the serving cache budgets against."""

    def test_nbytes_counts_all_retained_arrays(self, pattern):
        an = analyze(pattern, cfg())
        total = an.nbytes
        assert total > 0
        # the filled pattern + scatter map alone are a lower bound
        floor = (
            an.filled.indptr.nbytes
            + an.filled.indices.nbytes
            + an.filled.data.nbytes
            + an._scatter.nbytes
        )
        assert total > floor

    def test_nbytes_stable_across_refactorizations(self, pattern):
        an = analyze(pattern, cfg())
        before = an.nbytes
        from repro.serve.loadgen import restamp

        an.refactorize(restamp(pattern, 7))
        assert an.nbytes == before  # numeric passes retain nothing

    def test_nbytes_grows_with_problem_size(self):
        small = analyze(circuit_like(90, 6.0, seed=1), cfg())
        large = analyze(circuit_like(360, 6.0, seed=1), cfg())
        assert large.nbytes > 2 * small.nbytes
