"""Dependency-edge pruning and power-law workloads."""

import numpy as np
import pytest

from repro.graph import (
    build_dependency_graph,
    kahn_levels,
    sparsify_for_levels,
)
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like, powerlaw_like

from helpers import random_dense


class TestSparsify:
    @pytest.mark.parametrize("seed", range(5))
    def test_levels_identical_after_pruning(self, seed):
        d = random_dense(30, 0.15, seed=seed)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled)
        sched = kahn_levels(g)
        reduced, stats = sparsify_for_levels(g, sched)
        np.testing.assert_array_equal(
            kahn_levels(reduced).level_of, sched.level_of
        )
        assert stats.edges_after <= stats.edges_before

    def test_only_critical_edges_kept(self):
        a = circuit_like(150, 6.0, seed=131)
        filled = symbolic_fill_reference(a)
        g = build_dependency_graph(filled)
        sched = kahn_levels(g)
        reduced, _ = sparsify_for_levels(g, sched)
        level = sched.level_of
        for i in range(reduced.n):
            for j in reduced.successors(i):
                assert level[int(j)] == level[i] + 1

    def test_substantial_reduction_on_filled_patterns(self):
        """Filled patterns are transitively heavy: most edges prune away
        (GLU 3.0's 'relaxed dependency' insight)."""
        a = circuit_like(300, 8.0, seed=132)
        filled = symbolic_fill_reference(a)
        g = build_dependency_graph(filled)
        _, stats = sparsify_for_levels(g)
        assert stats.reduction > 0.5

    def test_chain_not_reducible(self):
        """A pure chain has no redundant edges — nothing to prune."""
        from repro.graph import DependencyGraph
        from repro.sparse.types import INDEX_DTYPE

        n = 8
        src = np.arange(n - 1, dtype=INDEX_DTYPE)
        dst = src + 1
        indptr = np.concatenate(
            [np.arange(n, dtype=INDEX_DTYPE), [n - 1]]
        )
        g = DependencyGraph(
            n=n, indptr=indptr, targets=dst,
            in_degree=np.bincount(dst, minlength=n).astype(INDEX_DTYPE),
        )
        reduced, stats = sparsify_for_levels(g)
        assert stats.edges_after == stats.edges_before == n - 1
        np.testing.assert_array_equal(
            kahn_levels(reduced).level_of, np.arange(n)
        )


class TestPowerlaw:
    def test_density_near_target(self):
        a = powerlaw_like(500, 8.0, seed=1)
        assert a.nnz / a.n_rows == pytest.approx(8.0, rel=0.35)

    def test_hub_degrees_heavy_tailed(self):
        a = powerlaw_like(500, 8.0, seed=2)
        deg = a.row_nnz()
        # hubs live at high indices by construction
        assert deg[-50:].mean() > 3 * deg[:50].mean()
        # a genuinely heavy tail: the top row dwarfs the median
        assert deg.max() > 8 * np.median(deg)

    def test_deterministic(self):
        a = powerlaw_like(200, 6.0, seed=3)
        b = powerlaw_like(200, 6.0, seed=3)
        assert a.same_pattern(b)

    def test_factorizable_end_to_end(self, rng):
        from repro import factorize
        from repro.gpusim import scaled_device, scaled_host
        from repro import SolverConfig
        from repro.sparse import residual_norm

        a = powerlaw_like(200, 5.0, seed=4)
        cfg = SolverConfig(device=scaled_device(16 << 20),
                           host=scaled_host(128 << 20))
        res = factorize(a, cfg)
        b = rng.normal(size=a.n_rows)
        assert residual_norm(a, res.solve(b), b) < 1e-9

    def test_diagonally_dominant(self):
        a = powerlaw_like(150, 6.0, seed=5)
        d = a.to_dense()
        off = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
        assert np.all(np.abs(np.diag(d)) > off - 1e-9)
