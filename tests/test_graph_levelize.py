"""Dependency graph and levelization, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro import oracles
from repro.errors import CycleError
from repro.graph import (
    DependencyGraph,
    LevelSchedule,
    build_dependency_graph,
    kahn_levels,
    sub_column_counts,
)
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference

from helpers import random_dense


def graph_from_edges(n, edges) -> DependencyGraph:
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indeg = np.bincount(dst, minlength=n).astype(np.int64)
    return DependencyGraph(n=n, indptr=indptr, targets=dst, in_degree=indeg)


class TestBuildGraph:
    def test_paper_figure1_shape(self, paper_example):
        filled = symbolic_fill_reference(paper_example)
        g = build_dependency_graph(filled)
        g.validate()
        assert g.n == 10
        # every edge goes forward
        for i in range(g.n):
            assert np.all(g.successors(i) > i)

    def test_u_and_l_dependencies_included(self):
        """The GLU 'double-U' case: L(j,i) != 0 must also order i -> j."""
        d = np.eye(4) * 10
        d[3, 0] = 1.0  # L(3, 0)
        d[0, 2] = 1.0  # U(0, 2)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled)
        assert 3 in g.successors(0).tolist()

    def test_u_only_variant_excludes_l(self):
        d = np.eye(4) * 10
        d[3, 0] = 1.0
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled, include_l_dependencies=False)
        assert 3 not in g.successors(0).tolist()

    def test_no_duplicate_edges(self):
        d = np.eye(3) * 10
        d[0, 1] = 1.0
        d[1, 0] = 1.0  # both triangles populate (0, 1)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled)
        succ = g.successors(0).tolist()
        assert succ.count(1) == 1

    def test_sub_column_counts(self, paper_example):
        filled = symbolic_fill_reference(paper_example)
        sc = sub_column_counts(filled)
        rows = filled.row_ids_of_entries()
        expected = np.bincount(
            rows[filled.indices > rows], minlength=filled.n_rows
        )
        np.testing.assert_array_equal(sc, expected)


class TestLevelizers:
    @pytest.mark.parametrize("seed", range(6))
    def test_cpu_and_kahn_agree(self, seed):
        d = random_dense(30, 0.15, seed=seed)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled)
        np.testing.assert_array_equal(
            oracles.levelize_cpu(g).level_of, kahn_levels(g).level_of
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_longest_path(self, seed):
        d = random_dense(25, 0.15, seed=seed + 10)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        g = build_dependency_graph(filled)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.n))
        for i in range(g.n):
            nxg.add_edges_from((i, int(j)) for j in g.successors(i))
        expected = np.zeros(g.n, dtype=np.int64)
        for node in nx.topological_sort(nxg):
            preds = list(nxg.predecessors(node))
            expected[node] = (
                max(expected[p] for p in preds) + 1 if preds else 0
            )
        np.testing.assert_array_equal(kahn_levels(g).level_of, expected)

    def test_schedule_respects_dependencies(self, small_csr):
        filled = symbolic_fill_reference(small_csr)
        g = build_dependency_graph(filled)
        kahn_levels(g).validate_against(g)

    def test_first_violated_edge_in_csr_order_is_named(self):
        g = graph_from_edges(5, [(0, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
        ok = LevelSchedule(level_of=np.array([0, 0, 1, 1, 2]))
        ok.validate_against(g)
        # (1, 3) and (2, 4) both violate; the edge of the lower source
        # comes first in CSR order
        bad = LevelSchedule(level_of=np.array([0, 1, 1, 1, 1]))
        with pytest.raises(AssertionError) as err:
            bad.validate_against(g)
        assert str(err.value) == "edge 1->3 violates levels 1 -> 1"
        # the graph-wide compare names what an edge-by-edge walk names
        rng = np.random.default_rng(5)
        for _ in range(20):
            level_of = rng.integers(0, 4, size=g.n)
            first = next(
                (
                    f"edge {i}->{int(j)} violates levels "
                    f"{level_of[i]} -> {level_of[j]}"
                    for i in range(g.n)
                    for j in g.successors(i)
                    if level_of[j] <= level_of[i]
                ),
                None,
            )
            sched = LevelSchedule(level_of=level_of)
            if first is None:
                sched.validate_against(g)
                continue
            with pytest.raises(AssertionError) as err:
                sched.validate_against(g)
            assert str(err.value) == first

    def test_levels_partition_columns(self, small_csr):
        filled = symbolic_fill_reference(small_csr)
        sched = kahn_levels(build_dependency_graph(filled))
        seen = np.concatenate(sched.levels)
        assert len(seen) == small_csr.n_rows
        assert len(np.unique(seen)) == small_csr.n_rows

    def test_empty_graph_single_level(self):
        g = graph_from_edges(5, [])
        sched = kahn_levels(g)
        assert sched.num_levels == 1
        assert len(sched.levels[0]) == 5

    def test_chain_is_fully_serial(self):
        g = graph_from_edges(6, [(i, i + 1) for i in range(5)])
        sched = kahn_levels(g)
        assert sched.num_levels == 6
        np.testing.assert_array_equal(sched.level_of, np.arange(6))

    def test_cycle_detected(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleError):
            kahn_levels(g)

    def test_columns_per_level(self):
        g = graph_from_edges(4, [(0, 2), (1, 2), (2, 3)])
        sched = kahn_levels(g)
        np.testing.assert_array_equal(sched.columns_per_level(), [2, 1, 1])


class TestClassification:
    def test_type_a_wide_level(self):
        g = graph_from_edges(64, [])
        sched = kahn_levels(g)
        tags = sched.classify_levels(np.zeros(64, dtype=np.int64))
        assert tags == ["A"]

    def test_type_c_narrow_heavy_level(self):
        g = graph_from_edges(2, [(0, 1)])
        sched = kahn_levels(g)
        tags = sched.classify_levels(np.array([100, 100]))
        assert tags == ["C", "C"]

    def test_type_b_middle_ground(self):
        g = graph_from_edges(12, [])
        sched = kahn_levels(g)
        tags = sched.classify_levels(np.full(12, 50))
        assert tags == ["B"]
