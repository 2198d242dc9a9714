"""Dependency graph and levelization, cross-checked against networkx."""

import dataclasses

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
from repro.graph.levelize import _SCALAR_WAVE_EDGES
from repro.sparse import CSRMatrix
from repro.sparse.types import INDEX_DTYPE
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

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


def networkx_levels(g: DependencyGraph) -> np.ndarray:
    """Longest-path depth of every node, by networkx."""
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(g.n))
    for i in range(g.n):
        nxg.add_edges_from((i, int(j)) for j in g.successors(i))
    expected = np.zeros(g.n, dtype=np.int64)
    for node in nx.topological_sort(nxg):
        preds = list(nxg.predecessors(node))
        expected[node] = max(expected[p] for p in preds) + 1 if preds else 0
    return expected


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
        np.testing.assert_array_equal(
            kahn_levels(g).level_of, networkx_levels(g)
        )

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


_S = _SCALAR_WAVE_EDGES


def relabelled_dag(n: int, p: float, seed: int) -> DependencyGraph:
    """Random DAG with shuffled ids, so its edges point both ways."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).tolist()
    edges = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def fan(sources: int, successors: int) -> DependencyGraph:
    """``sources`` nodes in one wave, each pointing at every one of
    ``successors`` shared nodes."""
    edges = [
        (i, sources + j) for i in range(sources) for j in range(successors)
    ]
    return graph_from_edges(sources + successors, edges)


def star(degree: int) -> DependencyGraph:
    """One source wave of ``degree`` out-edges."""
    return graph_from_edges(degree + 1, [(0, j) for j in range(1, degree + 1)])


def two_sources(edges: int) -> DependencyGraph:
    """Two source nodes sharing successors, ``edges`` out-edges in all."""
    a, b = (edges + 1) // 2, edges // 2
    pairs = [(0, 2 + j) for j in range(a)] + [(1, 2 + j) for j in range(b)]
    return graph_from_edges(2 + a, pairs)


#: hand-built DAGs for every path of the wave sweep: few- and many-node
#: waves, at most and more than ``_SCALAR_WAVE_EDGES`` out-edges
EDGE_CASE_DAGS = {
    **{f"relabelled-sparse-{s}": relabelled_dag(60, 0.05, s) for s in range(3)},
    **{f"relabelled-dense-{s}": relabelled_dag(50, 0.4, s) for s in range(3)},
    "shared-successor": graph_from_edges(3, [(0, 2), (1, 2)]),
    "shared-successors-scalar": fan(2, _S // 2),
    "shared-successors-bulk": fan(2, _S // 2 + 1),
    "many-nodes-one-sink": fan(_S + 1, 1),
    "many-nodes-shared-bulk": fan(_S + 1, 3),
    "many-nodes-one-edge": graph_from_edges(_S + 2, [(0, _S + 1)]),
    "duplicate-edge": graph_from_edges(3, [(0, 1), (0, 1), (1, 2)]),
    "second-wave-at-switch": graph_from_edges(
        _S + 2, [(0, 1)] + [(1, j) for j in range(2, _S + 2)]
    ),
    "n=1": graph_from_edges(1, []),
    "n=0": graph_from_edges(0, []),
}

#: (graph, nodes left on or behind a cycle)
CYCLIC = {
    "triangle": graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]),
    "cycle-after-prefix": graph_from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 1)]
    ),
    "self-loop": graph_from_edges(2, [(0, 1), (1, 1)]),
    "cycle-behind-bulk-wave": graph_from_edges(
        _S + 4,
        [(0, j) for j in range(1, _S + 2)]
        + [(1, _S + 2), (_S + 2, _S + 3), (_S + 3, _S + 2)],
    ),
}


def assert_levels_agree(g: DependencyGraph) -> None:
    """``kahn_levels`` equals the node-by-node oracle (every wave, in
    value and dtype) and networkx's longest-path depths."""
    got = kahn_levels(g)
    ref = oracles.kahn_levels(g)
    assert got.level_of.dtype == INDEX_DTYPE
    assert [w.dtype for w in got.levels] == [INDEX_DTYPE] * len(got.levels)
    np.testing.assert_array_equal(got.level_of, ref.level_of)
    assert len(got.levels) == len(ref.levels)
    for wave, ref_wave in zip(got.levels, ref.levels):
        np.testing.assert_array_equal(wave, ref_wave)
    np.testing.assert_array_equal(got.level_of, networkx_levels(g))


class TestWaveSweepEdgeCases:
    @pytest.mark.parametrize(
        "graph", EDGE_CASE_DAGS.values(), ids=EDGE_CASE_DAGS.keys()
    )
    def test_matches_oracle_and_networkx(self, graph):
        assert_levels_agree(graph)

    @pytest.mark.parametrize("edges", [_S, _S + 1])
    @pytest.mark.parametrize("make", [star, two_sources])
    def test_wave_at_and_past_the_scalar_switch(self, make, edges):
        g = make(edges)
        first = kahn_levels(g).levels[0]
        assert int(np.diff(g.indptr)[first].sum()) == edges
        assert_levels_agree(g)

    def test_empty_graph_has_no_levels(self):
        sched = kahn_levels(graph_from_edges(0, []))
        assert sched.num_levels == 0
        assert sched.level_of.dtype == INDEX_DTYPE

    @pytest.mark.parametrize("graph", CYCLIC.values(), ids=CYCLIC.keys())
    def test_cycle_raises_with_the_oracle_count(self, graph):
        with pytest.raises(CycleError) as ref:
            oracles.kahn_levels(graph)
        with pytest.raises(CycleError) as got:
            kahn_levels(graph)
        assert got.value.remaining == ref.value.remaining > 0


def reference_graph(
    filled: CSRMatrix, include_l_dependencies: bool
) -> DependencyGraph:
    """The column DAG from a Python set of ``(src, dst)`` pairs."""
    rows = filled.row_ids_of_entries().tolist()
    cols = filled.indices.tolist()
    pairs = {(i, j) for i, j in zip(rows, cols) if j > i}
    if include_l_dependencies:
        pairs |= {(j, i) for i, j in zip(rows, cols) if j < i}
    ordered = sorted(pairs)
    n = filled.n_rows
    out_degree = [0] * n
    in_degree = [0] * n
    for i, j in ordered:
        out_degree[i] += 1
        in_degree[j] += 1
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    indptr[1:] = np.cumsum(out_degree)
    return DependencyGraph(
        n=n,
        indptr=indptr,
        targets=np.array([j for _, j in ordered], dtype=INDEX_DTYPE),
        in_degree=np.array(in_degree, dtype=INDEX_DTYPE),
    )


def _sparse_rows_pattern(*, empty_row: bool) -> CSRMatrix:
    """Rows 0, 2, 5 and 7 hold only their diagonal; with ``empty_row``,
    row 4 holds nothing at all."""
    d = np.eye(8) * 4.0
    d[1, 5] = d[6, 2] = d[3, 0] = d[4, 6] = 1.0
    if empty_row:
        d[4, :] = 0.0
    return CSRMatrix.from_dense(d)


_SMOKE_N = 96
_REGISTRY = (*TABLE2, *TABLE4, FIG3_SPECS[1])
GRAPH_BUILD_CASES = {
    **{
        spec.abbr: lambda spec=spec: symbolic_fill_reference(
            dataclasses.replace(spec, n_scaled=_SMOKE_N).generate()
        )
        for spec in _REGISTRY
    },
    "circuit-200": lambda: symbolic_fill_reference(circuit_like(200, 7.0, 0)),
    "circuit-500": lambda: symbolic_fill_reference(circuit_like(500, 7.0, 0)),
    "diagonal-only-rows": lambda: _sparse_rows_pattern(empty_row=False),
    "empty-row": lambda: _sparse_rows_pattern(empty_row=True),
    "identity": lambda: CSRMatrix.identity(5),
}


class TestBuildGraphAgainstPairs:
    @pytest.mark.parametrize("include_l", [True, False])
    @pytest.mark.parametrize(
        "make", GRAPH_BUILD_CASES.values(), ids=GRAPH_BUILD_CASES.keys()
    )
    def test_matches_set_of_pairs(self, make, include_l):
        filled = make()
        got = build_dependency_graph(
            filled, include_l_dependencies=include_l
        )
        ref = reference_graph(filled, include_l)
        assert got.n == ref.n
        for name in ("indptr", "targets", "in_degree"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype == INDEX_DTYPE, name
            np.testing.assert_array_equal(a, b, err_msg=name)


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
