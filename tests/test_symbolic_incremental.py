"""Incremental symbolic re-analysis: delta algebra, splice correctness,
the splice threshold and registry-wide bitwise differentials."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SolverConfig,
    analyze,
    best_donor,
    incremental_analyze,
)
from repro.core import incremental
from repro.gpusim import GPU
from repro.preprocess import preprocess
from repro.sparse import CSRMatrix, residual_norm
from repro.symbolic import (
    PatternDelta,
    apply_delta,
    compute_delta,
    incremental_fill,
    symbolic_fill_reference,
)
from repro.workloads import circuit_like, fem_like, perturb_pattern
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

pytestmark = pytest.mark.drift


def assert_same_pattern(a: CSRMatrix, b: CSRMatrix):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)


def assert_bitwise(a: CSRMatrix, b: CSRMatrix):
    assert_same_pattern(a, b)
    np.testing.assert_array_equal(a.data, b.data)


def assert_same_analysis(got, want):
    """Filled pattern, dependency graph and level schedule bit for bit."""
    assert_bitwise(got.filled, want.filled)
    np.testing.assert_array_equal(got.graph.indptr, want.graph.indptr)
    np.testing.assert_array_equal(got.graph.targets, want.graph.targets)
    np.testing.assert_array_equal(
        got.graph.in_degree, want.graph.in_degree
    )
    np.testing.assert_array_equal(
        got.schedule.level_of, want.schedule.level_of
    )
    assert len(got.schedule.levels) == len(want.schedule.levels)
    for g, w in zip(got.schedule.levels, want.schedule.levels):
        np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
class TestDeltaAlgebra:
    def test_compute_delta_roundtrip(self):
        a = circuit_like(80, 5.0, seed=1)
        b = perturb_pattern(a, add=4, remove=2, seed=7)
        delta = compute_delta(a, b)
        assert delta.size == 6
        assert_bitwise(apply_delta(a, delta), b)

    def test_invert_restores_original_bitwise(self):
        a = circuit_like(80, 5.0, seed=2)
        b = perturb_pattern(a, add=3, remove=3, seed=5)
        delta = compute_delta(a, b)
        assert_bitwise(apply_delta(b, delta.invert()), a)

    def test_identical_matrices_empty_delta(self):
        a = fem_like(60, 6.0, seed=3)
        delta = compute_delta(a, a.copy())
        assert delta.size == 0
        assert len(delta.touched_rows) == 0

    def test_touched_rows_sorted_unique(self):
        delta = PatternDelta(
            n_rows=10,
            n_cols=10,
            added_rows=np.array([7, 2, 7]),
            added_cols=np.array([1, 3, 4]),
            added_vals=np.ones(3),
            removed_rows=np.array([2]),
            removed_cols=np.array([9]),
            removed_vals=np.ones(1),
        )
        np.testing.assert_array_equal(delta.touched_rows, [2, 7])
        assert delta.size == 4

    def test_shape_mismatch_rejected(self):
        a = circuit_like(40, 4.0, seed=1)
        b = circuit_like(50, 4.0, seed=1)
        with pytest.raises(ValueError, match="shape"):
            compute_delta(a, b)

    def test_apply_rejects_removing_absent_entry(self):
        a = circuit_like(40, 4.0, seed=4)
        dense = a.to_dense()
        i, j = next(
            (i, j)
            for i in range(40)
            for j in range(40)
            if i != j and dense[i, j] == 0
        )
        delta = PatternDelta(
            n_rows=40,
            n_cols=40,
            added_rows=np.array([], dtype=int),
            added_cols=np.array([], dtype=int),
            added_vals=np.array([]),
            removed_rows=np.array([i]),
            removed_cols=np.array([j]),
            removed_vals=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="not present"):
            apply_delta(a, delta)

    def test_apply_rejects_adding_present_entry(self):
        a = circuit_like(40, 4.0, seed=4)
        delta = PatternDelta(
            n_rows=40,
            n_cols=40,
            added_rows=np.array([0]),
            added_cols=np.array([0]),
            added_vals=np.array([1.0]),
            removed_rows=np.array([], dtype=int),
            removed_cols=np.array([], dtype=int),
            removed_vals=np.array([]),
        )
        with pytest.raises(ValueError, match="already present"):
            apply_delta(a, delta)

    def test_apply_rejects_duplicate_edit(self):
        a = circuit_like(40, 4.0, seed=4)
        dense = a.to_dense()
        i, j = next(
            (i, j)
            for i in range(40)
            for j in range(40)
            if i != j and dense[i, j] == 0
        )
        delta = PatternDelta(
            n_rows=40,
            n_cols=40,
            added_rows=np.array([i, i]),
            added_cols=np.array([j, j]),
            added_vals=np.array([1.0, 2.0]),
            removed_rows=np.array([], dtype=int),
            removed_cols=np.array([], dtype=int),
            removed_vals=np.array([]),
        )
        with pytest.raises(ValueError, match="duplicate"):
            apply_delta(a, delta)


# ---------------------------------------------------------------------------
class TestIncrementalFill:
    @pytest.mark.parametrize("kind", ["circuit", "fem"])
    def test_bitwise_matches_reference(self, kind):
        gen = circuit_like if kind == "circuit" else fem_like
        a = gen(150, 6.0, seed=9)
        filled_a = symbolic_fill_reference(a)
        b = perturb_pattern(a, add=5, remove=2, bandwidth=10, seed=13)
        res = incremental_fill(b, filled_a, compute_delta(a, b))
        assert_bitwise(res.filled, symbolic_fill_reference(b))

    def test_recomputes_only_a_subset(self):
        a = fem_like(200, 6.0, seed=1)
        filled_a = symbolic_fill_reference(a)
        b = perturb_pattern(a, add=2, bandwidth=6, seed=3)
        res = incremental_fill(b, filled_a, compute_delta(a, b))
        assert 0 < len(res.rows_recomputed) < a.n_rows
        assert set(res.rows_changed) <= set(res.rows_recomputed)

    def test_empty_delta_recomputes_nothing(self):
        a = circuit_like(100, 5.0, seed=2)
        filled_a = symbolic_fill_reference(a)
        res = incremental_fill(a.copy(), filled_a, compute_delta(a, a))
        assert len(res.rows_recomputed) == 0
        assert_bitwise(res.filled, filled_a)

    def test_chained_deltas_via_bitrows(self):
        a = circuit_like(120, 5.0, seed=4)
        filled = symbolic_fill_reference(a)
        cur, bits = a, None
        for step in range(3):
            nxt = perturb_pattern(cur, add=2, seed=20 + step)
            res = incremental_fill(
                nxt, filled, compute_delta(cur, nxt), old_bitrows=bits
            )
            filled, bits, cur = res.filled, res.bitrows, nxt
        assert_bitwise(filled, symbolic_fill_reference(cur))


# ---------------------------------------------------------------------------
@st.composite
def drifted_pair(draw):
    n = draw(st.integers(40, 120))
    seed = draw(st.integers(0, 2**16))
    add = draw(st.integers(1, 6))
    remove = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["circuit", "fem"]))
    gen = circuit_like if kind == "circuit" else fem_like
    a = gen(n, 5.0, seed=seed)
    b = perturb_pattern(
        a, add=add, remove=remove, bandwidth=8, seed=seed + 1
    )
    return a, b


@given(drifted_pair())
@settings(max_examples=25, deadline=None)
def test_property_delta_compose_invert_roundtrip(pair):
    """apply(delta) then apply(delta.invert()) is the identity, bit for
    bit — indices and values."""
    a, b = pair
    delta = compute_delta(a, b)
    assert_bitwise(apply_delta(a, delta), b)
    assert_bitwise(apply_delta(b, delta.invert()), a)


@given(drifted_pair())
@settings(max_examples=10, deadline=None)
def test_property_splice_there_and_back_restores_analysis(pair):
    """Splicing a delta and then its inverse returns the *analysis* to
    the donor's exact state: filled pattern, graph and schedule bitwise
    equal to the original cold analysis."""
    a, b = pair
    cfg = SolverConfig()
    donor = analyze(a, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incremental, "MAX_DELTA_FRACTION", 1.0)
        there = incremental_analyze(donor, b, cfg)
        assert there is not None
        mid, _ = there
        back = incremental_analyze(mid, a, cfg)
    assert back is not None
    restored, _ = back
    assert_same_analysis(restored, donor)


# ---------------------------------------------------------------------------
class TestPolicyAndThreshold:
    def test_within_budget_boundary_inclusive(self):
        assert incremental.MAX_DELTA_FRACTION == 0.05
        assert incremental._within_budget(5, 100)
        assert not incremental._within_budget(6, 100)

    def test_shape_mismatch_returns_none(self):
        a = circuit_like(80, 5.0, seed=1)
        donor = analyze(a, SolverConfig())
        b = circuit_like(90, 5.0, seed=1)
        assert incremental_analyze(donor, b) is None

    def test_straddle_small_delta_splices_large_falls_back(
        self, monkeypatch
    ):
        """Deltas on either side of ``max_delta_fraction`` take the
        incremental vs full path; both produce factors bitwise equal to
        the cold oracle, and the ledger charges land in the delta vs
        cold phases respectively."""
        cfg = SolverConfig()
        a = fem_like(200, 6.0, seed=8)
        threshold = 8 / analyze(a, cfg).pre.matrix.nnz
        monkeypatch.setattr(incremental, "MAX_DELTA_FRACTION", threshold)

        small = perturb_pattern(a, add=4, seed=21)  # under threshold
        large = perturb_pattern(a, add=40, seed=22)  # over threshold
        rng = np.random.default_rng(5)
        b_rhs = rng.normal(size=a.n_rows)

        for mat, expect_splice in ((small, True), (large, False)):
            gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
            donor = analyze(a, cfg, gpu=gpu)
            base_delta = gpu.ledger.seconds("symbolic-delta")
            base_cold = gpu.ledger.seconds("symbolic")
            got = incremental_analyze(donor, mat, cfg)
            if expect_splice:
                assert got is not None
                spliced, report = got
                assert report.delta_size <= 8
                assert gpu.ledger.seconds("symbolic-delta") > base_delta
                assert gpu.ledger.seconds("symbolic") == base_cold
            else:
                assert got is None  # caller falls back to the oracle
                spliced = analyze(mat, cfg, gpu=gpu)
                assert gpu.ledger.seconds("symbolic") > base_cold
                assert (
                    gpu.ledger.seconds("symbolic-delta") == base_delta
                )
            oracle = analyze(mat, cfg)
            assert_same_analysis(spliced, oracle)
            ours = spliced.refactorize(mat)
            ref = oracle.refactorize(mat)
            np.testing.assert_array_equal(ours.L.data, ref.L.data)
            np.testing.assert_array_equal(ours.U.data, ref.U.data)
            x = ours.solve(b_rhs)
            assert residual_norm(mat, x, b_rhs) < 1e-8

    def test_structure_unchanged_reuses_donor_schedule(self):
        """A value-only 'drift' (empty structural delta) must reuse the
        donor's graph and schedule objects and skip levelize charges."""
        cfg = SolverConfig()
        a = circuit_like(100, 5.0, seed=6)
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        donor = analyze(a, cfg, gpu=gpu)
        got = incremental_analyze(donor, a.copy(), cfg)
        assert got is not None
        spliced, report = got
        assert not report.structure_changed
        assert spliced.schedule is donor.schedule
        assert spliced.graph is donor.graph
        assert gpu.ledger.seconds("levelize-delta") == 0.0

    def test_best_donor_prefers_smallest_delta(self):
        cfg = SolverConfig()
        a = circuit_like(100, 5.0, seed=1)
        near = perturb_pattern(a, add=2, seed=2)
        far = perturb_pattern(a, add=12, seed=3)
        target = perturb_pattern(near, add=1, seed=4)
        donors = [analyze(far, cfg), analyze(near, cfg)]
        pre = preprocess(target)
        pick = best_donor(donors, pre.matrix)
        assert pick is not None
        donor, delta = pick
        assert donor is donors[1]
        assert delta.size <= 5

    def test_best_donor_none_when_all_over_budget(self, monkeypatch):
        cfg = SolverConfig()
        a = circuit_like(100, 5.0, seed=1)
        b = perturb_pattern(a, add=30, bandwidth=16, seed=2)
        donors = [analyze(a, cfg)]
        pre = preprocess(b)
        monkeypatch.setattr(incremental, "MAX_DELTA_FRACTION", 0.001)
        assert best_donor(donors, pre.matrix) is None


# ---------------------------------------------------------------------------
ALL_SPECS = (*TABLE2, *TABLE4, FIG3_SPECS[1])


@pytest.mark.parametrize(
    "spec", ALL_SPECS, ids=[s.abbr for s in ALL_SPECS]
)
def test_registry_differential_incremental_vs_cold(spec, monkeypatch):
    """Across every registry workload, a <=1% structural delta spliced
    into the donor analysis is bitwise identical to a cold analyze of
    the perturbed matrix (filled pattern, graph, schedule) and charges
    strictly less simulated analysis time."""
    small = dataclasses.replace(spec, n_scaled=120)
    a = small.generate()
    cfg = SolverConfig()
    gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
    donor = analyze(a, cfg, gpu=gpu)
    nnz = donor.pre.matrix.nnz
    add = max(1, min(nnz // 200, 6))  # <= 0.5% additions, 1% total edits
    b = perturb_pattern(a, add=add, remove=0, bandwidth=8, seed=spec.seed)
    monkeypatch.setattr(incremental, "MAX_DELTA_FRACTION", 0.01)
    got = incremental_analyze(donor, b, cfg)
    assert got is not None, f"{spec.abbr}: delta unexpectedly over budget"
    spliced, report = got
    assert 0 < report.delta_size <= max(1, nnz // 100)
    oracle = analyze(b, cfg)
    assert_same_analysis(spliced, oracle)
    assert spliced.analysis_seconds < oracle.analysis_seconds
