"""Property-based tests (hypothesis) on substrate invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro import oracles
from repro.gpusim import TimeLedger
from repro.graph import build_dependency_graph, kahn_levels
from repro.preprocess import maximum_matching
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference

from helpers import random_dense


@st.composite
def dominant_matrices(draw, max_n=25):
    n = draw(st.integers(3, max_n))
    density = draw(st.floats(0.05, 0.4))
    seed = draw(st.integers(0, 2**31 - 1))
    return CSRMatrix.from_dense(random_dense(n, density, seed=seed))


# ---------------------------------------------------------------------------
@given(dominant_matrices())
@settings(max_examples=40, deadline=None)
def test_fill_monotone_under_pattern_growth(a):
    """Theorem 1 is monotone: adding a nonzero can only add fill paths, so
    the filled pattern of a superset pattern is a superset."""
    filled_small = symbolic_fill_reference(a)
    # add one extra off-diagonal entry deterministically
    n = a.n_rows
    dense = a.to_dense()
    added = False
    for i in range(n):
        for j in range(n):
            if i != j and dense[i, j] == 0:
                dense[i, j] = 0.5
                added = True
                break
        if added:
            break
    assume(added)
    filled_big = symbolic_fill_reference(CSRMatrix.from_dense(dense))
    small = set(zip(filled_small.row_ids_of_entries().tolist(),
                    filled_small.indices.tolist()))
    big = set(zip(filled_big.row_ids_of_entries().tolist(),
                  filled_big.indices.tolist()))
    assert small <= big


@given(dominant_matrices())
@settings(max_examples=40, deadline=None)
def test_fill_idempotent(a):
    """Symbolic factorization of an already-filled pattern adds nothing."""
    filled = symbolic_fill_reference(a)
    refilled = symbolic_fill_reference(filled)
    assert refilled.same_pattern(filled)


# ---------------------------------------------------------------------------
@given(dominant_matrices())
@settings(max_examples=30, deadline=None)
def test_levelizers_always_agree_and_validate(a):
    filled = symbolic_fill_reference(a)
    g = build_dependency_graph(filled)
    k = kahn_levels(g)
    c = oracles.levelize_cpu(g)
    np.testing.assert_array_equal(k.level_of, c.level_of)
    k.validate_against(g)
    # levels partition the columns
    assert sorted(np.concatenate(k.levels).tolist()) == list(range(g.n))


@given(dominant_matrices())
@settings(max_examples=30, deadline=None)
def test_level_count_bounds(a):
    """1 <= #levels <= n, and #levels == n iff the DAG is a total chain."""
    filled = symbolic_fill_reference(a)
    g = build_dependency_graph(filled)
    k = kahn_levels(g)
    assert 1 <= k.num_levels <= g.n


# ---------------------------------------------------------------------------
@given(dominant_matrices())
@settings(max_examples=30, deadline=None)
def test_matching_is_always_valid_on_full_diagonal(a):
    match = maximum_matching(a)
    assert len(np.unique(match)) == a.n_rows
    for j, i in enumerate(match):
        cols, _ = a.row(int(i))
        assert j in cols.tolist()


# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.floats(0, 1e-3)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_ledger_total_is_sum_of_charges(charges):
    lg = TimeLedger()
    total = 0.0
    for phase, secs in charges:
        with lg.phase(phase):
            lg.charge(secs)
        total += secs
    assert lg.total_seconds == np.float64(0.0) + sum(
        s for _, s in charges
    ) or abs(lg.total_seconds - total) < 1e-12
    # per-phase sums equal the per-phase charges
    for ph in "abc":
        expect = sum(s for p, s in charges if p == ph)
        assert abs(lg.seconds(ph) - expect) < 1e-12
