"""Scalar-oracle vs vectorized host-path equivalence, registry-wide.

The vectorization contract is *identical by construction*: the bulk
NumPy paths (fill2 wave expansion, Kahn wave levelization, the batched
right-looking numeric kernel and its cached structure plan) may only
change wall-clock, never a result.  For every workload in the registry
this harness asserts bitwise-identical factors, identical level
schedules, identical traversal counters and identical simulated-time
charges between the readable per-element loops in :mod:`repro.oracles`
and the production paths — including the error and pivot-perturbation
branches.  The wall-clock budget checker that CI layers on top is unit
tested at the bottom.
"""

import ast
import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import use_oracles

import repro
from repro import oracles
from repro.core import EndToEndLU
from repro.core.refactorize import analyze
from repro.errors import SingularMatrixError, SparseFormatError
from repro.graph.depgraph import build_dependency_graph
from repro.graph.levelize import kahn_levels
from repro.numeric import factorize_in_place, vectorized
from repro.perf.wallclock import (
    evaluate,
    load_budget_seconds,
    run_under_budget,
)
from repro.sparse import CSRMatrix
from repro.symbolic.fill2 import fill2_rows
from repro.symbolic.reference import symbolic_fill_reference
from repro.workloads import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

#: shrunk instance size — structure class and density are what matter,
#: and both paths run every branch (bulk and small-wave) at this size
_N = 96


def _registry_specs():
    seen = {}
    for spec in (*TABLE2, *TABLE4, *FIG3_SPECS):
        seen.setdefault(spec.abbr, spec)
    return list(seen.values())


#: registry specs whose ``_N`` instance has no multi-column level that
#: carries an update; the kernel check runs them at ``_WIDE_N``, where
#: each has one, so every spec exercises the multi-column stages
_NARROW_AT_N = frozenset(
    "RM PR IN CR2 BMC CR1 BM7 S34 S33 BB MI GO WI AK".split()
)
_WIDE_N = 384


def _generate(spec, n=_N):
    return dataclasses.replace(spec, n_scaled=n).generate()


def _stats_tuple(s):
    return (
        s.div_flops, s.update_flops, s.search_steps, s.columns,
        s.sub_column_updates, tuple(s.per_level),
        tuple(s.perturbed_columns),
    )


def _fill2_tuple(r):
    return (
        r.src, r.l_cols.tolist(), r.u_cols.tolist(), r.edges_scanned,
        r.frontier_visits, r.max_frontier,
    )


def _schedules_equal(a, b) -> bool:
    return np.array_equal(a.level_of, b.level_of) and all(
        np.array_equal(x, y) for x, y in zip(a.levels, b.levels)
    )


#: ``_MIN_OUTER_UPDATES`` under which every multi-column level of a plan
#: is column-outer (0) or gathered (more than any level's updates)
_KINDS = {"column-outer": 0, "gathered": 1 << 40}


@pytest.fixture(params=list(_KINDS))
def level_kind(request, monkeypatch):
    """Plans built in the test make every multi-column level one kind."""
    monkeypatch.setattr(
        vectorized, "_MIN_OUTER_UPDATES", _KINDS[request.param]
    )
    return request.param


def _assert_kind(sched, kind):
    """Every cached plan of ``sched`` built its multi-column levels as
    ``kind``; returns those levels' table rows that carry updates."""
    plans = list(sched.plans.numeric.values())
    assert plans
    batches = [b for plan in plans for b in plan.batches]
    multi = [
        lv
        for b in batches
        for lv in b.levels
        if lv[1] - lv[0] > 1 and lv[7] > lv[6]
    ]
    if kind == "column-outer":
        # no level stores an L index: one-column levels never do
        assert all(lv[10] == -1 for lv in multi)
        assert all(len(b.l_flat) == 0 for b in batches)
    else:
        assert all(lv[10] >= 0 for lv in multi)
    return multi


# ---------------------------------------------------------------------------
# registry-wide kernel equivalence


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_fill2_structure_and_counters_identical(spec):
    a = _generate(spec)
    slow = oracles.fill2_rows(a)
    fast = fill2_rows(a)
    assert [_fill2_tuple(r) for r in slow] == [
        _fill2_tuple(r) for r in fast
    ]
    assert _fill2_tuple(oracles.fill2_row(a, 7)) == _fill2_tuple(fast[7])


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_filled_pattern_identical(spec):
    a = _generate(spec)
    slow = oracles.symbolic_fill_reference(a)
    fast = symbolic_fill_reference(a)
    assert np.array_equal(slow.indptr, fast.indptr)
    assert np.array_equal(slow.indices, fast.indices)
    assert np.array_equal(slow.data, fast.data)


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_levelization_identical(spec):
    graph = build_dependency_graph(symbolic_fill_reference(_generate(spec)))
    fast = kahn_levels(graph)
    assert _schedules_equal(oracles.kahn_levels(graph), fast)
    assert _schedules_equal(oracles.levelize_cpu(graph), fast)


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_numeric_factors_bitwise_and_stats_identical(spec, monkeypatch):
    # each option set against one oracle run: both level kinds, in one
    # map window and in many; a perturbed pass sends every level,
    # one-column ones included, through the pivot stage and then each
    # kind's update stage
    filled = symbolic_fill_reference(_generate(spec))
    for kwargs in (
        {},
        {"count_search_steps": True},
        {"pivot_tolerance": 1e-30, "count_search_steps": True},
        {"pivot_perturbation": 1e-3},
    ):
        ref = filled.to_csc()
        s_ref = oracles.factorize_in_place(
            ref, filled, kahn_levels(build_dependency_graph(filled)),
            **kwargs,
        )
        for kind, map_cap in itertools.product(_KINDS, (None, 4 * _N)):
            with monkeypatch.context() as m:
                m.setattr(vectorized, "_MIN_OUTER_UPDATES", _KINDS[kind])
                if map_cap is not None:
                    m.setattr(vectorized, "_MAX_MAP_ENTRIES", map_cap)
                sched = kahn_levels(build_dependency_graph(filled))
                fast = filled.to_csc()
                s_fast = factorize_in_place(fast, filled, sched, **kwargs)
            label = (kind, map_cap)
            assert np.array_equal(ref.data, fast.data), label  # bitwise
            assert _stats_tuple(s_ref) == _stats_tuple(s_fast), label
            multi = _assert_kind(sched, kind)
            assert multi or spec.abbr in _NARROW_AT_N, label


@pytest.mark.parametrize(
    "spec",
    [s for s in _registry_specs() if s.abbr in _NARROW_AT_N],
    ids=lambda s: s.abbr,
)
def test_multi_column_stages_identical_at_wide_n(spec, monkeypatch):
    # the specs whose _N instance has no multi-column level with updates,
    # at a size where each has one: one oracle run against both kinds
    filled = symbolic_fill_reference(_generate(spec, _WIDE_N))
    ref = filled.to_csc()
    s_ref = oracles.factorize_in_place(
        ref,
        filled,
        kahn_levels(build_dependency_graph(filled)),
        count_search_steps=True,
    )
    for kind in _KINDS:
        with monkeypatch.context() as m:
            m.setattr(vectorized, "_MIN_OUTER_UPDATES", _KINDS[kind])
            sched = kahn_levels(build_dependency_graph(filled))
            fast = filled.to_csc()
            s_fast = factorize_in_place(
                fast, filled, sched, count_search_steps=True
            )
        assert np.array_equal(ref.data, fast.data), kind  # bitwise
        assert _stats_tuple(s_ref) == _stats_tuple(s_fast), kind
        assert _assert_kind(sched, kind), kind  # coverage pinned


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_windowed_position_map_bitwise_and_bounded(spec, monkeypatch):
    # benchmark sizes fit one map window; a small cap makes every
    # registry pattern span several, each resolved by its own gather
    cap = 4 * _N
    monkeypatch.setattr(vectorized, "_MAX_MAP_ENTRIES", cap)
    maps = []

    class _Recorded(vectorized._PositionMap):
        def __init__(self, *args):
            super().__init__(*args)
            maps.append((len(self.slots), self.n_windows))

    monkeypatch.setattr(vectorized, "_PositionMap", _Recorded)
    filled = symbolic_fill_reference(_generate(spec))
    sched = kahn_levels(build_dependency_graph(filled))
    ref, fast = filled.to_csc(), filled.to_csc()
    s_ref = oracles.factorize_in_place(
        ref, filled, sched, count_search_steps=True
    )
    s_fast = factorize_in_place(fast, filled, sched, count_search_steps=True)
    assert np.array_equal(ref.data, fast.data)  # bitwise
    assert _stats_tuple(s_ref) == _stats_tuple(s_fast)
    assert maps and all(
        slots <= cap and windows > 1 for slots, windows in maps
    )


def _plan_streams(plan):
    """Every array of a plan (dtype and bytes), its level tables, its
    ``per_level`` tuples and its scalars, batch by batch."""
    out = [plan.diag_pos.dtype.str, plan.diag_pos.tobytes()]
    out.append(plan.max_level_updates)
    for b in plan.batches:
        for name in vectorized._BatchPlan.__slots__:
            value = getattr(b, name)
            if isinstance(value, np.ndarray):
                out.append((name, value.dtype.str, value.tobytes()))
            else:
                out.append((name, value))
    return out


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_plan_streams_independent_of_map_window(spec, level_kind, monkeypatch):
    # the same plan, byte for byte, from one map window and from many
    filled = symbolic_fill_reference(_generate(spec))
    As = filled.to_csc()
    sched = kahn_levels(build_dependency_graph(filled))
    streams = []
    for cap in (vectorized._MAX_MAP_ENTRIES, 4 * _N):
        monkeypatch.setattr(vectorized, "_MAX_MAP_ENTRIES", cap)
        plan = vectorized._build_plan(As, filled, sched, True)
        streams.append(_plan_streams(plan))
    assert streams[0] == streams[1]


def test_plan_build_holds_no_batch_wide_key_stream():
    # RM's updates sit almost all in column-outer levels, whose target
    # keys are formed one column at a time in a reused scratch buffer
    spec = next(s for s in _registry_specs() if s.abbr == "RM")
    filled = symbolic_fill_reference(_generate(spec, _WIDE_N))
    As = filled.to_csc()
    sched = kahn_levels(build_dependency_graph(filled))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = vectorized._build_plan(As, filled, sched, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = As.n_cols
    map_bytes = 8 * max(1, min(n, vectorized._MAX_MAP_ENTRIES // n)) * n
    # updates of the one-column and gathered levels, per batch
    rest = max(
        sum(
            lv[7] - lv[6]
            for lv in b.levels
            if lv[10] >= 0 or lv[1] - lv[0] == 1
        )
        for b in plan.batches
    )
    pairs = max(len(b.pos_ujk) for b in plan.batches)
    updates = max(len(b.pos_tgt) for b in plan.batches)
    column = max(
        int(np.diff(b.exp_off[b.pair_off]).max()) for b in plan.batches
    )
    # beyond the plan: the map, one column's keys, a few int64 streams
    # over one batch's one-column and gathered levels' updates and over
    # its pairs, and the entry-sized set-up arrays
    limit = map_bytes + 8 * (column + 6 * rest + 12 * pairs + 3 * As.nnz)
    # ... which is well below the map plus a batch-wide int64 key stream
    assert limit < map_bytes + 8 * updates // 2
    assert peak - base - plan.nbytes < limit


# ---------------------------------------------------------------------------
# error and recovery branches


def _both_paths(dense, dtype=np.float64, **kwargs):
    a = CSRMatrix.from_dense(np.asarray(dense, dtype=dtype))
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    out = []
    for fn in (oracles.factorize_in_place, factorize_in_place):
        As = filled.to_csc()
        if As.data.dtype != dtype:
            As = As.astype(dtype)
        try:
            stats = fn(As, filled, sched, **kwargs)
            out.append(("ok", _stats_tuple(stats), As.data.copy()))
        except SingularMatrixError as err:
            out.append(("err", (err.column, err.value), As.data.copy()))
    return out


def _assert_paths_agree(dense, dtype=np.float64, **kwargs):
    ref, fast = _both_paths(dense, dtype, **kwargs)
    assert ref[0] == fast[0]
    assert ref[1] == fast[1]
    assert np.array_equal(ref[2], fast[2])


def test_zero_pivot_raises_identically():
    d = np.eye(4)
    d[1, 1] = 0.0
    d[1, 2] = d[2, 1] = 1.0
    _assert_paths_agree(d)


def test_tolerance_raise_and_perturbation_recovery_identical():
    d = np.eye(3)
    d[1, 1] = 1e-12
    _assert_paths_agree(d, pivot_tolerance=1e-8)
    _assert_paths_agree(d, pivot_tolerance=1e-8, pivot_perturbation=1e-3)


def test_negative_pivot_perturbation_sign_preserved():
    d = np.eye(3)
    d[1, 1] = -1e-12
    d[0, 1] = 0.3
    d[1, 0] = 0.4
    _assert_paths_agree(d, pivot_tolerance=1e-8, pivot_perturbation=1e-3)


def test_missing_diagonal_raises_identically():
    d = np.zeros((3, 3))
    d[0, 0] = d[2, 2] = 1.0
    d[0, 1] = d[1, 0] = d[1, 2] = d[2, 0] = 1.0
    _assert_paths_agree(d)
    # perturbation only repairs numeric zeros, never structural ones
    _assert_paths_agree(d, pivot_perturbation=1e-3)


def test_mid_level_failure_partial_state_identical():
    rng = np.random.default_rng(7)
    m = (rng.random((40, 40)) < 0.2) * rng.standard_normal((40, 40))
    np.fill_diagonal(m, rng.standard_normal(40) + 5)
    m[17, 17] = 0.0
    _assert_paths_agree(m)
    _assert_paths_agree(m, pivot_perturbation=1e-4)
    _assert_paths_agree(
        m.astype(np.float32), dtype=np.float32, count_search_steps=True
    )


def _arrow_fill_without(row, col, blocks=1):
    """Full filled pattern of ``blocks`` independent 5x5 arrow matrices
    (so every level holds ``blocks`` columns), minus entry (row, col)."""
    n = 5 * blocks
    d = 4.0 * np.eye(n)
    for k in range(0, n, 5):
        d[k, k : k + 5] = d[k : k + 5, k] = 1.0
        d[k, k] = 4.0
    filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
    rows = filled.row_ids_of_entries()
    keep = (rows != row) | (filled.indices != col)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows[keep], minlength=n))]
    )
    broken = CSRMatrix(
        n, n, indptr, filled.indices[keep], filled.data[keep]
    )
    return filled, broken


@pytest.mark.parametrize(
    "factorize, map_cap",
    [
        (oracles.factorize_in_place, None),
        (factorize_in_place, None),
        (factorize_in_place, 5),
    ],
    ids=["oracle", "fast", "fast-one-column-windows"],
)
def test_missing_fill_entry_raises_sparse_format_error(
    factorize, map_cap, monkeypatch
):
    # column 0 updates every row of column 3, including the dropped fill;
    # with one-column windows, row 4's slot last held (4, 2), so a map
    # that kept stale slots would hide the gap
    if map_cap is not None:
        monkeypatch.setattr(vectorized, "_MAX_MAP_ENTRIES", map_cap)
    _, broken = _arrow_fill_without(4, 3)
    sched = kahn_levels(build_dependency_graph(broken))
    with pytest.raises(SparseFormatError, match="fill positions missing"):
        factorize(broken.to_csc(), broken, sched)


@pytest.mark.parametrize(
    "factorize",
    [oracles.factorize_in_place, factorize_in_place],
    ids=["oracle", "fast"],
)
def test_missing_u_entry_raises_sparse_format_error(factorize):
    # the row adjacency still lists multiplier (0, 3), which the CSC
    # lacks; (0, 3) is no update's target, so only this check can fire
    filled, broken = _arrow_fill_without(0, 3)
    sched = kahn_levels(build_dependency_graph(filled))
    with pytest.raises(SparseFormatError, match="missing (a )?U entry"):
        factorize(broken.to_csc(), filled, sched)


@pytest.mark.parametrize(
    "factorize, map_cap",
    [
        (oracles.factorize_in_place, None),
        (factorize_in_place, None),
        (factorize_in_place, 10),
    ],
    ids=["oracle", "fast", "fast-one-column-windows"],
)
def test_level_kinds_sparse_format_errors(
    factorize, map_cap, level_kind, monkeypatch
):
    # two arrow blocks: every level holds two columns
    if map_cap is not None:
        monkeypatch.setattr(vectorized, "_MAX_MAP_ENTRIES", map_cap)
    # column 5 updates every row of column 8, including the dropped fill
    _, broken = _arrow_fill_without(9, 8, blocks=2)
    sched = kahn_levels(build_dependency_graph(broken))
    assert len(sched.levels[0]) == 2
    As = broken.to_csc()
    with pytest.raises(SparseFormatError, match="fill positions missing"):
        factorize(As, broken, sched)
    # the fast path checks the whole pattern before it touches a value
    # (the oracle raises mid-pass)
    fast = factorize is not oracles.factorize_in_place
    assert not fast or np.array_equal(As.data, broken.to_csc().data)
    # multiplier (5, 8) is listed by the row adjacency only
    filled, broken = _arrow_fill_without(5, 8, blocks=2)
    sched = kahn_levels(build_dependency_graph(filled))
    As = broken.to_csc()
    with pytest.raises(SparseFormatError, match="missing (a )?U entry"):
        factorize(As, filled, sched)
    assert not fast or np.array_equal(As.data, broken.to_csc().data)


# ---------------------------------------------------------------------------
# the level table: one-column steps beside multi-column levels


def _mixed_levels():
    """A circuit pattern whose schedule mixes one-column levels (most of
    them) with multi-column ones."""
    filled = symbolic_fill_reference(circuit_like(60, 5.0, seed=2))
    sched = kahn_levels(build_dependency_graph(filled))
    widths = [len(lv) for lv in sched.levels]
    assert widths.count(1) > len(widths) // 2 and max(widths) > 2
    return filled, sched


def _column_in(sched, *, multi: bool, skip: int = 3) -> int:
    """A column of a one-column (or multi-column) level at least
    ``skip`` levels in, so fast levels run before it; in a
    multi-column level, its last column, so same-level columns
    complete before it."""
    for index, lv in enumerate(sched.levels):
        if index >= skip and (len(lv) > 1) == multi:
            return int(lv[-1])
    raise AssertionError("pattern lacks the requested level shape")


def _with_pivot(filled, cols, pivot):
    """Filled CSC whose row ``j`` is zero left of the diagonal for each
    ``j`` in ``cols``, so no update reaches ``(j, j)`` and the pivot of
    ``j`` is exactly ``pivot`` when its level runs."""
    As = filled.to_csc()
    col_ids = As.col_ids_of_entries()
    for j in cols:
        row_j = As.indices == j
        As.data[row_j & (col_ids < j)] = 0.0
        As.data[row_j & (col_ids == j)] = pivot
    return As


def _kernel_outcomes(As, filled, sched, dtype=np.float64, **kwargs):
    """Oracle and fast outcome on copies of ``As``: stats or the error,
    plus the values left behind."""
    out = []
    for fn in (oracles.factorize_in_place, factorize_in_place):
        work = As.astype(dtype)
        try:
            stats = fn(work, filled, sched, **kwargs)
            out.append(("ok", _stats_tuple(stats), work.data.copy()))
        except SingularMatrixError as err:
            out.append(("err", (err.column, err.value), work.data.copy()))
    return out


def _assert_kernels_agree(As, filled, sched, dtype=np.float64, **kwargs):
    ref, fast = _kernel_outcomes(As, filled, sched, dtype, **kwargs)
    assert ref[:2] == fast[:2]
    assert ref[2].dtype == fast[2].dtype == dtype
    assert np.array_equal(ref[2], fast[2])  # bitwise, partial state too
    return ref


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"count_search_steps": True}, {"pivot_tolerance": 1e-30}],
    ids=["plain", "search", "tolerance"],
)
def test_mixed_levels_bitwise_and_stats_identical(dtype, kwargs):
    filled, sched = _mixed_levels()
    ref = _assert_kernels_agree(filled.to_csc(), filled, sched, dtype,
                                **kwargs)
    assert ref[0] == "ok"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("multi", [False, True], ids=["one", "multi"])
@pytest.mark.parametrize(
    "pivot, kwargs",
    [(0.0, {}), (1e-12, {"pivot_tolerance": 1e-8})],
    ids=["zero", "tolerance"],
)
def test_failing_pivot_after_fast_levels_identical(
    dtype, multi, pivot, kwargs
):
    filled, sched = _mixed_levels()
    col = _column_in(sched, multi=multi)
    As = _with_pivot(filled, [col], pivot)
    ref = _assert_kernels_agree(As, filled, sched, dtype, **kwargs)
    assert ref[0] == "err" and ref[1][0] == col


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_level_kinds_mixed_levels_identical(dtype, level_kind):
    filled, sched = _mixed_levels()
    ref = _assert_kernels_agree(
        filled.to_csc(), filled, sched, dtype, count_search_steps=True
    )
    assert ref[0] == "ok"
    assert _assert_kind(sched, level_kind)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "pivot, kwargs",
    [(0.0, {}), (1e-12, {"pivot_tolerance": 1e-8})],
    ids=["zero", "tolerance"],
)
def test_level_kinds_mid_level_failure_identical(
    dtype, pivot, kwargs, level_kind
):
    # the last column of a multi-column level fails: the columns before
    # it complete their scale and update stages, and that partial level
    # must leave the oracle's values behind under either kind
    filled, sched = _mixed_levels()
    col = _column_in(sched, multi=True)
    As = _with_pivot(filled, [col], pivot)
    ref = _assert_kernels_agree(As, filled, sched, dtype, **kwargs)
    assert ref[0] == "err" and ref[1][0] == col
    assert _assert_kind(sched, level_kind)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_level_kinds_perturbation_identical(dtype, level_kind):
    filled, sched = _mixed_levels()
    col = _column_in(sched, multi=True)
    cols = [int(c) for c in next(lv for lv in sched.levels if col in lv)]
    As = _with_pivot(filled, cols, 0.0)
    ref = _assert_kernels_agree(
        As, filled, sched, dtype, pivot_tolerance=1e-8,
        pivot_perturbation=1e-3,
    )
    assert ref[0] == "ok"
    assert set(cols) <= set(ref[1][-1])
    assert _assert_kind(sched, level_kind)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_column_perturbation_identical(dtype):
    filled, sched = _mixed_levels()
    ones = [int(lv[0]) for lv in sched.levels if len(lv) == 1]
    As = _with_pivot(filled, ones[3:6], 0.0)
    col_ids = As.col_ids_of_entries()
    # one tiny negative pivot: the perturbation keeps its sign
    As.data[(As.indices == ones[5]) & (col_ids == ones[5])] = -1e-12
    ref = _assert_kernels_agree(
        As, filled, sched, dtype, pivot_tolerance=1e-8,
        pivot_perturbation=1e-3,
    )
    assert ref[0] == "ok"
    assert ref[1][-1] == tuple(ones[3:6])


@pytest.mark.parametrize("multi", [False, True], ids=["one", "multi"])
@pytest.mark.parametrize("perturb", [0.0, 1e-3])
def test_structurally_missing_diagonal_mixed_levels(multi, perturb):
    filled, sched = _mixed_levels()
    rows = filled.row_ids_of_entries()
    has_l = set(rows[filled.indices < rows].tolist())
    # a column no earlier column updates at (j, j), so dropping the
    # diagonal leaves every other update target in the pattern
    col = next(
        int(lv[-1])
        for index, lv in enumerate(sched.levels)
        if index >= 3
        and (len(lv) > 1) == multi
        and int(lv[-1]) not in has_l
    )
    keep = (rows != col) | (filled.indices != col)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows[keep], minlength=filled.n_rows))]
    )
    broken = CSRMatrix(
        filled.n_rows, filled.n_cols, indptr, filled.indices[keep],
        filled.data[keep],
    )
    ref = _assert_kernels_agree(
        broken.to_csc(), broken, sched, pivot_perturbation=perturb
    )
    assert ref[0] == "err" and ref[1] == (col, 0.0)


def test_column_outer_plan_holds_no_l_index(monkeypatch):
    """A plan whose multi-column levels are all column-outer stores one
    int64 per update (its target) plus per-pair, per-column, per-``L``
    entry and per-batch streams; gathered levels add their ``L`` index.
    """
    filled, _ = _mixed_levels()
    nbytes = {}
    for kind in _KINDS:
        monkeypatch.setattr(vectorized, "_MIN_OUTER_UPDATES", _KINDS[kind])
        sched = kahn_levels(build_dependency_graph(filled))
        stats = factorize_in_place(filled.to_csc(), filled, sched)
        plan = sched.plans.numeric[False]
        nbytes[kind] = plan.nbytes
        multi_updates = sum(lv[7] - lv[6] for lv in _assert_kind(sched, kind))
    bound = (
        8 * stats.update_flops // 2  # per update: its target
        + 16 * stats.div_flops  # per L entry: position and divisor
        + 32 * stats.sub_column_updates  # per pair: offsets, U, rows
        + 24 * stats.columns  # per column: id, scale offset, diagonal
        + 8 * filled.n_rows  # diagonal positions
        + 24 * len(plan.batches)  # closing offsets
    )
    assert nbytes["column-outer"] <= bound
    assert multi_updates > 0
    assert nbytes["gathered"] - nbytes["column-outer"] == 8 * multi_updates


# ---------------------------------------------------------------------------
# whole-pipeline equivalence and the plan cache


@pytest.mark.parametrize("abbr", ["OT2", "HT20"])
def test_pipeline_slow_host_loops_invariant(abbr, monkeypatch):
    from repro.workloads.registry import by_abbr

    a = dataclasses.replace(by_abbr(abbr), n_scaled=_N).generate()
    fast = EndToEndLU().factorize(a)
    with monkeypatch.context() as m:
        use_oracles(m)
        slow = EndToEndLU().factorize(a)
    assert np.array_equal(fast.numeric.As.data, slow.numeric.As.data)
    assert fast.perf_record() == slow.perf_record()
    assert (
        fast.gpu.ledger.total_seconds == slow.gpu.ledger.total_seconds
    )


def _imported_modules(path: Path, package: str):
    """Absolute names of every module ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join([*parts, base] if base else parts)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_production_module_imports_the_oracles():
    root = Path(repro.__file__).parent
    offenders = []
    for path in root.rglob("*.py"):
        if path == root / "oracles.py":
            continue
        package = ".".join(path.relative_to(root.parent).parent.parts)
        if "repro.oracles" in set(_imported_modules(path, package)):
            offenders.append(str(path.relative_to(root)))
    assert not offenders


def test_refactorize_reuses_numeric_plan():
    from repro.workloads.registry import by_abbr

    spec = dataclasses.replace(by_abbr("OT2"), n_scaled=_N)
    a = spec.generate()
    analysis = analyze(a)
    first = analysis.refactorize(a)
    plans = analysis.schedule.plans.numeric
    assert plans, "fast path should cache its structure plan"
    cached = dict(plans)
    # same values again: identical factors out of the cached plan
    second = analysis.refactorize(a)
    assert np.array_equal(first.U.data, second.U.data)
    assert np.array_equal(first.L.data, second.L.data)
    for key, plan in cached.items():
        assert plans[key] is plan, "plan must be reused, not rebuilt"


# ---------------------------------------------------------------------------
# wall-clock budget checker


def _write_budget(path, label="tier1", seconds=5.0):
    path.write_text(
        json.dumps({"budgets": {label: {"budget_seconds": seconds}}}),
        encoding="utf-8",
    )


def test_wallclock_load_and_evaluate(tmp_path):
    budget_file = tmp_path / "budget.json"
    _write_budget(budget_file, seconds=5.0)
    budgets = load_budget_seconds(budget_file)
    assert budgets == {"tier1": 5.0}
    ok = evaluate("tier1", ["true"], 0, 1.0, budgets)
    assert ok.ok and ok.budget_seconds == 5.0
    over = evaluate("tier1", ["true"], 0, 9.0, budgets)
    assert not over.ok
    failed = evaluate("tier1", ["false"], 3, 1.0, budgets)
    assert not failed.ok and failed.returncode == 3
    unknown = evaluate("other", ["true"], 0, 1.0, budgets)
    assert not unknown.ok and unknown.budget_seconds is None


def test_wallclock_rejects_nonpositive_budget(tmp_path):
    budget_file = tmp_path / "budget.json"
    _write_budget(budget_file, seconds=0.0)
    with pytest.raises(ValueError):
        load_budget_seconds(budget_file)


def test_wallclock_run_under_budget_roundtrip(tmp_path):
    budget_file = tmp_path / "budget.json"
    _write_budget(budget_file, seconds=60.0)
    report_file = tmp_path / "report.json"
    code, report = run_under_budget(
        "tier1",
        ["python", "-c", "pass"],
        budget_path=budget_file,
        out_path=report_file,
    )
    assert code == 0 and report.ok
    on_disk = json.loads(report_file.read_text(encoding="utf-8"))
    assert on_disk["label"] == "tier1"
    assert on_disk["ok"] is True
    assert on_disk["budget_seconds"] == 60.0

    # over budget: command succeeds but the stopwatch gates it
    _write_budget(budget_file, seconds=1e-9)
    code, report = run_under_budget(
        "tier1", ["python", "-c", "pass"], budget_path=budget_file
    )
    assert code == 1 and not report.ok

    # no committed budget for the label: distinct exit code
    code, report = run_under_budget(
        "missing", ["python", "-c", "pass"], budget_path=budget_file
    )
    assert code == 2 and report.budget_seconds is None

    # failing command: its own exit code wins over the budget verdict
    _write_budget(budget_file, seconds=60.0)
    code, report = run_under_budget(
        "tier1",
        ["python", "-c", "import sys; sys.exit(4)"],
        budget_path=budget_file,
    )
    assert code == 4 and not report.ok
