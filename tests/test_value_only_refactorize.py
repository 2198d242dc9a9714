"""Value-only refactorization: what a pass reuses, and that it is exact.

A refactorize pass places the new values through a scatter map straight
into the filled pattern's cached sorted CSC, runs the kernel on the
cached numeric plan, charges from cached launch inputs and splits L/U
without sorting.  These tests pin each of those steps to an independent
reference: the coordinate-list split of :mod:`repro.oracles`, the
filled CSR scattered by flat key and sorted to CSC (how a pass used to
build its input), and fresh, uncached charges.
"""

import dataclasses

import numpy as np
import pytest
from helpers import use_oracles

from repro import oracles
from repro.core import SolverConfig, analyze
from repro.core import numeric_gpu
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.core.refactorize import filled_csc_layout, filled_lu_split
from repro.errors import (
    FlopConservationError,
    ReproError,
    SingularMatrixError,
)
from repro.gpusim import GPU, scaled_device, scaled_host
from repro.graph import build_dependency_graph, kahn_levels
from repro.numeric import extract_lu, factorize_in_place
from repro.serve.loadgen import restamp
from repro.sparse import CSCMatrix, CSRMatrix, split_lu_pattern
from repro.sparse import convert
from repro.sparse.types import INDEX_DTYPE
from repro.symbolic.incremental import _flat_keys
from repro.symbolic.reference import symbolic_fill_reference
from repro.workloads import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

#: a floating-point warning anywhere in a pass fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: shrunk registry instance size, as in the vectorization equivalence suite
_N = 96


def _registry_specs():
    seen = {}
    for spec in (*TABLE2, *TABLE4, *FIG3_SPECS):
        seen.setdefault(spec.abbr, spec)
    return list(seen.values())


def _assert_csc_bitwise(a: CSCMatrix, b: CSCMatrix) -> None:
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    assert a.data.dtype == b.data.dtype
    assert a.data.tobytes() == b.data.tobytes()  # bitwise, -0.0 included


def _assert_split_matches_oracle(As: CSCMatrix) -> None:
    L, U = extract_lu(As)
    L_ref, U_ref = oracles.extract_lu(As)
    _assert_csc_bitwise(L, L_ref)
    _assert_csc_bitwise(U, U_ref)


def _factorized(spec, dtype=np.float64) -> CSCMatrix:
    filled = symbolic_fill_reference(
        dataclasses.replace(spec, n_scaled=_N).generate()
    )
    sched = kahn_levels(build_dependency_graph(filled))
    As = filled.to_csc().astype(dtype)
    factorize_in_place(As, filled, sched)
    return As


def _cfg(**kw) -> SolverConfig:
    mem = 8 << 20
    return SolverConfig(
        device=scaled_device(mem), host=scaled_host(8 * mem), **kw
    )


@pytest.fixture
def pattern() -> CSRMatrix:
    return circuit_like(180, 7.0, seed=61)


# ---------------------------------------------------------------------------
# sort-free L/U split


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_split_matches_oracle_registry_wide(spec):
    _assert_split_matches_oracle(_factorized(spec))


@pytest.mark.parametrize("abbr", ["R15", "GO", "HT20"])
def test_split_matches_oracle_float32(abbr):
    spec = next(s for s in _registry_specs() if s.abbr == abbr)
    As = _factorized(spec, np.float32)
    assert As.data.dtype == np.float32
    _assert_split_matches_oracle(As)


def _csc(n, cols_of_rows, values=None) -> CSCMatrix:
    """CSC from ``{col: [rows]}`` (rows sorted) with optional values."""
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    rows = []
    for j in range(n):
        rows.extend(cols_of_rows.get(j, []))
        indptr[j + 1] = len(rows)
    if values is None:
        values = np.arange(1.0, len(rows) + 1.0)
    return CSCMatrix(n, n, indptr, np.asarray(rows, dtype=INDEX_DTYPE), values)


@pytest.mark.parametrize(
    "As",
    [
        _csc(4, {0: [0, 2], 2: [1, 2, 3], 3: [3]}),  # empty column 1
        _csc(3, {0: [1, 2], 1: [0, 2], 2: [0, 1]}),  # no diagonal at all
        _csc(1, {0: [0]}),  # n = 1
        _csc(1, {}),  # n = 1, nnz = 0
        _csc(3, {}),  # nnz = 0
        _csc(0, {}),  # n = 0
        # signed zeros: the split stores -0.0 as +0.0, as the oracle does
        _csc(2, {0: [0, 1], 1: [0, 1]}, np.array([-0.0, -0.0, 1.0, -0.0])),
    ],
    ids=[
        "empty-column",
        "missing-diagonal",
        "n1",
        "n1-nnz0",
        "nnz0",
        "n0",
        "signed-zeros",
    ],
)
def test_split_matches_oracle_edge_cases(As):
    _assert_split_matches_oracle(As)
    _assert_split_matches_oracle(As.astype(np.float32))


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_split_lu_pattern_matches_oracle(spec):
    filled = symbolic_fill_reference(
        dataclasses.replace(spec, n_scaled=_N).generate()
    )
    L, U = split_lu_pattern(filled)
    L_ref, U_ref = oracles.extract_lu(filled.to_csc())
    _assert_csc_bitwise(L, L_ref)
    _assert_csc_bitwise(U, U_ref)


# ---------------------------------------------------------------------------
# the pass: cached CSC layout, composed scatter map, cached launch inputs


def _reference_input(an, a: CSRMatrix) -> CSCMatrix:
    """The pass input built the old way: scatter into the filled CSR by
    flat key, then sort to CSC.  ``a`` needs identity transforms."""
    filled = an.filled
    data = np.zeros(filled.nnz)
    data[np.searchsorted(_flat_keys(filled), _flat_keys(a))] = a.data
    return CSRMatrix(
        filled.n_rows,
        filled.n_cols,
        filled.indptr,
        filled.indices,
        data,
        check=False,
    ).to_csc()


def _assert_identity_transforms(an) -> None:
    ident = np.arange(an.pre.matrix.n_rows)
    assert np.array_equal(an.pre.row_perm, ident)
    assert np.array_equal(an.pre.col_perm, ident)


def _reference_pass(an, a, monkeypatch):
    """The same pass through the scalar kernel and the oracle split, on
    an input built without the scatter map or the cached layout."""
    with monkeypatch.context() as m:
        use_oracles(m)
        # the oracle split derives its structure; it takes no kept one
        m.setattr(
            numeric_gpu,
            "extract_lu",
            lambda As, split=None: oracles.extract_lu(As),
        )
        gpu = GPU(
            spec=an.config.device,
            host=an.config.host,
            cost=an.config.cost_model,
        )
        num = numeric_factorize_gpu(
            gpu, _reference_input(an, a), an.filled, an.schedule, an.config
        )
        return num.factors(), num.stats


def test_scatter_map_places_entries_in_csc_order(pattern):
    an = analyze(pattern, _cfg())
    _assert_identity_transforms(an)
    indptr, indices = filled_csc_layout(an.filled, an.schedule)
    a = an.pre.matrix
    cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    assert np.array_equal(indices[an._scatter], a.row_ids_of_entries())
    assert np.array_equal(cols[an._scatter], a.indices)


def test_cached_layout_is_read_only_and_shared(pattern):
    an = analyze(pattern, _cfg())
    indptr, indices = filled_csc_layout(an.filled, an.schedule)
    ref = an.filled.to_csc()
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    for arr in (indptr, indices):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    res = an.refactorize(restamp(pattern, seed=3))
    for shared, cached in (
        (res.numeric.As.indptr, indptr),
        (res.numeric.As.indices, indices),
    ):
        assert np.shares_memory(shared, cached)
        assert not shared.flags.writeable


def _factor_arrays(res):
    return (res.L.indptr, res.L.indices, res.U.indptr, res.U.indices)


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_pass_split_gathers_into_kept_structure(spec):
    pattern = dataclasses.replace(spec, n_scaled=_N).generate()
    an = analyze(pattern, _cfg())
    passes = [an.refactorize(restamp(pattern, seed=s)) for s in (1, 2)]
    for res in passes:
        L_ref, U_ref = oracles.extract_lu(res.numeric.As)
        _assert_csc_bitwise(res.L, L_ref)
        _assert_csc_bitwise(res.U, U_ref)
    # both passes share the structure's read-only arrays; each owns its
    # values
    first, second = passes
    for a, b in zip(_factor_arrays(first), _factor_arrays(second)):
        assert np.shares_memory(a, b)
        assert not a.flags.writeable
    for a, b in ((first.L.data, second.L.data), (first.U.data, second.U.data)):
        assert not np.shares_memory(a, b)
        assert a.flags.writeable and b.flags.writeable
    split = filled_lu_split(an.filled, an.schedule)
    assert np.shares_memory(first.L.indices, split.l_indices)
    assert np.shares_memory(first.U.indices, split.u_indices)
    # the kept bytes: one int64 index per factor entry (the filled
    # entries plus L's unit diagonal), two indptrs and a one-byte mask
    # per filled entry for each factor
    n, nnz = an.filled.n_rows, an.filled.nnz
    assert split.nbytes <= 10 * nnz + 32 * (n + 1)


def test_nbytes_unchanged(pattern):
    # the scatter map keeps one int64 slot per original entry and the
    # cached CSC layout is not counted: the serve and fleet byte budgets
    # see the same figure as before the layout was cached
    an = analyze(pattern, _cfg())
    assert an._scatter.dtype == INDEX_DTYPE
    assert an._scatter.shape == (an.pre.matrix.nnz,)
    assert an.nbytes == 250352
    an.refactorize(restamp(pattern, seed=1))
    assert an.nbytes == 250352


def test_cached_pass_sorts_nothing(pattern, monkeypatch):
    an = analyze(pattern, _cfg())
    _assert_identity_transforms(an)
    an.refactorize(restamp(pattern, seed=1))  # warms the plans
    calls = []
    for name in ("csr_to_csc", "_compress"):
        original = getattr(convert, name)

        def counted(*args, _original=original, _name=name, **kw):
            calls.append(_name)
            return _original(*args, **kw)

        monkeypatch.setattr(convert, name, counted)
    an.refactorize(restamp(pattern, seed=2)).solve(np.ones(pattern.n_rows))
    assert calls == []


@pytest.mark.parametrize("supernodal", [False, True])
@pytest.mark.parametrize("fmt", ["dense", "csc"])
def test_pass_matches_reference(pattern, monkeypatch, fmt, supernodal):
    an = analyze(pattern, _cfg(numeric_format=fmt, supernodal=supernodal))
    _assert_identity_transforms(an)
    for seed in (1, 2):
        a = restamp(pattern, seed=seed)
        res = an.refactorize(a)
        (L_ref, U_ref), stats_ref = _reference_pass(an, a, monkeypatch)
        _assert_csc_bitwise(res.L, L_ref)
        _assert_csc_bitwise(res.U, U_ref)
        assert res.numeric.stats == stats_ref


def _zero_level_pivot(an, a: CSRMatrix) -> tuple[CSRMatrix, int]:
    """``a`` with an exact zero pivot on a column inside level 0 (not its
    first column), so the kernel fails mid-level."""
    level0 = an.schedule.levels[0]
    assert len(level0) > 2
    col = int(level0[len(level0) // 2])
    out = a.copy()
    out.data[out.diagonal_positions()[col]] = 0.0
    return out, col


def test_pass_after_failed_pass_is_exact(pattern, monkeypatch):
    an = analyze(pattern, _cfg())
    good = restamp(pattern, seed=4)
    expected = an.refactorize(good)
    bad, col = _zero_level_pivot(an, restamp(pattern, seed=5))
    with pytest.raises(SingularMatrixError) as info:
        an.refactorize(bad)
    assert info.value.column == col
    again = an.refactorize(good)
    _assert_csc_bitwise(again.L, expected.L)
    _assert_csc_bitwise(again.U, expected.U)
    (L_ref, U_ref), stats_ref = _reference_pass(an, good, monkeypatch)
    _assert_csc_bitwise(again.L, L_ref)
    _assert_csc_bitwise(again.U, U_ref)
    assert again.numeric.stats == stats_ref


def test_perturbed_pivot_pass_matches_reference(pattern, monkeypatch):
    an = analyze(pattern, _cfg(resilience=True))
    bad, col = _zero_level_pivot(an, restamp(pattern, seed=6))
    res = an.refactorize(bad)
    assert col in res.numeric.perturbed_columns
    (L_ref, U_ref), stats_ref = _reference_pass(an, bad, monkeypatch)
    _assert_csc_bitwise(res.L, L_ref)
    _assert_csc_bitwise(res.U, U_ref)
    assert res.numeric.stats == stats_ref


@pytest.mark.parametrize("fmt", ["dense", "csc"])
def test_cached_launch_inputs_charge_identically(pattern, fmt):
    cfg = _cfg(numeric_format=fmt)
    filled = symbolic_fill_reference(pattern)

    def run(sched, override):
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        numeric_factorize_gpu(
            gpu,
            filled.to_csc(),
            filled,
            sched,
            cfg,
            kernel_mode_override=override,
        )
        return gpu.snapshot()

    # one schedule serves every override in turn, reading the launch
    # inputs the earlier runs cached; each must charge what a schedule
    # without cached inputs charges
    shared = kahn_levels(build_dependency_graph(filled))
    for override in (None, "A", "B", "C", None, "C"):
        fresh = kahn_levels(build_dependency_graph(filled))
        assert run(shared, override) == run(fresh, override)
    assert shared.plans.launch is not None


# ---------------------------------------------------------------------------
# supernodal flop conservation is a typed error, not an assert


def test_flop_mismatch_raises_typed_error(pattern, monkeypatch):
    an = analyze(pattern, _cfg(supernodal=True))
    original = numeric_gpu.factorize_with_pivot_recovery

    def lossy(*args, **kw):
        stats = original(*args, **kw)
        stats.update_flops += 2
        return stats

    monkeypatch.setattr(numeric_gpu, "factorize_with_pivot_recovery", lossy)
    with pytest.raises(FlopConservationError) as info:
        an.refactorize(restamp(pattern, seed=1))
    assert isinstance(info.value, ReproError)
    assert info.value.kernel_flops == info.value.plan_flops + 2
