"""Compiled triangular solve vs the column-loop oracles.

The SuperLU sweeps of :mod:`repro.numeric.trisolve` may only change
wall-clock, never a bit: on every registry workload its solutions equal
the scalar substitution loops of :mod:`repro.oracles`, for one
right-hand side and for a block, with the plan kept in the numeric
schedule's store and without one.  Every error branch raises what the
loop raises, for the same column.  The regression tests at the bottom
cover the right-hand-side shapes the solve entry points accept, the
serving pattern sizes, float32 factors, empty and scalar systems, and
the import of the compiled sweep.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import oracles
from repro.core import EndToEndLU, SolverConfig
from repro.core.refactorize import analyze
from repro.errors import (
    NotLowerTriangularError,
    NotUpperTriangularError,
    SingularMatrixError,
)
from repro.numeric import (
    iterative_refinement,
    lu_solve,
    lu_solve_permuted,
    make_lu_solver,
    solve_plan,
    trisolve,
)
from repro.sparse import CSCMatrix
from repro.workloads import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

_N = 96


def _registry_specs():
    seen = {}
    for spec in (*TABLE2, *TABLE4, *FIG3_SPECS):
        seen.setdefault(spec.abbr, spec)
    return list(seen.values())


def _oracle_lu_solve(L, U, b):
    b = np.asarray(b)
    if b.ndim == 2:
        return oracles.backward_substitute_multi(
            U, oracles.forward_substitute_multi(L, b)
        )
    return oracles.backward_substitute(U, oracles.forward_substitute(L, b))


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _assert_bitwise(x, ref):
    assert x.shape == ref.shape
    assert np.array_equal(_bits(x), _bits(ref))


@pytest.fixture(scope="module", params=_registry_specs(),
                ids=lambda s: s.abbr)
def factored(request):
    a = dataclasses.replace(request.param, n_scaled=_N).generate()
    return a, EndToEndLU().factorize(a)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("scheduled", [True, False],
                         ids=["schedule", "per-column"])
def test_registry_solve_bitwise_equals_oracle(factored, ndim, scheduled):
    a, res = factored
    rng = np.random.default_rng(7)
    b = rng.normal(size=(a.n_rows,) if ndim == 1 else (a.n_rows, 3))
    schedule = res.schedule if scheduled else None
    x = solve_plan(res.L, res.U, schedule).solve(res.L, res.U, b)
    _assert_bitwise(x, _oracle_lu_solve(res.L, res.U, b))
    if not scheduled:
        _assert_bitwise(lu_solve(res.L, res.U, b), x)


@pytest.mark.parametrize("ndim", [1, 2])
def test_registry_permuted_solve_bitwise_equals_oracle(factored, ndim):
    a, res = factored
    pre = res.pre
    rng = np.random.default_rng(8)
    b = rng.normal(size=(a.n_rows,) if ndim == 1 else (a.n_rows, 2))
    y = _oracle_lu_solve(res.L, res.U, b[pre.row_perm])
    ref = np.empty_like(y)
    ref[pre.col_perm] = y
    _assert_bitwise(res.solve(b), ref)


def test_refactorize_solves_on_one_cached_plan():
    a = dataclasses.replace(TABLE2[0], n_scaled=_N).generate()
    analysis = analyze(a)
    before = analysis.nbytes
    b = np.random.default_rng(9).normal(size=a.n_rows)
    first = analysis.refactorize(a)
    x1 = first.solve(b)
    plan = analysis.schedule.plans.solve
    assert plan is not None, "the solve must cache its plan"
    x2 = analysis.refactorize(a).solve(b)
    assert analysis.schedule.plans.solve is plan, "plan must be reused"
    _assert_bitwise(x1, x2)
    # solve-plan bytes are not part of the analysis footprint (yet)
    assert analysis.nbytes == before


def test_make_lu_solver_builds_one_plan(monkeypatch):
    a = circuit_like(80, 6.0, seed=4)
    res = EndToEndLU().factorize(a)
    builds = []
    real = trisolve.SolvePlan.build.__func__

    def counting(cls, *args, **kw):
        builds.append(1)
        return real(cls, *args, **kw)

    monkeypatch.setattr(trisolve.SolvePlan, "build", classmethod(counting))
    solve_fn = make_lu_solver(res.L, res.U, row_perm=res.pre.row_perm,
                              col_perm=res.pre.col_perm)
    for seed in range(3):
        solve_fn(np.random.default_rng(seed).normal(size=a.n_rows))
    assert len(builds) == 1


def test_invalid_schedule_falls_back_to_per_column_levels():
    a = circuit_like(60, 5.0, seed=2)
    res = EndToEndLU().factorize(a)
    # the plan reads no levels: a schedule whose levels order no edge
    # only stores it
    flat = dataclasses.replace(
        res.schedule, level_of=np.zeros(a.n_rows, dtype=np.int64), levels=[]
    )
    b = np.random.default_rng(3).normal(size=a.n_rows)
    _assert_bitwise(solve_plan(res.L, res.U, flat).solve(res.L, res.U, b),
                    _oracle_lu_solve(res.L, res.U, b))


# ---------------------------------------------------------------------------
# error behaviour, oracle vs production

_FORWARD = {
    "oracle": oracles.forward_substitute,
    "production": trisolve.forward_substitute,
}
_BACKWARD = {
    "oracle": oracles.backward_substitute,
    "production": trisolve.backward_substitute,
}
_FORWARD_BLOCK = {
    "oracle": oracles.forward_substitute_multi,
    "production": trisolve.forward_substitute,
}
_BACKWARD_BLOCK = {
    "oracle": oracles.backward_substitute_multi,
    "production": trisolve.backward_substitute,
}
_IMPLS = ["oracle", "production"]


def _csc(d):
    return CSCMatrix.from_dense(np.asarray(d, dtype=np.float64))


@pytest.mark.parametrize("impl", _IMPLS)
def test_forward_rejects_entry_above_diagonal(impl):
    d = np.eye(4)
    d[1, 3] = 2.0
    d[0, 2] = 1.0
    with pytest.raises(NotLowerTriangularError, match="column 2 "):
        _FORWARD[impl](_csc(d), np.ones(4))
    with pytest.raises(NotLowerTriangularError, match="column 2 "):
        _FORWARD_BLOCK[impl](_csc(d), np.ones((4, 2)))


@pytest.mark.parametrize("impl", _IMPLS)
def test_backward_rejects_entry_below_diagonal(impl):
    d = np.eye(4)
    d[2, 0] = 1.0
    d[3, 1] = 1.0
    with pytest.raises(NotUpperTriangularError, match="column 1 "):
        _BACKWARD[impl](_csc(d), np.ones(4))
    with pytest.raises(NotUpperTriangularError, match="column 1 "):
        _BACKWARD_BLOCK[impl](_csc(d), np.ones((4, 2)))


@pytest.mark.parametrize("impl", _IMPLS)
def test_backward_zero_pivot_names_the_loops_first_column(impl):
    # the backward loop walks columns downwards: column 3 comes first
    d = np.triu(np.ones((5, 5)))
    d[1, 1] = 0.0
    d[3, 3] = 0.0
    for fn, b in ((_BACKWARD[impl], np.ones(5)),
                  (_BACKWARD_BLOCK[impl], np.ones((5, 2)))):
        with pytest.raises(SingularMatrixError) as err:
            fn(_csc(d), b)
        assert err.value.column == 3


@pytest.mark.parametrize("impl", _IMPLS)
def test_forward_nonunit_missing_diagonal_names_first_column(impl):
    d = np.tril(np.ones((5, 5)))
    d[2, 2] = 0.0  # missing: from_dense drops it
    d[4, 4] = 0.0
    for fn, b in ((_FORWARD[impl], np.ones(5)),
                  (_FORWARD_BLOCK[impl], np.ones((5, 2)))):
        with pytest.raises(SingularMatrixError) as err:
            fn(_csc(d), b, unit_diagonal=False)
        assert err.value.column == 2


@pytest.mark.parametrize("impl", _IMPLS)
def test_zero_pivot_before_triangularity_error_in_loop_order(impl):
    # U: the loop reaches column 3 (zero pivot) before column 1 (lower
    # entry); L: it reaches column 1 (zero pivot) before column 3
    du = np.triu(np.ones((5, 5)))
    du[3, 3] = 0.0
    du[4, 1] = 1.0  # below the diagonal in column 1
    with pytest.raises(SingularMatrixError) as err:
        _BACKWARD[impl](_csc(du), np.ones(5))
    assert err.value.column == 3
    dl = np.tril(np.ones((5, 5)))
    dl[1, 1] = 0.0
    dl[0, 3] = 1.0  # above the diagonal in column 3
    with pytest.raises(SingularMatrixError) as err:
        _FORWARD[impl](_csc(dl), np.ones(5), unit_diagonal=False)
    assert err.value.column == 1
    # on the same column the triangularity check comes first
    dl[0, 1] = 1.0
    with pytest.raises(NotLowerTriangularError, match="column 1 "):
        _FORWARD[impl](_csc(dl), np.ones(5), unit_diagonal=False)


@pytest.mark.parametrize("impl", _IMPLS)
def test_bad_rhs_length_raises_value_error(impl):
    eye = CSCMatrix.identity(3)
    with pytest.raises(ValueError):
        _FORWARD[impl](eye, np.ones(4))
    with pytest.raises(ValueError):
        _BACKWARD[impl](eye, np.ones(2))
    with pytest.raises(ValueError):
        _FORWARD_BLOCK[impl](eye, np.ones((4, 2)))
    with pytest.raises(ValueError):
        _BACKWARD_BLOCK[impl](eye, np.ones((2, 2)))


@pytest.mark.parametrize("ndim", [1, 2])
def test_nonunit_and_missing_diagonals_bitwise(ndim):
    rng = np.random.default_rng(5)
    n = 12
    d = np.tril(rng.normal(size=(n, n)))
    d[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(d, rng.uniform(0.5, 3.0, n))
    b = rng.normal(size=(n,) if ndim == 1 else (n, 2))
    fwd = _FORWARD if ndim == 1 else _FORWARD_BLOCK
    bwd = _BACKWARD if ndim == 1 else _BACKWARD_BLOCK
    # stored non-unit diagonals divide, whether or not L is unit
    for unit in (True, False):
        _assert_bitwise(fwd["production"](_csc(d), b, unit_diagonal=unit),
                        fwd["oracle"](_csc(d), b, unit_diagonal=unit))
    _assert_bitwise(bwd["production"](_csc(d.T), b),
                    bwd["oracle"](_csc(d.T), b))
    # a missing diagonal reads as 1 in a unit-lower solve
    d[4, 4] = d[9, 9] = 0.0
    _assert_bitwise(fwd["production"](_csc(d), b), fwd["oracle"](_csc(d), b))


def test_random_defects_raise_what_the_oracle_raises():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = 8
        lower = bool(trial % 2)
        d = rng.normal(size=(n, n))
        d[rng.random((n, n)) < 0.6] = 0.0
        d = np.tril(d) if lower else np.triu(d)
        np.fill_diagonal(d, rng.choice([0.0, 1.0, 2.0], n, p=[0.1, 0.5, 0.4]))
        if rng.random() < 0.3:  # one entry on the wrong side
            i, j = sorted(rng.choice(n, 2, replace=False))
            d[i, j] = d[j, i] = 1.0
        t = _csc(d)
        t.data[rng.random(t.nnz) < 0.1] = 0.0  # stored zeros, pivots too
        b = rng.normal(size=n)
        if lower:
            unit = bool(rng.random() < 0.5)
            calls = [
                (fn, dict(unit_diagonal=unit))
                for fn in (oracles.forward_substitute,
                           trisolve.forward_substitute)
            ]
        else:
            calls = [(oracles.backward_substitute, {}),
                     (trisolve.backward_substitute, {})]
        outcomes = []
        for fn, kw in calls:
            try:
                # a stored zero on a unit diagonal divides: inf/nan bits
                with np.errstate(divide="ignore", invalid="ignore"):
                    outcomes.append(_bits(fn(t, b, **kw)).tolist())
            except (NotLowerTriangularError, NotUpperTriangularError,
                    SingularMatrixError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (trial, outcomes)


# ---------------------------------------------------------------------------
# right-hand-side shapes at the solve entry points


def test_result_solve_accepts_a_block():
    a = circuit_like(70, 5.0, seed=12)
    res = EndToEndLU().factorize(a)
    B = np.random.default_rng(1).normal(size=(a.n_rows, 3))
    X = res.solve(B)
    assert X.shape == B.shape
    for k in range(3):
        _assert_bitwise(X[:, k], res.solve(B[:, k]))
    assert np.allclose(a.to_dense() @ X, B, atol=1e-8)


def test_refactorize_result_solve_accepts_a_block():
    a = circuit_like(70, 5.0, seed=13)
    re = analyze(a).refactorize(a)
    B = np.random.default_rng(2).normal(size=(a.n_rows, 2))
    X = re.solve(B)
    assert X.shape == B.shape
    for k in range(2):
        _assert_bitwise(X[:, k], re.solve(B[:, k]))


@pytest.mark.parametrize("shape", [(71,), (69,), (70, 2, 1), (71, 2), ()])
def test_solve_rejects_other_shapes(shape):
    a = circuit_like(70, 5.0, seed=12)
    res = EndToEndLU().factorize(a)
    assert res.pre.row_perm is not None
    with pytest.raises(ValueError):
        res.solve(np.ones(shape))
    with pytest.raises(ValueError):
        lu_solve_permuted(res.L, res.U, np.ones(shape),
                          row_perm=res.pre.row_perm)


def _singular_matrix(n=60, seed=3):
    """Structurally sound matrix with a numerically zero leading pivot."""
    a = circuit_like(n, 5.0, seed=seed)
    s, e = int(a.indptr[0]), int(a.indptr[1])
    for p in range(s, e):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0
    return a


def test_refined_solve_rejects_a_block():
    a = _singular_matrix()
    res = EndToEndLU(SolverConfig(resilience=True)).factorize(a)
    assert res.recovery is not None and res.recovery.perturbed_columns
    x = res.solve(np.random.default_rng(4).normal(size=a.n_rows))
    assert x.shape == (a.n_rows,) and res.recovery.residual_ok
    for shape in ((a.n_rows, 3), (a.n_rows + 1,)):
        with pytest.raises(ValueError):
            res.solve(np.ones(shape))


def test_iterative_refinement_takes_one_rhs():
    a = circuit_like(40, 5.0, seed=6)
    res = EndToEndLU().factorize(a)
    solve_fn = make_lu_solver(res.L, res.U, row_perm=res.pre.row_perm,
                              col_perm=res.pre.col_perm)
    with pytest.raises(ValueError):
        iterative_refinement(a, np.ones((a.n_rows, 2)), solve_fn)


# ---------------------------------------------------------------------------
# the compiled sweep: serving sizes, dtypes, layouts, edge sizes, import


def _check_solution(x, b_before, b, ref):
    assert x.dtype == np.float64 and x.flags.c_contiguous
    assert np.array_equal(b, b_before), "the solve must not modify b"
    _assert_bitwise(x, ref)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [200, 500])
def test_serving_patterns_bitwise_equal_oracle(n, k):
    a = circuit_like(n, 7.0, seed=0)
    res = EndToEndLU().factorize(a)
    rng = np.random.default_rng(n + k)
    b = rng.normal(size=n) if k == 1 else rng.normal(size=(n, k))
    before = b.copy()
    x = solve_plan(res.L, res.U, res.schedule).solve(res.L, res.U, b)
    _check_solution(x, before, b, _oracle_lu_solve(res.L, res.U, b))
    _check_solution(res.solve(b), before, b, res.solve(before))
    fwd, bwd = (_FORWARD, _BACKWARD) if k == 1 else (_FORWARD_BLOCK,
                                                      _BACKWARD_BLOCK)
    _check_solution(fwd["production"](res.L, b), before, b,
                    fwd["oracle"](res.L, b))
    _check_solution(bwd["production"](res.U, b), before, b,
                    bwd["oracle"](res.U, b))


def _with_dtype(t, dtype):
    return CSCMatrix(t.n_rows, t.n_cols, t.indptr, t.indices,
                     t.data.astype(dtype), check=False)


@pytest.mark.parametrize("ndim", [1, 2])
def test_float32_factors_bitwise_equal_oracle(ndim):
    # float32 values widen exactly; the oracle gets them widened, since
    # numpy < 2 would multiply a float32 column by a float64 scalar in
    # float32
    a = circuit_like(120, 6.0, seed=5)
    res = EndToEndLU().factorize(a)
    L, U = _with_dtype(res.L, np.float32), _with_dtype(res.U, np.float32)
    L64, U64 = _with_dtype(L, np.float64), _with_dtype(U, np.float64)
    rng = np.random.default_rng(6)
    b = rng.normal(size=(a.n_rows,) if ndim == 1 else (a.n_rows, 3))
    before = b.copy()
    _check_solution(lu_solve(L, U, b), before, b,
                    _oracle_lu_solve(L64, U64, b))
    fwd = _FORWARD if ndim == 1 else _FORWARD_BLOCK
    _check_solution(trisolve.forward_substitute(L, b), before, b,
                    fwd["oracle"](L64, b))


def test_fortran_ordered_and_integer_rhs():
    a = circuit_like(90, 6.0, seed=8)
    res = EndToEndLU().factorize(a)
    plan = solve_plan(res.L, res.U, res.schedule)
    rng = np.random.default_rng(9)
    for b in (np.asfortranarray(rng.normal(size=(a.n_rows, 4))),
              rng.integers(-5, 6, size=a.n_rows),
              np.asfortranarray(rng.integers(-5, 6, size=(a.n_rows, 2)))):
        before = b.copy()
        x = plan.solve(res.L, res.U, b)
        ref = _oracle_lu_solve(res.L, res.U, b.astype(np.float64))
        _check_solution(x, before, b, ref)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("ndim", [1, 2])
def test_empty_and_scalar_systems(n, ndim):
    L = CSCMatrix.identity(n)
    U = _csc(np.full((n, n), 4.0))
    b = np.full((n,) if ndim == 1 else (n, 2), 2.0)
    before = b.copy()
    x = lu_solve(L, U, b)
    assert x.shape == b.shape
    _check_solution(x, before, b, np.full(b.shape, 0.5))
    if n:
        _check_solution(x, before, b, _oracle_lu_solve(L, U, b))
    for fn in (trisolve.forward_substitute, trisolve.backward_substitute):
        _check_solution(fn(L, b), before, b, b)


def test_import_does_not_load_scipy_sparse():
    code = (
        "import sys, repro.numeric\n"
        "assert 'scipy.sparse.linalg' not in sys.modules\n"
        "assert 'scipy.sparse' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_missing_gstrs_names_the_scipy_floor(monkeypatch, tmp_path):
    import scipy

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy>=1\.14"):
        trisolve._load_gstrs()
    # an extension file without the symbol is rejected the same way
    stub = tmp_path / "sparse" / "linalg" / "_dsolve" / "_superlu.py"
    stub.parent.mkdir(parents=True)
    stub.write_text("gssv = None\n")
    monkeypatch.setattr(trisolve, "EXTENSION_SUFFIXES", [".py"])
    with pytest.raises(ImportError, match=r"scipy>=1\.14"):
        trisolve._load_gstrs()
