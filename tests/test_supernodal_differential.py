"""Differential harness: supernodal panel schedule vs. the per-column oracle.

The supernodal contract is *identical by construction*
(:mod:`repro.numeric.supernodal`): the panel knob may only change the
simulated timeline and kernel-launch accounting, never the numeric
result — values are always produced by the same per-column elimination.
For every workload in the registry, on both host-loop implementations,
this harness asserts the fill pattern, both factors and the pivot
sequence are bitwise-identical between the two numeric paths, and that
the *performance* claim splits by matrix class exactly as §5 predicts:
FEM-class instances get strictly fewer launches and less simulated
numeric time, circuit-class partitions stay mostly singleton.
"""

import dataclasses

import numpy as np
import pytest
from helpers import use_oracles

from repro.core import EndToEndLU, SolverConfig, analyze
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.errors import SingularMatrixError
from repro.numeric import build_supernodal_plan
from repro.workloads import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

pytestmark = pytest.mark.supernodal

#: shrunk instance size — structure class and density are what matter
_N = 96


def _registry_specs():
    """Every distinct workload in the registry (Table 2 + Table 4 +
    Fig. 3, deduplicated by abbreviation)."""
    seen = {}
    for spec in (*TABLE2, *TABLE4, *FIG3_SPECS):
        seen.setdefault(spec.abbr, spec)
    return list(seen.values())


def _diag(u) -> np.ndarray:
    """The diagonal of a CSC upper factor (the pivot sequence)."""
    n = u.n_cols
    out = np.zeros(n, dtype=u.data.dtype)
    for j in range(n):
        s, e = int(u.indptr[j]), int(u.indptr[j + 1])
        rows = u.indices[s:e]
        pos = int(np.searchsorted(rows, j))
        if pos < len(rows) and rows[pos] == j:
            out[j] = u.data[s + pos]
    return out


def _assert_same_factors(res, ref, where: str) -> None:
    assert np.array_equal(res.filled.indptr, ref.filled.indptr), where
    assert np.array_equal(res.filled.indices, ref.filled.indices), where
    for name in ("L", "U"):
        mine = getattr(res, name)
        gold = getattr(ref, name)
        assert np.array_equal(mine.indptr, gold.indptr), where
        assert np.array_equal(mine.indices, gold.indices), where
        assert np.array_equal(mine.data, gold.data), where
    assert np.array_equal(_diag(res.U), _diag(ref.U)), where


@pytest.mark.parametrize(
    "spec", _registry_specs(), ids=lambda s: s.abbr
)
def test_factors_bitwise_identical_across_paths(spec, monkeypatch):
    """Registry sweep: {supernodal on/off} x {scalar oracle / production
    host loops} all produce the same bits; only launches and simulated
    seconds move."""
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    ref = EndToEndLU(SolverConfig(supernodal=False)).factorize(a)
    runs = {}
    for slow in (False, True):
        with monkeypatch.context() as m:
            if slow:
                use_oracles(m)
            for supernodal in (False, True):
                cfg = SolverConfig(supernodal=supernodal)
                res = EndToEndLU(cfg).factorize(a)
                where = f"{spec.abbr} slow={slow} supernodal={supernodal}"
                _assert_same_factors(res, ref, where)
                expected = "supernodal" if supernodal else "per-column"
                assert res.numeric.numeric_path == expected, where
                runs[(slow, supernodal)] = res

    # the host-loop knob must not leak into the *performance* record
    # either: same panel partition, same launch counts per path
    for supernodal in (False, True):
        fast = runs[(False, supernodal)]
        slow = runs[(True, supernodal)]
        assert fast.numeric.panels == slow.numeric.panels
        assert fast.gpu.ledger.get_count(
            "numeric_kernel_launches"
        ) == slow.gpu.ledger.get_count("numeric_kernel_launches")

    on = runs[(False, True)]
    off = runs[(False, False)]
    launches_on = on.gpu.ledger.get_count("numeric_kernel_launches")
    launches_off = off.gpu.ledger.get_count("numeric_kernel_launches")
    if spec.kind == "fem":
        # §5's claim: FEM fill forms wide panels -> strictly fewer
        # launches and a strictly faster simulated numeric phase
        assert launches_on < launches_off, spec.abbr
        assert on.gpu.ledger.seconds("numeric") < off.gpu.ledger.seconds(
            "numeric"
        ), spec.abbr
        # the sparsest FEM instances (AP) amalgamate less at the shrunk
        # test size, but real multi-column panels must still dominate
        # enough to win above
        assert on.numeric.panel_coverage > 0.3, spec.abbr
    elif spec.kind == "circuit":
        # irregular circuit fill: the partition must degenerate to
        # (mostly) singletons rather than invent bogus dense blocks
        assert on.numeric.panels > 0
        frac = on.numeric.singleton_panels / on.numeric.panels
        assert frac >= 0.6, f"{spec.abbr}: singleton fraction {frac:.2f}"


def test_flop_conservation_against_oracle_stats():
    """The plan's structural FLOP total equals the oracle's measured
    div+update work exactly (the executor asserts this every run; pin
    it independently here)."""
    for abbr in ("CR2", "OT2", "HT20"):
        spec = next(s for s in _registry_specs() if s.abbr == abbr)
        a = dataclasses.replace(spec, n_scaled=_N).generate()
        res = EndToEndLU(SolverConfig(supernodal=True)).factorize(a)
        plan = build_supernodal_plan(res.filled)
        stats = res.numeric.stats
        assert plan.total_flops == stats.div_flops + stats.update_flops
        assert plan.coverage() == res.numeric.panel_coverage


def test_refactorize_hits_plan_cache():
    """analyze() pre-warms the panel schedule: ``panelize`` is charged
    exactly once at analysis time, and numeric-only passes reuse the
    cached plan for free while staying bitwise-equal to the oracle."""
    spec = next(s for s in _registry_specs() if s.abbr == "CR2")
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    an = analyze(a, SolverConfig(supernodal=True))
    charged = an.gpu.ledger.seconds("panelize")
    assert charged > 0.0
    r1 = an.refactorize(a)
    r2 = an.refactorize(a)
    assert an.gpu.ledger.seconds("panelize") == charged
    assert r1.numeric.numeric_path == "supernodal"
    ref = analyze(a, SolverConfig(supernodal=False)).refactorize(a)
    for name in ("L", "U"):
        mine, gold = getattr(r2, name), getattr(ref, name)
        assert np.array_equal(mine.indptr, gold.indptr)
        assert np.array_equal(mine.indices, gold.indices)
        assert np.array_equal(mine.data, gold.data)


def test_forced_numeric_formats_stay_bitwise():
    """Forcing the numeric data format (dense or csc) must not break
    the differential contract on either matrix class."""
    for abbr in ("CR2", "OT2"):
        spec = next(s for s in _registry_specs() if s.abbr == abbr)
        a = dataclasses.replace(spec, n_scaled=_N).generate()
        for fmt in ("dense", "csc"):
            ref = EndToEndLU(
                SolverConfig(supernodal=False, numeric_format=fmt)
            ).factorize(a)
            res = EndToEndLU(
                SolverConfig(supernodal=True, numeric_format=fmt)
            ).factorize(a)
            _assert_same_factors(res, ref, f"{abbr} fmt={fmt}")
            assert res.numeric.data_format == fmt


def test_kernel_mode_override_forces_per_column():
    """The kernel-mode ablation hook bypasses the panel schedule (it
    re-tags per-level scattered kernels, which panels would hide)."""
    spec = next(s for s in _registry_specs() if s.abbr == "CR2")
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    cfg = SolverConfig(supernodal=True)
    pipe = EndToEndLU(cfg)
    res = pipe.factorize(a)
    assert res.numeric.numeric_path == "supernodal"
    forced = numeric_factorize_gpu(
        res.gpu, res.filled.to_csc(), res.filled, res.schedule, cfg,
        kernel_mode_override="C",
    )
    assert forced.numeric_path == "per-column"
    assert forced.panels == 0
    ref = numeric_factorize_gpu(
        res.gpu, res.filled.to_csc(), res.filled, res.schedule,
        SolverConfig(supernodal=False), kernel_mode_override="C",
    )
    fL, fU = forced.factors()
    rL, rU = ref.factors()
    for mine, gold in ((fL, rL), (fU, rU)):
        assert np.array_equal(mine.data, gold.data)


def _singular_matrix(n=60, seed=3):
    """Structurally sound matrix with a numerically zero leading pivot."""
    a = circuit_like(n, 5.0, seed=seed)
    s, e = int(a.indptr[0]), int(a.indptr[1])
    for p in range(s, e):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0
    return a


def test_singular_matrix_identical_across_paths():
    """Error behaviour is part of the contract: both paths raise the
    same error without resilience, and recover to bitwise-identical
    perturbed factors with it."""
    a = _singular_matrix()
    for supernodal in (False, True):
        with pytest.raises(SingularMatrixError):
            EndToEndLU(
                SolverConfig(supernodal=supernodal)
            ).factorize(a)
    ref = EndToEndLU(
        SolverConfig(supernodal=False, resilience=True)
    ).factorize(a)
    res = EndToEndLU(
        SolverConfig(supernodal=True, resilience=True)
    ).factorize(a)
    _assert_same_factors(res, ref, "pivot recovery")
    assert res.numeric.perturbed_columns == ref.numeric.perturbed_columns
    assert res.numeric.perturbed_columns  # the recovery actually fired


def test_supernodal_moves_time_not_bits():
    """Sanity on the execution record itself: the FEM run books panel
    kernels and a panelize phase, strictly fewer numeric launches, and
    identical solutions; solve() agrees bitwise."""
    spec = next(s for s in _registry_specs() if s.abbr == "CR2")
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    off = EndToEndLU(SolverConfig(supernodal=False)).factorize(a)
    on = EndToEndLU(SolverConfig(supernodal=True)).factorize(a)
    assert on.gpu.ledger.get_count("panel_kernel_launches") > 0
    assert off.gpu.ledger.get_count("panel_kernel_launches") == 0
    assert on.gpu.ledger.seconds("panelize") > 0.0
    assert off.gpu.ledger.seconds("panelize") == 0.0
    assert on.numeric.panel_waves > 0
    assert 0.0 < on.numeric.panel_coverage <= 1.0
    b = np.random.default_rng(7).normal(size=a.n_rows)
    assert np.array_equal(off.solve(b), on.solve(b))
