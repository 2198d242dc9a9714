"""The per-pattern plan store on :class:`~repro.graph.LevelSchedule`.

Everything derived from a filled pattern lives in one typed
:class:`~repro.graph.PatternPlans`, validated in one place
(:meth:`LevelSchedule.plans_for`).  A schedule takes no other
attribute, so a new cache must become a typed field here.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SolverConfig, analyze
from repro.graph import LevelSchedule, PatternPlans
from repro.workloads import circuit_like

SCHEDULE_FIELDS = {"level_of", "levels", "plans"}
PLAN_FIELDS = {
    "pattern", "numeric", "supernodal", "solve", "csc_layout", "lu_split",
    "launch",
}


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_field_sets_are_pinned():
    assert _fields(LevelSchedule) == SCHEDULE_FIELDS
    assert _fields(PatternPlans) == PLAN_FIELDS


def test_schedule_rejects_ad_hoc_attributes():
    sched = LevelSchedule(level_of=np.array([0, 1, 1], dtype=np.int64))
    with pytest.raises(AttributeError):
        sched._solve_plan = object()
    with pytest.raises(AttributeError):
        setattr(sched.plans, "extra", 1)


def test_replaced_schedule_starts_with_its_own_plans():
    sched = LevelSchedule(level_of=np.array([0, 1, 1], dtype=np.int64))
    sched.plans_for(3, 5).solve = object()
    flat = dataclasses.replace(sched, level_of=np.zeros(3, dtype=np.int64),
                               levels=[])
    assert flat.plans is not sched.plans
    assert flat.plans.solve is None


@pytest.mark.parametrize("supernodal", [False, True])
def test_one_analysis_fills_its_plans_once(supernodal):
    a = circuit_like(80, 5.0, seed=4)
    an = analyze(a, SolverConfig(supernodal=supernodal))
    b = np.random.default_rng(0).normal(size=a.n_rows)
    an.refactorize(a).solve(b)
    plans = an.schedule.plans
    assert plans.pattern == (an.filled.n_rows, an.filled.nnz)
    # the supernodal path charges panels, not per-level launches
    kept = ["numeric", "solve", "csc_layout", "lu_split",
            "supernodal" if supernodal else "launch"]
    before = {name: getattr(plans, name) for name in kept}
    assert all(before.values())
    before = {k: dict(v) if isinstance(v, dict) else v
              for k, v in before.items()}
    an.refactorize(a).solve(b)
    assert an.schedule.plans is plans, "a pass must not rebind the store"
    for name, old in before.items():
        new = getattr(plans, name)
        if isinstance(old, dict):
            assert old.keys() == new.keys()
            assert all(old[k] is new[k] for k in old)
        else:
            assert old is new


def test_another_pattern_drops_every_plan():
    sched = LevelSchedule(level_of=np.array([0, 1, 1], dtype=np.int64))
    first = sched.plans_for(3, 5)
    first.numeric[False] = object()
    assert sched.plans_for(3, 5) is first
    other = sched.plans_for(3, 6)
    assert other is not first
    assert other.pattern == (3, 6) and not other.numeric
