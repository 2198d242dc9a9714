"""Knob census of the serving, fleet and recovery configs.

A config field exists only while a caller outside the tests sets it; a
value every caller leaves at its default is a module constant instead.
A new knob must earn its place in one of the field sets below.
"""

import dataclasses

import numpy as np
import pytest

import repro.core
import repro.core.incremental
import repro.core.resilient
import repro.fleet
import repro.fleet.admission
import repro.fleet.l2cache
import repro.preprocess
import repro.sparse
from repro.core import EndToEndLU, RetryPolicy, SolverConfig
from repro.fleet import FleetConfig
from repro.gpusim.interconnect import PCIE3
from repro.serve import BreakerConfig, ServeConfig
from repro.serve import scheduler
from repro.workloads import circuit_like

SERVE_FIELDS = {
    "solver", "num_devices", "cache_capacity_bytes", "max_queue_depth",
    "breaker", "cpu_fallback", "fault_plans", "incremental",
}
FLEET_FIELDS = {"num_nodes", "serve", "max_pending_per_node"}
BREAKER_FIELDS = {"failure_threshold", "cooldown_s"}

REMOVED = [
    (ServeConfig, "default_timeout"),
    (ServeConfig, "dispatch_retry"),
    (ServeConfig, "refactorize_retry"),
    (ServeConfig, "placement"),
    (BreakerConfig, "half_open_trials"),
    (FleetConfig, "vnodes"),
    (FleetConfig, "l2"),
    (FleetConfig, "admission"),
]

REMOVED_NAMES = [
    (repro.core, "ResilienceConfig"),
    (repro.core.resilient, "ResilienceConfig"),
    (repro.core, "IncrementalPolicy"),
    (repro.core.incremental, "IncrementalPolicy"),
    (repro.fleet, "L2Config"),
    (repro.fleet.l2cache, "L2Config"),
    (repro.fleet, "AdmissionConfig"),
    (repro.fleet.admission, "AdmissionConfig"),
    (repro.core, "plan_chunks_multipart"),
    (repro.core, "MultiGpuSolver"),
    (repro.preprocess, "PreprocessOptions"),
    (repro.preprocess, "rcm_ordering"),
    (repro.preprocess, "equilibrate"),
    (repro.core, "solve_gpu"),
    (repro.sparse, "add_scaled_identity"),
]


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls, expected", [
    (ServeConfig, SERVE_FIELDS),
    (FleetConfig, FLEET_FIELDS),
    (BreakerConfig, BREAKER_FIELDS),
], ids=["ServeConfig", "FleetConfig", "BreakerConfig"])
def test_exactly_the_retained_fields(cls, expected):
    assert _fields(cls) == expected


@pytest.mark.parametrize(
    "cls, name", REMOVED, ids=[f"{c.__name__}.{n}" for c, n in REMOVED]
)
def test_removed_field_is_not_a_constructor_argument(cls, name):
    with pytest.raises(TypeError):
        cls(**{name: 1})


@pytest.mark.parametrize(
    "module, name",
    REMOVED_NAMES,
    ids=[f"{m.__name__}.{n}" for m, n in REMOVED_NAMES],
)
def test_removed_name_is_not_exported(module, name):
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())


def test_constants_keep_the_old_defaults():
    """Every removed knob became a constant equal to its old default."""
    assert scheduler.DISPATCH_RETRY == RetryPolicy(3, 1e-4, 2.0)
    assert scheduler.REFACTORIZE_RETRY == RetryPolicy(2, 0.0)
    res = repro.core.resilient
    assert res.OP_RETRY == RetryPolicy()
    assert res.CHUNK_RETRY == RetryPolicy(3, 2e-4, 4.0)
    assert res.PIVOT_PERTURBATION_REL == 1.5e-8
    assert (res.REFINE_THRESHOLD, res.REFINE_MAX_ITER) == (1e-8, 20)
    inc = repro.core.incremental
    assert (inc.MAX_DELTA_FRACTION, inc.MAX_DONORS) == (0.05, 4)
    l2 = repro.fleet.l2cache
    assert (l2.L2_CAPACITY_BYTES, l2.L2_LINK) == (512 << 20, PCIE3)
    assert repro.fleet.admission.NODE_BREAKER == BreakerConfig()
    assert FleetConfig().max_pending_per_node == 32
    assert ServeConfig().incremental is True


def test_resilience_is_a_switch_that_runs_the_ladder():
    assert SolverConfig().resilience is False
    a = circuit_like(60, 5.0, seed=3)
    s, e = int(a.indptr[0]), int(a.indptr[1])
    for p in range(s, e):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0  # numerically zero leading pivot
    res = EndToEndLU(SolverConfig(resilience=True)).factorize(a)
    rec = res.recovery
    assert rec is not None and rec.perturbed_columns
    b = np.random.default_rng(0).random(60)
    res.solve(b)
    assert rec.residual_ok
