"""Charge replay: a bare GPU books a pattern's per-level launches as
one tape.

On a bare :class:`~repro.gpusim.GPU`, ``_charge_per_column`` builds the
ledger calls of a pass from the pattern's launch table as one
:class:`~repro.gpusim.ledger.ChargeTape`, books it with one
:meth:`~repro.gpusim.ledger.TimeLedger.replay` and keeps it for the
next pass with the same launches.  These tests pin the tape to the
per-launch booking every proxy stack still does: equal ledger
snapshots pass after pass, no launch call on a bare device, every
launch visible to a proxy, no stale tape after a cost-model or device
change, one cached tape per format and override, and an empty tape that
books nothing.
"""

import dataclasses
from contextlib import ExitStack

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core import numeric_gpu
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.gpusim import (
    GPU,
    DEFAULT_COST_MODEL,
    GPUProxy,
    TracingGPU,
    scaled_device,
    scaled_host,
)
from repro.gpusim.ledger import ChargeTape, TimeLedger
from repro.graph import build_dependency_graph, kahn_levels
from repro.numeric import NumericStats
from repro.serve.loadgen import restamp
from repro.symbolic.reference import symbolic_fill_reference
from repro.workloads import circuit_like

#: passes per pattern: the first builds the tape, the rest reuse it
_PASSES = 3


def _cfg(**kw) -> SolverConfig:
    mem = 8 << 20
    return SolverConfig(
        device=scaled_device(mem), host=scaled_host(8 * mem), **kw
    )


@pytest.fixture(scope="module")
def pattern():
    return circuit_like(80, 5.0, seed=3)


def _passes(make_gpu, cfg, a, override, passes=_PASSES):
    """Ledger snapshots after each numeric pass on one schedule, each
    pass with new values (same pattern, so the launches repeat)."""
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    gpu = make_gpu(cfg)
    snaps = []
    for k in range(passes):
        values = symbolic_fill_reference(restamp(a, seed=k))
        numeric_factorize_gpu(
            gpu,
            values.to_csc(),
            filled,
            sched,
            cfg,
            kernel_mode_override=override,
        )
        snaps.append(gpu.snapshot())
    return snaps, gpu


def _bare(cfg):
    return GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)


def _traced(cfg):
    return TracingGPU(_bare(cfg))


def _count_replays(monkeypatch):
    calls = []
    original = TimeLedger.replay

    def counted(self, tape):
        calls.append(len(tape.seconds))
        return original(self, tape)

    monkeypatch.setattr(TimeLedger, "replay", counted)
    return calls


def _count_tape_builds(monkeypatch):
    builds = []
    original = numeric_gpu.LaunchTable.tape

    def counted(self, *args):
        tape = original(self, *args)
        builds.append(tape)
        return tape

    monkeypatch.setattr(numeric_gpu.LaunchTable, "tape", counted)
    return builds


def _count_launch_calls(monkeypatch):
    calls = []
    original = GPU.launch_numeric

    def counted(self, *args, **kw):
        calls.append(args)
        return original(self, *args, **kw)

    monkeypatch.setattr(GPU, "launch_numeric", counted)
    return calls


@pytest.mark.parametrize("fmt", ["dense", "csc"])
@pytest.mark.parametrize("override", [None, "A", "B", "C"])
def test_replayed_passes_match_traced_snapshots(
    pattern, fmt, override, monkeypatch
):
    cfg = _cfg(numeric_format=fmt)
    replays = _count_replays(monkeypatch)
    builds = _count_tape_builds(monkeypatch)
    launches = _count_launch_calls(monkeypatch)
    bare, _ = _passes(_bare, cfg, pattern, override)
    # every bare pass books one tape, built once, and calls no launch
    assert len(replays) == _PASSES and all(replays)
    assert len(builds) == 1 and not launches
    traced, gpu = _passes(_traced, cfg, pattern, override)
    assert len(replays) == _PASSES  # a proxy never replays
    assert len(builds) == 1
    assert len(launches) == traced[-1]["counters"]["numeric_kernel_launches"]
    assert bare == traced
    assert gpu.events  # the traced run really saw its ops
    if fmt == "dense":
        assert bare[-1]["counters"]["bytes_hbm"] > 0


class _Recording(GPUProxy):
    """Counts the numeric launches that pass through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.numeric = 0

    def execute(self, op):
        if op.kind == "numeric":
            self.numeric += 1
        return self.inner.execute(op)


def test_proxy_sees_every_numeric_launch(pattern):
    cfg = _cfg()
    proxy = None

    def make(cfg):
        nonlocal proxy
        proxy = _Recording(_bare(cfg))
        return proxy

    snaps, _ = _passes(make, cfg, pattern, None)
    launches = snaps[-1]["counters"]["numeric_kernel_launches"]
    assert launches > 0 and proxy.numeric == launches
    bare, _ = _passes(_bare, cfg, pattern, None)
    assert bare == snaps


def _one_pattern(a):
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    stats = numeric_gpu.factorize_in_place(
        filled.to_csc(), filled, sched, count_search_steps=True
    )
    return filled, sched, stats


def _charge(gpu, filled, sched, stats, cap=160):
    numeric_gpu._charge_per_column(
        gpu, filled, sched, stats, "csc", cap, filled.n_rows, 8, None
    )
    return gpu.snapshot()


@pytest.mark.parametrize("changed", ["cost", "spec"])
def test_changed_cost_model_or_device_records_again(
    pattern, changed, monkeypatch
):
    filled, sched, stats = _one_pattern(pattern)
    cfg = _cfg()
    first = GPU(spec=cfg.device, host=cfg.host, cost=DEFAULT_COST_MODEL)
    _charge(first, filled, sched, stats)
    if changed == "cost":
        other = dataclasses.replace(
            DEFAULT_COST_MODEL, gpu_numeric_flops=1.2e10
        )
        kw = {"spec": cfg.device, "cost": other}
    else:
        # same concurrency cap, different occupancy denominator
        spec = dataclasses.replace(
            cfg.device,
            max_concurrent_blocks=2 * cfg.device.max_concurrent_blocks,
        )
        kw = {"spec": spec, "cost": DEFAULT_COST_MODEL}
    builds = _count_tape_builds(monkeypatch)
    changed_snap = _charge(GPU(host=cfg.host, **kw), filled, sched, stats)
    assert len(builds) == 1  # the cached tape was for another model
    fresh_sched = kahn_levels(build_dependency_graph(filled))
    fresh = _charge(GPU(host=cfg.host, **kw), filled, fresh_sched, stats)
    assert changed_snap == fresh
    assert changed_snap != first.snapshot()
    # the entry now holds the new tape, and the next pass reuses it
    assert sched.plans.launch.tapes[("csc", None)][1] is builds[0]
    again = GPU(host=cfg.host, **kw)
    assert _charge(again, filled, sched, stats) == fresh
    assert len(builds) == 2  # only the fresh schedule built another


def test_other_per_level_stats_record_again(pattern, monkeypatch):
    filled, sched, stats = _one_pattern(pattern)
    cfg = _cfg()
    _charge(_bare(cfg), filled, sched, stats)
    builds = _count_tape_builds(monkeypatch)
    heavier = dataclasses.replace(
        stats,
        per_level=[(f + 1, c, u, s) for f, c, u, s in stats.per_level],
    )
    snap = _charge(_bare(cfg), filled, sched, heavier)
    assert len(builds) == 1
    fresh_sched = kahn_levels(build_dependency_graph(filled))
    assert snap == _charge(_bare(cfg), filled, fresh_sched, heavier)


def test_one_tape_per_format_and_override(pattern, monkeypatch):
    """A cap that moves with free device memory replaces the cached
    tape instead of adding one per cap."""
    filled, sched, stats = _one_pattern(pattern)
    cfg = _cfg()
    builds = _count_tape_builds(monkeypatch)
    for cap in (160, 40, 12, 40):
        gpu = _bare(cfg)
        snap = _charge(gpu, filled, sched, stats, cap=cap)
        fresh_sched = kahn_levels(build_dependency_graph(filled))
        assert snap == _charge(_bare(cfg), filled, fresh_sched, stats, cap)
        assert list(sched.plans.launch.tapes) == [("csc", None)]
    assert len(builds) == 8  # every change of cap rebuilt the tape
    _charge(_bare(cfg), filled, sched, stats, cap=40)
    assert len(builds) == 8  # an unchanged cap reuses it


def test_empty_launch_list_creates_no_ledger_keys(pattern):
    filled, sched, _ = _one_pattern(pattern)
    cfg = _cfg()
    for _ in range(2):  # build the tape, then reuse it
        gpu = _bare(cfg)
        with gpu.ledger.phase("numeric"):
            _charge(gpu, filled, sched, NumericStats())
        assert gpu.snapshot() == _bare(cfg).snapshot()


# ---------------------------------------------------------------------------
# TimeLedger.replay against one-at-a-time booking


def _book(ledger, calls):
    for seconds, category, counter in calls:
        ledger.charge(seconds, category)
        if counter is not None:
            ledger.count(*counter)


def _tape_of(calls):
    """The :class:`ChargeTape` of ``calls``, built from arrays."""
    seconds = np.array([c[0] for c in calls])
    cats = [c[1] for c in calls]
    masks = {
        c: np.array([x == c for x in cats], dtype=np.int64)
        for c in dict.fromkeys(cats)
        if c is not None
    }
    counts = {}
    for _, _, counter in calls:
        if counter is not None:
            counts[counter[0]] = counts.get(counter[0], 0) + counter[1]
    return ChargeTape(seconds, masks, counts)


@pytest.mark.parametrize(
    "stack",
    [[], ["numeric"], ["outer", "numeric"], ["gpu_compute"],
     ["numeric", "numeric"]],
    ids=["none", "one", "nested", "category-open", "open-twice"],
)
def test_replay_is_bitwise_one_at_a_time(stack):
    rng = np.random.default_rng(11)
    calls = [
        (
            float(rng.random() * 10.0 ** rng.integers(-9, -2)),
            [None, "gpu_compute", "transfer"][i % 3],
            ("kernel_launches", 1) if i % 3 == 0 else None,
        )
        for i in range(300)
    ]
    tape = _tape_of(calls)
    assert len(tape.seconds) == len(calls)

    def primed():
        ledger = TimeLedger()
        ledger.charge(0.1, "gpu_compute")  # non-zero starting buckets
        ledger.count("kernel_launches", 5)
        return ledger

    one_by_one, replayed = primed(), primed()
    with ExitStack() as phases:
        for name in stack:
            phases.enter_context(one_by_one.phase(name))
            phases.enter_context(replayed.phase(name))
        _book(one_by_one, calls)
        replayed.replay(tape)
    assert replayed.snapshot() == one_by_one.snapshot()
    assert replayed.total_seconds == one_by_one.total_seconds


def test_replay_of_empty_tape_books_nothing():
    ledger = TimeLedger()
    with ledger.phase("numeric"):
        ledger.replay(ChargeTape())
    assert ledger.snapshot() == TimeLedger().snapshot()
    assert not ledger.phase_seconds and not ledger.counters
