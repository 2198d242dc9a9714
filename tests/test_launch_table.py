"""The launch table: GLU 3.0's A/B/C rule (§2.2) in array form.

``_LaunchInputs.table`` builds every launch of a numeric pass with
array operations, for one device or for the columns one device of the
multi-GPU executor owns.  These tests pin it to the level-at-a-time
reference of :mod:`repro.oracles` across the workload registry, for
every kernel-mode override and for 2- and 3-device shares, and pin a
bare device's tape to the launches a proxy stack sees one at a time.
"""

import dataclasses

import numpy as np
import pytest

from repro import oracles
from repro.core import SolverConfig
from repro.core import numeric_gpu
from repro.core.multigpu import _cyclic_level_owner
from repro.core.numeric_gpu import launch_inputs, numeric_factorize_gpu
from repro.gpusim import GPU, TracingGPU, scaled_device, scaled_host
from repro.graph import LevelSchedule, build_dependency_graph, kahn_levels
from repro.numeric import NumericStats
from repro.sparse import CSRMatrix
from repro.symbolic.reference import symbolic_fill_reference
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

_N = 96


def _registry_specs():
    """Every distinct workload in the registry, deduplicated."""
    seen = {}
    for spec in (*TABLE2, *TABLE4, *FIG3_SPECS):
        seen.setdefault(spec.abbr, spec)
    return list(seen.values())


def _pattern(spec):
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    stats = numeric_gpu.factorize_in_place(
        filled.to_csc(), filled, sched, count_search_steps=True
    )
    return a, filled, sched, stats


def _oracle_launches(sched, sub, per_level, tags, dense, owner=None,
                     colwork=None, device=0):
    """Every level's launches and HBM bytes from the level-at-a-time
    oracle; with ``owner``, those of ``device``'s columns, its share
    of each level's work apportioned by ``colwork``."""
    launches, hbm = [], []
    for k, level in enumerate(sched.levels):
        stat = per_level[k]
        mask = (
            np.ones(len(level), dtype=bool)
            if owner is None
            else owner[level] == device
        )
        cols = int(mask.sum())
        if cols == 0 or stat[1] == 0:
            launches.append([])
            hbm.append(0)
            continue
        if owner is None:
            share, cols = 1.0, stat[1]
        else:
            share = float(colwork[level[mask]].sum()) / max(
                float(colwork[level].sum()), 1.0
            )
        type_c = oracles.type_c_launches(sub[level]) if tags[k] == "C" else []
        got, nbytes = oracles.level_launches(
            tags[k],
            stat,
            [lc for lc, mine in zip(type_c, mask) if mine],
            cols=cols,
            share=share,
            dense_col_bytes=dense,
        )
        launches.append(got)
        hbm.append(nbytes)
    return launches, hbm


def _rows(table):
    """A table's launches per level as tuples, and its HBM bytes."""
    launches = [[tuple(row) for row in lv] for lv in table.launches()]
    return launches, table.hbm.tolist()


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_array_rule_matches_level_oracle(spec):
    _, filled, sched, stats = _pattern(spec)
    inputs = launch_inputs(filled, sched)
    sub = inputs.sub_cols
    assert inputs.tags(sched, None).tolist() == oracles.classify_levels(
        sched, sub
    )
    for override in (None, "A", "B", "C"):
        tags = inputs.tags(sched, override)
        for dense in (0, 8 * _N):
            table = inputs.table(
                stats.per_level, tags, dense_col_bytes=dense
            )
            want = _oracle_launches(sched, sub, stats.per_level, tags, dense)
            assert _rows(table) == want
    # multi-GPU shares, as the sharded level loop computes them
    tags = inputs.tags(sched, None)
    col_nnz = np.diff(filled.to_csc().indptr).astype(np.int64)
    lower = np.maximum(col_nnz - 1, 0)
    colwork = (1 + lower + lower * sub).astype(np.float64)
    work = colwork[inputs.order]
    weight = np.bincount(inputs.col_level, weights=work)
    for devices in (2, 3):
        owner = _cyclic_level_owner(sched, devices)
        for d in range(devices):
            own = owner[inputs.order] == d
            mine = np.bincount(inputs.col_level, weights=work * own)
            table = inputs.table(
                stats.per_level,
                tags,
                dense_col_bytes=8 * _N,
                own=own,
                share=mine / np.maximum(weight, 1.0),
            )
            want = _oracle_launches(
                sched, sub, stats.per_level, tags, 8 * _N, owner, colwork, d
            )
            assert _rows(table) == want, d


def _cfg(**kw) -> SolverConfig:
    mem = 8 << 20
    return SolverConfig(
        device=scaled_device(mem), host=scaled_host(8 * mem), **kw
    )


@pytest.mark.parametrize("spec", _registry_specs(), ids=lambda s: s.abbr)
def test_bare_tape_equals_traced_launches(spec, monkeypatch):
    """A bare device's one-tape booking equals a traced device's
    one-at-a-time booking, nested in an outer phase, for both formats
    and every override, and the bare pass calls no launch."""
    calls = []
    real = GPU.launch_numeric

    def spy(self, *args, **kw):
        calls.append(args)
        return real(self, *args, **kw)

    monkeypatch.setattr(GPU, "launch_numeric", spy)
    a, filled, _, _ = _pattern(spec)
    for fmt in ("dense", "csc"):
        cfg = _cfg(numeric_format=fmt)
        for override in (None, "A", "B", "C"):
            snaps = []
            for gpu in (
                GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model),
                TracingGPU(
                    GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
                ),
            ):
                calls.clear()
                sched = kahn_levels(build_dependency_graph(filled))
                for _ in range(2):
                    with gpu.ledger.phase("outer"):
                        numeric_factorize_gpu(
                            gpu,
                            filled.to_csc(),
                            filled,
                            sched,
                            cfg,
                            kernel_mode_override=override,
                        )
                snaps.append((gpu.snapshot(), len(calls)))
            (bare, bare_calls), (traced, traced_calls) = snaps
            assert bare == traced, (fmt, override)
            assert bare_calls == 0
            launches = traced["counters"]["numeric_kernel_launches"]
            assert traced_calls == launches > 0


def test_empty_schedule_creates_no_counter_key():
    empty = CSRMatrix(0, 0, np.zeros(1, np.int64), np.zeros(0, np.int64), [])
    sched = LevelSchedule(level_of=np.zeros(0, dtype=np.int64))
    cfg = _cfg()
    gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
    with gpu.ledger.phase("numeric"):
        numeric_gpu._charge_per_column(
            gpu, empty, sched, NumericStats(), "dense", 160, 0, 8, None
        )
    assert gpu.snapshot() == GPU(spec=cfg.device, host=cfg.host).snapshot()
    table = launch_inputs(empty, sched).table([], np.zeros(0, dtype="<U1"))
    assert table.launches() == [] and not len(table.hbm)
