"""Differential harness: multi-GPU factors vs. the single-device solver.

The multi-GPU contract is *identical by construction*: device count,
link preset and overlap mode may only change the simulated timeline,
never the numeric result.  For every workload in the registry and every
swept device count this harness asserts the fill pattern, both factors
and the pivot sequence are bitwise-identical to the single-device
:class:`~repro.core.pipeline.EndToEndLU` run, with pivot recovery on
too, and that one device is the single-device pipeline: the same
kernels and, phase by phase, the same simulated seconds.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    EndToEndLU,
    SolverConfig,
    multi_gpu_endtoend,
    multi_gpu_symbolic,
)
from repro.core import multigpu
from repro.core.numeric_gpu import launch_inputs
from repro.errors import ConfigurationError, SingularMatrixError
from repro.gpusim import GPU, GPUProxy
from repro.workloads.generators import circuit_like
from repro.workloads.registry import FIG3_SPECS, TABLE2, TABLE4

pytestmark = pytest.mark.multigpu

#: shrunk instance size — structure class and density are what matter
_N = 96
DEVICE_COUNTS = (1, 2, 3, 8)


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


@pytest.mark.parametrize(
    "spec", _registry_specs(), ids=lambda s: s.abbr
)
def test_factors_bitwise_identical_across_device_counts(spec):
    a = dataclasses.replace(spec, n_scaled=_N).generate()
    cfg = SolverConfig()
    single = EndToEndLU(cfg).factorize(a)
    ref_pivots = _diag(single.U)
    for d in DEVICE_COUNTS:
        for overlap in (False, True):
            res = multi_gpu_endtoend(
                a, cfg, num_devices=d, overlap=overlap
            )
            where = f"{spec.abbr} d={d} overlap={overlap}"
            # fill pattern
            assert np.array_equal(
                res.filled.indptr, single.filled.indptr
            ), where
            assert np.array_equal(
                res.filled.indices, single.filled.indices
            ), where
            # factors, structure and values, bitwise
            for name in ("L", "U"):
                mine = getattr(res, name)
                ref = getattr(single, name)
                assert np.array_equal(mine.indptr, ref.indptr), where
                assert np.array_equal(mine.indices, ref.indices), where
                assert np.array_equal(mine.data, ref.data), where
            # pivot sequence
            assert np.array_equal(res.pivot_sequence, ref_pivots), where


def test_sharding_only_moves_time():
    """Sanity on the execution record itself: multi-device runs move
    bytes over the interconnect and keep every device busy, while the
    1-device run books no peer traffic at all."""
    a = dataclasses.replace(
        next(s for s in TABLE2 if s.abbr == "RM"), n_scaled=_N
    ).generate()
    cfg = SolverConfig()
    r1 = multi_gpu_endtoend(a, cfg, num_devices=1)
    r4 = multi_gpu_endtoend(a, cfg, num_devices=4)
    assert r1.interconnect.total_transfers == 0
    assert r1.halo_batches == 0
    assert r4.interconnect.total_bytes > 0
    assert r4.reshard_bytes > 0
    assert r4.halo_bytes > 0
    assert r4.balance() > 0.5
    assert len(r4.gpus) == 4
    # every device ends with its buffers released
    for gpu in r4.gpus:
        assert gpu.pool.live_bytes == 0
    rec = r4.perf_record()
    assert rec["counters"]["num_devices"] == 4
    assert rec["labels"]["partition"] == "cyclic-level"
    assert rec["counters"]["bytes_p2p"] == (
        r4.reshard_bytes + r4.halo_bytes
    )


def test_solution_matches_single_device():
    """`solve()` on the multi-GPU result equals the single-device one."""
    a = dataclasses.replace(
        next(s for s in TABLE2 if s.abbr == "OT2"), n_scaled=_N
    ).generate()
    cfg = SolverConfig()
    single = EndToEndLU(cfg).factorize(a)
    multi = multi_gpu_endtoend(a, cfg, num_devices=3)
    b = np.random.default_rng(7).normal(size=a.n_rows)
    assert np.array_equal(single.solve(b), multi.solve(b))


def _singular_at_origin():
    """A circuit matrix whose ``(0, 0)`` entry is an explicit zero."""
    a = circuit_like(60, 5.0, seed=3)
    row0 = slice(int(a.indptr[0]), int(a.indptr[1]))
    a.data[row0][a.indices[row0] == 0] = 0.0
    return a


def test_resilience_recovers_at_every_device_count():
    """Pivot recovery is value work, so device count cannot change it:
    factors, perturbed columns and the refined solution match the
    single-device run bitwise."""
    a = _singular_at_origin()
    cfg = SolverConfig(resilience=True)
    single = EndToEndLU(cfg).factorize(a)
    assert single.recovery.perturbed_columns
    b = np.random.default_rng(5).normal(size=a.n_rows)
    x_ref = single.solve(b)
    assert single.recovery.refine_iterations is not None
    for d in (1, 2, 3):
        res = multi_gpu_endtoend(a, cfg, num_devices=d)
        for name in ("L", "U"):
            mine, ref = getattr(res, name), getattr(single, name)
            assert np.array_equal(mine.indptr, ref.indptr), d
            assert np.array_equal(mine.indices, ref.indices), d
            assert np.array_equal(mine.data, ref.data), d
        assert (
            res.recovery.perturbed_columns
            == single.recovery.perturbed_columns
        )
        assert np.array_equal(res.solve(b), x_ref), d
        assert res.recovery.final_residual == single.recovery.final_residual
    with pytest.raises(SingularMatrixError):
        multi_gpu_endtoend(a, SolverConfig(), num_devices=2)


def test_supernodal_config_is_rejected_up_front():
    """The sharded level loop books per-column launches only, so a
    supernodal config would change the charging model with the device
    count; it is refused instead."""
    a = circuit_like(60, 5.0, seed=3)
    for d in (1, 2):
        with pytest.raises(ConfigurationError, match="supernodal"):
            multi_gpu_endtoend(a, SolverConfig(supernodal=True), num_devices=d)


@pytest.mark.parametrize("fmt", ["dense", "csc"])
def test_one_device_issues_the_single_device_launches(fmt, monkeypatch):
    """On one device the sharded level loop books exactly the kernels of
    the in-core executor: same ``(flops, blocks, search_steps, cap)``
    sequence, over type A, B and C levels.  The in-core run goes through
    a proxy, which issues every launch (a bare device books them as one
    tape).  The device is the single-device pipeline phase by phase too:
    its symbolic (Alg. 3/4 on all rows), levelize and numeric seconds
    are ``EndToEndLU``'s to the last bit, and its makespan is
    ``EndToEndLU``'s simulated time, so sharding adds only reshard,
    halo and download."""
    calls: list[tuple[int, int, int, int | None]] = []
    real = GPU.launch_numeric

    def record(self, flops, blocks, *, concurrency_cap=None,
               search_steps=0, **kw):
        calls.append((flops, blocks, search_steps, concurrency_cap))
        return real(self, flops, blocks, concurrency_cap=concurrency_cap,
                    search_steps=search_steps, **kw)

    monkeypatch.setattr(GPU, "launch_numeric", record)
    cfg = SolverConfig(numeric_format=fmt)
    seen_tags: set[str] = set()
    for spec in _registry_specs():
        a = dataclasses.replace(spec, n_scaled=_N).generate()
        calls.clear()
        gpu = GPUProxy(
            GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        )
        single = EndToEndLU(cfg).factorize(a, gpu=gpu)
        want = list(calls)
        calls.clear()
        multi = multi_gpu_endtoend(a, cfg, num_devices=1)
        assert calls == want, spec.abbr
        for phase in ("symbolic", "levelize", "numeric"):
            assert multi.gpus[0].ledger.seconds(
                phase
            ) == single.gpu.ledger.seconds(phase), (spec.abbr, phase)
        assert multi.makespan_seconds == single.sim_seconds, spec.abbr
        seen_tags.update(
            launch_inputs(single.filled, single.schedule).tags(
                single.schedule, None
            )
        )
    assert seen_tags == {"A", "B", "C"}


def test_devices_without_rows_book_no_traversal(monkeypatch):
    """At n=96 there is one 160-row block, so on 3 devices only device 0
    owns rows: devices 1-2 book the graph upload and the prefix sum but
    no traversal chunk, results stay bitwise equal and every buffer is
    released."""
    booked: list = []
    real = multigpu.book_symbolic

    def record(*args, **kw):
        booked.append(real(*args, **kw))
        return booked[-1]

    monkeypatch.setattr(multigpu, "book_symbolic", record)
    a = dataclasses.replace(
        next(s for s in TABLE2 if s.abbr == "OT2"), n_scaled=_N
    ).generate()
    cfg = SolverConfig()
    single = EndToEndLU(cfg).factorize(a)

    sym = multi_gpu_symbolic(a, cfg, num_devices=3)
    assert [r.iterations > 0 for r in booked] == [True, False, False]
    assert sym.shard_blocks == [[(0, _N)], [], []]
    assert np.array_equal(sym.filled.indices, single.filled.indices)
    # the prefix sum is an empty device's only kernel
    assert [g.ledger.get_count("kernel_launches") for g in sym.gpus[1:]] == [
        1,
        1,
    ]

    booked.clear()
    res = multi_gpu_endtoend(a, cfg, num_devices=3)
    assert [r.iterations > 0 for r in booked] == [True, False, False]
    for name in ("L", "U"):
        mine, ref = getattr(res, name), getattr(single, name)
        assert np.array_equal(mine.indices, ref.indices)
        assert np.array_equal(mine.data, ref.data)
    for gpu in (*sym.gpus, *res.gpus):
        assert gpu.pool.live_bytes == 0
