"""`SolverConfig.overlap` end to end: identical results, faster clock.

The acceptance contract of the streams subsystem: overlap may only move
simulated time — fill structure and factors are bitwise-identical, the
default perf-suite e2e configuration drops >= 15%, runs stay
deterministic, and recovery still converges when faults fire inside
in-flight async copies.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import EndToEndLU, SolverConfig
from repro.gpusim import GPU, FaultInjector, FaultPlan, scaled_device
from repro.streams import StreamedGPU
from repro.symbolic import symbolic_fill_reference
from repro.workloads.registry import by_abbr

pytestmark = pytest.mark.streams


def _config(abbr: str, n: int, chunk_rows: int = 32, mem_divisor: int = 1):
    spec = dataclasses.replace(by_abbr(abbr), n_scaled=n)
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    device = spec.device_for_symbolic(a, filled.nnz, chunk_rows=chunk_rows)
    if mem_divisor > 1:
        device = dataclasses.replace(
            device, memory_bytes=device.memory_bytes // mem_divisor
        )
    return a, SolverConfig(device=device, host=spec.host_for(device))


@pytest.fixture(scope="module")
def streamed_pair():
    """Serial and overlap runs of the fully streamed CR2 regime."""
    a, base = _config("CR2", 160, mem_divisor=2)
    off = EndToEndLU(base).factorize(a)
    on = EndToEndLU(dataclasses.replace(base, overlap=True)).factorize(a)
    return off, on


class TestBitwiseIdentical:
    def test_fill_structure_identical(self, streamed_pair):
        off, on = streamed_pair
        assert np.array_equal(off.filled.indptr, on.filled.indptr)
        assert np.array_equal(off.filled.indices, on.filled.indices)

    def test_factors_identical(self, streamed_pair):
        off, on = streamed_pair
        assert np.array_equal(off.L.data, on.L.data)
        assert np.array_equal(off.U.data, on.U.data)
        assert off.numeric.data_format == on.numeric.data_format

    def test_work_counters_identical(self, streamed_pair):
        off, on = streamed_pair
        for c in ("kernel_launches", "bytes_h2d", "bytes_d2h"):
            assert off.gpu.ledger.get_count(c) == on.gpu.ledger.get_count(
                c
            ), c


class TestSpeedup:
    def test_streamed_regime_drops_hard(self, streamed_pair):
        off, on = streamed_pair
        drop = (off.sim_seconds - on.sim_seconds) / off.sim_seconds
        assert drop >= 0.15

    def test_default_e2e_scenario_drops_15pct(self):
        # the perf suite's default e2e smoke configuration (OT2, n=160,
        # chunk_rows=32, unhalved device) — the acceptance criterion
        a, base = _config("OT2", 160)
        off = EndToEndLU(base).factorize(a)
        on = EndToEndLU(
            dataclasses.replace(base, overlap=True)
        ).factorize(a)
        assert np.array_equal(off.L.data, on.L.data)
        drop = (off.sim_seconds - on.sim_seconds) / off.sim_seconds
        assert drop >= 0.15

    def test_async_regions_actually_overlap(self, streamed_pair):
        _, on = streamed_pair
        report = on.gpu.combined_report()
        assert report.n_streams >= 2
        assert report.overlap_efficiency > 0
        assert report.makespan_s < report.serial_s


class TestDeterminism:
    def test_two_runs_identical(self):
        def run():
            a, base = _config("CR2", 120, mem_divisor=2)
            res = EndToEndLU(
                dataclasses.replace(base, overlap=True)
            ).factorize(a)
            return res

        r1, r2 = run(), run()
        assert r1.sim_seconds == r2.sim_seconds
        assert r1.gpu.ledger.snapshot() == r2.gpu.ledger.snapshot()
        assert r1.gpu.reports == r2.gpu.reports
        assert np.array_equal(r1.L.data, r2.L.data)


class TestOverlapWithFaults:
    def test_recovery_converges_with_async_faults(self):
        """TransferError inside in-flight async copies: the ladder's
        rung-1 retries absorb them and results stay identical."""
        a, base = _config("CR2", 120, mem_divisor=2)
        cfg = dataclasses.replace(
            base, overlap=True, resilience=True
        )
        clean = EndToEndLU(cfg).factorize(a)

        faulty_gpu = FaultInjector(
            GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model),
            FaultPlan(seed=7, transfer_fault_rate=0.05),
        )
        faulted = EndToEndLU(cfg).factorize(a, gpu=faulty_gpu)

        assert faulty_gpu.faults_injected > 0
        assert np.array_equal(clean.L.data, faulted.L.data)
        assert np.array_equal(clean.U.data, faulted.U.data)
        # surviving costs exactly the retry bucket
        assert faulted.gpu.ledger.get_count("retries") > 0
        assert faulted.gpu.ledger.seconds("retry") > 0
        kinds = {e.kind for e in faulted.recovery.events}
        assert "op-retry" in kinds


class TestConfigKnobs:
    def test_pipeline_wraps_device_only_when_asked(self):
        a, base = _config("OT2", 120)
        off = EndToEndLU(base).factorize(a)
        assert not isinstance(off.gpu, StreamedGPU)
        on = EndToEndLU(
            dataclasses.replace(base, overlap=True)
        ).factorize(a)
        assert isinstance(on.gpu, StreamedGPU)


class TestSegmentWindowAccounting:
    def test_thrash_charges_both_directions(self):
        """A window smaller than the access set streams honestly: every
        re-entry is a load, every dirty eviction a writeback."""
        from repro.core.numeric_outofcore import _SegmentWindow

        gpu = GPU(spec=scaled_device(1 << 20))
        window = _SegmentWindow(gpu, 4, 1000, budget_bytes=2000)  # cap 2
        window.touch({0, 1, 2, 3}, write=True)
        # sequential sweep: 4 loads, segments 0 and 1 evicted dirty
        assert window.loads == 4
        assert window.writebacks == 2
        window.touch({0, 1}, write=True)  # both re-faulted, 2/3 evicted
        assert window.loads == 6
        assert window.writebacks == 4
        window.flush()
        assert window.writebacks == 6  # the resident dirty pair
        assert gpu.ledger.get_count("h2d_transfers") == window.loads
        assert gpu.ledger.get_count("d2h_transfers") == window.writebacks
