"""`StreamedGPU`: the accounting contract, sync points, fault gates,
and per-stream Chrome-trace lanes."""

import pytest

from repro.core.resilient import ResilientGPU, RetryPolicy
from repro.errors import TransferError
from repro.gpusim import (
    GPU,
    FaultInjector,
    FaultPlan,
    TracingGPU,
    scaled_device,
)
from repro.streams import DoubleBufferedPipeline, StreamedGPU

pytestmark = pytest.mark.streams

MB = 1 << 20


@pytest.fixture
def gpu():
    return StreamedGPU(GPU(spec=scaled_device(64 * MB)))


class TestAccountingContract:
    def test_enqueue_books_busy_and_counters_not_total(self, gpu):
        gpu.h2d_async(MB)
        dur = gpu.cost.transfer_seconds(MB)
        assert gpu.ledger.total_seconds == 0.0
        assert gpu.ledger.seconds("transfer") == pytest.approx(dur)
        assert gpu.ledger.get_count("h2d_transfers") == 1
        assert gpu.ledger.get_count("bytes_h2d") == MB

    def test_synchronize_charges_makespan_once(self, gpu):
        gpu.h2d_async(MB)
        report = gpu.synchronize()
        dur = gpu.cost.transfer_seconds(MB)
        assert report.makespan_s == pytest.approx(dur)
        assert gpu.ledger.total_seconds == pytest.approx(dur)
        # idempotent: a second synchronize has nothing to charge
        assert gpu.synchronize().makespan_s == 0.0
        assert gpu.ledger.total_seconds == pytest.approx(dur)

    def test_makespan_lands_in_enclosing_phase(self, gpu):
        with gpu.ledger.phase("numeric"):
            gpu.h2d_async(MB)
            gpu.synchronize()
        dur = gpu.cost.transfer_seconds(MB)
        assert gpu.ledger.seconds("numeric") == pytest.approx(dur)

    def test_busy_seconds_match_serial_run(self, gpu):
        serial = GPU(spec=scaled_device(64 * MB))
        serial.h2d(MB)
        serial.d2h(2 * MB)
        serial.launch_traversal(edges=1000, avg_degree=8.0, blocks=40)
        gpu.h2d_async(MB)
        gpu.d2h_async(2 * MB)
        gpu.launch_traversal_async(edges=1000, avg_degree=8.0, blocks=40)
        gpu.synchronize()
        assert gpu.ledger.seconds("transfer") == pytest.approx(
            serial.ledger.seconds("transfer")
        )
        assert gpu.ledger.seconds("gpu_compute") == pytest.approx(
            serial.ledger.seconds("gpu_compute")
        )
        for c in ("h2d_transfers", "d2h_transfers", "bytes_h2d",
                  "bytes_d2h", "kernel_launches"):
            assert gpu.ledger.get_count(c) == serial.ledger.get_count(c)

    def test_zero_byte_async_is_noop(self, gpu):
        gpu.h2d_async(0)
        assert gpu.ledger.get_count("h2d_transfers") == 0
        assert gpu.synchronize().makespan_s == 0.0


class TestOverlap:
    def test_opposite_directions_overlap_fully(self, gpu):
        gpu.h2d_async(MB, "up")
        gpu.d2h_async(MB, "down")
        report = gpu.synchronize()
        dur = gpu.cost.transfer_seconds(MB)
        assert report.makespan_s == pytest.approx(dur)
        assert report.serial_s == pytest.approx(2 * dur)
        assert report.overlap_efficiency == pytest.approx(0.5)
        assert report.utilization("h2d") == pytest.approx(1.0)

    def test_same_direction_serializes(self, gpu):
        gpu.h2d_async(MB, "a")
        gpu.h2d_async(MB, "b")  # distinct streams, one DMA engine
        report = gpu.synchronize()
        assert report.makespan_s == pytest.approx(
            2 * gpu.cost.transfer_seconds(MB)
        )

    def test_event_dependency_forces_order(self, gpu):
        ev = gpu.h2d_async(MB, "up")
        gpu.wait_event("down", ev)
        gpu.d2h_async(MB, "down")
        report = gpu.synchronize()
        assert report.makespan_s == pytest.approx(
            2 * gpu.cost.transfer_seconds(MB)
        )

    def test_deterministic_schedules(self):
        def run():
            g = StreamedGPU(GPU(spec=scaled_device(64 * MB)))
            for i in range(6):
                ev = g.h2d_async(MB, "up")
                g.wait_event("compute", ev)
                g.launch_traversal_async(
                    edges=500 * (i + 1), avg_degree=6.0, blocks=20,
                    stream="compute",
                )
            g.d2h_async(3 * MB, "down")
            return g.synchronize()

        assert run() == run()


class TestSyncPoints:
    def test_serial_transfer_synchronizes_first(self, gpu):
        gpu.h2d_async(MB)
        gpu.h2d(MB)  # blocking op: drains the async region first
        assert len(gpu.reports) == 1
        dur = gpu.cost.transfer_seconds(MB)
        assert gpu.ledger.total_seconds == pytest.approx(2 * dur)

    def test_serial_kernel_synchronizes_first(self, gpu):
        gpu.launch_traversal_async(edges=100, avg_degree=4.0, blocks=8)
        gpu.launch_utility(10)
        assert len(gpu.reports) == 1

    def test_malloc_free_never_synchronize(self, gpu):
        gpu.h2d_async(MB)
        buf = gpu.malloc(MB, "staging")
        gpu.free(buf)
        assert gpu.reports == []  # pool ops are timeless, not sync points

    def test_snapshot_synchronizes(self, gpu):
        gpu.h2d_async(MB)
        snap = gpu.snapshot()
        assert len(gpu.reports) == 1
        assert snap["total_seconds"] > 0


class TestFaultGates:
    def test_transfer_fault_fires_in_async_enqueue(self):
        inner = FaultInjector(
            GPU(spec=scaled_device(64 * MB)),
            FaultPlan(seed=3, transfer_fault_rate=1.0),
        )
        gpu = StreamedGPU(inner)
        with pytest.raises(TransferError):
            gpu.h2d_async(MB)
        assert inner.ledger.get_count("injected_transfer_faults") == 1
        # nothing was booked for the faulted op
        assert gpu.ledger.get_count("h2d_transfers") == 0
        assert gpu.ledger.get_count("bytes_h2d") == 0

    def test_retry_policy_exhausts_deterministically(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=1e-4)
        inner = ResilientGPU(
            FaultInjector(
                GPU(spec=scaled_device(64 * MB)),
                FaultPlan(seed=3, transfer_fault_rate=1.0),
            ),
            policy,
        )
        gpu = StreamedGPU(inner)
        with pytest.raises(TransferError):
            gpu.h2d_async(MB)
        assert gpu.ledger.get_count("retries") == 2  # attempts 1 and 2
        assert gpu.ledger.seconds("retry") > 0

    def test_retry_recovers_and_backoff_pushes_stream(self):
        # seeded plan: with a 30% rate and 6 attempts the gated retries
        # converge for every op of this fixed sequence (deterministic)
        inner = ResilientGPU(
            FaultInjector(
                GPU(spec=scaled_device(64 * MB)),
                FaultPlan(seed=11, transfer_fault_rate=0.3),
            ),
            RetryPolicy(max_attempts=6, base_delay_s=1e-4),
        )
        gpu = StreamedGPU(inner)  # async ops retry in the layer below
        for _ in range(20):
            gpu.h2d_async(MB)
        report = gpu.synchronize()
        assert gpu.ledger.get_count("h2d_transfers") == 20
        assert gpu.ledger.get_count("retries") > 0
        # backoff idles the stream: makespan exceeds pure transfer time
        assert report.makespan_s > 20 * gpu.cost.transfer_seconds(MB)
        # and the recovery log saw the async retries (rung-1 telemetry)
        kinds = [e.kind for e in inner.recovery_log.events]
        assert "op-retry" in kinds


class TestTraceLanes:
    def test_streams_get_own_concurrent_lanes(self):
        tracer = TracingGPU(GPU(spec=scaled_device(64 * MB)))
        gpu = StreamedGPU(tracer)
        gpu.h2d_async(MB, "up")
        gpu.d2h_async(MB, "down")
        gpu.launch_traversal_async(
            edges=1000, avg_degree=8.0, blocks=16, stream="lane0"
        )
        gpu.synchronize()
        events = [
            e for e in tracer.to_chrome_trace() if e["tid"] >= 10
        ]
        tids = {e["tid"] for e in events}
        assert len(tids) >= 2  # one lane per stream
        # the two transfers overlap in time on different lanes
        spans = {
            e["args"]["stream"]: (e["ts"], e["ts"] + e["dur"])
            for e in events
            if e["name"].endswith("_async") and "stream" in e["args"]
        }
        (u0, u1), (d0, d1) = spans["up"], spans["down"]
        assert max(u0, d0) < min(u1, d1)  # concurrent, not stacked


class TestDoubleBufferedPipeline:
    def _chunk(self, gpu, lane, blocks=16):
        return gpu.launch_traversal_async(
            edges=2000, avg_degree=8.0, blocks=blocks, stream=lane
        )

    def test_pipeline_beats_serial_sum(self, gpu):
        pipe = DoubleBufferedPipeline(gpu)
        for _ in range(6):
            pipe.submit(MB, lambda lane: self._chunk(gpu, lane), MB)
        report = pipe.drain()
        assert report.makespan_s < report.serial_s
        assert report.overlap_efficiency > 0

    def test_staging_backpressure_bounds_lookahead(self):
        def makespan(buffers):
            g = StreamedGPU(GPU(spec=scaled_device(64 * MB)))
            pipe = DoubleBufferedPipeline(g, staging_buffers=buffers)
            for _ in range(6):
                pipe.submit(
                    4 * MB,
                    lambda lane: g.launch_traversal_async(
                        edges=200, avg_degree=8.0, blocks=8, stream=lane
                    ),
                )
            return pipe.drain().makespan_s

        # one buffer serializes upload(i) behind kernel(i-1); two buffers
        # restore the classic overlap — strictly no slower
        assert makespan(2) <= makespan(1)

    def test_download_waits_for_chunk_kernel(self, gpu):
        pipe = DoubleBufferedPipeline(gpu)
        done = pipe.submit(MB, lambda lane: self._chunk(gpu, lane), MB)
        up = gpu.cost.transfer_seconds(MB)
        assert done.resolved_s > 2 * up  # upload + kernel + download chain

    def test_drain_resets_for_reuse(self, gpu):
        pipe = DoubleBufferedPipeline(gpu)
        pipe.submit(MB, lambda lane: self._chunk(gpu, lane))
        pipe.drain()
        assert pipe.chunks_submitted == 0
        pipe.submit(MB, lambda lane: self._chunk(gpu, lane))
        assert pipe.drain().makespan_s > 0

    def test_knob_validation(self, gpu):
        with pytest.raises(ValueError):
            DoubleBufferedPipeline(gpu, compute_lanes=0)
        with pytest.raises(ValueError):
            DoubleBufferedPipeline(gpu, staging_buffers=0)
