"""Unit tests for TracingGPU's chrome-trace export and summary hooks.

The pipeline-level smoke lives in test_trace_supernodes_report.py; here
the event list is constructed directly so the field mapping of
``to_chrome_trace`` is pinned down exactly.
"""

import json

from repro.core import SolverConfig
from repro.gpusim import GPU, TracingGPU, scaled_device, scaled_host
from repro.gpusim.trace import TraceEvent


def make_gpu(mem=8 << 20):
    c = SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))
    return TracingGPU(GPU(spec=c.device, host=c.host, cost=c.cost_model))


class TestToChromeTrace:
    def test_field_mapping(self):
        gpu = make_gpu()
        gpu.events.append(
            TraceEvent(
                name="numeric_kernel",
                category="kernel",
                start_s=0.002,
                duration_s=0.001,
                args={"flops": 64},
            )
        )
        (ev,) = gpu.to_chrome_trace()
        assert ev["name"] == "numeric_kernel"
        assert ev["cat"] == "kernel"
        assert ev["ph"] == "X"  # complete event
        assert ev["ts"] == 0.002 * 1e6  # microseconds
        assert ev["dur"] == 0.001 * 1e6
        assert ev["pid"] == 0
        assert ev["args"] == {"flops": 64}

    def test_tid_lanes_by_category(self):
        gpu = make_gpu()
        for cat in ("kernel", "transfer", "alloc", "free"):
            gpu.events.append(
                TraceEvent(name=cat, category=cat, start_s=0.0,
                           duration_s=0.0)
            )
        tids = {ev["cat"]: ev["tid"] for ev in gpu.to_chrome_trace()}
        assert tids["kernel"] == 1
        assert tids["transfer"] == 2
        # everything else shares the misc lane
        assert tids["alloc"] == 3 and tids["free"] == 3

    def test_zero_duration_gets_visible_floor(self):
        gpu = make_gpu()
        gpu.events.append(
            TraceEvent(name="e", category="alloc", start_s=0.0,
                       duration_s=0.0)
        )
        (ev,) = gpu.to_chrome_trace()
        assert ev["dur"] == 0.001  # 1 ns floor so viewers render it

    def test_recorded_ops_carry_args(self):
        gpu = make_gpu()
        gpu.h2d(1024)
        gpu.launch_utility(16)
        transfer, kernel = gpu.to_chrome_trace()
        assert transfer["name"] == "h2d"
        assert transfer["args"] == {"bytes": 1024}
        assert kernel["name"] == "utility_kernel"
        assert kernel["args"] == {"items": 16}
        assert kernel["ts"] >= transfer["ts"] + transfer["dur"] - 1e-9

    def test_write_round_trips_through_json(self, tmp_path):
        gpu = make_gpu()
        gpu.h2d(512)
        path = tmp_path / "trace.json"
        gpu.write_chrome_trace(path)
        data = json.loads(path.read_text())
        assert data["traceEvents"] == gpu.to_chrome_trace()


class TestTraceSummary:
    def test_summary_aggregates_and_sorts(self):
        gpu = make_gpu()
        gpu.events.extend([
            TraceEvent(name="k1", category="kernel", start_s=0.0,
                       duration_s=0.25),
            TraceEvent(name="k2", category="kernel", start_s=0.25,
                       duration_s=0.25),
            TraceEvent(name="t1", category="transfer", start_s=0.5,
                       duration_s=0.125),
        ])
        summary = gpu.trace_summary()
        assert summary["total_events"] == 3
        assert summary["events_by_category"] == {
            "kernel": 2, "transfer": 1,
        }
        assert summary["busy_seconds_by_category"] == {
            "kernel": 0.5, "transfer": 0.125,
        }
        assert list(summary["events_by_category"]) == ["kernel", "transfer"]

    def test_empty_trace(self):
        summary = make_gpu().trace_summary()
        assert summary["total_events"] == 0
        assert summary["events_by_category"] == {}
