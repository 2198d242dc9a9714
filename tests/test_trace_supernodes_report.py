"""Execution tracing, supernode detection, and the matrix report."""

import json

import numpy as np
import pytest

from repro.core import EndToEndLU, SolverConfig
from repro.gpusim import GPU, TracingGPU, scaled_device, scaled_host
from repro.graph import detect_supernodes
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like, fem_like

from helpers import random_dense


def cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


class TestTracingGPU:
    @pytest.fixture
    def traced(self):
        c = cfg()
        gpu = TracingGPU(GPU(spec=c.device, host=c.host, cost=c.cost_model))
        a = circuit_like(150, 6.0, seed=101)
        res = EndToEndLU(c).factorize(a, gpu=gpu)
        return gpu, res

    def test_events_recorded_in_time_order(self, traced):
        gpu, _ = traced
        assert len(gpu.events) > 10
        starts = [ev.start_s for ev in gpu.events]
        assert starts == sorted(starts)
        assert all(ev.duration_s >= 0 for ev in gpu.events)

    def test_event_categories(self, traced):
        gpu, _ = traced
        counts = gpu.event_counts()
        assert counts.get("kernel", 0) > 0
        assert counts.get("transfer", 0) > 0
        assert counts.get("alloc", 0) > 0

    def test_busy_time_bounded_by_total(self, traced):
        gpu, res = traced
        busy = gpu.busy_seconds("kernel") + gpu.busy_seconds("transfer")
        assert 0 < busy <= res.sim_seconds * 1.0001

    def test_results_identical_to_untraced(self):
        c = cfg()
        a = circuit_like(120, 6.0, seed=102)
        traced_gpu = TracingGPU(
            GPU(spec=c.device, host=c.host, cost=c.cost_model)
        )
        r1 = EndToEndLU(c).factorize(a, gpu=traced_gpu)
        r2 = EndToEndLU(c).factorize(a)
        assert r1.L.allclose(r2.L)
        assert r1.sim_seconds == pytest.approx(r2.sim_seconds)

    def test_chrome_trace_export(self, traced, tmp_path):
        gpu, _ = traced
        path = tmp_path / "trace.json"
        gpu.write_chrome_trace(path)
        data = json.loads(path.read_text())
        evs = data["traceEvents"]
        assert len(evs) == len(gpu.events)
        for ev in evs[:5]:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] > 0


class TestSupernodes:
    def test_identity_all_singletons(self):
        filled = symbolic_fill_reference(CSRMatrix.identity(8))
        part = detect_supernodes(filled)
        assert part.num_supernodes == 8
        assert part.max_size() == 1
        assert part.coverage() == 0.0

    def test_dense_matrix_single_supernode(self):
        d = random_dense(12, 1.0, seed=1)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        part = detect_supernodes(filled)
        assert part.num_supernodes == 1
        assert part.max_size() == 12
        assert part.coverage() == 1.0

    def test_boundaries_partition_columns(self):
        a = circuit_like(120, 6.0, seed=103)
        filled = symbolic_fill_reference(a)
        part = detect_supernodes(filled)
        assert part.boundaries[0] == 0
        assert part.n == a.n_rows
        assert np.all(np.diff(part.boundaries) >= 1)
        assert int(part.sizes().sum()) == a.n_rows

    def test_columns_in_supernode_share_structure(self):
        d = random_dense(15, 0.9, seed=2)
        filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
        csc = filled.to_csc()
        part = detect_supernodes(filled)
        for k in range(part.num_supernodes):
            s, e = int(part.boundaries[k]), int(part.boundaries[k + 1])
            for j in range(s + 1, e):
                prev, _ = csc.col(j - 1)
                cur, _ = csc.col(j)
                expected = prev[(prev > j - 1) & (prev != j)]
                np.testing.assert_array_equal(cur[cur > j], expected)

    def test_relaxation_merges_more(self):
        a = fem_like(200, 16.0, seed=104)
        filled = symbolic_fill_reference(a)
        strict = detect_supernodes(filled, relax=0)
        relaxed = detect_supernodes(filled, relax=2)
        assert relaxed.num_supernodes <= strict.num_supernodes

    def test_paper_section5_claim(self):
        """FEM matrices form larger supernodes than circuit matrices."""
        fem = symbolic_fill_reference(fem_like(250, 25.0, seed=105))
        cir = symbolic_fill_reference(circuit_like(250, 7.0, seed=105))
        assert (
            detect_supernodes(fem).mean_size()
            > detect_supernodes(cir).mean_size()
        )


class TestMatrixReport:
    def test_report_rows(self):
        from repro.bench.matrix_report import matrix_report

        mats = {
            "c": circuit_like(120, 6.0, seed=106),
            "f": fem_like(120, 12.0, seed=107),
        }
        rep = matrix_report(mats, cfg(1 << 20))
        assert len(rep.rows) == 2
        by = {r.name: r for r in rep.rows}
        assert by["c"].fill_ratio >= 1.0
        assert by["f"].symmetry > by["c"].symmetry
        # n=120: 6n^2*4 = 345 KB < 1 MiB device -> fits
        assert not by["c"].needs_out_of_core
        assert "Matrix structural report" in str(rep)

    def test_out_of_core_flag(self):
        from repro.bench.matrix_report import matrix_report

        mats = {"c": circuit_like(200, 6.0, seed=108)}
        rep = matrix_report(mats, cfg(512 << 10))
        # 6 * 200^2 * 4 = 960 KB > 512 KB
        assert rep.rows[0].needs_out_of_core
