"""Out-of-core numeric factorization: streamed segments, identical factors."""

import pytest

from repro.core import (
    SolverConfig,
    numeric_factorize_gpu,
    numeric_factorize_outofcore,
)
from repro.core.numeric_gpu import launch_inputs
from repro.gpusim import GPU, GPUProxy, scaled_device, scaled_host
from repro.streams import StreamedGPU
from repro.graph import build_dependency_graph, kahn_levels
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like


@pytest.fixture(scope="module")
def setup():
    a = circuit_like(300, 7.0, seed=171)
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    return a, filled, sched


def gpu_of(mem):
    return GPU(spec=scaled_device(mem), host=scaled_host(64 << 20))


def cfg(mem):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


class TestStreamedNumeric:
    def test_factors_identical_to_incore(self, setup):
        a, filled, sched = setup
        incore = numeric_factorize_gpu(
            gpu_of(64 << 20), filled.to_csc(), filled, sched, cfg(64 << 20)
        )
        streamed, _ = numeric_factorize_outofcore(
            gpu_of(1 << 20), filled, sched, cfg(1 << 20)
        )
        assert incore.As.allclose(streamed.As)

    def test_streaming_traffic_appears_under_pressure(self, setup):
        a, filled, sched = setup
        # 64 KiB device window over ~160 KiB of fine-grained segments
        tight_gpu = gpu_of(64 << 10)
        _, stats = numeric_factorize_outofcore(
            tight_gpu, filled, sched, cfg(64 << 10), segment_columns=8
        )
        assert stats.loads > stats.segments  # segments reloaded (thrash)
        assert stats.writebacks > 0
        assert tight_gpu.ledger.get_count("bytes_h2d") > 0

    def test_roomy_window_loads_each_segment_once(self, setup):
        a, filled, sched = setup
        roomy_gpu = gpu_of(64 << 20)
        _, stats = numeric_factorize_outofcore(
            roomy_gpu, filled, sched, cfg(64 << 20)
        )
        assert stats.loads == stats.segments  # every segment exactly once

    def test_tight_memory_slower(self, setup):
        a, filled, sched = setup
        g_tight, g_roomy = gpu_of(64 << 10), gpu_of(64 << 20)
        t_tight, _ = numeric_factorize_outofcore(
            g_tight, filled, sched, cfg(64 << 10), segment_columns=8
        )
        t_roomy, _ = numeric_factorize_outofcore(
            g_roomy, filled, sched, cfg(64 << 20), segment_columns=8
        )
        assert t_tight.sim_seconds > t_roomy.sim_seconds

    def test_format_label_and_solvability(self, setup, rng):
        a, filled, sched = setup
        res, _ = numeric_factorize_outofcore(
            gpu_of(1 << 20), filled, sched, cfg(1 << 20)
        )
        assert res.data_format == "csc-streamed"
        L, U = res.factors()
        from repro.numeric import lu_solve
        from repro.sparse import residual_norm

        b = rng.normal(size=a.n_rows)
        assert residual_norm(a, lu_solve(L, U, b), b) < 1e-9

    def test_segment_width_knob(self, setup):
        a, filled, sched = setup
        _, s32 = numeric_factorize_outofcore(
            gpu_of(1 << 20), filled, sched, cfg(1 << 20), segment_columns=32
        )
        _, s128 = numeric_factorize_outofcore(
            gpu_of(1 << 20), filled, sched, cfg(1 << 20),
            segment_columns=128,
        )
        assert s32.segments > s128.segments


@pytest.mark.streams
def test_roomy_window_issues_the_incore_csc_launches(setup, monkeypatch):
    """With a window that holds every segment, the streamed executor
    issues exactly the in-core CSC executor's kernels (GLU 3.0's A/B/C
    launches): the same ``(flops, blocks, search_steps, cap)`` sequence,
    serially and on its compute stream under overlap.  The in-core run
    goes through a proxy, which issues every launch."""
    a, filled, sched = setup
    calls: list[tuple[int, int, int, int | None]] = []
    real = GPU.launch_numeric
    real_async = StreamedGPU.launch_numeric_async

    def record(self, flops, blocks, *, concurrency_cap=None,
               search_steps=0, **kw):
        calls.append((flops, blocks, search_steps, concurrency_cap))
        return real(self, flops, blocks, concurrency_cap=concurrency_cap,
                    search_steps=search_steps, **kw)

    def record_async(self, flops, blocks, stream="compute", *,
                     concurrency_cap=None, search_steps=0):
        calls.append((flops, blocks, search_steps, concurrency_cap))
        return real_async(self, flops, blocks, stream,
                          concurrency_cap=concurrency_cap,
                          search_steps=search_steps)

    monkeypatch.setattr(GPU, "launch_numeric", record)
    monkeypatch.setattr(StreamedGPU, "launch_numeric_async", record_async)
    mem = 64 << 20
    numeric_factorize_gpu(
        GPUProxy(gpu_of(mem)), filled.to_csc(), filled, sched,
        SolverConfig(device=scaled_device(mem), numeric_format="csc"),
    )
    want = list(calls)
    tags = launch_inputs(filled, sched).tags(sched, None)
    assert set(tags) == {"A", "B", "C"}
    for overlap in (False, True):
        calls.clear()
        gpu = StreamedGPU(gpu_of(mem)) if overlap else gpu_of(mem)
        conf = SolverConfig(device=scaled_device(mem), overlap=overlap)
        _, stats = numeric_factorize_outofcore(gpu, filled, sched, conf)
        assert stats.loads == stats.segments
        assert calls == want, overlap


class TestPipelineAutoStreaming:
    def test_pipeline_streams_when_filled_exceeds_device(self, rng):
        """End-to-end: a device too small for even the filled matrix
        automatically switches to the streamed numeric executor."""
        from repro import SolverConfig, factorize
        from repro.sparse import residual_norm

        a = circuit_like(300, 7.0, seed=171)
        tight = SolverConfig(device=scaled_device(96 << 10),
                             host=scaled_host(16 << 20))
        roomy = SolverConfig(device=scaled_device(32 << 20),
                             host=scaled_host(256 << 20))
        r_tight = factorize(a, tight)
        r_roomy = factorize(a, roomy)
        assert r_tight.numeric.data_format == "csc-streamed"
        assert r_roomy.numeric.data_format in ("dense", "csc")
        # identical factors, as always
        assert r_tight.L.allclose(r_roomy.L)
        assert r_tight.U.allclose(r_roomy.U)
        b = rng.normal(size=a.n_rows)
        assert residual_norm(a, r_tight.solve(b), b) < 1e-9
        # and the tight run streamed its symbolic output to the host
        assert (r_tight.gpu.ledger.get_count("bytes_d2h")
                > r_roomy.gpu.ledger.get_count("bytes_d2h"))
