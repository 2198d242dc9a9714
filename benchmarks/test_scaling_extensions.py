"""Extension benches: multi-device symbolic scaling, streamed numeric."""

import pytest

from repro.core import SolverConfig, multi_gpu_symbolic
from repro.gpusim import scaled_device, scaled_host


@pytest.mark.multigpu
def test_multi_device_scaling(once):
    """Sharded symbolic scales with devices; the heavy-tail block bounds
    efficiency (the distributed-GSOFA regime, §2.1)."""
    from repro.workloads import circuit_like

    def run():
        cfg = SolverConfig(device=scaled_device(16 << 20),
                           host=scaled_host(128 << 20))
        a = circuit_like(1500, 7.0, seed=7)
        t1 = multi_gpu_symbolic(a, cfg, num_devices=1)
        return t1, [
            (d, multi_gpu_symbolic(a, cfg, num_devices=d))
            for d in (2, 4, 8)
        ]

    t1, results = once(run)
    prev = t1.makespan_seconds
    print(f"\n  1 device: {t1.makespan_seconds * 1e3:.3f} ms")
    for d, res in results:
        assert res.makespan_seconds < prev  # monotone scaling
        prev = res.makespan_seconds
        eff = res.parallel_efficiency(t1.makespan_seconds)
        print(f"  {d} devices: {res.makespan_seconds * 1e3:.3f} ms "
              f"(efficiency {eff:.2f}, balance {res.balance():.2f})")
    d2 = dict(results)
    assert d2[2].parallel_efficiency(t1.makespan_seconds) > 0.6


@pytest.mark.streams
def test_streamed_numeric_overhead(once):
    """Out-of-core *numeric* factorization (beyond the paper: the filled
    matrix itself exceeds device memory): identical factors, bounded
    streaming overhead that shrinks as the device window grows."""
    from repro.core import (
        SolverConfig,
        numeric_factorize_gpu,
        numeric_factorize_outofcore,
    )
    from repro.gpusim import GPU
    from repro.graph import build_dependency_graph, kahn_levels
    from repro.symbolic import symbolic_fill_reference
    from repro.workloads import circuit_like

    def run():
        a = circuit_like(600, 8.0, seed=31)
        filled = symbolic_fill_reference(a)
        sched = kahn_levels(build_dependency_graph(filled))
        rows = []
        base = None
        for mem_kb in (96, 256, 1024, 65536):
            dev = scaled_device(mem_kb << 10)
            cfg = SolverConfig(device=dev, host=scaled_host(512 << 20))
            gpu = GPU(spec=dev, host=cfg.host, cost=cfg.cost_model)
            res, stats = numeric_factorize_outofcore(
                gpu, filled, sched, cfg, segment_columns=16
            )
            if base is None:
                incore_gpu = GPU(spec=scaled_device(64 << 20),
                                 host=cfg.host, cost=cfg.cost_model)
                base = numeric_factorize_gpu(
                    incore_gpu, filled.to_csc(), filled, sched,
                    SolverConfig(device=incore_gpu.spec, host=cfg.host,
                                 numeric_format="csc"),
                )
                assert base.As.allclose(res.As)
            rows.append((mem_kb, res.sim_seconds, stats.loads,
                         stats.writebacks))
        return base, rows

    base, rows = once(run)
    times = [t for _, t, _, _ in rows]
    assert times == sorted(times, reverse=True) or max(times) <= min(times) * 1.5
    print(f"\n  in-core csc numeric: {base.sim_seconds * 1e3:.3f} ms")
    for mem_kb, t, loads, wb in rows:
        print(f"  window {mem_kb:6d} KiB: {t * 1e3:.3f} ms "
              f"({loads} loads, {wb} writebacks, "
              f"{t / base.sim_seconds:.2f}x in-core)")
