"""Scaling study: device memory, device count, and execution tracing.

A research-workflow tour of the performance-analysis tooling:

1. sweep simulated device memory to see the out-of-core overhead curve
   (how much slower is symbolic factorization when intermediates don't
   fit?);
2. shard the symbolic phase over 1-8 simulated GPUs (the distributed-GSOFA
   regime the paper's related work describes) and report scaling
   efficiency;
3. record a full pipeline run with the tracing GPU and export a Chrome
   trace (open in chrome://tracing or https://ui.perfetto.dev).

Usage::

    python examples/scaling_study.py [trace_out.json]
"""

import sys

from repro.bench.ablations import run_memory
from repro.core import EndToEndLU, SolverConfig, multi_gpu_symbolic
from repro.gpusim import GPU, TracingGPU, scaled_device, scaled_host
from repro.workloads import circuit_like


def main() -> None:
    # ---- 1. out-of-core overhead vs device memory ----------------------
    sweep = run_memory()
    print(sweep)
    assert sweep.passed
    worst = max(p.overhead for p in sweep.rows)
    print(f"-> worst out-of-core overhead: {worst:.2f}x the in-core run\n")

    # ---- 2. multi-device scaling ------------------------------------------
    cfg = SolverConfig(
        device=scaled_device(16 << 20), host=scaled_host(128 << 20)
    )
    a = circuit_like(1500, 7.0, seed=17)
    t1 = multi_gpu_symbolic(a, cfg, num_devices=1)
    print(f"multi-device symbolic (n={a.n_rows}):")
    print(f"  1 device : {t1.makespan_seconds * 1e3:8.3f} ms")
    for d in (2, 4, 8):
        res = multi_gpu_symbolic(a, cfg, num_devices=d)
        eff = res.parallel_efficiency(t1.makespan_seconds)
        print(
            f"  {d} devices: {res.makespan_seconds * 1e3:8.3f} ms  "
            f"(efficiency {eff:.2f}, balance {res.balance():.2f})"
        )
    print(
        "  -> the block holding the high-frontier tail bounds scaling,\n"
        "     the same frontier limitation the paper notes for Alg. 4\n"
    )

    # ---- 3. execution trace --------------------------------------------------
    out = sys.argv[1] if len(sys.argv) > 1 else "pipeline_trace.json"
    gpu = TracingGPU(GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model))
    res = EndToEndLU(cfg).factorize(a, gpu=gpu)
    gpu.write_chrome_trace(out)
    counts = gpu.event_counts()
    print(res.report())
    print(
        f"\ntrace: {sum(counts.values())} events "
        f"({counts.get('kernel', 0)} kernels, "
        f"{counts.get('transfer', 0)} transfers, "
        f"{counts.get('alloc', 0)} allocations) -> {out}"
    )


if __name__ == "__main__":
    main()
