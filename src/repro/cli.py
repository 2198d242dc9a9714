"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     factorize a Matrix Market file and solve against a RHS
              (or all-ones), printing the residual and execution record.
``analyze``   structural report: pattern statistics, fill-in, levels,
              numeric-format decision — a Table 2-style row for any matrix.
``generate``  write a synthetic workload matrix (circuit/fem/mesh) to .mtx.
``report``    structural report table for several .mtx files at once.
``trace``     factorize a .mtx and write a Chrome trace of the simulated
              device timeline (load in chrome://tracing or Perfetto).
``export-suite``  write all scaled Table 2/4 instances + manifest to a dir.
``overlap-bench``, ``multigpu-bench``, ``serve-bench``, ``fleet-bench``
              the gated sweeps: transfer/compute overlap across chunk
              sizes (docs/streams.md), multi-GPU strong/weak scaling
              (docs/multigpu.md), the solver service at three cache
              capacities (docs/serving.md) and the fleet node sweep
              (docs/fleet.md).
``fault-drill``, ``churn-drill``, ``drift-bench``, ``supernodal-bench``
              the gated drills (see docs/faults.md, docs/churn.md,
              docs/incremental.md, docs/supernodal.md).
``table2``..``table4``, ``fig3``..``fig8``
              the paper's experiments, each gated by the paper's claims
              (``python -m repro.bench.experiments`` runs them all and
              writes EXPERIMENTS.md).
``ablate-levelize``, ``ablate-numeric``, ``ablate-format``, ``ablate-alg4``,
``ablate-memory``, ``ablate-costmodel``, ``ablate-supernodes``
              the ablations of the paper's design choices, each gated
              (also written to EXPERIMENTS.md).
              Every sweep, drill, paper experiment and ablation takes only
              ``--smoke`` and ``--seed``, prints its report and exits 1
              if any declared gate fails; its subcommand and perf
              scenario are generated from
              :data:`repro.bench.gates.EXPERIMENTS`.
``perf``      benchmark-snapshot subsystem: ``perf run`` captures a
              schema-versioned ``BENCH_*.json`` snapshot of the curated
              scenario suite, ``perf compare`` gates it against the
              committed baseline with per-metric tolerances, and
              ``perf update-baseline`` rewrites the baseline after an
              intentional perf change (see docs/benchmarking.md).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from . import SolverConfig, factorize
from .gpusim import scaled_device, scaled_host
from .sparse import (
    pattern_stats,
    read_matrix_market,
    residual_norm,
    write_matrix_market,
)


def _load(path):
    return read_matrix_market(path).to_csr()


def _config(args) -> SolverConfig:
    kw = {}
    if args.device_mb is not None:
        kw["device"] = scaled_device(int(args.device_mb * 2**20))
        kw["host"] = scaled_host(int(8 * args.device_mb * 2**20))
    if getattr(args, "symbolic", None):
        kw["symbolic_mode"] = args.symbolic
    if getattr(args, "format", None):
        kw["numeric_format"] = args.format
    return SolverConfig(**kw)


def cmd_solve(args) -> int:
    a = _load(args.matrix)
    if args.rhs:
        b = np.loadtxt(args.rhs, dtype=np.float64).reshape(-1)
    else:
        b = np.ones(a.n_rows)
    res = factorize(a, _config(args))
    x = res.solve(b)
    bd = res.breakdown()
    print(f"n={a.n_rows} nnz={a.nnz} fill-ins={res.fill_ins} "
          f"levels={res.schedule.num_levels} "
          f"format={res.numeric.data_format}")
    print(f"simulated: total {bd.total*1e3:.3f} ms "
          f"(symbolic {bd.symbolic*1e3:.3f}, levelize {bd.levelize*1e3:.3f}, "
          f"numeric {bd.numeric*1e3:.3f})")
    print(f"relative residual: {residual_norm(a, x, b):.3e}")
    if args.out:
        np.savetxt(args.out, x)
        print(f"solution written to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from .graph import build_dependency_graph, etree_height, kahn_levels
    from .symbolic import symbolic_fill_reference

    a = _load(args.matrix)
    st = pattern_stats(a)
    print(f"pattern: {st}")
    filled = symbolic_fill_reference(a)
    print(f"filled nnz: {filled.nnz} "
          f"(+{filled.nnz - a.nnz} fill-ins, "
          f"fill ratio {filled.nnz / max(a.nnz, 1):.2f}x)")
    sched = kahn_levels(build_dependency_graph(filled))
    widths = sched.columns_per_level()
    print(f"levelization: {sched.num_levels} levels "
          f"(max width {widths.max()}, mean {widths.mean():.1f})")
    print(f"etree height: {etree_height(filled)}")
    cfg = _config(args)
    n = a.n_rows
    scratch = cfg.scratch_bytes_per_row(n) * n
    print(f"all-rows symbolic scratch: {scratch / 2**20:.1f} MiB "
          f"(device {cfg.device.memory_bytes / 2**20:.1f} MiB -> "
          f"{'OUT-OF-CORE REQUIRED' if scratch > cfg.device.memory_bytes else 'fits'})")
    return 0


def cmd_generate(args) -> int:
    from .workloads import circuit_like, fem_like, mesh_like

    if args.kind == "circuit":
        a = circuit_like(args.n, args.density, seed=args.seed)
    elif args.kind == "fem":
        a = fem_like(args.n, args.density, seed=args.seed)
    else:
        a = mesh_like(args.n, seed=args.seed)
    write_matrix_market(args.out, a,
                        comment=f"repro synthetic {args.kind} matrix")
    print(f"wrote {a.n_rows}x{a.n_cols}, nnz={a.nnz} to {args.out}")
    return 0


def cmd_report(args) -> int:
    from .bench.matrix_report import matrix_report

    mats = {p.rsplit("/", 1)[-1]: _load(p) for p in args.matrices}
    print(matrix_report(mats, _config(args)))
    return 0


def cmd_trace(args) -> int:
    from .core import EndToEndLU
    from .gpusim import GPU, TracingGPU

    a = _load(args.matrix)
    cfg = _config(args)
    gpu = TracingGPU(GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model))
    res = EndToEndLU(cfg).factorize(a, gpu=gpu)
    gpu.write_chrome_trace(args.out)
    counts = gpu.event_counts()
    print(f"simulated {res.sim_seconds * 1e3:.3f} ms; "
          f"{sum(counts.values())} events "
          f"({counts.get('kernel', 0)} kernels, "
          f"{counts.get('transfer', 0)} transfers) -> {args.out}")
    return 0


def cmd_export_suite(args) -> int:
    from .workloads import export_suite

    manifest = export_suite(args.directory)
    print(f"suite written; manifest at {manifest}")
    return 0


def cmd_experiment(exp, args) -> int:
    report = exp.run(smoke=args.smoke, seed=args.seed)
    print(report)
    return 0 if report.passed else 1


def cmd_perf(args) -> int:
    from pathlib import Path

    if args.perf_command == "wallclock":
        from .perf.wallclock import run_under_budget

        command = list(args.command)
        if command and command[0] == "--":
            command = command[1:]
        if not command:
            print("perf wallclock: no command given (pass it after --)",
                  file=sys.stderr)
            return 2
        code, report = run_under_budget(
            args.label, command,
            budget_path=args.budget, out_path=args.out,
        )
        budget = report.budget_seconds
        if budget is None:
            print(f"wallclock [{args.label}]: {report.elapsed_seconds:.1f}s "
                  f"but no budget committed in {args.budget} — add one",
                  file=sys.stderr)
        else:
            verdict = "PASS" if code == 0 else "FAIL"
            print(f"wallclock [{args.label}]: {report.elapsed_seconds:.1f}s "
                  f"vs budget {budget:.1f}s -> {verdict}")
        return code

    from .perf import (
        DEFAULT_BASELINE,
        PerfSnapshot,
        TolerancePolicy,
        compare_snapshots,
        format_compare,
        run_suite,
        snapshot_filename,
    )

    if args.perf_command == "run":
        snap = run_suite(smoke=args.smoke)
        out = Path(args.out) if args.out else Path("benchmarks") / "results"
        if out.suffix != ".json":
            out = out / snapshot_filename(snap.created_at)
        path = snap.write(out)
        print(f"perf suite ({snap.mode}): {len(snap.scenarios)} scenarios "
              f"-> {path}")
        headline = ("total_seconds", "sim_seconds", "service_seconds")
        for rec in snap.scenarios:
            total = next(
                (rec.timings[k] for k in headline if k in rec.timings),
                sum(rec.timings.values()),
            )
            print(f"  {rec.name:<28s} {len(rec.counters)} counters, "
                  f"{len(rec.timings)} timings, sim {total * 1e3:.3f} ms")
        return 0

    baseline_path = Path(args.baseline)
    if args.perf_command == "update-baseline":
        snap = run_suite(smoke=args.smoke)
        path = snap.write(baseline_path)
        print(f"baseline ({snap.mode}) rewritten: {path}")
        print("commit this file to make the new numbers the gate.")
        return 0

    # compare
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path} "
              f"(expected {DEFAULT_BASELINE}); run "
              "`repro perf update-baseline` first", file=sys.stderr)
        return 2
    baseline = PerfSnapshot.load(baseline_path)
    if args.snapshot:
        current = PerfSnapshot.load(args.snapshot)
    else:
        current = run_suite(smoke=baseline.mode == "smoke")
    policy = TolerancePolicy(timing_tolerance_pct=args.tolerance_pct)
    report = compare_snapshots(current, baseline, policy)
    print(format_compare(report))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="End-to-end sparse LU factorization on a simulated GPU "
                    "(PPoPP'23 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_device(sp):
        sp.add_argument("--device-mb", type=float, default=None,
                        help="simulated device memory in MiB "
                             "(default: full 16 GiB V100)")

    sp = sub.add_parser("solve", help="factorize a .mtx file and solve")
    sp.add_argument("matrix")
    sp.add_argument("--rhs", help="text file with the right-hand side")
    sp.add_argument("--out", help="write the solution vector here")
    sp.add_argument("--symbolic",
                    choices=["outofcore", "unified", "incore"])
    sp.add_argument("--format", choices=["auto", "dense", "csc"])
    add_device(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("analyze", help="structural report for a .mtx file")
    sp.add_argument("matrix")
    add_device(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("generate", help="write a synthetic matrix")
    sp.add_argument("kind", choices=["circuit", "fem", "mesh"])
    sp.add_argument("out")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--density", type=float, default=8.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("report", help="structural report for .mtx files")
    sp.add_argument("matrices", nargs="+")
    add_device(sp)
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("trace", help="write a Chrome trace of a solve")
    sp.add_argument("matrix")
    sp.add_argument("out")
    add_device(sp)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("export-suite",
                        help="write the scaled Table 2/4 suite to a dir")
    sp.add_argument("directory")
    sp.set_defaults(fn=cmd_export_suite)

    from .bench.gates import EXPERIMENTS

    for exp in EXPERIMENTS:
        sp = sub.add_parser(exp.command, help=exp.help)
        sp.add_argument("--smoke", action="store_true",
                        help="small instances (CI-sized run)")
        sp.add_argument("--seed", type=int, default=0,
                        help="workload/fault seed (same seed -> "
                             "identical run)")
        sp.set_defaults(fn=partial(cmd_experiment, exp))

    sp = sub.add_parser(
        "perf",
        help="benchmark snapshots + regression gate "
             "(run | compare | update-baseline)",
    )
    perf_sub = sp.add_subparsers(dest="perf_command", required=True)
    default_baseline = "benchmarks/baselines/perf_baseline.json"

    pp = perf_sub.add_parser(
        "run", help="execute the scenario suite and write BENCH_*.json"
    )
    pp.add_argument("--smoke", action="store_true",
                    help="CI-sized scenarios (what the perf gate runs)")
    pp.add_argument("--out",
                    help="output file (.json) or directory "
                         "(default: benchmarks/results/)")
    pp.set_defaults(fn=cmd_perf)

    pp = perf_sub.add_parser(
        "compare",
        help="gate a snapshot against the committed baseline "
             "(exit 1 on regression)",
    )
    pp.add_argument("snapshot", nargs="?",
                    help="snapshot file to check; omitted = run the "
                         "suite fresh in the baseline's mode")
    pp.add_argument("--baseline", default=default_baseline,
                    help="baseline snapshot path")
    pp.add_argument("--tolerance-pct", type=float, default=10.0,
                    help="relative band for simulated timings "
                         "(counters are always exact)")
    pp.set_defaults(fn=cmd_perf)

    pp = perf_sub.add_parser(
        "update-baseline",
        help="re-run the suite and overwrite the committed baseline "
             "(for intentional perf changes)",
    )
    pp.add_argument("--smoke", action="store_true",
                    help="record a smoke-mode baseline (the CI gate mode)")
    pp.add_argument("--baseline", default=default_baseline,
                    help="baseline snapshot path to rewrite")
    pp.set_defaults(fn=cmd_perf)

    pp = perf_sub.add_parser(
        "wallclock",
        help="run a command under a committed wall-clock budget "
             "(exit 1 over budget, 2 if no budget entry)",
    )
    pp.add_argument("--label", required=True,
                    help="budget entry to enforce (e.g. tier1)")
    pp.add_argument("--budget",
                    default="benchmarks/baselines/ci_budget.json",
                    help="committed budget file")
    pp.add_argument("--out", help="write the JSON report here "
                                  "(the CI timing artifact)")
    pp.add_argument("command", nargs=argparse.REMAINDER,
                    help="command to run and time (after --)")
    pp.set_defaults(fn=cmd_perf)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
