"""Run one workload of the end-to-end benchmark and report its metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload cold_factorize --seed 0 \\
        [--seconds 15] [--trace 0|1] [--smoke] [--out run.json]

The run sets its inputs up from ``--seed`` several times (``setup_s``
is the median; the one-time import is recorded apart as ``import_s``),
runs one untimed round whose simulated clocks give the simulated
metrics (it also warms the allocator and the program's caches), then
repeats identical timed rounds until ``--seconds`` have been measured
(at least three rounds), and finally checks every output of every
round.  Host-clock metrics are given at a reference host speed (see
``HostSpeed``) and take each operation's median over the timed rounds;
simulated metrics are deterministic for a seed.

It prints one ``metric <name> <value> <unit>`` line per metric and, as
the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
untraced, its per-layer metrics with ``--trace 1``.  ``--out`` also
writes the full record (and, traced, a Chrome trace beside it).

Exit status 2 means the run could not start: the ``repro`` sources are
missing or ``REPRO_SLOW_HOST_LOOPS`` would swap in the scalar oracles.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a run sets up at least SETUP_REPS times and for at least
#: SETUP_SECONDS (capped by --seconds), so that short set-ups get enough
#: samples for a steady median; it makes at least MIN_ROUNDS timed
#: rounds, so that each operation's median means something
SETUP_REPS = 3
SETUP_SECONDS = 1.0
MIN_ROUNDS = 3
#: host times are reported at the speed at which ``HostSpeed.probe``
#: takes this long (about its time on an unloaded 2-vCPU Xeon VM)
REFERENCE_PROBE_NS = 1_000_000
#: metrics reported beside BENCHMARK.json's end-to-end set
EXTRA_UNITS = {"backward_error_max": "ratio", "failed_frac": "ratio"}


class StartError(Exception):
    """The benchmark cannot run here (exit status 2)."""


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare_environment() -> None:
    """Single-threaded BLAS before numpy loads, and this checkout's
    ``src`` first on the import path."""
    if os.environ.get("REPRO_SLOW_HOST_LOOPS"):
        raise StartError(
            "REPRO_SLOW_HOST_LOOPS is set: it swaps in the scalar oracle "
            "loops, so the run would measure a different program; unset it"
        )
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise StartError(f"repro sources not found under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(HERE), str(src)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise StartError(f"imported repro from {repro.__file__}, not {src}")


class HostSpeed:
    """A fixed piece of host work in the benchmark's own mix (a Python
    dictionary loop, and gathers, sorts and scatters on small numpy
    arrays), timed right before and right after every measured interval.

    The host is shared, and how fast it runs the same code moves by up
    to a factor of two within a minute; the probe moves with it.  An
    interval of length ``d`` is scaled by ``REFERENCE_PROBE_NS`` over the
    median of the probes taken within ``d`` (plus a few milliseconds, so
    that the two beside it always count) on either side: a long
    operation averages out the quick swings that one 1 ms probe catches,
    so its speed is read over a window as long as itself."""

    REPS = 20
    #: how far beyond the window the probes beside an interval may lie
    MARGIN_NS = 5_000_000

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.normal(size=2048)
        self._idx = rng.integers(0, 2048, 2048)
        self._table = {i: i * 7 % 13 for i in range(512)}
        #: (midpoint, nanoseconds) of every probe, in time order
        self.samples: list[tuple[int, int]] = []

    def probe(self) -> None:
        import numpy as np

        t0 = perf_counter_ns()
        for _ in range(self.REPS):
            s = 0
            for k, v in self._table.items():
                s += v if k & 1 else -v
            y = np.sort(self._x[self._idx])
            np.cumsum(y) @ self._x
            np.add.at(y, self._idx[:256], 1.0)
        t1 = perf_counter_ns()
        self.samples.append(((t0 + t1) // 2, t1 - t0))

    def at_reference(self, start: int, end: int) -> float:
        """Nanoseconds of the interval at reference speed; call it once
        the probes after the interval have run."""
        reach = end - start + self.MARGIN_NS
        near = [
            ns for mid, ns in self.samples
            if start - reach <= mid <= end + reach
        ]
        return (end - start) * REFERENCE_PROBE_NS / statistics.median(near)


class Timer:
    """Times each operation; given a tracer, also opens its root span,
    and given a ``HostSpeed``, also probes it before and after (outside
    the span)."""

    def __init__(self, tracer=None, speed: HostSpeed | None = None
                 ) -> None:
        self.tracer = tracer
        self.speed = speed
        #: (label, start ns, end ns) per timed operation, in order
        self.ops: list[tuple[str, int, int]] = []

    @contextmanager
    def op(self, label: str):
        span = (
            self.tracer.root(label) if self.tracer is not None
            else nullcontext()
        )
        if self.speed is not None:
            self.speed.probe()
        t0 = perf_counter_ns()
        try:
            with span:
                yield
        finally:
            self.ops.append((label, t0, perf_counter_ns()))
            if self.speed is not None:
                self.speed.probe()


def git_head() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_start: tuple[float, ...]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_head": git_head(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, n: int, sim_layers: dict, cost_ns: float
                  ) -> dict:
    """Per-layer numbers of a traced run of ``n`` timed rounds: each
    layer's share of the timed host time (and its seconds per round),
    calls and counts per round, and the simulated readings."""
    from spans import COUNT_NAMES, ROOT_STEM, STEMS, WRAPPED

    total = tracer.root_ns
    out: dict[str, float] = {}
    for stem in (*STEMS, ROOT_STEM):
        ns = tracer.self_ns.get(stem, 0)
        out[f"{stem}.host_frac"] = ns / total if total else 0.0
        out[f"{stem}.host_s"] = ns / 1e9 / n
    calls = {stem: 0 for stem in STEMS}
    for spec in WRAPPED:
        calls[spec.stem] += tracer.calls[spec.target]
    for stem in ("preprocess", "trisolve"):
        out[f"{stem}.calls"] = calls[stem] / n
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name] / n
    out["trace.overhead_frac"] = (
        tracer.wrapped_calls * cost_ns / total if total else 0.0
    )
    out.update(sim_layers)
    return out


def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: float = 0.0,
    trace: bool = False,
    smoke: bool = False,
) -> tuple[dict, object]:
    """Set up, measure and check one workload; returns the full record
    and the tracer (``None`` untraced)."""
    t0 = perf_counter()
    prepare_environment()
    from spans import Tracer, wrapper_cost_ns
    from workloads import WORKLOADS

    import_s = perf_counter() - t0
    started_at = time.time()
    load_start = os.getloadavg()
    workload = WORKLOADS[name]

    speed = HostSpeed()
    setups = Timer(speed=speed)
    while len(setups.ops) < SETUP_REPS or (
        sum(end - start for _, start, end in setups.ops) / 1e9
        < min(seconds, SETUP_SECONDS)
    ):
        state = None  # never hold two set-ups at once
        with setups.op("setup"):
            state = workload.setup(seed, smoke)

    # an untimed first round reads the simulated clocks, and lets the
    # allocator and the program's caches warm up before timing starts
    gc.collect()
    first = workload.run_round(state, Timer(), True)
    tracer = Tracer() if trace else None
    cost_ns = wrapper_cost_ns() if trace else 0.0
    timer = Timer(tracer, speed)
    timed = []
    #: per timed round, the slice of ``timer.ops`` it ran
    rounds: list[slice] = []
    if tracer is not None:
        tracer.install()
    try:
        t_begin = perf_counter()
        while not timed or (
            seconds > 0
            and (perf_counter() - t_begin < seconds
                 or len(timed) < MIN_ROUNDS)
        ):
            # free the previous round's service or fleet (their
            # reference cycles would otherwise wait for the collector)
            gc.collect()
            first_op = len(timer.ops)
            timed.append(workload.run_round(state, timer, False))
            rounds.append(slice(first_op, len(timer.ops)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # rounds repeat the same operations in the same order, so the median
    # of each operation over the rounds, summed, is a round without what
    # a burst the probes missed added to one round's stretch
    at_reference = [
        [speed.at_reference(start, end) for _, start, end in timer.ops[r]]
        for r in rounds
    ]
    median_round_s = sum(
        statistics.median(op) for op in zip(*at_reference)
    ) / 1e9
    round_s = [
        sum(end - start for _, start, end in timer.ops[r]) / 1e9
        for r in rounds
    ]

    report = workload.check(state, [first, *timed])
    ops = workload.ops_per_round(state)
    attempted = ops * (1 + len(timed))
    failed = len(report["failures"])
    values = {
        "ops_per_s": ops / median_round_s,
        "sim_s": first.sim_s,
        "sim_latency_p50_ms": percentile(first.latencies_s, 50) * 1e3,
        "sim_latency_p95_ms": percentile(first.latencies_s, 95) * 1e3,
        "backward_error_max": report["backward_error_max"],
        "failed_frac": failed / attempted,
        "setup_s": statistics.median(
            speed.at_reference(start, end) for _, start, end in setups.ops
        ) / 1e9,
        "peak_rss_mb": peak_rss_mb,
    }
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(EXTRA_UNITS)
    per_op: dict[str, list[int]] = {}
    for label, start, end in timer.ops:
        per_op.setdefault(label, []).append(end - start)
    diagnostics = {
        f"op.{label}.wall_p50_ms": statistics.median(ns) / 1e6
        for label, ns in per_op.items()
    }
    diagnostics["wall_ops_per_s"] = ops / statistics.median(round_s)
    diagnostics["probe_p50_ms"] = statistics.median(
        ns for _, ns in speed.samples
    ) / 1e6
    diagnostics.update(
        (k, v) for k, v in report.items()
        if k not in ("failures", "backward_error_max")
    )
    layers = {}
    if tracer is not None:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {
            # beyond BENCHMARK.json's names: seconds per round
            k: {"value": v, "unit": layer_units.get(k, "s")}
            for k, v in layer_metrics(
                tracer, len(timed), first.layers, cost_ns
            ).items()
        }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "started_at": started_at,
        "rounds": len(timed),
        "round_s": round_s,
        "median_round_s": median_round_s,
        "setup_runs_s": [
            (end - start) / 1e9 for _, start, end in setups.ops
        ],
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(report["failures"].values()))[:20],
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in values.items()
        },
        "layer_metrics": layers,
        "diagnostics": diagnostics,
        "env": environment(load_start),
    }
    return record, tracer


def result_line(record: dict, spec: dict) -> dict:
    """The last stdout line: correctness counts and the metrics
    BENCHMARK.json names for this kind of run."""
    if record["trace"]:
        names, source = spec["per_layer"], record["layer_metrics"]
    else:
        names, source = spec["end_to_end"], record["metrics"]
    metrics = {
        m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
        for m in names
    }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single round")
    parser.add_argument("--out", type=Path,
                        help="write the full record here as JSON")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        record, tracer = run_workload(
            args.workload,
            seed=args.seed,
            seconds=0.0 if args.smoke else args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
        )
    except StartError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            tracer.write_chrome_trace(args.out.with_suffix(".trace.json"))
    summary = result_line(record, spec)
    for name, m in summary["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not record["trace"]:
        for name in EXTRA_UNITS:
            m = record["metrics"][name]
            print(f"metric {name} {m['value']!r} {m['unit']}")
    for why in record["failures"]:
        print(f"failure {why}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
