"""Compare two sets of end-to-end benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A/ B/

``A`` (the parent) and ``B`` (the change) are directories of untraced
run records written by ``run.py --out``.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints both sides' median
and quartiles and a verdict:

* ``worse`` -- B's median is worse than A's by more than the metric's
  bound, and either both sides' spreads are within the bound or every
  B run is worse than every A run;
* ``unresolved`` -- a spread (interquartile range over median) exceeds
  the bound and not every B run beats every A run;
* ``unchanged`` -- otherwise.

With at least ten pairs of runs (the i-th A run and the i-th B run by
start time; run them alternately) it also applies the claim rule: B
``gains`` when it wins at least nine tenths of the pairs, ties counting
for neither, and the medians differ by more than A's interquartile
range.

Correctness is compared too: B may fail no more operations than A, and
its largest backward error may not exceed ten times A's or 1e-12.  For
seeds run on both sides it reports whether the simulated metrics, the
backward error and the failed fraction read identically.

Exit status 1 if anything is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
BACKWARD_ERROR_LIMIT = 1e-12


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records under ``directory``, by workload, in start
    order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") or "workload" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(better: str, bound: float, a: list[float],
            b: list[float]) -> tuple[str, float]:
    """(verdict, relative change of B's median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    if med_a:
        worse_by = sign * (med_b - med_a) / abs(med_a)
    else:
        worse_by = 0.0 if med_b == med_a else float("inf")
    noisy = max(spread(a), spread(b)) > bound
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if worse_by > bound and (not noisy or all_worse):
        return "worse", worse_by
    if noisy and not all_better:
        return "unresolved", worse_by
    return "unchanged", worse_by


def claim(better: str, a: list[float], b: list[float]) -> str:
    """The gain rule over start-ordered pairs ("-" below ten pairs)."""
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    shift = sign * (med_b - med_a) < 0 and abs(med_b - med_a) > q3 - q1
    won = f"{wins}/{len(pairs)}"
    return f"gain {won}" if wins >= 0.9 * len(pairs) and shift else won


def correctness(a: list[dict], b: list[dict]) -> list[str]:
    """Problems that make B worse regardless of speed."""
    problems = []
    failed_a = sum(r["failed"] for r in a)
    failed_b = sum(r["failed"] for r in b)
    if failed_b > failed_a:
        problems.append(f"failed operations {failed_a} -> {failed_b}")
    err_a = [r["metrics"]["backward_error_max"]["value"] for r in a]
    err_b = [r["metrics"]["backward_error_max"]["value"] for r in b]
    if max(err_b) > BACKWARD_ERROR_LIMIT or (
        quartiles(err_b)[1] > 10 * quartiles(err_a)[1]
    ):
        problems.append(
            f"backward error median {quartiles(err_a)[1]:.3g} -> "
            f"{quartiles(err_b)[1]:.3g}, max {max(err_b):.3g}"
        )
    return problems


#: metrics a seed fixes exactly: simulated time and the outputs' checks
DETERMINISTIC = ("sim_", "backward_error_max", "failed_frac")


def same_seed_diff(a: list[dict], b: list[dict]) -> tuple[int, list[str]]:
    """Seeds run on both sides, and the deterministic metrics that read
    differently on one of them."""
    first_a = {r["seed"]: r["metrics"] for r in reversed(a)}
    first_b = {r["seed"]: r["metrics"] for r in reversed(b)}
    seeds = sorted(set(first_a) & set(first_b))
    differ = sorted({
        name
        for s in seeds
        for name, m in first_a[s].items()
        if name.startswith(DETERMINISTIC)
        and m["value"] != first_b[s][name]["value"]
    })
    return len(seeds), differ


def compare(dir_a: Path, dir_b: Path, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything is worse."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    lines = [
        f"{'workload':16} {'metric':20} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6} verdict"
    ]
    any_worse = False
    for w in spec["workloads"]:
        name = w["name"]
        a, b = runs_a.get(name, []), runs_b.get(name, [])
        if not a or not b:
            lines.append(f"{name:16} missing runs (A {len(a)}, B {len(b)})")
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            result, change = verdict(m["better"], m["bound"], va, vb)
            any_worse |= result == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            lines.append(
                f"{name:16} {m['name']:20} "
                f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
                f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                f"{change:>+8.1%} {m['bound']:>6.0%} {result} "
                f"{claim(m['better'], va, vb)}"
            )
        for problem in correctness(a, b):
            any_worse = True
            lines.append(f"{name:16} correctness worse: {problem}")
        seeds, differ = same_seed_diff(a, b)
        if seeds:
            state = ("differ: " + ", ".join(differ)) if differ else (
                "identical"
            )
            lines.append(
                f"{name:16} sim_*, backward_error_max, failed_frac on "
                f"{seeds} shared seed(s): "
                f"{state}"
            )
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="runs of the parent")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    lines, any_worse = compare(args.a, args.b, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
