"""Fold a directory of runs into one trajectory snapshot.

Usage (from the repository root)::

    python3 benchmarks/e2e/snapshot.py RUNS/ \\
        benchmarks/e2e/results/BENCH_<k>.json

``RUNS`` holds records written by ``run.py --out``: untraced runs (the
snapshot keeps each end-to-end metric's median and quartiles per
workload) and, per workload, optionally one traced run (its per-layer
metrics are kept as they are).  The environment of the last run is kept
as provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from compare import load_runs, quartiles


def snapshot(runs_dir: Path) -> dict:
    untraced = load_runs(runs_dir)
    traced: dict[str, dict] = {}
    for path in sorted(runs_dir.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace"):
            traced[record["workload"]] = record
    workloads = {}
    env = {}
    for name, records in untraced.items():
        metrics = {}
        for metric, m in records[0]["metrics"].items():
            q1, med, q3 = quartiles(
                [r["metrics"][metric]["value"] for r in records]
            )
            metrics[metric] = {
                "median": med, "q1": q1, "q3": q3, "unit": m["unit"]
            }
        layers = traced.get(name, {}).get("layer_metrics", {})
        workloads[name] = {
            "runs": len(records),
            "seeds": sorted({r["seed"] for r in records}),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
            "diagnostics": records[-1]["diagnostics"],
            "layer_metrics": layers,
        }
        env = records[-1]["env"]
    return {"workloads": workloads, "env": env}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(snapshot(args.runs), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
