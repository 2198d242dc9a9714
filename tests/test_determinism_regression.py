"""Determinism regression: same seed → byte-identical reports.

Guards the enqueue-time scheduling invariant that the interconnect
model must preserve: every simulated timeline — each registered sweep
and drill, per-device ledgers, peer-transfer logs — is a pure function
of (input, seed, config).  Each check runs the full entry point twice
and compares the rendered output byte-for-byte; for a registered
entry, one of the two runs is the session's shared smoke run.
"""

import json

import pytest

from repro import cli
from repro.bench.gates import EXPERIMENTS

pytestmark = pytest.mark.multigpu


def _run_cli(capsys, argv) -> str:
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return out


#: what a command's report must also say, beyond being byte-identical
_EXPECTED_LINES = {
    "fault-drill": "determinism: identical event logs",
    "supernodal-bench": "verdict: PASS",
}


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda e: e.command)
def test_same_seed_report_byte_identical(exp, capsys, smoke_report):
    first = exp.format(smoke_report(exp, 3)) + "\n"
    assert _run_cli(capsys, [exp.command, "--smoke", "--seed", "3"]) == first
    assert _EXPECTED_LINES.get(exp.command, "") in first
    if exp.command == "multigpu-bench":
        # the overlap sweep books halo sends through copy engines, under
        # the same invariant, and its rows differ from the blocking ones
        off, on = first.split("multi-GPU ")[1:]
        assert "overlap off" in off and "overlap on" in on
        assert off.splitlines()[2:] != on.splitlines()[2:]


def test_multigpu_execution_record_identical():
    import dataclasses

    from repro.core import SolverConfig, multi_gpu_endtoend
    from repro.workloads.registry import by_abbr

    a = dataclasses.replace(by_abbr("OT2"), n_scaled=96).generate()
    runs = [
        multi_gpu_endtoend(a, SolverConfig(), num_devices=3)
        for _ in range(2)
    ]
    rec0, rec1 = (json.dumps(r.perf_record(), sort_keys=True)
                  for r in runs)
    assert rec0 == rec1
    snap0, snap1 = (json.dumps(r.interconnect.snapshot(), sort_keys=True)
                    for r in runs)
    assert snap0 == snap1
    trace0, trace1 = (json.dumps(r.to_chrome_trace()) for r in runs)
    assert trace0 == trace1


def test_supernodal_run_and_scenario_identical():
    """The supernodal e2e run (ledger snapshot + perf record) and the
    committed ``supernodal/e2e`` perf scenario are pure functions of
    (input, config) — rerunning produces byte-identical records."""
    import dataclasses

    from repro.core import EndToEndLU, SolverConfig
    from repro.perf.suite import run_scenario
    from repro.workloads.registry import by_abbr

    a = dataclasses.replace(by_abbr("CR2"), n_scaled=96).generate()
    runs = [
        EndToEndLU(SolverConfig(supernodal=True)).factorize(a)
        for _ in range(2)
    ]
    led0, led1 = (json.dumps(r.gpu.ledger.snapshot(), sort_keys=True)
                  for r in runs)
    assert led0 == led1
    rec0, rec1 = (json.dumps(r.perf_record(), sort_keys=True)
                  for r in runs)
    assert rec0 == rec1

    scen = [run_scenario("supernodal/e2e", smoke=True) for _ in range(2)]
    s0, s1 = (json.dumps(dataclasses.asdict(s), sort_keys=True)
              for s in scen)
    assert s0 == s1
