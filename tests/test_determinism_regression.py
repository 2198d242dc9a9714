"""Determinism regression: same seed → byte-identical reports.

Guards the enqueue-time scheduling invariant that the interconnect
model must preserve: every simulated timeline — each registered sweep
and drill, per-device ledgers, peer-transfer logs — is a pure function
of (input, seed, config).  Each check runs the full entry point twice
and compares the rendered output byte-for-byte; for a registered
entry, one of the two runs is the session's shared smoke run, and the
two perf records must be equal too (the perf suite's own rerun skips
the registry rows).
"""

import dataclasses
import json

import pytest

from repro import cli
from repro.bench import gates
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
def test_same_seed_report_byte_identical(
    exp, capsys, monkeypatch, smoke_report
):
    """The CLI run is independent of the shared one: its rendered report
    and its perf record must both be identical.  The report marks one
    line per gate, in declared order, and ends in the verdict line."""
    shared = smoke_report(exp, 3)
    first = str(shared) + "\n"
    reports = []

    def run(**kw):
        reports.append(exp.run(**kw))
        return reports[-1]

    monkeypatch.setattr(gates, "EXPERIMENTS", tuple(
        dataclasses.replace(e, run=run) if e is exp else e
        for e in EXPERIMENTS
    ))
    assert _run_cli(capsys, [exp.command, "--smoke", "--seed", "3"]) == first
    assert reports[0] is not shared
    assert reports[0].perf_record() == shared.perf_record()
    assert _EXPECTED_LINES.get(exp.command, "") in first
    lines = first.splitlines()
    marked = [ln for ln in lines if "[  ok]" in ln or "[FAIL]" in ln]
    verdicts = shared.verdicts()
    assert marked == [
        f"  {gates.mark(verdicts[g.label])} {g.line(shared)}"
        for g in shared.gates
    ]
    assert lines[-1] == shared.verdict_line()
    if exp.command == "multigpu-bench":
        # the overlap sweep books halo sends through copy engines, under
        # the same invariant, and its rows differ from the blocking ones
        off = [ln.split()[2:] for ln in lines if ln.startswith("strong ")]
        on = [ln.split()[3:] for ln in lines if ln.startswith("weak ")]
        assert off and on and off != on
        assert all("overlap" in ln for ln in lines if ln.startswith("weak "))


def test_multigpu_execution_record_identical():
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
