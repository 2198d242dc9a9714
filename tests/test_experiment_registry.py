"""The gated registry (repro.bench.gates): each sweep and drill is
declared once, and its CLI subcommand, perf scenario, verdicts and exit
status all derive from that declaration."""

import argparse
import dataclasses

import pytest

from repro import cli
from repro.bench import gates
from repro.bench.gates import EXPERIMENTS
from repro.perf import run_scenario, scenario_names, suite


def _subcommands() -> dict:
    parser = cli.build_parser()
    (action,) = (
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


@pytest.fixture(params=EXPERIMENTS, ids=lambda e: e.command)
def drill(request, smoke_report):
    exp = request.param
    return exp, smoke_report(exp)


def test_every_experiment_has_a_subcommand_and_a_smoke_scenario():
    commands = _subcommands()
    smoke = scenario_names(smoke=True)
    assert len({e.command for e in EXPERIMENTS}) == len(EXPERIMENTS)
    for exp in EXPERIMENTS:
        assert exp.command in commands
        assert exp.scenario in smoke


def test_record_gate_labels_equal_verdicts(drill, smoke_snapshot):
    exp, report = drill
    verdicts = report.verdicts()
    assert list(verdicts) == [g.label for g in type(report).gates]
    assert report.passed == all(verdicts.values())
    labels = smoke_snapshot.scenario(exp.scenario).labels
    for label, ok in verdicts.items():
        assert labels[label] == str(ok).lower()
    assert labels["passed"] == str(report.passed).lower()


def test_passing_drill_exits_zero(drill, capsys):
    exp, report = drill
    cached = dataclasses.replace(exp, run=lambda **kw: report)
    args = argparse.Namespace(smoke=True, seed=0)
    assert cli.cmd_experiment(cached, args) == 0
    assert capsys.readouterr().out == str(report) + "\n"


def test_failing_gate_exits_one_and_prints_fail(drill, monkeypatch, capsys):
    """Forcing one gate false flips the generated subcommand's exit
    status, prints a ``[FAIL]`` line and the perf scenario's labels."""
    exp, report = drill
    forced, *kept = type(report).gates
    monkeypatch.setattr(
        type(report),
        "gates",
        (dataclasses.replace(forced, check=lambda r: False), *kept),
    )
    cached = tuple(
        dataclasses.replace(e, run=lambda **kw: report) if e is exp else e
        for e in EXPERIMENTS
    )
    monkeypatch.setattr(gates, "EXPERIMENTS", cached)
    monkeypatch.setattr(suite, "EXPERIMENTS", cached)

    rc = cli.main([exp.command, "--smoke"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("[FAIL]") == 1
    assert "verdict: FAIL" in out
    labels = run_scenario(exp.scenario, smoke=True).labels
    assert labels[forced.label] == labels["passed"] == "false"
    for gate in kept:
        assert labels[gate.label] == str(gate.check(report)).lower()


def test_experiments_md_claim_table_matches_the_gates(smoke_report):
    """The committed EXPERIMENTS.md has a claim table for the paper rows
    and one for the ablation rows; each lists one claim row per gate, in
    registry order, with the declared paper and gate text, and every
    claim holds."""
    from pathlib import Path

    from repro.bench.experiments import CLAIM_HEADER, family, title

    text = Path(__file__).parents[1].joinpath("EXPERIMENTS.md").read_text()
    tables = text.split(CLAIM_HEADER + "\n")[1:]
    assert len(tables) == 2
    for table, name in zip(tables, ("paper", "ablation")):
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in table.split("\n\n")[0].splitlines()[1:]
        ]
        expected = [
            [title(exp), gate.paper, gate.text]
            for exp in family(name)
            for gate in type(smoke_report(exp)).gates
        ]
        assert expected and [row[:3] for row in rows] == expected
        assert all(row[-1] == "yes" for row in rows)
