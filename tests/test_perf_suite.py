"""Suite determinism and the `repro perf` CLI gate."""

import pytest

from repro.cli import main as cli_main
from repro.perf import (
    SCENARIO_NAMES,
    PerfSnapshot,
    compare_snapshots,
    run_scenario,
    run_suite,
    scenario_names,
)


class TestSuite:
    def test_smoke_scenario_set(self, smoke_snapshot):
        assert smoke_snapshot.mode == "smoke"
        assert smoke_snapshot.scenario_names == SCENARIO_NAMES
        assert "serve/replay" in SCENARIO_NAMES
        assert "faults/drill" in SCENARIO_NAMES

    def test_full_mode_is_a_superset(self):
        assert set(SCENARIO_NAMES) <= set(scenario_names(smoke=False))

    def test_two_runs_identical_modulo_provenance(self, smoke_snapshot):
        # an independent run: every scenario, the experiments included
        again = run_suite(smoke=True)
        assert again.identity() == smoke_snapshot.identity()
        # ... and therefore pass the gate against each other
        assert compare_snapshots(again, smoke_snapshot).passed

    def test_scenarios_have_all_metric_families(self, smoke_snapshot):
        for rec in smoke_snapshot.scenarios:
            assert rec.counters, rec.name
            assert rec.timings, rec.name
        e2e = smoke_snapshot.scenario(SCENARIO_NAMES[0])
        assert e2e.counters["trace_events_total"] > 0
        assert "split_point" in e2e.counters
        serve = smoke_snapshot.scenario("serve/replay")
        assert 0.0 <= serve.timings["hit_rate"] <= 1.0

    def test_single_scenario_run(self, smoke_snapshot):
        name = "symbolic/outofcore_chunking"
        assert run_scenario(name, smoke=True) == smoke_snapshot.scenario(name)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("nope", smoke=True)
        with pytest.raises(KeyError, match="unknown scenarios"):
            run_suite(smoke=True, only=("nope",))


class TestPerfCli:
    def test_compare_gate(self, smoke_snapshot, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        smoke_snapshot.write(baseline)
        current = tmp_path / "BENCH_current.json"
        smoke_snapshot.write(current)

        rc = cli_main([
            "perf", "compare", str(current), "--baseline", str(baseline),
        ])
        assert rc == 0
        assert "result: PASS" in capsys.readouterr().out

        # perturb one deterministic counter -> the gate must trip
        tampered = PerfSnapshot.load(current)
        rec = tampered.scenario(SCENARIO_NAMES[0])
        rec.counters["fill_ins"] += 1
        tampered.write(current)
        rc = cli_main([
            "perf", "compare", str(current), "--baseline", str(baseline),
        ])
        assert rc == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_compare_without_baseline_exits_2(self, tmp_path, capsys):
        rc = cli_main([
            "perf", "compare",
            "--baseline", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        assert "update-baseline" in capsys.readouterr().err
