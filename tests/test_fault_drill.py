"""The fault drill (repro fault-drill): every scenario handled, seeded
determinism across re-runs, CLI contract."""

import pytest

from repro import cli
from repro.bench.fault_drill import (
    DEGRADED,
    RECOVERED,
    run_fault_drill,
)


@pytest.mark.faults
class TestFaultDrill:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fault_drill(smoke=True, seed=0)

    def test_all_scenarios_handled(self, report):
        assert [r.name for r in report.results] == [
            "flaky-link", "oom-storm", "singular-workload", "dead-device",
        ]
        assert report.verdicts()["all_handled"]

    def test_deterministic_across_reruns(self, report):
        assert report.deterministic

    def test_pipeline_scenarios_match_fault_free_twin(self, report):
        by_name = {r.name: r for r in report.results}
        for name in ("flaky-link", "oom-storm"):
            r = by_name[name]
            assert r.outcome == RECOVERED
            assert r.faults_injected > 0
            assert r.recovery_actions > 0
            assert r.bitwise_match

    def test_singular_recovers_within_threshold(self, report):
        r = next(x for x in report.results if x.name == "singular-workload")
        assert r.outcome == RECOVERED
        assert r.final_residual is not None and r.final_residual <= 1e-8

    def test_dead_device_degrades(self, report):
        r = next(x for x in report.results if x.name == "dead-device")
        assert r.outcome == DEGRADED
        assert r.final_residual < 1e-10

    def test_format_and_cli_exit_code(self, report, capsys):
        out = str(report)
        assert "determinism: identical" in out
        for r in report.results:
            assert r.name in out
        assert cli.main(["fault-drill", "--smoke", "--seed", "0"]) == 0
        assert "fault drill" in capsys.readouterr().out
