"""Validation report, suite export, and the format ablation's rule gate."""

import json

import pytest

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.validate import check_factorization
from repro.workloads import by_abbr, export_suite, load_manifest


def cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


class TestValidate:
    @pytest.fixture
    def result(self):
        from repro.workloads import circuit_like

        a = circuit_like(120, 6.0, seed=91)
        return a, factorize(a, cfg())

    def test_healthy_factorization_passes(self, result):
        a, res = result
        rep = check_factorization(a, res, estimate_condition=True)
        assert rep.ok, str(rep)
        assert rep.metrics["solve residual"] < 1e-10
        assert rep.metrics["cond_1 estimate"] >= 1.0

    def test_corrupted_factor_detected(self, result):
        a, res = result
        res.U.data[len(res.U.data) // 2] += 100.0  # corrupt one entry
        rep = check_factorization(a, res)
        assert not rep.ok
        assert not rep.checks["L@U reconstructs A"]

    def test_broken_l_diagonal_detected(self, result):
        a, res = result
        # set a diagonal entry of L to 2
        for j in range(res.L.n_cols):
            s = int(res.L.indptr[j])
            if res.L.indices[s] == j:
                res.L.data[s] = 2.0
                break
        rep = check_factorization(a, res)
        assert not rep.checks["L unit diagonal"]

    def test_report_rendering(self, result):
        a, res = result
        text = str(check_factorization(a, res))
        assert "validation: OK" in text
        assert "[x]" in text


class TestSuiteExport:
    def test_export_and_manifest(self, tmp_path):
        specs = (by_abbr("OT2"), by_abbr("MI"))
        export_suite(tmp_path, specs)
        manifest = load_manifest(tmp_path)
        assert len(manifest) == 2
        for entry in manifest:
            assert (tmp_path / entry["file"]).exists()
            assert entry["paper_density"] == pytest.approx(
                entry["scaled_density"], rel=0.35
            )
        # the files round-trip through the Matrix Market reader
        from repro.sparse import read_matrix_market

        m = read_matrix_market(tmp_path / manifest[0]["file"]).to_csr()
        assert m.n_rows == manifest[0]["scaled_n"]

    def test_manifest_is_valid_json(self, tmp_path):
        export_suite(tmp_path, (by_abbr("OT2"),))
        raw = (tmp_path / "manifest.json").read_text()
        assert isinstance(json.loads(raw), list)


class TestFormatCrossoverRule:
    """The §3.4 rule gate of ``repro ablate-format`` on synthetic points:
    each broken report fails it."""

    @staticmethod
    def point(m, auto, streamed=0):
        from repro.bench.ablations import FormatRow

        return FormatRow("X", 1.0, 160, m, auto, 1.0, 1.0, streamed,
                         0, "-", 0, "-")

    def rule(self, *points):
        from repro.bench.ablations import FormatResult

        return FormatResult(list(points)).verdicts()["rule_ok"]

    def test_in_core_points_on_both_sides_pass(self):
        assert self.rule(self.point(82, "csc"), self.point(160, "dense"))
        assert self.rule(
            self.point(160, "csc-streamed", 3),
            self.point(82, "csc"),
            self.point(160, "dense"),
        )

    def test_wrong_in_core_pick_fails(self):
        assert not self.rule(self.point(82, "dense"),
                             self.point(160, "dense"))
        assert not self.rule(self.point(82, "csc"), self.point(160, "csc"))

    def test_one_side_of_tb_max_only_fails(self):
        assert not self.rule(self.point(82, "csc"))
        assert not self.rule(self.point(160, "dense"))

    def test_partly_streamed_point_fails(self):
        assert not self.rule(
            self.point(160, "csc-streamed", 2),
            self.point(82, "csc"),
            self.point(160, "dense"),
        )
