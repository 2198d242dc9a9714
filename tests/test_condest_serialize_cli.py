"""Condition estimation, .npz serialization, and the CLI."""

import numpy as np
import pytest

from repro import SolverConfig, factorize
from repro.cli import main as cli_main
from repro.gpusim import scaled_device, scaled_host
from repro.numeric import condest, make_lu_solver, onenorm
from repro.sparse import (
    CSRMatrix,
    load_factors,
    load_matrix,
    residual_norm,
    save_factors,
    save_matrix,
    write_matrix_market,
)
from repro.workloads import circuit_like

from helpers import random_dense


def cfg(mem=8 << 20):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


class TestCondest:
    def test_onenorm_exact(self):
        d = random_dense(15, 0.4, seed=1, dominant=False)
        assert onenorm(CSRMatrix.from_dense(d)) == pytest.approx(
            np.abs(d).sum(axis=0).max()
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_estimate_within_factor_of_true(self, seed):
        d = random_dense(25, 0.4, seed=seed, dominant=True)
        a = CSRMatrix.from_dense(d)
        inv = np.linalg.inv(d)
        est = condest(
            a, lambda r: inv @ r, lambda r: inv.T @ r
        )
        true = np.linalg.norm(d, 1) * np.linalg.norm(inv, 1)
        assert est <= true * 1.01          # lower-bound estimator
        assert est >= true / 10.0          # but not wildly loose

    def test_with_real_factors(self):
        a = circuit_like(80, 6.0, seed=81)
        res = factorize(a, cfg())
        solve_fn = make_lu_solver(
            res.L, res.U,
            row_perm=res.pre.row_perm, col_perm=res.pre.col_perm,
        )
        est = condest(a, solve_fn)
        assert est >= 1.0  # cond >= 1 always

    def test_identity_condition_one(self):
        a = CSRMatrix.identity(10)
        est = condest(a, lambda r: r, lambda r: r)
        assert est == pytest.approx(1.0, rel=0.5)


class TestSerialize:
    def test_matrix_roundtrip(self, tmp_path):
        a = circuit_like(60, 6.0, seed=82)
        p = tmp_path / "m.npz"
        save_matrix(p, a)
        back = load_matrix(p)
        assert isinstance(back, CSRMatrix)
        assert back.same_pattern(a)
        np.testing.assert_array_equal(back.data, a.data)

    def test_csc_roundtrip(self, tmp_path):
        a = circuit_like(40, 5.0, seed=83).to_csc()
        p = tmp_path / "c.npz"
        save_matrix(p, a)
        back = load_matrix(p)
        np.testing.assert_array_equal(back.to_dense(), a.to_dense())

    def test_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_matrix(tmp_path / "x.npz", np.eye(3))

    def test_rejects_foreign_archive(self, tmp_path):
        p = tmp_path / "foreign.npz"
        np.savez(p, a=np.ones(3))
        with pytest.raises(Exception):
            load_matrix(p)

    def test_factors_roundtrip_and_solve(self, tmp_path, rng):
        a = circuit_like(70, 6.0, seed=84)
        res = factorize(a, cfg())
        p = tmp_path / "f.npz"
        save_factors(
            p, res.L, res.U,
            row_perm=res.pre.row_perm, col_perm=res.pre.col_perm,
        )
        L, U, tr = load_factors(p)
        from repro.numeric import lu_solve_permuted

        b = rng.normal(size=a.n_rows)
        x = lu_solve_permuted(L, U, b, **tr)
        assert residual_norm(a, x, b) < 1e-10


class TestCli:
    @pytest.fixture
    def mtx(self, tmp_path):
        a = circuit_like(120, 6.0, seed=85)
        p = tmp_path / "a.mtx"
        write_matrix_market(p, a)
        return p

    def test_solve_command(self, mtx, tmp_path, capsys):
        out = tmp_path / "x.txt"
        rc = cli_main(["solve", str(mtx), "--device-mb", "1",
                       "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "relative residual" in captured
        assert out.exists()
        x = np.loadtxt(out)
        assert len(x) == 120

    def test_solve_with_rhs_file(self, mtx, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        np.savetxt(rhs, np.arange(120, dtype=float))
        rc = cli_main(["solve", str(mtx), "--rhs", str(rhs)])
        assert rc == 0
        assert "relative residual" in capsys.readouterr().out

    def test_analyze_command(self, mtx, capsys):
        rc = cli_main(["analyze", str(mtx), "--device-mb", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fill-ins" in out or "filled nnz" in out
        assert "OUT-OF-CORE REQUIRED" in out

    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "gen.mtx"
        rc = cli_main(["generate", "fem", str(out), "--n", "200",
                       "--density", "10"])
        assert rc == 0
        from repro.sparse import read_matrix_market

        m = read_matrix_market(out)
        assert m.n_rows == 200

    def test_solve_format_override(self, mtx, capsys):
        rc = cli_main(["solve", str(mtx), "--format", "csc"])
        assert rc == 0
        assert "format=csc" in capsys.readouterr().out

    def test_bench_command_table4(self, capsys):
        rc = cli_main(["table4", "--smoke"])
        assert rc == 0
        assert "max #blocks" in capsys.readouterr().out


class TestCliExtended:
    @pytest.fixture
    def mtx2(self, tmp_path):
        a = circuit_like(100, 6.0, seed=86)
        p = tmp_path / "b.mtx"
        write_matrix_market(p, a)
        return p

    def test_report_command(self, tmp_path, capsys):
        paths = []
        for k, seed in enumerate((87, 88)):
            a = circuit_like(90, 6.0, seed=seed)
            p = tmp_path / f"m{k}.mtx"
            write_matrix_market(p, a)
            paths.append(str(p))
        rc = cli_main(["report", *paths, "--device-mb", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Matrix structural report" in out
        assert "m0.mtx" in out and "m1.mtx" in out

    def test_trace_command(self, mtx2, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["trace", str(mtx2), str(out), "--device-mb", "1"])
        assert rc == 0
        import json as _json

        data = _json.loads(out.read_text())
        assert len(data["traceEvents"]) > 10
        assert "kernels" in capsys.readouterr().out

    def test_export_suite_command(self, tmp_path, capsys, monkeypatch):
        # restrict to a tiny subset to keep the test fast
        import repro.workloads.suite as suite_mod
        from repro.workloads import by_abbr

        monkeypatch.setattr(
            suite_mod, "TABLE2", (by_abbr("OT2"),)
        )
        monkeypatch.setattr(suite_mod, "TABLE4", ())
        rc = cli_main(["export-suite", str(tmp_path / "suite")])
        assert rc == 0
        assert (tmp_path / "suite" / "manifest.json").exists()
        assert (tmp_path / "suite" / "OT2.mtx").exists()
