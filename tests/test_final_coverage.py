"""Final coverage round: result reporting, CLI variants, edge behaviors."""

import numpy as np
import pytest

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.workloads import circuit_like, mesh_like



def cfg(mem=8 << 20, **kw):
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem),
                        **kw)


class TestResultReport:
    def test_report_contents(self):
        a = circuit_like(120, 6.0, seed=191)
        res = factorize(a, cfg())
        text = res.report()
        assert "end-to-end LU" in text
        assert f"n={a.n_rows}" in text
        assert "pivot growth" in text
        assert "peak device memory" in text
        assert "symbolic" in text and "numeric" in text

    def test_report_reflects_format(self):
        a = circuit_like(120, 6.0, seed=192)
        res = factorize(a, cfg(numeric_format="csc"))
        assert "numeric format csc" in res.report()


class TestAutotuneEdges:
    def test_single_part_grid(self):
        from repro.core import autotune_symbolic

        a = circuit_like(150, 6.0, seed=193)
        res = autotune_symbolic(a, cfg(), parts=(1,), fractions=(0.5,))
        assert len(res.candidates) == 1
        assert res.best.num_parts == 1
        assert res.gain_over_naive == pytest.approx(0.0)


class TestGmresEdges:
    def test_identity_preconditioner_equals_plain(self):
        from repro.numeric import gmres

        a = circuit_like(80, 5.0, seed=194)
        b = np.ones(80)
        plain = gmres(a, b, tol=1e-10)
        ident = gmres(a, b, preconditioner=lambda r: r, tol=1e-10)
        assert plain.iterations == ident.iterations
        np.testing.assert_allclose(plain.x, ident.x, atol=1e-10)

    def test_zero_rhs_trivial(self):
        from repro.numeric import gmres
        from repro.sparse import CSRMatrix

        res = gmres(CSRMatrix.identity(5), np.zeros(5), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, 0.0)


class TestGeneratorEdges:
    def test_mesh_single_component(self):
        a = mesh_like(100, seed=1, components=1)
        side = int(np.sqrt(a.n_rows))
        assert side * side == a.n_rows

    def test_circuit_tiny_n(self):
        a = circuit_like(20, 4.0, seed=2)
        assert a.n_rows == 20
        assert a.has_full_diagonal()

    def test_fem_explicit_blocks(self):
        from repro.workloads import fem_like

        a = fem_like(200, 10.0, seed=3, num_blocks=2)
        assert a.n_rows == 200


class TestMemoryRowGates:
    def test_tightest_point_needs_alg4_faster(self):
        from repro.bench.ablations import MemoryResult, MemoryRow

        def report(alg4_s):
            return MemoryResult([
                MemoryRow("X@0.01", 0.01, 1000, 2.0, alg4_s, 10, 2.0),
                MemoryRow("X@0.1", 0.1, 9000, 1.0, 1.0, 5, 1.0),
            ])

        assert report(1.5).passed
        assert not report(2.0).verdicts()["overhead_ok"]


class TestTraceBusySeconds:
    def test_unknown_category_zero(self):
        from repro.gpusim import GPU, TracingGPU

        gpu = TracingGPU(GPU(spec=scaled_device(1 << 20),
                             host=scaled_host(8 << 20)))
        gpu.launch_utility(100)
        assert gpu.busy_seconds("nonexistent") == 0.0
        assert gpu.busy_seconds("kernel") > 0.0


class TestCliUnifiedMode:
    def test_solve_with_unified_symbolic(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.sparse import write_matrix_market

        a = circuit_like(100, 6.0, seed=195)
        p = tmp_path / "u.mtx"
        write_matrix_market(p, a)
        rc = cli_main(["solve", str(p), "--symbolic", "unified",
                       "--device-mb", "1"])
        assert rc == 0
        assert "relative residual" in capsys.readouterr().out
