"""Unit tests of the bench-layer logic on synthetic result objects
(no heavy experiment runs)."""

import numpy as np
import pytest

from repro.bench.fig4 import Fig4Result, Fig4Row
from repro.bench.fig5 import Fig5Result, Fig5Row
from repro.bench.fig7 import Fig7Row
from repro.bench.fig8 import Fig8Result, Fig8Row
from repro.bench.table3 import Table3Row
from repro.bench.table4 import Table4Row


def fig4_row(abbr="X", density=10.0, glu_sym=8.0, glu_num=2.0,
             ooc_sym=1.0, ooc_num=1.0):
    return Fig4Row(
        abbr=abbr, density=density,
        glu3_symbolic=glu_sym, glu3_numeric=glu_num,
        glu3_total=glu_sym + glu_num,
        ooc_symbolic=ooc_sym, ooc_numeric=ooc_num,
        ooc_total=ooc_sym + ooc_num,
    )


class TestFig4Logic:
    def test_speedup(self):
        r = fig4_row()
        assert r.speedup == pytest.approx(5.0)

    def test_normalized_sums(self):
        gs, gn, os_, on = fig4_row().normalized()
        assert gs + gn == pytest.approx(1.0)
        assert os_ + on == pytest.approx(0.2)

    def test_range_and_correlation(self):
        rows = [
            fig4_row("A", density=4.0, glu_sym=1.0, glu_num=1.0,
                     ooc_sym=1.0, ooc_num=0.8),
            fig4_row("B", density=30.0, glu_sym=10.0, glu_num=1.0,
                     ooc_sym=1.0, ooc_num=0.5),
            fig4_row("C", density=100.0, glu_sym=50.0, glu_num=1.0,
                     ooc_sym=1.0, ooc_num=0.5),
        ]
        res = Fig4Result(rows)
        lo, hi = res.speedup_range()
        assert lo == pytest.approx(2.0 / 1.8)
        assert hi == pytest.approx(51.0 / 1.5)
        assert res.density_speedup_correlation() == pytest.approx(1.0)

    def test_anticorrelated_detected(self):
        rows = [
            fig4_row("A", density=100.0, glu_sym=1.0, ooc_sym=2.0),
            fig4_row("B", density=4.0, glu_sym=50.0, ooc_sym=1.0),
        ]
        assert Fig4Result(rows).density_speedup_correlation() < 0


class TestFig5Fig8Logic:
    def test_fig5_speedup_direction(self):
        r = Fig5Row("X", 5.0, ooc_symbolic=1.0, ooc_numeric=1.0,
                    ooc_total=2.0, um_symbolic=3.0, um_numeric=1.0,
                    um_total=4.0)
        assert r.speedup == pytest.approx(2.0)
        res = Fig5Result([r])
        assert res.speedup_range() == (pytest.approx(2.0),) * 2

    def test_fig8_speedup(self):
        r = Fig8Row("X", dense_seconds=3.0, csc_seconds=1.0,
                    dense_max_blocks=124, csc_blocks=160)
        assert r.speedup == pytest.approx(3.0)
        assert Fig8Result([r]).speedup_range() == (
            pytest.approx(3.0), pytest.approx(3.0)
        )


class TestRowHelpers:
    def test_fig7_improvement(self):
        r = Fig7Row("X", naive_seconds=1.0, dynamic_seconds=0.9,
                    naive_iterations=10, dynamic_iterations=5,
                    split_point=100)
        assert r.improvement == pytest.approx(0.1)

    def test_table3_reduction(self):
        r = Table3Row("X", 5.0, fault_groups_no_prefetch=400,
                      fault_groups_prefetch=100,
                      pct_fault_no_prefetch=60.0, pct_fault_prefetch=20.0,
                      pct_transfer_ooc=0.1)
        assert r.group_reduction == pytest.approx(4.0)

    def test_table3_zero_prefetch_groups(self):
        r = Table3Row("X", 5.0, 10, 0, 50.0, 0.0, 0.1)
        assert r.group_reduction == float("inf")

    def test_table4_under_occupied(self):
        r = Table4Row("m", "M", 10, 20, 5, 10, max_blocks=120,
                      paper_max_blocks=120, tb_max=160)
        assert r.under_occupied
        r2 = Table4Row("m", "M", 10, 20, 5, 10, max_blocks=200,
                       paper_max_blocks=200, tb_max=160)
        assert not r2.under_occupied


class TestExperimentsClaims:
    def test_claims_fail_loudly_on_bad_shapes(self):
        """Every paper report built from broken rows fails every one of
        its gates, and the claim table says NO on each of them."""
        from repro.bench.experiments import CLAIM_HEADER, claim_rows
        from repro.bench.fig3 import Fig3Result, Fig3Series
        from repro.bench.fig6 import Fig6Result, Fig6Row
        from repro.bench.fig7 import Fig7Result
        from repro.bench.table2 import Table2Result, Table2Row
        from repro.bench.table3 import Table3Result
        from repro.bench.table4 import Table4Result
        from repro.symbolic import FrontierProfile

        flat = FrontierProfile(
            chunk_starts=np.arange(5),
            max_frontier=np.array([5, 5, 5, 5, 5]),
            mean_frontier=np.full(5, 5.0),
        )
        reports = {
            # density far from the paper's; the device holds every row
            "table2": Table2Result([Table2Row("m", "X", "fem", 10, 10.0, 5,
                                              10, 900, 600)]),
            # one matrix, no end spike, no growth
            "fig3": Fig3Result([Fig3Series("PR", flat)]),
            # no dense high end; the sparsest gains most; a 5x speedup
            # whose GLU 3.0 symbolic is only 4x its numeric
            "fig4": Fig4Result([
                fig4_row("A", density=4.0, glu_sym=0.5, ooc_sym=1.0),
                fig4_row("B", density=2.0),
            ]),
            # parity, and not OT2 gaining most
            "fig5": Fig5Result([Fig5Row("X", 5.0, 1, 1, 2, 1, 1, 2)]),
            # ordering violated; no density-trend matrices
            "fig6": Fig6Result([Fig6Row("X", 5.0, ooc=2.0, um_prefetch=1.0,
                                        um_no_prefetch=0.5)]),
            # 1.1x fault reduction, 10 % service share, 5 % transfers
            "table3": Table3Result([Table3Row("X", 5.0, 10, 9, 10.0, 9.0,
                                              5.0)]),
            # dynamic slower, more iterations, no split
            "fig7": Fig7Result([Fig7Row("X", 1.0, 1.2, 10, 12, None)]),
            # 90 max blocks against the paper's 124
            "table4": Table4Result([Table4Row("m", "M", 1, 2, 3, 4, 90, 124,
                                              160)]),
            # parity, csc below and dense at TB_max
            "fig8": Fig8Result([Fig8Row("X", 1.0, 1.0, 160, 124)]),
        }
        for name, report in reports.items():
            assert not any(report.verdicts().values()), (name, report)
        rows = claim_rows(reports)
        assert len(rows) == sum(len(r.gates) for r in reports.values())
        assert CLAIM_HEADER.endswith("| holds |")
        assert all(row.endswith("| NO |") for row in rows)
