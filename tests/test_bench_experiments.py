"""Experiment harness: reporting helpers, instance preparation and the
Fig. 4 shape on the density extremes.

The paper's shapes are the gates of the ``paper/*`` registry rows
(``repro.bench.gates.EXPERIMENTS``); tier-1 runs their smoke points
through ``tests/test_experiment_registry.py``.  ``TestFig4Shape`` adds
the densest matrices (MI, CR2), which the fig4 smoke point leaves out.
"""

import numpy as np
import pytest

from repro.bench import format_series, format_table, prepare
from repro.bench.fig4 import fig4_row
from repro.workloads import by_abbr

EXTREMES = ("AP", "OT2", "MI", "CR2")


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [("x", 1.5), ("yy", 20.0)],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_number_formats(self):
        out = format_table(["v"], [(0.000001,), (12345.6,), (0,)])
        assert "e-" in out and "e+" in out

    def test_format_table_keeps_four_significant_digits(self):
        out = format_table(["v"], [(0.0021344,), (0.0024,), (66.597,)])
        cells = [line.strip() for line in out.splitlines()[2:]]
        assert cells == ["0.002134", "0.002400", "66.60"]

    def test_format_series_sparkline(self):
        out = format_series("s", range(10), np.linspace(0, 1, 10))
        assert "s:" in out and "min=0" in out
        assert any(c in out for c in "▁▂▃▄▅▆▇█")

    def test_format_series_resamples_long_input(self):
        out = format_series("s", range(500), np.arange(500), width=40)
        spark = out.splitlines()[1].strip()
        assert len(spark) == 40


class TestFig4Shape:
    def test_density_extremes(self):
        by = {a: fig4_row(by_abbr(a)) for a in EXTREMES}
        # sparsest near parity, densest large (Fig. 4's envelope)
        assert 0.7 < by["AP"].speedup < 2.5
        assert by["CR2"].speedup > 15
        # monotone in density on the extremes
        s = [by[a].speedup for a in EXTREMES]
        assert s == sorted(s)

    def test_symbolic_dominates_glu3(self):
        r = fig4_row(by_abbr("CR2"))
        assert r.glu3_symbolic > 5 * r.glu3_numeric

    def test_normalized_bars(self):
        gs, gn, os_, on = fig4_row(by_abbr("MI")).normalized()
        assert gs + gn == pytest.approx(1.0)
        assert os_ + on < 1.0  # ooc bar shorter than the baseline bar


class TestPrepare:
    def test_artifacts_consistent(self):
        art = prepare(by_abbr("OT2"))
        assert art.abbr == "OT2"
        assert art.a.n_rows == by_abbr("OT2").n_scaled
        assert art.device.memory_bytes < art.host.memory_bytes
        cfg = art.config(numeric_format="csc")
        assert cfg.numeric_format == "csc"
        assert cfg.device is art.device

    def test_seed_offsets_the_generator_seed(self):
        spec = by_abbr("OT2")
        art = prepare(spec, seed=3)
        assert art.spec.seed == spec.seed + 3
        assert prepare(spec).spec == spec
