"""ASCII figure renderers and the simulation-guided autotuner."""

import pytest

from repro.bench.plots import (
    render_fig4,
    render_fig5,
    render_grouped_bars,
    render_speedup_bars,
    stacked_bar,
)
from repro.core import SolverConfig, autotune_symbolic
from repro.workloads import by_abbr

from repro.bench.runner import prepare


class TestPlots:
    def test_stacked_bar_widths(self):
        bar = stacked_bar([0.5, 0.25], total_width=40, scale=1.0)
        assert bar.count("█") == 20
        assert bar.count("░") == 10

    def test_grouped_bars_scale_to_longest(self):
        out = render_grouped_bars(
            ["m1", "m2"],
            [[[1.0, 0.0], [0.25, 0.25]], [[0.5, 0.0], [0.1, 0.1]]],
            ("base", "ours"),
            width=20,
        )
        lines = out.splitlines()
        assert "legend" in lines[0]
        bars = [ln for ln in lines if "|" in ln]
        # the longest bar (1.0) fills the full width
        assert max(ln.count("█") + ln.count("░") for ln in bars) == 20

    def test_render_fig4_and_fig5(self, smoke_report):
        from repro.bench.gates import EXPERIMENTS

        r4, r5 = (
            smoke_report(next(e for e in EXPERIMENTS if e.command == name))
            for name in ("fig4", "fig5")
        )
        out4 = render_fig4(r4)
        assert "OT2" in out4 and "speedup" in out4
        assert r5.rows[0].abbr == "OT2"
        out5 = render_fig5(r5)
        assert "unified memory" in out5 and "out-of-core" in out5
        # ooc bar is shorter than the UM bar (it is faster)
        bars = [ln for ln in out5.splitlines() if "|" in ln]
        um_len = sum(bars[0].count(c) for c in "█░▓")
        ooc_len = sum(bars[1].count(c) for c in "█░▓")
        assert ooc_len < um_len

    def test_speedup_bars(self):
        out = render_speedup_bars(["a", "bb"], [1.0, 2.0], width=10,
                                  title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("█") == 5
        assert lines[2].count("█") == 10


class TestAutotune:
    @pytest.fixture(scope="class")
    def tuned(self):
        art = prepare(by_abbr("OT2"))
        return autotune_symbolic(
            art.a, art.config(), parts=(1, 2, 3), fractions=(0.25, 0.5)
        )

    def test_grid_covered(self, tuned):
        # 1 baseline + 2 parts x 2 fractions
        assert len(tuned.candidates) == 1 + 2 * 2

    def test_best_not_worse_than_naive(self, tuned):
        assert tuned.best.symbolic_seconds <= tuned.baseline_seconds
        assert 0.0 <= tuned.gain_over_naive < 1.0

    def test_paper_defaults_competitive(self, tuned):
        """The paper's (2 parts, 50%) choice is within 5% of the tuned
        optimum on the registry workloads — autotuning validates the
        paper's defaults rather than overturning them."""
        default = next(
            c for c in tuned.candidates
            if c.num_parts == 2 and c.split_fraction == 0.5
        )
        assert default.symbolic_seconds <= tuned.best.symbolic_seconds * 1.05

    def test_best_config_applies_knobs(self, tuned):
        cfg = tuned.best_config(SolverConfig())
        assert cfg.split_fraction == tuned.best.split_fraction
        assert cfg.dynamic_assignment == (tuned.best.num_parts >= 2)
