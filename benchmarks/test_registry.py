"""Every row of the gated registry at its full point.

The sweeps, the drills, the paper's experiments (Table 2-4, Figures
3-8) and the ablations are declared once, in
:data:`repro.bench.gates.EXPERIMENTS`; their gates are the acceptance
bars.  Tier-1 runs every row's smoke point;
this runs every full point, which must report ``passed``.
"""

import pytest

from repro.bench.gates import EXPERIMENTS


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda e: e.command)
def test_full_point_passes(exp, once):
    report = once(exp.run)
    print()
    print(report)
    assert report.passed, report.verdicts()
