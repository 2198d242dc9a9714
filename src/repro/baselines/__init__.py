"""Baseline implementations the paper evaluates against.

* :mod:`~repro.baselines.glu3` — modified GLU 3.0 (CPU symbolic +
  levelization, GPU dense-format numeric) — Figure 4;
* :mod:`~repro.baselines.unified_solver` — unified-memory symbolic with and
  without prefetching — Figures 5-6, Table 3;
* :mod:`~repro.baselines.gsofa` — count-only, fixed-chunk GPU symbolic
  (Gaihre et al.), the prior work §3.2 improves on.
"""

from .glu3 import glu3_factorize, glu3_symbolic_cpu
from .gsofa import GsofaResult, gsofa_count_symbolic
from .unified_solver import unified_symbolic

__all__ = [
    "glu3_factorize",
    "glu3_symbolic_cpu",
    "gsofa_count_symbolic",
    "GsofaResult",
    "unified_symbolic",
]
