"""Shared test helpers (imported by test modules; fixtures live in conftest)."""

from __future__ import annotations

import numpy as np

from repro import oracles
from repro.sparse import COOMatrix


def use_oracles(monkeypatch) -> None:
    """Run the default pipeline through the scalar loops of
    :mod:`repro.oracles` by rebinding each call site's name."""
    for module, name in (
        ("repro.core.outofcore", "symbolic_fill_reference"),
        ("repro.core.levelize_gpu", "kahn_levels"),
        ("repro.core.numeric_gpu", "factorize_in_place"),
    ):
        monkeypatch.setattr(f"{module}.{name}", getattr(oracles, name))


def random_dense(n: int, density: float, seed: int, *, dominant: bool = True
                 ) -> np.ndarray:
    """Dense random matrix with controllable sparsity; optionally
    diagonally dominant (so no-pivot LU is numerically safe)."""
    r = np.random.default_rng(seed)
    d = r.uniform(-1.0, 1.0, size=(n, n))
    d[r.random((n, n)) > density] = 0.0
    if dominant:
        np.fill_diagonal(d, 0.0)
        row_sums = np.abs(d).sum(axis=1)
        d[np.diag_indices(n)] = row_sums + 1.0
    return d


def coo_from_lists(n_rows, n_cols, entries) -> COOMatrix:
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    return COOMatrix(n_rows, n_cols, np.array(rows), np.array(cols),
                     np.array(vals, dtype=np.float64))
