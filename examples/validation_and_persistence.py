"""A-posteriori validation and factor persistence.

This example:

1. validates an end-to-end factorization with the self-check report,
   including a 1-norm condition estimate;
2. persists the factors to ``.npz`` and solves again after reloading —
   the analyze-once / reuse-forever workflow across process lifetimes.

Usage::

    python examples/validation_and_persistence.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.numeric import lu_solve_permuted
from repro.sparse import load_factors, residual_norm, save_factors
from repro.validate import check_factorization
from repro.workloads import circuit_like


def main() -> None:
    a = circuit_like(n=1000, nnz_per_row=7.0, seed=13)
    cfg = SolverConfig(
        device=scaled_device(16 << 20), host=scaled_host(128 << 20)
    )
    rng = np.random.default_rng(2)
    b = rng.normal(size=a.n_rows)

    # ---- 1. factorization + validation ----------------------------------
    res = factorize(a, cfg)
    print(
        f"factorization: fill-ins {res.fill_ins}, "
        f"sim {res.sim_seconds * 1e3:.3f} ms"
    )
    report = check_factorization(a, res, estimate_condition=True)
    print(report)

    # ---- 2. persist factors, reload, solve again ------------------------
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "factors.npz"
        save_factors(
            path, res.L, res.U,
            row_perm=res.pre.row_perm, col_perm=res.pre.col_perm,
        )
        L, U, transforms = load_factors(path)
        x_loaded = lu_solve_permuted(L, U, b, **transforms)
        print(
            f"\nreloaded factors from {path.name}: "
            f"residual {residual_norm(a, x_loaded, b):.2e} "
            f"({path.stat().st_size / 1024:.0f} KiB on disk)"
        )


if __name__ == "__main__":
    main()
