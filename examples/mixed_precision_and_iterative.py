"""Mixed precision and iterative refinement.

The paper evaluates in single precision ("Our experiments use float as the
data type", §4.1) — viable for circuit simulation because the factorization
is a preconditioner-quality operation that refinement polishes.  This
example:

1. factorizes in float32 (the paper's dtype) and in float64, compares
   their residuals and reports the float64 pivot growth;
2. recovers double-precision accuracy from the float32 factors with
   iterative refinement (one sweep).

Usage::

    python examples/mixed_precision_and_iterative.py
"""

import numpy as np

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.numeric import (
    iterative_refinement,
    make_lu_solver,
    pivot_growth,
)
from repro.sparse import residual_norm
from repro.workloads import circuit_like


def main() -> None:
    a = circuit_like(n=1500, nnz_per_row=8.0, seed=23)
    rng = np.random.default_rng(3)
    b = rng.normal(size=a.n_rows)
    mem = 24 << 20
    base = dict(device=scaled_device(mem), host=scaled_host(8 * mem))

    # ---- 1. float64 vs float32 factorization ---------------------------
    r64 = factorize(a, SolverConfig(**base))
    r32 = factorize(
        a, SolverConfig(**base, compute_dtype=np.dtype(np.float32))
    )
    res64 = residual_norm(a, r64.solve(b), b)
    res32 = residual_norm(a, r32.solve(b), b)
    print(f"float64 factorization: residual {res64:.2e}, "
          f"pivot growth {pivot_growth(r64.pre.matrix, r64.U):.3g}")
    print(f"float32 factorization: residual {res32:.2e} "
          f"(the paper's dtype)")

    # ---- 2. refinement rescues single precision -------------------------
    solver32 = make_lu_solver(
        r32.L, r32.U,
        row_perm=r32.pre.row_perm, col_perm=r32.pre.col_perm,
    )
    refined = iterative_refinement(a, b, solver32, max_iter=5, tol=1e-12)
    print(
        f"float32 + iterative refinement: residual "
        f"{refined.final_residual:.2e} after {refined.iterations} sweep(s)"
    )


if __name__ == "__main__":
    main()
