"""Self-check utilities: verify a factorization against its inputs.

Downstream users of a static-pivot solver need cheap a-posteriori
verification (the paper's setting has no pivoting, so pathological inputs
can degrade accuracy silently).  :func:`check_factorization` bundles the
checks this repository's test-suite runs — triangularity, pattern
containment, reconstruction error, residual, condition estimate — into one
report object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core.pipeline import EndToEndResult
from .numeric import condest, make_lu_solver
from .sparse import CSRMatrix, residual_norm


@dataclass
class ValidationReport:
    """Outcome of :func:`check_factorization`."""

    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def _fail(self, name: str, msg: str) -> None:
        self.checks[name] = False
        self.messages.append(f"{name}: {msg}")

    def __str__(self) -> str:
        lines = [f"validation: {'OK' if self.ok else 'FAILED'}"]
        for k, v in self.checks.items():
            lines.append(f"  [{'x' if v else ' '}] {k}")
        for k, v in self.metrics.items():
            lines.append(f"      {k} = {v:.3e}")
        lines.extend(f"  ! {m}" for m in self.messages)
        return "\n".join(lines)


def check_factorization(
    a: CSRMatrix,
    result: EndToEndResult,
    *,
    rng_seed: int = 0,
    residual_tol: float = 1e-8,
    reconstruction_tol: float = 1e-8,
    estimate_condition: bool = False,
) -> ValidationReport:
    """Verify ``result`` factorizes ``a`` correctly.

    Checks performed:

    * ``L`` is unit lower triangular, ``U`` upper triangular;
    * the filled pattern contains the pre-processed matrix's pattern;
    * ``L @ U`` reconstructs the pre-processed matrix (sampled via
      matrix-vector probes — no densification);
    * random-rhs solve residual below ``residual_tol``;
    * optionally, a 1-norm condition estimate (reported as a metric).
    """
    rep = ValidationReport()
    L, U = result.L, result.U
    n = a.n_rows

    # -- triangularity ----------------------------------------------------
    l_rows, l_cols = L.indices, L.col_ids_of_entries()
    rep.checks["L lower triangular"] = bool(np.all(l_rows >= l_cols))
    ld = L.diagonal()
    rep.checks["L unit diagonal"] = bool(np.allclose(ld, 1.0))
    u_rows, u_cols = U.indices, U.col_ids_of_entries()
    rep.checks["U upper triangular"] = bool(np.all(u_rows <= u_cols))

    # -- pattern containment ------------------------------------------------
    pre = result.pre.matrix
    filled = result.filled
    contained = True
    for i in range(n):
        pc, _ = pre.row(i)
        fc, _ = filled.row(i)
        pos = np.searchsorted(fc, pc)
        if not (np.all(pos < len(fc)) and np.all(fc[pos] == pc)):
            contained = False
            break
    rep.checks["filled pattern contains A"] = contained

    # -- reconstruction via probes -----------------------------------------
    rng = np.random.default_rng(rng_seed)
    max_err = 0.0
    anorm = float(np.abs(pre.data).max(initial=1.0))
    for _ in range(4):
        v = rng.normal(size=n)
        lhs = L.matvec(U.matvec(v))
        rhs = pre.matvec(v)
        denom = float(np.linalg.norm(rhs)) or 1.0
        max_err = max(max_err, float(np.linalg.norm(lhs - rhs)) / denom)
    rep.metrics["reconstruction error"] = max_err
    rep.checks["L@U reconstructs A"] = max_err < reconstruction_tol * max(
        1.0, anorm
    )

    # -- solve residual ----------------------------------------------------
    b = rng.normal(size=n)
    try:
        x = result.solve(b)
        res = residual_norm(a, x, b)
        rep.metrics["solve residual"] = res
        rep.checks["solve residual"] = res < residual_tol
    except Exception as e:  # pragma: no cover - defensive
        rep._fail("solve residual", repr(e))

    # -- condition estimate --------------------------------------------------
    if estimate_condition:
        solve_fn = make_lu_solver(
            L, U,
            row_perm=result.pre.row_perm, col_perm=result.pre.col_perm,
            schedule=result.schedule,
        )
        rep.metrics["cond_1 estimate"] = condest(a, solve_fn)

    return rep
