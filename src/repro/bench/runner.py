"""Shared experiment plumbing: prepare scaled instances, run solver variants.

Every figure/table runner builds on :func:`prepare` (generate the scaled
matrix, size the scaled device/host per the registry rules) and the
``run_*`` helpers (one per solver variant of the paper's comparison space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..baselines import glu3_factorize
from ..core import EndToEndLU, EndToEndResult, SolverConfig
from ..gpusim import DeviceSpec, GPU, HostSpec
from ..sparse import CSRMatrix
from ..symbolic import symbolic_fill_reference
from ..workloads import MatrixSpec


@dataclass
class MatrixArtifacts:
    """A prepared experiment instance: matrix + scaled hardware."""

    spec: MatrixSpec
    a: CSRMatrix
    filled_nnz: int
    device: DeviceSpec
    host: HostSpec

    @property
    def abbr(self) -> str:
        return self.spec.abbr

    @property
    def density(self) -> float:
        return self.spec.paper_density

    def config(self, **overrides) -> SolverConfig:
        base = SolverConfig(device=self.device, host=self.host)
        return replace(base, **overrides) if overrides else base

    def gpu(self, config: SolverConfig | None = None) -> GPU:
        cfg = config or self.config()
        return GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)


def prepare(
    spec: MatrixSpec, *, seed: int = 0, for_numeric: bool = False
) -> MatrixArtifacts:
    """Generate the scaled instance, its generator seed offset by
    ``seed``, and its scaled hardware pairing."""
    spec = replace(spec, seed=spec.seed + seed)
    a = spec.generate()
    filled = symbolic_fill_reference(a)  # memoized; device sizing needs nnz
    if for_numeric:
        device = spec.device_for_numeric(a, filled.nnz)
    else:
        device = spec.device_for_symbolic(a, filled.nnz)
    host = spec.host_for(device)
    return MatrixArtifacts(
        spec=spec, a=a, filled_nnz=filled.nnz, device=device, host=host
    )


def resident_replica(art: MatrixArtifacts) -> GPU:
    """A fresh GPU holding what the numeric executor keeps resident (the
    graph and the factorized matrix): its free memory is what dense
    column buffers could claim."""
    cfg = art.config()
    idx, val = cfg.index_bytes, cfg.value_bytes
    n = art.a.n_rows
    gpu = GPU(spec=art.device, host=art.host)
    gpu.malloc((n + 1) * idx + art.a.nnz * (idx + val), "graph")
    gpu.malloc(
        (n + 1) * idx + art.filled_nnz * (idx + val), "factorized matrix"
    )
    return gpu


def run_outofcore(
    art: MatrixArtifacts, *, dynamic: bool = True, **overrides
) -> EndToEndResult:
    """The paper's pipeline: OOC symbolic + GPU levelize + GPU numeric."""
    cfg = art.config(
        symbolic_mode="outofcore", dynamic_assignment=dynamic, **overrides
    )
    return EndToEndLU(cfg).factorize(art.a)


def run_glu3(art: MatrixArtifacts, **overrides) -> EndToEndResult:
    """Modified GLU 3.0 baseline (CPU symbolic/levelize, GPU dense numeric)."""
    return glu3_factorize(art.a, art.config(**overrides))


def run_unified(
    art: MatrixArtifacts, *, prefetch: bool, **overrides
) -> EndToEndResult:
    """Unified-memory end-to-end run (§4.3)."""
    cfg = art.config(
        symbolic_mode="unified", um_prefetch=prefetch, **overrides
    )
    return EndToEndLU(cfg).factorize(art.a)


def run_symbolic_only(
    art: MatrixArtifacts,
    *,
    mode: str = "outofcore",
    prefetch: bool = True,
    dynamic: bool = True,
):
    """Run only the symbolic phase on a fresh simulated GPU.

    Returns ``(SymbolicResult, GPU)`` — used by the symbolic-phase
    experiments (Fig. 6, Fig. 7, Table 3) where phase-local ledger buckets
    (transfer / fault_service shares) must not be polluted by the numeric
    phase.
    """
    from ..baselines.unified_solver import unified_symbolic
    from ..core.outofcore import outofcore_symbolic
    from ..preprocess import preprocess

    cfg = art.config(dynamic_assignment=dynamic)
    gpu = art.gpu(cfg)
    pre = preprocess(art.a)
    if mode == "outofcore":
        sym = outofcore_symbolic(gpu, pre.matrix, cfg, dynamic=dynamic)
        if sym.device_filled is not None:
            gpu.free(sym.device_filled)
        for buf in sym.device_graph:
            gpu.free(buf)
    elif mode == "unified":
        sym = unified_symbolic(gpu, pre.matrix, cfg, prefetch=prefetch)
    else:
        raise ValueError(f"unknown symbolic mode {mode!r}")
    return sym, gpu
