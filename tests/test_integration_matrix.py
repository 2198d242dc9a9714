"""Configuration-matrix integration test: every knob combination on one
matrix must produce identical factors and a solvable system."""

import itertools

import numpy as np
import pytest

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.sparse import residual_norm
from repro.workloads import circuit_like

MEM = 4 << 20


@pytest.fixture(scope="module")
def matrix():
    return circuit_like(160, 6.0, seed=181)


@pytest.fixture(scope="module")
def reference(matrix):
    cfg = SolverConfig(device=scaled_device(MEM), host=scaled_host(8 * MEM))
    return factorize(matrix, cfg)


CONFIG_GRID = list(itertools.product(
    ("outofcore", "unified"),          # symbolic_mode
    ("auto", "dense", "csc"),          # numeric_format
    (True, False),                     # dynamic_assignment
))


@pytest.mark.parametrize(
    "symbolic_mode,numeric_format,dynamic", CONFIG_GRID
)
def test_config_grid_same_factors(
    matrix, reference, symbolic_mode, numeric_format, dynamic
):
    cfg = SolverConfig(
        device=scaled_device(MEM),
        host=scaled_host(8 * MEM),
        symbolic_mode=symbolic_mode,
        numeric_format=numeric_format,
        dynamic_assignment=dynamic,
    )
    res = factorize(matrix, cfg)
    assert res.L.allclose(reference.L)
    assert res.U.allclose(reference.U)
    b = np.ones(matrix.n_rows)
    assert residual_norm(matrix, res.solve(b), b) < 1e-10
    assert res.gpu.pool.live_bytes == 0


def test_memory_grid_same_factors(matrix, reference):
    """From barely-fits to roomy, including the auto-streaming regime."""
    for mem in (64 << 10, 256 << 10, 1 << 20, 64 << 20):
        cfg = SolverConfig(
            device=scaled_device(mem), host=scaled_host(64 << 20)
        )
        res = factorize(matrix, cfg)
        assert res.L.allclose(reference.L), f"mem={mem}"
        assert res.U.allclose(reference.U), f"mem={mem}"
