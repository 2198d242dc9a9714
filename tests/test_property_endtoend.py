"""Property-based end-to-end tests: the whole pipeline on random inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import SolverConfig, factorize
from repro.gpusim import scaled_device, scaled_host
from repro.sparse import CSRMatrix, residual_norm

from helpers import random_dense


def cfg(mem=8 << 20, **kw):
    return SolverConfig(
        device=scaled_device(mem), host=scaled_host(8 * mem), **kw
    )


@given(
    n=st.integers(5, 40),
    density=st.floats(0.05, 0.4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_pipeline_solves_random_dominant_systems(n, density, seed):
    """For any diagonally-dominant sparse matrix the end-to-end pipeline
    must produce a solution with tiny relative residual."""
    d = random_dense(n, density, seed=seed, dominant=True)
    a = CSRMatrix.from_dense(d)
    res = factorize(a, cfg())
    b = np.random.default_rng(seed).normal(size=n)
    x = res.solve(b)
    assert residual_norm(a, x, b) < 1e-9


@given(
    n=st.integers(8, 30),
    density=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**31 - 1),
    mem_kb=st.sampled_from([256, 512, 2048, 8192]),
)
@settings(max_examples=20, deadline=None)
def test_factors_invariant_to_device_memory(n, density, seed, mem_kb):
    """Out-of-core chunking must never change the computed factors."""
    d = random_dense(n, density, seed=seed, dominant=True)
    a = CSRMatrix.from_dense(d)
    ref = factorize(a, cfg())
    other = factorize(a, cfg(mem=mem_kb << 10))
    assert ref.L.allclose(other.L)
    assert ref.U.allclose(other.U)


@given(
    n=st.integers(8, 30),
    density=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_lu_reconstructs_preprocessed_matrix(n, density, seed):
    """L @ U must reproduce the (pre-processed) matrix exactly on its
    filled pattern — the fundamental factorization invariant."""
    d = random_dense(n, density, seed=seed, dominant=True)
    res = factorize(CSRMatrix.from_dense(d), cfg())
    rebuilt = res.L.to_dense() @ res.U.to_dense()
    np.testing.assert_allclose(
        rebuilt, res.pre.matrix.to_dense(), atol=1e-8 * max(1.0, np.abs(d).max())
    )


@given(
    n=st.integers(8, 25),
    density=st.floats(0.05, 0.3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_all_modes_agree_on_factors(n, density, seed):
    """Symbolic mode and numeric format are performance knobs only."""
    d = random_dense(n, density, seed=seed, dominant=True)
    a = CSRMatrix.from_dense(d)
    base = factorize(a, cfg())
    for overrides in (
        dict(symbolic_mode="unified"),
        dict(numeric_format="csc"),
        dict(dynamic_assignment=False),
    ):
        other = factorize(a, cfg(**overrides))
        assert base.L.allclose(other.L)
        assert base.U.allclose(other.U)


@given(
    n=st.integers(6, 25),
    density=st.floats(0.05, 0.35),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_simulated_time_strictly_positive_and_decomposed(n, density, seed):
    d = random_dense(n, density, seed=seed, dominant=True)
    res = factorize(CSRMatrix.from_dense(d), cfg())
    bd = res.breakdown()
    assert bd.total > 0
    assert 0 < bd.symbolic < bd.total
    assert res.gpu.pool.live_bytes == 0  # no leaked device allocations
