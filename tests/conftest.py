"""Shared fixtures: small reference matrices, deterministic RNG and the
session's smoke runs of the gated registry."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.sparse import CSRMatrix

from helpers import coo_from_lists, random_dense  # noqa: F401 (re-export)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def smoke_report():
    """``smoke_report(exp, seed)``: the smoke report of one
    ``EXPERIMENTS`` entry, run once per seed and shared by every test of
    the session, so a test must not modify it.  A test that checks
    determinism compares it with a run of its own."""
    reports: dict = {}

    def run(exp, seed=0):
        key = (exp.command, seed)
        if key not in reports:
            reports[key] = exp.run(smoke=True, seed=seed)
        return reports[key]

    return run


@pytest.fixture(scope="session")
def smoke_snapshot(smoke_report):
    """The smoke perf suite, its experiment scenarios recorded from the
    shared smoke reports."""
    from repro.bench.gates import EXPERIMENTS
    from repro.perf import run_suite, suite

    cached = tuple(
        dataclasses.replace(
            exp, run=lambda *, smoke, seed, exp=exp: smoke_report(exp, seed)
        )
        for exp in EXPERIMENTS
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suite, "EXPERIMENTS", cached)
        return run_suite(smoke=True)


@pytest.fixture
def small_dense():
    return random_dense(25, 0.2, seed=7)


@pytest.fixture
def small_csr(small_dense):
    return CSRMatrix.from_dense(small_dense)


@pytest.fixture
def paper_example() -> CSRMatrix:
    """A 10x10 matrix in the spirit of Figure 1: banded with an
    off-band entry that produces fill (the (9, 5)-style dependency)."""
    d = np.eye(10) * 10.0
    links = [
        (0, 3), (1, 4), (2, 4), (3, 7), (4, 7), (5, 8), (6, 8), (7, 9),
        (8, 9), (9, 5), (4, 1), (8, 2), (9, 0),
    ]
    for i, j in links:
        d[i, j] = 1.0
    return CSRMatrix.from_dense(d)


