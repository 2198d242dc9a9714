"""Non-finite matrix values are rejected, never factorized into NaN.

A NaN or infinite entry used to flow through the numeric kernel into a
solution full of NaN, and the service reported it as ``ok``.  The
values are now checked before any device work: in ``preprocess`` (so
``analyze`` and a cold factorize), in ``ReusableAnalysis.refactorize``
before the scatter, and at the service's drain.
"""

import numpy as np
import pytest

from repro import NonFiniteValueError, ReproError
from repro.core import EndToEndLU, SolverConfig, analyze
from repro.gpusim import GPU, scaled_device, scaled_host
from repro.preprocess import preprocess
from repro.serve import ServeConfig, SolverService
from repro.serve.loadgen import restamp
from repro.sparse import CSRMatrix
from repro.workloads import circuit_like

_N = 120


def _cfg() -> SolverConfig:
    mem = 8 << 20
    return SolverConfig(device=scaled_device(mem), host=scaled_host(8 * mem))


def _gpu(cfg: SolverConfig) -> GPU:
    return GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)


@pytest.fixture(scope="module")
def pattern():
    return circuit_like(_N, 6.0, seed=41)


@pytest.fixture
def rhs():
    return np.random.default_rng(1).normal(size=_N)


def _poisoned(a: CSRMatrix, value: float, at: int = 17) -> CSRMatrix:
    data = a.data.copy()
    data[at] = value
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data)


_BAD = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


@_BAD
def test_preprocess_rejects_with_typed_error(pattern, value):
    with pytest.raises(NonFiniteValueError) as info:
        preprocess(_poisoned(pattern, value))
    assert isinstance(info.value, ReproError)
    assert info.value.count == 1 and info.value.first == 17


@_BAD
def test_analyze_and_factorize_reject_before_any_charge(pattern, value):
    cfg = _cfg()
    bad = _poisoned(pattern, value)
    for run in (
        lambda gpu: analyze(bad, cfg, gpu=gpu),
        lambda gpu: EndToEndLU(cfg).factorize(bad, gpu=gpu),
    ):
        gpu = _gpu(cfg)
        with pytest.raises(NonFiniteValueError):
            run(gpu)
        assert gpu.snapshot() == _gpu(cfg).snapshot()


@_BAD
def test_refactorize_rejects_before_any_charge(pattern, value):
    cfg = _cfg()
    an = analyze(pattern, cfg)
    an.refactorize(restamp(pattern, 1))
    before = an.gpu.snapshot()
    with pytest.raises(NonFiniteValueError):
        an.refactorize(_poisoned(restamp(pattern, 2), value))
    assert an.gpu.snapshot() == before
    # the analysis is untouched: the next pass equals a fresh one's
    good = restamp(pattern, 3)
    again = an.refactorize(good)
    fresh = analyze(pattern, cfg).refactorize(good)
    assert again.L.data.tobytes() == fresh.L.data.tobytes()
    assert again.U.data.tobytes() == fresh.U.data.tobytes()


def _service() -> SolverService:
    return SolverService(ServeConfig(solver=_cfg()))


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_service_answers_error_then_serves_next_request(
    pattern, rhs, warm
):
    svc = _service()
    if warm:
        assert svc.solve(restamp(pattern, 1), rhs).ok
    bad = svc.submit(_poisoned(restamp(pattern, 2), np.nan), rhs)
    svc.flush()
    resp = svc.result(bad)
    assert resp.status == "error" and resp.x is None
    assert "NonFiniteValueError" in resp.error

    good = restamp(pattern, 3)
    served = svc.solve(good, rhs)
    assert served.ok
    assert served.x.tobytes() == _service().solve(good, rhs).x.tobytes()


def test_bad_request_does_not_fail_its_batch(pattern, rhs):
    svc = _service()
    good = restamp(pattern, 4)
    ids = [
        svc.submit(_poisoned(restamp(pattern, 5), np.inf), rhs),
        svc.submit(good, rhs),
    ]
    svc.flush()
    bad, ok = (svc.result(i) for i in ids)
    assert bad.status == "error"
    assert ok.ok
    assert ok.x.tobytes() == _service().solve(good, rhs).x.tobytes()
