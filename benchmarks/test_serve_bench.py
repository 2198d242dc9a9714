"""serve-bench — the serving subsystem measured against cold solves.

Not a paper figure: quantifies what the :mod:`repro.serve` layer adds on
top of the reproduction.  Both tests run the registry's ``serve-bench``
entry; its declared gates are the acceptance bar.  In full mode the
ample-cache row must beat the cold-solve baseline by at least 3x with a
request-level hit rate above 0.9; the zero-capacity row isolates
batching (no analysis reuse across batches).
"""

import pytest

from repro.bench.gates import EXPERIMENTS

SERVE = next(e for e in EXPERIMENTS if e.command == "serve-bench")


@pytest.mark.serve
def test_serve_bench_fast_smoke(once):
    """Quick CI smoke: tiny trace, invariants only."""
    res = once(SERVE.run, smoke=True)
    assert set(res.verdicts()) == {
        "no_cache_hit_rate_ok",  # no cache, no reuse
        "ample_hit_rate_ok",  # 24 requests, first 6-request flush cold
        "ample_speedup_ok",  # ample cache beats no cache
    }
    assert res.passed, res.verdicts()
    print()
    print(SERVE.format(res))


@pytest.mark.serve
def test_serve_bench_full_meets_acceptance_bar(once):
    """The serving acceptance bar on the default trace."""
    res = once(SERVE.run)
    assert set(res.verdicts()) == {
        "ample_hit_rate_ok",  # > 0.9
        "ample_speedup_ok",  # >= 3x vs cold solves
        "tight_hit_rate_ok",  # a thrashing budget reuses nothing
        "latency_ok",  # reuse shows up in p50 latency, not just makespan
    }
    assert res.passed, res.verdicts()
    print()
    print(SERVE.format(res))
