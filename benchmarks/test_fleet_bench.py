"""fleet-bench — the cluster tier's scaling and overload acceptance bar.

Not a paper figure: quantifies what the :mod:`repro.fleet` layer adds on
top of the serving subsystem.  The test runs the registry's
``fleet-bench`` entry; its declared gates are the acceptance bar.
Warm-pattern aggregate throughput must grow with node count on the zipf
trace, every sweep point must stay bitwise-identical to the
single-service replay, and the deliberately overloaded point must shed
(typed, nonzero) without a single exception escaping the replay loop.
"""

import pytest

from repro.bench.gates import EXPERIMENTS

FLEET = next(e for e in EXPERIMENTS if e.command == "fleet-bench")


@pytest.mark.fleet
def test_fleet_bench_smoke_meets_acceptance_bar(once):
    res = once(FLEET.run, smoke=True)
    assert set(res.verdicts()) == {
        "identical_ok",  # every sweep point bitwise-right
        "throughput_ok",  # aggregate scaling, 1 -> 8 nodes
        "speedup_ok",  # 8-node makespan speedup > 1.5x
        "no_shed_ok",  # no sheds at 1 or 8 nodes
        "warm_rate_ok",  # zipf repeats stay warm (> 0.8)
        "overload_shed_ok",  # graceful degradation, typed sheds
        "overload_accounted_ok",  # completed + shed == requests
        "overload_identical_ok",  # admitted work still bitwise-right
    }
    assert res.passed, res.verdicts()
    print()
    print(FLEET.format(res))
