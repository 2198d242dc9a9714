"""Benchmark-suite configuration.

``test_registry.py`` runs every row of the gated registry (the sweeps,
the drills, the paper's tables and figures and the ablations) at its
full point; ``test_scaling_extensions.py`` runs the multi-device and
streamed-numeric studies.  The measured quantity of interest is
*simulated* time computed by the runner; ``benchmark.pedantic(rounds=1)``
wraps each runner so pytest-benchmark also records the harness
wall-clock without re-running the heavy simulations.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_registry.py
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under pytest-benchmark and return its
    result (the experiment runners are deterministic and expensive)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
