"""The device op pipeline: every proxy layer sees each op once, through
``execute``, and books exactly what the plain ``GPU`` books.

The layer contract is checked for every op kind against every layer;
the structural guard keeps the op surface on ``GPUProxy`` alone.
"""

import dataclasses
import inspect

import pytest

from repro.bench.gates import factor_mismatches
from repro.core import EndToEndLU, SolverConfig
from repro.core.resilient import ResilientGPU, RetryPolicy
from repro.errors import RecoverableError
from repro.gpusim import (
    GPU,
    FaultInjector,
    FaultPlan,
    GPUProxy,
    TracingGPU,
    scaled_device,
)
from repro.streams import StreamedGPU
from repro.symbolic import symbolic_fill_reference
from repro.workloads import by_abbr

MB = 1 << 20

#: the device op surface, written once on GPUProxy
SURFACE = (
    "h2d",
    "d2h",
    "launch_traversal",
    "launch_numeric",
    "launch_panel",
    "launch_utility",
    "malloc",
    "hbm_traffic",
)

#: one serial call per op kind
CALLS = {
    "h2d": lambda g: g.h2d(MB),
    "d2h": lambda g: g.d2h(MB),
    "traversal": lambda g: g.launch_traversal(4000, 4.0, 8),
    "numeric": lambda g: g.launch_numeric(9000, 8, search_steps=2),
    "panel": lambda g: g.launch_panel(9000, 4, kind="panel-update"),
    "utility": lambda g: g.launch_utility(1000),
    "malloc": lambda g: g.malloc(MB, "buf"),
    "hbm": lambda g: g.hbm_traffic(MB),
}

#: one async enqueue per async op kind (issued on a StreamedGPU)
ASYNC_CALLS = {
    "h2d": lambda g: g.h2d_async(MB, "up"),
    "d2h": lambda g: g.d2h_async(MB, "down"),
    "traversal": lambda g: g.launch_traversal_async(4000, 4.0, 8, "k"),
    "numeric": lambda g: g.launch_numeric_async(9000, 8, "k"),
    "utility": lambda g: g.launch_utility_async(1000, "k"),
}

LAYERS = {
    "FaultInjector": lambda g: FaultInjector(g, FaultPlan(seed=1)),
    "ResilientGPU": lambda g: ResilientGPU(g),
    "StreamedGPU": lambda g: StreamedGPU(g),
    "TracingGPU": lambda g: TracingGPU(g),
}

#: every op kind an injector can fail, with a plan that always fails it
FAULTING = {
    "h2d": FaultPlan(transfer_fault_rate=1.0),
    "d2h": FaultPlan(transfer_fault_rate=1.0),
    "traversal": FaultPlan(kernel_fault_rate=1.0),
    "numeric": FaultPlan(kernel_fault_rate=1.0),
    "panel": FaultPlan(kernel_fault_rate=1.0),
    "utility": FaultPlan(kernel_fault_rate=1.0),
    "malloc": FaultPlan(memory_pressure_rate=1.0, pressure_fraction=0.99),
}


class CountingGPU(GPU):
    """A plain device that logs every op kind reaching ``execute``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.seen: list[str] = []

    def execute(self, op):
        self.seen.append(op.kind)
        return super().execute(op)


def device() -> CountingGPU:
    return CountingGPU(spec=scaled_device(64 * MB))


def plain_ledger(call) -> dict:
    gpu = GPU(spec=scaled_device(64 * MB))
    call(gpu)
    return gpu.ledger.snapshot()


class TestLayerContract:
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("kind", sorted(CALLS))
    def test_op_reaches_device_once_and_books_as_plain(self, kind, layer):
        gpu = device()
        stack = LAYERS[layer](gpu)
        CALLS[kind](stack)
        assert gpu.seen == [kind]
        assert stack.ledger.snapshot() == plain_ledger(CALLS[kind])

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("kind", sorted(FAULTING))
    def test_faulted_op_books_nothing(self, kind, layer):
        gpu = device()
        stack = LAYERS[layer](FaultInjector(gpu, FAULTING[kind]))
        with pytest.raises(RecoverableError):
            CALLS[kind](stack)
        # a pressure OOM fails inside the pool, before anything is booked
        assert set(gpu.seen) <= ({"malloc"} if kind == "malloc" else set())
        ledger = gpu.ledger
        # only the retry layer's backoff is on the clock
        assert ledger.total_seconds == ledger.seconds("retry")
        assert set(ledger.phase_seconds) <= {"retry"}
        assert {
            name
            for name in ledger.counters
            if not name.startswith("injected_")
        } <= {"faults_injected", "retries"}
        assert gpu.pool.live_bytes == 0
        if isinstance(stack, TracingGPU):
            assert stack.events == []

    @pytest.mark.parametrize("layer", ["FaultInjector", "ResilientGPU",
                                       "TracingGPU"])
    @pytest.mark.parametrize("kind", sorted(ASYNC_CALLS))
    def test_async_op_passes_layer_below_streams(self, kind, layer):
        gpu = device()
        stack = StreamedGPU(LAYERS[layer](gpu))
        ASYNC_CALLS[kind](stack)
        assert gpu.seen == [kind]
        plain = StreamedGPU(GPU(spec=scaled_device(64 * MB)))
        ASYNC_CALLS[kind](plain)
        assert stack.snapshot() == plain.snapshot()


class TestStructure:
    def test_no_layer_redefines_the_op_surface(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        layers = set(subclasses(GPUProxy))
        assert {
            FaultInjector, ResilientGPU, StreamedGPU, TracingGPU,
        } <= layers
        for cls in layers:
            overridden = set(SURFACE) & set(vars(cls))
            assert not overridden, f"{cls.__name__} overrides {overridden}"

    @pytest.mark.parametrize("name", SURFACE)
    def test_proxy_surface_mirrors_gpu(self, name):
        assert inspect.signature(getattr(GPUProxy, name)) == (
            inspect.signature(getattr(GPU, name))
        )


class TestOrdering:
    def test_hbm_and_free_do_not_tick_the_injector(self):
        inj = FaultInjector(GPU(spec=scaled_device(64 * MB)), FaultPlan())
        buf = inj.malloc(MB)
        assert inj.op_index == 1
        inj.hbm_traffic(MB)
        inj.free(buf)
        assert inj.op_index == 1

    def test_serial_retry_books_aside(self):
        gpu = GPU(spec=scaled_device(64 * MB))
        rgpu = ResilientGPU(
            FaultInjector(gpu, FaultPlan(seed=0, max_faults=1,
                                         transfer_fault_rate=1.0)),
            RetryPolicy(base_delay_s=1e-4),
        )
        with gpu.ledger.phase("upload"):
            rgpu.h2d(MB)
        dur = gpu.cost.transfer_seconds(MB)
        assert gpu.ledger.seconds("retry") == 1e-4
        assert gpu.ledger.seconds("upload") == dur
        assert gpu.ledger.total_seconds == dur + 1e-4
        [event] = rgpu.recovery_log.events
        assert (event.kind, event.where) == ("op-retry", "h2d")

    def test_async_retry_books_busy_and_pushes_stream(self):
        gpu = GPU(spec=scaled_device(64 * MB))
        rgpu = ResilientGPU(
            FaultInjector(gpu, FaultPlan(seed=0, max_faults=1,
                                         transfer_fault_rate=1.0)),
            RetryPolicy(base_delay_s=1e-4),
        )
        sgpu = StreamedGPU(rgpu)
        done = sgpu.h2d_async(MB, "up")
        dur = gpu.cost.transfer_seconds(MB)
        assert gpu.ledger.total_seconds == 0.0
        assert gpu.ledger.seconds("retry") == 1e-4
        assert done.resolved_s == 1e-4 + dur
        [event] = rgpu.recovery_log.events
        assert (event.kind, event.where) == ("op-retry", "async-h2d")
        assert sgpu.synchronize().makespan_s == 1e-4 + dur

    @pytest.mark.parametrize("kind", sorted(CALLS))
    def test_serial_ops_drain_streams_except_malloc(self, kind):
        sgpu = StreamedGPU(GPU(spec=scaled_device(64 * MB)))
        sgpu.h2d_async(MB)
        CALLS[kind](sgpu)
        assert len(sgpu.reports) == (0 if kind == "malloc" else 1)

    def test_tracing_need_not_sit_innermost(self):
        gpu = GPU(spec=scaled_device(64 * MB))
        tracer = TracingGPU(
            FaultInjector(gpu, FaultPlan(seed=0, max_faults=1,
                                         kernel_fault_rate=1.0))
        )
        stack = StreamedGPU(ResilientGPU(tracer))
        stack.launch_numeric(9000, 8)
        stack.launch_traversal_async(4000, 4.0, 8, "k")
        stack.synchronize()
        names = [ev.name for ev in tracer.events]
        assert names == ["numeric_kernel", "traversal_kernel_async"]
        assert tracer.events[1].args["stream"] == "k"


def _registry_config(abbr: str, n: int):
    spec = dataclasses.replace(by_abbr(abbr), n_scaled=n)
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    dev = spec.device_for_symbolic(a, filled.nnz, chunk_rows=32)
    return a, SolverConfig(device=dev, host=spec.host_for(dev))


def test_traced_run_books_the_untraced_ledger():
    a, cfg = _registry_config("OT2", 160)
    plain = EndToEndLU(cfg).factorize(a)
    tracer = TracingGPU(GPU(spec=cfg.device, host=cfg.host,
                            cost=cfg.cost_model))
    traced = EndToEndLU(cfg).factorize(a, gpu=tracer)
    assert tracer.events
    assert traced.gpu.ledger.snapshot() == plain.gpu.ledger.snapshot()


@pytest.mark.faults
@pytest.mark.supernodal
@pytest.mark.parametrize("abbr", ["G7", "OT2"])
def test_supernodal_recovers_under_kernel_faults(abbr, monkeypatch):
    monkeypatch.setattr(
        "repro.core.resilient.OP_RETRY", RetryPolicy(max_attempts=8)
    )
    a, base = _registry_config(abbr, 200)
    cfg = dataclasses.replace(base, supernodal=True, resilience=True)
    ref = EndToEndLU(cfg).factorize(a)
    injector = FaultInjector(
        GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model),
        FaultPlan(seed=5, kernel_fault_rate=0.05),
    )
    got = EndToEndLU(cfg).factorize(a, gpu=injector)
    assert got.recovery.op_retries > 0
    assert factor_mismatches(ref, got) == 0
    launches = "panel_kernel_launches"
    assert ref.gpu.ledger.get_count(launches) > 0
    assert got.gpu.ledger.get_count(launches) == (
        ref.gpu.ledger.get_count(launches)
    )
