"""Seeded fault injection: plan validation, determinism, fail-before-charge,
and memory-pressure typing (repro.gpusim.faults)."""

import pytest

from repro.errors import (
    ConfigurationError,
    DeviceMemoryError,
    KernelFaultError,
    MemoryPressureError,
    RecoverableError,
    TransferError,
)
from repro.gpusim import GPU, FaultInjector, FaultPlan, GPUProxy, scaled_device


MEM = 1 << 20


def make_injector(**plan_kw):
    gpu = GPU(spec=scaled_device(MEM))
    return gpu, FaultInjector(gpu, FaultPlan(**plan_kw))


class TestFaultPlanValidation:
    @pytest.mark.parametrize("kw", [
        {"transfer_fault_rate": -0.1},
        {"transfer_fault_rate": 1.1},
        {"kernel_fault_rate": 2.0},
        {"memory_pressure_rate": -1.0},
        {"pressure_fraction": 0.0},
        {"pressure_fraction": 1.0},
        {"pressure_duration_s": 0.0},
        {"pressure_min_op": -1},
        {"max_faults": -1},
    ])
    def test_invalid_plan_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kw)

    def test_any_faults_flag(self):
        assert not FaultPlan().any_faults
        assert FaultPlan(kernel_fault_rate=0.1).any_faults
        assert FaultPlan(memory_pressure_rate=0.1).any_faults


class TestProxyDelegation:
    def test_attributes_resolve_on_wrapped_gpu(self):
        gpu, inj = make_injector()
        assert inj.free_bytes == gpu.free_bytes
        assert inj.ledger is gpu.ledger
        assert inj.spec is gpu.spec

    def test_unwrapped_pierces_proxy_stack(self):
        gpu, inj = make_injector()
        assert inj.unwrapped is gpu
        assert GPUProxy(inj).unwrapped is gpu

    def test_benign_plan_is_transparent(self):
        gpu, inj = make_injector()  # all rates zero
        inj.h2d(1000)
        inj.launch_utility(10)
        clean = GPU(spec=scaled_device(MEM))
        clean.h2d(1000)
        clean.launch_utility(10)
        assert gpu.ledger.total_seconds == clean.ledger.total_seconds
        assert inj.events == []


class TestFailBeforeCharge:
    def test_transfer_fault_books_nothing(self):
        gpu, inj = make_injector(transfer_fault_rate=1.0)
        with pytest.raises(TransferError) as ei:
            inj.h2d(1000)
        assert gpu.ledger.total_seconds == 0.0
        assert gpu.ledger.get_count("h2d_transfers") == 0
        assert gpu.ledger.get_count("bytes_h2d") == 0
        assert gpu.ledger.get_count("injected_transfer_faults") == 1
        assert ei.value.direction == "h2d"
        assert isinstance(ei.value, RecoverableError)

    def test_kernel_fault_books_nothing(self):
        gpu, inj = make_injector(kernel_fault_rate=1.0)
        with pytest.raises(KernelFaultError):
            inj.launch_numeric(1000, 10)
        assert gpu.ledger.total_seconds == 0.0
        assert gpu.ledger.get_count("kernel_launches") == 0
        assert gpu.ledger.get_count("injected_kernel_faults") == 1

    def test_panel_kernel_fault_books_nothing(self):
        gpu, inj = make_injector(kernel_fault_rate=1.0)
        with pytest.raises(KernelFaultError) as ei:
            inj.launch_panel(1000, 10)
        assert inj.op_index == 1
        assert ei.value.kernel == "panel"
        assert gpu.ledger.total_seconds == 0.0
        assert gpu.ledger.get_count("panel_kernel_launches") == 0
        assert gpu.ledger.get_count("injected_kernel_faults") == 1

    def test_max_faults_budget_respected(self):
        gpu, inj = make_injector(transfer_fault_rate=1.0, max_faults=2)
        for _ in range(2):
            with pytest.raises(TransferError):
                inj.h2d(100)
        inj.h2d(100)  # budget exhausted: operation goes through
        assert inj.faults_injected == 2
        assert gpu.ledger.get_count("h2d_transfers") == 1


class TestDeterminism:
    @staticmethod
    def _workload(inj):
        for _ in range(60):
            try:
                inj.h2d(1000)
            except TransferError:
                pass
            try:
                inj.launch_utility(100)
            except KernelFaultError:
                pass

    def test_same_seed_same_event_log(self):
        logs = []
        for _ in range(2):
            _, inj = make_injector(
                seed=42, transfer_fault_rate=0.3, kernel_fault_rate=0.2
            )
            self._workload(inj)
            logs.append(inj.event_log())
        assert logs[0]  # faults actually fired
        assert logs[0] == logs[1]

    def test_different_seed_different_log(self):
        logs = []
        for seed in (0, 1):
            _, inj = make_injector(seed=seed, transfer_fault_rate=0.3)
            self._workload(inj)
            logs.append(inj.event_log())
        assert logs[0] != logs[1]

    def test_fault_counts_by_kind(self):
        _, inj = make_injector(
            seed=7, transfer_fault_rate=0.5, kernel_fault_rate=0.5
        )
        self._workload(inj)
        counts = inj.fault_counts()
        assert counts.get("transfer", 0) + counts.get("kernel", 0) == len(
            inj.events
        )


class TestMemoryPressure:
    def _pressured(self, **kw):
        kw.setdefault("memory_pressure_rate", 1.0)
        kw.setdefault("pressure_fraction", 0.75)
        kw.setdefault("pressure_duration_s", 1.0)
        gpu, inj = make_injector(**kw)
        inj.h2d(64)  # first op: episode starts
        return gpu, inj

    def test_episode_reserves_pool_bytes(self):
        gpu, inj = self._pressured()
        assert gpu.pool.reserved_bytes == int(0.75 * MEM)
        assert inj.events[0].kind == "pressure-start"
        assert gpu.ledger.get_count("injected_memory_pressure") == 1

    def test_pressure_oom_is_recoverable(self):
        gpu, inj = self._pressured()
        # would fit in a healthy pool, not under the episode's reservation
        with pytest.raises(MemoryPressureError) as ei:
            inj.malloc(MEM // 2, "scratch")
        assert isinstance(ei.value, DeviceMemoryError)
        assert isinstance(ei.value, RecoverableError)
        assert gpu.ledger.get_count("injected_pressure_oom") == 1

    def test_genuine_oom_stays_nonrecoverable(self):
        gpu, inj = self._pressured()
        with pytest.raises(DeviceMemoryError) as ei:
            inj.malloc(2 * MEM, "huge")
        assert not isinstance(ei.value, MemoryPressureError)

    def test_episode_releases_after_duration(self):
        gpu, inj = self._pressured(max_faults=1)  # no follow-up episode
        gpu.ledger.charge(2.0)  # sail past pressure_duration_s
        inj.h2d(64)  # next op ticks the state machine
        assert gpu.pool.reserved_bytes == 0
        assert [ev.kind for ev in inj.events] == [
            "pressure-start", "pressure-end",
        ]
        inj.malloc(MEM // 2, "scratch")  # fits again

    def test_pressure_min_op_delays_episodes(self):
        gpu, inj = make_injector(
            memory_pressure_rate=1.0, pressure_min_op=5
        )
        for _ in range(5):
            inj.h2d(8)
        assert inj.events == []  # warm-up window sees the true pool
        inj.h2d(8)  # op 6 > min_op: episode may start
        assert [ev.kind for ev in inj.events] == ["pressure-start"]
