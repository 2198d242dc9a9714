"""Recovery ladder rungs 1-3: retry policy, the resilient GPU wrapper,
chunk checkpoint/resume, and pivot recovery (repro.core.resilient)."""

import numpy as np
import pytest

from repro.core import (
    EndToEndLU,
    analyze,
    ResilientGPU,
    RetryPolicy,
    SolverConfig,
    SymbolicCheckpoint,
    recovery_log_of,
    run_chunk,
)
from repro.errors import KernelFaultError, SingularMatrixError, TransferError
from repro.gpusim import (
    GPU,
    FaultInjector,
    FaultPlan,
    scaled_device,
    scaled_host,
)
from repro.workloads import circuit_like


MEM = 1 << 20


class TestRetryPolicy:
    def test_exponential_schedule(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=1e-4, backoff=2.0,
                        max_delay_s=1.0)
        assert p.delay(1) == pytest.approx(1e-4)
        assert p.delay(2) == pytest.approx(2e-4)
        assert p.delay(3) == pytest.approx(4e-4)

    def test_delay_capped(self):
        p = RetryPolicy(max_attempts=10, base_delay_s=0.01, backoff=10.0,
                        max_delay_s=0.05)
        assert p.delay(4) == pytest.approx(0.05)

    @pytest.mark.parametrize("kw", [
        {"max_attempts": 0},
        {"base_delay_s": -1e-4},
        {"max_delay_s": -1.0},
        {"backoff": 0.5},
    ])
    def test_invalid_policy_rejected(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestResilientGPU:
    def test_transient_faults_absorbed(self):
        gpu = GPU(spec=scaled_device(MEM))
        inj = FaultInjector(
            gpu, FaultPlan(transfer_fault_rate=1.0, max_faults=2)
        )
        policy = RetryPolicy(max_attempts=4, base_delay_s=1e-4, backoff=2.0)
        rgpu = ResilientGPU(inj, policy)
        rgpu.h2d(1000)  # two injected faults, third attempt succeeds
        led = gpu.ledger
        assert led.get_count("h2d_transfers") == 1
        assert led.get_count("retries") == 2
        assert led.seconds("retry") == pytest.approx(
            policy.delay(1) + policy.delay(2)
        )
        assert [ev.kind for ev in rgpu.recovery_log.events] == [
            "op-retry", "op-retry",
        ]
        assert rgpu.recovery_log.events[0].detail == "TransferError"

    def test_retry_exhaustion_reraises(self):
        gpu = GPU(spec=scaled_device(MEM))
        inj = FaultInjector(gpu, FaultPlan(kernel_fault_rate=1.0))
        rgpu = ResilientGPU(inj, RetryPolicy(max_attempts=3))
        with pytest.raises(KernelFaultError):
            rgpu.launch_utility(100)
        assert gpu.ledger.get_count("retries") == 2  # backoffs before giving up
        assert gpu.ledger.get_count("kernel_launches") == 0

    def test_backoff_stays_out_of_phase_buckets(self):
        faulted = GPU(spec=scaled_device(MEM))
        rgpu = ResilientGPU(
            FaultInjector(
                faulted, FaultPlan(transfer_fault_rate=1.0, max_faults=1)
            )
        )
        with faulted.ledger.phase("symbolic"):
            rgpu.h2d(1000)
        clean = GPU(spec=scaled_device(MEM))
        with clean.ledger.phase("symbolic"):
            clean.h2d(1000)
        assert faulted.ledger.seconds("symbolic") == clean.ledger.seconds(
            "symbolic"
        )
        retry_s = faulted.ledger.seconds("retry")
        assert retry_s > 0
        assert faulted.ledger.total_seconds == pytest.approx(
            clean.ledger.total_seconds + retry_s
        )

    def test_recovery_log_found_through_proxy_stack(self):
        gpu = GPU(spec=scaled_device(MEM))
        rgpu = ResilientGPU(FaultInjector(gpu, FaultPlan()))
        assert recovery_log_of(rgpu) is rgpu.recovery_log
        assert recovery_log_of(gpu) is None


class TestChunkResume:
    def _gpu(self):
        return GPU(spec=scaled_device(MEM))

    def test_completed_chunk_skipped(self):
        gpu = self._gpu()
        cp = SymbolicCheckpoint()
        cp.mark("fill", 0)
        calls = []
        run_chunk(gpu, RetryPolicy(), cp, "fill", 0, lambda: calls.append(0))
        assert calls == []

    def test_flaky_chunk_retried_then_marked(self):
        gpu = self._gpu()
        cp = SymbolicCheckpoint()
        calls = []

        def body():
            calls.append(len(calls))
            if len(calls) == 1:
                raise KernelFaultError("traversal", 1)

        policy = RetryPolicy(max_attempts=3, base_delay_s=2e-4)
        run_chunk(gpu, policy, cp, "fill", 4, body)
        assert calls == [0, 1]
        assert cp.done("fill", 4)
        assert cp.chunk_retries == 1
        assert gpu.ledger.get_count("chunk_retries") == 1
        assert gpu.ledger.seconds("retry") == pytest.approx(policy.delay(1))

    def test_exhausted_chunk_raises_and_stays_incomplete(self):
        gpu = self._gpu()
        cp = SymbolicCheckpoint()

        def body():
            raise TransferError("h2d", 8, 1)

        with pytest.raises(TransferError):
            run_chunk(gpu, RetryPolicy(max_attempts=2), cp, "fill", 0, body)
        assert not cp.done("fill", 0)
        assert cp.chunk_retries == 1

    def test_completed_prefix_never_rerun(self):
        gpu = self._gpu()
        cp = SymbolicCheckpoint()
        executions = []
        failed = []

        def body_for(cid):
            def body():
                executions.append(cid)
                if cid == 1 and not failed:
                    failed.append(cid)
                    raise KernelFaultError("traversal", cid)
            return body

        for cid in range(3):
            run_chunk(gpu, RetryPolicy(), cp, "fill", cid, body_for(cid))
        # chunk 1 re-ran after its fault; chunks 0 and 2 ran exactly once
        assert executions == [0, 1, 1, 2]
        assert cp.completed == [("fill", 0), ("fill", 1), ("fill", 2)]

    def test_chunk_retry_recorded_on_resilient_log(self):
        gpu = self._gpu()
        rgpu = ResilientGPU(gpu)
        cp = SymbolicCheckpoint()
        state = []

        def body():
            if not state:
                state.append(1)
                raise KernelFaultError("traversal", 1)

        run_chunk(rgpu, RetryPolicy(), cp, "fill", 2, body)
        assert [ev.kind for ev in rgpu.recovery_log.events] == ["chunk-retry"]
        assert rgpu.recovery_log.events[0].where == "fill/chunk2"


def _singular_matrix(n=60, seed=3):
    """Structurally sound matrix with a numerically zero leading pivot."""
    a = circuit_like(n, 5.0, seed=seed)
    s, e = int(a.indptr[0]), int(a.indptr[1])
    for p in range(s, e):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0
    return a


class TestPivotRecovery:
    def test_singular_raises_without_resilience(self):
        with pytest.raises(SingularMatrixError):
            EndToEndLU(SolverConfig()).factorize(_singular_matrix())

    def test_perturbation_plus_refinement_recovers(self):
        n = 60
        a = _singular_matrix(n)
        b = np.random.default_rng(0).random(n)
        cfg = SolverConfig(resilience=True)
        res = EndToEndLU(cfg).factorize(a)
        rec = res.recovery
        assert rec is not None and rec.perturbed_columns
        x = res.solve(b)
        assert rec.refine_iterations is not None
        assert rec.residual_ok
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-6 * np.linalg.norm(b)
        assert "recovery:" in res.report()

    def test_refactorize_pass_refines_after_perturbation(self):
        """A numeric-only pass with perturbed pivots refines against its
        own input, as the cold pipeline's solve does."""
        n = 60
        a = _singular_matrix(n)
        b = np.random.default_rng(0).random(n)
        cfg = SolverConfig(resilience=True)
        res = analyze(a, cfg).refactorize(a)
        assert res.numeric.perturbed_columns
        x = res.solve(b)
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-8 * np.linalg.norm(b)
        assert x.tobytes() == EndToEndLU(cfg).factorize(a).solve(b).tobytes()

    def test_clean_matrix_reports_quiet_ladder(self):
        a = circuit_like(60, 5.0, seed=5)
        cfg = SolverConfig(resilience=True)
        res = EndToEndLU(cfg).factorize(a)
        assert res.recovery is not None
        assert not res.recovery.fired
        assert "recovery:" not in res.report()


@pytest.mark.faults
class TestFaultedRunEquivalence:
    """Satellite property: a faulted-then-recovered run is observationally
    identical to a fault-free run — bitwise-equal factors and solution,
    identical work counters, identical per-phase seconds — except for the
    ledger's ``retry`` bucket and the retry/injection counters."""

    WORK_COUNTERS = (
        "kernel_launches", "child_kernel_launches",
        "h2d_transfers", "d2h_transfers",
        "bytes_h2d", "bytes_d2h",
    )

    def test_recovered_run_observationally_identical(self):
        n = 120
        a = circuit_like(n, 5.0, seed=7)
        b = np.random.default_rng(7).random(n)
        need = SolverConfig().scratch_bytes_per_row(n) * n
        mem = max(need // 3, 1 << 20)  # force the out-of-core path
        cfg = SolverConfig(
            device=scaled_device(mem),
            host=scaled_host(8 * mem),
            resilience=True,
        )
        clean = EndToEndLU(cfg).factorize(a)
        gpu = GPU(spec=cfg.device, host=cfg.host, cost=cfg.cost_model)
        inj = FaultInjector(
            gpu,
            FaultPlan(seed=5, transfer_fault_rate=0.08,
                      kernel_fault_rate=0.03),
        )
        faulted = EndToEndLU(cfg).factorize(a, gpu=inj)
        assert inj.faults_injected > 0
        assert faulted.recovery.op_retries > 0

        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(clean.L, attr), getattr(faulted.L, attr))
            assert np.array_equal(
                getattr(clean.U, attr), getattr(faulted.U, attr))
        assert np.array_equal(clean.solve(b), faulted.solve(b))

        cl, fl = clean.gpu.ledger, faulted.gpu.ledger
        for counter in self.WORK_COUNTERS:
            assert fl.get_count(counter) == cl.get_count(counter), counter
        for ph, secs in cl.phase_seconds.items():
            assert fl.phase_seconds[ph] == pytest.approx(secs), ph
        extra = set(fl.phase_seconds) - set(cl.phase_seconds)
        assert extra <= {"retry"}
        assert fl.total_seconds == pytest.approx(
            cl.total_seconds + fl.seconds("retry")
        )
