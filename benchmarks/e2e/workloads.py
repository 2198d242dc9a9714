"""The four benchmark workloads, driven through the public API.

Each workload has three parts:

* ``setup(seed, smoke)`` builds the inputs from the seed, sizes the
  simulated devices and runs whatever a user runs once before the
  operations they care about (pattern analysis, the numeric plan build).
* ``run_round(state, timer, first)`` runs one *round*: a fixed set of
  operations, each timed by ``timer``.  Rounds of one run are identical.
  Only the run's first (untimed) round reads the simulated clocks,
  because a device ledger that keeps accumulating across rounds rounds
  its deltas differently.
* ``check(state, rounds)`` verifies every output outside the timed
  spans and returns the failures.

Library workloads (``cold_factorize``, ``refactor_stream``) are closed
loops: one operation starts when the previous one returns.  Serving
workloads (``serve_hot``, ``fleet_drift``) replay an open-loop trace on
the service's virtual clock at a fixed arrival gap, with a fresh service
or fleet each round; latency there is measured from each request's
arrival time on that clock.
"""

from __future__ import annotations

import dataclasses
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.core import EndToEndLU, SolverConfig, analyze
from repro.fleet import Fleet, FleetConfig, replay_fleet
from repro.serve import (
    ServeConfig,
    SolverService,
    TraceRequest,
    family_key,
    replay,
    restamp,
    zipf_weights,
)
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like, perturb_pattern
from repro.workloads.registry import by_abbr

#: An operation fails above this normwise backward error.
BACKWARD_ERROR_LIMIT = 1e-12
#: ... or when it disagrees with scipy's SuperLU by more than this.
ORACLE_LIMIT = 1e-10

#: Table 2 instances at their registry (scaled) size: circuit, then FEM;
#: the largest of each class (PR, CR2) would more than double a round,
#: and a run makes at least four rounds (one untimed) however long they
#: are, which would take it past half a minute
COLD_SPECS = ("OT2", "R15", "G7", "GO", "RM")
#: three circuit patterns and one FEM pattern; each keeps its numeric
#: plan cached on its schedule, so the set is chosen to hold them all
#: in under 1 GB (RM and CR2 would add another 0.9 GB)
REFACTOR_SPECS = ("R15", "G7", "PR", "GO")
REFACTOR_STAMPS = 4
#: serving replays submit this many requests between flushes
FLUSH_EVERY = 8
#: ``--smoke`` shrinks every registry instance (rows, out-of-core chunk).
SMOKE_N = 160
SMOKE_CHUNK_ROWS = 32


@dataclass
class Round:
    """Outputs of one round.  The simulated readings (``sim_s``,
    ``latencies_s``, ``layers``) are filled in the first round only."""

    #: per operation: solution vector, or ``None`` if the operation failed
    outputs: list[np.ndarray | None]
    #: per operation: why it failed during the run (``None`` = no failure)
    errors: list[str | None]
    sim_s: float = 0.0
    #: simulated latency of every operation or request, seconds
    latencies_s: list[float] = field(default_factory=list)
    #: simulated per-layer readings (see ``layer_readings``)
    layers: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Instance:
    """One registry matrix with its right-hand side and sized device."""

    abbr: str
    a: CSRMatrix
    b: np.ndarray
    config: SolverConfig


def registry_instance(abbr: str, index: int, seed: int,
                      smoke: bool) -> Instance:
    """Seed ``k`` offsets the spec's generator seed by ``1000 k``."""
    spec = by_abbr(abbr)
    spec = dataclasses.replace(spec, seed=spec.seed + 1000 * seed)
    if smoke:
        spec = dataclasses.replace(spec, n_scaled=SMOKE_N)
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    device = spec.device_for_symbolic(
        a, filled.nnz, chunk_rows=SMOKE_CHUNK_ROWS if smoke else 128
    )
    b = np.random.default_rng([seed, index]).normal(size=a.n_rows)
    return Instance(
        abbr, a, b, SolverConfig(device=device, host=spec.host_for(device))
    )


def backward_error(a, b: np.ndarray, x: np.ndarray) -> float:
    """Normwise ``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)``."""
    r = b - a.matvec(x)
    row_abs = np.bincount(
        a.row_ids_of_entries(), weights=np.abs(a.data), minlength=a.n_rows
    )
    denom = row_abs.max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(r).max() / denom)


def _log_failure(what: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{what} raised {sys.exc_info()[1]!r}"


def _check_solution(a, b, x) -> tuple[str | None, float]:
    """(failure reason or None, backward error) of one solution."""
    if x is None:
        return "no solution", 0.0
    if not np.all(np.isfinite(x)):
        return "non-finite solution", 0.0
    err = backward_error(a, b, x)
    if not err <= BACKWARD_ERROR_LIMIT:
        return f"backward error {err:.3e}", err
    return None, err


def layer_readings(gpus, *, before: list[dict] | None = None,
                   services: Iterable[dict] = (), fleet=None
                   ) -> dict[str, float]:
    """Simulated per-layer readings of one round, every name present.

    ``gpus`` are the devices the round used, less their ``before``
    snapshots when they predate the round (the pool peak stays their
    lifetime peak); ``services`` are the ``SolverService.stats()`` of
    every serving node and ``fleet`` the ``(responses, Fleet.stats())``
    of a fleet replay.  Simulated seconds are reported as shares of the
    round's summed device seconds.
    """
    phases: Counter[str] = Counter()
    counters: Counter[str] = Counter()
    total = 0.0
    peak = 0
    for i, gpu in enumerate(gpus):
        snap = gpu.snapshot()
        total += snap["total_seconds"]
        phases.update(snap["phases"])
        counters.update(snap["counters"])
        peak = max(peak, int(snap["peak_device_bytes"]))
        if before is not None:
            total -= before[i]["total_seconds"]
            phases.subtract(before[i]["phases"])
            counters.subtract(before[i]["counters"])
    batches = 0
    batched = 0.0
    hits = lookups = 0
    for snap in services:
        counters.update(snap["counters"])
        for phase, seconds in snap["phase_seconds"].items():
            phases["serve:" + phase] += seconds
        hist = snap["histograms"].get("batch_size")
        if hist:
            batches += hist["count"]
            batched += hist["count"] * hist["mean"]
        hits += snap["cache"]["hits"]
        lookups += snap["cache"]["hits"] + snap["cache"]["misses"]

    def share(*names: str) -> float:
        return sum(phases[n] for n in names) / total if total else 0.0

    out = {
        "symbolic.sim_frac": share("symbolic"),
        "levelize.sim_frac": share("levelize"),
        "numeric.sim_frac": share("numeric"),
        "incremental.sim_frac": share("symbolic-delta", "levelize-delta"),
        "numeric.kernel_launches": counters["numeric_kernel_launches"],
        "gpusim.kernel_launches": (
            counters["kernel_launches"] + counters["child_kernel_launches"]
        ),
        "gpusim.bytes_h2d": counters["bytes_h2d"],
        "gpusim.bytes_d2h": counters["bytes_d2h"],
        "gpusim.pool_peak_bytes": peak,
        "gpusim.device_s": total,
        "serve.batches": batches,
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.coalesced": counters["coalesced"],
        "serve.cache_evictions": counters["cache_evictions"],
        "serve.cache_hit_rate": hits / lookups if lookups else 0.0,
        "serve.analysis_sim_frac": share(
            "serve:analysis", "serve:analysis_delta"
        ),
        "serve.numeric_sim_frac": share("serve:numeric"),
        "serve.solve_sim_frac": share("serve:solve"),
        "incremental.splices": counters["incremental_hits"],
        "incremental.fallbacks": counters["incremental_fallbacks"],
    }
    responses, stats = fleet if fleet is not None else ((), None)
    served: Counter[str] = Counter(r.served for r in responses if r.ok)
    per_node = Counter(r.node_id for r in responses if not r.shed)
    admitted = sum(per_node.values())
    mean = admitted / len(per_node) if per_node else 0.0
    l2_hits = l2_lookups = 0
    wire_s = span = 0.0
    if stats is not None:
        l2 = stats["l2"]
        l2_hits = l2["hits"]
        l2_lookups = l2["hits"] + l2["misses"]
        wire_s = sum(link["busy_seconds"] for link in l2["links"])
        span = float(stats["makespan_seconds"]) * len(l2["links"])
    out.update({
        "fleet.served_l1": served["l1"],
        "fleet.served_l2": served["l2"],
        "fleet.served_cold": served["cold"],
        "fleet.served_delta": served["delta"],
        "fleet.served_l2_delta": served["l2-delta"],
        "fleet.shed": sum(r.shed for r in responses),
        "fleet.l1_hit_rate": served["l1"] / admitted if admitted else 0.0,
        "fleet.l2_hit_rate": l2_hits / l2_lookups if l2_lookups else 0.0,
        "fleet.balance": max(per_node.values()) / mean if mean else 0.0,
        "fleet.l2_link_util": wire_s / span if span else 0.0,
    })
    return out


# ----------------------------------------------------------------------
class ColdFactorize:
    """``EndToEndLU(cfg).factorize(a).solve(b)`` from scratch."""

    name = "cold_factorize"

    def setup(self, seed: int, smoke: bool) -> list[Instance]:
        return [
            registry_instance(abbr, i, seed, smoke)
            for i, abbr in enumerate(COLD_SPECS)
        ]

    def ops_per_round(self, state) -> int:
        return len(state)

    def run_round(self, state, timer, first: bool) -> Round:
        rnd = Round(outputs=[], errors=[])
        gpus = []
        for inst in state:
            try:
                with timer.op(inst.abbr):
                    res = EndToEndLU(inst.config).factorize(inst.a)
                    x = res.solve(inst.b)
            except Exception:
                rnd.outputs.append(None)
                rnd.errors.append(_log_failure(inst.abbr))
                continue
            rnd.outputs.append(x)
            rnd.errors.append(None)
            if first:
                rnd.latencies_s.append(res.sim_seconds)
                gpus.append(res.gpu)
        if first:
            rnd.sim_s = sum(rnd.latencies_s)
            rnd.layers = layer_readings(gpus)
        return rnd

    def check(self, state, rounds: list[Round]) -> dict:
        """Backward error of every output, plus scipy's SuperLU as an
        independent oracle (also timed: the plain single-threaded
        baseline for the same problems)."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import splu

        reference = []
        splu_s = 0.0
        for inst in state:
            a = csr_matrix((inst.a.data, inst.a.indices, inst.a.indptr),
                           shape=inst.a.shape).tocsc()
            t0 = perf_counter()
            x_ref = splu(a).solve(inst.b)
            splu_s += perf_counter() - t0
            reference.append(x_ref)
        report = _check_rounds(
            rounds, [(inst.a, inst.b) for inst in state]
        )
        oracle_max = 0.0
        for r, rnd in enumerate(rounds):
            for i, x in enumerate(rnd.outputs):
                if (r, i) in report["failures"]:
                    continue
                ref = reference[i]
                dist = float(np.abs(x - ref).max() / np.abs(ref).max())
                oracle_max = max(oracle_max, dist)
                if not dist <= ORACLE_LIMIT:
                    report["failures"][r, i] = (
                        f"{state[i].abbr}: {dist:.3e} from scipy splu"
                    )
        report["oracle_distance_max"] = oracle_max
        report["reference.splu_ops_per_s"] = len(state) / splu_s
        return report


class RefactorStream:
    """``analyze`` once per pattern in setup, then per operation
    ``refactorize`` a re-stamped matrix and ``solve``."""

    name = "refactor_stream"

    def setup(self, seed: int, smoke: bool) -> dict:
        instances = [
            registry_instance(abbr, i, seed, smoke)
            for i, abbr in enumerate(REFACTOR_SPECS)
        ]
        analyses = [analyze(inst.a, inst.config) for inst in instances]
        ops = []
        for _ in range(REFACTOR_STAMPS):
            for i, inst in enumerate(instances):
                a = restamp(inst.a, seed=1000 * seed + len(ops))
                ops.append((i, a, inst.b))
        # the numeric plan is built on the first pass over a pattern and
        # cached on its schedule: a user pays that once, like analyze
        for i, a, b in ops[: len(instances)]:
            analyses[i].refactorize(a).solve(b)
        return {"instances": instances, "analyses": analyses, "ops": ops}

    def ops_per_round(self, state) -> int:
        return len(state["ops"])

    def run_round(self, state, timer, first: bool) -> Round:
        rnd = Round(outputs=[], errors=[])
        analyses = state["analyses"]
        instances = state["instances"]
        gpus = [an.gpu for an in analyses]
        before = [gpu.snapshot() for gpu in gpus] if first else None
        for i, a, b in state["ops"]:
            analysis = analyses[i]
            t0 = analysis.gpu.ledger.total_seconds
            try:
                with timer.op(instances[i].abbr):
                    x = analysis.refactorize(a).solve(b)
            except Exception:
                rnd.outputs.append(None)
                rnd.errors.append(_log_failure(instances[i].abbr))
                continue
            rnd.outputs.append(x)
            rnd.errors.append(None)
            if first:
                rnd.latencies_s.append(
                    analysis.gpu.ledger.total_seconds - t0
                )
        if first:
            rnd.sim_s = sum(rnd.latencies_s)
            rnd.layers = layer_readings(gpus, before=before)
        return rnd

    def check(self, state, rounds: list[Round]) -> dict:
        return _check_rounds(rounds, [(a, b) for _, a, b in state["ops"]])


class _Replay:
    """What the serving workloads share: the state holds the ``trace``,
    one request is one output, and a round is one replay through a fresh
    server.  The replay is fed one flush batch at a time, and each batch
    is one timed operation (starting and shutting the server down are
    two more), so that the run's per-operation medians see the round in
    short stretches."""

    def ops_per_round(self, state) -> int:
        return len(state["trace"])

    def failed_round(self, state) -> Round:
        why = _log_failure("replay")
        n = len(state["trace"])
        return Round(outputs=[None] * n, errors=[why] * n)

    def check(self, state, rounds: list[Round]) -> dict:
        return _check_rounds(
            rounds, [(ev.a, ev.b) for ev in state["trace"]]
        )

    def run_round(self, state, timer, first: bool) -> Round:
        trace = state["trace"]
        responses = []
        try:
            with timer.op("start"):
                server = self.start(state["config"])
            for lo in range(0, len(trace), FLUSH_EVERY):
                with timer.op("batch"):
                    done = self.feed(server, trace[lo:lo + FLUSH_EVERY])
                responses.extend(done)
            with timer.op("stop"):
                server.shutdown()
        except Exception:
            return self.failed_round(state)
        rnd = _serving_round(responses)
        if first:
            self.read_clocks(server, responses, rnd)
        return rnd


class ServeHot(_Replay):
    """A zipf trace over a few hot circuit patterns through one
    ``SolverService``: the read path of the analysis cache."""

    name = "serve_hot"

    def setup(self, seed: int, smoke: bool) -> dict:
        config = ServeConfig(num_devices=2, cache_capacity_bytes=256 << 20)
        return {"trace": hot_trace(seed, smoke), "config": config}

    def start(self, config: ServeConfig) -> SolverService:
        return SolverService(config)

    def feed(self, service: SolverService, batch) -> list:
        return replay(service, batch, flush_every=FLUSH_EVERY)

    def read_clocks(self, service, responses, rnd: Round) -> None:
        stats = service.stats()
        gpus = [d.gpu for d in service.scheduler.pool.devices]
        rnd.sim_s = max(d["busy_until"] for d in stats["devices"])
        rnd.layers = layer_readings(gpus, services=[stats])


class FleetDrift(_Replay):
    """Drifting circuit families through a 4-node ``Fleet`` whose small
    L1 caches keep evicting: the write path, the shared L2 and delta
    splices."""

    name = "fleet_drift"

    def setup(self, seed: int, smoke: bool) -> dict:
        config = FleetConfig(
            num_nodes=4, serve=ServeConfig(cache_capacity_bytes=2 << 20)
        )
        return {"trace": drift_trace(seed, smoke), "config": config}

    def start(self, config: FleetConfig) -> Fleet:
        return Fleet(config)

    def feed(self, fleet: Fleet, batch) -> list:
        # every response so far, one per submission: the batch's are last
        return replay_fleet(fleet, batch, flush_every=FLUSH_EVERY)[
            -len(batch):
        ]

    def read_clocks(self, fleet, responses, rnd: Round) -> None:
        stats = fleet.stats()
        nodes = list(fleet.nodes.values())
        gpus = [
            d.gpu for node in nodes for d in node.scheduler.pool.devices
        ]
        rnd.sim_s = float(stats["makespan_seconds"])
        rnd.layers = layer_readings(
            gpus,
            services=list(stats["nodes"].values()),
            fleet=(responses, stats),
        )


def hot_trace(seed: int, smoke: bool) -> list[TraceRequest]:
    """``synthesize_trace``'s zipf(1.1) stream over 8 circuit patterns,
    but with the patterns fixed: the seed draws each request's pattern,
    its values (a tenth repeat the pattern's previous value set, which
    the service coalesces) and its right-hand side.  Drawing the
    patterns from the seed too made host time per round differ by up to
    15 % between seeds, because the hottest pattern's level structure
    sets the cost of most requests."""
    n = 120 if smoke else 500
    patterns = [circuit_like(n, 7.0, seed=101 * p) for p in range(8)]
    weights = zipf_weights(len(patterns), 1.1)
    rng = np.random.default_rng(seed)
    stamps: dict[int, CSRMatrix] = {}
    trace = []
    for i in range(48 if smoke else 320):
        p = int(rng.choice(len(patterns), p=weights))
        if p not in stamps or rng.random() >= 0.1:
            stamps[p] = restamp(patterns[p], seed=7919 * i + seed)
        trace.append(TraceRequest(
            pattern_id=p, a=stamps[p], b=rng.normal(size=n), gap=1.0e-3
        ))
    return trace


def drift_trace(seed: int, smoke: bool) -> list[TraceRequest]:
    """``synthesize_drift_trace``'s stream over 16 circuit families
    (``drift_every=3``, ``reset_every=9``, 3 band-local additions per
    drift), but with the base patterns and re-bases fixed: the seed draws
    the order in which the families take turns, where each drift lands,
    each request's values and its right-hand side.  Drawing the base
    patterns from the seed too made host time per round differ by about
    14 % between seeds, as for ``hot_trace``; the order is what moves
    the simulated tail, which the fixed re-bases otherwise set alone."""
    num_families = 8 if smoke else 16
    n = 100 if smoke else 200
    current = [circuit_like(n, 7.0, seed=101 * f)
               for f in range(num_families)]
    families = [family_key(a, hint=f"fam{f}") for f, a in enumerate(current)]
    visits = [0] * num_families
    rng = np.random.default_rng(seed)
    turns = rng.permutation(num_families)
    trace = []
    for i in range(48 if smoke else 320):
        f = int(turns[i % num_families])
        visits[f] += 1
        if visits[f] % 9 == 0:
            current[f] = circuit_like(
                n, 7.0, seed=101 * f + 9973 * visits[f]
            )
        elif visits[f] % 3 == 0:
            current[f] = perturb_pattern(
                current[f], add=3, bandwidth=8, seed=seed + 31 * i
            )
        trace.append(TraceRequest(
            pattern_id=f, a=restamp(current[f], seed=seed + 7919 * i),
            b=rng.normal(size=n), gap=1.2e-3, family=families[f],
        ))
    return trace


def _serving_round(responses) -> Round:
    """Outputs, failures and virtual-clock latencies of one replay; any
    status but ``ok`` (timeout, error, shed, lost) is a failure."""
    rnd = Round(outputs=[], errors=[])
    for resp in responses:
        if resp.status == "ok":
            rnd.outputs.append(resp.x)
            rnd.errors.append(None)
        else:
            rnd.outputs.append(None)
            rnd.errors.append(f"status {resp.status}")
        rnd.latencies_s.append(resp.latency)
    return rnd


def _check_rounds(rounds: list[Round], problems) -> dict:
    """Failed operations and the largest backward error over every
    output of every round; ``problems[i]`` is the ``(A, b)`` of
    operation ``i``.  ``failures`` maps ``(round, op)`` to the reason."""
    failures: dict[tuple[int, int], str] = {}
    worst = 0.0
    for r, rnd in enumerate(rounds):
        for i, ((a, b), x, err) in enumerate(
            zip(problems, rnd.outputs, rnd.errors)
        ):
            if err is None:
                err, be = _check_solution(a, b, x)
                worst = max(worst, be)
            if err is not None:
                failures[r, i] = err
    return {"failures": failures, "backward_error_max": worst}


WORKLOADS = {
    w.name: w
    for w in (ColdFactorize(), RefactorStream(), ServeHot(), FleetDrift())
}
