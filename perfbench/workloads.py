"""The two benchmark workloads, each one timed pass through the public API.

A workload pass runs two parts back to back: ``static`` is the paper's
Table-1 comparison and then a grid sweep through the process pool;
``stream`` is a crash-and-resume checkpointed stream and then a churn
stream.  A pass builds everything from the benchmark seed and an instance
number, runs its parts, and returns a :class:`PassResult`: the end-to-end
times, the per-layer figures of the pass, and the output checks.  Each
part returns its figures and a ``verify`` function; the checks run after
the pass clock stops, so ``wall_s`` never includes them.  With an enabled
:class:`~spans.SpanRecorder` the pass also records layer spans around each
library call, switches on the library's kernel-phase clock (which splits a
round into ``continuous/advance`` and the rounding-kernel phases), and, in
the checkpointed stream, wraps the public functions of ``repro.checkpoint``
for the duration of that part.  Nothing the library computes depends on
whether a pass is traced.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.checkpoint as checkpoint_module
from repro import (
    DynamicScenario,
    RunStore,
    SweepConfiguration,
    make_balancer,
    make_event_generator,
    max_min_discrepancy,
    record_sweep_outcomes,
    run_dynamic_scenario,
    theorem3_discrepancy_bound,
    topologies,
)
from repro.checkpoint import read_checkpoint, resume_stream
from repro.dynamic.stream import StreamingEngine
from repro.obs.kernels import drain_round_phases
from repro.simulation.parallel import failed_cells, grid_sweep_with_outcomes
from repro.simulation.sweep import run_sweep_cell

from spans import SpanRecorder

__all__ = ["SCALES", "PassResult", "workload_pass"]

#: Part sizes per workload.  ``full`` is what the benchmark measures;
#: ``toy`` is the self-test size and the warm-up pass each run makes before
#: timing.  A workload runs its parts in this order.
SCALES: Dict[str, Dict[str, Dict[str, Dict[str, object]]]] = {
    "full": {
        "static": {
            "table1": {"fos_side": 128, "sos_side": 48, "tokens": 32,
                       "fos_rounds": 100, "sos_rounds": 100},
            "grid": {"topologies": (("torus", 1024), ("hypercube", 256),
                                    ("expander", 512)),
                     "seeds": 6, "tokens": 16, "workers": 2},
        },
        "stream": {
            "durable": {"side": 16, "tokens": 8, "rounds": 300, "crash": 150, "every": 25},
            "churn": {"side": 64, "tokens": 8, "rounds": 100},
        },
    },
    "toy": {
        "static": {
            "table1": {"fos_side": 12, "sos_side": 8, "tokens": 8,
                       "fos_rounds": 5, "sos_rounds": 5},
            "grid": {"topologies": (("torus", 16), ("hypercube", 16), ("expander", 16)),
                     "seeds": 1, "tokens": 4, "workers": 2},
        },
        "stream": {
            "durable": {"side": 6, "tokens": 4, "rounds": 20, "crash": 10, "every": 5},
            "churn": {"side": 8, "tokens": 4, "rounds": 12},
        },
    },
}

#: The cell algorithms of the grid part.
GRID_ALGORITHMS = ("algorithm1", "algorithm2", "round-down", "randomized-rounding")

#: Kernel-phase family -> span name (``repro.obs.kernels`` phase names are
#: ``family/kernel``).
_PHASE_SPANS = {"continuous": "continuous.advance", "flow": "backend.kernel",
                "baseline": "backend.kernel"}


@dataclass
class PassResult:
    """One timed pass of a workload, or of one of its parts."""

    wall_s: float
    setup_s: float
    node_rounds: int
    loop_s: float
    final_max_min: float
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    round_ms: List[float] = field(default_factory=list)
    step_ms: List[float] = field(default_factory=list)


#: What a part returns: its figures and the function that checks its outputs
#: (appending to ``PassResult.checks``/``digests``) once the pass clock stops.
Part = Tuple[PassResult, Callable[[], None]]


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(np.asarray(array, dtype=np.float64)).tobytes())
    return sha.hexdigest()[:16]


def _record_phases(rec: SpanRecorder, phases: Optional[Dict[str, float]],
                   totals: Dict[str, float]) -> None:
    """Fold one round's kernel phases into ``totals`` and lay them out as spans.

    The clock reports durations, not start times, so the phase spans are laid
    back to back ending now, inside the still-open round span.
    """
    if not phases:
        return
    cursor = time.perf_counter() - sum(phases.values())
    for name, seconds in phases.items():
        span = _PHASE_SPANS[name.split("/", 1)[0]]
        totals[span] = totals.get(span, 0.0) + seconds
        rec.add(span, cursor, cursor + seconds)
        cursor += seconds


def _run_rounds(rec: SpanRecorder, balancer, rounds: int,
                round_ms: List[float]) -> Tuple[float, Dict[str, float]]:
    """Advance ``balancer`` ``rounds`` times; return loop seconds and phase totals.

    A baseline with no kernel phase of its own (round-down) is all rounding
    kernel: its whole round is counted and laid out as ``backend.kernel``.
    """
    totals: Dict[str, float] = {}
    start = time.perf_counter()
    if not rec.enabled:
        for _ in range(rounds):
            balancer.advance()
        return time.perf_counter() - start, totals
    for _ in range(rounds):
        with rec.span("engine.round"):
            began = time.perf_counter()
            balancer.advance()
            ended = time.perf_counter()
            phases = drain_round_phases() or {"baseline/whole-round": ended - began}
            _record_phases(rec, phases, totals)
        round_ms.append((ended - began) * 1e3)
    return time.perf_counter() - start, totals


# ---------------------------------------------------------------------- #
# table1 part of static: the paper's Table-1 comparison at large n
# ---------------------------------------------------------------------- #


def table1_part(params, seed: int, instance: int, rec: SpanRecorder,
                work: pathlib.Path) -> Part:
    inputs = np.random.default_rng([seed, instance, 0])
    tokens = int(params["tokens"])
    algorithm_seed = int(inputs.integers(2**31))
    result = PassResult(0.0, 0.0, 0, 0.0, 0.0)
    runs = []  # (label, algorithm, balancer, network, initial load, rounds)

    t0 = time.perf_counter()
    with rec.span("network.topology"):
        fos_net = topologies.torus(int(params["fos_side"]))
    fos_load = inputs.integers(0, 2 * tokens + 1, size=fos_net.num_nodes)
    for algorithm in ("algorithm1", "algorithm2", "round-down"):
        with rec.span("engine.make_balancer_fos"):
            balancer = make_balancer(algorithm, fos_net, initial_load=fos_load,
                                     seed=algorithm_seed, rng_mode="counter")
        runs.append((algorithm, algorithm, balancer, fos_net, fos_load,
                     int(params["fos_rounds"])))
    with rec.span("network.topology"):
        sos_net = topologies.torus(int(params["sos_side"]))
    sos_load = inputs.integers(0, 2 * tokens + 1, size=sos_net.num_nodes)
    with rec.span("engine.make_balancer_sos"):
        balancer = make_balancer("algorithm1", sos_net, initial_load=sos_load,
                                 continuous_kind="sos", seed=algorithm_seed)
    runs.append(("algorithm1-sos", "algorithm1", balancer, sos_net, sos_load,
                 int(params["sos_rounds"])))
    result.setup_s = time.perf_counter() - t0

    advanced, advance_s = 0, 0.0
    for _, algorithm, balancer, network, _, rounds in runs:
        seconds, phases = _run_rounds(rec, balancer, rounds, result.round_ms)
        result.loop_s += seconds
        result.node_rounds += network.num_nodes * rounds
        kernel = f"backend.kernel_s.{algorithm}"
        result.layers[kernel] = (result.layers.get(kernel, 0.0)
                                 + phases.get("backend.kernel", 0.0))
        if "continuous.advance" in phases:
            advance_s += phases["continuous.advance"]
            advanced += rounds
    with rec.span("engine.result"):
        finals = [balancer.loads() for _, _, balancer, _, _, _ in runs]
        result.final_max_min = float(np.mean(
            [max_min_discrepancy(loads, run[3]) for loads, run in zip(finals, runs)]))
    result.wall_s = time.perf_counter() - t0
    if rec.enabled:
        result.layers["continuous.advance_ms_per_round"] = 1e3 * advance_s / advanced

    def verify() -> None:
        for (label, algorithm, balancer, network, load, _), final in zip(runs, finals):
            real = (balancer.loads(include_dummies=False) if algorithm != "round-down"
                    else final)
            result.checks.append((f"{label}: tokens conserved",
                                  int(real.sum()) == int(load.sum())))
            result.digests.append(f"{label}={_digest(final)}")
        fos_alg1 = runs[0][2]
        bound = fos_net.max_degree * fos_alg1.w_max
        result.checks.append(("algorithm1: Lemma 6(2) |load deviation| <= d*w_max",
                              float(np.abs(fos_alg1.load_deviation()).max()) <= bound + 1e-9))
        result.checks.append(("algorithm1: Observation 4 |flow error| <= w_max",
                              float(np.abs(fos_alg1.flow_errors()).max())
                              <= fos_alg1.w_max + 1e-9))
    return result, verify


# ---------------------------------------------------------------------- #
# churn part of stream: stream bookkeeping under heavy arrival/departure/churn
# ---------------------------------------------------------------------- #


def churn_part(params, seed: int, instance: int, rec: SpanRecorder,
               work: pathlib.Path) -> Part:
    inputs = np.random.default_rng([seed, instance, 1])
    tokens = int(params["tokens"])
    rounds = int(params["rounds"])
    event_seed, algorithm_seed = (int(value) for value in inputs.integers(2**31, size=2))
    result = PassResult(0.0, 0.0, 0, 0.0, 0.0)
    phase_totals: Dict[str, float] = {}

    t0 = time.perf_counter()
    with rec.span("network.topology"):
        network = topologies.torus(int(params["side"]))
    load = inputs.integers(0, 2 * tokens + 1, size=network.num_nodes)
    with rec.span("dynamic.generator"):
        generator = make_event_generator("churn", network, tokens, seed=event_seed)
    with rec.span("dynamic.engine"):
        engine = StreamingEngine("algorithm2", network, load, generator,
                                 seed=algorithm_seed, rng_mode="counter")
    result.setup_s = time.perf_counter() - t0

    # Phases the clock holds from earlier parts belong to none of these steps.
    drain_round_phases()
    loop_start = time.perf_counter()
    trace = [engine.current_discrepancy()]
    for _ in range(rounds):
        if rec.enabled:
            with rec.span("dynamic.step"):
                began = time.perf_counter()
                engine.step()
                ended = time.perf_counter()
                _record_phases(rec, drain_round_phases(), phase_totals)
            result.step_ms.append((ended - began) * 1e3)
            with rec.span("dynamic.current_discrepancy"):
                trace.append(engine.current_discrepancy())
        else:
            engine.step()
            trace.append(engine.current_discrepancy())
        result.node_rounds += engine.network.num_nodes
    result.loop_s = time.perf_counter() - loop_start
    with rec.span("dynamic.result"):
        run = engine.result(trace_max_min=trace)
    result.final_max_min = float(np.mean(trace))
    result.wall_s = time.perf_counter() - t0

    kernel = phase_totals.get("backend.kernel", 0.0)
    advance = phase_totals.get("continuous.advance", 0.0)
    timeline = len(run.event_timeline)
    rejected = int(run.extra["rejected_events"])
    fast = engine.fast_recouplings
    result.layers.update({
        "backend.kernel_s.algorithm2": kernel,
        "continuous.advance_ms_per_round": 1e3 * advance / rounds,
        "dynamic.bookkeeping_s": sum(result.step_ms) / 1e3 - kernel - advance,
        "dynamic.events_applied": timeline - rejected,
        "dynamic.events_rejected": rejected,
        "dynamic.recouple_fast": fast,
        "dynamic.recouple_full": engine.recouplings - fast,
        "dynamic.timeline_records": timeline,
    })

    def verify() -> None:
        expected = (int(load.sum()) + run.extra["arrivals"] - run.extra["departures"]
                    + run.extra["clamped_tokens"])
        result.checks.append(("churn: initial + arrivals - departures + clamped == final",
                              engine.total_real_load() == expected))
        result.checks.append(("churn: every round ran", run.rounds == rounds))
        result.checks.append(("churn: no negative load",
                              min(engine.tokens_by_label().values()) >= 0))
        result.digests.append(
            f"churn={_digest(trace, sorted(engine.tokens_by_label().items()))}")
    return result, verify


# ---------------------------------------------------------------------- #
# durable part of stream: checkpoint writes, a crash, and resume
# ---------------------------------------------------------------------- #


def _node_rounds(timeline, initial_nodes: int, start: int, end: int) -> int:
    """Sum of live nodes over rounds ``start..end-1`` (joins/leaves apply at round start)."""
    delta = np.zeros(end + 1, dtype=np.int64)
    for record in timeline:
        if record["applied"] and record["round"] < end:
            if record["kind"] == "join":
                delta[record["round"]] += 1
            elif record["kind"] == "leave":
                delta[record["round"]] -= 1
    nodes = initial_nodes + np.cumsum(delta[:end])
    return int(nodes[start:end].sum())


class _CheckpointSpans:
    """Wrap ``repro.checkpoint``'s public functions with spans for one pass.

    ``run_stream`` imports ``checkpoint_engine``/``write_checkpoint`` from the
    module at each snapshot and ``resume_stream`` looks them up as module
    globals, so replacing the module attributes covers every call site.
    """

    NAMES = {"checkpoint_engine": "checkpoint.snapshot",
             "write_checkpoint": "checkpoint.serialise",
             "restore_engine": "checkpoint.restore"}

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.seconds: Dict[str, List[float]] = {name: [] for name in self.NAMES.values()}
        self._saved: Dict[str, Callable] = {}

    def _wrap(self, function: Callable, span: str) -> Callable:
        def timed(*args, **kwargs):
            began = time.perf_counter()
            with self.rec.span(span):
                value = function(*args, **kwargs)
            self.seconds[span].append(time.perf_counter() - began)
            return value
        return timed

    def __enter__(self) -> "_CheckpointSpans":
        if self.rec.enabled:
            for attribute, span in self.NAMES.items():
                self._saved[attribute] = getattr(checkpoint_module, attribute)
                setattr(checkpoint_module, attribute,
                        self._wrap(self._saved[attribute], span))
        return self

    def __exit__(self, *exc_info) -> None:
        for attribute, function in self._saved.items():
            setattr(checkpoint_module, attribute, function)


def durable_part(params, seed: int, instance: int, rec: SpanRecorder,
                 work: pathlib.Path) -> Part:
    inputs = np.random.default_rng([seed, instance, 2])
    rounds, crash, every = (int(params[key]) for key in ("rounds", "crash", "every"))
    side = int(params["side"])
    scenario = DynamicScenario(
        name="perfbench-durable", algorithm="algorithm1", topology="torus",
        num_nodes=side * side, tokens_per_node=int(params["tokens"]),
        events="mixed", rounds=rounds, seed=int(inputs.integers(2**31)))
    crashed = replace(scenario, rounds=crash)
    full_path, crash_path, resumed_path = (work / f"{name}.checkpoint.json"
                                           for name in ("full", "crash", "resumed"))
    result = PassResult(0.0, 0.0, 0, 0.0, 0.0)

    with _CheckpointSpans(rec) as timed:
        t0 = time.perf_counter()
        with rec.span("network.topology"):
            network = scenario.build_network()
        # The legacy seeding of a scenario gives its event generator the
        # scenario seed, so this is the generator the crashed run used.
        with rec.span("dynamic.generator"):
            generator = make_event_generator(scenario.events, network,
                                             scenario.tokens_per_node, seed=scenario.seed)
        result.setup_s = time.perf_counter() - t0

        with rec.span("dynamic.run_dynamic_scenario"):
            full = run_dynamic_scenario(scenario, checkpoint_every=every,
                                        checkpoint_path=full_path)
        full_writes = len(timed.seconds["checkpoint.serialise"])
        with rec.span("dynamic.run_dynamic_scenario"):
            run_dynamic_scenario(crashed, checkpoint_every=every,
                                 checkpoint_path=crash_path)
        with rec.span("checkpoint.resume"):
            resumed = resume_stream(read_checkpoint(crash_path), generator=generator,
                                    rounds=rounds, checkpoint_every=every,
                                    checkpoint_path=resumed_path)
        result.final_max_min = float(np.mean(full.trace_max_min + resumed.trace_max_min))
        result.wall_s = time.perf_counter() - t0
    result.loop_s = result.wall_s - result.setup_s
    nodes = network.num_nodes
    result.node_rounds = (_node_rounds(full.event_timeline, nodes, 0, rounds)
                          + _node_rounds(full.event_timeline, nodes, 0, crash)
                          + _node_rounds(resumed.event_timeline, nodes, crash, rounds))

    if rec.enabled:
        writes = [snap + write for snap, write in zip(timed.seconds["checkpoint.snapshot"],
                                                      timed.seconds["checkpoint.serialise"])]
        result.layers.update({
            "checkpoint.writes": len(writes),
            "checkpoint.write_s": sum(writes),
            "checkpoint.write_ms_first": 1e3 * writes[0],
            "checkpoint.write_ms_last": 1e3 * writes[full_writes - 1],
        })
    result.layers["checkpoint.bytes_last"] = full_path.stat().st_size

    def verify() -> None:
        initial = int(scenario.build_load(network).sum())
        for label, run in (("uninterrupted", full), ("resumed", resumed)):
            expected = (initial + run.extra["arrivals"] - run.extra["departures"]
                        + run.extra["clamped_tokens"])
            result.checks.append((f"durable {label}: stream tokens conserved",
                                  run.total_weight == expected))
        result.checks.append(("durable: resumed trace == uninterrupted trace",
                              resumed.trace_max_min == full.trace_max_min
                              and resumed.trace_total_weight == full.trace_total_weight))
        final_full, final_resumed = read_checkpoint(full_path), read_checkpoint(resumed_path)
        result.checks.append(("durable: resumed final loads == uninterrupted final loads",
                              final_full.round_index == final_resumed.round_index == rounds
                              and final_full.state["tokens"] == final_resumed.state["tokens"]))
        result.digests.append(
            f"durable={_digest(full.trace_max_min, full.trace_total_weight)}")
    return result, verify


# ---------------------------------------------------------------------- #
# grid part of static: many small cells through the process pool and the run store
# ---------------------------------------------------------------------- #


def grid_part(params, seed: int, instance: int, rec: SpanRecorder,
              work: pathlib.Path) -> Part:
    inputs = np.random.default_rng([seed, instance, 3])
    seeds = [int(value) for value in inputs.integers(2**31, size=int(params["seeds"]))]
    probe = int(inputs.integers(len(seeds) * len(params["topologies"]) * len(GRID_ALGORITHMS)))
    workers = int(params["workers"])
    store = RunStore(work / "runs.jsonl")
    result = PassResult(0.0, 0.0, 0, 0.0, 0.0)

    t0 = time.perf_counter()
    configurations = [
        SweepConfiguration(algorithm=algorithm, topology=topology, num_nodes=size,
                           tokens_per_node=int(params["tokens"]),
                           workload="half-nodes", rng_mode="counter")
        for topology, size in params["topologies"] for algorithm in GRID_ALGORITHMS]
    called = time.perf_counter()
    with rec.span("parallel.run_cells"):
        sweeps, outcomes = grid_sweep_with_outcomes(configurations, seeds,
                                                    workers=workers)
    result.loop_s = time.perf_counter() - called
    # CellOutcome.started is the worker's perf_counter when the cell
    # began; on Linux that clock is system-wide and monotonic.
    result.setup_s = min(outcome.started for outcome in outcomes) - t0
    with rec.span("store.append"):
        record_sweep_outcomes(store, "perfbench-grid-sweep", outcomes)
    result.final_max_min = float(np.mean(
        [outcome.result.final_max_min for outcome in outcomes]))
    result.wall_s = time.perf_counter() - t0

    busy = sum(outcome.seconds for outcome in outcomes)
    result.node_rounds = sum(outcome.result.num_nodes * outcome.result.rounds
                             for outcome in outcomes)
    result.layers.update({
        "parallel.busy_s": busy,
        "parallel.utilization": busy / (result.loop_s * workers),
        "parallel.driver_overhead_s": result.loop_s * workers - busy,
        "parallel.max_cell_s": max(outcome.seconds for outcome in outcomes),
        "parallel.retries": sum(outcome.attempts - 1 for outcome in outcomes),
        "parallel.failed_cells": len(failed_cells(outcomes)),
        "store.bytes": store.path.stat().st_size,
    })

    def verify() -> None:
        result.checks.append(("grid: every cell ran",
                              len(outcomes) == len(configurations) * len(seeds)
                              and not failed_cells(outcomes)
                              and all(sweep.num_runs == len(seeds) for sweep in sweeps)))
        for outcome in outcomes:
            run = outcome.result
            label = f"grid cell {run.algorithm}/{run.network_name}/seed {outcome.cell.seed}"
            result.checks.append((f"{label}: ran rounds", run.rounds >= 1))
            if run.algorithm == "algorithm1":
                result.checks.append((
                    f"{label}: Theorem 3 max-min <= 2*d*w_max + 2",
                    run.final_max_min <= theorem3_discrepancy_bound(run.max_degree,
                                                                    run.max_task_weight)))
        pooled = outcomes[probe]
        rerun = run_sweep_cell(pooled.cell.spec, pooled.cell.seed)
        result.checks.append(("grid: pooled cell == in-process re-run",
                              rerun == pooled.result))
        result.checks.append(("grid: run store holds every cell",
                              len(store.records()) == len(outcomes)))
        result.digests.append("grid=" + _digest([outcome.result.final_max_min
                                                 for outcome in outcomes]))
    return result, verify


# ---------------------------------------------------------------------- #
# workloads: their parts back to back under one pass clock
# ---------------------------------------------------------------------- #

PARTS: Dict[str, Callable[..., Part]] = {
    "table1": table1_part,
    "grid": grid_part,
    "durable": durable_part,
    "churn": churn_part,
}


def workload_pass(params, seed: int, instance: int, rec: SpanRecorder,
                  work: pathlib.Path) -> PassResult:
    """Run a workload's parts in order as one pass, then check their outputs.

    Times, node·rounds and layer figures add up over the parts (each part's
    own wall and set-up times are the layer figures ``part_s.<name>`` and
    ``setup_s.<name>``); ``final_max_min``
    is the mean of the parts' figures.  The checkpointed stream runs before
    the churn stream so that the churn engine and its large event timeline,
    kept for the checks, are not on the heap while other parts run.
    """
    shutil.rmtree(work, ignore_errors=True)
    parts: List[Tuple[str, PassResult, Callable[[], None]]] = []
    t0 = time.perf_counter()
    with rec.span("pass"):
        for name, part_params in params.items():
            parts.append((name, *PARTS[name](part_params, seed, instance, rec, work / name)))
    result = PassResult(time.perf_counter() - t0, 0.0, 0, 0.0, 0.0)
    for name, part, verify in parts:
        verify()
        result.setup_s += part.setup_s
        result.node_rounds += part.node_rounds
        result.loop_s += part.loop_s
        result.layers.update(part.layers)
        result.layers[f"part_s.{name}"] = part.wall_s
        result.layers[f"setup_s.{name}"] = part.setup_s
        for attribute in ("checks", "digests", "round_ms", "step_ms"):
            getattr(result, attribute).extend(getattr(part, attribute))
    result.final_max_min = float(np.mean([part.final_max_min for _, part, _ in parts]))
    shutil.rmtree(work, ignore_errors=True)
    return result
