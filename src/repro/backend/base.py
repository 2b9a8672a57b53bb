"""Pluggable load-state backends.

A *backend* decides how the discrete workload of a balancing process is
represented:

* ``"object"`` — one Python :class:`~repro.tasks.task.Task` per work item,
  held in a :class:`~repro.tasks.assignment.TaskAssignment`.  The original
  path, and the only one that supports non-integer task weights and
  task-identity analyses (locality, origin tracking).
* ``"array"`` — columnar numpy state: a single ``int64`` count vector for
  unit-weight tokens (:mod:`repro.backend.flow`) and per-node sorted weight
  buckets with run-length queues for integer-weighted tasks
  (:mod:`repro.backend.weighted`).  O(m + transfers) per round instead of
  O(W), which is what makes million-token streams feasible.
* ``"auto"`` — the array backend whenever the workload allows it: integer
  token load vectors, :class:`~repro.tasks.weighted.WeightedLoads`, and
  ``TaskAssignment``s whose tasks all carry integer weights.  The object
  backend remains the fallback for non-integer weights and for assignments
  that already contain dummy tasks.  This is the default everywhere: the
  backends are bit-equivalent, so ``auto`` is purely a performance choice.

:func:`resolve_backend` reports not just the chosen backend but *why* — the
reason lands in ``RunResult.extra["backend_reason"]`` so silent fallbacks are
observable in benchmarks and CI.

Backends are deliberately thin: they only choose the flow-imitation
*classes*.  The rounding baselines keep their state in one ``int64`` vector
already, so each has a single class shared by both backends.  The simulation
engine keeps ownership of substrate construction, schedules and seeds so
that a given ``(algorithm, substrate, seed)`` triple produces the same
coupled system — and therefore the same trajectory — on every backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from ..continuous.base import ContinuousProcess
from ..core.algorithm1 import DeterministicFlowImitation
from ..core.algorithm2 import RandomizedFlowImitation
from ..core.flow_imitation import FlowCoupledBalancer, TaskSelectionPolicy
from ..exceptions import ExperimentError, ProcessError
from ..tasks.assignment import TaskAssignment
from ..tasks.weighted import WeightedLoads, task_integer_weight
from .flow import ArrayDeterministicFlowImitation, ArrayRandomizedFlowImitation
from .weighted import ArrayWeightedDeterministicFlowImitation

__all__ = [
    "BACKEND_KINDS",
    "BackendChoice",
    "LoadBackend",
    "ObjectBackend",
    "ArrayBackend",
    "get_backend",
    "resolve_backend",
    "resolve_backend_name",
]

#: Valid values of every ``backend=`` parameter.
BACKEND_KINDS = ("auto", "object", "array")


@dataclass(frozen=True)
class BackendChoice:
    """A resolved backend plus the reason it was selected (or fallen back to)."""

    name: str
    reason: str


def _assignment_fallback_reason(assignment: TaskAssignment,
                                algorithm: Optional[str]) -> Optional[str]:
    """Why an assignment cannot take the columnar path (``None`` if it can)."""
    if assignment.total_dummy_weight() > 0:
        return "assignment already contains dummy tasks"
    for node in assignment.network.nodes:
        for task in assignment.tasks_at(node):
            if task_integer_weight(task) is None:
                return f"non-integer task weight {task.weight}"
    if algorithm == "algorithm2" and assignment.max_task_weight() > 1:
        # Let the object implementation raise its canonical weighted-task error.
        return "algorithm2 requires unit tokens"
    return None


#: What the counter rng mode keys each randomized process's draws on.
_COUNTER_KEYING = {"algorithm2": "edge", "randomized-rounding": "edge",
                   "excess-tokens": "node"}


def _with_rng_mode_reason(choice: BackendChoice, algorithm: Optional[str],
                          rng_mode: Optional[str]) -> BackendChoice:
    """Refine an array choice's reason with what the rng mode unlocks."""
    if choice.name != "array" or rng_mode is None:
        return choice
    if rng_mode == "counter" and algorithm in _COUNTER_KEYING:
        return BackendChoice(choice.name, f"{choice.reason}, "
                                          f"{_COUNTER_KEYING[algorithm]}-keyed counter rng")
    return choice


def resolve_backend(
    backend: str,
    assignment: Optional[TaskAssignment] = None,
    weighted: Optional[WeightedLoads] = None,
    algorithm: Optional[str] = None,
    rng_mode: Optional[str] = None,
) -> BackendChoice:
    """Resolve a requested backend to a concrete one, with the reason why.

    ``"auto"`` (and an explicit ``"array"``) takes the columnar path for
    integer token vectors, :class:`WeightedLoads` and integer-weight task
    assignments; it falls back to the object backend only when the workload
    genuinely needs task objects (non-integer weights, pre-existing dummy
    tasks).  ``rng_mode`` does not change which backend is picked — the
    randomized algorithms are vectorisable either way — but it is part of the
    recorded reason: with ``rng_mode="counter"`` the array path additionally
    carries the order-free counter-keyed draws.  The reason string makes the
    whole decision observable.
    """
    if backend not in BACKEND_KINDS:
        raise ExperimentError(
            f"unknown backend {backend!r}; valid backends: {BACKEND_KINDS}"
        )
    if backend == "object":
        return BackendChoice("object", "requested explicitly")
    if assignment is not None:
        fallback = _assignment_fallback_reason(assignment, algorithm)
        if fallback is not None:
            return BackendChoice("object", fallback)
        if assignment.max_task_weight() > 1:
            choice = BackendChoice("array", "columnar weighted buckets (integer weights)")
        else:
            choice = BackendChoice("array", "unit-token counts (assignment of tokens)")
    elif weighted is not None:
        if weighted.max_weight() > 1:
            choice = BackendChoice("array", "columnar weighted buckets")
        else:
            choice = BackendChoice("array", "unit-token counts")
    else:
        choice = BackendChoice("array", "integer token counts")
    return _with_rng_mode_reason(choice, algorithm, rng_mode)


def resolve_backend_name(backend: str, assignment: Optional[TaskAssignment] = None,
                         algorithm: Optional[str] = None) -> str:
    """Resolve a requested backend to a concrete name (``"object"``/``"array"``)."""
    return resolve_backend(backend, assignment=assignment, algorithm=algorithm).name


class LoadBackend(ABC):
    """Factory for the balancer implementations of one load-state representation."""

    name: str

    @abstractmethod
    def build_flow_imitation(
        self,
        algorithm: str,
        continuous: ContinuousProcess,
        initial_load: Optional[Sequence[int]] = None,
        assignment: Optional[TaskAssignment] = None,
        weighted: Optional[WeightedLoads] = None,
        seed: Optional[int] = None,
        selection_policy: str = TaskSelectionPolicy.FIFO,
        rng_mode: str = "sequential",
    ) -> FlowCoupledBalancer:
        """Couple Algorithm 1 or 2 to ``continuous`` on this backend."""


class ObjectBackend(LoadBackend):
    """The object-per-task path: ``TaskAssignment`` + task-moving balancers."""

    name = "object"

    def build_flow_imitation(
        self,
        algorithm: str,
        continuous: ContinuousProcess,
        initial_load: Optional[Sequence[int]] = None,
        assignment: Optional[TaskAssignment] = None,
        weighted: Optional[WeightedLoads] = None,
        seed: Optional[int] = None,
        selection_policy: str = TaskSelectionPolicy.FIFO,
        rng_mode: str = "sequential",
    ) -> FlowCoupledBalancer:
        if assignment is None:
            if weighted is not None:
                assignment = weighted.to_assignment(continuous.network)
            else:
                assignment = TaskAssignment.from_unit_loads(continuous.network,
                                                            initial_load)
        if algorithm == "algorithm1":
            return DeterministicFlowImitation(continuous, assignment,
                                              selection_policy=selection_policy)
        return RandomizedFlowImitation(continuous, assignment, seed=seed,
                                       rng_mode=rng_mode)


class ArrayBackend(LoadBackend):
    """The columnar path: numpy count vectors, weight buckets, vectorised rounding."""

    name = "array"

    def build_flow_imitation(
        self,
        algorithm: str,
        continuous: ContinuousProcess,
        initial_load: Optional[Sequence[int]] = None,
        assignment: Optional[TaskAssignment] = None,
        weighted: Optional[WeightedLoads] = None,
        seed: Optional[int] = None,
        selection_policy: str = TaskSelectionPolicy.FIFO,
        rng_mode: str = "sequential",
    ) -> FlowCoupledBalancer:
        if assignment is not None:
            if assignment.network is not continuous.network:
                raise ProcessError(
                    "the task assignment and the continuous process must share the same network"
                )
            if assignment.total_dummy_weight() > 0:
                # resolve_backend routes these to the object backend; direct
                # callers get a clear error instead of dummies silently
                # becoming real tokens via assignment.loads().
                raise ExperimentError(
                    "assignments that already contain dummy tasks require the "
                    "object backend"
                )
            # The columnar path keeps the assignment's queue order; all-unit
            # assignments reduce to token counts (order is unobservable).
            if assignment.max_task_weight() > 1:
                if algorithm == "algorithm1":
                    return ArrayWeightedDeterministicFlowImitation(
                        continuous, assignment, selection_policy=selection_policy)
                raise ExperimentError(
                    "Algorithm 2 balances identical unit-weight tokens only; "
                    "weighted assignments require algorithm1"
                )
            initial_load = assignment.loads().astype(int)
        elif weighted is not None:
            if weighted.max_weight() > 1:
                if algorithm == "algorithm1":
                    return ArrayWeightedDeterministicFlowImitation(
                        continuous, weighted, selection_policy=selection_policy)
                raise ExperimentError(
                    "Algorithm 2 balances identical unit-weight tokens only; "
                    "weighted workloads require algorithm1"
                )
            initial_load = weighted.load_vector()
        if algorithm == "algorithm1":
            # The selection policy is irrelevant for indistinguishable unit
            # tokens, so the unit-token array variant does not take one.
            return ArrayDeterministicFlowImitation(continuous, initial_load)
        return ArrayRandomizedFlowImitation(continuous, initial_load, seed=seed,
                                            rng_mode=rng_mode)


_BACKENDS = {"object": ObjectBackend(), "array": ArrayBackend()}


def get_backend(name: str, assignment: Optional[TaskAssignment] = None,
                weighted: Optional[WeightedLoads] = None,
                algorithm: Optional[str] = None) -> LoadBackend:
    """Return the backend instance for ``name`` (resolving ``"auto"``)."""
    return _BACKENDS[resolve_backend(name, assignment=assignment,
                                     weighted=weighted, algorithm=algorithm).name]
