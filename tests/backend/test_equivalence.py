"""Backend equivalence: the array backend must be bit-identical to the object one.

The array backend is a pure re-representation — same algorithms, same
randomness, same trajectories.  These are seeded property tests: for every
(topology, algorithm, substrate, seed) instance the per-round load vectors,
the dummy-token distributions and the final discrepancies of the two
backends must match *exactly* (not approximately — any drift means the
backends are running different processes).

The diffusion baselines are one class on both backends, so they are checked
against an oracle instead: the same class applying its moves one edge at a
time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayDeterministicFlowImitation,
    ArrayRandomizedFlowImitation,
)
from repro.continuous.sos import SecondOrderDiffusion
from repro.core.algorithm1 import DeterministicFlowImitation
from repro.discrete.baselines.diffusion import (
    QuasirandomDiffusion,
    RandomizedRoundingDiffusion,
    RoundDownDiffusion,
    RoundDownSecondOrder,
)
from repro.network import topologies
from repro.simulation.engine import make_balancer, run_algorithm
from repro.tasks.assignment import TaskAssignment
from repro.tasks.generators import point_load, uniform_random_load

TOPOLOGIES = {
    "ring": lambda: topologies.cycle(12),
    "torus": lambda: topologies.torus(4, dims=2),
    "hypercube": lambda: topologies.hypercube(3),
}


def workload(network, seed):
    """A seeded integer workload mixing a hot spot with random background load."""
    load = uniform_random_load(network, 8 * network.num_nodes, seed=seed)
    return load + point_load(network, 4 * network.num_nodes)


def assert_roundwise_equal(object_balancer, array_balancer, rounds):
    """Advance both balancers in lockstep, demanding exact equality each round."""
    for round_index in range(rounds):
        object_balancer.advance()
        array_balancer.advance()
        assert np.array_equal(object_balancer.loads(), array_balancer.loads()), (
            f"loads diverged at round {round_index}")
        assert np.array_equal(
            object_balancer.loads(include_dummies=False),
            array_balancer.loads(include_dummies=False),
        ), f"real loads diverged at round {round_index}"
        assert np.array_equal(object_balancer.discrete_cumulative_flows(),
                              array_balancer.discrete_cumulative_flows())
    assert object_balancer.dummy_tokens_created == array_balancer.dummy_tokens_created
    assert object_balancer.used_infinite_source == array_balancer.used_infinite_source


class TestFlowImitationEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_per_round_loads_match(self, topology, algorithm, seed):
        network = TOPOLOGIES[topology]()
        load = workload(network, seed)
        object_balancer = make_balancer(algorithm, network, initial_load=load,
                                        seed=seed, backend="object")
        array_balancer = make_balancer(algorithm, network, initial_load=load,
                                       seed=seed, backend="array")
        assert isinstance(array_balancer,
                          (ArrayDeterministicFlowImitation, ArrayRandomizedFlowImitation))
        assert_roundwise_equal(object_balancer, array_balancer, rounds=40)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
    @pytest.mark.parametrize("continuous_kind", [
        "fos", "sos", "periodic-matching", "random-matching"])
    def test_full_run_trajectories_match(self, topology, algorithm, continuous_kind):
        network = TOPOLOGIES[topology]()
        load = workload(network, 3)
        results = {
            backend: run_algorithm(algorithm, network, initial_load=load,
                                   continuous_kind=continuous_kind, seed=3,
                                   record_trace=True, backend=backend)
            for backend in ("object", "array")
        }
        assert results["object"].trace_max_min == results["array"].trace_max_min
        assert results["object"].final_max_min == results["array"].final_max_min
        assert results["object"].final_max_avg == results["array"].final_max_avg
        assert (results["object"].final_max_min_no_dummies
                == results["array"].final_max_min_no_dummies)
        assert results["object"].dummy_tokens == results["array"].dummy_tokens

    def test_dummy_token_distribution_matches(self):
        """SOS with a large beta overshoots, forcing the infinite source.

        The per-node split between real and dummy tokens feeds back into the
        final (dummy-eliminated) loads, so it must match node by node — this
        exercises the array backend's run-length FIFO queues.
        """
        network = topologies.random_regular(30, 5, seed=4)
        loads = point_load(network, 3000)
        assignment = TaskAssignment.from_unit_loads(network, loads)
        object_balancer = DeterministicFlowImitation(
            SecondOrderDiffusion(network, assignment.loads(), beta=1.9), assignment)
        array_balancer = ArrayDeterministicFlowImitation(
            SecondOrderDiffusion(network, loads.astype(float), beta=1.9), loads)
        assert_roundwise_equal(object_balancer, array_balancer, rounds=60)
        assert object_balancer.dummy_tokens_created > 0, "instance must exercise dummies"
        assert np.array_equal(object_balancer.assignment.dummy_loads(),
                              array_balancer.dummy_loads())
        assert object_balancer.remove_dummies() == array_balancer.remove_dummies()
        assert np.array_equal(object_balancer.loads(), array_balancer.loads())

    def test_randomized_rng_streams_are_aligned(self):
        """Algorithm 2 must consume random draws in the object backend's order."""
        network = topologies.torus(4, dims=2)
        load = point_load(network, 16 * network.num_nodes)
        object_balancer = make_balancer(
            "algorithm2", network, initial_load=load, seed=99, backend="object")
        array_balancer = make_balancer(
            "algorithm2", network, initial_load=load, seed=99, backend="array")
        # Long horizon: a single out-of-order draw desynchronises everything after.
        assert_roundwise_equal(object_balancer, array_balancer, rounds=80)


class PerEdgeNetMoves:
    """Oracle mixin: apply net moves one edge at a time, the scatter-add's spec."""

    def _apply_net_moves(self, sent):
        moves = []
        for edge_idx, amount in enumerate(sent):
            amount = int(amount)
            if amount == 0:
                continue
            u = int(self._sources[edge_idx])
            v = int(self._targets[edge_idx])
            moves.append((u, v, amount) if amount > 0 else (v, u, -amount))
        self._apply_edge_moves(moves)


#: (algorithm, continuous kind, rng mode) -> the one class the engine builds.
NET_MOVE_BASELINES = {
    ("round-down", "fos", "sequential"): RoundDownDiffusion,
    ("round-down", "sos", "sequential"): RoundDownSecondOrder,
    ("quasirandom", "fos", "sequential"): QuasirandomDiffusion,
    ("randomized-rounding", "fos", "sequential"): RandomizedRoundingDiffusion,
    ("randomized-rounding", "fos", "counter"): RandomizedRoundingDiffusion,
}


def assert_matches_per_edge_oracle(instance, network, load, seed):
    """Both backends build the one class, bit-identical to per-edge moves."""
    algorithm, continuous_kind, rng_mode = instance
    cls = NET_MOVE_BASELINES[instance]
    oracle_cls = type(f"PerEdge{cls.__name__}", (PerEdgeNetMoves, cls), {})
    randomized = {} if cls is not RandomizedRoundingDiffusion else {
        "seed": seed, "rng_mode": rng_mode}
    oracle = oracle_cls(network, load, **randomized)
    balancers = [make_balancer(algorithm, network, initial_load=load,
                               continuous_kind=continuous_kind, seed=seed,
                               backend=backend, rng_mode=rng_mode)
                 for backend in ("object", "array")]
    assert all(type(balancer) is cls for balancer in balancers)
    for round_index in range(40):
        oracle.advance()
        for balancer in balancers:
            balancer.advance()
            assert np.array_equal(oracle.loads(), balancer.loads()), (
                f"{instance} diverged at round {round_index}")
    for balancer in balancers:
        assert balancer.went_negative == oracle.went_negative
    return oracle


class TestBaselineEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("instance", sorted(NET_MOVE_BASELINES),
                             ids="-".join)
    @pytest.mark.parametrize("seed", [1, 5])
    def test_diffusion_baseline_matches_per_edge_oracle(self, topology, instance,
                                                        seed):
        network = TOPOLOGIES[topology]()
        assert_matches_per_edge_oracle(instance, network, workload(network, seed),
                                       seed)

    @pytest.mark.parametrize("instance", [
        key for key in sorted(NET_MOVE_BASELINES) if key[0] != "round-down"],
        ids="-".join)
    def test_negative_load_flag_matches_per_edge_oracle(self, instance):
        """About one token per node: the rounding drives some loads negative."""
        network = TOPOLOGIES["torus"]()
        load = uniform_random_load(network, network.num_nodes, seed=1)
        oracle = assert_matches_per_edge_oracle(instance, network, load, 1)
        assert oracle.went_negative, "instance must create negative load"

    def test_negative_load_flag_matches_on_second_order(self):
        network = topologies.torus(8, dims=2)
        oracle = assert_matches_per_edge_oracle(
            ("round-down", "sos", "sequential"), network,
            point_load(network, 8 * network.num_nodes), 1)
        assert oracle.went_negative, "instance must create negative load"

    @pytest.mark.parametrize("algorithm", ["matching-round-down", "matching-randomized"])
    def test_matching_baselines_shared_across_backends(self, algorithm):
        network = topologies.cycle(12)
        load = workload(network, 2)
        results = {
            backend: run_algorithm(algorithm, network, initial_load=load,
                                   continuous_kind="random-matching", seed=2,
                                   rounds=30, record_trace=True, backend=backend)
            for backend in ("object", "array")
        }
        assert results["object"].trace_max_min == results["array"].trace_max_min


class TestDynamicEquivalence:
    @pytest.mark.parametrize("profile", ["burst", "churn", "poisson", "hotspot", "mixed"])
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2", "excess-tokens"])
    def test_stream_trajectories_match(self, profile, algorithm):
        from repro.dynamic.events import make_event_generator
        from repro.dynamic.stream import run_stream

        def one(backend):
            network = topologies.torus(4, dims=2)
            load = uniform_random_load(network, 6 * network.num_nodes, seed=17)
            generator = make_event_generator(profile, network, 6, seed=17)
            return run_stream(algorithm, network, load, generator, rounds=50,
                              seed=17, backend=backend)

        object_result, array_result = one("object"), one("array")
        assert object_result.trace_max_min == array_result.trace_max_min
        assert object_result.trace_total_weight == array_result.trace_total_weight
        assert object_result.event_timeline == array_result.event_timeline
        # The resolved backend is (intentionally) recorded and differs.
        assert object_result.extra.pop("backend") == "object"
        assert array_result.extra.pop("backend") == "array"
        object_result.extra.pop("backend_reason")
        array_result.extra.pop("backend_reason")
        assert object_result.extra == array_result.extra
        assert object_result.dummy_tokens == array_result.dummy_tokens
