"""Tests for the sharded process-pool grid driver (:mod:`repro.simulation.parallel`).

The load-bearing property is **worker-count invariance**: the same grid run
at ``workers=1``, ``2`` and ``4`` must produce bit-identical results — the
merge is deterministic and every run is a pure function of its (cell, seed)
spec.  For randomized algorithms this is checked in both ``rng_mode``s.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.exceptions import ExperimentError, TopologyError
from repro.simulation.parallel import (
    CellOutcome,
    GridCell,
    default_workers,
    grid_sweep_with_outcomes,
    run_cells,
    sweep_cells,
    timing_summary,
)
from repro.simulation.scenario import (
    DynamicScenario,
    Scenario,
    expand_seeds,
    run_dynamic_grid,
    run_dynamic_scenario,
    run_scenario,
    run_scenario_grid,
)
from repro.simulation.sweep import SweepConfiguration, grid_sweep, run_sweep

WORKER_COUNTS = (1, 2, 4)


def small_config(rng_mode="sequential", algorithm="algorithm2"):
    return SweepConfiguration(algorithm=algorithm, topology="torus", num_nodes=16,
                              tokens_per_node=8, workload="uniform",
                              rng_mode=rng_mode)


def run_signature(run):
    """The comparable fingerprint of one run (trajectory included)."""
    return (run.final_max_min, run.final_max_avg, run.rounds, run.dummy_tokens,
            run.trace_max_min)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_sweep_identical_across_worker_counts(self, rng_mode):
        config = small_config(rng_mode)
        seeds = [1, 2, 3, 4]
        results = [run_sweep(config, seeds, record_trace=True, workers=workers)
                   for workers in WORKER_COUNTS]
        rows = [result.as_row() for result in results]
        assert rows[0] == rows[1] == rows[2]
        signatures = [[run_signature(run) for run in result.runs]
                      for result in results]
        assert signatures[0] == signatures[1] == signatures[2]

    def test_grid_sweep_identical_across_worker_counts(self):
        kwargs = dict(
            algorithms=("round-down", "algorithm1"),
            topologies_and_sizes=(("cycle", 8), ("torus", 16)),
            seeds=[1, 2],
            tokens_per_node=8,
        )
        tables = []
        for workers in WORKER_COUNTS:
            results = grid_sweep(workers=workers, **kwargs)
            tables.append([result.as_row() for result in results])
        assert tables[0] == tables[1] == tables[2]

    # max_retries=0 runs at the default in-flight depth (two cells per
    # worker); the fault-free max_retries=1 case runs at depth ``workers``
    @pytest.mark.parametrize("max_retries", [0, 1])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_dynamic_trajectories_identical_across_worker_counts(
            self, rng_mode, max_retries):
        base = DynamicScenario(name="inv", algorithm="algorithm2", topology="torus",
                               num_nodes=16, tokens_per_node=6, rounds=40,
                               rng_mode=rng_mode)
        scenarios = expand_seeds(base, [1, 2, 3, 4])
        serial = [run_dynamic_scenario(scenario) for scenario in scenarios]
        for workers in WORKER_COUNTS[1:]:
            sharded = run_dynamic_grid(scenarios, workers=workers,
                                       max_retries=max_retries)
            assert [r.trace_max_min for r in sharded] == \
                [r.trace_max_min for r in serial]
            assert [r.trace_total_weight for r in sharded] == \
                [r.trace_total_weight for r in serial]
            assert [r.event_timeline for r in sharded] == \
                [r.event_timeline for r in serial]

    def test_scenario_grid_matches_serial(self):
        scenarios = expand_seeds(
            Scenario(name="st", algorithm="algorithm1", topology="cycle",
                     num_nodes=8, tokens_per_node=8), [3, 4])
        serial = [run_scenario(scenario) for scenario in scenarios]
        sharded = run_scenario_grid(scenarios, workers=2)
        assert [r.final_max_min for r in sharded] == \
            [r.final_max_min for r in serial]


class TestRunCells:
    def make_cells(self, count=3):
        config = small_config()
        return [GridCell(kind="sweep", spec=config, index=0, seed=seed)
                for seed in range(count)]

    def test_outcomes_preserve_input_order_and_carry_timing(self):
        cells = self.make_cells(5)
        outcomes = run_cells(cells, workers=2)
        assert [outcome.cell.seed for outcome in outcomes] == [0, 1, 2, 3, 4]
        for outcome in outcomes:
            assert isinstance(outcome, CellOutcome)
            assert outcome.seconds > 0
            assert outcome.worker_pid > 0

    def test_empty_grid(self):
        assert run_cells([], workers=4) == []

    def test_workers_capped_by_cells(self):
        outcomes = run_cells(self.make_cells(2), workers=8)
        assert len(outcomes) == 2

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            run_cells(self.make_cells(2), workers=0)

    def test_strict_failure_tears_down_the_pool(self):
        good = small_config()
        bad = SweepConfiguration(algorithm="algorithm2", topology="cycle",
                                 num_nodes=1)
        before = set(multiprocessing.active_children())
        with pytest.raises(TopologyError):
            run_cells(sweep_cells([good, bad, good, good], [1, 2]), workers=2)
        # terminated workers are reaped asynchronously; leaked ones never are
        deadline = time.monotonic() + 10.0
        while set(multiprocessing.active_children()) - before \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not set(multiprocessing.active_children()) - before

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ExperimentError):
            GridCell(kind="frobnicate", spec=small_config(), index=0)

    def test_default_workers_bounds(self):
        assert default_workers(0) == 1
        assert 1 <= default_workers(100) <= 100

    def test_timing_summary(self):
        outcomes = run_cells(self.make_cells(3), workers=1)
        summary = timing_summary(outcomes)
        assert summary["cells"] == 3
        assert summary["busy_seconds"] > 0
        assert summary["workers_used"] == 1
        assert "wall_seconds" not in summary
        assert timing_summary([])["cells"] == 0

    def test_timing_summary_reports_wall_clock_and_utilization(self):
        outcomes = run_cells(self.make_cells(3), workers=1)
        busy = sum(outcome.seconds for outcome in outcomes)
        summary = timing_summary(outcomes, wall_seconds=busy * 2)
        assert summary["wall_seconds"] == round(busy * 2, 4)
        # one worker kept busy for half the wall-clock
        assert summary["utilization"] == pytest.approx(0.5)
        assert timing_summary(outcomes, wall_seconds=0.0)["utilization"] == 0.0
        empty = timing_summary([], wall_seconds=1.5)
        assert empty["wall_seconds"] == 1.5
        assert empty["cells"] == 0


class TestGridEntryPoints:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_sweep_drivers_reject_invalid_worker_count(self, workers):
        with pytest.raises(ExperimentError, match="workers"):
            run_sweep(small_config(), seeds=[1], workers=workers)
        with pytest.raises(ExperimentError, match="workers"):
            grid_sweep(["round-down"], [("cycle", 8)], seeds=[1],
                       workers=workers)

    def test_sweep_cells_require_seeds(self):
        with pytest.raises(ExperimentError):
            sweep_cells([small_config()], seeds=[])

    def test_grid_sweep_with_outcomes_merges_per_configuration(self):
        configs = [small_config(), small_config(algorithm="algorithm1")]
        results, outcomes = grid_sweep_with_outcomes(configs, seeds=[1, 2, 3],
                                                     workers=2)
        assert [result.configuration for result in results] == configs
        assert all(result.num_runs == 3 for result in results)
        assert len(outcomes) == 6

    def test_dynamic_grid_preserves_order(self):
        scenarios = expand_seeds(
            DynamicScenario(name="ord", algorithm="round-down", topology="cycle",
                            num_nodes=8, tokens_per_node=4, rounds=12), [9, 8, 7])
        results = run_dynamic_grid(scenarios, workers=2)
        assert [result.trace_max_min for result in results] == \
            [run_dynamic_scenario(scenario).trace_max_min
             for scenario in scenarios]

    def test_scenario_grid_empty(self):
        assert run_scenario_grid([], workers=2) == []
