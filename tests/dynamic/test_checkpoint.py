"""Checkpoint/resume bit-identity and rejection of damaged checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    StreamCheckpoint,
    checkpoint_engine,
    event_log_path,
    read_checkpoint,
    restore_engine,
    resume_stream,
    write_checkpoint,
)
from repro.dynamic.events import make_event_generator
from repro.dynamic.stream import StreamingEngine
from repro.exceptions import CheckpointError, ExperimentError
from repro.faults import truncate_checkpoint
from repro.simulation.scenario import DynamicScenario, run_dynamic_scenario
from repro.store.runstore import canonical_json


def _scenario(rng_mode="counter", backend="auto", algorithm="randomized-rounding",
              max_task_weight=1, rounds=24, **overrides):
    params = dict(
        name="ckpt", algorithm=algorithm, topology="cycle", num_nodes=10,
        tokens_per_node=6, rounds=rounds, events="mixed", seed=13,
        rng_mode=rng_mode, backend=backend, max_task_weight=max_task_weight)
    params.update(overrides)
    return DynamicScenario(**params)


def _build_engine(scenario):
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    if scenario.max_task_weight > 1:
        load = scenario.build_weighted_load(network)
    else:
        load = scenario.build_load(network)
    generator = make_event_generator(scenario.events, network,
                                     scenario.tokens_per_node,
                                     seed=seeds.events)
    return StreamingEngine(scenario.algorithm, network, load, generator,
                           continuous_kind=scenario.continuous_kind,
                           seed=seeds.algorithm, backend=scenario.backend,
                           rng_mode=scenario.rng_mode)


def _fresh_generator(scenario):
    seeds = scenario._purpose_seeds()
    network = scenario.build_network()
    return make_event_generator(scenario.events, network,
                                scenario.tokens_per_node, seed=seeds.events)


def _json_round_trip(checkpoint):
    """Serialise through canonical JSON exactly as the file format does."""
    return StreamCheckpoint(**json.loads(canonical_json(asdict(checkpoint))))


class TestResumeBitIdentity:
    @pytest.mark.parametrize("rng_mode", ["counter", "sequential"])
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_resume_at_every_round_matches_uninterrupted(self, rng_mode,
                                                         backend):
        """Kill at ANY round, resume, and get the exact same trajectory."""
        scenario = _scenario(rng_mode=rng_mode, backend=backend)
        baseline = run_dynamic_scenario(scenario)

        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        checkpoints = [_json_round_trip(checkpoint_engine(
            engine, total_rounds=scenario.rounds, trace=trace, totals=totals))]
        for _ in range(scenario.rounds):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
            checkpoints.append(_json_round_trip(checkpoint_engine(
                engine, total_rounds=scenario.rounds, trace=trace,
                totals=totals)))

        for round_index, checkpoint in enumerate(checkpoints):
            assert checkpoint.round_index == round_index
            resumed = resume_stream(checkpoint,
                                    generator=_fresh_generator(scenario))
            assert resumed.trace_max_min == baseline.trace_max_min, \
                f"trajectory diverged when resuming from round {round_index}"
            assert resumed.trace_total_weight == baseline.trace_total_weight
            assert resumed.extra == baseline.extra

    def test_weighted_stream_resumes_bit_identically(self, tmp_path):
        scenario = _scenario(algorithm="algorithm1", max_task_weight=4)
        baseline = run_dynamic_scenario(scenario)
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        for _ in range(scenario.rounds // 2):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
        path = write_checkpoint(
            checkpoint_engine(engine, total_rounds=scenario.rounds,
                              trace=trace, totals=totals),
            tmp_path / "weighted.json")
        resumed = resume_stream(path, generator=_fresh_generator(scenario))
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.trace_total_weight == baseline.trace_total_weight
        assert resumed.extra == baseline.extra

    @pytest.mark.parametrize("cadence", [1, 5, 7])
    def test_any_checkpoint_cadence_end_state_identical(self, tmp_path,
                                                        cadence):
        scenario = _scenario(rounds=20)
        baseline = run_dynamic_scenario(scenario)
        path = tmp_path / "cadence.json"
        checkpointed = run_dynamic_scenario(scenario, checkpoint_every=cadence,
                                            checkpoint_path=path)
        # checkpointing is observation-only: the run itself is unchanged
        assert checkpointed.trace_max_min == baseline.trace_max_min
        # the final snapshot resumes to the identical (already complete) run
        resumed = resume_stream(path)
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.extra == baseline.extra

    def test_scenario_meta_rebuilds_generator(self, tmp_path):
        """run_dynamic_scenario embeds the scenario; resume needs no inputs."""
        scenario = _scenario(rounds=18)
        baseline = run_dynamic_scenario(scenario)
        path = tmp_path / "meta.json"
        run_dynamic_scenario(scenario, checkpoint_every=7,
                             checkpoint_path=path)
        resumed = resume_stream(path)  # generator rebuilt from meta
        assert resumed.trace_max_min == baseline.trace_max_min

    def test_resume_continues_past_stored_horizon(self, tmp_path):
        scenario = _scenario(rounds=10)
        longer = _scenario(rounds=16)
        baseline = run_dynamic_scenario(longer)
        path = tmp_path / "extend.json"
        run_dynamic_scenario(scenario, checkpoint_every=10,
                             checkpoint_path=path,)
        resumed = resume_stream(path, generator=_fresh_generator(scenario),
                                rounds=16)
        assert resumed.trace_max_min == baseline.trace_max_min


class TestCheckpointValidation:
    def _written(self, tmp_path, **scenario_overrides):
        scenario = _scenario(rounds=8, **scenario_overrides)
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        for _ in range(4):
            engine.step()
            trace.append(engine.current_discrepancy())
            totals.append(float(engine.total_real_load()))
        return write_checkpoint(
            checkpoint_engine(engine, total_rounds=8, trace=trace,
                              totals=totals),
            tmp_path / "ckpt.json")

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        data = json.loads(path.read_text())
        data["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version"):
            read_checkpoint(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        data = json.loads(path.read_text())
        data["config"]["seed"] = 999  # tamper without re-hashing
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="config hash mismatch"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._written(tmp_path)
        truncate_checkpoint(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            read_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(CheckpointError, match="not a"):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            read_checkpoint(tmp_path / "absent.json")

    def test_atomic_write_preserves_previous_snapshot(self, tmp_path):
        """A rename-based write never leaves a half-written file behind."""
        path = self._written(tmp_path)
        before = path.read_text()
        read_checkpoint(path)  # valid
        # overwrite with a new snapshot; the write goes through a temp file
        scenario = _scenario(rounds=8)
        engine = _build_engine(scenario)
        write_checkpoint(checkpoint_engine(engine, total_rounds=8,
                                           trace=[0.0], totals=[0.0]), path)
        after = path.read_text()
        assert after != before
        read_checkpoint(path)  # still a complete, valid checkpoint
        assert not list(tmp_path.glob("*.tmp")), "temp files must not leak"

    def test_generator_shape_mismatch_rejected(self, tmp_path):
        """Restoring onto a generator of a different shape fails loudly."""
        path = self._written(tmp_path)
        checkpoint = read_checkpoint(path)
        other = _scenario(rounds=8, events="poisson")
        with pytest.raises(ExperimentError):
            restore_engine(checkpoint, generator=_fresh_generator(other))

    def test_resume_without_meta_or_generator_fails(self, tmp_path):
        path = self._written(tmp_path)  # no scenario meta attached
        with pytest.raises(CheckpointError, match="scenario metadata"):
            resume_stream(path)

    def test_trace_length_mismatch_rejected(self, tmp_path):
        path = self._written(tmp_path)
        data = json.loads(path.read_text())
        data["trace_max_min"] = data["trace_max_min"][:-2]
        # keep the config hash valid: only the traces were damaged
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="trace length"):
            resume_stream(path, generator=_fresh_generator(_scenario(rounds=8)))

    def test_checkpoint_every_requires_target(self):
        scenario = _scenario(rounds=6)
        with pytest.raises(ExperimentError, match="checkpoint_path"):
            run_dynamic_scenario(scenario, checkpoint_every=2)


def _segments(data):
    """Split event-log bytes into (head, payload) pairs."""
    segments, offset = [], 0
    while offset < len(data):
        header_end = data.index(b"\n", offset)
        head, size = data[offset:header_end].decode("ascii").split(" ")
        end = header_end + 1 + int(size)
        segments.append((head, data[header_end + 1:end]))
        offset = end + 1
    return segments


class TestEventLog:
    """The append-only event log next to each snapshot."""

    def _crash_after_append(self, tmp_path, torn):
        """A cadence-5 run whose write at round 15 died after its log append."""
        scenario = _scenario(rounds=20)
        path = tmp_path / "crash.json"
        run_dynamic_scenario(_scenario(rounds=10), checkpoint_every=5,
                             checkpoint_path=path)
        committed = path.read_bytes()
        committed_log = event_log_path(path).stat().st_size
        resume_stream(path, rounds=15, checkpoint_every=5)
        path.write_bytes(committed)  # the snapshot rename never happened
        if torn:
            grown = event_log_path(path).stat().st_size
            with open(event_log_path(path), "rb+") as handle:
                handle.truncate(committed_log + (grown - committed_log) // 2)
        assert event_log_path(path).stat().st_size > committed_log
        return scenario, path

    @pytest.mark.parametrize("torn", [False, True])
    def test_bytes_after_the_snapshot_head_are_ignored(self, tmp_path, torn):
        scenario, path = self._crash_after_append(tmp_path, torn)
        checkpoint = read_checkpoint(path)
        assert checkpoint.round_index == 10
        baseline = run_dynamic_scenario(scenario)
        assert checkpoint.state["timeline"] == [
            record for record in baseline.event_timeline if record["round"] < 10]
        resumed = resume_stream(checkpoint, rounds=20)
        assert resumed.trace_max_min == baseline.trace_max_min
        assert resumed.event_timeline == baseline.event_timeline

    @pytest.mark.parametrize("torn", [False, True])
    def test_next_write_cuts_stray_bytes_and_continues_the_chain(self, tmp_path,
                                                                 torn):
        scenario, path = self._crash_after_append(tmp_path, torn)
        resume_stream(path, rounds=20, checkpoint_every=5)
        uninterrupted = tmp_path / "uninterrupted.json"
        run_dynamic_scenario(scenario, checkpoint_every=5,
                             checkpoint_path=uninterrupted)
        assert event_log_path(path).read_bytes() == event_log_path(uninterrupted).read_bytes()
        final = read_checkpoint(path)
        assert final.round_index == 20
        assert final.state["timeline"] == read_checkpoint(
            uninterrupted).state["timeline"]

    def _written_run(self, tmp_path):
        path = tmp_path / "run.json"
        run_dynamic_scenario(_scenario(rounds=15), checkpoint_every=5,
                             checkpoint_path=path)
        assert len(_segments(event_log_path(path).read_bytes())) == 3
        return path

    def test_flipped_byte_in_an_earlier_segment_rejected(self, tmp_path):
        path = self._written_run(tmp_path)
        data = bytearray(event_log_path(path).read_bytes())
        first_payload = data.index(b"\n") + 10
        data[first_payload] ^= 0x01
        event_log_path(path).write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="hash chain|corrupt"):
            read_checkpoint(path)

    def test_log_shorter_than_the_head_rejected(self, tmp_path):
        path = self._written_run(tmp_path)
        size = event_log_path(path).stat().st_size
        with open(event_log_path(path), "rb+") as handle:
            handle.truncate(size - 1)
        with pytest.raises(CheckpointError, match="shorter"):
            read_checkpoint(path)

    def test_missing_log_rejected(self, tmp_path):
        path = self._written_run(tmp_path)
        event_log_path(path).unlink()
        with pytest.raises(CheckpointError, match="event log"):
            read_checkpoint(path)

    def test_other_run_on_an_existing_path_writes_a_fresh_log(self, tmp_path):
        path = self._written_run(tmp_path)
        other = _scenario(rounds=10, seed=29)
        run_dynamic_scenario(other, checkpoint_every=5, checkpoint_path=path)
        alone = tmp_path / "alone" / "other.json"
        run_dynamic_scenario(other, checkpoint_every=5, checkpoint_path=alone)
        assert event_log_path(path).read_bytes() == event_log_path(alone).read_bytes()
        checkpoint = read_checkpoint(path)
        assert checkpoint.round_index == 10
        assert checkpoint.state["timeline"] == run_dynamic_scenario(
            other).event_timeline
        assert not list(tmp_path.glob("*.tmp")), "temp files must not leak"

    def test_resume_to_a_new_path_rebuilds_the_same_log(self, tmp_path):
        scenario = _scenario(rounds=20)
        crashed = tmp_path / "crashed.json"
        run_dynamic_scenario(_scenario(rounds=10), checkpoint_every=5,
                             checkpoint_path=crashed)
        resumed = tmp_path / "resumed.json"
        resume_stream(crashed, rounds=20, checkpoint_every=5,
                      checkpoint_path=resumed)
        full = tmp_path / "full.json"
        run_dynamic_scenario(scenario, checkpoint_every=5, checkpoint_path=full)
        assert event_log_path(resumed).read_bytes() == event_log_path(full).read_bytes()

    def test_write_cost_does_not_grow_with_history(self, tmp_path):
        """Each write adds exactly its new records; the snapshot stays flat."""
        scenario = _scenario(rounds=40, events="poisson")
        path = tmp_path / "flat.json"
        engine = _build_engine(scenario)
        trace = [engine.current_discrepancy()]
        totals = [float(engine.total_real_load())]
        timeline_before, log_before, log_inode, rests = 0, b"", None, []
        for _ in range(8):
            for _ in range(5):
                engine.step()
                trace.append(engine.current_discrepancy())
                totals.append(float(engine.total_real_load()))
            write_checkpoint(checkpoint_engine(engine, total_rounds=40,
                                               trace=trace, totals=totals),
                             path)
            log = event_log_path(path).read_bytes()
            assert log.startswith(log_before), "the log is append-only"
            inode = event_log_path(path).stat().st_ino
            assert not log_before or inode == log_inode, \
                "a write of the same run appends in place, it never rewrites"
            log_inode = inode
            timeline = engine.timeline
            added = _segments(log[len(log_before):])
            assert len(added) == 1
            assert json.loads(added[0][1]) == timeline[timeline_before:]
            snapshot = json.loads(path.read_text())
            assert snapshot["state"]["timeline"]["records"] == len(timeline)
            trace_bytes = sum(len(canonical_json(snapshot[name]))
                              for name in ("trace_max_min",
                                           "trace_total_weight"))
            rests.append(path.stat().st_size - trace_bytes)
            timeline_before, log_before = len(timeline), log
        assert timeline_before > 40
        # token counts may change their digit count; nothing else grows
        assert max(rests) - min(rests) <= 32, rests
