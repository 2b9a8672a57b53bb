"""Checkpoint/resume for dynamic streams: crash-tolerant, bit-identical.

A long dynamic run (:func:`repro.dynamic.stream.run_stream`) historically
lost everything on a crash.  This module snapshots a
:class:`~repro.dynamic.stream.StreamingEngine` to disk and restores it such
that the resumed trajectory is **bit-identical** to the uninterrupted run —
under ``rng_mode="counter"`` exactly (every randomized draw is a pure
function of ``(seed, round, edge)``), and in practice for ``"sequential"``
runs too, because restoration replays the post-boundary rounds instead of
guessing at RNG internals.

What a checkpoint holds
-----------------------
* the engine's immutable **configuration** (algorithm, substrate, seed,
  selection policy, backend, rng mode) and its SHA-256 ``config_hash``
  computed through the run store's canonical-JSON machinery — a checkpoint
  can only be restored onto the configuration that produced it;
* the full mutable **state**: stable-label graph/speeds/loads, run-level
  counters, the event timeline, the event generators' bit-generator states
  (the event-stream position), and the last coupling *boundary* plus the
  number of event-free rounds advanced since it;
* the run's **traces so far** and total horizon, so the resumed
  :class:`~repro.simulation.results.RunResult` covers the whole run from
  round 0;
* a ``version`` and free-form ``meta`` (the CLI stores the originating
  :class:`~repro.simulation.scenario.DynamicScenario` so ``repro resume``
  can rebuild the event generator by itself).

Two files on disk
-----------------
The event timeline grows with every round, so it is not re-serialised by
each snapshot.  A checkpoint at ``path`` is

* the **snapshot** ``path``: canonical JSON of everything above except the
  timeline records, whose place in ``state["timeline"]`` holds a reference
  ``{"records", "head", "bytes"}`` — the record count, the SHA-256 chain
  head and the byte length of the log prefix the snapshot covers;
* the **event log** ``path + ".events"``: append-only segments, one per
  snapshot that saw new records.  A segment is a header line
  ``<head> <payload bytes>`` followed by the payload (the new records as a
  compact sorted-key JSON array) and a newline, where ``head`` is the
  SHA-256 of the previous segment's head followed by the payload.

Each write appends and fsyncs only the segments since the snapshot on disk,
then replaces the snapshot atomically (temp file + ``fsync`` + rename), so a
write costs the same at round 25 as at round 3 200.  The engine keeps the
chain of segment references; when the snapshot on disk is not one of them
(another run used the path, or a resume writes to a new path) the log is
rewritten whole, atomically.  Bytes after the snapshot's head — a crash
between the log append and the snapshot rename — are ignored on read and
cut off by the next write, so the latest *complete* snapshot always
survives.  Replacing the checkpoint of a *different* run swaps both files;
a crash between those two renames leaves the old snapshot pointing at the
new log, which reads as a :class:`~repro.exceptions.CheckpointError`, never
as a wrong timeline.

Restoration re-couples the balancer at the boundary with the original
per-coupling seed and replays the rounds since — the continuous substrate,
matching schedule and balancer RNG all land in exactly the state the
uninterrupted run had, with no balancer internals in the file.  A
post-replay integrity check compares the replayed loads against the
snapshotted ones, and reading verifies every log segment against the hash
chain, so a corrupt (e.g. truncated or bit-flipped) checkpoint fails loudly
with :class:`~repro.exceptions.CheckpointError` rather than silently
diverging.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .dynamic.events import EventGenerator
from .dynamic.stream import StreamingEngine
from .exceptions import CheckpointError
from .simulation.results import RunResult
from .store.runstore import canonical_json, config_hash

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "StreamCheckpoint",
    "checkpoint_engine",
    "write_checkpoint",
    "read_checkpoint",
    "restore_engine",
    "resume_stream",
    "seal_segment",
    "event_log_path",
]

PathLike = Union[str, pathlib.Path]

#: Magic string identifying a stream checkpoint file.
CHECKPOINT_FORMAT = "repro-stream-checkpoint"

#: Bump on any incompatible change to the snapshot layout; readers reject
#: checkpoints from other versions instead of misinterpreting them.
CHECKPOINT_VERSION = 2

#: Log reference of an empty timeline: no records, the chain's genesis head.
_EMPTY_LOG = {"records": 0, "head": "0" * 64, "bytes": 0}


@dataclass
class StreamCheckpoint:
    """One engine snapshot plus everything needed to finish the run.

    ``config``/``state`` are :meth:`StreamingEngine.config_dict` /
    :meth:`StreamingEngine.state_dict`; ``config_hash`` is filled in (and
    verified on read) automatically.  ``trace_max_min`` /
    ``trace_total_weight`` are the run's traces up to and including the
    checkpointed round; ``total_rounds`` is the run's horizon so resume
    knows how far to continue.  ``meta`` travels verbatim (scenario
    provenance for the CLI).  In memory ``state["timeline"]`` is the full
    record list; on disk it is a reference into the event log.
    """

    config: Dict[str, object]
    state: Dict[str, object]
    total_rounds: Optional[int] = None
    trace_max_min: List[float] = field(default_factory=list)
    trace_total_weight: List[float] = field(default_factory=list)
    meta: Optional[Dict[str, object]] = None
    format: str = CHECKPOINT_FORMAT
    version: int = CHECKPOINT_VERSION
    config_hash: str = ""
    created: str = ""

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = config_hash(self.config)
        if not self.created:
            # repro: allow[R002] provenance timestamp, never read back into logic
            self.created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    @property
    def round_index(self) -> int:
        """The round the snapshot was taken at (rounds already executed)."""
        return int(self.state["round"])


def checkpoint_engine(engine: StreamingEngine,
                      total_rounds: Optional[int] = None,
                      trace: Optional[List[float]] = None,
                      totals: Optional[List[float]] = None,
                      meta: Optional[Dict[str, object]] = None) -> StreamCheckpoint:
    """Snapshot a live engine (plus the driver's traces) into a checkpoint."""
    return StreamCheckpoint(
        config=engine.config_dict(),
        state=engine.state_dict(),
        total_rounds=total_rounds,
        trace_max_min=list(trace) if trace is not None else [],
        trace_total_weight=list(totals) if totals is not None else [],
        meta=dict(meta) if meta is not None else None,
    )


def event_log_path(path: PathLike) -> pathlib.Path:
    """The event log that goes with the snapshot at ``path``."""
    path = pathlib.Path(path)
    return path.with_name(path.name + ".events")


def _chain_head(previous_head: str, payload: bytes) -> str:
    """A segment's head: SHA-256 of the previous head followed by its payload."""
    return hashlib.sha256(previous_head.encode("ascii") + payload).hexdigest()


def _segment(records: Sequence[Dict[str, object]],
             previous: Dict[str, object]) -> Tuple[Dict[str, object], bytes]:
    """Encode ``records`` as the segment after ``previous``: (reference, bytes)."""
    # json.dumps, not canonical_json: the records are plain int/str/bool/list
    # data, for which both give the same text, and this skips a numpy-safe
    # copy of every record
    payload = json.dumps(records, sort_keys=True,
                         separators=(",", ":")).encode("ascii")
    head = _chain_head(previous["head"], payload)
    framed = b"%s %d\n%s\n" % (head.encode("ascii"), len(payload), payload)
    return {"records": previous["records"] + len(records), "head": head,
            "bytes": previous["bytes"] + len(framed)}, framed


def seal_segment(timeline: Sequence[Dict[str, object]],
                 log: Sequence[Dict[str, object]]
                 ) -> Optional[Tuple[Dict[str, object], str]]:
    """Seal the records of ``timeline`` past the end of ``log`` into a segment.

    ``log`` is the chain of segment references already sealed; returns the
    new segment's reference and its framed text, or ``None`` when ``log``
    already covers the whole timeline.  Only the new records are encoded.
    """
    tip = log[-1] if log else _EMPTY_LOG
    if len(timeline) == tip["records"]:
        return None
    reference, framed = _segment(timeline[tip["records"]:], tip)
    return reference, framed.decode("ascii")


def _atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a fsync'd temp file and a rename."""
    handle = tempfile.NamedTemporaryFile(
        "wb", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _committed_position(path: pathlib.Path, log_path: pathlib.Path,
                        chain: List[Dict[str, object]]) -> Optional[int]:
    """Where the snapshot on disk sits in ``chain``, if its log is a prefix of it.

    ``None`` when there is no readable snapshot, its log reference is not in
    ``chain`` (another run wrote it), or the log is shorter than the
    reference says.  The chain is searched from its end, where the previous
    write of a run sits.
    """
    try:
        text = path.read_text()
        # Only the reference is needed, not the traces: in sorted-key JSON
        # only ``state["tokens"]`` (label keys), the horizon, the traces and
        # the version follow ``state["timeline"]``, so its key is the text's
        # last ``"timeline":{``.
        start = text.rindex('"timeline":{') + len('"timeline":')
        reference, _ = json.JSONDecoder().raw_decode(text, start)
        logged = log_path.stat().st_size
    except (OSError, ValueError):
        return None
    for position in range(len(chain) - 1, -1, -1):
        if chain[position] == reference:
            return position if logged >= reference["bytes"] else None
    return None


def _log_segments(timeline: Sequence[Dict[str, object]],
                  chain: List[Dict[str, object]], start: int,
                  encoded: Dict[str, bytes]) -> Iterator[bytes]:
    """The framed segments of ``chain`` after position ``start``.

    Segments sealed by this snapshot come from ``encoded``; older ones (a
    fresh log for a resumed run, or snapshots that were never written) are
    encoded again from the timeline.
    """
    for position in range(start + 1, len(chain)):
        previous, reference = chain[position - 1], chain[position]
        framed = encoded.get(reference["head"])
        if framed is None:
            rebuilt, framed = _segment(
                timeline[previous["records"]:reference["records"]], previous)
            if rebuilt != reference:
                raise CheckpointError(
                    "the timeline does not match its event-log chain at "
                    f"record {reference['records']}")
        yield framed


def write_checkpoint(checkpoint: StreamCheckpoint, path: PathLike) -> pathlib.Path:
    """Durably write a checkpoint: its event-log tail, then its snapshot.

    When the snapshot already at ``path`` belongs to this run, only the
    segments sealed since it are appended to the event log (and fsync'd);
    otherwise the log is rewritten whole through a temporary file.  The
    snapshot, holding a reference to the log's new head, is then written
    to a temporary file in the same directory, fsync'd, and renamed over
    ``path`` — a crash mid-write can never corrupt an existing checkpoint,
    so the latest *complete* snapshot always survives.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    log_path = event_log_path(path)
    state = checkpoint.state
    timeline = state["timeline"]
    log = list(state.get("timeline_log") or ())
    texts = [state.get("timeline_segment")]
    unsealed = seal_segment(timeline, log)
    if unsealed is not None:  # a hand-made state whose log lags its timeline
        log.append(unsealed[0])
        texts.append(unsealed[1])
    # the segments already encoded, by head (a framed segment starts with it)
    encoded = {text[:64]: text.encode("ascii") for text in texts if text}
    chain = [_EMPTY_LOG] + log

    start = _committed_position(path, log_path, chain)
    if start is None:
        _atomic_write(log_path, b"".join(_log_segments(timeline, chain, 0, encoded)))
    else:
        with open(log_path, "r+b") as handle:
            # drop what a crash left past the committed head, then append
            handle.truncate(chain[start]["bytes"])
            handle.seek(chain[start]["bytes"])
            for framed in _log_segments(timeline, chain, start, encoded):
                handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())

    # a shallow field dict, not dataclasses.asdict: asdict's per-leaf
    # deepcopy recursion would copy the whole timeline on every write
    data = {f.name: getattr(checkpoint, f.name) for f in fields(checkpoint)}
    data["state"] = {**{key: value for key, value in state.items()
                        if key not in ("timeline_log", "timeline_segment")},
                     "timeline": chain[-1]}
    _atomic_write(path, (canonical_json(data) + "\n").encode("utf-8"))
    return path


def _read_event_log(path: pathlib.Path,
                    reference: object) -> Tuple[List[Dict[str, object]],
                                                List[Dict[str, object]]]:
    """Read and verify the event log up to ``reference``: (records, chain).

    Every segment's head is recomputed from the previous head and its
    payload; bytes past the referenced head are ignored.
    """
    log_path = event_log_path(path)
    if not (isinstance(reference, dict) and set(reference) == set(_EMPTY_LOG)
            and isinstance(reference["records"], int)
            and isinstance(reference["head"], str)
            and isinstance(reference["bytes"], int) and reference["bytes"] >= 0):
        raise CheckpointError(
            f"checkpoint {path} is malformed (its timeline reference is "
            f"{str(reference)[:80]!r})")
    try:
        with open(log_path, "rb") as handle:
            data = handle.read(reference["bytes"])
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {path} has no readable event log {log_path} ({exc})") from exc
    if len(data) < reference["bytes"]:
        raise CheckpointError(
            f"event log {log_path} holds {len(data)} bytes, shorter than the "
            f"{reference['bytes']} its snapshot's head needs")
    records: List[Dict[str, object]] = []
    chain: List[Dict[str, object]] = []
    tip = _EMPTY_LOG
    while tip["bytes"] < len(data):
        offset = tip["bytes"]
        try:
            header_end = data.index(b"\n", offset)
            head, size = data[offset:header_end].decode("ascii").split(" ")
            if not size.isdigit():
                raise ValueError(f"segment size {size!r} is not a byte count")
            end = header_end + 1 + int(size)
            if data[end:end + 1] != b"\n":
                raise ValueError("segment is not newline-terminated")
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"event log {log_path} is corrupt at byte {offset} ({exc})") from exc
        payload = data[header_end + 1:end]
        if _chain_head(tip["head"], payload) != head:
            raise CheckpointError(
                f"event log {log_path} fails its hash chain at byte {offset}: "
                "the segment was modified after it was written")
        try:
            batch = json.loads(payload)
        except ValueError as exc:
            raise CheckpointError(
                f"event log {log_path} is corrupt at byte {offset} ({exc})") from exc
        records.extend(batch)
        tip = {"records": len(records), "head": head, "bytes": end + 1}
        chain.append(tip)
    if tip != reference:
        raise CheckpointError(
            f"event log {log_path} ends at head {tip['head'][:12]}… "
            f"({tip['records']} records), not at its snapshot's head "
            f"{reference['head'][:12]}… ({reference['records']} records)")
    return records, chain


def read_checkpoint(path: PathLike) -> StreamCheckpoint:
    """Load and validate a checkpoint: its snapshot and its event log.

    Raises :class:`~repro.exceptions.CheckpointError` when the snapshot is
    missing, truncated or otherwise not valid JSON, was written by a
    different format version, when its ``config_hash`` does not match its
    ``config`` (tampering / partial write), or when its event log is missing,
    shorter than the snapshot's head or fails the hash chain.  The returned
    ``state["timeline"]`` holds the full record list again, and
    ``state["timeline_log"]`` the chain of segment references.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupt or truncated ({exc})") from exc
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"this library reads version {CHECKPOINT_VERSION}")
    unknown = set(data) - set(StreamCheckpoint.__dataclass_fields__)
    if unknown:
        raise CheckpointError(
            f"checkpoint {path} carries unknown fields {sorted(unknown)}")
    try:
        checkpoint = StreamCheckpoint(**data)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {path} is malformed ({exc})") from exc
    expected = config_hash(checkpoint.config)
    if checkpoint.config_hash != expected:
        raise CheckpointError(
            f"checkpoint {path} config hash mismatch: stored "
            f"{checkpoint.config_hash[:12]}…, recomputed {expected[:12]}… — "
            f"the configuration was modified after the snapshot was taken")
    if not isinstance(checkpoint.state, dict):
        raise CheckpointError(f"checkpoint {path} is malformed (no state)")
    records, chain = _read_event_log(path, checkpoint.state.get("timeline"))
    checkpoint.state = {**checkpoint.state, "timeline": records,
                        "timeline_log": chain}
    return checkpoint


def _generator_from_meta(checkpoint: StreamCheckpoint) -> EventGenerator:
    """Rebuild the event generator from the checkpoint's scenario metadata."""
    meta = checkpoint.meta or {}
    scenario_data = meta.get("scenario")
    if not scenario_data:
        raise CheckpointError(
            "this checkpoint carries no scenario metadata; pass a freshly "
            "constructed event generator of the original shape to resume it")
    from .dynamic.events import make_event_generator
    from .simulation.scenario import DynamicScenario

    scenario = DynamicScenario.from_dict(dict(scenario_data))
    network = scenario.build_network()
    seeds = scenario._purpose_seeds()
    return make_event_generator(scenario.events, network,
                                scenario.tokens_per_node, seed=seeds.events)


def restore_engine(checkpoint: StreamCheckpoint,
                   generator: Optional[EventGenerator] = None,
                   bus=None) -> StreamingEngine:
    """Rebuild a live :class:`StreamingEngine` from a checkpoint.

    ``generator`` must be a freshly constructed event generator of the same
    shape as the checkpointed run's (its randomness position is restored
    from the snapshot); when omitted, it is rebuilt from the checkpoint's
    scenario metadata if present.
    """
    if generator is None:
        generator = _generator_from_meta(checkpoint)
    return StreamingEngine.restore(checkpoint.config, checkpoint.state,
                                   generator, bus=bus)


def resume_stream(source: Union[PathLike, StreamCheckpoint],
                  generator: Optional[EventGenerator] = None,
                  rounds: Optional[int] = None,
                  bus=None,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_path: Optional[PathLike] = None) -> RunResult:
    """Resume an interrupted dynamic run from its latest checkpoint.

    Restores the engine, then continues stepping until the stored horizon
    (override with ``rounds``), optionally re-checkpointing every
    ``checkpoint_every`` rounds (default target: the source path when
    ``source`` is a path).  Returns the **whole run's**
    :class:`~repro.simulation.results.RunResult` — traces start at round 0
    and, under counter RNG, are bit-identical to the uninterrupted run's.
    """
    if isinstance(source, StreamCheckpoint):
        checkpoint = source
    else:
        checkpoint = read_checkpoint(source)
        if checkpoint_every is not None and checkpoint_path is None:
            checkpoint_path = source
    if checkpoint_every is not None and checkpoint_path is None:
        raise CheckpointError("checkpoint_every requires a checkpoint_path")
    target = rounds if rounds is not None else checkpoint.total_rounds
    if target is None:
        raise CheckpointError(
            "the checkpoint stores no horizon; pass rounds= to resume")
    if target < checkpoint.round_index:
        raise CheckpointError(
            f"cannot resume to round {target}: the checkpoint is already at "
            f"round {checkpoint.round_index}")
    engine = restore_engine(checkpoint, generator=generator, bus=bus)
    trace = list(checkpoint.trace_max_min)
    totals = list(checkpoint.trace_total_weight)
    if len(trace) != checkpoint.round_index + 1:
        raise CheckpointError(
            f"checkpoint trace length {len(trace)} does not match round "
            f"{checkpoint.round_index} (expected {checkpoint.round_index + 1})")
    meta = checkpoint.meta
    while engine.round_index < target:
        engine.step()
        trace.append(engine.current_discrepancy())
        totals.append(float(engine.total_real_load()))
        if checkpoint_every is not None and (
                engine.round_index % checkpoint_every == 0
                or engine.round_index == target):
            write_checkpoint(
                checkpoint_engine(engine, total_rounds=target, trace=trace,
                                  totals=totals, meta=meta),
                checkpoint_path)
    return engine.result(trace_max_min=trace, trace_total_weight=totals)
