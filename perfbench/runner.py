"""Run one benchmark workload in this process and print its result line.

``run.py`` starts this script in a fresh process per workload, with the
BLAS/OpenMP thread pools pinned to one thread and ``src`` on the import
path.  It makes one untimed toy-size pass to finish imports and lazy
set-up, then repeats full passes of the workload until ``--seconds`` is
used up and reports medians over the passes.  The passes cycle through
``INSTANCES`` input instances, each made from ``--seed`` and its instance
number, so that a run's medians do not hang on one draw of the inputs.

With ``--trace 0`` every pass is untraced and the result carries the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` the passes
alternate untraced and traced; the result carries the per-layer metrics,
taken from the traced passes, plus the tracing overhead (traced over
untraced wall time).  The traced passes' spans are written to
``.perfbench/spans-<workload>-<seed>.json`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List

#: Input instances per seed; untraced passes cycle through them, and a
#: traced run gives each instance one untraced and then one traced pass.
INSTANCES = 4
#: Passes a run makes at least, however long they take.
MIN_PASSES = INSTANCES
MIN_TRACED_PASSES = 2
#: No new pass starts after this many seconds, whatever ``--seconds`` says.
HARD_STOP_S = 120.0


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _median(passes, key) -> float:
    return statistics.median(key(result) for result in passes)


def _end_to_end(passes, quality: Dict[int, float]) -> Dict[str, float]:
    """Timings are medians over the passes; quality is the mean over the instances."""
    return {
        "wall_s": _median(passes, lambda p: p.wall_s),
        "setup_s": _median(passes, lambda p: p.setup_s),
        "node_rounds_per_s": _median(passes, lambda p: p.node_rounds / p.loop_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_max_min": statistics.mean(quality.values()),
    }


def _per_layer(untraced, traced, recorders):
    """Per-layer figures of the traced passes, each the median over those passes.

    Every span name ``layer.call`` also yields ``layer.call_s``, its total
    seconds in a pass; figures a workload computes itself override those.
    """
    from spans import nesting_errors, self_times

    per_pass: List[Dict[str, float]] = []
    coverage = []
    for rec, result in zip(recorders, traced):
        root = next(span for span in rec.spans if span.name == "pass")
        covered = sum(span.seconds for span in rec.spans if span.parent == root.id)
        coverage.append(covered / root.seconds)
        figures: Dict[str, float] = {}
        for span in rec.spans:
            if span is not root:
                figures[f"{span.name}_s"] = figures.get(f"{span.name}_s", 0.0) + span.seconds
        for layer, seconds in self_times(rec.spans).items():
            if layer != "pass":
                figures[f"self_s.{layer}"] = seconds
        figures.update(result.layers)
        figures.update({"pass_s": result.wall_s, "setup_s": result.setup_s})
        per_pass.append(figures)
    layers = {name: statistics.median(figures.get(name, 0.0) for figures in per_pass)
              for name in sorted({name for figures in per_pass for name in figures})}
    timings = [("engine.round_ms", [ms for p in traced for ms in p.round_ms]),
               ("dynamic.step_ms", [ms for p in traced for ms in p.step_ms])]
    for prefix, samples in timings:
        if samples:
            layers[f"{prefix}_p50"] = statistics.median(samples)
            layers[f"{prefix}_p99"] = _percentile(samples, 0.99)
    layers["trace.coverage"] = statistics.median(coverage)
    layers["trace.overhead_x"] = layers["pass_s"] / _median(untraced, lambda p: p.wall_s)
    layers["trace.nesting_errors"] = sum(len(nesting_errors(rec.spans)) for rec in recorders)
    layers["parallel.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return layers, per_pass


def _predictions(workload: str, layers: Dict[str, float],
                 per_pass: List[Dict[str, float]]) -> List[str]:
    """Check the dominant layers the benchmark was designed around.

    Each share is the median over the traced passes of that pass's share.
    """
    def share(part, whole) -> float:
        return statistics.median(
            sum(figures.get(name, 0.0) for name in part) / figures[whole]
            if figures.get(whole) else 0.0 for figures in per_pass)

    checks = [("named layer spans cover >= 90% of the pass wall time",
               layers["trace.coverage"], layers["trace.coverage"] >= 0.9)]
    if workload == "static":
        inside = share(("continuous.advance_s", "backend.kernel_s"), "engine.round_s")
        checks.append(("continuous+kernel dominate Table-1 rounds", inside, inside >= 0.5))
        sos = share(("engine.make_balancer_sos_s",), "setup_s.table1")
        others = [share((name,), "setup_s.table1")
                  for name in ("network.topology_s", "engine.make_balancer_fos_s")]
        checks.append(("SOS make_balancer dominates Table-1 setup", sos,
                       all(sos > other for other in others)))
    elif workload == "stream":
        inside = share(("dynamic.bookkeeping_s",), "dynamic.step_s")
        checks.append(("bookkeeping dominates churn steps", inside, inside >= 0.5))
        inside = share(("checkpoint.write_s",), "part_s.durable")
        checks.append(("checkpoint writes dominate the checkpointed stream",
                       inside, inside >= 0.5))
    return [f"prediction: {text}: {'holds' if held else 'FAILS'} (share {value:.1%})"
            for text, value, held in checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    import numpy
    import repro

    source = (root / "src").resolve()
    if source not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2

    from repro.obs.kernels import activate_kernel_clock, deactivate_kernel_clock
    from spans import SpanRecorder
    from workloads import SCALES, workload_pass

    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    params = SCALES[args.scale][args.workload]
    work = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    workload_pass(SCALES["toy"][args.workload], args.seed, 0, SpanRecorder(run_id, False), work)
    untraced, traced, recorders = [], [], []
    digests: Dict[int, set] = {}
    quality: Dict[int, float] = {}
    began = time.perf_counter()
    durations: List[float] = []
    while True:
        done = len(untraced) + len(traced)
        tracing = bool(args.trace) and len(untraced) > len(traced)
        instance = (done // 2 if args.trace else done) % INSTANCES
        recorder = SpanRecorder(run_id, enabled=tracing)
        if tracing:
            activate_kernel_clock()
        started = time.perf_counter()
        try:
            result = workload_pass(params, args.seed, instance, recorder, work)
        finally:
            deactivate_kernel_clock()
        durations.append(time.perf_counter() - started)
        (traced if tracing else untraced).append(result)
        digests.setdefault(instance, set()).add(tuple(result.digests))
        quality[instance] = result.final_max_min
        if tracing:
            recorders.append(recorder)
        elapsed = time.perf_counter() - began
        enough = (done + 1 >= MIN_PASSES
                  and (not args.trace or len(traced) >= MIN_TRACED_PASSES))
        if elapsed > HARD_STOP_S or (
                enough and elapsed + statistics.median(durations) > args.seconds):
            break

    passes = untraced + traced
    checks = [check for result in passes for check in result.checks]
    checks.append(("passes of one instance (traced or not) have the same trajectory digests",
                   all(len(seen) == 1 for seen in digests.values())))
    if args.trace:
        computed, per_pass = _per_layer(untraced, traced, recorders)
        checks.append(("traced spans nest inside their parents",
                       not computed["trace.nesting_errors"]))
        declared = benchmark["per_layer"]
        spans_path = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        recorders[-1].write(spans_path)
    else:
        computed = _end_to_end(untraced, quality)
        declared = benchmark["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in computed]
        if missing:
            print(f"error: end-to-end metrics not computed: {missing}", file=sys.stderr)
            return 2
    failed = [name for name, ok in checks if not ok]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes in "
          f"{time.perf_counter() - began:.1f} s")
    print(f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, usable cores {len(os.sched_getaffinity(0))}, "
          f"BLAS/OpenMP threads {os.environ.get('OMP_NUM_THREADS', 'unset')}")
    print("per pass (untraced): " + "; ".join(
        f"{name} " + " ".join(f"{key(p):.6g}" for p in untraced)
        for name, key in (("wall_s", lambda p: p.wall_s), ("setup_s", lambda p: p.setup_s),
                          ("node_rounds_per_s", lambda p: p.node_rounds / p.loop_s))))
    for instance, seen in sorted(digests.items()):
        for digest in sorted(seen):
            print(f"trajectory digest of instance {instance} (information only): "
                  + " ".join(digest))
    for name, value in sorted(metrics.items()):
        print(f"  {name:40s} {value['value']:>16.6g} {value['unit']}")
    print(f"  {'failed_ratio':40s} {len(failed) / len(checks):>16.6g} "
          f"({len(failed)} of {len(checks)} output checks failed)")
    for name in failed:
        print(f"FAILED CHECK: {name}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(root)}")
        for line in _predictions(args.workload, computed, per_pass):
            print(line)
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
