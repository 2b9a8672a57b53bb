"""End-to-end, per-layer benchmark of the load-balancing library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static --seed 1 --seconds 20 --trace 0

Workloads: ``static`` and ``stream`` (see ``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(output checks) and ``metrics`` (``{name: {"value", "unit"}}``, the names
listed in ``BENCHMARK.json``).

Each invocation runs its workload in a fresh child process (``runner.py``)
so peak RSS, caches and imports are per workload, with every BLAS/OpenMP
thread pool pinned to one thread (pool workers inherit the setting).  The
library is imported from ``src`` of the checkout; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("static", "stream")

#: Environment variables that size the BLAS/OpenMP thread pools.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: The child is killed after this long; a run must end within 180 s.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end, per-layer benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no library source (src/repro); "
              "run the benchmark from the root of a checkout", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no BENCHMARK.json", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(root / "src")
    # The run store asks git for the revision; keep git from searching
    # above the checkout for a repository.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    command = [sys.executable, str(pathlib.Path(__file__).with_name("runner.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    # A session of its own, so a timeout also stops the grid's pool workers.
    child = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:  # the child and everything it started have ended
            pass
        child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
