"""Fast self-test of the benchmark: every workload at toy size, traced and not.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that each run prints every metric ``BENCHMARK.json`` declares,
with its unit; that no output check fails (``failed_ratio`` is 0); that the
traced run's spans nest; and that the benchmark refuses to run, printing no
result, in a directory that holds only ``BENCHMARK.json`` and ``perfbench``.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from run import WORKLOADS  # noqa: E402
from spans import Span, nesting_errors  # noqa: E402


def run_benchmark(root: pathlib.Path, workload: str, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def check_benchmark_file(benchmark) -> None:
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in benchmark[group]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def check_run(root: pathlib.Path, benchmark, workload: str, trace: int) -> None:
    completed = run_benchmark(root, workload, trace)
    label = f"{workload} --trace {trace}"
    assert completed.returncode == 0, f"{label} exited {completed.returncode}:\n{completed.stderr}"
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{label} failed output checks:\n{completed.stdout}")
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines), label
    declared = benchmark["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, label
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], f"{label}: {metric['name']} unit"
        assert isinstance(printed["value"], (int, float)), f"{label}: {metric['name']} value"
    if trace:
        assert result["metrics"]["trace.nesting_errors"]["value"] == 0, label
        spans_file = root / ".perfbench" / f"spans-{workload}-3.json"
        spans = [Span(s["id"], s["name"], s["start"], s["end"], s["parent"])
                 for s in json.loads(spans_file.read_text())["spans"]]
        assert spans and spans[0].name == "pass", label
        assert not nesting_errors(spans), f"{label}: {nesting_errors(spans)[:3]}"
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared), (
            f"{label}: an end-to-end metric read 0")


def check_refuses_bare_directory(root: pathlib.Path) -> None:
    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        completed = run_benchmark(bare, "static", 0)
        assert completed.returncode != 0, "the benchmark ran without the library source"
        assert '"metrics"' not in completed.stdout, "a bare directory printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = pathlib.Path.cwd()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    check_benchmark_file(benchmark)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(root, benchmark, workload, trace)
            print(f"ok {workload} --trace {trace}")
    check_refuses_bare_directory(root)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
