"""Tiny self-test of the benchmark; runs every workload at self-test size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics metrics.py reports; that each
workload, traced and untraced, prints a last line with exactly the keys
correct, attempted, failed and metrics, every metric with its unit, and no
failed task; that corrupting one reference value makes the task that uses it
fail (failed_frac > 0); and that run.py exits non-zero, printing no result,
in a directory without the qduality sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names"
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END), "end_to_end metrics differ from metrics.END_TO_END"
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER], "per_layer metrics differ from metrics.PER_LAYER"


def check_schema(name, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, last
    expected = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    assert {m[0]: m[1] for m in expected} == {k: v["unit"] for k, v in last["metrics"].items()}
    for entry in last["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)


def corrupt(expected):
    """The same reference value, made wrong."""
    if isinstance(expected, dict):  # cli_session: exit code, stdout and file digests
        return dict(expected, stdout="0" * 64)
    if isinstance(expected, Fraction):
        return expected + Fraction(1, 1000)
    if isinstance(expected, tuple):  # (feasible, residual)
        return expected[0], expected[1] + 1e-6
    return expected + 1e-6


def check_corruption_detected(name):
    workload = workloads.WORKLOADS[name]()
    rounds = workload.setup(SEED, worker.load_reference(name))
    task = next(t for r in rounds for t in r if t.expected is not None)
    good = worker.execute(workload, [[task]], 0, 0, max_tasks=1)
    bad = worker.execute(workload, [[task._replace(expected=corrupt(task.expected))]], 0, 0,
                         max_tasks=1)
    assert good["failed"] == 0, f"{name}: the uncorrupted reference fails: {good['errors']}"
    assert bad["failed"] / bad["attempted"] > 0, f"{name}: a corrupted reference went unnoticed"


def check_refuses_without_sources():
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "surface_scan",
                           "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    check_benchmark_json()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_schema(name, trace)
        if name != "surface_scan":  # its checks are closed forms, not recorded values
            check_corruption_detected(name)
        print(f"ok {name}")
    check_refuses_without_sources()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
