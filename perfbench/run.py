"""The qduality benchmark: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload surface_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all four, one table

Workloads: surface_scan, fock_pipeline, hv_feasibility, cli_session (see
workloads.py and README.md).  Set-up time is the median over SETUP_SAMPLES
fresh processes; the last of them goes on to run the tasks.  Times are
scaled to a nominal machine speed, sampled with speed.py's references.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it records the run
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("surface_scan", "fock_pipeline", "hv_feasibility", "cli_session")
SETUP_SAMPLES = 7
# A run ends with the round during which --seconds passed; allow for that
# round, set-up and the output checks before giving up on a worker, and stay
# well inside three minutes for the whole run.
WORKER_GRACE_S = 100
SETUP_LIMIT_S = 30


def spawn(workload, seed, seconds, trace, setup_only=False, max_tasks=0):
    """Start a worker; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(seconds), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if max_tasks:
        cmd += ["--max-tasks", str(max_tasks)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(SETUP_LIMIT_S if setup_only else seconds + WORKER_GRACE_S,
                               proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_id():
    """The git commit of the checkout, when it is a git repository."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", *head[5:].split("/")))
    return head


def source_digest():
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "qduality")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(seed):
    return {
        "git_sha": source_id(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, max_tasks=0, setup_samples=SETUP_SAMPLES):
    env = environment(seed)
    env["loadavg_start"] = os.getloadavg()
    # Each set-up is scaled by the fresh-import samples taken just before and
    # just after it (only before, for the worker that goes on to run tasks).
    refs = [speed.import_sample()]
    setups = []
    for _ in range(setup_samples - 1):
        setups.append(spawn(workload, seed, seconds, trace, setup_only=True)[0])
        refs.append(speed.import_sample())
    setup_s, result = spawn(workload, seed, seconds, trace, max_tasks=max_tasks)
    setups.append(setup_s)
    refs.append(refs[-1])
    env["loadavg_end"] = os.getloadavg()
    env["tasks"] = result["tasks"]
    if trace:
        metrics = result.pop("per_layer")
    else:
        units = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
                 "peak_rss_mb": "MB"}
        scaled = [s * speed.IMPORT.nominal_s / ((before + after) / 2.0)
                  for s, before, after in zip(setups, refs, refs[1:])]
        metrics = {"setup_s": {"value": statistics.median(scaled), "unit": "s"}}
        metrics.update({k: {"value": v, "unit": units[k]}
                        for k, v in result.pop("end_to_end").items()})
    result["failed_frac"] = result["failed"] / result["attempted"]
    result["setup_samples_s"] = setups
    result["setup_import_samples_s"] = refs
    return env, result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qduality benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one set-up sample and three tasks")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qduality", "__init__.py")):
        sys.stderr.write(f"error: no qduality sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    size = {"max_tasks": 3, "setup_samples": 1} if args.tiny else {}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        try:
            env, result, metrics = run_workload(name, args.seed, args.seconds, args.trace, **size)
        except (RuntimeError, ValueError, IndexError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        for metric, entry in metrics.items():
            print(f"{name:15s} {metric:42s} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:15s} {'failed_frac':42s} {result['failed_frac']:.6g} ratio")
        print(json.dumps({"workload": name, "env": env, "details": result}))
        summary[name] = {"correct": result["failed"] == 0, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics}
    if len(names) == 1:
        print(json.dumps(summary[names[0]]))
    else:
        print(json.dumps({"workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
