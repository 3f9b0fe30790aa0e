"""One workload run in a fresh process; run.py starts it and reads its output.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only] [--max-tasks N]

Prints "ready" once the workload's qduality modules are imported and its
inputs generated (the end of set-up), then runs whole rounds until SECONDS
have passed and prints one JSON line of results.  With TRACE 1 it runs each
round twice, untraced and then traced, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS_SHOWN = 5


def load_reference(name: str) -> dict:
    path = os.path.join(HERE, "reference", f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_round(run, tasks, records, max_tasks, tracer=None, timeline=None):
    """Run tasks in order, appending (task, output, error, seconds) to records."""
    clock = time.perf_counter
    for task in tasks:
        if max_tasks and len(records) >= max_tasks:
            return
        if timeline is not None:
            timeline.probe(len(records))
        if tracer is not None:
            tracer.task_id = len(records)
        t0 = clock()
        try:
            out, err = run(task), None
        except Exception as exc:  # a raising task counts as failed, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((task, out, err, clock() - t0))


def tail(latencies) -> tuple:
    """(latency, percentile) of the highest percentile with ten tasks beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def check_all(workload, records) -> tuple:
    failed, errors = 0, []
    for task, out, err, _ in records:
        if err is None:
            try:
                if workload.check(task, out):
                    continue
                err = f"{task.kind}: output differs from the reference"
            except Exception as exc:  # a malformed output fails its check
                err = f"{task.kind}: check raised {type(exc).__name__}: {exc}"
        failed += 1
        if len(errors) < MAX_ERRORS_SHOWN:
            errors.append(err)
    return failed, errors


def import_costs() -> dict:
    """cli.import_s (median of 3, minus a bare interpreter) and scipy's share of it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def timed(code):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    import_s = timed("import qduality.cli") - timed("pass")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qduality.cli"],
                          env=env, stderr=subprocess.PIPE, text=True, check=True)
    total = scipy = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:  # the header line
            continue
        total += self_us
        if parts[2].strip().split(".")[0] == "scipy":
            scipy += self_us
    return {"cli.import_s": import_s, "cli.import.scipy_share": scipy / total if total else 0.0}


def execute(workload, rounds, seconds, trace, max_tasks=0) -> dict:
    """Run whole rounds for ``seconds`` (or ``max_tasks`` tasks) and check every output."""
    clock = time.perf_counter
    records, traced = [], []
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced_run = tracer.wrap("task", workload.run)
        workload.tracer = tracer
    timeline = None if trace else speed.Timeline(workload.speed_reference)
    untraced_s = traced_s = 0.0
    r = 0
    start = clock()
    while True:
        tasks = rounds[r % len(rounds)]
        t0 = clock()
        run_round(workload.run, tasks, records, max_tasks, timeline=timeline)
        untraced_s += clock() - t0
        if tracer is not None:
            tracer.enabled = True
            t0 = clock()
            run_round(traced_run, tasks, traced, max_tasks, tracer)
            traced_s += clock() - t0
            tracer.enabled = False
        r += 1
        if clock() - start >= seconds or (max_tasks and len(records) >= max_tasks):
            break
    wall = clock() - start
    if timeline is not None:
        wall -= timeline.spent_s  # speed samples are not part of the timed work
        timeline.probe(len(records), force=True)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    failed, errors = check_all(workload, records + traced)
    attempted = len(records) + len(traced)
    latencies = [rec[3] for rec in records]
    kind_s = {}
    for task, _, _, seconds_taken in records:
        kind_s[task.kind] = kind_s.get(task.kind, 0.0) + seconds_taken
    busy = sum(latencies)
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "rounds": r,
        "tasks": len(records),
        "wall_s": wall,
        "kind_share": {k: v / busy for k, v in sorted(kind_s.items())},
    }
    if tracer is None:
        tail_s, tail_pct = tail(latencies)
        scaled = [s * f for s, f in zip(latencies, timeline.factors(len(latencies)))]
        scale = sum(scaled) / busy if busy else 1.0
        result["end_to_end"] = {
            "tasks_per_s": (len(records) - failed) / (wall * scale),
            "task_p50_ms": statistics.median(scaled) * 1e3,
            "task_tail_ms": tail(scaled)[0] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        result["tail_percentile"] = tail_pct
        result["unscaled"] = {
            "tasks_per_s": (len(records) - failed) / wall,
            "task_p50_ms": statistics.median(latencies) * 1e3,
            "task_tail_ms": tail_s * 1e3,
        }
        samples = [s for _, s in timeline.marks]
        result["speed"] = {"scale": scale, "samples": len(samples),
                           "sample_median_s": statistics.median(samples),
                           "sample_min_s": min(samples), "sample_max_s": max(samples)}
        return result
    os.makedirs(workloads.WORK, exist_ok=True)
    tracer.write_spans(os.path.join(workloads.WORK, f"spans-{workload.name}.csv"))
    extra = {"trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
             "traced_task_s": sum(rec[3] for rec in traced)}
    if workload.name == "cli_session":
        extra.update(import_costs())
    result["per_layer"] = metrics.per_layer(tracer.summary(), tracer.counters, extra, r)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-tasks", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    rounds = workload.setup(args.seed, load_reference(args.workload))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = execute(workload, rounds, args.seconds, args.trace, args.max_tasks)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
