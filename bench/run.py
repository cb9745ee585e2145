"""Run one multimax benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload csv-wide --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs from the seed, writes them as CSV
files and starts a fresh worker process that imports multimax from ./src and
warms up.  It runs three times and the median counts; the last worker goes
on to measure ops for --seconds.
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Lines before it are a readable summary.  The exit code is non-zero when an
output check fails or the run cannot be made.  Work files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import expected_results
from workloads import WORKLOADS, generate, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBE_ITERATIONS = 1_000_000
TAIL_BEYOND = 10
RUN_LIMIT_S = 175.0


def host_speed() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i & 7
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """The highest op time with at least TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result: dict, setup_s: float, cells: int) -> dict[str, tuple[float, str]]:
    times = result["op_s"]
    bytes_by_kind = result["artefact_bytes"]
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail(times)[0], "s"),
        "cells_per_s": (cells * len(times) / sum(times), "cells/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "artefact_bytes": (sum(bytes_by_kind.values()) / len(bytes_by_kind), "bytes"),
        "setup_s": (setup_s, "s"),
    }


PER_LAYER_UNITS = {"_per_s": "rows/s", "_s": "s", "_bytes": "bytes", "_ratio": "ratio", ".share": "ratio"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(work: Path, seconds: float, trace: int, timeout: float) -> dict | None:
    """Run worker.py once and return its result, or None after printing why it failed."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--work", str(work),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(command, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: the worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "multimax" / "__init__.py").is_file():
        print(f"error: no multimax source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe_start = host_speed()
    setups = []
    expected = None
    for repeat in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = generate(workload, args.seed)
        write_inputs(workload, args.seed, inputs, work / "inputs")
        generation_s = time.perf_counter() - t
        if expected is None:
            expected = expected_results(workload, inputs)
            config = {"commands": list(workload.commands), "expected": expected}
            (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        del inputs
        measuring = repeat == SETUP_REPEATS - 1
        result = run_worker(
            work,
            seconds=args.seconds if measuring else 0,
            trace=args.trace if measuring else 0,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
        if result is None:
            return 1
        setups.append((generation_s + result["import_s"] + result["warmup_s"], generation_s, result))
    if not result["op_s"]:
        print(f"error: no op succeeded: {result['problems']}", file=sys.stderr)
        return 1
    probe_end = host_speed()
    shutil.rmtree(work / "inputs")
    shutil.rmtree(work / "out")

    attempted, failed = result["attempted"], result["failed"]
    setup_s = statistics.median(total for total, _, _ in setups)
    untraced = result["op_s"]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {attempted} ops, {failed} failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for total, generation_s, step in setups:
        print(
            f"  set-up {total:.4f} s: inputs {generation_s:.4f} s, "
            f"import {step['import_s']:.4f} s, warm-up {step['warmup_s']:.4f} s"
        )
    print(f"  host probe (diagnostic): {probe_start:.4f} s at start, {probe_end:.4f} s at end")
    print(f"  failed_ratio {failed / attempted} ratio")
    if args.trace:
        metrics = {name: (value, per_layer_unit(name)) for name, value in result["per_layer"].items()}
        traced = result["traced_op_s"]
        if traced:
            overhead = statistics.median(traced) - statistics.median(untraced)
            print(f"  tracing overhead: {overhead:.4f} s per op (traced minus untraced op_s_p50)")
        for layer, seconds in result["layer_self_s"].items():
            print(f"  layer {layer:9s} self {seconds:.4f} s per op")
    else:
        metrics = end_to_end(result, setup_s, workload.cells)
        _, percentile = tail(untraced)
        print(f"  op_s_tail is p{percentile:.1f} of {len(untraced)} op times, {TAIL_BEYOND} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    summary = {"setup_s": [total for total, _, _ in setups], "probe_s": [probe_start, probe_end], **result}
    (work / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    # A failed warm-up check leaves no reference, so every measured op fails too.
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
