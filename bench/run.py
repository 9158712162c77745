"""Benchmark command: runs workloads of the tracelogic toolkit and prints their metrics.

    python3 bench/run.py --workload compile --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # the four workloads in turn
    python3 bench/run.py --workload filter --seed 1 --trace 1

Run from the root of a checkout; the library is imported from `src/`.  Each
workload runs in fresh single-threaded interpreters (`workload.py`).  With
`--trace 0` the last line of standard output is one JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics of a traced run, and the lines before it report the
tracing overhead against an untraced run and the n/2n/4n scaling.  Every
run does a fixed amount of work; `--seconds` names the measuring time that
work is sized for (see README.md) and bounds nothing.

The exit code is 0 when the run completed, whether or not ops failed; it is
2 when the benchmark itself could not run (for example without `src/`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import median
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "filter", "evaluate", "metric")
IMPORT_SAMPLES = 5  # fresh interpreters that time `import tracelogic`; the median is reported
MIN_OPS_FOR_P90 = 100  # with fewer ops the 90th percentile has under ten ops beyond it
DEADLINE_S = 170.0  # per workload; a run must end within 180 s

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics.

    Compared with one interpolated order statistic it moves far less when an
    op's time lands just across a gap between families of ops.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 8  # Simpson's rule on each interval ((i-1)/n, i/n)
    total = weights = 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1.0 / (n * steps)
        s = density(lo) + density(lo + steps * h)
        s += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weight = s * h / 3
        total += weight * x
        weights += weight
    return total / weights


def child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run workload.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    # Fixed string hashing makes set iteration orders, and so the work done
    # and every count recorded, the same on every run.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload, "--seed", str(seed), *flags]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} process printed no result") from exc


def end_to_end(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    imports = [child(workload, seed, deadline, "--import-only")["import_s"] for _ in range(IMPORT_SAMPLES - 1)]
    main = child(workload, seed, deadline)
    imports.append(main["import_s"])
    op_s = main["op_s"]
    if len(op_s) < MIN_OPS_FOR_P90:
        raise BenchError(
            f"{workload} timed {len(op_s)} ops; op_ms_p90 needs at least {MIN_OPS_FOR_P90} "
            "so that ten of them lie beyond it"
        )
    metrics = {
        "setup_s": median(imports) + main["setup_work_s"],
        "ops_per_s": len(op_s) / sum(op_s),
        "op_ms_p50": 1000.0 * harrell_davis(op_s, 0.5),
        "op_ms_p90": 1000.0 * harrell_davis(op_s, 0.9),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main, metrics


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = child(workload, seed, deadline)
    main = child(workload, seed, deadline, "--trace")
    untraced_s = sum(plain["op_s"])
    traced_s = sum(main["op_s"])
    lines = [
        f"{workload}: tracing overhead x{traced_s / untraced_s:.2f} "
        f"(sum of op times {traced_s:.3f} s traced, {untraced_s:.3f} s untraced)",
        f"{workload}: spans written to {main['spans_file']}",
    ]
    for name, by_series in main["scaling"].items():
        cells = "  ".join(f"{s} {v:.2f}" for s, v in by_series.items())
        lines.append(f"{workload}: scaling of {name} per op: {cells}")
    return main, main["layers"], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not os.path.isdir(os.path.join(ROOT, "src", "tracelogic")):
        print(f"error: no src/tracelogic under {ROOT}", file=sys.stderr)
        return 2
    from tracer import layer_metrics

    per_layer_units = {name: unit for name, (_, unit) in layer_metrics({}, {}).items()}

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = monotonic() + DEADLINE_S
            if args.trace:
                result, values, lines = traced(name, args.seed, deadline)
                units = per_layer_units
            else:
                result, values = end_to_end(name, args.seed, deadline)
                lines = []
                units = UNITS
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            totals["correct"] = totals["correct"] and result["mismatched"] == 0
            print(
                f"{name}: seed {args.seed}, ops attempted {result['attempted']}, failed {result['failed']}; "
                f"{result['ops']} ops x {result['passes']} passes, fastest passes sum to "
                f"{sum(result['op_s']):.3f} s at reference speed ({sum(result['wall_op_s']):.3f} s wall)"
            )
            for problem in result["problems"]:
                print(f"{name}:   {problem}")
            for line in lines:
                print(line)
            for metric, value in values.items():
                print(f"{name}: {metric} {value:.6g} {units[metric]}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                totals["metrics"][key] = {"value": value, "unit": units[metric]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
