"""bcbform pipeline benchmark: one workload per call, from the repository root.

    python3 perfbench/run.py --workload holonomic --seed 0 --seconds 10 --trace 0

Each workload runs in its own fresh child process (``worker.py``), so peak
memory and set-up time never leak between workloads.  Set-up is timed in
several more fresh processes and reported as the median.  The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run of the same inputs.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 4  # extra fresh processes that only set up
TIME_LIMIT_S = 175.0
# One BLAS thread: the timings must stay steady on a shared host, and the
# simulator's hot paths are Python loops that extra BLAS threads do not help.
BLAS_THREADS = 1


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    # Let Python cache byte code, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Run the worker; return its JSON result or raise with its diagnostics."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values above it, as (value, pct).

    Below 20 values that percentile would not exceed the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = result["ops"]
    times = [op["op_s"] for op in ops]
    sims = [op for op in ops if op["simulate_s"] is not None]
    failed = sum(bool(op["problems"]) for op in ops)
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_s.p50": f"n={len(times)} ops",
        "op_s.tail": f"p{pct:.4g} of n={len(times)} ops",
    }
    lines = [f"{name:<20} {value:<14.6g} {unit:<6} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    if sims:
        rate = sum(op["agent_steps"] for op in sims) / sum(op["simulate_s"] for op in sims)
        lines.append(f"{'agent_steps_per_s':<20} {rate:<14.6g} {'1/s':<6} "
                     f"over {len(sims)} simulate commands")
    lines.append(f"{'failed_frac':<20} {failed / len(ops):<14.6g} {'ratio':<6} "
                 f"{failed} of {len(ops)} ops")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    ops = result["ops"]
    trace = result["trace"]
    metrics = {name: tuple(v) for name, v in trace["metrics"].items()}
    overhead = sum(op["traced_op_s"] for op in ops) / sum(op["op_s"] for op in ops) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    lines = [f"{name:<26} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"per op over {len(ops)} traced ops; spans written to "
                 f".perfbench_out/{result['workload']}.spans.npz")
    lines += [f"absent (reads 0): {name}" for name in trace["absent"]]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bcbform" / "__init__.py").is_file():
        print(f"error: no bcbform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(min(BLAS_THREADS, nproc))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_child([*common, "--setup-only"], env, 60.0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        budget = TIME_LIMIT_S - (time.perf_counter() - start)
        result = run_child([*common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], env, budget)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["workload"] = args.workload
    setups.append(result["setup_s"])

    versions = " ".join(f"{k}={v}" for k, v in result["versions"].items())
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={result['rounds']} nproc={nproc} "
          f"blas_threads={env['OPENBLAS_NUM_THREADS']} {versions}")
    if args.trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(result, setups)
    for line in lines:
        print(line)
    problems = [(op["name"], p) for op in result["ops"] for p in op["problems"]]
    for name, problem in problems[:20]:
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    failed = sum(bool(op["problems"]) for op in result["ops"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
