"""qsearchlab benchmark: interleaved registry trials, end to end or traced.

    python3 perfbench/run.py --workload grover-dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each workload runs in fresh worker processes with one BLAS thread (see
worker.py).  With --trace 0 the end-to-end metrics are printed; trial
timings are adjusted for the host's speed (worker.Calibration), and set-up
time is the median over SETUP_SAMPLES fresh processes, each timed from start
to its `ready` line.  With --trace 1 a fixed number of rounds runs once
untraced and once traced, and the per-layer metrics are printed.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# (name, unit) of the end-to-end metrics reported in the result line.
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
SETUP_SAMPLES = 5
# Every run must end within this many seconds.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to `ready`, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {code}")
    return ready_s, (json.loads(rest[-1]) if rest else None)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return _worker(base + ["--mode", "trace"], deadline)[1]
    setups = [_worker(base + ["--mode", "setup"], deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready_s, result = _worker(base + ["--mode", "run"], deadline)
    # Not adjusted for the host's slowdown: process start and imports do not
    # track the calibration task: on small-state, dividing by the full slowdown
    # widened the spread between seeds from 12% to 22%.
    result["metrics"]["setup_s"] = statistics.median(setups + [ready_s])
    return result


def _report(name: str, result: dict, units: dict[str, str]) -> None:
    print(f"[{name}] {result['attempted']} trials in {result['rounds']} rounds, "
          f"{result['failed']} failed")
    for metric, unit in units.items():
        print(f"[{name}] {metric:<48} {result['metrics'][metric]:>14.6g} {unit}")
    if "slowdown" in result:
        print(f"[{name}] host slowdown {result['slowdown']:.4g}; as measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["measured"].items()))
    for key, value in result.get("checks", {}).items():
        print(f"[{name}] check {key}: {value}")
    print(f"[{name}] env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsearchlab" / "__init__.py").is_file():
        print(f"error: no qsearchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace:
        import tracing

        units = {metric: unit for metric, unit, _ in tracing.per_layer_spec()}
    else:
        units = {**dict(END_TO_END), "failed_frac": "fraction"}
    deadline = time.monotonic() + DEADLINE_S * len(names)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            _report(name, result, units)
            total["correct"] &= bool(result["correct"])
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            # failed_frac is printed above; the result line carries it as failed/attempted
            for metric, unit in units.items():
                if metric != "failed_frac":
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    total["metrics"][key] = {"value": result["metrics"][metric], "unit": unit}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
