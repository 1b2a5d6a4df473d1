"""One workload in one fresh process: set up, run trials, print one JSON line.

Started by run.py.  Prints `ready` once set-up is done (the parent times
process start to that line), then, unless the mode is `setup`, a final JSON
line with the metrics, the check results and the environment record.

Modes:
  setup   set up and exit
  run     timed trials with tracing off (end-to-end metrics)
  trace   a fixed number of rounds, each run once untraced and once traced
  digest  write the default seed's record digest for the workload
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads: with two threads on two cores a
# min-scaling trial at N=16384 took 183 ms against 121 ms with one.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qsearchlab.bench import EXPERIMENTS  # noqa: E402
from qsearchlab.sim import SeededRng  # noqa: E402

# Warm-up inputs do not depend on the workload seed, so neither does set-up time.
WARMUP_SEED = 0
# Median of Calibration.run() between rounds on the host the bounds were set
# on: 2 vCPUs of a 2.0 GHz Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31.
CALIBRATION_MS = 1.2


class Calibration:
    """A fixed task that runs no qsearchlab code, timed once per round.

    The host's speed drifts by up to a factor of 1.6 over minutes, because
    other tenants share its cores.  This task slows down with the host, but no
    change to qsearchlab can speed it up, so timings divided by its slowdown
    compare across runs without biasing a comparison of two versions of the
    code.  It updates a 65536-amplitude complex vector in place.  Over 10 s
    windows on that host its speed tracked trial throughput with correlation
    0.82-0.91 on all three workloads, and dividing by it halved their spread.
    A version that allocated a new vector per update tracked the allocator's
    state instead (correlation 0.3 on grover-dense).
    """

    def __init__(self) -> None:
        self.vector = np.linspace(0.0, 1.0, 65536) + 0j
        self.samples_ms: list[float] = []

    def run(self) -> None:
        vector = self.vector
        start = time.perf_counter()
        for _ in range(5):
            vector *= 0.999
            vector += 0.001
            vector -= vector.mean()
        self.samples_ms.append((time.perf_counter() - start) * 1000.0)

    def slowdown(self) -> float:
        """Median task time over CALIBRATION_MS; above 1 on a slow host."""
        return statistics.median(self.samples_ms) / CALIBRATION_MS


def _direct(fn, *args):
    return fn(*args)


def run_trial(cell: wl.Cell, seed: int, trial: int, call=_direct):
    """One runner call; returns (record or None if it raised, wall ms)."""
    rng = SeededRng(seed, cell.size_index).split(trial)
    runner = EXPERIMENTS[cell.experiment].runner
    start = time.perf_counter()
    try:
        queries, steps, success = call(runner, cell.size, rng, {})
    except Exception:  # a raising trial is counted as failed, not fatal
        traceback.print_exc()
        record = None
    else:
        record = (cell.experiment, cell.size, trial, float(queries), int(steps), bool(success))
    return record, (time.perf_counter() - start) * 1000.0


def run_round(plan, seed: int, round_index: int, call=_direct):
    """Every cell once, in the round's seeded order; returns outcomes and ms."""
    outcomes, times = [], []
    for position in wl.round_order(len(plan), seed, round_index):
        cell = plan[position]
        record, ms = run_trial(cell, seed, round_index, call)
        outcomes.append((cell, round_index, record))
        times.append(ms)
    return outcomes, times


def warm_up(plan) -> None:
    """One untimed trial per experiment at its smallest size in the plan."""
    smallest: dict[str, int] = {}
    for cell in plan:
        smallest[cell.experiment] = min(cell.size, smallest.get(cell.experiment, cell.size))
    for index, (name, size) in enumerate(smallest.items()):
        EXPERIMENTS[name].runner(size, SeededRng(WARMUP_SEED, index), {})


def timed(plan, seed: int, seconds: float, digest) -> dict:
    """Rounds for `seconds`; timings are reported divided by the host's slowdown."""
    outcomes, times = [], []
    rounds = 0
    need = wl.min_rounds(len(plan))
    calibration = Calibration()
    start = time.perf_counter()
    while rounds < need or time.perf_counter() - start < seconds:
        got, ms = run_round(plan, seed, rounds)
        outcomes += got
        times += ms
        rounds += 1
        calibration.run()
    elapsed = time.perf_counter() - start - sum(calibration.samples_ms) / 1000.0
    failed = wl.count_failed(outcomes, digest)
    measured = {
        "trials_per_s": len(outcomes) / elapsed,
        "trial_ms_p50": statistics.median(times),
        "trial_ms_p90": wl.percentile(times, 0.9),
    }
    slowdown = calibration.slowdown()
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "rounds": rounds,
        "slowdown": slowdown,
        "measured": measured,
        "metrics": {
            "trials_per_s": measured["trials_per_s"] * slowdown,
            "trial_ms_p50": measured["trial_ms_p50"] / slowdown,
            "trial_ms_p90": measured["trial_ms_p90"] / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": failed / len(outcomes),
        },
    }


def traced(workload: wl.Workload, plan, seed: int, digest) -> dict:
    """Each round runs untraced and traced, alternating which goes first.

    Both passes of a round visit the cells in the same seeded order, so
    their outcome lists line up trial for trial.
    """
    tracer = tracing.Tracer()

    def traced_call(fn, *args):
        try:
            return tracer.call(tracing.TRIAL, fn, *args)
        finally:
            tracer.fold()

    plain, spanned = [], []
    plain_s = traced_s = 0.0
    for r in range(workload.trace_rounds):
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if with_trace:
                with tracing.installed(tracer):
                    got, _ = run_round(plan, seed, r, traced_call)
                traced_s += time.perf_counter() - start
                spanned += got
            else:
                got, _ = run_round(plan, seed, r)
                plain_s += time.perf_counter() - start
                plain += got
    mismatched = sum(a[2] != b[2] for a, b in zip(plain, spanned))
    failed = sum(a[2] != b[2] or wl.count_failed([b], digest) > 0
                 for a, b in zip(plain, spanned))
    charged = sum(record[3] for _, _, record in spanned if record is not None)
    metrics = tracing.layer_metrics(tracer, charged, traced_s, plain_s)
    silent = tracing.silent_boundaries(tracer, workload.must_fire)
    share = tracing.dominant_share(metrics, workload.dominant_layers)
    return {
        "attempted": len(spanned),
        "failed": failed,
        "rounds": workload.trace_rounds,
        "metrics": metrics,
        "checks": {
            "records_equal_untraced": mismatched == 0,
            "silent_boundaries": silent,
            "dominant_layers": list(workload.dominant_layers),
            "dominant_share": share,
            # reported, not enforced: a faster layer may rightly lose its majority
            "dominant_holds": share > 0.5,
        },
        "correct": mismatched == 0 and not silent,
    }


def write_digest(workload: wl.Workload, plan, rounds: int) -> None:
    """Record hashes of the default seed's first `rounds` rounds."""
    hashes = {cell.key: "" for cell in plan}
    for r in range(rounds):
        for cell, trial, record in run_round(plan, wl.DEFAULT_SEED, r)[0]:
            if record is None or not wl.invariant_holds(record):
                raise SystemExit(f"{cell.key} trial {trial} failed; refusing to digest it")
            hashes[cell.key] += wl.record_hash(record)
    path = wl.DIGEST_FILE
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.setdefault("seed", wl.DEFAULT_SEED)
    data.setdefault("workloads", {})[workload.name] = {"rounds": rounds, "hashes": hashes}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "seed": seed,
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "digest"))
    parser.add_argument("--rounds", type=int, default=0, help="digest mode: rounds to record")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("seed must be non-negative")

    workload = wl.WORKLOADS[args.workload]
    plan = wl.cells(workload, EXPERIMENTS)
    if args.mode == "digest":
        if args.rounds < 1:
            parser.error("digest mode needs --rounds >= 1")
        write_digest(workload, plan, args.rounds)
        return 0
    digest = wl.load_digest(workload.name, args.seed, [cell.key for cell in plan])
    warm_up(plan)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = timed(plan, args.seed, args.seconds, digest)
        result["correct"] = result["failed"] == 0
    else:
        result = traced(workload, plan, args.seed, digest)
        result["correct"] = result["correct"] and result["failed"] == 0
    result["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
