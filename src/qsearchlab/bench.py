"""Experiment harness: seeded trial runs, CSV/JSON-lines records, scaling fits.

Every experiment is a pure function of (size, rng, params), so records are
reproducible from the config alone and independent of worker scheduling.
The wall-time column is for performance watching only; determinism checks
must strip it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import amplify, applications, grover, minima, sim, walks
from .sim import ParameterError, SeededRng

__all__ = [
    "UsageError",
    "FitError",
    "ExperimentConfig",
    "ExperimentRecord",
    "ScalingFit",
    "Experiment",
    "EXPERIMENTS",
    "experiment_names",
    "parse_sizes",
    "load_config",
    "iter_records",
    "run_experiment",
    "fit_exponent",
    "mean_cost_points",
    "emit",
    "load_records",
    "summarize",
    "selftest",
]

CSV_HEADER = "experiment,size,trial,seed,queries,steps,success,ms"
_FORMATS = {"csv": "csv", "jsonl": "jsonl", "json-lines": "jsonl"}


class UsageError(Exception):
    """Bad invocation: unknown experiment, malformed sizes, bad config."""


class FitError(ValueError):
    """Scaling fit asked for on unusable points."""


def _normalize_format(fmt: str) -> str:
    normalized = _FORMATS.get(fmt)
    if normalized is None:
        raise UsageError(f"format must be csv or jsonl, got {fmt!r}")
    return normalized


def _check_jobs(jobs: int) -> None:
    # more workers than cores only oversubscribes the machine
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise UsageError(f"jobs must be in [1, {limit}] (the cpu count), got {jobs}")


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    size: int
    trial: int
    seed: int
    queries: float
    steps: int
    success: bool
    ms: float

    def without_ms(self) -> Tuple:
        return (self.experiment, self.size, self.trial, self.seed,
                self.queries, self.steps, self.success)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    residual_rms: float
    size_range: Tuple[float, float]


# ---------------------------------------------------------------------------
# Trial runners.  Each maps (size, rng, params) -> (queries, steps, success).


def _random_values(size: int, rng: SeededRng) -> np.ndarray:
    sim.check_state_size(size)  # before the permutation, the first size-long array
    return rng.generator.permutation(size)


def _single_marked_oracle(size: int, rng: SeededRng, marked_count: int = 1):
    sim.check_state_size(size)  # before the bit table, the first size-long array
    targets = rng.generator.choice(size, size=marked_count, replace=False)
    bits = np.zeros(size, dtype=np.uint8)
    bits[targets] = 1
    return bits, sim.BitOracle(bits)


def _trial_grover_scaling(size, rng, params):
    marked_count = int(params.get("marked_count", 1))
    bits, oracle = _single_marked_oracle(size, rng, marked_count)
    index = grover.search(oracle, grover.GroverParams(size=size, marked_count=marked_count), rng)
    steps = grover.optimal_query_count(size, marked_count)
    return float(oracle.query_count), steps, bool(bits[index])


def _trial_grover_certain(size, rng, params):
    marked_count = int(params.get("marked_count", 1))
    bits, oracle = _single_marked_oracle(size, rng, marked_count)
    index = grover.search_with_certainty(
        oracle, grover.GroverParams(size=size, marked_count=marked_count), rng
    )
    return float(oracle.query_count), grover.optimal_query_count(size, marked_count), bool(bits[index])


def _trial_grover_unknown(size, rng, params):
    marked_count = int(params.get("marked_count", 1))
    bits, oracle = _single_marked_oracle(size, rng, marked_count)
    hit = grover.search_unknown_count(oracle, size, rng)
    return float(oracle.query_count), int(oracle.query_count), hit is not None


def _trial_amplify_uniform(size, rng, params):
    target = int(rng.generator.integers(0, size))
    prep = amplify.uniform_preparation(size)
    result = amplify.amplitude_amplify(
        prep, amplify.AmplifyParams(success_floor=1.0 / size, good=[target]), rng
    )
    return float(result.queries), result.rounds, result.good


def _trial_min_scaling(size, rng, params):
    values = _random_values(size, rng)
    oracle = sim.ValueOracle(values)
    result = minima.find_minimum(oracle, size, rng)
    return float(result.queries), int(result.verified), result.index == int(np.argmin(values))


def _trial_local_min(size, rng, params):
    bit_count = size.bit_length() - 1
    if 1 << bit_count != size:
        raise ParameterError(f"local-min sizes must be powers of two, got {size}")
    values = _random_values(size, rng)
    oracle = minima.HypercubeOracle(bit_count, values)
    result = minima.find_local_minimum(oracle, rng)
    return float(result.queries), result.descent_steps, result.success


def _planted_collision_values(size: int, rng: SeededRng) -> np.ndarray:
    # Distinct values except one planted duplicated pair.
    values = _random_values(size, rng).astype(np.int64)
    a, b = rng.generator.choice(size, size=2, replace=False)
    values[int(b)] = values[int(a)]
    return values


def _trial_ed_hybrid(size, rng, params):
    values = _planted_collision_values(size, rng)
    oracle = sim.ValueOracle(values)
    run = applications.ed_base_run(oracle, rng)
    floor = float(params.get("single_run_floor", 0.5 / math.sqrt(size)))
    amplified = amplify.predicted_repetitions(floor) * run.queries
    return float(amplified), run.queries, run.pair is not None


def _trial_ed_walk(size, rng, params):
    subset_size = int(params.get("subset_size", math.ceil(size ** (2.0 / 3.0))))
    values = _planted_collision_values(size, rng)
    oracle = sim.ValueOracle(values)
    result = walks.ed_walk(oracle, size, subset_size, rng)
    return float(result.queries), result.walk_steps, result.pair is not None


def _trial_sat_schoening(size, rng, params):
    walk_trials = int(params.get("walk_trials", 300))
    formula, _ = applications.random_planted_formula(size, rng)
    report = applications.quantum_speedup_report(formula, rng.split(1), walk_trials)
    queries = float(report.quantum_repetitions or 0)
    steps = int(report.classical_restarts or 0)
    return queries, steps, report.conclusive


@functools.lru_cache(maxsize=32)
def _grid_for(size: int, dimensions: int) -> walks.TorusGrid:
    """The one grid of each volume, shared by its trials; its index arrays are read-only."""
    side = round(size ** (1.0 / dimensions))
    if side**dimensions != size:
        raise ParameterError(
            f"size {size} is not a {dimensions}-dimensional grid volume"
        )
    return walks.TorusGrid(side, dimensions)


def _trial_walk_grid(size, rng, params, dimensions):
    grid = _grid_for(size, dimensions)
    bits, oracle = _single_marked_oracle(size, rng)
    budget = int(params.get("step_budget", 0)) or max(
        1, math.ceil(2.0 * math.sqrt(size * max(1.0, math.log(size))))
    )
    result = walks.grid_walk_search(grid, oracle, rng, budget)
    return float(oracle.query_count), result.steps, result.cell is not None


def _trial_walk_grid_2d(size, rng, params):
    return _trial_walk_grid(size, rng, params, 2)


def _trial_walk_grid_3d(size, rng, params):
    return _trial_walk_grid(size, rng, params, 3)


def _trial_classical_scan(size, rng, params):
    grid = _grid_for(size, 2)
    bits, oracle = _single_marked_oracle(size, rng)
    result = walks.grid_classical_search(grid, oracle)
    return float(oracle.query_count), result.steps, result.cell is not None


def _trial_szegedy_cycle(size, rng, params):
    marked = {int(rng.generator.integers(0, size))}
    chain = walks.cycle_chain(size, marked)
    result = walks.szegedy_find_marked(chain, walks.WalkCosts(), rng)
    return float(result.walk_steps), result.walk_steps, result.state is not None


def _trial_szegedy_torus(size, rng, params):
    side = math.isqrt(size)
    if side * side != size or side < 2:
        raise ParameterError("torus sizes must be perfect squares of sides >= 2")
    marked = {int(rng.generator.integers(0, size))}
    chain = walks.torus_chain(side, 2, marked)
    result = walks.szegedy_find_marked(chain, walks.WalkCosts(), rng)
    return float(result.walk_steps), result.walk_steps, result.state is not None


def _trial_hitting_cycle(size, rng, params):
    marked = {int(rng.generator.integers(0, size))}
    chain = walks.cycle_chain(size, marked)
    steps = walks.classical_hitting(chain, rng, trials=1)
    return float(steps), int(steps), True


@dataclass(frozen=True)
class Experiment:
    """A registered trial runner plus the claim its scaling should match."""

    name: str
    claim: str
    expected_exponent: Optional[float]
    default_sizes: Tuple[int, ...]
    runner: Callable[[int, SeededRng, Mapping[str, float]], Tuple[float, int, bool]]


EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            "grover-scaling",
            "known-count search: queries grow as size^0.5 with success near 1",
            0.5,
            (64, 128, 256, 512, 1024),
            _trial_grover_scaling,
        ),
        Experiment(
            "grover-certain",
            "phase-tuned final round: same size^0.5 queries, success exactly 1",
            0.5,
            (64, 128, 256, 512, 1024),
            _trial_grover_certain,
        ),
        Experiment(
            "grover-unknown",
            "unknown-count search: expected queries still size^0.5 with the "
            "growing randomized schedule",
            0.5,
            (64, 128, 256, 512, 1024),
            _trial_grover_unknown,
        ),
        Experiment(
            "amplify-uniform",
            "amplitude amplification of a uniform preparation reproduces "
            "size^0.5 search cost",
            0.5,
            (64, 128, 256, 512, 1024),
            _trial_amplify_uniform,
        ),
        Experiment(
            "min-scaling",
            "minimum finding by threshold search: queries grow as size^0.5",
            0.5,
            (64, 256, 1024, 4096, 16384),
            _trial_min_scaling,
        ),
        Experiment(
            "local-min",
            "hypercube local-minimum search: queries grow as size^(1/3) "
            "(sizes are 2^bits)",
            1.0 / 3.0,
            (64, 256, 1024, 4096, 16384),
            _trial_local_min,
        ),
        Experiment(
            "ed-hybrid",
            "collision finding, sample-then-search with amplified repetition "
            "calculus: modeled queries grow as size^0.75",
            0.75,
            (16, 64, 256, 1024),
            _trial_ed_hybrid,
        ),
        Experiment(
            "ed-walk",
            "collision finding by subset-chain walk: queries track size^(2/3) "
            "at scale; toy sizes only witness quantum steps below classical hitting",
            None,
            (6, 8, 10, 12),
            _trial_ed_walk,
        ),
        Experiment(
            "sat-schoening",
            "bounded repair walks on planted 3-CNF: amplified repetitions grow "
            "as the square root of classical restarts (sizes are variable counts)",
            None,
            (8, 10, 12),
            _trial_sat_schoening,
        ),
        Experiment(
            "walk-grid-2d",
            "coined walk search on a 2-d torus: steps to a marked cell fit an "
            "exponent near 0.5-0.65 (log factor) versus a linear scan",
            0.6,
            (64, 256, 1024),
            _trial_walk_grid_2d,
        ),
        Experiment(
            "walk-grid-3d",
            "coined walk search on a 3-d torus: steps fit an exponent near 0.5",
            0.55,
            (64, 216, 512),
            _trial_walk_grid_3d,
        ),
        Experiment(
            "walk-szegedy-cycle",
            "quantized cycle chain: short stationary-restart shots beat the "
            "classical hitting mean by a constant factor, but degree-2 chains "
            "do not concentrate on marked states, so steps still grow as size^2",
            2.0,
            (16, 24, 32, 48, 64),
            _trial_szegedy_cycle,
        ),
        Experiment(
            "walk-szegedy-torus",
            "quantized 2-d torus chain: steps to a marked state fit an exponent "
            "near 0.7, roughly half the classical hitting exponent "
            "(sizes are side^2)",
            0.7,
            (16, 36, 64, 100),
            _trial_szegedy_torus,
        ),
        Experiment(
            "classical-scan",
            "deterministic snake scan baseline: mean queries grow linearly",
            1.0,
            (64, 256, 1024),
            _trial_classical_scan,
        ),
        Experiment(
            "classical-hitting-cycle",
            "classical cycle walk baseline: hitting steps grow as size^2",
            2.0,
            (16, 24, 32, 48, 64),
            _trial_hitting_cycle,
        ),
    )
}


def experiment_names() -> Tuple[str, ...]:
    return tuple(EXPERIMENTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: what to run, how big, how often, where to."""

    experiment: str
    sizes: Tuple[int, ...] = ()
    trials: int = 5
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"
    jobs: int = 1
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; valid names: "
                + ", ".join(experiment_names())
            )
        sizes = self.sizes or EXPERIMENTS[self.experiment].default_sizes
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise UsageError(f"sizes must be strictly increasing, got {list(self.sizes)}")
        if not self.sizes:
            raise UsageError("at least one size is required")
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        _check_jobs(self.jobs)
        object.__setattr__(self, "format", _normalize_format(self.format))


def parse_sizes(text: str) -> Tuple[int, ...]:
    """Comma-separated sizes; a..b:step spans an inclusive arithmetic range."""
    sizes: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ".." in token:
                span, _, step_text = token.partition(":")
                low_text, _, high_text = span.partition("..")
                low, high = int(low_text), int(high_text)
                step = int(step_text) if step_text else 1
                if step < 1 or high < low:
                    raise ValueError
                sizes.update(range(low, high + 1, step))
            else:
                sizes.add(int(token))
        except ValueError:
            raise UsageError(
                f"bad size token {token!r}; use N or a..b:step"
            ) from None
    if not sizes:
        raise UsageError("no sizes given")
    return tuple(sorted(sizes))


def load_config(path: Union[str, Path], overrides: Optional[Mapping[str, object]] = None) -> ExperimentConfig:
    """Read key=value lines ('#' comments); unknown keys become runner params."""
    text = Path(path).read_text(encoding="utf-8")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        raw[key.strip()] = value.strip()
    merged: dict[str, object] = dict(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    params: dict[str, float] = {}
    kwargs: dict[str, object] = {}
    for key, value in merged.items():
        if key == "sizes":
            kwargs["sizes"] = parse_sizes(value) if isinstance(value, str) else tuple(value)
        elif key in ("trials", "seed", "jobs"):
            try:
                kwargs[key] = int(value)
            except (TypeError, ValueError):
                raise UsageError(f"{key} must be an integer, got {value!r}") from None
        elif key in ("experiment", "out", "format"):
            kwargs[key] = str(value)
        else:
            try:
                params[key] = float(value)
            except (TypeError, ValueError):
                raise UsageError(f"parameter {key!r} must be numeric, got {value!r}") from None
    if "experiment" not in kwargs:
        raise UsageError("config must name an experiment")
    return ExperimentConfig(params=params, **kwargs)


def _trial_worker(payload):
    name, size_index, size, trial, master_seed, param_items = payload
    spec = EXPERIMENTS[name]
    rng = SeededRng(master_seed, size_index).split(trial)
    started = time.perf_counter()
    queries, steps, success = spec.runner(size, rng, dict(param_items))
    ms = round((time.perf_counter() - started) * 1000.0, 3)
    seed_value = int(
        np.random.SeedSequence(master_seed, spawn_key=(size_index, trial)).generate_state(1)[0]
    )
    return (name, size, trial, seed_value, float(queries), int(steps), bool(success), ms)


def iter_records(config: ExperimentConfig, jobs: Optional[int] = None) -> Iterator[ExperimentRecord]:
    """Yield records in (size, trial) order; order is scheduling-independent.

    A `jobs` override is held to the config's limits: 1 up to the cpu count.
    """
    jobs = config.jobs if jobs is None else jobs
    _check_jobs(jobs)
    param_items = tuple(sorted(config.params.items()))
    payloads = [
        (config.experiment, size_index, size, trial, config.seed, param_items)
        for size_index, size in enumerate(config.sizes)
        for trial in range(config.trials)
    ]
    if jobs == 1:
        results = map(_trial_worker, payloads)
    else:
        # imported here so that a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
        results = pool.map(_trial_worker, payloads)
    try:
        for row in results:
            yield ExperimentRecord(*row)
    finally:
        if jobs > 1:
            pool.shutdown()


def run_experiment(config: ExperimentConfig, jobs: Optional[int] = None) -> list[ExperimentRecord]:
    return list(iter_records(config, jobs))


# ---------------------------------------------------------------------------
# Record serialization.


def _format_number(value: float) -> str:
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def record_line(record: ExperimentRecord, fmt: str) -> str:
    if fmt == "csv":
        return ",".join(
            (
                record.experiment,
                str(record.size),
                str(record.trial),
                str(record.seed),
                _format_number(record.queries),
                str(record.steps),
                "true" if record.success else "false",
                _format_number(record.ms),
            )
        )
    if fmt == "jsonl":
        queries = int(record.queries) if float(record.queries).is_integer() else record.queries
        payload = {
            "experiment": record.experiment,
            "size": record.size,
            "trial": record.trial,
            "seed": record.seed,
            "queries": queries,
            "steps": record.steps,
            "success": record.success,
            "ms": record.ms,
        }
        return json.dumps(payload, separators=(",", ":"))
    raise UsageError(f"format must be csv or jsonl, got {fmt!r}")


def emit(records: Iterable[ExperimentRecord], fmt: str, path: Union[str, Path]) -> None:
    """Write records to path; CSV gets the fixed header, both end in newline."""
    fmt = _normalize_format(fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if fmt == "csv":
            handle.write(CSV_HEADER + "\n")
        for record in records:
            handle.write(record_line(record, fmt) + "\n")


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ParameterError(f"success must be true or false, got {text!r}")


def load_records(path: Union[str, Path], fmt: Optional[str] = None) -> list[ExperimentRecord]:
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    records = []
    if fmt == "csv":
        if not lines or lines[0] != CSV_HEADER:
            raise ParameterError(f"{path} does not start with the record header")
        for line in lines[1:]:
            experiment, size, trial, seed, queries, steps, success, ms = line.split(",")
            records.append(
                ExperimentRecord(
                    experiment, int(size), int(trial), int(seed),
                    float(queries), int(steps), _parse_bool(success), float(ms),
                )
            )
    else:
        for line in lines:
            row = json.loads(line)
            records.append(
                ExperimentRecord(
                    row["experiment"], int(row["size"]), int(row["trial"]),
                    int(row["seed"]), float(row["queries"]), int(row["steps"]),
                    bool(row["success"]), float(row["ms"]),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Scaling fits and summaries.


def fit_exponent(points: Iterable[Tuple[float, float]]) -> ScalingFit:
    """Least-squares slope of log10(cost) against log10(size)."""
    pts = [(float(size), float(cost)) for size, cost in points]
    if len(pts) < 3:
        raise FitError(f"need at least 3 points, got {len(pts)}")
    if any(size <= 0 or cost <= 0 for size, cost in pts):
        raise FitError("sizes and costs must all be positive")
    xs = np.log10([size for size, _ in pts])
    ys = np.log10([cost for _, cost in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        size_range=(min(s for s, _ in pts), max(s for s, _ in pts)),
    )


def mean_cost_points(records: Sequence[ExperimentRecord]) -> list[Tuple[int, float]]:
    """Per-size mean queries, sorted by size."""
    by_size: dict[int, list[float]] = {}
    for record in records:
        by_size.setdefault(record.size, []).append(record.queries)
    return [(size, float(np.mean(by_size[size]))) for size in sorted(by_size)]


def summarize(records: Sequence[ExperimentRecord]) -> str:
    """Per-experiment block: the targeted claim next to the fitted exponent."""
    lines = []
    names = sorted({r.experiment for r in records})
    for name in names:
        spec = EXPERIMENTS.get(name)
        subset = [r for r in records if r.experiment == name]
        lines.append(f"experiment {name}")
        if spec is not None:
            expected = (
                f" (expected exponent {spec.expected_exponent:.3g})"
                if spec.expected_exponent is not None
                else ""
            )
            lines.append(f"  claim: {spec.claim}{expected}")
        points = mean_cost_points(subset)
        trials = {r.size: 0 for r in subset}
        hits = {r.size: 0 for r in subset}
        for r in subset:
            trials[r.size] += 1
            hits[r.size] += int(r.success)
        for size, mean_cost in points:
            lines.append(
                f"  size {size}: mean queries {mean_cost:.6g} over {trials[size]} trials, "
                f"success {hits[size]}/{trials[size]}"
            )
        if len(points) >= 3 and all(cost > 0 for _, cost in points):
            fit = fit_exponent(points)
            lines.append(
                f"  fitted exponent {fit.slope:.4f} "
                f"(intercept {fit.intercept:.3f}, residual rms {fit.residual_rms:.4f}) "
                f"over sizes {int(fit.size_range[0])}..{int(fit.size_range[1])}"
            )
        else:
            lines.append("  fitted exponent: n/a (need 3 positive size means)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Selftest: the quick deterministic battery behind the CLI's selftest mode.


def _selftest_checks(tmp_dir: Path) -> Iterator[Tuple[str, bool, str]]:
    fit = fit_exponent([(n, n**0.5) for n in (16, 64, 256, 1024)])
    yield (
        "fit exact sqrt",
        abs(fit.slope - 0.5) < 1e-9 and fit.residual_rms < 1e-9,
        f"slope {fit.slope:.12f}",
    )
    fit = fit_exponent([(n, 3.0 * n**0.75) for n in (16, 64, 256, 1024)])
    yield ("fit exact 3*x^0.75", abs(fit.slope - 0.75) < 1e-9, f"slope {fit.slope:.12f}")
    sizes = np.arange(64, 16385)
    fit = fit_exponent(zip(sizes.tolist(), (np.sqrt(sizes) * np.log2(sizes)).tolist()))
    yield (
        "fit log-inflated sqrt",
        0.5 <= fit.slope <= 0.65,
        f"slope {fit.slope:.4f} expected within [0.5, 0.65]",
    )

    empty_path = tmp_dir / "empty.csv"
    emit([], "csv", empty_path)
    content = empty_path.read_text(encoding="utf-8")
    yield ("emit empty csv", content == CSV_HEADER + "\n", repr(content))

    config = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16), trials=2, seed=7)
    records = run_experiment(config)
    again = run_experiment(config)
    same = [r.without_ms() for r in records] == [r.without_ms() for r in again]
    yield (
        "grover-scaling determinism",
        len(records) == 4 and same,
        f"{len(records)} records, rerun match {same}",
    )

    round_trip = tmp_dir / "one.csv"
    emit(records[:1], "csv", round_trip)
    loaded = load_records(round_trip)
    yield (
        "csv round-trip",
        len(loaded) == 1 and loaded[0] == records[0],
        f"{loaded[0]!r}",
    )
    bulk = tmp_dir / "bulk.jsonl"
    bulk_records = records * 250
    emit(bulk_records, "jsonl", bulk)
    line_count = len(bulk.read_text(encoding="utf-8").splitlines())
    yield ("jsonl line count", line_count == len(bulk_records), f"{line_count} lines")

    config = ExperimentConfig(
        experiment="min-scaling", sizes=(64, 256, 1024, 4096, 16384), trials=3, seed=11
    )
    points = mean_cost_points(run_experiment(config))
    costs = [cost for _, cost in points]
    monotone = all(b > a for a, b in zip(costs, costs[1:]))
    yield ("min-scaling monotone mean queries", monotone, f"means {costs}")

    model_fit = fit_exponent(
        [(n, applications.ed_hybrid_query_model(n)) for n in (16, 64, 256, 1024)]
    )
    yield (
        "ed-hybrid model exponent",
        abs(model_fit.slope - 0.75) <= 0.1,
        f"slope {model_fit.slope:.4f} expected 0.75 +/- 0.1",
    )


def selftest(report: Optional[Callable[[str], None]] = print) -> bool:
    """Run the quick example battery; returns True when everything holds."""
    import tempfile

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, passed, detail in _selftest_checks(Path(tmp)):
            ok &= passed
            if report is not None:
                report(f"selftest {name}: {'ok' if passed else 'FAIL'} ({detail})")
    return ok
