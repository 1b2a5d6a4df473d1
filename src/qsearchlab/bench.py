"""Experiment harness: seeded trial runs, CSV/JSONL records, scaling fits.

Every experiment is a pure function of (size, rng, params), so records are
reproducible from the config alone and independent of worker scheduling.
The wall-time column is for performance watching only; determinism checks
must strip it.

`write_records` is the one record writer: `emit` and the CLI write through it.
Records stream from `iter_records` to `summarize`, which keeps per-size tallies.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, TextIO, Tuple, Union

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
    "write_records",
    "emit",
    "load_records",
    "summarize",
    "selftest",
]

CSV_HEADER = "experiment,size,trial,seed,queries,steps,success,ms"
_FIELDS = tuple(CSV_HEADER.split(","))  # the one record schema, in both formats
MAX_SIZE_COUNT = 10_000  # sizes one parse_sizes call may return
# trials in flight per worker: keeps each busy, and memory off the trial count
JOBS_WINDOW_PER_WORKER = 4
FORMATS = ("csv", "jsonl")


class UsageError(Exception):
    """Bad invocation: unknown experiment, malformed sizes, bad config."""


class FitError(ValueError):
    """Scaling fit asked for on unusable points."""


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise UsageError(f"format must be csv or jsonl, got {fmt!r}")


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


def _single_marked_oracle(size: int, rng: SeededRng, marked_count: int = 1) -> sim.BitOracle:
    if not 0 <= marked_count <= size:
        raise ParameterError(f"marked_count {marked_count} outside [0, {size}]")
    sim.check_state_size(size)  # before the bit table, the first size-long array
    targets = rng.generator.choice(size, size=marked_count, replace=False)
    bits = np.zeros(size, dtype=bool)  # a bool mask skips BitOracle's 0/1 check
    bits[targets] = True
    return sim.BitOracle(bits)


def _trial_grover(size, rng, params, certain):
    marked_count = params.get("marked_count", 1)
    oracle = _single_marked_oracle(size, rng, marked_count)
    find = grover.search_with_certainty if certain else grover.search
    index = find(oracle, grover.GroverParams(size=size, marked_count=marked_count), rng)
    steps = grover.optimal_query_count(size, marked_count)
    return float(oracle.query_count), steps, bool(oracle.peek_all()[index])


def _trial_grover_unknown(size, rng, params):
    marked_count = params.get("marked_count", 1)
    oracle = _single_marked_oracle(size, rng, marked_count)
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
    if size < 2:
        raise ParameterError(f"collision finding needs size >= 2, got {size}")
    values = _random_values(size, rng).astype(np.int64)
    a, b = rng.generator.choice(size, size=2, replace=False)
    values[int(b)] = values[int(a)]
    return values


def _trial_ed_hybrid(size, rng, params):
    values = _planted_collision_values(size, rng)
    oracle = sim.ValueOracle(values)
    run = applications.ed_base_run(oracle, rng)
    floor = params.get("single_run_floor", 0.5 / math.sqrt(size))
    amplified = amplify.predicted_repetitions(floor) * run.queries
    return float(amplified), run.queries, run.pair is not None


def _trial_ed_walk(size, rng, params):
    subset_size = params.get("subset_size", math.ceil(size ** (2.0 / 3.0)))
    values = _planted_collision_values(size, rng)
    oracle = sim.ValueOracle(values)
    result = walks.ed_walk(oracle, size, subset_size, rng)
    return float(result.queries), result.walk_steps, result.pair is not None


def _trial_sat_schoening(size, rng, params):
    walk_trials = params.get("walk_trials", 300)
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
    oracle = _single_marked_oracle(size, rng)
    budget = params.get(
        "step_budget", max(1, math.ceil(2.0 * math.sqrt(size * max(1.0, math.log(size)))))
    )
    result = walks.grid_walk_search(grid, oracle, rng, budget)
    return float(oracle.query_count), result.steps, result.cell is not None


def _trial_classical_scan(size, rng, params):
    grid = _grid_for(size, 2)
    oracle = _single_marked_oracle(size, rng)
    result = walks.grid_classical_search(grid, oracle)
    return float(oracle.query_count), result.steps, result.cell is not None


def _trial_szegedy(size, rng, params, torus):
    side = _grid_for(size, 2).side if torus else 0  # a torus size is checked before the draw
    marked = {int(rng.generator.integers(0, size))}
    chain = walks.torus_chain(side, 2, marked) if torus else walks.cycle_chain(size, marked)
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
    # the keys the runner reads from its params mapping, each with its type
    params: Mapping[str, type] = field(default_factory=dict)


EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            "grover-scaling",
            "known-count search: queries grow as size^0.5 with success near 1",
            0.5,
            (64, 128, 256, 512, 1024),
            functools.partial(_trial_grover, certain=False),
            params={"marked_count": int},
        ),
        Experiment(
            "grover-certain",
            "phase-tuned final round: same size^0.5 queries, success exactly 1",
            0.5,
            (64, 128, 256, 512, 1024),
            functools.partial(_trial_grover, certain=True),
            params={"marked_count": int},
        ),
        Experiment(
            "grover-unknown",
            "unknown-count search: expected queries still size^0.5 with the "
            "growing randomized schedule",
            0.5,
            (64, 128, 256, 512, 1024),
            _trial_grover_unknown,
            params={"marked_count": int},
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
            "hypercube local minimum as its records price it: minimum finding "
            "over round(2^(2n/3) n^(1/3)) sampled values, then the closing "
            "neighbourhood search and check (mean descent 1.00-1.25 steps); "
            "queries grow as size^(1/3) (sizes are 2^n)",
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
            params={"single_run_floor": float},
        ),
        Experiment(
            "ed-walk",
            "collision finding by subset-chain walk: queries track size^(2/3) "
            "at scale; toy sizes only witness quantum steps below classical hitting",
            None,
            (6, 8, 10, 12),
            _trial_ed_walk,
            params={"subset_size": int},
        ),
        Experiment(
            "sat-schoening",
            "bounded repair walks on planted 3-CNF: amplified repetitions grow "
            "as the square root of classical restarts (sizes are variable counts)",
            None,
            (8, 10, 12),
            _trial_sat_schoening,
            params={"walk_trials": int},
        ),
        Experiment(
            "walk-grid-2d",
            "coined walk search on a 2-d torus: steps to a marked cell fit an "
            "exponent near 0.5-0.65 (log factor) versus a linear scan",
            0.6,
            (64, 256, 1024),
            functools.partial(_trial_walk_grid, dimensions=2),
            params={"step_budget": int},
        ),
        Experiment(
            "walk-grid-3d",
            "coined walk search on a 3-d torus: steps fit an exponent near 0.5",
            0.55,
            (64, 216, 512),
            functools.partial(_trial_walk_grid, dimensions=3),
            params={"step_budget": int},
        ),
        Experiment(
            "walk-szegedy-cycle",
            "quantized cycle chain: short stationary-restart shots beat the "
            "classical hitting mean by a constant factor, but degree-2 chains "
            "do not concentrate on marked states, so steps still grow as size^2",
            2.0,
            (16, 24, 32, 48, 64),
            functools.partial(_trial_szegedy, torus=False),
        ),
        Experiment(
            "walk-szegedy-torus",
            "quantized 2-d torus chain: steps to a marked state fit an exponent "
            "near 0.7, roughly half the classical hitting exponent "
            "(sizes are side^2)",
            0.7,
            (16, 36, 64, 100),
            functools.partial(_trial_szegedy, torus=True),
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
        if self.sizes[0] < 1:
            raise UsageError(f"sizes must be >= 1, got {self.sizes[0]}")
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        limit = os.cpu_count() or 1  # more workers than cores only oversubscribes the machine
        if not 1 <= self.jobs <= limit:
            raise UsageError(f"jobs must be in [1, {limit}] (the cpu count), got {self.jobs}")
        _check_format(self.format)
        known = EXPERIMENTS[self.experiment].params
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise UsageError(f"{self.experiment} reads no parameter {unknown}; "
                             f"valid parameters: {', '.join(known) or 'none'}")
        params = {}  # the one check of the runner params: the runners read them as given
        for key, value in self.params.items():
            kind = known[key]
            if not math.isfinite(value) or (kind is int and not float(value).is_integer()):
                raise UsageError(f"parameter {key!r} must be a finite {kind.__name__}, "
                                 f"got {value!r}")
            params[key] = kind(value)
        object.__setattr__(self, "params", params)


def parse_sizes(text: str) -> Tuple[int, ...]:
    """Comma-separated sizes; a..b:step spans an inclusive arithmetic range.

    A range is counted before it is expanded: past MAX_SIZE_COUNT it is refused.
    """
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
            else:
                low = high = int(token)
                step = 1
        except ValueError:
            raise UsageError(
                f"bad size token {token!r}; use N or a..b:step"
            ) from None
        if len(sizes) + (high - low) // step + 1 > MAX_SIZE_COUNT:
            raise UsageError(f"more than {MAX_SIZE_COUNT} sizes requested, at {token!r}")
        sizes.update(range(low, high + 1, step))
    if not sizes:
        raise UsageError("no sizes given")
    return tuple(sorted(sizes))


def load_config(path: Union[str, Path, None] = None, overrides: Optional[Mapping[str, object]] = None) -> ExperimentConfig:
    """Read key=value lines ('#' comments) from path, if any, then overrides; other keys are runner params."""
    merged: dict[str, object] = {}
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        merged[key.strip()] = value.strip()
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
        raise UsageError("name an experiment; valid names: " + ", ".join(experiment_names()))
    return ExperimentConfig(params=params, **kwargs)


def _trial_worker(payload):
    name, size_index, size, trial, master_seed, param_items = payload
    rng = SeededRng(master_seed, size_index).split(trial)
    # the seed column is the first word of the trial generator's own seed sequence
    seed_value = int(rng.generator.bit_generator.seed_seq.generate_state(1)[0])
    started = time.perf_counter()
    queries, steps, success = EXPERIMENTS[name].runner(size, rng, dict(param_items))
    ms = round((time.perf_counter() - started) * 1000.0, 3)
    return (name, size, trial, seed_value, float(queries), int(steps), bool(success), ms)


def iter_records(config: ExperimentConfig) -> Iterator[ExperimentRecord]:
    """Yield records in (size, trial) order; order is scheduling-independent.

    Payloads are built as they are due. With config.jobs > 1 at most
    JOBS_WINDOW_PER_WORKER trials per worker are in flight at a time.
    """
    param_items = tuple(sorted(config.params.items()))
    payloads = (
        (config.experiment, size_index, size, trial, config.seed, param_items)
        for size_index, size in enumerate(config.sizes)
        for trial in range(config.trials)
    )
    if config.jobs == 1:
        for row in map(_trial_worker, payloads):
            yield ExperimentRecord(*row)
        return
    # imported here so that a one-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    window = JOBS_WINDOW_PER_WORKER * config.jobs
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        pending = collections.deque()
        for payload in payloads:
            pending.append(pool.submit(_trial_worker, payload))
            if len(pending) == window:
                yield ExperimentRecord(*pending.popleft().result())
        while pending:
            yield ExperimentRecord(*pending.popleft().result())


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    return list(iter_records(config))


# ---------------------------------------------------------------------------
# Record serialization.


def _number(value: float):
    """A float as an int when it is integral: 6.0 is written 6, and 2.5 as 2.5."""
    f = float(value)
    return int(f) if f.is_integer() else f


def record_line(record: ExperimentRecord, fmt: str) -> str:
    """One record, field by field in CSV_HEADER order: CSV cells or one JSON object.

    A CSV cell is the JSON text of its value, except the bare experiment
    name; CSV writes both floats through `_number`, JSONL only `queries`.
    """
    row = {name: getattr(record, name) for name in _FIELDS}
    row["queries"] = _number(record.queries)
    if fmt == "jsonl":
        return json.dumps(row, separators=(",", ":"))
    if fmt == "csv":
        row["ms"] = _number(record.ms)
        return ",".join(value if isinstance(value, str) else json.dumps(value)
                        for value in row.values())
    raise UsageError(f"format must be csv or jsonl, got {fmt!r}")


def write_records(
    records: Iterable[ExperimentRecord], fmt: str, handle: TextIO
) -> Iterator[ExperimentRecord]:
    """Write each record as a flushed line and yield it on; CSV gets the fixed header.

    Nothing is written until the result is iterated.
    """
    _check_format(fmt)
    if fmt == "csv":
        handle.write(CSV_HEADER + "\n")
    for record in records:
        handle.write(record_line(record, fmt) + "\n")
        handle.flush()
        yield record


def emit(records: Iterable[ExperimentRecord], fmt: str, path: Union[str, Path]) -> None:
    """Write records to path; CSV gets the fixed header, both end in newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for _ in write_records(records, fmt, handle):
            pass


def _read_success(value) -> bool:
    if type(value) is not bool:
        raise ParameterError(f"success must be true or false, got {value!r}")
    return value


# The reader of each field's value in either format, in CSV_HEADER order.
_READERS = (str, int, int, int, float, int, _read_success, float)


def load_records(path: Union[str, Path], fmt: Optional[str] = None) -> list[ExperimentRecord]:
    """Read records as `record_line` writes them; a line of the wrong shape raises."""
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        if not lines or lines[0] != CSV_HEADER:
            raise ParameterError(f"{path} does not start with the record header")
        rows = ([cell if read is str else json.loads(cell)
                 for read, cell in zip(_READERS, line.split(","), strict=True)]
                for line in lines[1:])
    else:
        rows = ([row[name] for name in _FIELDS] for row in map(json.loads, lines))
    return [ExperimentRecord(*(read(value) for read, value in zip(_READERS, row)))
            for row in rows]


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


def _tally(keyed: Iterable[Tuple[object, ExperimentRecord]]) -> dict:
    """One pass over (key, record) pairs: key -> [trials, successes, summed queries]."""
    tallies: dict = {}
    for key, record in keyed:
        tally = tallies.setdefault(key, [0, 0, 0.0])
        tally[0] += 1
        tally[1] += record.success
        tally[2] += record.queries
    return tallies


def mean_cost_points(records: Iterable[ExperimentRecord]) -> list[Tuple[int, float]]:
    """Per-size mean queries, sorted by size, read in one pass."""
    tallies = _tally((record.size, record) for record in records)
    return [(size, total / trials) for size, (trials, _, total) in sorted(tallies.items())]


def summarize(records: Iterable[ExperimentRecord]) -> str:
    """Per-experiment block: the targeted claim next to the fitted exponent, in one pass."""
    tallies = _tally(((record.experiment, record.size), record) for record in records)
    lines = []
    for name in sorted({name for name, _ in tallies}):
        spec = EXPERIMENTS.get(name)
        lines.append(f"experiment {name}")
        if spec is not None:
            expected = (
                f" (expected exponent {spec.expected_exponent:.3g})"
                if spec.expected_exponent is not None
                else ""
            )
            lines.append(f"  claim: {spec.claim}{expected}")
        points = []
        for (_, size), (trials, hits, total) in sorted(
            item for item in tallies.items() if item[0][0] == name
        ):
            points.append((size, total / trials))
            lines.append(
                f"  size {size}: mean queries {total / trials:.6g} over {trials} trials, "
                f"success {hits}/{trials}"
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
