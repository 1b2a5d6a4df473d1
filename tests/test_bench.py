"""Benchmark harness tests: config parsing, record plumbing, fits, CLI."""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearchlab
from qsearchlab import applications, bench, grover, walks
from qsearchlab.bench import (
    CSV_HEADER,
    ExperimentConfig,
    FitError,
    UsageError,
    emit,
    experiment_names,
    fit_exponent,
    load_config,
    load_records,
    mean_cost_points,
    parse_sizes,
    run_experiment,
    summarize,
)
from qsearchlab.cli import main
from qsearchlab.sim import SeededRng, SizeCapError


# ----------------------------------------------------------------- parsing

def test_parse_sizes_forms():
    assert parse_sizes("4,16") == (4, 16)
    assert parse_sizes("2..10:2") == (2, 4, 6, 8, 10)
    assert parse_sizes("2..4") == (2, 3, 4)
    assert parse_sizes("64, 8..12:4, 8") == (8, 12, 64)  # dedupes and sorts
    for bad in ("", "x", "5..1", "2..8:0", "1..2:3:4"):
        with pytest.raises(UsageError):
            parse_sizes(bad)


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8)
)
def test_parse_sizes_roundtrips_explicit_lists(values):
    text = ",".join(str(v) for v in values)
    assert parse_sizes(text) == tuple(sorted(set(values)))


def test_config_validation():
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16))
    assert cfg.sizes == (4, 16)
    defaulted = ExperimentConfig(experiment="grover-scaling")
    assert defaulted.sizes == bench.EXPERIMENTS["grover-scaling"].default_sizes
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="grover-scaling", sizes=(16, 4))
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="grover-scaling", trials=0)
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="grover-scaling", format="xml")
    with pytest.raises(UsageError, match="grover-scaling"):
        ExperimentConfig(experiment="no-such-thing")


def test_experiment_registry_names():
    names = experiment_names()
    assert "grover-scaling" in names
    assert "walk-szegedy-torus" in names
    assert len(names) == len(set(names))


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# demo\n"
        "experiment = grover-scaling\n"
        "sizes = 4,16   # small\n"
        "trials = 3\n"
        "marked_count = 2\n"
    )
    cfg = load_config(path)
    assert cfg.experiment == "grover-scaling"
    assert cfg.sizes == (4, 16)
    assert cfg.trials == 3
    assert cfg.params == {"marked_count": 2.0}

    cfg2 = load_config(path, overrides={"trials": 7, "seed": None})
    assert cfg2.trials == 7
    assert cfg2.seed == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment grover-scaling\n")
    with pytest.raises(UsageError):
        load_config(bad)
    bad.write_text("experiment = grover-scaling\nmarked_count = two\n")
    with pytest.raises(UsageError):
        load_config(bad)
    bad.write_text("sizes = 4,16\n")
    with pytest.raises(UsageError):
        load_config(bad)
    # without a path the overrides alone make the config, as for a flag-only run
    cfg3 = load_config(None, {"experiment": "walk-grid-2d", "sizes": "64,256", "step_budget": 9})
    assert (cfg3.experiment, cfg3.sizes, cfg3.params) == ("walk-grid-2d", (64, 256), {"step_budget": 9.0})
    with pytest.raises(UsageError, match="valid names"):
        load_config(None, {"trials": 3})


def test_misspelled_runner_param_is_refused(tmp_path, capsys):
    with pytest.raises(UsageError, match="marked_count"):
        ExperimentConfig(experiment="grover-scaling", params={"marked_cont": 4.0})
    with pytest.raises(UsageError, match="none"):
        ExperimentConfig(experiment="classical-scan", params={"marked_count": 2.0})
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("experiment = grover-scaling\nsizes = 4,16\nmarked_cont = 4\n")
    assert main(["run", str(cfg), "--no-summary"]) == 2
    assert "valid parameters: marked_count" in capsys.readouterr().err


def test_each_runner_reads_exactly_its_listed_params():
    class Recording(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    for spec in bench.EXPERIMENTS.values():
        read = set()
        spec.runner(spec.default_sizes[0], SeededRng(0, 0).split(0), Recording())
        assert read == set(spec.params), spec.name


def test_size_range_over_the_cap_exits_2_before_expanding(capsys):
    with _peak_bytes() as peak:
        assert main(["run", "--experiment", "grover-scaling",
                     "--sizes", "1..1000000000000", "--no-summary"]) == 2
    assert peak[0] < 2**20
    assert f"more than {bench.MAX_SIZE_COUNT} sizes" in capsys.readouterr().err
    assert len(parse_sizes(f"1..{bench.MAX_SIZE_COUNT}")) == bench.MAX_SIZE_COUNT
    with pytest.raises(UsageError):
        parse_sizes(f"1..{bench.MAX_SIZE_COUNT},{bench.MAX_SIZE_COUNT + 1}")


# ------------------------------------------------------------------ running

def test_run_experiment_is_deterministic_modulo_timing():
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16), trials=2, seed=7)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert len(first) == 4
    assert [r.without_ms() for r in first] == [r.without_ms() for r in second]
    assert all(r.experiment == "grover-scaling" for r in first)
    assert [(r.size, r.trial) for r in first] == [(4, 0), (4, 1), (16, 0), (16, 1)]


def test_jobs_capped_at_cpu_count_without_starting_processes(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    # bench imports the pool class only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for bad in (0, -1, 3, 10**6):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="grover-scaling", jobs=bad)
    ExperimentConfig(experiment="grover-scaling", jobs=2)
    assert len(run_experiment(ExperimentConfig(experiment="grover-scaling", sizes=(4,), trials=1))) == 1
    monkeypatch.setattr(bench.os, "cpu_count", lambda: None)  # unknown: one worker
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="grover-scaling", jobs=2)


# sha256 of `qsearchlab run --experiment all --trials 3 --seed 0 --format jsonl`
# with the ms field dropped from every line.  Any change to it is a change of
# records and is explained in CHANGES.md.
GOLDEN_RECORDS_SHA256 = "da6a25bd99d2e7412af2dee348774ec360a2b6dd58ce7ff34b2d9a443f8596a6"


def test_golden_records():
    lines = []
    for name in experiment_names():
        config = ExperimentConfig(experiment=name, trials=3, seed=0, format="jsonl")
        for record in bench.iter_records(config):
            row = json.loads(bench.record_line(record, "jsonl"))
            del row["ms"]
            lines.append(json.dumps(row, separators=(",", ":")))
    assert len(lines) == 192
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == GOLDEN_RECORDS_SHA256


def _stripped_digest(lines) -> str:
    """sha256 of JSONL record lines with the ms field dropped, as the golden gate hashes them."""
    rows = []
    for line in lines:
        row = json.loads(line)
        del row["ms"]
        rows.append(json.dumps(row, separators=(",", ":")))
    return hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()


def test_golden_records_under_one_blas_thread():
    # the golden gate runs with the default thread count, the benchmark with one
    one_thread = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = _python_dash_m("run", "--experiment", "all", "--trials", "3", "--seed", "0",
                          "--format", "jsonl", "--no-summary", env=one_thread)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 192
    assert _stripped_digest(lines) == GOLDEN_RECORDS_SHA256


# The same digest over the 2^15 and 2^16 amplitude cells of the grover-dense
# benchmark workload, whose states the default sizes never reach.
DENSE_CELLS = (("grover-scaling", 65536), ("grover-certain", 65536),
               ("grover-unknown", 65536), ("amplify-uniform", 32768))
DENSE_RECORDS_SHA256 = "45a5bd78e98d1555e5498d8d0cb695c664f64bd05b5b869ccbd4fc38a67e16fa"


def test_golden_dense_records():
    lines = [
        bench.record_line(record, "jsonl")
        for name, size in DENSE_CELLS
        for record in bench.iter_records(
            ExperimentConfig(experiment=name, sizes=(size,), trials=3, seed=0, format="jsonl"))
    ]
    assert len(lines) == 12
    assert _stripped_digest(lines) == DENSE_RECORDS_SHA256


# The same digest over sat-schoening at sizes the default cells never reach,
# where a repair walk runs longest.
SAT_SIZES = (16, 20, 40)
SAT_RECORDS_SHA256 = "28866876a1467fba782966bafa66471278c98f6650e31496ddf79d150c34e6c0"


def test_golden_sat_records():
    lines = [
        bench.record_line(record, "jsonl")
        for size in SAT_SIZES
        for record in bench.iter_records(
            ExperimentConfig(experiment="sat-schoening", sizes=(size,), trials=3, seed=0,
                             format="jsonl"))
    ]
    assert len(lines) == 9
    assert _stripped_digest(lines) == SAT_RECORDS_SHA256


# recommended_step_budget and default_shot_cap rest on the eigvalsh gap and
# the hitting solve, and a ceiling moves with one ulp of either; these are the
# values of the dense solvers, for a walk-szegedy-* chain marked at any state
# and for the chains of the golden ed-walk run.
SZEGEDY_SCHEDULES = {
    ("walk-szegedy-cycle", 16): (87, 7), ("walk-szegedy-cycle", 24): (160, 10),
    ("walk-szegedy-cycle", 32): (245, 14), ("walk-szegedy-cycle", 48): (450, 20),
    ("walk-szegedy-cycle", 64): (692, 27), ("walk-szegedy-torus", 16): (34, 5),
    ("walk-szegedy-torus", 36): (73, 7), ("walk-szegedy-torus", 64): (126, 10),
    ("walk-szegedy-torus", 100): (195, 13),
}
ED_WALK_SCHEDULES = [(6, 20, 2)] * 3 + [(8, 26, 4)] * 3 + [(10, 29, 4)] * 3 + [(12, 31, 4)] * 3


def test_walk_schedules_are_pinned(monkeypatch):
    assert set(SZEGEDY_SCHEDULES) == {
        (name, size) for name in ("walk-szegedy-cycle", "walk-szegedy-torus")
        for size in bench.EXPERIMENTS[name].default_sizes}
    for (name, size), schedule in SZEGEDY_SCHEDULES.items():
        side = math.isqrt(size)
        for state in range(size):
            chain = (walks.cycle_chain(size, {state}) if name.endswith("cycle")
                     else walks.torus_chain(side, 2, {state}))
            assert (walks.recommended_step_budget(chain), walks.default_shot_cap(chain)) == schedule
    seen = []
    build = walks.johnson_chain

    def recording(element_count, subset_size, oracle):
        chain = build(element_count, subset_size, oracle)
        seen.append((element_count, walks.recommended_step_budget(chain),
                     walks.default_shot_cap(chain)))
        return chain

    monkeypatch.setattr(walks, "johnson_chain", recording)
    list(bench.iter_records(ExperimentConfig(experiment="ed-walk", trials=3, seed=0)))
    assert seen == ED_WALK_SCHEDULES


def test_grid_trials_of_one_size_share_one_grid(monkeypatch):
    grids = []
    search = walks.grid_walk_search

    def recording(grid, oracle, rng, step_budget):
        grids.append(grid)
        return search(grid, oracle, rng, step_budget)

    monkeypatch.setattr(walks, "grid_walk_search", recording)
    runner = bench.EXPERIMENTS["walk-grid-2d"].runner
    for trial in range(2):
        runner(64, SeededRng(3, 0).split(trial), {})
    runner(256, SeededRng(3, 1).split(0), {})
    assert grids[0] is grids[1] and grids[2] is not grids[0]
    assert (grids[0].side, grids[2].side) == (8, 16)


def test_parallel_run_matches_serial():
    cfg = ExperimentConfig(experiment="min-scaling", sizes=(64, 128), trials=3, seed=11)
    serial = [r.without_ms() for r in run_experiment(cfg)]
    parallel = [r.without_ms() for r in run_experiment(dataclasses.replace(cfg, jobs=2))]
    assert serial == parallel


class _CountingExecutor:
    """Stands in for the process pool: runs each submission at once, in
    process, and counts the submissions whose result is not yet read."""

    def __init__(self, max_workers):
        self.in_flight = self.most_in_flight = self.submitted = 0
        _CountingExecutor.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        return _Done(self, fn(*args))


class _Done:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.in_flight -= 1
        return self.value


def test_parallel_run_keeps_a_bounded_window_in_order(monkeypatch):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingExecutor)
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16), trials=40, seed=5)
    serial = [r.without_ms() for r in run_experiment(cfg)]
    parallel = [r.without_ms() for r in run_experiment(dataclasses.replace(cfg, jobs=2))]
    assert parallel == serial
    pool = _CountingExecutor.last
    assert pool.submitted == 80 and pool.in_flight == 0
    assert pool.most_in_flight == 2 * bench.JOBS_WINDOW_PER_WORKER


# -------------------------------------------------------------- serialization

def test_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16), trials=2, seed=3)
    records = run_experiment(cfg)
    path = tmp_path / "out.csv"
    emit(records, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    loaded = load_records(path)
    assert [r.without_ms() for r in loaded] == [r.without_ms() for r in records]


def test_csv_header_only_when_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert load_records(path) == []
    path.write_text("queries,bogus\n")
    with pytest.raises(Exception):
        load_records(path)


def test_jsonl_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4,), trials=3, seed=5)
    records = run_experiment(cfg)
    path = tmp_path / "out.jsonl"
    emit(records, "jsonl", path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    assert all(row["experiment"] == "grover-scaling" for row in rows)
    loaded = load_records(path)
    assert [r.without_ms() for r in loaded] == [r.without_ms() for r in records]


# --------------------------------------------------------------------- fits

def test_fit_exponent_exact_power_laws():
    fit = fit_exponent([(n, math.sqrt(n)) for n in (16, 64, 256, 1024)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    assert fit.size_range == (16, 1024)

    fit = fit_exponent([(n, 3.0 * n**0.75) for n in (16, 64, 256)])
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log10(3.0), abs=1e-12)


def test_fit_exponent_with_log_inflation():
    pts = [(n, math.sqrt(n * math.log(n))) for n in (64, 256, 1024, 4096)]
    fit = fit_exponent(pts)
    assert 0.5 < fit.slope < 0.65
    assert fit.residual_rms < 0.01


def test_fit_exponent_rejects_degenerate_input():
    with pytest.raises(FitError):
        fit_exponent([(4, 2.0), (16, 4.0)])
    with pytest.raises(FitError):
        fit_exponent([(4, 2.0), (16, 0.0), (64, 8.0)])
    with pytest.raises(FitError):
        fit_exponent([(-4, 2.0), (16, 4.0), (64, 8.0)])


def test_mean_cost_points_and_summary():
    cfg = ExperimentConfig(experiment="grover-scaling", sizes=(4, 16, 64), trials=2, seed=1)
    records = run_experiment(cfg)
    points = mean_cost_points(records)
    assert [size for size, _ in points] == [4, 16, 64]
    by_size = {4: [], 16: [], 64: []}
    for r in records:
        by_size[r.size].append(r.queries)
    for size, mean in points:
        assert mean == pytest.approx(sum(by_size[size]) / len(by_size[size]))

    text = summarize(records)
    assert "grover-scaling" in text
    assert "claim:" in text
    assert "fitted exponent" in text


# ---------------------------------------------------------------------- CLI

def test_cli_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "grover-scaling" in out
    assert "walk-szegedy-cycle" in out


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "grover.cfg"
    cfg.write_text("experiment = grover-scaling\nsizes = 4,16\ntrials = 2\nseed = 9\n")
    out = tmp_path / "records.csv"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert "fitted exponent" in capsys.readouterr().err or True  # summary on stderr


def test_cli_flag_only_run(tmp_path):
    out = tmp_path / "flag.csv"
    code = main([
        "run", "--experiment", "grover-scaling", "--sizes", "4,16",
        "--trials", "1", "--seed", "2", "--out", str(out),
        "--no-summary",
    ])
    assert code == 0
    assert len(load_records(out)) == 2
    # without --trials and --seed the run takes ExperimentConfig's defaults
    bare = tmp_path / "bare.csv"
    assert main(["run", "--experiment", "grover-scaling", "--sizes", "4,16",
                 "--out", str(bare), "--no-summary"]) == 0
    trials = ExperimentConfig(experiment="grover-scaling").trials
    expected = run_experiment(ExperimentConfig(
        experiment="grover-scaling", sizes=(4, 16), trials=trials, seed=0))
    assert len(expected) == 2 * trials
    assert [r.without_ms() for r in load_records(bare)] == [r.without_ms() for r in expected]


def _list_summary(records) -> str:
    """Reference for summarize: the list-based version it replaced."""
    lines = []
    for name in sorted({r.experiment for r in records}):
        spec = bench.EXPERIMENTS.get(name)
        subset = [r for r in records if r.experiment == name]
        lines.append(f"experiment {name}")
        if spec is not None:
            expected = (f" (expected exponent {spec.expected_exponent:.3g})"
                        if spec.expected_exponent is not None else "")
            lines.append(f"  claim: {spec.claim}{expected}")
        by_size = {}
        for r in subset:
            by_size.setdefault(r.size, []).append(r)
        points = [(size, float(np.mean([r.queries for r in by_size[size]])))
                  for size in sorted(by_size)]
        for size, mean_cost in points:
            trials = len(by_size[size])
            hits = sum(int(r.success) for r in by_size[size])
            lines.append(f"  size {size}: mean queries {mean_cost:.6g} over {trials} trials, "
                         f"success {hits}/{trials}")
        if len(points) >= 3 and all(cost > 0 for _, cost in points):
            fit = fit_exponent(points)
            lines.append(
                f"  fitted exponent {fit.slope:.4f} "
                f"(intercept {fit.intercept:.3f}, residual rms {fit.residual_rms:.4f}) "
                f"over sizes {int(fit.size_range[0])}..{int(fit.size_range[1])}")
        else:
            lines.append("  fitted exponent: n/a (need 3 positive size means)")
    return "\n".join(lines)


def test_one_pass_summary_matches_the_list_summary(tmp_path, capsys):
    records = [record for name in experiment_names()
               for record in bench.iter_records(ExperimentConfig(experiment=name, trials=3, seed=0))]
    assert len(records) == 192
    assert summarize(iter(records)) == _list_summary(records)
    out = tmp_path / "jobs.csv"
    assert main(["run", "-e", "min-scaling", "--sizes", "64,128,256", "--trials", "4",
                 "--seed", "3", "--jobs", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == _list_summary(load_records(out)) + "\n"


def test_cli_run_peak_memory_does_not_grow_with_trials(tmp_path, capsys):
    def peak(trials):
        args = ["run", "--experiment", "classical-scan", "--sizes", "64",
                "--trials", str(trials), "--seed", "0", "--out", str(tmp_path / "scan.csv")]
        with _peak_bytes() as traced:
            assert main(args) == 0
        assert f"over {trials} trials" in capsys.readouterr().err
        return traced[0]

    # the first run fills the grid cache, the lazy imports and a cache inside
    # numpy's reductions that stops growing after about 1,800 trials
    peak(2_000)
    small = peak(2_000)
    # about 400 B a record would be 7 MB more at 20,000 trials
    assert peak(20_000) <= small + 64 * 2**10


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert main(["run", "--experiment", "nonsense", "--no-summary"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--no-summary"]) == 2
    assert main(["run", "--experiment", "grover-scaling", "--jobs", "0", "--no-summary"]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = grover-scaling\ntrials = zero\n")
    assert main(["run", str(cfg)]) == 2


def _python(*args: str, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    src = str(Path(qsearchlab.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def _python_dash_m(*args: str, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    return _python("-m", "qsearchlab", *args, env=env)


def test_import_does_not_load_multiprocessing():
    done = _python("-c", "import sys, qsearchlab, qsearchlab.cli; "
                         "print('multiprocessing' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    done = _python_dash_m("run", "--experiment", "grover-scaling",
                          "--trials", "1", "--seed", "0", "--format", "jsonl")
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    expected = run_experiment(ExperimentConfig(experiment="grover-scaling", trials=1, seed=0))
    assert len(rows) == len(expected) > 0
    assert [(row["size"], row["queries"], row["steps"], row["success"]) for row in rows] == [
        (r.size, r.queries, r.steps, r.success) for r in expected]


def test_oversized_state_fails_before_allocating_with_exit_code_2():
    # 2^40 amplitudes: without the cap the first size-long array raises MemoryError at once
    done = _python_dash_m("run", "--experiment", "grover-scaling",
                          "--sizes", str(2**40), "--trials", "1", "--no-summary")
    assert done.returncode == 2, done.stderr
    assert "over the cap" in done.stderr
    assert "MemoryError" not in done.stderr


# Each instance is over STATE_BYTE_CAP, so an unguarded build costs a few
# hundred MB or more: the 4.2 million edges of a 2^21-state cycle or the 3.2
# million of Johnson(20, 8), 290-370 MB while they are built, the 1.2 billion
# edges of Johnson(30, 10), or a 2^24 + 1 or 2^25 value table.
# The SAT cases: 2^34 variables would first ask for 128 GiB, one past the
# variable cap would run for minutes a trial, density 1e7 asks for 3e9
# clause entries, and 300 repair walks over 2^16 variables would pre-draw
# 5.9e7 literal picks.  The profiles: a 2^40-amplitude Grover state, and
# 2^40 + 1 recorded rounds or steps, 8 TiB of float64 each.
@pytest.mark.parametrize("build", [
    lambda: walks.cycle_chain(2**21),
    lambda: walks.JohnsonChain(20, 8),
    lambda: walks.JohnsonChain(30, 10),
    lambda: bench.EXPERIMENTS["min-scaling"].runner(2**24 + 1, SeededRng(0), {}),
    lambda: bench.EXPERIMENTS["local-min"].runner(2**25, SeededRng(0), {}),
    lambda: bench.EXPERIMENTS["sat-schoening"].runner(2**34, SeededRng(0), {}),
    lambda: applications.random_planted_formula(applications.MAX_SAT_VARIABLES + 1, SeededRng(0)),
    lambda: applications.random_planted_formula(100, SeededRng(0), density=1e7),
    lambda: applications.estimate_success(
        applications.Cnf3Formula(2**16, (((0, False),),)), SeededRng(0), 300),
    lambda: grover.success_profile(2**40, 1, 0),
    lambda: grover.success_profile(4, 1, 2**40),
    lambda: walks.grid_walk_probability_profile(walks.TorusGrid(2, 2), [0], 2**40),
    lambda: walks.expected_steps_to_success(walks.cycle_chain(8, {0}), shot_cap=2**40),
], ids=["cycle-2^21", "johnson-20-8", "johnson-30-10", "min-scaling-2^24+1", "local-min-2^25",
        "sat-schoening-2^34", "planted-over-cap", "planted-dense", "estimate-picks-over-cap", "success-profile-2^40-state",
        "success-profile-2^40-rounds", "grid-profile-2^40-steps", "expected-steps-2^40-cap"])
def test_oversized_instances_are_refused_before_allocating(build):
    with _peak_bytes() as peak, pytest.raises(SizeCapError):
        build()
    assert peak[0] < 2**20


@contextlib.contextmanager
def _peak_bytes():
    """Trace the allocations of the block; the yielded list receives their peak in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


# Chains just past the 4096 states whose dense P fits the cap, built past the
# lru caches so that the peak is the build's.  Their edges take a few MB,
# against 134-331 MB for a dense P; what is refused is the size x size work,
# so walk-szegedy-* and ed-walk still exit 2 at the gap.
@pytest.mark.parametrize("build", [
    lambda: walks._cycle_base.__wrapped__(4097),
    lambda: walks._torus_base.__wrapped__(65, 2),
    lambda: walks._torus_base.__wrapped__(17, 3),
    lambda: walks.JohnsonChain(14, 6),
], ids=["cycle-4097", "torus-65x65", "torus-17x17x17", "johnson-14-6"])
def test_oversized_chains_build_from_edges_and_refuse_the_dense_gap(build):
    with _peak_bytes() as peak:
        chain = build()
    assert peak[0] < 8 * 2**20
    with _peak_bytes() as peak, pytest.raises(SizeCapError):
        chain.spectral_gap
    assert peak[0] < 2**20


def test_hitting_solve_refuses_an_unmarked_block_over_the_cap():
    # one marked state of 4097 leaves a 4096 x 4096 block, at the cap
    for chain in (walks.cycle_chain(4098, {0}), walks.torus_chain(65, 2, {7}),
                  walks.JohnsonChain(14, 6, marked=[0, 1])):
        with _peak_bytes() as peak, pytest.raises(SizeCapError):
            walks.exact_hitting_mean(chain)
        assert peak[0] < 2**20


def test_oversized_szegedy_cycle_exits_2(capsys):
    assert main(["run", "-e", "walk-szegedy-cycle", "--sizes", "4097"]) == 2
    assert "over the cap" in capsys.readouterr().err


def test_oversized_sat_schoening_exits_2(capsys):
    assert main(["run", "-e", "sat-schoening", "--sizes", str(2**34)]) == 2
    assert "exceed the desk-scale cap" in capsys.readouterr().err


def test_hitting_step_guard_exits_2(capsys, monkeypatch):
    # a cycle past about 17,000 states reaches the real guard on its own
    monkeypatch.setattr(walks, "HITTING_STEP_GUARD", 1000)
    assert main(["run", "-e", "classical-hitting-cycle", "--sizes", "1024", "--seed", "0"]) == 2
    assert "step guard" in capsys.readouterr().err


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


# ------------------------------------------------------------------ tooling

EXPORTING_MODULES = ("sim", "grover", "amplify", "minima", "applications", "walks", "bench")


def test_every_exported_name_resolves():
    # a deleted function must leave no dangling entry in any __all__
    assert len(qsearchlab.__all__) > 40
    for name in qsearchlab.__all__:
        assert hasattr(qsearchlab, name), f"qsearchlab.{name}"
    for layer in EXPORTING_MODULES:
        module = importlib.import_module(f"qsearchlab.{layer}")
        assert module.__all__, layer
        for name in module.__all__:
            assert hasattr(module, name), f"qsearchlab.{layer}.{name}"


def test_traced_boundaries_resolve_to_package_callables(monkeypatch):
    # perfbench/ wraps these names by getattr on qsearchlab's modules; a name
    # that was deleted or renamed would otherwise fail only a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    names = set(tracing.boundary_names())
    for workload in workloads.WORKLOADS.values():
        names.update(workload.must_fire)
    names.discard(tracing.TRIAL)  # the benchmark's own root span
    assert len(names) > 30
    for name in sorted(names):
        layer, function = name.split(".")
        module = importlib.import_module(f"qsearchlab.{layer}")
        assert callable(getattr(module, function, None)), name


@pytest.mark.parametrize("name", ["grover-dense", "small-state", "walks"])
def test_every_must_fire_boundary_fires_in_one_untraced_round(monkeypatch, name):
    # A boundary the code stops calling would otherwise fail only a traced
    # perfbench run.  Counting wrappers stand in for the tracer; the round
    # runs its cells, smallest first, until every boundary has fired.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    workload = workloads.WORKLOADS[name]
    silent = set(workload.must_fire) - {tracing.TRIAL}
    for boundary in sorted(silent):
        layer, function = boundary.split(".")
        module = importlib.import_module(f"qsearchlab.{layer}")
        original = getattr(module, function)

        def counted(*args, _boundary=boundary, _original=original, **kwargs):
            silent.discard(_boundary)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, function, counted)
    plan = workloads.cells(workload, bench.EXPERIMENTS)
    for cell in sorted(plan, key=lambda cell: cell.size):
        if not silent:
            break
        rng = SeededRng(workloads.DEFAULT_SEED, cell.size_index).split(0)
        bench.EXPERIMENTS[cell.experiment].runner(cell.size, rng, {})
    assert not silent, sorted(silent)
