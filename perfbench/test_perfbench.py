"""Checks of the benchmark's own arithmetic and bookkeeping.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from qsearchlab import grover, sim  # noqa: E402
from qsearchlab.bench import EXPERIMENTS  # noqa: E402
from qsearchlab.sim import SeededRng  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert wl.percentile(samples, 0.9) == 90
    assert sum(s > 90 for s in samples) == 10
    with pytest.raises(ValueError):
        wl.percentile(samples[:99], 0.9)
    assert wl.min_rounds(7) * 7 >= wl.MIN_TRIALS


def test_timings_are_divided_by_host_slowdown():
    calibration = worker.Calibration()
    calibration.samples_ms = [worker.CALIBRATION_MS * f for f in (3.0, 1.0, 2.0)]
    assert calibration.slowdown() == pytest.approx(2.0)
    plan = (wl.Cell("grover-scaling", 64, 0),)
    result = worker.timed(plan, seed=1, seconds=0.0, digest=None)
    assert result["attempted"] == wl.MIN_TRIALS and result["failed"] == 0
    slowdown, measured, metrics = result["slowdown"], result["measured"], result["metrics"]
    assert metrics["trial_ms_p50"] == pytest.approx(measured["trial_ms_p50"] / slowdown)
    assert metrics["trial_ms_p90"] == pytest.approx(measured["trial_ms_p90"] / slowdown)
    assert metrics["trials_per_s"] == pytest.approx(measured["trials_per_s"] * slowdown)


def test_self_time_from_span_tree():
    spans = [
        ["bench.trial", -1, 0, 100],
        ["grover.search", 0, 10, 60],
        ["sim.apply_diffusion", 1, 20, 30],
        ["sim.apply_diffusion", 1, 40, 45],
        ["sim.measure", 0, 70, 80],
    ]
    assert tracing.self_times(spans) == {
        "bench.trial": [1, 40],
        "grover.search": [1, 35],
        "sim.apply_diffusion": [2, 15],
        "sim.measure": [1, 10],
    }


def test_tracer_nests_spans_and_folds_them():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def middle():
        return tracer.call("sim.measure", leaf) + tracer.call("sim.measure", leaf)

    assert tracer.call("bench.trial", middle) == 2
    assert [span[:2] for span in tracer.spans] == [
        ["bench.trial", -1], ["sim.measure", 0], ["sim.measure", 0]]
    total = tracer.spans[0][3] - tracer.spans[0][2]
    tracer.fold()
    assert tracer.spans == []
    assert tracer.calls == {"bench.trial": 1, "sim.measure": 2}
    assert tracer.self_ns["bench.trial"] + tracer.self_ns["sim.measure"] == total


def test_installed_wraps_and_restores_boundaries():
    original = sim.apply_diffusion
    tracer = tracing.Tracer()
    oracle = sim.BitOracle([0, 1, 0, 0])
    with tracing.installed(tracer):
        assert sim.apply_diffusion is not original
        tracer.call(tracing.TRIAL, grover.search, oracle,
                    grover.GroverParams(size=4, marked_count=1), SeededRng(0))
        tracer.fold()
    assert sim.apply_diffusion is original
    assert tracer.calls["grover.search"] == 1
    assert tracer.calls["sim.apply_diffusion"] == grover.optimal_query_count(4, 1)
    assert tracer.counts["sim.amp_ops"] == 4 * 2 * grover.optimal_query_count(4, 1)


def _records(seed, trials=3):
    cell = wl.Cell("grover-scaling", 64, 0)
    out = []
    for trial in range(trials):
        rng = SeededRng(seed, cell.size_index).split(trial)
        queries, steps, success = EXPERIMENTS[cell.experiment].runner(cell.size, rng, {})
        out.append((cell, trial, (cell.experiment, cell.size, trial, float(queries),
                                  int(steps), bool(success))))
    return out


def test_digest_mismatch_counts_as_failed():
    outcomes = _records(seed=5)
    digest = {"grover-scaling@64": "".join(wl.record_hash(r) for _, _, r in outcomes)}
    assert wl.count_failed(outcomes, digest) == 0
    cell, trial, record = outcomes[1]
    # same invariants, different measured outcome: only the digest can tell
    flipped = record[:5] + (not record[5],)
    assert wl.invariant_holds(flipped)
    assert wl.count_failed([outcomes[0], (cell, trial, flipped), outcomes[2]], digest) == 1
    assert wl.count_failed([outcomes[0], (cell, trial, None), outcomes[2]], digest) == 1
    # past the digest's end, and on other seeds, invariants decide
    assert wl.expected_hash(digest, cell, 3) is None
    broken = record[:3] + (record[3] + 1.0,) + record[4:]
    assert wl.count_failed([(cell, trial, broken)], None) == 1


def test_plan_order_is_deterministic_in_seed():
    first = [wl.round_order(35, seed=3, round_index=r) for r in range(5)]
    assert first == [wl.round_order(35, seed=3, round_index=r) for r in range(5)]
    assert all(sorted(order) == list(range(35)) for order in first)
    assert first != [wl.round_order(35, seed=4, round_index=r) for r in range(5)]
    assert len({tuple(order) for order in first}) > 1


def test_cells_follow_registry_size_indices():
    plan = wl.cells(wl.WORKLOADS["grover-dense"], EXPERIMENTS)
    assert [c.key for c in plan][:3] == ["min-scaling@4096", "min-scaling@16384",
                                         "grover-unknown@16384"]
    assert [c.size_index for c in plan][:3] == [0, 1, 0]
    small = wl.cells(wl.WORKLOADS["small-state"], EXPERIMENTS)
    assert len(small) == 35 and max(c.size for c in small if c.experiment != "local-min") <= 1024


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invariants_hold_on_real_records(seed):
    for name in sorted({cell.experiment for w in wl.WORKLOADS.values()
                        for cell in wl.cells(w, EXPERIMENTS)}):
        size = min(c.size for w in wl.WORKLOADS.values()
                   for c in wl.cells(w, EXPERIMENTS) if c.experiment == name)
        rng = SeededRng(seed, 0).split(0)
        queries, steps, success = EXPERIMENTS[name].runner(size, rng, {})
        assert wl.invariant_holds((name, size, 0, float(queries), int(steps), bool(success))), name


def test_every_boundary_is_exercised_by_some_workload():
    expected = set().union(*(w.must_fire for w in wl.WORKLOADS.values()))
    assert expected == set(tracing.boundary_names())


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_spec()
