"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line and then asserts, so a plain pytest run
doubles as a checklist (use -s to see the lines). Seeds and tolerances are
fixed; every run must agree exactly.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from qsearchlab import bench
from qsearchlab.amplify import amplification_schedule_scale
from qsearchlab.applications import (
    Cnf3Formula,
    ed_base_run,
    ed_hybrid_query_model,
    estimate_success,
    random_planted_formula,
    schoening_run,
)
from qsearchlab.grover import (
    GroverParams,
    optimal_query_count,
    prepared_certain_state,
    search_unknown_count,
    success_profile,
)
from qsearchlab.minima import (
    HypercubeOracle,
    default_sample_count,
    find_local_minimum,
    find_minimum,
    verify_local_min,
)
from qsearchlab.sim import (
    BitOracle,
    SeededRng,
    StateVector,
    ValueOracle,
    apply_diffusion,
    apply_phase_flip,
    apply_phase_rotation,
)
from qsearchlab.walks import (
    TorusGrid,
    WalkCosts,
    classical_hitting,
    collision_vertex_probability,
    cycle_chain,
    default_shot_cap,
    ed_walk,
    exact_hitting_mean,
    expected_steps_to_success,
    grid_walk_probability_profile,
    grid_walk_step,
    johnson_chain,
    localized_coined_state,
    recommended_step_budget,
    szegedy_find_marked,
    torus_chain,
)


def _bit_oracle(size: int, marked) -> BitOracle:
    return BitOracle(np.isin(np.arange(size), list(marked)).astype(int))


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:02d} {label}: {status} ({detail})")


# ---------------------------------------------------------------------------
# 1. Exact search reaches certainty in the counted number of queries.


def test_criterion_01_exact_search_certainty():
    cases = ((4, 1), (16, 1), (64, 1), (256, 1), (100, 4))
    worst_gap = 0.0
    ok = True
    for size, k in cases:
        marked = tuple(range(k))
        oracle = _bit_oracle(size, marked)
        state = prepared_certain_state(oracle, GroverParams(size, marked_count=k))
        budget = optimal_query_count(size, k)
        prob = float(np.abs(state.amps[list(marked)]) ** 2 @ np.ones(k))
        worst_gap = max(worst_gap, 1.0 - prob)
        if oracle.query_count != budget or prob < 1.0 - 1e-9:
            ok = False
        if (size, k) == (4, 1) and oracle.query_count != 1:
            ok = False
    _report(1, "exact search certainty", ok,
            f"worst success gap {worst_gap:.3e} across {len(cases)} cases")
    assert ok


# ---------------------------------------------------------------------------
# 2. Simulated success probabilities match the closed form everywhere.


def test_criterion_02_success_profile_matches_closed_form():
    worst = 0.0
    checked = 0
    for size in range(2, 257):
        for k in range(1, size + 1):
            theta = math.asin(math.sqrt(k / size))
            profile = success_profile(size, k, max_rounds=30)
            angles = (2 * np.arange(31) + 1) * theta
            expected = np.sin(angles) ** 2
            worst = max(worst, float(np.abs(profile - expected).max()))
            checked += profile.size
    ok = worst <= 1e-9
    _report(2, "profile matches closed form", ok,
            f"worst |sim - formula| {worst:.3e} over {checked} points")
    assert ok


# ---------------------------------------------------------------------------
# 3. Strict quarter-pi bound on the integer query count.
#
# This asserts optimal_query_count(N, k) < (pi/4) sqrt(N/k) with no slack.
# The count is an integer while the bound is not, so whenever the un-rounded
# schedule length sits just below the bound, rounding up crosses it; the
# first offender is (N, k) = (3, 2) and roughly a quarter of all pairs
# follow. Certainty at (256, 1) genuinely needs 13 queries against a bound
# of 12.566, so making this pass would break test_criterion_01 above. The
# un-rounded schedule length does satisfy the strict bound everywhere (see
# test_grover.py). Kept faithful; expected to fail.


def test_criterion_03_quarter_pi_strict_bound():
    pairs = []
    size = 2
    while len(pairs) < 10_000:
        for k in range(1, size + 1):
            pairs.append((size, k))
        size += 1
    pairs = pairs[:10_000]
    violations = [
        (n, k)
        for n, k in pairs
        if not optimal_query_count(n, k) < (math.pi / 4.0) * math.sqrt(n / k)
    ]
    ok = not violations
    detail = f"{len(violations)} violations on {len(pairs)} pairs"
    if violations:
        shown = ", ".join(
            f"(N={n}, k={k}: count {optimal_query_count(n, k)} vs bound "
            f"{(math.pi / 4.0) * math.sqrt(n / k):.3f})"
            for n, k in violations[:3]
        )
        detail += f"; first {shown}; integer count vs real-valued bound"
    _report(3, "strict quarter-pi bound", ok, detail)
    assert ok, (
        "integer query counts exceed the strict real-valued bound whenever "
        "rounding up crosses it; the un-rounded schedule satisfies the bound "
        "everywhere and the certainty cases pin the rounded count"
    )


# ---------------------------------------------------------------------------
# 4. Search with unknown marked count stays cheap and reliable.


def test_criterion_04_unknown_count_search():
    size = 1024
    ok = True
    details = []
    for k in (1, 4, 16):
        marked = tuple(range(0, 4 * k, 4))
        successes = 0
        total_queries = 0
        for seed in range(1000):
            oracle = _bit_oracle(size, marked)
            found = search_unknown_count(oracle, size, SeededRng(2024, k * 10_000 + seed))
            total_queries += oracle.query_count
            if found is not None and found in marked:
                successes += 1
        mean_queries = total_queries / 1000
        budget = 5.0 * math.sqrt(size / k)
        if successes < 2000 / 3 or mean_queries > budget:
            ok = False
        details.append(f"k={k}: {successes}/1000, mean {mean_queries:.1f} <= {budget:.0f}")
    _report(4, "unknown marked count", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 5. Minimum finding scales like sqrt(N) and lands on the argmin.


def test_criterion_05_minimum_finding_scaling():
    sizes = [2**p for p in range(6, 15)]
    means = []
    ok = True
    details = []
    for si, size in enumerate(sizes):
        total = 0
        correct = 0
        for t in range(200):
            rng = SeededRng(31337, si * 1000 + t)
            values = rng.generator.permutation(size)
            oracle = ValueOracle(values)
            result = find_minimum(oracle, size, rng)
            total += result.queries
            if values[result.index] == values.min():
                correct += 1
        means.append(total / 200)
        if correct < 100:
            ok = False
        details.append(f"N={size}: argmin {correct}/200")
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    if abs(slope - 0.5) > 0.1:
        ok = False
    _report(5, "minimum finding scaling", ok,
            f"exponent {slope:.4f} in 0.5+-0.1; " + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. Local minimum search on the hypercube: correctness, scaling, seeding.


def test_criterion_06_local_minimum_search():
    bit_counts = range(6, 15)
    means = []
    ok = True
    verified_line = []
    for n in bit_counts:
        total = 0
        verified = 0
        for seed in range(200):
            rng = SeededRng(6006, n * 1000 + seed)
            table = rng.generator.permutation(2**n)
            result = find_local_minimum(HypercubeOracle(n, table), rng)
            total += result.queries
            if verify_local_min(HypercubeOracle(n, table), result.index):
                verified += 1
        means.append(total / 200)
        if verified < 400 / 3:
            ok = False
        verified_line.append(f"n={n}: {verified}/200")
    slope = float(np.polyfit(np.log([2.0**n for n in bit_counts]), np.log(means), 1)[0])
    if abs(slope - 1 / 3) > 0.1:
        ok = False

    # the seeding stage alone should land some sample in the lowest 2N/m
    # ranks most of the time
    n = 10
    size = 2**n
    m = default_sample_count(n)
    rank_hits = 0
    for seed in range(200):
        rng = SeededRng(13, seed)
        table = rng.generator.permutation(size)
        samples = rng.generator.integers(0, size, size=m)
        if table[samples].min() < 2.0 * size / m:
            rank_hits += 1
    if rank_hits < 170:
        ok = False
    _report(6, "hypercube local minimum", ok,
            f"exponent {slope:.4f} in 0.333+-0.1; seed rank {rank_hits}/200 >= 170; "
            + verified_line[0] + " ... " + verified_line[-1])
    assert ok


# ---------------------------------------------------------------------------
# 7. Element distinctness hybrid: rate calibration and modeled scaling.


def test_criterion_07_element_distinctness_hybrid():
    sizes = (16, 64, 256, 1024)
    trials = {16: 800, 64: 800, 256: 500, 1024: 300}
    ok = True
    scaled = []
    model_points = []
    for size in sizes:
        hits = 0
        for i in range(trials[size]):
            rng = SeededRng(8787, size * 10_000 + i)
            values = rng.generator.permutation(size)
            pos = rng.generator.choice(size, size=2, replace=False)
            values[pos[1]] = values[pos[0]]
            run = ed_base_run(ValueOracle(values), rng)
            if run.pair is not None:
                a, b = run.pair
                if a == b or values[a] != values[b]:
                    ok = False  # a reported pair must be a real collision
                hits += 1
        rate = hits / trials[size]
        scaled.append(rate * math.sqrt(size))
        model_points.append((size, ed_hybrid_query_model(size, rate)))
    band = max(scaled) / min(scaled)
    if band > 3.0:
        ok = False
    slope = bench.fit_exponent(model_points).slope
    if abs(slope - 0.75) > 0.1:
        ok = False
    _report(7, "element distinctness hybrid", ok,
            f"rate*sqrt(N) band ratio {band:.3f} <= 3; model exponent {slope:.4f} in 0.75+-0.1")
    assert ok


# ---------------------------------------------------------------------------
# 8. Repair-walk success rates and the amplification schedule they imply.


def test_criterion_08_sat_repair_walk():
    ok = True
    points = []
    rate_line = []
    for n in range(8, 19):
        rng = SeededRng(4242, n)
        formula, planted = random_planted_formula(n, rng)
        assert formula.satisfied_by(planted)
        stats = estimate_success(formula, rng, 4000)
        eps = stats.success_rate
        if eps < 0.5 * (3.0 / 4.0) ** n:
            ok = False
        rate_line.append(f"n={n}: {eps:.4f}")
        points.append((1.0 / eps, amplification_schedule_scale(eps)))
    slope = bench.fit_exponent(points).slope
    if abs(slope - 0.5) > 0.1:
        ok = False

    # a contradictory formula must never yield an assignment
    unsat = Cnf3Formula(2, (
        ((0, False),), ((0, True),), ((1, False),), ((1, True),),
    ))
    false_claims = sum(
        schoening_run(unsat, SeededRng(777, seed)) is not None
        for seed in range(2000)
    )
    if false_claims:
        ok = False
    _report(8, "repair walk amplification", ok,
            f"schedule exponent {slope:.4f} in 0.5+-0.1; false claims {false_claims}/2000; "
            f"rates {rate_line[0]} ... {rate_line[-1]}")
    assert ok


# ---------------------------------------------------------------------------
# 9. Coined grid walks: spreading exponents and strict locality.


def _first_step_reaching(profile, threshold: float) -> int:
    for t, p in enumerate(profile):
        if p >= threshold:
            return t
    raise AssertionError("profile never reached the threshold")


def test_criterion_09_grid_walk_spreading():
    ok = True
    details = []
    for dimensions, sides, cap in ((2, (8, 16, 32, 64), 0.65), (3, (4, 6, 8), 0.55)):
        points = []
        for side in sides:
            grid = TorusGrid(side, dimensions)
            size = grid.cells
            budget = math.ceil(6.0 * math.sqrt(size * max(1.0, math.log(size))))
            profile = grid_walk_probability_profile(grid, (0,), budget)
            points.append((size, _first_step_reaching(profile, 0.05)))
        slope = bench.fit_exponent(points).slope
        if slope > cap:
            ok = False
        details.append(f"{dimensions}D exponent {slope:.4f} <= {cap}")

    # strict locality: after t steps no amplitude lives farther than t from
    # the start cell in the wraparound metric
    grid = TorusGrid(16, 2)
    state = localized_coined_state(grid, 0)
    leak = 0.0
    for t in range(1, 9):
        state = grid_walk_step(grid, state, (0,))
        probs = state.probabilities().reshape(grid.cells, -1).sum(axis=1)
        outside = [c for c in range(grid.cells) if grid.distance(0, c) > t]
        leak = max(leak, float(probs[outside].sum()))
    if leak != 0.0:
        ok = False
    details.append(f"locality leak {leak:.1e}")
    _report(9, "grid walk spreading", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 10. The two-reflection walk beats restarting classical hitting on every
# instance, and the walk's advantage grows with the classical difficulty.


def test_criterion_10_szegedy_vs_classical():
    instances = [("cycle", cycle_chain(s)) for s in (16, 32, 64, 128)]
    instances += [("torus", torus_chain(s)) for s in (4, 6, 8, 10)]
    ok = True
    ratios = {"cycle": [], "torus": []}
    difficulty = {"cycle": [], "torus": []}
    worst_margin = math.inf
    for family, chain in instances:
        marked_chain = chain.with_marked((0,))
        base = SeededRng(99, 7)
        quantum_total = 0.0
        for i in range(100):
            result = szegedy_find_marked(marked_chain, WalkCosts(), base.split(i))
            quantum_total += result.cost
        quantum_mean = quantum_total / 100
        classical_mean = classical_hitting(marked_chain, SeededRng(1234, 1), trials=400)
        worst_margin = min(worst_margin, classical_mean / quantum_mean)
        if quantum_mean >= classical_mean:
            ok = False
        ratios[family].append(
            expected_steps_to_success(marked_chain) / exact_hitting_mean(marked_chain)
        )
        difficulty[family].append(1.0 / ((1.0 / chain.size) * chain.spectral_gap))
    # within each family the quantum/classical step ratio shrinks as the
    # instances get harder
    for family in ("cycle", "torus"):
        order = np.argsort(difficulty[family])
        seq = [ratios[family][i] for i in order]
        if any(b >= a for a, b in zip(seq, seq[1:])):
            ok = False
    _report(10, "two-reflection walk vs classical", ok,
            f"walk beat classical on all {len(instances)} instances, worst margin "
            f"{worst_margin:.2f}x; per-family step ratios strictly decreasing")
    assert ok


# ---------------------------------------------------------------------------
# 11. Element distinctness via the subset walk beats the same chain's
# classical hitting time.


def test_criterion_11_ed_subset_walk():
    ok = True
    details = []
    for size in (6, 8, 10, 12):
        subset = math.ceil(size ** (2.0 / 3.0))
        probe_vals = SeededRng(4242, size * 1000).generator.permutation(size)
        probe_vals[1] = probe_vals[0]
        probe = johnson_chain(size, subset, ValueOracle(probe_vals))
        shot_cap = default_shot_cap(probe)
        step_budget = recommended_step_budget(probe)
        classical = exact_hitting_mean(probe)

        found = 0
        walk_steps_total = 0
        for seed in range(200):
            rng = SeededRng(4242, size * 1000 + seed)
            values = rng.generator.permutation(size)
            pos = rng.generator.choice(size, size=2, replace=False)
            values[pos[1]] = values[pos[0]]
            result = ed_walk(ValueOracle(values), size, subset, rng,
                             step_budget=step_budget, shot_cap=shot_cap)
            if result.pair is not None:
                a, b = result.pair
                if a == b or values[a] != values[b]:
                    ok = False
                found += 1
            walk_steps_total += result.walk_steps
        mean_steps = walk_steps_total / 200
        if found < 200 or mean_steps >= classical:
            ok = False
        details.append(
            f"N={size}: found {found}/200, walk steps {mean_steps:.2f} < hitting {classical:.2f}"
        )
    _report(11, "subset walk distinctness", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 12. Infrastructure: deterministic records, norm preservation, exact
# collision fractions.


def test_criterion_12a_benchmark_records_are_reproducible(tmp_path):
    config = bench.ExperimentConfig(
        experiment="grover-scaling", sizes=(4, 16, 64), trials=3, seed=5,
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    bench.emit(bench.run_experiment(config), "csv", first)
    bench.emit(bench.run_experiment(config), "csv", second)

    def stripped(path):
        return [r.without_ms() for r in bench.load_records(path)]

    same = stripped(first) == stripped(second)
    _report(12, "records deterministic", same,
            f"{len(stripped(first))} records identical modulo timing")
    assert same


def test_criterion_12b_norm_preserved_across_many_applications():
    gen = SeededRng(5555, 0).generator
    dimension = 8
    amps = gen.standard_normal(dimension) + 1j * gen.standard_normal(dimension)
    state = StateVector(amps / np.linalg.norm(amps))
    sink = BitOracle([1] + [0] * (dimension - 1))  # charge target for phase queries

    total = 1_000_000
    # precompute the schedule so the loop times only the operators
    kinds = gen.integers(0, 3, size=total)
    marks = gen.integers(0, dimension, size=total)
    angles = gen.uniform(0.0, 2.0 * math.pi, size=total)

    worst_step = 0.0
    previous = state.norm()
    for i in range(total):
        kind = kinds[i]
        if kind == 0:
            state = apply_phase_flip(state, (int(marks[i]),), sink)
        elif kind == 1:
            state = apply_phase_rotation(state, (int(marks[i]),), float(angles[i]), sink)
        else:
            state = apply_diffusion(state)
        current = state.norm()
        drift = abs(current - previous)
        if drift > worst_step:
            worst_step = drift
        previous = current
    final_drift = abs(state.norm() - 1.0)
    ok = worst_step <= 1e-12 and final_drift <= 1e-12
    _report(12, "norm preservation", ok,
            f"worst per-step drift {worst_step:.2e}, final {final_drift:.2e} over {total} ops")
    assert ok


def test_criterion_12c_collision_fraction_exact_by_enumeration():
    ok = True
    failed_at = None
    for size in range(2, 13):
        collision = {0, size - 1}
        for subset_size in range(1, size + 1):
            expected = collision_vertex_probability(size, subset_size)
            total = 0
            good = 0
            for combo in combinations(range(size), subset_size):
                total += 1
                if collision <= set(combo):
                    good += 1
            if expected != Fraction(good, total):
                ok = False
                failed_at = (size, subset_size)
    _report(12, "collision fraction exact", ok,
            "all sizes <= 12 match enumeration" if ok else f"mismatch at {failed_at}")
    assert ok
