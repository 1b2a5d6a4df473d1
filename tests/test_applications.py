"""Application tests: 3-SAT repair walks and element distinctness."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsearchlab.applications import (
    MAX_SAT_VARIABLES,
    Cnf3Formula,
    ed_base_run,
    ed_hybrid_query_model,
    estimate_success,
    quantum_speedup_report,
    random_planted_formula,
    schoening_run,
    wilson_interval,
    _schoening_batch,
)
from qsearchlab.sim import ParameterError, RawDraws, SeededRng, ValueOracle

# two clashing units on each of two variables: no assignment survives
UNSAT = Cnf3Formula(2, (
    ((0, False),),
    ((0, True),),
    ((1, False),),
    ((1, True),),
))


def _brute_force_satisfiable(formula: Cnf3Formula):
    for bits in product((0, 1), repeat=formula.variable_count):
        if formula.satisfied_by(bits):
            return bits
    return None


# ------------------------------------------------------------------ formulas

def test_formula_evaluation_matches_python_semantics():
    formula = Cnf3Formula(3, (
        ((0, False), (1, True)),
        ((2, False), (0, True), (1, False)),
    ))
    for bits in product((0, 1), repeat=3):
        want = (bits[0] or not bits[1]) and (bits[2] or not bits[0] or bits[1])
        assert formula.satisfied_by(bits) == want
        first = formula.first_unsatisfied(bits)
        if want:
            assert first is None
        else:
            assert first in (0, 1)
            clause = formula.clauses[first]
            assert not any(bits[v] ^ neg for v, neg in clause)


def test_formula_validation():
    with pytest.raises(ParameterError):
        Cnf3Formula(0, (((0, False),),))
    with pytest.raises(ParameterError):
        Cnf3Formula(2, ())
    with pytest.raises(ParameterError):
        Cnf3Formula(2, (((2, False),),))  # variable out of range
    with pytest.raises(ParameterError):
        Cnf3Formula(4, (((0, False), (1, False), (2, False), (3, False)),))
    formula = Cnf3Formula(2, (((0, False),),))
    with pytest.raises(ParameterError):
        formula.satisfied_by((1, 0, 1))


def test_random_planted_formula_is_satisfied_by_plant():
    for n in (5, 9, 14):
        formula, planted = random_planted_formula(n, SeededRng(123, n))
        assert formula.variable_count == n
        assert formula.clause_count == round(8.0 * n)
        assert formula.satisfied_by(planted)
    with pytest.raises(ParameterError):
        random_planted_formula(2, SeededRng(0))
    with pytest.raises(ParameterError):
        random_planted_formula(5, SeededRng(0), density=0.0)


# ------------------------------------------------------------- repair walks

def test_schoening_run_never_reports_false_positives():
    formula, _ = random_planted_formula(8, SeededRng(9, 9))
    yielded = 0
    for seed in range(300):
        result = schoening_run(formula, SeededRng(1000, seed))
        if result is not None:
            assert formula.satisfied_by(result)
            yielded += 1
    assert 0 < yielded < 300  # some walks succeed, some exhaust their 3n + 1 flips


def test_schoening_run_on_unsatisfiable_formula():
    assert _brute_force_satisfiable(UNSAT) is None
    for seed in range(500):
        assert schoening_run(UNSAT, SeededRng(31337, seed)) is None


def test_batch_walker_agrees_with_single_runs():
    # the vectorized walker and the scalar one share semantics, not draws,
    # so compare their success rates statistically
    formula, _ = random_planted_formula(8, SeededRng(42, 0))
    trials = 3000
    single = sum(
        schoening_run(formula, SeededRng(5, seed)) is not None
        for seed in range(trials)
    )
    batch = _schoening_batch(formula, SeededRng(6, 0), trials)
    p = single / trials
    sigma = math.sqrt(2 * p * (1 - p) / trials)
    assert abs(single - batch) / trials < 5 * sigma


# ------------------------------------------------ row-major reference walker
# A row-major repair walker: one row per trial, a strided gather through
# (m, 3) variable and sign tables, and a strided argmax.  It is the
# differential oracle for the variable-major _schoening_batch.

def _row_major_tables(formula: Cnf3Formula):
    """(m, 3) variable and sign tables; a short clause repeats its last literal."""
    m = formula.clause_count
    vars_ = np.zeros((m, 3), dtype=np.int64)
    negs = np.zeros((m, 3), dtype=bool)
    lengths = np.zeros(m, dtype=np.int64)
    for ci, clause in enumerate(formula.clauses):
        for li in range(3):
            vars_[ci, li], negs[ci, li] = clause[min(li, len(clause) - 1)]
        lengths[ci] = len(clause)
    return vars_, negs, lengths


def _row_major_truth(formula: Cnf3Formula, assignments: np.ndarray) -> np.ndarray:
    """(rows, m) clause truth for (rows, n) assignments."""
    vars_, negs, _ = _row_major_tables(formula)
    return (assignments[:, vars_] ^ negs[None, :, :]).any(axis=2)


def _row_major_batch(formula: Cnf3Formula, rng: SeededRng, trials: int) -> int:
    vars_, negs, lengths = _row_major_tables(formula)
    n = formula.variable_count
    gen = rng.generator
    assignments = gen.integers(0, 2, size=(trials, n)).astype(bool)
    picks = gen.random(size=(trials, 3 * n + 1))
    done = np.zeros(trials, dtype=bool)
    for step in range(3 * n + 1):
        truth = (assignments[:, vars_] ^ negs[None, :, :]).any(axis=2)
        done |= truth.all(axis=1)
        if done.all():
            break
        active = np.flatnonzero(~done)
        first_bad = np.argmax(~truth[active], axis=1)
        clause_len = lengths[first_bad]
        lit = np.minimum((picks[active, step] * clause_len).astype(np.int64),
                         clause_len - 1)
        assignments[active, vars_[first_bad, lit]] ^= True
    done |= _row_major_truth(formula, assignments).all(axis=1)
    return int(done.sum())


def _reference_planted(variable_count: int, rng: SeededRng, density: float):
    """(clauses, planted) from random_planted_formula's draws, checked clause by clause in numpy."""
    gen = rng.generator
    planted = gen.integers(0, 2, size=variable_count).astype(bool)
    clauses = []
    for _ in range(max(1, round(density * variable_count))):
        variables = gen.choice(variable_count, size=3, replace=False)
        while True:
            negs = gen.integers(0, 2, size=3).astype(bool)
            if bool(np.any(planted[variables] ^ negs)):
                break
        clauses.append(tuple((int(v), bool(s)) for v, s in zip(variables, negs)))
    return tuple(clauses), planted


@st.composite
def _planted_formulas(draw, max_variables=14):
    n = draw(st.integers(3, max_variables))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from((4.26, 8.0)))
    return random_planted_formula(n, SeededRng(seed, n), density)[0]


@st.composite
def _edge_case_formulas(draw, max_variables=8):
    """Formulas with 1- and 2-literal clauses, repeated literals and x or not x.

    Literals are drawn in DIMACS form: +v or -v for variable v - 1.
    """
    n = draw(st.integers(1, max_variables))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.one_of(
        st.lists(literal, min_size=1, max_size=3),
        st.lists(st.integers(1, n), min_size=1, max_size=1).map(lambda v: v * 2),
        st.tuples(literal, st.integers(1, n)).flatmap(
            lambda t: st.permutations([t[0], t[1], -t[1]])),
    )
    clauses = draw(st.lists(clause, min_size=1, max_size=4 * n + 2))
    return Cnf3Formula(n, tuple(tuple((abs(lit) - 1, lit < 0) for lit in c) for c in clauses))


@settings(max_examples=80, deadline=None)
@given(formula=st.one_of(_planted_formulas(), _edge_case_formulas()),
       trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(formula=UNSAT, trials=300, seed=0)
@example(formula=Cnf3Formula(3, (((0, False), (0, False), (0, True)),)), trials=1, seed=1)
def test_batch_walker_matches_the_row_major_reference(formula, trials, seed):
    fast, slow = SeededRng(seed), SeededRng(seed)
    assert _schoening_batch(formula, fast, trials) == _row_major_batch(formula, slow, trials)
    assert fast.generator.bit_generator.state == slow.generator.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(formula=st.one_of(_planted_formulas(max_variables=9), _edge_case_formulas()))
def test_formula_evaluation_matches_the_row_major_reference(formula):
    every = np.array(list(product((False, True), repeat=formula.variable_count)))
    truth = _row_major_truth(formula, every)
    for bits, row in zip(every, truth):
        bad = np.flatnonzero(~row)
        assert formula.first_unsatisfied(bits) == (int(bad[0]) if bad.size else None)
        assert formula.satisfied_by(bits) == (not bad.size)


def test_planted_formula_stream_is_pinned():
    # every seed in 0..199 and every size in 3..64, each at both densities
    for seed in range(200):
        size = 3 + seed % 62
        for density in (4.26, 8.0):
            fast, slow = SeededRng(seed, size), SeededRng(seed, size)
            formula, planted = random_planted_formula(size, fast, density)
            clauses, want = _reference_planted(size, slow, density)
            assert formula.clauses == clauses
            assert all(type(v) is int and type(s) is bool
                       for clause in formula.clauses for v, s in clause)
            assert planted.dtype == bool and np.array_equal(planted, want)
            assert fast.generator.bit_generator.state == slow.generator.bit_generator.state


# a numpy release that draws integers or choice differently fails loudly
NUMPY_DRIFT = f"numpy {np.__version__} no longer draws planted formulas as sim.RawDraws decodes"


def _assert_planted_is_the_numpy_draws(size, fast, slow, density):
    # `fast` and `slow` start in the same state
    formula, planted = random_planted_formula(size, fast, density)
    clauses, want = _reference_planted(size, slow, density)
    assert formula.clauses == clauses, NUMPY_DRIFT
    assert np.array_equal(planted, want), NUMPY_DRIFT
    assert fast.generator.bit_generator.state == slow.generator.bit_generator.state, NUMPY_DRIFT


@pytest.mark.parametrize("prior", ["integers", "choice"])
def test_planted_formula_decodes_from_a_buffered_half(prior):
    # a prior scalar draw leaves a buffered uint32 half, which the plant's
    # first sign reads
    for seed in range(40):
        size, bound = 3 + seed % 20, 2 + seed * 7919
        fast, slow = SeededRng(seed, 5), SeededRng(seed, 5)
        for gen in (fast.generator, slow.generator):
            gen.choice(bound) if prior == "choice" else gen.integers(0, bound)
        assert fast.generator.bit_generator.state["has_uint32"] == 1, NUMPY_DRIFT
        _assert_planted_is_the_numpy_draws(size, fast, slow, (4.26, 8.0)[seed % 2])


@pytest.mark.parametrize("size", [65, 127, 256, 383, MAX_SAT_VARIABLES - 1, MAX_SAT_VARIABLES])
def test_planted_formula_decodes_up_to_the_size_cap(size):
    for seed in range(2):
        _assert_planted_is_the_numpy_draws(size, SeededRng(seed, size), SeededRng(seed, size),
                                           (4.26, 8.0)[seed])


def test_planted_formula_decodes_a_forced_lemire_rejection():
    # As in test_plan_decodes_a_forced_lemire_rejection: a PCG64 state with
    # equal halves and top 6 bits 0 outputs the word 0 after its next step.
    # At 8 variables and no buffered half, the plant reads 4 words, and the
    # first Floyd draw, below 6, reads the fifth: Lemire's threshold is
    # 2**32 % 6 = 4, so both of the zero word's halves are rejected.
    size, position = 8, 4
    half = 0x0123456789ABCDEF  # top 6 bits 0
    fast, slow = SeededRng(5), SeededRng(5)
    for gen in (fast.generator, slow.generator):
        state = gen.bit_generator.state
        state["state"]["state"] = half << 64 | half
        gen.bit_generator.state = state
        gen.bit_generator.advance(2**128 - 1 - position)
    probe = np.random.PCG64()
    probe.state = fast.generator.bit_generator.state
    assert probe.random_raw(position + 1)[-1] == 0, NUMPY_DRIFT
    probe.state = fast.generator.bit_generator.state
    reader = RawDraws(probe)
    reader.take([2] * size + [size - 2])
    # the Floyd draw read a second word
    assert reader.mark()[:2] == (position + 2, 1), NUMPY_DRIFT
    _assert_planted_is_the_numpy_draws(size, fast, slow, 8.0)


def _exact_walk_success(formula: Cnf3Formula, flips: int) -> float:
    """Probability that a repair walk from a uniform start satisfies the
    formula within `flips` flips, by dynamic programming over assignments."""
    n = formula.variable_count
    weights = {bits: 2.0 ** -n for bits in product((False, True), repeat=n)}
    success = 0.0
    for flip in range(flips + 1):
        following = {}
        for bits, weight in weights.items():
            clause = formula.first_unsatisfied(bits)
            if clause is None:
                success += weight
            elif flip < flips:
                literals = formula.clauses[clause]
                for variable, _ in literals:
                    moved = bits[:variable] + (not bits[variable],) + bits[variable + 1:]
                    following[moved] = following.get(moved, 0.0) + weight / len(literals)
        weights = following
    return success


class _Branch(Exception):
    def __init__(self, width: int):
        super().__init__(width)
        self.width = width


class _ReplayedGenerator:
    """Stand-in generator: a fixed start assignment, then scripted literal
    picks; asking past the script raises _Branch with the pick's range."""

    def __init__(self, start, picks):
        self.start, self.picks = start, list(picks)

    def integers(self, low, high=None, size=None):
        if size is not None:
            return np.array(self.start)
        if not self.picks:
            raise _Branch(high)
        return self.picks.pop(0)


def test_schoening_run_checks_after_3n_plus_1_flips():
    # the only solution is x0 = x1 = true; from any other assignment the
    # walk moves between the three others, so it can succeed at any flip
    formula = Cnf3Formula(2, (
        ((0, False), (1, False)),
        ((0, True), (1, False)),
        ((0, False), (1, True)),
    ))
    # schoening_run's exact success probability: every start and every
    # sequence of literal picks, each weighted by its probability
    success = 0.0
    for start in product((0, 1), repeat=2):
        pending = [((), 0.25)]
        while pending:
            picks, weight = pending.pop()
            rng = SeededRng(0)
            rng.generator = _ReplayedGenerator(start, picks)
            try:
                success += weight * (schoening_run(formula, rng) is not None)
            except _Branch as branch:
                pending.extend((picks + (k,), weight / branch.width) for k in range(branch.width))
    assert success == pytest.approx(_exact_walk_success(formula, 7), abs=1e-12)
    assert _exact_walk_success(formula, 6) < success - 0.01


def test_batch_walker_matches_the_exact_success_probability():
    formula, _ = random_planted_formula(5, SeededRng(42, 1))
    trials = 50_000
    rate = estimate_success(formula, SeededRng(8, 0), trials).success_rate
    exact = _exact_walk_success(formula, 16)  # 3n + 1 flips
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) < 5 * sigma
    assert abs(rate - _exact_walk_success(formula, 15)) > 5 * sigma


def test_estimate_success_shapes_and_determinism():
    formula, _ = random_planted_formula(7, SeededRng(2, 2))
    stats = estimate_success(formula, SeededRng(3, 3), 500)
    again = estimate_success(formula, SeededRng(3, 3), 500)
    assert stats == again
    assert stats.trials == 500
    assert stats.success_rate == stats.successes / 500
    assert stats.wilson_low <= stats.success_rate <= stats.wilson_high
    with pytest.raises(ParameterError):
        estimate_success(formula, SeededRng(0), 0)


def test_parsed_formulas_past_the_planted_cap_still_estimate():
    # the variable cap bounds planted instances only; a formula built by
    # hand costs walks that scale with its clauses
    formula = Cnf3Formula(600, (((0, False), (299, True), (599, False)),
                                ((1, True), (4, False), (598, True))))
    stats = estimate_success(formula, SeededRng(4), 50)
    assert formula.variable_count > MAX_SAT_VARIABLES
    assert stats.successes == 50  # the clauses share no variable: two flips repair any start


def test_wilson_interval_pinned_values():
    # mpmath at 50 digits with the same z constant
    low, high = wilson_interval(50, 100)
    assert low == pytest.approx(0.40383153036599564, abs=1e-12)
    assert high == pytest.approx(0.59616846963400436, abs=1e-12)
    low0, high0 = wilson_interval(0, 10)
    assert low0 == 0.0
    assert high0 == pytest.approx(0.27753279986288920, abs=1e-12)
    lowf, highf = wilson_interval(10, 10)
    assert highf == pytest.approx(1.0, abs=1e-15) and highf <= 1.0
    assert lowf == pytest.approx(0.72246720013711080, abs=1e-12)


def test_wilson_interval_against_live_oracle():
    mpmath.mp.dps = 40
    z = mpmath.mpf("1.959963984540054")
    s, n = 3, 7
    p = mpmath.mpf(s) / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * mpmath.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    low, high = wilson_interval(s, n)
    assert low == pytest.approx(float(center - half), abs=1e-12)
    assert high == pytest.approx(float(center + half), abs=1e-12)
    with pytest.raises(ParameterError):
        wilson_interval(5, 0)
    with pytest.raises(ParameterError):
        wilson_interval(11, 10)


def test_speedup_report_paths():
    formula, _ = random_planted_formula(8, SeededRng(77, 8))
    report = quantum_speedup_report(formula, SeededRng(78, 0), 800)
    assert report.conclusive
    assert report.classical_restarts >= report.quantum_repetitions >= 1
    assert report.speedup == pytest.approx(
        report.classical_restarts / report.quantum_repetitions)

    dead = quantum_speedup_report(UNSAT, SeededRng(79, 0), 50)
    assert not dead.conclusive
    assert dead.speedup is None


# ----------------------------------------------------- element distinctness

def _planted_collision_oracle(size: int, rng: SeededRng) -> ValueOracle:
    values = rng.generator.permutation(size)
    a, b = rng.generator.choice(size, size=2, replace=False)
    values[b] = values[a]
    return ValueOracle(values)


def test_ed_base_run_is_one_sided():
    hits = 0
    for seed in range(150):
        rng = SeededRng(9090, seed)
        oracle = _planted_collision_oracle(16, rng)
        values = oracle.peek_all()
        run = ed_base_run(oracle, rng)
        assert run.queries == run.sample_queries + run.search_queries
        assert run.sample_queries == math.isqrt(15) + 1
        assert oracle.query_count == run.queries
        if run.pair is not None:
            a, b = run.pair
            assert a < b and values[a] == values[b]
            hits += 1
    assert hits >= 40  # single-collision rate is near 0.5 at this size


def test_ed_base_run_sample_duplicate_costs_no_search():
    oracle = ValueOracle([7, 7, 7, 7])
    run = ed_base_run(oracle, SeededRng(4, 4))
    assert run.pair is not None
    assert run.search_queries == 0
    assert run.sample_queries == 2


def test_ed_base_run_all_distinct_returns_none():
    for seed in range(60):
        oracle = ValueOracle(np.arange(32) * 3)
        run = ed_base_run(oracle, SeededRng(66, seed))
        assert run.pair is None


def test_ed_query_model_values():
    # at rate 1, one pass: sqrt(N) samples plus one search worth 3*sqrt(N)
    assert ed_hybrid_query_model(16, 1.0) == pytest.approx(16.0, abs=1e-12)
    assert ed_hybrid_query_model(256, 1.0) == pytest.approx(64.0, abs=1e-12)
    # default floor 0.5/sqrt(N) gives ceil-rounded sqrt-scaled repetitions
    assert ed_hybrid_query_model(256) == pytest.approx(256.0, abs=1e-12)
    with pytest.raises(ParameterError):
        ed_hybrid_query_model(1)
    with pytest.raises(ParameterError):
        ed_hybrid_query_model(16, 0.0)


def test_ed_query_model_scales_like_three_quarters():
    sizes = (64, 256, 1024, 4096, 16384)
    logs = np.log([ed_hybrid_query_model(s) for s in sizes])
    slope = np.polyfit(np.log(sizes), logs, 1)[0]
    assert abs(slope - 0.75) < 0.1
