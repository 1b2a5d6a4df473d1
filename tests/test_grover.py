"""Grover search tests.

Round counts and success probabilities are pinned to values computed
independently with mpmath at 50 digits, so the implementation under test
never certifies itself.
"""

import math
from bisect import bisect_left

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearchlab import amplify, grover, sim
from qsearchlab.amplify import AmplifyParams, predicted_repetitions, uniform_preparation
from qsearchlab.grover import (
    GroverParams,
    optimal_query_count,
    prepared_certain_state,
    search,
    search_unknown_count,
    search_with_certainty,
    success_probability,
    success_profile,
)
from qsearchlab.sim import (
    BitOracle,
    ParameterError,
    SeededRng,
    StateVector,
    UnsupportedModeError,
)


def _planted_oracle(size: int, marked) -> BitOracle:
    bits = np.zeros(size, dtype=int)
    bits[list(marked)] = 1
    return BitOracle(bits)


# mpmath: ceil(pi / (4*asin(sqrt(k/N))) - 1/2) at 50 digits
PINNED_ROUNDS = {
    (2, 1): 1,
    (3, 1): 1,
    (4, 1): 1,
    (16, 1): 3,
    (50, 3): 3,
    (64, 1): 6,
    (100, 1): 8,
    (100, 4): 4,
    (256, 1): 13,
    (1024, 1): 25,
    (1, 1): 0,
    (7, 7): 0,
}

# mpmath: sin((2t+1)*asin(sqrt(k/N)))^2 at 50 digits, rounded to 20
PINNED_SUCCESS = {
    (100, 1, 8): 0.98266395777058211682,
    (64, 1, 6): 0.99658568078679904412,
    (16, 1, 3): 0.9613189697265625,
    (256, 1, 13): 0.98618624010367278260,
    (100, 4, 4): 0.94283764422698598400,
    (50, 3, 5): 0.16586292419981538755,
    (1024, 1, 25): 0.99946124474440792808,
}


def test_optimal_query_count_pinned_values():
    for (size, k), expected in PINNED_ROUNDS.items():
        assert optimal_query_count(size, k) == expected


def test_optimal_query_count_agrees_with_mpmath_oracle():
    mpmath.mp.dps = 50
    for size in (9, 33, 77, 128, 200, 741):
        for k in (1, 2, size // 3, size):
            theta = mpmath.asin(mpmath.sqrt(mpmath.mpf(k) / size))
            want = int(mpmath.ceil(mpmath.pi / (4 * theta) - mpmath.mpf(1) / 2))
            assert optimal_query_count(size, k) == want


def test_optimal_query_count_validation():
    with pytest.raises(ParameterError):
        optimal_query_count(0, 1)
    with pytest.raises(ParameterError):
        optimal_query_count(4, 0)
    with pytest.raises(ParameterError):
        optimal_query_count(4, 5)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_optimal_query_count_monotone_in_marked_count(size):
    counts = [optimal_query_count(size, k) for k in range(1, size + 1)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0  # everything marked needs no rounds


@given(
    st.integers(min_value=1, max_value=2000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
    )
)
@settings(max_examples=120, deadline=None)
def test_round_count_coincides_with_amplification_prediction(pair):
    size, k = pair
    assert optimal_query_count(size, k) == predicted_repetitions(k / size)


def test_real_valued_schedule_sits_below_quarter_pi_bound():
    # the bound holds for the continuous schedule; integer rounding can cross it
    for size in range(2, 200):
        for k in range(1, size + 1):
            theta = math.asin(math.sqrt(k / size))
            assert math.pi / (4 * theta) - 0.5 < (math.pi / 4) * math.sqrt(size / k)


def test_success_probability_pinned_values():
    for (size, k, rounds), expected in PINNED_SUCCESS.items():
        assert success_probability(size, k, rounds) == pytest.approx(expected, abs=1e-15)
    assert success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert success_probability(10, 3, 0) == pytest.approx(0.3, abs=1e-15)


def test_success_probability_validation():
    with pytest.raises(ParameterError):
        success_probability(10, 0, 1)
    with pytest.raises(ParameterError):
        success_probability(10, 11, 1)
    with pytest.raises(ParameterError):
        success_probability(10, 1, -1)


def test_success_profile_tracks_closed_form():
    # the dense simulation must land on the rotation formula at every round
    for size, k in ((1, 1), (2, 1), (17, 5), (40, 1), (64, 8), (256, 1)):
        profile = success_profile(size, k, 30)
        formula = np.array([success_probability(size, k, t) for t in range(31)])
        assert np.abs(profile - formula).max() < 1e-9
        assert profile[0] == pytest.approx(k / size, abs=1e-12)


def test_success_profile_validation():
    with pytest.raises(ParameterError):
        success_profile(4, 1, -1)
    with pytest.raises(ParameterError):
        success_profile(4, 0, 3)


# ----------------------------------------------------------- exact variants

def test_certainty_state_uses_pinned_query_counts():
    for size, k in ((4, 1), (16, 1), (64, 1), (100, 4), (256, 1)):
        oracle = _planted_oracle(size, range(k))
        state = prepared_certain_state(oracle, GroverParams(size, k))
        marked_mass = float(np.abs(state.amps[:k] ** 2).sum())
        assert marked_mass >= 1.0 - 1e-9
        assert oracle.query_count == PINNED_ROUNDS[(size, k)]


def test_certainty_on_four_items_is_one_query_and_exact():
    oracle = _planted_oracle(4, [3])
    state = prepared_certain_state(oracle, GroverParams(4, 1))
    assert oracle.query_count == 1
    assert abs(state.amps[3]) == pytest.approx(1.0, abs=1e-12)


def test_certainty_search_always_returns_marked():
    for size, k in ((8, 1), (30, 4), (100, 4), (256, 1)):
        marked = set(range(size - k, size))
        oracle = _planted_oracle(size, marked)
        for seed in range(25):
            hit = search_with_certainty(oracle, GroverParams(size, k), SeededRng(99, seed))
            assert hit in marked


def test_certainty_with_everything_marked_costs_nothing():
    oracle = _planted_oracle(5, range(5))
    state = prepared_certain_state(oracle, GroverParams(5, 5))
    assert oracle.query_count == 0
    assert np.allclose(np.abs(state.amps) ** 2, 0.2)


def test_certainty_mode_validation():
    with pytest.raises(UnsupportedModeError):
        prepared_certain_state(_planted_oracle(8, [0]), GroverParams(8))
    with pytest.raises(ParameterError):
        prepared_certain_state(_planted_oracle(8, [0, 1]), GroverParams(8, 1))
    with pytest.raises(ParameterError):
        prepared_certain_state(_planted_oracle(8, [0]), GroverParams(4, 1))


# ------------------------------------------------------------- plain search

def test_search_charges_scheduled_rounds():
    oracle = _planted_oracle(64, [10])
    search(oracle, GroverParams(64, 1), SeededRng(3))
    assert oracle.query_count == PINNED_ROUNDS[(64, 1)]


def test_search_success_rate_matches_formula():
    size, k = 16, 1
    marked = {11}
    hits = 0
    trials = 600
    for seed in range(trials):
        oracle = _planted_oracle(size, marked)
        if search(oracle, GroverParams(size, k), SeededRng(77, seed)) in marked:
            hits += 1
    expected = PINNED_SUCCESS[(16, 1, 3)]
    assert abs(hits / trials - expected) < 0.04


def test_search_size_mismatch_raises():
    with pytest.raises(ParameterError):
        search(_planted_oracle(8, [0]), GroverParams(16, 1), SeededRng(0))


def test_grover_params_validation():
    with pytest.raises(ParameterError):
        GroverParams(0, 1)
    with pytest.raises(ParameterError):
        GroverParams(8, 9)


# ----------------------------------------------------- unknown marked count

def test_unknown_count_search_finds_planted_marks():
    rng_master = 2024
    for size, k in ((64, 1), (128, 8), (256, 3)):
        found = 0
        for seed in range(60):
            rng = SeededRng(rng_master, seed)
            marked = set(int(v) for v in rng.generator.choice(size, size=k, replace=False))
            oracle = _planted_oracle(size, marked)
            hit = search_unknown_count(oracle, size, rng)
            if hit is not None:
                assert hit in marked  # verified result must be genuine
                found += 1
        assert found >= 40


def test_unknown_count_search_reports_absence_as_none():
    for seed in range(20):
        oracle = _planted_oracle(32, [])
        assert search_unknown_count(oracle, 32, SeededRng(8, seed)) is None


def test_unknown_count_search_respects_query_cap():
    oracle = _planted_oracle(4096, [7])
    hit = search_unknown_count(oracle, 4096, SeededRng(1, 1), max_queries=5)
    assert oracle.query_count <= 5
    assert hit is None or hit == 7


def _plain_schedule(rng, cap, budget, states=None):
    # the restart schedule written out as one loop, with the caller's
    # measurement draw after every round count; `states` collects the
    # generator state before the first attempt and after each one
    drawn = []
    ceiling, spent = 1.0, 0
    if states is not None:
        states.append(rng.generator.bit_generator.state)
    while spent < budget:
        rounds = int(rng.generator.integers(0, math.ceil(ceiling)))
        spent += rounds + 1
        drawn.append((rounds, rng.random()))
        if states is not None:
            states.append(rng.generator.bit_generator.state)
        ceiling = min(grover.SCHEDULE_GROWTH * ceiling, max(cap, 1.0))
    return drawn


def _decoded(rng, cap, budget):
    _, rounds, draws, _ = grover._plan(rng.generator.bit_generator, cap, budget)
    return list(zip(rounds, draws))


@pytest.mark.parametrize("cap", [1.0, 4.5, 32.0])
def test_restart_schedule_matches_the_plain_loop(cap):
    budget = grover.unknown_count_budget(cap)
    for seed in range(5):
        drawn = _decoded(SeededRng(77, seed), cap, budget)
        assert drawn == _plain_schedule(SeededRng(77, seed), cap, budget)
        assert max(rounds for rounds, _ in drawn) < math.ceil(cap)
        assert sum(rounds + 1 for rounds, _ in drawn) >= budget


def test_unknown_count_budget_values():
    assert grover.unknown_count_budget(1.0) == 21
    assert grover.unknown_count_budget(4.5) == 53
    assert grover.unknown_count_budget(math.sqrt(1024)) == 300
    assert _decoded(SeededRng(0), 8.0, 0) == []


def _assert_plan_is_the_scalar_draws(rng, reference, cap, budget):
    # `rng` and `reference` start in the same state; `reference` draws the
    # plan with scalar numpy calls, and `rng` is placed after every prefix
    bit_generator = rng.generator.bit_generator
    entry, rounds, draws, ends = grover._plan(bit_generator, cap, budget)
    states = []
    assert list(zip(rounds, draws)) == _plain_schedule(reference, cap, budget, states)
    scalar = np.random.Generator(np.random.PCG64())
    for prefix, state in enumerate(states):
        if prefix:
            sim.place_draws(bit_generator, entry, ends[prefix - 1])
        else:
            bit_generator.state = entry
        assert bit_generator.state == state
        scalar.bit_generator.state = state
        assert rng.random() == scalar.random()
    return ends


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cap=st.one_of(st.integers(1, 300).map(float), st.floats(1.0, 300.0)),
    budget=st.one_of(st.none(), st.integers(0, 3000)),
    prior=st.sampled_from([None, "choice", "integers"]),
    bound=st.integers(2, 10**6),
)
def test_plan_decodes_the_scalar_draws(seed, cap, budget, prior, bound):
    if budget is None:
        budget = grover.unknown_count_budget(cap)
    rng, reference = SeededRng(seed, 3), SeededRng(seed, 3)
    if prior is not None:  # leaves a buffered uint32 half, as find_minimum's first draw does
        for gen in (rng.generator, reference.generator):
            if prior == "choice":
                gen.choice(bound)
            else:
                gen.integers(0, bound)
        assert rng.generator.bit_generator.state["has_uint32"] == 1
    _assert_plan_is_the_scalar_draws(rng, reference, cap, budget)


def test_plan_decodes_a_forced_lemire_rejection():
    # PCG64 steps its 128-bit state, then outputs rotr(high ^ low, high >> 58)
    # of it, so a state with equal halves and top 6 bits 0 outputs the word 0.
    # integers(0, 7) rejects both of that word's uint32 halves: Lemire's
    # threshold is 2**32 % 7 = 4.  With cap 7, every attempt from the
    # eleventh on draws below 7; the zero word goes where the first of them
    # to read a fresh word reads it.
    cap, budget = 7.0, grover.unknown_count_budget(7.0)
    _, rounds, _, ends = grover._plan(SeededRng(5).generator.bit_generator, cap, budget)
    attempt = next(a for a in range(10, len(rounds)) if not ends[a - 1][1])
    position = ends[attempt - 1][0]
    half = 0x0123456789ABCDEF  # top 6 bits 0
    rng, reference = SeededRng(5), SeededRng(5)
    for gen in (rng.generator, reference.generator):
        state = gen.bit_generator.state
        state["state"]["state"] = half << 64 | half
        gen.bit_generator.state = state
        gen.bit_generator.advance(2**128 - 1 - position)
    assert reference.generator.bit_generator.random_raw(position + 1)[-1] == 0
    reference.generator.bit_generator.advance(2**128 - 1 - position)
    ends = _assert_plan_is_the_scalar_draws(rng, reference, cap, budget)
    # three words: the zero word (both halves rejected), the next word's low
    # half, and the measurement draw's word
    assert ends[attempt][0] - ends[attempt - 1][0] == 3


def test_plan_draws_past_32_bits_as_numpy_does():
    # ceilings past 2**32 draw from whole words: numpy's 64-bit Lemire
    for seed in range(3):
        rng, reference = SeededRng(seed, 9), SeededRng(seed, 9)
        _assert_plan_is_the_scalar_draws(rng, reference, 1e12, 10**11)
    with pytest.raises(ParameterError):
        grover._plan(SeededRng(0).generator.bit_generator, 1e20, 10**21)
    with pytest.raises(ValueError):
        _plain_schedule(SeededRng(0), 1e20, 10**21)


def test_seeded_streams_are_pcg64():
    # grover._plan decodes raw PCG64 words
    for rng in (SeededRng(0), SeededRng(3, 1).split(2)):
        assert type(rng.generator.bit_generator) is np.random.PCG64


def _plain_unknown_count(oracle, size, rng, min_marked=None, max_queries=None):
    # Reference for the sweep: every attempt restarts from a complex128 uniform
    # state, runs its rounds, measures and verifies, drawing lazily as it goes.
    cap = math.sqrt(size / (min_marked or 1))
    budget = grover.unknown_count_budget(cap)
    if max_queries is not None:
        budget = min(budget, max(0, max_queries))
    marked = oracle.marked_indices()
    ceiling, spent = 1.0, 0
    while spent < budget:
        rounds = int(rng.generator.integers(0, math.ceil(ceiling)))
        spent += rounds + 1
        state = StateVector(np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128))
        for _ in range(rounds):
            state = sim.apply_diffusion(sim.apply_phase_flip(state, marked, oracle))
        index = sim.measure(state, rng)
        if oracle.query(index):
            return index
        ceiling = min(grover.SCHEDULE_GROWTH * ceiling, max(cap, 1.0))
    return None


@st.composite
def _marked_sets(draw, max_size=48):
    size = draw(st.integers(1, max_size))
    everything = set(range(size))
    marked = draw(st.one_of(st.just(set()), st.just(everything),
                            st.sets(st.integers(0, size - 1), max_size=size)))
    return size, marked


@settings(max_examples=80, deadline=None)
@given(
    case=_marked_sets(),
    seed=st.integers(0, 2**20),
    min_marked=st.one_of(st.none(), st.integers(1, 48)),
    max_queries=st.one_of(st.none(), st.integers(0, 80)),
)
def test_sweep_matches_plain_restart_loop(case, seed, min_marked, max_queries):
    size, marked = case
    if min_marked is not None:
        min_marked = min(min_marked, size)
    outcomes = []
    for run in (search_unknown_count, _plain_unknown_count):
        base = _planted_oracle(size, marked)
        oracle = BitOracle(sim.marked_mask(sorted(marked), size), charge_to=(base,))
        rng = SeededRng(seed, 4)
        hit = run(oracle, size, rng, min_marked=min_marked, max_queries=max_queries)
        outcomes.append((hit, oracle.query_count, base.query_count, rng.random()))
    assert outcomes[0] == outcomes[1]


def test_sweep_skips_a_depth_without_pending_attempts():
    # At this seed the sweep sees its first hit at attempt 8 (one round);
    # two rounds hold only later attempts, and attempt 7 (three rounds) hits
    # before it.  Stopping at the empty depth would charge 14 queries, not 12.
    outcomes = []
    for run in (search_unknown_count, _plain_unknown_count):
        oracle, rng = _planted_oracle(16, [0]), SeededRng(39, 4)
        outcomes.append((run(oracle, 16, rng), oracle.query_count, rng.random()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (0, 12)


def _every_draw_sweep(oracle, rng, cap, budget, axis=None):
    # Reference for the sweep: the same trajectory, but every depth is
    # visited and every pending draw is sampled to its index, misses
    # included.  Returns what _sweep_restarts does.
    start = sim.uniform_state(oracle.size) if axis is None else StateVector._wrap(axis.copy())
    bit_generator = rng.generator.bit_generator
    entry, rounds, draws, ends = grover._plan(bit_generator, cap, budget)
    if not rounds:
        return [], None, False
    by_depth = {}
    for attempt, depth in enumerate(rounds):
        by_depth.setdefault(depth, []).append(attempt)
    marks = oracle.peek_all()
    indices = [0] * len(rounds)
    first_hit = len(rounds)
    sink = sim._CountingOracle()
    state, depth = start.copy(), 0
    for target in sorted(by_depth):
        group = by_depth[target]
        pending = group[:bisect_left(group, first_hit)]
        if not pending:
            continue
        state = sim._run_rounds(state, oracle.marked_indices(), sink, target - depth, axis)
        depth = target
        table = sim.born_table(state.amps)
        for attempt in pending:
            indices[attempt] = table.sample(draws[attempt])
            if marks[indices[attempt]]:
                first_hit = attempt
                break
    charged = min(first_hit + 1, len(rounds))
    sim.place_draws(bit_generator, entry, ends[charged - 1])
    oracle.charge(sum(rounds[:charged]))
    oracle.charge(charged)
    index = indices[charged - 1]
    return rounds[:charged], index, bool(marks[index])


_REFERENCE_CASES = [(count, size) for count in (0, 1, 2, 17, "half")
                    for size in (64, 8192, 8193, 16384, 65536)]
# nothing marked, at sizes that are not powers of two
_REFERENCE_CASES += [(0, size) for size in (3, 12, 1000, 1555, 12345)]


@pytest.mark.parametrize("count, size", _REFERENCE_CASES)
def test_sweep_matches_the_every_draw_reference(monkeypatch, count, size):
    # One- and two-level tables; budgets spent without a hit (no marks, or a
    # small max_queries) charge the plan's last attempt, an unmarked miss,
    # whose index amplitude_amplify returns.  Amplification runs about the
    # uniform preparation and about a random Householder one.
    count = size // 2 if count == "half" else count
    marked = np.sort(SeededRng(size, 8).generator.choice(size, count, replace=False))
    target = SeededRng(size, 9).generator.standard_normal(size)
    preps = (uniform_preparation(size),
             amplify._householder_preparation(target / np.linalg.norm(target), 2))
    params = AmplifyParams(max(count, 1) / size, marked, floor_is_lower_bound=True)
    runs = [(seed, max_queries) for seed in (0, 1) for max_queries in (None, 5)]
    real = grover._sweep_restarts
    for seed, max_queries in runs:
        outcomes = []
        for sweep in (real, _every_draw_sweep):
            swept = []

            def spy(*args, sweep=sweep, swept=swept):
                swept.append(sweep(*args))
                return swept[-1]

            monkeypatch.setattr(grover, "_sweep_restarts", spy)
            monkeypatch.setattr(amplify, "_sweep_restarts", spy)
            oracle, rng = _planted_oracle(size, marked), SeededRng(seed, 6)
            hit = search_unknown_count(oracle, size, rng, max_queries=max_queries)
            found = (hit, oracle.query_count, rng.generator.bit_generator.state)
            amplified = []
            for prep in preps:
                rng = SeededRng(seed, 6)
                result = amplify.amplitude_amplify(prep, params, rng)
                amplified.append((result, rng.generator.bit_generator.state))
            outcomes.append((found, amplified, swept))
        assert len(outcomes[0][2]) == 3 and outcomes[0] == outcomes[1], (seed, max_queries)
        if not count:
            assert outcomes[0][0][0] is None
            assert not any(result.good for result, _ in outcomes[0][1])


@pytest.mark.parametrize("size", [64, 1000, 16384])
def test_a_search_with_nothing_marked_builds_one_weight_table(monkeypatch, size):
    # No draw can verify, so the sweep steps straight to its last attempt's
    # depth and measures there; visiting every depth builds 8, 17 and 27
    # tables at these sizes.
    tables = []
    original = sim.born_table
    monkeypatch.setattr(sim, "born_table", lambda amps: tables.append(amps.size) or original(amps))
    assert search_unknown_count(_planted_oracle(size, []), size, SeededRng(0)) is None
    assert tables == [size]


@settings(max_examples=60, deadline=None)
@given(case=_marked_sets(), rounds=st.integers(0, 40), complex_state=st.booleans())
def test_owned_rounds_equal_a_pure_operator_chain(case, rounds, complex_state):
    size, marked = case
    marked = np.array(sorted(marked), dtype=np.int64)
    dtype = np.complex128 if complex_state else np.float64
    start = np.full(size, 1.0 / math.sqrt(size), dtype=dtype)
    owned_oracle, pure_oracle = _planted_oracle(size, marked), _planted_oracle(size, marked)
    owned = StateVector(start.copy())
    buffer = owned.amps
    stepped = sim._run_rounds(owned, marked, owned_oracle, rounds)
    pure = StateVector(start.copy())
    for _ in range(rounds):
        pure = sim.apply_diffusion(sim.apply_phase_flip(pure, marked, pure_oracle))
    assert stepped.amps is buffer
    assert np.array_equal(stepped.amps, pure.amps)
    assert owned_oracle.query_count == pure_oracle.query_count == rounds


@settings(max_examples=40, deadline=None)
@given(case=_marked_sets(), seed=st.integers(0, 2**20))
def test_sweep_leaves_the_start_state_unmodified(case, seed):
    size, marked = case
    marked = np.array(sorted(marked), dtype=np.int64)
    axis = np.random.default_rng(seed).standard_normal(size)
    axis /= np.linalg.norm(axis)  # writeable, unlike a preparation's start
    before = axis.copy()
    cap = math.sqrt(size)
    grover._sweep_restarts(
        _planted_oracle(size, marked), SeededRng(seed, 7),
        cap, grover.unknown_count_budget(cap), axis,
    )
    assert np.array_equal(axis, before)


def test_searches_sort_check_their_marked_set_once(monkeypatch):
    # every round flips through the indices the search checked at its start
    checks = []
    original = sim._as_index_array

    def counted(marked, dimension):
        checks.append(type(marked) is not sim._CheckedIndices)
        return original(marked, dimension)

    monkeypatch.setattr(sim, "_as_index_array", counted)
    marked = [3, 17, 40]
    params = GroverParams(size=64, marked_count=3)
    runs = {
        "search": lambda oracle: search(oracle, params, SeededRng(5)),
        "certain": lambda oracle: search_with_certainty(oracle, params, SeededRng(5)),
        "unknown": lambda oracle: search_unknown_count(oracle, 64, SeededRng(5)),
    }
    for name, run in runs.items():
        checks.clear()
        oracle = _planted_oracle(64, marked)
        run(oracle)
        assert sum(checks) == 1, name
        assert len(checks) >= 2, name  # the flips went through the checked indices


def test_searches_on_one_oracle_share_its_checked_marks(monkeypatch):
    checks = []
    original = sim._as_index_array
    monkeypatch.setattr(sim, "_as_index_array", lambda marked, dimension: (
        checks.append(type(marked) is not sim._CheckedIndices) or original(marked, dimension)))
    oracle = _planted_oracle(64, [3, 17, 40])
    search(oracle, GroverParams(size=64, marked_count=3), SeededRng(5))
    search_unknown_count(oracle, 64, SeededRng(6))
    assert checks.count(True) == 1 and len(checks) > 2
