"""Amplitude amplification tests: repetition calculus and the amplifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearchlab import grover, sim
from qsearchlab.amplify import (
    AmplifyParams,
    AmplifyResult,
    StatePreparation,
    amplification_round,
    amplification_schedule_scale,
    amplitude_amplify,
    classical_repetitions,
    predicted_repetitions,
    uniform_preparation,
    _householder_preparation,
)
from qsearchlab.sim import BitOracle, ParameterError, SeededRng, SizeCapError, StateVector


# mpmath: ceil(pi / (4*asin(sqrt(eps))) - 1/2) at 50 digits
def test_predicted_repetitions_pinned_values():
    assert predicted_repetitions(1.0) == 0
    assert predicted_repetitions(0.5) == 1
    assert predicted_repetitions(0.25) == 1
    assert predicted_repetitions(0.04) == 4
    assert predicted_repetitions(0.01) == 8
    assert predicted_repetitions(1e-4) == 79


def test_schedule_scale_matches_rounding_rule():
    # mpmath: pi / (4*asin(0.1)) = 7.840854384487761465706
    assert amplification_schedule_scale(0.01) == pytest.approx(
        7.840854384487761465706, abs=1e-14
    )
    for eps in (1e-4, 0.003, 0.04, 0.2, 0.7, 1.0):
        scale = amplification_schedule_scale(eps)
        assert predicted_repetitions(eps) == math.ceil(scale - 0.5)


def test_classical_repetitions_is_inverse_rate():
    assert classical_repetitions(0.01) == 100
    assert classical_repetitions(1.0) == 1
    assert classical_repetitions(0.3) == 4


def test_quantum_never_behind_classical():
    # the square-root schedule must not lose to plain retries at low rates
    for eps in np.linspace(1e-4, 0.5, 400):
        assert predicted_repetitions(float(eps)) <= classical_repetitions(float(eps))
    for eps in np.linspace(1e-4, 0.1, 200):
        assert predicted_repetitions(float(eps)) < classical_repetitions(float(eps))


def test_repetition_calculus_validation():
    for fn in (predicted_repetitions, amplification_schedule_scale, classical_repetitions):
        with pytest.raises(ParameterError):
            fn(0.0)
        with pytest.raises(ParameterError):
            fn(1.5)


# ------------------------------------------------------------- preparations

def test_uniform_preparation_builds_uniform_state():
    prep = uniform_preparation(9, cost=2)
    state = prep.forward(sim.basis_state(9))
    assert np.allclose(state.amps, 1.0 / 3.0, atol=1e-12)
    assert prep.cost == 2


def test_preparation_hits_arbitrary_target():
    rng = SeededRng(40)
    raw = rng.generator.normal(size=12)
    target = raw / np.linalg.norm(raw)
    prep = _householder_preparation(target, cost=1)
    made = prep.forward(sim.basis_state(12)).amps
    assert np.allclose(made, target, atol=1e-10)


def test_preparation_is_unitary_involution_carrier():
    prep = uniform_preparation(6)
    state = prep.forward(sim.basis_state(6))
    back = prep.inverse(state)
    assert abs(back.amps[0]) == pytest.approx(1.0, abs=1e-10)


def test_uniform_preparation_refuses_oversized_dimensions():
    with pytest.raises(SizeCapError):
        uniform_preparation(2**40)


@pytest.mark.parametrize("target", ["uniform", "random", "zero"])
def test_start_is_the_forward_image_of_zero_and_read_only(target):
    dimension = 11
    prep = _preparation(target, dimension, SeededRng(42).generator)
    made = prep.forward(sim.basis_state(dimension)).amps
    assert np.array_equal(prep.start, made)
    assert prep.start.dtype == made.dtype
    assert prep.start is prep.start  # computed once
    assert not prep.start.flags.writeable
    with pytest.raises(ValueError):
        prep.start[0] = 0.0


def _preparation(target, dimension, gen):
    if target == "uniform":
        return uniform_preparation(dimension)
    if target == "random":
        raw = gen.normal(size=dimension)
        return _householder_preparation(raw / np.linalg.norm(raw), cost=1)
    # target e0: the Householder vector vanishes and the preparation is the identity
    return _householder_preparation(np.eye(dimension)[0], cost=1)


# ---------------------------------------------------------------- amplifier

def test_amplify_exact_floor_boosts_success():
    dimension, good = 64, (3, 40, 41, 42)
    prep = uniform_preparation(dimension)
    params = AmplifyParams(good=good, success_floor=len(good) / dimension)
    wins = 0
    for seed in range(200):
        result = amplitude_amplify(prep, params, SeededRng(555, seed))
        assert result.good == (result.index in good)
        wins += result.good
    # three rounds lift 1/16 to sin(7*asin(0.25))^2 which is about 0.96
    assert wins >= 175


def test_amplify_query_accounting_exact_mode():
    dimension, good = 36, (0,)
    prep = uniform_preparation(dimension, cost=3)
    params = AmplifyParams(good=good, success_floor=1.0 / dimension)
    result = amplitude_amplify(prep, params, SeededRng(1, 2))
    rounds = predicted_repetitions(1.0 / dimension)
    assert result.rounds == rounds
    assert result.queries == (2 * rounds + 1) * 3 + rounds


def test_amplify_lower_bound_mode_is_one_sided():
    dimension = 32
    good = tuple(range(8))  # true rate far above the declared floor
    prep = uniform_preparation(dimension)
    params = AmplifyParams(good=good, success_floor=1.0 / dimension,
                           floor_is_lower_bound=True)
    wins = 0
    for seed in range(120):
        result = amplitude_amplify(prep, params, SeededRng(808, seed))
        if result.good:
            assert result.index in good
            wins += 1
    assert wins >= 100


def test_amplification_round_matches_manual_reflections():
    rng = SeededRng(91)
    dimension = 10
    for target in ("uniform", "random", "zero"):
        prep = _preparation(target, dimension, rng.generator)
        counter = BitOracle(sim.marked_mask([2, 7], dimension))
        raw = rng.generator.normal(size=dimension)
        for state in (prep.forward(sim.basis_state(dimension)), StateVector(raw / np.linalg.norm(raw))):
            stepped = amplification_round(state.copy(), prep, np.array([2, 7]), counter)
            # manual route: flip good, then reflect about the prepared state
            manual = sim.apply_phase_flip(state.copy(), [2, 7], BitOracle(sim.marked_mask([2, 7], dimension)))
            u = prep.forward(sim.basis_state(dimension)).amps
            reflect = 2.0 * np.outer(u, u.conj()) - np.eye(dimension)
            assert np.allclose(stepped.amps, reflect @ manual.amps, atol=1e-12)
            # and it is the conjugated reflection A (2|0><0| - I) A^-1 it stands for
            forward, inverse = (
                np.column_stack([apply(sim.basis_state(dimension, j)).amps for j in range(dimension)])
                for apply in (prep.forward, prep.inverse))
            about_zero = -np.eye(dimension)
            about_zero[0, 0] = 1.0
            assert np.allclose(stepped.amps, forward @ about_zero @ inverse @ manual.amps, atol=1e-12)
        assert counter.query_count == 2


def _plain_lower_bound_amplify(prep, mask, success_floor, rng):
    # Reference for the sweep: every attempt prepares a complex128 start state,
    # runs its rounds, measures and verifies, drawing lazily as it goes.
    good_idx = np.flatnonzero(mask)
    counter = BitOracle(mask)
    cap = float(predicted_repetitions(success_floor) + 1)
    budget = grover.unknown_count_budget(cap)
    start = np.zeros(prep.dimension, dtype=np.complex128)
    start[0] = 1.0
    ceiling, spent = 1.0, 0
    rounds_used = applications = 0
    while spent < budget:
        rounds = int(rng.generator.integers(0, math.ceil(ceiling)))
        spent += rounds + 1
        state = prep.forward(StateVector(start))
        for _ in range(rounds):
            state = amplification_round(state, prep, good_idx, counter)
        applications += 2 * rounds + 1
        rounds_used += rounds
        index = sim.measure(state, rng)
        if counter.query(index):
            break
        ceiling = min(grover.SCHEDULE_GROWTH * ceiling, cap)
    return AmplifyResult(index=index, good=bool(mask[index]),
                         queries=applications * prep.cost + counter.query_count,
                         rounds=rounds_used)


@settings(max_examples=60, deadline=None)
@given(
    dimension=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**20),
    success_floor=st.floats(0.005, 1.0),
    cost=st.integers(0, 3),
    uniform=st.booleans(),
)
def test_lower_bound_sweep_matches_plain_restart_loop(
    dimension, data, seed, success_floor, cost, uniform
):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=dimension, max_size=dimension)))
    if uniform:
        prep = uniform_preparation(dimension, cost=cost)
    else:
        raw = SeededRng(seed, 1).generator.normal(size=dimension)
        prep = _householder_preparation(raw / np.linalg.norm(raw), cost=cost)
    params = AmplifyParams(good=mask, success_floor=success_floor, floor_is_lower_bound=True)
    rng, ref_rng = SeededRng(seed, 6), SeededRng(seed, 6)
    swept = amplitude_amplify(prep, params, rng)
    assert swept == _plain_lower_bound_amplify(prep, mask, success_floor, ref_rng)
    assert rng.random() == ref_rng.random()


def test_amplification_round_preserves_inner_products():
    gen = SeededRng(93).generator
    dimension = 12
    raw = gen.normal(size=dimension)
    counter = BitOracle(sim.marked_mask([1, 5, 6], dimension))
    for prep in (uniform_preparation(dimension), _householder_preparation(raw / np.linalg.norm(raw), 1)):
        for _ in range(10):
            pair = []
            for _ in range(2):
                amps = gen.normal(size=dimension) + 1j * gen.normal(size=dimension)
                pair.append(StateVector(amps / np.linalg.norm(amps)))
            a, b = pair
            before = np.vdot(a.amps, b.amps)
            for op in (prep.forward, lambda s: amplification_round(s, prep, np.array([1, 5, 6]), counter)):
                assert abs(np.vdot(op(a.copy()).amps, op(b.copy()).amps) - before) < 1e-12


def test_amplify_with_empty_good_set_never_claims_success():
    prep = uniform_preparation(8)
    params = AmplifyParams(good=(), success_floor=0.125)
    for seed in range(10):
        result = amplitude_amplify(prep, params, SeededRng(66, seed))
        assert result.good is False


def test_amplify_params_validation():
    with pytest.raises(ParameterError):
        AmplifyParams(good=(1,), success_floor=0.0)
    with pytest.raises(ParameterError):
        AmplifyParams(good=(1,), success_floor=1.5)
    identity = lambda state: state  # noqa: E731
    for dimension, cost in ((0, 1), (4, -1)):
        with pytest.raises(ParameterError, match="preparation"):
            StatePreparation(dimension, identity, identity, cost)
    prep = uniform_preparation(6)
    short_mask = AmplifyParams(good=np.array([True, False]), success_floor=0.5)
    with pytest.raises(ParameterError):
        amplitude_amplify(prep, short_mask, SeededRng(0))
