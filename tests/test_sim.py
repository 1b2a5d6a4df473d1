"""Core simulator tests: states, oracles, operators, measurement.

The operator tests run every reflection against an independently built
dense matrix so the fast in-place implementations are never the only
witness to their own correctness.  Operators update the state they are
given, so a test that reads an operator's input afterwards steps a copy().
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsearchlab import amplify, sim, walks
from qsearchlab.sim import (
    BitOracle,
    NormalizationError,
    ParameterError,
    SeededRng,
    SizeCapError,
    StateVector,
    ValueOracle,
    WeightTable,
    apply_diffusion,
    apply_diffusion_rotation,
    apply_phase_flip,
    apply_phase_rotation,
    basis_state,
    born_table,
    check_state_size,
    measure,
    uniform_state,
)


# ---------------------------------------------------------------- SeededRng

def test_rng_reproducible_and_stream_separated():
    a = SeededRng(42, 3).generator.random(8)
    b = SeededRng(42, 3).generator.random(8)
    c = SeededRng(42, 4).generator.random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_split_deterministic_and_independent():
    parent = SeededRng(7, 0)
    x = parent.split(5).generator.random(4)
    y = SeededRng(7, 0).split(5).generator.random(4)
    z = parent.split(6).generator.random(4)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # splitting must not consume draws from the parent stream
    fresh = SeededRng(7, 0)
    fresh.split(1)
    assert np.array_equal(fresh.generator.random(4), SeededRng(7, 0).generator.random(4))


def test_rng_builds_its_generator_on_first_use():
    parent = SeededRng(7, 0)
    child = parent.split(5)
    assert "generator" not in vars(parent)
    for rng, key in ((child, (0, 5)), (parent, (0,))):
        want = np.random.default_rng(np.random.SeedSequence(7, spawn_key=key)).random(4)
        assert np.array_equal(rng.generator.random(4), want)
    with pytest.raises(AttributeError):
        parent.missing


def test_rng_rejects_negative_identifiers():
    with pytest.raises(ParameterError):
        SeededRng(-1)
    with pytest.raises(ParameterError):
        SeededRng(0, -2)


# -------------------------------------------------------------- StateVector

def test_state_vector_basics():
    state = uniform_state(4)
    assert state.dimension == 4
    assert state.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state.probabilities(), 0.25)
    assert basis_state(5, 2).amps[2] == 1.0 + 0j


def test_state_vector_rejects_denormalized_input():
    with pytest.raises(NormalizationError):
        StateVector([1.0, 1.0])
    for bad in ([np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0], [1.0, np.nan * 1j]):
        with pytest.raises(NormalizationError):
            StateVector(bad)
    with pytest.raises(ParameterError):
        StateVector([])
    with pytest.raises(ParameterError):
        StateVector([[0.5], [0.5]])


def test_state_vector_settles_small_drift():
    amps = np.full(4, 0.5) * (1.0 + 3e-7)  # within measure tolerance, above drift limit
    state = StateVector(amps)
    assert abs(state.norm() - 1.0) < 1e-12
    assert np.array_equal(amps, np.full(4, 0.5) * (1.0 + 3e-7))  # the input is copied


def test_probabilities_refuse_a_drifted_norm():
    amps = uniform_state(8).amps
    with pytest.raises(NormalizationError):
        StateVector._wrap(amps * np.sqrt(1 + 2e-6)).probabilities()
    for bad in (np.nan, np.inf):
        with pytest.raises(NormalizationError):
            StateVector._wrap(np.array([1.0, bad])).probabilities()
    # inside the tolerance the weights are still divided by their own sum
    near = StateVector._wrap(amps * np.sqrt(1 + 5e-7))
    weights = np.abs(near.amps) ** 2
    assert np.array_equal(near.probabilities(), weights / weights.sum())


def test_state_vector_copy_is_independent():
    state = uniform_state(3)
    clone = state.copy()
    clone.amps[0] = 0.0
    assert state.amps[0] != 0.0
    # a builder's state wraps its own array; its copy still copies
    amps = np.full(4, 0.5)
    wrapped = StateVector._wrap(amps)
    assert wrapped.amps is amps
    assert wrapped.copy().amps is not amps


def test_basis_state_validation():
    with pytest.raises(IndexError):
        basis_state(3, 3)
    with pytest.raises(ParameterError):
        uniform_state(0)


def test_state_constructors_refuse_oversized_dimensions_before_allocating():
    # 2^40 amplitudes would ask for 8-16 TiB, so a missing check fails at once
    for make in (uniform_state, basis_state):
        with pytest.raises(SizeCapError):
            make(2**40)
    largest = sim.STATE_BYTE_CAP // 16
    check_state_size(largest)
    with pytest.raises(SizeCapError):
        check_state_size(largest + 1)


# ------------------------------------------------------------------ oracles

def test_bit_oracle_counts_queries():
    oracle = BitOracle([0, 1, 0, 1])
    assert oracle.size == 4
    assert oracle.query_count == 0
    assert oracle.query(1) == 1
    assert oracle.query(0) == 0
    assert oracle.query_count == 2
    # simulation-side view is free
    assert list(oracle.marked_indices()) == [1, 3]
    assert oracle.query_count == 2


def test_bit_oracle_validation():
    with pytest.raises(ParameterError):
        BitOracle([0, 2, 0])
    with pytest.raises(ParameterError):
        BitOracle([])
    with pytest.raises(IndexError):
        BitOracle([1, 0]).query(2)
    with pytest.raises(ParameterError, match="non-empty"):
        ValueOracle([])


@pytest.mark.parametrize("dtype", [np.uint8, bool])
def test_bit_oracle_owns_its_checked_marked_indices(dtype):
    table = np.zeros(40, dtype=dtype)
    table[[0, 7, 8, 39]] = 1
    oracle = BitOracle(table)
    marked = oracle.marked_indices()
    assert type(marked) is sim._CheckedIndices
    assert np.array_equal(marked, np.flatnonzero(table))
    assert oracle.marked_indices() is marked  # built once
    assert np.array_equal(oracle.peek_all(), table) and oracle.peek_all().dtype == dtype
    for view in (marked, oracle.peek_all()):
        with pytest.raises(ValueError):
            view[0] = 0
    assert oracle.query_count == 0


def test_value_oracle_peek_is_free():
    oracle = ValueOracle([5, 5, 9])
    assert oracle.value(2) == 9
    assert oracle.peek(0) == 5
    assert np.array_equal(oracle.peek_all(), [5, 5, 9])
    assert oracle.query_count == 1


def test_charge_fans_out_to_wrapped_oracles():
    base = ValueOracle([1, 2, 3, 4])
    probe = BitOracle(sim.marked_mask([0, 2], 4), charge_to=(base,))
    probe.query(1)
    probe.charge(3)
    assert probe.query_count == 4
    assert base.query_count == 4
    with pytest.raises(ParameterError):
        probe.charge(-1)


def test_bit_oracle_routes():
    mask = np.array([False, True, False, True, False])
    by_mask = BitOracle(mask)
    by_index = BitOracle(sim.marked_mask([1, 3], 5))
    by_bits = BitOracle([0, 1, 0, 1, 0])
    mask[1] = False  # the oracle keeps its own read-only copy of a mask
    for oracle in (by_mask, by_index, by_bits):
        assert list(oracle.marked_indices()) == [1, 3]
        assert oracle.query(3) == 1
        assert oracle.query(0) == 0
        assert not oracle._bits.flags.writeable
    assert by_mask._bits.dtype == bool and by_bits._bits.dtype == np.uint8
    with pytest.raises(ParameterError):
        BitOracle(np.zeros(0, dtype=bool))
    with pytest.raises(ParameterError):
        BitOracle(np.ones((2, 2), dtype=bool))
    with pytest.raises(ParameterError):
        sim.marked_mask(np.array([True, False]), 4)
    with pytest.raises(IndexError):
        sim.marked_mask([4], 4)


# ---------------------------------------------------------------- operators

def _random_state(rng: SeededRng, dimension: int) -> StateVector:
    raw = rng.generator.normal(size=dimension) + 1j * rng.generator.normal(size=dimension)
    return StateVector(raw / np.linalg.norm(raw))


def test_phase_flip_matches_dense_diagonal():
    rng = SeededRng(11)
    marked = [1, 4, 6]
    dense = np.eye(8, dtype=complex)
    dense[marked, marked] = -1.0
    for _ in range(20):
        state = _random_state(rng, 8)
        oracle = BitOracle(np.isin(np.arange(8), marked).astype(int))
        out = apply_phase_flip(state.copy(), marked, oracle)
        assert np.allclose(out.amps, dense @ state.amps, atol=1e-14)
        assert oracle.query_count == 1


def test_phase_flip_ignores_duplicate_marks():
    state = uniform_state(4)
    oracle = BitOracle([0, 1, 0, 0])
    once = apply_phase_flip(state.copy(), [1], oracle)
    twice = apply_phase_flip(state.copy(), [1, 1], oracle)
    assert np.allclose(once.amps, twice.amps)


def test_phase_flip_sorts_and_dedupes_unsorted_marks():
    rng = SeededRng(16)
    state = _random_state(rng, 6)
    oracle = BitOracle([0, 1, 0, 1, 0, 1])
    sorted_once = apply_phase_flip(state.copy(), [1, 3, 5], oracle)
    for marks in ([5, 1, 3, 1, 5], [3, 3, 1, 5], {5, 3, 1}, np.array([5, 3, 1])):
        assert np.array_equal(apply_phase_flip(state.copy(), marks, oracle).amps, sorted_once.amps)
    with pytest.raises(IndexError):
        apply_phase_flip(state, [3, 6, 1], oracle)
    with pytest.raises(IndexError):
        apply_phase_flip(state, [-1, 2], oracle)


def test_checked_marks_pass_again_with_only_their_ends_range_checked():
    checked = sim._as_index_array([5, 1, 3, 1], 6)
    assert checked.tolist() == [1, 3, 5]
    assert sim._as_index_array(checked, 6) is checked
    with pytest.raises(ValueError):
        checked[0] = 2  # read-only: a search flips through it every round
    with pytest.raises(IndexError):
        sim._as_index_array(checked, 5)
    caller = np.array([0, 2], dtype=np.int64)
    trusted = sim._as_index_array(caller, 4)
    caller[:] = [9, 2]  # the caller's own array stays writeable, and the trusted one apart
    assert trusted.tolist() == [0, 2] and not np.shares_memory(trusted, caller)
    assert sim._as_index_array(trusted, 4) is trusted
    state = _random_state(SeededRng(8), 6)
    oracle = BitOracle([0, 1, 0, 1, 0, 1])
    assert np.array_equal(apply_phase_flip(state.copy(), checked, oracle).amps,
                          apply_phase_flip(state.copy(), [1, 3, 5], oracle).amps)


def test_arrays_derived_from_checked_marks_are_checked_again():
    oracle = BitOracle([0, 1, 0, 1, 0, 0, 0, 0])
    marked = oracle.marked_indices()
    derived = {
        "duplicate fancy index": marked[[1, 1]],
        "reversed slice": marked[::-1],
        "ufunc result": np.add(marked, 0),
    }
    for name, marks in derived.items():
        assert type(marks) is sim._CheckedIndices  # the type survives, the trust does not
        runs = []
        for given in (marks, marks.tolist()):  # three rounds each
            state = apply_diffusion(apply_phase_flip(uniform_state(8), given, oracle))
            runs.append(sim._repeat_round(state, given, oracle, 2).amps)
        assert np.array_equal(runs[0], runs[1]), name
        if name == "duplicate fancy index":  # [3, 3] amplifies index 3
            assert int(np.argmax(runs[0] ** 2)) == 3
    assert marked.trusted and sim._as_index_array(marked, 8) is marked


def _free_counter() -> BitOracle:
    return BitOracle(np.zeros(8, dtype=bool))


_GRID = walks.TorusGrid(4, 2)
_CYCLE = walks.cycle_chain(8).edges
# Each public entry that takes a marked set, as a function of that set; the
# grid entries read 16 cells, the others 8 states.
_MARKED_SET_ENTRIES = {
    "apply_phase_flip": lambda marked: apply_phase_flip(
        _random_state(SeededRng(3), 8), marked, _free_counter()).amps,
    "apply_phase_rotation": lambda marked: apply_phase_rotation(
        _random_state(SeededRng(3), 8), marked, 0.7, _free_counter()).amps,
    "amplification_round": lambda marked: amplify.amplification_round(
        _random_state(SeededRng(3), 8), amplify.uniform_preparation(8), marked,
        _free_counter()).amps,
    "grid_walk_step": lambda marked: walks.grid_walk_step(
        _GRID, _random_state(SeededRng(3), 64), marked, 3).amps,
    "grid_walk_probability_profile": lambda marked: walks.grid_walk_probability_profile(
        _GRID, marked, 5),
    "MarkovChain": lambda marked: walks.MarkovChain(
        8, _CYCLE.rows, _CYCLE.cols, _CYCLE.p, marked=marked).marked_mask,
    "AmplifyParams.good": lambda marked: tuple(vars(amplify.amplitude_amplify(
        amplify.uniform_preparation(8), amplify.AmplifyParams(0.25, marked), SeededRng(5))).values()),
}


@pytest.mark.parametrize("entry", _MARKED_SET_ENTRIES)
def test_a_bool_mask_marks_the_same_set_as_its_indices(entry):
    run = _MARKED_SET_ENTRIES[entry]
    size = 16 if entry.startswith("grid") else 8
    mask = np.isin(np.arange(size), [1, 2, 6])
    assert np.array_equal(run(mask), run([1, 2, 6]))
    assert not np.array_equal(run(mask), run([0, 1]))  # not the indices {0, 1}
    with pytest.raises(ParameterError, match="mask length"):
        run(mask[:-1])


@pytest.mark.parametrize("entry", _MARKED_SET_ENTRIES)
def test_fractional_marked_indices_are_refused(entry):
    for marked in ([1.7], [1, 2.5], np.array([2.0])):
        with pytest.raises(ParameterError, match="integers"):
            _MARKED_SET_ENTRIES[entry](marked)
    assert np.array_equal(_MARKED_SET_ENTRIES[entry]([]), _MARKED_SET_ENTRIES[entry](set()))


def test_phase_rotation_at_pi_is_the_flip():
    rng = SeededRng(12)
    oracle = BitOracle([1, 0, 0, 1, 0])
    state = _random_state(rng, 5)
    rotated = apply_phase_rotation(state.copy(), [0, 3], np.pi, oracle)
    flipped = apply_phase_flip(state.copy(), [0, 3], oracle)
    assert np.allclose(rotated.amps, flipped.amps, atol=1e-12)


def test_diffusion_matches_dense_reflection():
    # 2|u><u| - I with u the uniform superposition
    rng = SeededRng(13)
    n = 7
    u = np.full(n, 1.0 / np.sqrt(n))
    dense = 2.0 * np.outer(u, u) - np.eye(n)
    for _ in range(20):
        state = _random_state(rng, n)
        out = apply_diffusion(state.copy())
        assert np.allclose(out.amps, dense @ state.amps, atol=1e-13)


def test_diffusion_rotation_endpoints():
    rng = SeededRng(14)
    state = _random_state(rng, 6)
    # angle pi gives the negated standard diffusion, angle 0 the identity
    neg = apply_diffusion_rotation(state.copy(), np.pi)
    std = apply_diffusion(state.copy())
    assert np.allclose(neg.amps, -std.amps, atol=1e-12)
    ident = apply_diffusion_rotation(state.copy(), 0.0)
    assert np.allclose(ident.amps, state.amps, atol=1e-15)


def test_operator_chain_preserves_norm():
    rng = SeededRng(15)
    state = uniform_state(16)
    oracle = BitOracle(rng.generator.integers(0, 2, size=16))
    marked = oracle.marked_indices()
    for i in range(2000):
        if i % 4 == 0:
            state = apply_phase_rotation(state, marked, 0.37, oracle)
        elif i % 4 == 1:
            state = apply_diffusion(state)
        elif i % 4 == 2:
            state = apply_phase_flip(state, marked, oracle)
        else:
            state = apply_diffusion_rotation(state, 1.1)
        assert abs(state.norm() - 1.0) < 1e-12


def _random_real_state(rng: SeededRng, dimension: int) -> StateVector:
    raw = rng.generator.normal(size=dimension)
    return StateVector(raw / np.linalg.norm(raw))


def test_state_kinds_stay_real_until_a_complex_phase_enters():
    oracle = BitOracle([0, 1, 0, 0, 1])
    real = np.dtype(np.float64)
    assert uniform_state(5).amps.dtype == real
    assert basis_state(5, 3).amps.dtype == real
    assert StateVector([0.6, 0.8]).amps.dtype == real
    assert StateVector([0, 1]).amps.dtype == real
    assert StateVector(np.array([0.6, 0.8j])).amps.dtype == np.complex128
    assert StateVector([0.6 + 0j, 0.8]).amps.dtype == np.complex128
    assert StateVector(np.array([0.6, 0.8], dtype=np.float32)).amps.dtype == real
    assert StateVector(np.array([0.6, 0.8j], dtype=np.complex64)).amps.dtype == np.complex128
    state = _random_real_state(SeededRng(17), 5)
    assert state.copy().amps.dtype == real
    assert apply_phase_flip(state.copy(), [1, 4], oracle).amps.dtype == real
    assert apply_diffusion(state.copy()).amps.dtype == real
    rotated = apply_phase_rotation(state.copy(), [1, 4], 0.3, oracle)
    assert rotated.amps.dtype == np.complex128
    assert apply_diffusion_rotation(state.copy(), 0.3).amps.dtype == np.complex128
    # once complex, flips and diffusion keep the state complex
    assert apply_phase_flip(rotated.copy(), [1], oracle).amps.dtype == np.complex128
    assert apply_diffusion(rotated.copy()).amps.dtype == np.complex128


@pytest.mark.parametrize("size, marked_count", [(3, 1), (7, 2), (64, 1), (1000, 1), (1000, 150), (4096, 1)])
def test_real_rounds_match_a_complex128_chain(size, marked_count):
    rng = SeededRng(18, size)
    marked = np.sort(rng.generator.choice(size, marked_count, replace=False))
    oracle = BitOracle(np.isin(np.arange(size), marked).astype(int))
    real = uniform_state(size)
    reference = StateVector(np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128))
    for rounds in range(1, 3 * int(np.sqrt(size / marked_count)) + 3):
        # one round of each kind from the same input agrees to within 1e-15
        widened = StateVector._wrap(real.amps.astype(np.complex128))
        real = apply_diffusion(apply_phase_flip(real, marked, oracle))
        same_input = apply_diffusion(apply_phase_flip(widened, marked, oracle))
        assert real.amps.dtype == np.float64
        assert np.max(np.abs(real.amps - same_input.amps)) <= 1e-15
        # along whole chains the rounding differences add up, round by round
        reference = apply_diffusion(apply_phase_flip(reference, marked, oracle))
        assert not reference.amps.imag.any()
        assert np.max(np.abs(real.amps - reference.amps)) <= 1e-15 * rounds


def test_every_operator_preserves_inner_products():
    rng = SeededRng(19)
    dimension = 9
    oracle = BitOracle([0, 1, 1, 0, 0, 0, 1, 0, 0])
    marked = oracle.marked_indices()
    operators = (
        lambda s: apply_phase_flip(s, marked, oracle),
        lambda s: apply_phase_rotation(s, marked, 0.73, oracle),
        apply_diffusion,
        lambda s: apply_diffusion_rotation(s, 2.1),
    )
    for make in (_random_state, _random_real_state):
        for _ in range(10):
            a, b = make(rng, dimension), make(rng, dimension)
            before = np.vdot(a.amps, b.amps)
            for op in operators:
                assert abs(np.vdot(op(a.copy()).amps, op(b.copy()).amps) - before) < 1e-12


# The rotations' allocating formulas, each building the whole state anew, are
# the reference for the rotations that step the state's own buffer.

def _allocating_phase_rotation(amps: np.ndarray, marked, angle: float) -> np.ndarray:
    amps = amps.astype(np.complex128)
    amps[marked] = amps[marked] * np.exp(1j * angle)
    return amps


def _allocating_diffusion_rotation(amps: np.ndarray, angle: float) -> np.ndarray:
    return amps + (np.exp(1j * angle) - 1.0) * amps.mean()


def _rotation_input(kind: str, dimension: int, marked: np.ndarray) -> StateVector:
    """The same state of `kind` on every call; the pending kinds are left unread."""
    rng = SeededRng(dimension, marked.size)
    if kind == "real":
        return _random_real_state(rng, dimension)
    if kind == "complex":
        return _random_state(rng, dimension)
    oracle = sim._CountingOracle()
    if kind == "pending":  # a Grover round leaves its diffusion pending
        state = apply_diffusion(apply_phase_flip(_random_real_state(rng, dimension), marked, oracle))
        assert state._sign < 0 and state._axis is None
        return state
    raw = rng.generator.normal(size=dimension)
    prep = amplify._householder_preparation(raw / np.linalg.norm(raw), cost=1)
    state = amplify.amplification_round(_random_state(rng, dimension), prep, marked, oracle)
    assert state._sign < 0 and state._axis is prep.start
    return state


@pytest.mark.parametrize("kind", ["real", "complex", "pending", "householder"])
@pytest.mark.parametrize("dimension, marked_count", [
    (dimension, marked_count) for dimension in (1, 8, 1000, 2**16) for marked_count in (1, 2, 17)
    if marked_count <= dimension
])
def test_in_place_rotations_equal_the_allocating_formulas(kind, dimension, marked_count):
    marks = SeededRng(dimension, marked_count).generator.choice(dimension, marked_count,
                                                                replace=False)
    marked = sim._as_index_array(marks, dimension)
    read = _rotation_input(kind, dimension, marked).amps
    phased = _allocating_phase_rotation(read, marked, 0.73)
    state = apply_phase_rotation(_rotation_input(kind, dimension, marked), marked, 0.73,
                                 sim._CountingOracle())
    assert state.amps.tobytes() == phased.tobytes()
    # the certainty search's last round: the diffusion rotation of a complex buffer
    apply_diffusion_rotation(state, 2.1)
    assert state.amps.tobytes() == _allocating_diffusion_rotation(phased, 2.1).tobytes()
    diffused = apply_diffusion_rotation(_rotation_input(kind, dimension, marked), 2.1)
    assert diffused.amps.tobytes() == _allocating_diffusion_rotation(read, 2.1).tobytes()


def test_rotations_of_a_read_only_buffer_step_a_fresh_one():
    # amplify wraps a preparation's read-only start state this way
    for make in (_random_real_state, _random_state):
        amps = make(SeededRng(21), 8).amps
        amps.setflags(write=False)
        kept = amps.copy()
        rotations = {
            "phase": (lambda s: apply_phase_rotation(s, [1, 5], 0.73, sim._CountingOracle()),
                      _allocating_phase_rotation(kept, [1, 5], 0.73)),
            "diffusion": (lambda s: apply_diffusion_rotation(s, 2.1),
                          _allocating_diffusion_rotation(kept, 2.1)),
        }
        for name, (rotate, expected) in rotations.items():
            rotated = rotate(StateVector._wrap(amps))
            assert rotated.amps.tobytes() == expected.tobytes(), name
            assert not np.shares_memory(rotated.amps, amps), name
            assert np.array_equal(amps, kept), name


def test_single_grover_round_on_four_items_is_exact():
    # flip plus diffusion moves the uniform 4-state onto the single mark
    oracle = BitOracle([0, 0, 1, 0])
    state = apply_diffusion(apply_phase_flip(uniform_state(4), [2], oracle))
    assert abs(state.amps[2]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(state.amps, 2), 0.0, atol=1e-12)


# ------------------------------------------------------- in-place operators

@settings(max_examples=120, deadline=None)
@given(
    dimension=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**20),
    complex_state=st.booleans(),
    target=st.sampled_from(["uniform", "random", "zero"]),
)
def test_operators_step_and_return_their_input(dimension, data, seed, complex_state, target):
    # unsorted marks with duplicates go through the index helper
    marked = data.draw(st.lists(st.integers(0, dimension - 1), max_size=2 * dimension))
    good = np.array(sorted(set(marked)), dtype=np.int64)
    make = _random_state if complex_state else _random_real_state
    oracle = BitOracle(np.ones(dimension, dtype=int))
    raw = SeededRng(seed, 2).generator.normal(size=dimension)
    if target == "uniform":
        prep = amplify.uniform_preparation(dimension)
    else:
        prep = amplify._householder_preparation(
            raw / np.linalg.norm(raw) if target == "random" else np.eye(dimension)[0], cost=1)
    operators = {
        "flip": lambda s: apply_phase_flip(s, marked, oracle),
        "rotation": lambda s: apply_phase_rotation(s, marked, 0.73, oracle),
        "diffusion": apply_diffusion,
        "diffusion rotation": lambda s: apply_diffusion_rotation(s, 2.1),
        "amplification round": lambda s: amplify.amplification_round(s, prep, good, oracle),
    }
    for name, op in operators.items():
        state = make(SeededRng(seed, 1), dimension)
        kept = state.copy()
        before = state.amps.copy()
        assert op(state) is state, name
        assert np.array_equal(kept.amps, before), name  # the copy is untouched
        if "rotation" not in name:  # only a complex phase makes a real state complex
            assert state.amps.dtype == before.dtype, name
        # the same step on the copy gives the same amplitudes, bit for bit
        assert np.array_equal(op(kept).amps, state.amps), name
    assert oracle.query_count == 2 * 3  # flip, rotation and round, each twice


@pytest.mark.parametrize("dimension", [8, 1024])
def test_owned_rounds_stay_normalized_without_settling(dimension):
    # no operator renormalizes, so the norm holds by unitarity alone, round by
    # round in the pending form and once the amplitudes are read
    state = uniform_state(dimension)
    amps = state.amps
    oracle = BitOracle(np.isin(np.arange(dimension), [1, dimension - 2]).astype(int))
    marked = oracle.marked_indices()
    worst = 0.0
    for _ in range(10_000):
        apply_diffusion(apply_phase_flip(state, marked, oracle))
        pending = _pending_amps(state)
        worst = max(worst, abs(float(np.sqrt(pending @ pending)) - 1.0))
    assert state._r is amps  # the rounds wrote into the state's own buffer
    assert state.amps is amps  # and so did the read
    assert abs(float(np.sqrt(amps @ amps)) - 1.0) <= 1e-12
    assert worst <= 1e-12


def test_measure_checks_the_norm_of_an_owned_buffer():
    state = uniform_state(16)
    amps = state.amps
    oracle = BitOracle(np.eye(16, dtype=int)[3])
    apply_phase_flip(state, [3], oracle)
    amps *= 1.0 + 1e-5
    apply_diffusion(state)  # no operator repairs the drift
    assert state.amps is amps
    with pytest.raises(NormalizationError):
        measure(state, SeededRng(0))
    # a diffusion that sums the drifted amplitudes afresh keeps the drift too
    resummed = apply_diffusion(StateVector._wrap(amps.copy()))
    assert resummed.norm() == pytest.approx(state.norm(), abs=1e-12)
    with pytest.raises(NormalizationError):
        measure(resummed, SeededRng(0))


def test_operators_keep_a_drifted_norm_and_measurement_refuses_it():
    # Squared norm 1 + 1e-7 is past the constructor's drift limit and inside
    # the measurement tolerance.  Every operator is a plain unitary map, so
    # each one keeps that norm; none of them renormalizes.
    drift = 1.0 + 1e-7
    raw = SeededRng(23).generator.normal(size=16)
    amps = raw * (np.sqrt(drift) / np.linalg.norm(raw))
    oracle = BitOracle(np.ones(16, dtype=int))
    marked = np.array([2, 9])

    def drifted():
        return StateVector._wrap(amps.copy())

    prep = amplify.uniform_preparation(16)
    grid = walks.TorusGrid(2, 2)  # 4 cells of 4 directions
    results = {
        "flip": apply_phase_flip(drifted(), marked, oracle),
        "rotation": apply_phase_rotation(drifted(), marked, 0.7, oracle),
        "diffusion": apply_diffusion(drifted()),
        "diffusion rotation": apply_diffusion_rotation(drifted(), 1.3),
        "amplification round": amplify.amplification_round(drifted(), prep, marked, oracle),
        "grid walk step": walks.grid_walk_step(grid, drifted(), [1]),
    }
    for name, state in results.items():
        assert abs(np.vdot(state.amps, state.amps).real - drift) <= 1e-12, name
    chain = walks.torus_chain(4, 2, marked={5})
    stepped = walks.szegedy_step(chain, walks.stationary_edge_state(chain) * np.sqrt(drift))
    assert abs(stepped @ stepped - drift) <= 1e-12
    # past MEASURE_NORM_TOL, an operator's result is refused at measurement
    far = StateVector._wrap(amps * np.sqrt((1.0 + 2e-6) / drift))
    for state in (apply_diffusion(far.copy()), apply_phase_rotation(far.copy(), marked, 0.7, oracle)):
        with pytest.raises(NormalizationError):
            measure(state, SeededRng(0))


# ------------------------------------------------------- pending reflections
# The eager rounds, each a full pass over the amplitudes, are the reference
# for the pending form sign * r + beta * w that the operators keep.

def _eager_flip(amps: np.ndarray, marked) -> np.ndarray:
    idx = np.unique(np.asarray(list(marked), dtype=np.int64))
    amps[idx] = -amps[idx]
    return amps


def _eager_diffusion(amps: np.ndarray) -> np.ndarray:
    return 2.0 * (np.add.reduce(amps) / amps.size) - amps


def _eager_reflection(amps: np.ndarray, start: np.ndarray) -> np.ndarray:
    return 2.0 * np.vdot(start, amps) * start - amps


def _pending_amps(state: StateVector) -> np.ndarray:
    """A state's amplitudes, computed aside so that nothing is written into it."""
    axis = 1.0 if state._axis is None else state._axis
    return state._sign * state._r + state._beta * axis


@pytest.mark.parametrize("dimension, rounds", [(8, 10_000), (1024, 10_000), (2**16, 201)])
def test_carried_sum_rounds_match_a_resumming_reference(dimension, rounds):
    marked = np.array([1, dimension - 2])
    oracle = BitOracle(np.isin(np.arange(dimension), marked).astype(int))
    state = uniform_state(dimension)
    reference = state.amps.copy()
    worst = 0.0
    for _ in range(rounds):
        apply_diffusion(apply_phase_flip(state, marked, oracle))
        # the reference re-sums its amplitudes every round
        reference = _eager_diffusion(_eager_flip(reference, marked))
        worst = max(worst, float(np.abs(_pending_amps(state) - reference).max()),
                    abs(state._carry - np.add.reduce(reference)) / dimension)
    assert state._carry is not None
    assert worst <= 1e-12


@pytest.mark.parametrize("dimension, rounds", [(8, 10_000), (1024, 10_000), (2**16, 201)])
@pytest.mark.parametrize("kind", ["grover", "amplification"])
def test_unread_rounds_match_eager_rounds(kind, dimension, rounds):
    # no amplitude is read until the last round is done
    marked = sim._as_index_array([1, dimension - 2], dimension)
    oracle = BitOracle(sim.marked_mask(marked, dimension))
    prep = amplify.uniform_preparation(dimension)
    state = StateVector._wrap(prep.start.copy())
    reference = prep.start.copy()
    for _ in range(rounds):
        if kind == "grover":
            apply_diffusion(apply_phase_flip(state, marked, oracle))
            reference = _eager_diffusion(_eager_flip(reference, marked))
        else:
            amplify.amplification_round(state, prep, marked, oracle)
            reference = _eager_reflection(_eager_flip(reference, marked), prep.start)
    assert oracle.query_count == rounds
    assert np.abs(state.amps - reference).max() <= 1e-12


_PENDING_STEPS = ("flip", "diffuse", "amplify", "copy", "read", "rotate", "rotate diffusion",
                  "measure")


@settings(max_examples=150, deadline=None)
@given(
    dimension=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**20),
    complex_state=st.booleans(),
    target=st.sampled_from(["uniform", "random", "complex"]),
)
def test_pending_state_follows_any_operator_sequence(dimension, data, seed, complex_state, target):
    make = _random_state if complex_state else _random_real_state
    state = make(SeededRng(seed, 2), dimension)
    reference = state.amps.copy()
    oracle = BitOracle(np.ones(dimension, dtype=int))
    if target == "uniform":
        prep = amplify.uniform_preparation(dimension)
    else:
        raw = SeededRng(seed, 3).generator.normal(size=dimension)
        prep = real = amplify._householder_preparation(raw / np.linalg.norm(raw), cost=1)
        if target == "complex":  # a complex start reflecting a real state makes it complex
            phases = np.exp(1j * SeededRng(seed, 4).generator.uniform(0.0, 6.0, size=dimension))
            prep = amplify.StatePreparation(
                dimension, forward=lambda s: StateVector._wrap(phases * real.forward(s).amps),
                inverse=real.inverse)
    steps = data.draw(st.lists(st.sampled_from(_PENDING_STEPS), min_size=1, max_size=30))
    for number, step in enumerate(steps):
        # unsorted marks with duplicates
        marked = data.draw(st.lists(st.integers(0, dimension - 1), max_size=2 * dimension))
        if step == "flip":
            apply_phase_flip(state, marked, oracle)
            reference = _eager_flip(reference, marked)
        elif step == "diffuse":
            apply_diffusion(state)
            reference = _eager_diffusion(reference)
        elif step == "amplify":
            amplify.amplification_round(state, prep, marked, oracle)
            start = prep.start
            reference = reference.astype(np.result_type(reference, start))
            reference = _eager_reflection(_eager_flip(reference, marked), start)
        elif step == "copy":
            kept, state = state, state.copy()
            assert state._carry is None and state._axis is None
            assert np.array_equal(kept.amps, state.amps) and kept.amps is not state.amps
        elif step == "read":
            assert np.abs(state.amps - reference).max() <= 1e-12
            assert state.amps.dtype == reference.dtype
        elif step == "rotate":
            apply_phase_rotation(state, marked, 0.73, oracle)
            reference = reference.astype(np.complex128)
            reference[np.unique(np.asarray(marked, dtype=np.int64))] *= np.exp(0.73j)
        elif step == "rotate diffusion":
            apply_diffusion_rotation(state, 2.1)
            reference = reference + (np.exp(2.1j) - 1.0) * reference.mean()
        else:
            draws = (SeededRng(seed, 5).split(number), SeededRng(seed, 5).split(number))
            assert measure(state, draws[0]) == measure(StateVector._wrap(reference), draws[1])
        assert np.abs(_pending_amps(state) - reference).max() <= 1e-12
        if state._carry is not None:
            axis = np.ones(dimension) if state._axis is None else state._axis
            assert abs(state._carry - np.vdot(axis, reference)) <= 1e-12 * dimension


@pytest.mark.parametrize("kind", ["grover", "amplification"])
@pytest.mark.parametrize("interrupt", ["read", "copy"])
def test_a_read_in_the_middle_of_a_search_leaves_later_rounds_alone(kind, interrupt):
    dimension = 1024
    marked = sim._as_index_array([3, 700, 701], dimension)
    oracle = BitOracle(sim.marked_mask(marked, dimension))
    prep = amplify.uniform_preparation(dimension)

    def step(state):
        if kind == "grover":
            return apply_diffusion(apply_phase_flip(state, marked, oracle))
        return amplify.amplification_round(state, prep, marked, oracle)

    read, unread = (StateVector._wrap(prep.start.copy()) for _ in range(2))
    for _ in range(20):
        step(read)
        step(unread)
    states = [read]
    if interrupt == "copy":
        states.append(read.copy())  # the copy and the original both go on
    middle = read.amps.copy()
    for _ in range(20):
        for state in states + [unread]:
            step(state)
    for state in states:
        assert np.abs(state.amps - unread.amps).max() <= 1e-12
    assert np.abs(middle - unread.amps).max() > 0.1  # the rounds went on after the read


def test_rounds_allocate_nothing_of_the_state_size():
    dimension = 2**16
    marked = sim._as_index_array([1, dimension - 2], dimension)
    oracle = BitOracle(sim.marked_mask(marked, dimension))
    prep = amplify.uniform_preparation(dimension)
    grover_state, amplified = uniform_state(dimension), StateVector._wrap(prep.start.copy())
    rotated = StateVector._wrap(prep.start.astype(np.complex128))
    rounds = {
        "grover": lambda: apply_diffusion(apply_phase_flip(grover_state, marked, oracle)),
        "amplification": lambda: amplify.amplification_round(amplified, prep, marked, oracle),
        "50 grover": lambda: sim._repeat_round(grover_state, marked, oracle, 50),
        "50 amplification": lambda: sim._repeat_round(amplified, marked, oracle, 50),
        # a complex state's rotations step its buffer
        "phase rotation": lambda: apply_phase_rotation(rotated, marked, 0.73, oracle),
        "diffusion rotation": lambda: apply_diffusion_rotation(rotated, 2.1),
    }
    for name, step in rounds.items():
        tracemalloc.start()
        try:
            for _ in range(3):  # the first round also sums the state once
                step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * dimension * 8, (name, peak)  # 1% of a float64 state's bytes


def _pending_bytes(state: StateVector) -> tuple[bytes, bytes]:
    """The buffer and the pending sign, beta and carry, bit for bit."""
    scalars = np.array([state._sign, state._beta, state._carry], dtype=np.complex128)
    return state._r.tobytes(), scalars.tobytes()


_REPEAT_CASES = [
    (dimension, marked_count, axis)
    for dimension in (1, 2, 8, 1000, 2**10, 2**16)
    for marked_count, axis in ((1, None), (2, None), (16, None), (17, None),
                               (1, "uniform"), (2, "uniform"))
    if marked_count <= dimension
]


@pytest.mark.parametrize("complex_state", [False, True])
@pytest.mark.parametrize("dimension, marked_count, axis", _REPEAT_CASES)
def test_repeated_rounds_match_one_round_calls(dimension, marked_count, axis, complex_state):
    # marked counts on both sides of SMALL_SUM, the one-entry scalar path with an axis,
    # and a dimension that is no power of two, where x / N and x * (1 / N) can differ
    rng = SeededRng(dimension, marked_count)
    make = _random_state if complex_state else _random_real_state
    start = make(rng, dimension)
    marks = rng.generator.choice(dimension, marked_count, replace=False)
    marked = BitOracle(sim.marked_mask(marks, dimension)).marked_indices()
    prep = amplify.uniform_preparation(dimension) if axis else None

    def one_round(state, counter):
        if prep:
            return amplify.amplification_round(state, prep, marked, counter)
        return apply_diffusion(apply_phase_flip(state, marked, counter))

    for count in (0, 1, 2, 50, 300):
        calls, repeated = start.copy(), start.copy()
        call_queries, repeat_queries = sim._CountingOracle(), sim._CountingOracle()
        one_round(calls, call_queries)  # sets the axis and starts the carry
        one_round(repeated, repeat_queries)
        for _ in range(count):
            one_round(calls, call_queries)
        sim._repeat_round(repeated, marked, repeat_queries, count)
        assert _pending_bytes(repeated) == _pending_bytes(calls), count
        assert repeat_queries.query_count == call_queries.query_count == count + 1
        assert repeated.amps.tobytes() == calls.amps.tobytes()


@pytest.mark.parametrize("dimension", [64, 1000, 2**16])
@pytest.mark.parametrize("marked_count", [1, 2, 17])
def test_run_rounds_moves_a_pending_state_to_a_new_axis(dimension, marked_count):
    # Grover rounds leave the state pending about the diffusion; rounds about a
    # Householder start state, then Grover rounds again, each switch its axis
    rng = SeededRng(dimension, marked_count)
    marks = rng.generator.choice(dimension, marked_count, replace=False)
    marked = BitOracle(sim.marked_mask(marks, dimension)).marked_indices()
    raw = rng.generator.normal(size=dimension)
    prep = amplify._householder_preparation(raw / np.linalg.norm(raw), cost=1)
    oracle = sim._CountingOracle()
    state = uniform_state(dimension)
    reference = state.amps.copy()
    for count, axis in ((5, None), (7, prep.start), (3, None)):
        stepped = sim._run_rounds(state, marked, oracle, count, axis)
        for _ in range(count):
            reference = _eager_flip(reference, marked)
            reference = (_eager_diffusion(reference) if axis is None
                         else _eager_reflection(reference, axis))
        assert stepped is state and state._axis is axis and state._carry is not None
        assert np.abs(_pending_amps(state) - reference).max() <= 1e-12
    assert oracle.query_count == 15
    assert np.abs(state.amps - reference).max() <= 1e-12


_CARRY_STEPS = ("flip", "diffuse", "copy", "rounds")


@settings(max_examples=150, deadline=None)
@given(
    dimension=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**20),
    complex_state=st.booleans(),
)
def test_carried_sum_follows_any_operator_sequence(dimension, data, seed, complex_state):
    make = _random_state if complex_state else _random_real_state
    state = make(SeededRng(seed, 2), dimension)
    oracle = BitOracle(np.ones(dimension, dtype=int))
    steps = data.draw(st.lists(st.sampled_from(_CARRY_STEPS), min_size=1, max_size=30))
    for step in steps:
        if step == "flip":
            # unsorted marks with duplicates
            marked = data.draw(st.lists(st.integers(0, dimension - 1), max_size=2 * dimension))
            apply_phase_flip(state, marked, oracle)
        elif step == "diffuse":
            apply_diffusion(state)
        elif step == "rounds":
            # one round through the operators, then more as one multi-round call
            marked = data.draw(st.lists(st.integers(0, dimension - 1), max_size=2 * dimension))
            apply_diffusion(apply_phase_flip(state, marked, oracle))
            sim._repeat_round(state, marked, oracle, data.draw(st.integers(0, 60)))
        else:
            state = state.copy()
            assert state._carry is None  # the next diffusion sums the copy afresh
        if state._carry is not None:
            assert abs(state._carry - np.add.reduce(state.amps)) <= 1e-12 * dimension


def test_constructed_and_copied_states_carry_nothing():
    oracle = BitOracle([0, 1, 0, 0])

    def carrying():
        state = apply_diffusion(apply_phase_flip(uniform_state(4), [1], oracle))
        assert state._carry is not None
        return state

    prep = amplify.uniform_preparation(4)
    built = (
        StateVector([0.5, 0.5, 0.5, 0.5]),
        StateVector._wrap(carrying().amps.copy()),
        uniform_state(4),
        basis_state(4, 2),
        carrying().copy(),
        apply_phase_rotation(carrying(), [1], 0.3, oracle),
        apply_diffusion_rotation(carrying(), 0.3),
        apply_phase_flip(uniform_state(4), [1], oracle),
    )
    # each holds its amplitudes as they are: no pending reflection, no axis
    for state in built:
        assert state._carry is None and state._axis is None
        assert (state._sign, state._beta) == (1.0, 0.0)
    # stepped in place, a carrying state keeps carrying, and a read leaves the
    # carry as it is
    carried = carrying()
    assert carried._sign == -1.0  # its reflection is pending
    carry = carried._carry
    assert carried.amps.sum() == pytest.approx(carry, abs=1e-15)
    assert carried._carry == carry and (carried._sign, carried._beta) == (1.0, 0.0)
    assert apply_phase_flip(carried, [2], oracle) is carried and carried._carry is not None
    assert apply_diffusion(carried) is carried and carried._carry is not None
    # an amplification round carries <s|a> about its start state s instead
    amplified = amplify.amplification_round(carrying(), prep, np.array([1]), oracle)
    assert amplified._axis is prep.start
    assert amplified._carry == pytest.approx(np.vdot(prep.start, amplified.amps), abs=1e-15)
    assert apply_diffusion(amplified)._axis is None  # another axis: written out first


def test_callers_edit_amplitudes_in_place_on_a_copy():
    # The operators are the only writers of a state's amps.  A caller edits a
    # copy(), which carries nothing, so the next diffusion sums what the
    # caller wrote.
    oracle = BitOracle([0, 1, 0, 0, 0, 0, 0, 0])
    carried = apply_diffusion(apply_phase_flip(uniform_state(8), [1], oracle))
    edited = carried.copy()
    edited.amps[2] = -edited.amps[2]
    written = edited.amps.copy()
    reflected = 2.0 * np.add.reduce(written) / 8 - written
    assert np.array_equal(apply_diffusion(edited).amps, reflected)
    # The same edit written into the carried state itself leaves its carry
    # stale, and the diffusion then reflects about the old mean.
    stale = carried._carry
    carried.amps[2] = -carried.amps[2]
    assert np.array_equal(carried.amps, written)
    assert carried._carry == stale != np.add.reduce(carried.amps)
    wrong = apply_diffusion(carried)
    assert not np.allclose(wrong.amps, reflected)
    # That reflection is not unitary, and no operator hides it by rescaling:
    # measurement refuses the result.
    assert abs(wrong.norm() - 1.0) > 1e-2
    with pytest.raises(NormalizationError):
        measure(wrong, SeededRng(0))


# -------------------------------------------------------------- measurement

def test_measure_follows_probabilities():
    rng = SeededRng(1001)
    amps = np.zeros(6)
    amps[1], amps[4] = np.sqrt(0.3), np.sqrt(0.7)
    state = StateVector(amps)
    draws = [measure(state, rng) for _ in range(4000)]
    assert set(draws) <= {1, 4}
    share = draws.count(4) / len(draws)
    assert abs(share - 0.7) < 0.03


def test_measure_rejects_denormalized_state():
    bad = StateVector._wrap(np.full(4, 0.6))
    with pytest.raises(NormalizationError):
        measure(bad, SeededRng(0))
    for amps in ([1.0, np.nan], [np.nan, 0.0], [1.0, np.inf], [1.0, np.nan * 1j]):
        with pytest.raises(NormalizationError):
            measure(StateVector._wrap(np.array(amps)), SeededRng(0))


class _FixedDraw:
    """Stand-in rng whose every uniform draw is the same value."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def _sample(amps, draw: float) -> int:
    return WeightTable(np.asarray(amps)).sample(draw)


def test_weight_table_never_returns_a_zero_weight_index():
    # the weights 0.25, 0.0625, 0 total 0.3125, so the draw is scaled into [0, 0.3125)
    assert _sample([0.5, 0.25, 0.0], 0.9) == 1
    assert _sample([0.5, 0.25, 0.0], 0.6) == 0
    top = float(np.nextafter(1.0, 0.0))
    assert _sample([0.5, 0.25, 0.0], top) == 1
    assert _sample([0.0, 1.0, 0.0, 0.0], top) == 1
    assert _sample([0.0, 1.0, 0.0, 0.0], 0.0) == 1
    assert measure(StateVector([0.0, 1.0, 0.0, 0.0]), _FixedDraw(top)) == 1
    assert measure(StateVector([0.0, 1.0, 0.0, 0.0]), _FixedDraw(0.0)) == 1
    # only a subnormal total lets the scaled draw round up onto the total
    tiny = float(np.sqrt(5e-324))
    assert tiny * tiny == 5e-324 and top * 5e-324 == 5e-324
    assert _sample([0.0, tiny, 0.0], top) == 1
    assert _sample([0.0, tiny * 1j, 0.0], top) == 1
    # first_marked finds that entry for a draw that lands there, as sample does
    table = WeightTable(np.array([0.0, tiny, 0.0]))
    assert table.first_marked([0.0, top, 0.5], np.array([1])) == (0, 1)
    assert table.first_marked([0.0, top, 0.5], np.array([0, 2])) is None


def test_born_cumulative_is_kind_blind_and_checks_the_norm():
    rng = SeededRng(20)
    real = _random_real_state(rng, 7).amps
    table = born_table(real)
    edges = table.edges
    assert np.array_equal(edges, born_table(real.astype(np.complex128)).edges)
    assert np.array_equal(edges, np.cumsum(real * real))
    # a real and a complex state with equal moduli measure alike
    for draw in (0.0, 0.3, 0.999):
        assert table.sample(draw) == born_table(real * np.exp(0.4j)).sample(draw)
    with pytest.raises(NormalizationError):
        born_table(np.full(4, 0.6))


def _reference_sample(weights: np.ndarray, draw: float) -> tuple[int, np.ndarray]:
    # the one-level sampler: one sequential running sum over every weight
    edges = np.cumsum(weights)
    index = int(np.searchsorted(edges, draw * edges[-1], side="right"))
    if index == edges.size:
        index = int(np.searchsorted(edges, edges[-1], side="left"))
    return index, edges


_TABLE_SIZES = st.one_of(
    st.integers(sim.ONE_LEVEL_MAX - 2, sim.ONE_LEVEL_MAX + 2),
    st.builds(lambda blocks, step: blocks * sim.BLOCK + step,
              st.integers(sim.ONE_LEVEL_MAX // sim.BLOCK + 1, 40), st.integers(-1, 1)),
)


def _marked_for(marks: str, weights: np.ndarray, gen) -> np.ndarray:
    size = weights.size
    if marks == "empty":
        return np.array([], dtype=np.int64)
    if marks == "one":
        return np.array([gen.integers(size)])
    if marks == "zero weight":
        return np.flatnonzero(weights == 0)
    if marks == "block bounds":  # a random side of every block bound, and the last index
        bounds = np.arange(sim.BLOCK, size, sim.BLOCK)
        return np.unique(np.append(bounds - gen.integers(0, 2, bounds.size), size - 1))
    return np.sort(gen.choice(size, size // 2, replace=False))  # half of all indices


@settings(max_examples=80, deadline=None)
@given(
    size=_TABLE_SIZES,
    shape=st.sampled_from(["random", "zero blocks", "one amplitude", "subnormal"]),
    seed=st.integers(0, 2**20),
    complex_state=st.booleans(),
    marks=st.sampled_from(["empty", "one", "zero weight", "block bounds", "half"]),
)
def test_weight_table_matches_one_sequential_running_sum(size, shape, seed, complex_state, marks):
    gen = SeededRng(seed, 3).generator
    amps = gen.normal(size=size)
    if shape == "zero blocks":  # whole blocks, and so whole block totals, of zero weight
        blocks = amps[: size - size % sim.BLOCK].reshape(-1, sim.BLOCK)
        blocks[gen.random(len(blocks)) < 0.6] = 0.0
    elif shape in ("one amplitude", "subnormal"):
        amps = np.zeros(size)
        spots = gen.choice(size, size=1 if shape == "one amplitude" else 3, replace=False)
        amps[spots] = 1.0 if shape == "one amplitude" else gen.uniform(1e-162, 1e-160, size=3)
    if complex_state:
        amps = amps * np.exp(1j * gen.uniform(0, 2 * np.pi, size=size))
    assume(amps.any())
    if shape != "subnormal":
        amps = amps / np.linalg.norm(amps)
    weights = np.square(np.abs(amps))
    assume(weights.sum() > 0)  # subnormal amplitudes can square to zero
    table = born_table(amps) if shape != "subnormal" else WeightTable(amps)
    marked = _marked_for(marks, weights, gen)
    # after the random draws, one draw aimed mid-slice at each of the first
    # four marked indices of nonzero weight
    running = np.cumsum(weights)
    aimed = marked[weights[marked] > 0][:4]
    draws = np.concatenate([gen.random(40), [0.0, float(np.nextafter(1.0, 0.0))],
                            (running[aimed] - weights[aimed] / 2) / running[-1]])
    for draw in draws:
        index = table.sample(float(draw))
        assert weights[index] > 0
        expected, edges = _reference_sample(weights, float(draw))
        if size <= sim.ONE_LEVEL_MAX:
            assert np.array_equal(table.edges, edges)
        target = float(draw) * edges[-1]
        if np.abs(edges - target).min() > 1e-12 * edges[-1]:
            assert index == expected
    # first_marked stops where the first sampled index that is marked stands,
    # from every starting draw on
    chosen = set(marked.tolist())
    sampled = [table.sample(float(draw)) for draw in draws]
    for start in range(draws.size):
        first = next(((p, i) for p, i in enumerate(sampled[start:]) if i in chosen), None)
        assert table.first_marked(draws[start:].tolist(), marked) == first
    if shape != "subnormal":
        with pytest.raises(NormalizationError):
            born_table(amps * (1.0 + 1e-5))


def _table_slice(table: WeightTable, index: int) -> tuple[float, float]:
    # the table's own running sum before and after `index`, as sample reads it
    if table._amps is None:
        return (float(table.edges[index - 1]) if index else 0.0), float(table.edges[index])
    block, offset = divmod(index, sim.BLOCK)
    base = float(table.edges[block - 1]) if block else 0.0
    local = np.cumsum(np.square(table._amps[block * sim.BLOCK:(block + 1) * sim.BLOCK]))
    return base + (float(local[offset - 1]) if offset else 0.0), base + float(local[offset])


def _ulps_around(target: float) -> list[float]:
    out = [target]
    for direction in (np.inf, -np.inf):
        value = target
        for step in range(1, 5):
            value = float(np.nextafter(value, direction))
            if step in (1, 2, 4):
                out.append(value)
    return out


@pytest.mark.parametrize("count", [1, 2, 16])
@pytest.mark.parametrize("size", [64, 8192, 8193, 65536])
def test_two_valued_miss_check_agrees_with_the_weight_table(size, count):
    # States of a sweep from uniform, 0-40 rounds deep: a draw at either end
    # of a marked slice of the table's own running sum, or a few ulps of the
    # target off it, that first_marked maps to a mark is never called a miss;
    # a draw mid-slice of an unmarked index further than the documented
    # margin from every marked slice always is.
    gen = SeededRng(size, count).generator
    marked = sim._as_index_array(np.sort(gen.choice(size, count, replace=False)), size)
    marks = marked.tolist()
    state, sink = uniform_state(size), sim._CountingOracle()
    hits = clear = 0
    for rounds in range(41):
        if rounds:
            sim._run_rounds(state, marked, sink, 1)
        amps = state.amps
        table = born_table(amps)
        for index in marks:
            for end in _table_slice(table, index):
                for target in _ulps_around(end):
                    draw = target / table.total
                    if not 0.0 <= draw < 1.0 or table.first_marked([draw], marked) is None:
                        continue
                    hits += 1
                    assert not sim._two_valued_misses(amps, marked, [draw]), (rounds, index)
        a, b = float(amps[marks[0]]), float(amps[next(i for i in range(size) if i not in marks)])
        a2, b2 = a * a, b * b
        total = count * a2 + (size - count) * b2
        delta = (2 * size + 4 * sim.BLOCK + 64) * 2.0**-53 * total
        starts = [(p - j) * b2 + j * a2 for j, p in enumerate(marks)]
        near = {i for p in marks for i in range(p - 2, p + 3)}
        picks = sorted(near.union(gen.choice(size, 64).tolist()).difference(marks))
        draws = []
        for i in picks:
            if not 0 <= i < size:
                continue
            before = int(np.searchsorted(marked, i))
            middle = (i - before) * b2 + before * a2 + b2 / 2
            gap = min(middle - s - a2 if p < i else s - middle for s, p in zip(starts, marks))
            if gap > delta:
                draws.append(middle / total)
        clear += len(draws)
        assert sim._two_valued_misses(amps, marked, draws), rounds
        assert not draws or table.first_marked(draws, marked) is None
    assert hits and clear
    for scale in (1.0 - 2e-6, 1.0 + 2e-6):  # squared norm off by 2e-6
        with pytest.raises(NormalizationError):
            sim._two_valued_misses(amps * np.sqrt(scale), marked, [0.5])


def test_measure_deterministic_under_fixed_stream():
    state = uniform_state(9)
    a = [measure(state, SeededRng(5, 2)) for _ in range(1)]
    b = [measure(state, SeededRng(5, 2)) for _ in range(1)]
    assert a == b
