"""Walk tests: torus geometry, coined search, quantized chains, subset walks.

Every unitary here is cross-checked against a dense matrix assembled
independently from the definitions (shift plus per-cell coin; two
edge-space reflections through the square-root transition matrix), and
hitting times are checked against closed forms and Monte Carlo.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearchlab import sim, walks
from qsearchlab.sim import (
    BitOracle,
    NormalizationError,
    ParameterError,
    SeededRng,
    SizeCapError,
    StateVector,
    ValueOracle,
)
from qsearchlab.walks import (
    JohnsonChain,
    MarkovChain,
    TorusGrid,
    WalkCosts,
    classical_hitting,
    collision_vertex_probability,
    cycle_chain,
    default_shot_cap,
    ed_walk,
    exact_hitting_mean,
    expected_steps_to_success,
    grid_classical_search,
    grid_walk_probability_profile,
    grid_walk_search,
    grid_walk_step,
    johnson_chain,
    localized_coined_state,
    marked_pair_probability,
    measure_edge,
    recommended_step_budget,
    stationary_edge_state,
    szegedy_find_marked,
    szegedy_step,
    torus_chain,
    uniform_coined_state,
)


def _dense_chain(matrix, marked=()) -> MarkovChain:
    """Chain from a dense P, listing the pairs where P or P^T is nonzero."""
    arr = np.asarray(matrix, dtype=np.float64)
    rows, cols = np.nonzero((arr != 0) | (arr.T != 0))
    return MarkovChain(arr.shape[0], rows, cols, arr[rows, cols], marked)


def _complete_chain(size: int, marked=()) -> MarkovChain:
    """Uniform walk on the complete graph, without self-loops."""
    return _dense_chain((np.ones((size, size)) - np.eye(size)) / (size - 1), marked)


# ------------------------------------------------------------ torus geometry

def _cell_index(grid: TorusGrid, coords) -> int:
    """Reference cell of wrapped coordinates, axis 0 least significant."""
    return sum((c % grid.side) * grid.side**axis for axis, c in enumerate(coords))


def _neighbor(grid: TorusGrid, cell: int, direction: int) -> int:
    """Reference for shift_map and scan_order: the adjacent cell along signed
    axis direction 2*a + s, where s = 0 steps forward."""
    coords = list(grid.coordinates(cell))
    axis, sign = divmod(direction, 2)
    coords[axis] += 1 if sign == 0 else -1
    return _cell_index(grid, coords)


def test_grid_coordinate_roundtrip():
    for side, dims in ((4, 2), (3, 3), (2, 2)):
        grid = TorusGrid(side, dims)
        for cell in range(grid.cells):
            assert _cell_index(grid, grid.coordinates(cell)) == cell


def test_grid_neighbors_and_reverse():
    grid = TorusGrid(4, 2)
    # hand-checked: cell 5 is (1, 1); +x lands on (2, 1) = 6, -y on (1, 0) = 1
    assert grid.coordinates(5) == (1, 1)
    assert _neighbor(grid, 5, 0) == 6
    assert _neighbor(grid, 5, 3) == 1
    assert grid.shift_map()[5 * 4 + 0] == 6 * 4 + 1
    assert grid.shift_map()[5 * 4 + 3] == 1 * 4 + 2
    for dims in (2, 3):
        g = TorusGrid(3, dims)
        for cell in range(g.cells):
            for direction in range(g.direction_count):
                back = _neighbor(g, _neighbor(g, cell, direction), g.reverse(direction))
                assert back == cell


def test_grid_distance_is_a_wraparound_metric():
    grid = TorusGrid(6, 2)
    assert grid.distance(0, _cell_index(grid, (5, 0))) == 1
    assert grid.distance(0, _cell_index(grid, (3, 3))) == 6
    for a in (0, 7, 20):
        assert grid.distance(a, a) == 0
        for b in (1, 9, 35):
            assert grid.distance(a, b) == grid.distance(b, a)


def test_shift_map_is_an_involutive_permutation():
    # an involution is its own inverse, so a step may gather through it
    for side, dims in ((4, 2), (3, 3), (2, 2), (2, 3), (5, 2), (3, 2), (4, 3), (5, 3)):
        grid = TorusGrid(side, dims)
        shift = grid.shift_map()
        assert sorted(shift) == list(range(grid.cells * grid.direction_count))
        assert np.array_equal(shift[shift], np.arange(shift.size))
        k = grid.direction_count
        by_neighbor = [_neighbor(grid, cell, d) * k + grid.reverse(d)
                       for cell in range(grid.cells) for d in range(k)]
        assert shift.tolist() == by_neighbor


def test_scan_order_visits_adjacent_cells():
    for side, dims in ((4, 2), (3, 3)):
        grid = TorusGrid(side, dims)
        order = grid.scan_order()
        assert sorted(order) == list(range(grid.cells))
        for a, b in zip(order, order[1:]):
            assert grid.distance(int(a), int(b)) == 1


def _reference_scan_order(grid: TorusGrid) -> list:
    # coordinate tuples, axis 0 fastest; each further axis stacks the order so
    # far once per layer, every second copy reversed
    order = [(c,) for c in range(grid.side)]
    for _ in range(grid.dimensions - 1):
        extended = []
        for layer in range(grid.side):
            block = order if layer % 2 == 0 else order[::-1]
            extended.extend(coords + (layer,) for coords in block)
        order = extended
    return [_cell_index(grid, c) for c in order]


@pytest.mark.parametrize("dims", [2, 3])
def test_scan_order_matches_the_coordinate_reference(dims):
    for side in range(2, 14):
        grid = TorusGrid(side, dims)
        order = grid.scan_order()
        assert order.dtype == np.int64
        assert order.tolist() == _reference_scan_order(grid)


def test_grid_validation():
    with pytest.raises(ParameterError):
        TorusGrid(4, 1)
    with pytest.raises(ParameterError):
        TorusGrid(1, 2)
    grid = TorusGrid(3, 2)
    with pytest.raises(IndexError):
        grid.coordinates(9)


# ------------------------------------------------------------- coined walk

def _dense_coined_step(grid: TorusGrid, marked) -> np.ndarray:
    """Independent dense operator: flip-flop shift, then per-cell coin."""
    k = grid.direction_count
    n = grid.cells * k
    shift = np.zeros((n, n))
    for cell in range(grid.cells):
        for direction in range(k):
            src = cell * k + direction
            dst = _neighbor(grid, cell, direction) * k + grid.reverse(direction)
            shift[dst, src] = 1.0
    coin = np.zeros((n, n))
    grover_coin = 2.0 / k * np.ones((k, k)) - np.eye(k)
    for cell in range(grid.cells):
        block = -np.eye(k) if cell in marked else grover_coin
        coin[cell * k:(cell + 1) * k, cell * k:(cell + 1) * k] = block
    return coin @ shift


def test_grid_walk_step_matches_dense_operator():
    rng = SeededRng(21)
    for side, dims, marked in ((4, 2, {0, 5}), (3, 3, {13}), (2, 2, set())):
        grid = TorusGrid(side, dims)
        dense = _dense_coined_step(grid, marked)
        assert np.abs(dense @ dense.T - np.eye(dense.shape[0])).max() < 1e-12
        for _ in range(5):
            raw = rng.generator.normal(size=grid.cells * grid.direction_count)
            raw = raw / np.linalg.norm(raw)
            for amps in (raw, raw * np.exp(0.7j)):
                stepped = grid_walk_step(grid, StateVector(amps), marked)
                assert stepped.amps.dtype == amps.dtype
                assert np.abs(stepped.amps - dense @ amps).max() < 1e-12
        with pytest.raises(ParameterError):
            grid_walk_step(grid, StateVector(raw[:-1] / np.linalg.norm(raw[:-1])), marked)


def test_walk_locality_is_exact():
    # amplitude cannot outrun the shift: after t steps nothing lives
    # beyond distance t from the start cell
    grid = TorusGrid(8, 2)
    state = localized_coined_state(grid, 0)
    for t in range(1, 5):
        state = grid_walk_step(grid, state, {0})
        probs = state.probabilities().reshape(grid.cells, -1).sum(axis=1)
        outside = [c for c in range(grid.cells) if grid.distance(0, c) > t]
        assert float(probs[outside].sum()) == 0.0


def _scatter_coined_step(grid: TorusGrid, amps: np.ndarray, marked) -> np.ndarray:
    """Reference step on complex amplitudes: scatter through the shift, then the coin."""
    flat = np.asarray(amps, dtype=np.complex128)
    shifted = np.empty_like(flat)
    shifted[grid.shift_map()] = flat
    shifted = shifted.reshape(grid.cells, grid.direction_count)
    out = 2.0 * shifted.mean(axis=1, keepdims=True) - shifted
    cells = sorted(set(marked))
    out[cells] = -shifted[cells]
    return out.reshape(-1)


@st.composite
def _grid_cases(draw):
    grid = TorusGrid(draw(st.integers(2, 6)), draw(st.sampled_from((2, 3))))
    marked = draw(st.lists(st.integers(0, grid.cells - 1), max_size=6))
    start = draw(st.sampled_from(("uniform", "localized", "random")))
    if start == "uniform":
        state = uniform_coined_state(grid)
    elif start == "localized":
        state = localized_coined_state(grid, draw(st.integers(0, grid.cells - 1)))
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        raw = gen.normal(size=grid.cells * grid.direction_count)
        state = StateVector(raw / np.linalg.norm(raw))
    return grid, marked, state


@given(_grid_cases())
@settings(max_examples=80, deadline=None)
def test_real_grid_step_equals_complex_scatter_step(case):
    grid, marked, state = case
    assert state.amps.dtype == np.float64
    reference = state.amps.astype(np.complex128)
    for _ in range(3):
        state = grid_walk_step(grid, state, marked)
        reference = _scatter_coined_step(grid, reference, marked)
        assert state.amps.dtype == np.float64
        assert np.array_equal(state.amps, reference.real)
        assert np.all(reference.imag == 0.0)


def _cell_major_step(grid: TorusGrid, amps: np.ndarray, marked) -> np.ndarray:
    """Reference step on the public (cell, direction) layout: gather, then the coin."""
    k = grid.direction_count
    marked_idx = sim._as_index_array(marked, grid.cells)
    out = amps[grid.shift_map()]
    cells = out.reshape(grid.cells, k)
    twice_means = cells[:, 0] + cells[:, 1]
    twice_means += cells[:, 2] + cells[:, 3]
    for direction in range(4, k):
        twice_means += cells[:, direction]
    twice_means *= 1.0 / k
    twice_means *= 2.0
    twice_means[marked_idx] = 0.0
    np.subtract(twice_means[:, None], cells, out=cells)
    return out


@st.composite
def _stepped_grid_cases(draw):
    grid, _, state = draw(_grid_cases())
    cells = draw(st.lists(st.integers(0, grid.cells - 1), min_size=2, max_size=6))
    marked = draw(st.sampled_from(([], sorted(set(cells), reverse=True), cells + cells)))
    if draw(st.booleans()):
        state = StateVector(state.amps * np.exp(1j * draw(st.floats(0.0, 6.0))))
    return grid, marked, state, draw(st.integers(0, 40))


@given(_stepped_grid_cases())
@settings(max_examples=80, deadline=None)
def test_stepping_many_at_once_equals_cell_major_reference_steps(case):
    grid, marked, state, steps = case
    before = state.amps.copy()
    reference = state.amps.copy()
    for _ in range(steps):
        reference = _cell_major_step(grid, reference, marked)
    stepped = grid_walk_step(grid, state, marked, steps)
    assert stepped.amps.dtype == state.amps.dtype
    assert np.array_equal(stepped.amps, reference)
    assert np.array_equal(state.amps, before)  # the caller's state is left as it was
    assert stepped.amps is not state.amps


def test_grid_walk_step_refuses_negative_steps_and_leaves_the_state():
    grid = TorusGrid(3, 2)
    state = localized_coined_state(grid, 4)
    before = state.amps.copy()
    with pytest.raises(ParameterError):
        grid_walk_step(grid, state, [1], steps=-1)
    assert np.array_equal(grid_walk_step(grid, state, [1], steps=0).amps, before)
    grid_walk_step(grid, state, [1], steps=5)
    assert np.array_equal(state.amps, before)


def test_grid_walk_search_matches_reference_steps():
    for side, dims in ((4, 2), (5, 2), (3, 3)):
        grid = TorusGrid(side, dims)
        for seed in range(30):
            bits = np.zeros(grid.cells, dtype=int)
            bits[SeededRng(seed).generator.integers(0, grid.cells, size=2)] = 1
            rng, ref_rng = SeededRng(77, seed), SeededRng(77, seed)
            result = grid_walk_search(grid, BitOracle(bits), rng, step_budget=3 * side)
            steps = int(ref_rng.generator.integers(1, 3 * side + 1))
            amps = uniform_coined_state(grid).amps
            for _ in range(steps):
                amps = _cell_major_step(grid, amps, np.flatnonzero(bits))
            cell = sim.measure(StateVector(amps), ref_rng) // grid.direction_count
            assert result.steps == steps
            assert result.cell == (cell if bits[cell] else None)
            assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state


def test_grid_walk_search_checks_its_marks_once(monkeypatch):
    checks = []
    original = sim._as_index_array
    monkeypatch.setattr(sim, "_as_index_array", lambda marked, dimension: (
        checks.append(type(marked) is not sim._CheckedIndices) or original(marked, dimension)))
    grid = TorusGrid(4, 2)
    bits = np.zeros(16, dtype=int)
    bits[[2, 9]] = 1
    result = grid_walk_search(grid, BitOracle(bits), SeededRng(4), step_budget=30)
    assert result.steps > 1 and checks == [True]


def test_grid_index_arrays_are_read_only():
    grid = TorusGrid(4, 3)
    for table in (grid.shift_map(), grid.scan_order(), grid.row_shift()):
        with pytest.raises(ValueError):
            table[0] = 1
    # gathering direction-major rows is the cell-major gather, transposed
    amps = np.arange(grid.cells * grid.direction_count, dtype=float)
    rows = amps.reshape(grid.cells, -1).T.ravel()
    assert np.array_equal(rows[grid.row_shift()],
                          amps[grid.shift_map()].reshape(grid.cells, -1).T.ravel())


def test_uniform_profile_starts_at_marked_fraction():
    grid = TorusGrid(4, 2)
    profile = grid_walk_probability_profile(grid, {3, 7}, 12)
    assert profile[0] == pytest.approx(2 / 16, abs=1e-12)
    assert profile.shape == (13,)
    assert profile.max() > 2.5 * profile[0]  # the walk concentrates on marks


def test_marked_cells_are_range_checked_and_deduplicated():
    grid = TorusGrid(4, 2)
    state = uniform_coined_state(grid)
    for bad in ([3, grid.cells], [-1, 5]):
        with pytest.raises(IndexError):
            grid_walk_step(grid, state, bad)
        with pytest.raises(IndexError):
            grid_walk_probability_profile(grid, bad, 4)
    # an unsorted list with duplicates marks the same cells as its sorted set
    messy, tidy = [7, 3, 7, 12, 3], {3, 7, 12}
    assert np.array_equal(grid_walk_probability_profile(grid, messy, 12),
                          grid_walk_probability_profile(grid, tidy, 12))
    assert np.array_equal(grid_walk_step(grid, state, messy).amps,
                          grid_walk_step(grid, state, tidy).amps)


def test_grid_walk_search_accounting():
    grid = TorusGrid(4, 2)
    bits = np.zeros(16, dtype=int)
    bits[9] = 1
    budget = 12
    hits = 0
    for seed in range(100):
        oracle = BitOracle(bits)
        result = grid_walk_search(grid, oracle, SeededRng(303, seed), step_budget=budget)
        assert 1 <= result.steps <= budget
        assert oracle.query_count == result.steps + 1
        if result.cell is not None:
            assert result.cell == 9
            hits += 1
    # success rate is the profile mean over uniform step draws, about 0.17
    expected = float(grid_walk_probability_profile(grid, {9}, budget)[1:].mean())
    sigma = math.sqrt(100 * expected * (1 - expected))
    assert abs(hits - 100 * expected) < 4 * sigma


def test_grid_walk_search_validation():
    grid = TorusGrid(4, 2)
    with pytest.raises(ParameterError):
        grid_walk_search(grid, BitOracle(np.zeros(9, dtype=int)), SeededRng(0), 5)
    with pytest.raises(ParameterError):
        grid_walk_search(grid, BitOracle(np.zeros(16, dtype=int)), SeededRng(0), 0)


def test_classical_scan_costs_one_query_per_cell():
    grid = TorusGrid(4, 2)
    bits = np.zeros(16, dtype=int)
    bits[grid.scan_order()[4]] = 1
    oracle = BitOracle(bits)
    result = grid_classical_search(grid, oracle)
    assert result.steps == 5
    assert oracle.query_count == 5
    empty = BitOracle(np.zeros(16, dtype=int))
    miss = grid_classical_search(grid, empty)
    assert miss.cell is None
    assert empty.query_count == 16


# ------------------------------------------------------------ Markov chains

def test_chain_validation():
    with pytest.raises(ParameterError):
        _dense_chain(np.array([[0.5, 0.5], [0.9, 0.2]]))  # bad row sum
    with pytest.raises(ParameterError):
        _dense_chain(np.array([[0.0, 1.0], [0.4, 0.6]]))  # asymmetric
    with pytest.raises(ParameterError):
        _dense_chain(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        _dense_chain(np.array([[1.2, -0.2], [-0.2, 1.2]]))
    for bad in (np.nan, np.inf):
        for matrix in ([[bad, 0.5], [0.5, 0.5]], [[0.5, bad], [bad, 0.5]],
                       [[bad, bad], [bad, bad]]):
            with pytest.raises(ParameterError):
                _dense_chain(np.array(matrix))
    with pytest.raises(IndexError):
        cycle_chain(4, marked={4})
    for size, rows, cols, p in (
        (3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0]),  # rows sum to 1, but 0 -> 1 lacks 1 -> 0
        (3, [0, 1, 2], [1, 0, 3], [1.0, 1.0, 1.0]),  # a state out of range
        (2, [0, 1, -1], [1, 0, 0], [1.0, 1.0, 0.0]),
        (2, [0, 1], [1, 0], [1.0]),  # a transition without its P
        (2, [0, 0, 1], [1, 1, 0], [0.5, 0.4, 1.0]),  # a pair listed twice sums to 0.9
    ):
        with pytest.raises(ParameterError):
            MarkovChain(size, rows, cols, p)


def test_chain_edges_take_any_order_and_sum_a_pair_listed_twice():
    reference = cycle_chain(5).edges
    order = np.random.default_rng(4).permutation(reference.count)
    # every P = 0.5 listed twice as 0.25, which sums exactly
    rows = np.concatenate([reference.rows[order]] * 2)
    cols = np.concatenate([reference.cols[order]] * 2)
    chain = MarkovChain(5, rows, cols, np.full(rows.size, 0.25), marked=[2])
    for name in ("rows", "cols", "p", "root", "starts", "transpose"):
        assert np.array_equal(getattr(chain.edges, name), getattr(reference, name)), name
    assert chain.marked == frozenset({2})
    # a pair listed with P = 0 stays an edge
    zero = MarkovChain(2, [0, 1, 0, 1], [1, 0, 0, 1], [1.0, 1.0, 0.0, 0.0])
    assert zero.edges.count == 4 and zero.edges.p.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_spectral_gap_closed_forms():
    # cycle: 1 - cos(2*pi/S); complete graph: S/(S-1); 2-d torus halves the cycle gap
    assert cycle_chain(8).spectral_gap == pytest.approx(1 - math.cos(math.pi / 4), abs=1e-12)
    assert cycle_chain(16).spectral_gap == pytest.approx(0.07612046748871324, abs=1e-12)
    for size in (2, 5, 9):
        assert _complete_chain(size).spectral_gap == pytest.approx(
            size / (size - 1), abs=1e-12)
    assert torus_chain(6, 2).spectral_gap == pytest.approx(
        (1 - math.cos(math.pi / 3)) / 2, abs=1e-12)


def _loop_matrix(cells: int, neighbors) -> np.ndarray:
    matrix = np.zeros((cells, cells))
    for cell in range(cells):
        for other, weight in neighbors(cell):
            matrix[cell, other] += weight
    return matrix


def test_cached_chain_gaps_are_bit_equal_to_fresh_eigvalsh():
    def gap(matrix):
        eigenvalues = np.linalg.eigvalsh(matrix)
        return float(eigenvalues[-1] - eigenvalues[-2])

    for size in (4, 5, 16, 128):
        fresh = _loop_matrix(size, lambda i: (((i + 1) % size, 0.5), ((i - 1) % size, 0.5)))
        assert np.array_equal(cycle_chain(size, marked={0}).dense(), fresh)
        assert cycle_chain(size, marked={1}).spectral_gap == gap(fresh)
        assert cycle_chain(size).spectral_gap == gap(fresh)
    for side, dims in ((2, 2), (6, 2), (10, 2), (3, 3)):
        grid = TorusGrid(side, dims)
        step = 1.0 / grid.direction_count
        fresh = _loop_matrix(grid.cells, lambda c: [
            (_neighbor(grid, c, d), step) for d in range(grid.direction_count)])
        assert np.array_equal(torus_chain(side, dims).dense(), fresh)
        assert torus_chain(side, dims, marked={0}).spectral_gap == gap(fresh)
    # eigvalsh, not the closed form 1 - cos(2*pi/4), which rounds below 1
    assert cycle_chain(4).spectral_gap == 1.0


def _dense_regular_chain(size: int, table: np.ndarray) -> np.ndarray:
    """Reference: the dense builder of regular chains, 1/k added per listed neighbour."""
    matrix = np.zeros((size, size))
    np.add.at(matrix, (np.arange(size)[:, None], table), 1.0 / table.shape[1])
    return matrix


def _dense_johnson_structure(element_count: int, subset_size: int):
    """Reference: the subsets in state order and a dense P whose self-loops
    are 1 - the row sum, which rounds to about -1e-16 or +1e-16 where the
    moves fill a row."""
    lower = list(combinations(range(element_count), subset_size))
    upper = list(combinations(range(element_count), subset_size + 1))
    states = lower + upper
    index = {s: i for i, s in enumerate(states)}
    degree = max(element_count - subset_size, subset_size + 1)
    matrix = np.zeros((len(states), len(states)))
    for i, subset in enumerate(lower):
        members = set(subset)
        for extra in range(element_count):
            if extra in members:
                continue
            j = index[tuple(sorted(subset + (extra,)))]
            matrix[i, j] = matrix[j, i] = 1.0 / degree
    for i in range(len(states)):
        matrix[i, i] = 1.0 - matrix[i].sum()
    return states, matrix


def _assert_edges_are_the_pattern_of(chain: MarkovChain, matrix: np.ndarray):
    rows, cols = np.nonzero(matrix)
    edges = chain.edges
    assert np.array_equal(edges.rows, rows) and np.array_equal(edges.cols, cols)
    assert np.array_equal(edges.p, matrix[rows, cols])


def test_regular_chain_edges_are_bit_equal_to_the_dense_builder():
    for size in list(range(3, 40)) + [64, 1000]:
        table = (np.arange(size)[:, None] + np.array([1, -1])) % size
        _assert_edges_are_the_pattern_of(cycle_chain(size), _dense_regular_chain(size, table))
    # on side 2 the two directions of an axis reach the same cell, which gets 2/k
    for side, dims in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 3), (10, 2), (7, 3)):
        grid = TorusGrid(side, dims)
        k = grid.direction_count
        table = grid.shift_map().reshape(grid.cells, k) // k
        _assert_edges_are_the_pattern_of(
            torus_chain(side, dims), _dense_regular_chain(grid.cells, table))


@pytest.mark.parametrize("element_count", range(2, 13))
def test_johnson_edges_match_the_dense_builder_but_for_exact_self_loops(element_count):
    for subset_size in range(1, element_count):
        states, matrix = _dense_johnson_structure(element_count, subset_size)
        chain = JohnsonChain(element_count, subset_size)
        assert [chain.subset_of(s) for s in range(chain.size)] == states
        degree = max(element_count - subset_size, subset_size + 1)
        lower = math.comb(element_count, subset_size)
        moves = np.repeat([element_count - subset_size, subset_size + 1],
                          [lower, chain.size - lower])
        loops = (degree - moves) / degree
        assert np.abs(np.diag(matrix) - loops).max() <= 1e-15
        np.fill_diagonal(matrix, loops)  # exact, and a zero loop is no edge
        _assert_edges_are_the_pattern_of(chain, matrix)


def test_with_marked_shares_structure_and_cache():
    chain = cycle_chain(12, marked={0})
    exact_hitting_mean(chain)
    clone = chain.with_marked({3})
    assert frozenset({0}) in clone._hitting_cache
    assert clone.edges is chain.edges
    assert cycle_chain(12, marked={5}).edges is chain.edges
    assert clone.marked_mask.tolist() == [i == 3 for i in range(12)]
    # a cached base chain outlives every trial, so its solves stay bounded
    for bits in range(1, walks.HITTING_CACHE_ENTRIES + 20):
        exact_hitting_mean(cycle_chain(12, marked=[i for i in range(12) if bits >> i & 1]))
    assert len(chain._hitting_cache) == walks.HITTING_CACHE_ENTRIES
    # relabeling a vertex-transitive chain cannot change the hitting time
    assert exact_hitting_mean(clone) == pytest.approx(exact_hitting_mean(chain), abs=1e-12)


# ------------------------------------------------------------ quantization

def _dense_szegedy_step(chain: MarkovChain) -> np.ndarray:
    """Independent dense operator: marked flip, row and column reflections."""
    size = chain.size
    root = np.sqrt(chain.dense())
    dim = size * size
    proj_rows = np.zeros((dim, dim))
    for x in range(size):
        vec = np.zeros(dim)
        vec[x * size:(x + 1) * size] = root[x]
        proj_rows += np.outer(vec, vec)
    proj_cols = np.zeros((dim, dim))
    for y in range(size):
        vec = np.zeros(dim)
        vec[y::size] = root[:, y]
        proj_cols += np.outer(vec, vec)
    flip = np.eye(dim)
    for x in chain.marked:
        flip[x * size:(x + 1) * size, x * size:(x + 1) * size] *= -1.0
    return (2.0 * proj_cols - np.eye(dim)) @ (2.0 * proj_rows - np.eye(dim)) @ flip


def _widen(chain: MarkovChain, edge_state: np.ndarray) -> np.ndarray:
    """Scatter edge amplitudes into the dense (size, size) pair array."""
    edges = chain.edges
    dense = np.zeros((chain.size, chain.size), dtype=np.complex128)
    dense[edges.rows, edges.cols] = edge_state
    return dense


def _assert_step_matches_dense(chain: MarkovChain, rng: SeededRng, tol: float = 1e-12):
    dense = _dense_szegedy_step(chain)
    assert np.abs(dense @ dense.T - np.eye(dense.shape[0])).max() < tol
    count = chain.edges.count
    raw = rng.generator.normal(size=count) + 1j * rng.generator.normal(size=count)
    raw = raw / np.linalg.norm(raw)
    stepped = szegedy_step(chain, raw)
    expected = (dense @ _widen(chain, raw).reshape(-1)).reshape(chain.size, chain.size)
    # the dense operator keeps the state on the edges, where it matches
    assert np.abs(_widen(chain, stepped) - expected).max() < tol


def test_szegedy_step_matches_dense_reflections():
    rng = SeededRng(31)
    cases = (
        cycle_chain(5, marked={1}),
        _complete_chain(4, marked={0, 2}),
        torus_chain(2, 2, marked={3}),
        cycle_chain(4),
        JohnsonChain(4, 1).with_marked({0, 5}),
    )
    for chain in cases:
        for _ in range(4):
            _assert_step_matches_dense(chain, rng)
        with pytest.raises(ParameterError):
            szegedy_step(chain, np.eye(chain.size, dtype=complex) / math.sqrt(chain.size))


@st.composite
def _small_chains(draw):
    """Random symmetric stochastic chains: symmetric weights, lazy diagonal."""
    size = draw(st.integers(min_value=2, max_value=6))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.floats(min_value=0.2, max_value=1.0))
    upper = np.triu(gen.uniform(0.0, 1.0, size=(size, size)), k=1)
    upper[gen.uniform(size=upper.shape) > density] = 0.0
    weights = upper + upper.T
    matrix = weights / max(1.0, weights.sum(axis=1).max())
    np.fill_diagonal(matrix, np.maximum(0.0, 1.0 - matrix.sum(axis=1)))
    marked = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    return _dense_chain(matrix, marked), draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(_small_chains())
@settings(max_examples=60, deadline=None)
def test_edge_step_matches_dense_on_random_chains(case):
    chain, seed = case
    _assert_step_matches_dense(chain, SeededRng(seed))


@st.composite
def _family_chains(draw):
    """Cycle, torus, complete and Johnson chains with a random marked set."""
    family = draw(st.sampled_from(("cycle", "torus", "complete", "johnson")))
    if family == "cycle":
        chain = cycle_chain(draw(st.integers(3, 12)))
    elif family == "torus":
        chain = torus_chain(draw(st.integers(2, 4)), draw(st.sampled_from((2, 3))))
    elif family == "complete":
        chain = _complete_chain(draw(st.integers(2, 8)))
    else:
        elements = draw(st.integers(3, 6))
        chain = JohnsonChain(elements, draw(st.integers(1, elements - 1)))
    marked = draw(st.sets(st.integers(0, chain.size - 1), max_size=3))
    return chain.with_marked(marked), draw(st.integers(0, 2**32 - 1))


@given(_family_chains())
@settings(max_examples=60, deadline=None)
def test_real_szegedy_step_equals_complex_step(case):
    chain, seed = case
    start = stationary_edge_state(chain)
    assert start.dtype == np.float64
    raw = np.random.default_rng(seed).normal(size=chain.edges.count)
    for psi in (start, raw / np.linalg.norm(raw)):
        reference = psi.astype(np.complex128)
        for _ in range(3):
            psi = szegedy_step(chain, psi)
            reference = szegedy_step(chain, reference)
            assert psi.dtype == np.float64 and reference.dtype == np.complex128
            assert np.array_equal(psi, reference.real)
            assert np.all(reference.imag == 0.0)


def _reference_szegedy_step(chain: MarkovChain, psi: np.ndarray) -> np.ndarray:
    """Reference step: the marked-row flip and both reflections, each into fresh arrays."""
    edges = chain.edges
    psi = np.array(psi, dtype=np.complex128 if np.iscomplexobj(psi) else np.float64)
    if chain.marked:
        np.negative(psi, out=psi, where=chain.marked_mask[edges.rows])
    row_overlap = walks._row_sums(edges.root * psi, edges.starts)
    psi = 2.0 * row_overlap[edges.rows] * edges.root - psi
    column_overlap = walks._row_sums((edges.root * psi)[edges.transpose], edges.starts)
    return 2.0 * edges.root * column_overlap[edges.cols] - psi


_REFERENCE_CHAINS = [
    *(pytest.param(lambda size=size: cycle_chain(size), id=f"cycle-{size}") for size in range(3, 65)),
    *(pytest.param(lambda side=side: torus_chain(side, 2), id=f"torus-{side}") for side in range(2, 11)),
    *(pytest.param(lambda n=n, m=m: JohnsonChain(n, m), id=f"johnson-{n}-{m}")
      for n in range(4, 13) for m in sorted({1, n // 2, math.ceil(n ** (2 / 3)), n - 1})),
]


@pytest.mark.parametrize("build", _REFERENCE_CHAINS)
def test_szegedy_steps_are_bit_equal_to_the_reference(build):
    chain = build()
    gen = SeededRng(919, chain.size).generator
    chain = chain.with_marked(gen.choice(chain.size, size=max(1, chain.size // 10), replace=False))
    count = chain.edges.count
    raw = gen.normal(size=count) + 1j * gen.normal(size=count)
    for start in (stationary_edge_state(chain), raw / np.linalg.norm(raw)):
        psi = reference = start
        for _ in range(300):
            psi = szegedy_step(chain, psi)
            reference = _reference_szegedy_step(chain, reference)
        assert psi.dtype == reference.dtype
        assert np.array_equal(psi, reference)


def test_stationary_state_is_fixed_without_marks():
    for chain in (cycle_chain(6), _complete_chain(5), torus_chain(3, 2)):
        psi = stationary_edge_state(chain)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.abs(szegedy_step(chain, psi) - psi).max() < 1e-12


def test_marked_pair_probability_brute_force():
    rng = SeededRng(32)
    chain = cycle_chain(6, marked={0, 4})
    edges = chain.edges
    raw = rng.generator.normal(size=(6, 6)) * (chain.dense() > 0)
    raw = raw / np.linalg.norm(raw)
    p = np.abs(raw) ** 2
    # independent route: complement of the fully unmarked pairs
    unmarked = [1, 2, 3, 5]
    want = p.sum() - p[np.ix_(unmarked, unmarked)].sum()
    psi = raw[edges.rows, edges.cols]
    assert marked_pair_probability(chain, psi) == pytest.approx(want, abs=1e-12)
    assert marked_pair_probability(cycle_chain(6), psi) == 0.0
    with pytest.raises(ParameterError):
        marked_pair_probability(chain, raw)


def test_marked_pair_probability_refuses_a_drifted_norm():
    chain = cycle_chain(6, marked={0, 4})
    psi = stationary_edge_state(chain)
    for marked in (chain, cycle_chain(6)):
        with pytest.raises(NormalizationError):
            marked_pair_probability(marked, psi * np.sqrt(1 + 2e-6))
    # inside the tolerance the marked mass is still divided by the total
    near = psi * np.sqrt(1 + 5e-7)
    weights = np.abs(near) ** 2
    edges = chain.edges
    keep = chain.marked_mask[edges.rows] | chain.marked_mask[edges.cols]
    assert marked_pair_probability(chain, near) == float(weights[keep].sum() / weights.sum())


def test_cycle_profile_is_exactly_flat():
    # degree-2 rows make the row reflection a swap, so the quantized cycle
    # never concentrates: the marked-pair mass stays at 2/S forever
    chain = cycle_chain(8, marked={0})
    psi = stationary_edge_state(chain)
    for _ in range(16):
        assert marked_pair_probability(chain, psi) == pytest.approx(0.25, abs=1e-12)
        psi = szegedy_step(chain, psi)


def test_torus_profile_amplifies():
    chain = torus_chain(4, 2, marked={0})
    psi = stationary_edge_state(chain)
    peak = 0.0
    for _ in range(30):
        psi = szegedy_step(chain, psi)
        peak = max(peak, marked_pair_probability(chain, psi))
    assert peak > 2.5 * (2 / 16)


def test_measure_edge_distribution():
    chain = cycle_chain(4, marked={0})
    edges = chain.edges
    dense = np.zeros((4, 4), dtype=complex)
    dense[0, 1] = math.sqrt(0.25)
    dense[2, 3] = math.sqrt(0.75)
    psi = dense[edges.rows, edges.cols]
    rng = SeededRng(909)
    counts = {(0, 1): 0, (2, 3): 0}
    for _ in range(2000):
        counts[measure_edge(chain, psi, rng)] += 1
    assert abs(counts[(2, 3)] / 2000 - 0.75) < 0.04
    with pytest.raises(NormalizationError):
        measure_edge(chain, 1.01 * psi, rng)
    with pytest.raises(ParameterError):
        measure_edge(chain, dense, rng)


# ------------------------------------------------------------- hitting times

def test_cycle_hitting_closed_form():
    # mean over a uniform start (marked start counts 0) is (S^2 - 1) / 6
    for size in (3, 8, 16, 64):
        assert exact_hitting_mean(cycle_chain(size, marked={0})) == pytest.approx(
            (size * size - 1) / 6.0, abs=1e-9)


def test_complete_graph_hitting_closed_form():
    # each unmarked state needs S-1 expected steps; the start is uniform
    for size in (2, 5, 8):
        chain = _complete_chain(size, marked={size - 1})
        assert exact_hitting_mean(chain) == pytest.approx(
            (size - 1) ** 2 / size, abs=1e-9)


def test_monte_carlo_hitting_tracks_exact_solution():
    for chain in (cycle_chain(12, marked={0}), _complete_chain(8, marked={3})):
        exact = exact_hitting_mean(chain)
        sampled = classical_hitting(chain, SeededRng(4444, 0), trials=2000)
        assert abs(sampled - exact) / exact < 0.10


def _dense_hitting(chain, rng, trials, guard):
    """Reference: trial after trial, one draw per step, over the dense row
    cumsum of P.  A draw at or above a row's total moves to the row's last
    neighbour in the pattern of P + P^T."""
    matrix = chain.dense()
    cumsum = np.cumsum(matrix, axis=1)
    gen = rng.generator
    total = 0
    for state in gen.integers(0, chain.size, size=trials):
        while not chain.marked_mask[state]:
            row = state
            state = int((cumsum[row] <= gen.random()).sum())
            if state == chain.size:
                state = int(np.flatnonzero(matrix[row] + matrix[:, row])[-1])
            total += 1
            if total > guard:
                raise SizeCapError("hitting-time simulation exceeded the step guard")
    return total / trials


def _asymmetric_chain():
    """Chain whose P and P^T differ within CHAIN_CONSTRUCTION_TOL: edge
    (0, 2) of the P + P^T pattern carries P = 0, while P[2, 0] = 5e-13."""
    matrix = np.zeros((5, 5))
    for x in range(5):
        matrix[x, (x + 1) % 5] = matrix[x, (x - 1) % 5] = 0.5
    matrix[2, 0] = 5e-13
    matrix[2, 1] -= 5e-13
    return _dense_chain(matrix, marked={4})


def _irregular_chain():
    """Lazy cycle with random symmetric edge weights and the rest of each row
    on its self-loop, so no two rows share their running sums."""
    weights = SeededRng(56).generator.uniform(0.1, 0.4, size=7)
    matrix = np.zeros((7, 7))
    for x in range(7):
        matrix[x, (x + 1) % 7] = matrix[(x + 1) % 7, x] = weights[x]
    matrix[np.diag_indices(7)] = 1.0 - matrix.sum(axis=1)
    return _dense_chain(matrix, marked={3})


def _hitting_chains():
    return [
        cycle_chain(16, marked={0}),
        cycle_chain(64, marked={5, 40}),
        torus_chain(6, 2, marked={7}),
        _complete_chain(12, marked={3}),
        JohnsonChain(6, 2, marked={0, 20}),
        _irregular_chain(),
        _asymmetric_chain(),
    ]


def test_transition_table_matches_dense_row_cumsum():
    for chain in _hitting_chains():
        sums, cols = chain.transition_table()
        cumsum = np.cumsum(chain.dense(), axis=1)
        edges = chain.edges
        for x in range(chain.size):
            row_cols = edges.cols[edges.rows == x]
            degree = row_cols.size
            assert np.array_equal(cols[x, :degree], row_cols)
            assert np.array_equal(sums[x, :degree], cumsum[x, row_cols])
            assert np.all(sums[x, degree:] == np.inf)
            assert np.all(cols[x, degree:] == row_cols[-1])
    assert _asymmetric_chain().dense()[0, 2] == 0.0  # a pattern edge with P = 0


def test_scalar_hitting_matches_dense_reference_and_leaves_generator_in_step():
    for index, chain in enumerate(_hitting_chains()):
        for stream in range(6):
            fast, slow = SeededRng(900 + index, stream), SeededRng(900 + index, stream)
            if stream % 2:  # the start draw then leaves no buffered 32-bit half
                fast.generator.integers(0, 7)
                slow.generator.integers(0, 7)
            assert classical_hitting(chain, fast, trials=1) == _dense_hitting(
                chain, slow, 1, walks.HITTING_STEP_GUARD)
            assert fast.generator.bit_generator.state == slow.generator.bit_generator.state
            assert fast.random() == slow.random()


def test_many_trial_hitting_matches_dense_reference():
    for index, chain in enumerate(_hitting_chains()):
        for stream in range(2):
            fast, slow = SeededRng(700 + index, stream), SeededRng(700 + index, stream)
            assert classical_hitting(chain, fast, trials=40) == _dense_hitting(
                chain, slow, 40, walks.HITTING_STEP_GUARD)
            assert fast.generator.bit_generator.state == slow.generator.bit_generator.state


class _ScriptedGenerator(np.random.Generator):
    """PCG64 generator whose start states and uniforms are fixed."""

    def __init__(self, start, draw):
        super().__init__(np.random.PCG64(0))
        self.start, self.draw = start, draw

    def integers(self, low, high=None, size=None):
        return np.full(size, self.start)

    def random(self, size=None):
        return self.draw if size is None else np.full(size, self.draw)


def test_scripted_draws_move_where_the_dense_count_does():
    # row 0 reaches only 1 and 2, and its total rounds to 1 - 4e-13; a draw
    # above that total moves to the row's last neighbour 2, never to the
    # non-neighbour 3, and the same draw then moves from 2 to 3
    h, c = 0.5 - 2e-13, 0.5 + 2e-13
    fallback = _dense_chain([[0, h, h, 0], [h, 0, 0, c], [h, 0, 0, c], [0, c, c, 0]],
                            marked={3})
    sums, cols = fallback.transition_table()
    assert sums[0, 1] < 1.0 - 1e-13 and fallback.dense()[0, 3] == 0.0
    assert list(cols[0]) == [1, 2, 2]
    # row 0 of cycle(4) has sums 0.5 at column 1 and 1.0 at column 3; the
    # dense count of sums <= 0.5 is 3, so a draw of exactly 0.5 moves to 3
    tie = cycle_chain(4, marked={3})
    for chain, draw, steps in ((fallback, 1.0 - 1e-13, 2.0), (tie, 0.5, 1.0)):
        for trials in (1, 2):
            rng, reference = SeededRng(0), SeededRng(0)
            rng.generator = _ScriptedGenerator(0, draw)
            reference.generator = _ScriptedGenerator(0, draw)
            assert classical_hitting(chain, rng, trials) == steps
            assert _dense_hitting(chain, reference, trials, walks.HITTING_STEP_GUARD) == steps


def test_hitting_step_guard_raises_on_both_paths(monkeypatch):
    # {0, 1, 2} is a cycle that never reaches the marked self-loop 3
    matrix = np.zeros((4, 4))
    matrix[3, 3] = 1.0
    for x in range(3):
        matrix[x, (x + 1) % 3] = matrix[x, (x - 1) % 3] = 0.5
    chain = _dense_chain(matrix, marked={3})
    guard = walks.HITTING_DRAW_CHUNK + 905  # one full chunk and one partial
    monkeypatch.setattr(walks, "HITTING_STEP_GUARD", guard)
    seed = next(s for s in range(100)
                if SeededRng(s).generator.integers(0, 4, size=1)[0] != 3)
    for trials in (1, 4):
        rng, reference = SeededRng(seed), SeededRng(seed)
        with pytest.raises(SizeCapError, match="step guard"):
            classical_hitting(chain, rng, trials)
        with pytest.raises(SizeCapError, match="step guard"):
            _dense_hitting(chain, reference, trials, guard)
        assert rng.generator.bit_generator.state == reference.generator.bit_generator.state


def test_exact_hitting_system_is_bit_equal_to_eye_minus_q():
    for chain in _hitting_chains():
        unmarked = np.asarray(sorted(set(range(chain.size)) - chain.marked))
        q = chain.dense()[np.ix_(unmarked, unmarked)]
        h = np.linalg.solve(np.eye(unmarked.size) - q, np.ones(unmarked.size))
        assert exact_hitting_mean(chain) == float(h.sum() / chain.size)


def test_hitting_validation():
    with pytest.raises(ParameterError):
        exact_hitting_mean(cycle_chain(6))
    with pytest.raises(ParameterError):
        classical_hitting(cycle_chain(6), SeededRng(0), 100)
    with pytest.raises(ParameterError):
        classical_hitting(cycle_chain(6, marked={0}), SeededRng(0), 0)


def test_default_shot_cap_is_root_hitting_time():
    chain = cycle_chain(16, marked={0})
    assert default_shot_cap(chain) == math.ceil(math.sqrt((256 - 1) / 6))
    assert default_shot_cap(torus_chain(4, 2, marked={5})) >= 1
    with pytest.raises(ParameterError):
        default_shot_cap(cycle_chain(8))


# ------------------------------------------------------- quantized search

def test_szegedy_search_finds_marked_and_accounts_cost():
    chain = torus_chain(4, 2, marked={9})
    costs = WalkCosts(setup=2.0, transition=1.0, check=0.5)
    found = 0
    for seed in range(30):
        result = szegedy_find_marked(chain, costs, SeededRng(112, seed))
        assert result.cost == pytest.approx(
            result.preparations * 2.0 + result.walk_steps * 1.5, abs=1e-12)
        if result.state is not None:
            assert result.state == 9
            found += 1
    assert found >= 20


def _fresh_shot_search(chain, rng, step_budget, shot_cap):
    """Reference search: every shot steps a freshly prepared stationary state."""
    hit, steps, preparations = None, 0, 0
    while hit is None and steps < step_budget:
        shot = min(int(rng.generator.integers(1, shot_cap + 1)), step_budget - steps)
        state = stationary_edge_state(chain)
        preparations += 1
        for _ in range(shot):
            state = szegedy_step(chain, state)
        steps += shot
        x, y = measure_edge(chain, state, rng)
        hit = x if x in chain.marked else (y if y in chain.marked else None)
    return walks.WalkSearchResult(state=hit, walk_steps=steps, preparations=preparations,
                                  cost=preparations * 2.0 + steps * (1.0 + 0.5))


def test_memoized_search_equals_fresh_shots():
    costs = WalkCosts(setup=2.0, transition=1.0, check=0.5)
    chains = (
        torus_chain(4, 2, marked={9}),
        cycle_chain(16, marked={3}),
        _complete_chain(6, marked={2}),
        johnson_chain(6, 4, ValueOracle([0, 1, 2, 3, 1, 5])),
    )
    for chain in chains:
        budget, cap = recommended_step_budget(chain), default_shot_cap(chain)
        for seed in range(8):
            got = szegedy_find_marked(chain, costs, SeededRng(606, seed),
                                      step_budget=budget, shot_cap=cap)
            want = _fresh_shot_search(chain, SeededRng(606, seed), budget, cap)
            assert got == want
        # a budget shorter than the cap truncates the last shot the same way
        got = szegedy_find_marked(chain, costs, SeededRng(607), step_budget=3, shot_cap=cap)
        assert got == _fresh_shot_search(chain, SeededRng(607), 3, cap)


def test_trajectory_memory_cap_raises_before_stepping():
    chain = cycle_chain(8, marked={0})
    edge_bytes = chain.edges.count * 16
    shot_cap = sim.STATE_BYTE_CAP // edge_bytes
    with pytest.raises(SizeCapError):
        szegedy_find_marked(chain, WalkCosts(), SeededRng(0), step_budget=10**12,
                            shot_cap=shot_cap)
    with pytest.raises(SizeCapError):
        szegedy_find_marked(chain, WalkCosts(), SeededRng(0), shot_cap=10**12,
                            step_budget=10**12)
    # the trajectory holds at most the budget's worth of states
    result = szegedy_find_marked(chain, WalkCosts(), SeededRng(0), step_budget=5,
                                 shot_cap=10**12)
    assert result.walk_steps <= 5


def test_szegedy_search_shot_cap_one_prepares_every_step():
    chain = _complete_chain(6, marked={2})
    result = szegedy_find_marked(chain, WalkCosts(), SeededRng(77, 0), shot_cap=1)
    assert result.preparations == result.walk_steps


def test_szegedy_search_without_marks_exhausts_budget():
    chain = cycle_chain(8)
    result = szegedy_find_marked(chain, WalkCosts(), SeededRng(0, 0), step_budget=17)
    assert result.state is None
    assert result.walk_steps == 17
    with pytest.raises(ParameterError):
        szegedy_find_marked(chain, WalkCosts(), SeededRng(0, 0))


def test_szegedy_search_validation():
    chain = cycle_chain(8, marked={0})
    with pytest.raises(ParameterError):
        szegedy_find_marked(chain, WalkCosts(), SeededRng(0), step_budget=0)
    with pytest.raises(ParameterError):
        szegedy_find_marked(chain, WalkCosts(), SeededRng(0), shot_cap=0)
    with pytest.raises(ParameterError):
        WalkCosts(setup=-1.0)
    with pytest.raises(ParameterError):
        recommended_step_budget(cycle_chain(8))


def test_expected_steps_matches_search_monte_carlo():
    chain = cycle_chain(8, marked={0})
    exact = expected_steps_to_success(chain)
    runs = [
        szegedy_find_marked(chain, WalkCosts(), SeededRng(5150, seed), step_budget=10_000)
        for seed in range(300)
    ]
    assert all(r.state == 0 for r in runs)
    sampled = sum(r.walk_steps for r in runs) / len(runs)
    assert abs(sampled - exact) / exact < 0.15


def test_expected_steps_validation():
    with pytest.raises(ParameterError):
        expected_steps_to_success(cycle_chain(8))
    with pytest.raises(ParameterError):
        expected_steps_to_success(cycle_chain(8, marked={0}), shot_cap=0)


# ----------------------------------------------------------- subset walks

def test_johnson_chain_structure():
    chain = JohnsonChain(5, 2)
    # layers: all 2-subsets then all 3-subsets of {0..4}
    assert chain.size == math.comb(5, 2) + math.comb(5, 3)
    assert len(chain.subset_of(0)) == 2
    assert len(chain.subset_of(chain.size - 1)) == 3
    matrix = chain.dense()
    for u in range(chain.size):
        for v in range(chain.size):
            adjacent = matrix[u, v] > 0
            su, sv = set(chain.subset_of(u)), set(chain.subset_of(v))
            one_step = len(su ^ sv) == 1
            if adjacent:
                assert one_step or u == v  # lazy self-loops are allowed
            if one_step:
                assert matrix[u, v] > 0


def test_johnson_chain_marks_collision_vertices():
    values = [7, 1, 7, 3, 4, 5, 6, 0]  # planted pair at positions 0 and 2
    chain = johnson_chain(8, 4, ValueOracle(values))
    want = math.comb(6, 2) + math.comb(6, 3)  # supersets of {0, 2} in both layers
    assert len(chain.marked) == want
    for state in chain.marked:
        subset = chain.subset_of(state)
        assert {0, 2} <= set(subset)
    distinct = johnson_chain(6, 3, ValueOracle(list(range(6))))
    assert distinct.marked == frozenset()


def _collision_states(chain, values):
    # reference: a Python set per subset
    subsets = [chain.subset_of(i) for i in range(chain.size)]
    return frozenset(
        i
        for i, subset in enumerate(subsets)
        if len(set(values[list(subset)].tolist())) < len(subset)
    )


@pytest.mark.parametrize("element_count", range(4, 13))
def test_johnson_chain_marks_match_the_set_reference(element_count):
    gen = SeededRng(4848, element_count).generator
    distinct = gen.permutation(element_count)
    one_pair = distinct.copy()
    one_pair[gen.choice(element_count, size=2, replace=False)] = -1
    several = gen.integers(0, element_count // 2, size=element_count)
    for subset_size in range(1, element_count):
        degree = max(element_count - subset_size, subset_size + 1)
        for values in (distinct, one_pair, several):
            chain = johnson_chain(element_count, subset_size, ValueOracle(values))
            assert chain.marked == _collision_states(chain, values)
            assert np.array_equal(chain.marked_mask, sim.marked_mask(sorted(chain.marked), chain.size))
            # no self-loop is left at the rounding error of 1 - row sum
            assert chain.edges.p.min() >= 1.0 / degree


@given(st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))))
@settings(max_examples=40, deadline=None)
def test_collision_vertex_probability_matches_enumeration(case):
    element_count, subset_size = case
    fraction = collision_vertex_probability(element_count, subset_size)
    assert isinstance(fraction, Fraction)
    if element_count < 2:
        return
    containing = sum(
        1 for subset in combinations(range(element_count), subset_size)
        if 0 in subset and 1 in subset)
    total = math.comb(element_count, subset_size)
    assert fraction == Fraction(containing, total)


def test_ed_walk_recovers_planted_collision():
    values = list(range(6))
    values[4] = values[1]  # single duplicated value
    found = 0
    for seed in range(60):
        oracle = ValueOracle(values)
        result = ed_walk(oracle, 6, 4, SeededRng(2828, seed))
        assert result.queries == 4 + result.walk_steps
        assert oracle.query_count == result.queries
        if result.pair is not None:
            assert result.pair == (1, 4)
            found += 1
    assert found >= 30


def test_ed_walk_on_distinct_values_returns_nothing():
    oracle = ValueOracle([3, 1, 4, 5])
    result = ed_walk(oracle, 4, 2, SeededRng(1, 1))
    assert result.pair is None
