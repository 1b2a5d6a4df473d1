"""Quantum walk search: coined torus walks and Szegedy-quantized chains.

Both walks use the `sim` state model: flat amplitude vectors that stay
float64 until a complex phase enters, measured by `sim`'s one Born sampler.

The coined walk lives on (cell, direction) amplitudes over a periodic grid,
held as a `sim.StateVector` of length cells * directions in (cell,
direction) row-major order.  A step is a direction-reversing shift and a
uniform-reflection coin that is negated on marked cells; it bundles a query
and a move.  Steps run direction-major: grid_walk_step turns the state into
rows, one per direction across every cell, steps them with one gather and
whole-row arithmetic, and turns them back once per call.

The chain quantization acts on amplitudes over ordered vertex pairs (x, y),
but a state is only ever supported on the nonzero transitions of P: the
stationary state lives there, and the marked-row flip and both reflections
keep it there.  States are therefore 1-D arrays with one amplitude per
edge of the chain's cached edge structure, in row-major order.  Within one
search every shot restarts from the same stationary state, so each shot is
a prefix of one deterministic trajectory; the search computes that
trajectory once, as far as its longest shot, and measures the prefix.

A chain stores only its edges, with P per edge.  Each builder counts what
it will allocate against sim.check_state_size first, and subset chains
count before listing any subset.  A dense P or block of it is built only
for LAPACK's eigvalsh and solve, by MarkovChain.dense after its own check.

The classical hitting walk reads one table per chain: each row's running
sums of P at its edge columns.  Trials walk one after another in a scalar
loop that bisects a row per step.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import sim
from .sim import (
    BitOracle,
    ParameterError,
    SeededRng,
    SizeCapError,
    StateVector,
    ValueOracle,
)

__all__ = [
    "TorusGrid",
    "GridWalkResult",
    "uniform_coined_state",
    "localized_coined_state",
    "grid_walk_step",
    "grid_walk_probability_profile",
    "grid_walk_search",
    "grid_classical_search",
    "MarkovChain",
    "WalkCosts",
    "WalkSearchResult",
    "cycle_chain",
    "torus_chain",
    "stationary_edge_state",
    "szegedy_step",
    "marked_pair_probability",
    "measure_edge",
    "recommended_step_budget",
    "default_shot_cap",
    "expected_steps_to_success",
    "szegedy_find_marked",
    "classical_hitting",
    "exact_hitting_mean",
    "JohnsonChain",
    "johnson_chain",
    "collision_vertex_probability",
    "EdWalkResult",
    "ed_walk",
]

# Chain transitions must be symmetric and row-stochastic to this precision.
CHAIN_CONSTRUCTION_TOL = 1e-12
# Cap entries of 16 B that a chain edge counts for: a built chain holds about
# 45 B an edge, and building one peaks near 96 B.
EDGE_CAP_ENTRIES = 6
# Hitting solves kept per chain structure.  Base chains are cached for the
# life of the process and every trial may mark a new set, so the oldest
# solve is dropped beyond this many.
HITTING_CACHE_ENTRIES = 128
# Walk-step budget multiplier for the quantized search; calibrated so the
# test families find a marked state in well over a third of runs.
SZEGEDY_BUDGET_FACTOR = 6.0
# classical_hitting raises past this many steps, summed over its trials.
HITTING_STEP_GUARD = 50_000_000
# Uniforms classical_hitting draws at a time.
HITTING_DRAW_CHUNK = 4096


class TorusGrid:
    """Periodic grid in 2 or 3 dimensions with 2*d signed axis directions."""

    def __init__(self, side: int, dimensions: int):
        if dimensions not in (2, 3):
            raise ParameterError(f"dimensions must be 2 or 3, got {dimensions}")
        if side < 2:
            raise ParameterError(f"side must be >= 2, got {side}")
        self.side = int(side)
        self.dimensions = int(dimensions)
        self.cells = self.side**self.dimensions
        self.direction_count = 2 * self.dimensions
        self._row_shift: Optional[np.ndarray] = None
        self._scan_order: Optional[np.ndarray] = None

    def coordinates(self, cell: int) -> Tuple[int, ...]:
        if not 0 <= cell < self.cells:
            raise IndexError(f"cell {cell} out of range")
        coords = []
        for _ in range(self.dimensions):
            coords.append(cell % self.side)
            cell //= self.side
        return tuple(coords)

    @staticmethod
    def reverse(direction: int) -> int:
        return direction ^ 1

    def distance(self, a: int, b: int) -> int:
        """Wrap-around Manhattan distance.  Exact oracle: reference for tests."""
        ca, cb = self.coordinates(a), self.coordinates(b)
        total = 0
        for x, y in zip(ca, cb):
            d = abs(x - y)
            total += min(d, self.side - d)
        return total

    def row_shift(self) -> np.ndarray:
        """The grid's one permutation table: (c, d) to (neighbor, reversed d), at d * cells + c."""
        if self._row_shift is None:
            cells = np.arange(self.cells, dtype=np.int64)
            target = np.empty((self.direction_count, self.cells), dtype=np.int64)
            for axis in range(self.dimensions):
                stride = self.side**axis
                coord = (cells // stride) % self.side
                for sign, delta in ((0, 1), (1, -1)):
                    direction = 2 * axis + sign
                    neighbor = cells + ((coord + delta) % self.side - coord) * stride
                    target[direction] = self.reverse(direction) * self.cells + neighbor
            self._row_shift = target.reshape(-1)
            self._row_shift.setflags(write=False)  # a grid may be shared between searches
        return self._row_shift

    def scan_order(self) -> np.ndarray:
        """Boustrophedon visiting order; consecutive cells are adjacent.

        Axis 0 is scanned first.  Each further axis stacks `side` copies of
        the order so far, every second one reversed, one layer apart.
        """
        if self._scan_order is None:
            order = np.arange(self.side)
            for axis in range(1, self.dimensions):
                blocks = np.tile(order, (self.side, 1))
                blocks[1::2] = blocks[1::2, ::-1]
                order = (blocks + self.side**axis * np.arange(self.side)[:, None]).ravel()
            self._scan_order = order
            self._scan_order.setflags(write=False)
        return self._scan_order


def uniform_coined_state(grid: TorusGrid) -> StateVector:
    """Equal float64 amplitudes on every (cell, direction) pair."""
    return sim.uniform_state(grid.cells * grid.direction_count)


def localized_coined_state(grid: TorusGrid, cell: int) -> StateVector:
    """Equal float64 amplitudes on the directions of one cell.

    Exact oracle: reference for tests.
    """
    if not 0 <= cell < grid.cells:
        raise IndexError(f"cell {cell} out of range")
    k = grid.direction_count
    sim.check_state_size(grid.cells * k)
    amps = np.zeros(grid.cells * k)
    amps[cell * k:(cell + 1) * k] = 1.0 / math.sqrt(k)
    return StateVector._wrap(amps)


def grid_walk_step(grid: TorusGrid, state: StateVector, marked, steps: int = 1) -> StateVector:
    """`steps` bundled walk steps, each a direction-reversing shift, then the coin.

    Unmarked cells get the uniform-reflection coin (2*mean - amp across the
    cell's directions); marked cells get the negated identity coin.  The
    marked cells are checked once, the state turns direction-major once, and
    the result is a new state of the input's kind; `state` is left as it is.
    """
    k = grid.direction_count
    if state.dimension != grid.cells * k:
        raise ParameterError(
            f"coined state must have {grid.cells * k} amplitudes, got {state.dimension}")
    if steps < 0:
        raise ParameterError("steps must be >= 0")
    marked_idx = sim._as_index_array(marked, grid.cells)
    shift = grid.row_shift()
    rows = state.amps.reshape(grid.cells, k).T.copy()  # row d is direction d of every cell
    for _ in range(steps):
        # the shift is an involution, so gathering through it equals scattering
        rows = rows.reshape(-1)[shift].reshape(k, grid.cells)
        # 2 * mean with the arithmetic of numpy's complex mean, which sums a cell
        # two pairs first and divides by k as a product with 1/k: real and
        # complex states then step alike, bit for bit (one product with 2/k
        # would round apart where a sum is subnormal)
        twice_means = rows[0] + rows[1]
        twice_means += rows[2] + rows[3]
        for direction in range(4, k):
            twice_means += rows[direction]
        twice_means *= 1.0 / k
        twice_means *= 2.0
        twice_means[marked_idx] = 0.0  # 0 - amp is the negated identity coin
        np.subtract(twice_means, rows, out=rows)
    return StateVector._wrap(rows.T.ravel())


def grid_walk_probability_profile(grid: TorusGrid, marked, max_steps: int) -> np.ndarray:
    """Marked-cell probability after 0..max_steps steps from uniform.

    Pure analysis helper: no oracle is charged.  Exact oracle: reference for tests.
    """
    if max_steps < 0:
        raise ParameterError("max_steps must be >= 0")
    sim.check_state_size(max_steps + 1)
    marked_idx = sim._as_index_array(marked, grid.cells)
    state = uniform_coined_state(grid)
    profile = np.empty(max_steps + 1)
    for step in range(max_steps + 1):
        if step:
            state = grid_walk_step(grid, state, marked_idx)
        cells = state.amps.reshape(grid.cells, -1)
        profile[step] = (np.abs(cells[marked_idx]) ** 2).sum()
    return profile


@dataclass(frozen=True)
class GridWalkResult:
    cell: Optional[int]
    steps: int


def grid_walk_search(
    grid: TorusGrid, oracle: BitOracle, rng: SeededRng, step_budget: int
) -> GridWalkResult:
    """Run the coined walk a random number of steps, then measure one cell.

    Each step bundles one oracle query with one move and charges 1; the
    final membership check of the measured cell charges one more.
    """
    if oracle.size != grid.cells:
        raise ParameterError("oracle size must match grid cells")
    if step_budget < 1:
        raise ParameterError("step_budget must be >= 1")
    marked_idx = oracle.marked_indices()
    steps = int(rng.generator.integers(1, step_budget + 1))
    state = grid_walk_step(grid, uniform_coined_state(grid), marked_idx, steps)
    oracle.charge(steps)
    cell = sim.measure(state, rng) // grid.direction_count
    return GridWalkResult(cell=cell if oracle.query(cell) else None, steps=steps)


def grid_classical_search(grid: TorusGrid, oracle: BitOracle) -> GridWalkResult:
    """Boustrophedon scan; one bundled query-and-move step per visited cell.

    The scan order is fixed, and an empty marked set costs exactly one query
    per cell.
    """
    if oracle.size != grid.cells:
        raise ParameterError("oracle size must match grid cells")
    for position, cell in enumerate(grid.scan_order()):
        if oracle.query(int(cell)):
            return GridWalkResult(cell=int(cell), steps=position + 1)
    return GridWalkResult(cell=None, steps=grid.cells)


@dataclass(frozen=True)
class ChainEdges:
    """Transitions of a chain in row-major order, the chain's only copy of P.

    Edge e = (x, y) = (rows[e], cols[e]) carries P in `p` and sqrt(P) in `root`;
    row x owns edges starts[x] up to starts[x + 1], and transpose[e] is edge (y, x).
    """

    rows: np.ndarray
    cols: np.ndarray
    p: np.ndarray
    root: np.ndarray
    starts: np.ndarray
    transpose: np.ndarray

    @property
    def count(self) -> int:
        return int(self.rows.size)


class MarkovChain:
    """Symmetric row-stochastic chain with a marked subset, held as its edges.

    `MarkovChain(size, rows, cols, p)` takes the transitions x -> y with
    probability P in any order and adds up a pair listed twice.  The uniform
    distribution is stationary for any symmetric stochastic P, which keeps
    start-state preparation and hitting-time baselines simple.
    """

    def __init__(self, size: int, rows, cols, p, marked=()):
        self.size = size = int(size)
        rows, cols = (np.asarray(a, dtype=np.int64).ravel() for a in (rows, cols))
        p = np.asarray(p, dtype=np.float64).ravel()
        if size < 2 or not rows.size == cols.size == p.size:
            raise ParameterError("chain needs size >= 2 and one row, column and P per transition")
        # each check is written so that a NaN entry fails it
        if np.any((rows < 0) | (rows >= size) | (cols < 0) | (cols >= size)) or not np.all(p >= 0):
            raise ParameterError(f"transitions need states in [0, {size}) and P >= 0")
        # row-major order; a pair listed twice sums in listing order from 0
        keys, inverse = np.unique(rows * size + cols, return_inverse=True)
        p = np.bincount(inverse, weights=p, minlength=keys.size)
        rows, cols = np.divmod(keys, size)
        row_err = np.abs(np.bincount(rows, weights=p, minlength=size) - 1.0).max()
        if not row_err <= CHAIN_CONSTRUCTION_TOL:
            raise ParameterError(f"rows must sum to 1 (max error {row_err:.3g})")
        transpose = np.lexsort((rows, cols))
        if not (np.array_equal(rows[transpose], cols) and np.array_equal(cols[transpose], rows)):
            raise ParameterError("every listed transition x -> y needs y -> x listed too")
        sym_err = np.abs(p - p[transpose]).max()
        if not sym_err <= CHAIN_CONSTRUCTION_TOL:
            raise ParameterError(f"P must be symmetric (max error {sym_err:.3g})")
        self.edges = ChainEdges(rows, cols, p, np.sqrt(p), np.searchsorted(rows, np.arange(size)),
                                transpose)
        for arr in vars(self.edges).values():
            arr.setflags(write=False)
        self._mark(marked)
        # with_marked clones share the gap, the transition table and hitting solves
        self._structure: dict = {}
        self._hitting_cache: dict = {}

    def _mark(self, marked) -> None:
        self.marked_mask = sim.marked_mask(marked, self.size)
        self.marked_mask.setflags(write=False)
        self.marked = frozenset(np.flatnonzero(self.marked_mask).tolist())
        self._marked_edges = self.marked_mask[self.edges.rows]  # the rows szegedy_step flips

    def dense(self, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """P, or its block on the states where mask `keep` holds, fresh for LAPACK; size-checked."""
        keep = np.ones(self.size, dtype=bool) if keep is None else keep
        at = np.cumsum(keep) - 1  # a kept state's row in the block
        sim.check_state_size(int(at[-1] + 1) ** 2)
        rows, cols = self.edges.rows, self.edges.cols
        inner = keep[rows] & keep[cols]
        block = np.zeros((at[-1] + 1, at[-1] + 1))
        block[at[rows[inner]], at[cols[inner]]] = self.edges.p[inner]
        return block

    @property
    def spectral_gap(self) -> float:
        """Gap between the top two eigenvalues (top is 1 by stochasticity)."""
        if "gap" not in self._structure:
            eigenvalues = np.linalg.eigvalsh(self.dense())
            self._structure["gap"] = float(eigenvalues[-1] - eigenvalues[-2])
        return self._structure["gap"]

    def with_marked(self, marked) -> "MarkovChain":
        """Same transition structure, different marked set; caches carry over."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._mark(marked)
        return clone

    def transition_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's running sums of P at its edge columns, and those columns.

        The sums equal the dense row cumsum at the same columns: np.cumsum
        adds in order, and the zeros of P between edge columns add nothing.
        Rows are padded to one past the largest degree, sums with +inf and
        columns with the row's last edge column.  So the first sum above a
        draw u < 1 always exists, and its column is the next state; when
        rounding leaves the row's total at or below u, that is the row's
        last neighbour, as if its last interval ran on to 1.
        """
        if "transitions" not in self._structure:
            edges = self.edges
            degrees = np.diff(edges.starts, append=edges.count)
            width = int(degrees.max()) + 1
            sim.check_state_size(self.size * width)  # 8 B each for a sum and a column
            slots = np.arange(edges.count) - edges.starts[edges.rows]
            sums = np.zeros((self.size, width))
            sums[edges.rows, slots] = edges.p
            np.cumsum(sums, axis=1, out=sums)
            sums[np.arange(width) >= degrees[:, None]] = np.inf
            last = edges.cols[edges.starts + degrees - 1]
            cols = np.repeat(last, width).reshape(self.size, width)
            cols[edges.rows, slots] = edges.cols
            for arr in (sums, cols):
                arr.setflags(write=False)
            self._structure["transitions"] = sums, cols
        return self._structure["transitions"]


def _regular_chain(size: int, k: int, neighbours) -> MarkovChain:
    """Chain stepping to each of a state's k listed neighbours with probability 1/k.

    `neighbours()` builds the (size, k) neighbour table; it runs only after
    the size * k edges have passed sim.check_state_size.  A neighbour listed
    twice gets 2/k.
    """
    sim.check_state_size(EDGE_CAP_ENTRIES * size * k)
    return MarkovChain(size, np.repeat(np.arange(size), k), neighbours(),
                       np.full(size * k, 1.0 / k))


@functools.lru_cache(maxsize=32)
def _cycle_base(size: int) -> MarkovChain:
    return _regular_chain(
        size, 2, lambda: (np.arange(size)[:, None] + np.array([1, -1])) % size)


def cycle_chain(size: int, marked=()) -> MarkovChain:
    """Nearest-neighbor walk on a cycle."""
    if size < 3:
        raise ParameterError("cycle chain needs size >= 3")
    return _cycle_base(size).with_marked(marked)


@functools.lru_cache(maxsize=32)
def _torus_base(side: int, dimensions: int) -> MarkovChain:
    grid = TorusGrid(side, dimensions)
    k = grid.direction_count
    return _regular_chain(grid.cells, k, lambda: (grid.row_shift().reshape(k, -1) % grid.cells).T)


def torus_chain(side: int, dimensions: int = 2, marked=()) -> MarkovChain:
    """Nearest-neighbor walk on a periodic grid."""
    return _torus_base(side, dimensions).with_marked(marked)


def stationary_edge_state(chain: MarkovChain) -> np.ndarray:
    """Start state sqrt(P[x, y] / size), one amplitude per edge of the chain."""
    return chain.edges.root / math.sqrt(chain.size)


def _edge_amplitudes(chain: MarkovChain, edge_state) -> np.ndarray:
    psi = np.asarray(edge_state)
    count = chain.edges.count
    if psi.shape != (count,):
        raise ParameterError(
            f"edge state must have shape ({count},), one amplitude per edge; got {psi.shape}")
    return psi


def _row_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the runs of edge values that begin at `starts`.

    numpy adds complex runs of five or more in another order than real
    ones, so complex values are summed part by part: a complex state with
    zero imaginary part then steps bit for bit like its real part.
    """
    if not np.iscomplexobj(values):
        return np.add.reduceat(values, starts)
    sums = np.empty(starts.size, dtype=values.dtype)
    sums.real = np.add.reduceat(values.real, starts)
    sums.imag = np.add.reduceat(values.imag, starts)
    return sums


def szegedy_step(chain: MarkovChain, edge_state: np.ndarray) -> np.ndarray:
    """One quantized step on the edge amplitudes psi[(x, y)].

    Marked rows are phase-flipped, then the state is reflected about the
    span of row states |x>|p_x> and about its swapped counterpart.  A row
    overlap is a segmented sum of sqrt(P) * psi over the row's edges; a
    column overlap is the same sum over the transposed edges.  The state is
    never widened to the (size, size) pair array, so a step costs a few
    passes over the edges.  The result is float64 for real input and
    complex128 for complex input.
    """
    edges = chain.edges
    psi = _edge_amplitudes(chain, edge_state)
    psi = np.array(psi, dtype=np.complex128 if np.iscomplexobj(psi) else np.float64)
    if chain.marked:
        np.negative(psi, out=psi, where=chain._marked_edges)
    scratch = edges.root * psi
    overlap = 2.0 * _row_sums(scratch, edges.starts)  # doubling is exact: (2o)[rows] is 2(o[rows])
    np.subtract(np.multiply(overlap[edges.rows], edges.root, out=scratch), psi, out=psi)
    overlap = _row_sums(np.multiply(edges.root, psi, out=scratch)[edges.transpose], edges.starts)
    np.multiply(np.multiply(edges.root, 2.0, out=scratch), overlap[edges.cols], out=scratch)
    return np.subtract(scratch, psi, out=psi)


def marked_pair_probability(chain: MarkovChain, edge_state: np.ndarray) -> float:
    """Chance a measured pair is marked in either slot; raises if the norm has drifted."""
    p = np.abs(_edge_amplitudes(chain, edge_state)) ** 2
    total = p.sum()
    sim.check_norm(total, "edge state")
    keep = chain._marked_edges | chain.marked_mask[chain.edges.cols]
    return float(p[keep].sum() / total)


def measure_edge(chain: MarkovChain, edge_state: np.ndarray, rng: SeededRng) -> Tuple[int, int]:
    """Sample an ordered pair (x, y) from |psi[(x, y)]|^2; raises if the norm has drifted."""
    psi = _edge_amplitudes(chain, edge_state)
    edge = sim.born_table(psi).sample(rng.random())
    edges = chain.edges
    return int(edges.rows[edge]), int(edges.cols[edge])


@dataclass(frozen=True)
class WalkCosts:
    """Abstract cost weights: setup, per-step transition, per-step check."""

    setup: float = 0.0
    transition: float = 1.0
    check: float = 0.0

    def __post_init__(self):
        if self.setup < 0 or self.transition < 0 or self.check < 0:
            raise ParameterError("walk costs must be non-negative")


@dataclass(frozen=True)
class WalkSearchResult:
    state: Optional[int]
    walk_steps: int
    preparations: int
    cost: float


def recommended_step_budget(chain: MarkovChain) -> int:
    """Walk-step budget scaling as 1/sqrt(marked fraction times spectral gap)."""
    if not chain.marked:
        raise ParameterError("budget heuristic needs a non-empty marked set")
    product = len(chain.marked) / chain.size * max(chain.spectral_gap, 1e-12)
    return math.ceil(SZEGEDY_BUDGET_FACTOR / math.sqrt(product))


def szegedy_find_marked(
    chain: MarkovChain,
    costs: WalkCosts,
    rng: SeededRng,
    step_budget: Optional[int] = None,
    shot_cap: Optional[int] = None,
) -> WalkSearchResult:
    """Repeat short quantized walks until a measured pair touches the marked set.

    Each attempt restarts from the stationary pair state, runs a uniformly
    random number of steps up to the per-shot cap, and measures both slots.
    The cap defaults to default_shot_cap, the square root of the chain's
    classical mean hitting time. The reported cost is
    preparations*setup + steps*(transition + check).

    Every attempt starts from the same state, so a shot of length s measures
    the s-th state of one deterministic trajectory.  That trajectory is
    stepped only as far as the longest shot drawn so far; charges count the
    steps each shot would take on its own.  Raises SizeCapError before
    stepping if the longest possible trajectory, start state included, could
    outgrow sim.STATE_BYTE_CAP.
    """
    if step_budget is None:
        if not chain.marked:
            raise ParameterError("step_budget is required when nothing is marked")
        step_budget = recommended_step_budget(chain)
    if step_budget < 1:
        raise ParameterError("step_budget must be >= 1")
    if shot_cap is not None and shot_cap < 1:
        raise ParameterError("shot_cap must be >= 1")
    hit = None
    steps_used = 0
    preparations = 0
    if not chain.marked:
        # The stationary state is a fixed point when nothing is marked, so
        # no measurement can succeed; report the exhausted budget directly.
        steps_used, preparations = step_budget, 1
    else:
        if shot_cap is None:
            shot_cap = default_shot_cap(chain)
        sim.check_state_size((min(shot_cap, step_budget) + 1) * chain.edges.count)
        trajectory = [stationary_edge_state(chain)]
    marked = chain.marked
    while hit is None and steps_used < step_budget:
        shot = int(rng.generator.integers(1, shot_cap + 1))
        shot = min(shot, step_budget - steps_used)
        preparations += 1
        while len(trajectory) <= shot:
            trajectory.append(szegedy_step(chain, trajectory[-1]))
        steps_used += shot
        x, y = measure_edge(chain, trajectory[shot], rng)
        hit = x if x in marked else (y if y in marked else None)
    return WalkSearchResult(
        state=None if hit is None else int(hit),
        walk_steps=steps_used,
        preparations=preparations,
        cost=preparations * costs.setup + steps_used * (costs.transition + costs.check),
    )


def classical_hitting(chain: MarkovChain, rng: SeededRng, trials: int) -> float:
    """Monte Carlo mean steps from a stationary start to the marked set.

    The trials' start states are drawn first; then the trials walk one
    after another over one stream of uniforms, drawn HITTING_DRAW_CHUNK at
    a time.  A step draws u and moves to the column of the first running
    sum above u in its row of chain.transition_table(), found by bisection.
    The generator is left just past the uniforms used, as if they had been
    drawn one per step.  Raises SizeCapError once the trials' steps pass
    HITTING_STEP_GUARD.
    """
    if not chain.marked:
        raise ParameterError("hitting time needs a non-empty marked set")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    sums, cols = chain.transition_table()
    width = sums.shape[1]
    sums, cols = memoryview(sums.ravel()), memoryview(cols.ravel())
    marked = chain.marked
    gen = rng.generator
    total = drawn = 0  # steps taken and uniforms drawn, over all trials
    draws = iter(())
    for state in gen.integers(0, chain.size, size=trials).tolist():
        while state not in marked:
            for u in draws:
                total += 1
                start = state * width
                state = cols[bisect_right(sums, u, start, start + width)]
                if state in marked:
                    break
            else:
                if total > HITTING_STEP_GUARD:
                    raise SizeCapError("hitting-time simulation exceeded the step guard")
                saved = gen.bit_generator.state
                chunk = min(HITTING_DRAW_CHUNK, HITTING_STEP_GUARD + 1 - total)
                draws = iter(gen.random(chunk).tolist())
                drawn = total + chunk
        if total > HITTING_STEP_GUARD:
            raise SizeCapError("hitting-time simulation exceeded the step guard")
    if total < drawn:
        gen.bit_generator.state = saved  # and redraw only the uniforms used
        gen.random(chunk - (drawn - total))
    return total / trials


def exact_hitting_mean(chain: MarkovChain) -> float:
    """Mean hitting time from stationarity via the fundamental linear system."""
    if not chain.marked:
        raise ParameterError("hitting time needs a non-empty marked set")
    cache = chain._hitting_cache
    cached = cache.get(chain.marked)
    if cached is not None:
        return cached
    unmarked = chain.size - len(chain.marked)
    if unmarked == 0:
        mean = 0.0
    else:
        # I - Q built in place: 0 - q, then + 1 on the diagonal, round as eye - Q
        system = chain.dense(~chain.marked_mask)
        np.subtract(0.0, system, out=system)
        system.flat[:: unmarked + 1] += 1.0
        h = np.linalg.solve(system, np.ones(unmarked))
        mean = float(h.sum() / chain.size)
    if len(cache) >= HITTING_CACHE_ENTRIES:
        del cache[next(iter(cache))]
    cache[chain.marked] = mean
    return mean


def expected_steps_to_success(chain: MarkovChain, shot_cap: Optional[int] = None) -> float:
    """Exact expected walk steps until a measured pair touches the marked set.

    Closed-form companion to szegedy_find_marked with an unlimited budget.
    Shots are independent, with lengths uniform on [1, cap], so by Wald's
    identity the expected steps are the mean shot length (cap + 1)/2 over
    the mean chance that a shot hits, sum_{l=1..cap} P_l / cap, where P_l
    is the marked-pair probability after l steps of the deterministic
    trajectory.  The value carries no sampling noise; it is inf when no
    shot can hit.  Exact oracle: reference for tests.
    """
    if not chain.marked:
        raise ParameterError("expected steps need a non-empty marked set")
    if shot_cap is None:
        shot_cap = default_shot_cap(chain)
    elif shot_cap < 1:
        raise ParameterError("shot_cap must be >= 1")
    sim.check_state_size(shot_cap + 1)
    state = stationary_edge_state(chain)
    hit_sum = 0.0
    for _ in range(shot_cap):
        state = szegedy_step(chain, state)
        hit_sum += marked_pair_probability(chain, state)
    if hit_sum <= 0.0:
        return math.inf
    return (shot_cap + 1) / 2 * shot_cap / hit_sum


def default_shot_cap(chain: MarkovChain) -> int:
    """Per-shot step cap: square root of the classical mean hitting time.

    Quantized walks concentrate on marked states within roughly the square
    root of the classical hitting time, so shots longer than that waste
    steps on chains (cycles, notably) whose hitting time sits far below
    the generic 1/(marked_fraction*gap) bound.
    """
    if not chain.marked:
        raise ParameterError("shot cap needs a non-empty marked set")
    return math.ceil(math.sqrt(max(1.0, exact_hitting_mean(chain))))


def _subsets(element_count: int, width: int) -> np.ndarray:
    """The width-subsets of range(element_count), one per row, in lexicographic order."""
    count = math.comb(element_count, width)
    flat = itertools.chain.from_iterable(itertools.combinations(range(element_count), width))
    return np.fromiter(flat, dtype=np.intp, count=count * width).reshape(count, width)


def _ranks_without_one(members: np.ndarray, element_count: int) -> np.ndarray:
    """Lexicographic rank of row r of `members` without its i-th element, at [r, i].

    The rows are sorted w-subsets t of range(n), and a (w - 1)-subset c
    ranks C(n, w - 1) - 1 - sum_j C(n - 1 - c_j, w - 1 - j).  Dropping t_i
    keeps the elements before it in place and moves the later ones down
    one, so a row's ranks are a prefix sum of kept terms and a suffix sum of
    moved ones.  Every term is C(b + d, b) with b <= w and -1 <= d <= n - w.
    """
    n, w = element_count, members.shape[1]
    binom = np.zeros((w + 1, n - w + 2), dtype=np.int64)  # [b, d + 1] = C(b + d, b)
    binom[0, 1:] = 1
    for b in range(1, w + 1):  # the hockey-stick sums of the row above
        np.cumsum(binom[b - 1], out=binom[b])
    i = np.arange(w)
    kept = binom[w - 1 - i, n - w + 1 - (members - i)]
    moved = binom[w - i, n - w - (members - i)]
    return (math.comb(n, w - 1) - 1 - np.cumsum(kept, axis=1) + kept
            - moved.sum(axis=1, keepdims=True) + np.cumsum(moved, axis=1))


class JohnsonChain(MarkovChain):
    """Bipartite add/remove-one-element chain on M and M+1 subsets.

    States are the M-subsets, then the (M+1)-subsets, each layer in
    lexicographic order with a state's elements in its row of `members`.
    Every move has P = 1/degree for the larger layer degree, and a state's
    self-loop takes the rest, (degree - moves)/degree, so P is symmetric
    and stochastic; a zero self-loop is not listed.
    """

    def __init__(self, element_count: int, subset_size: int, marked=()):
        n, m = element_count, subset_size
        if not 1 <= m < n:
            raise ParameterError(f"subset size {m} must be in [1, {n - 1}]")
        lower, upper = math.comb(n, m), math.comb(n, m + 1)
        degree = max(n - m, m + 1)
        looped = lower * (n - m < degree) + upper * (m + 1 < degree)
        # both directions of every move, the self-loops and the member tables
        sim.check_state_size(EDGE_CAP_ENTRIES * (2 * upper * (m + 1) + looped)
                             + upper * (m + 1) + lower * m)
        self.members = (_subsets(n, m), _subsets(n, m + 1))
        down = _ranks_without_one(self.members[1], n).ravel()
        up = np.repeat(np.arange(lower, lower + upper), m + 1)
        moves = np.repeat([n - m, m + 1], [lower, upper])
        loops = np.flatnonzero(moves < degree)
        p = np.full(2 * down.size + loops.size, 1.0 / degree)
        p[2 * down.size:] = (degree - moves[loops]) / degree
        super().__init__(lower + upper, np.concatenate([down, up, loops]),
                         np.concatenate([up, down, loops]), p, marked)

    def subset_of(self, state: int) -> Tuple[int, ...]:
        lower, upper = self.members
        return tuple((lower[state] if state < len(lower) else upper[state - len(lower)]).tolist())


@functools.lru_cache(maxsize=8)
def _johnson_base(element_count: int, subset_size: int) -> JohnsonChain:
    return JohnsonChain(element_count, subset_size)


def johnson_chain(element_count: int, subset_size: int, oracle: ValueOracle) -> JohnsonChain:
    """Subset chain with states marked when they contain a value collision."""
    if oracle.size != element_count:
        raise ParameterError("oracle size must match element count")
    chain = _johnson_base(element_count, subset_size)
    values = oracle.peek_all()
    collides = []
    for members in chain.members:  # a sorted row holds a collision next to itself
        held = np.sort(values[members], axis=1)
        collides.append((held[:, 1:] == held[:, :-1]).any(axis=1))
    return chain.with_marked(np.concatenate(collides))


def collision_vertex_probability(element_count: int, subset_size: int) -> Fraction:
    """Chance a uniform subset of the given size contains a fixed pair.

    Exact oracle: reference for tests.
    """
    if element_count < 1:
        raise ParameterError("element count must be >= 1")
    if not 0 <= subset_size <= element_count:
        raise ParameterError(
            f"subset size {subset_size} outside [0, {element_count}]"
        )
    if subset_size < 2:
        return Fraction(0)
    return Fraction(subset_size, element_count) * Fraction(subset_size - 1, element_count - 1)


@dataclass(frozen=True)
class EdWalkResult:
    pair: Optional[Tuple[int, int]]
    queries: int
    walk_steps: int


def ed_walk(
    oracle: ValueOracle,
    element_count: int,
    subset_size: int,
    rng: SeededRng,
    step_budget: Optional[int] = None,
    shot_cap: Optional[int] = None,
) -> EdWalkResult:
    """Collision search by quantized walk on the subset chain.

    Charges `subset_size` queries to populate the start vertex and one query
    per walk step; a measured collision-containing subset yields the pair
    from values already paid for.  With no collision the walk spends
    ceil(SZEGEDY_BUDGET_FACTOR * sqrt(states)) steps unless `step_budget`
    is given.  Explicit step_budget and shot_cap skip the per-chain
    schedule solve, which repeated studies want to reuse.
    """
    chain = johnson_chain(element_count, subset_size, oracle)
    start_count = oracle.query_count
    oracle.charge(subset_size)
    if step_budget is None and not chain.marked:
        step_budget = math.ceil(SZEGEDY_BUDGET_FACTOR * math.sqrt(chain.size))
    result = szegedy_find_marked(chain, WalkCosts(setup=subset_size), rng, step_budget, shot_cap)
    oracle.charge(result.walk_steps)
    pair = None
    if result.state is not None:  # johnson_chain's rule: equal values sort next to each other
        values = oracle.peek_all()
        held = sorted((int(values[element]), element) for element in chain.subset_of(result.state))
        pair = next(((a, b) for (u, a), (v, b) in zip(held, held[1:]) if u == v), None)
        if pair is None:
            raise RuntimeError("marked subset lost its collision; chain marking is broken")
    return EdWalkResult(pair=pair, queries=oracle.query_count - start_count,
                        walk_steps=result.walk_steps)
