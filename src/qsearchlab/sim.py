"""Dense statevector simulation with deterministic randomness and query-counted oracles.

States are amplitude vectors over an N-dimensional search space; there is
deliberately no qubit tensor structure.  Amplitudes stay real (float64)
until a complex phase enters: phase flips and the diffusion keep them
real, and the two rotations promote them to complex128.  Black boxes are
immutable bit/value tables with a monotone query counter.  The simulator
may read a black box wholesale while *building* an operator, but cost is
charged per operator application, never per basis state inspected.

The norm is checked where amplitudes enter and where they leave:
`StateVector(amps)` refuses a squared norm further than MEASURE_NORM_TOL
from 1 and renormalizes one past NORM_DRIFT_LIMIT; measurement and
`probabilities()` refuse one past MEASURE_NORM_TOL (`check_norm`).  Every
operator in between is a plain unitary map that never renormalizes, so a
broken contract (a stale carried sum, say) reaches measurement as a
NormalizationError.  Operators update the state you pass and return that
same object; `copy()` first to keep it.

So that a Grover round reads the state once, a state may carry `_carry`,
the sum of its amps.  The diffusion reads a carried sum, or sums the state
once, and keeps it (a -> 2*mean - a leaves it unchanged); the flip moves a
carried sum by -2 times the sum of the negated entries.  Construction,
`copy()`, the rotations, measurement and the walks start with no carry.
The operators are the only writers of a state's amps: a caller that edits
amplitudes in place edits a `copy()`.

Measurement draws from a `WeightTable` of |amps|^2: one sequential running
sum up to ONE_LEVEL_MAX amplitudes; above that, a running sum over
vectorized BLOCK totals plus a sequential sum over the one block a draw
lands in.  Either way the squared norm is checked, the draw is scaled by
it, and no index of zero weight is returned.  This is the package's one
sampler: the walks measure their flat amplitude vectors through it too.

STATE_BYTE_CAP is the package's one memory budget, and `check_state_size`
its one check: states, Szegedy trajectories, dense chain matrices and bench
value tables all pass it before their first size-driven array exists.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "ParameterError",
    "NormalizationError",
    "SizeCapError",
    "UnsupportedModeError",
    "SeededRng",
    "StateVector",
    "BitOracle",
    "ValueOracle",
    "uniform_state",
    "basis_state",
    "apply_phase_flip",
    "apply_phase_rotation",
    "apply_diffusion",
    "apply_diffusion_rotation",
    "marked_mask",
    "check_state_size",
    "check_norm",
    "WeightTable",
    "born_table",
    "measure",
]

# StateVector construction renormalizes amplitudes whose norm is further
# than this from 1; operators are unitary and never renormalize.
NORM_DRIFT_LIMIT = 1e-9
# Measurement and StateVector construction refuse states whose squared norm
# is further than this from 1.
MEASURE_NORM_TOL = 1e-6
# The one byte budget for states, trajectories, chains and dense matrices,
# counted at 16 B per entry (a complex128 amplitude, a float64 matrix entry
# and its LAPACK copy, or a sixth of a chain edge): 2^24 entries.
STATE_BYTE_CAP = 256 * 2**20
# Weight tables of at most ONE_LEVEL_MAX entries are one sequential running
# sum, which is latency-bound at about 3 ns an entry; larger ones use blocks
# of BLOCK entries.  One BLAS thread, numpy 2.4: measuring a random state
# took 84-88 -> 30-34 us at 16,384 amplitudes and 311-326 -> 41-55 us at
# 65,536.  Lower cuts lost (median of 60 trials, 3 alternations): cut at
# 2,048, a min-scaling@4096 trial took 3.6 ms against 3.2 ms; cut at 1,024,
# local-min@16384 (sampled states of 1,555 amplitudes) took 3.4 ms against 2.5.
ONE_LEVEL_MAX = 8192
BLOCK = 1024


class ParameterError(ValueError):
    """An algorithm precondition on parameters was violated."""


class NormalizationError(ValueError):
    """State norm too far from 1 for the requested operation."""


class SizeCapError(ValueError):
    """Requested instance exceeds a desk-scale cap."""


class UnsupportedModeError(ParameterError):
    """Operation invoked in a mode it does not support."""


class SeededRng:
    """Splittable deterministic random stream.

    Identical (master_seed, stream_id) pairs reproduce the same draw
    sequence; distinct stream ids are statistically independent, so
    concurrent trials never share generator state.  `generator`, a PCG64
    `Generator`, is built on first use, so a parent that is only split
    never pays for one; `split` builds its child's at once, since a child
    is split off to be drawn from.
    """

    def __init__(self, master_seed: int, stream_id: int = 0, _subkey: tuple = ()):
        if master_seed < 0 or stream_id < 0:
            raise ParameterError("seeds and stream ids must be non-negative")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self._subkey = tuple(int(k) for k in _subkey)

    def __getattr__(self, name: str):
        # called only while `generator` is not yet an instance attribute
        if name != "generator":
            raise AttributeError(name)
        return self._build()

    def _build(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_id, *self._subkey)
        )
        self.generator = np.random.default_rng(seq)
        return self.generator

    def split(self, index: int) -> "SeededRng":
        """Independent child stream, deterministic in (self, index)."""
        child = SeededRng(self.master_seed, self.stream_id, self._subkey + (int(index),))
        child._build()
        return child

    # Thin passthrough for the draws used throughout the package.
    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = f", subkey={self._subkey}" if self._subkey else ""
        return f"SeededRng(master_seed={self.master_seed}, stream_id={self.stream_id}{key})"


class StateVector:
    """Normalized amplitudes over a finite basis (0-based indices).

    `StateVector(amps)` copies its input, as float64 for real input and
    complex128 for complex input, and settles its norm (see the module
    docstring).  State builders wrap their own arrays with `_wrap`, and only
    the operators set `_carry`.
    """

    __slots__ = ("amps", "_carry")

    def __init__(self, amps):
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        arr = np.array(amps, dtype=dtype)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("state needs a non-empty 1-D amplitude vector")
        n2 = np.vdot(arr, arr).real
        check_norm(n2, "amplitudes")
        # |sum|a|^2 - 1| ~ 2*|norm - 1| near 1, so compare against twice the limit
        if abs(n2 - 1.0) > 2.0 * NORM_DRIFT_LIMIT:
            arr /= np.sqrt(n2)
        self.amps = arr
        self._carry = None

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "StateVector":
        """A builder's own 1-D float64 or complex128 array, taken as it is."""
        state = cls.__new__(cls)
        state.amps = amps
        state._carry = None
        return state

    @property
    def dimension(self) -> int:
        return int(self.amps.size)

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amps, self.amps).real))

    def probabilities(self) -> np.ndarray:
        """|amps|^2 over its sum; raises if the norm has drifted."""
        p = np.abs(self.amps) ** 2
        total = p.sum()
        check_norm(total, "cannot read probabilities: state")
        return p / total

    def copy(self) -> "StateVector":
        return StateVector._wrap(self.amps.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(dimension={self.dimension})"


def check_norm(n2: float, what: str) -> None:
    """Raise NormalizationError unless a squared norm is within MEASURE_NORM_TOL of 1."""
    if not abs(n2 - 1.0) <= MEASURE_NORM_TOL:  # a NaN norm fails too
        raise NormalizationError(f"{what} has squared norm {n2:.6g}, expected 1")


def check_state_size(dimension: int) -> None:
    """Raise SizeCapError if `dimension` entries at 16 B would pass STATE_BYTE_CAP.

    The entries are a state's amplitudes, a trajectory's edge amplitudes, a
    chain's edges, a dense P for LAPACK or a bench value table.
    """
    if dimension < 1:
        raise ParameterError(f"dimension must be >= 1, got {dimension}")
    if dimension * 16 > STATE_BYTE_CAP:
        raise SizeCapError(
            f"{dimension} entries need {dimension * 16} bytes, over the cap "
            f"of {STATE_BYTE_CAP}")


def uniform_state(dimension: int) -> StateVector:
    """Equal superposition over `dimension` basis states."""
    check_state_size(dimension)
    amps = np.full(dimension, 1.0 / np.sqrt(dimension))
    return StateVector._wrap(amps)


def basis_state(dimension: int, index: int = 0) -> StateVector:
    """Deterministic state concentrated on one basis index."""
    check_state_size(dimension)
    if not 0 <= index < dimension:
        raise IndexError(f"basis index {index} out of range for dimension {dimension}")
    amps = np.zeros(dimension)
    amps[index] = 1.0
    return StateVector._wrap(amps)


class _CountingOracle:
    """Shared query-counter plumbing; charges can fan out to wrapped bases."""

    def __init__(self, charge_to: Sequence["_CountingOracle"] = ()):
        self._queries = 0
        self._bases = tuple(charge_to)

    @property
    def query_count(self) -> int:
        return self._queries

    def charge(self, amount: int = 1) -> None:
        if amount < 0:
            raise ParameterError("query charges cannot be negative")
        self._queries += int(amount)
        for base in self._bases:
            base.charge(amount)


class BitOracle(_CountingOracle):
    """Immutable black-box bit string; every probe or phase application costs 1.

    The one marked-set oracle.  A bool mask is taken without the 0/1 check;
    callers that hold marked indices pass `marked_mask(indices, size)`.
    Charges fan out to the oracles in `charge_to`, so a threshold or
    neighbour oracle over a value table still charges that table per query.
    """

    def __init__(self, bits, charge_to: Sequence[_CountingOracle] = ()):
        super().__init__(charge_to)
        is_mask = getattr(bits, "dtype", None) == bool
        arr = np.array(bits, dtype=bool if is_mask else np.uint8, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("bit oracle needs a non-empty 1-D bit table")
        if not is_mask and not np.all((arr == 0) | (arr == 1)):
            raise ParameterError("bit oracle entries must be 0 or 1")
        arr.setflags(write=False)
        self._bits = arr

    @property
    def size(self) -> int:
        return int(self._bits.size)

    def query(self, index: int) -> int:
        """Classical probe of one bit; charges one query."""
        if not 0 <= index < self._bits.size:
            raise IndexError(f"oracle index {index} out of range for size {self._bits.size}")
        self.charge(1)
        return int(self._bits[index])

    def marked_indices(self) -> np.ndarray:
        """Simulation-side view used to build operators; free of charge."""
        return np.flatnonzero(self._bits)


class ValueOracle(_CountingOracle):
    """Immutable black-box integer table with per-probe charging."""

    def __init__(self, values, charge_to: Sequence[_CountingOracle] = ()):
        super().__init__(charge_to)
        arr = np.array(values, dtype=np.int64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("value oracle needs a non-empty 1-D value table")
        arr.setflags(write=False)
        self._values = arr

    @property
    def size(self) -> int:
        return int(self._values.size)

    def _to_index(self, index) -> int:
        # subclasses widen the accepted addresses, then defer here for the range
        if not 0 <= index < self._values.size:
            raise IndexError(f"oracle index {index} out of range for size {self._values.size}")
        return int(index)

    def value(self, index: int) -> int:
        """Classical probe of one table entry; charges one query."""
        index = self._to_index(index)
        self.charge(1)
        return int(self._values[index])

    def peek(self, index: int) -> int:
        """Simulation-side read for operator construction; free of charge."""
        return int(self._values[self._to_index(index)])

    def peek_all(self) -> np.ndarray:
        """Simulation-side read-only view of the whole table; free of charge."""
        return self._values


def marked_mask(marked: Union[np.ndarray, Iterable[int]], size: int) -> np.ndarray:
    """Fresh boolean mask of length `size` from a boolean mask or marked indices."""
    arr = np.asarray(list(marked) if isinstance(marked, (set, frozenset)) else marked)
    mask = np.zeros(size, dtype=bool)
    if arr.dtype == bool:
        if arr.size != size:
            raise ParameterError(f"marked mask length {arr.size} must equal size {size}")
        mask[:] = arr.ravel()
    else:
        idx = arr.astype(np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise IndexError(f"marked index out of range for size {size}")
        mask[idx] = True
    return mask


class _CheckedIndices(np.ndarray):
    """Read-only sorted, distinct indices; _as_index_array then range-checks only their ends."""


def _as_index_array(marked, dimension: int) -> np.ndarray:
    idx = marked
    if type(idx) is not _CheckedIndices:
        idx = np.asarray(sorted(idx) if isinstance(idx, (set, frozenset)) else idx,
                         dtype=np.int64).ravel()
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            idx = np.unique(idx)  # duplicate entries must not double-flip
        idx = idx.view(_CheckedIndices)
        idx.setflags(write=False)
    if idx.size and (idx[0] < 0 or idx[-1] >= dimension):
        raise IndexError(f"marked index out of range for dimension {dimension}")
    return idx


def apply_phase_flip(state: StateVector, marked, oracle: _CountingOracle) -> StateVector:
    """Negate the marked amplitudes of `state`; charges one oracle query.

    A carried sum moves by -2 times the sum of the negated entries.
    """
    idx = _as_index_array(marked, state.dimension)
    amps = state.amps
    picked = amps[idx]
    if state._carry is not None:
        state._carry = state._carry - 2.0 * np.add.reduce(picked)
    amps[idx] = -picked
    oracle.charge(1)
    return state


def apply_phase_rotation(
    state: StateVector, marked, angle: float, oracle: _CountingOracle
) -> StateVector:
    """Multiply the marked amplitudes of `state` by exp(i*angle); charges one oracle query."""
    idx = _as_index_array(marked, state.dimension)
    amps = state.amps.astype(np.complex128)
    amps[idx] = amps[idx] * np.exp(1j * angle)
    oracle.charge(1)
    state.amps, state._carry = amps, None
    return state


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect `state` about the uniform superposition: a_i -> 2*mean(a) - a_i.

    The mean comes from the carried amplitude sum, or from one pass over a
    state that carries no sum, and the state then carries that sum on.
    """
    carry = state._carry
    if carry is None:
        carry = np.add.reduce(state.amps)  # ndarray.sum without its wrapper
    mean = carry / state.amps.size
    np.subtract(2.0 * mean, state.amps, out=state.amps)
    state._carry = carry
    return state


def apply_diffusion_rotation(state: StateVector, angle: float) -> StateVector:
    """Apply I + (exp(i*angle) - 1) |u><u| to `state`, with u the uniform superposition.

    At angle = pi this is the negated standard diffusion; intermediate angles
    give the partial reflections used by the exact-certainty search.
    """
    mean = state.amps.mean()
    state.amps, state._carry = state.amps + (np.exp(1j * angle) - 1.0) * mean, None
    return state


class WeightTable:
    """Index sampler over the weights |amps|^2.

    `edges` is the running sum of the weights, except for more than
    ONE_LEVEL_MAX amplitudes: then it is the running sum of the totals of
    BLOCK-long blocks (the last may be shorter), and a draw reads the
    amplitudes again for the block it lands in, so the table is valid only
    until they change.
    """

    __slots__ = ("edges", "total", "_amps")

    def __init__(self, amps: np.ndarray):
        self._amps = None
        if amps.size <= ONE_LEVEL_MAX:
            weights = _born_weights(amps)
        else:
            kind = np.complex128 if np.iscomplexobj(amps) else np.float64
            self._amps = amps = np.ascontiguousarray(amps, dtype=kind)
            # block totals: complex amplitudes are summed as (real, imaginary)
            # float pairs, by row-wise dot products batched through matmul
            flat = amps.view(np.float64)
            width = BLOCK * (flat.size // amps.size)
            whole = flat.size - flat.size % width
            rows = flat[:whole].reshape(-1, width)
            weights = (rows[:, None, :] @ rows[:, :, None]).ravel()
            if whole < flat.size:
                tail = flat[whole:]
                weights = np.append(weights, tail @ tail)
        self.edges = np.cumsum(weights, out=weights)
        if self._amps is not None and self.edges[-1] < self._amps.size * _TINY:
            # a square rounded into the subnormal range is off by up to an ulp
            # of 2^-1074, which is no longer small against such a total: sum
            # the very weights a draw reads back inside its block
            blocks = np.add.reduceat(_born_weights(self._amps), np.arange(0, self._amps.size, BLOCK))
            self.edges = np.cumsum(blocks, out=blocks)
        self.total = self.edges[-1]

    def sample(self, draw: float) -> int:
        """Index whose slice of the running weight sum holds a draw in [0, 1).

        The draw is scaled by the total, so the weights need not sum to 1
        and an index of zero weight is never returned.
        """
        target = draw * self.total
        index = int(np.searchsorted(self.edges, target, side="right"))
        if index == self.edges.size:  # a subnormal total: the scaled draw rounded onto it
            index = int(np.searchsorted(self.edges, self.total, side="left"))
        if self._amps is None:
            return index
        start = index * BLOCK
        local = np.cumsum(_born_weights(self._amps[start:start + BLOCK]))
        offset = int(np.searchsorted(local, target - self.edges[index - 1] if index else target,
                                     side="right"))
        if offset == local.size:  # rounding put the remainder past the block's own sum
            offset = int(np.searchsorted(local, local[-1], side="left"))
        return start + offset

    def sample_many(self, draws: list) -> list:
        """`sample` of each draw: one search over a one-level table, else one per draw."""
        if self._amps is None:
            targets = np.multiply(draws, self.total)
            picked = np.searchsorted(self.edges, targets, side="right").tolist()
            if max(picked) < self.edges.size:
                return picked
        return [self.sample(draw) for draw in draws]


_TINY = np.finfo(np.float64).tiny


def _born_weights(amps: np.ndarray) -> np.ndarray:
    return np.square(np.abs(amps) if np.iscomplexobj(amps) else amps)


def born_table(amps: np.ndarray) -> WeightTable:
    """Weight table of |amps|^2; raises if its total, the squared norm, has drifted."""
    table = WeightTable(amps)
    check_norm(table.total, "cannot measure: state")
    return table


def measure(state: StateVector, rng: SeededRng) -> int:
    """Sample a basis index from |amps|^2; raises if the norm has drifted."""
    return born_table(state.amps).sample(rng.random())
