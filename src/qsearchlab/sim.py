"""Dense statevector simulation with deterministic randomness and query-counted oracles.

States are amplitude vectors over an N-dimensional search space; there is
deliberately no qubit tensor structure.  Amplitudes stay real (float64)
until a complex phase enters: phase flips and the diffusion keep them
real, and the two rotations promote them to complex128 once.  A rotation
writes a complex state's own buffer in place; only a real or read-only one
is copied, into a fresh complex128 buffer.  Black boxes are
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

A reflection stays pending, so that a Grover or amplification round costs
O(marked), not O(N).  A state holds a buffer r, a sign sigma = +-1, a
coefficient beta and an axis w: None for the all-ones vector of the
diffusion, or an amplification round's start state.  Its amplitudes are
sigma*r + beta*w.  It may carry `_carry`, the overlap <w|amps>, which a
reflection about w leaves as it is: `_reflect` only negates sigma and moves
beta (summing the state once when it carries nothing), and the flip writes
the marked entries of r alone and moves the carry by -2 times the overlap
of w with the negated amplitudes.  Reading `amps` writes sigma*r + beta*w
into r and resets sigma and beta; the carry stays valid.  A reflection
about another axis first writes the pending one out.  `_run_rounds` steps
Grover and amplification rounds: a first round through the operators starts
the carry, and the rest run as one loop over the marked entries
(`_repeat_round`, which is also the flip), gathered and written back once.
Construction, `copy()`, the rotations and the walks start with nothing
pending and no carry.  The operators are the only writers of a state's
amps: a caller that edits amplitudes in place edits a `copy()`.

Measurement draws from a `WeightTable` of |amps|^2: one sequential running
sum up to ONE_LEVEL_MAX amplitudes; above that, a running sum over
vectorized BLOCK totals plus a sequential sum over the one block a draw
lands in.  Either way the squared norm is checked, the draw is scaled by
it, and no index of zero weight is returned.  This is the package's one
sampler: the walks measure their flat amplitude vectors through it too.
A restart sweep needs only its first draw that lands on a marked index
(`WeightTable.first_marked`): a draw whose block holds none is a miss, so
only the others are resolved inside their block; with nothing marked, the
sweep builds one table, at its last attempt's depth.

STATE_BYTE_CAP is the package's one memory budget, and `check_state_size`
its one check: states, Szegedy trajectories, dense chain matrices and bench
value tables all pass it before their first size-driven array exists.

`RawDraws` decodes a `Generator`'s scalar draws from its raw PCG64 words,
by the rules in its docstring; the restart plan and the planted formulas
draw through it.
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
    "RawDraws",
    "place_draws",
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
# A flip steps at most SMALL_SUM marked entries as Python numbers.  numpy's
# reduction costs about 0.53 us at any length up to 128; a Python sum took
# 0.07 us for 2 entries and 0.18 (real) or 0.39 us (complex) for 16, and is
# the slower one past about 64 real or 24 complex entries (one BLAS thread,
# numpy 2.4).
SMALL_SUM = 16
# Raw generator words a RawDraws reads per refill, so no read is sized by
# the caller's input; over criterion 05's 13,590 restart plans this took
# 13,751 reads.
RAW_WORDS = 64


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


class RawDraws:
    """Scalar draws of a numpy `Generator`, decoded from its raw PCG64 words.

    `take` reads `bit_generator.random_raw` in blocks of RAW_WORDS and
    decodes each draw as numpy 2's `Generator` on the same bit generator
    would make it; `place` then sets the generator where those draws leave
    it.  The rules:

    - `integers(0, hi)` with 1 < hi <= 2**32 is Lemire's method on one
      uint32: the product u * hi is kept when its low 32 bits are at least
      2**32 % hi, and its high 32 bits are the draw.  The uint32 is the bit
      generator's buffered half (`has_uint32`, `uinteger`) when one is set;
      otherwise the low half of a fresh word, whose high half is then
      buffered.  Past 2**32 the same test runs on whole words at 64 bits,
      and `integers(0, 1)` reads nothing.
    - `integers(0, 2, size=k)` is k such draws below 2, each the top bit of
      its uint32 (a power of two is never rejected).
    - `random()` is (w >> 11) * 2**-53 of one fresh word; it leaves the
      buffered half alone, as `random_raw` does.
    - `choice(n, 3, replace=False)` for n <= 10,000 is Floyd's algorithm:
      draws below n - 2, n - 1 and n, where a draw already taken is replaced
      by n - 3, n - 2 or n - 1 in turn.  A shuffle follows: a draw below 3
      picks the slot that swaps with slot 2, then a draw below 2 the slot
      that swaps with slot 1.  numpy's tail-shuffle branch for populations
      over 10,000 is never reached: `random_planted_formula`, the one
      caller, refuses more than MAX_SAT_VARIABLES = 512 variables first.

    `tests/test_grover.py::test_plan_decodes_the_scalar_draws` and
    `tests/test_applications.py` pin these rules, and the generator state
    after the draws, against numpy.
    """

    __slots__ = ("entry", "_bit_generator", "_words", "_used", "_has", "_half")

    def __init__(self, bit_generator):
        self.entry = bit_generator.state
        self._bit_generator = bit_generator
        self._words: list[int] = []
        self._used = 0
        self._has, self._half = self.entry["has_uint32"], self.entry["uinteger"]

    def take(self, bounds: Iterable[int], marks: list | None = None) -> list:
        """One `integers(0, hi)` draw per bound, in order.

        With `marks`, each draw is followed by a `random()` draw, which comes
        right after it in the returned list, and `mark()` as it stands after
        that pair is appended to `marks`.
        """
        words, used, has, half = self._words, self._used, self._has, self._half
        out = []
        for hi in bounds:
            if hi == 1:  # integers(0, 1) reads nothing
                out.append(0)
            elif hi <= 1 << 32:
                while True:  # Lemire's rejection loop on uint32 halves
                    if has:
                        value, has = half, 0
                    else:
                        if used == len(words):
                            words += self._bit_generator.random_raw(RAW_WORDS).tolist()
                        value = words[used]
                        used += 1
                        value, half, has = value & 0xFFFFFFFF, value >> 32, 1
                    product = value * hi
                    low = product & 0xFFFFFFFF
                    if low >= hi or low >= (1 << 32) % hi:  # the threshold is below hi
                        break
                out.append(product >> 32)
            elif hi <= 1 << 63:
                while True:  # the same loop on whole words
                    if used == len(words):
                        words += self._bit_generator.random_raw(RAW_WORDS).tolist()
                    product = words[used] * hi
                    used += 1
                    if product & 0xFFFFFFFFFFFFFFFF >= (1 << 64) % hi:
                        break
                out.append(product >> 64)
            else:
                raise ParameterError(f"draw bound {hi} is past the int64 range")
            if marks is not None:  # a unit draw of one fresh word
                if used == len(words):
                    words += self._bit_generator.random_raw(RAW_WORDS).tolist()
                out.append((words[used] >> 11) * 2.0**-53)
                used += 1
                marks.append((used, has, half))
        self._used, self._has, self._half = used, has, half
        return out

    def mark(self) -> tuple[int, int, int]:
        """The position after the draws so far: (words read, has_uint32, uinteger)."""
        return self._used, self._has, self._half

    def place(self) -> None:
        """Set the generator where the draws so far leave it."""
        place_draws(self._bit_generator, self.entry, self.mark())


def place_draws(bit_generator, entry: dict, mark: tuple[int, int, int]) -> None:
    """Set `bit_generator` where the draws from state `entry` up to `mark` leave it."""
    used, has, half = mark
    # random_raw leaves the buffered half alone, so it can be set first
    bit_generator.state = dict(entry, has_uint32=has, uinteger=half)
    bit_generator.random_raw(used)


class StateVector:
    """Normalized amplitudes over a finite basis (0-based indices).

    `StateVector(amps)` copies its input, as float64 for real input and
    complex128 for complex input, and settles its norm (see the module
    docstring).  State builders wrap their own arrays with `_wrap`.  The
    amplitudes are sign * _r + beta * w, where w is `_axis` (None: the
    all-ones vector); only the operators set the pending sign, beta, axis
    and `_carry`, and reading `amps` writes them into `_r`.
    """

    __slots__ = ("_r", "_sign", "_beta", "_axis", "_carry")

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
        self._hold(arr)

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "StateVector":
        """A builder's own writeable 1-D float64 or complex128 buffer, stepped in place."""
        state = cls.__new__(cls)
        state._hold(amps)
        return state

    def _hold(self, amps: np.ndarray) -> None:
        """Take `amps` as the amplitudes: nothing pending, no carry."""
        self._r, self._sign, self._beta, self._axis, self._carry = amps, 1.0, 0.0, None, None

    @property
    def amps(self) -> np.ndarray:
        """The amplitude buffer, with any pending reflection first written into it."""
        if self._beta or self._sign < 0:
            r = self._r
            offset = self._beta if self._axis is None else self._beta * self._axis
            if self._sign > 0:
                np.add(r, offset, out=r)
            else:
                np.subtract(offset, r, out=r)
            self._sign, self._beta = 1.0, 0.0
        return self._r

    @property
    def dimension(self) -> int:
        return int(self._r.size)

    def norm(self) -> float:
        amps = self.amps
        return float(np.sqrt(np.vdot(amps, amps).real))

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

    The one marked-set oracle, and the one owner of its marked set: searches
    read the checked marked indices and the table from it, free of charge.
    A bool mask is taken without the 0/1 check; callers that hold marked
    indices pass `marked_mask(indices, size)`.  Charges fan out to the
    oracles in `charge_to`, so a threshold or neighbour oracle over a value
    table still charges that table per query.
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
        self._marked = None

    @property
    def size(self) -> int:
        return int(self._bits.size)

    def query(self, index: int) -> int:
        """Classical probe of one bit; charges one query."""
        if not 0 <= index < self._bits.size:
            raise IndexError(f"oracle index {index} out of range for size {self._bits.size}")
        self.charge(1)
        return 1 if self._bits[index] else 0  # int() of a numpy bool costs twice as much

    def marked_indices(self) -> np.ndarray:
        """Read-only checked marked indices for building operators; free of charge."""
        if self._marked is None:  # the table is immutable: one check serves every call
            # a checked 0/1 table read as a mask: the mask branch builds a fresh array
            self._marked = _as_index_array(self._bits.view(bool), self._bits.size)
        return self._marked

    def peek_all(self) -> np.ndarray:
        """Simulation-side read-only view of the whole bit table; free of charge."""
        return self._bits


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
    """Fresh boolean mask of length `size` of a marked set, as `_as_index_array` reads it."""
    mask = np.zeros(size, dtype=bool)
    mask[_as_index_array(marked, size)] = True
    return mask


class _CheckedIndices(np.ndarray):
    """Read-only sorted, distinct indices; _as_index_array then range-checks only their ends.

    Only the array that `_as_index_array` built is trusted: views, copies,
    fancy-indexed picks and ufunc results keep the type but are checked again.
    """

    def __array_finalize__(self, obj) -> None:
        self.trusted = False


def _as_index_array(marked, dimension: int) -> np.ndarray:
    """The one reader of a marked set: read-only, sorted, distinct int64 indices below `dimension`.

    A marked set is a bool mask of length `dimension`, or integer indices in
    a set, a sequence or an array; duplicates count once, and an empty
    sequence is the empty set.  A mask of another length or a non-integer
    index raises ParameterError, an index out of range IndexError.  The
    array this returns shares no memory with the caller's; it is trusted, and
    passes again with only its ends checked.
    """
    idx = marked
    if type(idx) is not _CheckedIndices or not idx.trusted:
        idx = np.asarray(sorted(idx) if isinstance(idx, (set, frozenset)) else idx)
        if idx.dtype == bool:
            if idx.size != dimension:
                raise ParameterError(f"marked mask length {idx.size} must equal size {dimension}")
            idx = np.flatnonzero(idx)
        elif idx.size and idx.dtype.kind not in "iu":
            raise ParameterError(f"marked indices must be integers, got {idx.dtype} entries")
        idx = idx.astype(np.int64, copy=False).ravel()
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            idx = np.unique(idx)  # duplicate entries must not double-flip
        elif isinstance(marked, np.ndarray) and np.may_share_memory(idx, marked):
            idx = idx.copy()  # the caller may still write its array
        idx = idx.view(_CheckedIndices)
        idx.setflags(write=False)
        idx.trusted = True
    if idx.size and (idx[0] < 0 or idx[-1] >= dimension):
        raise IndexError(f"marked index out of range for dimension {dimension}")
    return idx


def _run_rounds(state: StateVector, marked, oracle: _CountingOracle, count: int,
                axis=None) -> StateVector:
    """Step `state` through `count` rounds in place: a phase flip, then a reflection about `axis`.

    `axis` is None for the diffusion, or an amplification's start state.  A
    state that does not carry its overlap with `axis` takes its first round
    through the operators, which start the carry; the rest are one `_repeat_round`.
    """
    if count and (state._carry is None or state._axis is not axis):
        apply_phase_flip(state, marked, oracle)
        if axis is None:
            apply_diffusion(state)
        else:
            _reflect(state, axis)
        count -= 1
    return _repeat_round(state, marked, oracle, count)


def _repeat_round(state: StateVector, marked, oracle: _CountingOracle, count: int,
                  reflect: bool = True) -> StateVector:
    """Repeat `state`'s current round `count` times: a phase flip, then its pending reflection.

    The state must carry its overlap: `_run_rounds`, the one caller that
    reflects, sets the axis (None: the diffusion) and starts the carry with a
    first round through the public operators.  The marks are checked once,
    the marked entries of r (and of the axis) gathered and written back
    once, and `count` queries charged at once.  In between the entries are
    stepped as Python numbers, without an axis up to SMALL_SUM of them and
    with one a single entry, else as numpy arrays.  Without `reflect` one
    call is `apply_phase_flip`, whose formulas these are.
    """
    r, axis, sign, beta, carry = state._r, state._axis, state._sign, state._beta, state._carry
    idx = _as_index_array(marked, r.size)
    n, k = r.size, idx.size
    picked = r[idx]
    if axis is None:
        w, scalar = None, k <= SMALL_SUM
        if scalar:
            picked = picked.tolist()
    else:  # an axis is set together with its carry
        w, scalar = axis[idx], k == 1
        if scalar:  # <w|picked> is one product
            picked, w = picked.item(), w.item()
    for _ in range(count):
        shift = sign * beta  # amps = sign * (r + shift * w) on the marked entries
        if w is None:
            if carry is not None:
                total = sum(picked) if scalar else np.add.reduce(picked)
                carry -= 2.0 * sign * (total + shift * k)
            if scalar:
                picked = [-2.0 * shift - x for x in picked] if shift else [-x for x in picked]
            else:
                picked = -2.0 * shift - picked if shift else -picked
        else:
            unshift = w * -shift
            picked = picked - unshift  # sign * amps[idx]
            carry -= 2.0 * sign * (w.conjugate() * picked if scalar else np.vdot(w, picked))
            picked = unshift - picked
        if reflect:
            sign, beta = -sign, 2.0 * (carry / n if w is None else carry) - beta
    r[idx] = picked
    state._sign, state._beta, state._carry = sign, beta, carry
    oracle.charge(count)
    return state


def apply_phase_flip(state: StateVector, marked, oracle: _CountingOracle) -> StateVector:
    """Negate the marked amplitudes of `state`; charges one oracle query.

    Only the marked entries of the buffer are written, and a carried
    <w|amps> moves by -2 times the overlap of w with the negated entries.
    """
    return _repeat_round(state, marked, oracle, 1, reflect=False)


def _complex_buffer(amps: np.ndarray) -> np.ndarray:
    """`amps` itself when it is a writeable complex128 array, else a fresh complex128 copy."""
    if amps.dtype == np.complex128 and amps.flags.writeable:
        return amps
    return amps.astype(np.complex128)


def apply_phase_rotation(
    state: StateVector, marked, angle: float, oracle: _CountingOracle
) -> StateVector:
    """Multiply the marked amplitudes of `state` by exp(i*angle); charges one oracle query.

    A complex buffer is written at its marked entries only; a real or
    read-only one is first copied into a fresh complex128 buffer.
    """
    idx = _as_index_array(marked, state.dimension)
    amps = _complex_buffer(state.amps)
    amps[idx] = amps[idx] * np.exp(1j * angle)
    oracle.charge(1)
    state._hold(amps)
    return state


def _reflect(state: StateVector, axis) -> StateVector:
    """Reflect `state` about w = `axis` (None: all ones), a -> 2<w|a>w/<w|w> - a, in O(1).

    A unit `axis` is taken as <w|w> = 1.  The reflection leaves <w|a> as it
    is, so it flips the pending sign and moves beta from the carried <w|a>,
    summed once when the state carries none.  A state pending about another
    axis is first written out.
    """
    if state._axis is not axis:
        amps = state.amps
        if axis is not None and axis.dtype.kind == "c" and amps.dtype.kind != "c":
            amps = amps.astype(np.complex128)
        state._hold(amps)
        state._axis = axis
    carry = state._carry
    if carry is None:  # nothing is pending without a carry
        r = state._r
        carry = state._carry = (np.add.reduce(r) if axis is None else np.vdot(axis, r)).item()
    weight = carry / state._r.size if axis is None else carry
    state._sign = -state._sign
    state._beta = 2.0 * weight - state._beta
    return state


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect `state` about the uniform superposition: a_i -> 2*mean(a) - a_i.

    The reflection stays pending (see `StateVector`), so a round of flip and
    diffusion costs O(marked) until the amplitudes are read.
    """
    return _reflect(state, None)


def apply_diffusion_rotation(state: StateVector, angle: float) -> StateVector:
    """Apply I + (exp(i*angle) - 1) |u><u| to `state`, with u the uniform superposition.

    At angle = pi this is the negated standard diffusion; intermediate angles
    give the partial reflections used by the exact-certainty search.  The
    shift is added into a complex buffer in place; a real or read-only one
    is first copied into a fresh complex128 buffer.
    """
    amps = state.amps
    shift = (np.exp(1j * angle) - 1.0) * amps.mean()  # the mean in the input's own dtype
    amps = _complex_buffer(amps)
    state._hold(np.add(amps, shift, out=amps))
    return state


class WeightTable:
    """Index sampler over the weights |amps|^2.

    `edges` is the running sum of the weights, except for more than
    ONE_LEVEL_MAX amplitudes: then it is the running sum of the totals of
    BLOCK-long blocks (the last may be shorter), and a draw reads the
    amplitudes again for the block it lands in, so the table is valid only
    until they change.  `first_marked` reads a block only for a draw whose
    block holds a marked index.
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
        found = int(self._find([target])[0])
        return found if self._amps is None else self._resolve(found, target)

    def first_marked(self, draws: list, marked: np.ndarray) -> tuple[int, int] | None:
        """(position, index) of the first of `draws` whose `sample` is in `marked`, or None.

        `marked` holds sorted, distinct indices.  One search finds every
        draw's entry, or block on a two-level table.  `sample` returns an
        index inside the block, so a draw whose block holds no marked index
        misses; only the others are resolved inside their block.
        """
        if not marked.size:  # nothing to find, as once a minimum finding holds the minimum
            return None
        targets = np.multiply(draws, self.total)
        found = self._find(targets)
        if self._amps is None:
            lo, hi = marked.searchsorted(found), marked.searchsorted(found, side="right")
        else:
            starts = found * BLOCK
            lo, hi = marked.searchsorted(starts), marked.searchsorted(starts + BLOCK)
        for position, (first, end) in enumerate(zip(lo.tolist(), hi.tolist())):
            if first == end:  # no marked index in this draw's entry or block
                continue
            if self._amps is None:
                return position, int(found[position])
            index = self._resolve(int(found[position]), targets[position])
            slot = int(marked.searchsorted(index))
            if slot < end and marked[slot] == index:
                return position, index
        return None

    def _find(self, targets) -> np.ndarray:
        """Entry (one level) or block (two levels) whose slice of `edges` holds each target."""
        edges = self.edges
        found = edges.searchsorted(targets, side="right")
        if max(found.tolist()) == edges.size:  # a subnormal total: a target rounded onto it
            found[found == edges.size] = edges.searchsorted(self.total, side="left")
        return found

    def _resolve(self, block: int, target: float) -> int:
        """Index inside a two-level table's `block` whose weight slice holds `target`."""
        start = block * BLOCK
        local = np.cumsum(_born_weights(self._amps[start:start + BLOCK]))
        offset = int(local.searchsorted(target - self.edges[block - 1] if block else target,
                                        side="right"))
        if offset == local.size:  # rounding put the remainder past the block's own sum
            offset = int(local.searchsorted(local[-1], side="left"))
        return start + offset


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
