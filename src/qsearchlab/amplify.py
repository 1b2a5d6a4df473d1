"""Amplitude amplification around an arbitrary state preparation.

The preparation is any unitary A taking the all-zero basis state to the
start state s = A|0>.  One amplification round is a phase flip on the good
set followed by one reflection about s, a -> 2<s|a>s - a, which equals
A(2|0><0| - I)A^-1 for any unitary A.  The round reads s, which the
preparation computes once, much as operators read a black box while they
are built; the charges still count every application of A and A^-1 that
the round stands for.  The reflection is the simulator's pending one
(`sim._reflect` about s), so a round writes only the good entries of the
state until its amplitudes are read.  Rounds step through `sim._run_rounds`
about s, the driver that Grover's search runs with the diffusion.  With the
uniform preparation this reproduces the plain search rounds, amplitude for
amplitude up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

import numpy as np

from . import sim
from .grover import _rounds_from_angle, _sweep_restarts, unknown_count_budget
from .sim import BitOracle, ParameterError, SeededRng, StateVector

__all__ = [
    "StatePreparation",
    "AmplifyParams",
    "AmplifyResult",
    "uniform_preparation",
    "predicted_repetitions",
    "amplification_schedule_scale",
    "classical_repetitions",
    "amplification_round",
    "amplitude_amplify",
]


@dataclass(frozen=True)
class StatePreparation:
    """Unitary start-state factory A with a per-application query cost.

    `forward` and `inverse` map a state to a new state.  `start` is the
    start state s = A|0>, computed once and read-only.  An amplification
    round reflects about s directly; it is still charged as the two
    applications of A it stands for.
    """

    dimension: int
    forward: Callable[[StateVector], StateVector]
    inverse: Callable[[StateVector], StateVector]
    cost: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ParameterError("preparation dimension must be >= 1")
        if self.cost < 0:
            raise ParameterError("preparation cost must be >= 0")

    @cached_property
    def start(self) -> np.ndarray:
        """Read-only amplitudes of A|0>."""
        amps = np.array(self.forward(sim.basis_state(self.dimension)).amps)
        amps.setflags(write=False)
        return amps


def _householder_preparation(target: np.ndarray, cost: int) -> StatePreparation:
    # Reflection through (target - e0) maps e0 to target and is an involution,
    # so forward and inverse coincide and apply in O(dimension).  At target =
    # e0 the reflection vector vanishes and the preparation is the identity.
    v = target.astype(np.float64).copy()
    v[0] -= 1.0
    vv = float(v @ v)
    scale = 2.0 / vv if vv >= 1e-28 else 0.0

    def apply(state: StateVector) -> StateVector:
        a = state.amps
        return StateVector._wrap(a - scale * (v @ a) * v)

    return StatePreparation(dimension=target.size, forward=apply, inverse=apply, cost=cost)


def uniform_preparation(dimension: int, cost: int = 1) -> StatePreparation:
    """Preparation of the equal superposition over `dimension` outcomes."""
    sim.check_state_size(dimension)
    target = np.full(dimension, 1.0 / math.sqrt(dimension))
    return _householder_preparation(target, cost)


def _check_floor(success_floor: float) -> None:
    if not 0.0 < success_floor <= 1.0:
        raise ParameterError(f"success_floor must be in (0, 1], got {success_floor}")


@dataclass(frozen=True)
class AmplifyParams:
    """Success-probability floor plus the good set, as a bool mask or indices.

    `floor_is_lower_bound` switches to a randomized round schedule that
    stays robust when the true success probability exceeds the floor (a
    fixed round count can overshoot past the peak).
    """

    success_floor: float
    good: Union[np.ndarray, Iterable[int]]
    floor_is_lower_bound: bool = False

    def __post_init__(self):
        _check_floor(self.success_floor)


@dataclass(frozen=True)
class AmplifyResult:
    index: int
    good: bool
    queries: int
    rounds: int


def predicted_repetitions(success_floor: float) -> int:
    """Rounds after which a start state with this good projection peaks."""
    _check_floor(success_floor)
    return _rounds_from_angle(math.asin(math.sqrt(success_floor)))


def amplification_schedule_scale(success_floor: float) -> float:
    """Continuous repetition scale; predicted_repetitions is ceil(scale - 1/2).

    Useful for scaling fits, where integer rounding at small counts would
    swamp the trend.  Exact oracle: reference for tests.
    """
    _check_floor(success_floor)
    return math.pi / (4.0 * math.asin(math.sqrt(success_floor)))


def classical_repetitions(success_floor: float) -> int:
    """Expected-repetition count for classical retry at the same floor."""
    _check_floor(success_floor)
    return math.ceil(1.0 / success_floor)


def amplification_round(
    state: StateVector,
    prep: StatePreparation,
    good_indices: np.ndarray,
    counter: sim._CountingOracle,
) -> StateVector:
    """One round on `state`: good-set phase flip, then a -> 2<s|a>s - a about s = prep.start."""
    sim.apply_phase_flip(state, good_indices, counter)
    return sim._reflect(state, prep.start)


def amplitude_amplify(
    prep: StatePreparation, params: AmplifyParams, rng: SeededRng
) -> AmplifyResult:
    """Amplify the good component of prep's start state, then measure.

    Query cost is (2*rounds + attempts) preparation applications (A per
    attempt, A^-1 and A per round) plus one good-set query per round and
    per verification.  Fixed mode is one attempt, unverified: its returned
    good flag is a classical re-check of the measured index and is not
    charged.  The rounds step one copy of the start state: the first is
    `amplification_round`, and the rest run through `sim._run_rounds` about
    s.  In lower-bound mode the restart schedule is decoded up front from
    the generator's raw words and runs as one sweep along a single round
    trajectory (`grover._sweep_restarts`); each attempt up to the first
    verified one is charged its own rounds, preparations and verification,
    as if it had restarted from the start state, and the generator is left
    just past that attempt's measurement draw.  Only a draw that lands in a
    block holding a good index is resolved inside it, and the plan's last
    attempt, whose index is returned when nothing verifies; with no good
    index, that is the one draw measured.
    """
    counter = BitOracle(sim.marked_mask(params.good, prep.dimension))
    good_idx, good = counter.marked_indices(), counter.peek_all()

    if not params.floor_is_lower_bound:
        depth = predicted_repetitions(params.success_floor)
        state = StateVector._wrap(prep.start.copy())
        if depth:  # the first round sets s as the pending axis and starts the carry
            sim._run_rounds(amplification_round(state, prep, good_idx, counter),
                            good_idx, counter, depth - 1, prep.start)
        rounds, index = [depth], sim.measure(state, rng)  # one attempt
    else:
        # Lower-bound mode: true success may exceed the floor, so a fixed round
        # count can overshoot.  Reuse the unknown-count schedule over rounds,
        # verifying each measurement (one charged good-set query per attempt).
        cap = float(predicted_repetitions(params.success_floor) + 1)
        rounds, index, _ = _sweep_restarts(counter, rng, cap, unknown_count_budget(cap),
                                           prep.start)
    queries = (2 * sum(rounds) + len(rounds)) * prep.cost + counter.query_count
    return AmplifyResult(index=index, good=bool(good[index]), queries=queries,
                         rounds=sum(rounds))
