"""Grover-style search on a query-counted statevector.

Four entry points: fixed-count search for a known number of marked items,
an exact-certainty variant with one phase-tuned final round, a randomized
schedule for an unknown marked count, and exhaustive enumeration built on
top of the unknown-count search.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import sim
from .sim import (
    BitOracle,
    ParameterError,
    PredicateOracle,
    SeededRng,
    StateVector,
    UnsupportedModeError,
)

__all__ = [
    "GroverParams",
    "optimal_query_count",
    "success_probability",
    "success_profile",
    "search",
    "search_with_certainty",
    "prepared_certain_state",
    "restart_schedule",
    "unknown_count_budget",
    "search_unknown_count",
    "find_all",
]

# Growth factor for the unknown-count iteration schedule.
SCHEDULE_GROWTH = 6.0 / 5.0
# Total-iteration budget multiplier before an unknown-count search reports
# absent; calibrated so one search misses an existing item with probability
# well under 1/20 while the absent case still costs O(sqrt(size)).
UNKNOWN_BUDGET_FACTOR = 9.0


@dataclass(frozen=True)
class GroverParams:
    """Search-space size, marked-count hint, and optional round override."""

    size: int
    marked_count: Optional[int] = None
    iterations: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"size must be >= 1, got {self.size}")
        if self.marked_count is not None and not 0 <= self.marked_count <= self.size:
            raise ParameterError(
                f"marked_count {self.marked_count} outside [0, {self.size}]"
            )
        if self.iterations is not None and self.iterations < 0:
            raise ParameterError("iterations override must be >= 0")


def _half_angle(size: int, marked_count: int) -> float:
    # sin(theta)^2 equals the marked fraction of the uniform state
    return math.asin(math.sqrt(marked_count / size))


def _rounds_from_angle(theta: float) -> int:
    raw = math.pi / (4.0 * theta) - 0.5
    return max(0, math.ceil(raw - 1e-12))  # guard knife-edge float error


def _check_counts(size: int, marked_count: int) -> None:
    if size < 1:
        raise ParameterError(f"size must be >= 1, got {size}")
    if not 1 <= marked_count <= size:
        raise ParameterError(f"marked_count {marked_count} outside [1, {size}]")


def optimal_query_count(size: int, marked_count: int) -> int:
    """Query count at which a run from uniform peaks on the marked set.

    The count is ceil(pi/(4*theta) - 1/2) with sin(theta)^2 equal to the
    marked fraction.  That un-rounded length lies strictly below
    (pi/4)*sqrt(size/marked_count), so the count lies below the same bound
    plus 1/2.  Rounding up can carry the count past the bound itself: one
    marked item among 256 needs 13 queries against a bound of 12.57.
    """
    _check_counts(size, marked_count)
    return _rounds_from_angle(_half_angle(size, marked_count))


def success_probability(size: int, marked_count: int, iterations: int) -> float:
    """Marked-set probability after `iterations` rounds from uniform."""
    _check_counts(size, marked_count)
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    theta = _half_angle(size, marked_count)
    value = math.sin((2 * iterations + 1) * theta) ** 2
    return min(1.0, max(0.0, value))


def success_profile(size: int, marked_count: int, max_rounds: int) -> np.ndarray:
    """Simulated marked-set probability after 0..max_rounds rounds.

    One dense statevector run records the marked mass after every round;
    the iteration is real-valued because flips and diffusion preserve real
    amplitudes.  Analysis helper: nothing is charged.
    """
    _check_counts(size, marked_count)
    if max_rounds < 0:
        raise ParameterError("max_rounds must be >= 0")
    sim.check_state_size(size)
    sim.check_state_size(max_rounds + 1)
    # Marked positions do not affect the profile; use the leading block.
    amps = np.full(size, 1.0 / math.sqrt(size))
    profile = np.empty(max_rounds + 1)
    profile[0] = float((amps[:marked_count] ** 2).sum())
    for t in range(1, max_rounds + 1):
        amps[:marked_count] = -amps[:marked_count]
        np.subtract(2.0 * amps.mean(), amps, out=amps)
        profile[t] = float((amps[:marked_count] ** 2).sum())
    return np.minimum(1.0, profile)


def _run_rounds(state: StateVector, marked: np.ndarray, oracle, rounds: int) -> StateVector:
    """Step `state` through `rounds` Grover rounds in place."""
    for _ in range(rounds):
        sim.apply_diffusion(sim.apply_phase_flip(state, marked, oracle))
    return state


def search(oracle: BitOracle, params: GroverParams, rng: SeededRng) -> int:
    """Fixed-count search; charges exactly the scheduled number of queries.

    The returned index is unverified: with the scheduled count it is marked
    with the analytic success probability, and the caller can confirm with
    one classical query.
    """
    if params.size != oracle.size:
        raise ParameterError("params.size must match oracle size")
    marked = oracle.marked_indices()
    count = params.marked_count if params.marked_count is not None else int(marked.size)
    if params.iterations is not None:
        rounds = params.iterations
    elif count == 0:
        rounds = 0
    else:
        rounds = optimal_query_count(params.size, count)
    state = _run_rounds(sim.uniform_state(params.size), marked, oracle, rounds)
    return sim.measure(state, rng)


def _tuned_final_phases(theta: float, rounds: int) -> tuple[float, float]:
    """Phase pair for the last generalized round that lifts success to 1.

    After rounds-1 standard rounds the state sits at angle (2*rounds-1)*theta
    in the plane spanned by the marked and unmarked uniform components.  The
    oracle phase phi zeroes bad (s^4 - c^4) - 2 c s good cos(phi), which
    makes the post-reflection unmarked amplitude killable; the reflection
    phase then follows from the requirement that it vanish.  Since alpha lies
    in (0, pi/2), bad and 2 c s good are positive; clipping the cosine to [-1, 1]
    gives the ends phi = 0 and phi = pi when no interior root exists.
    """
    alpha = (2 * rounds - 1) * theta
    good, bad = math.sin(alpha), math.cos(alpha)
    s, c = math.sin(theta), math.cos(theta)
    if abs(bad) < 1e-15:
        return 0.0, 0.0  # already at certainty; final round degenerates to identity
    cos_phi = bad * (s**4 - c**4) / (2.0 * c * s * good)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    u = c * s * good * cmath.exp(1j * phi) + c * c * bad
    psi = cmath.phase((u - bad) / u)
    return phi, psi


def prepared_certain_state(oracle: BitOracle, params: GroverParams) -> StateVector:
    """Pre-measurement state of the exact-certainty search; charges its queries."""
    if params.size != oracle.size:
        raise ParameterError("params.size must match oracle size")
    if params.marked_count is None:
        raise UnsupportedModeError(
            "certainty search needs the marked count; use search_unknown_count instead"
        )
    marked = oracle.marked_indices()
    if int(marked.size) != params.marked_count:
        raise ParameterError(
            f"marked_count {params.marked_count} does not match oracle ({marked.size})"
        )
    if params.marked_count == 0:
        raise ParameterError("certainty search needs at least one marked index")

    theta = _half_angle(params.size, params.marked_count)
    rounds = _rounds_from_angle(theta)
    state = sim.uniform_state(params.size)
    if rounds == 0:
        return state  # every index marked; uniform state already certain
    _run_rounds(state, marked, oracle, rounds - 1)
    phi, psi = _tuned_final_phases(theta, rounds)
    sim.apply_phase_rotation(state, marked, phi, oracle)
    return sim.apply_diffusion_rotation(state, psi)


def search_with_certainty(oracle: BitOracle, params: GroverParams, rng: SeededRng) -> int:
    """Search returning a marked index with certainty (up to float rounding)."""
    state = prepared_certain_state(oracle, params)
    return sim.measure(state, rng)


def restart_schedule(rng: SeededRng, cap: float, budget: int) -> Iterator[int]:
    """Round counts of the randomized restart schedule for an unknown count.

    Each attempt draws its round count uniformly below a ceiling that
    starts at 1 and grows by SCHEDULE_GROWTH up to `cap`.  An attempt spends
    its rounds plus one verification from `budget`; the schedule ends once
    the budget is spent.  The next count is drawn only when the caller asks
    for it, after the previous attempt's measurement.
    """
    cap = max(cap, 1.0)
    ceiling = 1.0
    spent = 0
    while spent < budget:
        rounds = int(rng.generator.integers(0, math.ceil(ceiling)))
        spent += rounds + 1
        yield rounds
        ceiling = min(SCHEDULE_GROWTH * ceiling, cap)


def unknown_count_budget(cap: float) -> int:
    """Query budget after which a restart schedule capped at `cap` gives up."""
    return math.ceil(UNKNOWN_BUDGET_FACTOR * cap) + 12


def _sweep_restarts(
    oracle,
    mask: np.ndarray,
    rng: SeededRng,
    cap: float,
    budget: int,
    start: StateVector,
    advance: Callable[[StateVector, object], StateVector],
) -> tuple[list[tuple[int, int]], bool]:
    """Run a restart schedule on one trajectory; charge and verify its attempts.

    Each attempt restarts from `start`, applies its rounds with `advance`,
    measures, and verifies the outcome with one query.  Neither the round
    counts nor the measurement draws depend on outcomes, so the plan is
    drawn up front, and every attempt is a prefix of one trajectory.  A
    single state is stepped through the attempts in order of round count
    (its oracle applications go to a sink) and measured against `mask`;
    attempts after the earliest hit are skipped.  `start` is copied once,
    and `advance` steps that copy in place.  Then each attempt up to
    the first hit charges its own rounds plus its verification.  When the
    hit comes before the end of the plan, the generator is rewound and
    those attempts' draws replayed, so counters and generator end where
    independent restarts leave them.  Returns the charged (rounds, index)
    attempts and whether the last one verified.
    """
    saved = rng.generator.bit_generator.state
    plan = [(rounds, rng.random()) for rounds in restart_schedule(rng, cap, budget)]

    sink = sim._CountingOracle()
    indices = [0] * len(plan)
    first_hit = len(plan)
    state, depth, table = start.copy(), 0, None
    for attempt in sorted(range(len(plan)), key=lambda a: plan[a][0]):
        if attempt > first_hit:
            continue
        rounds, draw = plan[attempt]
        while depth < rounds:
            state = advance(state, sink)
            depth += 1
            table = None
        if table is None:  # attempts of equal round count share one weight table
            table = sim.born_table(state.amps)
        indices[attempt] = table.sample(draw)
        if mask[indices[attempt]]:
            first_hit = attempt

    attempts = [(rounds, index) for (rounds, _), index in zip(plan[: first_hit + 1], indices)]
    if len(attempts) < len(plan):  # leave the generator just past the last charged attempt
        rng.generator.bit_generator.state = saved
        for _ in itertools.islice(restart_schedule(rng, cap, budget), len(attempts)):
            rng.random()
    verified = False
    for rounds, index in attempts:
        oracle.charge(rounds)
        verified = bool(oracle.query(index))
    return attempts, verified


def search_unknown_count(
    oracle,
    size: int,
    rng: SeededRng,
    min_marked: Optional[int] = None,
    max_queries: Optional[int] = None,
) -> Optional[int]:
    """Randomized-schedule search when the marked count is unknown.

    Draws a round count uniformly below a geometrically growing ceiling,
    verifies each measurement with one classical query, and reports absent
    once the query budget (phase applications plus verifications) runs out.
    `min_marked` caps the schedule when a lower bound on the marked count
    is known, so the absent case costs O(sqrt(size/min_marked)).

    The whole schedule is simulated as one sweep along a single round
    trajectory (see `_sweep_restarts`); each attempt still charges its own
    rounds and its verification, as if it had restarted from uniform.
    """
    if size != oracle.size:
        raise ParameterError("size must match oracle size")
    if min_marked is not None and not 1 <= min_marked <= size:
        raise ParameterError(f"min_marked {min_marked} outside [1, {size}]")
    cap = math.sqrt(size / (min_marked or 1))
    budget = unknown_count_budget(cap)
    if max_queries is not None:
        budget = min(budget, max(0, max_queries))
    marked = oracle.marked_indices()
    attempts, found = _sweep_restarts(
        oracle, sim.marked_mask(marked, size), rng, cap, budget, sim.uniform_state(size),
        lambda state, sink: _run_rounds(state, marked, sink, 1),
    )
    return attempts[-1][1] if found else None


def find_all(oracle: BitOracle, size: int, rng: SeededRng) -> set[int]:
    """Enumerate the marked set by repeated unknown-count searches.

    Each found index is masked out of a wrapped predicate; applications of
    the wrapped predicate still charge the underlying oracle.  Stops at the
    first absent verdict.
    """
    if size != oracle.size:
        raise ParameterError("size must match oracle size")
    found: set[int] = set()
    mask = sim.marked_mask(oracle.marked_indices(), size)
    while True:
        wrapped = PredicateOracle(size, marked=mask, charge_to=(oracle,))
        hit = search_unknown_count(wrapped, size, rng)
        if hit is None:
            return found
        found.add(int(hit))
        mask = mask.copy()
        mask[hit] = False
