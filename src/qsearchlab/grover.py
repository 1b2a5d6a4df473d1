"""Grover-style search on a query-counted statevector.

Three entry points: fixed-count search for a known number of marked items,
an exact-certainty variant with one phase-tuned final round, and a
randomized schedule for an unknown marked count.

The randomized schedule's plan is decoded from raw PCG64 words through
`sim.RawDraws`, so records match scalar `integers(0, hi)` and `random()`
calls; the reader's docstring gives numpy's draw rules.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sim
from .sim import (
    BitOracle,
    ParameterError,
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
    "unknown_count_budget",
    "search_unknown_count",
]

# Growth factor for the unknown-count iteration schedule.
SCHEDULE_GROWTH = 6.0 / 5.0
# Total-iteration budget multiplier before an unknown-count search reports
# absent; calibrated so one search misses an existing item with probability
# well under 1/20 while the absent case still costs O(sqrt(size)).
UNKNOWN_BUDGET_FACTOR = 9.0


@dataclass(frozen=True)
class GroverParams:
    """Search-space size and marked-count hint."""

    size: int
    marked_count: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"size must be >= 1, got {self.size}")
        if self.marked_count is not None and not 0 <= self.marked_count <= self.size:
            raise ParameterError(
                f"marked_count {self.marked_count} outside [0, {self.size}]"
            )


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
    Exact oracle: reference for tests.
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
    rounds = optimal_query_count(params.size, count) if count else 0
    state = sim._run_rounds(sim.uniform_state(params.size), marked, oracle, rounds)
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
    sim._run_rounds(state, marked, oracle, rounds - 1)
    phi, psi = _tuned_final_phases(theta, rounds)
    sim.apply_phase_rotation(state, marked, phi, oracle)
    return sim.apply_diffusion_rotation(state, psi)


def search_with_certainty(oracle: BitOracle, params: GroverParams, rng: SeededRng) -> int:
    """Search returning a marked index with certainty (up to float rounding)."""
    state = prepared_certain_state(oracle, params)
    return sim.measure(state, rng)


def unknown_count_budget(cap: float) -> int:
    """Query budget after which a restart schedule capped at `cap` gives up."""
    return math.ceil(UNKNOWN_BUDGET_FACTOR * cap) + 12


def _plan(bit_generator, cap: float, budget: int):
    """Randomized restart plan for an unknown count, decoded from raw PCG64 words.

    Each attempt draws its round count uniformly below a ceiling that starts
    at 1 and grows by SCHEDULE_GROWTH up to `cap`, then the draw that will
    measure it.  An attempt spends its rounds plus one verification from
    `budget`; the plan ends once the budget is spent.  The draws are
    `integers(0, hi)` and `random()` of a `Generator` on `bit_generator`,
    one after the other, decoded by `sim.RawDraws`.  Returns the generator
    state at entry, the round counts, the draws, and for each attempt where
    its draws end: (words read, has_uint32, uinteger).  The generator is
    left past the last block read; `sim.place_draws` sets it just past any
    attempt.
    """
    reader = sim.RawDraws(bit_generator)
    cap = max(cap, 1.0)
    top = math.ceil(cap)
    taken, ends = [], []
    ceiling, spent = 1.0, 0
    while spent < budget:
        # an attempt below hi spends at most hi, so every attempt whose
        # predecessors' bounds sum below the budget left is in the plan
        bounds, room = [], budget - spent
        while room > 0 and ceiling < cap:
            hi = math.ceil(ceiling)
            bounds.append(hi)
            room -= hi
            ceiling *= SCHEDULE_GROWTH
            if ceiling > cap:
                ceiling = cap
        if room > 0:  # the ceiling has reached the cap
            bounds += [top] * -(-room // top)
        chunk = reader.take(bounds, ends)
        taken += chunk
        spent += sum(chunk[::2]) + len(chunk) // 2
    return reader.entry, taken[::2], taken[1::2], ends


def _sweep_restarts(
    oracle: BitOracle,
    rng: SeededRng,
    cap: float,
    budget: int,
    axis: Optional[np.ndarray] = None,
) -> tuple[list[int], Optional[int], bool]:
    """Run a restart plan on one trajectory; charge and verify its attempts.

    Each attempt starts from `axis` (None: the uniform state), applies its
    rounds, measures, and verifies the outcome with one query.  A round
    flips the oracle's marked set, then reflects about `axis` (None:
    Grover's diffusion).  Neither the round counts nor the measurement
    draws depend on outcomes, so `_plan` decodes the whole plan up front,
    and every attempt is a prefix of one trajectory.  The sweep's own copy
    of the start state is stepped in place through the distinct round
    counts in ascending order: one `sim._run_rounds` call, charging its
    oracle applications to a sink, steps it from one distinct count to the
    next.  At each, the attempts still pending, those before the earliest
    hit so far, are measured from one weight table by `WeightTable.first_marked`,
    which resolves only draws that land in a block holding a marked index;
    with nothing marked none can, so only the last attempt's depth is visited.
    The plan's last attempt, if still pending, is also sampled at its depth:
    with no hit it is charged and its index returned.  The attempts up to
    the first hit are then charged their summed rounds and one verification
    each, and the generator is set just past the last of them: where
    independent restarts, drawing as they go, leave it.  Returns the
    charged round counts, the last charged attempt's index (None when the
    budget allows none) and whether it verified.
    """
    state = sim.uniform_state(oracle.size) if axis is None else StateVector._wrap(axis.copy())
    bit_generator = rng.generator.bit_generator
    entry, rounds, draws, ends = _plan(bit_generator, cap, budget)
    if not rounds:
        return [], None, False
    by_depth: dict[int, list[int]] = {}
    for attempt, depth in enumerate(rounds):
        by_depth.setdefault(depth, []).append(attempt)
    marked = oracle.marked_indices()
    last = len(rounds) - 1
    first_hit, index = len(rounds), None
    sink = sim._CountingOracle()
    depth = 0
    for target in sorted(by_depth) if marked.size else [rounds[last]]:  # no mark: one depth
        group = by_depth[target]
        pending = group[:bisect_left(group, first_hit)]
        if not pending:  # all after a hit; a deeper attempt may still come before it
            continue
        state, depth = sim._run_rounds(state, marked, sink, target - depth, axis), target
        table = sim.born_table(state.amps)
        hit = table.first_marked([draws[a] for a in pending], marked)
        if hit is not None:
            position, index = hit
            first_hit = pending[position]
        elif pending[-1] == last:  # charged, and returned, unless a deeper attempt hits
            index = table.sample(draws[last])

    charged = min(first_hit + 1, len(rounds))
    sim.place_draws(bit_generator, entry, ends[charged - 1])
    oracle.charge(sum(rounds[:charged]))
    oracle.charge(charged)  # one verification query per attempt
    return rounds[:charged], index, first_hit <= last


def search_unknown_count(
    oracle: BitOracle,
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

    The whole schedule is decoded up front from the generator's raw words
    and simulated as one sweep along a single round trajectory (see
    `_sweep_restarts`); each attempt up to the first verified one still
    charges its own rounds and its verification, as if it had restarted
    from uniform; only a draw that lands in a block holding a marked index
    is resolved inside it, so with nothing marked one table is built.  The
    generator is left just past the last charged attempt's measurement
    draw, where restarts drawing as they go leave it.
    """
    if size != oracle.size:
        raise ParameterError("size must match oracle size")
    if min_marked is not None and not 1 <= min_marked <= size:
        raise ParameterError(f"min_marked {min_marked} outside [1, {size}]")
    cap = math.sqrt(size / (min_marked or 1))
    budget = unknown_count_budget(cap)
    if max_queries is not None:
        budget = min(budget, max(0, max_queries))
    _, index, found = _sweep_restarts(oracle, rng, cap, budget)
    return index if found else None

