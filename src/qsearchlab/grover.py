"""Grover-style search on a query-counted statevector.

Three entry points: fixed-count search for a known number of marked items,
an exact-certainty variant with one phase-tuned final round, and a
randomized schedule for an unknown marked count.

The randomized schedule's plan is decoded from raw PCG64 words
(`bit_generator.random_raw`) by the rules numpy's `Generator` draws with,
so records match scalar `integers(0, hi)` and `random()` calls:

- `integers(0, hi)` with 1 < hi <= 2**32 is Lemire's method on one uint32:
  the product u * hi is kept when its low 32 bits are at least 2**32 % hi,
  and its high 32 bits are the draw.  The uint32 is the bit generator's
  buffered half (`has_uint32`, `uinteger`) when one is set; otherwise the
  low half of a fresh word, whose high half is then buffered.  Past 2**32
  the same test runs on whole words at 64 bits, and `integers(0, 1)` reads
  nothing.
- `random()` is (w >> 11) * 2**-53 of one fresh word; it leaves the
  buffered half alone, as `random_raw` does.

`tests/test_grover.py::test_plan_decodes_the_scalar_draws` pins both rules,
and the generator state after every prefix of a plan, against numpy.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

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
# Raw generator words read per call while a restart plan is decoded; over
# criterion 05's 13,590 plans this took 13,751 reads.
PLAN_WORDS = 64


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


def _run_rounds(state: StateVector, marked: np.ndarray, oracle, rounds: int) -> StateVector:
    """Step `state` through `rounds` Grover rounds in place; check `marked` once per search."""
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
    marked = sim._as_index_array(oracle.marked_indices(), oracle.size)
    count = params.marked_count if params.marked_count is not None else int(marked.size)
    rounds = optimal_query_count(params.size, count) if count else 0
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
    marked = sim._as_index_array(oracle.marked_indices(), oracle.size)
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


def unknown_count_budget(cap: float) -> int:
    """Query budget after which a restart schedule capped at `cap` gives up."""
    return math.ceil(UNKNOWN_BUDGET_FACTOR * cap) + 12


def _plan(bit_generator, cap: float, budget: int):
    """Randomized restart plan for an unknown count, decoded from raw PCG64 words.

    Each attempt draws its round count uniformly below a ceiling that starts
    at 1 and grows by SCHEDULE_GROWTH up to `cap`, then the draw that will
    measure it.  An attempt spends its rounds plus one verification from
    `budget`; the plan ends once the budget is spent.  The words are read in
    blocks of PLAN_WORDS and decoded exactly as `integers(0, hi)` and
    `random()` of a `Generator` on `bit_generator` would draw them, one after
    the other (see the module docstring).  Returns the generator state at
    entry, the round counts, the draws, and for each attempt where its draws
    end: (words read, has_uint32, uinteger).  The generator is left past the
    last block read; `_place` sets it just past any attempt.
    """
    entry = bit_generator.state
    cap = max(cap, 1.0)
    has, half = entry["has_uint32"], entry["uinteger"]
    words, used = [], 0
    rounds, draws, ends = [], [], []
    ceiling, spent = 1.0, 0
    while spent < budget:
        hi = math.ceil(ceiling)
        drawn = 0
        if hi > 1:  # integers(0, 1) reads nothing
            if hi > 1 << 63:
                raise ParameterError(f"restart ceiling {hi} is past the int64 range")
            bits = 32 if hi <= 1 << 32 else 64  # past 2**32, whole words
            threshold = (1 << bits) % hi
            while True:  # Lemire's rejection loop
                if has and bits == 32:
                    value, has = half, 0
                else:
                    if used == len(words):
                        words += bit_generator.random_raw(PLAN_WORDS).tolist()
                    value = words[used]
                    used += 1
                    if bits == 32:  # low half now, high half buffered
                        value, half, has = value & 0xFFFFFFFF, value >> 32, 1
                product = value * hi
                if product & ((1 << bits) - 1) >= threshold:
                    break
            drawn = product >> bits
        if used == len(words):
            words += bit_generator.random_raw(PLAN_WORDS).tolist()
        draws.append((words[used] >> 11) * 2.0**-53)
        used += 1
        rounds.append(drawn)
        ends.append((used, has, half))
        spent += drawn + 1
        ceiling *= SCHEDULE_GROWTH
        if ceiling > cap:
            ceiling = cap
    return entry, rounds, draws, ends


def _place(bit_generator, entry: dict, end: tuple) -> None:
    """Set the generator to where the scalar draws up to one `_plan` end leave it."""
    used, has, half = end
    # random_raw leaves the buffered half alone, so it can be set first
    bit_generator.state = dict(entry, has_uint32=has, uinteger=half)
    bit_generator.random_raw(used)


def _sweep_restarts(
    oracle,
    mask: np.ndarray,
    rng: SeededRng,
    cap: float,
    budget: int,
    start: StateVector,
    advance: Callable[[StateVector, object], StateVector],
) -> tuple[list[tuple[int, int]], bool]:
    """Run a restart plan on one trajectory; charge and verify its attempts.

    Each attempt restarts from `start`, applies its rounds with `advance`,
    measures, and verifies the outcome with one query.  Neither the round
    counts nor the measurement draws depend on outcomes, so `_plan` decodes
    the whole plan up front, and every attempt is a prefix of one
    trajectory.  One copy of `start` is stepped in place with `advance` (its
    oracle applications go to a sink) through the distinct round counts in
    ascending order.  At each, the attempts still pending, those before the
    earliest hit so far, are measured from one weight table and checked
    against `mask`.  The attempts up to the first hit are then charged their
    summed rounds and one verification each, and the generator is set just
    past the last of them: where independent restarts, drawing as they go,
    leave it.  Returns the charged (rounds, index) attempts and whether the
    last one verified.
    """
    bit_generator = rng.generator.bit_generator
    entry, rounds, draws, ends = _plan(bit_generator, cap, budget)
    if not rounds:
        return [], False
    by_depth: dict[int, list[int]] = {}
    for attempt, depth in enumerate(rounds):
        by_depth.setdefault(depth, []).append(attempt)
    indices = [0] * len(rounds)
    first_hit = len(rounds)
    sink = sim._CountingOracle()
    state, depth = start.copy(), 0
    for target in sorted(by_depth):
        group = by_depth[target]
        pending = group[:bisect_left(group, first_hit)]
        if not pending:  # all after a hit; a deeper attempt may still come before it
            continue
        while depth < target:
            state = advance(state, sink)
            depth += 1
        picked = sim.born_table(state.amps).sample_many([draws[a] for a in pending])
        for attempt, index in zip(pending, picked):
            indices[attempt] = index
            if mask[index]:
                first_hit = attempt
                break

    charged = min(first_hit + 1, len(rounds))
    attempts = list(zip(rounds[:charged], indices[:charged]))
    _place(bit_generator, entry, ends[charged - 1])
    oracle.charge(sum(rounds[:charged]))
    oracle.charge(charged)  # one verification query per attempt
    return attempts, bool(mask[attempts[-1][1]])


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

    The whole schedule is decoded up front from the generator's raw words
    and simulated as one sweep along a single round trajectory (see
    `_sweep_restarts`); each attempt up to the first verified one still
    charges its own rounds and its verification, as if it had restarted
    from uniform.  The generator is left just past the last charged
    attempt's measurement draw, where restarts drawing as they go leave it.
    """
    if size != oracle.size:
        raise ParameterError("size must match oracle size")
    if min_marked is not None and not 1 <= min_marked <= size:
        raise ParameterError(f"min_marked {min_marked} outside [1, {size}]")
    cap = math.sqrt(size / (min_marked or 1))
    budget = unknown_count_budget(cap)
    if max_queries is not None:
        budget = min(budget, max(0, max_queries))
    marked = sim._as_index_array(oracle.marked_indices(), oracle.size)
    attempts, found = _sweep_restarts(
        oracle, sim.marked_mask(marked, size), rng, cap, budget, sim.uniform_state(size),
        lambda state, sink: _run_rounds(state, marked, sink, 1),
    )
    return attempts[-1][1] if found else None

