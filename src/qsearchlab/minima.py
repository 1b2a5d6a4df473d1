"""Minimum finding by repeated threshold search, global and hypercube-local.

The global finder keeps a champion and searches for strictly better values
with the unknown-count schedule, so the expected cost scales with the
square root of the domain.  The local finder seeds a descent with the
minimum of a random sample sized to balance sampling cost against descent
length, then walks downhill over single-bit-flip neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import grover
from .sim import ParameterError, PredicateOracle, SeededRng, SizeCapError, ValueOracle

__all__ = [
    "MinimumResult",
    "LocalMinParams",
    "LocalMinResult",
    "HypercubeOracle",
    "find_minimum",
    "find_local_minimum",
    "verify_local_min",
    "default_sample_count",
]

# Default query budget multiplier for the global finder; generous enough
# that the champion settles on the argmin well before exhaustion.
MINIMUM_BUDGET_FACTOR = 30.0
# Hard ceiling on hypercube bit count: tables of 2^n values stay desk-scale.
MAX_HYPERCUBE_BITS = 16


@dataclass(frozen=True)
class MinimumResult:
    index: int
    value: int
    queries: int
    verified: bool


def find_minimum(
    oracle: ValueOracle,
    size: int,
    rng: SeededRng,
    budget: Optional[int] = None,
) -> MinimumResult:
    """Champion-improvement minimum search over a value table.

    Strictly-better threshold predicates mean ties never displace the
    champion.  If the budget runs out before a search comes back absent,
    the current champion is returned with verified=False.
    """
    if size != oracle.size:
        raise ParameterError("size must match oracle size")
    if budget is None:
        budget = math.ceil(MINIMUM_BUDGET_FACTOR * math.sqrt(size))
    if budget < 1:
        raise ParameterError("budget must be >= 1")

    values = oracle.peek_all()
    full_budget = grover.unknown_count_budget(math.sqrt(size))
    start_count = oracle.query_count
    champion = int(rng.generator.integers(0, size))
    oracle.charge(1)  # learn the starting champion's value

    while True:
        spent = oracle.query_count - start_count
        remaining = budget - spent
        if remaining <= 0:
            return MinimumResult(champion, int(values[champion]), spent, verified=False)
        mask = values < values[champion]
        threshold_oracle = PredicateOracle(size, marked=mask, charge_to=(oracle,))
        hit = grover.search_unknown_count(
            threshold_oracle, size, rng, max_queries=min(remaining, full_budget)
        )
        if hit is None:
            spent = oracle.query_count - start_count
            # absent is only trustworthy when the search ran its full schedule
            verified = remaining >= full_budget
            return MinimumResult(champion, int(values[champion]), spent, verified=verified)
        champion = int(hit)


def _check_bit_count(bit_count: int) -> None:
    if bit_count < 1:
        raise ParameterError("bit_count must be >= 1")
    if bit_count > MAX_HYPERCUBE_BITS:
        raise SizeCapError(
            f"bit_count {bit_count} exceeds desk-scale cap {MAX_HYPERCUBE_BITS}"
        )


class HypercubeOracle(ValueOracle):
    """Value table on {0,1}^n assignments, addressed as bit masks or bit tuples.

    Tuples are little-endian: bit i weights 2^i.  Probes and peeks accept
    either form and cost what they cost on the plain value table.
    """

    def __init__(self, bit_count: int, values, charge_to: Sequence = ()):
        _check_bit_count(bit_count)
        super().__init__(values, charge_to)
        if self._values.shape != (1 << bit_count,):
            raise ParameterError(
                f"need exactly 2^{bit_count} values, got shape {self._values.shape}"
            )
        self.bit_count = int(bit_count)

    @classmethod
    def from_function(cls, bit_count: int, fn: Callable[[Tuple[int, ...]], int]) -> "HypercubeOracle":
        _check_bit_count(bit_count)
        table = [fn(_bits_of(x, bit_count)) for x in range(1 << bit_count)]
        return cls(bit_count, table)

    def _to_index(self, assignment: Union[int, Sequence[int]]) -> int:
        if not isinstance(assignment, (int, np.integer)):
            bits = tuple(assignment)
            if len(bits) != self.bit_count or any(b not in (0, 1) for b in bits):
                raise ParameterError("assignment must be a tuple of n bits")
            assignment = sum(bit << position for position, bit in enumerate(bits))
        return super()._to_index(assignment)


def _bits_of(index: int, bit_count: int) -> Tuple[int, ...]:
    return tuple((index >> position) & 1 for position in range(bit_count))


def default_sample_count(bit_count: int) -> int:
    """Sample size balancing sample-minimum cost against descent length."""
    total = 1 << bit_count
    raw = round(2.0 ** (2.0 * bit_count / 3.0) * bit_count ** (1.0 / 3.0))
    return max(1, min(total, int(raw)))


@dataclass(frozen=True)
class LocalMinParams:
    sample_count: int
    descent_budget: int

    def __post_init__(self):
        if self.sample_count < 1 or self.descent_budget < 1:
            raise ParameterError("sample_count and descent_budget must be >= 1")

    @classmethod
    def for_bits(cls, bit_count: int) -> "LocalMinParams":
        samples = default_sample_count(bit_count)
        descent = math.ceil(2 ** (bit_count + 1) / samples)
        return cls(sample_count=samples, descent_budget=descent)


@dataclass(frozen=True)
class LocalMinResult:
    assignment: Tuple[int, ...]
    index: int
    value: int
    queries: int
    descent_steps: int
    success: bool


def verify_local_min(oracle: HypercubeOracle, assignment: Union[int, Sequence[int]]) -> bool:
    """Check all single-flip neighbors classically; costs exactly n+1 queries."""
    is_min, _ = _verify_and_improve(oracle, oracle._to_index(assignment))
    return is_min


def _verify_and_improve(oracle: HypercubeOracle, index: int) -> Tuple[bool, Optional[int]]:
    center = oracle.value(index)
    best_neighbor = None
    best_value = center
    for bit in range(oracle.bit_count):
        neighbor = index ^ (1 << bit)
        neighbor_value = oracle.value(neighbor)
        if neighbor_value < best_value:
            best_value = neighbor_value
            best_neighbor = neighbor
    return best_neighbor is None, best_neighbor


def find_local_minimum(
    oracle: HypercubeOracle,
    rng: SeededRng,
    params: Optional[LocalMinParams] = None,
) -> LocalMinResult:
    """Sample-then-descend local minimum search on the hypercube.

    The sample minimum is located with the query-efficient global finder
    restricted to the sampled assignments; descent then searches the n
    single-flip neighbors for strictly smaller values, confirming a local
    minimum with one classical neighborhood scan before returning success.
    """
    n = oracle.bit_count
    total = 1 << n
    if params is None:
        params = LocalMinParams.for_bits(n)

    start_count = oracle.query_count
    samples = np.asarray(rng.generator.integers(0, total, size=params.sample_count))
    sample_values = oracle.peek_all()[samples]
    sample_oracle = ValueOracle(sample_values, charge_to=(oracle,))
    sample_min = find_minimum(
        sample_oracle,
        params.sample_count,
        rng,
        budget=math.ceil(MINIMUM_BUDGET_FACTOR * math.sqrt(params.sample_count)),
    )
    current = int(samples[sample_min.index])

    table = oracle.peek_all()
    steps = 0
    success = False
    while not success and steps < params.descent_budget:
        steps += 1
        neighbors = np.asarray([current ^ (1 << bit) for bit in range(n)])
        mask = table[neighbors] < table[current]
        neighbor_oracle = PredicateOracle(n, marked=mask, charge_to=(oracle,))
        hit = grover.search_unknown_count(neighbor_oracle, n, rng)
        if hit is not None:
            current = int(neighbors[hit])
            continue
        # Absent verdict: confirm classically; a miss hands us the better
        # neighbor found during the scan, so the descent stays strict.
        success, better = _verify_and_improve(oracle, current)
        if not success:
            current = better
    return LocalMinResult(
        assignment=_bits_of(current, n),
        index=current,
        value=int(table[current]),
        queries=oracle.query_count - start_count,
        descent_steps=steps,
        success=success,
    )
