"""End-to-end applications: 3-SAT repair walks and collision finding.

The SAT side estimates the single-run success rate of a bounded random
repair walk and converts it into predicted repetition counts for classical
restarts versus amplitude amplification of the whole walk.  The collision
side runs one sample-then-search pass; amplifying it costs about N^(3/4)
queries (`ed_hybrid_query_model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

from . import grover
from .amplify import classical_repetitions, predicted_repetitions
from . import sim
from .sim import BitOracle, ParameterError, SeededRng, SizeCapError, ValueOracle

__all__ = [
    "Cnf3Formula",
    "random_planted_formula",
    "schoening_run",
    "wilson_interval",
    "SatRunStats",
    "estimate_success",
    "SpeedupReport",
    "quantum_speedup_report",
    "EdBaseRun",
    "ed_base_run",
    "ed_hybrid_query_model",
]

# Two-sided 95% normal quantile used by the Wilson interval.
WILSON_Z = 1.959963984540054
# Query model weight for one unknown-count search relative to sqrt(N).
GROVER_UNKNOWN_COST_FACTOR = 3.0
# Planted instances at this clause/variable density keep the repair walk's
# success rate well below 1, so the repetition calculus has room to bite,
# while staying far above the 0.5*(3/4)^n walk floor at desk scale.
PLANTED_DENSITY = 8.0
# Planted formulas stop at this many variables.  A sat-schoening trial
# grows as about n^2 (one BLAS thread, seed 0: 1.2 ms at 12 variables, 24 ms
# at 80, 0.12 s at 160, 0.44 s at 320), so the cap costs about 1.1 s a
# trial; from 80 variables on every trial was inconclusive.
MAX_SAT_VARIABLES = 512


@dataclass(frozen=True)
class Cnf3Formula:
    """CNF with clauses of at most 3 literals over variables 0..n-1.

    Literals are (variable, negated) pairs; a clause satisfied by an
    assignment is one where some literal evaluates true.
    """

    variable_count: int
    clauses: Tuple[Tuple[Tuple[int, bool], ...], ...]
    _vars: np.ndarray = field(init=False, repr=False, compare=False)
    _lits: np.ndarray = field(init=False, repr=False, compare=False)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variable_count < 1:
            raise ParameterError("formula needs at least one variable")
        if not self.clauses:
            raise ParameterError("formula needs at least one clause")
        lengths = np.fromiter(map(len, self.clauses), dtype=np.int64, count=len(self.clauses))
        bad = np.flatnonzero((lengths < 1) | (lengths > 3))
        if bad.size:
            raise ParameterError(f"clause {bad[0]} has {lengths[bad[0]]} literals")
        pairs = np.array(list(chain.from_iterable(self.clauses)), dtype=np.int64)
        ends = np.cumsum(lengths)
        bad = np.flatnonzero((pairs[:, 0] < 0) | (pairs[:, 0] >= self.variable_count))
        if bad.size:
            raise ParameterError(f"clause {np.searchsorted(ends, bad[0], side='right')} "
                                 f"uses variable {pairs[bad[0], 0]}")
        # (3, m) slot tables; a short clause repeats its last literal, which
        # never changes clause truth and keeps the tables rectangular
        slots = ends - lengths + np.minimum(np.arange(3)[:, None], lengths - 1)
        vars_ = pairs[slots, 0]
        # a literal's row in the falsity table that _falsified gathers from
        lits = vars_ + self.variable_count * (pairs[slots, 1] != 0)
        for name, arr in (("_vars", vars_), ("_lits", lits), ("_lengths", lengths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def _falsified(self, assignments: np.ndarray) -> np.ndarray:
        """(m, rows) mask of falsified clauses for (n, rows) bool assignments.

        The complement stacked on the table gives a (2n, rows) table of
        literal falsity, so one gather through `_lits` reads every literal.
        """
        falsity = np.concatenate((~assignments, assignments)).take(self._lits, axis=0)
        return falsity[0] & falsity[1] & falsity[2]

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        return self.first_unsatisfied(assignment) is None

    def first_unsatisfied(self, assignment: Sequence[int]) -> Optional[int]:
        """Index of the first falsified clause in declaration order."""
        bits = np.asarray(assignment, dtype=bool)
        if bits.shape != (self.variable_count,):
            raise ParameterError("assignment length must match variable count")
        falsified = self._falsified(bits[:, None])[:, 0]
        first = int(falsified.argmax())
        return first if falsified[first] else None


def random_planted_formula(
    variable_count: int,
    rng: SeededRng,
    density: float = PLANTED_DENSITY,
) -> Tuple[Cnf3Formula, np.ndarray]:
    """Random 3-CNF guaranteed satisfiable by a hidden planted assignment.

    Clause variable triples are drawn distinct and uniform; signs are
    resampled until the planted assignment satisfies the clause.  The draws
    are those of `integers(0, 2, size=variable_count)` for the plant, then
    per clause `choice(variable_count, 3, replace=False)` and
    `integers(0, 2, size=3)` until the signs fit, decoded from raw words by
    `sim.RawDraws` (its docstring gives the rules); the generator is left
    where those calls leave it.
    """
    if variable_count < 3:
        raise ParameterError("planted formulas need at least 3 variables")
    if density <= 0:
        raise ParameterError("density must be positive")
    if variable_count > MAX_SAT_VARIABLES:
        raise SizeCapError(
            f"{variable_count} variables exceed the desk-scale cap {MAX_SAT_VARIABLES}")
    clause_count = max(1, round(density * variable_count))
    sim.check_state_size(3 * clause_count)
    n = variable_count
    reader = sim.RawDraws(rng.generator.bit_generator)
    plant = reader.take([2] * n)
    # Floyd's three draws, the two shuffle draws, then three signs
    clause_bounds = (n - 2, n - 1, n, 3, 2, 2, 2, 2)
    clauses = []
    for _ in range(clause_count):
        a, b, c, swap2, swap1, *negs = reader.take(clause_bounds)
        if b == a:
            b = n - 2
        if c == a or c == b:
            c = n - 1
        variables = [a, b, c]
        variables[swap2], variables[2] = variables[2], variables[swap2]
        variables[swap1], variables[1] = variables[1], variables[swap1]
        # the one sign triple under which the plant falsifies the clause
        falsifying = [plant[v] for v in variables]
        while negs == falsifying:
            negs = reader.take(clause_bounds[5:])
        clauses.append(tuple(zip(variables, map(bool, negs))))
    reader.place()
    return Cnf3Formula(variable_count, tuple(clauses)), np.array(plant, dtype=bool)


def schoening_run(formula: Cnf3Formula, rng: SeededRng) -> Optional[np.ndarray]:
    """One bounded repair walk: uniform start, then up to 3n + 1 single flips.

    Each repair picks the first falsified clause and flips a uniformly
    random literal of it; the assignment is checked before every flip and
    after the last.  Returns the satisfying assignment or None.
    Exact oracle: reference for tests.
    """
    n = formula.variable_count
    gen = rng.generator
    assignment = gen.integers(0, 2, size=n).astype(bool)
    for _ in range(3 * n + 1):
        clause = formula.first_unsatisfied(assignment)
        if clause is None:
            return assignment
        length = int(formula._lengths[clause])
        pick = int(gen.integers(0, length))
        assignment[formula._vars[pick, clause]] ^= True
    return assignment if formula.satisfied_by(assignment) else None


def _schoening_batch(formula: Cnf3Formula, rng: SeededRng, trials: int) -> int:
    """Successes among vectorized repair walks; one column per trial.

    Like schoening_run, each walk is checked before every flip and after
    the last of up to 3n + 1 flips.  A satisfied walk is never flipped
    again, so it stays satisfied to the end.
    """
    n = formula.variable_count
    gen = rng.generator
    assignments = gen.integers(0, 2, size=(trials, n)).T.astype(bool, order="C")
    # Pre-draw the literal choices; each step consumes one column.
    picks = gen.random(size=(trials, 3 * n + 1))
    vars_, lengths = formula._vars, formula._lengths
    cells = assignments.reshape(-1)
    for step in range(3 * n + 1):
        falsified = formula._falsified(assignments)
        active = np.flatnonzero(falsified.any(axis=0))
        if not active.size:
            return trials
        # argmax along contiguous rows: the copy costs less than a strided argmax
        first_bad = falsified.T[active].argmax(axis=1)
        clause_len = lengths[first_bad]
        lit = np.minimum((picks[active, step] * clause_len).astype(np.int64),
                         clause_len - 1)
        cells[vars_[lit, first_bad] * trials + active] ^= True
    return trials - int(np.count_nonzero(formula._falsified(assignments).any(axis=0)))


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SatRunStats:
    trials: int
    successes: int
    success_rate: float
    wilson_low: float
    wilson_high: float


def estimate_success(formula: Cnf3Formula, rng: SeededRng, trials: int) -> SatRunStats:
    """Monte Carlo estimate of the repair walk's single-run success rate."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    batch_rows = max(1, min(4096, 4_000_000 // (formula.clause_count * 3)))
    # a batch's largest array is its (rows, 3n + 1) float64 literal picks;
    # batch_rows holds its (3, m, rows) literal gather to 4 MB
    sim.check_state_size(min(batch_rows, trials) * (3 * formula.variable_count + 1))
    successes = sum(_schoening_batch(formula, rng.split(index), min(batch_rows, trials - start))
                    for index, start in enumerate(range(0, trials, batch_rows)))
    low, high = wilson_interval(successes, trials)
    return SatRunStats(
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        wilson_low=low,
        wilson_high=high,
    )


@dataclass(frozen=True)
class SpeedupReport:
    stats: SatRunStats
    classical_restarts: Optional[int]
    quantum_repetitions: Optional[int]
    speedup: Optional[float]
    conclusive: bool


def quantum_speedup_report(formula: Cnf3Formula, rng: SeededRng, trials: int) -> SpeedupReport:
    """Compare restart counts: classical 1/eps versus amplification 1/sqrt(eps).

    The conservative Wilson lower bound feeds both predictions.  Zero
    observed successes make the lower bound 0, so no prediction is offered.
    """
    stats = estimate_success(formula, rng, trials)
    if stats.successes == 0 or stats.wilson_low <= 0.0:
        return SpeedupReport(
            stats=stats,
            classical_restarts=None,
            quantum_repetitions=None,
            speedup=None,
            conclusive=False,
        )
    floor = stats.wilson_low
    classical = classical_repetitions(floor)
    amplified = predicted_repetitions(floor)
    return SpeedupReport(
        stats=stats,
        classical_restarts=classical,
        quantum_repetitions=amplified,
        speedup=classical / max(1, amplified),
        conclusive=True,
    )


@dataclass(frozen=True)
class EdBaseRun:
    pair: Optional[Tuple[int, int]]
    sample_queries: int
    search_queries: int

    @property
    def queries(self) -> int:
        return self.sample_queries + self.search_queries


def ed_base_run(oracle: ValueOracle, rng: SeededRng) -> EdBaseRun:
    """One sample-then-search pass for a duplicated value.

    Reads ceil(sqrt(N)) distinct positions, then runs one unknown-count
    search for an outside position matching a sampled value.  One-sided:
    a returned pair is always a real collision; None only means this pass
    missed.
    """
    size = oracle.size
    sample_size = math.isqrt(size - 1) + 1
    start = oracle.query_count
    positions = rng.generator.choice(size, size=sample_size, replace=False)
    sample_values = np.array([oracle.value(int(i)) for i in positions])
    sample_spent = oracle.query_count - start

    order = np.argsort(sample_values, kind="stable")
    sorted_vals = sample_values[order]
    dup = np.flatnonzero(sorted_vals[1:] == sorted_vals[:-1])
    if dup.size:
        a = int(positions[order[int(dup[0])]])
        b = int(positions[order[int(dup[0]) + 1]])
        return EdBaseRun(pair=(min(a, b), max(a, b)), sample_queries=sample_spent,
                         search_queries=0)

    all_values = oracle.peek_all()
    in_sample = np.zeros(size, dtype=bool)
    in_sample[positions] = True
    matches = np.isin(all_values, sample_values) & ~in_sample
    probe = BitOracle(matches, charge_to=(oracle,))
    search_start = oracle.query_count
    hit = grover.search_unknown_count(probe, size, rng)
    search_spent = oracle.query_count - search_start
    if hit is None:
        return EdBaseRun(pair=None, sample_queries=sample_spent,
                         search_queries=search_spent)
    value = all_values[hit]
    partner = int(positions[int(np.flatnonzero(sample_values == value)[0])])
    return EdBaseRun(pair=(min(partner, hit), max(partner, hit)),
                     sample_queries=sample_spent, search_queries=search_spent)


def ed_hybrid_query_model(size: int, success_rate: Optional[float] = None) -> float:
    """Predicted hybrid cost: amplified repetitions times per-pass queries.

    success_rate is the (measured or assumed) chance one base run finds the
    pair; it defaults to the 0.5/sqrt(N) planted-collision floor. Per-pass
    cost is the sample plus one unknown-count search modeled at
    GROVER_UNKNOWN_COST_FACTOR * sqrt(N); at the default rate the whole
    expression scales as N^(3/4).
    """
    if size < 2:
        raise ParameterError("query model needs size >= 2")
    if success_rate is None:
        success_rate = 0.5 / math.sqrt(size)
    if not 0.0 < success_rate <= 1.0:
        raise ParameterError("success_rate must lie in (0, 1]")
    # the base run itself always executes once, even when no boosting is needed
    repetitions = max(1, predicted_repetitions(success_rate))
    sample = math.isqrt(size - 1) + 1
    per_pass = sample + GROVER_UNKNOWN_COST_FACTOR * math.sqrt(size)
    return repetitions * per_pass
