"""Minimum-finding tests: global champion search and hypercube descent."""

import numpy as np
import pytest

from qsearchlab.minima import (
    HypercubeOracle,
    LocalMinParams,
    default_sample_count,
    find_local_minimum,
    find_minimum,
    verify_local_min,
)
from qsearchlab.sim import ParameterError, SeededRng, SizeCapError, ValueOracle


def test_find_minimum_locates_planted_minimum():
    wins = 0
    for seed in range(50):
        rng = SeededRng(404, seed)
        values = rng.generator.permutation(128) + 10
        oracle = ValueOracle(values)
        result = find_minimum(oracle, 128, rng)
        assert result.value == int(values[result.index])
        if result.index == int(np.argmin(values)):
            wins += 1
            assert result.value == 10
    assert wins >= 45


def test_find_minimum_query_accounting():
    rng = SeededRng(7, 7)
    oracle = ValueOracle(list(range(64)))
    result = find_minimum(oracle, 64, rng)
    assert result.queries == oracle.query_count
    assert result.queries <= 30 * 8 + 1  # default budget ceiling


def test_find_minimum_tiny_budget_returns_unverified_champion():
    rng = SeededRng(9, 0)
    oracle = ValueOracle([4, 2, 8, 6])
    result = find_minimum(oracle, 4, rng, budget=1)
    assert result.verified is False
    assert result.value == oracle.peek(result.index)


def test_find_minimum_on_constant_table():
    # strictly-better predicate never fires, so any index is a valid minimum
    rng = SeededRng(2, 5)
    oracle = ValueOracle([3] * 16)
    result = find_minimum(oracle, 16, rng)
    assert result.value == 3
    assert result.verified is True


def test_find_minimum_validation():
    with pytest.raises(ParameterError):
        find_minimum(ValueOracle([1, 2]), 3, SeededRng(0))
    with pytest.raises(ParameterError):
        find_minimum(ValueOracle([1, 2]), 2, SeededRng(0), budget=0)


# --------------------------------------------------------- hypercube oracle

def test_hypercube_oracle_bit_addressing():
    # tuples are little-endian: bit i weights 2^i
    base = ValueOracle(list(range(8)))
    oracle = HypercubeOracle(3, list(range(8)), charge_to=(base,))
    assert isinstance(oracle, ValueOracle)
    assert oracle.size == 8
    assert oracle.value((1, 0, 0)) == 1
    assert oracle.query_count == 1
    assert oracle.value(5) == 5
    assert oracle.query_count == 2
    assert oracle.value((0, 1, 1)) == 6
    assert oracle.query_count == 3
    assert base.query_count == 3  # every probe fans out to the wrapped table
    assert oracle.peek((1, 1, 1)) == 7
    assert oracle.query_count == 3


def test_hypercube_oracle_from_function():
    oracle = HypercubeOracle.from_function(4, lambda bits: sum(bits))
    assert oracle.peek(0) == 0
    assert oracle.peek(15) == 4
    assert oracle.peek((1, 0, 1, 0)) == 2


def test_hypercube_oracle_validation():
    with pytest.raises(ParameterError):
        HypercubeOracle(2, [1, 2, 3])
    with pytest.raises(SizeCapError):
        HypercubeOracle(17, np.zeros(1 << 17, dtype=int))
    oracle = HypercubeOracle(2, [0, 1, 2, 3])
    with pytest.raises(ParameterError):
        oracle.value((0, 1, 1))
    with pytest.raises(ParameterError):
        oracle.value((0, 2))
    with pytest.raises(IndexError):
        oracle.value(4)
    with pytest.raises(IndexError):
        oracle.peek(-1)
    assert oracle.query_count == 0


def test_default_sample_count_values():
    # round(2^(2n/3) * n^(1/3)), clamped to [1, 2^n]
    assert default_sample_count(10) == 219
    assert default_sample_count(6) == 29
    assert default_sample_count(1) == 2
    for n in range(1, 15):
        assert 1 <= default_sample_count(n) <= 1 << n


# ------------------------------------------------------------ local minima

def _brute_is_local_min(values: np.ndarray, index: int, n: int) -> bool:
    return all(values[index] <= values[index ^ (1 << b)] for b in range(n))


def test_verify_local_min_matches_brute_force():
    rng = SeededRng(77, 1)
    n = 6
    values = rng.generator.integers(0, 40, size=1 << n)
    oracle = HypercubeOracle(n, values)
    for index in range(1 << n):
        before = oracle.query_count
        verdict = verify_local_min(oracle, index)
        assert verdict == _brute_is_local_min(values, index, n)
        assert oracle.query_count - before == n + 1


def test_find_local_minimum_returns_genuine_local_minima():
    n = 8
    successes = 0
    for seed in range(60):
        rng = SeededRng(606, seed)
        values = rng.generator.permutation(1 << n)
        oracle = HypercubeOracle(n, values)
        result = find_local_minimum(oracle, rng)
        assert result.queries == oracle.query_count
        assert result.value == int(values[result.index])
        if result.success:
            successes += 1
            assert _brute_is_local_min(values, result.index, n)
    assert successes >= 40


def test_find_local_minimum_descends_from_sample():
    # single-basin objective: descent must end at the global minimum
    n = 7
    target = 53
    oracle = HypercubeOracle.from_function(n, lambda bits: sum(
        b != ((target >> i) & 1) for i, b in enumerate(bits)))
    result = find_local_minimum(oracle, SeededRng(3, 3))
    assert result.success
    assert result.index == target
    assert result.value == 0


def test_local_min_params():
    params = LocalMinParams.for_bits(10)
    assert params.sample_count == 219
    assert params.descent_budget >= 1
    with pytest.raises(ParameterError):
        LocalMinParams(sample_count=0, descent_budget=5)
    with pytest.raises(ParameterError):
        LocalMinParams(sample_count=5, descent_budget=0)
