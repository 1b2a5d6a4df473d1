"""Minimum-finding tests: global champion search and hypercube descent."""

import numpy as np
import pytest

from qsearchlab import grover
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


@pytest.mark.parametrize("size", [16, 64, 257, 1024])
def test_find_minimum_charges_its_champion_and_each_threshold_attempt(monkeypatch, size):
    # one query for the starting champion's value, then each threshold
    # search's rounds and one verification per attempt, read from the sweep
    sweep, charged = grover._sweep_restarts, []

    def spy(*args, **kwargs):
        rounds, index, found = sweep(*args, **kwargs)
        charged.append(sum(rounds) + len(rounds))
        return rounds, index, found

    monkeypatch.setattr(grover, "_sweep_restarts", spy)
    for seed in range(50):
        charged.clear()
        rng = SeededRng(31, seed)
        oracle = ValueOracle(rng.generator.permutation(size))
        result = find_minimum(oracle, size, rng)
        assert charged
        assert result.queries == oracle.query_count == 1 + sum(charged)


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


def test_hypercube_oracle_validation():
    with pytest.raises(ParameterError):
        HypercubeOracle(2, [1, 2, 3])
    with pytest.raises(SizeCapError):
        HypercubeOracle(17, np.zeros(1 << 17, dtype=int))
    with pytest.raises(ParameterError, match="bit_count"):
        HypercubeOracle(0, [1])
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
    oracle = HypercubeOracle(n, [bin(x ^ target).count("1") for x in range(1 << n)])
    result = find_local_minimum(oracle, SeededRng(3, 3))
    assert result.success
    assert result.index == target
    assert result.value == 0


def test_local_descent_goes_on_after_a_neighbor_search_misses(monkeypatch):
    # Every neighbor search reports absent, better neighbors or not; the
    # classical check hands back the best neighbor and the descent goes on.
    n, target = 7, 53
    oracle = HypercubeOracle(n, [bin(x ^ target).count("1") for x in range(1 << n)])
    search, better_existed = grover.search_unknown_count, []

    def miss_neighbors(search_oracle, size, rng, **kwargs):
        if size != n:  # the sample minimum's own searches run as they are
            return search(search_oracle, size, rng, **kwargs)
        better_existed.append(bool(search_oracle.peek_all().any()))
        return None

    monkeypatch.setattr(grover, "search_unknown_count", miss_neighbors)
    params = LocalMinParams(sample_count=1, descent_budget=n + 1)
    result = find_local_minimum(oracle, SeededRng(3, 3), params)
    assert result.success
    assert (result.index, result.value) == (target, 0)
    assert len(better_existed) == result.descent_steps >= 2
    assert better_existed == [True] * (result.descent_steps - 1) + [False]
    # each step is one classical scan of the centre and its n neighbors
    assert result.queries == oracle.query_count
    assert result.queries >= result.descent_steps * (n + 1)


def test_local_min_params():
    params = LocalMinParams.for_bits(10)
    assert params.sample_count == 219
    assert params.descent_budget >= 1
    with pytest.raises(ParameterError):
        LocalMinParams(sample_count=0, descent_budget=5)
    with pytest.raises(ParameterError):
        LocalMinParams(sample_count=5, descent_budget=0)
