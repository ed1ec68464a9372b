"""Cross-route agreement and round trips on random inputs drawn with
fixed seeds."""

import random
from math import factorial

import pytest

from kronlab.characters import (
    character_value,
    kron_coefficient,
    kron_product_via_characters,
)
from kronlab.kron_ops import kron_product_via_operator
from kronlab.partitions import class_size, partitions_of
from kronlab.tableaux import (
    KroneckerTableau,
    bijection_regime_ok,
    format_walk,
    from_pair,
    parse_walk,
    successors,
    to_pair,
    walk_counts,
)

from oracles import walk_count_recursive, walk_steps


def direct_kron_coefficient(lam, mu, alpha):
    """The class-by-class sum over validated single character values."""
    n = sum(lam)
    total = sum(
        class_size(gamma)
        * character_value(lam, gamma)
        * character_value(mu, gamma)
        * character_value(alpha, gamma)
        for gamma in partitions_of(n)
    )
    assert total % factorial(n) == 0
    return total // factorial(n)


@pytest.mark.parametrize("seed", range(5))
def test_kron_coefficient_agrees_across_routes(seed):
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(0, 8)
        lam, mu, alpha = (rng.choice(partitions_of(n)) for _ in range(3))
        want = direct_kron_coefficient(lam, mu, alpha)
        assert kron_coefficient(lam, mu, alpha) == want, (lam, mu, alpha)
        assert kron_product_via_characters(lam, mu).coefficient(alpha) == want
        if n <= 7:
            by_operator = kron_product_via_operator(lam, mu)
            assert by_operator.coefficient(alpha) == want, (lam, mu, alpha)


def test_successors_match_oracle_steps():
    for n in range(10):
        for p in partitions_of(n):
            assert successors(p) == walk_steps(p), p


def random_walk(rng, n, k):
    shapes, marks = [(n,)], []
    for _ in range(k):
        shape, mark = rng.choice(walk_steps(shapes[-1]))
        shapes.append(shape)
        marks.append(mark)
    return KroneckerTableau(tuple(shapes), tuple(marks))


@pytest.mark.parametrize("seed", range(4))
def test_random_walks_round_trip(seed):
    rng = random.Random(seed)
    in_regime = 0
    for _ in range(60):
        n, k = rng.randint(2, 10), rng.randint(0, 8)
        K = random_walk(rng, n, k)
        line = format_walk(K)
        assert parse_walk(line) == K and format_walk(parse_walk(line)) == line
        if bijection_regime_ok(n, k, K.final):
            in_regime += 1
            T, pi = to_pair(K, n, k)
            assert from_pair(T, pi, n, k) == K, line
    assert in_regime >= 20


@pytest.mark.parametrize("seed", range(4))
def test_walk_counts_agree_with_recursive_oracle(seed):
    rng = random.Random(seed)
    for _ in range(5):
        n, k = rng.randint(1, 10), rng.randint(0, 8)
        mu = rng.choice(partitions_of(n))
        counts = walk_counts(mu, k)
        for lam in partitions_of(n):
            assert counts.coefficient(lam) == walk_count_recursive(mu, lam, k), (mu, lam, k)
