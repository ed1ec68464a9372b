"""Cross-route agreement on random inputs drawn with fixed seeds."""

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
