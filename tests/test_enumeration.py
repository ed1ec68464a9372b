import random
from fractions import Fraction
from math import factorial

import pytest

from kronlab.enumeration import (
    TruncatedEGF,
    egf_check,
    egf_rhs,
    multiplicity_formula,
    no_small_blocks_egf,
    p2,
)
from kronlab.kron_ops import kron_power_nm1
from kronlab.partitions import partitions_of, standard_tableaux_count
from kronlab.tableaux import bijection_regime_ok, count_kronecker_tableaux

from oracles import exp_series, set_partitions


def test_p2_base_cases():
    assert p2(0, 0) == 1
    assert p2(2, 1) == 1
    assert p2(4, 2) == 3
    assert p2(3, 2) == 0  # too few elements for two blocks
    assert p2(5, 0) == 0


@pytest.mark.parametrize("n", range(0, 11))
def test_p2_against_exhaustive_set_partitions(n):
    by_blocks = {}
    singleton_free = 0
    for sp in set_partitions(range(n)):
        if all(len(b) >= 2 for b in sp):
            by_blocks[len(sp)] = by_blocks.get(len(sp), 0) + 1
            singleton_free += 1
    for m in range(0, n + 1):
        assert p2(n, m) == by_blocks.get(m, 0)
    assert sum(p2(n, m) for m in range(n + 1)) == singleton_free


@pytest.mark.parametrize("n", range(0, 13))
def test_p2_against_generating_function(n):
    # n! [x^n] p(x)^m / m!  with p(x) = e^x - x - 1
    p = TruncatedEGF.exp_x(12) - TruncatedEGF.x(12) - TruncatedEGF.one(12)
    for m in range(0, 7):
        coeff = p.pow(m).scale(Fraction(1, factorial(m)))[n] * factorial(n)
        assert coeff == p2(n, m)


def test_formula_trivial_k0():
    for n in range(1, 8):
        assert multiplicity_formula(n, 0, (n,)) == 1


def test_formula_trivial_component_matches_power():
    for n in range(2, 9):
        for k in range(0, min(n, 6)):
            want = kron_power_nm1(n, k).coefficient((n,))
            assert multiplicity_formula(n, k, (n,)) == want


def test_formula_regime_rejected():
    with pytest.raises(ValueError):
        multiplicity_formula(4, 3, (2, 2))
    with pytest.raises(ValueError):
        multiplicity_formula(5, 4, (2, 2, 1))


def test_formula_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        multiplicity_formula(5, 1, (3, 1))


def test_formula_n12_k5_spot():
    want = count_kronecker_tableaux((12,), (9, 2, 1), 5)
    assert multiplicity_formula(12, 5, (9, 2, 1)) == want


@pytest.mark.parametrize("k", range(0, 6))
def test_formula_matches_count_n12(k):
    for lam in partitions_of(12):
        if not bijection_regime_ok(12, k, lam):
            continue
        assert multiplicity_formula(12, k, lam) == count_kronecker_tableaux(
            (12,), lam, k
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_three_route_agreement_in_regime(n):
    for k in range(0, 6):
        power = kron_power_nm1(n, k)
        for lam in partitions_of(n):
            if not bijection_regime_ok(n, k, lam):
                continue
            f = multiplicity_formula(n, k, lam)
            assert f == power.coefficient(lam)
            assert f == count_kronecker_tableaux((n,), lam, k)


def test_truncated_egf_arithmetic():
    e = TruncatedEGF.exp_x(6)
    one = TruncatedEGF.one(6)
    x = TruncatedEGF.x(6)
    assert (e - one - x).coeffs[0:2] == (Fraction(0), Fraction(0))
    assert (x * x)[2] == 1
    assert (e * e)[3] == Fraction(8, 6)  # e^{2x}
    assert x.exp() == e
    with pytest.raises(ValueError):
        (one).exp()


@pytest.mark.parametrize("seed", range(3))
def test_exp_matches_power_sum_oracle(seed):
    rng = random.Random(seed)
    for K in range(13):
        f = [Fraction(0)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(K)
        ]
        assert TruncatedEGF(f).exp().coeffs == tuple(exp_series(f))


def test_no_small_blocks_series():
    e = no_small_blocks_egf(8)
    got = [int(e[k] * factorial(k)) for k in range(9)]
    assert got[:4] == [1, 0, 1, 1]
    # singleton-free set partition counts, cross-checked exhaustively
    for n in range(0, 9):
        direct = sum(
            1 for sp in set_partitions(range(n)) if all(len(b) >= 2 for b in sp)
        )
        assert got[n] == direct


def test_egf_rhs_low_terms():
    empty = egf_rhs((), 3)
    assert [empty[k] * factorial(k) for k in range(4)] == [1, 0, 1, 1]
    single = egf_rhs((1,), 1)
    assert single[1] * factorial(1) == 1


def test_egf_coefficients_nonnegative_and_integral():
    for lb in [(), (1,), (2,), (1, 1), (2, 1)]:
        series = egf_rhs(lb, 10)
        ell = sum(lb)
        for k in range(ell, 11):
            value = series[k] * factorial(k)
            assert value >= 0 and value.denominator == 1


@pytest.mark.parametrize("lb", [(), (1,), (2,), (1, 1), (2, 1)])
def test_egf_check_passes(lb):
    rows = egf_check(lb, 8)
    assert rows and all(r["ok"] for r in rows)
    assert rows[0]["k"] == sum(lb)


def test_egf_check_three_row_tail():
    rows = egf_check((2, 2, 2), 10)
    assert [r["k"] for r in rows] == list(range(6, 11))
    assert all(r["ok"] for r in rows)


def test_egf_rhs_rejects_low_order():
    with pytest.raises(ValueError):
        egf_rhs((2, 1), 2)


def test_egf_scaling_by_tableau_count():
    # the truncated-shape factor scales the whole series
    base = egf_rhs((1, 1), 8)
    f = standard_tableaux_count((1, 1))
    assert base == no_small_blocks_egf(8) * (
        TruncatedEGF.exp_x(8) - TruncatedEGF.one(8)
    ).pow(2).scale(Fraction(f, factorial(2)))
