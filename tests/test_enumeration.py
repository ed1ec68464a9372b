import random
from fractions import Fraction
from math import comb, factorial

import pytest

from kronlab import enumeration
from kronlab.enumeration import (
    TruncatedEGF,
    _formula_sum,
    _p2_rows,
    egf_check,
    egf_rhs,
    multiplicity_formula,
    p2,
)
from kronlab.kron_ops import kron_power_nm1
from kronlab.partitions import partitions_of, standard_tableaux_count
from kronlab.tableaux import bijection_regime_ok, count_kronecker_tableaux

from oracles import (
    exp_series,
    formula_sum_rebuilt,
    p2_recursive,
    series_product,
    set_partitions,
)


def rational(series):
    """The coefficients c_k = a_k / k! of a series held as counts a_k."""
    return [Fraction(a, factorial(k)) for k, a in enumerate(series.counts)]


def random_counts(rng, K):
    return [rng.randint(-9, 9) for _ in range(K + 1)]


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


def test_p2_against_recursive_oracle():
    for n in range(40):
        for m in range(20):
            assert p2(n, m) == p2_recursive(n, m), (n, m)


def test_p2_rows_against_recursive_oracle():
    for k in range(40):
        rows = list(_p2_rows(k))
        assert len(rows) == k // 2 + 1
        for m, row in enumerate(rows):
            assert row == [p2_recursive(n, m) for n in range(k + 1)], (k, m)


@pytest.mark.parametrize("n", range(0, 13))
def test_p2_against_generating_function(n):
    # n! [x^n] p(x)^m = m! p2(n, m)  with p(x) = e^x - x - 1
    p = TruncatedEGF.exp_x(12) - TruncatedEGF.x(12) - TruncatedEGF.one(12)
    for m in range(0, 7):
        assert p.pow(m).counts[n] == factorial(m) * p2(n, m)


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
    assert rational(e) == [Fraction(1, factorial(k)) for k in range(7)]
    assert [e[k] for k in range(7)] == rational(e)
    assert rational(x) == [0, 1, 0, 0, 0, 0, 0]
    assert (e - one - x).counts == (0, 0, 1, 1, 1, 1, 1)
    assert (x * x)[2] == 1
    assert (e * e)[3] == Fraction(8, 6)  # e^{2x}
    assert (e * e).counts == tuple(2**k for k in range(7))
    assert x.exp() == e
    # a sum stops at the lower of the two orders
    assert x + TruncatedEGF.one(2) == TruncatedEGF([1, 1, 0])
    assert repr(TruncatedEGF.x(2)) == "TruncatedEGF(0, 1, 0)"
    assert repr(TruncatedEGF.exp_x(2)) == "TruncatedEGF(1, 1, 1)"
    assert e.__eq__(e.counts) is NotImplemented and e != e.counts
    with pytest.raises(ValueError):
        (one).exp()
    with pytest.raises(TypeError):
        TruncatedEGF([1, Fraction(1, 2)])


@pytest.mark.parametrize("seed", range(3))
def test_exp_matches_power_sum_oracle(seed):
    rng = random.Random(seed)
    for K in range(13):
        f = TruncatedEGF([0] + random_counts(rng, K)[1:])
        assert rational(f.exp()) == exp_series(rational(f))


@pytest.mark.parametrize("seed", range(3))
def test_pow_matches_repeated_products(seed):
    rng = random.Random(seed)
    for K in range(9):
        f = TruncatedEGF(random_counts(rng, K))
        # a product stops at the lower of the two orders
        g = TruncatedEGF(random_counts(rng, rng.randint(0, 12)))
        assert rational(f * g) == series_product(rational(f), rational(g))
        power = [Fraction(1)] + [Fraction(0)] * K
        for e in range(10):
            assert rational(f.pow(e)) == power
            power = series_product(power, rational(f))
    with pytest.raises(ValueError, match="nonnegative"):
        TruncatedEGF.one(3).pow(-1)


def test_formula_sum_matches_the_direct_double_sum():
    # fixed points m1, blocks m2: C(k, m1) C(m2, ell - m1) p2(k - m1, m2)
    for k in range(16):
        for ell in range(k + k // 2 + 2):
            direct = sum(
                comb(k, m1) * comb(m2, ell - m1) * p2_recursive(k - m1, m2)
                for m1 in range(min(ell, k) + 1)
                for m2 in range(k // 2 + 1)
            )
            assert _formula_sum(k, ell) == direct, (k, ell)


@pytest.mark.parametrize("held", [False, True])
def test_formula_sum_matches_the_rebuilt_rows(monkeypatch, held):
    # each k on its own, or with the rows of a check of order 40 held: those
    # serve k <= 40, and every larger k builds its own
    if held:
        monkeypatch.setattr(enumeration, "_p2_held", tuple(_p2_rows(40)))
    _formula_sum.cache_clear()
    try:
        for k in range(61):
            for ell in range(13):
                assert _formula_sum(k, ell) == formula_sum_rebuilt(k, ell), (k, ell)
    finally:
        _formula_sum.cache_clear()


def test_egf_check_builds_the_rows_of_p2_once(monkeypatch):
    built = []

    def counted(k):
        built.append(k)
        return _p2_rows(k)

    monkeypatch.setattr(enumeration, "_p2_rows", counted)
    _formula_sum.cache_clear()
    try:
        assert all(row["ok"] for row in egf_check((3, 2, 1), 40))
    finally:
        _formula_sum.cache_clear()
    assert built == [40]
    assert enumeration._p2_held == ()


def test_no_small_blocks_series():
    # egf_rhs of the empty shape is exp(e^x - x - 1) alone
    got = list(egf_rhs((), 8).counts)
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


def test_a_corrupted_series_raises(monkeypatch):
    # without (e^x - 1)^ell the counts are not multiples of ell!
    monkeypatch.setattr(TruncatedEGF, "pow", lambda self, e: TruncatedEGF.one(self.order))
    with pytest.raises(ArithmeticError, match="not divisible by 2!"):
        egf_rhs((1, 1), 4)


def test_egf_rhs_rejects_low_order():
    with pytest.raises(ValueError):
        egf_rhs((2, 1), 2)


def test_egf_scaling_by_tableau_count():
    # f / ell! * exp(e^x - x - 1) * (e^x - 1)^ell, all in rationals
    K = 40
    em1 = [Fraction(0)] + [Fraction(1, factorial(k)) for k in range(1, K + 1)]
    blocks = exp_series([0, 0] + em1[2:])
    for lb in [(), (1,), (1, 1), (2, 1), (3, 1), (2, 2, 1), (3, 2, 1)]:
        series = blocks
        for _ in range(sum(lb)):
            series = series_product(series, em1)
        scale = Fraction(standard_tableaux_count(lb), factorial(sum(lb)))
        assert rational(egf_rhs(lb, K)) == [scale * c for c in series], lb
