import random
from unittest import mock

import pytest

from kronlab import kron_ops
from kronlab.characters import (
    kron_coefficient,
    kron_power_oracle,
    kron_product_via_characters,
)
from kronlab.kron_ops import (
    KroneckerOperator,
    apply,
    build_operator,
    kron_power_nm1,
    kron_product_via_operator,
)
from kronlab.partitions import conjugate, partitions_of, standard_tableaux_count
from kronlab.symfunc import SchurSum


def test_operator_single_cell():
    got = build_operator((1,))
    assert got == KroneckerOperator(((-1, ()), (1, ((1,),))))


def test_operator_two_cells_row():
    got = build_operator((2,))
    assert got == KroneckerOperator(
        ((-1, ((1,),)), (1, ((1, 1),)), (1, ((2,),)))
    )


def test_operator_empty_is_identity():
    assert build_operator(()) == KroneckerOperator(((1, ()),))
    f = SchurSum(3, {(2, 1): 4, (3,): -2})
    assert apply(build_operator(()), f) == f


def test_apply_single_cell_to_331():
    got = apply(build_operator((1,)), SchurSum.schur((3, 3, 1)))
    assert got == SchurSum(
        7,
        {(3, 3, 1): 1, (4, 2, 1): 1, (3, 2, 1, 1): 1, (3, 2, 2): 1, (4, 3): 1},
    )


def test_apply_single_cell_to_row():
    for n in range(2, 8):
        got = apply(build_operator((1,)), SchurSum.schur((n,)))
        assert got == SchurSum.schur((n - 1, 1))


def test_product_square_of_31():
    got = kron_product_via_operator((3, 1), (3, 1))
    assert got == SchurSum(4, {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1})


def test_product_with_trivial():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert kron_product_via_operator((n,), mu) == SchurSum.schur(mu)


def test_product_cross_checked_42_33():
    got = kron_product_via_operator((4, 2), (3, 3))
    for alpha in partitions_of(6):
        assert got.coefficient(alpha) == kron_coefficient((4, 2), (3, 3), alpha)


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_equals_character_route(n):
    ps = partitions_of(n)
    for lam in ps:
        for mu in ps:
            got = kron_product_via_operator(lam, mu)
            for alpha in ps:
                assert got.coefficient(alpha) == kron_coefficient(lam, mu, alpha)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_operator_equals_character_route(n):
    # every tail, also the tall ones, for which kron_product_via_operator
    # builds the operator of a conjugate instead
    ps = partitions_of(n)
    for kappa in ps:
        op = build_operator(kappa[1:])
        for mu in ps:
            got = apply(op, SchurSum.schur(mu))
            assert got == kron_product_via_characters(kappa, mu), (kappa, mu)


@pytest.mark.parametrize("n", range(1, 6))
def test_product_commutes(n):
    # at fixed orientations: the public function picks one of these itself
    ps = partitions_of(n)
    for lam in ps:
        for mu in ps:
            by_lam = apply(build_operator(lam[1:]), SchurSum.schur(mu))
            by_mu = apply(build_operator(mu[1:]), SchurSum.schur(lam))
            by_conjugates = apply(
                build_operator(conjugate(lam)[1:]), SchurSum.schur(conjugate(mu))
            )
            assert by_lam == by_mu == by_conjugates, (lam, mu)


def test_operator_built_from_the_longest_first_row():
    # from lam' = (12) the operator is the identity, applied to s_mu'
    build_operator.cache_clear()
    got = kron_product_via_operator((1,) * 12, (7, 3, 2))
    assert got == SchurSum.schur((3, 3, 2, 1, 1, 1, 1))
    assert build_operator.cache_info().misses == 1
    build_operator(())
    assert build_operator.cache_info().hits == 1


def test_orientation_choice_on_seeded_pairs():
    rng = random.Random(1313)
    built = []

    def spy(tail):
        built.append(tail)
        return build_operator(tail)

    wins = set()
    with mock.patch.object(kron_ops, "build_operator", spy):
        for _ in range(240):
            n = rng.randint(1, 10)
            lam, mu = rng.choice(partitions_of(n)), rng.choice(partitions_of(n))
            first_rows = [lam[0], mu[0], len(lam), len(mu)]
            # the first of the longest first rows, in the order lam, mu, lam', mu'
            win = first_rows.index(max(first_rows))
            index = (lam, mu, conjugate(lam), conjugate(mu))[win]
            got = kron_ops.kron_product_via_operator(lam, mu)
            assert built.pop() == index[1:] and not built, (lam, mu)
            assert got == kron_product_via_characters(lam, mu), (lam, mu)
            wins.add(win)
    assert wins == {0, 1, 2, 3}


def test_operator_at_orientations_never_picked():
    # seeded pairs at n = 8..12 whose lam is not the first longest first row
    # of lam, mu, lam', mu', so kron_product_via_operator never builds the
    # operator of lam[1:] for them
    rng = random.Random(1919)
    pairs = []
    while len(pairs) < 200:
        n = rng.randint(8, 12)
        lam = rng.choice([p for p in partitions_of(n) if n - p[0] <= 6])
        mu = rng.choice(partitions_of(n))
        if max(mu[0], len(lam), len(mu)) > lam[0]:
            pairs.append((lam, mu))
    for lam, mu in pairs:
        got = apply(build_operator(lam[1:]), SchurSum.schur(mu))
        assert got == kron_product_via_characters(lam, mu), (lam, mu)
        dims = sum(c * standard_tableaux_count(nu) for nu, c in got.terms.items())
        assert dims == standard_tableaux_count(lam) * standard_tableaux_count(mu), (lam, mu)


def test_coefficients_nonnegative_on_schur_inputs():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = kron_product_via_operator(lam, mu)
                assert all(c >= 0 for c in got.terms.values())


def test_largest_part_independence():
    # one operator serves every weight: U_(2,1) applied at two different n
    lb = (2, 1)
    op = build_operator(lb)
    for n in (6, 7):
        lam = (n - sum(lb),) + lb
        for mu in partitions_of(n):
            got = apply(op, SchurSum.schur(mu))
            for alpha in partitions_of(n):
                assert got.coefficient(alpha) == kron_coefficient(lam, mu, alpha)


def test_power_examples():
    assert kron_power_nm1(4, 2) == SchurSum(
        4, {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    )
    for n in range(2, 7):
        assert kron_power_nm1(n, 0) == SchurSum.schur((n,))
    assert kron_power_nm1(6, 3) == kron_power_oracle(6, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_powers_match_character_oracle(n):
    for k in range(0, 6):
        assert kron_power_nm1(n, k) == kron_power_oracle(n, k)


def test_normalize_merges_duplicate_terms():
    op = KroneckerOperator(((1, ((2,), (1, 1))), (1, ((1, 1), (2,))), (2, ())))
    norm = op.normalize()
    assert norm == KroneckerOperator(((2, ()), (2, ((2,), (1, 1)))))
    f = SchurSum.schur((3, 2))
    assert apply(op, f) == apply(norm, f)


@pytest.mark.parametrize("w", range(8))
def test_built_operators_are_merged(w):
    for tail in partitions_of(w):
        assert build_operator(tail) == build_operator(tail).normalize(), tail


def test_apply_sums_hand_built_terms_as_given():
    # each built term split in two, one half with its nu's reversed, plus a
    # cancelling pair and one more identity term, all shuffled: apply must
    # add every term as given, identity terms included
    rng = random.Random(2020)
    for w in range(6):
        for tail in partitions_of(w):
            built = build_operator(tail)
            terms = []
            for coeff, nus in built.terms:
                part = rng.randint(-3, 3)
                terms += [(part, nus[::-1]), (coeff - part, nus)]
            pair = rng.choice(built.terms)[1] or ((1,),)
            extra = rng.randint(1, 3)
            terms += [(extra, pair), (-extra, pair), (extra, ())]
            rng.shuffle(terms)
            op = KroneckerOperator(tuple(terms))
            for _ in range(3):
                f = SchurSum.schur(rng.choice(partitions_of(rng.randint(w, 9))))
                want = apply(built, f) + f.scale(extra)
                assert apply(op, f) == want, (tail, f)


def test_readme_library_example():
    from kronlab import (
        count_kronecker_tableaux,
        kron_coefficient,
        kron_power_nm1,
        kron_product_via_operator,
        multiplicity_formula,
    )

    assert (
        repr(kron_product_via_operator((3, 1), (3, 1)))
        == "s[4] + s[3, 1] + s[2, 2] + s[2, 1, 1]"
    )
    assert kron_coefficient((4, 2), (4, 2), (3, 3)) == 0
    walks = count_kronecker_tableaux((6,), (4, 2), 3)
    assert kron_power_nm1(6, 3).coefficient((4, 2)) == walks == 3
    assert multiplicity_formula(12, 5, (9, 2, 1)) == 70


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        kron_product_via_operator((3, 1), (3,))
