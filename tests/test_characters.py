import random
import sys
from collections import Counter
from itertools import product
from math import comb, factorial
from operator import mul

import pytest

from kronlab import characters
from kronlab.characters import (
    _average,
    _strip_moves,
    character_table,
    character_value,
    kron_coefficient,
    kron_power_oracle,
    kron_product_via_characters,
)
from kronlab.partitions import class_size, conjugate, partitions_of, standard_tableaux_count
from kronlab.symfunc import SchurSum, h_to_schur, skew_then_multiply
from kronlab.tableaux import walk_counts

from oracles import (
    border_strips,
    fixed_set_compositions,
    frobenius_character,
    kron_by_projection,
    mn_character,
)

S4_TABLE = (
    (1, 1, 1, 1, 1),
    (-1, 0, -1, 1, 3),
    (0, -1, 2, 0, 2),
    (1, 0, -1, -1, 3),
    (-1, 1, 1, -1, 1),
)


def test_character_table_s4():
    table = character_table(4)
    assert table.partitions == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert table.values == S4_TABLE


def test_character_values_spot():
    assert character_value((3, 1), (2, 2)) == -1
    assert character_value((2, 2), (2, 2)) == 2
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character_value((n,), mu) == 1


def test_character_table_small():
    assert character_table(1).values == ((1,),)
    row5 = character_table(5).values[0]
    assert all(v == 1 for v in row5)


def test_dimension_column():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert character_value(lam, (1,) * n) == standard_tableaux_count(lam)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_and_column_orthogonality(n):
    table = character_table(n)
    ps = table.partitions
    sizes = [class_size(mu) for mu in ps]
    nf = factorial(n)
    for i in range(len(ps)):
        for j in range(len(ps)):
            row = sum(sizes[k] * table.values[i][k] * table.values[j][k] for k in range(len(ps)))
            assert row == (nf if i == j else 0)
            col = sum(table.values[k][i] * table.values[k][j] for k in range(len(ps)))
            assert col == (nf // sizes[i] if i == j else 0)


def test_character_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value((2, 1), (2,))


@pytest.mark.parametrize(
    "route, args",
    [
        (kron_coefficient, ((2, 1), (2, 1), (2,))),
        (kron_coefficient, ((2,), (2, 1), (2, 1))),
        (kron_product_via_characters, ((2, 1), (2,))),
    ],
)
def test_routes_reject_unequal_weights(route, args):
    with pytest.raises(ValueError, match="equal weights"):
        route(*args)


def test_inner_product_must_divide_exactly():
    # every route divides its class-weighted total by n!; the indicator of
    # the identity class of S_3 totals 1, whose average 1/6 is no multiplicity
    assert _average(6, factorial(3)) == 1
    with pytest.raises(ArithmeticError):
        _average(1, factorial(3))


@pytest.mark.parametrize("n", range(0, 8))
def test_kron_coefficient_reads_the_product(n):
    ps = partitions_of(n)
    for lam in ps:
        for mu in ps:
            product = kron_product_via_characters(lam, mu)
            for alpha in ps:
                assert kron_coefficient(lam, mu, alpha) == product.coefficient(alpha)


@pytest.mark.parametrize("n", range(12, 15))
def test_kron_coefficient_reads_the_product_on_seeded_triples(n):
    rng = random.Random(2400 + n)
    ps = partitions_of(n)
    for _ in range(20):
        lam, mu, alpha = rng.choice(ps), rng.choice(ps), rng.choice(ps)
        want = kron_product_via_characters(lam, mu).coefficient(alpha)
        assert kron_coefficient(lam, mu, alpha) == want, (lam, mu, alpha)


def test_kron_coefficient_square_of_31():
    for alpha, want in [
        ((4,), 1),
        ((3, 1), 1),
        ((2, 2), 1),
        ((2, 1, 1), 1),
        ((1, 1, 1, 1), 0),
    ]:
        assert kron_coefficient((3, 1), (3, 1), alpha) == want


def test_kron_with_trivial_is_identity():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for alpha in partitions_of(n):
                want = 1 if alpha == mu else 0
                assert kron_coefficient((n,), mu, alpha) == want


def test_kron_coefficient_direct_table_evaluation():
    # recompute one value straight from the n=6 table
    table = character_table(6)
    total = sum(
        class_size(gamma)
        * table.value((4, 2), gamma)
        * table.value((4, 2), gamma)
        * table.value((3, 3), gamma)
        for gamma in table.partitions
    )
    assert total % factorial(6) == 0
    assert kron_coefficient((4, 2), (4, 2), (3, 3)) == total // factorial(6)


@pytest.mark.parametrize("n", range(1, 6))
def test_kron_coefficient_s3_symmetry(n):
    ps = partitions_of(n)
    for lam in ps:
        for mu in ps:
            for alpha in ps:
                t = kron_coefficient(lam, mu, alpha)
                assert t == kron_coefficient(mu, lam, alpha)
                assert t == kron_coefficient(alpha, mu, lam)
                assert t == kron_coefficient(lam, alpha, mu)


def test_kron_power_oracle_examples():
    assert kron_power_oracle(4, 2) == SchurSum(
        4, {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    )
    for n in range(2, 7):
        assert kron_power_oracle(n, 0) == SchurSum.schur((n,))
        assert kron_power_oracle(n, 1) == SchurSum.schur((n - 1, 1))


def test_kron_power_oracle_is_iterated_product():
    for n in range(2, 6):
        acc = SchurSum.schur((n,))
        for k in range(1, 5):
            nxt = SchurSum.zero(n)
            for lam, c in acc.terms.items():
                nxt = nxt + kron_product_via_characters((n - 1, 1), lam).scale(c)
            acc = nxt
            assert kron_power_oracle(n, k) == acc


@pytest.mark.parametrize("n", range(2, 13))
def test_kron_power_oracle_matches_walk_counts(n):
    for k in range(13):
        assert kron_power_oracle(n, k) == walk_counts((n,), k), (n, k)


def test_kron_power_oracle_at_a_large_power():
    assert kron_power_oracle(9, 40) == walk_counts((9,), 40)


@pytest.mark.parametrize("n", range(2, 15))
def test_power_sums_group_the_table_by_the_value_of_the_standard_row(n):
    table = character_table(n)
    standard = table.values[table.partitions.index((n - 1, 1))]
    fixed_points = [gamma.count(1) for gamma in table.partitions]
    # the standard row is one less than the number of fixed points
    assert list(standard) == [j - 1 for j in fixed_points]
    sums = characters._power_sums(n)
    assert len(sums) == len(table.partitions)
    for row, w in zip(table.values, sums):
        by_fixed_points = [0] * (n + 1)
        for gamma, chi, j in zip(table.partitions, row, fixed_points):
            by_fixed_points[j] += class_size(gamma) * chi
        assert [comb(n, j) * e for j, e in enumerate(w)] == by_fixed_points
        assert w[n - 1] == 0


def test_a_k_sweep_builds_the_power_sums_once():
    characters._power_sums.cache_clear()
    for k in range(13):
        kron_power_oracle(11, k)
    # one build per weight 0..11, each read from the memo afterwards
    info = characters._power_sums.cache_info()
    assert info.misses == info.currsize == 12


def test_kron_power_oracle_matches_walk_counts_at_n20():
    for k in range(7):
        assert kron_power_oracle(20, k) == walk_counts((20,), k), k


def test_kron_power_oracle_counts_every_dimension_at_n24():
    # sum_alpha mult * f^alpha is the dimension (n - 1)^k of the power
    power = kron_power_oracle(24, 4)
    assert sum(c * standard_tableaux_count(a) for a, c in power.terms.items()) == 23**4


def test_a_power_builds_no_column_of_the_table():
    for memo in (
        characters._power_sums,
        characters._column,
    ):
        memo.cache_clear()
    kron_power_oracle(12, 5)
    assert characters._column.cache_info().currsize == 0


def test_a_corrupted_power_sum_raises(monkeypatch):
    sums = characters._power_sums(5)
    # one more in s_(5)'s entry j = 5 adds C(5, 5) 4**3 = 64 to its total,
    # which 5! = 120 does not divide
    corrupted = ((*sums[0][:-1], sums[0][-1] + 1), *sums[1:])
    monkeypatch.setattr(characters, "_power_sums", lambda n: corrupted)
    with pytest.raises(ArithmeticError, match="non-integral multiplicity"):
        kron_power_oracle(5, 3)


# The h-side cross-check: h_lam (.) s_mu, the permutation character of the
# Young subgroup of type lam times chi^mu (Macdonald I.7), once by the
# operator engine and once by characters.


def h_inner_s(lam, mu):
    """h_lam (.) s_mu by the composite of one nu |- part for every part of
    lam except the largest, applied to s_mu."""
    nu_tuples = product(*(partitions_of(part) for part in lam[1:]))
    return skew_then_multiply(tuple((1, nus) for nus in nu_tuples), SchurSum.schur(mu))


def h_kron_oracle(lam, mu):
    """h_lam (.) s_mu by characters: the brute-force permutation character
    times chi^mu, projected onto every irreducible."""
    table = character_table(sum(mu))
    chi_mu = table.values[table.partitions.index(mu)]
    weighted = [
        class_size(gamma) * fixed_set_compositions(lam, gamma) * value
        for gamma, value in zip(table.partitions, chi_mu)
    ]
    terms = {}
    for alpha, row in zip(table.partitions, table.values):
        coeff, rem = divmod(sum(map(mul, weighted, row)), factorial(table.n))
        assert not rem, (lam, mu, alpha)
        terms[alpha] = coeff
    return SchurSum(table.n, terms)


def permutation_character(lam, gamma):
    """The permutation character by Young's rule, sum_alpha K_(alpha lam)
    chi^alpha(gamma), with the Kostka numbers read off h_lam."""
    return sum(c * character_value(alpha, gamma) for alpha, c in h_to_schur(lam).terms.items())


def test_permutation_character_full_row():
    for n in range(1, 7):
        for gamma in partitions_of(n):
            assert permutation_character((n,), gamma) == 1


def test_permutation_character_all_ones_shape():
    for n in range(1, 6):
        for gamma in partitions_of(n):
            want = factorial(n) if gamma == (1,) * n else 0
            assert permutation_character((1,) * n, gamma) == want


@pytest.mark.parametrize("n", range(0, 8))
def test_permutation_character_matches_fixed_set_compositions(n):
    for lam in partitions_of(n):
        for gamma in partitions_of(n):
            want = fixed_set_compositions(lam, gamma)
            assert permutation_character(lam, gamma) == want, (lam, gamma)


def test_h_inner_s_trivial_and_examples():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert h_inner_s((n,), mu) == SchurSum.schur(mu)
    assert h_inner_s((3, 1), (3, 1)) == SchurSum(
        4, {(4,): 1, (3, 1): 2, (2, 2): 1, (2, 1, 1): 1}
    )


def test_h_kron_oracle_trivial():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert h_kron_oracle((n,), mu) == SchurSum.schur(mu)


def test_h_kron_oracle_column_shape():
    # pointwise product with the regular character scales by the dimension
    for n in range(2, 5):
        for mu in partitions_of(n):
            f = h_kron_oracle((1,) * n, mu)
            dim = standard_tableaux_count(mu)
            for alpha in partitions_of(n):
                assert f.coefficient(alpha) == dim * standard_tableaux_count(alpha)


@pytest.mark.parametrize("n", range(1, 7))
def test_h_kron_oracle_matches_operator_expansion(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert h_kron_oracle(lam, mu) == h_inner_s(lam, mu), (lam, mu)


def test_character_table_matches_frobenius_formula():
    # The row cache's values come from the beta-number kernel; this oracle
    # reads them off a_delta * p_gamma instead.
    for n in range(1, 9):
        table = character_table(n)
        for lam, row in zip(table.partitions, table.values):
            assert row == tuple(
                frobenius_character(lam, gamma) for gamma in table.partitions
            ), (n, lam)


def test_character_table_matches_removal_oracle():
    # the table adds border strips; this oracle removes them, row by row
    for n in range(1, 15):
        table = character_table(n)
        for lam, row in zip(table.partitions, table.values):
            assert row == tuple(mn_character(lam, gamma) for gamma in table.partitions)


@pytest.mark.parametrize("seed", range(4))
def test_character_value_on_random_pairs(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(0, 16)
        lam, gamma = rng.choice(partitions_of(n)), rng.choice(partitions_of(n))
        value = character_value(lam, gamma)
        assert value == mn_character(lam, gamma), (lam, gamma)
        if n <= 8:
            assert value == frobenius_character(lam, gamma), (lam, gamma)


def test_character_value_of_a_long_cycle_type():
    # one strip per part of mu, swept without recursion
    assert character_value((2000,), (1,) * 2000) == 1


@pytest.mark.parametrize("total", range(1, 13))
def test_the_kernel_adds_scale_times_p_r_into_out(total):
    # every w + r = total: a seeded vector times p_r, scaled, added to a
    # vector already holding values, against the spliced strips
    rng = random.Random(2600 + total)
    index = {lam: i for i, lam in enumerate(partitions_of(total))}
    for r in range(1, total + 1):
        w = total - r
        vec = [rng.randint(-9, 9) for _ in partitions_of(w)]
        out = [rng.randint(-9, 9) for _ in partitions_of(total)]
        scale = rng.choice([-3, 2, 7])
        want = list(out)
        for lam, value in zip(partitions_of(w), vec):
            for shape, sign in border_strips(lam, r):
                want[index[shape]] += scale * sign * value
        characters._add_times_p(out, vec, w, r, scale)
        assert out == want, (w, r, scale)


@pytest.mark.parametrize("total", range(1, 17))
def test_strip_moves_match_the_splicing_oracle(total):
    # every w + r = total: the targets and signs, as a multiset per source
    index = {lam: i for i, lam in enumerate(partitions_of(total))}
    for r in range(1, total + 1):
        w = total - r
        moves = _strip_moves(w, r)
        assert len(moves) == len(partitions_of(w))
        for lam, (even, odd) in zip(partitions_of(w), moves):
            got = Counter([(j, 1) for j in even] + [(j, -1) for j in odd])
            want = Counter((index[shape], sign) for shape, sign in border_strips(lam, r))
            assert got == want, (lam, r)


def test_bead_masks_round_trip():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert characters._shape(characters._beads(lam)) == lam


def test_character_value_leaves_the_strip_memo_alone():
    # a single value meets each (shape, r) once, so it keeps no strips
    before = _strip_moves.cache_info().currsize
    assert character_value((12, 9, 6, 3), (3,) * 10) == mn_character((12, 9, 6, 3), (3,) * 10)
    assert _strip_moves.cache_info().currsize == before


def test_a_table_builds_only_the_columns_of_its_suffixes():
    characters._column.cache_clear()
    character_table(12)
    suffixes = {mu[i:] for mu in partitions_of(12) for i in range(len(mu) + 1)}
    assert characters._column.cache_info().currsize == len(suffixes) < sum(
        len(partitions_of(w)) for w in range(13)
    )


def test_a_second_table_builds_no_column():
    characters._column.cache_clear()
    first = character_table(12)
    built = characters._column.cache_info().misses
    assert character_table(12) == first
    assert characters._column.cache_info().misses == built


def _frames_left(depth=0):
    """How many more nested Python calls fit under the recursion limit."""
    try:
        return _frames_left(depth + 1)
    except RecursionError:
        return depth


def test_a_long_class_is_built_with_a_shallow_recursion():
    # the suffixes of (1^22) are built shortest first, not 22 calls deep
    for m in range(23):
        partitions_of(m)  # the partition generator recurses on its own
    characters._column.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - _frames_left() + 30)
    try:
        column = characters._column((1,) * 22)
    finally:
        sys.setrecursionlimit(limit)
    assert column == [standard_tableaux_count(lam) for lam in partitions_of(22)]


@pytest.mark.parametrize("n", range(13, 17))
def test_dense_table_matches_single_values(n):
    rng = random.Random(1600 + n)
    table = character_table(n)
    for _ in range(30):
        lam, mu = rng.choice(partitions_of(n)), rng.choice(partitions_of(n))
        assert table.value(lam, mu) == character_value(lam, mu), (lam, mu)


# The product is projected one conjugate pair at a time, on the classes
# split by the sign of their permutations (Macdonald I.7).


@pytest.mark.parametrize("n", range(1, 15))
def test_conjugate_rows_differ_by_the_sign_of_the_class(n):
    table = character_table(n)
    rows = dict(zip(table.partitions, table.values))
    signs = [(-1) ** (n - len(rho)) for rho in table.partitions]
    for alpha, row in rows.items():
        assert rows[conjugate(alpha)] == tuple(map(mul, signs, row)), alpha


@pytest.mark.parametrize("n", range(1, 10))
def test_product_matches_the_projection_per_irreducible(n):
    table = character_table(n)
    for lam in table.partitions:
        for mu in table.partitions:
            want = kron_by_projection(table.partitions, table.values, lam, mu)
            assert kron_product_via_characters(lam, mu).terms == want, (lam, mu)


@pytest.mark.parametrize("n", range(10, 17))
def test_product_matches_the_projection_per_irreducible_on_seeded_pairs(n):
    rng = random.Random(2300 + n)
    table = character_table(n)
    for _ in range(20):
        lam, mu = rng.choice(table.partitions), rng.choice(table.partitions)
        want = kron_by_projection(table.partitions, table.values, lam, mu)
        assert kron_product_via_characters(lam, mu).terms == want, (lam, mu)


def test_the_halves_split_the_classes_by_sign_and_name_each_pair_once():
    for n in range(0, 13):
        ps = partitions_of(n)
        (even_sizes, even), (odd_sizes, odd), pairs = characters._halves(n)
        classes = {
            parity: [rho for rho in ps if (n - len(rho)) % 2 == parity] for parity in (0, 1)
        }
        assert even_sizes == tuple(map(class_size, classes[0]))
        assert odd_sizes == tuple(map(class_size, classes[1]))
        for lam, e, o in zip(ps, even, odd):
            assert e == tuple(mn_character(lam, rho) for rho in classes[0])
            assert o == tuple(mn_character(lam, rho) for rho in classes[1])
        named = [alpha for alpha, _, _ in pairs] + [c for alpha, c, _ in pairs if c != alpha]
        assert sorted(named) == sorted(ps), n
        assert all(conj == conjugate(alpha) and ps[i] == alpha for alpha, conj, i in pairs)


@pytest.mark.parametrize("n", [1, 2, 6, 9])
def test_a_product_averages_each_irreducible_once(monkeypatch, n):
    averaged, average = [], characters._average

    def counted(total, order):
        averaged.append(total)
        return average(total, order)

    monkeypatch.setattr(characters, "_average", counted)
    for lam in partitions_of(n):
        averaged.clear()
        kron_product_via_characters(lam, lam)
        assert len(averaged) == len(partitions_of(n)), lam
