import json
import random

import pytest

from kronlab import partitions, symfunc
from kronlab.kron_ops import build_operator, kron_product_via_operator
from kronlab.partitions import check_partition, contains, partitions_of, weight
from kronlab.symfunc import (
    SchurSum,
    _lattice_strips,
    _schur_product_terms,
    h_determinant,
    h_to_schur,
    lr_coefficient,
    multiply,
    perp,
    schur_sum_to_json,
    skew_then_multiply,
)

from oracles import lr_fillings, polynomial_product, scalar, ssyt_polynomial


MEMOS = [
    obj
    for obj in vars(symfunc).values()
    if getattr(obj, "__module__", None) == symfunc.__name__ and hasattr(obj, "cache_clear")
]


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()
    symfunc._shared.clear()


@pytest.fixture
def strip_values(monkeypatch):
    """Every value ``_lattice_strips`` returns while the test runs."""
    values = []

    def recording(*key):
        out = _lattice_strips(*key)
        values.append(out)
        return out

    monkeypatch.setattr(symfunc, "_lattice_strips", recording)
    return values


def schur_eval(f, nvars):
    out = {}
    for p, c in f.terms.items():
        for e, v in ssyt_polynomial(p, nvars).items():
            out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


def test_lr_examples():
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (), (2,)) == 1
    # oracle-frozen value for the (4,2,1)/(2,1),(2,1,1) coefficient
    assert lr_coefficient((2, 1), (2, 1, 1), (4, 2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1, 1), (3, 2, 1, 1)) == 2


def test_lr_weight_mismatch_is_zero():
    cases = [
        ((2, 1), (1,), (2, 1)),
        ((1,), (1,), (3,)),
        ((3,), (1,), (2, 1, 1)),  # gamma not inside mu
        ((1, 1, 1), (1,), (4,)),  # gamma longer than mu
        ((1,), (3,), (2, 1, 1)),  # alpha not inside mu
        ((1,), (1, 1, 1), (3, 1)),  # alpha longer than mu
    ]
    for gamma, alpha, mu in cases:
        assert lr_fillings(gamma, alpha, mu) == 0, (gamma, alpha, mu)
        assert lr_coefficient(gamma, alpha, mu) == 0, (gamma, alpha, mu)
        assert lr_coefficient(alpha, gamma, mu) == 0, (alpha, gamma, mu)


def test_multiply_examples():
    s1 = SchurSum.schur((1,))
    assert multiply(s1, s1) == SchurSum(2, {(2,): 1, (1, 1): 1})
    s2 = SchurSum.schur((2,))
    assert multiply(s2, s1) == SchurSum(3, {(3,): 1, (2, 1): 1})
    f = SchurSum(3, {(2, 1): 2, (3,): -1})
    assert multiply(SchurSum.schur(()), f) == f


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(0, 5) for b in range(0, 5) if 0 < a + b <= 8]
)
def test_multiply_against_evaluation_oracle(a, b):
    nvars = 8
    for lam in partitions_of(a):
        for mu in partitions_of(b):
            direct = polynomial_product(
                ssyt_polynomial(lam, nvars), ssyt_polynomial(mu, nvars)
            )
            expanded = schur_eval(
                multiply(SchurSum.schur(lam), SchurSum.schur(mu)), nvars
            )
            assert dict(direct) == expanded, (lam, mu)


def test_products_match_lr_coefficients_up_to_weight_8():
    for total in range(0, 9):
        for a in range(0, total + 1):
            for gamma in partitions_of(a):
                for alpha in partitions_of(total - a):
                    s_gamma, s_alpha = SchurSum.schur(gamma), SchurSum.schur(alpha)
                    expected = SchurSum(
                        total,
                        {mu: lr_fillings(gamma, alpha, mu) for mu in partitions_of(total)},
                    )
                    assert multiply(s_gamma, s_alpha) == expected, (gamma, alpha)
                    assert multiply(s_alpha, s_gamma) == expected, (alpha, gamma)


def test_skews_match_lr_coefficients_up_to_weight_9():
    for w in range(0, 10):
        for lam in partitions_of(w):
            for g in range(0, w + 1):
                for gamma in partitions_of(g):
                    if not contains(lam, gamma):
                        continue
                    expected = SchurSum(
                        w - g,
                        {alpha: lr_fillings(gamma, alpha, lam) for alpha in partitions_of(w - g)},
                    )
                    assert perp(gamma, SchurSum.schur(lam)) == expected, (lam, gamma)


def test_skew_candidates_fit_the_box_exactly_for_pieri():
    """A cold skew by a row (r) or a column (1^r) fills one product pair
    per candidate and none whose coefficient is 0: a candidate alpha with
    alpha_i >= lam_(i+len(gamma)) and alpha_i >= lam_i - gamma_1 differs
    from lam by a horizontal or a vertical strip, whose coefficient is 1
    (Pieri)."""
    for n in range(0, 10):
        for lam in partitions_of(n):
            for r in range(1, n + 1):
                for gamma in ((r,), (1,) * r):
                    symfunc._skew_terms.cache_clear()
                    _schur_product_terms.cache_clear()
                    terms = symfunc._skew_terms(lam, gamma)
                    assert set(terms.values()) <= {1}
                    info = _schur_product_terms.cache_info()
                    assert (info.hits, info.misses) == (0, len(terms)), (lam, gamma)


def test_a_cold_skew_reads_the_coefficient_memo_unchecked(monkeypatch):
    """``_skew_terms`` reads its coefficients from the product memo
    ``_schur_product_terms``, whose misses ``lr_coefficient.cache_info``
    counts too, and checks no partition: the shapes it asks about are
    partitions by construction."""
    checked = []

    def counting(parts):
        checked.append(parts)
        return check_partition(parts)

    monkeypatch.setattr(symfunc, "check_partition", counting)
    monkeypatch.setattr(partitions, "check_partition", counting)
    symfunc._skew_terms.cache_clear()
    _schur_product_terms.cache_clear()
    terms = symfunc._skew_terms((4, 3, 2, 1), (2, 1))
    assert terms == {alpha: lr_fillings((2, 1), alpha, (4, 3, 2, 1)) for alpha in terms}
    assert _schur_product_terms.cache_info().misses >= len(terms) > 0
    assert checked == []


def test_lr_coefficient_matches_lr_fillings_up_to_weight_8():
    outside = 0
    for total in range(0, 9):
        for a in range(0, total + 1):
            for gamma in partitions_of(a):
                for alpha in partitions_of(total - a):
                    for mu in partitions_of(total):
                        expected = lr_fillings(gamma, alpha, mu)
                        assert lr_coefficient(gamma, alpha, mu) == expected, (gamma, alpha, mu)
                        assert lr_coefficient(alpha, gamma, mu) == expected, (alpha, gamma, mu)
                        if not (contains(mu, gamma) and contains(mu, alpha)):
                            outside += 1
                            assert expected == 0, (gamma, alpha, mu)
    assert outside > 0


def composite_per_tuple(terms, f):
    """Reference for skew_then_multiply: every tuple on its own, in the
    order given, skewing and then multiplying one nu at a time."""
    total = {}
    for coeff, nus in terms:
        g = f
        for nu in nus:
            g = perp(nu, g)
        for nu in nus:
            g = multiply(SchurSum.schur(nu), g)
        for mu, c in g.terms.items():
            total[mu] = total.get(mu, 0) + coeff * c
    return SchurSum(f.degree, total)


def test_summed_composite_matches_per_tuple_reference():
    rng = random.Random(20261018)
    for size in range(0, 8):
        for lambda_bar in partitions_of(size):
            terms = build_operator(lambda_bar).terms
            for _ in range(3):
                n = rng.randint(0, 10)
                f = SchurSum.schur(rng.choice(partitions_of(n)))
                assert skew_then_multiply(terms, f) == composite_per_tuple(terms, f), (
                    lambda_bar,
                    f,
                )


def test_summed_composite_matches_per_tuple_reference_on_signed_sums():
    rng = random.Random(20261019)
    # s3 - s21 + s111 and s2 - s11 skew to zero by (1)
    cancelling = [
        SchurSum(3, {(3,): 1, (2, 1): -1, (1, 1, 1): 1}),
        SchurSum(2, {(2,): 1, (1, 1): -1}),
    ]
    for f in cancelling:
        assert perp((1,), f) == SchurSum.zero(f.degree - 1)
    for size in range(0, 8):
        for lambda_bar in partitions_of(size):
            terms = build_operator(lambda_bar).terms
            sums = list(cancelling)
            for _ in range(2):
                n = rng.randint(2, 10)
                shapes = rng.sample(partitions_of(n), rng.randint(2, min(4, len(partitions_of(n)))))
                sums.append(SchurSum(n, {p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in shapes}))
            for f in sums:
                assert skew_then_multiply(terms, f) == composite_per_tuple(terms, f), (
                    lambda_bar,
                    f,
                )


def test_collected_rows_are_symmetric_without_zeros():
    one = symfunc._collected(build_operator((1,)).terms)
    # s_1 s_1^perp - 1: m[(1)][(1)] = 1, and m[()][()] = -1 is the identity
    assert one.identity == -1 and one.columns == [(1,)]
    assert one.row((1,)) == {(1,): 1}
    for size in range(0, 6):
        for lambda_bar in partitions_of(size):
            op = symfunc._collected(build_operator(lambda_bar).terms)
            assert () not in op.columns
            rows = {b: op.row(b) for b in op.columns}
            for b, row in rows.items():
                assert all(row.values()), (lambda_bar, b)
                for a, c in row.items():
                    assert weight(a) == weight(b) and rows[a][b] == c, (lambda_bar, a, b)


def test_rows_are_built_only_for_shapes_the_skew_keeps(monkeypatch):
    """Tail (3,2,1) applied to s_(4,4) asks for no row m[b] with b outside
    (4,4), also when such rows are already memoised."""
    clear_memos()
    terms = build_operator((3, 2, 1)).terms
    asked = []
    row = symfunc._Collected.row

    def spy(self, b):
        asked.append(b)
        return row(self, b)

    monkeypatch.setattr(symfunc._Collected, "row", spy)
    f = SchurSum.schur((4, 4))
    assert skew_then_multiply(terms, f) == composite_per_tuple(terms, f)
    assert asked and all(contains((4, 4), b) for b in asked)
    assert all(contains((4, 4), b) for b in symfunc._collected(terms)._rows)
    # memoise rows for (3,2,1), (2,2,2) and more, none of them inside (4,4)
    skew_then_multiply(terms, SchurSum.schur((4, 2, 2)))
    assert not all(contains((4, 4), b) for b in symfunc._collected(terms)._rows)
    asked.clear()
    assert skew_then_multiply(terms, f) == composite_per_tuple(terms, f)
    assert asked and all(contains((4, 4), b) for b in asked)


def test_staircase_work_is_pinned(strip_values):
    """The operator route on the staircase (5,4,3,2,1) meets each strip
    key and each product pair once, and the strip memo stores one object
    per distinct shape and per distinct row count."""
    clear_memos()
    kron_product_via_operator((5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    strips = _lattice_strips.cache_info()
    assert strips.misses <= 7714 and strips.hits > 0
    assert _schur_product_terms.cache_info().misses <= 1366
    assert lr_coefficient.cache_info() == _schur_product_terms.cache_info()
    for part in (0, 1):
        stored = [pair[part] for value in strip_values for pair in value]
        assert len({id(x) for x in stored}) == len(set(stored))


def test_perp_examples():
    assert perp((1,), SchurSum.schur((3, 3, 1))) == SchurSum(
        6, {(3, 3): 1, (3, 2, 1): 1}
    )
    assert perp((2,), SchurSum.schur((1, 1))) == SchurSum.zero(0)
    for n in range(2, 7):
        assert perp((1,), SchurSum.schur((n,))) == SchurSum.schur((n - 1,))


def test_scalar_orthonormality():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = scalar(SchurSum.schur(lam), SchurSum.schur(mu))
                assert got == (1 if lam == mu else 0)
    s1 = SchurSum.schur((1,))
    assert scalar(multiply(s1, s1), SchurSum.schur((2,))) == 1
    assert scalar(SchurSum.schur((2,)), SchurSum.schur((1, 1))) == 0


def test_scalar_degree_mismatch():
    assert scalar(SchurSum.schur((2,)), SchurSum.schur((2, 1))) == 0


def test_adjointness_random():
    rng = random.Random(20260808)
    gammas = [(1,), (2,), (1, 1)]
    for _ in range(500):
        gamma = rng.choice(gammas)
        d = rng.randint(0, 5)
        f = SchurSum(
            d,
            {p: rng.randint(-3, 3) for p in rng.sample(partitions_of(d), k=min(3, len(partitions_of(d))))},
        )
        dg = d + weight(gamma)
        g = SchurSum(
            dg,
            {p: rng.randint(-3, 3) for p in rng.sample(partitions_of(dg), k=min(3, len(partitions_of(dg))))},
        )
        lhs = scalar(multiply(SchurSum.schur(gamma), f), g)
        rhs = scalar(f, perp(gamma, g))
        assert lhs == rhs


def jacobi_trudi(lam):
    """Signed h-expansion of s_lam from det(h_{lam_i-i+j}), as (coeff,
    indices) pairs in canonical order of the index partitions."""
    m = len(lam)
    acc = h_determinant([[lam[i] - i + j for j in range(m)] for i in range(m)])
    return [(acc[p], p) for p in sorted(acc, reverse=True)]


def test_jacobi_trudi_small():
    assert jacobi_trudi((4,)) == [(1, (4,))]
    assert jacobi_trudi((1, 1)) == [(-1, (2,)), (1, (1, 1))]
    assert jacobi_trudi((2, 1)) == [(-1, (3,)), (1, (2, 1))]


def test_h_to_schur_examples():
    for n in range(1, 6):
        assert h_to_schur((n,)) == SchurSum.schur((n,))
    assert h_to_schur((1, 1)) == SchurSum(2, {(2,): 1, (1, 1): 1})
    assert h_to_schur((2, 1)) == SchurSum(3, {(3,): 1, (2, 1): 1})


def test_h_to_schur_coefficients_nonnegative():
    for n in range(0, 7):
        for lam in partitions_of(n):
            assert all(c > 0 for c in h_to_schur(lam).terms.values())


@pytest.mark.parametrize("n", range(0, 8))
def test_jacobi_trudi_inverts_h_expansion(n):
    for lam in partitions_of(n):
        total = SchurSum.zero(n)
        for coeff, indices in jacobi_trudi(lam):
            total = total + h_to_schur(indices).scale(coeff)
        assert total == SchurSum.schur(lam), lam


def test_json_round_trip():
    f = SchurSum(4, {(3, 1): 2, (2, 2): -1, (4,): 10**30})
    obj = json.loads(json.dumps(schur_sum_to_json(f)))
    assert obj["degree"] == 4
    assert obj["terms"][0] == {"partition": [4], "coeff": str(10**30)}
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in obj["terms"]}
    assert SchurSum(obj["degree"], terms) == f


def test_schur_sum_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        SchurSum(3, {(2, 1): 1, (2,): 1})


def test_schur_sum_arithmetic():
    f = SchurSum(3, {(3,): 2, (2, 1): -1})
    g = SchurSum.schur((1, 1))
    assert repr(f) == "2*s[3] - s[2, 1]"
    assert f - f == SchurSum.zero(3) and repr(f - f) == "0"
    assert -f == f.scale(-1) == SchurSum(3, {(3,): -2, (2, 1): 1})
    assert f * g == multiply(f, g)
    assert (f * g).degree == 5
    same = SchurSum(3, {(2, 1): -1, (3,): 2})
    assert same == f and hash(same) == hash(f)
    assert f.__eq__(f.terms) is NotImplemented and f != f.terms


def test_concurrent_lr_calls_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    lr_coefficient.cache_clear()
    triples = [
        (gamma, alpha, mu)
        for gamma in partitions_of(2)
        for alpha in partitions_of(3)
        for mu in partitions_of(5)
    ] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda t: lr_coefficient(*t), triples))
    lr_coefficient.cache_clear()
    serial = [lr_coefficient(*t) for t in triples]
    assert threaded == serial


def test_concurrent_products_and_skews_match_serial(strip_values):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    calls = [
        (multiply, SchurSum.schur(p), SchurSum.schur(q))
        for p in partitions_of(4)
        for q in partitions_of(3)
    ] + [
        (perp, gamma, SchurSum.schur(lam))
        for lam in partitions_of(7)
        for gamma in partitions_of(3)
    ] + [
        (skew_then_multiply, build_operator(lambda_bar).terms, SchurSum.schur(mu))
        for lambda_bar in partitions_of(2) + partitions_of(3)
        for mu in partitions_of(6)
    ]
    calls *= 4
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: c[0](*c[1:]), calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    # a strip found by any thread holds the shared shape and row count
    assert all(symfunc._shared[x] is x for value in strip_values for pair in value for x in pair)
    clear_memos()
    serial = [fn(*args) for fn, *args in calls]
    assert threaded == serial

    # the memoised dicts are shared between calls and never written to
    f = SchurSum(3, {(2, 1): 3, (3,): -2})
    g = SchurSum(4, {(2, 2): 5, (3, 1): 1})
    first = multiply(f, g)
    assert multiply(f, g) == first
    assert perp((2, 1), first) == perp((2, 1), multiply(f, g))
