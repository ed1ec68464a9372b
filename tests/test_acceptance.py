"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance); each criterion also carries a wall
clock budget that is asserted.  Run with ``pytest -v -s`` to see one
PASS/FAIL line per criterion.
"""

import random
import time
from math import factorial

from kronlab.characters import (
    character_table,
    kron_coefficient,
    kron_power_oracle,
    kron_product_via_characters,
)
from kronlab.enumeration import egf_rhs, multiplicity_formula, p2
from kronlab.kron_ops import (
    KroneckerOperator,
    apply,
    build_operator,
    kron_power_nm1,
    kron_product_via_operator,
)
from kronlab.partitions import (
    partitions_of,
    standard_tableaux_count,
    weight,
)
from kronlab.symfunc import SchurSum, multiply, perp
from kronlab.tableaux import (
    PartialStandardTableau,
    count_kronecker_tableaux,
    from_pair,
    list_kronecker_tableaux,
    parse_walk,
    rsk_delete,
    rsk_insert,
    to_pair,
)

from oracles import corners, scalar, set_partitions


class Budget:
    """Context manager asserting the wall-clock budget and printing the
    one-line verdict the acceptance suite is expected to emit."""

    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.seconds
        print(
            f"ACCEPTANCE {self.number:02d} {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / budget {self.seconds:.0f}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_character_table_s4():
    expected = (
        (1, 1, 1, 1, 1),
        (-1, 0, -1, 1, 3),
        (0, -1, 2, 0, 2),
        (1, 0, -1, -1, 3),
        (-1, 1, 1, -1, 1),
    )
    with Budget(1, "character table of S_4 reproduced entry for entry", 1.0):
        table = character_table(4)
        assert table.partitions == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert table.values == expected


def test_criterion_02_square_of_31_both_routes():
    want = SchurSum(4, {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1})
    with Budget(2, "(3,1) squared agrees on both routes with unit parts", 1.0):
        by_char = kron_product_via_characters((3, 1), (3, 1))
        by_op = kron_product_via_operator((3, 1), (3, 1))
        assert by_char == want and by_op == want
        assert by_char.coefficient((1, 1, 1, 1)) == 0


def test_criterion_03_displayed_operators():
    with Budget(3, "operators for tails (1) and (2) match the displayed sums", 1.0):
        assert build_operator((1,)).normalize() == KroneckerOperator(
            ((-1, ()), (1, ((1,),)))
        )
        assert build_operator((2,)).normalize() == KroneckerOperator(
            ((-1, ((1,),)), (1, ((1, 1),)), (1, ((2,),)))
        )


def test_criterion_04_single_cell_operator_on_331():
    want = SchurSum(
        7,
        {(3, 3, 1): 1, (4, 2, 1): 1, (3, 2, 1, 1): 1, (3, 2, 2): 1, (4, 3): 1},
    )
    with Budget(4, "single-cell operator applied to s_(3,3,1)", 1.0):
        assert apply(build_operator((1,)), SchurSum.schur((3, 3, 1))) == want


def test_criterion_05_operator_equals_character_sweep():
    with Budget(5, "operator route equals character route, all pairs n <= 6", 60.0):
        for n in range(1, 7):
            ps = partitions_of(n)
            for lam in ps:
                for mu in ps:
                    got = kron_product_via_operator(lam, mu)
                    for alpha in ps:
                        assert got.coefficient(alpha) == kron_coefficient(
                            lam, mu, alpha
                        ), (lam, mu, alpha)


def test_criterion_06_three_route_power_sweep():
    with Budget(6, "walk counts equal both power routes, n <= 6 and k <= 5", 60.0):
        for n in range(2, 7):
            for k in range(0, 6):
                by_op = kron_power_nm1(n, k)
                by_char = kron_power_oracle(n, k)
                assert by_op == by_char, (n, k)
                for lam in partitions_of(n):
                    assert count_kronecker_tableaux((n,), lam, k) == by_op.coefficient(
                        lam
                    ), (n, k, lam)


def test_criterion_07_bijection():
    walk_text = (
        "[6] [5,1] [5,1]*2:1 [4,2] [3,2,1] [4,1,1] [3,2,1] [2,2,2] "
        "[2,2,1,1] [3,2,1] [2,2,2] [3,2,1] [2,2,2]"
    )
    with Budget(7, "pair bijection: worked example plus exhaustive round trip", 120.0):
        K = parse_walk(walk_text)
        T, pi = to_pair(K, 6, 12, require_regime=False)
        assert T.rows == ((4, 10), (8, 12))
        assert str(pi) == "(4)(5,3)(8,6)(9,2,1)(10)(11,7)(12)"
        assert from_pair(T, pi, 6, 12, require_regime=False) == K
        for k in range(0, 5):
            n = k + 4
            for lam in partitions_of(n):
                second = lam[1] if len(lam) > 1 else 0
                if second > 4:
                    continue
                for walk in list_kronecker_tableaux((n,), lam, k):
                    t, perm = to_pair(walk, n, k)
                    assert from_pair(t, perm, n, k) == walk


def test_criterion_08_formula_matches_counts_n12():
    with Budget(8, "closed formula equals walk counts, n = 12 and k <= 5", 60.0):
        for k in range(0, 6):
            for lam in partitions_of(12):
                second = lam[1] if len(lam) > 1 else 0
                if 12 < k + second:
                    continue
                assert multiplicity_formula(12, k, lam) == count_kronecker_tableaux(
                    (12,), lam, k
                ), (k, lam)


def test_criterion_09_generating_function():
    with Budget(9, "truncated series matches the formula, both weight choices", 10.0):
        for lb in [(), (1,), (2,), (1, 1), (2, 1)]:
            ell = weight(lb)
            top = lb[0] if lb else 0
            series = egf_rhs(lb, 10)
            for k in range(ell, 11):
                value = series[k] * factorial(k)
                assert value.denominator == 1
                base = k + top
                if base - ell < 1:
                    base = ell + 1  # smallest weight giving a positive new part
                counts = []
                for n_k in (base, base + 1):
                    lam = tuple(sorted(lb + (n_k - ell,), reverse=True))
                    counts.append(multiplicity_formula(n_k, k, lam))
                assert counts[0] == counts[1] == int(value), (lb, k)


def test_criterion_10_property_suites():
    with Budget(10, "adjointness, RSK round trip, p2 partitions, dimension sums", 60.0):
        # Hall-scalar adjointness on 500 random triples
        rng = random.Random(97)
        gammas = [(1,), (2,), (1, 1)]
        for _ in range(500):
            gamma = rng.choice(gammas)
            d = rng.randint(0, 5)
            pool = partitions_of(d)
            f = SchurSum(
                d, {p: rng.randint(-3, 3) for p in rng.sample(pool, k=min(3, len(pool)))}
            )
            dg = d + weight(gamma)
            pool_g = partitions_of(dg)
            g = SchurSum(
                dg,
                {p: rng.randint(-3, 3) for p in rng.sample(pool_g, k=min(3, len(pool_g)))},
            )
            assert scalar(multiply(SchurSum.schur(gamma), f), g) == scalar(
                f, perp(gamma, g)
            )

        # RSK insert/delete round trip on 1000 random tableaux
        rng = random.Random(98)
        for _ in range(1000):
            T = PartialStandardTableau.empty()
            for x in rng.sample(range(1, 21), rng.randint(0, 14)):
                T = rsk_insert(T, x)
            x = rng.choice([v for v in range(1, 21) if v not in T.labels])
            grown = rsk_insert(T, x)
            created = None
            for c in corners(grown.shape).corners:
                trimmed = list(grown.shape)
                trimmed[c[0] - 1] -= 1
                if trimmed and trimmed[-1] == 0:
                    trimmed.pop()
                if tuple(trimmed) == T.shape:
                    created = c
                    break
            back, ejected = rsk_delete(grown, created)
            assert back == T and ejected == x

        # recurrence versus exhaustive singleton-free set partitions
        for n in range(0, 11):
            by_blocks: dict[int, int] = {}
            for sp in set_partitions(range(n)):
                if all(len(b) >= 2 for b in sp):
                    by_blocks[len(sp)] = by_blocks.get(len(sp), 0) + 1
            for m in range(0, n + 1):
                assert p2(n, m) == by_blocks.get(m, 0)

        # sum of squared dimensions
        for n in range(1, 9):
            assert sum(
                standard_tableaux_count(p) ** 2 for p in partitions_of(n)
            ) == factorial(n)
