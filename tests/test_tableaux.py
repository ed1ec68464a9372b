import hashlib
import random
from itertools import combinations

import pytest

from kronlab.characters import kron_power_oracle
from kronlab.enumeration import multiplicity_formula
from kronlab.kron_ops import kron_power_nm1
from kronlab.partitions import (
    canonical_sort,
    partitions_of,
    weight,
)
from kronlab.symfunc import SchurSum
from kronlab.tableaux import (
    _steps,
    BijectionError,
    DecCyclePermutation,
    EnumerationLimitError,
    KroneckerTableau,
    PartialStandardTableau,
    bijection_regime_ok,
    count_kronecker_tableaux,
    format_walk,
    from_pair,
    list_kronecker_tableaux,
    parse_walk,
    rsk_delete,
    rsk_insert,
    to_pair,
    walk_counts,
)

from oracles import (
    add_corner_positions,
    corners,
    decreasing_cycle_permutations,
    partial_standard_tableaux,
    remove_corner,
    standard_fillings_count,
    walk_count_recursive,
    walks_by_final_shape,
)

WALK9_5_TO_32 = "[5] [4,1] [4,1]*2:1 [3,2] [3,1,1] [2,2,1] [2,2,1]*3:1 [2,1,1,1] [2,2,1] [3,2]"
WALK12_6_TO_222 = (
    "[6] [5,1] [5,1]*2:1 [4,2] [3,2,1] [4,1,1] [3,2,1] [2,2,2] [2,2,1,1] "
    "[3,2,1] [2,2,2] [3,2,1] [2,2,2]"
)


def test_steps_331():
    got = _steps((3, 3, 1))
    moves = [q for q, m in got if m is None]
    stays = [(q, m) for q, m in got if m is not None]
    assert moves == [(4, 3), (4, 2, 1), (3, 2, 2), (3, 2, 1, 1)]
    assert stays == [((3, 3, 1), (3, 1))]


def test_steps_single_row_and_square():
    assert _steps((6,)) == (((5, 1), None),)
    assert _steps((2, 2)) == (((3, 1), None), ((2, 1, 1), None))


def steps_by_removal(p):
    """The steps from p composed from the corner helpers: every corner
    removed and every cell added back, except p itself, in canonical
    order; then a stay on each corner but the first, top row first."""
    cs = corners(p)
    moves = {q for c in cs.corners for q in add_corner_positions(remove_corner(p, c)) if q != p}
    stays = tuple((p, c) for c in cs.corners if c != cs.first_corner)
    return tuple((q, None) for q in canonical_sort(moves)) + stays


def test_steps_match_the_removal_composition():
    for n in range(0, 13):
        for p in partitions_of(n):
            assert _steps.__wrapped__(p) == steps_by_removal(p), p


def test_count_length_zero():
    for mu in partitions_of(5):
        for lam in partitions_of(5):
            want = 1 if mu == lam else 0
            assert count_kronecker_tableaux(mu, lam, 0) == want


def test_count_square_of_31():
    for lam, want in [
        ((4,), 1),
        ((3, 1), 1),
        ((2, 2), 1),
        ((2, 1, 1), 1),
        ((1, 1, 1, 1), 0),
    ]:
        assert count_kronecker_tableaux((4,), lam, 2) == want


def test_count_length_nine_walks():
    walks = list_kronecker_tableaux((5,), (3, 2), 9)
    assert parse_walk(WALK9_5_TO_32) in walks
    want = walk_count_recursive((5,), (3, 2), 9)
    assert count_kronecker_tableaux((5,), (3, 2), 9) == len(walks) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_count_matches_listing_and_recursion(n):
    for k in range(0, 5):
        for lam in partitions_of(n):
            cnt = count_kronecker_tableaux((n,), lam, k)
            assert cnt == len(list_kronecker_tableaux((n,), lam, k))
            assert cnt == walk_count_recursive((n,), lam, k)


def test_count_at_a_large_weight_matches_the_formula():
    # the walks reach only shapes with at most k cells below the first row
    want = multiplicity_formula(200, 6, (198, 1, 1))
    assert count_kronecker_tableaux((200,), (198, 1, 1), 6) == want == 256


def test_counts_from_general_initial_shape():
    for mu in partitions_of(4):
        for lam in partitions_of(4):
            for k in range(0, 4):
                cnt = count_kronecker_tableaux(mu, lam, k)
                assert cnt == walk_count_recursive(mu, lam, k)


@pytest.mark.parametrize("n", range(0, 8))
def test_listing_matches_unpruned_oracle(n):
    # same walks in the same order, for every pair of end shapes
    for mu in partitions_of(n):
        for k in range(0, 6):
            by_final = walks_by_final_shape(mu, k)
            for lam in partitions_of(n):
                listed = list_kronecker_tableaux(mu, lam, k)
                assert [(K.shapes, K.marks) for K in listed] == by_final.get(lam, [])


def test_list_examples():
    assert len(list_kronecker_tableaux((4,), (4,), 2)) == 1
    for n in range(2, 6):
        assert list_kronecker_tableaux((n,), (n,), 1) == []


def test_list_limit_overflow():
    with pytest.raises(EnumerationLimitError):
        list_kronecker_tableaux((5,), (3, 2), 9, limit=10)


@pytest.mark.parametrize("n", range(2, 7))
def test_counts_equal_power_coefficients(n):
    for k in range(0, 6):
        op = kron_power_nm1(n, k)
        ch = kron_power_oracle(n, k)
        for lam in partitions_of(n):
            c = count_kronecker_tableaux((n,), lam, k)
            assert c == op.coefficient(lam) == ch.coefficient(lam)


def test_walk_validation():
    with pytest.raises(ValueError):  # stay without mark
        KroneckerTableau(((3, 1), (3, 1)), (None,))
    with pytest.raises(ValueError):  # mark on the first corner
        KroneckerTableau(((3, 1), (3, 1)), ((1, 3),))
    with pytest.raises(ValueError):  # not a single corner move
        KroneckerTableau(((4,), (2, 2)), (None,))
    with pytest.raises(ValueError):  # weight change
        KroneckerTableau(((4,), (3,)), (None,))
    with pytest.raises(ValueError, match="move at step 1 cannot carry a mark"):
        KroneckerTableau(((4,), (3, 1)), ((2, 1),))
    for shapes in (((1, 2),), ((1, 2), (2, 1))):  # first shape not a partition
        with pytest.raises(ValueError, match="not a partition"):
            KroneckerTableau(shapes, (None,) * (len(shapes) - 1))


@pytest.mark.parametrize(
    "shapes, marks",
    [
        (((6,), (4, 2)), (None,)),  # adds two cells in one row below the first
        (((6,), (5, 1), (3, 2, 1)), (None, None)),  # adds two cells in two rows
        (((6,), (5, 1)), ((2, 1),)),  # mark on an add below the first row
        (((6,), (5, 1), (6,)), (None, (2, 1))),  # mark on a remove
        (((6,), (5, 1), (4, 2), (4, 1, 1)), (None, None, (3, 1))),  # mark on a move
        (((6,), (5, 1), (5, 1)), (None, None)),  # stay without a mark
        (((6,), (5, 1), (4, 2), (4, 2)), (None, None, (2, 1))),  # stay on a non-corner
    ],
)
def test_walk_rejects_illegal_steps_below_the_first_row(shapes, marks):
    with pytest.raises(ValueError):
        KroneckerTableau(shapes, marks)


def test_tableau_shapes_are_the_walk_below_its_first_row():
    K = parse_walk(WALK12_6_TO_222)
    below = (
        (), (1,), (1,), (2,), (2, 1), (1, 1), (2, 1), (2, 2), (2, 1, 1),
        (2, 1), (2, 2), (2, 1), (2, 2),
    )
    assert tuple(s[1:] for s in K.shapes) == below
    for j in range(K.length + 1):
        prefix = KroneckerTableau(K.shapes[: j + 1], K.marks[:j])
        T, _ = to_pair(prefix, 6, j, require_regime=False)
        assert T.shape == below[j], j


def test_to_pair_regime_guard():
    K = parse_walk(WALK12_6_TO_222)
    with pytest.raises(BijectionError, match="pass require_regime=False"):
        to_pair(K, 6, 12)


def test_rsk_insert_into_empty():
    T = rsk_insert(PartialStandardTableau.empty(), 5)
    assert T.rows == ((5,),)


def test_rsk_delete_single_row_ejects_rightmost():
    T = PartialStandardTableau(((2, 5, 9),))
    out, ejected = rsk_delete(T, (1, 3))
    assert ejected == 9 and out.rows == ((2, 5),)


def test_rsk_rejects_bad_inputs():
    T = PartialStandardTableau(((1, 3), (2,)))
    with pytest.raises(ValueError):
        rsk_insert(T, 3)  # duplicate label
    with pytest.raises(ValueError):
        rsk_delete(T, (1, 1))  # not a corner


def test_rsk_delete_accepts_exactly_the_corners():
    # every cell of every shape, and the cells just outside it
    for n in range(0, 7):
        for p in partitions_of(n):
            labels = iter(range(1, n + 1))  # rows filled in turn, bottom first
            T = PartialStandardTableau(tuple(tuple(next(labels) for _ in range(r)) for r in p))
            want = set(corners(p).corners)
            for cell in ((r, c) for r in range(len(p) + 2) for c in range((p[0] if p else 0) + 2)):
                if cell in want:
                    back, ejected = rsk_delete(T, cell)
                    assert rsk_insert(back, ejected) == T, (p, cell)
                else:
                    with pytest.raises(ValueError, match="is not a corner of shape"):
                        rsk_delete(T, cell)


def test_rsk_round_trip_random():
    rng = random.Random(1234)
    for _ in range(1000):
        T = PartialStandardTableau.empty()
        for x in rng.sample(range(1, 21), rng.randint(0, 14)):
            T = rsk_insert(T, x)
        x = rng.choice([v for v in range(1, 21) if v not in T.labels])
        grown = rsk_insert(T, x)
        # locate the created corner by shape difference
        new_cell = None
        for c in corners(grown.shape).corners:
            trimmed = list(grown.shape)
            trimmed[c[0] - 1] -= 1
            if trimmed[-1] == 0:
                trimmed.pop()
            if tuple(trimmed) == T.shape:
                new_cell = c
                break
        back, ejected = rsk_delete(grown, new_cell)
        assert back == T and ejected == x


def test_pair_worked_long_walk():
    K = parse_walk(WALK12_6_TO_222)
    T, pi = to_pair(K, 6, 12, require_regime=False)
    assert T.rows == ((4, 10), (8, 12))
    assert T.shape == (2, 2)
    assert str(pi) == "(4)(5,3)(8,6)(9,2,1)(10)(11,7)(12)"
    assert from_pair(T, pi, 6, 12, require_regime=False) == K


def test_pair_trivial():
    K = KroneckerTableau(((9,),), ())
    T, pi = to_pair(K, 9, 0)
    assert T.rows == () and pi.cycles == ()
    assert from_pair(T, pi, 9, 0) == K


@pytest.mark.parametrize("k", range(0, 6))
def test_pair_round_trip_exhaustive(k):
    # at n = k + 4 every final shape is in the regime; below it, a walk
    # out of the regime is encoded only with require_regime=False
    for n in range(1, k + 5):
        for lam in partitions_of(n):
            regime = bijection_regime_ok(n, k, lam)
            for K in list_kronecker_tableaux((n,), lam, k):
                T, pi = to_pair(K, n, k, require_regime=False)
                assert from_pair(T, pi, n, k, require_regime=False) == K
                if regime:
                    assert to_pair(K, n, k) == (T, pi)
                    assert from_pair(T, pi, n, k) == K
                else:
                    with pytest.raises(BijectionError):
                        to_pair(K, n, k)
                    with pytest.raises(BijectionError):
                        from_pair(T, pi, n, k)


# sha256 of repr(to_pair(K, n, k, require_regime=False)), one line per
# walk K from (n), for n = 1..8 and k = 0..5 in listing order
PAIRS_DIGEST = "a2bf928143d57e02d69d92d2b0ed2216494a8e128835558cf795a49e63cc72a8"


def test_to_pair_is_pinned_on_every_short_walk():
    digest, walks = hashlib.sha256(), 0
    for n in range(1, 9):
        for k in range(0, 6):
            for lam in partitions_of(n):
                for K in list_kronecker_tableaux((n,), lam, k):
                    digest.update((repr(to_pair(K, n, k, require_regime=False)) + "\n").encode())
                    walks += 1
    assert walks == 1937
    assert digest.hexdigest() == PAIRS_DIGEST


@pytest.mark.parametrize("k", range(0, 5))
def test_pair_cardinality_matches_independent_enumeration(k):
    # walks from (n) to lam in regime are as many as the valid (T, pi)
    n = k + 4
    perms = decreasing_cycle_permutations(k)
    for lam in partitions_of(n):
        if not bijection_regime_ok(n, k, lam):
            continue
        lam_bar = lam[1:]
        ell = weight(lam_bar)
        fillings = standard_fillings_count(lam_bar)
        pairs = 0
        for cycles in perms:
            fixed = {c[0] for c in cycles if len(c) == 1}
            maxima = {c[0] for c in cycles}
            free = maxima - fixed
            if len(fixed) > ell or len(fixed) + len(free) < ell:
                continue
            pairs += (
                len(list(combinations(free, ell - len(fixed)))) * fillings
            )
        assert pairs == count_kronecker_tableaux((n,), lam, k), (lam, k)


@pytest.mark.parametrize("k", range(0, 5))
def test_from_pair_inverts_to_pair_or_rejects(k):
    # every partial tableau labelled in 1..k against every decreasing-cycle pi
    perms = [DecCyclePermutation(c) for c in decreasing_cycle_permutations(k)]
    tableaux = [PartialStandardTableau(rows) for rows in partial_standard_tableaux(k)]
    for n in (k + 2, k + 4):
        for regime in (True, False):
            accepted = 0
            for T in tableaux:
                for pi in perms:
                    try:
                        K = from_pair(T, pi, n, k, require_regime=regime)
                    except ValueError:
                        continue
                    assert to_pair(K, n, k, require_regime=regime) == (T, pi)
                    accepted += 1
            if regime:  # one pair per walk in the regime
                assert accepted == sum(
                    count_kronecker_tableaux((n,), lam, k)
                    for lam in partitions_of(n)
                    if bijection_regime_ok(n, k, lam)
                )


def test_from_pair_rejects_invariant_violations():
    T = PartialStandardTableau(((2,),))
    ok_pi = DecCyclePermutation(((1,), (2,)))
    # fixed point 1 does not label a cell
    with pytest.raises(BijectionError):
        from_pair(T, ok_pi, 6, 2)
    # label not a cycle maximum
    pi = DecCyclePermutation(((3, 2),))
    with pytest.raises(BijectionError):
        from_pair(PartialStandardTableau(((2,),)), pi, 6, 3)
    # support mismatch
    with pytest.raises(BijectionError):
        from_pair(PartialStandardTableau(((2,),)), DecCyclePermutation(((2,),)), 6, 3)


def test_bijection_rejects_multi_row_initial_shape():
    K = KroneckerTableau(((3, 1), (2, 2)), (None,))
    with pytest.raises(ValueError):
        to_pair(K, 4, 1)


def test_dec_cycle_permutation_validation():
    with pytest.raises(ValueError):
        DecCyclePermutation(((2, 3),))  # not greatest-first
    with pytest.raises(ValueError):
        DecCyclePermutation(((3, 1), (3,)))  # overlap


def test_partial_standard_tableau_validation():
    with pytest.raises(ValueError):
        PartialStandardTableau(((3, 1),))  # row not increasing
    with pytest.raises(ValueError):
        PartialStandardTableau(((5,), (2,)))  # column not increasing
    with pytest.raises(ValueError):
        PartialStandardTableau(((1,), (2, 3)))  # widening upward


def test_walk_text_round_trip():
    for lam in partitions_of(5):
        for K in list_kronecker_tableaux((5,), lam, 3):
            assert parse_walk(format_walk(K)) == K


def test_walk_counts_match_per_shape_counts_and_operator_powers():
    for n in range(2, 9):
        for k in range(0, 7):
            counts = walk_counts((n,), k)
            assert counts.degree == n
            for lam in partitions_of(n):
                assert counts.coefficient(lam) == count_kronecker_tableaux((n,), lam, k)
            assert counts == kron_power_nm1(n, k), (n, k)


def test_walk_counts_validation():
    assert walk_counts((2, 1), 0) == SchurSum.schur((2, 1))
    with pytest.raises(ValueError):
        walk_counts((3,), -1)
