from math import factorial

import pytest

from kronlab import partitions
from kronlab.partitions import (
    canonical_sort,
    class_size,
    conjugate,
    contains,
    format_partition,
    is_partition,
    parse_partition,
    partitions_inside,
    partitions_of,
    standard_tableaux_count,
    weight,
)

from oracles import (
    add_corner_positions,
    contains_rowwise,
    corners,
    partition_count,
    partitions_listed,
    remove_corner,
    standard_fillings_count,
)


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_four_matches_canonical_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_ten_count():
    assert len(partitions_of(10)) == 42
    assert partition_count(10) == 42  # independent recurrence agrees


@pytest.mark.parametrize("n", range(0, 31))
def test_partition_counts_match_recurrence(n):
    assert len(partitions_of(n)) == partition_count(n)


@pytest.mark.parametrize("n", range(0, 13))
def test_partitions_of_match_brute_force_listing(n):
    assert partitions_of(n) == partitions_listed(n)


def test_partitions_inside_match_filtered_partitions():
    for w in range(0, 11):
        for lam in partitions_listed(w):
            for d in range(0, w + 1):
                want = [alpha for alpha in partitions_listed(d) if contains_rowwise(lam, alpha)]
                assert list(partitions_inside(lam, d)) == want, (lam, d)


def test_floored_partitions_inside_match_filtered_partitions():
    """Every box floor max(lam_(i+j), lam_i - c), the floors of a skew by
    a shape with j rows and c columns; c = lam_1 gives the suffix lam[j:]."""
    for w in range(0, 11):
        for lam in partitions_listed(w):
            floors = set()
            for j in range(0, len(lam) + 1):
                shifted = lam[j:] + (0,) * j
                for c in range(0, w + 1):
                    box = [max(s, part - c) for s, part in zip(shifted, lam)]
                    floors.add(tuple(f for f in box if f > 0))
            for d in range(0, w + 1):
                every = list(partitions_inside(lam, d))
                for floor in sorted(floors):
                    want = [alpha for alpha in every if contains_rowwise(alpha, floor)]
                    assert list(partitions_inside(lam, d, floor)) == want, (lam, d, floor)


def test_contains_matches_the_row_by_row_definition():
    every = [p for w in range(0, 9) for p in partitions_listed(w)]
    for outer in every:
        for inner in every:
            assert contains(outer, inner) == contains_rowwise(outer, inner), (outer, inner)
    assert contains((3, 2), ()) and contains((), ())
    assert not contains((), (1,))
    # a longer inner partition never fits, even where its rows are short
    assert not contains((5, 5), (1, 1, 1))
    assert not contains_rowwise((5, 5), (1, 1, 1))


def test_partitions_are_valid_and_sorted(subtests=None):
    for n in range(0, 9):
        ps = partitions_of(n)
        assert all(is_partition(p) and weight(p) == n for p in ps)
        assert list(ps) == canonical_sort(ps)


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((), True),
        ([], True),
        ((1,), True),
        ((3, 3, 1), True),
        ([5, 2, 2, 1], True),
        (iter((4, 1)), True),
        ((10**30, 1), True),
        ((True,), True),  # bool counts as an int, True as 1
        ((2, True), True),
        ((False,), False),
        ((0,), False),
        ((3, 0), False),
        ((2, -1), False),
        ((-1,), False),
        ((2.0,), False),
        ((2, 1.0), False),
        (("2",), False),
        ("21", False),
        ((None,), False),
        ((1, 2), False),
        ((3, 1, 2), False),
        ((1, True, 2), False),
    ],
)
def test_is_partition_edge_cases(parts, expected):
    assert is_partition(parts) is expected


def test_corners_4421():
    cs = corners((4, 4, 2, 1))
    assert cs.corners == ((4, 1), (3, 2), (2, 4))
    assert cs.first_corner == (2, 4)


def test_corners_single_row():
    cs = corners((7,))
    assert cs.corners == ((1, 7),)
    assert cs.first_corner == (1, 7)


def test_corners_331():
    cs = corners((3, 3, 1))
    assert len(cs.corners) == 2
    assert cs.first_corner == (2, 3)


def test_corners_empty():
    cs = corners(())
    assert cs.corners == () and cs.first_corner is None


def test_remove_top_corner_331():
    assert remove_corner((3, 3, 1), (3, 1)) == (3, 3)


def test_remove_non_corner_rejected():
    with pytest.raises(ValueError):
        remove_corner((3, 3, 1), (1, 3))


def test_add_positions():
    assert add_corner_positions((3, 3)) == [(4, 3), (3, 3, 1)]
    assert add_corner_positions((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]


def test_remove_then_add_roundtrip():
    for n in range(1, 8):
        for p in partitions_of(n):
            for c in corners(p).corners:
                q = remove_corner(p, c)
                assert p in add_corner_positions(q)


def test_class_sizes():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((2, 1, 1)) == 6
    assert class_size((4,)) == 6


def test_class_sizes_brute_force_s4():
    # count permutations of S_4 by cycle type directly
    from itertools import permutations

    counts = {}
    for perm in permutations(range(4)):
        seen, lens = set(), []
        for s in range(4):
            if s in seen:
                continue
            x, c = s, 0
            while x not in seen:
                seen.add(x)
                x = perm[x]
                c += 1
            lens.append(c)
        counts.setdefault(tuple(sorted(lens, reverse=True)), 0)
        counts[tuple(sorted(lens, reverse=True))] += 1
    for mu, cnt in counts.items():
        assert class_size(mu) == cnt


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)


def test_standard_tableaux_counts():
    assert standard_tableaux_count(()) == 1
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((2, 2, 2)) == 5


def test_standard_tableaux_count_checks_its_shape_on_a_cold_and_a_warm_memo():
    partitions._standard_tableaux_count.cache_clear()
    with pytest.raises(ValueError, match="not a partition"):
        standard_tableaux_count((2.0, 1))
    assert standard_tableaux_count((2, 1)) == 2
    with pytest.raises(ValueError, match="not a partition"):
        standard_tableaux_count((2.0, 1))


@pytest.mark.parametrize("n", range(0, 9))
def test_hook_counts_match_exhaustive_fillings(n):
    for p in partitions_of(n):
        assert standard_tableaux_count(p) == standard_fillings_count(p)


@pytest.mark.parametrize("n", range(1, 9))
def test_sum_of_squared_dimensions(n):
    assert sum(standard_tableaux_count(p) ** 2 for p in partitions_of(n)) == factorial(n)


def test_conjugate_involution():
    for n in range(0, 9):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_parse_and_format():
    assert parse_partition("[4,4,2,1]") == (4, 4, 2, 1)
    assert parse_partition("[]") == ()
    assert format_partition((3, 1)) == "[3,1]"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("4,2")
    with pytest.raises(ValueError):
        parse_partition("[1,2]")  # increasing
    with pytest.raises(ValueError):
        parse_partition("[2,0]")
