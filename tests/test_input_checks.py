"""Every library input check raises its own exception type and message."""

import pytest

from kronlab.characters import kron_power_oracle
from kronlab.enumeration import TruncatedEGF, multiplicity_formula
from kronlab.kron_ops import _build_operator, build_operator, kron_power_nm1
from kronlab.partitions import parse_partition, partitions_of
from kronlab.symfunc import (
    SchurSum,
    h_to_schur,
    lr_coefficient,
    multiply,
    perp,
    skew_then_multiply,
)
from kronlab.tableaux import (
    BijectionError,
    DecCyclePermutation,
    KroneckerTableau,
    PartialStandardTableau,
    count_kronecker_tableaux,
    from_pair,
    list_kronecker_tableaux,
    parse_walk,
    rsk_delete,
    to_pair,
)

CASES = {
    "partitions-of-negative": (lambda: partitions_of(-1), ValueError, "nonnegative"),
    "parse-non-integer": (
        lambda: parse_partition("[1,a]"),
        ValueError,
        "must contain integers",
    ),
    "schur-sum-add-degrees": (
        lambda: SchurSum.schur((2,)) + SchurSum.schur((1,)),
        ValueError,
        "different degrees",
    ),
    "multiply-non-partition": (
        lambda: multiply(SchurSum(1, {(1, 0): 1}), SchurSum.schur((1,))),
        ValueError,
        "not a partition",
    ),
    "lr-coefficient-zero-part": (
        lambda: lr_coefficient((1,), (1, 0), (1, 1)),
        ValueError,
        "not a partition",
    ),
    "lr-coefficient-unsorted": (
        lambda: lr_coefficient((1,), (2, 0, 1), (2, 1, 1)),
        ValueError,
        "not a partition",
    ),
    "perp-non-partition": (
        lambda: perp((1,), SchurSum(2, {(1, 1, 0): 1})),
        ValueError,
        "not a partition",
    ),
    "skew-then-multiply-non-partition": (
        lambda: skew_then_multiply(((1, ((1,),)),), SchurSum(2, {(0, 2): 1})),
        ValueError,
        "not a partition",
    ),
    "skew-then-multiply-identity-non-partition": (
        lambda: skew_then_multiply(((2, ()),), SchurSum(2, {(0, 2): 1})),
        ValueError,
        "not a partition",
    ),
    "schur-sum-immutable": (
        lambda: setattr(SchurSum.schur((1,)), "degree", 2),
        AttributeError,
        "immutable",
    ),
    "power-nm1-small-n": (lambda: kron_power_nm1(1, 0), ValueError, "at least 2"),
    "power-nm1-negative-k": (
        lambda: kron_power_nm1(3, -1),
        ValueError,
        "nonnegative",
    ),
    "power-oracle-small-n": (
        lambda: kron_power_oracle(1, 0),
        ValueError,
        "at least 2",
    ),
    "power-oracle-negative-k": (
        lambda: kron_power_oracle(3, -1),
        ValueError,
        "nonnegative",
    ),
    "formula-negative-k": (
        lambda: multiplicity_formula(4, -1, (4,)),
        ValueError,
        "nonnegative",
    ),
    "formula-float-n": (
        lambda: multiplicity_formula(5.0, 2, (4, 1)),
        TypeError,
        "integer",
    ),
    "egf-no-coefficients": (lambda: TruncatedEGF([]), ValueError, "constant"),
    "tableau-mark-slots": (
        lambda: KroneckerTableau(((3,), (2, 1)), ()),
        ValueError,
        "one mark slot per step",
    ),
    "to-pair-start": (
        lambda: to_pair(KroneckerTableau(((3, 1), (2, 2)), (None,)), 4, 1),
        ValueError,
        "walk must start at the one-row shape (n)",
    ),
    "count-weights": (
        lambda: count_kronecker_tableaux((3,), (2,), 1),
        ValueError,
        "weight mismatch (3,) vs (2,)",
    ),
    "list-weights": (
        lambda: list_kronecker_tableaux((3,), (2,), 1),
        ValueError,
        "weight mismatch (3,) vs (2,)",
    ),
    "list-negative-k": (
        lambda: list_kronecker_tableaux((3,), (2, 1), -1),
        ValueError,
        "nonnegative",
    ),
    "list-negative-limit": (
        lambda: list_kronecker_tableaux((3,), (2, 1), 1, limit=-1),
        ValueError,
        "limit must be nonnegative",
    ),
    "egf-one-negative-order": (
        lambda: TruncatedEGF.one(-1),
        ValueError,
        "order must be nonnegative",
    ),
    "to-pair-negative-k": (
        lambda: to_pair(KroneckerTableau(((4,), (3, 1)), (None,)), 4, -1),
        ValueError,
        "k must be nonnegative",
    ),
    "to-pair-length": (
        lambda: to_pair(KroneckerTableau(((3,), (2, 1)), (None,)), 3, 2),
        ValueError,
        "has length 1, expected 2",
    ),
    "to-pair-regime": (
        lambda: to_pair(parse_walk("[4] [3,1] [3,1]*2:1 [2,2]"), 4, 3),
        BijectionError,
        "n=4 < k + second part of (2, 2); pass require_regime=False to strip anyway",
    ),
    "tableau-empty-row": (
        lambda: PartialStandardTableau(((),)),
        ValueError,
        "empty row",
    ),
    "tableau-bad-label": (
        lambda: PartialStandardTableau(((0,),)),
        ValueError,
        "bad label 0",
    ),
    "tableau-find-absent": (
        lambda: PartialStandardTableau(((1,),)).find(5),
        KeyError,
        "5",
    ),
    "rsk-delete-not-a-corner": (
        lambda: rsk_delete(PartialStandardTableau(((1, 3), (2,))), (1, 1)),
        ValueError,
        "(1, 1) is not a corner of shape (2, 1)",
    ),
    "cycle-empty": (lambda: DecCyclePermutation(((),)), ValueError, "empty cycle"),
    "cycles-overlap": (
        lambda: DecCyclePermutation(((2, 1), (3, 1))),
        ValueError,
        "disjoint",
    ),
    "cycle-element-not-int": (
        lambda: DecCyclePermutation(((2.5, 1),)),
        ValueError,
        "bad element 2.5",
    ),
    "cycle-element-str": (
        lambda: DecCyclePermutation(((3, "a"),)),
        ValueError,
        "bad element 'a'",
    ),
    "cycle-element-zero": (
        lambda: DecCyclePermutation(((0,),)),
        ValueError,
        "bad element 0",
    ),
    "from-pair-labels": (
        lambda: from_pair(
            PartialStandardTableau(((3,),)), DecCyclePermutation(((1,), (2,))), 6, 2
        ),
        BijectionError,
        "labels must lie in 1..k",
    ),
    "from-pair-too-small": (
        lambda: from_pair(
            PartialStandardTableau(((1,),)), DecCyclePermutation(((1,),)), 1, 1
        ),
        ValueError,
        "n=1 too small to extend (1,) by a first row",
    ),
    "from-pair-negative-k": (
        lambda: from_pair(
            PartialStandardTableau.empty(), DecCyclePermutation(()), 5, -1
        ),
        ValueError,
        "k must be nonnegative",
    ),
    "parse-walk-empty": (lambda: parse_walk("  "), ValueError, "empty walk line"),
    "parse-walk-mark-suffix": (
        lambda: parse_walk("[3] [2,1]*x"),
        ValueError,
        "bad mark suffix",
    ),
    "parse-walk-marked-initial": (
        lambda: parse_walk("[3]*1:3 [2,1]"),
        ValueError,
        "initial shape cannot carry a mark",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


# a public name over a private memo: (memo front, a call of floats, the
# same call of ints, its answer)
MEMO_FRONTS = {
    "build-operator": (build_operator, ((2.0,),), ((2,),), _build_operator.__wrapped__((2,))),
    "lr-coefficient": (lr_coefficient, ((1.0,), (1,), (2,)), ((1,), (1,), (2,)), 1),
    "h-to-schur": (h_to_schur, ((2.0, 1),), ((2, 1),), SchurSum(3, {(3,): 1, (2, 1): 1})),
}


@pytest.mark.parametrize("name", list(MEMO_FRONTS))
def test_memo_fronts_check_their_partitions_on_a_cold_and_a_warm_memo(name):
    front, floats, ints, answer = MEMO_FRONTS[name]
    front.cache_clear()
    with pytest.raises(ValueError, match="not a partition"):
        front(*floats)
    assert front(*ints) == answer
    assert front.cache_info().currsize == 1
    with pytest.raises(ValueError, match="not a partition"):
        front(*floats)
    assert front.cache_info().currsize == 1
