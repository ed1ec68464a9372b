"""The immutable records: value semantics, the dataclass-style repr, and
copy and pickle round trips (SchurSum included)."""

import copy
import pickle

import pytest

from kronlab._record import Record
from kronlab.characters import CharacterTable, character_table
from kronlab.kron_ops import KroneckerOperator, build_operator
from kronlab.symfunc import SchurSum
from kronlab.tableaux import (
    DecCyclePermutation,
    KroneckerTableau,
    PartialStandardTableau,
)

# each record with the repr its frozen-dataclass form printed
RECORDS = [
    (
        character_table(2),
        "CharacterTable(n=2, partitions=((2,), (1, 1)), values=((1, 1), (-1, 1)))",
    ),
    (
        KroneckerOperator(((1, ((2,), (1, 1))), (2, ()))),
        "KroneckerOperator(terms=((1, ((2,), (1, 1))), (2, ())))",
    ),
    (
        KroneckerTableau(((2, 1), (2, 1)), ((2, 1),)),
        "KroneckerTableau(shapes=((2, 1), (2, 1)), marks=((2, 1),))",
    ),
    (
        PartialStandardTableau(((1, 3), (2,))),
        "PartialStandardTableau(rows=((1, 3), (2,)))",
    ),
    (
        DecCyclePermutation(((1,), (3, 2))),
        "DecCyclePermutation(cycles=((1,), (3, 2)))",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "value",
    [record for record, _ in RECORDS]
    + [build_operator((2, 1)), SchurSum.schur((2, 1)), SchurSum.schur((3,)).scale(-2)],
    ids=lambda v: type(v).__name__,
)
def test_copy_and_pickle_round_trips(value):
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_equality_and_hash_by_class_and_value():
    walk = KroneckerTableau(((3, 1), (2, 2)), (None,))
    twin = KroneckerTableau(((3, 1), (2, 2)), (None,))
    assert walk == twin and walk is not twin
    assert hash(walk) == hash(twin)
    assert len({walk, twin}) == 1
    assert walk != KroneckerTableau(((3, 1), (3, 1)), ((2, 1),))
    # equal fields, different classes
    class Walk(Record):
        __slots__ = ("shapes", "marks")

    assert KroneckerTableau(((),), ()) != Walk(((),), ())
    assert Walk(((),), ()) != KroneckerTableau(((),), ())


def test_keyword_construction():
    walk = KroneckerTableau(((2,), (1, 1)), (None,))
    assert KroneckerTableau(shapes=((2,), (1, 1)), marks=(None,)) == walk
    assert KroneckerTableau(((2,), (1, 1)), marks=(None,)) == walk
    assert CharacterTable(n=2, values=((1, 1), (-1, 1)), partitions=((2,), (1, 1))) == (
        character_table(2)
    )


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_raise(record):
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: KroneckerTableau(((3,),)),
        lambda: KroneckerTableau(((3,),), (), ()),
        lambda: KroneckerTableau(((3,),), (), marks=()),
        lambda: KroneckerTableau(shapes=((3,),)),
        lambda: KroneckerTableau(((3,),), (), mark=()),
        lambda: PartialStandardTableau(),
        lambda: DecCyclePermutation((), ()),
        lambda: KroneckerOperator(),
        lambda: CharacterTable(1, ((1,),)),
    ],
)
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()

