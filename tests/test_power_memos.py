"""The per-(start, k) memos of the operator and walk routes: any call order,
threads, and the number of operator applications a sweep costs."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from kronlab import cli, kron_ops, tableaux
from kronlab.kron_ops import apply, build_operator, kron_power_nm1
from kronlab.partitions import partitions_of
from kronlab.symfunc import SchurSum
from kronlab.tableaux import count_kronecker_tableaux, walk_counts

from oracles import walk_count_recursive

CASES = [(n, k) for n in range(2, 9) for k in range(9)]


def clear_memos():
    kron_ops._powers.clear()
    tableaux._endpoints.clear()


@pytest.fixture(scope="module")
def reference():
    """Powers by k fresh operator applications; walk counts from the
    first-principles recursion."""
    op = build_operator((1,))
    powers = {}
    for n in range(2, 9):
        f = SchurSum.schur((n,))
        for k in range(9):
            powers[n, k] = f
            f = apply(op, f)
    walks = {
        (n, k): {lam: walk_count_recursive((n,), lam, k) for lam in partitions_of(n)}
        for n, k in CASES
    }
    return powers, walks


def check(n, k, reference):
    powers, walks = reference
    power = kron_power_nm1(n, k)
    assert power == powers[n, k], (n, k)
    assert walk_counts((n,), k) == power, (n, k)
    for lam in partitions_of(n):
        count = count_kronecker_tableaux((n,), lam, k)
        assert count == power.coefficient(lam), (n, k, lam)
        assert count == walks[n, k][lam], (n, k, lam)


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_memos_in_any_k_order(order, reference):
    cases = sorted(CASES, key=lambda c: (c[0], -c[1]))
    if order == "shuffled":
        random.Random(20261018).shuffle(cases)
    clear_memos()
    for n, k in cases:
        check(n, k, reference)
    # every value read back from the memos is still the reference value
    for n, k in cases:
        check(n, k, reference)


def test_threaded_memo_fill_matches_serial():
    calls = [
        (fn, n, k)
        for fn in (kron_power_nm1, lambda n, k: walk_counts((n,), k))
        for n, k in CASES
    ] * 3
    random.Random(7).shuffle(calls)
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: c[0](*c[1:]), calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    clear_memos()
    serial = [fn(*args) for fn, *args in calls]
    assert threaded == serial


def test_listing_leaves_the_walk_memo_as_it_was():
    clear_memos()
    count_kronecker_tableaux((6,), (4, 2), 3)
    before = dict(tableaux._endpoints)
    listed = tableaux.list_kronecker_tableaux((6,), (4, 2), 7)
    assert tableaux._endpoints == before
    assert len(listed) == count_kronecker_tableaux((6,), (4, 2), 7)


@pytest.fixture
def applied(monkeypatch):
    """The degree of every Schur sum the operator is applied to, from empty
    memos on."""
    degrees = []

    def counting_apply(op, f):
        degrees.append(f.degree)
        return apply(op, f)

    clear_memos()
    monkeypatch.setattr(kron_ops, "apply", counting_apply)
    return degrees


def test_descending_sweep_applies_the_operator_once_per_step(applied):
    for k in range(8, -1, -1):
        kron_power_nm1(7, k)
    # k = 8 stores every step on the way, so the smaller k apply nothing
    assert len(applied) == 8


def test_descending_walk_counts_take_each_step_once(monkeypatch):
    steps = []
    step = tableaux._step

    def counting_step(vec):
        steps.append(len(vec))
        return step(vec)

    clear_memos()
    monkeypatch.setattr(tableaux, "_step", counting_step)
    for k in range(8, -1, -1):
        walk_counts((7,), k)
    assert len(steps) == 8


def test_a_long_count_keeps_the_short_steps_and_its_own_length():
    clear_memos()
    count_kronecker_tableaux((5,), (4, 1), 100)
    keep = tableaux._KEEP_EVERY_STEP
    assert sorted(k for _, k in tableaux._endpoints) == [*range(1, keep + 1), 100]


def test_a_high_power_keeps_the_low_steps_and_its_own():
    clear_memos()
    kron_power_nm1(5, 100)
    keep = kron_ops._KEEP_EVERY_STEP
    assert sorted(k for _, k in kron_ops._powers) == [*range(1, keep + 1), 100]
    op = build_operator((1,))
    fresh = SchurSum.schur((5,))
    for _ in range(80):
        fresh = apply(op, fresh)
    assert kron_power_nm1(5, 80) == fresh


def test_verify_applies_the_operator_once_per_power(applied, capsys):
    assert cli.main(["verify", "--n", "6", "--k", "6"]) == 0
    capsys.readouterr()
    # n = 2..6, each carried from k - 1 to k for k = 1..6
    assert 0 < len(applied) <= 5 * 6
