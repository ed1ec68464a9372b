"""Recursive helpers leave no reference cycles: a cold call frees all it
made by reference counting, with nothing left for the cyclic collector."""

import gc

import pytest

from kronlab import characters, symfunc, tableaux
from kronlab.partitions import partitions_inside

COLD_CALLS = {
    # _lattice_strips is memoised; its unwrapped body is a cold call
    "lattice_strips": lambda: symfunc._lattice_strips.__wrapped__((4, 2, 1), (2, 1), 3),
    "h_determinant": lambda: symfunc.h_determinant([[3, 4, 5], [1, 2, 3], [-1, 0, 1]]),
    "partitions_inside": lambda: list(partitions_inside((5, 4, 3, 2), 9)),
    "strip_moves": lambda: characters._strip_moves.__wrapped__(9, 4),
    "steps": lambda: tableaux._steps.__wrapped__((5, 3, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(COLD_CALLS))
def test_a_cold_call_leaves_no_cyclic_garbage(name):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert COLD_CALLS[name]()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
