"""Shared fixtures."""

import pytest

from schurq import symfunc

# the process-lifetime memos of symfunc: functools caches on their functions,
# and the dicts of Schur functions that schur and schur_sum share, one per
# variable family
_MEMOS = (symfunc.h_poly, symfunc.q_poly, symfunc.qq_pair, symfunc._schur_q,
          symfunc._power_sum_image)


def _clear():
    for memo in _MEMOS:
        memo.cache_clear()
    for family_memo in symfunc._SCHURS.values():
        family_memo.clear()


@pytest.fixture
def cold_symfunc():
    """Empty symfunc memos for the test, emptied again afterwards so that no
    entry built under a perturbation outlives it.  Yields the function that
    empties them, for a test that needs them cold again midway."""
    _clear()
    yield _clear
    _clear()
