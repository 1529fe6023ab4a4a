"""A raising library call is counted as a failed call and a failed check; crossval
reaches the dyadic block limit."""

from dirichlet_curve import stickbreak

import workloads
from workloads import PassResult


def test_raising_cell_is_a_failed_call_and_check():
    res = PassResult()
    with res.cell("ok", 2, n=5):
        res.check("ok", True)
    with res.cell("boom", 1, n=7):
        raise ValueError("bad input")
    assert res.ops == 3 and res.ops_failed == 1
    assert res.checks == [("ok", True), ("boom", False)]
    assert res.errors == ["boom: ValueError: bad input"]
    assert res.cells == [{"cell": "ok", "n": 5}, {"cell": "boom", "n": 7}]
    assert set(res.cell_s) == {"ok", "boom"}


def test_crossval_fills_a_dyadic_row_block():
    # the row block of dyadic_mean_draws: _ROW_BLOCK rows, at most 2^23 leaves
    block = min(stickbreak._ROW_BLOCK, (1 << 23) >> workloads.CROSSVAL_K)
    assert workloads.CROSSVAL_BLOCK_N >= block
