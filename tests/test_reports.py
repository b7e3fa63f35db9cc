import pytest

from hopfcqt.reports import (FAIL, OUT_OF_WINDOW, PASS, ConditionReport, sweep, sweep_rows,
                             verdict)


def test_sweep_pass_counts_every_instance():
    r = sweep("c", ((i,) for i in range(5)), lambda i: True)
    assert (r.check, r.status, r.checked, r.unevaluated, r.witness) == ("c", PASS, 5, 0, None)


def test_sweep_stops_at_the_kth_instance():
    seen = []

    def instances():
        for i in range(10):
            seen.append(i)
            yield i, i * i

    r = sweep("c", instances(), lambda i, sq: i != 3)
    assert r.status == FAIL and r.witness == (3, 9)
    assert r.checked == 4  # the failing instance counts
    assert seen == [0, 1, 2, 3]  # the generator was not advanced past it


def test_sweep_failure_keeps_the_unevaluated_count():
    r = sweep("c", [(None,), (True,), (None,), (False,), (True,)], lambda v: v)
    assert (r.status, r.checked, r.unevaluated, r.witness) == (FAIL, 2, 2, (False,))


def test_sweep_unevaluated_is_never_a_pass():
    r = sweep("c", [(None,), (True,), (None,)], lambda v: v)
    assert (r.status, r.checked, r.unevaluated) == (PASS, 1, 2)
    assert r.to_json() == {"check": "c", "status": PASS, "checked": 1, "unevaluated": 2}


def test_sweep_all_unevaluated_is_out_of_window():
    r = sweep("c", [(None,)] * 3, lambda v: v)
    assert (r.status, r.checked, r.unevaluated) == (OUT_OF_WINDOW, 0, 3)


def test_sweep_custom_witness_sees_the_whole_instance():
    r = sweep("c", [(1, "hoisted"), (2, "hoisted")], lambda i, extra: i < 2,
              witness=lambda inst: ("at", inst[0]))
    assert r.witness == ("at", 2)
    assert r.to_json()["witness"] == ["at", "2"]


def test_sweep_empty_passes():
    r = sweep("c", iter(()), lambda: False)
    assert (r.status, r.checked, r.unevaluated) == (PASS, 0, 0)


def _row_kernel(ok, seen=None):
    "The row kernel of the per-instance check ok: the first False, and the Nones before it."
    def first_bad(prefix, items):
        if seen is not None:
            seen.append(prefix)
        skipped = 0
        for n, x in enumerate(items):
            holds = ok(*prefix, x)
            if holds is None:
                skipped += 1
            elif not holds:
                return n, skipped
        return None, skipped

    return first_bad


def _flat(rows):
    return [prefix + (x,) for prefix, items in rows for x in items]


def test_sweep_rows_reports_like_sweep_on_the_flattened_instances():
    # rows of unequal length, one of them empty; the kernel sees whole rows
    rows = [((0,), [0, 1, 2]), ((1,), []), ((2,), [5]), ((3,), [0, 5, 1])]
    seen = []
    ok = lambda p, x: x + p != 8  # noqa: E731
    first_bad = _row_kernel(ok, seen)
    for witness in (tuple, lambda inst: ("at",) + inst):
        got = sweep_rows("c", iter(rows), first_bad, witness)
        assert got.to_json() == sweep("c", _flat(rows), ok, witness=witness).to_json()
    assert got.status == FAIL and got.witness == ("at", 3, 5) and got.checked == 6
    assert seen[-1] == (3,)  # no row past the failing one
    r = sweep_rows("c", rows[:3], first_bad, tuple)
    assert (r.status, r.checked, r.unevaluated, r.witness) == (PASS, 4, 0, None)
    assert sweep_rows("c", iter(()), first_bad, tuple).to_json() == {
        "check": "c", "status": PASS, "checked": 0}

    # items that are None (out of window), True or False, as sweep sees them
    ok = lambda p, v: v  # noqa: E731
    first_bad = _row_kernel(ok)
    cases = [
        # a failure after unevaluated items, in its own row and in rows before
        ([((0,), [None, True]), ((1,), [None, None, False, None, True])], (FAIL, 2, 3)),
        # nothing evaluated: out of window
        ([((0,), [None, None]), ((1,), []), ((2,), [None])], (OUT_OF_WINDOW, 0, 3)),
        # a pass that says what it left unevaluated
        ([((0,), [True, None]), ((1,), [None, True, True])], (PASS, 3, 2)),
    ]
    for rows, (status, checked, unevaluated) in cases:
        r = sweep_rows("c", iter(rows), first_bad, tuple)
        assert (r.status, r.checked, r.unevaluated) == (status, checked, unevaluated)
        assert r.to_json() == sweep("c", _flat(rows), ok).to_json()


def test_fail_report_needs_a_witness():
    with pytest.raises(ValueError):
        ConditionReport("c", FAIL)
    # verdict decides the status from the witness alone
    r = verdict("c", None)
    assert (r.status, r.witness, r.checked, r.detail) == (PASS, None, 0, None)
    assert verdict("c", None, checked=3, detail="why").to_json() == {
        "check": "c", "status": PASS, "checked": 3, "detail": "why"}
    r = verdict("c", ("at", 2), checked=5, detail="why")
    assert (r.status, r.witness) == (FAIL, ("at", 2))
    assert r.to_json() == {"check": "c", "status": FAIL, "checked": 5,
                           "witness": ["at", "2"], "detail": "why"}
    with pytest.raises(TypeError):
        ConditionReport("c", PASS, note="gone")
