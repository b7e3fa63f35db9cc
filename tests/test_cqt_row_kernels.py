"""CQT0 runs on hoisted unit rows, CQT1 and CQT2 as row kernels on
reports.sweep_rows.  They must report exactly what the per-instance sweeps of
cqt_reference.instance_sweep report, out-of-window instances included, and
read R only as verify_R's one view of it does: each entry of R.table once,
through RForm.try_value, in R.table order."""

import pytest

from cqt_reference import instance_sweep
from test_cqt_shared_table import _forms
from test_length_changing_action import _z2_flip_dinf
from hopfcqt.catalog import get_entry
from hopfcqt.cqt import RForm, eps_tensor_eps, verify_R
from hopfcqt.reports import FAIL
from hopfcqt.scalars import ONE

WINDOWED = ("Z2_Z", "Z2_Dinf", "Z3_Z", "Z2_Z2xZ_central")
TENSOR_ENTRIES = ("Z2_Z2_trivial", "Z2_Z3_trivial", "Z3_Z2_trivial", "Z3_Z3_trivial")


@pytest.fixture
def reads(monkeypatch):
    "The list that every later RForm.try_value call appends its arguments to."
    log = []
    try_value = RForm.try_value

    def logged(self, key1, key2):
        log.append((key1, key2))
        return try_value(self, key1, key2)

    monkeypatch.setattr(RForm, "try_value", logged)
    return log


def _matches_instance_sweeps(R, qbound, reads):
    """verify_R's CQT0, CQT1 and CQT2 reports, each equal to the reference's,
    each after RForm.try_value calls on exactly R's support, in R.table order;
    returns the reports."""
    out = []
    for level in (0, 1, 2):
        reads.clear()
        got, = verify_R(R, (level,), qbound)
        assert reads == list(R.table), (level, R, qbound)
        expected = instance_sweep(R, level, qbound)
        assert got.to_json() == expected.to_json(), (level, R, qbound)
        out.append(got)
    return out


def _perturbations(R, keys):
    return [R.perturbed(k1, k2, R.try_value(k1, k2) + ONE) for k1 in keys for k2 in keys]


@pytest.mark.parametrize("eid", WINDOWED)
@pytest.mark.parametrize("window", [1, 2, 3])
def test_standard_forms_at_windows(eid, window, reads):
    R = eps_tensor_eps(get_entry(eid).context(), window=window)
    for qbound in (window, window + 1):
        _matches_instance_sweeps(R, qbound, reads)


@pytest.mark.parametrize("eid", TENSOR_ENTRIES)
def test_every_single_entry_perturbation(eid, reads):
    H = get_entry(eid).context()
    R = eps_tensor_eps(H)
    failed = 0
    for S in _perturbations(R, H.basis_window(None)):
        failed += sum(r.failed for r in _matches_instance_sweeps(S, None, reads))
    assert failed


def test_windowed_perturbations_fail_after_unevaluated_instances(reads):
    # at window 1 and qbound 2 every perturbation fails CQT1 and CQT2 after
    # instances that read R outside the window
    H = get_entry("Z2_Z").context()
    R = eps_tensor_eps(H, window=1)
    for S in _perturbations(R, H.basis_window(1)):
        for r in _matches_instance_sweeps(S, 2, reads)[1:]:
            assert r.status == FAIL and r.unevaluated > 0


@pytest.mark.parametrize("window", [1, 2])
def test_action_that_leaves_the_window(window, reads):
    # a coproduct leg of p_s # f leaves the window when s |> f is longer than f
    H = _z2_flip_dinf()
    for R in (RForm(H, {}, window=window), eps_tensor_eps(H, window=window)):
        for qbound in (window, window + 1):
            _matches_instance_sweeps(R, qbound, reads)


COVERAGE = {0: 1, 1: 3, 2: 3, 4: 2, "inv": 2}  # the power of N each level sweeps


@pytest.mark.parametrize("eid,qbound", [("Z3_Z3_trivial", None), ("S3_Z2", None),
                                        ("Z2_Z", 2), ("Z2_Z", 3),
                                        ("Z2_Z2xZ_central", 2), ("Z2_Z2xZ_central", 3)])
def test_a_report_that_does_not_fail_covers_every_instance(eid, qbound):
    # N = |G| |W|, W the F range; CQT3 quantifies over x, y and the G part of m
    H = get_entry(eid).context()
    G = H.G.order()
    covered = 0
    for R in _forms(H):
        N = G * len(H.mp.window(qbound if qbound is not None else R.window))
        levels = (0, 1, 2, 3, 4, "inv")
        for level, r in zip(levels, verify_R(R, levels, qbound)):
            if not r.failed:
                expected = N * N * G if level == 3 else N ** COVERAGE[level]
                assert r.checked + r.unevaluated == expected, (R, level, r)
                covered += 1
    assert covered
