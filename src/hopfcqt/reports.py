"""Uniform pass/fail reporting for verification sweeps.

Every verifier in the library (matched-pair axioms, cocycle identities, Hopf
axioms, CQT levels, necessary-condition battery) returns ConditionReports so
the CLI and the catalog can diff outcomes against expectations.

Every quantified check runs through one of two loops.

`sweep(check, instances, ok, witness=tuple)` is the general engine, used by
every sweep but the nine below (CQT0, CQT4, the convolution inverse, the
battery and comodule sweeps among them):

* `instances` is a lazy iterable of argument tuples; it is consumed only up
  to the first failure.  Values hoisted out of inner loops travel in the
  tuple, so they are computed once.
* `ok(*inst)` returns True (the instance holds), False (it fails) or None
  (it needs a value outside the declared window).
* The first False ends the sweep with a FAIL report whose witness is
  `witness(inst)`; `checked` includes the failing instance.  A witness that
  is not part of the instance is built there, on failure only.
* None counts as unevaluated, never as a pass.  With no failure the status
  is OUT_OF_WINDOW when nothing was checked and something was unevaluated,
  and PASS otherwise (an empty sweep passes with `checked` = 0).

`sweep_rows(check, rows, first_bad, witness)` is the row engine, for sweeps
whose innermost quantifier is cheap enough that a call per instance
dominates: the associativity and bialgebra sweeps of
hopf.verify_hopf_axioms, the four sweeps of CocyclePair.verify
(normalization, sigma-cocycle, tau-cocycle and compatibility), and CQT1,
CQT2 and CQT3 of cqt.verify_R.

* `rows` is a lazy iterable of (prefix, items): prefix is the tuple of the
  outer quantifiers, items a sequence of values of the innermost one, and
  the instances are prefix + (item,) in order.
* `first_bad(prefix, items)` evaluates the whole row in one loop and
  returns (bad, skipped): the position of the first failing item or None,
  and the number of unevaluated items (the None case of `sweep`) before it
  or in the whole row; a kernel without that case returns (n, 0) or (None, 0).
* The first failure ends the sweep with a FAIL report whose witness is
  `witness(prefix + (item,))`, the flattened instance, so one witness
  function serves both engines.  Every report, `checked` and `unevaluated`
  included, is the one `sweep` gives on the flattened instances.

A check decided by one search rather than a sweep reports through
`verdict(check, witness, checked=0, detail=None)`: FAIL carrying the witness,
or PASS when the witness is None.
"""

PASS = "pass"
FAIL = "fail"
OUT_OF_WINDOW = "out-of-window"
SKIPPED = "skipped"


class ConditionReport:
    """Outcome of one named check: pass/fail/out-of-window/skipped.

    A fail always carries a witness; `checked` counts evaluated instances and
    `unevaluated` counts instances that needed values outside a declared
    window.
    """

    __slots__ = ("check", "status", "witness", "detail", "checked", "unevaluated")

    def __init__(self, check, status, witness=None, detail=None, checked=0, unevaluated=0):
        if status == FAIL and witness is None:
            raise ValueError("fail report without witness: %s" % check)
        self.check = check
        self.status = status
        self.witness = witness
        self.detail = detail
        self.checked = checked
        self.unevaluated = unevaluated

    @property
    def passed(self):
        return self.status == PASS

    @property
    def failed(self):
        return self.status == FAIL

    def to_json(self):
        out = {"check": self.check, "status": self.status, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        if self.detail:
            out["detail"] = self.detail
        if self.unevaluated:
            out["unevaluated"] = self.unevaluated
        return out

    def __repr__(self):
        bits = ["%s: %s" % (self.check, self.status)]
        if self.witness is not None:
            bits.append("witness=%s" % (tuple(str(w) for w in self.witness),))
        if self.detail:
            bits.append(self.detail)
        return "<" + "  ".join(bits) + ">"


def sweep(check, instances, ok, witness=tuple):
    "One quantified check over lazily generated instances; see the module docstring."
    checked = unevaluated = 0
    for inst in instances:
        holds = ok(*inst)
        if holds is None:
            unevaluated += 1
            continue
        checked += 1
        if not holds:
            return _report(check, checked, unevaluated, True, witness(inst))
    return _report(check, checked, unevaluated)


def sweep_rows(check, rows, first_bad, witness):
    "One quantified check over rows of its innermost quantifier; see the module docstring."
    checked = unevaluated = 0
    for prefix, items in rows:
        bad, skipped = first_bad(prefix, items)
        unevaluated += skipped
        if bad is not None:
            return _report(check, checked + bad + 1 - skipped, unevaluated, True,
                           witness(prefix + (items[bad],)))
        checked += len(items) - skipped
    return _report(check, checked, unevaluated)


def verdict(check, witness, checked=0, detail=None):
    "The report of a check decided by one witness search: FAIL with the witness, PASS on None."
    if witness is None:
        return ConditionReport(check, PASS, detail=detail, checked=checked)
    return ConditionReport(check, FAIL, witness=witness, detail=detail, checked=checked)


def _report(check, checked, unevaluated, failed=False, witness=None):
    "The report of a finished sweep; a failed one carries its witness."
    if failed:
        return ConditionReport(check, FAIL, witness=witness, checked=checked,
                               unevaluated=unevaluated)
    status = OUT_OF_WINDOW if unevaluated and not checked else PASS
    return ConditionReport(check, status, checked=checked, unevaluated=unevaluated)


def all_passed(reports):
    "True when no report failed (skipped and out-of-window do not count as failures)."
    return not any(r.failed for r in reports)
