"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

* fresh state: every pass runs in a new worker that starts with no catalog
  context, although the catalog caches contexts for the life of a process;
* oracle: corrupting one pinned record, one witness or one `checked` count
  makes the run count a failure;
* trace consistency: traced and untraced passes give identical verdicts,
  per-layer self times add up to the traced wall time, and two traced passes
  with one seed give identical counts;
* calibration: the reference chunks on the profiling timer leave every
  verdict as it is, and each request's time lies within the pass's.

Runs the cheap cqt_forms workload; about a minute on a 2-core machine.
"""

import copy
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "cqt_forms"
SEED = 1


class FreshState(unittest.TestCase):

    def test_catalog_caches_contexts_within_a_process(self):
        from hopfcqt.catalog import get_entry
        entry = get_entry("Z2_Z")
        self.assertIs(entry.context(), entry.context())

    def test_each_pass_starts_without_contexts(self):
        reqs = workloads.requests(WORKLOAD, SEED)
        first = run.run_pass(WORKLOAD, reqs, setup_only=True)
        second = run.run_pass(WORKLOAD, reqs, setup_only=True)
        self.assertTrue(first.fresh)
        self.assertTrue(second.fresh)
        self.assertNotEqual(first.pid, second.pid)


class Oracle(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.reqs = workloads.requests(WORKLOAD, SEED)
        cls.expected = run.load_expected(WORKLOAD)
        cls.p = run.run_pass(WORKLOAD, cls.reqs)

    def _failures_with(self, corrupt):
        expected = copy.deepcopy(self.expected)
        corrupt(expected)
        return run.failures(WORKLOAD, self.reqs, self.p, expected)

    def _first(self, expected, prefix, has):
        rid = next(r["id"] for r in self.reqs if r["id"].startswith(prefix))
        return next(rep for rep in expected[rid] if has in rep)

    def test_pinned_records_match(self):
        self.assertEqual(run.failures(WORKLOAD, self.reqs, self.p, self.expected), [])

    def test_corrupt_record(self):
        def corrupt(expected):
            rid = next(r["id"] for r in self.reqs if r["id"].startswith("std:"))
            expected[rid][0]["status"] = "fail"
        self.assertGreater(len(self._failures_with(corrupt)), 0)

    def test_corrupt_witness(self):
        def corrupt(expected):
            self._first(expected, "perturb:", "witness")["witness"][0] = "?"
        self.assertGreater(len(self._failures_with(corrupt)), 0)

    def test_corrupt_checked_count(self):
        def corrupt(expected):
            self._first(expected, "std:", "checked")["checked"] -= 1
        self.assertGreater(len(self._failures_with(corrupt)), 0)


class TraceConsistency(unittest.TestCase):

    def test_traced_runs(self):
        _, (untraced, traced), metrics, checks = run.trace_run(WORKLOAD, SEED)
        self.assertTrue(checks["traced_outcomes_equal_untraced"])
        self.assertTrue(checks["self_time_sum_matches_wall"])
        again = run.run_pass(WORKLOAD, workloads.requests(WORKLOAD, SEED), trace=True)
        self.assertEqual(traced.trace["counts"], again.trace["counts"])
        for name in tracer.COUNTS:
            self.assertEqual(metrics[name][0], again.trace["counts"][name])
        self.assertGreater(metrics["cqt.rvalue_lookups"][0], 0)


class Calibration(unittest.TestCase):

    def test_calibrated_pass(self):
        reqs = workloads.requests(WORKLOAD, SEED)
        plain = run.run_pass(WORKLOAD, reqs)
        timed = run.run_pass(WORKLOAD, reqs, calibrated=True)
        self.assertEqual(plain.outcomes, timed.outcomes)
        self.assertIsNone(plain.work_cal)
        self.assertGreater(len(timed.work_cal["chunks"]), 0)
        self.assertTrue(all(c > 0 for c in timed.work_cal["chunks"]))
        requests = sum(ph["cpu_s"] for ph in timed.request_cal)
        self.assertLess(0, requests)
        self.assertLessEqual(requests, timed.work_cal["cpu_s"])
        per_request = run.reference_times(timed.request_cal)
        (work,) = run.reference_times([timed.work_cal])
        self.assertTrue(all(t > 0 for t in per_request))
        self.assertLess(max(per_request), work)


if __name__ == "__main__":
    unittest.main()
