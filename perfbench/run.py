"""hopfcqt benchmark driver.

    python3 perfbench/run.py --workload cqt_forms --seed 1 --seconds 20 --trace 0

Runs one workload as a single closed-loop client: each request goes to a
worker process only after the previous verdict came back.  Every pass starts
a fresh worker (set-up, then the requests, then exit), so no pass reuses a
context or cache an earlier pass built.  Each verdict is checked against the
pinned records in perfbench/expected/ and against facts known by hand.

--trace 0 prints the end-to-end metrics (medians over the passes of the run;
times are CPU seconds at a reference machine speed, see calibrate.py);
--trace 1 makes one untraced and one traced pass and prints the per-layer
metrics.  The last line of stdout is the JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "hopfcqt")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
SUM_TOLERANCE = 0.05


class BenchError(Exception):
    "The benchmark itself could not run (no library, a worker died)."


# -- one pass in a fresh worker ----------------------------------------------------

class Pass:
    "Timings, outcomes and trace data of one worker's pass."

    def __init__(self):
        self.setup_s = None
        self.request_s = []
        self.wall_s = None
        self.outcomes = {}
        self.errors = {}
        self.spans = []
        self.peak_rss_mb = None
        self.trace = None
        self.fresh = None
        self.pid = None
        self.setup_cal = None
        self.request_cal = []
        self.work_cal = None


def run_pass(workload, reqs, trace=False, setup_only=False, calibrated=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    argv = [sys.executable, os.path.join(HERE, "worker.py")]
    if calibrated:
        argv.append("--calibrate")
    p = Pass()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        def send(obj):
            proc.stdin.write(json.dumps(obj) + "\n")
            proc.stdin.flush()

        def receive():
            line = proc.stdout.readline()
            if not line:
                raise BenchError("worker exited early (code %s)" % proc.wait())
            return json.loads(line)

        send({"workload": workload, "requests": reqs, "trace": trace,
              "setup_only": setup_only})
        ready = receive()
        p.setup_s = time.perf_counter() - t0
        p.fresh, p.pid, p.setup_cal = ready["fresh"], ready["pid"], ready["setup_cal"]
        if not setup_only:
            first = time.perf_counter()
            for i, req in enumerate(reqs):
                start = time.perf_counter()
                send({"i": i})
                reply = receive()
                end = time.perf_counter()
                p.request_s.append(end - start)
                p.request_cal.append(reply["cal"])
                if "error" in reply:
                    p.errors[req["id"]] = reply["error"]
                else:
                    p.outcomes[req["id"]] = reply["outcome"]
                p.spans.append({"id": req["id"], "start": start, "end": end,
                                "children": reply.get("spans", [])})
            p.wall_s = time.perf_counter() - first
        send({"done": True})
        final = receive()
        p.peak_rss_mb = final["peak_rss_mb"]
        p.trace = final["trace"]
        p.work_cal = final["work_cal"]
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    return p


# -- correctness --------------------------------------------------------------------

def load_expected(workload):
    with open(os.path.join(HERE, "expected", workload + ".json")) as fh:
        return json.load(fh)


def known_facts(workload, req, outcome):
    "Hand-known properties of a verdict, independent of the pinned snapshot."
    kind = req["id"].split(":")[0]
    if workload == "catalog_sweep":
        out = outcome["output"]
        return (outcome["exit"] == 0 and out["all_match"]
                and all(r["observed"] == r["expected"] for r in out["records"]))
    if workload == "cqt_forms":
        status = {r["check"]: r["status"] for r in outcome}
        failed = [r for r in outcome if r["status"] == "fail"]
        if kind == "std" and req["entry"] in workloads.TENSOR_ENTRIES:
            return all(s == "pass" for s in status.values())
        if kind == "perturb":
            return bool(failed) and all(r.get("witness") for r in failed)
        return all(r.get("witness") for r in failed)
    if kind == "simples":
        return all(s.get("nonabelian") or s["trace_equals_closed"] for s in outcome)
    if kind == "tensor":
        return all(p["rule"] == p["decomposition"] for p in outcome)
    return True


def failures(workload, reqs, p, expected):
    "Ids of the requests that raised or whose verdict is not the expected one."
    bad = []
    for req in reqs:
        rid = req["id"]
        outcome = p.outcomes.get(rid)
        if (rid in p.errors or outcome != expected.get(rid)
                or not known_facts(workload, req, outcome)):
            bad.append(rid)
    return bad


# -- metrics ------------------------------------------------------------------------

def reference_times(phases):
    """Each phase's CPU time at the reference speed (see calibrate.py).

    A phase too short for a single chunk takes the mean speed of all chunks
    of the run.
    """
    pooled = calibrate.speed([c for ph in phases for c in ph["chunks"]])
    return [ph["cpu_s"] * (calibrate.speed(ph["chunks"]) or pooled) for ph in phases]


def end_to_end(passes, setups):
    """Medians over the passes (set-up: over the set-up samples).

    One set-up is too short for more than a few chunks, so set-up CPU time is
    rescaled by the mean speed over the chunks of all set-ups of the run.
    """
    setup_speed = calibrate.speed([c for p in setups for c in p.setup_cal["chunks"]])
    return {
        "work_s": (statistics.median(reference_times([p.work_cal for p in passes])), "s"),
        "max_request_s": (slowest(reference_times(p.request_cal) for p in passes), "s"),
        "setup_s": (statistics.median(p.setup_cal["cpu_s"] for p in setups) * setup_speed,
                    "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }


def slowest(per_pass):
    "The slowest request, by its median over the passes."
    return max(statistics.median(ts) for ts in zip(*per_pass))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced):
    t = traced.trace
    metrics = {}
    for layer in tracer.LAYERS + ("other",):
        metrics[layer + ".self_s"] = (t["self_s"][layer], "s")
    for name in tracer.COUNTS:
        metrics[name] = (t["counts"][name], "count")
    for name in tracer.TIMERS:
        metrics[name] = (t["timers"][name], "s")
    metrics["comodules.coalgebra_reuse_ratio"] = (
        _ratio(t["coalgebra_points"], t["counts"]["comodules.coalgebra_builds"]), "ratio")
    metrics["cqt.evaluated_ratio"] = (
        _ratio(t["checked"], t["counts"]["cqt.instances"]), "ratio")
    metrics["trace_overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return metrics


def metadata(workload, seed, trace):
    lines = 0
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                lines += sum(1 for _ in fh)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_lines": lines}


# -- the run --------------------------------------------------------------------------

def measure(workload, seed, seconds):
    "Untraced passes while the next is expected to end within `seconds`, plus set-up samples."
    reqs = workloads.requests(workload, seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, reqs, calibrated=True))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, reqs, setup_only=True, calibrated=True))
    return reqs, passes, setups


def trace_run(workload, seed):
    "An untraced and a traced pass of the same requests, and the per-layer metrics."
    reqs = workloads.requests(workload, seed)
    untraced = run_pass(workload, reqs)
    traced = run_pass(workload, reqs, trace=True)
    layer_sum = sum(traced.trace["self_s"].values())
    checks = {
        "traced_outcomes_equal_untraced": (traced.outcomes == untraced.outcomes
                                           and set(traced.errors) == set(untraced.errors)),
        "self_time_sum_matches_wall": (abs(layer_sum - traced.wall_s)
                                       <= SUM_TOLERANCE * traced.wall_s),
    }
    return reqs, [untraced, traced], per_layer(traced, untraced), checks


def write_trace(meta, traced, metrics, checks):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = []
    for p in traced.spans:
        rid = len(spans)
        spans.append({"id": rid, "name": p["id"], "start": p["start"], "end": p["end"],
                      "parent": None})
        for name, start, end in p["children"]:
            spans.append({"id": len(spans), "name": name, "start": start, "end": end,
                          "parent": rid})
    path = os.path.join(OUT_DIR, "trace-%s-seed%s.json" % (meta["workload"], meta["seed"]))
    with open(path, "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "checks": checks, "spans": spans}, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        raise BenchError("no library source at %s" % PKG)
    expected = load_expected(args.workload)
    meta = metadata(args.workload, args.seed, args.trace)

    if args.trace:
        reqs, passes, metrics, checks = trace_run(args.workload, args.seed)
        meta["traced_wall_s"] = passes[1].wall_s
        meta["self_time_sum_s"] = sum(passes[1].trace["self_s"].values())
        meta["trace_file"] = os.path.relpath(
            write_trace(meta, passes[1], metrics, checks), ROOT)
    else:
        reqs, passes, setups = measure(args.workload, args.seed, args.seconds)
        metrics = end_to_end(passes, setups)
        checks = {}
        meta["max_request_wall_s"] = slowest(p.request_s for p in passes)
        meta["wall_s"] = statistics.median(p.wall_s for p in passes)
        meta["setup_wall_s"] = statistics.median(p.setup_s for p in setups)
        chunks = [c for p in passes for c in p.work_cal["chunks"]]
        meta["speed"] = calibrate.speed(chunks)
        meta["chunks"] = len(chunks)
        meta["passes"] = len(passes)
        meta["setup_samples"] = len(setups)

    attempted = failed = 0
    for p in passes:
        bad = failures(args.workload, reqs, p, expected)
        attempted += len(reqs)
        failed += len(bad)
        for rid in bad[:5]:
            print("MISMATCH %s: %s" % (rid, p.errors.get(
                rid, "verdict differs from the pinned record or a known fact")))
    checks["fresh_workers"] = all(p.fresh for p in passes)
    meta["failed_frac"] = failed / attempted
    correct = failed == 0 and all(checks.values())

    print("meta " + json.dumps(meta, sort_keys=True))
    print("checks " + json.dumps(checks, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (name, value, unit))
    if "wall_s" in meta:
        for name in ("wall_s", "max_request_wall_s", "setup_wall_s"):
            print("%-34s %14.6f s (not gated)" % (name, meta[name]))
    print("%-34s %14.6f ratio (%d of %d requests; not gated)"
          % ("failed_frac", meta["failed_frac"], failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        sys.exit(2)
