"""Write the pinned expected records: perfbench/expected/<workload>.json.

    python3 perfbench/pin.py [workload ...]

Runs every request any seed can produce (workloads.universe) once in a fresh
worker and stores each verdict: report status, witness, `checked` and
`unevaluated` (for catalog_sweep, the whole `run --json` output and exit
code).  The records in the repository were taken from the seed code; rewrite
them only when a verdict is meant to change, and say so in the change.
"""

import json
import os
import sys

import run
import workloads


def pin(workload):
    reqs = workloads.universe(workload)
    p = run.run_pass(workload, reqs)
    if p.errors:
        raise SystemExit("requests raised: %s" % ", ".join(sorted(p.errors)))
    wrong = [r["id"] for r in reqs if not run.known_facts(workload, r, p.outcomes[r["id"]])]
    if wrong:
        raise SystemExit("verdicts contradict known facts: %s" % ", ".join(wrong))
    path = os.path.join(run.HERE, "expected", workload + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(p.outcomes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%s: %d records -> %s" % (workload, len(p.outcomes), path))


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        pin(name)
