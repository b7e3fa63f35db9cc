"""One benchmark worker: a fresh process that serves one pass of one workload.

Protocol: JSON lines on stdin/stdout.

    driver -> {"workload": w, "requests": [...], "trace": bool, "setup_only": bool}
    worker -> {"ready": true, "pid": ..., "fresh": bool, "setup_cal": ...}  after set-up
    driver -> {"i": k}                                         one request
    worker -> {"outcome": ..., "cal": ...} or {"error": "...", "cal": ...}
                                                  (+ "spans" when tracing)
    driver -> {"done": true}
    worker -> {"peak_rss_mb": ..., "trace": {...}, "work_cal": ...}  then exits

Started as `worker.py --calibrate`, the worker runs calibrate.chunk on a
profiling timer from its first line on, and reports each phase's CPU time
and chunk times: `setup_cal` from process start to ready, `cal` for one
request, `work_cal` from the first request to the last reply.  Otherwise all
three are null.

The library's own prints go to stderr, so fd 1 carries only the protocol.
"""

import json
import os
import sys
import time
import traceback

import calibrate
import workloads


class Spans:
    "Child spans around the calls the worker makes into a layer's public function."

    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.current = []

    def child(self, name, start):
        self.current.append([name, start, self.clock()])

    def take(self):
        spans, self.current = self.current, []
        return spans


def _peak_rss_mb():
    """Peak resident memory of this process since its exec (Linux VmHWM).

    getrusage's ru_maxrss is not used: across fork and exec it keeps the
    parent's high-water mark, which here is the driver's and grows with
    every pass.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fresh_state():
    "True when no catalog context exists yet in this process."
    from hopfcqt import catalog
    return all(entry._context is None for entry in catalog._ENTRIES.values())


def send(obj):
    """Write one protocol line to fd 1.

    A plain os.write loop, not sys.stdout: with the sampling signal firing,
    large replies written through a buffered stream hung on CPython 3.11.
    """
    view = memoryview((json.dumps(obj) + "\n").encode())
    while view:
        view = view[os.write(1, view):]


def receive():
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("driver closed the pipe")
    return json.loads(line)


def main():
    cal = None
    if "--calibrate" in sys.argv[1:]:
        cal = calibrate.Calibrator()
        cal.start()
    sys.stdout = sys.stderr

    start = receive()
    reqs = start["requests"]
    fresh = _fresh_state()
    work = workloads.Workload(start["workload"], reqs)
    work.setup()
    tracer = None
    if start["trace"] and not start["setup_only"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        work.spans = Spans()
    send({"ready": True, "pid": os.getpid(), "fresh": fresh,
          "setup_cal": cal.phase((0.0, 0)) if cal is not None else None})

    if tracer is not None:
        tracer.start_sampling()
    work_start = None
    while True:
        msg = receive()
        if work_start is None and cal is not None:
            work_start = cal.mark()
        if msg.get("done"):
            break
        request_start = cal.mark() if cal is not None else None
        try:
            reply = {"outcome": work.handle(reqs[msg["i"]])}
        except Exception:
            reply = {"error": traceback.format_exc(limit=3)}
        reply["cal"] = cal.phase(request_start) if cal is not None else None
        if work.spans is not None:
            reply["spans"] = work.spans.take()
        send(reply)
    if tracer is not None:
        tracer.stop_sampling()

    work_cal = None
    if cal is not None:
        work_cal = cal.phase(work_start)
        cal.stop()
    send({"peak_rss_mb": _peak_rss_mb(),
          "trace": tracer.results() if tracer is not None else None,
          "work_cal": work_cal})


if __name__ == "__main__":
    main()
