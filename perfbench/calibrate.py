"""Machine speed measured inside a worker, interleaved with the work it times.

On a shared host the same request can take twice as long from one minute to
the next: the virtual CPU runs slower while neighbours load the host, which
neither steal time nor CPU time shows.  So every measuring worker runs a
fixed reference chunk of pure-Python work (Fraction arithmetic, tuple keys,
dict updates: the kind of work the library does, but none of its code) on a
profiling timer, every INTERVAL_S of the worker's CPU time.  The chunks are
spread evenly over the CPU time the worker spends, so the mean of
REF_CHUNK_S / chunk time is the machine's mean speed over exactly that work,
relative to the speed at which a chunk takes REF_CHUNK_S.

A phase's reference time is (its CPU time - the chunks' CPU time) * that mean
speed: the CPU seconds the phase would have taken on the reference machine.
A change in the library moves it; a change in the host's load mostly does not.

CPU time is the main thread's (the worker has no other): while a profiling
timer runs, Linux reads the process CPU clock from a counter that advances
only every few milliseconds, so a 0.4 ms chunk would often read 0.
"""

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# CPU seconds one chunk takes at the reference speed: the median chunk on the
# 2-vCPU Xeon VM the benchmark was tuned on, while it was unloaded.
REF_CHUNK_S = 0.0004


def chunk():
    "The reference work: fixed, deterministic, independent of hopfcqt."
    acc = Fraction(0)
    table = {}
    for i in range(1, 41):
        acc += Fraction(i, 7) * Fraction(3, i + 2)
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + acc.denominator % 11
    return acc, table


class Calibrator:
    "Runs `chunk` on SIGPROF and records the CPU time of each run."

    clock = staticmethod(time.thread_time)

    def __init__(self):
        self.chunks = []

    def _on_signal(self, signum, frame):
        # No garbage collection inside a chunk: its cost grows with the
        # library's heap, and the chunk must measure the machine only.
        enabled = gc.isenabled()
        gc.disable()
        start = self.clock()
        chunk()
        self.chunks.append(self.clock() - start)
        if enabled:
            gc.enable()

    def start(self):
        chunk()  # warm up: the first call pays for allocations a later one reuses
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        "The start of a phase, for `phase`."
        return self.clock(), len(self.chunks)

    def phase(self, mark):
        "CPU time since `mark` minus the chunks', and the chunks' own times."
        since_cpu, since_chunk = mark
        cpu = self.clock() - since_cpu
        chunks = self.chunks[since_chunk:]
        return {"cpu_s": cpu - sum(chunks), "chunks": chunks}


def speed(chunks):
    "Mean speed relative to the reference over the chunks; None if there are none."
    if not chunks:
        return None
    return sum(REF_CHUNK_S / c for c in chunks) / len(chunks)
