"""Per-layer tracing inside a worker, attached from outside the library.

Two instruments, both installed only in a traced worker:

* wrappers around chosen library functions count calls exactly and time a
  few of them inclusively (outermost call only, so recursion is not counted
  twice);
* a sampling clock (SIGALRM every SAMPLE_INTERVAL_S of wall time) charges the
  wall time since the previous sample to the source module that is running
  when the sample fires.  Builtins are charged to the Python module that
  called them; `fractions` is charged to `scalars`; the rest of the standard
  library and the benchmark's own worker and wrapper code are `other`.

A deterministic profiler (cProfile) would give exact self times too, but it
slows this code about fourfold, and a traced catalog_sweep pass would then
no longer fit in one run.
"""

import os
import signal
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.001

LAYERS = ("scalars", "groups", "matched_pair", "cocycles", "hopf", "comodules",
          "grothendieck", "cqt", "catalog", "cli")
# library module -> layer; modules not listed here are charged to `other`
_MODULE_LAYER = {name: name for name in LAYERS}
_MODULE_LAYER["serialize"] = _MODULE_LAYER["reports"] = "cli"

CATALOG_CHECKS = ("matched-pair", "cocycles", "hopf-axioms", "orbit-commutation",
                  "dual-orbit-commutation", "necessary-battery", "gr-commutation",
                  "z2-table", "z2-s-abelian")
CQT_LEVELS = {0: "CQT0", 1: "CQT1", 2: "CQT2", 3: "CQT3", 4: "CQT4", "inv": "inv"}

COUNTS = ("scalars.mul_calls", "scalars.reduce_calls", "scalars.fraction_allocs",
          "groups.element_allocs", "groups.member_checks",
          "matched_pair.action_calls", "matched_pair.fold_calls",
          "matched_pair.orbit_builds", "cocycles.lookup_calls",
          "hopf.basis_product_calls", "hopf.basis_coproduct_calls",
          "comodules.coalgebra_builds", "grothendieck.decompose_calls",
          "cqt.rvalue_lookups", "cqt.instances")
TIMERS = (("scalars.solve_linear_s", "comodules.coalgebra_s", "grothendieck.decompose_s")
          + tuple("cqt.%s_s" % v for v in CQT_LEVELS.values())
          + ("cqt.battery_s",)
          + tuple("catalog.%s_s" % c for c in CATALOG_CHECKS))


def _library_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "hopfcqt" or n.startswith("hopfcqt."))]


class Tracer:
    "Counters, inclusive timers and sampled self time for one traced pass."

    def __init__(self):
        self.counts = {name: 0 for name in COUNTS}
        self.timers = {name: 0.0 for name in TIMERS}
        self.self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
        self.checked = 0
        self.coalgebra_points = set()
        self._layer_cache = {}
        self._last = None
        self._pkg_dir = None

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timer(self, name, fn, after=None):
        timers, clock, depth = self.timers, time.perf_counter, [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                timers[name] += clock() - start
                depth[0] -= 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    @staticmethod
    def _replace_function(orig, wrapper):
        "Point every library module's reference to `orig` at `wrapper`."
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def install(self):
        "Wrap the counted and timed functions; call after `import hopfcqt`."
        from hopfcqt import catalog, cocycles, comodules, cqt, groups, grothendieck
        from hopfcqt import hopf, matched_pair, scalars

        self._pkg_dir = os.path.dirname(os.path.abspath(scalars.__file__))
        count, timer = self._counter, self._timer

        mul = count("scalars.mul_calls", scalars.Scalar.__mul__)
        scalars.Scalar.__mul__ = scalars.Scalar.__rmul__ = mul
        self._replace_function(scalars._reduce_mod_cyclotomic,
                               count("scalars.reduce_calls", scalars._reduce_mod_cyclotomic))
        Fraction.__new__ = staticmethod(count("scalars.fraction_allocs", Fraction.__new__))
        self._replace_function(scalars.solve_linear,
                               timer("scalars.solve_linear_s", scalars.solve_linear))

        groups.GroupElement.__init__ = count("groups.element_allocs",
                                             groups.GroupElement.__init__)
        groups.Group._member = count("groups.member_checks", groups.Group._member)

        MP = matched_pair.MatchedPair
        MP.act_left = count("matched_pair.action_calls", MP.act_left)
        MP.act_right = count("matched_pair.action_calls", MP.act_right)
        MP._fold = count("matched_pair.fold_calls", MP._fold)
        matched_pair.OrbitData.__init__ = count("matched_pair.orbit_builds",
                                                matched_pair.OrbitData.__init__)

        CP = cocycles.CocyclePair
        CP.sigma = count("cocycles.lookup_calls", CP.sigma)
        CP.tau = count("cocycles.lookup_calls", CP.tau)

        self._replace_function(hopf._basis_product,
                               count("hopf.basis_product_calls", hopf._basis_product))
        self._replace_function(hopf._basis_coproduct,
                               count("hopf.basis_coproduct_calls", hopf._basis_coproduct))

        def note_point(args, result):
            coalgebra = args[0]
            self.coalgebra_points.add((id(coalgebra.H), coalgebra.f.key))
        TC = comodules.TwistedCoalgebra
        TC.__init__ = count("comodules.coalgebra_builds",
                            timer("comodules.coalgebra_s", TC.__init__, after=note_point))

        self._replace_function(grothendieck.decompose, count(
            "grothendieck.decompose_calls",
            timer("grothendieck.decompose_s", grothendieck.decompose)))

        cqt.RForm.try_value = count("cqt.rvalue_lookups", cqt.RForm.try_value)

        def note_instances(args, report):
            self.counts["cqt.instances"] += report.checked + report.unevaluated
            self.checked += report.checked
        for level, fn in list(cqt._LEVELS.items()):
            cqt._LEVELS[level] = timer("cqt.%s_s" % CQT_LEVELS[level], fn,
                                       after=note_instances)
        self._replace_function(cqt.necessary_battery,
                               timer("cqt.battery_s", cqt.necessary_battery))

        for check, fn in list(catalog.CHECKS.items()):
            catalog.CHECKS[check] = timer("catalog.%s_s" % check, fn)

    # -- sampling ------------------------------------------------------------

    def _layer_of(self, filename):
        layer = self._layer_cache.get(filename)
        if layer is None:
            directory, base = os.path.split(os.path.abspath(filename))
            stem = os.path.splitext(base)[0]
            if directory == self._pkg_dir:
                layer = _MODULE_LAYER.get(stem, "other")
            elif base == "fractions.py":
                layer = "scalars"
            else:
                layer = "other"
            self._layer_cache[filename] = layer
        return layer

    def _on_sample(self, signum, frame):
        now = time.perf_counter()
        layer = self._layer_of(frame.f_code.co_filename) if frame is not None else "other"
        self.self_s[layer] += now - self._last
        self._last = now

    def start_sampling(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampling(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.self_s["other"] += time.perf_counter() - self._last

    # -- results -------------------------------------------------------------

    def results(self):
        "Plain-JSON per-layer results of the pass."
        return {"counts": self.counts, "timers": self.timers, "self_s": self.self_s,
                "checked": self.checked,
                "coalgebra_points": len(self.coalgebra_points)}
