"""The three benchmark workloads: request lists and how a worker executes them.

A request is a small JSON-able dict with a unique "id".  The driver draws the
request list from the seed (`requests`) and sends each one to a worker, which
builds every context and form the list needs up front (`Workload.setup`) and
then answers one request at a time (`Workload.handle`).  Every outcome is
plain JSON, so it can be compared with the pinned records in `expected/`.

Only `Workload` imports hopfcqt; the driver side (`requests`, `universe`)
needs no library code.
"""

import contextlib
import io
import json
import random

WORKLOADS = ("catalog_sweep", "cqt_forms", "characters")

CATALOG_ENTRIES = ("Q8_Dinf", "Q8_Z", "S3_Z2", "Z2_Dinf", "Z2_Z", "Z2_Z2_tau",
                   "Z2_Z2_trivial", "Z2_Z2xZ_central", "Z2_Z3_trivial", "Z3_Dinf",
                   "Z3_Z", "Z3_Z2_trivial", "Z3_Z3_trivial")

ALL_LEVELS = [0, 1, 2, 3, 4, "inv"]
PERTURB_LEVELS = [0, 1, 2, 3]
TENSOR_ENTRIES = ("Z2_Z2_trivial", "Z2_Z3_trivial", "Z3_Z2_trivial", "Z3_Z3_trivial")
# Passing forms whose every single-entry perturbation fails, with their number
# of basis keys (|G| * |F|); a perturbation is addressed by two key indices.
PERTURBABLE = {"std:Z2_Z2_trivial": 4, "std:Z2_Z3_trivial": 6,
               "std:Z3_Z2_trivial": 6, "std:Z3_Z3_trivial": 9}
# Perturbations the seed draws from each form: about 57% of each, so that the
# mix of forms, which costs from 3 ms (Z2_Z2) to 26 ms (Z3_Z3) a request, and
# with it the pass's total work, is the same for every seed.
PERTURB_SAMPLE = {"std:Z2_Z2_trivial": 9, "std:Z2_Z3_trivial": 21,
                  "std:Z3_Z2_trivial": 21, "std:Z3_Z3_trivial": 46}

CHAR_ENTRIES = ("Z3_Z", "Z3_Dinf", "Z2_Dinf", "Z2_Z2xZ_central")
CHAR_WINDOW = 20
# |G| = 2 entries whose label products and character ring are swept, with the
# label window of each (Z2_Z2_tau has finite F, so its window is all of F).
LABEL_ENTRIES = {"Z2_Z": 8, "Z2_Z2_tau": 1, "Z2_Dinf": 3, "Z2_Z2xZ_central": 3}


def _fixed_requests(workload):
    if workload == "catalog_sweep":
        return [{"id": "run:" + e, "entry": e} for e in CATALOG_ENTRIES]
    if workload == "cqt_forms":
        reqs = [{"id": "std:" + e, "entry": e, "levels": ALL_LEVELS}
                for e in TENSOR_ENTRIES + ("S3_Z2", "Z2_Z2_tau")]
        reqs += [{"id": "std2:" + e, "entry": e, "levels": ALL_LEVELS, "qbound": 2}
                 for e in ("Z2_Z", "Z2_Z2xZ_central")]
        reqs += [{"id": "r11:%d" % k, "case": k, "levels": ALL_LEVELS} for k in (0, 1)]
        reqs.append({"id": "zeta3:Z3_Z3_trivial", "entry": "Z3_Z3_trivial",
                     "levels": ALL_LEVELS})
        return reqs
    if workload == "characters":
        reqs = [{"id": "simples:%s" % e, "entry": e, "window": CHAR_WINDOW}
                for e in CHAR_ENTRIES]
        for e, bound in sorted(LABEL_ENTRIES.items()):
            reqs.append({"id": "tensor:%s" % e, "entry": e, "bound": bound})
            reqs.append({"id": "commute:%s" % e, "entry": e, "bound": bound})
        return reqs
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))


def _perturbations(form):
    n = PERTURBABLE[form]
    return [{"id": "perturb:%s:%d:%d" % (form, i, j), "form": form, "keys": [i, j],
             "levels": PERTURB_LEVELS}
            for i in range(n) for j in range(n)]


def universe(workload):
    "Every request any seed can produce for the workload."
    reqs = _fixed_requests(workload)
    if workload == "cqt_forms":
        for form in sorted(PERTURBABLE):
            reqs += _perturbations(form)
    return reqs


def requests(workload, seed):
    "The seeded request list: the fixed requests plus samples, in seeded order."
    rng = random.Random(seed)
    reqs = _fixed_requests(workload)
    if workload == "cqt_forms":
        for form in sorted(PERTURBABLE):
            reqs += rng.sample(_perturbations(form), PERTURB_SAMPLE[form])
    rng.shuffle(reqs)
    return reqs


def reports_json(reports):
    return [r.to_json() for r in reports]


class Workload:
    """Worker-side state for one request list: built in `setup`, used by `handle`.

    When `spans` is set (a traced pass), every call into a layer's public
    function is recorded on it as a child span of the current request.
    """

    def __init__(self, workload, reqs):
        self.workload = workload
        self.reqs = reqs
        self.inputs = {}
        self.spans = None

    # -- setup: contexts and candidate forms -------------------------------

    def setup(self):
        import hopfcqt  # noqa: F401  (the import is part of set-up time)
        build = getattr(self, "_setup_" + self.workload)
        for req in self.reqs:
            self.inputs[req["id"]] = build(req)

    def _setup_catalog_sweep(self, req):
        from hopfcqt.catalog import get_entry
        get_entry(req["entry"]).context()
        return ["run", "--entry", req["entry"], "--json"]

    def _setup_cqt_forms(self, req):
        from hopfcqt.catalog import get_entry
        from hopfcqt.cqt import eps_tensor_eps
        kind = req["id"].split(":")[0]
        if kind == "std":
            return eps_tensor_eps(get_entry(req["entry"]).context())
        if kind == "std2":
            return eps_tensor_eps(get_entry(req["entry"]).context(), window=2)
        if kind == "r11":
            return self._r11_form(req["case"])
        if kind == "zeta3":
            return self._zeta3_form(get_entry(req["entry"]).context())
        return self._perturbed_form(req)

    def _r11_form(self, case):
        from hopfcqt.cocycles import CocyclePair
        from hopfcqt.cqt import z2_r11_rform, z2_r11_solve
        from hopfcqt.groups import cyclic_group
        from hopfcqt.hopf import HopfAlgebra
        from hopfcqt.matched_pair import MatchedPair
        mp = MatchedPair.from_functions(cyclic_group(2), cyclic_group(1),
                                        left=lambda g, f: f, right=lambda g, f: g)
        H = HopfAlgebra(CocyclePair.trivial(mp), "Z2_trivial_F")
        return z2_r11_rform(H, z2_r11_solve()[case])

    def _zeta3_form(self, H):
        "R(p_1 # t^a, p_1 # t^b) = zeta_3^(ab): a bicharacter on the F factor."
        from hopfcqt.cqt import RForm
        from hopfcqt.scalars import root_of_unity
        fs = H.F.elements()
        one = H.G.one
        entries = {((one, f), (one, fp)): root_of_unity(3, a * b)
                   for a, f in enumerate(fs) for b, fp in enumerate(fs)}
        return RForm(H, entries)

    def _perturbed_form(self, req):
        from hopfcqt.catalog import get_entry
        from hopfcqt.cqt import eps_tensor_eps
        from hopfcqt.scalars import ONE
        H = get_entry(req["form"].split(":")[1]).context()
        R = eps_tensor_eps(H)
        keys = [(g, f) for g in H.G.elements() for f in H.F.elements()]
        if len(keys) != PERTURBABLE[req["form"]]:
            raise ValueError("%s has %d basis keys" % (req["form"], len(keys)))
        k1, k2 = (keys[i] for i in req["keys"])
        return R.perturbed(k1, k2, R.try_value(k1, k2) + ONE)

    def _setup_characters(self, req):
        from hopfcqt.catalog import get_entry
        from hopfcqt.grothendieck import Z2Simples
        H = get_entry(req["entry"]).context()
        kind = req["id"].split(":")[0]
        if kind == "simples":
            return H, H.mp.window(req["window"])
        simples = Z2Simples(H)
        return simples, simples.labels(req["bound"])

    # -- requests ----------------------------------------------------------

    def _call(self, name, fn, *args):
        "Call into a layer's public function, recording a span when tracing."
        if self.spans is None:
            return fn(*args)
        start = self.spans.clock()
        try:
            return fn(*args)
        finally:
            self.spans.child(name, start)

    def handle(self, req):
        return getattr(self, "_handle_" + self.workload)(req, self.inputs[req["id"]])

    def _handle_catalog_sweep(self, req, argv):
        from hopfcqt import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._call("cli.main", cli.main, argv)
        return {"exit": code, "output": json.loads(out.getvalue())}

    def _handle_cqt_forms(self, req, R):
        from hopfcqt.cqt import verify_R
        return reports_json(self._call("cqt.verify_R", verify_R, R, req["levels"],
                                       req.get("qbound")))

    def _handle_characters(self, req, data):
        return getattr(self, "_char_" + req["id"].split(":")[0])(*data)

    def _char_simples(self, H, base_points):
        from hopfcqt.comodules import (TwistedCoalgebra, character, enumerate_onedim,
                                       induce)
        from hopfcqt.errors import NonAbelianStabilizer
        out = []
        for f in base_points:
            C = self._call("comodules.TwistedCoalgebra", TwistedCoalgebra, H, f)
            try:
                simples = self._call("comodules.enumerate_onedim", enumerate_onedim, C)
            except NonAbelianStabilizer:
                out.append({"f": str(f), "nonabelian": True})
                continue
            for V in simples:
                W = self._call("comodules.induce", induce, V)
                reports = self._call("comodules.InducedComodule.verify", W.verify)
                by_trace = self._call("comodules.InducedComodule.character_by_trace",
                                      W.character_by_trace)
                closed = self._call("comodules.character", character, V).element
                out.append({"f": str(f), "dim": W.dim, "verify": reports_json(reports),
                            "trace_equals_closed": by_trace == closed,
                            "character": repr(closed)})
        return out

    def _char_tensor(self, simples, labels):
        out = []
        for l1 in labels:
            for l2 in labels:
                rule = self._call("grothendieck.Z2Simples.tensor_rule",
                                  simples.tensor_rule, l1, l2)
                pipe = self._call("grothendieck.Z2Simples.tensor_by_decomposition",
                                  simples.tensor_by_decomposition, l1, l2)
                out.append({"pair": [repr(l1), repr(l2)],
                            "rule": sorted(repr(x) for x in rule),
                            "decomposition": sorted(repr(x) for x in pipe)})
        return out

    def _char_commute(self, simples, labels):
        from hopfcqt.grothendieck import character_commutation_sweep
        chars = [self._call("grothendieck.Z2Simples.character", simples.character, l)
                 for l in labels]
        return self._call("grothendieck.character_commutation_sweep",
                          character_commutation_sweep, chars).to_json()
