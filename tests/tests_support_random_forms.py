"""Shared generator of random candidate R forms on small trivial contexts."""

import random

from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, eps_tensor_eps, verify_R, z2_r11_solve
from hopfcqt.groups import cyclic_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, rational


def _trivial_context(n_g, n_f):
    G = cyclic_group(n_g)
    F = cyclic_group(n_f, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp))


def _pullback_sign_rform(H):
    T = z2_r11_solve()[1]["table"]
    entries = {}
    for xn in ("1", "g"):
        for yn in ("1", "g"):
            for f in H.F.elements():
                for fp in H.F.elements():
                    entries[((H.G.parse(xn), f), (H.G.parse(yn), fp))] = T[(xn, yn)]
    return RForm(H, entries)


def random_form_trials(seed, trials, check):
    """Sample candidate forms; for each one passing CQT0-CQT3, assert check(R).

    Returns the number of passing forms so callers can assert non-vacuity.
    """
    rng = random.Random(seed)
    values = [ZERO, ZERO, ONE, MINUS_ONE, rational(1, 2), rational(-1, 2)]
    contexts = [_trivial_context(2, 2), _trivial_context(2, 3), _trivial_context(3, 2)]
    passing = 0
    for _ in range(trials):
        H = rng.choice(contexts)
        keys = [(g, f) for g in H.G.elements() for f in H.F.elements()]
        style = rng.random()
        if style < 0.35:
            R = eps_tensor_eps(H)
        elif style < 0.55 and H.G.order() == 2:
            R = _pullback_sign_rform(H)
        else:
            entries = {}
            for _ in range(rng.randrange(1, 6)):
                entries[(rng.choice(keys), rng.choice(keys))] = rng.choice(values)
            R = RForm(H, entries)
        if rng.random() < 0.4:
            R = R.perturbed(rng.choice(keys), rng.choice(keys), rng.choice(values))
        if all_passed(verify_R(R, (0, 1, 2, 3))):
            passing += 1
            assert check(R)
    return passing
