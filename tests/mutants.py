"""A register of source mutants and the tests that notice them.

Each entry names a file under src/hopfcqt, an exact `old` snippet that
occurs there once, the `new` text that replaces it, and the pytest node ids
to run on the mutant.  A mutant without `survives` must fail at least one of
its node ids (it is killed); a mutant with `survives` gives the reason no
test notices it, and must pass all of its node ids.

    python tests/mutants.py

applies each mutant to a temporary copy of src/ and runs its node ids there
with `pytest -x`.  It exits 1 when a killed mutant passes, when a survivor is
killed (a test improved: move the entry to killed), or when pytest cannot run
the node ids.  pytest does not collect this file; tests/test_mutants.py
checks in Tier-1 that every `old` snippet still occurs exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MUTANTS = [
    # -- killed ---------------------------------------------------------------
    dict(name="unit-right-first", file="hopf.py",
         old="""        return (combine((u, i, 1) for u in one) == a
                and combine((i, u, 1) for u in one) == a)""",
         new="""        return (combine((i, u, 1) for u in one) == a
                and combine((u, i, 1) for u in one) == a)""",
         tests=["tests/test_hopf.py::test_missing_key_pairs_raise_like_reference"
                "[Z2_Z2_trivial~19-2]"]),
    dict(name="antipode-early-return", file="hopf.py",
         old="""            sides.append(combine((j1, j2, c) for (j1, j2), c in acc.items() if c))
""",
         new="""            sides.append(combine((j1, j2, c) for (j1, j2), c in acc.items() if c))
            if sides[0] != target:
                return False
""",
         tests=["tests/test_hopf.py::test_antipode_sweep_computes_both_sides_before_comparing"]),
    dict(name="associativity-right-first", file="hopf.py",
         old="""            left = tm and tm[k]
            if left is None:
                left = product(ij[0], k)
            jk = tj[k]
            if jk is None:
                jk = product(j, k)
            right = jk and ti[jk[0]]
            if right is None:
                right = product(i, jk[0])
""",
         new="""            jk = tj[k]
            if jk is None:
                jk = product(j, k)
            right = jk and ti[jk[0]]
            if right is None:
                right = product(i, jk[0])
            left = tm and tm[k]
            if left is None:
                left = product(ij[0], k)
""",
         tests=["tests/test_hopf.py::test_missing_key_pairs_raise_like_reference[Z2_Dinf-1]"]),
    dict(name="bialgebra-break-on-mismatch", file="hopf.py",
         old="""                            ok = False
""",
         new="""                            ok = False
                            break
""",
         tests=["tests/test_hopf.py::test_missing_key_pairs_raise_like_reference"
                "[Z2_Z2_trivial~19-2]"]),
    dict(name="sparse-mul-keeps-zeros", file="comodules.py",
         old="""        acc = {c: v for c, v in acc.items() if v}
""",
         new="",
         tests=["tests/test_induced_sparse.py::test_two_dimensional_sources_match_dense_reference"
                "[conjugated]"]),
    dict(name="convolution-drops-coefficients", file="cqt.py",
         old="term(a1, a2, b1, b2, s * t)",
         new="term(a1, a2, b1, b2, 1)",
         tests=["tests/test_cqt_reference.py::test_tau_signs_enter_the_convolution_sums"]),
    dict(name="product-sets-witness-from-BA", file="matched_pair.py",
         old="for P, Q in ((AB, BA), (BA, AB))",
         new="for P, Q in ((BA, AB), (AB, BA))",
         tests=["tests/test_battery_tables.py::test_dual_orbit_witness_is_the_first_missing_product",
                "tests/test_matched_pair.py::test_orbit_product_commutation"]),
    dict(name="contexts-equal-always", file="serialize.py",
         old="""    if H1.G != H2.G or H1.F != H2.F:
        return False
    points""",
         new="""    return True
    points""",
         tests=["tests/test_serialize_cli.py::test_contexts_equal_sees_one_changed_value",
                "tests/test_serialize_cli.py::test_contexts_equal_sees_other_groups_and_the_window"]),
    dict(name="zn-truncates-n", file="groups.py",
         old="""json_int(desc["n"], "group.n")""",
         new="""int(desc["n"])""",
         tests=["tests/test_serialize_cli.py::test_non_integer_group_order_is_a_schema_error"]),
    dict(name="sweep-rows-checked-short", file="reports.py",
         old="checked + bad + 1", new="checked + bad",
         tests=["tests/test_reports.py::test_sweep_rows_reports_like_sweep_on_the_flattened_instances"]),
    dict(name="sigma-cocycle-hoisted", file="cocycles.py",
         old="""            s_h, s_g, s_p, m_fp = S[h][fp], S[g][f], S[g][p], M[fp]
""",
         new="""            s_h, s_g, s_p, m_fp = S[h][fp], S[g][f], S[g][p], M[fp]
            s_gfp = s_g[fp] or sig(g, f, fp)
""",
         tests=["tests/test_pair_sweeps.py::test_missing_key_pairs_raise_like_reference[Q8_Dinf-1]"]),
    dict(name="bialgebra-no-leg-count", file="hopf.py",
         old="if not ok or hits != len(lhs):", new="if not ok:",
         tests=["tests/test_hopf.py::test_sweep_matches_object_reference_off_a_matched_pair"]),
    dict(name="associativity-drops-sigma", file="hopf.py",
         old="ij[1] * left[1] != jk[1] * right[1]", new="left[1] != right[1]",
         tests=["tests/test_hopf.py::test_cyclotomic_sigma_context_passes_every_sweep"]),
    dict(name="cqt3-out-of-window-needs-all", file="cqt.py",
         old="if any(vals[p] is None for p in lreads):",
         new="if all(vals[p] is None for p in lreads):",
         tests=["tests/test_length_changing_action.py::"
                "test_cqt3_marks_only_the_component_that_reads_outside_the_window"]),
    dict(name="cqt3-drops-tau", file="cqt.py",
         old="""                st = s * t
""",
         new="""                st = 1
""",
         tests=["tests/test_cqt_reference.py::test_verify_R_agrees_with_the_definitions"
                "[eps+1a:K4_Z2_tau]"]),
    dict(name="parse-json-misses-recursion", file="serialize.py",
         old="except (ValueError, RecursionError) as e:", new="except ValueError as e:",
         tests=["tests/test_cli_boundary.py::test_unreadable_or_invalid_json_file_exits_2"
                "[deep-json-input]"]),
    dict(name="load-json-misses-oserror", file="serialize.py",
         old="except (OSError, UnicodeDecodeError) as e:", new="except UnicodeDecodeError as e:",
         tests=["tests/test_cli_boundary.py::test_unreadable_or_invalid_json_file_exits_2"
                "[missing-input]"]),
    dict(name="orbit-data-reads-x-not-x-inverse", file="matched_pair.py",
         old="image[G.inv(x).key]", new="image[x.key]",
         tests=["tests/test_matched_pair.py::test_orbit_data_matches_its_definition[S3_K4]"]),
    dict(name="noncommuting-pair-b-major", file="groups.py",
         old="for a in elements for b in elements", new="for b in elements for a in elements",
         tests=["tests/test_grothendieck.py::test_s_abelian_check"]),
    dict(name="hom-closure-skips-edge-check", file="groups.py",
         old="""        if any(C.mul(full[i], self.images[g]) != full[D.table[i][g]] for i in full for g in gens):
            raise InvalidHomomorphism("generator images are inconsistent")
""",
         new="",
         tests=["tests/test_groups.py::test_group_constructors_raise_library_errors"
                "[<lambda>-inconsistent]"]),

    # -- survivors --------------------------------------------------------------
    dict(name="battery-hits-fp-scans-orbit-of-fp", file="cqt.py",
         old="""        hits_fp = any(right(g, u) in stab_p for u in orbit_f)""",
         new="""        hits_fp = any(right(g, u) in stab_p for u in orbit_p)""",
         tests=["tests/test_battery_tables.py", "tests/test_cqt.py"],
         survives="stabilizer-action-constraint gives the same reports on every catalog "
                  "context and on every exact factorization of S4 and S5 tried"),
    dict(name="battery-moved-by-z", file="cqt.py",
         old="""        return zgz, right(zgz, left(zi, f))""",
         new="""        return zgz, right(zgz, left(z, f))""",
         tests=["tests/test_battery_tables.py", "tests/test_cqt.py"],
         survives="z |> f and z^-1 |> f lie in one orbit, and no tested context has a "
                  "character that tells them apart; needs characters over nonabelian "
                  "stabilizers"),
    dict(name="compatibility-tau-hoisted", file="cocycles.py",
         old="""            m_f, l_v = M[f], L[v]
            for n, fp in enumerate(fps):""",
         new="""            m_f, l_v = M[f], L[v]
            t_gf = t_g[f] or tau(g, gp, f)
            for n, fp in enumerate(fps):""",
         tests=["tests/test_pair_sweeps.py"],
         survives="equivalent: tau-cocycle runs first and reaches every window tau, so "
                  "reading tau(g, g'; f) before the row changes no lookup order"),
    dict(name="bialgebra-legs-before-product-coproduct", file="hopf.py",
         old="""            lhs = {}
            if ij:
                lhs = deltas.get(ij[0])
                if lhs is None:
                    lhs = deltas[ij[0]] = {(k1, k2): t for k1, k2, t in coproduct(ij[0])}
            if legs is None:
                legs = [(rkey[k1], table[k1], table[k2], k1, k2, c) for k1, k2, c in coproduct(i)]
""",
         new="""            if legs is None:
                legs = [(rkey[k1], table[k1], table[k2], k1, k2, c) for k1, k2, c in coproduct(i)]
            lhs = {}
            if ij:
                lhs = deltas.get(ij[0])
                if lhs is None:
                    lhs = deltas[ij[0]] = {(k1, k2): t for k1, k2, t in coproduct(ij[0])}
""",
         tests=["tests/test_hopf.py::test_missing_key_pairs_raise_like_reference",
                "tests/test_hopf.py::test_missing_entry_raises_like_reference"],
         survives="equivalent: coassociativity memoizes every window coproduct unless it "
                  "fails at once, and then bialgebra-compatibility fails in its first row"),
]


def mutate(src_dir, mutant):
    "Apply mutant to the copy of src/ at src_dir."
    path = Path(src_dir) / "hopfcqt" / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit("%s: `old` occurs %d times in %s" % (mutant["name"], count,
                                                              mutant["file"]))
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def run(mutant):
    "pytest's exit code for the mutant's node ids, run against a mutated copy of src/."
    with tempfile.TemporaryDirectory(prefix="hopfcqt-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, mutant)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *mutant["tests"]]
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main():
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        expected = "survives" if mutant.get("survives") else "killed"
        # pytest: 0 all passed, 1 some test failed, anything else could not run them
        observed = {0: "survives", 1: "killed"}.get(code, "error (pytest exit %d)" % code)
        ok = observed == expected
        bad += not ok
        print("%-4s %-42s expected %-8s observed %-8s %5.1f s"
              % ("ok" if ok else "FAIL", mutant["name"], expected, observed,
                 time.perf_counter() - start), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
