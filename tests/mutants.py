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
    dict(name="sparse-scale-skips-every-s", file="comodules.py",
         old="""    if s == 1:
        return A
""",
         new="""    return A
""",
         tests=["tests/test_induced_sparse.py::test_twisted_sources_match_dense_reference"]),
    dict(name="induce-drops-tau-inverse", file="comodules.py",
         old="""                if t != 1:
                    coeff = coeff * bare_inverse(t)
                if entries[gxi]:""",
         new="""                if entries[gxi]:""",
         tests=["tests/test_induced_sparse.py::test_twisted_sources_match_dense_reference"]),
    dict(name="induced-verify-reads-tau-at-hg", file="comodules.py",
         old="tau[g][h][v] or fill_tau(g, h, v)",
         new="tau[h][g][v] or fill_tau(h, g, v)",
         tests=["tests/test_induced_sparse.py::test_twisted_sources_match_dense_reference"]),
    dict(name="induce-reads-image-at-z", file="comodules.py",
         old="ftarget = od.images[zinv]",
         new="ftarget = od.images[z]",
         tests=["tests/test_induced_sparse.py::test_three_point_orbits_match_dense_reference"]),
    dict(name="coalgebra-reads-tau-at-ba", file="comodules.py",
         old="return P.tau[a][b][fi] or P.fill_tau(a, b, fi)",
         new="return P.tau[b][a][fi] or P.fill_tau(b, a, fi)",
         tests=["tests/test_comodules.py::test_twisted_tau_matches_cocycle_pair",
                "tests/test_induced_sparse.py::test_twisted_sources_match_dense_reference"]),
    dict(name="coalgebra-reads-tau-at-unit-point", file="comodules.py",
         old="self._fi = self.P.fid(f)",
         new="self._fi = self.P.fid(H.F.one)",
         tests=["tests/test_comodules.py::test_twisted_delta_sign_twist"]),
    dict(name="coalgebra-delta-left-leg-x-inverse-g", file="comodules.py",
         old="gx = row[ginv[x]]", new="gx = P.gmul[ginv[x]][P.gid[g.key]]",
         tests=["tests/test_comodules.py::test_twisted_delta_on_a_nonabelian_stabilizer"]),
    dict(name="decompose-skips-rationality-test", file="grothendieck.py",
         old="""            if not q.is_rational():
                raise NonIntegralMultiplicity("non-rational multiplicity %r" % q)
""",
         new="",
         tests=["tests/test_grothendieck.py::"
                "test_decompose_reads_a_rational_scalar_multiplicity"]),
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
    dict(name="sweep-rows-counts-unevaluated-as-checked", file="reports.py",
         old="checked += len(items) - skipped", new="checked += len(items)",
         tests=["tests/test_reports.py::test_sweep_rows_reports_like_sweep_on_the_flattened_instances"]),
    dict(name="cqt1-ignores-out-of-window-r-a2-b", file="cqt.py",
         old="""                v, w = r1[c], r2[b]
                if v is None or w is None:""",
         new="""                v, w = r1[c], r2[b]
                if v is None:""",
         tests=["tests/test_cqt_row_kernels.py::test_standard_forms_at_windows[1-Z2_Z]"]),
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
    dict(name="bialgebra-indexes-empty-coproduct", file="hopf.py",
         old="""                    if lhs:
                        m1, m2, t = lhs[x]
                        if (m1 != left[0] or m2 != right[0]
                                or c * d * left[1] * right[1] != ij[1] * t):
                            ok = False
""",
         new="""                    m1, m2, t = lhs[x]
                    if (m1 != left[0] or m2 != right[0]
                            or c * d * left[1] * right[1] != ij[1] * t):
                        ok = False
""",
         tests=["tests/test_hopf.py::test_sweep_matches_object_reference_on_broken_matched_pairs"]),
    dict(name="counit-skips-left-unit", file="hopf.py",
         old="return j2 == i and c == 1 and j1 == i and d == 1",
         new="return j2 == i and c == 1 and d == 1",
         tests=["tests/test_hopf.py::test_sweep_matches_object_reference_on_broken_matched_pairs"]),
    dict(name="associativity-drops-sigma", file="hopf.py",
         old="ij[1] * left[1] != jk[1] * right[1]", new="left[1] != right[1]",
         tests=["tests/test_hopf.py::test_cyclotomic_sigma_context_passes_every_sweep"]),
    dict(name="table-product-swaps-sigma", file="hopf.py",
         old="s = P.sigma[g][f][fp] or P.fill_sigma(g, f, fp)",
         new="s = P.sigma[g][fp][f] or P.fill_sigma(g, fp, f)",
         tests=["tests/test_shared_tables.py::test_table_constants_equal_the_object_path"
                "[Z2_Z3_asymmetric_sigma-4]"]),
    dict(name="element-coproduct-swaps-legs", file="hopf.py",
         old="((keys[j1], keys[j2]), as_scalar(t))", new="((keys[j2], keys[j1]), as_scalar(t))",
         tests=["tests/test_shared_tables.py::test_element_maps_equal_the_reference_maps"
                "[Z2_Z-2]"]),
    dict(name="element-product-reads-j-i", file="hopf.py",
         old="hit = sc.product(i, j)", new="hit = sc.product(j, i)",
         tests=["tests/test_shared_tables.py::test_element_maps_equal_the_reference_maps"
                "[S3_Z2-None]"]),
    dict(name="index-skips-membership", file="hopf.py",
         old="self._at(self.P.gid[H.G._member(g).key], self.P.fid(H.F._member(f)))",
         new="self._at(self.P.gid[g.key], self.P.fid(f))",
         tests=["tests/test_hopf.py::test_element_maps_refuse_keys_of_other_groups"]),
    dict(name="cqt3-out-of-window-needs-all", file="cqt.py",
         old="if out and not out.isdisjoint(lreads):",
         new="if out and out.issuperset(lreads):",
         tests=["tests/test_length_changing_action.py::"
                "test_cqt3_marks_only_the_component_that_reads_outside_the_window"]),
    dict(name="cqt3-out-of-window-reads-first-only", file="cqt.py",
         old="if out and not out.isdisjoint(lreads):",
         new="if out and lreads[0] in out:",
         tests=["tests/test_length_changing_action.py::"
                "test_cqt3_marks_only_the_component_that_reads_outside_the_window"]),
    dict(name="cqt3-out-of-window-on-any-read-of-the-pair", file="cqt.py",
         old="if out and not out.isdisjoint(lreads):",
         new="if out:",
         tests=["tests/test_length_changing_action.py::"
                "test_cqt3_marks_only_the_component_that_reads_outside_the_window"]),
    dict(name="cqt3-row-term-at-component-position", file="cqt.py",
         old="rows.setdefault(k, []).append((pos[pair], c))",
         new="rows.setdefault(k, []).append((len(reads) - 1, c))",
         tests=["tests/test_cqt_reference.py::test_verify_R_agrees_with_the_definitions"
                "[eps:K4_Z2_tau]"]),
    dict(name="cqt3-support-position-swaps-ix-iy", file="cqt.py",
         old="t = (row_of[l] * nF + ix) * nF + iy",
         new="t = (row_of[l] * nF + iy) * nF + ix",
         tests=["tests/test_cqt3_support.py::test_every_single_entry_form[S3_Z2]"]),
    dict(name="cqt3-witness-swaps-ix-iy", file="cqt.py",
         old="return _keys(sc)((xrow[ix], yrow[iy], grid[gl][0]))[:5]",
         new="return _keys(sc)((xrow[iy], yrow[ix], grid[gl][0]))[:5]",
         tests=["tests/test_cqt3_support.py::test_every_single_entry_form[S3_Z2]"]),
    dict(name="cqt3-support-skips-on-the-first-read", file="cqt.py",
         old="if not out and hits.isdisjoint(reads):",
         new="if not out and reads[0] not in hits:",
         tests=["tests/test_cqt3_support.py::test_every_single_entry_form[S3_Z2]"]),
    dict(name="cqt3-skip-ignores-out-of-window-reads", file="cqt.py",
         old="if not out and hits.isdisjoint(reads):",
         new="if hits.isdisjoint(reads):",
         tests=["tests/test_cqt3_support.py::test_windowed_standard_forms"]),
    dict(name="cqt3-support-stops-inside-the-pair-loop", file="cqt.py",
         old="""                    elif not holds(rows, vals):
                        bad.append(t)
""",
         new="""                    elif not holds(rows, vals):
                        bad.append(t)
                if bad:
                    return min(bad), sum(u < min(bad) for u in skipped)
""",
         tests=["tests/test_cqt3_support.py::test_a_failing_block_reports_its_first_instance"]),
    dict(name="cqt3-support-takes-the-last-failure", file="cqt.py",
         old="t = min(bad)", new="t = bad[-1]",
         tests=["tests/test_cqt3_support.py::test_every_single_entry_form[S3_Z2]"]),
    dict(name="cqt3-unevaluated-counts-the-whole-failing-block", file="cqt.py",
         old="return t, sum(u < t for u in skipped)", new="return t, len(skipped)",
         tests=["tests/test_cqt3_support.py::test_windowed_perturbations"]),
    dict(name="cqt3-passing-block-counts-no-unevaluated", file="cqt.py",
         old="return None, len(skipped)", new="return None, 0",
         tests=["tests/test_cqt3_support.py::test_windowed_standard_forms"]),
    dict(name="cqt0-right-side-reads-r-u-b", file="cqt.py",
         old="sum(rv[b][u] for u in units)", new="sum(rv[u][b] for u in units)",
         tests=["tests/test_cqt_row_kernels.py::test_every_single_entry_perturbation"
                "[Z2_Z2_trivial]"]),
    dict(name="view-window-test-on-one-argument", file="cqt.py",
         old="None if out is not None and (out[p] or out[q])",
         new="None if out is not None and out[p]",
         tests=["tests/test_cqt_row_kernels.py::test_standard_forms_at_windows[1-Z2_Z]"]),
    dict(name="view-support-keyed-q-p", file="cqt.py",
         old="{(sc.index(k1), sc.index(k2)): bare(R.try_value(k1, k2))",
         new="{(sc.index(k2), sc.index(k1)): bare(R.try_value(k1, k2))",
         tests=["tests/test_cqt_row_kernels.py::test_every_single_entry_perturbation"
                "[Z2_Z2_trivial]"]),
    dict(name="window-lengths-keyed-by-f-key", file="cqt.py",
         old="""        n = self._lengths.get(f)
        if n is None:
            n = self._lengths[f] = self.H.F.element_length(f)
""",
         new="""        n = self._lengths.get(f.key)
        if n is None:
            n = self._lengths[f.key] = self.H.F.element_length(f)
""",
         tests=["tests/test_cqt.py::test_foreign_element_with_a_kept_key_raises_every_time"]),
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
         old="image[ginv[x]]", new="image[x]",
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
    dict(name="battery-hits-fp-scans-orbit-of-fp", file="cqt.py",
         old="""        hits_fp = any(right(g, u) in stab_p for u in orbit_f)""",
         new="""        hits_fp = any(right(g, u) in stab_p for u in orbit_p)""",
         tests=["tests/test_battery_tables.py::"
                "test_stabilizer_action_constraint_witness_from_its_definition"]),
    dict(name="z2-shape-2-swaps-x-and-y", file="cqt.py",
         old="return fixed(f) == y.is_identity() and fixed(fp) == x.is_identity()",
         new="return fixed(f) == x.is_identity() and fixed(fp) == y.is_identity()",
         tests=["tests/test_cqt.py::test_z2_shape_classify"]),
    dict(name="z2-simples-w-at-f", file="grothendieck.py",
         old="""(Z2Label("W", self.H.mp.orbit_representative(f)),)""",
         new="""(Z2Label("W", f),)""",
         tests=["tests/test_grothendieck.py::test_z2_tensor_rule_four_way_split"]),
    dict(name="generating-subset-by-position", file="comodules.py",
         old="sorted(ids, key=lambda i: (-order[i], i))",
         new="ids",
         tests=["tests/test_comodules.py::test_generating_subset_matches_the_exhaustive_search"]),
    dict(name="context-json-writes-none-default-as-one", file="serialize.py",
         old="""raise SchemaError("%s table without a default is not serializable" % tag, tag)""",
         new="""default = ONE""",
         tests=["tests/test_serialize_cli.py::"
                "test_context_json_refuses_what_it_cannot_write_exactly"]),
    dict(name="onedim-walk-skips-edge-check", file="comodules.py",
         old="""                elif a[kg] != x:
                    return None
""",
         new="",
         tests=["tests/test_comodules.py::"
                "test_onedim_tables_reject_the_candidates_that_break_the_law"]),
    dict(name="z2-tensor-rule-skips-tau-square", file="grothendieck.py",
         old="""            if not H.cp.tau_square_identity_check(f1, f2):""",
         new="""            if False:""",
         tests=["tests/test_cli_boundary.py::"
                "test_label_products_refuse_a_broken_tau_square_identity"]),
    dict(name="orbit-data-skips-unit-law", file="matched_pair.py",
         old="""        if f.is_identity() and len(stab) < len(gs):
            require(False, "%r |> 1 is not 1" % next(g for g, u in zip(gs, image) if u != f))
""",
         new="",
         tests=["tests/test_matched_pair.py::test_orbit_data_refuses_a_non_action",
                "tests/test_battery_tables.py::"
                "test_character_outside_its_stabilizer_raises_like_reference"]),
    dict(name="battery-left-trivial-reads-right", file="cqt.py",
         old="left_trivial = all(left(g, f) == f for g in gids for f in fids)",
         new="left_trivial = all(right(g, f) == f for g in gids for f in fids)",
         tests=["tests/test_battery_tables.py::test_asymmetric_sigma_fails_like_reference"]),
    dict(name="battery-sigma-trivial-always", file="cqt.py",
         old="""    sigma_triv = all((S[g][f][fp] or sig(g, f, fp)) == 1
                     for g in gids for f in fids for fp in fids)
""",
         new="""    sigma_triv = True
""",
         tests=["tests/test_battery_tables.py::test_asymmetric_sigma_fails_like_reference"]),
    dict(name="action-key-off-generators-kept", file="serialize.py",
         old="if gen.key not in gens:", new="if False:",
         tests=["tests/test_serialize_cli.py::"
                "test_action_key_off_the_generators_is_a_schema_error"]),
    dict(name="decompose-skips-context-check", file="grothendieck.py",
         old="""    for c in basis:
        _same_context(x, c)
""",
         new="",
         tests=["tests/test_grothendieck.py::"
                "test_decompose_refuses_characters_of_another_context"]),
    dict(name="battery-ignores-int-window", file="matched_pair.py",
         old="return PairTables(mp, window, cp)",
         new="return PairTables(mp, 4, cp)",
         tests=["tests/test_shared_tables.py::test_both_window_forms_agree"
                "[Z2_Z-necessary-battery]"]),
    dict(name="coassociativity-pairs-xy", file="hopf.py",
         old="z = gmul[y][x]", new="z = gmul[x][y]",
         tests=["tests/test_hopf.py::test_sweep_matches_object_reference_on_catalog[Q8_Z]"]),
    dict(name="normalization-drops-tau-g-1-f", file="cocycles.py",
         old="""                               or (T[g][o][f] or tau(g, o, f)) != 1
""",
         new="",
         tests=["tests/test_pair_sweeps.py::"
                "test_each_normalization_value_fails_like_reference[tau(g,1;f)-S3_Z2]"]),
    dict(name="tau-cocycle-reads-f-for-h", file="cocycles.py",
         old="(t_g[h] or tau(g, gp, h))", new="(t_g[f] or tau(g, gp, f))",
         tests=["tests/test_pair_sweeps.py::"
                "test_cocycle_sweep_matches_object_reference_on_perturbed_cocycles"]),
    dict(name="sample-draws-n-minus-1-bits", file="hopf.py",
         old="k = n.bit_length()", new="k = (n - 1).bit_length()",
         tests=["tests/test_hopf.py::test_sample_draws_are_the_rng_choice_stream[2]"]),
    dict(name="product-sets-compare-ab-with-itself", file="matched_pair.py",
         old="if AB.keys() == BA.keys():", new="if AB.keys() == AB.keys():",
         tests=["tests/test_cqt.py::test_necessary_battery_reproduces_example_verdicts"]),

    # -- survivors --------------------------------------------------------------
    dict(name="coalgebra-counit-reads-g-1-twice", file="comodules.py",
         old="or (taus[one][g][fi] or fill(one, g, fi)) != 1):",
         new="or (taus[g][one][fi] or fill(g, one, fi)) != 1):",
         tests=["tests/test_comodules.py", "tests/test_induced_sparse.py"],
         survives="equivalent: the counit law runs after the coassociativity sweep has "
                  "passed and read every tau(1, g), so tau is a 2-cocycle on G_f and "
                  "tau(1, g) = tau(1, 1) = tau(g, 1)"),
    dict(name="battery-moved-by-z", file="cqt.py",
         old="""        return w[right(zgz, left(zi, f))] == w[zgz]""",
         new="""        return w[right(zgz, left(z, f))] == w[zgz]""",
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
         old="""            lhs = coproduct(ij[0]) if ij else ()
            if legs is None:
                legs = bialg_legs[i] = [(ginv[rkey[k1]], table[k1], table[k2], k1, k2, c)
                                        for k1, k2, c in coproduct(i)]
""",
         new="""            if legs is None:
                legs = bialg_legs[i] = [(ginv[rkey[k1]], table[k1], table[k2], k1, k2, c)
                                        for k1, k2, c in coproduct(i)]
            lhs = coproduct(ij[0]) if ij else ()
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
