"""Exact-arithmetic bicrossed-product Hopf algebras from matched pairs of
groups: comodules, characters, Grothendieck products, and coquasitriangular
structure checks."""

from .catalog import CatalogEntry, entry_ids, get_entry, run_entry
from .cocycles import CocyclePair
from .comodules import (Character, Comodule, InducedComodule, TwistedCoalgebra,
                        character, enumerate_onedim, group_comodules, induce,
                        trivial_comodule)
from .cqt import (RForm, bicharacter_restriction_check, check_dual_orbit_commutation,
                  check_orbit_commutation, eps_tensor_eps, necessary_battery, search_R,
                  structural_zeros, verify_R, z2_r11_rform, z2_r11_solve,
                  z2_remark_diagnostics, z2_shape_classify)
from .groups import (DirectProductGroup, FiniteGroup, GroupElement, GroupHom,
                     IntegerGroup, InfiniteDihedralGroup, cyclic_group,
                     group_from_descriptor, klein_four_group, permutation_group,
                     quaternion_group_q8, symmetric_group_s3)
from .grothendieck import (Z2Label, Z2Simples, char_product, commutes, decompose,
                           multiset_equal, z2_S_abelian_check)
from .hopf import (HopfAlgebra, HopfElement, TensorElement, antipode, comultiply,
                   counit, multiply, verify_hopf_axioms)
from .matched_pair import MatchedPair
from .reports import ConditionReport, all_passed
from .scalars import (Matrix, ONE, Scalar, ZERO, commutant_dimension,
                      cyclotomic_polynomial, format_scalar, parse_scalar, rational,
                      root_of_unity, solve_linear, sqrt_root_of_unity)

__version__ = "0.1.0"
