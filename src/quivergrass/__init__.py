"""Exact computations with quiver representations over small fields.

Importing the package loads none of its modules: each public name below is
imported from the module that defines it on first access (PEP 562).
"""

from importlib import import_module

#: public name -> the module of the package that defines it
_EXPORTS = {name: module for module, names in (
    ("exactlinalg", "FieldSpec Matrix enumerate_subspaces gaussian_binomial inverse"
                    " kernel_basis kron row_space rref subspaces_containing"),
    ("quiverrep", "Arrow Morphism NotASubmodule Quiver Representation SubmodulePoint"
                  " direct_sum change_of_basis make_kronecker"
                  " projective quiver_from_json quiver_to_json"
                  " rep_power representation_from_json"
                  " representation_to_json simple sub_representation"
                  " zero_representation BudgetExceeded DEFAULT_BUDGET"),
    ("homext", "ExtCocycle HomBasis are_orthogonal_bricks euler_form ext1"
               " has_brick_summand hom_basis hom_ext_dims is_brick is_reduced_kronecker"),
    ("grassmann", "GrassmannianReport count_submodules enumerate_submodules"),
    ("reptype", "ClassificationResult classify tits_definiteness"),
    ("construct", "DistinctnessViolated EtaContext EtaWitness NotOrthogonalBricks"
                  " NotReduced ZeroExt build_eta case1_instance case1_pair case1_quiver"
                  " case2_X case2_Y case2_instance check_bijection check_condition_C"
                  " check_eta_fullness check_lemma1 check_lemma2 coordinate_inclusion_N"
                  " is_E_bristle kronecker_preprojective make_eta_context regular_N"
                  " preinjective_N remark_N remark_Xprime remark_counterexample_demo"),
) for name in names.split()}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
