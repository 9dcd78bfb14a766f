"""The package exports its public names lazily, from the module defining each."""

import importlib

import pytest

import quivergrass

# the names the package exported when it imported every module eagerly,
# less the ones that only tests used, which moved to tests/oracles.py
EXPORTS = {
    "Arrow", "BudgetExceeded", "ClassificationResult", "DEFAULT_BUDGET",
    "DistinctnessViolated", "EtaContext", "EtaWitness", "ExtCocycle", "FieldSpec",
    "GrassmannianReport", "HomBasis", "Matrix", "Morphism", "NotASubmodule",
    "NotOrthogonalBricks", "NotReduced", "Quiver", "Representation",
    "SubmodulePoint", "ZeroExt", "are_orthogonal_bricks", "build_eta",
    "case1_instance", "case1_pair", "case1_quiver", "case2_X", "case2_Y",
    "case2_instance", "change_of_basis", "check_bijection", "check_condition_C",
    "check_eta_fullness", "check_lemma1", "check_lemma2", "classify",
    "coordinate_inclusion_N", "count_submodules", "direct_sum", "dual",
    "enumerate_submodules", "enumerate_subspaces", "euler_form", "ext1",
    "gaussian_binomial", "has_brick_summand", "hom_basis", "hom_ext_dims",
    "injective", "inverse", "is_E_bristle", "is_brick", "is_reduced_kronecker",
    "kernel_basis", "kron", "kronecker_preprojective", "make_eta_context",
    "make_kronecker", "make_representation", "preinjective_N", "projective",
    "quiver_from_json", "quiver_to_json", "regular_N", "remark_N", "remark_Xprime",
    "remark_counterexample_demo", "rep_power", "representation_from_json",
    "representation_to_json", "row_space", "rref", "simple", "sub_representation",
    "subspaces_containing", "tits_definiteness", "zero_representation",
}


def test_all_keeps_the_export_list():
    assert len(quivergrass.__all__) == len(EXPORTS)
    assert set(quivergrass.__all__) == EXPORTS


def test_every_export_is_its_module_object():
    for name in quivergrass.__all__:
        module = importlib.import_module(f"quivergrass.{quivergrass._EXPORTS[name]}")
        assert getattr(quivergrass, name) is getattr(module, name), name


def test_star_import():
    namespace = {}
    exec("from quivergrass import *", namespace)
    assert EXPORTS <= namespace.keys()
    assert namespace["FieldSpec"] is quivergrass.FieldSpec


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quivergrass.no_such_name
    # names that only tests use live in tests/oracles.py
    for name in ("is_brick_power", "solve", "quotient_representation",
                 "is_exceptional", "bristle_points", "find_removable_extremal_vertex"):
        assert not hasattr(quivergrass, name), name
