"""The package's public names, pinned.

`natorus.__all__` must equal PUBLIC_API below, so that removing or renaming a
public name fails here, naming it, and adding one is a deliberate edit of
this list. The public names that no module of the package refers to are
pinned too (NO_CALLER_IN_SRC), so a new one is a deliberate edit as well.
"""

import ast
from pathlib import Path

import natorus

PUBLIC_API = [
    "AssociatorReport",
    "BaseSpace",
    "BundleConstructionError",
    "Cochain2",
    "Cochain3",
    "CochainError",
    "CochainTable",
    "ConfigError",
    "CrossedElement",
    "DualityReport",
    "FiniteAbelianGroup",
    "GAction",
    "GradedElement",
    "GradingError",
    "GradingReport",
    "GroupElement",
    "HALF_PHASE",
    "IncompatibleGroupsError",
    "InvalidGroupError",
    "MatrixAlgebra",
    "NAPBundle",
    "NAPReport",
    "NatorusError",
    "NotACocycleError",
    "Phase",
    "PhiMultiplier",
    "SigmaExtraction",
    "StrictifiedElement",
    "TGAElement",
    "TensorShapeError",
    "Tricharacter",
    "TwistData",
    "TwistDataError",
    "TwistedGroupAlgebra",
    "TwistedKernel",
    "ZERO_PHASE",
    "associativity_cocycle_sweep",
    "associator_table",
    "bicharacter_from_matrix",
    "build_nap_bundle",
    "check_gamma_relation",
    "check_multiplier_relation",
    "coboundary2",
    "coboundary3",
    "cocycle3_witness",
    "cross_form",
    "deformed_norm",
    "deformed_product",
    "double_dual_action",
    "dual_action",
    "evaluation_side_product",
    "extract_sigma",
    "fourier",
    "fourier_side_product",
    "full_matrix_algebra",
    "functions_algebra",
    "gamma_action",
    "gamma_multiplier",
    "grading_check",
    "is_cocycle2",
    "is_cocycle3",
    "is_trivial_on",
    "kernel_product",
    "lbs_involution",
    "lbs_product",
    "make_group",
    "nap_condition_check",
    "octonion_algebra",
    "octonion_associator_tricharacter",
    "octonion_exponent",
    "octonion_group",
    "octonion_sigma",
    "pairing",
    "phi_zero_intertwiner",
    "represent",
    "restrict",
    "strictified_product",
    "subgroup_elements",
    "takai_inverse",
    "takai_transform",
    "trivializing_cochain",
    "verify_duality",
]

# Public names that no module of the package refers to, by reason:
NO_CALLER_IN_SRC = [
    # traced by the benchmark, and reference routes in the tests
    "PhiMultiplier",
    "coboundary3",
    "strictified_product",
    "takai_transform",
    # Takai duality and the gamma relation, to become criteria or be deleted
    "check_gamma_relation",
    "double_dual_action",
    "dual_action",
    "lbs_involution",
    "takai_inverse",
    # documented group entry points
    "fourier",
    "pairing",
]


def test_the_checked_in_list_is_sorted_and_unique():
    assert PUBLIC_API == sorted(set(PUBLIC_API))


def test_public_names_equal_the_checked_in_list():
    names = set(natorus.__all__)
    removed = sorted(set(PUBLIC_API) - names)
    added = sorted(names - set(PUBLIC_API))
    assert not removed and not added, f"removed: {removed}; added: {added}"
    assert natorus.__all__ == PUBLIC_API



def test_the_public_names_without_a_caller_in_the_package_are_pinned():
    """Every name that a module of the package (its __init__ aside) reads, as a
    name or an attribute, has a caller; the public names without one must be
    exactly NO_CALLER_IN_SRC."""
    package = Path(natorus.__file__).parent
    referred = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    assert sorted(set(natorus.__all__) - referred) == sorted(NO_CALLER_IN_SRC)
