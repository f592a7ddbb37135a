"""The package's public names, pinned.

`natorus.__all__` must equal PUBLIC_API below, so that removing or renaming a
public name fails here, naming it, and adding one is a deliberate edit of
this list.
"""

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
    "associativity_cocycle",
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
    "inverse_fourier",
    "is_cocycle2",
    "is_cocycle3",
    "is_trivial_on",
    "kernel_product",
    "lbs_involution",
    "lbs_product",
    "make_group",
    "multiplier_combination",
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


def test_the_checked_in_list_is_sorted_and_unique():
    assert PUBLIC_API == sorted(set(PUBLIC_API))


def test_public_names_equal_the_checked_in_list():
    names = set(natorus.__all__)
    removed = sorted(set(PUBLIC_API) - names)
    added = sorted(names - set(PUBLIC_API))
    assert not removed and not added, f"removed: {removed}; added: {added}"
    assert natorus.__all__ == PUBLIC_API

