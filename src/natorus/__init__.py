"""natorus: finite models of nonassociative deformations.

Twisted group algebras over finite abelian groups, tricharacter-twisted
kernel algebras with their translation actions, graded deformed products
with an operator representation, generalized crossed products with a
duality transform, and fiberwise-deformed bundles over finite bases, all
with exact phase bookkeeping.
"""

from .bundles import (
    BaseSpace,
    NAPBundle,
    NAPReport,
    SigmaExtraction,
    build_nap_bundle,
    extract_sigma,
    nap_condition_check,
)
from .cochains import (
    Cochain2,
    Cochain3,
    CochainTable,
    PhiMultiplier,
    Tricharacter,
    bicharacter_from_matrix,
    check_multiplier_relation,
    coboundary2,
    coboundary3,
    cocycle3_witness,
    is_cocycle2,
    is_cocycle3,
    is_trivial_on,
    restrict,
    trivializing_cochain,
)
from .crossed import (
    CrossedElement,
    DualityReport,
    StrictifiedElement,
    TwistData,
    double_dual_action,
    dual_action,
    evaluation_side_product,
    fourier_side_product,
    lbs_involution,
    lbs_product,
    strictified_product,
    takai_inverse,
    takai_transform,
    verify_duality,
)
from .errors import (
    BundleConstructionError,
    CochainError,
    ConfigError,
    GradingError,
    IncompatibleGroupsError,
    InvalidGroupError,
    NatorusError,
    NotACocycleError,
    TensorShapeError,
    TwistDataError,
)
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    fourier,
    make_group,
    pairing,
    subgroup_elements,
)
from .kernels import (
    TwistedKernel,
    associativity_cocycle_sweep,
    check_gamma_relation,
    gamma_action,
    gamma_multiplier,
    kernel_product,
)
from .phases import HALF_PHASE, ZERO_PHASE, Phase
from .quantization import (
    AssociatorReport,
    GAction,
    GradedElement,
    GradingReport,
    MatrixAlgebra,
    associator_table,
    deformed_norm,
    deformed_product,
    full_matrix_algebra,
    functions_algebra,
    grading_check,
    phi_zero_intertwiner,
    represent,
)
from .twisted_algebra import (
    TGAElement,
    TwistedGroupAlgebra,
    cross_form,
    octonion_algebra,
    octonion_associator_tricharacter,
    octonion_exponent,
    octonion_group,
    octonion_sigma,
)

__version__ = "0.1.0"

import types as _types

__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
