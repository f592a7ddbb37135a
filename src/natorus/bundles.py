"""Fiberwise deformed algebras over a finite base, and the crossed-product
condition that makes them principal.

A bundle here assigns to every base point x a twisted group algebra of the
dual group, with 2-cochain sigma(x) + tau where delta tau = phi. Each fiber
is then a phi-deformation: its associator phase is exactly phi on every
basis triple, independent of sigma(x). The principality condition is that
the crossed product of each fiber by the translation action is the twisted
compact operators; it is checked constructively through the duality
transform, fiber by fiber.

extract_sigma goes the other way: given two multiplier families for the same
action it forms their quotient and certifies it as an ordinary scalar
2-cocycle (centrality, invariance, unitarity, cocycle identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cochains import (
    Cochain2,
    Cochain3,
    _coboundary2_mismatch,
    is_cocycle2,
    require_cochain,
    trivializing_cochain,
)
from .crossed import DualityReport, TwistData, verify_duality
from .errors import BundleConstructionError, CochainError, IncompatibleGroupsError
from .groups import FiniteAbelianGroup
from .phases import Report
from .twisted_algebra import TwistedGroupAlgebra


class BaseSpace:
    """A finite set of labeled points."""

    def __init__(self, labels):
        labels = tuple(str(p) for p in labels)
        if not labels:
            raise BundleConstructionError("base space must be nonempty")
        if len(set(labels)) != len(labels):
            raise BundleConstructionError(f"duplicate base point labels in {labels}")
        self.labels = labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def __repr__(self):
        return f"BaseSpace{self.labels}"


class NAPBundle:
    """A bundle of (sigma(x) + tau)-twisted group algebras with common phi."""

    def __init__(
        self,
        base: BaseSpace,
        group: FiniteAbelianGroup,
        phi: Cochain3,
        sigma: dict,
        trivializer: Cochain2,
    ):
        self.base = base
        self.group = group
        self.phi = phi
        self.sigma = dict(sigma)
        self.trivializer = trivializer
        self.fibers = {
            x: TwistedGroupAlgebra(group, self.sigma[x] + trivializer) for x in base
        }

    def fiber(self, label) -> TwistedGroupAlgebra:
        if label not in self.fibers:
            raise BundleConstructionError(f"no fiber over {label!r}")
        return self.fibers[label]

    # sections are {label: coefficient vector}; the function algebra on the
    # base acts by pointwise scalars
    def section(self, coeffs: dict) -> dict:
        return {x: self.fiber(x).element(coeffs[x]) for x in self.base}

    def section_product(self, s1: dict, s2: dict) -> dict:
        return {x: s1[x] * s2[x] for x in self.base}

    def c0_action(self, f: dict, s: dict) -> dict:
        return {x: s[x] * complex(f[x]) for x in self.base}

    def __repr__(self):
        return (
            f"NAPBundle(base={self.base.labels}, group={self.group.factors}, "
            f"phi_den={self.phi.den})"
        )


def build_nap_bundle(
    base,
    group: FiniteAbelianGroup,
    phi: Cochain3,
    sigma: dict | None = None,
    trivializer: Cochain2 | None = None,
) -> NAPBundle:
    """Assemble the bundle, validating every cochain.

    sigma maps base labels to 2-cocycles (missing entries mean zero). The
    trivializer tau must satisfy delta tau = phi exactly; when omitted one is
    constructed, which fails for phi whose class is not a coboundary.
    """
    if not isinstance(base, BaseSpace):
        base = BaseSpace(base)
    require_cochain(phi, 3, group)
    sigma = dict(sigma) if sigma else {}
    for x in base:
        s = sigma.get(x)
        if s is None:
            sigma[x] = Cochain2.zero(group)
            continue
        require_cochain(s, 2, group, f"sigma over {x!r}")
        if not is_cocycle2(s):
            raise BundleConstructionError(f"sigma over {x!r} is not a 2-cocycle")
    extra = set(sigma) - set(base.labels)
    if extra:
        raise BundleConstructionError(f"sigma given for unknown base points {sorted(extra)}")
    if trivializer is None:
        try:
            trivializer = trivializing_cochain(phi)
        except CochainError as exc:
            raise BundleConstructionError(
                f"cannot realize the fibers: {exc}"
            ) from exc
    else:
        require_cochain(trivializer, 2, group, "trivializer")
        bad = _coboundary2_mismatch(trivializer, phi)  # no n^3 table of delta tau
        if bad is not None:
            raise BundleConstructionError(
                f"trivializer does not satisfy delta tau = phi: they differ at indices {bad}"
            )
    return NAPBundle(base, group, phi, sigma, trivializer)


# ----------------------------------------------------------- principality


@dataclass
class NAPReport(Report):
    passed: bool
    max_error: float
    tol: float
    points: dict = field(default_factory=dict)


def nap_condition_check(
    bundle: NAPBundle, trials: int = 100, seed: int = 0, tol: float = 1e-10
) -> NAPReport:
    """Check per fiber that the crossed product by translation is the twisted
    compacts.

    Each fiber's twisted group algebra is presented as a scalar twist datum
    (u = the fiber's structure phases, phi = delta of its cochain); the
    duality transform must carry its crossed product onto (-phi)-twisted
    kernels. Exhaustive over basis pairs for scalar fibers of small order,
    so a pass is a structure-constant match, not a sample.
    """
    reports = {}
    max_error = 0.0
    for x in bundle.base:
        alg = bundle.fiber(x)
        tw = TwistData.scalar_from_sigma(bundle.group, alg.sigma)
        psi = -tw.phi
        reports[x] = verify_duality(tw, psi, trials=trials, seed=seed, tol=tol)
        max_error = max(max_error, reports[x].max_error)
    passed = all(r.passed for r in reports.values())
    return NAPReport(passed, max_error, tol, reports)


# ------------------------------------------------------------ sigma recovery


@dataclass
class SigmaExtraction(Report):
    passed: bool = field(init=False)
    sigma: np.ndarray = field(repr=False)
    scalar_table: np.ndarray = field(repr=False)
    central_error: float
    invariance_error: float
    unitarity_error: float
    cocycle_error: float
    tol: float

    def __post_init__(self):
        errors = (self.central_error, self.invariance_error, self.unitarity_error)
        self.passed = all(e <= self.tol for e in (*errors, self.cocycle_error))


def extract_sigma(tw1: TwistData, tw2: TwistData, tol: float = 1e-10) -> SigmaExtraction:
    """sigma(x, y) = u1(x, y) u2(x, y)^-1 for two multipliers over one action.

    Certifies the quotient as central (scalar), invariant under the action,
    unitary, and an ordinary 2-cocycle. A non-central quotient signals that
    the second multiplier is incompatible with the shared action; that shows
    up in the report rather than as an exception.
    """
    if tw1.group != tw2.group or tw1.dim != tw2.dim:
        raise IncompatibleGroupsError("twist data are incompatible")
    g = tw1.group
    d = tw1.dim
    sigma = np.einsum("xyab,xycb->xyac", tw1.u, np.conj(tw2.u))
    eye = np.eye(d)
    trace = np.einsum("xyaa->xy", sigma) / d
    central_error = float(np.max(np.abs(sigma - trace[:, :, None, None] * eye)))
    scalar = trace
    moved = np.einsum("tab,xybc,tdc->txyad", tw1.beta, sigma, np.conj(tw1.beta))
    invariance_error = float(np.max(np.abs(moved - sigma[None])))
    unitarity_error = float(np.max(np.abs(np.abs(scalar) - 1.0)))
    add = g.add_table
    # lhs[x,y,z] = sigma(x,y) sigma(x+y,z); rhs[x,y,z] = sigma(y,z) sigma(x,y+z)
    lhs = scalar[:, :, None] * scalar[add, :]
    rhs = scalar[None, :, :] * scalar[:, add]
    cocycle_error = float(np.max(np.abs(lhs - rhs)))
    return SigmaExtraction(
        sigma, scalar, central_error, invariance_error, unitarity_error, cocycle_error, tol
    )
