"""Fiberwise deformed algebras over a finite base, and the crossed-product
condition that makes them principal.

A bundle here assigns to every base point x a twisted group algebra of the
dual group, with 2-cochain sigma(x) + tau where delta tau = phi. Each fiber
is then a phi-deformation: its associator phase is exactly phi on every
basis triple, independent of sigma(x). The principality condition is that
the crossed product of each fiber by the translation action is the twisted
compact operators; it is checked constructively through the duality
transform, fiber by fiber.

extract_sigma goes the other way: given two twists over the same action it
forms the quotient of their multipliers, exactly the difference of their
2-cochains, and decides exactly whether it is an ordinary 2-cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cochains import (
    Cochain2,
    Cochain3,
    _coboundary2_mismatch,
    is_cocycle2,
    require_cochain,
    trivializing_cochain,
)
from .crossed import DualityReport, TwistData, _require_duality_arguments, verify_duality
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
    with sigma = the fiber's cochain and phi = the bundle's phi, which
    validate proves equal to delta sigma exactly, slab by slab, with no n^3
    table; the duality transform must carry its crossed product onto
    (-phi)-twisted kernels, so for a tricharacter phi the check streams.
    Exhaustive over basis pairs for scalar fibers of small order, so a pass
    is a structure-constant match, not a sample. Malformed arguments are
    refused as verify_duality refuses them, before any fiber is built.
    """
    _require_duality_arguments(trials, seed, tol, bundle.group.order**2)
    reports = {}
    for x in bundle.base:
        tw = TwistData(bundle.group, sigma=bundle.fiber(x).sigma, phi=bundle.phi)
        reports[x] = verify_duality(tw, -tw.phi, trials=trials, seed=seed, tol=tol)
    max_error = max(r.max_error for r in reports.values())
    return NAPReport(all(r.passed for r in reports.values()), max_error, tol, reports)


# ------------------------------------------------------------ sigma recovery


@dataclass
class SigmaExtraction(Report):
    passed: bool = field(init=False)
    sigma: Cochain2 = field(repr=False)
    witness: tuple | None

    def __post_init__(self):
        self.passed = self.witness is None


def extract_sigma(tw1: TwistData, tw2: TwistData) -> SigmaExtraction:
    """sigma = sigma1 - sigma2, so u1(x, y) u2(x, y)^-1 = exp(2 pi i sigma(x, y)).

    The quotient of two scalar multipliers is central, invariant and unitary
    by construction; what is left to certify is the cocycle identity, decided
    exactly. Its witness is the first (x, y, z) index triple where
    delta sigma != 0, which for two validated twists is the first place
    where phi1 and phi2 differ.
    """
    if tw1.group != tw2.group or tw1.dim != tw2.dim:
        raise IncompatibleGroupsError("twist data are incompatible")
    sigma = tw1.sigma - tw2.sigma
    return SigmaExtraction(sigma, sigma.coboundary_witness)
