"""The vector-space contract every deformed-algebra element type shares."""

import operator

import numpy as np
import pytest

from natorus import (
    Cochain2,
    Cochain3,
    CrossedElement,
    GradedElement,
    IncompatibleGroupsError,
    StrictifiedElement,
    TGAElement,
    TwistData,
    TwistedGroupAlgebra,
    TwistedKernel,
    make_group,
    octonion_algebra,
    octonion_associator_tricharacter,
    octonion_group,
)
from natorus.quantization import GAction


def tga_elements(rng):
    g = octonion_group()
    alg = octonion_algebra()
    flat = TwistedGroupAlgebra(g, Cochain2.zero(g))
    return alg.random_element(rng), alg.random_element(rng), flat.random_element(rng)


def kernels(rng):
    g = octonion_group()
    phi = octonion_associator_tricharacter()
    return (
        TwistedKernel.random(g, phi, rng),
        TwistedKernel.random(g, phi, rng),
        TwistedKernel.random(g, Cochain3.zero(g), rng),
    )


def crossed_elements(rng):
    tw = TwistData(make_group([2, 2]))
    other = TwistData(make_group([4]))
    return (
        CrossedElement.random(tw, rng),
        CrossedElement.random(tw, rng),
        CrossedElement.random(other, rng),
    )


def strictified_elements(rng):
    tw = TwistData(make_group([2, 2]), dim=2)
    other = TwistData(make_group([2, 2]))
    return (
        StrictifiedElement.random(tw, rng),
        StrictifiedElement.random(tw, rng),
        StrictifiedElement.random(other, rng),
    )


def graded_elements(rng):
    # the other space: Z/2 acting trivially on the same two points, blocks of one shape
    action = GAction.translation(make_group([2]))
    fixed = GAction.from_permutation_generators(make_group([2]), 2, [[0, 1]])

    def random(action):
        return GradedElement.from_matrix(action, action.algebra.random_element(rng))

    return random(action), random(action), random(fixed)


# (element type, public array attribute, factory of (x, y, element over another space))
CASES = [
    (TGAElement, "coeffs", tga_elements),
    (TwistedKernel, "data", kernels),
    (CrossedElement, "values", crossed_elements),
    (StrictifiedElement, "values", strictified_elements),
    (GradedElement, "blocks", graded_elements),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, field, make", CASES, ids=IDS)
def test_vector_space_operations(cls, field, make, rng):
    x, y, _ = make(rng)

    def arr(element):
        return getattr(element, field)

    expected = {
        "x + y": (x + y, arr(x) + arr(y)),
        "x - y": (x - y, arr(x) - arr(y)),
        "-x": (-x, -arr(x)),
        "2.5 * x": (2.5 * x, 2.5 * arr(x)),
        "x * 2.5": (x * 2.5, arr(x) * 2.5),
        "1j * x": (1j * x, 1j * arr(x)),
        "x * -3": (x * -3, arr(x) * -3),
    }
    for label, (got, values) in expected.items():
        assert type(got) is cls, label
        assert np.array_equal(arr(got), values), label
        x._check(got)  # raises unless the result lives over x's space
    assert x.norm() == float(np.linalg.norm(arr(x).ravel()))
    assert (x + y).norm() <= x.norm() + y.norm() + 1e-12
    assert x.isclose(x + 1e-12 * y)
    assert not x.isclose(y)
    assert x.isclose(x + 1e-3 * y, tol=1e-2)
    with pytest.raises(TypeError):
        x * "2"


@pytest.mark.parametrize("cls, field, make", CASES, ids=IDS)
def test_mixed_spaces_are_refused(cls, field, make, rng):
    x, _, other = make(rng)
    for op in (operator.add, operator.sub, cls.isclose):
        with pytest.raises(IncompatibleGroupsError):
            op(x, other)
        with pytest.raises(IncompatibleGroupsError):
            op(other, x)


def test_element_types_do_not_mix(rng):
    tw = TwistData(make_group([2, 2]))
    a = CrossedElement.random(tw, rng)
    b = StrictifiedElement.random(tw, rng)
    with pytest.raises(IncompatibleGroupsError):
        a + b
    with pytest.raises(IncompatibleGroupsError):
        b.isclose(a)


def test_scalar_kernel_is_stored_as_one_by_one_blocks(rng):
    g = make_group([2, 2])
    phi = Cochain3.zero(g)
    data = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = TwistedKernel(g, phi, data)
    assert k.block_dim == 1
    assert k.data.shape == (4, 4, 1, 1)
    assert np.array_equal(k.data[:, :, 0, 0], data)
    assert TwistedKernel.random(g, phi, rng).block_dim == 1
    assert TwistedKernel.identity(g, phi).block_dim == 1
