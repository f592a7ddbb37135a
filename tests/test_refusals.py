"""Refusals of malformed twists, actions, sizes and config spellings, each
with its typed error, its message and its witness; and the operator
spellings of the crossed and kernel products."""

import re

import numpy as np
import pytest

from natorus import (
    Cochain2,
    CochainError,
    ConfigError,
    CrossedElement,
    GAction,
    GradedElement,
    GradingError,
    InvalidGroupError,
    TensorShapeError,
    Tricharacter,
    TwistData,
    TwistDataError,
    TwistedKernel,
    functions_algebra,
    kernel_product,
    lbs_product,
    make_group,
    octonion_associator_tricharacter,
)
from natorus.configs import parse_action, parse_matrix, parse_scalar, parse_twist
from natorus.presets import PAULI_X, pauli_conjugators, pauli_m2_twist

Z2 = make_group([2])
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def refused(error, message, call, *args, **kwargs):
    """The error `call` raises, after checking its type and full message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call(*args, **kwargs)
    return caught.value


def no_witness(exc) -> bool:
    return getattr(exc, "witness", None) is None


# ------------------------------------------------------------------ TwistData


def test_twist_refuses_beta_of_the_wrong_shape():
    exc = refused(
        TwistDataError,
        "beta must have shape (2, 2, 2), got (3, 2, 2)",
        TwistData,
        Z2,
        2,
        np.broadcast_to(np.eye(2), (3, 2, 2)),
    )
    assert no_witness(exc)


def test_twist_refuses_a_non_unitary_beta():
    beta = np.array([np.eye(2), 2 * np.eye(2)])
    exc = refused(
        TwistDataError, "beta conjugators are not unitary (defect 3.000e+00)", TwistData, Z2, 2, beta
    )
    assert no_witness(exc)


def test_twist_refuses_beta_0_other_than_the_identity():
    beta = np.array([PAULI_X, PAULI_X])
    exc = refused(TwistDataError, "beta_0 is not the identity", TwistData, Z2, 2, beta)
    assert no_witness(exc)


# -------------------------------------------------------------------- GAction


def test_action_refuses_unitaries_of_the_wrong_shape():
    exc = refused(
        GradingError,
        "need one 2x2 unitary per group element, got shape (3, 2, 2)",
        GAction,
        Z2,
        functions_algebra(2),
        np.broadcast_to(np.eye(2), (3, 2, 2)),
    )
    assert no_witness(exc)


def test_action_refuses_the_wrong_number_of_generators():
    exc = refused(
        GradingError,
        "need one generator unitary per factor, got 2 for rank 1",
        GAction.from_unitary_generators,
        Z2,
        functions_algebra(2),
        [np.eye(2), np.eye(2)],
    )
    assert no_witness(exc)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_action_refuses_a_generator_of_the_wrong_shape(shape):
    """A generator that is not dim x dim is refused, naming its index, before
    any power of it is taken."""
    exc = refused(
        GradingError,
        f"generator 0 must be 2x2, got shape {shape}",
        GAction.from_unitary_generators,
        Z2,
        functions_algebra(2),
        [np.ones(shape)],
    )
    assert exc.witness == (0,)


def test_action_refuses_a_non_permutation():
    exc = refused(
        GradingError,
        "not a permutation of range(3): [0, 0, 1]",
        GAction.from_permutation_generators,
        make_group([3]),
        3,
        [[0, 0, 1]],
    )
    assert no_witness(exc)


def test_action_refuses_non_unitary_conjugators():
    action = GAction(Z2, functions_algebra(2), np.array([np.eye(2), 2 * np.eye(2)]))
    exc = refused(GradingError, "conjugators are not unitary (defect 3.000e+00)", action.validate)
    assert no_witness(exc)


def test_action_refuses_an_orbit_that_leaves_the_functions_algebra():
    # W_1 = H sends e_00 to the all-halves matrix: first failure at t 1, basis 0
    action = GAction(Z2, functions_algebra(2), np.array([np.eye(2), HADAMARD]))
    exc = refused(
        GradingError,
        "action leaves the algebra at t index 1, basis 0 (defect 5.000e-01)",
        action.validate,
    )
    assert exc.witness == (1, 0)


def test_action_refuses_alpha_0_other_than_the_identity():
    # conjugation by the swap keeps diagonals diagonal, but alpha_0 swaps them
    swap = np.array([[0, 1], [1, 0]])
    action = GAction(Z2, functions_algebra(2), np.array([swap, swap]))
    exc = refused(
        GradingError, "alpha_0 is not the identity (defect 1.000e+00)", action.validate
    )
    assert no_witness(exc)


@pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 3), (4, 3, 4)])
@pytest.mark.parametrize(
    "call",
    [
        lambda action, mat: GradedElement.from_matrix(action, mat),
        lambda action, mat: action.isotypic_components(mat),
        lambda action, mat: action.apply(action.group.elements[1], mat),
    ],
    ids=["from_matrix", "isotypic_components", "apply"],
)
def test_action_refuses_matrices_that_are_not_d_by_d(monkeypatch, shape, call):
    """A matrix, or a stack of them, whose last two axes are not d x d is
    refused with a GradingError naming its shape, before any conjugation."""
    from natorus import quantization

    def no_arithmetic(*args, **kwargs):
        raise AssertionError("conjugated a malformed matrix")

    monkeypatch.setattr(quantization, "conjugate", no_arithmetic)
    action = GAction.translation(make_group([4]))
    exc = refused(GradingError, f"need 4x4 matrices, got shape {shape}", call, action, np.ones(shape))
    assert no_witness(exc)


# -------------------------------------------------------------- integer sizes


@pytest.mark.parametrize(
    "error, message, call, args",
    [
        (InvalidGroupError, "factor 2.5 is not an integer", make_group, ([2.5, 3],)),
        (InvalidGroupError, "factor '4' is not an integer", make_group, (["4"],)),
        (CochainError, "modulus 2.5 is not an integer", Tricharacter, (Z2, np.ones((1, 1, 1), int), 2.5)),
        (TwistDataError, "dim 2.0 is not an integer", TwistData, (Z2, 2.0)),
        (GradingError, "algebra dimension 2.5 is not an integer", functions_algebra, (2.5,)),
        (CochainError, "denominator 2.5 is not an integer", Cochain2, (Z2, np.zeros((2, 2), int), 2.5)),
    ],
    ids=["group-float", "group-string", "tricharacter", "twist", "algebra", "cochain"],
)
def test_a_size_that_is_not_an_integer_is_refused(error, message, call, args):
    # make_group truncated 2.5 to 2 and took "4", Tricharacter truncated its
    # modulus, and the others let a bare TypeError or numpy's UFuncTypeError out
    assert no_witness(refused(error, message, call, *args))


def test_a_random_element_takes_an_int_size_and_refuses_others():
    """random_element reads an int size as numpy does (it raised a bare
    TypeError from tuple(3)), and refuses a bool, float, string or negative
    size with TensorShapeError."""
    algebra = GAction.translation(make_group([4])).algebra

    def draw(size):
        return algebra.random_element(np.random.default_rng(0), size)

    assert draw(3).shape == draw((3,)).shape == (3, 4, 4)
    assert np.array_equal(draw(3), draw((3,))) and np.array_equal(draw([2, 3]), draw((2, 3)))
    for size, message in [
        (True, "size True is not an integer"),
        (2.0, "size 2.0 is not an integer"),
        ("3", "size '3' is not an integer"),
        ((2, 1.5), "size 1.5 is not an integer"),
        (-1, "size -1 is below 0"),
    ]:
        assert no_witness(refused(TensorShapeError, message, draw, size))


# ------------------------------------------------------------ config spellings


def test_config_reads_re_im_pairs_and_refuses_booleans():
    assert parse_scalar([1, -2], "m") == complex(1, -2)
    assert parse_scalar(0.5, "m") == 0.5
    mat = parse_matrix([[[0, 1], 0], [0, [0, -1]]], "generator 0")
    assert np.array_equal(mat, np.array([[1j, 0], [0, -1j]]))
    exc = refused(ConfigError, "m: booleans are not matrix entries", parse_scalar, True, "m")
    assert no_witness(exc)
    exc = refused(
        ConfigError, "m: entry [1, True] is not a number or [re, im] pair", parse_scalar, [1, True], "m"
    )
    assert no_witness(exc)


def test_config_action_from_re_im_generator():
    # the [re, im] spelling of diag(i, -i) generates a Z/4 action on M_2
    g = make_group([4])
    spec = {
        "algebra": {"kind": "matrix", "dim": 2},
        "action": {"generators": [[[[0, 1], 0], [0, [0, -1]]]]},
    }
    action = parse_action(g, spec)
    assert np.allclose(action.unitaries[1], np.diag([1j, -1j]), atol=0.0)


def test_config_refuses_a_non_square_row():
    exc = refused(
        ConfigError,
        "generator 0: row 1 does not make the matrix square",
        parse_matrix,
        [[1, 0], [0]],
        "generator 0",
    )
    assert no_witness(exc)


def test_config_twist_beta_pauli():
    tw = parse_twist({"group": [2, 2, 2], "dim": 2, "sigma": "octonion", "beta": "pauli"})
    ref = pauli_m2_twist()
    assert np.array_equal(tw.beta, pauli_conjugators(tw.group))
    assert np.array_equal(tw.beta, ref.beta) and tw.sigma == ref.sigma
    exc = refused(
        ConfigError,
        "bad twist descriptor: Pauli conjugators are defined over Z/2^3",
        parse_twist,
        {"group": [2, 2], "dim": 2, "beta": "pauli"},
    )
    assert no_witness(exc)


def test_config_refuses_a_beta_list_of_the_wrong_length():
    exc = refused(
        ConfigError,
        "bad twist descriptor: twist 'beta' must list one unitary per group element",
        parse_twist,
        {"group": [2], "dim": 1, "beta": [[[1]]]},
    )
    assert no_witness(exc)


# --------------------------------------------------------- operator spellings


def test_kernel_from_function_matches_its_table():
    phi = octonion_associator_tricharacter()
    g = phi.group

    def fn(x, y):
        return [[x.index + 1j * y.index, 0], [1, x.index - y.index]]

    k = TwistedKernel.from_function(g, phi, fn, block_dim=2)
    for x in g.elements:
        for y in g.elements:
            assert np.array_equal(k.data[x.index, y.index], np.array(fn(x, y), dtype=complex))
    scalar = TwistedKernel.from_function(g, phi, lambda x, y: x.index * 8 + y.index)
    assert np.array_equal(scalar.data[:, :, 0, 0], np.arange(64).reshape(8, 8))


def test_star_operator_is_the_product(rng):
    phi = octonion_associator_tricharacter()
    k1 = TwistedKernel.random(phi.group, phi, rng, block_dim=2)
    k2 = TwistedKernel.random(phi.group, phi, rng, block_dim=2)
    assert np.array_equal((k1 * k2).data, kernel_product(k1, k2).data)
    assert np.array_equal((k1 * 2).data, 2 * k1.data)
    tw = pauli_m2_twist()
    a, b = CrossedElement.random(tw, rng), CrossedElement.random(tw, rng)
    assert np.array_equal((a * b).values, lbs_product(a, b).values)
    assert np.array_equal((a * 1j).values, 1j * a.values)
