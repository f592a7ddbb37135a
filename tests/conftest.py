"""Shared fixtures: small groups and the bundled twists used across tests,
and the one hypothesis profile: derandomized, so every property test draws
the same examples on every run, and with no deadline."""

import numpy as np
import pytest
from hypothesis import settings

from natorus import (
    make_group,
    octonion_algebra,
    octonion_associator_tricharacter,
    octonion_sigma,
)

settings.register_profile("natorus", derandomize=True, deadline=None)
settings.load_profile("natorus")


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture(scope="session")
def z2cubed():
    return make_group([2, 2, 2])


@pytest.fixture(scope="session")
def z4():
    return make_group([4])


@pytest.fixture(scope="session")
def z4cubed():
    return make_group([4, 4, 4])


@pytest.fixture(scope="session")
def oct_algebra():
    return octonion_algebra()


@pytest.fixture(scope="session")
def phi_oct():
    return octonion_associator_tricharacter()


@pytest.fixture(scope="session")
def sigma_oct():
    return octonion_sigma()
