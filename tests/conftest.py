"""Shared fixtures: the four example families on small boxes."""

import numpy as np
import pytest
from hypothesis import settings

import affmin as am

# ``pytest --hypothesis-profile ci`` runs each property test that sets no
# example count of its own 20,000 times; without it they take hypothesis's default.
settings.register_profile("ci", max_examples=20_000, deadline=None)


@pytest.fixture(scope="session")
def paraboloid():
    field = am.hyperbolic_paraboloid(am.GridDomain(0, 6, 0, 6))
    return field, am.integrate(field)


@pytest.fixture(scope="session")
def helicoid():
    field = am.helicoid(16, (0, 8), (0, 8))
    return field, am.integrate(field)


@pytest.fixture(scope="session")
def cubic():
    field = am.minimal_cubic(am.GridDomain(1, 8, 1, 8))
    return field, am.integrate(field)


@pytest.fixture(scope="session")
def sphere():
    field = am.improper_sphere(am.GridDomain(1, 9, -8, 0))
    return field, am.integrate(field)


@pytest.fixture(scope="session")
def all_examples(paraboloid, helicoid, cubic, sphere):
    return {
        "paraboloid": paraboloid,
        "helicoid": helicoid,
        "cubic": cubic,
        "sphere": sphere,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
