import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    ARITHMETIC_MEAN,
    MOBILITIES,
    NegativeDensityError,
    UPWIND,
    get_mobility,
    theta,
    theta_partials,
)

densities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1.0)
velocities = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_mean_value():
    assert theta(ARITHMETIC_MEAN, 0.2, 0.4) == pytest.approx(0.3)


def test_upwind_takes_upstream_density():
    assert theta(UPWIND, 0.2, 0.4, 1.0) == 0.2
    assert theta(UPWIND, 0.2, 0.4, -1.0) == 0.4


def test_upwind_zero_velocity_takes_tail():
    assert theta(UPWIND, 0.2, 0.4, 0.0) == 0.2


def test_mean_partials_are_halves():
    assert theta_partials(ARITHMETIC_MEAN, 0.7, 0.1) == (0.5, 0.5)


def test_upwind_partials_are_indicator():
    assert theta_partials(UPWIND, 0.2, 0.4, 3.0) == (1.0, 0.0)
    assert theta_partials(UPWIND, 0.2, 0.4, -3.0) == (0.0, 1.0)
    assert theta_partials(UPWIND, 0.2, 0.4, 0.0) == (1.0, 0.0)


def test_negative_density_rejected():
    with pytest.raises(NegativeDensityError):
        theta(ARITHMETIC_MEAN, -0.1, 0.4)
    with pytest.raises(NegativeDensityError):
        theta_partials(UPWIND, 0.1, -0.4, 1.0)


def test_registry_names():
    assert set(MOBILITIES) == {"mean", "upwind"}
    assert get_mobility("mean") is ARITHMETIC_MEAN
    assert get_mobility("upwind") is UPWIND
    with pytest.raises(KeyError):
        get_mobility("harmonic")


def test_model_flags():
    assert ARITHMETIC_MEAN.requires_interior
    assert not ARITHMETIC_MEAN.velocity_dependent
    assert UPWIND.velocity_dependent
    assert not UPWIND.requires_interior


@given(densities, densities)
def test_mean_maximum_principle(a, b):
    th = theta(ARITHMETIC_MEAN, a, b)
    assert min(a, b) <= th <= max(a, b)


# a subnormal density keeps fewer significant bits than rel=1e-15 asks
# of the scaled mean, so these draws leave subnormals out
normal_densities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False
)


@given(normal_densities, normal_densities, st.floats(min_value=1e-3, max_value=1e3))
def test_mean_positive_homogeneity(a, b, lam):
    assert theta(ARITHMETIC_MEAN, lam * a, lam * b) == pytest.approx(
        lam * theta(ARITHMETIC_MEAN, a, b), rel=1e-15, abs=0.0
    )


@given(densities, densities)
def test_mean_symmetric(a, b):
    assert theta(ARITHMETIC_MEAN, a, b) == theta(ARITHMETIC_MEAN, b, a)


@given(densities, densities, velocities)
def test_upwind_flux_splitting_identity(a, b, v):
    # theta_up * v = a max(v,0) + b min(v,0), including v = 0
    assert theta(UPWIND, a, b, v) * v == pytest.approx(
        a * max(v, 0.0) + b * min(v, 0.0), abs=1e-12
    )


@given(densities, densities, st.floats(min_value=1e-9, max_value=10.0))
def test_upwind_orientation_flip(a, b, v):
    # reversing the edge and the velocity picks the same upstream node
    assert theta(UPWIND, a, b, v) == theta(UPWIND, b, a, -v)


@given(positive, positive)
@settings(max_examples=50)
def test_mean_partials_match_central_differences(a, b):
    h = 1e-6
    da = (theta(ARITHMETIC_MEAN, a + h, b) - theta(ARITHMETIC_MEAN, a - h, b)) / (2 * h)
    db = (theta(ARITHMETIC_MEAN, a, b + h) - theta(ARITHMETIC_MEAN, a, b - h)) / (2 * h)
    pa, pb = theta_partials(ARITHMETIC_MEAN, a, b)
    assert da == pytest.approx(pa, abs=1e-10)
    assert db == pytest.approx(pb, abs=1e-10)


def test_vectorized_theta_values():
    ri = np.array([0.1, 0.2, 0.3])
    rj = np.array([0.3, 0.2, 0.1])
    v = np.array([1.0, -1.0, 0.0])
    np.testing.assert_allclose(
        ARITHMETIC_MEAN.theta_values(ri, rj, v), [0.2, 0.2, 0.2]
    )
    np.testing.assert_allclose(UPWIND.theta_values(ri, rj, v), [0.1, 0.2, 0.3])


def test_vectorized_partials_sum_to_one():
    ri = np.array([0.1, 0.2])
    rj = np.array([0.3, 0.2])
    for model in (ARITHMETIC_MEAN, UPWIND):
        pa, pb = model.theta_density_partials(ri, rj, np.array([0.5, -0.5]))
        np.testing.assert_allclose(np.asarray(pa) + np.asarray(pb), 1.0)
