import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    ARITHMETIC_MEAN,
    MOBILITIES,
    UPWIND,
    get_mobility,
)

densities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1.0)
velocities = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_mean_value():
    assert ARITHMETIC_MEAN.theta_values(0.2, 0.4, 0.0) == pytest.approx(0.3)


def test_upwind_takes_upstream_density():
    assert UPWIND.theta_values(0.2, 0.4, 1.0) == 0.2
    assert UPWIND.theta_values(0.2, 0.4, -1.0) == 0.4


def test_upwind_zero_velocity_takes_tail():
    assert UPWIND.theta_values(0.2, 0.4, 0.0) == 0.2


def test_mean_partials_are_halves():
    assert ARITHMETIC_MEAN.theta_density_partials(0.7, 0.1, 0.0) == (0.5, 0.5)


def test_upwind_partials_are_indicator():
    assert UPWIND.theta_density_partials(0.2, 0.4, 3.0) == (1.0, 0.0)
    assert UPWIND.theta_density_partials(0.2, 0.4, -3.0) == (0.0, 1.0)
    assert UPWIND.theta_density_partials(0.2, 0.4, 0.0) == (1.0, 0.0)


def test_registry_names():
    assert set(MOBILITIES) == {"mean", "upwind"}
    assert get_mobility("mean") is ARITHMETIC_MEAN
    assert get_mobility("upwind") is UPWIND
    with pytest.raises(KeyError):
        get_mobility("harmonic")


def test_model_flags():
    assert ARITHMETIC_MEAN.requires_interior
    assert not UPWIND.requires_interior


@given(densities, densities)
def test_mean_maximum_principle(a, b):
    th = ARITHMETIC_MEAN.theta_values(a, b, 0.0)
    assert min(a, b) <= th <= max(a, b)


# a subnormal keeps fewer significant bits than rel=1e-15 asks of the
# scaled mean; with every nonzero density at least 1e-300 and lam >= 1e-3,
# lam * a, lam * b and their halves all stay normal
normal_densities = st.just(0.0) | st.floats(min_value=1e-300, max_value=1.0)


@given(normal_densities, normal_densities, st.floats(min_value=1e-3, max_value=1e3))
def test_mean_positive_homogeneity(a, b, lam):
    assert ARITHMETIC_MEAN.theta_values(lam * a, lam * b, 0.0) == pytest.approx(
        lam * ARITHMETIC_MEAN.theta_values(a, b, 0.0), rel=1e-15, abs=0.0
    )


@given(densities, densities)
def test_mean_symmetric(a, b):
    assert ARITHMETIC_MEAN.theta_values(a, b, 0.0) == ARITHMETIC_MEAN.theta_values(b, a, 0.0)


@given(densities, densities, velocities)
def test_upwind_flux_splitting_identity(a, b, v):
    # theta_up * v = a max(v,0) + b min(v,0), including v = 0
    assert UPWIND.theta_values(a, b, v) * v == pytest.approx(
        a * max(v, 0.0) + b * min(v, 0.0), abs=1e-12
    )


@given(densities, densities, st.floats(min_value=1e-9, max_value=10.0))
def test_upwind_orientation_flip(a, b, v):
    # reversing the edge and the velocity picks the same upstream node
    assert UPWIND.theta_values(a, b, v) == UPWIND.theta_values(b, a, -v)


@given(positive, positive)
@settings(max_examples=50)
def test_mean_partials_match_central_differences(a, b):
    h = 1e-6
    mean = ARITHMETIC_MEAN.theta_values
    da = (mean(a + h, b, 0.0) - mean(a - h, b, 0.0)) / (2 * h)
    db = (mean(a, b + h, 0.0) - mean(a, b - h, 0.0)) / (2 * h)
    pa, pb = ARITHMETIC_MEAN.theta_density_partials(a, b, 0.0)
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
