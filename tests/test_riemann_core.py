import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import (
    ConstantSpeed,
    OseenFrankSpeed,
    from_riemann,
    rhs_fields,
    source_coefficients,
    to_riemann,
)

SQRT2 = math.sqrt(2.0)
SQRT15 = math.sqrt(1.5)


def point_rhs(r, u, R, S, speed, alpha):
    """rhs_fields at one radius, with 1/r, r**alpha, c and c' evaluated here."""
    factors = source_coefficients(1.0 / r, r**alpha, speed.c(u), speed.c_prime(u), alpha)
    return rhs_fields(*factors, R, S)


@pytest.fixture(scope="module")
def of_speed():
    return OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)


class TestToRiemann:
    def test_zero_derivatives(self, of_speed):
        assert to_riemann(1.0, 0.3, 0.0, 0.0, of_speed, 1.0) == (0.0, 0.0)

    def test_pure_time_derivative_symmetric(self):
        speed = ConstantSpeed.of(1.0)
        R, S = to_riemann(1.0, 0.0, 1.0, 0.0, speed, 1.0)
        assert R == pytest.approx(1.0) and S == pytest.approx(1.0)

    def test_substitution(self, of_speed):
        # oracle: c(pi/4) = sqrt(3/2); R = 2(0.3 - 0.1 sqrt(1.5)), S = 2(0.3 + 0.1 sqrt(1.5))
        R, S = to_riemann(2.0, math.pi / 4, 0.3, -0.1, of_speed, 1.0)
        assert R == pytest.approx(2 * (0.3 - 0.1 * SQRT15), rel=1e-14)
        assert S == pytest.approx(2 * (0.3 + 0.1 * SQRT15), rel=1e-14)

    def test_fractional_weight(self, of_speed):
        # alpha = 1/2 exercises the non-integer radial weight
        R, S = to_riemann(4.0, 0.0, 1.0, 0.0, of_speed, 0.5)
        assert R == pytest.approx(2.0) and S == pytest.approx(2.0)


class TestFromRiemann:
    def test_zero_point(self, of_speed):
        assert from_riemann(1.0, 0.3, 0.0, 0.0, of_speed, 1.0) == (0.0, 0.0)

    def test_equal_components_give_zero_gradient(self, of_speed):
        u_t, u_r = from_riemann(2.0, 0.4, 0.7, 0.7, of_speed, 1.0)
        assert u_r == 0.0
        assert u_t == pytest.approx(0.7 / 2.0, rel=1e-14)

    def test_round_trip_thousand_random_points(self, of_speed):
        rng = np.random.default_rng(11)
        for alpha in (0.0, 0.5, 1.0, 1.5):
            r = rng.uniform(0.1, 5.0, 250)
            u = rng.uniform(-3.0, 3.0, 250)
            u_t = rng.uniform(-10.0, 10.0, 250)
            u_r = rng.uniform(-10.0, 10.0, 250)
            R, S = to_riemann(r, u, u_t, u_r, of_speed, alpha)
            u_t2, u_r2 = from_riemann(r, u, R, S, of_speed, alpha)
            np.testing.assert_allclose(u_t2, u_t, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(u_r2, u_r, rtol=1e-13, atol=1e-13)

    @given(
        r=st.floats(0.05, 10.0),
        u=st.floats(-6.0, 6.0),
        u_t=st.floats(-50.0, 50.0),
        u_r=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, r, u, u_t, u_r):
        speed = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        R, S = to_riemann(r, u, u_t, u_r, speed, 1.0)
        u_t2, u_r2 = from_riemann(r, u, R, S, speed, 1.0)
        assert u_t2 == pytest.approx(u_t, rel=1e-12, abs=1e-12)
        assert u_r2 == pytest.approx(u_r, rel=1e-12, abs=1e-12)

    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.05, 10.0),
                st.floats(-6.0, 6.0),
                st.floats(-50.0, 50.0),
                st.floats(-50.0, 50.0),
            ),
            min_size=1,
            max_size=40,
        ),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_round_trip_property(self, points, alpha):
        speed = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        r, u, u_t, u_r = np.array(points).T
        R, S = to_riemann(r, u, u_t, u_r, speed, alpha)
        u_t2, u_r2 = from_riemann(r, u, R, S, speed, alpha)
        assert u_t2.shape == u_r2.shape == r.shape
        np.testing.assert_allclose(u_t2, u_t, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(u_r2, u_r, rtol=1e-12, atol=1e-12)


class TestRhs:
    def test_zero_state_is_stationary(self, of_speed):
        assert point_rhs(1.5, 0.7, 0.0, 0.0, of_speed, 1.0) == (0.0, 0.0)

    def test_flat_line_case_vanishes(self):
        # constant speed and alpha=0: plain 1-d transport, no sources
        speed = ConstantSpeed.of(1.0)
        assert point_rhs(2.0, 0.1, 3.0, -1.0, speed, 0.0) == (0.0, 0.0)

    def test_geometric_source_substitution(self):
        # oracle: c'=0 so f_R = -alpha c S / r = -3/2, f_S = alpha c R / r = 1/2
        speed = ConstantSpeed.of(1.0)
        f_R, f_S = point_rhs(2.0, 0.0, 1.0, 3.0, speed, 1.0)
        assert f_R == pytest.approx(-1.5, rel=1e-14)
        assert f_S == pytest.approx(0.5, rel=1e-14)

    def test_full_substitution(self, of_speed):
        # oracle: both terms evaluated from the raw formula
        r, u, R, S, alpha = 1.3, 0.6, 2.0, -1.0, 1.0
        c = math.sqrt(2 * math.sin(u) ** 2 + math.cos(u) ** 2)
        cp = math.sin(u) * math.cos(u) / c
        quad = cp / (4 * c * r)
        f_R_exp = quad * (R * R - S * S) - c * S / r
        f_S_exp = quad * (S * S - R * R) + c * R / r
        f_R, f_S = point_rhs(r, u, R, S, of_speed, alpha)
        assert f_R == pytest.approx(f_R_exp, rel=1e-14)
        assert f_S == pytest.approx(f_S_exp, rel=1e-14)

    def test_energy_production_identity(self, of_speed):
        # R f_R + S f_S = (c'/(4 c r^alpha)) (R^2 - S^2)(R - S): the geometric
        # terms cancel exactly, which is what makes the energy law conservative
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(0.2, 3.0)
            u = rng.uniform(-3.0, 3.0)
            R = rng.uniform(-20.0, 20.0)
            S = rng.uniform(-20.0, 20.0)
            alpha = rng.choice([0.0, 0.5, 1.0, 2.5])
            f_R, f_S = point_rhs(r, u, R, S, of_speed, alpha)
            c = of_speed.c(u)
            cp = of_speed.c_prime(u)
            expected = cp / (4 * c * r**alpha) * (R * R - S * S) * (R - S)
            got = R * f_R + S * f_S
            assert got == pytest.approx(expected, rel=1e-11, abs=1e-9)

    def test_geometric_term_scales_inversely_with_radius(self):
        speed = ConstantSpeed.of(1.0)
        lam = 3.7
        f1 = point_rhs(1.0, 0.0, 1.0, 2.0, speed, 1.0)
        f2 = point_rhs(lam, 0.0, 1.0, 2.0, speed, 1.0)
        assert f2[0] == pytest.approx(f1[0] / lam, rel=1e-14)
        assert f2[1] == pytest.approx(f1[1] / lam, rel=1e-14)

    def test_quadratic_term_radius_free_when_alpha_zero(self, of_speed):
        fa = point_rhs(0.3, 0.6, 1.0, 2.0, of_speed, 0.0)
        fb = point_rhs(30.0, 0.6, 1.0, 2.0, of_speed, 0.0)
        assert fa == fb

    def test_vectorized_fields_match_pointwise(self, of_speed):
        rng = np.random.default_rng(9)
        r = rng.uniform(0.5, 2.0, 50)
        u = rng.uniform(-1.0, 1.0, 50)
        R = rng.uniform(-5.0, 5.0, 50)
        S = rng.uniform(-5.0, 5.0, 50)
        factors = source_coefficients(1.0 / r, r**1.0, of_speed.c(u), of_speed.c_prime(u), 1.0)
        f_R, f_S = rhs_fields(*factors, R, S)
        for i in range(0, 50, 7):
            fr, fs = point_rhs(float(r[i]), float(u[i]), float(R[i]), float(S[i]), of_speed, 1.0)
            assert f_R[i] == pytest.approx(fr, rel=1e-14)
            assert f_S[i] == pytest.approx(fs, rel=1e-14)
