import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import (
    ConstantSpeed,
    CustomBump,
    HypothesisViolated,
    OseenFrankSpeed,
    PolynomialBump,
    ProblemSetup,
    SpeedNotIncreasing,
    auto_domain,
    initial_riemann,
    theorem_amplitude,
    to_riemann,
)

SQRT2 = math.sqrt(2.0)


def u_and_u_t(setup, r):
    """(u, u_t) at t = 0: u from initial_riemann, u_t from the data family's
    formula (-c(u) + eps) u_r of the initial_data module docstring."""
    u, _, _ = initial_riemann(setup, r)
    u_r = setup.profile.phi_prime((r - setup.r0) / setup.eps)
    return u, (-setup.speed.c(u) + setup.eps) * u_r


class TestPolynomialBump:
    def test_compact_support(self):
        bump = PolynomialBump(amplitude=3.0)
        z = np.array([-5.0, -1.0, 1.0, 1.5, 100.0])
        assert np.all(bump.phi(z) == 0.0)
        assert np.all(bump.phi_prime(z) == 0.0)

    def test_c1_matching_at_support_edge(self):
        # phi ~ 4 A delta^2 and phi' ~ 8 A delta just inside the edge
        bump = PolynomialBump(amplitude=3.0)
        for z in (1.0 - 1e-8, -1.0 + 1e-8):
            assert abs(bump.phi(z)) < 1e-14
            assert abs(bump.phi_prime(z)) < 1e-6

    def test_center_slope_is_minus_amplitude(self):
        bump = PolynomialBump(amplitude=3.0)
        assert bump.phi_prime(0.0) == -3.0
        assert bump.phi(0.0) == 0.0

    def test_odd_symmetry(self):
        bump = PolynomialBump(amplitude=2.0)
        z = np.linspace(-0.99, 0.99, 101)
        np.testing.assert_allclose(bump.phi(-z), -bump.phi(z), atol=1e-14)

    def test_derivative_consistent_with_finite_differences(self):
        bump = PolynomialBump(amplitude=2.0)
        z = np.linspace(-0.9, 0.9, 181)
        h = 1e-6
        fd = (bump.phi(z + h) - bump.phi(z - h)) / (2 * h)
        np.testing.assert_allclose(bump.phi_prime(z), fd, rtol=1e-7, atol=1e-8)

    def test_support_bits_match_the_whole_array_formula(self):
        # the reference evaluates the polynomial at every z and drops it off
        # the support; on it both give the same bits, off it +0.0
        bump = PolynomialBump(amplitude=3.0)
        z = np.concatenate([
            np.linspace(-1.5, 1.5, 3001), [-0.0, 0.0, 1.0 - 1e-16, 1e200, -np.inf, np.nan],
        ])
        with np.errstate(all="ignore"):
            w = 1.0 - z * z
            phi = np.where(np.abs(z) < 1.0, -bump.amplitude * z * w * w, 0.0)
            dphi = np.where(np.abs(z) < 1.0, -bump.amplitude * w * (1.0 - 5.0 * z * z), 0.0)
        assert bump.phi(z).view(np.uint64).tolist() == phi.view(np.uint64).tolist()
        assert bump.phi_prime(z).view(np.uint64).tolist() == dphi.view(np.uint64).tolist()

    @given(st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_support_property(self, z):
        bump = PolynomialBump(amplitude=1.0)
        if abs(z) >= 1.0:
            assert bump.phi(z) == 0.0
            assert bump.phi_prime(z) == 0.0
        else:
            assert abs(bump.phi(z)) <= bump.amplitude


class TestTheoremProfile:
    def test_amplitude_formula(self, canonical_speed):
        # oracle: straight-line evaluation from primitive values
        cp0 = 0.5 / math.sqrt(1.5)
        expected = 2.0 * max(32.0 * 2.0 * 2.0 / (1.0 * 1.0 * cp0), 1.0)
        prof = ProblemSetup.theorem(3, 1.0, 0.05, math.pi / 4, canonical_speed).profile
        assert prof.amplitude == pytest.approx(expected, rel=1e-14)
        assert prof.amplitude == pytest.approx(627.069, rel=1e-4)

    def test_floor_term_wins_for_easy_geometry(self):
        # with a huge c'(u0) the 1/(c0 r0^alpha) floor dominates
        speed = ConstantSpeed.of(1.0)
        with pytest.raises(SpeedNotIncreasing):
            theorem_amplitude(1, 1.0, 0.3, speed)

    def test_constant_speed_rejected(self, unit_speed):
        with pytest.raises(SpeedNotIncreasing):
            ProblemSetup.theorem(3, 1.0, 0.05, 0.7, unit_speed)

    def test_flat_angle_rejected(self, canonical_speed):
        # c'(0) = 0 for the k1=2, k3=1 speed
        with pytest.raises(SpeedNotIncreasing):
            ProblemSetup.theorem(3, 1.0, 0.05, 0.0, canonical_speed)

    def test_eps_limit_enforced(self, canonical_speed):
        with pytest.raises(HypothesisViolated):
            ProblemSetup.theorem(3, 1.0, 0.6, math.pi / 4, canonical_speed)

    # the amplitude divides by r0 and takes r0**alpha: d and r0 are checked first
    @pytest.mark.parametrize(
        "d, r0, message",
        [
            (0, 1.0, "spatial dimension must be >= 1"),
            (3, 0.0, "bump center r0 must be positive"),
            (3, -0.0, "bump center r0 must be positive"),
            (2, -1.0, "bump center r0 must be positive"),
            (3, -1.0, "bump center r0 must be positive"),
        ],
    )
    def test_placement_checked_before_the_amplitude(self, canonical_speed, d, r0, message):
        with pytest.raises(HypothesisViolated, match=f"^{message}$"):
            ProblemSetup.theorem(d, r0, 0.05, math.pi / 4, canonical_speed)


class TestProblemSetup:
    def test_alpha_and_t_final_derived(self, canonical_setup):
        assert canonical_setup.alpha == 1.0
        expected = (1.0 - 0.05) / SQRT2
        assert canonical_setup.t_final == pytest.approx(expected, rel=1e-15)

    def test_even_dimension_gives_half_integer_alpha(self, canonical_speed):
        s = ProblemSetup.theorem(d=2, r0=1.0, eps=0.05, u0=math.pi / 4, speed=canonical_speed)
        assert s.alpha == 0.5

    def test_eps_must_be_below_c0_and_half_r0(self, canonical_speed):
        with pytest.raises(HypothesisViolated):
            ProblemSetup.theorem(d=3, r0=1.0, eps=0.5, u0=math.pi / 4, speed=canonical_speed)
        with pytest.raises(HypothesisViolated):
            ProblemSetup.theorem(d=3, r0=4.0, eps=1.2, u0=math.pi / 4, speed=canonical_speed)

    def test_domain_must_cover_support_reach(self, canonical_speed):
        prof = PolynomialBump(amplitude=1.0)
        with pytest.raises(HypothesisViolated):
            ProblemSetup(
                d=3, r0=1.0, eps=0.05, u0=math.pi / 4, speed=canonical_speed,
                profile=prof, domain=(0.01, 1.5),
            )

    def test_domain_left_end_positive(self, canonical_speed):
        prof = PolynomialBump(amplitude=1.0)
        with pytest.raises(HypothesisViolated):
            ProblemSetup(
                d=3, r0=1.0, eps=0.05, u0=math.pi / 4, speed=canonical_speed,
                profile=prof, domain=(0.0, 2.1),
            )

    def test_dimension_below_one_rejected(self, canonical_speed):
        with pytest.raises(HypothesisViolated, match=r"^spatial dimension must be >= 1$"):
            ProblemSetup(
                d=0, r0=1.0, eps=0.05, u0=math.pi / 4, speed=canonical_speed,
                profile=PolynomialBump(amplitude=1.0), domain=(0.01, 2.1),
            )

    def test_domain_left_end_left_of_the_bump(self, canonical_speed):
        # the support starts at r0 - eps = 0.95
        with pytest.raises(HypothesisViolated, match=r"^domain left end must lie left of the bump$"):
            ProblemSetup(
                d=3, r0=1.0, eps=0.05, u0=math.pi / 4, speed=canonical_speed,
                profile=PolynomialBump(amplitude=1.0), domain=(0.95, 2.1),
            )

    def test_underflowing_weight_rejected(self):
        # r_lo^alpha is 0 at the left end, where u_r would be 0/0
        with pytest.raises(HypothesisViolated, match=r"c0 \* r_lo\*\*alpha = 0.0 at r_lo = 1e-170"):
            ProblemSetup(
                d=5, r0=1e-160, eps=1e-161, u0=0.5, speed=ConstantSpeed.of(1.0),
                profile=PolynomialBump(amplitude=1.0), domain=(1e-170, 2.5e-160),
            )

    def test_overflowing_powers_are_named(self, canonical_speed):
        with pytest.raises(HypothesisViolated, match=r"^2\*\*alpha = 2.0\*\*1024.5 overflows"):
            theorem_amplitude(2050, 1.0, math.pi / 4, canonical_speed)
        with pytest.raises(HypothesisViolated, match=r"^r0\*\*alpha = 1e\+300\*\*2.0 overflows"):
            theorem_amplitude(5, 1e300, math.pi / 4, canonical_speed)
        loose = OseenFrankSpeed(c0=1.0, c1=1e300, k1=2.0, k3=1.0)
        with pytest.raises(HypothesisViolated, match=r"^c1\*\*2 = 1e\+300\*\*2 overflows"):
            theorem_amplitude(3, 1.0, math.pi / 4, loose)
        with pytest.raises(HypothesisViolated, match=r"^amplitude\*\*2 = 1e\+200\*\*2 overflows"):
            PolynomialBump(amplitude=1e200).phi_prime_sq_integral()
        with pytest.raises(HypothesisViolated, match=r"^r_lo\*\*alpha = 1e\+200\*\*2.0 overflows"):
            ProblemSetup(
                d=5, r0=1e201, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
                profile=PolynomialBump(amplitude=1.0), domain=(1e200, 3e201),
            )

    @given(st.floats(allow_nan=False))
    def test_base_angle_kept_bit_for_bit_with_one_zero(self, u0):
        s = ProblemSetup(
            d=1, r0=1.0, eps=0.1, u0=u0, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=1.0), domain=(0.5, 2.1),
        )
        want = 0.0 if u0 == 0.0 else u0  # -0.0 is read as +0.0
        assert np.float64(s.u0).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_auto_domain_properties(self, canonical_speed):
        lo, hi = auto_domain(3, 1.0, 0.05, canonical_speed)
        t_final = 0.95 / SQRT2
        assert lo > 0.0
        assert hi >= 1.0 + 0.05 + SQRT2 * t_final
        assert lo <= 0.95


class TestInitialFields:
    def test_quiescent_outside_support(self, canonical_setup):
        for r in (0.5, 0.9499, 1.0501, 2.0):
            u, ut = u_and_u_t(canonical_setup, r)
            assert u == canonical_setup.u0
            assert ut == 0.0

    def test_center_values(self, canonical_setup):
        s = canonical_setup
        A = s.profile.amplitude
        u, ut = u_and_u_t(s, s.r0)
        assert u == pytest.approx(s.u0, abs=1e-15)
        c_u0 = s.speed.c(s.u0)
        assert ut == pytest.approx((-c_u0 + s.eps) * (-A), rel=1e-14)

    def test_half_width_substitution(self, canonical_setup):
        # oracle: pointwise substitution at r = r0 + eps/2
        s = canonical_setup
        A = s.profile.amplitude
        r = s.r0 + s.eps / 2
        z = (r - s.r0) / s.eps
        phi = -A * z * (1 - z**2) ** 2
        dphi = -A * (1 - z**2) * (1 - 5 * z**2)
        u_exp = s.u0 + s.eps * phi
        ut_exp = (-s.speed.c(u_exp) + s.eps) * dphi
        u, ut = u_and_u_t(s, r)
        assert u == pytest.approx(u_exp, rel=1e-13)
        assert ut == pytest.approx(ut_exp, rel=1e-13)


class TestInitialRiemann:
    @pytest.mark.parametrize("d,speed", [(3, OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)),
                                         (1, ConstantSpeed.of(1.0))], ids=["oseen-frank", "constant"])
    def test_no_signed_zero(self, d, speed):
        # off the support the factor -2c + eps < 0 multiplies u_r = +0.0
        setup = ProblemSetup.theorem(
            d=d, r0=1.0, eps=0.05, u0=np.pi / 4, speed=speed, profile=PolynomialBump(amplitude=1.0)
        )
        r = np.linspace(*setup.domain, 4096)
        _, R, S = initial_riemann(setup, r)
        assert np.count_nonzero(S == 0.0) > r.size // 2
        for field in (R, S):
            assert not np.any(np.signbit(field) & (field == 0.0))
        _, R0, S0 = initial_riemann(setup, setup.domain[0])
        assert math.copysign(1.0, R0) == math.copysign(1.0, S0) == 1.0

    def test_zero_outside_support(self, canonical_setup):
        r = np.array([0.2, 0.9499, 1.0500001, 1.9])
        u, R, S = initial_riemann(canonical_setup, r)
        assert np.all(u == canonical_setup.u0)
        assert np.all(R == 0.0) and np.all(S == 0.0)

    def test_center_values(self, canonical_setup):
        s = canonical_setup
        A = s.profile.amplitude
        _, R, S = initial_riemann(s, s.r0)
        c_u0 = s.speed.c(s.u0)
        assert R == pytest.approx(s.eps * s.r0**s.alpha * (-A), rel=1e-14)
        assert S == pytest.approx((-2 * c_u0 + s.eps) * s.r0**s.alpha * (-A), rel=1e-14)

    def test_half_width_substitution(self, canonical_setup):
        s = canonical_setup
        A = s.profile.amplitude
        r = s.r0 + s.eps / 2
        z = (r - s.r0) / s.eps
        phi = -A * z * (1 - z**2) ** 2
        dphi = -A * (1 - z**2) * (1 - 5 * z**2)
        u = s.u0 + s.eps * phi
        c = s.speed.c(u)
        u_got, R, S = initial_riemann(s, r)
        assert u_got == pytest.approx(u, rel=1e-13)
        assert R == pytest.approx(s.eps * r**s.alpha * dphi, rel=1e-13)
        assert S == pytest.approx((-2 * c + s.eps) * r**s.alpha * dphi, rel=1e-13)

    def test_scalar_radius_gives_floats(self, canonical_setup):
        values = initial_riemann(canonical_setup, canonical_setup.r0)
        assert len(values) == 3 and all(type(v) is float for v in values)

    def test_sign_structure_at_center(self, canonical_setup):
        _, R, S = initial_riemann(canonical_setup, canonical_setup.r0)
        assert S > 0.0
        assert R < 0.0

    def test_center_gradient_exceeds_blowup_threshold(self, canonical_setup):
        # the steep-slope construction guarantees S(0, r0) above the
        # max{32 c1^2 (2 r0)^alpha / ((r0-eps) c'(u0)), 2} level
        s = canonical_setup
        _, _, S0 = initial_riemann(s, s.r0)
        cp0 = s.speed.c_prime(s.u0)
        lower = max(
            32 * s.speed.c1**2 * (2 * s.r0) ** s.alpha / ((s.r0 - s.eps) * cp0), 2.0
        )
        assert S0 > lower

    def test_agrees_with_riemann_transform_of_fields(self, canonical_setup):
        s = canonical_setup
        rng = np.random.default_rng(3)
        r = rng.uniform(s.r0 - 2 * s.eps, s.r0 + 2 * s.eps, 1000)
        u, ut = u_and_u_t(s, r)
        z = (r - s.r0) / s.eps
        ur = s.profile.phi_prime(z)
        _, R_direct, S_direct = initial_riemann(s, r)
        R_via, S_via = to_riemann(r, u, ut, ur, s.speed, s.alpha)
        scale = np.max(np.abs(S_direct)) or 1.0
        np.testing.assert_allclose(R_direct, R_via, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(S_direct, S_via, rtol=0, atol=1e-13 * scale)

    @given(st.floats(0.8, 1.2, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_route_consistency_property(self, r):
        speed = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        s = ProblemSetup.theorem(d=3, r0=1.0, eps=0.1, u0=math.pi / 4, speed=speed)
        u, ut = u_and_u_t(s, r)
        ur = s.profile.phi_prime((r - s.r0) / s.eps)
        _, R_direct, S_direct = initial_riemann(s, r)
        R_via, S_via = to_riemann(r, u, ut, ur, s.speed, s.alpha)
        assert R_direct == pytest.approx(R_via, rel=1e-13, abs=1e-10)
        assert S_direct == pytest.approx(S_via, rel=1e-13, abs=1e-10)


class TestCustomBump:
    def test_support_enforced(self):
        bump = CustomBump(
            amplitude=1.0,
            phi_fn=lambda z: -z * (1 - z**2) ** 4,
            phi_prime_fn=lambda z: -((1 - z**2) ** 3) * (1 - 9 * z**2),
        )
        assert bump.phi(1.2) == 0.0
        assert bump.phi_prime(-1.0) == 0.0
        assert bump.phi_prime(0.0) == -1.0
