import contextlib
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from varwave import (
    CharacteristicPath,
    ConfigError,
    ConstantSpeed,
    CustomBump,
    Grid,
    GridState,
    HypothesisViolated,
    NoIntersection,
    NonFiniteState,
    OseenFrankSpeed,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    Stepper,
    TheoremConstants,
    PathSamples,
    RunResult,
    blowup_time_estimate,
    build_blowup_report,
    build_report,
    characteristic_triangle_identity,
    compute_constants,
    init_state,
    initial_energy_exact,
    run,
    theorem_amplitude,
    triangle_identity,
)
from varwave import diagnostics
from varwave.diagnostics import EnergyObserver
from varwave.riemann_core import source_coefficients

SQRT2 = math.sqrt(2.0)


def assert_scaled_factors_finite(setup):
    """The stepper's dt-scaled factors on a 16-node grid, at the speed of u0,
    raise no overflow where its own r**alpha, 1/r and source factors raise
    none: at base_dt, at a last step 1e-14 of it and at the least subnormal
    step."""
    try:
        grid = Grid.uniform(*setup.domain, 16)
    except ValueError:  # 16 floats cannot span the domain evenly
        return
    c, c_prime = setup.speed.c_and_c_prime(setup.u0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            stepper = Stepper(setup, grid, SchemeConfig())
            source_coefficients(stepper.inv_r, stepper.ralpha, c, c_prime, setup.alpha)
        except FloatingPointError:
            return
        for dt in (stepper.base_dt, 1e-14 * stepper.base_dt, 5e-324):
            k_u, factors, _ = stepper._scaled(dt, c, c_prime)
            for k in (k_u, *factors, c * (dt / grid.h)):
                assert np.isfinite(k).all()


class TestConstants:
    def test_profile_slope_energy_closed_form(self):
        # oracle: numeric quadrature of [(1-z^2)(1-5z^2)]^2 against 256/315
        val, _ = quad(lambda z: ((1 - z**2) * (1 - 5 * z**2)) ** 2, -1, 1)
        assert val == pytest.approx(256.0 / 315.0, rel=1e-12)
        bump = PolynomialBump(amplitude=3.0)
        assert bump.phi_prime_sq_integral() == pytest.approx(9 * val, rel=1e-10)

    def test_zero_amplitude_measures_zero(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        constants = compute_constants(setup)
        assert constants.K_measured == 0.0
        assert constants.K_envelope == 0.0
        assert constants.E0_exact == 0.0

    def test_overflowing_power_names_the_field_it_feeds(self, canonical_speed):
        # (r0 + eps)^(2 alpha) and r0^(2 alpha) are finite, (2 r0)^alpha is not:
        # S0_lower, the first field it feeds that is not 0 in IEEE arithmetic,
        # is inf
        setup = ProblemSetup(
            d=1300, r0=1.5, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=1.0), domain=(1.0, 3.1),
        )
        message = r"^the constant S0_lower = inf is not a finite float$"
        with pytest.raises(HypothesisViolated, match=message):
            compute_constants(setup)
        # where c'(u0) = 0 its terms are 0 (eps0, the decay rate) or exempt (S0_lower)
        flat = dataclasses.replace(setup, speed=ConstantSpeed.of(1.0))
        constants = compute_constants(flat, require_hypothesis=False)
        assert (constants.eps0, constants.inv_s_decay_rate) == (0.0, 0.0)
        assert constants.S0_lower == math.inf

    def test_overflowing_speed_square_is_named(self):
        # an explicit profile skips theorem_amplitude; (2 c1 + eps)**2 feeds K_envelope
        loose = OseenFrankSpeed(c0=1.0, c1=1e300, k1=2.0, k3=1.0)
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=loose,
            profile=PolynomialBump(amplitude=100.0),
        )
        message = r"^the constant K_envelope = inf is not a finite float$"
        with pytest.raises(HypothesisViolated, match=message):
            compute_constants(setup)

    def test_overflowing_riccati_weight_is_named(self, canonical_speed):
        # the domain keeps r_lo^alpha finite; convergence's default
        # t_compare reads r0^alpha, which S(0, r0) carries
        setup = ProblemSetup(
            d=5, r0=1e200, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=1.0), domain=(1.0, 3e200),
        )
        message = r"^the initial S\(0, r0\) = inf is not a finite float$"
        with pytest.raises(HypothesisViolated, match=message):
            blowup_time_estimate(setup)

    # the uint64 bits of every field for the d = 1 and d = 3 data of the CI
    # convergence config (r0 = 1, eps = 0.1, u0 = 0.5, c = 1, amplitude 1):
    # a constant speed evaluates no np.tan, whose bits follow numpy's CPU
    # dispatch.  The quadrature of E(0) (K_measured, E0_exact) takes a BLAS
    # matrix-vector product per panel count, whose bits follow the BLAS build.
    PINNED_BITS = {
        1: {
            "K_measured": 0x40078926A6E54F9C, "K_envelope": 0x400CBCAD127F3C6F,
            "M": 0x3FECBCAD127F3C6F, "eps0": 0x0, "S0_lower": 0x7FF0000000000000,
            "t_star_bound": 0x3FE6666666666666, "c_prime_u0": 0x0,
            "phi_prime_sq_integral": 0x3FEA01A01A01A01A, "E0_exact": 0x3FD2D41EEBEAA617,
            "u_drift_bound": 0x3FE231DDD436D08D, "inv_s_decay_rate": 0x0,
        },
        3: {
            "K_measured": 0x400799954D84A808, "K_envelope": 0x401162C9FD1C567C,
            "M": 0x40095F1B0115BFC0, "eps0": 0x0, "S0_lower": 0x7FF0000000000000,
            "t_star_bound": 0x3FE6666666666666, "c_prime_u0": 0x0,
            "phi_prime_sq_integral": 0x3FEA01A01A01A01A, "E0_exact": 0x3FD2E1443E03B9A0,
            "u_drift_bound": 0x3FE403A7363C4BCF, "inv_s_decay_rate": 0x0,
        },
    }

    @pytest.mark.parametrize(
        "d, name", [(d, f.name) for d in (1, 3) for f in dataclasses.fields(TheoremConstants)]
    )
    def test_constant_speed_constants_keep_their_bits(self, d, name):
        setup = ProblemSetup.theorem(
            d=d, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=1.0),
        )
        value = getattr(compute_constants(setup, require_hypothesis=False), name)
        assert type(value) is float
        assert np.float64(value).view(np.uint64) == self.PINNED_BITS[d][name]

    @pytest.mark.parametrize("eps", [0.4999, 0.05, 1e-7])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_initial_energy_matches_tight_quad(self, canonical_speed, d, eps):
        s = ProblemSetup.theorem(d=d, r0=1.0, eps=eps, u0=np.pi / 4, speed=canonical_speed)

        def integrand(z):
            u = s.u0 + eps * s.profile.phi(z)
            c = s.speed.c(u)
            rr = s.r0 + eps * z
            return (eps**2 + (-2.0 * c + eps) ** 2) * rr ** (2.0 * s.alpha) * s.profile.phi_prime(z) ** 2

        ref, _ = quad(integrand, -1.0, 1.0, limit=5000, epsabs=0.0, epsrel=2e-14)
        assert initial_energy_exact(s) == pytest.approx(eps * ref, rel=1e-13)

    def test_custom_bump_slope_integral_goes_through_the_rule(self, monkeypatch):
        a = 3.0
        bump = CustomBump(
            amplitude=a,
            phi_fn=lambda z: -a * z * (1.0 - z * z) ** 2,
            phi_prime_fn=lambda z: -a * (1.0 - z * z) * (1.0 - 5.0 * z * z),
        )
        calls = []
        rule = diagnostics._gauss_legendre
        monkeypatch.setattr(
            diagnostics, "_gauss_legendre", lambda f: calls.append(f) or rule(f)
        )
        val = diagnostics._phi_prime_sq_integral(bump)
        assert len(calls) == 1
        assert val == pytest.approx(a * a * 256.0 / 315.0, rel=1e-13)

    # at d=5 adaptive quad(limit=200) runs out of subintervals and warns
    @pytest.mark.parametrize("d", [3, 5])
    def test_wide_support_constants_raise_no_warning(self, canonical_speed, d):
        setup = ProblemSetup.theorem(
            d=d, r0=1.0, eps=0.4999, u0=np.pi / 4, speed=canonical_speed
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            constants = compute_constants(setup)
        assert constants.E0_exact > 0.0

    def test_constant_speed_violates_hypothesis(self, unit_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=0.5, speed=unit_speed,
            profile=PolynomialBump(amplitude=1.0),
        )
        with pytest.raises(HypothesisViolated):
            compute_constants(setup)

    def test_acceptance_setup_formula_oracle(self, canonical_setup):
        # straight-line reevaluation of every constant from primitives
        s = canonical_setup
        constants = compute_constants(s)
        r0, eps, alpha = 1.0, 0.05, 1.0
        c0, c1 = 1.0, SQRT2
        cp0 = 0.5 / math.sqrt(1.5)
        a = s.profile.amplitude
        iphi = a * a * 256.0 / 315.0
        k_env = (eps**2 + (2 * c1 + eps) ** 2) * (r0 + eps) ** 2 / r0**2 * iphi
        m = k_env * c1 * r0 * math.sqrt(r0) / (4 * c0**2) + alpha * math.sqrt(
            k_env * c1
        ) * r0 / math.sqrt(r0 * c0)
        sqrt_eps0 = min(
            r0 * cp0 / (64 * m * c1**2 * (2 * r0)),
            1 / (2 * m),
            math.sqrt(r0 / 2),
            math.sqrt(c0),
        )
        s0_lower = max(32 * c1**2 * (2 * r0) / ((r0 - eps) * cp0), 2.0)
        t_star = (r0 - eps) / (2 * c1) + r0 / (4 * c1)
        assert constants.K_envelope == pytest.approx(k_env, rel=1e-12)
        assert constants.M == pytest.approx(m, rel=1e-12)
        assert constants.eps0 == pytest.approx(sqrt_eps0**2, rel=1e-12)
        assert constants.S0_lower == pytest.approx(s0_lower, rel=1e-12)
        assert constants.t_star_bound == pytest.approx(t_star, rel=1e-12)

    def test_measured_k_below_envelope(self, canonical_setup):
        constants = compute_constants(canonical_setup)
        assert 0.0 < constants.K_measured <= constants.K_envelope

    def test_initial_energy_quadrature_consistency(self, canonical_setup):
        # coarse oracle: dense trapezoid of the same integrand
        s = canonical_setup
        r = np.linspace(s.r0 - s.eps, s.r0 + s.eps, 400_001)
        from varwave import initial_riemann

        _, R, S = initial_riemann(s, r)
        e0_trapz = float(np.trapezoid(R**2 + S**2, r))
        assert initial_energy_exact(s) == pytest.approx(e0_trapz, rel=1e-7)

    def test_constant_speed_energy_has_the_array_bits(self, with_array_speed):
        # ConstantSpeed's c is a float: at this (c, eps) libm's pow(2c - eps, 2)
        # is one ulp off the square numpy takes of the array c(u), and E(0)
        # moved by an ulp while the integrand squared with **
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.293213, u0=0.5, speed=ConstantSpeed.of(0.57309),
            profile=PolynomialBump(amplitude=3.0),
        )
        assert initial_energy_exact(setup) == initial_energy_exact(with_array_speed(setup))

    def test_drift_bound_formula(self, canonical_setup):
        s = canonical_setup
        constants = compute_constants(s)
        expected = math.sqrt(
            constants.K_envelope * (s.r0 - s.eps) / (s.speed.c0 * s.speed.c1)
        ) * math.sqrt(s.eps)
        assert constants.u_drift_bound == pytest.approx(expected, rel=1e-13)

    def test_time_bound_precedes_final_time(self, canonical_speed):
        for eps in (0.01, 0.05, 0.2, 0.4999):
            setup = ProblemSetup.theorem(
                d=3, r0=1.0, eps=eps, u0=np.pi / 4, speed=canonical_speed
            )
            constants = compute_constants(setup)
            assert constants.t_star_bound < setup.t_final

    def test_blowup_estimate_finite_only_with_steepening(self, canonical_setup, unit_speed):
        assert math.isfinite(blowup_time_estimate(canonical_setup))
        flat = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=0.5, speed=unit_speed,
            profile=PolynomialBump(amplitude=1.0),
        )
        assert blowup_time_estimate(flat) == math.inf

    def test_blowup_estimate_where_the_divisor_r0_alpha_overflows(self):
        # 4 c(u0) r0^alpha = 2.4e308 overflows, lambda S(0, r0) = c'(u0)
        # (2 c(u0) - eps) A/(4 c(u0)) does not: the estimate stays finite
        speed = OseenFrankSpeed(c0=1e10, c1=2e10, k1=2e20, k3=1e20)
        setup = ProblemSetup.theorem(
            d=3, r0=5e297, eps=0.1, u0=np.pi / 4, speed=speed,
            profile=PolynomialBump(amplitude=0.1),
        )
        c, cp = speed.c(setup.u0), speed.c_prime(setup.u0)
        assert math.isinf(4.0 * c * setup.r0**setup.alpha)
        want = 1.0 / (cp * (2.0 * c - setup.eps) * 0.1 / (4.0 * c))
        assert want == pytest.approx(4.9e-9, rel=1e-3)
        assert blowup_time_estimate(setup) == pytest.approx(want, rel=1e-14)

    # base-2 exponents of positive floats, from the least subnormal to the largest power of 2
    EXPONENTS = st.floats(-1074.0, 1023.0)
    # every message the construction may give these draws: the rule of
    # initial_data.checked_float, the weight, eps and domain hypotheses, the speed's
    # sampled bounds (c overflows where k1 tan(u)**2 does) and the overflowing
    # quadrature of E(0)
    MESSAGES = re.compile(
        r"(.+ = \S+ is not a (positive )?finite float"
        r"|declared bounds c0=\S+, c1=\S+ violated: sampled min c=\S+, max c=\S+, max \|c'\|=\S+"
        r"|the weight c0 \* r_lo\*\*alpha = \S+ at r_lo = \S+ is below 1e-300"
        r"|need 0 < eps < min\(c0, r0/2\) = \S+, got eps=\S+"
        r"|domain left end must lie left of the bump"
        r"|domain right end does not cover the support reach \S+"
        r"|the initial energy by quadrature of the initial data overflows a float)"
    )

    @contextlib.contextmanager
    def named(self):
        """Suppress a ConfigError whose message is one of MESSAGES."""
        try:
            yield
        except ConfigError as err:
            assert self.MESSAGES.fullmatch(str(err)), str(err)

    @given(
        d=st.sampled_from([1, 2, 3]),
        speed_bounds=st.lists(EXPONENTS, min_size=2, max_size=2),
        r0=EXPONENTS, eps=EXPONENTS, amplitude=EXPONENTS,
    )
    # d = 5 with r_hi**alpha = 3.1e306, which r**alpha / dt overflows at a tiny dt
    @example(d=5, speed_bounds=[0.0, 2.0], r0=508.0, eps=-4.0, amplitude=0.0)
    # t_final = 2^-574 / 2^501 underflows to 0.0
    @example(d=1, speed_bounds=[0.0, 501.0], r0=-574.0, eps=-624.0, amplitude=0.0)
    @settings(max_examples=60, deadline=None)
    def test_constants_are_finite_floats_or_named(self, d, speed_bounds, r0, eps, amplitude):
        # an Oseen-Frank speed of scale s, c in [s, sqrt(2) s], between its declared
        # bounds c0 <= s and c1 >= 2 s, with s**2 a normal float
        e0, e1 = sorted(speed_bounds)
        es = min(max((e0 + e1) / 2.0, -500.0), 500.0)
        assume(e0 <= es <= e1 - 1.0)
        s = 2.0**es
        speed = OseenFrankSpeed(c0=2.0**e0, c1=2.0**e1, k1=2.0 * s * s, k3=s * s)
        r0, eps, amplitude = 2.0**r0, 2.0**eps, 2.0**amplitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the example
            with self.named():
                assert math.isfinite(theorem_amplitude(d, r0, math.pi / 4, speed))
            setup = None
            with self.named():
                setup = ProblemSetup.theorem(
                    d=d, r0=r0, eps=eps, u0=math.pi / 4, speed=speed,
                    profile=PolynomialBump(amplitude=amplitude),
                )
            if setup is None:
                return
            assert setup.t_final > 0.0
            with self.named():
                constants = compute_constants(setup, require_hypothesis=False)
                # c'(u0) > 0, so S0_lower is finite too
                assert all(type(v) is float and math.isfinite(v) for v in vars(constants).values())
            with self.named():
                # inf where no finite time is predicted
                assert blowup_time_estimate(setup) >= 0.0
            assert_scaled_factors_finite(setup)


class TestEnergyObserver:
    def test_zero_state_zero_energy(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 128)
        obs = EnergyObserver(grid)
        obs(init_state(setup, grid))
        assert obs.E == [0.0]

    def test_initial_energy_within_envelope(self, canonical_setup):
        # quadrature inequality E(0) <= K_envelope r0^{2 alpha} eps, no tolerance
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        obs = EnergyObserver(grid)
        obs(init_state(canonical_setup, grid))
        constants = compute_constants(canonical_setup)
        s = canonical_setup
        assert obs.E[0] <= constants.K_envelope * s.r0 ** (2 * s.alpha) * s.eps

    def test_overflowing_energy_is_named_with_its_state(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 64)
        n = grid.n
        fields = np.array([np.full(n, gentle_setup.u0), np.zeros(n), np.zeros(n)])
        fields[1, 30] = 1e200
        state = GridState(0.25, fields, (30, 31))
        obs = EnergyObserver(grid)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as err:
            obs(state)
        assert str(err.value) == "the energy overflows a float at t=0.25"
        assert err.value.last_state is state and obs.t == obs.E == []

    def test_drift_halves_under_refinement(self, gentle_setup):
        drifts = []
        for n in (512, 1024):
            grid = Grid.uniform(*gentle_setup.domain, n)
            obs = EnergyObserver(grid)
            run(gentle_setup, grid, SchemeConfig(), observers=(obs,), t_end=0.25)
            drifts.append(obs.max_relative_drift)
        assert drifts[0] > 0.0
        assert 1.4 <= drifts[0] / drifts[1] <= 2.8

    def test_energy_sums_the_cells_touching_the_live_range(
        self, gentle_setup, node_weighted_energy
    ):
        # the live range grows, shrinks and empties between calls of one
        # observer; each E is the node-weighted sum over that state's live
        # range, which is the trapezoid rule on its touched cells
        grid = Grid.uniform(*gentle_setup.domain, 256)
        n, u0 = grid.n, gentle_setup.u0
        rng = np.random.default_rng(11)

        def state(t, lo, hi, stored):
            u, R, S = np.full(n, u0), np.zeros(n), np.zeros(n)
            for field in (u, R, S):
                field[lo:hi] += rng.uniform(0.5, 2.0, hi - lo)
            a, b = stored
            return GridState(t, np.array([u, R, S])[:, a:b], (lo, hi), a, n, u0)

        wide = state(0.0, 1, n - 1, (0, n))
        states = [wide, state(1.0, 120, 131, (110, 140)), state(2.0, 0, 0, (60, 70)), wide]
        obs = EnergyObserver(grid)
        for st in states:
            obs(st)
        want = [node_weighted_energy(grid.r, st) for st in states]
        assert want[2] == 0.0 < want[1] < want[0] == want[3]
        np.testing.assert_array_equal(
            np.asarray(obs.E).view(np.uint64), np.asarray(want).view(np.uint64)
        )
        for st, e in zip(states, obs.E):
            y = st.R**2 + st.S**2
            assert e == pytest.approx(np.trapezoid(y, grid.r), rel=1e-14, abs=0.0)
        # the data tells the pin from the cell by cell trapezoid
        a, b = states[0].live
        cells = np.trapezoid((states[0].R**2 + states[0].S**2)[a - 1:b + 1], grid.r[a - 1:b + 1])
        assert cells != want[0]

    def test_energy_of_a_live_range_past_ten_thousand_nodes(
        self, gentle_setup, node_weighted_energy
    ):
        # past 10,000 elements a BLAS dot splits the sum across threads; the
        # observer's pairwise numpy sum keeps one order whatever the CPU count
        grid = Grid.uniform(*gentle_setup.domain, 16384)
        n, u0 = grid.n, gentle_setup.u0
        rng = np.random.default_rng(17)
        lo, hi = 1500, 13800
        u, R, S = np.full(n, u0), np.zeros(n), np.zeros(n)
        for field in (u, R, S):
            field[lo:hi] += rng.uniform(-2.0, 2.0, hi - lo)
        state = GridState(0.5, np.array([u, R, S]), (lo, hi))
        obs = EnergyObserver(grid)
        obs(state)
        want = node_weighted_energy(grid.r, state)
        assert np.float64(obs.E[0]).view(np.uint64) == np.float64(want).view(np.uint64)
        y = R**2 + S**2
        assert obs.E[0] == pytest.approx(np.trapezoid(y, grid.r), rel=1e-14, abs=0.0)
        # the data tells the pin from the cell by cell trapezoid
        assert np.trapezoid(y[lo - 1:hi + 1], grid.r[lo - 1:hi + 1]) != want


class TestTriangleIdentity:
    def test_zero_data_both_sides_vanish(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 512)
        rep, _, _ = triangle_identity(setup, grid, SchemeConfig(), 0.85, 1.15)
        assert rep.lhs == pytest.approx(0.0, abs=1e-20)
        assert rep.rhs == 0.0
        assert rep.residual == pytest.approx(0.0, abs=1e-10)

    def test_triangle_outside_the_bump_sees_nothing(self, gentle_setup):
        # feet to the left of the support; the crossing happens before any
        # wave can enter, so both sides stay at zero
        grid = Grid.uniform(*gentle_setup.domain, 512)
        rep, _, _ = triangle_identity(gentle_setup, grid, SchemeConfig(), 0.4, 0.6)
        assert rep.rhs == 0.0
        assert abs(rep.lhs) < 1e-12

    def test_gentle_bump_residual_shrinks_first_order(self, gentle_setup):
        residuals = []
        for n in (1024, 2048, 4096):
            grid = Grid.uniform(*gentle_setup.domain, n)
            rep, _, _ = triangle_identity(gentle_setup, grid, SchemeConfig(), 0.85, 1.15)
            residuals.append(rep.residual)
        assert residuals[-1] < 0.02
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        assert all(o >= 0.9 for o in orders)

    def test_crossing_geometry(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 1024)
        rep, _, _ = triangle_identity(gentle_setup, grid, SchemeConfig(), 0.85, 1.15)
        assert 0.85 < rep.r_m < 1.15
        assert 0.0 < rep.t_m < gentle_setup.t_final

    def test_feet_order_validated(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 256)
        with pytest.raises(HypothesisViolated):
            triangle_identity(gentle_setup, grid, SchemeConfig(), 1.15, 0.85)

    def test_wide_feet_rejected_by_precondition(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 256)
        with pytest.raises(HypothesisViolated):
            triangle_identity(gentle_setup, grid, SchemeConfig(), 0.2, 1.6)

    @pytest.mark.parametrize("r1, r2", [(0.001, 0.3), (1.9, 3.0)], ids=["below", "above"])
    def test_feet_off_the_domain_rejected_by_both_solvers(self, gentle_setup, r1, r2):
        # the domain is [0.01, 2.1]; the gap r2 - r1 is below its limit 1.27
        grid = Grid.uniform(*gentle_setup.domain, 256)
        match = r"^need r_lo <= r1 < r2 <= r_hi on the domain"
        with pytest.raises(HypothesisViolated, match=match):
            triangle_identity(gentle_setup, grid, SchemeConfig(), r1, r2)
        with pytest.raises(HypothesisViolated, match=match):
            characteristic_triangle_identity(gentle_setup, 64, r1, r2)

    def test_step_budget_exhaustion_raises_no_intersection(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 512)
        with pytest.raises(NoIntersection):
            triangle_identity(gentle_setup, grid, SchemeConfig(max_steps=5), 0.85, 1.15)

    def test_gradient_ceiling_before_crossing_raises_no_intersection(self, canonical_setup):
        # a ceiling just above the initial level is crossed at t~0.0013,
        # long before the paths from 0.85 and 1.15 meet near t~0.1
        grid = Grid.uniform(*canonical_setup.domain, 1024)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        g0, _ = stepper.gradient_max(init_state(canonical_setup, grid))
        cfg = SchemeConfig(gradient_ceiling=1.02 * g0)
        with pytest.raises(NoIntersection, match="gradient_ceiling"):
            triangle_identity(canonical_setup, grid, cfg, 0.85, 1.15)


def _constant_field_states(setup, grid, n_steps=8, dt=1e-3):
    """Hand-built states with S=1, R=0, u=u0 at consecutive times."""
    n = grid.n
    states = []
    for k in range(n_steps + 1):
        states.append(
            GridState(k * dt, np.array([np.full(n, setup.u0), np.zeros(n), np.ones(n)]), (0, n))
        )
    return states


def _inv_s_loop(path, setup, constants):
    """The 1/S monitor sample by sample, in Python floats: the reference."""
    sp = setup.speed
    quad_coef = sp.c1 / (4.0 * sp.c0 * setup.r0**setup.alpha)
    geom_coef = setup.alpha * sp.c1 / setup.r0
    ts, ys, checks, violations, paired = [], [], 0, 0, False
    for t, R, S in zip(path.t, path.R, path.S):
        t, R, S = float(t), float(R), float(S)
        if S <= 0.0:
            paired = False
            continue
        y = 1.0 / S
        if paired:
            lhs = (y - ys[-1]) / (t - ts[-1])
            rhs = -constants.inv_s_decay_rate + y * y * (quad_coef * R * R + geom_coef * abs(R))
            checks += 1
            violations += lhs > rhs
        ts.append(t)
        ys.append(y)
        paired = True
    return ts, ys, checks, violations


# the detection fields of a run that stopped at t_final without detecting
_UNDETECTED = RunResult(state=None, steps=0, reason="t_final", detected=False,
                        t_detect=None, r_detect=None, gradient_ceiling=math.inf)


class TestInvSObserver:
    """The 1/S record that `build_blowup_report` reads from a finished path.

    The class keeps the name of the per-step observer the record replaced,
    so the ids of the tests it carried over are unchanged.
    """

    def test_constant_positive_s_flatline(self, unit_speed):
        # 1/S stays at 1 and the decay inequality holds with both sides zero
        setup = ProblemSetup.theorem(
            d=1, r0=1.0, eps=0.1, u0=0.5, speed=unit_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 64)
        path = CharacteristicPath("plus", setup.r0, grid, unit_speed)

        # zero decay rate stands in for the constants (c'(u0) = 0 here)
        class _Stub:
            inv_s_decay_rate = 0.0
            c_prime_u0 = 0.0
            S0_lower = math.inf  # compute_constants' value for c'(u0) = 0
            t_star_bound = setup.t_final

        states = _constant_field_states(setup, grid)
        for state in states:
            path(state)
        report = build_blowup_report(_UNDETECTED, path.samples(), _Stub(), setup)
        assert report.inequality_violations == 0
        assert report.inequality_checks == len(states) - 1
        assert np.all(report.inv_S_trace[:, 1] == 1.0)
        assert report.t_star_extrapolated is None  # flat line never crosses zero

    def test_initial_reciprocal_gradient_small_enough(self, canonical_setup):
        # the constructed data start above S0_lower, that is 1/S(0) below
        # min{(r0-eps) c'(u0)/(32 c1^2 (2 r0)^alpha), 1/2}
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 512)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(max_steps=0), observers=(path,))
        samples = path.samples()
        assert build_blowup_report(result, samples, constants, s).initial_inv_s_ok is True
        # the flag is S(0) > S0_lower, strictly
        s0 = float(samples.S[0])
        for bound, ok in ((np.nextafter(s0, 0.0), True), (s0, False), (math.inf, False)):
            bounded = dataclasses.replace(constants, S0_lower=bound)
            assert build_blowup_report(result, samples, bounded, s).initial_inv_s_ok is ok

    def test_matches_the_sample_by_sample_loop(self, canonical_setup):
        # a traced path, then the same samples with large R, every fifth S
        # flipped to -S or -0.0 and one NaN, so that both outcomes of the
        # check occur and a NaN sample is kept and paired like a positive one
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 1024)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        run(s, grid, SchemeConfig(), observers=(path,), t_end=0.01)
        a = path.samples()
        rng = np.random.default_rng(7)
        S = a.S.copy()
        S[::5] *= -1.0
        S[3::10] = -0.0
        S[1] = np.nan
        R = rng.normal(0.0, 30.0, S.size)
        perturbed = PathSamples("plus", a.t, a.r, a.u, R, S)
        for samples in (a, perturbed):
            report = build_blowup_report(_UNDETECTED, samples, constants, s)
            ts, ys, checks, violations = _inv_s_loop(samples, s, constants)
            assert report.inv_S_trace[:, 0].tolist() == ts
            # NaN != NaN, so compare the bit patterns
            assert report.inv_S_trace[:, 1].view(np.uint64).tolist() == (
                np.array(ys).view(np.uint64).tolist()
            )
            assert (report.inequality_checks, report.inequality_violations) == (
                checks, violations
            )
        assert 0 < violations < checks
        assert np.isnan(report.inv_S_trace[:, 1]).sum() == 1

    def test_nonpositive_sample_breaks_the_pair_chain(self, canonical_setup):
        # samples 0-1 and 3-4 pair up; the non-positive sample 2 is skipped
        # and no pair spans it.  The hand check of pair 0-1:
        # d(1/S)/dt = (0.25 - 0.5)/0.1 = -2.5 against the bound at R = 0,
        # -rate, so it conforms; pair 3-4 has 1/S rising and violates it.
        s = canonical_setup
        constants = compute_constants(s)
        t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        S = np.array([2.0, 4.0, -1.0, 4.0, 2.0])
        zero = np.zeros_like(t)
        samples = PathSamples("plus", t, zero, zero, zero, S)
        report = build_blowup_report(_UNDETECTED, samples, constants, s)
        assert report.inequality_checks == 2
        assert report.inequality_violations == 1
        assert report.inequality_fraction == 0.5
        np.testing.assert_array_equal(
            report.inv_S_trace, [[0.0, 0.5], [0.1, 0.25], [0.3, 0.25], [0.4, 0.5]]
        )
        assert not report.s_gt1_after_first

    def test_decreasing_reciprocal_during_steepening(self, canonical_setup):
        # over the coherent early window 1/S falls monotonically and the
        # extrapolated zero lands inside the derived time bound; the window
        # needs the steepening channel resolved, hence the fine grid
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 8192)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(), observers=(path,), t_end=0.004)
        report = build_blowup_report(result, path.samples(), constants, s)
        assert np.all(np.diff(report.inv_S_trace[:, 1]) < 0.0)
        assert report.inequality_fraction == 1.0
        assert report.t_star_extrapolated is not None
        assert report.t_star_within_paper_bound


class TestVerdict:
    def test_detected_run_passes(self, canonical_setup):
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 1024)
        stepper = Stepper(s, grid, SchemeConfig())
        g0, _ = stepper.gradient_max(init_state(s, grid))
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(gradient_ceiling=1.02 * g0), observers=(path,))
        report = build_blowup_report(result, path.samples(), constants, s)
        assert report.verdict == "PASS"
        assert report.t_detect < s.t_final

    def test_undetected_steepening_run_fails(self, gentle_setup):
        # c'(u0) > 0, but the mild bump stays smooth up to t_final
        s = gentle_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 256)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(), observers=(path,))
        report = build_blowup_report(result, path.samples(), constants, s)
        assert result.reason == "t_final"
        assert not report.detected
        assert report.verdict == "FAIL"

    def test_flat_speed_fails_as_expected(self, unit_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=0.5, speed=unit_speed,
            profile=PolynomialBump(amplitude=5.0),
        )
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, unit_speed)

        class _Stub:
            inv_s_decay_rate = 0.0
            c_prime_u0 = 0.0
            S0_lower = math.inf  # compute_constants' value for c'(u0) = 0
            t_star_bound = setup.t_final

        result = run(setup, grid, SchemeConfig(), observers=(path,))
        report = build_blowup_report(result, path.samples(), _Stub(), setup)
        assert not report.detected
        assert report.verdict == "FAIL-AS-EXPECTED"

    def test_step_budget_inconclusive(self, canonical_setup):
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 256)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(max_steps=3), observers=(path,))
        report = build_blowup_report(result, path.samples(), constants, s)
        assert report.verdict == "INCONCLUSIVE"


class TestReportAssembly:
    def test_json_document_shape(self, canonical_setup):
        s = canonical_setup
        constants = compute_constants(s)
        grid = Grid.uniform(*s.domain, 256)
        energy = EnergyObserver(grid)
        path = CharacteristicPath("plus", s.r0, grid, s.speed)
        result = run(s, grid, SchemeConfig(max_steps=10), observers=(energy, path))
        hat = path.samples()
        report = build_blowup_report(result, hat, constants, s)
        from varwave import c_prime_sign_along, u_drift_along

        drift = energy.max_relative_drift
        doc = build_report(
            constants, drift, report, u_drift_along(hat, constants), c_prime_sign_along(hat, s)
        )
        assert set(doc["constants"]) == {
            "K_measured", "K_envelope", "M", "eps0", "S0_lower", "t_star_bound"
        }
        flags = doc["blowup"]["flags"]
        assert set(flags) == {
            "u_drift_ok", "c_prime_sign_ok", "inv_S_inequality_ok",
            "t_star_within_paper_bound",
        }
        assert "energy" not in doc
        assert doc["energy_max_relative_drift"] == drift
