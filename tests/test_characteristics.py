import math

import numpy as np
import pytest

from varwave import (
    CharacteristicPath,
    ConstantSpeed,
    Grid,
    GridState,
    NoIntersection,
    PathLeftDomain,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    Stepper,
    c_prime_sign_along,
    compute_constants,
    find_intersection,
    run,
    u_drift_along,
)
from varwave.riemann_core import rhs_fields


def quiet_setup(speed, eps=0.1, amplitude=0.0, d=3, u0=0.5):
    return ProblemSetup.theorem(
        d=d, r0=1.0, eps=eps, u0=u0, speed=speed,
        profile=PolynomialBump(amplitude=amplitude),
    )


def trace(setup, grid, cfg, t_end, paths):
    run(setup, grid, cfg, observers=tuple(paths), t_end=t_end)
    return paths


class TestConstantSpeedPaths:
    def test_plus_path_linear(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", 1.0, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.5, [path])
        t = np.asarray(path.t)
        np.testing.assert_allclose(path.r, 1.0 + t, rtol=0, atol=1e-12)

    def test_minus_path_linear(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("minus", 2.0, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.5, [path])
        t = np.asarray(path.t)
        np.testing.assert_allclose(path.r, 2.0 - t, rtol=0, atol=1e-12)

    def test_mirror_symmetry_about_common_start(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        plus = CharacteristicPath("plus", 1.2, grid, unit_speed)
        minus = CharacteristicPath("minus", 1.2, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.4, [plus, minus])
        p = np.asarray(plus.r) - 1.2
        m = 1.2 - np.asarray(minus.r)
        np.testing.assert_allclose(p, m, rtol=0, atol=1e-13)


class TestIntersection:
    def test_symmetric_crossing_closed_form(self, unit_speed):
        # oracle: straight lines 0.9 + t and 1.1 - t meet at (0.1, 1.0)
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        plus = CharacteristicPath("plus", 0.9, grid, unit_speed)
        minus = CharacteristicPath("minus", 1.1, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [plus, minus])
        t_m, r_m = find_intersection(plus, minus)
        assert t_m == pytest.approx(0.1, abs=1e-12)
        assert r_m == pytest.approx(1.0, abs=1e-12)

    def test_wide_separation_never_crosses(self, unit_speed):
        # feet further apart than 2 c0 t_final cannot meet before t_final
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        plus = CharacteristicPath("plus", 0.05, grid, unit_speed)
        minus = CharacteristicPath("minus", 2.05, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), setup.t_final, [plus, minus])
        with pytest.raises(NoIntersection):
            find_intersection(plus, minus)

    def test_misordered_feet_rejected(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        plus = CharacteristicPath("plus", 1.5, grid, unit_speed)
        minus = CharacteristicPath("minus", 1.0, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.05, [plus, minus])
        with pytest.raises(ValueError):
            find_intersection(plus, minus)

    def test_variable_speed_crossing_converges_under_refinement(self, canonical_speed):
        # Richardson-style: the crossing location stabilizes at first order
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=2.0),
        )
        values = []
        for n in (512, 1024, 2048):
            grid = Grid.uniform(*setup.domain, n)
            plus = CharacteristicPath("plus", 0.9, grid, canonical_speed)
            minus = CharacteristicPath("minus", 1.2, grid, canonical_speed)
            trace(setup, grid, SchemeConfig(), 0.2, [plus, minus])
            values.append(find_intersection(plus, minus))
        d1 = abs(values[1][0] - values[0][0])
        d2 = abs(values[2][0] - values[1][0])
        assert d2 <= 0.8 * d1
        assert abs(values[2][1] - values[1][1]) <= 0.8 * abs(values[1][1] - values[0][1]) + 1e-12


class TestPathProperties:
    def test_increment_magnitudes_within_speed_bounds(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        plus = CharacteristicPath("plus", canonical_setup.r0, grid, canonical_setup.speed)
        minus = CharacteristicPath("minus", canonical_setup.r0, grid, canonical_setup.speed)
        cfg = SchemeConfig(max_steps=50)
        run(canonical_setup, grid, cfg, observers=(plus, minus))
        c0, c1 = canonical_setup.speed.c0, canonical_setup.speed.c1
        dt = Stepper(canonical_setup, grid, cfg).base_dt
        for path, sign in ((plus, 1.0), (minus, -1.0)):
            dr = np.diff(np.asarray(path.r)) * sign
            assert np.all(dr >= c0 * dt - 1e-12)
            assert np.all(dr <= c1 * dt + 1e-12)

    def test_sample_times_follow_solver_steps(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        path = CharacteristicPath("plus", 1.0, grid, canonical_setup.speed)
        times = []
        run(canonical_setup, grid, SchemeConfig(max_steps=20),
            observers=(path, lambda s: times.append(s.t)))
        assert len(times) == 21
        np.testing.assert_array_equal(path.t, times)

    def test_leaving_the_domain_raises(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", grid.r_hi - 2 * grid.h, grid, unit_speed)
        with pytest.raises(PathLeftDomain):
            trace(setup, grid, SchemeConfig(), 0.5, [path])

    def test_start_outside_domain_rejected(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        with pytest.raises(PathLeftDomain):
            CharacteristicPath("plus", grid.r_hi + 1.0, grid, unit_speed)

    def test_sampled_s_obeys_plus_family_ode_under_refinement(self, canonical_speed):
        # d(S sample)/dt approaches f_S at first order along the plus path
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=2.0),
        )
        residuals = []
        for n in (512, 1024, 2048):
            grid = Grid.uniform(*setup.domain, n)
            path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
            trace(setup, grid, SchemeConfig(), 0.2, [path])
            t = np.asarray(path.t)
            r = np.asarray(path.r)
            u = np.asarray(path.u)
            R = np.asarray(path.R)
            S = np.asarray(path.S)
            dSdt = np.diff(S) / np.diff(t)
            rm = 0.5 * (r[:-1] + r[1:])
            um = 0.5 * (u[:-1] + u[1:])
            Rm = 0.5 * (R[:-1] + R[1:])
            Sm = 0.5 * (S[:-1] + S[1:])
            _, f_S = rhs_fields(1.0 / rm, rm**setup.alpha, canonical_speed.c(um),
                                canonical_speed.c_prime(um), Rm, Sm, setup.alpha)
            residuals.append(float(np.mean(np.abs(dSdt - f_S))))
        assert residuals[1] <= 0.75 * residuals[0]
        assert residuals[2] <= 0.75 * residuals[1]


class TestMonitors:
    def test_zero_data_has_zero_drift(self, canonical_speed):
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        report = u_drift_along(path, compute_constants(setup, require_hypothesis=False))
        assert report.max_drift == 0.0
        assert report.ok

    def test_zero_data_keeps_full_speed_margin(self, canonical_speed):
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        report = c_prime_sign_along(path, setup)
        cp0 = canonical_speed.c_prime(np.pi / 4)
        assert report.min_c_prime == pytest.approx(cp0, rel=1e-12)
        assert report.threshold == pytest.approx(cp0 / 4, rel=1e-12)
        assert report.ok

    def test_constant_speed_fails_sign_monitor(self, unit_speed):
        # c' vanishes identically, so the monotonicity flag must fail
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        report = c_prime_sign_along(path, setup)
        assert report.min_c_prime == 0.0
        assert not report.ok

    def test_gentle_run_drift_within_bound(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=2.0),
        )
        grid = Grid.uniform(*setup.domain, 512)
        path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        drift = u_drift_along(path, compute_constants(setup, require_hypothesis=False))
        sign = c_prime_sign_along(path, setup)
        assert drift.ok
        assert sign.ok
