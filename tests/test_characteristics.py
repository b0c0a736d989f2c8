import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import (
    CharacteristicPath,
    ConstantSpeed,
    Grid,
    GridState,
    NoIntersection,
    PathLeftDomain,
    PathSamples,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    Stepper,
    c_prime_margin,
    c_prime_sign_along,
    compute_constants,
    find_intersection,
    init_state,
    run,
    u_drift_along,
)
from varwave.riemann_core import rhs_fields, source_coefficients
from varwave.speed_models import PROBE_BLOCK, OseenFrankSpeed


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
        t_m, r_m = find_intersection(plus.samples(), minus.samples())
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
            find_intersection(plus.samples(), minus.samples())

    def test_misordered_feet_rejected(self, unit_speed):
        setup = quiet_setup(unit_speed)
        grid = Grid.uniform(*setup.domain, 256)
        plus = CharacteristicPath("plus", 1.5, grid, unit_speed)
        minus = CharacteristicPath("minus", 1.0, grid, unit_speed)
        trace(setup, grid, SchemeConfig(), 0.05, [plus, minus])
        with pytest.raises(ValueError):
            find_intersection(plus.samples(), minus.samples())

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
            values.append(find_intersection(plus.samples(), minus.samples()))
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

    def test_samples_are_the_recorded_lists_as_arrays(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        path = CharacteristicPath("plus", 1.0, grid, canonical_setup.speed)
        empty = path.samples()
        assert empty.family == "plus"
        assert all(v.dtype == np.float64 and v.size == 0 for v in empty.columns().values())
        run(canonical_setup, grid, SchemeConfig(max_steps=20), observers=(path,))
        samples = path.samples()
        columns = samples.columns()
        assert list(columns) == ["t", "r", "u", "R", "S"]
        for key, column in columns.items():
            assert column is getattr(samples, key)
            np.testing.assert_array_equal(bits(column), bits(getattr(path, key)))

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
            factors = source_coefficients(1.0 / rm, rm**setup.alpha, canonical_speed.c(um),
                                          canonical_speed.c_prime(um), setup.alpha)
            _, f_S = rhs_fields(*factors, Rm, Sm)
            residuals.append(float(np.mean(np.abs(dSdt - f_S))))
        assert residuals[1] <= 0.75 * residuals[0]
        assert residuals[2] <= 0.75 * residuals[1]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class ReferencePath(CharacteristicPath):
    """The path as first written: every field sampled by its own np.interp."""

    def __call__(self, state):
        if not self.t:
            self._append(state.t, self.r_start, state)
        else:
            self.advance(self.previous, state)
        self.previous = state

    def _append(self, t, r, state):
        gr = self.grid.r
        self.t.append(t)
        self.r.append(r)
        self.u.append(float(np.interp(r, gr, state.u)))
        self.R.append(float(np.interp(r, gr, state.R)))
        self.S.append(float(np.interp(r, gr, state.S)))

    def advance(self, state_before, state_after):
        dt = state_after.t - state_before.t
        r_n = self.r[-1]
        u_a = float(np.interp(r_n, self.grid.r, state_before.u))
        k1 = self.sign * float(self.speed.c(u_a))
        r_half = self._check_domain(r_n + 0.5 * dt * k1)
        u_half = 0.5 * (
            float(np.interp(r_half, self.grid.r, state_before.u))
            + float(np.interp(r_half, self.grid.r, state_after.u))
        )
        k2 = self.sign * float(self.speed.c(u_half))
        self._append(state_after.t, self._check_domain(r_n + dt * k2), state_after)


def lookup(*ys):
    """Node i -> the floats y[i] of each y, the form GridState.node gives."""
    return lambda i: tuple(y.item(i) for y in ys)


SAMPLE_GRID = Grid.uniform(0.5, 1.5, 9)
NODES = SAMPLE_GRID.r.tolist()
# finite values, infinities (inf - inf makes the NaN that the retry from the
# right node and the equal-neighbour rule handle), NaN, and spans that overflow
FIELD_VALUE = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
)
RADIUS = st.one_of(
    st.sampled_from(NODES),
    st.floats(0.3, 1.7),
    st.sampled_from([math.nan, -math.inf, math.inf, 1.5 + 1e-15, 0.5 - 1e-15]),
)


class TestInterpolation:
    """Path samples against np.interp through uint64 views."""

    @settings(max_examples=300, deadline=None)
    @given(
        r=RADIUS,
        fields=st.lists(st.lists(FIELD_VALUE, min_size=9, max_size=9), min_size=1, max_size=3),
        ties=st.lists(st.integers(0, 7), max_size=4),
    )
    def test_sample_matches_np_interp(self, r, fields, ties):
        ys = [np.array(f) for f in fields]
        for y in ys:
            y[np.array(ties, dtype=int) + 1] = y[np.array(ties, dtype=int)]  # equal neighbours
        path = CharacteristicPath("plus", 1.0, SAMPLE_GRID, ConstantSpeed.of(1.0))
        got = path._sample(r, lookup(*ys))
        want = [float(np.interp(r, SAMPLE_GRID.r, y)) for y in ys]
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("r", NODES + [NODES[-1], 0.95, math.nan])
    @pytest.mark.parametrize(
        "y",
        [
            [math.inf] * 9,
            [-math.inf, math.inf] * 4 + [1.0],
            [1e308, -1e308] * 4 + [0.0],
            [0.0, -0.0] * 4 + [-0.0],
            [math.nan] * 9,
        ],
        ids=["equal-inf", "opposite-inf", "huge-slopes", "signed-zeros", "nan"],
    )
    def test_nodes_and_nan_fallback(self, r, y):
        path = CharacteristicPath("plus", 1.0, SAMPLE_GRID, ConstantSpeed.of(1.0))
        y = np.array(y)
        np.testing.assert_array_equal(
            bits(path._sample(r, lookup(y))), bits([float(np.interp(r, SAMPLE_GRID.r, y))])
        )

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_canonical_paths_bitwise_equal_reference(self, canonical_setup, scheme):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        speed = canonical_setup.speed
        paths = [
            cls(family, r, grid, speed)
            for cls in (CharacteristicPath, ReferencePath)
            for family, r in (("plus", canonical_setup.r0), ("minus", 1.1))
        ]
        result = run(canonical_setup, grid, SchemeConfig(scheme=scheme), observers=tuple(paths))
        assert result.steps > 50
        for got, want in zip(paths[:2], paths[2:]):
            for key in ("t", "r", "u", "R", "S"):
                np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))

    def test_step_must_move_forward_in_time(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 128)
        state = init_state(canonical_setup, grid)
        path = CharacteristicPath("plus", canonical_setup.r0, grid, canonical_setup.speed)
        path(state)
        with pytest.raises(ValueError, match="forward step"):
            path(state)


class TestMonitors:
    def test_zero_data_has_zero_drift(self, canonical_speed):
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        report = u_drift_along(path.samples(), compute_constants(setup, require_hypothesis=False))
        assert report.max_drift == 0.0
        assert report.ok

    def test_zero_data_keeps_full_speed_margin(self, canonical_speed):
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        grid = Grid.uniform(*setup.domain, 256)
        path = CharacteristicPath("plus", setup.r0, grid, canonical_speed)
        trace(setup, grid, SchemeConfig(), 0.3, [path])
        report = c_prime_sign_along(path.samples(), setup)
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
        report = c_prime_sign_along(path.samples(), setup)
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
        drift = u_drift_along(path.samples(), compute_constants(setup, require_hypothesis=False))
        sign = c_prime_sign_along(path.samples(), setup)
        assert drift.ok
        assert sign.ok

    def test_monitors_read_path_samples(self, canonical_speed):
        # the monitors read hand-made samples as they read a traced path's
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        u = np.pi / 4 + np.array([0.0, 0.1, -0.2, 0.05])
        samples = PathSamples(
            family="plus", t=np.arange(4.0), r=np.ones(4), u=u, R=np.zeros(4), S=np.ones(4)
        )
        drift = u_drift_along(samples, compute_constants(setup, require_hypothesis=False))
        sign = c_prime_sign_along(samples, setup)
        assert drift.max_drift == pytest.approx(0.2)
        assert sign.min_c_prime == pytest.approx(float(np.min(canonical_speed.c_prime(u))))


class TestCPrimeMargin:
    def test_canonical_margin_is_the_nearer_threshold_crossing(self, canonical_speed):
        # c' >= c'(u0)/4 on about [0.103, 1.425] around u0 = pi/4
        setup = quiet_setup(canonical_speed, u0=np.pi / 4)
        margin = c_prime_margin(setup)
        assert margin == pytest.approx(1.4250 - np.pi / 4, abs=2e-3)
        threshold = canonical_speed.c_prime(np.pi / 4) / 4
        assert canonical_speed.c_prime(np.pi / 4 + margin) >= threshold
        assert canonical_speed.c_prime(np.pi / 4 + margin + 1e-3) < threshold
        assert canonical_speed.c_prime(np.pi / 4 - margin) > threshold

    def test_no_margin_without_steepening(self, unit_speed):
        assert c_prime_margin(quiet_setup(unit_speed)) == 0.0

    @pytest.mark.parametrize(
        "u0, k1, k3",
        [(np.pi / 4, 2.0, 1.0), (0.3, 2.0, 1.0), (1.2, 2.0, 1.0), (0.05, 4.0, 0.5), (2.0, 1.0, 2.0)],
    )
    def test_margin_equals_the_whole_offset_formula(self, u0, k1, k3):
        speed = OseenFrankSpeed(c0=min(k1, k3) ** 0.5, c1=max(k1, k3), k1=k1, k3=k3)
        setup = SimpleNamespace(u0=u0, speed=speed)
        assert bits(c_prime_margin(setup)) == bits(whole_offset_margin(setup))

    # offsets[k] is the first sample below the threshold on the + side
    @pytest.mark.parametrize(
        "k", [1, 2, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 5 * PROBE_BLOCK, 100_000]
    )
    @pytest.mark.parametrize("minus_k", [None, PROBE_BLOCK, 2 * PROBE_BLOCK + 3])
    def test_first_low_offset_at_a_block_edge(self, k, minus_k):
        offsets = np.linspace(0.0, np.pi, 100_001)
        cut_minus = math.inf if minus_k is None else float(offsets[minus_k])
        speed = StepCPrime(cut_plus=float(offsets[k]), cut_minus=cut_minus)
        setup = SimpleNamespace(u0=0.0, speed=speed)
        margin = c_prime_margin(setup)
        assert bits(margin) == bits(whole_offset_margin(setup))
        assert margin == offsets[min(k, minus_k or k) - 1]

    def test_canonical_margin_peak(self, canonical_setup, traced_peak):
        # c' of each side's 100,001 offsets at once peaks at 6.6 MiB
        assert traced_peak(lambda: c_prime_margin(canonical_setup)) < 1.5


def whole_offset_margin(setup):
    """c_prime_margin as first written: each side's c' on all its offsets at once."""
    u0 = setup.u0
    threshold = float(setup.speed.c_prime(u0)) / 4.0
    if threshold <= 0.0:
        return 0.0
    offsets = np.linspace(0.0, np.pi, 100_001)
    margin = np.pi
    for side in (1.0, -1.0):
        low = np.nonzero(np.asarray(setup.speed.c_prime(u0 + side * offsets)) < threshold)[0]
        if low.size:
            margin = min(margin, float(offsets[low[0] - 1]))
    return margin


class StepCPrime:
    """c' = 1 on (-cut_minus, cut_plus) and 0 off it."""

    def __init__(self, cut_plus, cut_minus):
        self.cut_plus, self.cut_minus = cut_plus, cut_minus

    def c_prime(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where((u < self.cut_plus) & (-u < self.cut_minus), 1.0, 0.0)
        return out if out.ndim else float(out)
