import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varwave import (
    ConstantSpeed,
    CustomBump,
    DomainMismatch,
    Grid,
    GridState,
    NonFiniteState,
    OseenFrankSpeed,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    Stepper,
    init_state,
    initial_riemann,
    run,
)
from varwave import solver
from varwave.diagnostics import EnergyObserver, _trapezoid_energy, blowup_time_estimate


def transport_setup(eps=0.1, amplitude=1.0):
    """d=1, c=1: R and S translate rigidly, the exact-solution regression."""
    return ProblemSetup.theorem(
        d=1,
        r0=1.0,
        eps=eps,
        u0=0.5,
        speed=ConstantSpeed.of(1.0),
        profile=PolynomialBump(amplitude=amplitude),
    )


def smooth_setup(speed, amplitude=2.0):
    """Bump with three continuous derivatives at the support edge."""
    a = amplitude
    profile = CustomBump(
        amplitude=a,
        phi_fn=lambda z: -a * z * (1 - z**2) ** 4,
        phi_prime_fn=lambda z: -a * (1 - z**2) ** 3 * (1 - 9 * z**2),
    )
    return ProblemSetup.theorem(
        d=3, r0=1.0, eps=0.1, u0=np.pi / 4, speed=speed, profile=profile
    )


class TestGrid:
    def test_uniform_constructor(self):
        g = Grid.uniform(0.5, 1.5, 11)
        assert g.n == 11
        assert g.h == pytest.approx(0.1)
        assert g.r_lo == 0.5 and g.r_hi == 1.5

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            Grid.uniform(0.5, 1.5, 4)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            Grid.uniform(0.0, 1.0, 16)

    def test_nonuniform_rejected(self):
        r = np.concatenate([np.linspace(0.5, 1.0, 8), [1.2, 1.5]])
        with pytest.raises(ValueError):
            Grid(r)


class TestInitState:
    def test_matches_initial_riemann(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        state = init_state(canonical_setup, grid)
        R, S = initial_riemann(canonical_setup, grid.r)
        np.testing.assert_array_equal(state.R, R)
        np.testing.assert_array_equal(state.S, S)
        assert state.t == 0.0

    def test_quiescent_outside_bump(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        state = init_state(canonical_setup, grid)
        outside = (grid.r < canonical_setup.r0 - canonical_setup.eps) | (
            grid.r > canonical_setup.r0 + canonical_setup.eps
        )
        assert np.all(state.R[outside] == 0.0)
        assert np.all(state.S[outside] == 0.0)
        assert np.all(state.u[outside] == canonical_setup.u0)

    def test_domain_mismatch_rejected(self, canonical_setup):
        grid = Grid.uniform(0.02, 2.0, 512)
        with pytest.raises(DomainMismatch):
            init_state(canonical_setup, grid)


class TestStep:
    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_zero_state_stationary(self, scheme, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 128)
        state = init_state(setup, grid)
        new = Stepper(setup, grid, SchemeConfig(scheme=scheme)).step(state)
        assert np.all(new.R == 0.0) and np.all(new.S == 0.0)
        np.testing.assert_array_equal(new.u, state.u)
        assert new.t > 0.0

    def test_single_euler_update_oracle(self):
        # hand-computed forward-Euler step for S=1, R=0, constant c, alpha=1:
        # interior R gains -dt*c*S/r_i, S keeps its value, u gains dt/(2 r_i)
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=0.3, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 64)
        cfg = SchemeConfig(scheme="upwind1")
        stepper = Stepper(setup, grid, cfg)
        n = grid.n
        state = GridState(
            t=0.0, u=np.full(n, 0.3), R=np.zeros(n), S=np.ones(n)
        )
        dt = stepper.base_dt
        new = stepper.step(state, dt)
        inner = slice(1, -1)
        np.testing.assert_allclose(
            new.R[inner], -dt * 1.0 * 1.0 / grid.r[inner], rtol=1e-14
        )
        np.testing.assert_allclose(new.S[1:-1], 1.0, rtol=1e-14)
        np.testing.assert_allclose(
            new.u[inner], 0.3 + dt / (2 * grid.r[inner]), rtol=1e-14
        )
        # clamped quiescent boundaries
        assert new.R[0] == new.R[-1] == 0.0
        assert new.S[0] == new.S[-1] == 0.0

    def test_non_finite_state_raises_with_last_state(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 128)
        cfg = SchemeConfig()
        stepper = Stepper(canonical_setup, grid, cfg)
        state = init_state(canonical_setup, grid)
        state.S[50] = 1e300
        state.S[51] = -1e300
        with pytest.raises(NonFiniteState) as err:
            s = state
            for _ in range(10):
                s = stepper.step(s)
        assert err.value.last_state is not None
        assert err.value.last_state.is_finite()


@functools.cache
def window_setup(d):
    return ProblemSetup.theorem(
        d=d, r0=1.0, eps=0.05, u0=np.pi / 4,
        speed=OseenFrankSpeed(c0=1.0, c1=math.sqrt(2.0), k1=2.0, k3=1.0),
        profile=PolynomialBump(amplitude=0.0),
    )


def bits(a):
    return a.view(np.uint64)


@st.composite
def perturbed_states(draw):
    """A compact perturbation of (u0, 0, 0) on a grid of at most 64 nodes.

    Returns the setup, the state and the support [lo, hi).
    """
    setup = window_setup(draw(st.sampled_from((1, 2, 3))))
    n = draw(st.integers(16, 64))
    width = draw(st.integers(1, n // 2))
    end = draw(st.sampled_from(("left", "right", "inside", "inside")))
    if end == "left":
        lo = 0
    elif end == "right":
        lo = n - width
    else:
        lo = draw(st.integers(0, n - width))
    hi = lo + width
    # a shifted background makes every node live
    u = np.full(n, setup.u0 + draw(st.sampled_from((0.0, 0.0, 0.0, 0.25))))
    R, S = np.zeros(n), np.zeros(n)
    for field, bound in ((u, 1.0), (R, 10.0), (S, 10.0)):
        values = st.floats(-bound, bound, allow_nan=False)
        field[lo:hi] += draw(st.lists(values, min_size=width, max_size=width))
    # -0.0 on and next to the support
    near = st.integers(max(lo - 2, 0), min(hi + 2, n) - 1)
    for field in (R, S):
        for i in draw(st.lists(near, max_size=3)):
            field[i] = -0.0
    return setup, GridState(t=0.0, u=u, R=R, S=S), (lo, hi)


def same_bits(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def rescanned_live(state, u0):
    return solver._live_span(state.u, state.R, state.S, u0) or (0, 0)


def window_and_full_steppers(setup, n, scheme):
    grid = Grid.uniform(*setup.domain, n)
    cfg = SchemeConfig(scheme=scheme)
    full = Stepper(setup, grid, cfg)
    full._window = lambda state: (0, n)
    return Stepper(setup, grid, cfg), full


class TestLiveWindow:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")))
    def test_window_step_bitwise_equals_full_grid_step(self, case, scheme):
        setup, state, _ = case
        windowed, full = window_and_full_steppers(setup, state.u.size, scheme)
        got, want = windowed.step(state), full.step(state)
        assert got.t == want.t
        for key in ("u", "R", "S"):
            np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")),
           st.sampled_from(("u", "R", "S")))
    def test_nan_far_from_the_support_raises(self, case, scheme, field):
        setup, state, (lo, hi) = case
        n = state.u.size
        # the interior node farthest from the support; the end nodes are clamped
        getattr(state, field)[1 if lo >= n - hi else n - 2] = np.nan
        for stepper in window_and_full_steppers(setup, n, scheme):
            with pytest.raises(NonFiniteState):
                stepper.step(state)

    def test_canonical_step_touches_under_a_quarter_of_the_grid(self, canonical_setup):
        # guards the speed-up: the speed is evaluated only on the live window
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        sizes = []
        speed = stepper.speed

        class CountingSpeed:
            def c_and_c_prime(self, u):
                sizes.append(u.size)
                return speed.c_and_c_prime(u)

        stepper.speed = CountingSpeed()
        # the initial S is -0.0 on most of the quiescent nodes, so the first
        # step covers the grid and writes them as +0.0
        state = stepper.step(stepper.step(init_state(canonical_setup, grid)))
        lo, hi = stepper._window(state)
        assert len(sizes) == 2 and sizes[0] == grid.n and sizes[1] < grid.n / 4
        assert 0 < hi - lo < grid.n / 4


    def test_canonical_window_reads_the_carried_range(self, canonical_setup, monkeypatch):
        # guards the saving: after the first steps no step pass scans the grid
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        state = stepper.step(stepper.step(init_state(canonical_setup, grid)))
        scanned = []
        span = solver._live_span

        def counting_span(u, R, S, u0):
            scanned.append(u.size)
            return span(u, R, S, u0)

        monkeypatch.setattr(solver, "_live_span", counting_span)
        lo, hi = stepper._window(state)
        stepper.gradient_max(state)
        assert scanned == [] and 0 < hi - lo < grid.n / 4
        stepper.step(state)
        assert scanned and max(scanned) <= hi - lo

    def test_energy_observer_skips_c_on_quiescent_ends(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        speed = canonical_setup.speed
        calls = []

        class CountingSpeed:
            def c(self, u):
                calls.append(u)
                return speed.c(u)

        observer = EnergyObserver(grid, CountingSpeed())
        state = init_state(canonical_setup, grid)
        observer(state)  # the initial range is not known: both ends evaluate c
        assert len(calls) == 2
        state = stepper.step(stepper.step(state))
        a, b = state.live
        assert 0 < a and b < grid.n
        observer(state)
        assert len(calls) == 2
        assert observer.flux_lo[-1] == observer.flux_hi[-1] == 0.0


class TestCarriedLiveRange:
    """The live range a step carries, and the passes that read it."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")))
    def test_range_and_reductions_match_full_grid_forms(self, case, scheme):
        setup, state, _ = case
        n = state.u.size
        grid = Grid.uniform(*setup.domain, n)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        observer = EnergyObserver(grid, setup.speed)
        dr = np.diff(grid.r)
        assert state.live is None  # hand-built
        for k in range(5):
            if k:
                state = stepper.step(state)
                assert state.live == rescanned_live(state, setup.u0)
            g = np.abs(state.S) / stepper.ralpha
            i = int(np.argmax(g))
            got_g, got_i = stepper.gradient_max(state)
            assert got_i == i and same_bits(got_g, g[i])
            energy = np.trapezoid(state.R**2 + state.S**2, grid.r)
            assert same_bits(_trapezoid_energy(state, dr), energy)
            observer(state)
            assert same_bits(observer.E[-1], energy)
            for flux, j in ((observer.flux_lo, 0), (observer.flux_hi, n - 1)):
                c = float(setup.speed.c(state.u[j]))
                assert same_bits(flux[-1], c * (float(state.S[j]) ** 2 - float(state.R[j]) ** 2))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")))
    def test_unknown_range_steps_like_a_known_one(self, case, scheme):
        setup, state, _ = case
        grid = Grid.uniform(*setup.domain, state.u.size)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        known = state.copy()
        known.live = rescanned_live(state, setup.u0)
        got, want = stepper.step(state), stepper.step(known)
        assert got.live == want.live
        for key in ("u", "R", "S"):
            np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")),
           st.sampled_from(("u", "R", "S")), st.floats(0.0, 1.0))
    def test_nan_inside_the_carried_window_raises(self, case, scheme, field, where):
        setup, state, _ = case
        grid = Grid.uniform(*setup.domain, state.u.size)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        state = stepper.step(stepper.step(state))
        a, b = state.live
        assume(a < b)
        bad = state.copy()
        getattr(bad, field)[a + int(where * (b - 1 - a))] = np.nan
        with pytest.raises(NonFiniteState):
            stepper.step(bad)


class TestTransportRegression:
    def test_profiles_translate_and_converge(self):
        setup = transport_setup()
        T = 0.3
        errs = {}
        for n in (512, 1024, 2048):
            grid = Grid.uniform(*setup.domain, n)
            state = run(setup, grid, SchemeConfig(), t_end=T).state
            R_exact, _ = initial_riemann(setup, grid.r + T)
            _, S_exact = initial_riemann(setup, grid.r - T)
            errs[n] = (
                float(np.sum(np.abs(state.R - R_exact)) * grid.h),
                float(np.sum(np.abs(state.S - S_exact)) * grid.h),
            )
        # errors shrink roughly linearly in h
        for k in (0, 1):
            order = math.log2(errs[1024][k] / errs[2048][k])
            assert 0.75 <= order <= 1.15
        assert errs[2048][0] < 1e-3 and errs[2048][1] < 2e-2

    def test_left_and_right_movers_separate(self):
        setup = transport_setup()
        T = 0.3
        grid = Grid.uniform(*setup.domain, 1024)
        state = run(setup, grid, SchemeConfig(), t_end=T).state
        # R moved left of the initial support, S moved right
        left = grid.r < 0.85
        right = grid.r > 1.15
        assert np.sum(np.abs(state.R[right])) * grid.h < 1e-6
        assert np.sum(np.abs(state.S[left])) * grid.h < 1e-6


class TestStability:
    def test_constant_speed_run_stays_bounded(self):
        # CFL-safe marches do not amplify the fields (sources redistribute
        # between R and S but max|S|/r^alpha stays within 2x of the start)
        speed = ConstantSpeed.of(1.0)
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=0.6, speed=speed,
            profile=PolynomialBump(amplitude=3.0),
        )
        grid = Grid.uniform(*setup.domain, 1024)
        stepper = Stepper(setup, grid, SchemeConfig())
        g = []
        result = run(setup, grid, SchemeConfig(),
                     observers=(lambda s: g.append(stepper.gradient_max(s)[0]),))
        assert result.reason == "t_final"
        assert max(g) <= 2.0 * g[0]

    def test_discrete_support_growth_bounded(self, canonical_setup):
        # each support edge advances at most c1*dt plus one stencil node
        grid = Grid.uniform(*canonical_setup.domain, 1024)
        cfg = SchemeConfig()
        stepper = Stepper(canonical_setup, grid, cfg)
        state = init_state(canonical_setup, grid)

        def edges(s):
            live = np.abs(s.R) + np.abs(s.S) > 1e-12
            idx = np.nonzero(live)[0]
            return (grid.r[idx[0]], grid.r[idx[-1]])

        lo, hi = edges(state)
        c1 = canonical_setup.speed.c1
        budget = c1 * stepper.base_dt + grid.h + 1e-12
        for _ in range(200):
            state = stepper.step(state)
            lo_new, hi_new = edges(state)
            assert lo - lo_new <= budget
            assert hi_new - hi <= budget
            lo, hi = lo_new, hi_new

    def test_boundary_nodes_stay_quiescent(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        result = run(canonical_setup, grid, SchemeConfig(max_steps=100))
        s = result.state
        assert s.R[0] == s.R[-1] == 0.0
        assert s.S[0] == s.S[-1] == 0.0
        assert s.u[0] == s.u[-1] == canonical_setup.u0


class TestSelfConvergence:
    @staticmethod
    def _self_errors(setup, scheme, ns, T):
        sols = []
        for n in ns:
            grid = Grid.uniform(*setup.domain, n)
            state = run(setup, grid, SchemeConfig(scheme=scheme), t_end=T).state
            sols.append((grid, state))
        errs = []
        for (gc, sc), (gf, sf) in zip(sols, sols[1:]):
            e = 0.0
            for key in ("R", "S"):
                coarse = getattr(sc, key)
                fine = np.interp(gc.r, gf.r, getattr(sf, key))
                e += float(np.sum(np.abs(coarse - fine)) * gc.h)
            errs.append(e)
        return errs

    def test_upwind_first_order(self, canonical_speed):
        setup = smooth_setup(canonical_speed)
        errs = self._self_errors(setup, "upwind1", (2048, 4096, 8192), 0.25)
        order = math.log2(errs[0] / errs[1])
        assert order >= 0.9

    @pytest.mark.slow
    def test_muscl_second_order_band(self, canonical_speed):
        setup = smooth_setup(canonical_speed)
        errs = self._self_errors(setup, "muscl2", (4096, 8192, 16384), 0.25)
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.7


class TestRun:
    def test_zero_budget_returns_initial_state(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 128)
        result = run(canonical_setup, grid, SchemeConfig(max_steps=0))
        assert result.steps == 0
        assert result.reason == "max_steps"
        assert result.state.t == 0.0
        assert not result.detected

    def test_zero_data_runs_to_t_final_with_zero_energy(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        grid = Grid.uniform(*setup.domain, 128)
        result = run(setup, grid, SchemeConfig())
        assert result.reason == "t_final"
        assert result.state.t == pytest.approx(setup.t_final, rel=1e-12)
        assert np.all(result.state.R == 0.0)
        assert np.all(result.state.S == 0.0)

    def test_gradient_ceiling_stops_early(self, canonical_setup):
        # the steepening produces a transient rise; a ceiling just above the
        # initial level must terminate the run well before t_final
        grid = Grid.uniform(*canonical_setup.domain, 1024)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        g0, _ = stepper.gradient_max(init_state(canonical_setup, grid))
        cfg = SchemeConfig(gradient_ceiling=1.02 * g0)
        result = run(canonical_setup, grid, cfg)
        assert result.detected
        assert result.reason == "gradient_ceiling"
        assert result.t_detect is not None and result.t_detect < canonical_setup.t_final
        assert result.r_detect is not None

    def test_stop_rule_ends_run_after_observers(self, canonical_setup):
        # the rule fires once the observer has seen t=0 plus three steps, so
        # it must be asked after the observers, on the state they saw last
        grid = Grid.uniform(*canonical_setup.domain, 128)
        seen = []
        result = run(canonical_setup, grid, SchemeConfig(), observers=(seen.append,),
                     stop=lambda s: len(seen) == 4)
        assert result.reason == "stop"
        assert result.steps == 3
        assert seen[-1] is result.state
        assert not result.detected
        assert result.t_detect is None and result.r_detect is None

    def test_stop_rule_wins_over_gradient_ceiling(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 1024)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        g0, _ = stepper.gradient_max(init_state(canonical_setup, grid))
        cfg = SchemeConfig(gradient_ceiling=1.02 * g0)
        detected = run(canonical_setup, grid, cfg)
        assert detected.reason == "gradient_ceiling"
        # a stop rule that fires on exactly the crossing step
        stopped = run(canonical_setup, grid, cfg,
                      stop=lambda s: stepper.gradient_max(s)[0] >= cfg.gradient_ceiling)
        assert stopped.reason == "stop"
        assert not stopped.detected
        assert stopped.steps == detected.steps
        assert stopped.state.t == detected.t_detect

    def test_t_end_before_t_final_lands_on_t_end(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 128)
        t_end = 0.123
        assert t_end < gentle_setup.t_final
        result = run(gentle_setup, grid, SchemeConfig(), t_end=t_end)
        assert result.reason == "t_final"
        assert abs(result.state.t - t_end) <= 1e-14 * t_end

    def test_observers_called_every_step_plus_initial(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 128)
        times = []
        result = run(canonical_setup, grid, SchemeConfig(max_steps=5), observers=(lambda s: times.append(s.t),))
        assert len(times) == 6  # t=0 plus five steps
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_time_step_respects_cfl(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        stepper = Stepper(canonical_setup, grid, SchemeConfig(cfl=0.9))
        expected = 0.9 * grid.h / canonical_setup.speed.c1
        assert stepper.base_dt == pytest.approx(expected, rel=1e-15)

    def test_blowup_estimate_matches_riccati_window(self, canonical_setup):
        # 1/(lambda S0) with lambda = c'(u0)/(4 c(u0) r0^alpha)
        s = canonical_setup
        c = s.speed.c(s.u0)
        lam = s.speed.c_prime(s.u0) / (4 * c)
        S0 = (2 * c - s.eps) * s.profile.amplitude
        assert blowup_time_estimate(s) == pytest.approx(1.0 / (lam * S0), rel=1e-12)


class TestSchemeConfig:
    def test_cfl_range_enforced(self):
        with pytest.raises(ValueError):
            SchemeConfig(cfl=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(cfl=1.5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="weno5")

    def test_negative_ceiling_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(gradient_ceiling=-1.0)
