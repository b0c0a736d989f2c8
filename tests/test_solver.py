import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varwave import (
    CharacteristicPath,
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
    TabulatedSpeed,
    init_state,
    initial_riemann,
    run,
)
from varwave import solver
from varwave.cli import _snapshot_rows
from varwave.diagnostics import EnergyObserver, blowup_time_estimate


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

    def test_radii_not_increasing_rejected(self):
        r = np.concatenate([np.linspace(0.5, 1.0, 8), [0.9]])
        with pytest.raises(ValueError, match=r"^radii must be strictly increasing$"):
            Grid(r)


class TestInitState:
    def test_matches_initial_riemann(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        state = init_state(canonical_setup, grid)
        u, R, S = initial_riemann(canonical_setup, grid.r)
        np.testing.assert_array_equal(state.u, u)
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


class TestTableExit:
    """The step names an angle off the speed table at the stage that reads it:
    the state's angles at t, and muscl2's first-stage angles at t + dt."""

    @staticmethod
    def leaving_state(scheme):
        # u = 0.99 at one node, on the table [0, 1], and u_t = (R + S)/2 = 1/dt there
        speed = TabulatedSpeed(c0=1.0, c1=1.0, knots=(0.0, 0.5, 1.0), values=(1.0, 1.0, 1.0))
        setup = ProblemSetup.theorem(
            d=1, r0=1.0, eps=0.1, u0=0.5, speed=speed, profile=PolynomialBump(amplitude=1.0)
        )
        grid = Grid.uniform(*setup.domain, 64)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        n, k = grid.n, grid.n // 2
        u, R, S = np.full(n, 0.5), np.zeros(n), np.zeros(n)
        u[k], R[k], S[k] = 0.99, 1.0 / stepper.base_dt, 1.0 / stepper.base_dt
        return stepper, GridState(0.25, np.array([u, R, S]), (k, k + 1))

    def test_upwind1_names_the_exit_at_the_next_step(self):
        stepper, state = self.leaving_state("upwind1")
        left = stepper.step(state)
        assert left.u.max() > 1.0
        with pytest.raises(NonFiniteState) as err:
            stepper.step(left)
        assert str(err.value) == f"angle left the speed table at t={left.t}"
        assert err.value.last_state is left

    def test_muscl2_names_the_exit_at_its_first_stage(self):
        stepper, state = self.leaving_state("muscl2")
        with pytest.raises(NonFiniteState) as err:
            stepper.step(state)
        assert str(err.value) == f"angle left the speed table at t={state.t + stepper.base_dt}"
        assert err.value.last_state is state


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
        state = GridState(0.0, np.array([np.full(n, 0.3), np.zeros(n), np.ones(n)]), (0, n))
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
        u, R, S = initial_riemann(canonical_setup, grid.r)
        S[50], S[51] = 1e300, -1e300
        fields = np.array([u, R, S])
        state = GridState(0.0, fields, live_span(fields, canonical_setup.u0))
        with pytest.raises(NonFiniteState) as err:
            s = state
            for _ in range(10):
                s = stepper.step(s)
        assert err.value.last_state is not None
        last = err.value.last_state
        assert all(np.isfinite(a).all() for a in (last.u, last.R, last.S))


@functools.cache
def window_setup(d):
    return ProblemSetup.theorem(
        d=d, r0=1.0, eps=0.05, u0=np.pi / 4,
        speed=OseenFrankSpeed(c0=1.0, c1=math.sqrt(2.0), k1=2.0, k3=1.0),
        profile=PolynomialBump(amplitude=0.0),
    )


def bits(a):
    return a.view(np.uint64)


def live_span(fields, u0, start=0):
    """solver._live_span of the (3, m) block fields, given u0 as a float."""
    return solver._live_span(fields, solver._float_bits(u0), start)


@st.composite
def perturbed_states(draw, setups=None, extremes=False):
    """A compact perturbation of (u0, 0, 0) on a grid of at most 64 nodes.

    setups, when given, are the setups to draw from; otherwise d is drawn
    and the speed is Oseen-Frank.  extremes adds the values on which a
    reordered formula shows (see ``extreme_values``).  Returns the setup,
    the state with the live range of ``mask_span`` and the support [lo, hi).
    The background is u0 + 0.0, which is +0.0 for u0 = -0.0, as in the data.
    """
    if setups is None:
        setup = window_setup(draw(st.sampled_from((1, 2, 3))))
    else:
        setup = draw(st.sampled_from(setups))
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
    if extremes:
        for i in draw(st.lists(near, min_size=1, max_size=4)):
            values = draw(extreme_values())[:n - i]
            for field in {"R": (R,), "S": (S,), "both": (R, S)}[
                    draw(st.sampled_from(("R", "S", "both")))]:
                field[i:i + len(values)] = values
    return setup, GridState(0.0, np.array([u, R, S]), mask_span(u, R, S, setup.u0)), (lo, hi)


@st.composite
def extreme_values(draw):
    """A short run of field values that tells formula orders apart.

    Three signed zeros; subnormal magnitudes; three nodes in arithmetic
    progression, so the neighbouring minmod slopes have equal magnitudes
    (equal, or opposite when the run turns back); three nodes whose
    neighbouring slopes are about 1e-170 or less, so their product
    underflows to 0.
    """
    sign = draw(st.sampled_from((1.0, -1.0)))
    kind = draw(st.sampled_from(("zero", "subnormal", "equal", "turn", "underflow")))
    if kind == "zero":
        return [sign * 0.0] * 3
    if kind == "subnormal":
        return [sign * draw(st.sampled_from((5e-324, 1e-310, 2.2e-308)))]
    if kind == "underflow":
        tiny = draw(st.sampled_from((1e-200, 1e-172, 3e-170)))
        return [0.0, sign * tiny, 2.0 * sign * tiny]
    v, step = draw(st.integers(-4, 4)), sign * draw(st.integers(1, 3))
    return [v, v + step, v + 2 * step] if kind == "equal" else [v, v + step, v]


def same_bits(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def window_and_full_steppers(setup, n, scheme):
    grid = Grid.uniform(*setup.domain, n)
    cfg = SchemeConfig(scheme=scheme)
    full = Stepper(setup, grid, cfg)
    full._window = lambda state: (0, n)
    return Stepper(setup, grid, cfg), full


# d = 1, constant speed 1, base angle +0.0 (a -0.0 is stored as +0.0, see
# test_negative_zero_base_angle_runs_as_positive_zero)
ZERO_U0_SETUPS = (
    ProblemSetup.theorem(
        d=1, r0=1.0, eps=0.05, u0=0.0, speed=ConstantSpeed.of(1.0),
        profile=PolynomialBump(amplitude=0.0),
    ),
)


def negative_zero_s_case(d):
    """(setup, grid, initial state, S_neg state) of a d-dimensional bump at
    constant speed 1.  S_neg is initial_riemann's S without its + 0.0: -0.0
    off the support, so its whole grid is live."""
    setup = ProblemSetup.theorem(
        d=d, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
        profile=PolynomialBump(amplitude=1.0),
    )
    grid = Grid.uniform(*setup.domain, 256)
    state = init_state(setup, grid)
    u, R, S = state.u, state.R, state.S
    u_r = setup.profile.phi_prime((grid.r - setup.r0) / setup.eps)
    S_neg = (-2.0 * np.asarray(setup.speed.c(u)) + setup.eps) * grid.r**setup.alpha * u_r
    off = S == 0.0
    assert np.signbit(S_neg[off]).all() and not np.signbit(S[off]).any()
    np.testing.assert_array_equal(bits(S_neg[~off]), bits(S[~off]))
    fields = np.array([u, R, S_neg])
    return setup, grid, state, GridState(0.0, fields, live_span(fields, setup.u0))


def assert_window_steps_equal_full_grid_steps(setup, got, scheme, steps):
    windowed, full = window_and_full_steppers(setup, got.u.size, scheme)
    want = got
    for _ in range(steps):
        got, want = windowed.step(got), full.step(want)
        assert got.t == want.t
        for key in ("u", "R", "S"):
            np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))


class TestLiveWindow:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.one_of(perturbed_states(), perturbed_states(ZERO_U0_SETUPS, extremes=True)),
        st.sampled_from(("upwind1", "muscl2")),
    )
    def test_window_step_bitwise_equals_full_grid_step(self, case, scheme):
        setup, state, _ = case
        assert_window_steps_equal_full_grid_steps(setup, state, scheme, steps=3)

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    # -0.0 is stored as +0.0 (test_negative_zero_base_angle_runs_as_positive_zero)
    @pytest.mark.parametrize("u0", [0.0], ids=["+0"])
    def test_signed_zero_base_angle_march_equals_full_grid(self, scheme, u0):
        setup = ProblemSetup.theorem(
            d=1, r0=1.0, eps=0.1, u0=u0, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=1.0),
        )
        grid = Grid.uniform(*setup.domain, 256)
        state = init_state(setup, grid)
        assert 0 < state.live[0] < state.live[1] < grid.n
        assert_window_steps_equal_full_grid_steps(setup, state, scheme, steps=40)

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_constant_speed_states_from_step_one_equal_the_negative_zero_s_march(self, d, scheme):
        setup, grid, got, want = negative_zero_s_case(d)
        assert want.live == (0, grid.n) and got.live[1] - got.live[0] < grid.n // 4
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        for _ in range(40):
            got, want = stepper.step(got), stepper.step(want)
            for key in ("u", "R", "S"):
                np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_negative_zero_base_angle_runs_as_positive_zero(self, scheme):
        runs = []
        for u0 in (0.0, -0.0):
            setup = ProblemSetup.theorem(
                d=1, r0=1.0, eps=0.1, u0=u0, speed=ConstantSpeed.of(1.0),
                profile=PolynomialBump(amplitude=1.0),
            )
            grid = Grid.uniform(*setup.domain, 256)
            states = []
            run(setup, grid, SchemeConfig(scheme=scheme), observers=(states.append,))
            runs.append(states)
        positive, negative = runs
        assert len(positive) == len(negative) > 100
        for want, got in zip(positive, negative):
            assert got.t == want.t and got.live == want.live
            for key in ("u", "R", "S"):
                np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))
        # after the first step the live range is the support, not the grid
        assert 90 < negative[1].live[0] < negative[1].live[1] < 160

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")),
           st.sampled_from(("u", "R", "S")))
    def test_nan_far_from_the_support_raises(self, case, scheme, field):
        setup, state, (lo, hi) = case
        n = state.u.size
        # the interior node farthest from the support; the end nodes are clamped
        getattr(state, field)[1 if lo >= n - hi else n - 2] = np.nan
        state.live = mask_span(state.u, state.R, state.S, setup.u0)
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

            off_table = speed.off_table

        stepper.speed = CountingSpeed()
        # the initial S is +0.0 off the support, so the first step covers
        # the support alone
        state = stepper.step(stepper.step(init_state(canonical_setup, grid)))
        lo, hi = stepper._window(state)
        assert len(sizes) == 2 and max(sizes) < grid.n / 4
        assert 0 < hi - lo < grid.n / 4


    def test_canonical_window_reads_the_carried_range(self, canonical_setup, monkeypatch):
        # guards the saving: after the first steps no step pass scans the grid
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        state = stepper.step(stepper.step(init_state(canonical_setup, grid)))
        scanned = []
        span = solver._live_span

        def counting_span(fields, u0_bits, start=0):
            scanned.append(fields.shape[1])
            return span(fields, u0_bits, start)

        monkeypatch.setattr(solver, "_live_span", counting_span)
        lo, hi = stepper._window(state)
        stepper.gradient_max(state)
        assert scanned == [] and 0 < hi - lo < grid.n / 4
        stepper.step(state)
        assert scanned and max(scanned) <= hi - lo


class TestCarriedLiveRange:
    """The live range a step carries, and the passes that read it."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(perturbed_states(), st.sampled_from(("upwind1", "muscl2")))
    def test_range_and_reductions_match_full_grid_forms(self, node_weighted_energy, case, scheme):
        setup, state, _ = case
        n = state.u.size
        grid = Grid.uniform(*setup.domain, n)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        observer = EnergyObserver(grid)
        for k in range(5):
            if k:
                state = stepper.step(state)
                assert state.live == mask_span(state.u, state.R, state.S, setup.u0)
            g = np.abs(state.S) / stepper.ralpha
            i = int(np.argmax(g))
            got_g, got_i = stepper.gradient_max(state)
            assert got_i == i and same_bits(got_g, g[i])
            # the trapezoid rule summed node by node over the live range
            observer(state)
            assert same_bits(observer.E[-1], node_weighted_energy(grid.r, state))
            y = state.R**2 + state.S**2
            assert observer.E[-1] == pytest.approx(np.trapezoid(y, grid.r), rel=1e-14, abs=0.0)

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
        bad = GridState(state.t, np.array([state.u, state.R, state.S]), state.live)
        getattr(bad, field)[a + int(where * (b - 1 - a))] = np.nan
        with pytest.raises(NonFiniteState):
            stepper.step(bad)


class ReferenceStepper:
    """The step's arithmetic as plain formulas over every node: the oracle
    that pins the order of its floating-point operations.

    Each stage adds dt times its tendencies as increments: (dt/h) c times
    the undivided upwind differences, dt times the source terms from the
    factors c' dt/(4 c r^alpha) and (alpha c / r) dt, and (R + S) times
    dt/(2 r^alpha).  Stepper.step computes the same formulas in fewer array
    passes; it must give the same bits, so any reordering that changes a
    result shows here.
    """

    def __init__(self, setup, grid, scheme):
        self.setup, self.scheme, self.h = setup, scheme, grid.h
        self.speed, self.alpha = setup.speed, setup.alpha
        self.ralpha = grid.r**self.alpha
        self.inv_r = 1.0 / grid.r

    def rhs_fields(self, c, c_prime, R, S, dt):
        quad = c_prime * dt / (4.0 * c * self.ralpha)
        geom = self.alpha * c * self.inv_r * dt
        f_R = quad * (R * R - S * S) - geom * S
        f_S = quad * (S * S - R * R) + geom * R
        return f_R, f_S

    def minmod_slopes(self, q):
        dq = np.diff(q)
        s = np.zeros_like(q)
        a, b = dq[:-1], dq[1:]
        keep = a * b > 0.0
        s[1:-1] = np.where(keep, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
        return s

    def increments(self, u, R, S, dt):
        c, c_prime = self.speed.c_and_c_prime(u)
        f_R, f_S = self.rhs_fields(c, c_prime, R, S, dt)
        lam_c = c * (dt / self.h)
        dR = np.zeros_like(R)
        dS = np.zeros_like(S)
        if self.scheme == "upwind1":
            dR[:-1] = R[1:] - R[:-1]
            dS[1:] = S[:-1] - S[1:]
        else:
            sR = self.minmod_slopes(R)
            sS = self.minmod_slopes(S)
            face_R = R[1:] - 0.5 * sR[1:]
            face_S = S[:-1] + 0.5 * sS[:-1]
            dR[1:-1] = face_R[1:] - face_R[:-1]
            dS[1:-1] = face_S[:-1] - face_S[1:]
        du = (R + S) * (dt / (2.0 * self.ralpha))
        return lam_c * dR + f_R, lam_c * dS + f_S, du

    def clamp(self, u, R, S):
        u[0] = u[-1] = self.setup.u0
        R[0] = R[-1] = S[0] = S[-1] = 0.0

    def step(self, state, dt):
        """(u, R, S) one step on; NonFiniteState if any node is not finite."""
        u, R, S = state.u, state.R, state.S
        with np.errstate(over="ignore", invalid="ignore"):
            dR, dS, du = self.increments(u, R, S, dt)
            R1 = R + dR
            S1 = S + dS
            u1 = u + du
            self.clamp(u1, R1, S1)
            if self.scheme == "muscl2":
                dR1, dS1, du1 = self.increments(u1, R1, S1, dt)
                R1 = 0.5 * (R + R1 + dR1)
                S1 = 0.5 * (S + S1 + dS1)
                u1 = 0.5 * (u + u1 + du1)
                self.clamp(u1, R1, S1)
        if not all(np.isfinite(a).all() for a in (u1, R1, S1)):
            raise NonFiniteState("reference step", last_state=state)
        return u1, R1, S1


def mask_span(u, R, S, u0):
    """The live range by a plain scan of every node; (0, 0) if none is live."""
    live = np.flatnonzero((bits(u) != bits(np.float64(u0))) | (bits(R) != 0) | (bits(S) != 0))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)


# d = 4 as well: its alpha = 1.5 is the first radial weight whose products
# round, so there a reordered product such as c * (alpha / r) shows
REFERENCE_SETUPS = (
    ProblemSetup.theorem(
        d=1, r0=1.0, eps=0.05, u0=0.5, speed=ConstantSpeed.of(1.0),
        profile=PolynomialBump(amplitude=0.0),
    ),
    window_setup(3),
    window_setup(4),
)


def assert_steps_match_reference(stepper, reference, state, dt):
    want = reference.step(state, dt)
    got = stepper.step(state, dt)
    for key, w in zip(("u", "R", "S"), want):
        np.testing.assert_array_equal(bits(getattr(got, key)), bits(w), err_msg=key)
    assert got.live == mask_span(*want, stepper.setup.u0)
    return got


class TestReferenceStep:
    """Stepper.step gives the reference arithmetic's bits."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(perturbed_states(REFERENCE_SETUPS, extremes=True),
           st.sampled_from(("upwind1", "muscl2")))
    def test_step_bitwise_equals_reference(self, case, scheme):
        setup, state, _ = case
        grid = Grid.uniform(*setup.domain, state.u.size)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        reference = ReferenceStepper(setup, grid, scheme)
        for _ in range(3):
            state = assert_steps_match_reference(stepper, reference, state, stepper.base_dt)

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_canonical_march_bitwise_equals_reference(self, canonical_setup, scheme):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        stepper = Stepper(canonical_setup, grid, SchemeConfig(scheme=scheme))
        reference = ReferenceStepper(canonical_setup, grid, scheme)
        t_end = canonical_setup.t_final
        got = want = init_state(canonical_setup, grid)
        steps = 0
        while want.t < t_end - 1e-14 * t_end:
            dt = min(stepper.base_dt, t_end - want.t)
            got = stepper.step(got, dt)
            fields = reference.step(want, dt)
            want = GridState(want.t + dt, np.array(fields), mask_span(*fields, canonical_setup.u0))
            steps += 1
        assert steps > 200 and got.t == want.t
        for key in ("u", "R", "S"):
            np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))


@pytest.fixture(params=["float", "array"])
def speed_kind_setup(request, with_array_speed):
    """d = 3 at the constant speed 1.3, which hands the stepper floats, or its
    array twin; alpha = 1 makes the geometric source term."""
    setup = ProblemSetup.theorem(
        d=3, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.3),
        profile=PolynomialBump(amplitude=1.0),
    )
    return setup if request.param == "float" else with_array_speed(setup)


class TestScaledFactorCache:
    """The factors scaled by base_dt are built at the first step and kept; a
    step of any other dt builds its own.  A shortened last step and a stepper
    that alternates two steps give the reference bits at every step."""

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_march_with_a_shortened_last_step(self, speed_kind_setup, scheme):
        setup = speed_kind_setup
        grid = Grid.uniform(*setup.domain, 256)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        reference = ReferenceStepper(setup, grid, scheme)
        t_end = 40.37 * stepper.base_dt
        want = init_state(setup, grid)
        steps = []
        for got in stepper.march(want, t_end):
            steps.append(min(stepper.base_dt, t_end - want.t))
            fields = reference.step(want, steps[-1])
            want = GridState(want.t + steps[-1], np.array(fields), mask_span(*fields, setup.u0))
            assert got.t == want.t and got.live == want.live
            for key in ("u", "R", "S"):
                np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))
        assert len(steps) == 41 and steps[:-1] == [stepper.base_dt] * 40
        assert 0.0 < steps[-1] < stepper.base_dt

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_alternating_steps(self, speed_kind_setup, scheme):
        setup = speed_kind_setup
        grid = Grid.uniform(*setup.domain, 256)
        stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
        reference = ReferenceStepper(setup, grid, scheme)
        state = init_state(setup, grid)
        for dt in [stepper.base_dt, 0.6 * stepper.base_dt] * 10:
            state = assert_steps_match_reference(stepper, reference, state, dt)


class TestStoredRange:
    """A stepped state stores (u, R, S) on its window padded by the reach only."""

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_run_states_store_the_padded_window(self, canonical_setup, scheme):
        grid = Grid.uniform(*canonical_setup.domain, 512)
        n, u0 = grid.n, canonical_setup.u0
        cfg = SchemeConfig(scheme=scheme, max_steps=120)
        stepper = Stepper(canonical_setup, grid, cfg)
        reference = ReferenceStepper(canonical_setup, grid, scheme)
        states = []
        run(canonical_setup, grid, cfg, observers=(states.append,))
        reach = stepper.reach
        want = states[0]
        for before, state in zip(states, states[1:]):
            lo, hi = stepper._window(before)
            s_lo, s_hi = state.stored
            a, b = state.live
            assert s_hi - s_lo <= hi - lo + 2 * reach
            assert s_lo <= max(a - reach, 0) and min(b + reach, n) <= s_hi
            fields = reference.step(want, stepper.base_dt)
            want = GridState(state.t, np.array(fields), mask_span(*fields, u0))
            for key, w in zip(("u", "R", "S"), fields):
                got = getattr(state, key)
                np.testing.assert_array_equal(bits(got), bits(w), err_msg=key)
                with pytest.raises(ValueError):
                    got[n // 2] = 0.0
            outside = [*range(s_lo), *range(s_hi, n)]
            assert [bits(np.array(state.node(i))).tolist() for i in outside] == (
                [bits(np.array([u0, 0.0, 0.0])).tolist()] * len(outside)
            )
        # only t = 0 stores all of it: the first step's window is the support
        assert [st.stored == (0, n) for st in states[:3]] == [True, False, False]

    def test_node_u_is_the_u_of_node(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        states = []
        run(canonical_setup, grid, SchemeConfig(max_steps=40), observers=(states.append,))
        for state in states:
            got = [state.node_u(i) for i in range(grid.n)]
            want = [state.node(i)[:1] for i in range(grid.n)]
            assert bits(np.array(got)).tolist() == bits(np.array(want)).tolist()

    def test_per_step_readers_build_no_full_arrays(self, canonical_setup, monkeypatch):
        # guards the saving: the march, its observers and the snapshot table
        # read stepped states through window and node only
        built = []
        fields = GridState._fields
        monkeypatch.setattr(GridState, "_fields", lambda st: built.append(st.t) or fields(st))
        grid = Grid.uniform(*canonical_setup.domain, 512)
        speed = canonical_setup.speed
        energy = EnergyObserver(grid)
        paths = [CharacteristicPath(f, canonical_setup.r0, grid, speed) for f in ("plus", "minus")]
        states = []
        cfg = SchemeConfig(scheme="muscl2", max_steps=60)
        run(canonical_setup, grid, cfg, observers=(energy, *paths, states.append))
        "".join(_snapshot_rows(grid, canonical_setup, states))
        assert len(states) == 61 and built == []


# constant speeds c = 1, and 1.3, whose products with the fields round, in
# d = 1 and in d = 3, where alpha = 1 makes the geometric source term
CONSTANT_SETUPS = tuple(
    ProblemSetup.theorem(
        d=d, r0=1.0, eps=0.05, u0=0.5, speed=ConstantSpeed.of(value),
        profile=PolynomialBump(amplitude=0.0),
    )
    for d in (1, 3)
    for value in (1.0, 1.3)
)


# where the d = 1 step must keep its zero source terms: about 2^512, the
# least magnitude whose square overflows, and -0.0; and subnormals
SOURCE_EDGE_VALUES = (np.nextafter(2.0**512, 0.0), 2.0**512, -0.0, 5e-324, 2.2e-308)


@st.composite
def constant_speed_states(draw):
    """perturbed_states on CONSTANT_SETUPS with extreme values; half of the
    time one of SOURCE_EDGE_VALUES, of either sign, in R or S at one node;
    and a NaN in one field at one node half of the time.  The live range
    covers the nodes drawn."""
    setup, state, _ = draw(perturbed_states(CONSTANT_SETUPS, extremes=True))
    if draw(st.booleans()):
        field = getattr(state, draw(st.sampled_from(("R", "S"))))
        sign = draw(st.sampled_from((1.0, -1.0)))
        value = sign * draw(st.sampled_from(SOURCE_EDGE_VALUES))
        field[draw(st.integers(0, field.size - 1))] = value
    if draw(st.booleans()):
        field = getattr(state, draw(st.sampled_from(("u", "R", "S"))))
        field[draw(st.integers(0, field.size - 1))] = np.nan
    state.live = mask_span(state.u, state.R, state.S, setup.u0)
    return setup, state


@pytest.fixture
def rhs_calls(monkeypatch):
    """The list to which every later solver.rhs_fields call appends its node count."""
    calls = []
    rhs = solver.rhs_fields

    def counting(quad, geom, R, S):
        calls.append(R.size)
        return rhs(quad, geom, R, S)

    monkeypatch.setattr(solver, "rhs_fields", counting)
    return calls


def assert_steps_equal(floats, arrays, state, steps):
    """floats steps state as arrays does, bit for bit, up to steps times;
    where arrays raises NonFiniteState, floats raises the same."""
    for _ in range(steps):
        try:
            want = arrays.step(state)
        except NonFiniteState as exc:
            with pytest.raises(NonFiniteState) as got:
                floats.step(state)
            assert str(got.value) == str(exc)
            assert got.value.last_state is exc.last_state is state
            return
        got = floats.step(state)
        assert got.t == want.t and got.live == want.live
        for key in ("u", "R", "S"):
            np.testing.assert_array_equal(bits(getattr(got, key)), bits(getattr(want, key)))
        state = got


def negative_zeros(a):
    return int(np.count_nonzero(bits(a) == bits(np.array(-0.0))))


class TestConstantSpeedFloats:
    """ConstantSpeed hands the stepper the floats (c, 0.0); the arrays c(u)
    and c'(u) of the base-class c_and_c_prime give the same bits.  With the
    floats the stepper computes the source coefficients on the whole grid at
    its first stage and slices them at every later one; in d = 1 they are
    all zero, and a stage whose R and S hold no -0.0 and no magnitude of
    2^512 or more skips the source terms.  The array speed never skips."""

    def test_array_model_makes_arrays(self, with_array_speed):
        u = np.linspace(0.0, 1.0, 5)
        setup = with_array_speed(CONSTANT_SETUPS[1])
        c, c_prime = setup.speed.c_and_c_prime(u)
        assert c.shape == c_prime.shape == u.shape
        speed = CONSTANT_SETUPS[1].speed
        assert speed.c_and_c_prime(u) == (speed.c(u), speed.c_prime(u)) == (1.3, 0.0)
        assert type(speed.c(u)) is type(speed.c_prime(u)) is float

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(constant_speed_states(), st.sampled_from(("upwind1", "muscl2")))
    def test_steps_bitwise_equal_array_speed(self, with_array_speed, case, scheme):
        setup, state = case
        grid = Grid.uniform(*setup.domain, state.u.size)
        cfg = SchemeConfig(scheme=scheme)
        floats = Stepper(setup, grid, cfg)
        arrays = Stepper(with_array_speed(setup), grid, cfg)
        with np.errstate(all="ignore"):
            got, want = (
                s._increments(state.fields, slice(0, grid.n), s.base_dt)[0]
                for s in (floats, arrays)
            )
        np.testing.assert_array_equal(bits(got), bits(want))
        assert floats._base[1] is not None and arrays._base[1] is None
        assert_steps_equal(floats, arrays, state, 3)

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    @pytest.mark.parametrize("row", [1, 2], ids=["R", "S"])
    @pytest.mark.parametrize(
        "value", [s * v for v in SOURCE_EDGE_VALUES for s in (1.0, -1.0)], ids=repr
    )
    def test_source_edge_value_steps_bitwise_equal_array_speed(
        self, with_array_speed, scheme, row, value
    ):
        # d = 1, c = 1.3: the value on the support and on its quiescent flank
        setup = CONSTANT_SETUPS[1]
        n = 32
        fields = np.array([np.full(n, setup.u0), np.zeros(n), np.zeros(n)])
        fields[:, 10:20] += np.random.default_rng(0).uniform(-1.0, 1.0, (3, 10))
        fields[row, [15, 23]] = value
        state = GridState(0.0, fields, live_span(fields, setup.u0))
        grid = Grid.uniform(*setup.domain, n)
        cfg = SchemeConfig(scheme=scheme)
        floats = Stepper(setup, grid, cfg)
        arrays = Stepper(with_array_speed(setup), grid, cfg)
        assert_steps_equal(floats, arrays, state, 3)

    def test_halved_subnormal_makes_the_next_step_keep_the_source(
        self, with_array_speed, rhs_calls
    ):
        # muscl2 halves q + q1 + dt f(q1), which is -5e-324 next to a lone
        # S = -5e-324: the -0.0 it leaves makes the next step keep its zero
        # source terms, which turn a -0.0 of S into +0.0
        setup = CONSTANT_SETUPS[0]
        grid = Grid.uniform(*setup.domain, 16)
        fields = np.array([np.full(16, setup.u0), np.zeros(16), np.zeros(16)])
        fields[2, 8] = -5e-324
        state = GridState(0.0, fields, live_span(fields, setup.u0))
        cfg = SchemeConfig(scheme="muscl2")
        floats = Stepper(setup, grid, cfg)
        got = [floats.step(state)]
        assert rhs_calls == [] and negative_zeros(got[0].S) > 0
        got.append(floats.step(got[0]))
        assert rhs_calls
        arrays = Stepper(with_array_speed(setup), grid, cfg)
        want = [arrays.step(state)]
        want.append(arrays.step(want[0]))
        for g, w in zip(got, want):
            assert g.t == w.t and g.live == w.live
            np.testing.assert_array_equal(bits(g.fields), bits(w.fields))

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_rhs_fields_runs_only_where_the_source_may_change_a_bit(self, rhs_calls, scheme):
        cfg = SchemeConfig(scheme=scheme)
        # d = 1 transport: every factor is zero, and no stage holds a -0.0
        setup = transport_setup()
        grid = Grid.uniform(*setup.domain, 512)
        assert run(setup, grid, cfg, t_end=0.3).steps > 50
        assert rhs_calls == []
        # d = 3 at the same constant speed: the factor alpha c / r is not zero
        d3 = dataclasses.replace(setup, d=3)
        steps = run(d3, grid, cfg, t_end=0.3).steps
        assert len(rhs_calls) == steps * (1 if scheme == "upwind1" else 2)
        # d = 1: the first step of the -0.0 S state keeps the source, and the
        # later ones, whose states hold no -0.0, skip it
        setup, grid, _, state = negative_zero_s_case(1)
        stepper = Stepper(setup, grid, cfg)
        rhs_calls.clear()
        state = stepper.step(state)
        assert rhs_calls and negative_zeros(state.fields) == 0
        rhs_calls.clear()
        stepper.step(stepper.step(state))
        assert rhs_calls == []

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_convergence_grid_march_bitwise_equal_array_speed(self, with_array_speed, scheme):
        # the coarsest grid of the benchmark's transport convergence study, to
        # its t_compare, and the same data in d = 3
        for d in (1, 3):
            setup = dataclasses.replace(transport_setup(), d=d)
            grid = Grid.uniform(*setup.domain, 2048)
            cfg = SchemeConfig(scheme=scheme)
            got = run(setup, grid, cfg, t_end=0.3)
            want = run(with_array_speed(setup), grid, cfg, t_end=0.3)
            assert got.steps == want.steps > 300 and got.state.t == want.state.t
            assert got.state.live == want.state.live
            for key in ("u", "R", "S"):
                np.testing.assert_array_equal(
                    bits(getattr(got.state, key)), bits(getattr(want.state, key))
                )


def tame(fields):
    """The record of a (3, m) block by a scan: no -0.0 and no magnitude of
    2^512 or more in its R and S rows."""
    return not solver._source_needed(fields)


def init_from(monkeypatch, setup, fields):
    """(grid, init_state(setup, grid)) with the fields in place of the sampled
    initial data: the state init_state makes of them, record and all."""
    monkeypatch.setattr(solver, "initial_riemann", lambda setup, r: tuple(fields))
    grid = Grid.uniform(*setup.domain, fields.shape[1])
    return grid, init_state(setup, grid)


def march_as_reference(setup, grid, scheme, state, steps):
    """The states of up to steps steps from state, each checked against
    ReferenceStepper through uint64 views; where the reference meets a
    non-finite node the stepper raises NonFiniteState, and the march ends."""
    stepper = Stepper(setup, grid, SchemeConfig(scheme=scheme))
    reference = ReferenceStepper(setup, grid, scheme)
    states = [state]
    for _ in range(steps):
        try:
            reference.step(state, stepper.base_dt)
        except NonFiniteState:
            with pytest.raises(NonFiniteState):
                stepper.step(state)
            break
        state = assert_steps_match_reference(stepper, reference, state, stepper.base_dt)
        states.append(state)
    return states


class TestCarriedRecord:
    """GridState.tame, whether the R and S rows hold no -0.0 and no magnitude
    of 2^512 or more, as init_state scans it and an upwind1 step carries it.

    The march and record tests fail where a muscl2 step carries its input's
    record, or writes one from the extremes of its block after halving it in
    place (half of -5e-324 is -0.0); where the bound is taken over the R row
    only (or the S row only); and where the first stage ignores a False
    record of init_state.
    """

    @pytest.mark.parametrize("setup", [
        transport_setup(),
        dataclasses.replace(transport_setup(), speed=ConstantSpeed.of(1.3)),
        dataclasses.replace(transport_setup(), u0=0.0),
    ], ids=["c=1", "c=1.3", "u0=0"])
    def test_upwind1_transport_records_equal_a_scan(self, monkeypatch, rhs_calls, setup):
        # every state of the march, the shortened last one too, carries the
        # record that a scan of its block gives, and no stage scans or
        # computes the zero source terms
        grid = Grid.uniform(*setup.domain, 512)
        stepper = Stepper(setup, grid, SchemeConfig())
        t_end = 60.37 * stepper.base_dt
        state = init_state(setup, grid)
        scans = []
        needed = solver._source_needed
        monkeypatch.setattr(solver, "_source_needed", lambda q: scans.append(q.shape) or needed(q))
        states = [state, *stepper.march(state, t_end)]
        assert len(states) == 62 and states[-1].t == t_end
        assert states[-1].t - states[-2].t < stepper.base_dt
        assert scans == [] and rhs_calls == []
        assert [s.tame for s in states] == [tame(s.fields) for s in states] == [True] * 62

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(constant_speed_states(), st.sampled_from(("upwind1", "muscl2")), st.booleans())
    def test_step_record_is_unknown_or_a_scan(self, case, scheme, scanned):
        # from a state with the record init_state gives it, or with none, an
        # upwind1 step records the scan of its block or None, and None only
        # where its input's record is not True; a muscl2 step records None
        setup, state = case
        if scanned:
            state = GridState(0.0, state.fields, state.live, tame=tame(state.fields))
        grid = Grid.uniform(*setup.domain, state.u.size)
        try:
            got = Stepper(setup, grid, SchemeConfig(scheme=scheme)).step(state)
        except NonFiniteState:
            return
        if scheme == "muscl2":
            assert got.tame is None
        elif got.tame is None:
            assert state.tame is not True and tame(got.fields)
        else:
            assert got.tame == tame(got.fields)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["S-grows", "R-grows"])
    def test_a_row_grown_past_2_512_is_recorded(self, sign):
        # d = 3, c = 1: the geometric source alpha c dt/r moves R by -S and S
        # by +R, so R = x, S = sign * x just below 2^512 takes |S| (sign 1)
        # or |R| (sign -1) past 2^512 in one finite upwind1 step
        setup = CONSTANT_SETUPS[2]
        fields = np.array([np.full(32, setup.u0), np.zeros(32), np.zeros(32)])
        x = 0.999 * 2.0**512
        fields[1, 10:20], fields[2, 10:20] = x, sign * x
        state = GridState(0.0, fields, live_span(fields, setup.u0), tame=True)
        grid = Grid.uniform(*setup.domain, 32)
        got = Stepper(setup, grid, SchemeConfig()).step(state)
        R, S = got.R, got.S
        assert np.isfinite(got.fields).all()
        assert np.abs(S if sign > 0 else R).max() >= 2.0**512 > np.abs(R if sign > 0 else S).max()
        assert got.tame is False

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    @pytest.mark.parametrize("row", [1, 2], ids=["R", "S"])
    @pytest.mark.parametrize("value", [-0.0, 2.0**600, -(2.0**600)], ids=repr)
    def test_initial_state_that_is_not_tame_keeps_its_sources(
        self, monkeypatch, rhs_calls, scheme, row, value
    ):
        # d = 1, c = 1.3: init_state records False, so the first stage
        # computes the zero source terms, as the reference does; from
        # 2^600 they make NaN of R*R or S*S = inf, and the step raises
        setup = CONSTANT_SETUPS[1]
        fields = np.array([np.full(32, setup.u0), np.zeros(32), np.zeros(32)])
        fields[:, 10:20] += np.random.default_rng(0).uniform(-1.0, 1.0, (3, 10))
        fields[row, 12] = value
        grid, state = init_from(monkeypatch, setup, fields)
        assert state.tame is False
        states = march_as_reference(setup, grid, scheme, state, 3)
        assert rhs_calls
        assert len(states) == (4 if value == 0.0 else 1)

    @pytest.mark.parametrize("record", [None, False], ids=["unknown", "not-tame"])
    def test_a_scan_that_finds_the_input_tame_seeds_the_record(
        self, monkeypatch, rhs_calls, record
    ):
        # d = 1, c = 1: a tame state recorded None, or a state with one -0.0
        # of S recorded False, whose first step keeps the zero sources that
        # turn the -0.0 into +0.0 and records None.  The one stage that
        # meets None scans, finds the input tame and records the bound, so
        # ten steps make one scan
        setup = transport_setup()
        grid = Grid.uniform(*setup.domain, 256)
        fields = init_state(setup, grid).fields.copy()
        if record is False:
            fields[2, 100] = -0.0
        state = GridState(0.0, fields, live_span(fields, setup.u0), tame=record)
        assert tame(fields) is (record is None)
        scans = []
        needed = solver._source_needed
        monkeypatch.setattr(solver, "_source_needed", lambda q: scans.append(q.shape) or needed(q))
        states = march_as_reference(setup, grid, "upwind1", state, 10)
        first = [None] if record is False else []
        assert len(states) == 11 and len(scans) == 1 and len(rhs_calls) == len(first)
        assert [s.tame for s in states[1:]] == first + [True] * (10 - len(first))

    def test_halved_subnormal_leaves_a_muscl2_record_unknown(self, monkeypatch, rhs_calls):
        # a lone S = -5e-324 in a tame initial state: the muscl2 halving
        # leaves a -0.0, so the step's record is None, and the next step,
        # which scans, keeps the zero source terms that turn it into +0.0
        setup = CONSTANT_SETUPS[0]
        fields = np.array([np.full(16, setup.u0), np.zeros(16), np.zeros(16)])
        fields[2, 8] = -5e-324
        grid, state = init_from(monkeypatch, setup, fields)
        assert state.tame is True
        states = march_as_reference(setup, grid, "muscl2", state, 3)
        assert len(states) == 4 and [s.tame for s in states[1:]] == [None] * 3
        assert negative_zeros(states[1].S) > 0 and not tame(states[1].fields)
        assert len(rhs_calls) >= 1


WALK = solver._EDGE_WALK
# node offsets from an end: the end itself, the next node, the last node the
# edge walk reads, the first it does not, and one deep inside
OFFSETS = (0, 1, WALK - 1, WALK, 24)
# (field row of (u, R, S), value) of a live node
LIVE_VALUES = ((0, 0.75), (1, 1e-310), (2, -0.0), (0, np.nan))
LIVE_IDS = ("u", "R-subnormal", "S-negative-zero", "u-nan")


def bit_values(x):
    """The bits of x, of the next floats either side of it, of the other
    signed zero, of subnormals either way and of NaNs with payloads."""
    near = (np.nextafter(x, np.inf), np.nextafter(x, -np.inf), -x, 5e-324, -5e-324, 2.2e-308)
    nans = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000ABC)
    return [solver._float_bits(v) for v in near] + list(nans)


@st.composite
def live_blocks(draw):
    """(u0, (3, m) block, start): quiescent but for its first and last live
    node, each at an offset of 0-10 from its end, and a few nodes between;
    each live node holds one of bit_values in one row; or no live node."""
    u0 = draw(st.sampled_from((0.0, -0.0, 0.5)))
    m = draw(st.integers(0, 40))
    fields = np.array([np.full(m, u0), np.zeros(m), np.zeros(m)])
    view = fields.view(np.uint64)
    if m and draw(st.booleans()):
        head = min(draw(st.integers(0, 10)), m - 1)
        tail = max(m - 1 - draw(st.integers(0, 10)), head)
        inside = st.integers(head, tail)
        for i in {head, tail, *draw(st.lists(inside, max_size=3))}:
            row = draw(st.integers(0, 2))
            view[row, i] = draw(st.sampled_from(bit_values(u0 if row == 0 else 0.0)))
    return u0, fields, draw(st.integers(0, 5))


class TestLiveSpan:
    """The edge walk of _live_span returns the range of the plain scan."""

    U0 = 0.5

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(live_blocks())
    def test_walk_equals_the_mask_scan(self, case):
        # a walk that compares floats, or caches u0's bits by value (0.0 ==
        # -0.0), or misses a payload NaN or a signed zero, fails here
        u0, fields, start = case
        a, b = mask_span(*fields, u0)
        want = (start + a, start + b) if a < b else (0, 0)
        assert live_span(fields, u0, start) == want

    def quiescent(self, m):
        return np.full(m, self.U0), np.zeros(m), np.zeros(m)

    @pytest.mark.parametrize("head", OFFSETS)
    @pytest.mark.parametrize("tail", OFFSETS)
    @pytest.mark.parametrize("row, value", LIVE_VALUES, ids=LIVE_IDS)
    def test_live_ends_at_any_offset(self, head, tail, row, value):
        fields = self.quiescent(64)
        fields[row][head] = fields[row][63 - tail] = value
        span = live_span(np.array(fields), self.U0)
        assert span == mask_span(*fields, self.U0) == (head, 64 - tail)

    @pytest.mark.parametrize("m", [1, 2, WALK, 2 * WALK - 1, 2 * WALK + 1, 64])
    @pytest.mark.parametrize("where", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("row, value", LIVE_VALUES[2:], ids=LIVE_IDS[2:])
    def test_one_live_node(self, m, where, row, value):
        fields = self.quiescent(m)
        i = round(where * (m - 1))
        fields[row][i] = value
        span = live_span(np.array(fields), self.U0)
        assert span == mask_span(*fields, self.U0) == (i, i + 1)

    @pytest.mark.parametrize("m", [0, 1, WALK, 3 * WALK])
    def test_quiescent_array_has_no_live_range(self, m):
        assert live_span(np.array(self.quiescent(m)), self.U0) == (0, 0)
        assert live_span(np.array(self.quiescent(m)), self.U0, 5) == (0, 0)

    @pytest.mark.parametrize("u0", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("i", [0, WALK, 40, 63])
    def test_other_signed_zero_of_u_is_live(self, u0, i):
        u, R, S = np.full(64, u0), np.zeros(64), np.zeros(64)
        u[i] = -u0
        assert live_span(np.array([u, R, S]), u0) == mask_span(u, R, S, u0) == (i, i + 1)
        assert live_span(np.array([u, R, S]), u0, 7) == (7 + i, 8 + i)


class TestTransportRegression:
    def test_profiles_translate_and_converge(self):
        setup = transport_setup()
        T = 0.3
        errs = {}
        for n in (512, 1024, 2048):
            grid = Grid.uniform(*setup.domain, n)
            state = run(setup, grid, SchemeConfig(), t_end=T).state
            _, R_exact, _ = initial_riemann(setup, grid.r + T)
            _, _, S_exact = initial_riemann(setup, grid.r - T)
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

    @pytest.mark.parametrize("budget, reason", [(3, "max_steps"), (4, "t_final"), (5, "t_final")])
    def test_t_end_wins_over_the_budget_on_the_same_step(self, gentle_setup, budget, reason):
        grid = Grid.uniform(*gentle_setup.domain, 128)
        cfg = SchemeConfig(max_steps=budget)
        t_end = 3.5 * Stepper(gentle_setup, grid, cfg).base_dt
        result = run(gentle_setup, grid, cfg, t_end=t_end)
        assert (result.steps, result.reason) == (min(budget, 4), reason)

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


class TestMarch:
    def test_yields_each_state_after_its_observers(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 128)
        stepper = Stepper(gentle_setup, grid, SchemeConfig())
        start = init_state(gentle_setup, grid)
        t_end = 2.5 * stepper.base_dt
        seen = []
        yielded = []
        for state in stepper.march(start, t_end, (seen.append,)):
            assert seen[-1] is state
            yielded.append(state)
        assert seen == yielded and len(yielded) == 3
        # the last step is shortened to land on t_end
        dts = [b.t - a.t for a, b in zip([start, *yielded], yielded)]
        assert dts[:2] == [stepper.base_dt] * 2 and yielded[-1].t == t_end

    def test_ends_on_the_relative_rule_or_the_budget(self, gentle_setup):
        grid = Grid.uniform(*gentle_setup.domain, 128)
        stepper = Stepper(gentle_setup, grid, SchemeConfig())
        start = init_state(gentle_setup, grid)
        assert len(list(stepper.march(start, 1e-16))) == 1
        assert len(list(stepper.march(start, 10 * stepper.base_dt, max_steps=4))) == 4
        assert list(stepper.march(start, 1.0, max_steps=0)) == []
        # within 1e-14 * t_end of t_end counts as there
        there = GridState(1.0 - 5e-15, start.fields, start.live)
        assert list(stepper.march(there, 1.0)) == []


class TestStateWindow:
    def test_window_outside_the_stored_range_raises(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        stepper = Stepper(canonical_setup, grid, SchemeConfig())
        state = stepper.step(init_state(canonical_setup, grid))
        lo, hi = state.stored
        assert 0 < lo < hi < grid.n
        u, _, _ = state.window(lo, hi)
        assert bits(u).tolist() == bits(state.u[lo:hi]).tolist()
        for a, b in ((lo - 1, hi), (lo, hi + 1), (0, grid.n)):
            with pytest.raises(IndexError, match=r"leave the stored range"):
                state.window(a, b)
        assert all(f.size == 0 for f in (*state.window(0, 0), *state.window(hi + 5, lo - 3)))

    def test_window_is_a_view_of_the_block(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        stepper = Stepper(canonical_setup, grid, SchemeConfig(scheme="muscl2"))
        state = stepper.step(init_state(canonical_setup, grid))
        a, b = state.live
        block = state.window(a, b)
        assert block.shape == (3, b - a) and np.shares_memory(block, state.fields)
        assert bits(block).tolist() == bits(np.array([state.u, state.R, state.S])[:, a:b]).tolist()

    def test_node_reads_the_full_arrays_on_and_off_the_stored_range(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        states = []
        run(canonical_setup, grid, SchemeConfig(max_steps=20), observers=(states.append,))
        for state in (states[0], states[-1]):
            lo, hi = state.stored
            nodes = [0, lo - 1, lo, (lo + hi) // 2, hi - 1, hi, grid.n - 1]
            nodes = [i for i in nodes if 0 <= i < grid.n]
            full = np.array([state.u, state.R, state.S])
            for i in nodes:
                assert bits(np.array(state.node(i))).tolist() == bits(full[:, i]).tolist()
                assert bits(np.array(state.node_u(i))).tolist() == bits(full[:1, i]).tolist()
        assert states[-1].stored != (0, grid.n)

    def test_full_grid_state_reads_its_own_block(self, canonical_setup):
        grid = Grid.uniform(*canonical_setup.domain, 256)
        state = init_state(canonical_setup, grid)
        assert state.fields.shape == (3, grid.n)
        for k, row in enumerate((state.u, state.R, state.S)):
            assert row.base is state.fields and np.shares_memory(row, state.fields[k])


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
