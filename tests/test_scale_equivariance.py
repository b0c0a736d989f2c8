"""Scale equivariance: an oracle for both solvers that needs no stored bytes.

The radial equation has no length scale.  If u(t, r) solves it, so does
u(t/lam, r/lam), and then R and S are scaled by lam^(alpha-1).  For lam a
power of two (4 and 1/4 here) every scaling below is exact in floating
point: the grid ``Grid.uniform(lam r_lo, lam r_hi, n)`` is lam times the
base grid, the time step is lam times the base step, and lam^(alpha-1) is
a power of two for every d.  Both solvers form r^alpha as ``r**alpha`` only
(1, sqrt(r), r and r*r for d = 1, 2, 3 and 5, and pow for d = 4), and the
characteristic solver bisects its support spacing in units of eps.  So a
march on the scaled data gives lam times t and r, the same u and
lam^(alpha-1) times R and S, bit for bit, or raises ``NonFiniteState`` at
the same step.  Any change to the order of either solver's floating-point
operations that breaks this symmetry shows here; both sides run the same
numpy kernels, so the check does not follow numpy's CPU dispatch (the CI
runs this file with numpy's dispatch targets off as well).

The symmetry has one precondition.  Scaling by a power of two is exact
only on normal floats, and the source terms square R and S.  Where a
magnitude in (0, 2^-511) enters a stage, its square is subnormal (or
flushes to zero) and the two marches may drift apart in their last bits.
``muscl2`` reaches such magnitudes on its flanks at N = 1024 (the first
such state enters step 69 in d = 1 and step 137 in d = 2 at lam = 4, and
step 138 in d = 4 at lam = 1/4), and its first mismatch follows at steps
74, 146 and 146.  ``upwind1`` never reaches them on these data.  The
Eulerian tests therefore assert the precondition on the input of every
stage, and compare steps only while it holds.

The initial data of the scaled runs are built by hand: the theorem
construction cannot express them, since its eps sets both the width and
the velocity of the data.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest

from varwave import OseenFrankSpeed, ProblemSetup, charsolver
from varwave.errors import NonFiniteState
from varwave.initial_data import initial_riemann
from varwave.solver import Grid, GridState, SchemeConfig, Stepper, init_state

LAMBDAS = (4.0, 0.25)
# below this magnitude a square is subnormal, where a power-of-two scaling is not exact
SUBNORMAL_SQUARE = 2.0**-511
# (scheme, d): the step at which the N = 256 march of the theorem data goes non-finite
NON_FINITE_AT = {("upwind1", 3): 31, ("upwind1", 5): 20, ("muscl2", 5): 12}


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@functools.cache
def theorem_setup(d):
    speed = OseenFrankSpeed(c0=1.0, c1=float(np.sqrt(2.0)), k1=2.0, k3=1.0)
    return ProblemSetup.theorem(d=d, r0=1.0, eps=0.05, u0=np.pi / 4, speed=speed)


def scaled(setup, lam):
    """The setup with r0, eps and the domain scaled by lam."""
    lo, hi = setup.domain
    return dataclasses.replace(
        setup, r0=lam * setup.r0, eps=lam * setup.eps, domain=(lam * lo, lam * hi)
    )


def has_subnormal_square(q):
    """Whether the R or S row of the (3, w) block q holds a magnitude in (0, 2^-511)."""
    RS = np.abs(q[1:])
    return bool(((RS > 0.0) & (RS < SUBNORMAL_SQUARE)).any())


class WatchedStepper(Stepper):
    """A Stepper that records whether any stage's input breaks the precondition."""

    broken = False

    def _increments(self, q, w, dt, tame=None):
        self.broken = self.broken or has_subnormal_square(q)
        return super()._increments(q, w, dt, tame)


class ScaledPair:
    """The base march of the theorem data in d and the march scaled by lam, side by side."""

    def __init__(self, d, scheme, lam, n):
        base = theorem_setup(d)
        setup = scaled(base, lam)
        grid = Grid.uniform(*base.domain, n)
        scaled_grid = Grid.uniform(*setup.domain, n)
        assert np.array_equal(bits(lam * grid.r), bits(scaled_grid.r))
        cfg = SchemeConfig(scheme=scheme)
        self.lam, self.k = lam, lam ** (base.alpha - 1.0)
        self.steppers = WatchedStepper(base, grid, cfg), WatchedStepper(setup, scaled_grid, cfg)
        assert lam * self.steppers[0].base_dt == self.steppers[1].base_dt
        state = init_state(base, grid)
        fields = state.fields.copy()
        fields[1:] *= self.k
        self.states = state, GridState(0.0, fields, state.live, tame=state.tame)

    def step(self):
        """Both states one step on; per side, whether it raised NonFiniteState
        (a side that raised keeps its state)."""
        out, raised = [], []
        for stepper, state in zip(self.steppers, self.states):
            try:
                out.append(stepper.step(state))
                raised.append(False)
            except NonFiniteState:
                out.append(state)
                raised.append(True)
        self.states = tuple(out)
        return raised

    @property
    def broken(self):
        return any(s.broken for s in self.steppers)

    def assert_equivariant(self):
        base, other = self.states
        assert other.t == self.lam * base.t
        assert other.live == base.live and other.stored == base.stored
        unscaled = other.fields.copy()
        unscaled[1:] /= self.k
        assert np.array_equal(bits(unscaled), bits(base.fields))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_eulerian_march_is_scale_equivariant(scheme, d, lam):
    """N = 256, up to 100 steps: every state bitwise scaled, or both sides
    non-finite at the same, known step; no stage input breaks the precondition."""
    pair = ScaledPair(d, scheme, lam, 256)
    raise_at = NON_FINITE_AT.get((scheme, d))
    for step in range(1, (raise_at or 100) + 1):
        assert pair.step() == [step == raise_at] * 2, f"NonFiniteState per side at step {step}"
        assert not pair.broken, f"a subnormal square entered step {step}"
        pair.assert_equivariant()


@pytest.mark.parametrize(
    "d, lam", [(1, 4.0), (2, 4.0), (4, 0.25)], ids=["d1-4", "d2-4", "d4-quarter"]
)
def test_muscl2_is_equivariant_until_a_square_goes_subnormal(d, lam):
    """N = 1024: muscl2's flanks reach the subnormal squares (see the module
    docstring); every step before the first stage input that breaks the
    precondition is bitwise scaled."""
    pair = ScaledPair(d, "muscl2", lam, 1024)
    for step in range(1, 161):
        assert pair.step() == [False, False]
        if pair.broken:
            break
        pair.assert_equivariant()
    assert pair.broken, "no subnormal square in 160 steps"
    assert step > 60, "too few steps compared"  # 69, 137 and 138 (module docstring)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sweep_is_scale_equivariant(d, lam):
    """blowup_sweep at N = 512 on the theorem data and on its scaling by lam:
    the feet, the detection and the hat line's samples, bitwise scaled."""
    base = theorem_setup(d)
    setup = scaled(base, lam)
    k = lam ** (base.alpha - 1.0)

    def scaled_data(_, x):
        u, R, S = initial_riemann(base, x / lam)
        return u, k * R, k * S

    ref, ref_hat = charsolver.blowup_sweep(base, 512)
    with mock.patch.object(charsolver, "initial_riemann", scaled_data):
        run, hat = charsolver.blowup_sweep(setup, 512)
    assert ref.detected and ref.reason == "gradient_ceiling"
    assert (run.reason, run.diagonals) == (ref.reason, ref.diagonals)
    assert np.array_equal(bits(run.nodes.x), bits(lam * ref.nodes.x))
    assert run.t_detect == lam * ref.t_detect
    assert run.r_detect == lam * ref.r_detect
    assert ref_hat.t.size > 10
    assert np.array_equal(bits(hat.t), bits(lam * ref_hat.t))
    assert np.array_equal(bits(hat.r), bits(lam * ref_hat.r))
    assert np.array_equal(bits(hat.u), bits(ref_hat.u))
    assert np.array_equal(bits(hat.R), bits(k * ref_hat.R))
    assert np.array_equal(bits(hat.S), bits(k * ref_hat.S))
