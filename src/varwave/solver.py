"""Explicit characteristic-form solver on a uniform radial grid.

The scheme discretizes the diagonal system directly (advection plus
source), not the conservation form; the conservation law is reserved as an
independent diagnostic.  R is advected at speed -c(u) (upwinded from the
right), S at +c(u) (upwinded from the left), and u is integrated with the
same stages from u_t = (R+S)/(2 r^alpha).

Two schemes:
  * upwind1 — first-order upwind differences + forward Euler;
  * muscl2  — minmod-limited second-order reconstruction + two-stage
    strong-stability-preserving Runge-Kutta.

The time step is cfl*h/c1 with the global speed bound c1, so the discrete
domain of dependence always contains the physical one.  Fields at both
boundary nodes are clamped to the quiescent state (u=u0, R=S=0), valid
while the support stays interior.  ``run`` is the one march loop: it stops
at t_end (t_final by default), when a caller's stop rule fires, on a
gradient ceiling crossing (the blow-up signal), or on a step budget.

A step computes only its live window.  A node is quiescent when it is
bitwise equal to (u0, +0.0, +0.0), so -0.0 and NaN count as live.  The
window is the range of live nodes padded by the scheme's stencil reach and
clipped to the grid; every node outside it is written as (u0, +0.0, +0.0),
which is what the step over all nodes gives there, bit for bit.  The step
over all nodes is the window [0, n).

A state carries its live range ``live = (a, b)``: every node outside
[a, b) is bitwise (u0, +0.0, +0.0), and (0, 0) means no node is live.
``None`` means the range is not known (a hand-built state, or the initial
one); it is then found by a scan of the grid.  A step writes the range of
its result, found from the window arrays it just computed, so the window,
the finite check, ``gradient_max`` and the energy quadrature of
``diagnostics`` all cost O(window) per step.  The range stays true because
no state is mutated after a step makes it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, NonFiniteState
from .initial_data import ProblemSetup, initial_fields, initial_riemann
from .riemann_core import rhs_fields
from .speed_models import WaveSpeedModel

SCHEMES = ("upwind1", "muscl2")

DEFAULT_CEILING_FACTOR = 1e4


@dataclass(frozen=True)
class Grid:
    """Uniform strictly increasing radii with r_lo > 0."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.size < 8:
            raise ValueError("grid needs at least 8 nodes")
        if r[0] <= 0.0:
            raise ValueError("grid must satisfy r_lo > 0")
        steps = np.diff(r)
        if np.any(steps <= 0):
            raise ValueError("radii must be strictly increasing")
        h = (r[-1] - r[0]) / (r.size - 1)
        if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
            raise ValueError("grid spacing must be uniform")

    @classmethod
    def uniform(cls, r_lo: float, r_hi: float, n: int) -> "Grid":
        return cls(np.linspace(r_lo, r_hi, n))

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def h(self) -> float:
        return float((self.r[-1] - self.r[0]) / (self.r.size - 1))

    @property
    def r_lo(self) -> float:
        return float(self.r[0])

    @property
    def r_hi(self) -> float:
        return float(self.r[-1])


def _finite(*arrays: np.ndarray) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


def _live_span(u, R, S, u0: float) -> tuple[int, int] | None:
    """[first, last + 1) of the nodes not bitwise (u0, +0.0, +0.0); None if none.

    -0.0 and NaN count as live.
    """
    live = (u != u0) | (R.view(np.uint64) != 0) | (S.view(np.uint64) != 0)
    if not live.any():
        return None
    return int(np.argmax(live)), live.size - int(np.argmax(live[::-1]))


@dataclass
class GridState:
    """Discrete solution (u, R, S) at one time level.

    live is the range [a, b) outside which every node is quiescent, or None
    when it is not known (see the module docstring).
    """

    t: float
    u: np.ndarray
    R: np.ndarray
    S: np.ndarray
    live: tuple[int, int] | None = None

    def copy(self) -> "GridState":
        return GridState(self.t, self.u.copy(), self.R.copy(), self.S.copy(), self.live)

    def is_finite(self) -> bool:
        return _finite(self.u, self.R, self.S)


@dataclass(frozen=True)
class SchemeConfig:
    """Courant number, scheme choice, step budget and blow-up stop level.

    gradient_ceiling is the stop threshold on max_i |S_i|/r_i^alpha; None
    selects the default of 1e4 times the initial maximum.
    """

    cfl: float = 0.9
    scheme: str = "upwind1"
    max_steps: int = 10_000_000
    gradient_ceiling: float | None = None

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.gradient_ceiling is not None and self.gradient_ceiling <= 0:
            raise ValueError("gradient_ceiling must be positive")


@dataclass
class RunResult:
    """Final state plus termination bookkeeping from a run."""

    state: GridState
    steps: int
    reason: str  # "t_final" | "stop" | "gradient_ceiling" | "max_steps"
    detected: bool
    t_detect: float | None
    r_detect: float | None
    gradient_ceiling: float


def init_state(setup: ProblemSetup, grid: Grid) -> GridState:
    """Sample the initial data at every node; t = 0."""
    r_lo, r_hi = setup.domain
    if not (
        np.isclose(grid.r_lo, r_lo, rtol=1e-12, atol=0.0)
        and np.isclose(grid.r_hi, r_hi, rtol=1e-12, atol=0.0)
    ):
        raise DomainMismatch(
            f"grid [{grid.r_lo}, {grid.r_hi}] != setup domain [{r_lo}, {r_hi}]"
        )
    u, _ = initial_fields(setup, grid.r)
    R, S = initial_riemann(setup, grid.r)
    return GridState(t=0.0, u=np.asarray(u), R=np.asarray(R), S=np.asarray(S))


class Stepper:
    """Owns grid-derived caches and advances states by one time step.

    Node updates read a fixed stencil of the previous state only, so the
    update loops are plain vectorized array expressions over the live window.
    """

    def __init__(self, setup: ProblemSetup, grid: Grid, cfg: SchemeConfig):
        self.setup = setup
        self.grid = grid
        self.cfg = cfg
        self.speed: WaveSpeedModel = setup.speed
        self.alpha = setup.alpha
        self.h = grid.h
        # r^alpha via exp(alpha*ln r), cached once; alpha is non-integer for even d
        self.ralpha = np.exp(self.alpha * np.log(grid.r)) if self.alpha else np.ones_like(grid.r)
        self.inv_r = 1.0 / grid.r
        self.base_dt = cfg.cfl * grid.h / setup.speed.c1
        # Stencil reach of one step in nodes: an upwind1 stage reads i-1..i+1,
        # a muscl2 stage i-2..i+2 (minmod slopes of the neighbouring faces),
        # twice.  Nodes farther than that from every live node stay exactly
        # quiescent, and at the window edges the clipped stencils read only
        # quiescent nodes, as the full ones do, so both give +0.0.
        self.reach = 1 if cfg.scheme == "upwind1" else 4

    def _tendencies(self, u, R, S, inv_r, ralpha):
        c, c_prime = self.speed.c_and_c_prime(u)
        f_R, f_S = rhs_fields(inv_r, ralpha, c, c_prime, R, S, self.alpha)

        h = self.h
        dR = np.zeros_like(R)
        dS = np.zeros_like(S)
        if self.cfg.scheme == "upwind1":
            dR[:-1] = (R[1:] - R[:-1]) / h
            dS[1:] = (S[1:] - S[:-1]) / h
        else:
            sR = self._minmod_slopes(R)
            sS = self._minmod_slopes(S)
            # R winds from the right, S from the left
            face_R = R[1:] - 0.5 * h * sR[1:]
            face_S = S[:-1] + 0.5 * h * sS[:-1]
            dR[1:-1] = (face_R[1:] - face_R[:-1]) / h
            dS[1:-1] = (face_S[1:] - face_S[:-1]) / h

        du_dt = (R + S) / (2.0 * ralpha)
        return c * dR + f_R, -c * dS + f_S, du_dt

    def _minmod_slopes(self, q):
        dq = np.diff(q) / self.h
        s = np.zeros_like(q)
        a, b = dq[:-1], dq[1:]
        keep = a * b > 0.0
        s[1:-1] = np.where(keep, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
        return s

    def _live_range(self, state: GridState) -> tuple[int, int]:
        """state.live, or a scan of the grid when it is not known."""
        if state.live is not None:
            return state.live
        return _live_span(state.u, state.R, state.S, self.setup.u0) or (0, 0)

    def _window(self, state: GridState) -> tuple[int, int]:
        """Live nodes padded by the stencil reach, as [lo, hi); (0, 0) if none."""
        a, b = self._live_range(state)
        if a == b:
            return 0, 0
        return max(a - self.reach, 0), min(b + self.reach, self.grid.n)

    def _result_live(self, u, R, S, lo: int) -> tuple[int, int]:
        """Live range of a step's result from its window arrays starting at node lo.

        The front moves at most reach nodes per step, so the live ends are
        looked for among the 2*reach + 1 nodes at each window edge first;
        the whole window is scanned only when an edge holds no live node.
        """
        u0, k, m = self.setup.u0, 2 * self.reach + 1, u.size
        if m > 2 * k:
            head = _live_span(u[:k], R[:k], S[:k], u0)
            tail = _live_span(u[-k:], R[-k:], S[-k:], u0)
            if head is not None and tail is not None:
                return lo + head[0], lo + m - k + tail[1]
        span = _live_span(u, R, S, u0)
        return (0, 0) if span is None else (lo + span[0], lo + span[1])

    def _clamp_boundary(self, u, R, S, lo, hi):
        """Quiescent state on the grid's end nodes that lie in the window [lo, hi)."""
        if lo == 0 < hi:
            u[0] = self.setup.u0
            R[0] = S[0] = 0.0
        if lo < hi == self.grid.n:
            u[-1] = self.setup.u0
            R[-1] = S[-1] = 0.0

    def step(self, state: GridState, dt: float | None = None) -> GridState:
        """One explicit step; raises NonFiniteState if the result overflows."""
        if dt is None:
            dt = self.base_dt
        lo, hi = self._window(state)
        w = slice(lo, hi)
        u, R, S = state.u[w], state.R[w], state.S[w]
        inv_r, ralpha = self.inv_r[w], self.ralpha[w]
        # overflow in intermediates is caught by the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            fR, fS, fu = self._tendencies(u, R, S, inv_r, ralpha)
            R1 = R + dt * fR
            S1 = S + dt * fS
            u1 = u + dt * fu
            self._clamp_boundary(u1, R1, S1, lo, hi)
            if self.cfg.scheme == "muscl2":
                fR1, fS1, fu1 = self._tendencies(u1, R1, S1, inv_r, ralpha)
                R1 = 0.5 * (R + R1 + dt * fR1)
                S1 = 0.5 * (S + S1 + dt * fS1)
                u1 = 0.5 * (u + u1 + dt * fu1)
                self._clamp_boundary(u1, R1, S1, lo, hi)
        # every node outside the window is (u0, 0, 0), which is finite
        if not _finite(u1, R1, S1):
            raise NonFiniteState(
                f"non-finite values after step to t={state.t + dt}", last_state=state
            )
        n = self.grid.n
        new = GridState(
            t=state.t + dt,
            u=np.full(n, self.setup.u0),
            R=np.zeros(n),
            S=np.zeros(n),
            live=self._result_live(u1, R1, S1, lo),
        )
        new.u[w], new.R[w], new.S[w] = u1, R1, S1
        return new

    def gradient_max(self, state: GridState) -> tuple[float, int]:
        """max_i |S_i|/r_i^alpha and its node index, the first one on ties.

        Only the live range is searched; every node outside it has g = 0, so
        a maximum of 0 is reported at node 0, as a search of the grid would.
        """
        a, b = self._live_range(state)
        g = np.abs(state.S[a:b]) / self.ralpha[a:b]
        i = int(np.argmax(g)) if g.size else 0
        if g.size == 0 or g[i] == 0.0:
            return 0.0, 0
        return float(g[i]), a + i


def run(
    setup: ProblemSetup,
    grid: Grid,
    cfg: SchemeConfig,
    observers: tuple = (),
    t_end: float | None = None,
    stop: Callable[[GridState], bool] | None = None,
) -> RunResult:
    """March from t=0 until t_end, a stop rule, a ceiling crossing or max_steps.

    t_end defaults to setup.t_final; the last step is shortened to land on
    it, and reaching it reports reason "t_final".  Observers are callables
    invoked with the state once at t=0 and after every step, in list order.
    After the observers of a step, ``stop(state)`` is asked first: if it
    returns True the run ends with reason "stop", even when the same step
    crosses the gradient ceiling.  NonFiniteState propagates with the last
    finite state attached.
    """
    stepper = Stepper(setup, grid, cfg)
    state = init_state(setup, grid)

    g0, _ = stepper.gradient_max(state)
    if cfg.gradient_ceiling is not None:
        ceiling = cfg.gradient_ceiling
    else:
        ceiling = DEFAULT_CEILING_FACTOR * g0 if g0 > 0 else np.inf

    for obs in observers:
        obs(state)

    if t_end is None:
        t_end = setup.t_final
    steps = 0
    detected = False
    t_detect = None
    r_detect = None
    reason = "max_steps"
    while True:
        if state.t >= t_end - 1e-14 * t_end:
            reason = "t_final"
            break
        if steps >= cfg.max_steps:
            reason = "max_steps"
            break
        dt = min(stepper.base_dt, t_end - state.t)
        state = stepper.step(state, dt)
        steps += 1
        for obs in observers:
            obs(state)
        if stop is not None and stop(state):
            reason = "stop"
            break
        gmax, i = stepper.gradient_max(state)
        if gmax >= ceiling:
            detected = True
            t_detect = state.t
            r_detect = float(grid.r[i])
            reason = "gradient_ceiling"
            break

    return RunResult(
        state=state,
        steps=steps,
        reason=reason,
        detected=detected,
        t_detect=t_detect,
        r_detect=r_detect,
        gradient_ceiling=ceiling,
    )
