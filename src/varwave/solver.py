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

The time step is cfl*h/c1 (``SchemeConfig.cfl_step``) with the global
speed bound c1, so the discrete domain of dependence always contains the
physical one.  Fields at both boundary nodes are clamped to the quiescent
state (u=u0, R=S=0), valid while the support stays interior.  A stage
fails by name if the speed model finds an angle it reads off its table,
and otherwise makes one c_and_c_prime and one rhs_fields call.
``Stepper.march`` is the one march loop: it steps to t_end, shortening the
last step to land on it, and stops once t is within ``_reached`` of t_end
or after a step budget.  ``run`` marches to t_final by default and adds its
policies: a caller's stop rule and the gradient ceiling crossing (the
blow-up signal; ``default_ceiling`` unless set).

A node is quiescent when it is bitwise (u0, +0.0, +0.0) in all three
fields; any other bits, NaN and the other signed zero among them, are live.
Every state carries its live range ``live = (a, b)``: every node outside
[a, b) is quiescent, and a == b means none is live.  ``init_state`` finds it
by one scan, and a step by ``_live_span`` on the window it just computed.
The front moves at most the stencil reach per step, so ``_live_span`` finds
the live ends next to the window's edges, node by node, before it falls
back to a scan.  No state is mutated after it is made, so its range stays
true.

A step computes only its live window: the live range padded by the
scheme's stencil reach and clipped to the grid.  Every node outside it is
(u0, +0.0, +0.0), which is what the step over all nodes (the window [0, n))
gives there, bit for bit.  The new state stores its fields only on the
window padded by the reach again, its stored range, which holds the next
window.  So every per-step pass (the step and its finite check,
``gradient_max``, the observers and the snapshot rows) costs O(window).

A step computes the same floating-point operations, in the same order, as
the plain formulas (kept as the reference stepper of the tests), but in
place and in fewer array passes.  The only rewrites are exact ones:
(-c)*dS + f_S is computed as f_S - c*dS (IEEE defines x - y as x + (-y)),
2*r^alpha is cached (a power-of-two scaling), sums and products swap their
operands, and minmod takes the slope of smaller magnitude where a*b > 0.
Rewrites that change a bit are not used: -(R^2 - S^2) for S^2 - R^2 (it
gives -0.0 where R^2 = S^2), a product by 1/h for a division by h, and a
regrouped product such as c*(alpha*inv_r) for (alpha*c)*inv_r.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, NonFiniteState
from .initial_data import ProblemSetup, initial_riemann
from .riemann_core import rhs_fields, source_coefficients
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


# Nodes that _live_span reads one at a time from each end before it scans
# the whole array.  A step's window is its input's live range padded by the
# stencil reach (1 or 4), and the front moves at most that far, so the live
# ends of a step's result lie within the reach of the window's edges unless
# the ends of the support fall quiescent; 2 * 4 + 1 leaves room for that.
_EDGE_WALK = 9


def _live_span(u, R, S, u0: float, start: int = 0) -> tuple[int, int]:
    """[first, last + 1) of the nodes not bitwise (u0, +0.0, +0.0), offset by start.

    (0, 0) if no node is live.  The first and the last live node are looked
    for among the _EDGE_WALK nodes at each end, one node at a time; only when
    an end holds none of them is the whole array scanned.  Both ways give the
    same range.
    """
    Ub, Rb, Sb = u.view(np.uint64), R.view(np.uint64), S.view(np.uint64)
    u0b = np.float64(u0).view(np.uint64)
    m = u.size
    k = min(_EDGE_WALK, m)
    for first in range(k):
        if Ub[first] != u0b or Rb[first] or Sb[first]:
            for last in range(m - 1, m - 1 - k, -1):
                if Ub[last] != u0b or Rb[last] or Sb[last]:
                    return start + first, start + last + 1
            break
    live = (Ub != u0b) | (Rb != 0) | (Sb != 0)
    if not live.any():
        return 0, 0
    return start + int(np.argmax(live)), start + m - int(np.argmax(live[::-1]))


class GridState:
    """Discrete solution (u, R, S) at one time level.

    live is the range [a, b) outside which every node is quiescent (see the
    module docstring).  The fields are stored on ``stored = [lo, lo + u.size)``
    only; every node outside it is (u0, +0.0, +0.0).  Given no n, the arrays
    are the whole grid and ``state.u`` is u itself.  Otherwise ``state.u``,
    ``.R`` and ``.S`` are built on first access, read-only, and hot readers
    use ``window`` and ``node`` instead.
    """

    def __init__(self, t, u, R, S, live, lo=0, n=None, u0=None):
        self.t, self.live, self.u0 = t, live, u0
        self.stored = (lo, lo + u.size)
        self._rows = (u, R, S)
        self._full = self._rows if n is None else None
        self.n = u.size if n is None else n

    def _fields(self):
        if self._full is None:
            lo, hi = self.stored
            full = np.empty((3, self.n))
            full[0], full[1:] = self.u0, 0.0
            for row, stored in zip(full, self._rows):
                row[lo:hi] = stored
            full.flags.writeable = False
            self._full = tuple(full)
        return self._full

    u = property(lambda self: self._fields()[0])
    R = property(lambda self: self._fields()[1])
    S = property(lambda self: self._fields()[2])

    def window(self, lo: int, hi: int):
        """(u, R, S) on the nodes [lo, hi) as views of the stored rows; empty if hi <= lo.

        IndexError if the nodes leave the stored range.
        """
        s_lo, s_hi = self.stored
        if hi <= lo:
            lo = hi = s_lo
        elif lo < s_lo or hi > s_hi:
            raise IndexError(f"nodes [{lo}, {hi}) leave the stored range [{s_lo}, {s_hi})")
        u, R, S = self._rows
        lo, hi = lo - s_lo, hi - s_lo
        return u[lo:hi], R[lo:hi], S[lo:hi]

    def node(self, i: int) -> tuple[float, float, float]:
        """(u, R, S) at node i as floats; (u0, 0.0, 0.0) off the stored range."""
        k = i - self.stored[0]
        u, R, S = self._rows
        if 0 <= k < u.size:
            return u.item(k), R.item(k), S.item(k)
        return self.u0, 0.0, 0.0

    def node_u(self, i: int) -> tuple[float]:
        """(u,) at node i as a float, as ``node`` reads it."""
        k = i - self.stored[0]
        u = self._rows[0]
        return (u.item(k),) if 0 <= k < u.size else (self.u0,)


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

    def cfl_step(self, grid: Grid, speed: WaveSpeedModel) -> float:
        """The time step cfl*h/c1 on the grid, with the speed's global bound c1."""
        return self.cfl * grid.h / speed.c1


def _reached(t: float, t_end: float) -> bool:
    """True once t lies within 1e-14 * t_end of t_end, the march's end rule."""
    return t >= t_end - 1e-14 * t_end


def default_ceiling(g0: float) -> float:
    """DEFAULT_CEILING_FACTOR times the initial gradient maximum g0; inf if g0 is 0."""
    return DEFAULT_CEILING_FACTOR * g0 if g0 > 0 else np.inf


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
    """Sample the initial data at every node; t = 0, live range by one scan."""
    r_lo, r_hi = setup.domain
    if not (
        np.isclose(grid.r_lo, r_lo, rtol=1e-12, atol=0.0)
        and np.isclose(grid.r_hi, r_hi, rtol=1e-12, atol=0.0)
    ):
        raise DomainMismatch(
            f"grid [{grid.r_lo}, {grid.r_hi}] != setup domain [{r_lo}, {r_hi}]"
        )
    u, R, S = initial_riemann(setup, grid.r)
    return GridState(0.0, u, R, S, _live_span(u, R, S, setup.u0))


class Stepper:
    """Owns grid-derived caches and advances states by one time step.

    Node updates read a fixed stencil of the previous state only, so the
    update loops are plain vectorized array expressions over the live window.
    A step writes its stages straight into the rows (u, R, S) of one new
    block over the window padded by the reach, the new state's stored range;
    the module docstring lists the exact rewrites the stages use.
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
        self.two_ralpha = 2.0 * self.ralpha
        self.inv_r = 1.0 / grid.r
        self.base_dt = cfg.cfl_step(grid, setup.speed)
        # Stencil reach of one step in nodes: an upwind1 stage reads i-1..i+1,
        # a muscl2 stage i-2..i+2 (minmod slopes of the neighbouring faces),
        # twice.  Nodes farther than that from every live node stay exactly
        # quiescent, and at the window edges the clipped stencils read only
        # quiescent nodes, as the full ones do, so both give +0.0.
        self.reach = 1 if cfg.scheme == "upwind1" else 4
        self._rest = np.array([[setup.u0], [0.0], [0.0]])
        self._coefficients = None  # source_coefficients on the grid, for float c and c'

    def _tendencies(self, u, R, S, w: slice) -> np.ndarray:
        """Rows (du/dt, dR/dt, dS/dt) of one stage on the window w."""
        c, c_prime = self.speed.c_and_c_prime(u)
        if isinstance(c, float):  # a speed free of u: its factors once per grid
            if self._coefficients is None:
                grid_args = self.inv_r, self.ralpha, c, c_prime, self.alpha
                self._coefficients = source_coefficients(*grid_args)
            quad, geom = (k[w] for k in self._coefficients)
        else:
            quad, geom = source_coefficients(self.inv_r[w], self.ralpha[w], c, c_prime, self.alpha)
        f_R, f_S = rhs_fields(quad, geom, R, S)

        h = self.h
        f = np.empty((3, u.size))
        du, dR, dS = f
        np.add(R, S, out=du)
        du /= self.two_ralpha[w]
        if self.cfg.scheme == "upwind1":
            np.subtract(R[1:], R[:-1], out=dR[:-1])
            np.subtract(S[1:], S[:-1], out=dS[1:])
            dR[-1:] = 0.0
            dS[:1] = 0.0
        else:
            # R winds from the right, S from the left
            face_R = self._minmod_slopes(R)[1:]
            face_R *= 0.5 * h
            np.subtract(R[1:], face_R, out=face_R)
            face_S = self._minmod_slopes(S)[:-1]
            face_S *= 0.5 * h
            face_S += S[:-1]
            np.subtract(face_R[1:], face_R[:-1], out=dR[1:-1])
            np.subtract(face_S[1:], face_S[:-1], out=dS[1:-1])
            f[1:, :1] = 0.0
            f[1:, -1:] = 0.0
        # the zeroed ends stay +0.0; (R, S) tendencies c dR + f_R, f_S - c dS
        f[1:] /= h
        f[1:] *= c
        dR += f_R
        np.subtract(f_S, dS, out=dS)
        return f

    def _minmod_slopes(self, q):
        """Minmod-limited slopes of q, zero at both ends.

        Where the one-sided differences a, b have a*b > 0 they share a sign,
        so the one of smaller magnitude equals sign(a)*min(|a|, |b|).
        """
        dq = np.subtract(q[1:], q[:-1])
        dq /= self.h
        mag = np.abs(dq)
        a, b = dq[:-1], dq[1:]
        s = np.zeros_like(q)
        np.copyto(s[1:-1], np.where(mag[:-1] <= mag[1:], a, b), where=a * b > 0.0)
        return s

    def _window(self, state: GridState) -> tuple[int, int]:
        """Live nodes padded by the stencil reach, as [lo, hi); (0, 0) if none."""
        a, b = state.live
        if a == b:
            return 0, 0
        return max(a - self.reach, 0), min(b + self.reach, self.grid.n)

    def _clamp_boundary(self, fields, lo, hi):
        """Quiescent state on the grid's end nodes that lie in the window [lo, hi)."""
        if lo == 0 < hi:
            fields[:, :1] = self._rest
        if lo < hi == self.grid.n:
            fields[:, -1:] = self._rest

    def _check_table(self, u, t: float, state: GridState) -> None:
        """NonFiniteState naming the stage at t whose input angles u leave the speed table."""
        if self.speed.off_table(u):
            raise NonFiniteState(f"angle left the speed table at t={t}", last_state=state)

    def step(self, state: GridState, dt: float | None = None) -> GridState:
        """One explicit step; NonFiniteState names a table exit or a non-finite result."""
        if dt is None:
            dt = self.base_dt
        lo, hi = self._window(state)
        w = slice(lo, hi)
        u, R, S = state.window(lo, hi)
        # stored range: the window padded by the reach holds the next window
        s_lo, s_hi = max(lo - self.reach, 0), min(hi + self.reach, self.grid.n)
        new = np.empty((3, s_hi - s_lo))
        new[:, : lo - s_lo] = self._rest
        new[:, hi - s_lo :] = self._rest
        fields = new[:, lo - s_lo : hi - s_lo]
        u1, R1, S1 = fields
        # overflow in intermediates is caught by the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_table(u, state.t, state)
            f = self._tendencies(u, R, S, w)
            f *= dt
            np.add(u, f[0], out=u1)
            np.add(R, f[1], out=R1)
            np.add(S, f[2], out=S1)
            self._clamp_boundary(fields, lo, hi)
            if self.cfg.scheme == "muscl2":
                # (q + q1 + dt f(q1)) / 2, summed in that order
                self._check_table(u1, state.t + dt, state)
                f = self._tendencies(u1, R1, S1, w)
                f *= dt
                u1 += u
                R1 += R
                S1 += S
                fields += f
                fields *= 0.5
                self._clamp_boundary(fields, lo, hi)
        # every node outside the window is (u0, 0, 0), which is finite
        if not np.isfinite(fields).all():
            message = f"non-finite values after step to t={state.t + dt}"
            raise NonFiniteState(message, last_state=state)
        live = _live_span(u1, R1, S1, self.setup.u0, lo)
        return GridState(state.t + dt, *new, live, s_lo, self.grid.n, self.setup.u0)

    def march(
        self, state: GridState, t_end: float, observers: tuple = (), max_steps: int | None = None
    ) -> Iterator[GridState]:
        """Step from state towards t_end, yielding each new state.

        Each step is base_dt, or t_end - t when that is shorter, so the last
        one lands on t_end.  Observers see each new state, in list order,
        before it is yielded.  The march ends once ``_reached(t, t_end)``, or
        after max_steps states when it is given.
        """
        steps = 0
        while not _reached(state.t, t_end) and (max_steps is None or steps < max_steps):
            state = self.step(state, min(self.base_dt, t_end - state.t))
            steps += 1
            for obs in observers:
                obs(state)
            yield state

    def gradient_max(self, state: GridState) -> tuple[float, int]:
        """max_i |S_i|/r_i^alpha and its node index, the first one on ties.

        Only the live range is searched; every node outside it has g = 0, so
        a maximum of 0 is reported at node 0, as a search of the grid would.
        """
        a, b = state.live
        g = np.abs(state.window(a, b)[2]) / self.ralpha[a:b]
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
    """``Stepper.march`` from t=0 until t_end, a stop rule, a ceiling crossing or max_steps.

    t_end defaults to setup.t_final; the last step is shortened to land on
    it, and reaching it reports reason "t_final", also when that step uses
    up max_steps.  Observers are callables invoked with the state once at
    t=0 and after every step, in list order.
    After the observers of a step, ``stop(state)`` is asked first: if it
    returns True the run ends with reason "stop", even when the same step
    crosses the gradient ceiling.  NonFiniteState propagates with the last
    finite state attached.
    """
    stepper = Stepper(setup, grid, cfg)
    state = init_state(setup, grid)

    ceiling = cfg.gradient_ceiling
    if ceiling is None:
        ceiling = default_ceiling(stepper.gradient_max(state)[0])

    for obs in observers:
        obs(state)

    if t_end is None:
        t_end = setup.t_final
    steps = 0
    detected = False
    t_detect = None
    r_detect = None
    for state in stepper.march(state, t_end, observers, cfg.max_steps):
        steps += 1
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
    else:
        # t_end wins over the budget when the last step reaches both
        reason = "t_final" if _reached(state.t, t_end) else "max_steps"

    return RunResult(
        state=state,
        steps=steps,
        reason=reason,
        detected=detected,
        t_detect=t_detect,
        r_detect=r_detect,
        gradient_ceiling=ceiling,
    )
