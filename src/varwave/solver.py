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
and otherwise makes one c_and_c_prime and at most one rhs_fields call.
``Stepper.march`` is the one march loop: it steps to t_end, shortening the
last step to land on it, and stops once t is within ``reached`` of t_end
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

A stage adds dt times its tendencies as increments, one product per row;
du = (R + S) dt/(2 r^alpha), dR = lambda c (R_{i+1} - R_i) + dt f_R and
dS = lambda c (S_{i-1} - S_i) + dt f_S, lambda = dt/h (muscl2 differences
its minmod-limited faces), dt f_R and dt f_S by rhs_fields from the factors
c' dt/(4 c r^alpha) and (alpha c / r) dt.  A step makes the floating-point
operations of these plain formulas (the reference stepper of the tests), in
their order, in fewer array passes; sums and products swap their operands,
and minmod takes the slope of smaller magnitude where a*b > 0.  Bit-changing
rewrites are not used: -(R^2 - S^2) for S^2 - R^2 (-0.0 where R^2 = S^2), a
product by 1/h for a division by h, c*(alpha*inv_r) for (alpha*c)*inv_r.

The factors for base_dt are built at the first step and kept; any other dt
(the shortened last step) builds its own.  None is r^alpha/dt or dt/r, which
overflow where r^alpha and 1/r do not: dt/(2 r^alpha) and (alpha c / r) dt
take dt in one rounding, c' dt <= c1 dt <= cfl h is divided by the unscaled
4 c r^alpha, and lambda <= cfl/c1 is finite unless c1 < 1/MAX, which
ProblemSetup (a finite t_final, c0 r_lo^alpha >= 1e-300) allows only for
alpha > 1e16.  Those checks bound the factors by cfl h/(2 c0 r_lo^alpha)
<= 5e299 h and alpha cfl h/r_lo.

Where the scaled source factors are all zero (d = 1, constant speed), dt f_R
and dt f_S are signed zeros, or NaN where R*R or S*S overflows.  Adding one
to the increment lambda c dR changes at most the sign of a zero increment,
and adding that to a stage input q changes q only where q is -0.0 (muscl2's
second stage adds it to q + q1, -0.0 only where q1 is).  So a stage keeps
every bit skipping rhs_fields when its R and S rows hold no -0.0 and no
magnitude of 2^512 or more (whose square overflows; NaN fails that test
too): when they are tame.  Every state records whether its rows are tame,
``GridState.tame``: True, False or None (unknown).  ``init_state`` scans its
rows once (``_source_needed``).  An upwind1 step takes the record from
scans it makes anyway.  Its finite check is the minimum and the maximum of
each row of the new block (NaN propagates through both), and they bound
|R| and |S| too.  And in round-to-nearest x + y is -0.0 only where x and y
both are, so the output prev + f, whose clamped and padded nodes are +0.0,
holds a -0.0 only where its input does, with the sources or without them.
So the output is tame where its input is and the bound holds, not tame
where the bound fails, and unknown otherwise.  muscl2 halves its sum, and
half of -5e-324 is -0.0, so its output's record is None.  A stage with zero
source factors scans its input only where the record is None; an upwind1
step takes that scan as its input's record, so a march from a state built
by hand, or from one that was not tame, scans once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, NonFiniteState
from .initial_data import ProblemSetup, checked_float, initial_riemann
from .riemann_core import rhs_fields, source_coefficients
from .speed_models import WaveSpeedModel

SCHEMES = ("upwind1", "muscl2")

DEFAULT_CEILING_FACTOR = 1e4

# -0.0 read as an int64 is the least int64
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)
# the least magnitude whose square overflows a float
_SQUARE_OVERFLOW = 2.0**512


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


def _float_bits(x: float) -> int:
    """The bit pattern of the float x as a Python int, -0.0 apart from +0.0."""
    return np.float64(x).view(np.uint64).item()


def _live_span(fields, u0_bits: int, start: int = 0) -> tuple[int, int]:
    """[first, last + 1) of the columns of the (3, m) block fields that are not
    bitwise (u0, +0.0, +0.0), u0 given by its bits u0_bits, offset by start.

    (0, 0) if no node is live.  The first and the last live node are looked
    for among the _EDGE_WALK nodes at each end, one node at a time as Python
    ints; only when an end holds none of them is the whole block scanned.
    Both ways give the same range.
    """
    bits = fields.view(np.uint64)
    item = bits.item
    m = bits.shape[1]
    k = min(_EDGE_WALK, m)
    for first in range(k):
        if item(0, first) != u0_bits or item(1, first) or item(2, first):
            for last in range(m - 1, m - 1 - k, -1):
                if item(0, last) != u0_bits or item(1, last) or item(2, last):
                    return start + first, start + last + 1
            break
    live = (bits != np.array([[u0_bits], [0], [0]], dtype=np.uint64)).any(axis=0)
    if not live.any():
        return 0, 0
    return start + int(np.argmax(live)), start + m - int(np.argmax(live[::-1]))


class GridState:
    """Discrete solution (u, R, S) at one time level, as one (3, m) block.

    live is the range [a, b) outside which every node is quiescent (see the
    module docstring).  The rows (u, R, S) of ``fields`` are stored on
    ``stored = [lo, lo + m)`` only; every node outside it is (u0, +0.0, +0.0).
    A state whose stored range is its whole grid (given no n, the block is
    the whole grid) has ``state.u`` as row 0 of its block.  Otherwise
    ``state.u``, ``.R`` and ``.S`` are built on first access, read-only, and
    hot readers use ``window`` and ``node`` instead.  tame records whether the
    R and S rows hold no -0.0 and no magnitude of 2^512 or more: True, False
    or None if unknown (see the module docstring).
    """

    def __init__(self, t, fields, live, lo=0, n=None, u0=None, tame=None):
        self.t, self.fields, self.live, self.u0, self.tame = t, fields, live, u0, tame
        m = fields.shape[1]
        self.stored = (lo, lo + m)
        self.n = m if n is None else n
        self._full = fields if m == self.n else None

    def _fields(self):
        if self._full is None:
            lo, hi = self.stored
            full = np.empty((3, self.n))
            full[0], full[1:] = self.u0, 0.0
            full[:, lo:hi] = self.fields
            full.flags.writeable = False
            self._full = full
        return self._full

    u = property(lambda self: self._fields()[0])
    R = property(lambda self: self._fields()[1])
    S = property(lambda self: self._fields()[2])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The (3, hi - lo) view of the block on the nodes [lo, hi); (3, 0) if hi <= lo.

        IndexError if the nodes leave the stored range.
        """
        s_lo, s_hi = self.stored
        if hi <= lo:
            lo = hi = s_lo
        elif lo < s_lo or hi > s_hi:
            raise IndexError(f"nodes [{lo}, {hi}) leave the stored range [{s_lo}, {s_hi})")
        return self.fields[:, lo - s_lo : hi - s_lo]

    def node(self, i: int) -> tuple[float, float, float]:
        """(u, R, S) at node i as floats; (u0, 0.0, 0.0) off the stored range."""
        lo, hi = self.stored
        if lo <= i < hi:
            f, k = self.fields, i - lo
            return f.item(0, k), f.item(1, k), f.item(2, k)
        return self.u0, 0.0, 0.0

    def node_u(self, i: int) -> tuple[float]:
        """(u,) at node i as a float, as ``node`` reads it."""
        lo, hi = self.stored
        return (self.fields.item(0, i - lo),) if lo <= i < hi else (self.u0,)


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
        """The time step cfl*h/c1 on the grid, with c1 the speed's bound; checked positive."""
        return checked_float("the time step cfl*h/c1", self.cfl * grid.h / speed.c1, positive=True)


def reached(t: float, t_end: float) -> bool:
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
    """Sample the initial data at every node; t = 0, live range and record by a scan each."""
    r_lo, r_hi = setup.domain
    if not (
        np.isclose(grid.r_lo, r_lo, rtol=1e-12, atol=0.0)
        and np.isclose(grid.r_hi, r_hi, rtol=1e-12, atol=0.0)
    ):
        raise DomainMismatch(
            f"grid [{grid.r_lo}, {grid.r_hi}] != setup domain [{r_lo}, {r_hi}]"
        )
    fields = np.stack(initial_riemann(setup, grid.r))
    live = _live_span(fields, _float_bits(setup.u0))
    return GridState(0.0, fields, live, tame=not _source_needed(fields))


def _source_needed(q) -> bool:
    """Whether zero source terms may change a bit of a stage on the (3, w)
    block q: its R or S row holds a -0.0 or a magnitude of 2^512 or more.

    The scan behind a record of None, and behind ``init_state``'s record.
    """
    RS = q[1:]
    return RS.view(np.int64).min(initial=0) == _NEGATIVE_ZERO or not (
        np.abs(RS).max(initial=0.0) < _SQUARE_OVERFLOW
    )


class Stepper:
    """Owns grid-derived caches and advances states by one time step.

    Node updates read a fixed stencil of the previous state only, so the
    update loops are plain vectorized array expressions over the live window.
    A step writes its stages straight into one new (3, m) block (u, R, S)
    over the window padded by the reach, the new state's stored range, and
    the state keeps that block.  A stage folds dt, 1/h and c into one factor
    per row of increments, built for base_dt at the first step, not here.
    """

    def __init__(self, setup: ProblemSetup, grid: Grid, cfg: SchemeConfig):
        self.setup = setup
        self.grid = grid
        self.cfg = cfg
        self.speed: WaveSpeedModel = setup.speed
        self.alpha = setup.alpha
        self.h = grid.h
        self.ralpha = grid.r**self.alpha
        self.inv_r = 1.0 / grid.r
        self.base_dt = cfg.cfl_step(grid, setup.speed)
        # Stencil reach of one step in nodes: an upwind1 stage reads i-1..i+1,
        # a muscl2 stage i-2..i+2 (minmod slopes of the neighbouring faces),
        # twice.  Nodes farther than that from every live node stay exactly
        # quiescent, and at the window edges the clipped stencils read only
        # quiescent nodes, as the full ones do, so both give +0.0.
        self._upwind = cfg.scheme == "upwind1"
        self.reach = 1 if self._upwind else 4
        self._n, self._u0_bits = grid.n, _float_bits(setup.u0)
        self._rest = np.array([[setup.u0], [0.0], [0.0]])
        self._base = None  # _scaled(base_dt, ...), built at the first step

    def _scaled(self, dt: float, c, c_prime):
        """(dt/(2 r^alpha), a float speed's scaled source factors or None, whether
        those are all zero) on the grid; kept for base_dt, built for other dt."""
        if dt == self.base_dt and self._base is not None:
            return self._base
        source, zero = None, False
        if isinstance(c, float):
            quad, geom = source_coefficients(self.inv_r, self.ralpha, c, c_prime * dt, self.alpha)
            source = quad, geom * dt
            zero = not any(map(np.any, source))
        scaled = dt / (2.0 * self.ralpha), source, zero
        if dt == self.base_dt:
            self._base = scaled
        return scaled

    def _increments(self, q, w: slice, dt: float, tame: bool | None = None):
        """(rows (du, dR, dS), q's record): dt times the tendencies of one stage
        from the (3, w) block q on the window w.  The source terms are left out
        where that changes no bit of the stepped state: where they are zero and
        q is tame, by its record tame or, if that is None, by a scan of q, which
        is then the record returned (see the module docstring)."""
        R, S = q[1], q[2]
        c, c_prime = self.speed.c_and_c_prime(q[0])
        k_u, factors, zero = self._scaled(dt, c, c_prime)
        lam_c = c * (dt / self.h)
        f = np.empty((3, q.shape[1]))
        du, dR, dS = f[0], f[1], f[2]
        np.add(R, S, out=du)
        du *= k_u[w]
        # R winds from the right, S from the left; undivided differences
        if self._upwind:
            np.subtract(R[1:], R[:-1], out=dR[:-1])
            np.subtract(S[:-1], S[1:], out=dS[1:])
            dR[-1:] = dS[:1] = 0.0
        else:
            face_R = self._minmod_slopes(R)[1:]
            face_R *= 0.5
            np.subtract(R[1:], face_R, out=face_R)
            face_S = self._minmod_slopes(S)[:-1]
            face_S *= 0.5
            face_S += S[:-1]
            np.subtract(face_R[1:], face_R[:-1], out=dR[1:-1])
            np.subtract(face_S[:-1], face_S[1:], out=dS[1:-1])
            f[1:, :1] = f[1:, -1:] = 0.0
        # the zeroed ends stay +0.0; increments lambda c dR + dt f_R and lambda c dS + dt f_S
        f[1:] *= lam_c
        tame = not _source_needed(q) if zero and tame is None else tame
        if not (zero and tame):
            if factors is None:  # an array speed scales its factors on the window
                args = self.inv_r[w], self.ralpha[w], c, c_prime * dt, self.alpha
                quad, geom = source_coefficients(*args)
                geom *= dt
            else:
                quad, geom = factors[0][w], factors[1][w]
            f_R, f_S = rhs_fields(quad, geom, R, S)
            dR += f_R
            dS += f_S
        return f, tame

    def _minmod_slopes(self, q):
        """Minmod-limited slopes of q per cell (undivided by h), zero at both ends.

        Where the one-sided differences a, b have a*b > 0 they share a sign,
        so the one of smaller magnitude equals sign(a)*min(|a|, |b|).
        """
        dq = np.subtract(q[1:], q[:-1])
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
        return max(a - self.reach, 0), min(b + self.reach, self._n)

    def _clamp_boundary(self, fields, lo, hi):
        """Quiescent state on the grid's end nodes that lie in the window [lo, hi)."""
        if lo == 0 < hi:
            fields[:, :1] = self._rest
        if lo < hi == self._n:
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
        prev = state.window(lo, hi)
        # stored range: the window padded by the reach holds the next window
        s_lo, s_hi = max(lo - self.reach, 0), min(hi + self.reach, self._n)
        new = np.empty((3, s_hi - s_lo))
        new[:, : lo - s_lo] = new[:, hi - s_lo :] = self._rest
        fields = new[:, lo - s_lo : hi - s_lo]
        # overflow in intermediates is caught by the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_table(prev[0], state.t, state)
            f, tame = self._increments(prev, w, dt, state.tame)
            np.add(prev, f, out=fields)
            self._clamp_boundary(fields, lo, hi)
            if not self._upwind:
                # (q + q1 + dt f(q1)) / 2, summed in that order
                self._check_table(fields[0], state.t + dt, state)
                f = self._increments(fields, w, dt)[0]
                fields += prev
                fields += f
                fields *= 0.5
                self._clamp_boundary(fields, lo, hi)
        # every node outside the window is (u0, 0, 0), which is finite and
        # tame; NaN propagates through min and max and fails each comparison
        u_lo, R_lo, S_lo = np.minimum.reduce(fields, axis=1, initial=0.0).tolist()
        u_hi, R_hi, S_hi = np.maximum.reduce(fields, axis=1, initial=0.0).tolist()
        inf, big = math.inf, _SQUARE_OVERFLOW
        if not (
            -inf < u_lo <= u_hi < inf and -inf < R_lo <= R_hi < inf and -inf < S_lo <= S_hi < inf
        ):
            message = f"non-finite values after step to t={state.t + dt}"
            raise NonFiniteState(message, last_state=state)
        # upwind1: False past the bound, else the input's record or scan, True or None
        bounded = -big < R_lo and R_hi < big and -big < S_lo and S_hi < big
        tame = bounded and (tame or None) if self._upwind else None
        live = _live_span(fields, self._u0_bits, lo)
        return GridState(state.t + dt, new, live, s_lo, self._n, self.setup.u0, tame)

    def march(
        self, state: GridState, t_end: float, observers: tuple = (), max_steps: int | None = None
    ) -> Iterator[GridState]:
        """Step from state towards t_end, yielding each new state.

        Each step is base_dt, or t_end - t when that is shorter, so the last
        one lands on t_end.  Observers see each new state, in list order,
        before it is yielded.  The march ends once ``reached(t, t_end)``, or
        after max_steps states when it is given.
        """
        steps = 0
        while not reached(state.t, t_end) and (max_steps is None or steps < max_steps):
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

    if t_end is None:
        t_end = setup.t_final
    steps = 0
    detected = False
    t_detect = None
    r_detect = None
    # an observer's overflow is its own to name (EnergyObserver raises)
    with np.errstate(over="ignore"):
        for obs in observers:
            obs(state)
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
            reason = "t_final" if reached(state.t, t_end) else "max_steps"

    return RunResult(
        state=state,
        steps=steps,
        reason=reason,
        detected=detected,
        t_detect=t_detect,
        r_detect=r_detect,
        gradient_ceiling=ceiling,
    )
