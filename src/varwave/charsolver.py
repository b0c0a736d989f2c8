"""Conservative solver in characteristic coordinates (X, Y).

X is constant on minus characteristics (dr/dt = -c) and Y on plus
characteristics (dr/dt = +c).  With w = 2 arctan R, z = 2 arctan S and the
energy weights p = (1+R^2)/X_r, q = (1+S^2)/(-Y_r), the radial system of
``riemann_core`` becomes semilinear (Bressan & Zheng, CMP 2006).  Writing
A = c'/(8 c^2 r^alpha) and G = alpha/(4 r):

    t_X = p (1+cos w)/(4c)    r_X =  c t_X    u_X = p sin w/(4 c r^alpha)
    z_X = p [A (cos w - cos z) + G sin w (1 + cos z)]
    q_X = p q [A (sin w - sin z) + G sin w sin z]
    t_Y = q (1+cos z)/(4c)    r_Y = -c t_Y    u_Y = q sin z/(4 c r^alpha)
    w_Y = q [A (cos z - cos w) - G sin z (1 + cos w)]
    p_Y = p q [A (sin z - sin w) - G sin w sin z]

A gradient blow-up S -> infinity is z -> pi on a smooth grid, and the
solution continues through it conservatively.

Variables.  The march carries each pair (angle, weight) as the half-density
vector sqrt(weight) (sin(angle/2), cos(angle/2)):

    (Rn, Rd) = (R, 1)/sqrt(X_r),    (Sn, Sd) = (S, 1)/sqrt(-Y_r),

so R = Rn/Rd, S = Sn/Sd, p = Rn^2 + Rd^2 and q = Sn^2 + Sd^2.  The
system above is then linear in each pair, with coefficients from the other:

    (Sn, Sd)_X = A Rn Rd (Sn, Sd) + (a Sd, -b Sn),  a = 2G Rn Rd - A Rn^2,  b = A Rd^2
    (Rn, Rd)_Y = A Sn Sd (Rn, Rd) + (a Rd, -b Rn),  a = -2G Sn Sd - A Sn^2, b = A Sd^2
    t_X = Rd^2/(2c),  u_X = Rn Rd/(2 c r^alpha),  t_Y = Sd^2/(2c),  u_Y = Sn Sd/(2 c r^alpha)

and R^2 dr along a plus line is Rn^2/2 dX, S^2 |dr| along a minus line
Sn^2/2 dY.  Freezing the coefficients along a chord, the step is the exact
exponential exp(h A Rn Rd) (C I + h sinc [[0, a], [-b, 0]]) with
C = cos(sqrt(ab) h) and sinc = sin(sqrt(ab) h)/(sqrt(ab) h) (cosh and sinh
when ab < 0).  This is the exact integral of the frozen Riccati equation
for z together with log q, so the weights stay positive and the step stays
stable however stiff the cell.  (t, r) come from the intersection of the
two characteristic chords, u from the mean of its two one-sided
estimates.  A predictor with the coefficients of the predecessors is
followed by a corrector with chord-averaged coefficients.

Nodes.  N feet x_0 < ... < x_{N-1} lie on a foot interval: evenly spaced on
the support [r0 - eps, r0 + eps] of the data and graded off it, each cell
larger than its inner neighbour by the factor exp(GRADING/(N-1)), so the
map from labels to feet is smooth and every cell shrinks under refinement.
The interval ends, the support edges and any anchor radius are feet.  The
support spacing is bisected in units of eps, so a power-of-two scaling of
r0, eps and the interval scales the feet bit for bit.  Node (i, j) is where
the minus line from x_i meets the plus line from x_j (j <= i); both of its
predecessors (i-1, j) and (i, j+1) lie on diagonal i-j-1, so each diagonal
is one vectorised sweep of the determinacy domain of the feet.

Detection.  |S|/r^alpha >= ceiling is |Sn| >= ceiling r^alpha Sd.  Sd > 0
until z first reaches +-pi, so a node where z has passed pi since its
predecessor (Sd <= 0) fires as well, whatever |S| it shows.  Only nodes
at or before t_end detect, as in ``solver.run``.  The detection time is
the smallest t over detecting nodes; the sweep goes on until every node
of the current diagonal lies at or beyond it and none detects.  Near
z = pi the computed t can fall from a node to its successor, so a
detecting node is kept whatever its t: its successors may detect earlier.

Observers.  ``march`` calls each observer as ``observer(k, lo, D)`` with the
feet (k = 0, lo = 0), then with each diagonal once it is checked finite and
its detection counted, before the nodes beyond the stop time are dropped.
Entry p of diagonal k is node (j + k, j), j = lo + p.  An observer may read
D's arrays t, r, u, Rn, Rd, Sn and Sd and must not write them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .characteristics import PathSamples
from .errors import HypothesisViolated, NonFiniteState
from .initial_data import ProblemSetup, initial_riemann
from .solver import default_ceiling

GRADING = 80.0  # off the support each cell is exp(GRADING/(N-1)) times its inner neighbour
_SERIES_LIMIT = 1e-4  # |a b h^2| up to which three series terms are exact to rounding


@dataclass(frozen=True)
class CharNodes:
    """Feet of the characteristic grid with their labels.

    ``x`` holds the N feet in increasing order, ``label`` the value of
    X = -Y at each foot at t = 0 and ``rho`` the label density X_r there.
    """

    x: np.ndarray
    label: np.ndarray
    rho: np.ndarray

    @property
    def n(self) -> int:
        return self.x.size

    def index(self, r: float) -> int:
        """Index of the foot at radius r; raises ValueError if r is no foot."""
        i = int(np.argmin(np.abs(self.x - r)))
        if not math.isclose(self.x[i], r, rel_tol=1e-12, abs_tol=1e-15):
            raise ValueError(f"r={r} is not a node")
        return i


class _Graded:
    """Cell count m(x) of the graded map: spacing delta + kappa * distance."""

    def __init__(self, s_lo: float, s_hi: float, delta: float, kappa: float):
        self.s_lo, self.s_hi, self.delta, self.kappa = s_lo, s_hi, delta, kappa
        self.m_in = (s_hi - s_lo) / delta

    def m(self, x: float) -> float:
        d, k = self.delta, self.kappa
        if x < self.s_lo:
            return -math.log1p(k * (self.s_lo - x) / d) / k
        if x > self.s_hi:
            return self.m_in + math.log1p(k * (x - self.s_hi) / d) / k
        return (x - self.s_lo) / d

    def x(self, m: np.ndarray) -> np.ndarray:
        d, k = self.delta, self.kappa
        left = self.s_lo - d * np.expm1(-k * np.minimum(m, 0.0)) / k
        right = self.s_hi + d * np.expm1(k * np.maximum(m - self.m_in, 0.0)) / k
        return np.where(m < 0.0, left, np.where(m > self.m_in, right, self.s_lo + m * d))

    def rho(self, x: np.ndarray) -> np.ndarray:
        dist = np.maximum(self.s_lo - x, 0.0) + np.maximum(x - self.s_hi, 0.0)
        return 1.0 / (self.delta + self.kappa * dist)


def place_nodes(
    setup: ProblemSetup, n: int, lo: float, hi: float, anchors=()
) -> CharNodes:
    """N feet on [lo, hi]: even on the support, graded off it.

    The ends, the support edges r0 -+ eps and every anchor inside (lo, hi)
    are feet.  Between two of these the feet are evenly spaced in the
    graded cell count, each such piece getting at least one cell.  Raises
    HypothesisViolated when the feet are not strictly increasing, as when
    eps is so small that the support's feet round onto a few floats.
    """
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    s_lo, s_hi = setup.r0 - setup.eps, setup.r0 + setup.eps
    inner = {s_lo, s_hi, *(float(a) for a in anchors)}
    breaks = sorted({lo, hi} | {a for a in inner if lo < a < hi})
    if n < len(breaks):
        raise ValueError(f"need at least {len(breaks)} nodes")

    def counts(delta):
        g = _Graded(s_lo, s_hi, delta, GRADING / (n - 1))
        ms = [g.m(b) for b in breaks]
        return g, ms, np.diff(ms)

    # the cell count falls as the support spacing eps e^m grows; m's bracket is finite at any eps
    a, b = math.log(1e-300), math.log(min((hi - lo) / setup.eps, sys.float_info.max))
    for _ in range(200):
        mid = 0.5 * (a + b)
        if counts(setup.eps * math.exp(mid))[2].sum() > n - 1:
            a = mid
        else:
            b = mid
    g, ms, span = counts(setup.eps * math.exp(b))
    cells = np.maximum(np.rint(span).astype(int), 1)
    while cells.sum() != n - 1:
        i = int(np.argmax(cells))
        cells[i] += 1 if cells.sum() < n - 1 else -1
    labels = [np.array(ms[:1])]
    for m_a, m_b, k in zip(ms[:-1], ms[1:], cells):
        labels.append(np.linspace(m_a, m_b, k + 1)[1:])
    label = np.concatenate(labels)
    x = g.x(label)
    for a_ in breaks:
        x[int(np.argmin(np.abs(x - a_)))] = a_
    if not np.all(x[1:] > x[:-1]):
        raise HypothesisViolated(
            f"feet collapse: {np.unique(x).size} distinct of {n} feet "
            f"at eps={setup.eps}, r0={setup.r0}"
        )
    return CharNodes(x=x, label=label, rho=g.rho(x))


def linear_flow(n, d, diag, a, b, h):
    """exp(h (diag I + [[0, a], [-b, 0]])) applied to (n, d), elementwise.

    The flow is exp(h diag) (C I + h sinc [[0, a], [-b, 0]]) with
    C = cos(theta), sinc = sin(theta)/theta and theta^2 = a b h^2 (cosh and
    sinh for a negative square); short series serve the usual small theta.
    """
    ah, bh = a * h, b * h
    mu = ah * bh
    cos_t = 1.0 + mu * (-0.5 + mu * (1.0 / 24.0))
    sinc = 1.0 + mu * (-1.0 / 6.0 + mu * (1.0 / 120.0))
    big = np.nonzero(np.abs(mu) > _SERIES_LIMIT)[0]
    if big.size:
        m = mu[big]
        th = np.sqrt(np.abs(m))
        cos_t[big] = np.where(m > 0.0, np.cos(th), np.cosh(th))
        sinc[big] = np.where(m > 0.0, np.sin(th), np.sinh(th)) / th
    grow = np.exp(h * diag)
    return grow * (cos_t * n + sinc * ah * d), grow * (cos_t * d - sinc * bh * n)


class _Diagonal:
    """Node fields on the active part of one diagonal, plus derived terms."""

    FIELDS = ("t", "r", "u", "Rn", "Rd", "Sn", "Sd")
    DERIVED = ("c", "A", "G", "ralpha", "ux", "uy")
    __slots__ = FIELDS + DERIVED

    def __init__(self, t, r, u, Rn, Rd, Sn, Sd):
        self.t, self.r, self.u = t, r, u
        self.Rn, self.Rd, self.Sn, self.Sd = Rn, Rd, Sn, Sd

    def derive(self, setup: ProblemSetup) -> "_Diagonal":
        c, c_prime = setup.speed.c_and_c_prime(self.u)
        # a speed that does not depend on u may be a float; take slices c
        self.c, self.ralpha = np.broadcast_to(c, self.u.shape), self.r**setup.alpha
        self.A = c_prime / (8.0 * c * c * self.ralpha)
        self.G = (setup.alpha / 4.0) / self.r
        den = 2.0 * c * self.ralpha
        self.ux = self.Rn * self.Rd / den
        self.uy = self.Sn * self.Sd / den
        return self

    def take(self, sl: slice) -> "_Diagonal":
        out = _Diagonal.__new__(_Diagonal)
        for k in self.__slots__:
            setattr(out, k, getattr(self, k)[sl])
        return out

    def finite(self) -> np.ndarray:
        ok = np.isfinite(self.t)
        for k in self.FIELDS[1:]:
            ok &= np.isfinite(getattr(self, k))
        return ok


def _chord(W: _Diagonal, E: _Diagonal, c_plus, c_minus):
    t = (E.r - W.r + c_plus * W.t + c_minus * E.t) / (c_plus + c_minus)
    return t, W.r + c_plus * (t - W.t)


def _steps(W, E, hX, hY, Rn, Rd, Sn, Sd, A_x, G_x, A_y, G_y):
    """(Sn, Sd) along X from W and (Rn, Rd) along Y from E, frozen coefficients."""
    RnRd, SnSd = Rn * Rd, Sn * Sd
    sn, sd = linear_flow(
        W.Sn, W.Sd, A_x * RnRd, 2.0 * G_x * RnRd - A_x * Rn * Rn, A_x * Rd * Rd, hX
    )
    rn, rd = linear_flow(
        E.Rn, E.Rd, A_y * SnSd, -2.0 * G_y * SnSd - A_y * Sn * Sn, A_y * Sd * Sd, hY
    )
    return rn, rd, sn, sd


def _predicted_u(W: _Diagonal, E: _Diagonal, hX, hY):
    """u of the predictor: the mean of its two one-sided estimates."""
    return 0.5 * (W.u + hX * W.ux + E.u + hY * E.uy)


def _advance(W: _Diagonal, E: _Diagonal, hX, hY, setup: ProblemSetup) -> _Diagonal:
    """Nodes of the next diagonal from their X-predecessors W and Y-predecessors E."""
    rn, rd, sn, sd = _steps(W, E, hX, hY, W.Rn, W.Rd, E.Sn, E.Sd, W.A, W.G, E.A, E.G)
    t, r = _chord(W, E, W.c, E.c)
    P = _Diagonal(t, r, _predicted_u(W, E, hX, hY), rn, rd, sn, sd).derive(setup)

    rn, rd, sn, sd = _steps(
        W, E, hX, hY,
        0.5 * (W.Rn + P.Rn), 0.5 * (W.Rd + P.Rd), 0.5 * (E.Sn + P.Sn), 0.5 * (E.Sd + P.Sd),
        0.5 * (W.A + P.A), 0.5 * (W.G + P.G), 0.5 * (E.A + P.A), 0.5 * (E.G + P.G),
    )
    t, r = _chord(W, E, 0.5 * (W.c + P.c), 0.5 * (E.c + P.c))
    u = 0.5 * (W.u + E.u + 0.5 * (hX * (W.ux + P.ux) + hY * (E.uy + P.uy)))
    return _Diagonal(t, r, u, rn, rd, sn, sd).derive(setup)


def _failure(setup: ProblemSetup, W: _Diagonal, E: _Diagonal, hX, hY, bad, k: int) -> str:
    """Why the nodes ``bad`` of diagonal k are not finite.  Named when c is NaN
    because an angle lies off the speed table: at a predecessor, or at the
    predictor, whose u the corrector overwrites.  Otherwise, when every field
    of both predecessors is finite, derived ones included, the flow across
    one cell overflowed: the grid is too coarse for the weights there."""
    t_pred = np.maximum(W.t, E.t)
    t = float(np.max(t_pred[bad]))
    with np.errstate(all="ignore"):
        u = np.concatenate([W.u[bad], E.u[bad], _predicted_u(W, E, hX, hY)[bad]])
    if setup.speed.off_table(u):
        return f"angle left the speed table at t={t}"
    if all(np.isfinite(getattr(D, f)[bad]).all() for D in (W, E) for f in D.__slots__):
        i = np.flatnonzero(bad)[int(np.argmax(t_pred[bad]))]
        r = 0.5 * float(W.r[i] + E.r[i])
        return (
            "characteristic grid under-resolved: the flow across one cell "
            f"overflows at t={t}, r={r}"
        )
    return f"non-finite node on diagonal {k} after t={t}"


@dataclass(frozen=True)
class CharLine:
    """Node values along one characteristic line of the (X, Y) grid.

    ``label`` is X along a plus line and Y along a minus line (both grow
    with t).
    """

    family: str
    label: np.ndarray
    t: np.ndarray
    r: np.ndarray
    u: np.ndarray
    Rn: np.ndarray
    Rd: np.ndarray
    Sn: np.ndarray
    Sd: np.ndarray

    def samples(self, t_max: float = math.inf) -> PathSamples:
        """The (t, r, u, R, S) record the path monitors read, for t < t_max."""
        keep = self.t < t_max
        with np.errstate(divide="ignore", invalid="ignore"):
            R = self.Rn[keep] / self.Rd[keep]
            S = self.Sn[keep] / self.Sd[keep]
        return PathSamples(
            family=self.family, t=self.t[keep], r=self.r[keep], u=self.u[keep], R=R, S=S
        )

    def energy_flux(self) -> float:
        """Trapezoid sum of R^2 dr along a plus line, S^2 |dr| along a minus line.

        In labels these are Rn^2/2 dX and Sn^2/2 dY, bounded through a
        blow-up.
        """
        f = self.Rn if self.family == "plus" else self.Sn
        return 0.5 * float(np.trapezoid(f * f, self.label))


class Line:
    """Observer recording the plus or the minus line from a foot, which must
    be a node; ``line()`` returns the nodes seen so far."""

    def __init__(self, family: str, nodes: CharNodes, r_foot: float):
        if family not in ("plus", "minus"):
            raise ValueError("family must be 'plus' or 'minus'")
        self.family, self.label, self.f = family, nodes.label, nodes.index(r_foot)
        self.rows = []

    def __call__(self, k: int, lo: int, D: _Diagonal) -> None:
        j = self.f if self.family == "plus" else self.f - k
        if lo <= j < lo + D.t.size:  # so j >= 0, as lo >= 0
            lab = self.label[j + k] if self.family == "plus" else -self.label[j]
            self.rows.append((lab, *(getattr(D, name)[j - lo] for name in D.FIELDS)))

    def line(self) -> CharLine:
        arr = np.array(self.rows, dtype=float).reshape(-1, 8)
        return CharLine(self.family, *arr.T)


@dataclass(frozen=True)
class CharRun:
    """Outcome of a sweep; the detection fields mirror ``solver.RunResult``.

    ``peak_gradient`` is the largest |S|/r^alpha over the nodes swept up to
    the stop time (inf once z has passed pi), ``initial_gradient`` its value
    over the feet at t = 0.
    """

    nodes: CharNodes
    diagonals: int
    reason: str  # "gradient_ceiling" | "t_final" | "apex"
    detected: bool
    t_detect: float | None
    r_detect: float | None
    gradient_ceiling: float
    initial_gradient: float
    peak_gradient: float


def _initial_diagonal(setup: ProblemSetup, nodes: CharNodes) -> _Diagonal:
    """Nodes (i, i) at t = 0."""
    x = nodes.x
    u, R, S = initial_riemann(setup, x)
    inv = 1.0 / np.sqrt(nodes.rho)
    return _Diagonal(
        np.zeros_like(x), x.copy(), u, R * inv, inv.copy(), S * inv, inv.copy()
    ).derive(setup)


def gradient(Sn, Sd, ralpha):
    """|S|/r^alpha from the half-density pair; inf where z has reached +-pi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(Sd > 0.0, np.abs(Sn) / (ralpha * Sd), np.inf)


def march(
    setup: ProblemSetup,
    nodes: CharNodes,
    observers=(),
    t_end: float = math.inf,
    stop_at_detection: bool = True,
) -> CharRun:
    """Sweep the determinacy domain of the feet diagonal by diagonal.

    The observers see each diagonal (module docstring).  Nodes at or beyond
    the stop time (t_end, and the detection time when
    ``stop_at_detection``) that do not detect are dropped from the ends of
    each diagonal, so both settings report the same detection.  The
    sweep ends with reason "gradient_ceiling" when it stopped at a
    detection, "apex" when it reached the apex of the domain and "t_final"
    when every node left lies beyond t_end.  A node at or before t_end
    detects when |S|/r^alpha reaches the ceiling, 1e4 times the initial
    maximum over the feet.  Raises NonFiniteState if a node whose
    predecessors lie before the stop time is not finite.
    """
    n, label = nodes.n, nodes.label

    D = _initial_diagonal(setup, nodes)
    g0 = float(np.max(gradient(D.Sn, D.Sd, D.ralpha)))
    gradient_ceiling = default_ceiling(g0)
    peak = g0

    t_stop = t_end
    t_detect = r_detect = None
    lo = 0  # foot index j of the first active node
    k = 0
    for obs in observers:
        obs(0, 0, D)
    while k < n - 1 and D.t.size > 1:
        m = D.t.size
        j = np.arange(lo, lo + m - 1)
        W, E = D.take(slice(0, m - 1)), D.take(slice(1, m))
        hX, hY = label[j + k + 1] - label[j + k], label[j + 1] - label[j]
        with np.errstate(over="ignore", invalid="ignore"):
            D = _advance(W, E, hX, hY, setup)
        k += 1
        ok = D.finite()
        if not ok.all():
            before = ~ok & (np.maximum(W.t, E.t) < t_stop)
            if before.any():
                raise NonFiniteState(_failure(setup, W, E, hX, hY, before, k))
        t_node = np.where(ok, D.t, math.inf)
        g = np.where(ok, gradient(D.Sn, D.Sd, D.ralpha), 0.0)
        hit = (g >= gradient_ceiling) & (t_node <= t_end)
        if hit.any():
            i = int(np.argmin(np.where(hit, t_node, math.inf)))
            if t_detect is None or t_node[i] < t_detect:
                t_detect, r_detect = float(D.t[i]), float(D.r[i])
                if stop_at_detection:
                    t_stop = min(t_stop, t_detect)
        upto = t_node <= t_stop
        if upto.any():
            peak = max(peak, float(np.max(g[upto])))
        for obs in observers:
            obs(k, lo, D)
        live = np.nonzero((t_node < t_stop) | hit)[0]
        if live.size < D.t.size:
            a, b = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
            D = D.take(slice(a, b))
            lo += a

    if t_detect is not None and stop_at_detection:
        reason = "gradient_ceiling"
    else:
        reason = "apex" if k == n - 1 else "t_final"
    return CharRun(
        nodes=nodes,
        diagonals=k,
        reason=reason,
        detected=t_detect is not None,
        t_detect=t_detect,
        r_detect=r_detect,
        gradient_ceiling=gradient_ceiling,
        initial_gradient=g0,
        peak_gradient=peak,
    )


def blowup_sweep(setup: ProblemSetup, n: int) -> tuple[CharRun, PathSamples]:
    """Detection sweep to t_final and the hat line (the plus line from r0)
    sampled before the detection time: the N feet span the setup domain, so
    the sweep covers its determinacy domain up to t_final unless a detection
    stops it earlier.
    """
    nodes = place_nodes(setup, n, *setup.domain, anchors=(setup.r0,))
    hat = Line("plus", nodes, setup.r0)
    run = march(setup, nodes, (hat,), t_end=setup.t_final)
    return run, hat.line().samples(run.t_detect if run.detected else math.inf)
