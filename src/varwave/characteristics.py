"""Characteristic paths traced through the evolving discrete field.

A plus path obeys dr/dt = +c(u(t,r)), a minus path dr/dt = -c(u(t,r)).
Paths advance lock-step with the solver as observers (never from stored
snapshots): each step is integrated with a two-stage midpoint rule, with u
interpolated bilinearly in (t, r) between the bracketing states.  Samples
of (u, R, S) are taken at every solver time level.

Interpolation in r is ``np.interp``'s own formula, slope * (r - r_j) + y_j
with slope = (y_j+1 - y_j) / (r_j+1 - r_j), evaluated in Python floats on
the bracket j that ``bisect`` finds once per radius; every field sampled at
that radius shares it.  Its rules are kept bit for bit: a radius on a node
or at or past the last node gives y_j, one left of the grid gives y_0, a
NaN radius gives itself, and a NaN result is retried from the right node,
then replaced by y_j when y_j = y_j+1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoIntersection, PathLeftDomain
from .initial_data import ProblemSetup
from .solver import Grid, GridState
from .speed_models import WaveSpeedModel

if TYPE_CHECKING:
    from .diagnostics import TheoremConstants

_FAMILY_SIGN = {"plus": 1.0, "minus": -1.0}


class CharacteristicPath:
    """Sampled curve (t, r(t)) with u, R, S along it; also a run observer.

    The first observer call records the start sample; each later call
    advances the curve across one solver step.  The slope stays in
    [c0, c1] in magnitude, so plus paths are strictly increasing in r and
    minus paths strictly decreasing.
    """

    def __init__(self, family: str, r_start: float, grid: Grid, speed: WaveSpeedModel):
        if family not in _FAMILY_SIGN:
            raise ValueError("family must be 'plus' or 'minus'")
        if not (grid.r_lo <= r_start <= grid.r_hi):
            raise PathLeftDomain(f"start radius {r_start} outside the grid")
        self.family = family
        self.sign = _FAMILY_SIGN[family]
        self.r_start = float(r_start)
        self.grid = grid
        self.speed = speed
        self.t: list[float] = []
        self.r: list[float] = []
        self.u: list[float] = []
        self.R: list[float] = []
        self.S: list[float] = []
        self._sampled: GridState | None = None  # the state of the last sample
        self._nodes: list[float] = grid.r.tolist()

    def _sample(self, r: float, *fields: np.ndarray) -> list[float]:
        """float(np.interp(r, grid.r, y)) for each y, on one bracket (module docstring)."""
        if r != r:
            return [r] * len(fields)
        nodes = self._nodes
        j = bisect_right(nodes, r) - 1
        if j < 0:
            return [y.item(0) for y in fields]
        if j == len(nodes) - 1 or nodes[j] == r:
            return [y.item(j) for y in fields]
        width, off_left, off_right = nodes[j + 1] - nodes[j], r - nodes[j], r - nodes[j + 1]
        out = []
        for y in fields:
            y0, y1 = y.item(j), y.item(j + 1)
            slope = (y1 - y0) / width
            v = slope * off_left + y0
            if v != v:
                v = slope * off_right + y1
                if v != v and y0 == y1:
                    v = y0
            out.append(v)
        return out

    def _append(self, t: float, r: float, state: GridState):
        u, R, S = self._sample(r, state.u, state.R, state.S)
        self.t.append(t)
        self.r.append(r)
        self.u.append(u)
        self.R.append(R)
        self.S.append(S)
        self._sampled = state

    def _check_domain(self, r: float) -> float:
        r_lo, r_hi = self._nodes[0], self._nodes[-1]
        if r < r_lo or r > r_hi:
            raise PathLeftDomain(
                f"{self.family} path from r={self.r_start} exited [{r_lo}, {r_hi}] at r={r}"
            )
        return r

    def __call__(self, state: GridState):
        if self._sampled is None:
            self._append(state.t, self.r_start, state)
        else:
            self.advance(self._sampled, state)

    def advance(self, state_before: GridState, state_after: GridState):
        """Integrate dr/dt = +-c across one solver step (midpoint rule)."""
        dt = state_after.t - state_before.t
        if dt <= 0:
            raise ValueError("states must bracket one forward step")
        r_n = self.r[-1]
        if state_before is self._sampled:  # the last sample is u at r_n in that state
            u_a = self.u[-1]
        else:
            (u_a,) = self._sample(r_n, state_before.u)
        k1 = self.sign * float(self.speed.c(u_a))
        r_half = self._check_domain(r_n + 0.5 * dt * k1)
        u_before, u_after = self._sample(r_half, state_before.u, state_after.u)
        u_half = 0.5 * (u_before + u_after)
        k2 = self.sign * float(self.speed.c(u_half))
        r_new = self._check_domain(r_n + dt * k2)
        self._append(state_after.t, r_new, state_after)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "t": np.asarray(self.t),
            "r": np.asarray(self.r),
            "u": np.asarray(self.u),
            "R": np.asarray(self.R),
            "S": np.asarray(self.S),
        }


@dataclass(frozen=True)
class PathSamples:
    """(t, r, u, R, S) samples along a characteristic, as arrays.

    The characteristic-coordinate solver records its lines in this form;
    the path monitors read ``t``, ``u``, ``R`` and ``S`` from it or from a
    ``CharacteristicPath`` alike.
    """

    family: str
    t: np.ndarray
    r: np.ndarray
    u: np.ndarray
    R: np.ndarray
    S: np.ndarray


def find_intersection(
    plus: CharacteristicPath, minus: CharacteristicPath
) -> tuple[float, float]:
    """First crossing (t_m, r_m) of a plus path started left of a minus path.

    Sample times must coincide (paths advanced by the same run).  The
    crossing is transversal (closing speed >= 2 c0), so linear
    interpolation of r_plus - r_minus between the bracketing samples is
    used.  Raises NoIntersection if the paths never cross.
    """
    n = min(len(plus.t), len(minus.t))
    if n < 2:
        raise NoIntersection("paths too short to intersect")
    tp = np.asarray(plus.t[:n])
    tm = np.asarray(minus.t[:n])
    if not np.allclose(tp, tm, rtol=1e-12, atol=1e-14):
        raise ValueError("paths do not share the solver time grid")
    d = np.asarray(plus.r[:n]) - np.asarray(minus.r[:n])
    if d[0] >= 0:
        raise ValueError("plus path must start left of the minus path")
    hits = np.nonzero(d >= 0.0)[0]
    if hits.size == 0:
        raise NoIntersection(
            "paths did not cross before the run ended "
            f"(final gap {float(-d[-1])})"
        )
    k = int(hits[0])
    theta = d[k - 1] / (d[k - 1] - d[k])
    t_m = float(tp[k - 1] + theta * (tp[k] - tp[k - 1]))
    r_m = float(plus.r[k - 1] + theta * (plus.r[k] - plus.r[k - 1]))
    return t_m, r_m


def truncate_at(path: CharacteristicPath, t_m: float) -> dict[str, np.ndarray]:
    """Path arrays up to t_m, with a linearly interpolated final sample."""
    a = path.arrays()
    t = a["t"]
    keep = t < t_m
    k = int(np.count_nonzero(keep))
    if k == 0 or k >= t.size:
        return {key: v[keep] if k else v[:0] for key, v in a.items()}
    theta = (t_m - t[k - 1]) / (t[k] - t[k - 1])
    out = {}
    for key, v in a.items():
        tail = v[k - 1] + theta * (v[k] - v[k - 1])
        out[key] = np.append(v[:k], tail)
    return out


@dataclass(frozen=True)
class DriftReport:
    """Largest wander of u along a plus path against the a-priori bound."""

    max_drift: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class SignReport:
    """Minimum of c'(u) along a path against the quarter-of-start threshold."""

    min_c_prime: float
    threshold: float
    ok: bool


def u_drift_along(
    path: CharacteristicPath | PathSamples, constants: TheoremConstants
) -> DriftReport:
    """Max |u(t, r(t)) - u(start)| along the path versus sqrt(K (r0-eps)/(c0 c1)) * sqrt(eps).

    ``path`` is a traced path or the samples of a characteristic-coordinate
    line.  ``constants`` are the TheoremConstants of the run's setup; the drift
    bound only needs the energy constant, so they may come from
    compute_constants(setup, require_hypothesis=False).
    """
    u = np.asarray(path.u)
    drift = float(np.max(np.abs(u - u[0]))) if u.size else 0.0
    bound = constants.u_drift_bound
    return DriftReport(max_drift=drift, bound=bound, ok=drift <= bound)


def c_prime_sign_along(
    path: CharacteristicPath | PathSamples, setup: ProblemSetup
) -> SignReport:
    """Min of c'(u) along the path (traced or sampled) versus c'(u0)/4.

    The flag fails outright when c'(u0) <= 0: the monotonicity hypothesis
    is absent, so there is no positive margin to preserve.
    """
    u = np.asarray(path.u)
    cp = np.asarray(setup.speed.c_prime(u))
    min_cp = float(np.min(cp)) if u.size else float(setup.speed.c_prime(setup.u0))
    threshold = float(setup.speed.c_prime(setup.u0)) / 4.0
    ok = threshold > 0.0 and min_cp >= threshold
    return SignReport(min_c_prime=min_cp, threshold=threshold, ok=ok)


def c_prime_margin(setup: ProblemSetup) -> float:
    """Half-width delta of the widest interval [u0 - delta, u0 + delta] on which c' >= c'(u0)/4.

    This is the room the u-drift bound may use before the sign monitor can
    fail.  It is found by sampling c' every 3e-5 rad on [u0 - pi, u0 + pi];
    zero when c'(u0) <= 0, and pi when c' never drops below the threshold
    there.
    """
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
