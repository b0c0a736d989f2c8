"""Quantitative checks of the blow-up mechanism on the discrete solution.

This module owns the derived constants of the construction and the four
run diagnostics built on them:

  * energy conservation — E(t) = integral of R^2 + S^2 dr is constant for
    compactly supported solutions, with zero boundary flux c(S^2 - R^2);
  * the characteristic-triangle identity — the path integrals of R^2 and
    S^2 along the two bounding characteristics equal half the initial
    energy between the feet;
  * the 1/S decay along the plus path from (0, r0) — the reciprocal of the
    steepening gradient decreases at a guaranteed rate, and its linear
    extrapolation to zero estimates the blow-up time;
  * the blow-up verdict combining detection with the derived time bounds.

Blow-up detection itself is threshold-crossing on max |S|/r^alpha plus the
1/S extrapolation: discrete solutions never reach infinity, so the
extrapolated zero of 1/S is the standard numerical proxy for the blow-up
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import HypothesisViolated, NoIntersection, NonFiniteState
from .initial_data import PolynomialBump, ProblemSetup, checked_float, initial_riemann
from .solver import Grid, GridState, RunResult, SchemeConfig, run

# the path tracer and the characteristic solver are imported by the two
# triangle identities that use them, so that the commands that never call
# either do not load them
if TYPE_CHECKING:
    from .characteristics import DriftReport, PathSamples, SignReport
    from .charsolver import CharRun

INEQUALITY_PASS_FRACTION = 0.95


@dataclass(frozen=True)
class TheoremConstants:
    """Constants of the blow-up construction for one problem setup.

    K_measured is E(0)/(r0^{2 alpha} eps), with E(0) from composite 16-point
    Gauss-Legendre quadrature of the initial data converged to 1e-13
    relative; K_envelope is the closed-form majorant
    [eps^2 + (2 c1 + eps)^2] (r0+eps)^{2 alpha} / r0^{2 alpha} * I(phi'^2),
    which uses (r0+eps)^{2 alpha} rather than r0^{2 alpha} so the energy
    inequality E(0) <= K_envelope r0^{2 alpha} eps holds with no tolerance
    (the integrand lives on [r0-eps, r0+eps], where r can exceed r0).
    M, eps0 and the time bound are evaluated from the envelope K.
    """

    K_measured: float
    K_envelope: float
    M: float
    eps0: float
    S0_lower: float
    t_star_bound: float
    c_prime_u0: float
    phi_prime_sq_integral: float
    E0_exact: float
    u_drift_bound: float
    inv_s_decay_rate: float  # guaranteed slope of 1/S along the hat path


# 16-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(f) -> float:
    """Integral of the vectorised f over [-1, 1] by composite Gauss-Legendre.

    The 16-point rule runs on 2, 4, ..., 2**12 equal panels, doubling until
    two successive estimates agree to 1e-13 relative; if none do, the finest
    estimate is returned.  A zero integrand gives exactly 0.0.
    """
    prev = math.nan
    for k in range(1, 13):
        half = 1.0 / 2**k  # half the panel width
        mid = np.linspace(-1.0 + half, 1.0 - half, 2**k)
        vals = f((mid[:, None] + half * _GL_NODES).ravel())
        est = half * float(np.sum(vals.reshape(2**k, -1) @ _GL_WEIGHTS))
        if abs(est - prev) <= 1e-13 * abs(est):
            break
        prev = est
    return est


def _phi_prime_sq_integral(profile) -> float:
    if isinstance(profile, PolynomialBump):
        return profile.phi_prime_sq_integral()
    return _gauss_legendre(lambda z: profile.phi_prime(z) ** 2)


def initial_energy_exact(setup: ProblemSetup) -> float:
    """E(0) by composite Gauss-Legendre quadrature of the analytic initial data."""
    r0, eps, alpha = setup.r0, setup.eps, setup.alpha
    speed, profile = setup.speed, setup.profile
    eps_sq = np.float64(eps) ** 2  # inf past the largest float, where a Python ** raises

    def integrand(z: np.ndarray) -> np.ndarray:
        u = setup.u0 + eps * profile.phi(z)
        dp = profile.phi_prime(z)
        # w * w, not w**2, which sends the float w of a constant speed through libm's pow
        w = -2.0 * speed.c(u) + eps
        rr = r0 + eps * z
        return (eps_sq + w * w) * rr ** (2.0 * alpha) * dp**2

    return eps * _gauss_legendre(integrand)


def compute_constants(setup: ProblemSetup, require_hypothesis: bool = True) -> TheoremConstants:
    """Evaluate every derived constant; raises HypothesisViolated if c'(u0) <= 0.

    The smallness threshold eps0 needs the non-constructive angle margin
    from the C^2 continuity argument; it is replaced by the proxy r0/2 so
    the formula stays well defined, and the runtime sign monitor
    (c_prime_sign_along) supplies the actual check.

    With require_hypothesis=False a non-steepening speed is tolerated
    (negative-control runs): the energy constants are still exact while
    the c'(u0)-scaled quantities degrade (eps0 = 0, S0_lower = inf,
    zero guaranteed decay rate).  Every field follows the rule of
    ``checked_float``, S0_lower excepted where c'(u0) = 0, and so do E(0) and
    the divisor r0^{2 alpha} eps of K_measured.
    """
    speed = setup.speed
    alpha, u0 = setup.alpha, setup.u0
    r0, eps, c0, c1 = (np.float64(x) for x in (setup.r0, setup.eps, speed.c0, speed.c1))
    cp0 = float(speed.c_prime(u0))
    if cp0 <= 0.0 and require_hypothesis:
        raise HypothesisViolated(f"c'(u0) = {cp0} <= 0 at u0 = {u0}")
    cp0 = max(cp0, 0.0)  # NaN stays NaN

    with np.errstate(all="ignore"):
        iphi = _phi_prime_sq_integral(setup.profile)
        r0_2alpha = r0 ** (2.0 * alpha)
        two_r0_alpha = (2.0 * r0) ** alpha
        c1_sq = c1**2
        # (r0 + eps)^{2 alpha} >= r0^{2 alpha}: where the divisor overflows, so does the factor
        k_env = (eps**2 + (2.0 * c1 + eps) ** 2) * (r0 + eps) ** (2.0 * alpha) / r0_2alpha * iphi
        e0 = _finite_energy(
            lambda: initial_energy_exact(setup), "by quadrature of the initial data"
        )
        k_meas = e0 / (r0_2alpha * eps)

        ralpha0 = r0**alpha
        m = k_env * c1 * ralpha0 * np.sqrt(r0) / (4.0 * c0**2)
        m += alpha * np.sqrt(k_env * c1) * ralpha0 / np.sqrt(r0 * c0)

        candidates = [np.sqrt(r0 / 2.0), np.sqrt(c0)]
        if m > 0.0:  # the M-scaled terms drop out (are +inf) for zero-energy data
            # 0 where c'(u0) = 0, whatever the divisor
            candidates.append(r0 * cp0 / (64.0 * m * c1_sq * two_r0_alpha) if cp0 > 0.0 else 0.0)
            candidates.append(1.0 / (2.0 * m))
        sqrt_eps0 = np.min(candidates)
        s0_lower = math.inf
        if cp0 > 0.0:
            s0_lower = np.maximum(32.0 * c1_sq * two_r0_alpha / ((r0 - eps) * cp0), 2.0)
        t_star_bound = (r0 - eps) / (2.0 * c1) + r0 / (4.0 * c1)
        drift = np.sqrt(k_env * (r0 - eps) / (c0 * c1)) * np.sqrt(eps)
        decay = cp0 / (16.0 * c1 * two_r0_alpha)

    values = (k_meas, k_env, m, sqrt_eps0**2, s0_lower, t_star_bound, cp0, iphi, e0, drift, decay)
    constants = TheoremConstants(*(
        v if f.name == "S0_lower" and cp0 == 0.0 else checked_float(f"the constant {f.name}", v)
        for f, v in zip(fields(TheoremConstants), values)
    ))
    # where it overflows, K_measured reads 0.0; checked after the fields, which
    # name its overflow first where r0^{2 alpha} overflows (K_envelope)
    checked_float("the divisor r0**(2 alpha) * eps of K_measured", r0_2alpha * eps)
    return constants


def blowup_time_estimate(setup: ProblemSetup) -> float:
    """Riccati estimate 1/(lambda S(0,r0)) of the blow-up time.

    Heuristic only (assumes R stays negligible and the path stays near r0);
    used to pick pre-blow-up comparison windows for convergence studies.
    inf where c'(u0) <= 0, S(0,r0) <= 0 or the rate lambda S(0,r0)
    underflows to 0.0: then no finite time is predicted; 0.0 where the rate
    overflows.  S(0,r0) follows the rule of ``checked_float``.  The rate is
    formed as (c'(u0)/(4 c(u0))) (S(0,r0)/r0^alpha), so r0^alpha is divided
    out of S before it can overflow the divisor 4 c(u0) r0^alpha; where
    r0^alpha is 1.0 these are the bits of c'(u0)/(4 c(u0) r0^alpha) S(0,r0).
    """
    c_at_u0 = float(setup.speed.c(setup.u0))
    cp0 = float(setup.speed.c_prime(setup.u0))
    if cp0 <= 0.0:
        return math.inf
    with np.errstate(all="ignore"):
        ralpha0 = np.float64(setup.r0) ** setup.alpha
        s0 = (2.0 * c_at_u0 - setup.eps) * ralpha0 * setup.profile.amplitude
        if s0 <= 0.0:
            return math.inf
        s0 = checked_float("the initial S(0, r0)", s0)
        return float(1.0 / (cp0 / (4.0 * c_at_u0) * (s0 / ralpha0)))


def _node_weights(r: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the nodes r: (dr[i-1] + dr[i])/2 inside and dr/2
    at the two ends, with dr = np.diff(r)."""
    dr = np.diff(r)
    w = np.empty(r.size)
    w[1:-1] = (dr[:-1] + dr[1:]) / 2.0
    w[0], w[-1] = dr[0] / 2.0, dr[-1] / 2.0
    return w


def _energy(weights: np.ndarray, squares: np.ndarray, state: GridState) -> float:
    """E of the state as the node-weighted sum of R**2 + S**2 over its live
    range [a, b); weights are the grid's _node_weights and squares a (2, n)
    buffer for R**2 and S**2 (see EnergyObserver).

    The sum is numpy's pairwise np.add.reduce, not a BLAS dot: OpenBLAS
    splits a dot of more than 10,000 elements across threads, so its bits
    would follow the CPU count.
    """
    a, b = state.live
    RS = state.window(a, b)[1:]
    sq = np.multiply(RS, RS, out=squares[:, : b - a])
    y = sq[0]
    y += sq[1]
    y *= weights[a:b]
    return float(np.add.reduce(y))


def _finite_energy(energy, what: str) -> float:
    """energy() without numpy's overflow warning; HypothesisViolated naming
    it as the initial energy <what> where it overflows a float.

    No term of an energy sum is negative, so the sum is inf exactly when a
    density R**2 + S**2, or a partial sum, overflows; it is NaN where a
    factor of a density overflows and another underflows to 0.0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy()
    if not math.isfinite(e):
        raise HypothesisViolated(f"the initial energy {what} overflows a float")
    return e


def check_initial_energy(energy: EnergyObserver, state: GridState) -> None:
    """HypothesisViolated when the energy of the initial state, summed with
    the weights of its grid's observer energy but not recorded, overflows.

    simulate, eps-sweep and convergence call it on each grid before the
    first step, and simulate and eps-sweep before the theorem constants,
    which square the same data; data whose energy cannot be measured is
    invalid input, not a fault of the run.
    """
    _finite_energy(
        lambda: _energy(energy.weights, np.empty((2, state.live[1] - state.live[0])), state),
        f"on {energy.grid.n} nodes, the sum of (R**2 + S**2) dr,",
    )


class EnergyObserver:
    """Accumulates (t, E) samples, E the trapezoid rule summed node by node.

    E is the sum over the state's live range [a, b) of w_i (R_i**2 + S_i**2),
    with the grid's node weights w (``_node_weights``), and 0.0 when no node is
    live.  Every node outside [a, b) holds R = S = +0.0, so in exact
    arithmetic E is np.trapezoid(R**2 + S**2, r) over the whole grid; in
    floats the two differ in the last bits only.  R**2 and S**2 are squared
    by one multiply into squares, a (2, n) buffer made at the first call, on
    the thread that marches, and overwritten at every call.  A finite state
    whose E overflows raises NonFiniteState naming its t; ``run`` and the
    convergence grids march under ``np.errstate(over="ignore")``, so numpy
    does not warn first.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.weights = _node_weights(grid.r)
        self.squares = None
        self.t: list[float] = []
        self.E: list[float] = []

    def __call__(self, state: GridState):
        if self.squares is None:
            self.squares = np.empty((2, self.grid.n))
        e = _energy(self.weights, self.squares, state)
        if e == math.inf:
            raise NonFiniteState(f"the energy overflows a float at t={state.t}", last_state=state)
        self.t.append(state.t)
        self.E.append(e)

    @property
    def max_relative_drift(self) -> float:
        if not self.E or self.E[0] == 0.0:
            return 0.0
        E = np.asarray(self.E)
        return float(np.max(np.abs(E - E[0])) / E[0])


@dataclass(frozen=True)
class TriangleReport:
    """Two sides of the characteristic-triangle energy identity."""

    lhs: float
    rhs: float
    residual: float
    t_m: float
    r_m: float
    r1: float
    r2: float


def _check_feet(setup: ProblemSetup, r1: float, r2: float):
    r_lo, r_hi = setup.domain
    if not (r_lo <= r1 < r2 <= r_hi):
        raise HypothesisViolated(
            f"need r_lo <= r1 < r2 <= r_hi on the domain [{r_lo}, {r_hi}], got r1={r1}, r2={r2}"
        )
    gap_limit = 2.0 * setup.speed.c0 * (setup.r0 - setup.eps) / setup.speed.c1
    if not (r2 - r1 < gap_limit):
        raise HypothesisViolated(
            f"r2 - r1 = {r2 - r1} must be below 2 c0 (r0 - eps)/c1 = {gap_limit}"
        )


def triangle_identity(
    setup: ProblemSetup,
    grid: Grid,
    cfg: SchemeConfig,
    r1: float,
    r2: float,
) -> tuple[TriangleReport, PathSamples, PathSamples]:
    """Run until the bounding characteristics cross; compare the two sides.

    LHS = int_{r1}^{r_m} R^2(t_+(r), r) dr + int_{r_m}^{r2} S^2(t_-(r), r) dr
    by trapezoid in the path parameter; RHS = half the initial energy on
    [r1, r2].  Requires r_lo <= r1 < r2 <= r_hi and r2 - r1 < 2 c0 (r0 - eps)/c1
    (so the crossing comes before t_final), else HypothesisViolated.  Returns
    the report and the samples of both paths.  Raises NoIntersection when the
    run ends any other way (t_final, gradient ceiling, or step budget) first.
    """
    from .characteristics import CharacteristicPath, find_intersection, truncate_at

    _check_feet(setup, r1, r2)
    plus = CharacteristicPath("plus", r1, grid, setup.speed)
    minus = CharacteristicPath("minus", r2, grid, setup.speed)
    result = run(
        setup, grid, cfg, observers=(plus, minus),
        stop=lambda state: plus.r[-1] >= minus.r[-1],
    )
    if result.reason != "stop":
        raise NoIntersection(
            f"paths {r1} and {r2} did not cross: run ended by "
            f"{result.reason} at t={result.state.t}"
        )
    plus, minus = plus.samples(), minus.samples()
    t_m, r_m = find_intersection(plus, minus)
    pa = truncate_at(plus, t_m)
    ma = truncate_at(minus, t_m)
    lhs_plus = float(np.trapezoid(pa.R**2, pa.r))
    # minus path r decreases from r2; negate to integrate in increasing r
    lhs_minus = -float(np.trapezoid(ma.S**2, ma.r))
    lhs = lhs_plus + lhs_minus

    inside = grid.r[(grid.r > r1) & (grid.r < r2)]
    rq = np.concatenate(([r1], inside, [r2]))
    _, R0, S0 = initial_riemann(setup, rq)
    rhs = 0.5 * float(np.trapezoid(R0**2 + S0**2, rq))

    residual = abs(lhs - rhs) / max(rhs, 1e-30)
    report = TriangleReport(
        lhs=lhs, rhs=rhs, residual=residual, t_m=t_m, r_m=r_m, r1=r1, r2=r2
    )
    return report, plus, minus


def characteristic_triangle_identity(
    setup: ProblemSetup, n: int, r1: float, r2: float
) -> tuple[TriangleReport, PathSamples, PathSamples]:
    """The triangle identity computed by the characteristic-coordinate solver.

    The N feet span [r1, r2], so the plus line from r1 and the minus line
    from r2 meet at the apex node (t_m, r_m) and the sweep covers exactly
    the triangle.  LHS is the sum of the two lines' energy fluxes, RHS half
    the initial energy of the feet, both by the trapezoid rule in the
    labels.  The sweep continues through any blow-up inside the triangle:
    the solution is the conservative one.  Same preconditions as
    ``triangle_identity``, and the same return value.
    """
    from .charsolver import march, place_nodes

    _check_feet(setup, r1, r2)
    nodes = place_nodes(setup, n, r1, r2)
    run_ = march(setup, nodes, lines=[("plus", r1), ("minus", r2)], stop_at_detection=False)
    plus, minus = run_.line("plus", r1), run_.line("minus", r2)
    lhs = plus.energy_flux() + minus.energy_flux()
    _, R0, S0 = initial_riemann(setup, nodes.x)
    rhs = 0.5 * float(np.trapezoid((R0 * R0 + S0 * S0) / nodes.rho, nodes.label))
    residual = abs(lhs - rhs) / max(rhs, 1e-30)
    report = TriangleReport(
        lhs=lhs, rhs=rhs, residual=residual, t_m=float(plus.t[-1]),
        r_m=float(plus.r[-1]), r1=r1, r2=r2,
    )
    return report, plus.samples(), minus.samples()


def _inv_s_record(path: PathSamples, setup: ProblemSetup, constants: TheoremConstants):
    """1/S along a finished plus path and the discrete decay inequality.

    1/S is kept where the sampled S is not <= 0 (a NaN is kept); a
    non-positive sample is skipped and breaks the chain of pairs.  For each
    pair of consecutive kept samples the one-sided difference of 1/S is
    checked against

        d(1/S)/dt <= -c'(u0)/(16 c1 (2 r0)^alpha)
                     + (1/S^2) (c1 R^2/(4 c0 r0^alpha) + alpha c1 |R|/r0).

    A pair with an infinite 1/S (a subnormal S), or whose later 1/S squares
    to inf, is checked and never a violation: its left side is +-inf or NaN
    (inf - inf) and its right side +inf, or NaN where R = 0 (inf * 0), and
    neither NaN nor +inf makes lhs > rhs true.

    Returns the kept times, their 1/S, the number of checked pairs and the
    number that violate the inequality.
    """
    sp = setup.speed
    t, R, S = path.t, path.R, path.S
    kept = ~(S <= 0.0)
    t = t[kept]
    Rk = R[kept][1:]
    # 1/S of a subnormal S overflows, as does its square: see above
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_s = 1.0 / S[kept]
        y = inv_s[1:]
        lhs = np.diff(inv_s) / np.diff(t)
        rhs = -constants.inv_s_decay_rate + y * y * (
            sp.c1 / (4.0 * sp.c0 * setup.r0**setup.alpha) * Rk * Rk
            + setup.alpha * sp.c1 / setup.r0 * np.abs(Rk)
        )
    paired = np.diff(np.flatnonzero(kept)) == 1
    return t, inv_s, int(np.count_nonzero(paired)), int(np.count_nonzero(paired & (lhs > rhs)))


def _zero_crossing(t: np.ndarray, inv_s: np.ndarray) -> float | None:
    """Zero of the least-squares line through the last quarter of 1/S."""
    n = t.size
    if n < 2:
        return None
    k = max(2, n // 4)
    slope, intercept = np.polyfit(t[n - k:], inv_s[n - k:], 1)
    if slope >= 0.0:
        return None
    return float(-intercept / slope)


@dataclass(frozen=True)
class BlowupReport:
    """Detection outcome, the 1/S record along the hat path and the verdict.

    ``verdict`` is PASS, FAIL, FAIL-AS-EXPECTED or INCONCLUSIVE; see
    ``build_blowup_report``.
    """

    detected: bool
    t_detect: float | None
    r_detect: float | None
    inv_S_trace: np.ndarray  # shape (n, 2): columns t, 1/S
    t_star_extrapolated: float | None
    reason: str
    s_gt1_after_first: bool
    inequality_checks: int
    inequality_violations: int
    inequality_fraction: float
    initial_inv_s_ok: bool
    verdict: str
    t_star_within_paper_bound: bool


def build_blowup_report(
    result: RunResult | CharRun, path: PathSamples,
    constants: TheoremConstants, setup: ProblemSetup
) -> BlowupReport:
    """The blow-up record of a finished run, its hat path and the verdict.

    ``path`` holds the samples of the finished plus path from (0, r0),
    from either solver.  The 1/S record and its decay inequality are read from
    it in one pass; the blow-up time estimate is the zero crossing of a
    least-squares line through the last quarter of the 1/S trace.

    PASS iff detection happened before t_final.  The sharper extrapolated-
    time bound is reported as a separate flag: the derived constants are
    sufficient, not necessary, so missing the sharper bound does not
    overturn an observed blow-up.  Runs stopped by the step budget are
    INCONCLUSIVE; runs reaching t_final without detection are
    FAIL-AS-EXPECTED when the steepening hypothesis c'(u0) > 0 is absent,
    plain FAIL otherwise.
    """
    S = path.S
    t, inv_s, checks, violations = _inv_s_record(path, setup, constants)
    if result.detected and result.t_detect is not None and result.t_detect < setup.t_final:
        verdict = "PASS"
    elif result.reason == "max_steps":
        verdict = "INCONCLUSIVE"
    elif constants.c_prime_u0 <= 0.0:
        verdict = "FAIL-AS-EXPECTED"
    else:
        verdict = "FAIL"
    t_star = _zero_crossing(t, inv_s)
    return BlowupReport(
        detected=result.detected,
        t_detect=result.t_detect,
        r_detect=result.r_detect,
        inv_S_trace=np.column_stack([t, inv_s]),
        t_star_extrapolated=t_star,
        reason=result.reason,
        s_gt1_after_first=S.size <= 1 or bool(np.min(S[1:]) > 1.0),
        inequality_checks=checks,
        inequality_violations=violations,
        inequality_fraction=1.0 - violations / checks if checks else 1.0,
        initial_inv_s_ok=S.size > 0 and bool(S[0] > constants.S0_lower),
        verdict=verdict,
        t_star_within_paper_bound=t_star is not None and t_star < constants.t_star_bound,
    )


def build_report(
    constants: TheoremConstants,
    energy_drift: float,
    blowup: BlowupReport,
    drift: DriftReport,
    sign: SignReport,
) -> dict:
    """The JSON-ready diagnostics document; energy_drift as EnergyObserver.max_relative_drift."""
    return {
        "constants": {
            "K_measured": constants.K_measured,
            "K_envelope": constants.K_envelope,
            "M": constants.M,
            "eps0": constants.eps0,
            "S0_lower": constants.S0_lower,
            "t_star_bound": constants.t_star_bound,
        },
        "energy_max_relative_drift": energy_drift,
        "blowup": {
            "detected": blowup.detected,
            "t_detect": blowup.t_detect,
            "r_detect": blowup.r_detect,
            "t_star_extrapolated": blowup.t_star_extrapolated,
            "reason": blowup.reason,
            "s_gt1_after_first": blowup.s_gt1_after_first,
            "inequality_fraction": blowup.inequality_fraction,
            "verdict": blowup.verdict,
            "flags": {
                "u_drift_ok": drift.ok,
                "c_prime_sign_ok": sign.ok,
                "inv_S_inequality_ok": blowup.inequality_fraction
                >= INEQUALITY_PASS_FRACTION,
                "t_star_within_paper_bound": blowup.t_star_within_paper_bound,
            },
        },
        "u_drift": {
            "max": drift.max_drift,
            "bound": drift.bound,
            "ok": drift.ok,
        },
        "c_prime_sign": {
            "min": sign.min_c_prime,
            "threshold": sign.threshold,
            "ok": sign.ok,
        },
    }
