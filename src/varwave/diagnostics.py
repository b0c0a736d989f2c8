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
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .characteristics import (
    CharacteristicPath,
    DriftReport,
    SignReport,
    find_intersection,
    truncate_at,
)
from .errors import HypothesisViolated, NoIntersection
from .initial_data import PolynomialBump, ProblemSetup, initial_riemann
from .solver import Grid, GridState, RunResult, SchemeConfig, run

INEQUALITY_PASS_FRACTION = 0.95


@dataclass(frozen=True)
class TheoremConstants:
    """Constants of the blow-up construction for one problem setup.

    K_measured is E(0)/(r0^{2 alpha} eps) from exact quadrature of the
    initial data; K_envelope is the closed-form majorant
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


def _phi_prime_sq_integral(profile) -> float:
    if isinstance(profile, PolynomialBump):
        return profile.phi_prime_sq_integral()
    val, _ = quad(lambda z: float(profile.phi_prime(z)) ** 2, -1.0, 1.0, limit=200)
    return val


def initial_energy_exact(setup: ProblemSetup) -> float:
    """E(0) by adaptive quadrature of the analytic initial data."""
    r0, eps, alpha = setup.r0, setup.eps, setup.alpha
    speed, profile = setup.speed, setup.profile

    def integrand(z: float) -> float:
        u = setup.u0 + eps * float(profile.phi(z))
        dp = float(profile.phi_prime(z))
        c = float(speed.c(u))
        rr = r0 + eps * z
        return (eps**2 + (-2.0 * c + eps) ** 2) * rr ** (2.0 * alpha) * dp**2

    val, _ = quad(integrand, -1.0, 1.0, limit=200)
    return eps * val


def compute_constants(setup: ProblemSetup, require_hypothesis: bool = True) -> TheoremConstants:
    """Evaluate every derived constant; raises HypothesisViolated if c'(u0) <= 0.

    The smallness threshold eps0 needs the non-constructive angle margin
    from the C^2 continuity argument; it is replaced by the proxy r0/2 so
    the formula stays well defined, and the runtime sign monitor
    (c_prime_sign_along) supplies the actual check.

    With require_hypothesis=False a non-steepening speed is tolerated
    (negative-control runs): the energy constants are still exact while
    the c'(u0)-scaled quantities degrade (eps0 = 0, S0_lower = inf,
    zero guaranteed decay rate).
    """
    speed = setup.speed
    r0, eps, alpha, u0 = setup.r0, setup.eps, setup.alpha, setup.u0
    c0, c1 = speed.c0, speed.c1
    cp0 = float(speed.c_prime(u0))
    if cp0 <= 0.0 and require_hypothesis:
        raise HypothesisViolated(f"c'(u0) = {cp0} <= 0 at u0 = {u0}")
    cp0 = max(cp0, 0.0)
    if not (0.0 < eps < min(c0, r0 / 2.0)):
        raise HypothesisViolated("eps outside (0, min(c0, r0/2))")

    iphi = _phi_prime_sq_integral(setup.profile)
    k_env = (
        (eps**2 + (2.0 * c1 + eps) ** 2)
        * (r0 + eps) ** (2.0 * alpha)
        / r0 ** (2.0 * alpha)
        * iphi
    )
    e0 = initial_energy_exact(setup)
    k_meas = e0 / (r0 ** (2.0 * alpha) * eps)

    ralpha0 = r0**alpha
    m = k_env * c1 * ralpha0 * math.sqrt(r0) / (4.0 * c0**2) + alpha * math.sqrt(
        k_env * c1
    ) * ralpha0 / math.sqrt(r0 * c0)

    eps_prime_proxy = r0 / 2.0
    candidates = [
        math.sqrt(eps_prime_proxy),
        math.sqrt(r0 / 2.0),
        math.sqrt(c0),
    ]
    if m > 0.0:  # the M-scaled terms drop out (are +inf) for zero-energy data
        candidates.append(r0 * cp0 / (64.0 * m * c1**2 * (2.0 * r0) ** alpha))
        candidates.append(1.0 / (2.0 * m))
    sqrt_eps0 = min(candidates)
    if cp0 > 0.0:
        s0_lower = max(32.0 * c1**2 * (2.0 * r0) ** alpha / ((r0 - eps) * cp0), 2.0)
    else:
        s0_lower = math.inf
    t_star_bound = (r0 - eps) / (2.0 * c1) + r0 / (4.0 * c1)
    drift_bound = math.sqrt(k_env * (r0 - eps) / (c0 * c1)) * math.sqrt(eps)
    decay = cp0 / (16.0 * c1 * (2.0 * r0) ** alpha)

    return TheoremConstants(
        K_measured=k_meas,
        K_envelope=k_env,
        M=m,
        eps0=sqrt_eps0**2,
        S0_lower=s0_lower,
        t_star_bound=t_star_bound,
        c_prime_u0=cp0,
        phi_prime_sq_integral=iphi,
        E0_exact=e0,
        u_drift_bound=drift_bound,
        inv_s_decay_rate=decay,
    )


def blowup_time_estimate(setup: ProblemSetup) -> float:
    """Riccati estimate 1/(lambda S(0,r0)) of the blow-up time.

    Heuristic only (assumes R stays negligible and the path stays near r0);
    used to pick pre-blow-up comparison windows for convergence studies.
    """
    c_at_u0 = float(setup.speed.c(setup.u0))
    cp0 = float(setup.speed.c_prime(setup.u0))
    if cp0 <= 0.0:
        return math.inf
    ralpha0 = setup.r0**setup.alpha
    s0 = (2.0 * c_at_u0 - setup.eps) * ralpha0 * setup.profile.amplitude
    if s0 <= 0.0:
        return math.inf
    lam = cp0 / (4.0 * c_at_u0 * ralpha0)
    return 1.0 / (lam * s0)


class EnergyObserver:
    """Accumulates (t, E) samples by trapezoidal quadrature over the grid.

    Also records the boundary flux c(S^2 - R^2) at both domain ends, which
    must vanish while the support is interior.
    """

    def __init__(self, grid: Grid, speed):
        self.grid = grid
        self.speed = speed
        self.t: list[float] = []
        self.E: list[float] = []
        self.flux_lo: list[float] = []
        self.flux_hi: list[float] = []

    def __call__(self, state: GridState):
        e = np.trapezoid(state.R**2 + state.S**2, self.grid.r)
        self.t.append(state.t)
        self.E.append(float(e))
        for store, i in ((self.flux_lo, 0), (self.flux_hi, -1)):
            c = float(self.speed.c(state.u[i]))
            store.append(c * (float(state.S[i]) ** 2 - float(state.R[i]) ** 2))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "t": np.asarray(self.t),
            "E": np.asarray(self.E),
            "flux_lo": np.asarray(self.flux_lo),
            "flux_hi": np.asarray(self.flux_hi),
        }


@dataclass(frozen=True)
class EnergyTrace:
    """Energy history of a run."""

    t: np.ndarray
    E: np.ndarray
    flux_lo: np.ndarray
    flux_hi: np.ndarray

    @classmethod
    def from_observer(cls, obs: EnergyObserver) -> "EnergyTrace":
        return cls(**obs.arrays())

    @property
    def max_relative_drift(self) -> float:
        if self.E.size == 0 or self.E[0] == 0.0:
            return 0.0
        return float(np.max(np.abs(self.E - self.E[0])) / self.E[0])


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


def triangle_identity(
    setup: ProblemSetup,
    grid: Grid,
    cfg: SchemeConfig,
    r1: float,
    r2: float,
) -> tuple[TriangleReport, CharacteristicPath, CharacteristicPath]:
    """Run until the bounding characteristics cross; compare the two sides.

    LHS = int_{r1}^{r_m} R^2(t_+(r), r) dr + int_{r_m}^{r2} S^2(t_-(r), r) dr
    by trapezoid in the path parameter; RHS = half the initial energy on
    [r1, r2].  Requires r2 - r1 < 2 c0 (r0 - eps)/c1 so the crossing
    happens before t_final.  Returns the report and the two paths.  Raises
    NoIntersection when the run ends any other way (t_final, gradient
    ceiling, or step budget) before the paths meet.
    """
    if not (0.0 < r1 < r2):
        raise HypothesisViolated("need 0 < r1 < r2")
    gap_limit = 2.0 * setup.speed.c0 * (setup.r0 - setup.eps) / setup.speed.c1
    if not (r2 - r1 < gap_limit):
        raise HypothesisViolated(
            f"r2 - r1 = {r2 - r1} must be below 2 c0 (r0 - eps)/c1 = {gap_limit}"
        )

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
    t_m, r_m = find_intersection(plus, minus)
    pa = truncate_at(plus, t_m)
    ma = truncate_at(minus, t_m)
    lhs_plus = float(np.trapezoid(pa["R"] ** 2, pa["r"]))
    # minus path r decreases from r2; negate to integrate in increasing r
    lhs_minus = -float(np.trapezoid(ma["S"] ** 2, ma["r"]))
    lhs = lhs_plus + lhs_minus

    inside = grid.r[(grid.r > r1) & (grid.r < r2)]
    rq = np.concatenate(([r1], inside, [r2]))
    R0, S0 = initial_riemann(setup, rq)
    rhs = 0.5 * float(np.trapezoid(R0**2 + S0**2, rq))

    residual = abs(lhs - rhs) / max(rhs, 1e-30)
    report = TriangleReport(
        lhs=lhs, rhs=rhs, residual=residual, t_m=t_m, r_m=r_m, r1=r1, r2=r2
    )
    return report, plus, minus


class InvSObserver:
    """Tracks 1/S along a plus path and the discrete decay inequality.

    Appends (t, 1/S) whenever the sampled S is positive; non-positive
    samples are recorded and flagged but not fatal.  For each pair of
    consecutive solver samples the one-sided difference of 1/S is checked
    against

        d(1/S)/dt <= -c'(u0)/(16 c1 (2 r0)^alpha)
                     + (1/S^2) (c1 R^2/(4 c0 r0^alpha) + alpha c1 |R|/r0),

    and the fraction of conforming pairs is reported.  The blow-up time
    estimate is the zero crossing of a least-squares line through the last
    quarter of the 1/S trace.
    """

    def __init__(self, path: CharacteristicPath, setup: ProblemSetup,
                 constants: TheoremConstants):
        self.path = path
        self.setup = setup
        self.constants = constants
        sp = setup.speed
        self._rate = constants.inv_s_decay_rate
        self._quad_coef = sp.c1 / (4.0 * sp.c0 * setup.r0**setup.alpha)
        self._geom_coef = setup.alpha * sp.c1 / setup.r0
        self.t: list[float] = []
        self.inv_s: list[float] = []
        self.all_t: list[float] = []
        self.all_S: list[float] = []
        self.violations = 0
        self.checks = 0
        self._prev_was_sample = False

    def __call__(self, state: GridState):
        # the path observer must have run first for this state
        if not self.path.t or self.path.t[-1] != state.t:
            raise RuntimeError("InvSObserver requires its path to be advanced first")
        t = self.path.t[-1]
        S = self.path.S[-1]
        R = self.path.R[-1]
        self.all_t.append(t)
        self.all_S.append(S)
        if S <= 0.0:
            self._prev_was_sample = False
            return
        y = 1.0 / S
        if self._prev_was_sample and self.t:
            dt = t - self.t[-1]
            lhs = (y - self.inv_s[-1]) / dt
            rhs = -self._rate + y * y * (
                self._quad_coef * R * R + self._geom_coef * abs(R)
            )
            self.checks += 1
            if lhs > rhs:
                self.violations += 1
        self.t.append(t)
        self.inv_s.append(y)
        self._prev_was_sample = True

    @property
    def inequality_fraction(self) -> float:
        if self.checks == 0:
            return 1.0
        return 1.0 - self.violations / self.checks

    def s_gt1_after_first(self) -> bool:
        if len(self.all_S) <= 1:
            return True
        return bool(np.min(np.asarray(self.all_S[1:])) > 1.0)

    def any_nonpositive(self) -> bool:
        return bool(np.min(np.asarray(self.all_S)) <= 0.0) if self.all_S else False

    def t_star_extrapolated(self) -> float | None:
        """Zero crossing of the least-squares line through the trace tail."""
        n = len(self.t)
        if n < 2:
            return None
        k = max(2, n // 4)
        tt = np.asarray(self.t[n - k:])
        yy = np.asarray(self.inv_s[n - k:])
        slope, intercept = np.polyfit(tt, yy, 1)
        if slope >= 0.0:
            return None
        return float(-intercept / slope)

    def tail_monotone_fraction(self) -> float:
        """Fraction of non-increasing consecutive pairs in the trace tail."""
        n = len(self.inv_s)
        if n < 2:
            return 1.0
        k = max(2, n // 4)
        yy = np.asarray(self.inv_s[n - k:])
        d = np.diff(yy)
        return float(np.count_nonzero(d <= 0.0) / d.size)


@dataclass(frozen=True)
class BlowupReport:
    """Detection outcome plus the 1/S record along the hat path."""

    detected: bool
    t_detect: float | None
    r_detect: float | None
    inv_S_trace: np.ndarray  # shape (n, 2): columns t, 1/S
    t_star_extrapolated: float | None
    reason: str
    s_gt1_after_first: bool
    any_nonpositive_S: bool
    inequality_checks: int
    inequality_violations: int
    inequality_fraction: float
    tail_monotone_fraction: float
    initial_inv_s_ok: bool


def build_blowup_report(
    result: RunResult, obs: InvSObserver, constants: TheoremConstants,
    setup: ProblemSetup
) -> BlowupReport:
    s_start = obs.all_S[0] if obs.all_S else 0.0
    if s_start > 0.0:
        bound_218 = min(
            (setup.r0 - setup.eps) * constants.c_prime_u0
            / (32.0 * setup.speed.c1**2 * (2.0 * setup.r0) ** setup.alpha),
            0.5,
        )
        initial_ok = 1.0 / s_start < bound_218
    else:
        initial_ok = False
    trace = np.column_stack([obs.t, obs.inv_s]) if obs.t else np.empty((0, 2))
    return BlowupReport(
        detected=result.detected,
        t_detect=result.t_detect,
        r_detect=result.r_detect,
        inv_S_trace=trace,
        t_star_extrapolated=obs.t_star_extrapolated(),
        reason=result.reason,
        s_gt1_after_first=obs.s_gt1_after_first(),
        any_nonpositive_S=obs.any_nonpositive(),
        inequality_checks=obs.checks,
        inequality_violations=obs.violations,
        inequality_fraction=obs.inequality_fraction,
        tail_monotone_fraction=obs.tail_monotone_fraction(),
        initial_inv_s_ok=initial_ok,
    )


@dataclass(frozen=True)
class Verdict:
    """PASS / FAIL / FAIL-AS-EXPECTED / INCONCLUSIVE for one blow-up run."""

    status: str
    detected: bool
    t_detect: float | None
    t_final: float
    t_star_extrapolated: float | None
    t_star_bound: float
    t_star_within_paper_bound: bool


def blowup_verdict(
    report: BlowupReport, constants: TheoremConstants, setup: ProblemSetup
) -> Verdict:
    """PASS iff detection happened before t_final.

    The sharper extrapolated-time bound is reported as a separate flag: the
    derived constants are sufficient, not necessary, so missing the sharper
    bound does not overturn an observed blow-up.  Runs stopped by the step
    budget are INCONCLUSIVE; runs reaching t_final without detection are
    FAIL-AS-EXPECTED when the steepening hypothesis c'(u0) > 0 is absent,
    plain FAIL otherwise.
    """
    t_final = setup.t_final
    sharper = (
        report.t_star_extrapolated is not None
        and report.t_star_extrapolated < constants.t_star_bound
    )
    if report.detected and report.t_detect is not None and report.t_detect < t_final:
        status = "PASS"
    elif report.reason == "max_steps":
        status = "INCONCLUSIVE"
    elif float(setup.speed.c_prime(setup.u0)) <= 0.0:
        status = "FAIL-AS-EXPECTED"
    else:
        status = "FAIL"
    return Verdict(
        status=status,
        detected=report.detected,
        t_detect=report.t_detect,
        t_final=t_final,
        t_star_extrapolated=report.t_star_extrapolated,
        t_star_bound=constants.t_star_bound,
        t_star_within_paper_bound=sharper,
    )


def build_report(
    constants: TheoremConstants,
    energy: EnergyTrace | None = None,
    blowup: BlowupReport | None = None,
    drift: DriftReport | None = None,
    sign: SignReport | None = None,
    triangle: TriangleReport | None = None,
    verdict: Verdict | None = None,
) -> dict:
    """Assemble the JSON-ready diagnostics document."""
    doc: dict = {
        "constants": {
            "K_measured": constants.K_measured,
            "K_envelope": constants.K_envelope,
            "M": constants.M,
            "eps0": constants.eps0,
            "S0_lower": constants.S0_lower,
            "t_star_bound": constants.t_star_bound,
        }
    }
    if energy is not None:
        doc["energy"] = [[float(t), float(e)] for t, e in zip(energy.t, energy.E)]
        doc["energy_max_relative_drift"] = energy.max_relative_drift
    if triangle is not None:
        doc["triangle"] = {
            "lhs": triangle.lhs,
            "rhs": triangle.rhs,
            "residual": triangle.residual,
            "t_m": triangle.t_m,
            "r_m": triangle.r_m,
        }
    if blowup is not None:
        flags = {
            "u_drift_ok": drift.ok if drift is not None else None,
            "c_prime_sign_ok": sign.ok if sign is not None else None,
            "inv_S_inequality_ok": blowup.inequality_fraction
            >= INEQUALITY_PASS_FRACTION,
            "t_star_within_paper_bound": verdict.t_star_within_paper_bound
            if verdict is not None
            else None,
        }
        doc["blowup"] = {
            "detected": blowup.detected,
            "t_detect": blowup.t_detect,
            "r_detect": blowup.r_detect,
            "t_star_extrapolated": blowup.t_star_extrapolated,
            "reason": blowup.reason,
            "s_gt1_after_first": blowup.s_gt1_after_first,
            "inequality_fraction": blowup.inequality_fraction,
            "flags": flags,
        }
        if verdict is not None:
            doc["blowup"]["verdict"] = verdict.status
    if drift is not None:
        doc["u_drift"] = {
            "max": drift.max_drift,
            "bound": drift.bound,
            "ok": drift.ok,
        }
    if sign is not None:
        doc["c_prime_sign"] = {
            "min": sign.min_c_prime,
            "threshold": sign.threshold,
            "ok": sign.ok,
        }
    return doc
