"""Steep-bump initial data that triggers finite-time gradient blow-up.

The data family is

    u(0,r)   = u0 + eps * phi((r - r0)/eps),
    u_t(0,r) = (-c(u(0,r)) + eps) * u_r(0,r),

with phi a C1 bump supported in (-1, 1) whose center slope phi'(0) is
steep enough (see ``theorem_amplitude``) that the weighted gradient
S = r^alpha (u_t - c u_r) starts above the self-steepening threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HypothesisViolated, SpeedNotIncreasing
from .speed_models import WaveSpeedModel, validate_bounds


class BumpProfile:
    """C1 compactly supported profile phi on (-1, 1); zero outside."""

    amplitude: float  # magnitude of -phi'(0)

    def phi(self, z):
        raise NotImplementedError

    def phi_prime(self, z):
        raise NotImplementedError


@dataclass(frozen=True)
class PolynomialBump(BumpProfile):
    """phi(z) = -A * z * (1 - z^2)^2 on (-1, 1), zero outside.

    Odd, C1 across z = +-1 (phi and phi' both vanish there), with
    phi'(0) = -A.  The squared-slope integral has the closed form
    A^2 * 256/315, used by the energy-constant envelope.
    """

    amplitude: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        w = 1.0 - z * z
        out = np.where(inside, -self.amplitude * z * w * w, 0.0)
        return out if out.ndim else float(out)

    def phi_prime(self, z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        w = 1.0 - z * z
        out = np.where(inside, -self.amplitude * w * (1.0 - 5.0 * z * z), 0.0)
        return out if out.ndim else float(out)

    def phi_prime_sq_integral(self) -> float:
        """Exact integral of phi'(z)^2 over (-1, 1)."""
        return self.amplitude**2 * 256.0 / 315.0


@dataclass(frozen=True)
class CustomBump(BumpProfile):
    """User-supplied phi and phi'; support in (-1, 1) is the caller's duty."""

    amplitude: float
    phi_fn: Callable = field(repr=False)
    phi_prime_fn: Callable = field(repr=False)

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(np.abs(z) < 1.0, self.phi_fn(z), 0.0)
        return out if out.ndim else float(out)

    def phi_prime(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(np.abs(z) < 1.0, self.phi_prime_fn(z), 0.0)
        return out if out.ndim else float(out)


def theorem_amplitude(d: int, r0: float, u0: float, speed: WaveSpeedModel) -> float:
    """Minimal center slope 2*max{32*c1^2*2^alpha/(r0*c0*c'(u0)), 1/(c0*r0^alpha)}."""
    alpha = (d - 1) / 2.0
    cp0 = float(speed.c_prime(u0))
    if cp0 <= 0.0:
        raise SpeedNotIncreasing(
            f"c'(u0) = {cp0} at u0 = {u0}; blow-up construction needs c'(u0) > 0"
        )
    a1 = 32.0 * speed.c1**2 * 2.0**alpha / (r0 * speed.c0 * cp0)
    a2 = 1.0 / (speed.c0 * r0**alpha)
    return 2.0 * max(a1, a2)


def auto_domain(d: int, r0: float, eps: float, speed: WaveSpeedModel) -> tuple[float, float]:
    """Radial interval covering the maximal support reach plus a margin.

    The left reach r0 - eps - c1*t_final is exactly 0, so the left endpoint
    is floored at 0.01*r0 (the physical speed near the leading edge is
    c(u0) < c1, so the true support stays right of the floor until t_final).
    """
    t_final = (r0 - eps) / speed.c1
    reach_lo = r0 - eps - speed.c1 * t_final
    reach_hi = r0 + eps + speed.c1 * t_final
    margin = 0.05 * (reach_hi - max(reach_lo, 0.0))
    r_lo = max(reach_lo - margin, 0.01 * r0)
    return (r_lo, reach_hi + margin)


@dataclass(frozen=True)
class ProblemSetup:
    """Dimension, bump placement, speed model and spatial domain for a run."""

    d: int
    r0: float
    eps: float
    u0: float
    speed: WaveSpeedModel
    profile: BumpProfile
    domain: tuple[float, float]

    def __post_init__(self):
        if self.d < 1:
            raise HypothesisViolated("spatial dimension must be >= 1")
        if self.r0 <= 0:
            raise HypothesisViolated("bump center r0 must be positive")
        limit = min(self.speed.c0, self.r0 / 2.0)
        if not (0.0 < self.eps < limit):
            raise HypothesisViolated(
                f"need 0 < eps < min(c0, r0/2) = {limit}, got eps={self.eps}"
            )
        validate_bounds(self.speed)
        r_lo, r_hi = self.domain
        if r_lo <= 0.0:
            raise HypothesisViolated("domain must satisfy r_lo > 0")
        if r_lo >= self.r0 - self.eps:
            raise HypothesisViolated("domain left end must lie left of the bump")
        if r_hi < self.r0 + self.eps + self.speed.c1 * self.t_final:
            raise HypothesisViolated(
                "domain right end does not cover the support reach "
                f"{self.r0 + self.eps + self.speed.c1 * self.t_final}"
            )

    @property
    def alpha(self) -> float:
        return (self.d - 1) / 2.0

    @property
    def t_final(self) -> float:
        return (self.r0 - self.eps) / self.speed.c1

    @classmethod
    def theorem(
        cls,
        d: int,
        r0: float,
        eps: float,
        u0: float,
        speed: WaveSpeedModel,
        domain: tuple[float, float] | None = None,
        profile: BumpProfile | None = None,
    ) -> "ProblemSetup":
        """Setup with the steep theorem profile and the auto domain, unless given.

        Raises SpeedNotIncreasing for the theorem profile when c'(u0) <= 0.
        """
        if profile is None:
            profile = PolynomialBump(amplitude=theorem_amplitude(d, r0, u0, speed))
        if domain is None:
            domain = auto_domain(d, r0, eps, speed)
        return cls(d=d, r0=r0, eps=eps, u0=u0, speed=speed, profile=profile, domain=domain)


def initial_fields(setup: ProblemSetup, r):
    """(u, u_t) at t=0.  u_r comes analytically from phi', never by differencing."""
    r = np.asarray(r, dtype=float)
    z = (r - setup.r0) / setup.eps
    u = setup.u0 + setup.eps * np.asarray(setup.profile.phi(z))
    u_r = np.asarray(setup.profile.phi_prime(z))
    u_t = (-np.asarray(setup.speed.c(u)) + setup.eps) * u_r
    if r.ndim == 0:
        return float(u), float(u_t)
    return u, u_t


def initial_riemann(setup: ProblemSetup, r):
    """Weighted gradients (R, S) at t=0.

    R(0,r) = eps * r^alpha * u_r(0,r),
    S(0,r) = (-2c(u(0,r)) + eps) * r^alpha * u_r(0,r).
    Outside [r0 - eps, r0 + eps] R is +0.0 and S is -0.0: the negative
    factor -2c + eps multiplies u_r = +0.0 there.
    """
    r = np.asarray(r, dtype=float)
    z = (r - setup.r0) / setup.eps
    u = setup.u0 + setup.eps * np.asarray(setup.profile.phi(z))
    u_r = np.asarray(setup.profile.phi_prime(z))
    ralpha = r**setup.alpha
    R = setup.eps * ralpha * u_r
    S = (-2.0 * np.asarray(setup.speed.c(u)) + setup.eps) * ralpha * u_r
    if r.ndim == 0:
        return float(R), float(S)
    return R, S
