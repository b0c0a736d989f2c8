"""Steep-bump initial data that triggers finite-time gradient blow-up.

The data family is

    u(0,r)   = u0 + eps * phi((r - r0)/eps),
    u_t(0,r) = (-c(u(0,r)) + eps) * u_r(0,r),

with phi a C1 bump supported in (-1, 1) whose center slope phi'(0) is
steep enough (see ``theorem_amplitude``) that the weighted gradient
S = r^alpha (u_t - c u_r) starts above the self-steepening threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, HypothesisViolated, SpeedNotIncreasing
from .speed_models import WaveSpeedModel, validate_bounds


def checked_float(name: str, value, positive: bool = False) -> float:
    """value as a Python float; HypothesisViolated naming it unless it is a
    finite float (a positive one, with positive).

    The construction's one rule for its derived floats, which its callers
    compute on np.float64 scalars under np.errstate, in IEEE arithmetic:
    an overflow is inf and a zero divisor gives inf or NaN, which
    carry through + - * / sqrt, np.maximum and np.min to the checked float.
    A divisor that overflows makes its quotient 0.0 instead: callers check
    such a divisor where the quotient could matter.
    """
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        kind = "positive finite" if positive else "finite"
        raise HypothesisViolated(f"{name} = {value} is not a {kind} float")
    return value


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

    # The polynomial is evaluated on the support only: off it z may be so
    # large (a tiny eps) that z * z overflows into a value dropped anyway.
    def phi(self, z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        out, zs = np.zeros(z.shape), z[inside]
        w = 1.0 - zs * zs
        out[inside] = -self.amplitude * zs * w * w
        return out if out.ndim else float(out)

    def phi_prime(self, z):
        z = np.asarray(z, dtype=float)
        inside = np.abs(z) < 1.0
        out, zs = np.zeros(z.shape), z[inside]
        w = 1.0 - zs * zs
        out[inside] = -self.amplitude * w * (1.0 - 5.0 * zs * zs)
        return out if out.ndim else float(out)

    def phi_prime_sq_integral(self) -> float:
        """Exact integral of phi'(z)^2 over (-1, 1)."""
        with np.errstate(over="ignore"):  # inf past the largest float
            return float(np.float64(self.amplitude) ** 2 * 256.0 / 315.0)


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


def _check_angles(speed: WaveSpeedModel, u) -> None:
    """ConfigError when an initial angle u is off the speed's table, which a
    model with a table probes for its bounds (``probe_interval``)."""
    if speed.off_table(u):
        u_min, u_max = float(np.min(u)), float(np.max(u))
        lo, hi = speed.probe_interval()
        raise ConfigError(
            f"initial angles [{u_min}, {u_max}] leave the speed table [{lo}, {hi}]"
        )


def _check_placement(d: int, r0: float) -> None:
    """HypothesisViolated unless d >= 1 and r0 > 0."""
    if d < 1:
        raise HypothesisViolated("spatial dimension must be >= 1")
    if r0 <= 0:
        raise HypothesisViolated("bump center r0 must be positive")


def theorem_amplitude(d: int, r0: float, u0: float, speed: WaveSpeedModel) -> float:
    """Minimal center slope 2*max{32*c1^2*2^alpha/(r0*c0*c'(u0)), 1/(c0*r0^alpha)}.

    HypothesisViolated (``checked_float``) unless it is a positive finite
    float, and where the divisor r0 c0 c'(u0) overflows.
    """
    _check_placement(d, r0)
    _check_angles(speed, u0)
    alpha = (d - 1) / 2.0
    cp0 = float(speed.c_prime(u0))
    if cp0 <= 0.0:
        raise SpeedNotIncreasing(
            f"c'(u0) = {cp0} at u0 = {u0}; blow-up construction needs c'(u0) > 0"
        )
    r0, c0, c1 = np.float64(r0), np.float64(speed.c0), np.float64(speed.c1)
    with np.errstate(all="ignore"):
        div = r0 * c0 * cp0
        a1 = 32.0 * c1**2 * np.float64(2.0) ** alpha / div
        amplitude = 2.0 * np.maximum(a1, 1.0 / (c0 * r0**alpha))
    amplitude = checked_float("the theorem amplitude", amplitude, positive=True)
    # where it overflows, the first term reads 0.0
    checked_float("the divisor r0 c0 c'(u0) of the theorem amplitude", div)
    return amplitude


def auto_domain(d: int, r0: float, eps: float, speed: WaveSpeedModel) -> tuple[float, float]:
    """Radial interval covering the maximal support reach plus a margin.

    The left reach r0 - eps - c1*t_final is 0 up to rounding, of either
    sign, so the left endpoint is floored at 0.01*r0.  Where c(u0) < c1 the
    support stays right of the floor until t_final; a constant speed c = c1
    carries it to the floor at t_final - 0.01*r0/c1.
    """
    t_final = (r0 - eps) / speed.c1
    reach_lo = r0 - eps - speed.c1 * t_final
    reach_hi = r0 + eps + speed.c1 * t_final
    margin = 0.05 * (reach_hi - max(reach_lo, 0.0))
    r_lo = max(reach_lo - margin, 0.01 * r0)
    return (r_lo, reach_hi + margin)


@dataclass(frozen=True)
class ProblemSetup:
    """Dimension, bump placement, speed model and spatial domain for a run.

    t_final is a positive finite float and the domain ends and the weight
    c0 r_lo^alpha are finite (``checked_float``); the weight is at least 1e-300.
    """

    d: int
    r0: float
    eps: float
    u0: float
    speed: WaveSpeedModel
    profile: BumpProfile
    domain: tuple[float, float]

    def __post_init__(self):
        # u0 keeps its bits but -0.0 becomes +0.0: one resting state (+0.0, +0.0, +0.0)
        object.__setattr__(self, "u0", self.u0 + 0.0)
        _check_placement(self.d, self.r0)
        limit = min(self.speed.c0, self.r0 / 2.0)
        if not (0.0 < self.eps < limit):
            raise HypothesisViolated(
                f"need 0 < eps < min(c0, r0/2) = {limit}, got eps={self.eps}"
            )
        validate_bounds(self.speed)
        checked_float("t_final = (r0 - eps)/c1", self.t_final, positive=True)
        r_lo = checked_float("the domain end r_lo", self.domain[0])
        r_hi = checked_float("the domain end r_hi", self.domain[1])
        if r_lo <= 0.0:
            raise HypothesisViolated("domain must satisfy r_lo > 0")
        if r_lo >= self.r0 - self.eps:
            raise HypothesisViolated("domain left end must lie left of the bump")
        # u_r = (R - S)/(2 c r^alpha) is 0/0 where the weight underflows
        with np.errstate(over="ignore"):
            weight = self.speed.c0 * np.float64(r_lo) ** self.alpha
        weight = checked_float("the weight c0 * r_lo**alpha", weight)
        if weight < 1e-300:
            raise HypothesisViolated(
                f"the weight c0 * r_lo**alpha = {weight} at r_lo = {r_lo} is below 1e-300"
            )
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


def initial_riemann(setup: ProblemSetup, r):
    """The initial state (u, R, S) at t=0; floats for a scalar r.

    R(0,r) = eps * r^alpha * u_r(0,r),
    S(0,r) = (-2c(u(0,r)) + eps) * r^alpha * u_r(0,r),
    with u_r taken analytically from phi', never by differencing.
    Outside [r0 - eps, r0 + eps] R and S are +0.0: S adds +0.0 to the
    product, whose negative factor -2c + eps leaves -0.0 where u_r = +0.0,
    and changes no other value.  Raises ConfigError when
    u leaves the speed model's table (``off_table``).
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):  # an eps near underflow: an infinite z is off the support
        z = (r - setup.r0) / setup.eps
    u = setup.u0 + setup.eps * np.asarray(setup.profile.phi(z))
    _check_angles(setup.speed, u)
    u_r = np.asarray(setup.profile.phi_prime(z))
    ralpha = r**setup.alpha
    R = setup.eps * ralpha * u_r
    S = (-2.0 * np.asarray(setup.speed.c(u)) + setup.eps) * ralpha * u_r + 0.0
    if r.ndim == 0:
        return float(u), float(R), float(S)
    return u, R, S
