"""Weighted Riemann variables and the characteristic-form right-hand sides.

For the radial equation with wave speed c(u) and alpha = (d-1)/2, the
variables

    R = r^alpha (u_t + c(u) u_r),    S = r^alpha (u_t - c(u) u_r)

satisfy the diagonal system

    R_t - c R_r = c'/(4 c r^alpha) (R^2 - S^2) - alpha c S / r,
    S_t + c S_r = c'/(4 c r^alpha) (S^2 - R^2) + alpha c R / r,

whose quadratic combination yields the conservation law
(R^2 + S^2)_t + (c (S^2 - R^2))_r = 0 used by the energy diagnostics.
u itself is carried as a third evolved field with u_t = (R+S)/(2 r^alpha)
because c(u) and c'(u) are needed pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .speed_models import WaveSpeedModel


@dataclass(frozen=True)
class RiemannPoint:
    """State (u, R, S) at a single radius; alpha fixes the radial weight."""

    r: float
    u: float
    R: float
    S: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("radius must be positive")


def to_riemann(r, u, u_t, u_r, speed: WaveSpeedModel, alpha: float):
    """(R, S) from pointwise derivatives."""
    r = np.asarray(r, dtype=float)
    ralpha = r**alpha
    c = speed.c(u)
    R = ralpha * (u_t + c * u_r)
    S = ralpha * (u_t - c * u_r)
    if np.ndim(R) == 0:
        return float(R), float(S)
    return R, S


def from_riemann(point: RiemannPoint, speed: WaveSpeedModel):
    """(u_t, u_r) recovered from a Riemann point; inverse of to_riemann."""
    ralpha = point.r**point.alpha
    u_t = (point.R + point.S) / (2.0 * ralpha)
    u_r = (point.R - point.S) / (2.0 * speed.c(point.u) * ralpha)
    return u_t, u_r


def rhs_fields(inv_r, ralpha, c, c_prime, R, S, alpha: float):
    """Source terms (f_R, f_S) of the characteristic system, vectorized.

    ``inv_r`` is 1/r and ``ralpha`` is r**alpha, precomputed once per grid
    by the caller; ``c`` and ``c_prime`` are the speed and its derivative
    already evaluated at u, so each is computed once per stage.  Arrays or
    scalars; the augmented assignments update only the temporaries made
    here, so the arguments are never written.
    """
    quad = c_prime / (4.0 * c * ralpha)
    geom = alpha * c * inv_r
    R2, S2 = R * R, S * S
    f_R = R2 - S2
    f_R *= quad
    f_R -= geom * S
    f_S = S2 - R2
    f_S *= quad
    f_S += geom * R
    return f_R, f_S


def rhs(point: RiemannPoint, speed: WaveSpeedModel):
    """(f_R, f_S) at a single Riemann point."""
    f_R, f_S = rhs_fields(
        1.0 / point.r,
        point.r**point.alpha,
        speed.c(point.u),
        speed.c_prime(point.u),
        point.R,
        point.S,
        point.alpha,
    )
    return float(f_R), float(f_S)


def energy_density(point: RiemannPoint) -> float:
    """R^2 + S^2, the conserved density."""
    return float(point.R**2 + point.S**2)
