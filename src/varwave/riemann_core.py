"""The map to weighted Riemann variables, its inverse, and their source terms.

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

``to_riemann`` maps (u_t, u_r) to (R, S), ``from_riemann`` maps back,
``source_coefficients`` gives the factors c'/(4 c r^alpha) and alpha c / r
of the sources, and ``rhs_fields`` evaluates the right-hand sides of the
system above from those factors.
"""

from __future__ import annotations

import numpy as np

from .speed_models import WaveSpeedModel


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


def from_riemann(r, u, R, S, speed: WaveSpeedModel, alpha: float):
    """(u_t, u_r) from (R, S); inverse of to_riemann, arrays or scalars."""
    ralpha = np.asarray(r, dtype=float) ** alpha
    u_t = (R + S) / (2.0 * ralpha)
    u_r = (R - S) / (2.0 * speed.c(u) * ralpha)
    return u_t, u_r


def source_coefficients(inv_r, ralpha, c, c_prime, alpha: float):
    """The factors (c'/(4 c r^alpha), alpha c / r) of the source terms, from
    ``inv_r`` = 1/r, ``ralpha`` = r**alpha and the speed and its derivative at u."""
    return c_prime / (4.0 * c * ralpha), alpha * c * inv_r


def rhs_fields(quad, geom, R, S):
    """Source terms (f_R, f_S) of the characteristic system, vectorized.

    ``quad`` and ``geom`` are the factors that ``source_coefficients`` gives
    at the same nodes.  Arrays or scalars; the augmented assignments update
    only the temporaries made here, so the arguments are never written.
    """
    R2, S2 = R * R, S * S
    f_R = R2 - S2
    f_R *= quad
    f_R -= geom * S
    f_S = S2 - R2
    f_S *= quad
    f_S += geom * R
    return f_R, f_S
