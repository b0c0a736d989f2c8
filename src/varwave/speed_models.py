"""Wave-speed models c(u) with derivatives and verified two-sided bounds.

Every model declares a lower speed bound ``c0`` and an upper bound ``c1``
that caps both the speed and its derivative:

    0 < c0 <= c(u) <= c1   and   |c'(u)| <= c1.

The declared constants are inputs, not inferred quantities: downstream
blow-up constants are built from the declared values, so ``validate_bounds``
checks them by dense sampling instead of silently replacing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsViolation

_REL_TOL = 1e-12

# Points per slice of a dense probe of c or c' (validate_bounds and
# characteristics.c_prime_margin): 64 KB per temporary array.
PROBE_BLOCK = 8192


@dataclass(frozen=True)
class SpeedBoundsReport:
    """Sampled extrema of c and |c'| against the declared bounds."""

    c_min: float
    c_max: float
    c_prime_max: float
    declared_c0: float
    declared_c1: float
    probe_count: int
    ok: bool


@dataclass(frozen=True)
class WaveSpeedModel:
    """Base for all speed models; subclasses implement c and c_prime.

    Every result of c, c_prime and c_and_c_prime need only broadcast against u.
    """

    c0: float
    c1: float

    def __post_init__(self):
        if not (0.0 < self.c0 <= self.c1):
            raise BoundsViolation(
                f"need 0 < c0 <= c1, got c0={self.c0}, c1={self.c1}"
            )

    def c(self, u):
        raise NotImplementedError

    def c_prime(self, u):
        raise NotImplementedError

    def c_and_c_prime(self, u):
        """(c(u), c'(u)); models override it to share work between the two."""
        return self.c(u), self.c_prime(u)

    def probe_interval(self) -> tuple[float, float]:
        """Interval over which bounds are sampled (one period by default)."""
        return (0.0, 2.0 * np.pi)

    def off_table(self, u) -> bool:
        """Whether an angle of u lies off the model's table; a NaN angle never does."""
        return False


@dataclass(frozen=True)
class OseenFrankSpeed(WaveSpeedModel):
    """Planar-director speed c(u)^2 = k1*sin(u)^2 + k3*cos(u)^2.

    k1 and k3 are the splay and bend elastic constants; the speed is
    2*pi-periodic (with fundamental period pi) and smooth.

    c and c' are evaluated from one tangent t = tan(u), with
    sin^2 = t^2/(1+t^2), cos^2 = 1/(1+t^2) and sin*cos = t/(1+t^2):

        c = sqrt((k1*t^2 + k3) / (1 + t^2)),   c' = (k1 - k3)*t/(1 + t^2)/c.

    Against sin and cos taken in long double, c lies within 2.5 ULP and c'
    within 5 ULP (where |c'| > 1e-300) on [-4*pi, 4*pi], and c(0) and
    c(pi/2) within 1 ULP of sqrt(k3) and sqrt(k1).  t^2 is t*t, not t**2,
    which sends a float through libm's pow: so a float gets the bits of the
    same angle in a slice or a strided view of an array.  c of a Python
    float takes np.tan and then the same IEEE operations in float
    arithmetic, with math.sqrt, which skips numpy's 0-d overhead on the
    path tracer's calls.  The bits follow
    np.tan, whose kernel numpy picks by the CPU it runs on (with AVX-512 it
    leaves a reversed view to libm's tan, which can differ in the last bit).
    """

    k1: float = 1.0
    k3: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.k1 <= 0.0 or self.k3 <= 0.0:
            raise BoundsViolation("elastic constants k1, k3 must be positive")

    def c(self, u):
        if type(u) is float:  # the path tracer's call: np.tan, then float arithmetic
            t = float(np.tan(u))
            tt = t * t
            return math.sqrt((self.k1 * tt + self.k3) / (1.0 + tt))
        t = np.tan(np.asarray(u, dtype=float))
        tt = t * t
        out = self._c(tt, 1.0 + tt)
        return out if out.ndim else float(out)

    def c_prime(self, u):
        u = np.asarray(u, dtype=float)
        t = np.tan(u)
        out = self._c_prime(t, 1.0 + t * t, self.c(u))
        return out if out.ndim else float(out)

    def c_and_c_prime(self, u):
        t = np.tan(np.asarray(u, dtype=float))
        tt = t * t
        q = 1.0 + tt
        c = self._c(tt, q)
        cp = self._c_prime(t, q, c)
        return (c, cp) if c.ndim else (float(c), float(cp))

    # the formulas, from t = tan u, t^2 and q = 1 + t^2
    def _c(self, tt, q):
        return np.sqrt((self.k1 * tt + self.k3) / q)

    def _c_prime(self, t, q, c):
        return (self.k1 - self.k3) * t / q / c


@dataclass(frozen=True)
class ConstantSpeed(WaveSpeedModel):
    """Fixed speed, a float whatever u; the d=1 linear-transport regression case."""

    value: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.c0 <= self.value <= self.c1):
            raise BoundsViolation(
                f"constant speed {self.value} outside declared [{self.c0}, {self.c1}]"
            )

    @classmethod
    def of(cls, value: float) -> "ConstantSpeed":
        return cls(c0=value, c1=value, value=value)

    def c(self, u):
        return float(self.value)

    def c_prime(self, u):
        return 0.0

    def c_and_c_prime(self, u):
        # one call, as the other models make, rather than the base's two
        return float(self.value), 0.0


@dataclass(frozen=True)
class TabulatedSpeed(WaveSpeedModel):
    """Speed interpolated from (knot, value) tables.

    Monotone cubic (PCHIP) interpolation keeps c within the hull of the
    table values, so the declared bounds survive interpolation.  The
    interpolant is C1 at the knots; callers needing more smoothness should
    use an analytic model.  ``derivative_values``, when given, are
    cross-checked against the interpolant's own knot derivatives.
    """

    knots: tuple = ()
    values: tuple = ()
    derivative_values: tuple | None = None
    _interp: object = field(init=False, repr=False, compare=False)
    _interp_d: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # scipy is needed by this model alone; importing it here keeps it
        # out of every run that does not tabulate its speed
        from scipy.interpolate import PchipInterpolator

        super().__post_init__()
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.size < 2:
            raise BoundsViolation("tabulated speed needs at least two knots")
        if np.any(np.diff(knots) <= 0):
            raise BoundsViolation("knots must be strictly increasing")
        if np.any(values <= 0):
            raise BoundsViolation("tabulated speeds must be positive")
        interp = PchipInterpolator(knots, values, extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_interp_d", interp.derivative())
        if self.derivative_values is not None:
            dv = np.asarray(self.derivative_values, dtype=float)
            got = self._interp_d(knots)
            if not np.allclose(dv, got, rtol=1e-8, atol=1e-10):
                raise BoundsViolation(
                    "supplied derivative values disagree with the monotone "
                    "cubic interpolant at the knots"
                )

    def probe_interval(self) -> tuple[float, float]:
        return (float(self.knots[0]), float(self.knots[-1]))

    def off_table(self, u) -> bool:
        """Whether an angle of u lies off the knots, where c and c' are NaN."""
        lo, hi = self.probe_interval()
        return bool(np.any((u < lo) | (u > hi)))

    def c(self, u):
        u = np.asarray(u, dtype=float)
        out = self._interp(u)
        return out if out.ndim else float(out)

    def c_prime(self, u):
        u = np.asarray(u, dtype=float)
        out = self._interp_d(u)
        return out if out.ndim else float(out)


def validate_bounds(model: WaveSpeedModel, probe_count: int = 100_000) -> SpeedBoundsReport:
    """Sample c and c' on a dense probe grid and check the declared bounds:
    BoundsViolation if min c < c0, max c > c1 or max |c'| > c1 beyond a
    relative tolerance of 1e-12.

    The probe grid is one ``np.linspace``, evaluated by ``c_and_c_prime`` on
    slices of PROBE_BLOCK points, so the temporaries of a call are those of
    one block.  The block extrema are reduced by ``np.min`` and ``np.max``:
    the report holds the floats of whole-grid reductions, and a NaN in any
    block is the extremum it would be there.  The probe raises no numpy
    floating-point warning: an overflowing sample is an inf the check reports.
    """
    if probe_count < 2:
        raise ValueError("probe_count must be at least 2")
    lo, hi = model.probe_interval()
    u = np.linspace(lo, hi, probe_count)
    mins, maxs, cp_maxs = [], [], []
    with np.errstate(all="ignore"):
        for i in range(0, probe_count, PROBE_BLOCK):
            c, cp = model.c_and_c_prime(u[i : i + PROBE_BLOCK])
            mins.append(np.min(c))
            maxs.append(np.max(c))
            cp_maxs.append(np.max(np.abs(cp)))
    c_min, c_max, cp_max = float(np.min(mins)), float(np.max(maxs)), float(np.max(cp_maxs))
    slack0 = _REL_TOL * abs(model.c0)
    slack1 = _REL_TOL * abs(model.c1)
    ok = (
        c_min >= model.c0 - slack0
        and c_max <= model.c1 + slack1
        and cp_max <= model.c1 + slack1
    )
    report = SpeedBoundsReport(
        c_min=c_min,
        c_max=c_max,
        c_prime_max=cp_max,
        declared_c0=model.c0,
        declared_c1=model.c1,
        probe_count=probe_count,
        ok=ok,
    )
    if not ok:
        raise BoundsViolation(
            f"declared bounds c0={model.c0}, c1={model.c1} violated: "
            f"sampled min c={c_min}, max c={c_max}, max |c'|={cp_max}"
        )
    return report
