"""Simulator and diagnostics for the radial nonlinear variational wave equation.

The equation u_tt - c(u)(c(u) u_r)_r - (d-1) c^2(u) u_r / r = 0 models
spherically symmetric director waves in nematic liquid crystals.  In the
weighted Riemann variables R, S it becomes a diagonal first-order system
whose quadratic self-interaction steepens gradients: with c'(u0) > 0 and
steep enough bump data, S blows up in finite time while u stays bounded.
This package evolves the discrete system, traces characteristics through
the evolving field, and verifies the quantitative ingredients of that
mechanism (energy conservation, the characteristic-triangle identity, the
1/S decay and the derived constants) on the discrete solution.  A second,
conservative solver in characteristic coordinates (``charsolver``) resolves
the blow-up itself.
"""

from .characteristics import (
    CharacteristicPath,
    DriftReport,
    PathSamples,
    SignReport,
    c_prime_margin,
    c_prime_sign_along,
    find_intersection,
    u_drift_along,
)
from .charsolver import CharRun, blowup_sweep
from .diagnostics import (
    BlowupReport,
    EnergyObserver,
    TheoremConstants,
    TriangleReport,
    blowup_time_estimate,
    build_blowup_report,
    build_report,
    characteristic_triangle_identity,
    compute_constants,
    initial_energy_exact,
    triangle_identity,
)
from .errors import (
    BoundsViolation,
    ConfigError,
    DomainMismatch,
    HypothesisViolated,
    NoIntersection,
    NonFiniteState,
    PathLeftDomain,
    SpeedNotIncreasing,
    VarwaveError,
)
from .initial_data import (
    BumpProfile,
    CustomBump,
    PolynomialBump,
    ProblemSetup,
    auto_domain,
    initial_fields,
    initial_riemann,
    theorem_amplitude,
)
from .riemann_core import (
    from_riemann,
    rhs_fields,
    to_riemann,
)
from .solver import (
    Grid,
    GridState,
    RunResult,
    SchemeConfig,
    Stepper,
    init_state,
    run,
)
from .speed_models import (
    ConstantSpeed,
    OseenFrankSpeed,
    SpeedBoundsReport,
    TabulatedSpeed,
    WaveSpeedModel,
    validate_bounds,
)

__version__ = "0.1.0"
