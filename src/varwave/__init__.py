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

import importlib

# Each exported name by the submodule that owns it.  A name resolves, and
# its submodule is imported, when it is first looked up (PEP 562), so a
# command loads only what it runs: ``convergence`` never imports the
# characteristic solver, the path tracer or the SVG writer.
_OWNERS = {
    "characteristics": (
        "CharacteristicPath", "DriftReport", "PathSamples", "SignReport",
        "c_prime_margin", "c_prime_sign_along", "find_intersection", "u_drift_along",
    ),
    "charsolver": ("CharRun", "blowup_sweep"),
    "diagnostics": (
        "BlowupReport", "EnergyObserver", "TheoremConstants", "TriangleReport",
        "blowup_time_estimate", "build_blowup_report", "build_report",
        "characteristic_triangle_identity", "compute_constants",
        "initial_energy_exact", "triangle_identity",
    ),
    "errors": (
        "BoundsViolation", "ConfigError", "DomainMismatch", "HypothesisViolated",
        "NoIntersection", "NonFiniteState", "PathLeftDomain", "SpeedNotIncreasing",
        "VarwaveError",
    ),
    "initial_data": (
        "BumpProfile", "CustomBump", "PolynomialBump", "ProblemSetup",
        "auto_domain", "initial_riemann", "theorem_amplitude",
    ),
    "riemann_core": ("from_riemann", "rhs_fields", "source_coefficients", "to_riemann"),
    "solver": ("Grid", "GridState", "RunResult", "SchemeConfig", "Stepper", "init_state", "run"),
    "speed_models": (
        "ConstantSpeed", "OseenFrankSpeed", "SpeedBoundsReport", "TabulatedSpeed",
        "WaveSpeedModel", "validate_bounds",
    ),
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    # looked up on every access and never stored here: a tracer that patches
    # a function on its module, and later restores it, is seen at once
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    if name in _OWNERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
