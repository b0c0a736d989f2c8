"""The package namespace: every exported name resolves to its module's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varwave

# the names ``varwave`` exports, by the submodule that defines them
EXPORTS = {
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
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_the_table_holds_54_names():
    assert len(NAMES) == len({name for _, name in NAMES}) == 54


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_modules_object(module, name):
    owner = importlib.import_module(f"varwave.{module}")
    namespace = {}
    exec(f"from varwave import {name}", namespace)
    assert namespace[name] is getattr(owner, name)
    assert getattr(varwave, name) is getattr(owner, name)


def test_all_and_dir_list_every_export():
    names = {name for _, name in NAMES}
    assert sorted(varwave.__all__) == sorted(names)
    assert names <= set(dir(varwave))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        varwave.no_such_name
    assert not hasattr(varwave, "no_such_name")


def test_bare_import_gives_the_submodules():
    # a fresh interpreter, where nothing has imported a submodule yet
    proc = subprocess.run(
        [sys.executable, "-c", "import varwave; print(varwave.solver.__name__)"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "varwave.solver"


def test_a_name_is_not_stored_on_the_package(monkeypatch):
    # resolved on each access: a function patched on its module, and put
    # back, is what the package gives at every moment
    solver = importlib.import_module("varwave.solver")
    original = varwave.run

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "run", patched)
    assert varwave.run is patched
    monkeypatch.undo()
    assert varwave.run is original
    assert "run" not in vars(varwave)
