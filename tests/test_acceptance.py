"""End-to-end acceptance criteria.

Every test prints one `ACCEPTANCE <n> PASS|FAIL` line with the measured
numbers before asserting, so the verdicts survive in the captured output.

Known honest failures at desk scale (analysis in the project notes):
the steep-bump data required by the blow-up construction winds the angle
across many monotonicity periods of c(u), and on a fixed Eulerian grid the
forming cusp narrows like (amplification)^-2, so the numerical max of
|S|/r^alpha stalls at ~1.2-2.2x its initial value (growing only like
N^(1/3)) instead of crossing the 1e4x detection ceiling.  Criteria 4 and 5
depend on that crossing (or on a clean field inside the triangle) and
fail; criterion 6's sign and decay monitors fail once the stalled field
decoheres.  The machinery itself is validated on resolvable data in the
module test suites.
"""

import math

import numpy as np
import pytest

from varwave import (
    CharacteristicPath,
    ConstantSpeed,
    Grid,
    OseenFrankSpeed,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    Stepper,
    blowup_verdict,
    build_blowup_report,
    c_prime_sign_along,
    compute_constants,
    init_state,
    initial_riemann,
    run,
    triangle_identity,
    u_drift_along,
)
from varwave.diagnostics import EnergyObserver, EnergyTrace, InvSObserver

SQRT2 = math.sqrt(2.0)
CANONICAL = dict(d=3, r0=1.0, u0=math.pi / 4)


def _line(criterion: int, ok: bool, msg: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {msg}")
    return ok


def canonical_speed():
    return OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)


def canonical_setup(eps):
    return ProblemSetup.theorem(eps=eps, speed=canonical_speed(), **CANONICAL)


@pytest.fixture(scope="module")
def blowup_run():
    """Canonical eps=0.05 detection runs with all monitors, N=4096 and 8192."""
    setup = canonical_setup(0.05)
    constants = compute_constants(setup)
    out = {"setup": setup, "constants": constants}
    for n in (4096, 8192):
        grid = Grid.uniform(*setup.domain, n)
        hat = CharacteristicPath("plus", setup.r0, grid, setup.speed)
        inv_s = InvSObserver(hat, setup, constants)
        peak = {"g": 0.0, "t": 0.0}
        stepper = Stepper(setup, grid, SchemeConfig())

        def track(state, stepper=stepper, peak=peak):
            g, _ = stepper.gradient_max(state)
            if g > peak["g"]:
                peak["g"], peak["t"] = g, state.t

        result = run(setup, grid, SchemeConfig(), observers=(hat, inv_s, track))
        report = build_blowup_report(result, inv_s, constants, setup)
        out[n] = {
            "result": result,
            "report": report,
            "hat": hat,
            "inv_s": inv_s,
            "peak": peak,
            "g0": stepper.gradient_max(init_state(setup, grid))[0],
        }
    return out


@pytest.fixture(scope="module")
def energy_anchor():
    """Gradient-peak time of the eps=0.1 canonical run at N=4096.

    The detection ceiling is never crossed at this resolution (see module
    docstring), so the steepening peak time stands in for t_detect as the
    anchor of the pre-blow-up energy window.
    """
    setup = canonical_setup(0.1)
    grid = Grid.uniform(*setup.domain, 4096)
    stepper = Stepper(setup, grid, SchemeConfig())
    history = []  # (max gradient, t) at t=0 and after every step

    def track(state):
        history.append((stepper.gradient_max(state)[0], state.t))

    # the default ceiling is the 1e4x detection level
    result = run(setup, grid, SchemeConfig(), observers=(track,))
    g0 = history[0][0]
    peak_g, peak_t = max(history, key=lambda gt: gt[0])
    return {
        "setup": setup,
        "anchor": result.t_detect if result.detected else peak_t,
        "detected": result.detected,
        "peak_ratio": peak_g / g0,
    }


class TestCriterion1:
    def test_exact_transport_regression(self):
        # d=1, constant c=1, eps=0.1: R and S translate rigidly; compare to
        # the shifted initial profiles after t=0.3 and measure the order
        setup = ProblemSetup.theorem(
            d=1, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=1.0),
        )
        T = 0.3
        errs = {}
        for n in (1024, 2048, 4096):
            grid = Grid.uniform(*setup.domain, n)
            state = run(setup, grid, SchemeConfig(), t_end=T).state
            R_exact, _ = initial_riemann(setup, grid.r + T)
            _, S_exact = initial_riemann(setup, grid.r - T)
            errs[n] = (
                float(np.sum(np.abs(state.R - R_exact)) * grid.h),
                float(np.sum(np.abs(state.S - S_exact)) * grid.h),
            )
        order_R = math.log2(errs[2048][0] / errs[4096][0])
        order_S = math.log2(errs[2048][1] / errs[4096][1])
        monotone = (
            errs[1024][0] > errs[2048][0] > errs[4096][0]
            and errs[1024][1] > errs[2048][1] > errs[4096][1]
        )
        ok = 0.9 <= order_R <= 1.1 and 0.9 <= order_S <= 1.1 and monotone
        _line(
            1,
            ok,
            f"transport L1 orders R={order_R:.3f} S={order_S:.3f} "
            f"(finest pair, window [0.9, 1.1]); errors at N=4096: "
            f"R={errs[4096][0]:.3e} S={errs[4096][1]:.3e}",
        )
        assert monotone
        assert 0.9 <= order_R <= 1.1
        assert 0.9 <= order_S <= 1.1


class TestCriterion2:
    def test_energy_conservation_window(self, energy_anchor):
        setup = energy_anchor["setup"]
        T = 0.5 * energy_anchor["anchor"]
        drifts = {}
        for n in (4096, 8192):
            grid = Grid.uniform(*setup.domain, n)
            obs = EnergyObserver(grid, setup.speed)
            run(setup, grid, SchemeConfig(), observers=(obs,), t_end=T)
            drifts[n] = EnergyTrace.from_observer(obs).max_relative_drift
        drift_4096, drift_8192 = drifts[4096], drifts[8192]
        ratio = drift_8192 / drift_4096
        anchor_kind = "t_detect" if energy_anchor["detected"] else "gradient-peak time"
        ok = drift_4096 <= 0.05 and 0.35 <= ratio <= 0.65
        _line(
            2,
            ok,
            f"energy drift over [0, {T:.5f}] ({anchor_kind} anchor): "
            f"{drift_4096:.4%} at N=4096 (<=5%), refinement ratio "
            f"{ratio:.3f} (in [0.35, 0.65])",
        )
        assert drift_4096 <= 0.05
        assert 0.35 <= ratio <= 0.65


class TestCriterion3:
    def test_initial_energy_bound(self):
        # strict quadrature inequality, no tolerance
        results = []
        for eps in (0.02, 0.05, 0.1):
            setup = canonical_setup(eps)
            constants = compute_constants(setup)
            grid = Grid.uniform(*setup.domain, 4096)
            state = init_state(setup, grid)
            e0 = float(np.trapezoid(state.R**2 + state.S**2, grid.r))
            bound = constants.K_envelope * setup.r0 ** (2 * setup.alpha) * eps
            results.append((eps, e0, bound, e0 <= bound))
        ok = all(r[3] for r in results)
        detail = "; ".join(f"eps={r[0]}: E0={r[1]:.6g} <= {r[2]:.6g}" for r in results)
        _line(3, ok, detail)
        for eps, e0, bound, passed in results:
            assert passed, f"E(0) exceeds envelope at eps={eps}"


class TestCriterion4:
    def test_triangle_identity_residual(self):
        # r2 - r1 = 0.3 < 2 c0 (r0 - eps)/c1 ~ 1.27 at eps = 0.1
        setup = canonical_setup(0.1)
        residuals = {}
        for n in (2048, 4096, 8192):
            grid = Grid.uniform(*setup.domain, n)
            rep, _, _ = triangle_identity(setup, grid, SchemeConfig(), 0.85, 1.15)
            residuals[n] = rep.residual
        order = math.log2(residuals[4096] / residuals[8192])
        ok = residuals[4096] <= 0.08 and order >= 0.9
        _line(
            4,
            ok,
            f"triangle residuals 2048/4096/8192 = "
            f"{residuals[2048]:.4f}/{residuals[4096]:.4f}/{residuals[8192]:.4f}, "
            f"refinement order {order:.3f} (need residual<=0.08 at N=4096, "
            f"order>=0.9); fails: the stalled cusp dissipates energy inside "
            f"the triangle at steep-bump amplitude (machinery validated on "
            f"resolvable data in test_diagnostics)",
        )
        assert residuals[4096] <= 0.08, "triangle residual above 8% at N=4096"
        assert order >= 0.9, "triangle residual not first-order under refinement"


class TestCriterion5:
    def test_blowup_detection_before_final_time(self, blowup_run):
        setup = blowup_run["setup"]
        constants = blowup_run["constants"]
        r4, r8 = blowup_run[4096], blowup_run[8192]
        det4, det8 = r4["result"].detected, r8["result"].detected
        if det4 and det8:
            t4, t8 = r4["result"].t_detect, r8["result"].t_detect
            stable = abs(t8 - t4) / t4 <= 0.10
            sharper = (
                r4["report"].t_star_extrapolated is not None
                and r4["report"].t_star_extrapolated < constants.t_star_bound
            )
            ok = t4 < setup.t_final and stable
            _line(
                5,
                ok,
                f"t_detect={t4:.5f} (N=4096) vs {t8:.5f} (N=8192), "
                f"t_final={setup.t_final:.5f}, sharper-bound flag={sharper}",
            )
            assert ok
        else:
            peak4 = r4["peak"]["g"] / r4["g0"]
            peak8 = r8["peak"]["g"] / r8["g0"]
            _line(
                5,
                False,
                f"no gradient-ceiling crossing before t_final: "
                f"max growth {peak4:.2f}x (N=4096) / {peak8:.2f}x (N=8192) "
                f"vs required 1e4x; the Eulerian cusp width collapses like "
                f"growth^-2, capping trackable amplification at ~1.2-2.2x "
                f"(stall level grows only like N^(1/3))",
            )
            pytest.fail(
                "gradient ceiling 1e4x never crossed: numerical steepening "
                f"stalls at {peak4:.2f}x (N=4096), {peak8:.2f}x (N=8192)"
            )


class TestCriterion6:
    def test_proof_step_monitors(self, blowup_run):
        setup = blowup_run["setup"]
        constants = blowup_run["constants"]
        r4 = blowup_run[4096]
        drift = u_drift_along(r4["hat"], constants)
        sign = c_prime_sign_along(r4["hat"], setup)
        report = r4["report"]
        ineq_ok = report.inequality_fraction >= 0.95
        s_ok = report.s_gt1_after_first
        ok = drift.ok and sign.ok and ineq_ok and s_ok
        _line(
            6,
            ok,
            f"u-drift {drift.max_drift:.3f} <= {drift.bound:.1f}: {drift.ok}; "
            f"min c' {sign.min_c_prime:.3f} >= {sign.threshold:.4f}: {sign.ok}; "
            f"1/S decay inequality at {report.inequality_fraction:.1%} of "
            f"samples (>=95%): {ineq_ok}; S>1 after first sample: {s_ok} "
            f"(sign and decay monitors fail after the stalled field "
            f"decoheres, around t~0.01 of {setup.t_final:.3f})",
        )
        assert drift.ok, "u-drift bound violated"
        assert sign.ok, "c' sign margin lost along the hat path"
        assert ineq_ok, "1/S decay inequality below 95% of samples"
        assert s_ok, "S dropped to 1 or below along the hat path"


class TestCriterion7:
    def test_negative_control_no_blowup(self):
        # same profile amplitude, but k1=k3=1 kills c' and with it the
        # quadratic gradient source; the run must reach t_final quietly
        amplitude = canonical_setup(0.05).profile.amplitude
        flat = OseenFrankSpeed(c0=1.0, c1=1.0, k1=1.0, k3=1.0)
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=math.pi / 4, speed=flat,
            profile=PolynomialBump(amplitude=amplitude),
        )
        grid = Grid.uniform(*setup.domain, 4096)
        stepper = Stepper(setup, grid, SchemeConfig())
        peak = {"g": 0.0}

        def track(state):
            g, _ = stepper.gradient_max(state)
            peak["g"] = max(peak["g"], g)

        result = run(setup, grid, SchemeConfig(), observers=(track,))
        g0, _ = stepper.gradient_max(init_state(setup, grid))
        growth = peak["g"] / g0
        ok = (not result.detected) and result.reason == "t_final" and growth <= 2.0
        _line(
            7,
            ok,
            f"constant-speed control reached t_final={setup.t_final:.3f} "
            f"undetected with max gradient growth {growth:.3f}x (<=2x): the "
            f"quadratic gradient term is the blow-up driver",
        )
        assert not result.detected
        assert result.reason == "t_final"
        assert growth <= 2.0


class TestCriterion8:
    def test_constants_against_hand_oracle(self):
        setup = canonical_setup(0.05)
        constants = compute_constants(setup)
        # independent straight-line evaluation from raw inputs
        r0, eps, alpha, c0, c1 = 1.0, 0.05, 1.0, 1.0, SQRT2
        cp0 = (2.0 - 1.0) * math.sin(math.pi / 4) * math.cos(math.pi / 4) / math.sqrt(
            2.0 * 0.5 + 1.0 * 0.5
        )
        a = 2.0 * max(32.0 * c1**2 * 2.0**alpha / (r0 * c0 * cp0), 1.0 / (c0 * r0**alpha))
        iphi = a * a * 256.0 / 315.0
        k_env = (eps**2 + (2 * c1 + eps) ** 2) * (r0 + eps) ** (2 * alpha) / r0 ** (
            2 * alpha
        ) * iphi
        m = k_env * c1 * r0**alpha * math.sqrt(r0) / (4 * c0**2) + alpha * math.sqrt(
            k_env * c1
        ) * r0**alpha / math.sqrt(r0 * c0)
        sqrt_eps0 = min(
            r0 * cp0 / (64 * m * c1**2 * (2 * r0) ** alpha),
            1 / (2 * m),
            math.sqrt(r0 / 2),
            math.sqrt(c0),
        )
        rel = lambda got, exp: abs(got - exp) / abs(exp)
        checks = {
            "M": rel(constants.M, m),
            "eps0": rel(constants.eps0, sqrt_eps0**2),
            "K_envelope": rel(constants.K_envelope, k_env),
        }
        formulas_ok = all(v <= 1e-12 for v in checks.values())

        # t_star_bound < t_final for every admissible eps (algebraic in eps)
        eps_grid = np.linspace(1e-9, 0.5 - 1e-9, 1001)
        bounds = (1.0 - eps_grid) / (2 * c1) + 1.0 / (4 * c1)
        finals = (1.0 - eps_grid) / c1
        times_ok = bool(np.all(bounds < finals))

        ok = formulas_ok and times_ok
        _line(
            8,
            ok,
            f"constants vs hand oracle rel errors {checks} (<=1e-12); "
            f"t_star_bound < t_final across admissible eps: {times_ok}",
        )
        assert formulas_ok
        assert times_ok
