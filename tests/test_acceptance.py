"""End-to-end acceptance criteria.

Every criterion test prints one `ACCEPTANCE <n> PASS|FAIL` line with the
measured numbers before asserting, so the verdicts survive in the captured
output; a cause, built from the measured numbers, is appended only on FAIL.
Two further tests in ``TestCriterion6`` show why its data moved.

Criteria 4, 5 and 6 run the conservative solver in characteristic
coordinates (``varwave.charsolver``); the measured causes:

* On the fixed Eulerian grid the forming cusp narrows like growth^-2:
  max |S|/r^alpha grows only 1.37x (N=4096) and 1.58x (N=8192) before
  t_final against the 1e4x ceiling, and local refinement on [0.92, 1.08]
  reaches 2.36x, 3.30x and 4.63x at h = 4e-5, 1e-5 and 2.5e-6, still
  rising.  In characteristic coordinates S -> infinity is z -> pi on a
  smooth grid, and the canonical eps=0.05 data blow up at t* = 0.0083,
  r* = 1.0145 (criterion 5).
* The criterion-4 triangle (eps=0.1, feet 0.85/1.15, apex t_m = 0.124)
  contains blow-ups.  The upwind scheme dissipates about 49% of the energy
  the identity counts (residual |lhs - rhs|/rhs = 0.49 at N = 2048 to
  8192); the conservative solution keeps the identity through the
  singularities.
* Criterion 6 runs at eps = 1e-7.  On the eps = 0.05 data u on the hat path
  falls from pi/4 to about 0.12 by t = 0.007, c' drops below c'(u0)/4 and
  the blow-up happens off the hat path, so no solver can pass the sign
  monitor there; the theorem's own eps0 = 2.4e-18 lies below ulp(1) at
  r0 = 1, so its data cannot be represented either.  At eps = 1e-7 the
  a-priori u-drift bound (0.425) lies inside the c' margin (0.640), the
  precondition under which the proof's drift estimate keeps the sign; the
  test asserts it.  Its line also prints the eps = 0.05 monitors.

Criterion 2 keeps the Eulerian solver: its energy window ends before the
blow-up, and its anchor is documented on ``energy_anchor``.
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
    blowup_sweep,
    blowup_time_estimate,
    build_blowup_report,
    c_prime_margin,
    c_prime_sign_along,
    characteristic_triangle_identity,
    compute_constants,
    init_state,
    initial_riemann,
    run,
    u_drift_along,
)
from varwave.charsolver import Line, march, place_nodes
from varwave.diagnostics import EnergyObserver

SQRT2 = math.sqrt(2.0)
CANONICAL = dict(d=3, r0=1.0, u0=math.pi / 4)


def _line(criterion: int, ok: bool, msg: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {msg}")
    return ok


def canonical_speed():
    return OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)


def canonical_setup(eps):
    return ProblemSetup.theorem(eps=eps, speed=canonical_speed(), **CANONICAL)


def hat_monitors(setup, n):
    """Characteristic-coordinate sweep with the hat-path monitors, N feet."""
    constants = compute_constants(setup)
    result, hat = blowup_sweep(setup, n)
    return {
        "result": result,
        "hat": hat,
        "report": build_blowup_report(result, hat, constants, setup),
        "drift": u_drift_along(hat, constants),
        "sign": c_prime_sign_along(hat, setup),
    }


def margin_lost_at(hat, sign, setup):
    """First hat-path time with c'(u) below the threshold, or None."""
    low = np.nonzero(np.asarray(setup.speed.c_prime(hat.u)) < sign.threshold)[0]
    return float(hat.t[low[0]]) if low.size else None


@pytest.fixture(scope="module")
def blowup_run():
    """Canonical eps=0.05 detection sweeps with all monitors, N=4096 and 8192 feet."""
    setup = canonical_setup(0.05)
    out = {"setup": setup}
    for n in (4096, 8192):
        out[n] = hat_monitors(setup, n)
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
            _, R_exact, _ = initial_riemann(setup, grid.r + T)
            _, _, S_exact = initial_riemann(setup, grid.r - T)
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
            obs = EnergyObserver(grid)
            run(setup, grid, SchemeConfig(), observers=(obs,), t_end=T)
            drifts[n] = obs.max_relative_drift
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


@pytest.fixture(scope="module")
def triangle_passage():
    """Full sweeps (no stop at detection) of criterion 4's triangle on 512 and
    1024 feet, each with its plus line from 0.85 and minus line from 1.15."""
    setup = canonical_setup(0.1)
    out = {}
    for n in (512, 1024):
        nodes = place_nodes(setup, n, 0.85, 1.15)
        plus, minus = Line("plus", nodes, 0.85), Line("minus", nodes, 1.15)
        res = march(setup, nodes, (plus, minus), stop_at_detection=False)
        out[n] = res, plus.line(), minus.line()
    return out


class TestCriterion4:
    def test_triangle_contains_a_blow_up(self, triangle_passage):
        # z passes pi at t = 0.011133 / 0.011129, far below the apex at
        # t = 0.120 / 0.124; the first detection's r moves from 1.035 to
        # 1.096 between the grids, so it is not pinned
        t_detect = {}
        for n, (res, plus, minus) in triangle_passage.items():
            apex = plus.t[-1]
            assert res.reason == "apex" and apex == minus.t[-1]
            assert res.detected and math.isinf(res.peak_gradient)
            assert res.t_detect < apex / 5.0
            t_detect[n] = res.t_detect
        assert t_detect[512] == pytest.approx(t_detect[1024], rel=1e-3)

    def test_triangle_identity_residual(self, triangle_passage):
        # r2 - r1 = 0.3 < 2 c0 (r0 - eps)/c1 ~ 1.27 at eps = 0.1
        setup = canonical_setup(0.1)
        residuals = {}
        for n in (2048, 4096, 8192):
            rep, _, _ = characteristic_triangle_identity(setup, n, 0.85, 1.15)
            residuals[n] = rep.residual
        order = math.log2(residuals[4096] / residuals[8192])
        small, steep = residuals[4096] <= 0.08, order >= 0.9
        ok = small and steep
        causes = []
        if not small:
            causes.append(f"residual {residuals[4096]:.4f} above 0.08 at N=4096")
        if not steep:
            causes.append(f"residual falls with order {order:.3f} < 0.9")
        _line(
            4,
            ok,
            f"triangle residuals 2048/4096/8192 = "
            f"{residuals[2048]:.3e}/{residuals[4096]:.3e}/{residuals[8192]:.3e}, "
            f"refinement order {order:.3f} (need residual<=0.08 at N=4096, "
            f"order>=0.9), apex t_m={rep.t_m:.4f}, through the z = pi passage "
            f"at t={triangle_passage[1024][0].t_detect:.4f} inside the triangle"
            + ("" if ok else "; fails: " + "; ".join(causes)),
        )
        assert residuals[4096] <= 0.08, "triangle residual above 8% at N=4096"
        assert order >= 0.9, "triangle residual not first-order under refinement"


class TestCriterion5:
    def test_blowup_detection_before_final_time(self, blowup_run):
        setup = blowup_run["setup"]
        r4, r8 = blowup_run[4096]["result"], blowup_run[8192]["result"]
        if r4.detected and r8.detected:
            t4, t8 = r4.t_detect, r8.t_detect
            shift = abs(t8 - t4) / t4
            stable = shift <= 0.10
            sharper = blowup_run[4096]["report"].t_star_within_paper_bound
            ok = t4 < setup.t_final and stable
            causes = []
            if t4 >= setup.t_final:
                causes.append(f"detection at t={t4:.5f} not before t_final")
            if not stable:
                causes.append(f"t_detect moved {shift:.1%} between N=4096 and 8192 (>10%)")
            _line(
                5,
                ok,
                f"t_detect={t4:.5f} (N=4096) vs {t8:.5f} (N=8192) at "
                f"r={r4.r_detect:.4f}, t_final={setup.t_final:.5f}, "
                f"sharper-bound flag={sharper}"
                + ("" if ok else "; fails: " + "; ".join(causes)),
            )
            assert ok
        else:
            growth = {
                n: r.peak_gradient / r.initial_gradient for n, r in ((4096, r4), (8192, r8))
            }
            _line(
                5,
                False,
                f"no gradient-ceiling crossing before t_final; fails: peak "
                f"growth {growth[4096]:.3g}x (N=4096, sweep ended by {r4.reason}) / "
                f"{growth[8192]:.3g}x (N=8192, {r8.reason}) vs required 1e4x",
            )
            pytest.fail(
                "gradient ceiling 1e4x never crossed: peak growth "
                f"{growth[4096]:.3g}x (N=4096), {growth[8192]:.3g}x (N=8192)"
            )


class TestCriterion6:
    def test_proof_step_monitors(self, blowup_run):
        # eps = 1e-7: the drift bound fits inside the c' margin (module docstring)
        setup = canonical_setup(1e-7)
        m = hat_monitors(setup, 4096)
        drift, sign, report, result = m["drift"], m["sign"], m["report"], m["result"]
        margin = c_prime_margin(setup)
        inside = drift.bound <= margin
        ineq_ok = report.inequality_fraction >= 0.95
        s_ok = report.s_gt1_after_first
        ok = inside and drift.ok and sign.ok and ineq_ok and s_ok
        hat = m["hat"]
        causes = []
        if not inside:
            causes.append(f"drift bound {drift.bound:.3f} exceeds the c' margin {margin:.3f}")
        if not drift.ok:
            causes.append(f"u drifted {drift.max_drift:.3g} > {drift.bound:.3g}")
        if not sign.ok:
            causes.append(f"c' margin lost at t={margin_lost_at(hat, sign, setup):.5f}")
        if not ineq_ok:
            causes.append(
                f"{report.inequality_violations} of {report.inequality_checks} "
                f"1/S steps break the decay inequality"
            )
        if not s_ok:
            causes.append(f"S fell to {float(np.min(hat.S[1:])):.3g} on the hat path")
        detected = (
            f"detected at t={result.t_detect:.5f}" if result.detected else "not detected"
        )
        # the eps = 0.05 monitors, measured but not asserted
        m05 = blowup_run[4096]
        lost05 = margin_lost_at(m05["hat"], m05["sign"], blowup_run["setup"])
        _line(
            6,
            ok,
            f"eps=1e-07, N=4096: u-drift bound {drift.bound:.3f} inside the c' margin "
            f"{margin:.3f}: {inside}; u-drift {drift.max_drift:.3g} <= "
            f"{drift.bound:.3f}: {drift.ok}; min c' {sign.min_c_prime:.3f} >= "
            f"{sign.threshold:.4f}: {sign.ok}; 1/S decay inequality at "
            f"{report.inequality_fraction:.1%} of samples (>=95%): {ineq_ok}; S>1 "
            f"after first sample: {s_ok}; {detected} (Riccati estimate "
            f"{blowup_time_estimate(setup):.5f}); at eps=0.05 (not asserted): u-drift "
            f"{m05['drift'].max_drift:.3f}, min c' {m05['sign'].min_c_prime:.3f}"
            + (f" (margin lost at t={lost05:.5f})" if lost05 is not None else "")
            + f", 1/S inequality at {m05['report'].inequality_fraction:.1%}"
            + ("" if ok else "; fails: " + "; ".join(causes)),
        )
        assert inside, "u-drift bound exceeds the c' sign margin: data outside the proof"
        assert drift.ok, "u-drift bound violated"
        assert sign.ok, "c' sign margin lost along the hat path"
        assert ineq_ok, "1/S decay inequality below 95% of samples"
        assert s_ok, "S dropped to 1 or below along the hat path"

    def test_eps_1e7_is_the_largest_decade_inside_the_margin(self):
        # the sign step of the proof needs the a-priori u-drift bound inside
        # the angle margin on which c' >= c'(u0)/4; eps0 itself stands on a
        # proxy for that margin (compute_constants) and is below ulp(r0)
        margin = c_prime_margin(canonical_setup(1e-7))
        bound = {k: compute_constants(canonical_setup(10.0**-k)).u_drift_bound for k in (6, 7)}
        assert bound[7] <= margin < bound[6]
        assert compute_constants(canonical_setup(1e-7)).eps0 < math.ulp(1.0)

    def test_eps_005_data_lose_the_sign_margin_before_blowup(self, blowup_run):
        # why criterion 6 does not run on the eps = 0.05 data: c' falls below
        # c'(u0)/4 on the hat path before the blow-up, at both resolutions,
        # and muscl2 refinement converges to the same u on that path
        setup = blowup_run["setup"]
        lost = {}
        for n in (4096, 8192):
            m = blowup_run[n]
            lost[n] = margin_lost_at(m["hat"], m["sign"], setup)
            assert lost[n] is not None and lost[n] < m["result"].t_detect
        assert lost[8192] == pytest.approx(lost[4096], rel=1e-3)
        assert 0.0070 < lost[8192] < 0.0073
        T = 0.007
        hat = blowup_run[8192]["hat"]
        u_char = float(np.interp(T, hat.t, hat.u))
        u_muscl = []
        for n in (8192, 16384, 32768):
            grid = Grid.uniform(*setup.domain, n)
            path = CharacteristicPath("plus", setup.r0, grid, setup.speed)
            run(setup, grid, SchemeConfig(scheme="muscl2"), observers=(path,), t_end=T)
            u_muscl.append(path.u[-1])
        d1, d2 = u_muscl[1] - u_muscl[0], u_muscl[2] - u_muscl[1]
        assert d1 < d2 < 0.0  # falling, with shrinking steps
        aitken = u_muscl[2] - d2 * d2 / (d2 - d1)
        print(
            f"eps=0.05 hat path: c' margin lost at t={lost[4096]:.6f} (N=4096) / "
            f"{lost[8192]:.6f} (N=8192); u(t={T}) = {u_char:.4f} characteristic, "
            f"muscl2 {u_muscl[0]:.4f}/{u_muscl[1]:.4f}/{u_muscl[2]:.4f} at "
            f"N=8192/16384/32768, Aitken limit {aitken:.4f}"
        )
        assert aitken == pytest.approx(u_char, abs=0.01)


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
