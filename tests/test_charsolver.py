"""The conservative solver in characteristic coordinates (varwave.charsolver).

It is checked where its answer is known: exact transport at constant speed
in d=1, agreement with the Eulerian muscl2 scheme on resolvable data, exact
energy balance on the characteristic triangle, and detection of a blow-up
that falls between two nodes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from varwave import (
    CharacteristicPath,
    ConstantSpeed,
    Grid,
    HypothesisViolated,
    NonFiniteState,
    PolynomialBump,
    ProblemSetup,
    SchemeConfig,
    TabulatedSpeed,
    blowup_sweep,
    characteristic_triangle_identity,
    initial_riemann,
    run,
)
from varwave.charsolver import (
    GRADING,
    gradient,
    linear_flow,
    march,
    place_nodes,
)


@pytest.fixture(scope="module")
def transport_setup():
    """Criterion 1's data: d=1, constant c=1, so R and S translate rigidly."""
    return ProblemSetup.theorem(
        d=1, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
        profile=PolynomialBump(amplitude=1.0),
    )


class TestLinearFlow:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_exponential(self, seed):
        rng = np.random.default_rng(seed)
        n, d, diag, a, b = rng.normal(size=(5, 64))
        h = np.exp(rng.normal(size=64) - 1.0)
        a[:8] = 0.0  # degenerate flows: a or b zero
        b[8:16] = 0.0
        got_n, got_d = linear_flow(n, d, diag, a, b, h)
        for i in range(64):
            K = np.array([[diag[i], a[i]], [-b[i], diag[i]]])
            ref = expm(h[i] * K) @ np.array([n[i], d[i]])
            assert got_n[i] == pytest.approx(ref[0], rel=1e-10, abs=1e-12)
            assert got_d[i] == pytest.approx(ref[1], rel=1e-10, abs=1e-12)

    def test_stiff_hyperbolic_step_keeps_direction_finite(self):
        # a b h^2 = -1e4: the vector turns onto the growing eigendirection
        n, d = linear_flow(
            np.array([0.3]), np.array([1.0]), np.array([0.0]),
            np.array([100.0]), np.array([-1.0]), 10.0,
        )
        assert np.isfinite(n[0]) and np.isfinite(d[0])
        assert n[0] / d[0] == pytest.approx(10.0, rel=1e-9)  # sqrt(-a/b)


class TestPlaceNodes:
    def test_anchors_ends_and_support_edges_are_feet(self, gentle_setup):
        nodes = place_nodes(gentle_setup, 300, 0.7, 1.3, anchors=(1.0, 1.234))
        assert nodes.n == 300
        for r in (0.7, 0.9, 1.0, 1.1, 1.234, 1.3):
            assert nodes.x[nodes.index(r)] == r
        assert np.all(np.diff(nodes.x) > 0)
        with pytest.raises(ValueError):
            nodes.index(1.0001)

    def test_even_on_support_and_graded_off_it(self, gentle_setup):
        n = 400
        nodes = place_nodes(gentle_setup, n, 0.5, 1.5)
        x, h = nodes.x, np.diff(nodes.x)
        inside = (x[:-1] >= 0.9 - 1e-12) & (x[1:] <= 1.1 + 1e-12)
        assert np.ptp(h[inside]) <= 1e-9 * h[inside].max()
        growth = h[1:] / h[:-1]
        assert np.max(np.maximum(growth, 1.0 / growth)) <= math.exp(GRADING / (n - 1)) + 1e-9

    def test_collapsed_feet_raise(self, canonical_speed):
        # at eps = 1e-16 the support's feet round onto 233 floats of 256;
        # at 1e-12 all 8192 stay distinct
        def setup(eps):
            return ProblemSetup.theorem(d=3, r0=1.0, eps=eps, u0=np.pi / 4, speed=canonical_speed)

        with pytest.raises(HypothesisViolated, match=r"^feet collapse: 233 distinct of 256 feet"):
            blowup_sweep(setup(1e-16), 256)
        fine = setup(1e-12)
        nodes = place_nodes(fine, 8192, *fine.domain, anchors=(fine.r0,))
        assert np.all(np.diff(nodes.x) > 0)

    @pytest.mark.parametrize("lo, hi", [(1.3, 0.7), (1.0, 1.0), (0.0, 1.3)])
    def test_empty_interval_rejected(self, gentle_setup, lo, hi):
        with pytest.raises(ValueError, match=r"^need 0 < lo < hi$"):
            place_nodes(gentle_setup, 300, lo, hi)

    def test_fewer_nodes_than_breaks_rejected(self, gentle_setup):
        # the breaks are 0.7, 0.9, 1.0, 1.1 and 1.3
        with pytest.raises(ValueError, match=r"^need at least 5 nodes$"):
            place_nodes(gentle_setup, 4, 0.7, 1.3, anchors=(1.0,))

    def test_line_family_other_than_plus_or_minus_rejected(self, gentle_setup):
        nodes = place_nodes(gentle_setup, 64, 0.7, 1.3, anchors=(1.0,))
        with pytest.raises(ValueError, match=r"^family must be 'plus' or 'minus'$"):
            march(gentle_setup, nodes, lines=[("plus", 1.0), ("zero", 1.0)])

    def test_label_density_matches_label_steps(self, gentle_setup):
        # rho = dX/dx: the trapezoid rule over each cell gives its label step
        # up to the O(kappa^2) curvature of the graded map
        nodes = place_nodes(gentle_setup, 4000, 0.5, 1.5, anchors=(1.0,))
        steps = np.diff(nodes.label)
        trapezoid = 0.5 * (nodes.rho[1:] + nodes.rho[:-1]) * np.diff(nodes.x)
        assert np.max(np.abs(trapezoid / steps - 1.0)) <= 1e-4


class TestTransportExact:
    def test_riemann_variables_and_geometry_exact(self, transport_setup):
        nodes = place_nodes(transport_setup, 257, 0.85, 1.15, anchors=(1.0,))
        res = march(
            transport_setup, nodes, lines=[("plus", 0.85), ("plus", 1.0), ("minus", 1.15)]
        )
        assert res.reason == "apex" and not res.detected
        x = nodes.x
        for (family, f), line in res.lines.items():
            s = line.samples()
            k = np.arange(s.t.size)
            i, j = (f + k, np.full_like(k, f)) if family == "plus" else (np.full_like(k, f), f - k)
            # node (i, j): minus line from x_i meets plus line from x_j
            np.testing.assert_allclose(s.t, 0.5 * (x[i] - x[j]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(s.r, 0.5 * (x[i] + x[j]), rtol=0, atol=1e-14)
            _, R0, _ = initial_riemann(transport_setup, x[i])
            _, _, S0 = initial_riemann(transport_setup, x[j])
            np.testing.assert_allclose(s.R, R0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s.S, S0, rtol=1e-12, atol=1e-12)

    def test_u_converges_to_dalembert(self, transport_setup):
        # u(t, r) = u(0, x_j) + 1/2 * integral of R(0, .) over [x_j, x_i]
        errs = []
        for n in (129, 257, 513):
            nodes = place_nodes(transport_setup, n, 0.85, 1.15, anchors=(1.0,))
            s = march(transport_setup, nodes, lines=[("plus", 1.0)]).line("plus", 1.0).samples()
            feet = s.r + s.t
            half_R = [
                0.5 * quad(lambda y: initial_riemann(transport_setup, y)[1], 1.0, xi, points=[1.1])[0]
                for xi in feet
            ]
            exact = initial_riemann(transport_setup, 1.0)[0] + np.asarray(half_R)
            errs.append(float(np.max(np.abs(s.u - exact))))
        assert errs[2] < 1e-4
        assert math.log2(errs[1] / errs[2]) >= 1.8

    def test_float_speed_sweep_bitwise_equals_array_speed(self, transport_setup, with_array_speed):
        # ConstantSpeed's float c is broadcast where the sweep slices and averages c
        nodes = place_nodes(transport_setup, 257, 0.85, 1.15, anchors=(1.0,))
        lines = [("plus", 0.85), ("plus", 1.0), ("minus", 1.0), ("minus", 1.15)]
        got = march(transport_setup, nodes, lines=lines)
        want = march(with_array_speed(transport_setup), nodes, lines=lines)
        assert (got.reason, got.diagonals) == (want.reason, want.diagonals) == ("apex", 256)
        for family, r in lines:
            a, b = got.samples(family, r), want.samples(family, r)
            assert a.t.size > 0
            for key in ("t", "r", "u", "R", "S"):
                np.testing.assert_array_equal(
                    getattr(a, key).view(np.uint64), getattr(b, key).view(np.uint64)
                )


class TestClosedFormD3:
    """Constant speed c = 1 in d = 3: v = r (u - u0) solves v_tt = v_rr, so
    d'Alembert gives u and S = v_t - v_r + v/r in closed form."""

    @staticmethod
    def exact_S(setup, t, r):
        r0, eps, A = setup.r0, setup.eps, setup.profile.amplitude
        phi, dphi = setup.profile.phi, setup.profile.phi_prime

        def f(s):  # v(0, s)
            return s * eps * phi((s - r0) / eps)

        def G(s):  # antiderivative of g(s) = v_t(0, s) = (eps - 1) s phi'(z), 0 off the support
            z = (s - r0) / eps
            w = np.where(np.abs(z) < 1.0, 1.0 - z * z, 0.0)
            return (eps - 1.0) * eps * (r0 * phi(z) + eps * (z * phi(z) - A * w**3 / 6.0))

        def g_minus_f_prime(s):
            z = (s - r0) / eps
            return (eps - 2.0) * s * dphi(z) - eps * phi(z)

        v = 0.5 * (f(r + t) + f(r - t)) + 0.5 * (G(r + t) - G(r - t))
        return g_minus_f_prime(r - t) + v / r

    def test_sweep_is_second_order_in_S(self):
        # measured max |S - S_exact|: 7.26e-7, 1.82e-7, 4.49e-8
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=0.5, speed=ConstantSpeed.of(1.0),
            profile=PolynomialBump(amplitude=1.0),
        )
        errs = []
        for n in (256, 512, 1024):
            nodes = place_nodes(setup, n, 0.5, 1.5, anchors=(1.0,))
            res = march(setup, nodes, lines=[("plus", 1.0), ("minus", 1.0)])
            assert not res.detected
            err = 0.0
            for family in ("plus", "minus"):
                s = res.samples(family, 1.0)
                err = max(err, float(np.max(np.abs(s.S - self.exact_S(setup, s.t, s.r)))))
            errs.append(err)
        assert errs[2] < 1e-7
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


class TestAgreesWithMuscl:
    def test_hat_path_on_gentle_data(self, gentle_setup):
        # the feet cover the support [0.9, 1.1] widened by 2 c1 T = 0.42
        T = 0.15
        nodes = place_nodes(gentle_setup, 512, 0.45, 1.55, anchors=(gentle_setup.r0,))
        hat = march(gentle_setup, nodes, lines=[("plus", 1.0)], t_end=1.2 * T).line("plus", 1.0)
        s = hat.samples()
        S_char, u_char, r_char = (np.interp(T, s.t, v) for v in (s.S, s.u, s.r))
        gaps = []
        for n in (2048, 4096):
            grid = Grid.uniform(*gentle_setup.domain, n)
            path = CharacteristicPath("plus", 1.0, grid, gentle_setup.speed)
            run(gentle_setup, grid, SchemeConfig(scheme="muscl2"), observers=(path,), t_end=T)
            gaps.append(abs(path.S[-1] - S_char) / S_char)
            assert path.u[-1] == pytest.approx(u_char, abs=2e-4)
            assert path.r[-1] == pytest.approx(r_char, abs=1e-5)
        # muscl2 converges toward the characteristic answer
        assert gaps[1] <= 0.015
        assert gaps[1] < 0.5 * gaps[0]


class TestDetection:
    def test_gradient_is_infinite_once_z_passed_pi(self):
        Sn = np.array([3.0, 3.0, 3.0])
        Sd = np.array([1e-3, 0.0, -0.5])  # z below pi, at pi, past pi (S = -6)
        g = gradient(Sn, Sd, np.ones(3))
        assert g[0] == pytest.approx(3000.0)
        assert np.isinf(g[1]) and np.isinf(g[2])

    @pytest.fixture(scope="class")
    def coarse_blowup(self, canonical_speed):
        """eps=1e-7 data on 256 feet: the hat line steps over z = pi."""
        setup = ProblemSetup.theorem(d=3, r0=1.0, eps=1e-7, u0=np.pi / 4, speed=canonical_speed)
        nodes = place_nodes(setup, 256, 0.94, 1.06, anchors=(1.0,))
        res = march(setup, nodes, lines=[("plus", 1.0)], t_end=0.02)
        through = march(
            setup, nodes, lines=[("plus", 1.0)], t_end=0.02, stop_at_detection=False
        ).line("plus", 1.0)
        return setup, nodes, res, through

    def test_pass_through_pi_between_nodes_fires(self, coarse_blowup):
        # the hat line jumps from |S|/r ~ 1e4 straight past z = pi; neither
        # node reaches the 1e4 g0 ceiling, and the pass itself detects
        _, _, res, through = coarse_blowup
        assert res.detected and res.reason == "gradient_ceiling"
        assert np.isinf(res.peak_gradient)
        assert 0.0075 < res.t_detect < 0.0095  # converged blow-up time 0.0079
        p = int(np.nonzero(through.Sd <= 0.0)[0][0])
        assert through.Sd[p - 1] > 0.0
        for i in (p - 1, p):
            assert abs(through.Sn[i] / through.Sd[i]) / through.r[i] < 1e-3 * res.gradient_ceiling
        assert through.t[p] == pytest.approx(res.t_detect, rel=1e-6)
        assert through.r[p] == pytest.approx(res.r_detect, rel=1e-6)

    def test_stopping_sweep_detects_where_the_full_sweep_does(self, coarse_blowup):
        # near z = pi the computed t can fall from a node to its successor:
        # here the full sweep's first detection (t 0.0094750988848) has a
        # Y-predecessor at 0.0094750988855, and a trim at the stop time that
        # dropped detecting nodes reported 0.0094750988930 instead
        setup, nodes, _, _ = coarse_blowup
        stop, full = (
            march(setup, nodes, lines=[("plus", 1.0)], t_end=setup.t_final, stop_at_detection=s)
            for s in (True, False)
        )
        assert stop.reason == "gradient_ceiling" and full.reason == "apex"
        assert stop.t_detect == full.t_detect and stop.r_detect == full.r_detect
        a, b = stop.samples("plus", 1.0), full.samples("plus", 1.0)
        assert a.t.size == b.t.size > 100
        for key in ("t", "r", "u", "R", "S"):
            np.testing.assert_array_equal(getattr(a, key), getattr(b, key))

    def test_angle_off_the_speed_table_is_named(self):
        # the predictor's angle leaves the table [0.31, 0.89] at t = 0.48
        speed = TabulatedSpeed(
            c0=1.0, c1=1.5, knots=(0.31, 0.5, 0.7, 0.89), values=(1.0, 1.1, 1.25, 1.4)
        )
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.1, u0=0.6, speed=speed, profile=PolynomialBump(amplitude=10.0)
        )
        with pytest.raises(NonFiniteState, match=r"^angle left the speed table at t=0\.4798"):
            blowup_sweep(setup, 256)

    def test_t_end_just_before_blowup_detects_nothing(self, coarse_blowup):
        # like solver.run, a sweep that ends before the blow-up reports no
        # detection, whatever nodes past t_end it computed on the way
        setup, nodes, res, _ = coarse_blowup
        t_end = res.t_detect * (1.0 - 1e-6)
        cut = march(setup, nodes, lines=[("plus", 1.0)], t_end=t_end)
        assert not cut.detected and cut.t_detect is None
        assert cut.reason == "t_final"
        assert np.isfinite(cut.peak_gradient) and cut.peak_gradient < cut.gradient_ceiling
        assert cut.line("plus", 1.0).t.max() < t_end

    def test_t_end_stops_an_undetected_sweep(self, gentle_setup):
        nodes = place_nodes(gentle_setup, 200, 0.75, 1.25, anchors=(1.0,))
        res = march(gentle_setup, nodes, lines=[("plus", 1.0)], t_end=0.05)
        assert res.reason == "t_final" and not res.detected
        assert res.line("plus", 1.0).t.max() < 0.05
        assert 1.0 <= res.peak_gradient / res.initial_gradient < 2.0


class TestUnderResolved:
    """A cell whose finite predecessors give a non-finite node: the weights'
    flow across it overflowed, on the canonical data (eps = 0.05)."""

    def test_full_sweep_on_128_feet_is_named(self, canonical_setup):
        # the failing node's Y-predecessor has Sn = 2.4e38, Sd = 2.6e36
        s = canonical_setup
        nodes = place_nodes(s, 128, *s.domain, anchors=(s.r0,))
        with pytest.raises(
            NonFiniteState,
            match=r"^characteristic grid under-resolved: the flow across one cell "
            r"overflows at t=0\.4442\d*, r=1\.435",
        ):
            march(s, nodes, lines=[("plus", s.r0)], t_end=s.t_final, stop_at_detection=False)

    def test_sweep_on_16_feet_is_named(self, canonical_setup):
        with pytest.raises(NonFiniteState, match=r"^characteristic grid under-resolved.* t=0\.3732"):
            blowup_sweep(canonical_setup, 16)
        res = blowup_sweep(canonical_setup, 32)
        assert res.detected and res.t_detect == pytest.approx(0.01729, rel=1e-3)


class TestAmplitudeBracket:
    """Blow-up needs far less than the theorem's amplitude (627 here): on the
    canonical speed, d = 3, eps = 0.05, u0 = pi/4 the threshold lies between
    the bump amplitudes 10 and 30, at two grids."""

    @pytest.mark.parametrize("amplitude", [10.0, 30.0])
    def test_threshold_lies_between_10_and_30(self, canonical_speed, amplitude):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=amplitude),
        )
        runs = [blowup_sweep(setup, n) for n in (1024, 2048)]
        if amplitude == 10.0:
            # the peak gradient grows only about 2.5x over the whole window
            for res in runs:
                assert not res.detected and res.reason == "t_final"
                assert res.peak_gradient < 3.0 * res.initial_gradient
        else:
            # t_detect 0.184130 / 0.184133
            assert all(res.detected for res in runs)
            assert runs[0].t_detect == pytest.approx(runs[1].t_detect, rel=1e-4)
            assert runs[0].t_detect == pytest.approx(0.18413, rel=1e-4)


class TestCharacteristicTriangle:
    def test_zero_data_both_sides_vanish(self, canonical_speed):
        setup = ProblemSetup.theorem(
            d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed,
            profile=PolynomialBump(amplitude=0.0),
        )
        rep, _, _ = characteristic_triangle_identity(setup, 64, 0.9, 1.1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0

    def test_gentle_identity_second_order(self, gentle_setup):
        res = [characteristic_triangle_identity(gentle_setup, n, 0.85, 1.15)[0] for n in (256, 512)]
        assert res[1].residual < 1e-6
        assert math.log2(res[0].residual / res[1].residual) >= 1.5
        rhs = 0.5 * sum(
            quad(lambda y: sum(v * v for v in initial_riemann(gentle_setup, y)[1:]), a, b)[0]
            for a, b in ((0.9, 1.0), (1.0, 1.1))
        )
        assert res[1].rhs == pytest.approx(rhs, rel=1e-6)
        # the sides meet at the apex, inside the triangle
        assert 0.85 < res[1].r_m < 1.15 and res[1].t_m > 0.1
