import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import (
    BoundsViolation,
    ConstantSpeed,
    OseenFrankSpeed,
    TabulatedSpeed,
    validate_bounds,
)
from varwave.speed_models import PROBE_BLOCK, SpeedBoundsReport, WaveSpeedModel

SQRT2 = math.sqrt(2.0)


class TestEvalC:
    def test_equal_constants_give_unit_speed(self):
        model = OseenFrankSpeed(c0=1.0, c1=1.0, k1=1.0, k3=1.0)
        assert model.c(0.7) == pytest.approx(1.0, abs=1e-15)

    def test_pure_splay_angle(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        assert model.c(math.pi / 2) == pytest.approx(SQRT2, rel=1e-15)

    def test_mixed_angle_substitution(self):
        # oracle: direct substitution c^2 = 2*sin^2 + cos^2 at pi/4
        expected = math.sqrt(2.0 * 0.5 + 1.0 * 0.5)
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        assert model.c(math.pi / 4) == pytest.approx(expected, rel=1e-15)

    def test_vectorized(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        u = np.linspace(0, 2 * np.pi, 7)
        c = model.c(u)
        assert c.shape == u.shape
        assert np.all(c >= 1.0 - 1e-14) and np.all(c <= SQRT2 + 1e-14)

    def test_two_pi_periodic(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        u = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(model.c(u + 2 * np.pi), model.c(u), rtol=1e-13)


class TestEvalCPrime:
    def test_constant_speed_zero_derivative(self):
        model = OseenFrankSpeed(c0=1.0, c1=1.0, k1=1.0, k3=1.0)
        assert model.c_prime(1.234) == 0.0

    def test_zero_angle(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        assert model.c_prime(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_angle_substitution(self):
        # oracle: (k1-k3) sin cos / c = (1/2)/sqrt(3/2)
        expected = 0.5 / math.sqrt(1.5)
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        assert model.c_prime(math.pi / 4) == pytest.approx(expected, rel=1e-15)

    def test_constant_kind_exactly_zero(self):
        model = ConstantSpeed.of(1.7)
        u = np.linspace(-10, 10, 1001)
        assert np.all(model.c_prime(u) == 0.0)

    def test_positive_on_first_quadrant_when_k1_gt_k3(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        u = np.linspace(1e-6, math.pi / 2 - 1e-6, 2001)
        assert np.all(model.c_prime(u) > 0.0)

    @pytest.mark.parametrize(
        "model",
        [
            OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0),
            OseenFrankSpeed(c0=math.sqrt(0.5), c1=2.0, k1=0.5, k3=4.0),
        ],
        ids=["k1>k3", "k1<k3"],
    )
    def test_matches_centered_differences(self, model):
        rng = np.random.default_rng(42)
        u = rng.uniform(-2 * np.pi, 2 * np.pi, 1000)
        h = 1e-5
        fd = (model.c(u + h) - model.c(u - h)) / (2 * h)
        np.testing.assert_allclose(model.c_prime(u), fd, rtol=1e-6)


class TestCAndCPrime:
    @pytest.mark.parametrize(
        "model",
        [
            OseenFrankSpeed(c0=1.0, c1=math.sqrt(2.0), k1=2.0, k3=1.0),
            OseenFrankSpeed(c0=1.0, c1=math.sqrt(2.0), k1=1.0, k3=2.0),
            ConstantSpeed.of(1.3),
            TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.0, 1.0, 2.0, 3.0), values=(1.0, 1.5, 2.0, 1.2)),
        ],
    )
    def test_fused_pair_matches_separate_calls(self, model):
        # bit for bit: the Eulerian stepper takes c and c' from the fused call
        u = np.linspace(0.05, 2.95, 57)
        c, cp = model.c_and_c_prime(u)
        np.testing.assert_array_equal(c, model.c(u))
        np.testing.assert_array_equal(cp, model.c_prime(u))
        c_s, cp_s = model.c_and_c_prime(0.7)
        assert (type(c_s), type(cp_s)) == (float, float)
        assert (c_s, cp_s) == (model.c(0.7), model.c_prime(0.7))


# 400,001 angles on [-4 pi, 4 pi]; a scalar pow(t, 2) missed the array's
# t*t by one bit in c at index 2398
DENSE = np.linspace(-4 * np.pi, 4 * np.pi, 400_001)

_OF_KNOTS = np.linspace(-4 * np.pi, 4 * np.pi, 129)
BITS_MODELS = {
    "oseen-frank": OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0),
    "oseen-frank-bend": OseenFrankSpeed(c0=math.sqrt(0.3), c1=math.sqrt(5.0), k1=5.0, k3=0.3),
    "constant": ConstantSpeed.of(1.3),
    "tabulated": TabulatedSpeed(
        c0=1.0, c1=2.0, knots=tuple(_OF_KNOTS),
        values=tuple(np.sqrt(2.0 * np.sin(_OF_KNOTS) ** 2 + np.cos(_OF_KNOTS) ** 2)),
    ),
}
METHODS = ("c", "c_prime", "c_and_c_prime")


def evaluated(model, method, u):
    """model.<method>(u) as a (k, *u.shape) uint64 view; k = 2 for c_and_c_prime."""
    out = getattr(model, method)(u)
    rows = out if isinstance(out, tuple) else (out,)
    return np.stack([np.broadcast_to(np.asarray(v, dtype=float), np.shape(u)) for v in rows]).view(
        np.uint64
    )


class TestScalarArrayBits:
    """A float angle gets the bits of the same angle in an array: the path
    tracer evaluates c on floats, the step on arrays."""

    # every 40th angle, and those next to index 2398
    PROBE = np.concatenate([DENSE[::40], DENSE[2390:2410]])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("model", BITS_MODELS.values(), ids=BITS_MODELS.keys())
    def test_scalar_equals_array_element(self, model, method):
        want = evaluated(model, method, self.PROBE)
        got = np.stack([evaluated(model, method, x) for x in self.PROBE.tolist()], axis=1)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("model", BITS_MODELS.values(), ids=BITS_MODELS.keys())
    def test_slices_and_strided_views_equal_the_whole_array(self, model, method):
        u = DENSE[:4099]
        want = evaluated(model, method, u)
        for off, length in [(0, 1), (1, 2), (3, 7), (5, 8), (7, 15), (2, 16), (11, 17),
                            (13, 64), (1, 1001), (6, 4093)]:
            part = slice(off, off + length)
            np.testing.assert_array_equal(evaluated(model, method, u[part]), want[:, part])
        # a reversed view is left out: numpy takes its libm tan loop there
        for view in (slice(1, None, 3), slice(2, None, 5)):
            np.testing.assert_array_equal(evaluated(model, method, u[view]), want[:, view])


LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps
ACCURACY_PROBE = np.concatenate([DENSE, np.arange(-8, 9) * (np.pi / 2)])


@pytest.fixture(scope="module")
def long_double_sin_cos():
    u = ACCURACY_PROBE.astype(np.longdouble)
    return np.sin(u), np.cos(u)


def ulps(got, ref):
    """|got - ref| in float64 spacings at ref; ref in long double."""
    return np.abs(got - ref) / np.spacing(np.abs(ref).astype(float))


@pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER, reason="long double is float64 here")
class TestOseenFrankAccuracy:
    """The tangent form against sin and cos taken in long double."""

    K = [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (5.0, 0.3)]

    @staticmethod
    def model(k1, k3):
        return OseenFrankSpeed(c0=math.sqrt(min(k1, k3)), c1=math.sqrt(max(k1, k3)), k1=k1, k3=k3)

    @pytest.mark.parametrize("k1,k3", K)
    def test_within_ulp_bounds_of_the_sin_cos_formula(self, k1, k3, long_double_sin_cos):
        s, co = long_double_sin_cos
        k1l, k3l = np.longdouble(k1), np.longdouble(k3)
        c_ref = np.sqrt(k1l * s * s + k3l * co * co)
        cp_ref = (k1l - k3l) * s * co / c_ref
        c, cp = self.model(k1, k3).c_and_c_prime(ACCURACY_PROBE)
        assert float(ulps(c, c_ref).max()) <= 2.5
        sized = np.abs(cp_ref) > 1e-300
        if k1 == k3:
            assert not sized.any() and np.all(cp == 0.0)
        else:
            assert float(ulps(cp[sized], cp_ref[sized]).max()) <= 5.0

    @pytest.mark.parametrize("k1,k3", K)
    def test_principal_angles(self, k1, k3):
        model = self.model(k1, k3)
        for u, k in ((0.0, k3), (math.pi / 2, k1)):
            assert abs(model.c(u) - math.sqrt(k)) <= math.ulp(math.sqrt(k))

    @pytest.mark.parametrize("k1,k3", K)
    def test_finite_for_every_finite_angle(self, k1, k3):
        tiny, big = 5e-324, np.finfo(float).max
        extremes = np.array([tiny, -tiny, 1e-300, 1e22, -1e22, 1e300, big, -big])
        for u in (ACCURACY_PROBE, extremes):
            c, cp = self.model(k1, k3).c_and_c_prime(u)
            assert np.isfinite(c).all() and np.isfinite(cp).all()

    def test_nan_gives_nan(self):
        model = self.model(2.0, 1.0)
        for u in (math.nan, np.array([0.3, math.nan])):
            for out in (model.c(u), model.c_prime(u), *model.c_and_c_prime(u)):
                assert np.isnan(np.atleast_1d(out)[-1])


class TestAngleRange:
    def test_analytic_speeds_take_every_angle(self):
        for model in (OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0), ConstantSpeed.of(1.3)):
            assert model.angle_range() == (-math.inf, math.inf)

    def test_tabulated_speed_takes_its_table(self):
        model = TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.5, 1.0, 2.0), values=(1.0, 1.5, 2.0))
        assert model.angle_range() == model.probe_interval() == (0.5, 2.0)
        inside, off = model.c(np.array([0.5, 2.0])), model.c(np.array([0.49, 2.01]))
        assert np.isfinite(inside).all() and np.isnan(off).all()

    def test_off_table_is_any_angle_off_the_knots(self):
        model = TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.5, 1.0, 2.0), values=(1.0, 1.5, 2.0))
        assert model.off_table(0.49) and model.off_table(np.array([1.0, 2.01]))
        assert not model.off_table(np.array([0.5, 1.3, 2.0]))
        # a NaN angle is no angle off the table; its c is NaN all the same
        assert not model.off_table(math.nan) and not model.off_table(np.array([math.nan, 1.0]))
        assert model.off_table(np.array([math.nan, 0.4]))

    def test_analytic_speeds_have_no_table_to_leave(self):
        for model in (OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0), ConstantSpeed.of(1.3)):
            assert model.off_table(np.array([-1e300, 0.0, 1e300, math.inf])) is False


BOUND_MODELS = {
    "oseen-frank": OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0),
    "oseen-frank-bend": OseenFrankSpeed(c0=0.5, c1=1.5, k1=0.3, k3=2.0),
    "constant": ConstantSpeed.of(1.3),
    "tabulated": TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.5, 1.0, 2.0), values=(1.0, 1.5, 2.0)),
}


class TestValidateBounds:
    def test_constant_passes(self):
        report = validate_bounds(ConstantSpeed.of(1.0), probe_count=100)
        assert report.ok
        assert report.c_min == report.c_max == 1.0
        assert report.c_prime_max == 0.0

    def test_oseen_frank_tight_bounds_pass(self):
        model = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        report = validate_bounds(model, probe_count=100_000)
        assert report.ok
        # oracle: extrema of sqrt(1 + sin^2 u) over a dense probe
        u = np.linspace(0, 2 * np.pi, 100_000)
        c = np.sqrt(1.0 + np.sin(u) ** 2)
        assert report.c_min == pytest.approx(float(c.min()), rel=1e-12)
        assert report.c_max == pytest.approx(float(c.max()), rel=1e-12)

    def test_understated_upper_bound_rejected(self):
        model = OseenFrankSpeed(c0=1.0, c1=1.2, k1=2.0, k3=1.0)
        with pytest.raises(BoundsViolation):
            validate_bounds(model, probe_count=100_000)

    def test_overstated_lower_bound_rejected(self):
        model = OseenFrankSpeed(c0=1.1, c1=SQRT2, k1=2.0, k3=1.0)
        with pytest.raises(BoundsViolation):
            validate_bounds(model, probe_count=100_000)

    def test_derivative_bound_checked_against_c1(self):
        # values stay within [1, 1.4] but the table slope is ~4, above c1
        knots = np.linspace(0.0, 1.0, 11)
        values = 1.2 + 0.2 * np.sign(np.sin(20 * knots))
        model = TabulatedSpeed(
            c0=1.0, c1=1.4, knots=tuple(knots), values=tuple(values)
        )
        with pytest.raises(BoundsViolation):
            validate_bounds(model, probe_count=10_000)

    @pytest.mark.parametrize("model", BOUND_MODELS.values(), ids=BOUND_MODELS.keys())
    def test_report_equals_separate_c_and_c_prime_probes(self, model):
        # the report as built from one c(u) and one c'(u) call
        u = np.linspace(*model.probe_interval(), 10_001)
        c, cp = np.asarray(model.c(u)), np.asarray(model.c_prime(u))
        c_min, c_max, cp_max = float(np.min(c)), float(np.max(c)), float(np.max(np.abs(cp)))
        want = SpeedBoundsReport(
            c_min=c_min, c_max=c_max, c_prime_max=cp_max,
            declared_c0=model.c0, declared_c1=model.c1, probe_count=10_001, ok=True,
        )
        assert validate_bounds(model, probe_count=10_001) == want

    def test_probe_count_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            validate_bounds(ConstantSpeed.of(1.0), probe_count=1)

    @given(
        k1=st.floats(0.25, 4.0, allow_nan=False),
        k3=st.floats(0.25, 4.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_probe_derived_bounds_always_validate(self, k1, k3):
        u = np.linspace(0, 2 * np.pi, 20_001)
        c = np.sqrt(k1 * np.sin(u) ** 2 + k3 * np.cos(u) ** 2)
        cp = (k1 - k3) * np.sin(u) * np.cos(u) / c
        c0 = float(c.min()) * (1 - 1e-9)
        c1 = max(float(c.max()), float(np.abs(cp).max())) * (1 + 1e-9)
        model = OseenFrankSpeed(c0=c0, c1=c1, k1=k1, k3=k3)
        assert validate_bounds(model, probe_count=20_001).ok


def whole_probe_report(model, probe_count):
    """validate_bounds's report from one c_and_c_prime call on the whole probe grid."""
    c, cp = model.c_and_c_prime(np.linspace(*model.probe_interval(), probe_count))
    return SpeedBoundsReport(
        c_min=float(np.min(c)), c_max=float(np.max(c)), c_prime_max=float(np.max(np.abs(cp))),
        declared_c0=model.c0, declared_c1=model.c1, probe_count=probe_count, ok=True,
    )


@dataclasses.dataclass(frozen=True)
class NaNAtSpeed(WaveSpeedModel):
    """Unit speed whose c (or c') is NaN at the probe point u_nan alone."""

    u_nan: float = 0.0
    in_c: bool = True

    def c_and_c_prime(self, u):
        hole = np.where(u == self.u_nan, math.nan, 0.0)
        return (1.0 + hole, np.zeros_like(u)) if self.in_c else (np.ones_like(u), hole)


class TestBlockwiseProbe:
    """validate_bounds walks its probe grid in slices of PROBE_BLOCK points."""

    COUNTS = [2, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 3 * PROBE_BLOCK, 3 * PROBE_BLOCK + 1]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("model", BOUND_MODELS.values(), ids=BOUND_MODELS.keys())
    def test_report_equals_the_whole_grid_report(self, model, count):
        assert validate_bounds(model, probe_count=count) == whole_probe_report(model, count)

    @pytest.mark.parametrize("in_c", [True, False], ids=["c", "c_prime"])
    @pytest.mark.parametrize("k", [0, PROBE_BLOCK - 1, PROBE_BLOCK, 2 * PROBE_BLOCK + 7, -1])
    def test_nan_in_one_block_raises(self, k, in_c):
        count = 2 * PROBE_BLOCK + 10
        u = np.linspace(0.0, 2.0 * np.pi, count)
        model = NaNAtSpeed(c0=1.0, c1=1.0, u_nan=float(u[k]), in_c=in_c)
        names = "min c=nan, max c=nan" if in_c else "max |c'|=nan"
        with pytest.raises(BoundsViolation, match=re.escape(names)):
            validate_bounds(model, probe_count=count)

    def test_canonical_probe_peak(self, canonical_speed, traced_peak):
        # one c_and_c_prime call on all 100,000 points peaks at 3.8 MiB
        assert traced_peak(lambda: validate_bounds(canonical_speed, 100_000)) < 1.5


class TestConstruction:
    def test_nonpositive_c0_rejected(self):
        with pytest.raises(BoundsViolation):
            ConstantSpeed(c0=0.0, c1=1.0, value=1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(BoundsViolation):
            ConstantSpeed(c0=2.0, c1=1.0, value=1.5)

    def test_nonpositive_elastic_constants_rejected(self):
        with pytest.raises(BoundsViolation):
            OseenFrankSpeed(c0=0.5, c1=1.0, k1=-1.0, k3=1.0)

    def test_constant_speed_outside_its_bounds_rejected(self):
        with pytest.raises(BoundsViolation, match=r"^constant speed 3.0 outside declared \[1.0, 2.0\]$"):
            ConstantSpeed(c0=1.0, c1=2.0, value=3.0)


class TestTabulated:
    @staticmethod
    def _table(n=41):
        u = np.linspace(0.0, np.pi, n)
        return u, np.sqrt(1.0 + np.sin(u) ** 2)

    def test_values_stay_in_hull(self):
        knots, values = self._table()
        model = TabulatedSpeed(
            c0=float(values.min()), c1=SQRT2, knots=tuple(knots), values=tuple(values)
        )
        probe = np.linspace(knots[0], knots[-1], 5000)
        c = model.c(probe)
        assert np.all(c >= values.min() - 1e-12)
        assert np.all(c <= values.max() + 1e-12)

    def test_derivative_matches_centered_differences(self):
        knots, values = self._table()
        model = TabulatedSpeed(c0=1.0, c1=SQRT2, knots=tuple(knots), values=tuple(values))
        rng = np.random.default_rng(7)
        u = rng.uniform(knots[0] + 1e-3, knots[-1] - 1e-3, 1000)
        h = 1e-7
        fd = (model.c(u + h) - model.c(u - h)) / (2 * h)
        np.testing.assert_allclose(model.c_prime(u), fd, rtol=1e-5, atol=1e-8)

    def test_validates_over_table_range(self):
        knots, values = self._table()
        model = TabulatedSpeed(
            c0=float(values.min()), c1=SQRT2, knots=tuple(knots), values=tuple(values)
        )
        assert validate_bounds(model, probe_count=10_000).ok

    def test_inconsistent_supplied_derivatives_rejected(self):
        knots, values = self._table(11)
        with pytest.raises(BoundsViolation):
            TabulatedSpeed(
                c0=1.0,
                c1=SQRT2,
                knots=tuple(knots),
                values=tuple(values),
                derivative_values=tuple(np.ones_like(knots)),
            )

    def test_needs_increasing_knots(self):
        with pytest.raises(BoundsViolation):
            TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.0, 0.0, 1.0), values=(1.0, 1.0, 1.0))

    def test_needs_two_knots(self):
        with pytest.raises(BoundsViolation, match=r"^tabulated speed needs at least two knots$"):
            TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.0,), values=(1.0,))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_needs_positive_values(self, value):
        with pytest.raises(BoundsViolation, match=r"^tabulated speeds must be positive$"):
            TabulatedSpeed(c0=1.0, c1=2.0, knots=(0.0, 0.5, 1.0), values=(1.0, value, 1.0))
