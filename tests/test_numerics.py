import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma, jv

from sel_lab import bifurcation, numerics, radial
from sel_lab.bifurcation import LEFProblem
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import analyze_nonlinearity, analyze_singular_term
from sel_lab.numerics import (
    BOUNDED,
    BracketError,
    Integrand,
    NonIntegrableError,
    NumericsError,
    RadialSolution,
    SampleError,
    ShotResult,
    bessel_psi,
    classify_origin_integral,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    series_start,
    shoot,
)
from sel_lab.radial import LogisticProblem, boundary_blowup

from reference import AUDIT_PROBES


class TestIntegrateFinite:
    def test_linear(self):
        v, e = integrate_finite(lambda t: t, 0.0, 1.0, 1e-12)
        assert v == pytest.approx(0.5, abs=1e-12)
        assert e <= 1e-12 * 1.5

    def test_sin(self):
        v, _ = integrate_finite(math.sin, 0.0, math.pi, 1e-12)
        assert v == pytest.approx(2.0, abs=1e-11)

    def test_endpoint_singularity(self):
        # antiderivative 2 sqrt(t)
        v, _ = integrate_finite(lambda t: t ** -0.5, 0.0, 1.0, 1e-10)
        assert v == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("degree", range(6))
    def test_polynomial_exactness(self, degree):
        v, _ = integrate_finite(lambda t, d=degree: t ** d, 0.0, 1.0, 1e-13)
        assert v == pytest.approx(1.0 / (degree + 1), rel=1e-13)

    def test_error_estimate_contract(self):
        v, e = integrate_finite(lambda t: math.exp(-t * t), 0.0, 3.0, 1e-9)
        assert e <= 1e-9 * (1.0 + abs(v))

    def test_non_integrable_singularity(self):
        with pytest.raises(NonIntegrableError):
            integrate_finite(lambda t: 1.0 / t, 0.0, 1.0, 1e-9)

    # QUADPACK's extrapolation on the graded integrand settles on a finite
    # value for these, with a small error estimate: -1.0 for t^-2, -6.23 for
    # t^-1.2 (finite parts) and 13.5 for t^-3
    @pytest.mark.parametrize("p, b", [(2.0, 1.0), (1.2, 1.0 / 3.0), (3.0, 1.0 / 3.0)])
    def test_stronger_power_than_one_over_t(self, p, b):
        with pytest.raises(NonIntegrableError,
                           match=rf"left endpoint \(local power {-p:.3f}\)"):
            integrate_finite(lambda t: t ** -p, 0.0, b, 1e-10)

    # the probe reads a nonzero end above rounding; the end's image, which
    # reads t rounded next to it, would leave p near 1 undecided
    @pytest.mark.parametrize("p", [1.0, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0])
    def test_a_pole_at_a_nonzero_end_names_its_power(self, p):
        with pytest.raises(NonIntegrableError, match=rf"right endpoint \(local power {-p:.3f}\)"):
            integrate_finite(lambda t: (1.0 - t) ** -p, 0.0, 1.0, 1e-10)
        with pytest.raises(NonIntegrableError, match=rf"left endpoint \(local power {-p:.3f}\)"):
            integrate_finite(lambda t: (t - 0.3) ** -p, 0.3, 1.0, 1e-10)

    def test_negative_pole_at_the_right_end(self):
        with pytest.raises(NonIntegrableError, match="right endpoint"):
            integrate_finite(lambda t: -(1.0 - t) ** -2, 0.0, 1.0, 1e-10)

    @pytest.mark.parametrize("fn, exact", [
        (lambda t: t ** -0.999, 1000.0),
        (lambda t: t ** -0.95 * math.log(1.0 / t) ** 2, 16000.0),
        (math.log, -1.0),
    ], ids=["t^-0.999", "t^-0.95 ln^2", "ln"])
    def test_integrable_near_minus_one_passes(self, fn, exact):
        # a log factor steepens t^-0.95 ln(1/t)^2 beyond t^-1 for every t above
        # e^-40 ~ 4e-18; read at 2^-60 of the width its slope is -0.998
        v, _ = integrate_finite(fn, 0.0, 1.0, 1e-10)
        assert v == pytest.approx(exact, rel=1e-7)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda t: t, 1.0, 0.0, 1e-9)

    # every case above that returns a value, with its closed form, and
    # int_0^1/2 dt/(t ln(1/t)^2) = 1/ln 2, whose first panel the bisection
    # cannot close: the end's image t = 1/s reads it as a Bertrand tail
    @pytest.mark.parametrize("fn, a, b, tol, exact", [
        (lambda t: t, 0.0, 1.0, 1e-12, 0.5),
        (math.sin, 0.0, math.pi, 1e-12, 2.0),
        (lambda t: t ** -0.5, 0.0, 1.0, 1e-10, 2.0),
        *((lambda t, d=d: t ** d, 0.0, 1.0, 1e-13, 1.0 / (d + 1)) for d in range(6)),
        (lambda t: math.exp(-t * t), 0.0, 3.0, 1e-9, 0.5 * math.sqrt(math.pi) * math.erf(3.0)),
        (lambda t: t ** -0.999, 0.0, 1.0, 1e-10, 1000.0),
        (lambda t: t ** -0.95 * math.log(1.0 / t) ** 2, 0.0, 1.0, 1e-10, 16000.0),
        (math.log, 0.0, 1.0, 1e-10, -1.0),
        (lambda t: 1.0 / (t * math.log(1.0 / t) ** 2), 0.0, 0.5, 1e-10, 1.0 / math.log(2.0)),
        (lambda t: 1e300 * t ** -0.7, 0.0, 1.0, 1e-10, 1e300 / 0.3),
        pytest.param(lambda t: 1e300 * t ** -0.7, np.float64(0.0), np.float64(1.0), 1e-10,
                     1e300 / 0.3, marks=pytest.mark.filterwarnings("error")),
    ], ids=["t", "sin", "t^-0.5", *(f"t^{d}" for d in range(6)), "exp(-t^2)", "t^-0.999",
            "t^-0.95 ln^2", "ln", "1/(t ln^2)", "1e300 t^-0.7", "1e300 t^-0.7, numpy bounds"])
    def test_the_error_bounds_the_closed_form(self, fn, a, b, tol, exact):
        v, e = integrate_finite(fn, a, b, tol)
        assert abs(v - exact) <= e <= tol * (1.0 + abs(v))

    def test_halves_that_cancel_are_held_to_their_own_size(self):
        # int_-1^1 10^6 t dt = 0: each half meets tol/4 of its own value,
        # 5e5, so the error is held to the halves' size, not to the sum's
        v, e = integrate_finite(lambda t: 1e6 * t, -1.0, 1.0, 1e-10)
        assert abs(v) <= e <= 1e-10 * (1.0 + 1e6)


class TestIntegratePanels:
    @staticmethod
    def cubic(t):
        # the same IEEE operations on floats and on arrays
        return t * t * t - 2.0 * t

    def test_matches_integrate_panel_panel_by_panel(self, monkeypatch):
        # (-1e3, 1e3 + 1e-3) fails the error test on rounding noise, and
        # t^3 overflows on (1e102, 1e103)
        a = np.array([0.5, 1.0, -1e3, -7.0, 1e102, 3.0, 2.0 ** -30])
        b = np.array([1.0, 2.0 ** 0.25, 1e3 + 1e-3, 7.0, 1e103, 5.0, 2.0 ** -29.75])
        values, ok = numerics.integrate_panels(self.cubic, a, b, 1e-12)
        assert values.shape == ok.shape == a.shape
        assert not ok[2] and math.isfinite(values[2])
        assert not ok[4] and not math.isfinite(values[4])
        # seeded panels of expressions of correctly rounded operations only,
        # whose array and float forms agree to the bit; abs(t-1.3) t has a
        # kink that fails the panels across it
        rng = np.random.default_rng(56)
        lo = rng.uniform(-4.0, 4.0, 64)
        hi = lo + rng.uniform(0.1, 1.0, 64) * 10.0 ** rng.integers(-8, 1, 64)
        cases = [(self.cubic, values, ok, a, b)]
        for src in ("t*t*t-2*t", "1/(1+t*t)", "sqrt(1+t*t)", "abs(t-1.3)*t"):
            fn = ScalarFn.from_source(src)
            cases.append((fn, *numerics.integrate_panels(fn.vector(), lo, hi, 1e-12), lo, hi))
        assert cases[-2][2].all() and not cases[-1][2].all()
        fallbacks = []

        def fallback(fn, lo, hi, tol):
            fallbacks.append(lo)
            return math.nan, math.nan

        monkeypatch.setattr(numerics, "integrate_finite", fallback)
        for fn, values, ok, a, b in cases:
            for i in range(a.size):
                fallbacks.clear()
                value, err = numerics.integrate_panel(fn, float(a[i]), float(b[i]), 1e-12)
                assert bool(ok[i]) == (not fallbacks)
                if ok[i]:
                    assert value == values[i]
                    # the scalar pass's value and raw estimate, bit for bit
                    kronrod, _, raw = numerics._kronrod_panel(fn, float(a[i]), float(b[i]))
                    assert (kronrod, raw) == (value, err)

    def test_one_call_over_all_nodes(self):
        shapes = []

        def vec(t):
            shapes.append(t.shape)
            return self.cubic(t)

        numerics.integrate_panels(vec, [1.0, 2.0, 3.0], [2.0, 3.0, 4.0], 1e-12)
        assert shapes == [(3, 15)]

    def test_domain_error_propagates(self):
        vec = ScalarFn.from_source("sqrt(5-t)").vector()
        with pytest.raises(EvalDomainError, match="at t="):
            numerics.integrate_panels(vec, [1.0, 4.0], [4.0, 7.0], 1e-12)


class TestTailClassifier:
    def test_inverse_square(self):
        v = classify_tail_integral(lambda t: t ** -2, 1.0)
        assert v.is_convergent
        assert v.value == pytest.approx(1.0, abs=1e-8)
        assert v.err <= 1e-8 * (1.0 + abs(v.value))

    def test_what_lies_past_the_last_sample_stays_out_of_the_value(self):
        # t^-2 cut off at t = 100: the samples from 1 end at 64, where the
        # fit's remainder is 1/64 and the true rest 0.0056; the value is the
        # integral up to the last sample, with the remainder in err
        v = classify_tail_integral(lambda t: t ** -2 if t <= 100.0 else 0.0, 1.0)
        assert v.value < 0.995
        assert abs(v.value - 0.99) <= v.err

    def test_harmonic(self):
        v = classify_tail_integral(lambda t: 1.0 / t, 1.0)
        assert v.is_divergent
        assert v.slope == pytest.approx(-1.0, abs=1e-6)

    def test_ko_integrand_of_cubic(self):
        # (2F)^(-1/2) with F = t^4/4 integrates to sqrt(2) (antiderivative -sqrt2/t)
        v = classify_tail_integral(lambda t: (2.0 * t ** 4 / 4.0) ** -0.5, 1.0)
        assert v.is_convergent
        assert v.value == pytest.approx(math.sqrt(2.0), rel=1e-8)

    @pytest.mark.parametrize("s,divergent", [
        (0.5, True), (0.9, True), (0.98, True), (1.0, True), (1.02, False), (1.1, False),
        (2.0, False)])
    def test_power_family(self, s, divergent):
        v = classify_tail_integral(lambda t: t ** -s, 1.0)
        if divergent:
            assert v.is_divergent
        elif s == 1.02:
            # t^-1.02 still holds 5e-5 of its 50 past e^690: err bounds it
            assert v.is_convergent
            assert abs(v.value - 50.0) <= v.err <= 1e-3
        else:
            assert v.is_convergent
            assert v.value == pytest.approx(1.0 / (s - 1.0), rel=1e-6)

    def test_power_within_the_log_resolution_of_the_borderline(self):
        # t^-1.0005 converges (to 2000) but leaves 1416 of it past e^690: A is
        # resolved, so B = 0 does not call it divergent, and err refuses it
        v = classify_tail_integral(lambda t: t ** -1.0005, 1.0)
        assert v.status == numerics.INCONCLUSIVE
        assert v.diagnostics["a"] == pytest.approx(-1.0005, abs=1e-9)

    def test_bertrand_borderline(self):
        # int_1^inf dt/(t ln(1+t)^2) = 1.9935596806653638 (mpmath); the part
        # past the last sample, about 1/ln T, is in err, not in the value
        v = classify_tail_integral(lambda t: 1.0 / (t * math.log(t + 1.0) ** 2), 1.0)
        assert v.is_convergent
        assert abs(v.value - 1.9935596806653638) <= v.err
        assert v.diagnostics["a"] == pytest.approx(-1.0, abs=1e-6)
        assert v.diagnostics["b"] == pytest.approx(-2.0, abs=1e-6)

    def test_log_power_does_not_hide_a_convergent_power(self):
        # t^-2 ln(1+t)^40 peaks near ln t = 40 and converges
        v = classify_tail_integral(lambda t: t ** -2 * math.log(1.0 + t) ** 40, 1.0)
        assert v.is_convergent
        assert v.slope == pytest.approx(-2.0, abs=1e-6)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            classify_tail_integral(lambda t: math.sin(t), 1.0)

    def test_zero_function(self):
        v = classify_tail_integral(lambda t: 0.0, 1.0)
        assert v.is_convergent and v.value == 0.0

    @pytest.mark.parametrize("src,exact", [("t^(-2)*ln(t)", 1.0), ("(t-1)*t^(-3)", 0.5)])
    @pytest.mark.parametrize("path", ["array", "scalar"])
    def test_zero_at_the_lower_limit(self, src, exact, path):
        # the integrand is 0 at t = a, its first sample: that zero is skipped
        fn = ScalarFn.from_source(src)
        v = classify_tail_integral(fn if path == "array" else fn.fast(), 1.0)
        assert v.is_convergent
        assert abs(v.value - exact) <= v.err

    def test_zeros_end_the_samples_only_after_a_positive_one(self):
        def fn(t):
            return 0.0 if t < 3.0 or t > 100.0 else t ** -2

        ts, fs = numerics._tail_samples(fn, 1.0, lead_zeros=True)
        assert ts == [4.0, 8.0, 16.0, 32.0, 64.0]
        assert fs == [t ** -2 for t in ts]
        assert numerics._tail_samples(fn, 1.0) == ([], [])

    def test_a_negative_expression_is_refused_with_its_function(self):
        # a ScalarFn is carried by the SampleError, so a caller can name it;
        # a plain callable has no expression to name
        fn = ScalarFn.from_source("1-t/3")
        with pytest.raises(SampleError, match=r"^the sampled function is negative "
                                              r"\(t = 4\.0: fn = -0\.33333333333333326\)$") as err:
            numerics._tail_samples(fn, 1.0)
        assert err.value.fn is fn
        with pytest.raises(ValueError, match=r"negative at t=4\.0") as err:
            numerics._tail_samples(fn.fast(), 1.0)
        assert not isinstance(err.value, SampleError)

    def test_zero_at_the_zero_test_points_is_the_zero_function(self):
        # 0 at a, 2a, 8a and 64a reads as the zero function, whatever lies between
        v = classify_tail_integral(lambda t: 0.0 if t in (1.0, 2.0, 8.0, 64.0) else t ** -2, 1.0)
        assert v.is_convergent and v.value == 0.0 and v.diagnostics["zero"]

    @pytest.mark.parametrize("classify,fn,limit,exact", [
        (classify_tail_integral, lambda t: t ** -2, 1e300, 1e-300),
        (classify_tail_integral, lambda t: t ** -2, 1e200, 1e-200),
        (classify_origin_integral, lambda t: 1.0, 1e-300, 1e-300),
    ], ids=["tail-1e300", "tail-1e200", "origin-1e-300"])
    def test_underflow_is_not_the_zero_function(self, classify, fn, limit, exact):
        # the integrand underflows to 0 at every probe of the zero test, but
        # the integral is a normal float: the verdict may not read zero
        v = classify(fn, limit)
        assert not v.diagnostics.get("zero")
        if v.is_convergent:
            assert abs(v.value - exact) <= v.err
        else:
            assert v.status == "inconclusive"


class TestRefuseSamples:
    def test_no_failing_sample_passes(self):
        fn = ScalarFn.from_source("t")
        assert numerics.refuse_samples(fn, "t must be > 0", np.zeros(3, bool), [1.0, 2.0, 3.0],
                                       t=[1.0, 2.0, 3.0]) is None

    def test_the_first_failing_sample_is_named_with_its_values(self):
        fn = ScalarFn.from_source("t")
        r = np.array([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(SampleError) as err:
            numerics.refuse_samples(fn, "u must stay below 2", np.array([False, False, True, True]),
                                    r, "r", u=2.0 * r, c=7.0)
        assert str(err.value) == "u must stay below 2 (r = 1.0: u = 2.0, c = 7.0)"
        assert err.value.fn is fn and isinstance(err.value, ValueError)

    def test_one_mask_value_for_every_sample_names_the_first(self):
        # a constant expression fails at every sample alike
        fn = ScalarFn.from_source("1")
        r = np.linspace(0.0, 0.5, 41)
        with pytest.raises(SampleError, match=r"^b must vanish \(r = 0\.0: b = 1\.0\)$"):
            numerics.refuse_samples(fn, "b must vanish", np.float64(1.0) != 0.0, r, "r", b=1.0)


class TestOriginClassifier:
    def test_mild_singularity(self):
        v = classify_origin_integral(lambda t: t ** -0.5, 1.0)
        assert v.is_convergent
        assert v.value == pytest.approx(2.0, rel=1e-7)

    def test_harmonic(self):
        v = classify_origin_integral(lambda t: 1.0 / t, 1.0)
        assert v.is_divergent

    def test_nested_growth_condition(self):
        # (int_0^t s^-1/2 ds)^(-1/2) = (2 sqrt t)^(-1/2): power -1/4 > -1
        v = classify_origin_integral(lambda t: (2.0 * math.sqrt(t)) ** -0.5, 1.0)
        assert v.is_convergent
        assert v.value == pytest.approx((4.0 / 3.0) / math.sqrt(2.0), rel=1e-7)

    @pytest.mark.parametrize("s,divergent", [
        (0.5, False), (0.9, False), (0.98, False), (1.0, True), (1.02, True), (1.1, True),
        (2.0, True)])
    def test_power_family(self, s, divergent):
        v = classify_origin_integral(lambda t: t ** -s, 1.0)
        assert v.is_divergent == divergent

    @pytest.mark.parametrize("fn", [ScalarFn.from_source("1/t^5").fast(), lambda t: 1.0 / t ** 5],
                             ids=["compiled", "python"])
    def test_divergent_image_that_fails_past_the_samples(self, fn):
        # t^5 underflows to 0 at t = e^-152.9, a sample of the image in w = ln s
        # past s = 2^48: the division error ends the samples, as overflow does
        v = classify_origin_integral(fn, 1.0)
        assert v.is_divergent
        assert v.slope == pytest.approx(-5.0, abs=1e-9)

    @pytest.mark.parametrize("path", ["array", "scalar"])
    def test_zero_at_the_upper_limit(self, path):
        # int_0^1 t^-1/2 ln(1/t) dt = 4: the image s^-3/2 ln s is 0 at s = 1
        fn = ScalarFn.from_source("t^(-0.5)*ln(1/t)")
        v = classify_origin_integral(fn if path == "array" else fn.fast(), 1.0)
        assert v.is_convergent
        assert abs(v.value - 4.0) <= v.err
        assert v.slope == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("b", [0.25, 3.0, 40.0])
    def test_other_upper_limits(self, b):
        # int_0^b t^-1/2 dt = 2 sqrt(b); t^-3/2 diverges whatever b is
        v = classify_origin_integral(lambda t: t ** -0.5, b)
        assert v.is_convergent
        assert v.value == pytest.approx(2.0 * math.sqrt(b), rel=1e-7)
        assert classify_origin_integral(lambda t: t ** -1.5, b).is_divergent

    @pytest.mark.parametrize("p", [-1.5, -0.5, 0.5, 2.0])
    def test_slope_is_the_local_power_at_the_origin(self, p):
        v = classify_origin_integral(lambda t: 3.0 * t ** p, 2.0)
        assert v.is_convergent == (p > -1.0)
        assert v.is_divergent == (p < -1.0)
        assert v.slope == pytest.approx(p, abs=1e-9)


class TestWholeLineClassifier:
    def test_zero_lower_limit_adds_the_head(self):
        # int_0^inf (1+t)^-3 dt = 1/2, of which the tail from 1 is 1/8
        v = classify_tail_integral(lambda t: (1.0 + t) ** -3, 0.0)
        assert v.is_convergent
        assert v.value == pytest.approx(0.5, rel=1e-8)
        assert classify_tail_integral(lambda t: (1.0 + t) ** -3, 1.0).value == \
            pytest.approx(0.125, rel=1e-8)

    def test_zero_lower_limit_keeps_a_divergent_verdict(self):
        v = classify_tail_integral(lambda t: 1.0 / (1.0 + t), 0.0)
        assert v.is_divergent and v.value is None

    def test_negative_lower_limit_is_rejected(self):
        with pytest.raises(ValueError):
            classify_tail_integral(lambda t: 1.0, -1.0)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_lower_limit_is_rejected(self, a):
        # inf read as the zero function, nan as inconclusive
        with pytest.raises(ValueError, match="finite"):
            classify_tail_integral(lambda t: t ** -2, a)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_non_finite_upper_limit_is_rejected(self, b):
        with pytest.raises(ValueError, match="finite"):
            classify_origin_integral(lambda t: t ** -0.5, b)


class TestTailQuadrature:
    """The composite Gauss-Kronrod rule of the convergent branch over arrays."""

    @pytest.mark.parametrize("src,a,exact", [
        ("t^(-1.02)", 1.0, 50.0), ("ln(t)/t^2", 1.0, 1.0), ("(1+t)^(-3)", 0.0, 0.5)])
    def test_closed_forms_on_both_paths(self, src, a, exact):
        fn = ScalarFn.from_source(src)
        array, scalar = classify_tail_integral(fn, a), classify_tail_integral(fn.fast(), a)
        for v in (array, scalar):
            assert v.is_convergent
            assert abs(v.value - exact) <= v.err
        # numpy's pow may differ from libm's in the last bit of a node
        assert array.slope == pytest.approx(scalar.slope, rel=1e-12, abs=0.0)
        assert array.value == pytest.approx(scalar.value, rel=1e-14, abs=0.0)

    def test_one_array_call_per_level(self):
        calls = []
        f = ScalarFn.from_source("t^(-2)")

        def many(t):
            calls.append(t.shape)
            return f.many(t)

        v = classify_tail_integral(Integrand(f.fast(), many), 1.0)
        assert v.is_convergent and v.value == pytest.approx(1.0, rel=1e-14)
        # the samples, then the first panels in one call
        assert calls[0] == (len(numerics._sample_points(1.0)),)
        assert calls[1] == (len(numerics._panel_edges(1.0)) - 1, 15)
        assert len(calls) == 2

    def test_a_jump_is_bisected_down_to_the_tolerance(self):
        # int_1^10 t^-2 dt = 0.9, with the integrand cut to 0 past t = 10; on
        # the panel that holds the jump the raw |K15 - G7| falls short of the
        # true error, the scaled estimate does not
        def fn(t):
            return t ** -2 if t <= 10.0 else 0.0

        value, err = numerics._integrate_log_tail(fn, [0.0, 1.0, 5.0], 1e-9, math.inf)
        assert err <= 1e-9 * 1.9
        assert abs(value - 0.9) <= err

    def test_a_tail_that_never_passes_is_a_numerics_error(self):
        # noise on every scale: no panel ever passes its test
        many = Integrand(lambda t: 1.0 + math.sin(1e9 * t), lambda t: 1.0 + np.sin(1e9 * t))
        with pytest.raises(NumericsError, match="tail quadrature"):
            numerics._integrate_log_tail(many, [0.0, 2.0, 4.0], 1e-9, math.inf)

    @pytest.mark.parametrize("exc", [OverflowError, ValueError, ZeroDivisionError,
                                     FloatingPointError])
    @pytest.mark.parametrize("path", ["array", "scalar"])
    def test_node_rule(self, exc, path):
        # a node that fails in float arithmetic, or is not finite, reads 0;
        # an array call that raises is redone node by node
        def scalar(t):
            if t > 5.0:
                raise exc("float failure")
            return math.inf if t > 3.0 else 1.0

        def many(t):
            raise exc("array failure")

        fn = Integrand(scalar, many) if path == "array" else scalar
        w = np.log(np.array([[2.0, 4.0, 8.0]]))
        if exc is FloatingPointError:  # not an error of the node rule
            with pytest.raises(FloatingPointError):
                numerics._log_integrand(fn, w, math.inf)
            return
        assert numerics._log_integrand(fn, w, math.inf).tolist() == [[pytest.approx(2.0), 0.0, 0.0]]

    @pytest.mark.parametrize("path", ["array", "scalar"])
    def test_node_rule_propagates_a_domain_error(self, path):
        fn = ScalarFn.from_source("sqrt(1e20-t)*(1+t)^(-3)")
        with pytest.raises(EvalDomainError, match=r"sqrt\(\(1e\+20 - t\)\) at t=5.18"):
            numerics._log_integrand(fn if path == "array" else fn.fast(), np.array([1.0, 50.0]),
                                    math.inf)

    @pytest.mark.parametrize("src", ["1/(t-t)", "(t-t)^(-1.5)", "(t-t)^(-2)"])
    @pytest.mark.parametrize("path", ["array", "scalar"])
    def test_a_degenerate_node_past_the_last_sample_reads_zero(self, src, path):
        # a division by zero or 0 to a negative power is degenerate float
        # arithmetic past the last sample, and a failure at or before it
        fn = ScalarFn.from_source(src)
        fn = fn if path == "array" else fn.fast()
        w = np.log(np.array([20.0, 50.0]))
        assert numerics._log_integrand(fn, w, 10.0).tolist() == [0.0, 0.0]
        with pytest.raises(EvalDomainError) as err:
            numerics._log_integrand(fn, np.log(np.array([5.0, 50.0])), 10.0)
        assert err.value.t < 10.0
        with pytest.raises(EvalDomainError):
            numerics._log_integrand(fn, w, math.inf)

    @pytest.mark.parametrize("src", ["sqrt(-t)", "ln(t-t)", "(-t)^0.5"])
    def test_other_domain_errors_past_the_last_sample_propagate(self, src):
        fn = ScalarFn.from_source(src)
        with pytest.raises(EvalDomainError):
            numerics._log_integrand(fn, np.log(np.array([20.0, 50.0])), 10.0)


class TestBertrandRemainder:
    """The first-order remainder rule past a point T of a convergent Bertrand
    fit, which the tail classifier and the tail map read."""

    def test_power_tail(self):
        # int_T^inf t^-2 dt = 1/T: A = -2 decides
        fit = classify_tail_integral(lambda t: t ** -2, 1.0).diagnostics
        for T in (10.0, 1e10, 1e100):
            assert numerics.bertrand_remainder(fit, T, T ** -2) == pytest.approx(1.0 / T, rel=1e-12)

    def test_log_tail(self):
        # int_T^inf dt/(t ln^2 t) = 1/ln T: A = -1 to the fit's resolution, B = -2 decides
        def fn(t):
            return 1.0 / (t * math.log(t) ** 2)

        verdict = classify_tail_integral(fn, 2.0)
        fit = verdict.diagnostics
        assert verdict.is_convergent and abs(fit["a"] + 1.0) <= 1e-9
        for T in (10.0, 1e10, 1e100):
            assert numerics.bertrand_remainder(fit, T, fn(T)) == pytest.approx(
                1.0 / math.log(T), rel=1e-9)


def _once(fn, seen=None):
    """fn, failing the test when a point is evaluated twice; the points go to seen."""
    seen = [] if seen is None else seen

    def wrapped(x):
        assert x not in seen, f"{x!r} evaluated twice"
        seen.append(x)
        return fn(x)

    return wrapped


class TestRootFinding:
    def test_square(self):
        assert find_root_monotone(_once(lambda x: x * x), 4.0, 0.0, 10.0) == pytest.approx(2.0)

    def test_exp(self):
        assert find_root_monotone(_once(math.exp), 1.0, -1.0, 1.0) == pytest.approx(0.0,
                                                                                  abs=1e-11)

    def test_profile_inversion(self):
        # Phi(h) = sqrt(2)/h, target t^2/2 at t = 0.1 -> h = 2 sqrt2/t^2
        got = find_root_monotone(_once(lambda h: math.sqrt(2.0) / h), 0.005, 1e-6, 1.0,
                                 tol=1e-13)
        assert got == pytest.approx(2.0 * math.sqrt(2.0) * 100.0, rel=1e-9)

    def test_residual_stop(self):
        # the search ends at the first point with |x^3 - 2| <= tol, long
        # before the width stop
        seen = []
        got = find_root_monotone(_once(lambda x: x ** 3, seen), 2.0, 0.0, 4.0, tol=1e-2,
                                 width_tol=1e-15)
        assert got == seen[-1]
        assert abs(got ** 3 - 2.0) <= 1e-2
        assert all(abs(x ** 3 - 2.0) > 1e-2 for x in seen[:-1])

    def test_bracket_expansion(self):
        # root at 1000 lies far beyond the initial interval
        got = find_root_monotone(_once(lambda x: x), 1000.0, 0.0, 1.0)
        assert got == pytest.approx(1000.0, rel=1e-9)

    def test_bracket_failure(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: -1.0 / (1.0 + x), 5.0, 0.0, 1.0)

    def test_decreasing_function(self):
        got = find_root_monotone(_once(lambda x: 1.0 / x), 0.25, 1.0, 2.0)
        assert got == pytest.approx(4.0, rel=1e-9)
        got = find_root_monotone(_once(lambda x: -x), -1000.0, 0.0, 1.0)
        assert got == pytest.approx(1000.0, rel=1e-9)

    def test_sign_change_suffices(self):
        # sin rises and then falls on [1, 4]; only the sign change at pi counts
        got = find_root_monotone(_once(math.sin), 0.0, 1.0, 4.0)
        assert got == pytest.approx(math.pi, abs=1e-11)

    def test_nan_value_raises_naming_the_point(self):
        # fn fails past 0.4: brentq must not be fed the nan
        with pytest.raises(NumericsError, match=r"nan at x=1\.0"):
            find_root_monotone(lambda x: x - 0.3 if x <= 0.4 else math.nan, 0.0, 0.0, 1.0)

    def test_unconverged_search_raises(self):
        # a jump at 1e-200 on a bracket 1e300 wide needs ~1,700 halvings
        with pytest.raises(NumericsError, match="did not converge"):
            find_root_monotone(lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, -1.0, 1e300,
                               tol=0.0, width_tol=1e-300)


def _nan_past_half(r, u, du):
    return math.nan if r > 0.5 else -u


def _radial_shot(source, u0, N, r_max, rtol=1e-10, cap=None):
    """A dense shot of u'' + (N-1)/r u' = source from u(0) = u0, u'(0) = 0
    over [0, r_max]: the series start at 1e-6 r_max, atol = rtol/1000."""
    start, y0 = series_start(source, u0, N, 1e-6 * r_max)
    return shoot(source, N, start, y0, r_max, rtol, rtol * 1e-3, cap=cap, dense=True)


def _on_grid(sol):
    """(r, u) on 513 points from the start to the end of the shot."""
    r = np.linspace(sol.t[0], sol.t[-1], 513)
    return r, sol.sol(r)[0]


class TestRadialIVP:
    def test_constant_solution(self):
        sol = _radial_shot(lambda r, u, du: 0.0, 1.0, 3, 5.0)
        assert sol.status == 0 and sol.event is None
        assert np.max(np.abs(_on_grid(sol)[1] - 1.0)) < 1e-12

    def test_radial_eigenfunction(self):
        # u'' + (2/r) u' = -pi^2 u from u(0)=1 is sin(pi r)/(pi r): u(1) = 0
        lam = math.pi ** 2
        sol = _radial_shot(lambda r, u, du: -lam * u, 1.0, 3, 1.0, rtol=1e-12)
        assert sol.t[-1] == 1.0 and abs(sol.y[0, -1]) < 1e-8

    def test_gradient_counterexample_tracks_exact_solution(self):
        # u = r^2 + 2N solves u'' + (N-1)/r u' = u - 2^(a-2) r^a |u'|^(2-a)
        alpha, N = 0.5, 3
        sol = _radial_shot(
            lambda r, u, du: u - 2.0 ** (alpha - 2.0) * r ** alpha * abs(du) ** (2.0 - alpha),
            2.0 * N, N, 10.0)
        r, u = _on_grid(sol)
        exact = r ** 2 + 2.0 * N
        assert np.max(np.abs(u - exact) / exact) < 1e-6

    def test_blowup_detection(self):
        # u'' = u^2 from a large start blows up before r = 10: the cap ends the shot
        sol = _radial_shot(lambda r, u, du: u * u, 10.0, 1, 10.0, cap=1e8)
        assert sol.status == 1 and sol.event == 2
        assert 0.0 < sol.t[-1] < 10.0
        assert np.max(np.abs(_on_grid(sol)[1])) <= 2e8

    def test_step_counts_account_for_every_rhs_call(self):
        # one call at the start, one for the initial step, twelve per attempted
        # step and three per accepted step for its interpolant
        sol = _radial_shot(lambda r, u, du: -u, 1.0, 3, 8.0, rtol=1e-9)
        assert sol.steps_accepted > 0 and sol.steps_rejected >= 0
        assert sol.nfev == (2 + 12 * (sol.steps_accepted + sol.steps_rejected)
                            + 3 * sol.steps_accepted)

    @pytest.mark.parametrize("source", [_nan_past_half, lambda r, u, du: math.nan])
    def test_nan_source_fails_with_the_step_size(self, source):
        sol = _radial_shot(source, 1.0, 1, 2.0)
        assert sol.status == -1 and "step size" in sol.message

    def test_tolerance_controls_error_like_high_order(self):
        lam = math.pi ** 2
        errs = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            sol = _radial_shot(lambda r, u, du: -lam * u, 1.0, 3, 1.0, rtol=tol)
            errs.append(abs(float(sol.y[0, -1])))
        # adaptive embedded pair of order >= 4: error tracks the tolerance
        assert errs[1] < errs[0] and errs[2] < errs[1] * 0.5 and errs[3] < 1e-8
        assert errs[3] <= errs[0] * 1e-3


class TestShoot:
    def test_floor_events_in_order(self):
        # u'' = -u from (1, 0) is cos r: it falls to 1/2 at pi/3 before reaching 0
        sol = shoot(lambda r, u, du: -u, 1, 0.0, (1.0, 0.0), 3.0, 1e-12, 1e-14,
                    floors=(0.5, 0.0))
        assert sol.status == 1 and sol.event == 0
        assert sol.t[-1] == pytest.approx(math.pi / 3.0, abs=1e-10)

    def test_cap_event(self):
        # u'' = u from (1, 0) is cosh r: it rises to 2 at arccosh 2
        sol = shoot(lambda r, u, du: u, 1, 0.0, (1.0, 0.0), 3.0, 1e-12, 1e-14,
                    cap=2.0)
        assert sol.event == 2
        assert sol.t[-1] == pytest.approx(math.acosh(2.0), abs=1e-10)

    def test_event_order_floors_cap(self):
        # event numbers the slot, floors then cap, whichever slots are present:
        # cos r falls to the second floor 0 at pi/2, cosh r rises to the cap 3
        # at arccosh 3 with one floor
        sol = shoot(lambda r, u, du: -u, 1, 0.0, (1.0, 0.0), 5.0, 1e-12, 1e-14,
                    floors=(-0.5, 0.0), cap=5.0)
        assert sol.event == 1
        assert sol.t[-1] == pytest.approx(math.pi / 2.0, abs=1e-10)
        sol = shoot(lambda r, u, du: u, 1, 0.0, (1.0, 0.0), 5.0, 1e-12, 1e-14,
                    floors=(0.5,), cap=3.0)
        assert sol.event == 2
        assert sol.t[-1] == pytest.approx(math.acosh(3.0), abs=1e-10)

    def test_drift_term_with_series_start(self):
        # u'' + (2/r) u' = -u from u(0) = 1 is sin(r)/r: first zero at pi
        source = lambda r, u, du: -u  # noqa: E731
        r0, y0 = series_start(source, 1.0, 3, 1e-6)
        sol = shoot(source, 3, r0, y0, 4.0, 1e-12, 1e-14, floors=(0.0,),
                    dense=True)
        assert sol.event == 0 and sol.t[-1] == pytest.approx(math.pi, abs=1e-9)
        assert float(sol.sol(1.0)[0]) == pytest.approx(math.sin(1.0), abs=1e-10)

    def test_series_start(self):
        source = lambda r, u, du: 3.0 * u + 1.0  # noqa: E731
        assert series_start(source, 2.0, 1, 1e-3) == (0.0, (2.0, 0.0))
        r0, (u, du) = series_start(source, 2.0, 3, 1e-3)
        # g0 = source(0, 2, 0) = 7: u ~ 2 + 7 eps^2/6, u' ~ 7 eps/3
        assert r0 == 1e-3
        assert u == pytest.approx(2.0 + 7e-6 / 6.0, rel=1e-15)
        assert du == pytest.approx(7e-3 / 3.0, rel=1e-15)


class TestBesselPsi:
    """psi_M(x) = Gamma(M/2) (x/2)^(1-M/2) J_{M/2-1}(x), summed as its series."""

    X = np.linspace(0.0, 1.0, 201)

    @pytest.mark.parametrize("M, closed", [
        (1, np.cos),
        (3, lambda x: np.sin(x) / x),
        (2, lambda x: jv(0.0, x)),
        (4, lambda x: 2.0 * jv(1.0, x) / x),
        (5, lambda x: gamma(2.5) * (0.5 * x) ** -1.5 * jv(1.5, x)),
    ])
    def test_closed_forms_on_the_unit_interval(self, M, closed):
        assert bessel_psi(M, 0.0) == 1.0
        x = self.X[1:]
        assert bessel_psi(M, x) == pytest.approx(closed(x), rel=1e-14, abs=0.0)

    def test_interval_eigenfunction_is_sin(self):
        assert self.X * bessel_psi(3, self.X) == pytest.approx(np.sin(self.X), rel=1e-14,
                                                               abs=0.0)

    def test_floats_and_arrays_agree(self):
        values = bessel_psi(4, self.X)
        assert [bessel_psi(4, float(x)) for x in self.X] == values.tolist()
        assert isinstance(bessel_psi(4, 0.5), float)

    @pytest.mark.parametrize("M", range(1, 8))
    def test_slope_is_the_series_two_dimensions_up(self, M):
        # psi_M' = -(x/M) psi_{M+2}, against a fourth-order central difference
        x, h = self.X, 1e-3
        diff = (8.0 * (bessel_psi(M, x + h) - bessel_psi(M, x - h))
                - (bessel_psi(M, x + 2 * h) - bessel_psi(M, x - 2 * h))) / (12.0 * h)
        assert np.max(np.abs(diff + (x / M) * bessel_psi(M + 2, x))) <= 1e-12

    def test_past_the_unit_interval(self):
        # the terms rise before they fall: the sum runs past the largest one
        x = np.linspace(0.0, 6.0, 61)
        assert np.max(np.abs(bessel_psi(1, x) - np.cos(x))) <= 1e-13


class TestDormandPrinceKernel:
    def test_dense_output_tracks_cosine(self):
        sol = shoot(lambda r, u, du: -u, 1, 0.0, (1.0, 0.0), 6.0, 1e-10, 1e-12,
                    dense=True)
        assert sol.status == 0 and sol.success
        grid = np.linspace(0.0, 6.0, 301)
        vals = sol.sol(grid)
        assert vals.shape == (2, grid.size)
        assert np.max(np.abs(vals[0] - np.cos(grid))) < 1e-8
        assert np.max(np.abs(vals[1] + np.sin(grid))) < 1e-8
        assert float(sol.sol(1.0)[0]) == pytest.approx(math.cos(1.0), abs=1e-8)

    def test_nan_source_stops_below_the_nan(self):
        sol = shoot(_nan_past_half, 1, 0.0, (1.0, 0.0), 2.0, 1e-10, 1e-12)
        assert sol.status == -1 and not sol.success
        assert sol.t[-1] == pytest.approx(0.5, abs=1e-9)
        assert "step size" in sol.message


def _scipy_shoot(source, N, r_start, y0, r_end, rtol, atol, floors=(), cap=None,
                 dense=False):
    """Reference: `shoot` with the same arguments through scipy's
    solve_ivp(method="DOP853"), with the slot of its fired event as `event`."""

    def f(r, y):
        val = source(r, y[0], y[1])
        if N > 1 and r > 0.0:
            val -= (N - 1) / r * y[1]
        return (y[1], val)

    events = [lambda r, y, level=level: y[0] - level for level in floors]
    if cap is not None:
        events.append(lambda r, y: cap - y[0])
    for event in events:
        event.terminal = True
        event.direction = -1
    sol = solve_ivp(f, (r_start, r_end), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense, events=events or None)
    slots = [*range(len(floors)), *[2] * (cap is not None)]
    sol.event = next((slot for slot, te in zip(slots, sol.t_events or []) if te.size), None)
    return sol


def _probe_table(prob):
    """(event index, zero location) of every probe of the audit grid AUDIT_PROBES."""
    zero_location, integrate = bifurcation._shooting_map(prob)
    table = []
    for s in AUDIT_PROBES:
        sol = integrate(s)
        table.append((None if sol is None else sol.event, zero_location(s)[0]))
    return table


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's overflow on the e^u ball
@pytest.mark.parametrize("name", ["interval singular", "N=3 singular ball", "-u''=12u",
                                  "N=3 e^u ball"])
def test_shooting_map_matches_scipy_dop853(monkeypatch, name):
    g_half = analyze_singular_term("t^(-1/2)")
    prob = {
        "interval singular": LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                                        a_pot=ScalarFn.from_source("1")),
        "N=3 singular ball": LEFProblem(N=3, geometry="ball", lam=0.0, g=g_half,
                                        a_pot=ScalarFn.from_source("1")),
        "-u''=12u": LEFProblem(N=1, geometry="interval", lam=12.0,
                               f=analyze_nonlinearity("t")),
        "N=3 e^u ball": LEFProblem(N=3, geometry="ball", lam=3.0,
                                   f=analyze_nonlinearity("exp(t)")),
    }[name]
    got = _probe_table(prob)
    monkeypatch.setattr(bifurcation, "shoot", _scipy_shoot)
    want = _probe_table(prob)
    for (event, z), (event_ref, z_ref) in zip(got, want):
        assert event == event_ref
        # a failed shot has no zero location, on both sides
        assert math.isnan(z) == math.isnan(z_ref)
        if not math.isnan(z_ref):
            assert z == pytest.approx(z_ref, rel=1e-10)


def _shots_beside_scipy(monkeypatch, module):
    """Make module's shots run on the kernel and, with the same arguments,
    on scipy's DOP853; returns the list of (kernel shot, scipy shot)."""
    pairs = []

    def both(*args, **kwargs):
        got = shoot(*args, **kwargs)
        pairs.append((got, _scipy_shoot(*args, **kwargs)))
        return got

    monkeypatch.setattr(module, "shoot", both)
    return pairs


def _assert_shots_agree(pairs, rel):
    """Same fired event, and end point (r, u), the event radius where one
    fired, within rel of the shot's scale; returns the share of shots with
    scipy's accepted-step count."""
    same_steps = 0
    for got, ref in pairs:
        assert got.event == ref.event
        assert got.t[-1] == pytest.approx(ref.t[-1], rel=rel)
        assert abs(got.y[0, -1] - ref.y[0, -1]) <= rel * np.max(np.abs(ref.y[0]))
        same_steps += got.t.size == ref.t.size
    return same_steps / len(pairs)


EIGEN_CASES = [(1, "ball"), (2, "ball"), (3, "ball"), (4, "ball"), (5, "ball"), (1, "interval")]


@pytest.fixture(scope="module")
def eigen_step_shares():
    """{(N, mode): share of the eigen shots with scipy's accepted-step count},
    measured in a child process with OPENBLAS_CORETYPE=Prescott.

    scipy's DOP853 forms its stage sums with numpy dot products; OpenBLAS's
    FMA kernels round them differently from the kernel's plain sums, which
    moves some shots by one accepted step.
    Without FMA every shot must take scipy's steps.
    """
    code = ("import pytest, test_numerics as t\n"
            "from sel_lab import bifurcation\n"
            "for N, mode in t.EIGEN_CASES:\n"
            "    with pytest.MonkeyPatch.context() as mp:\n"
            "        pairs = t._shots_beside_scipy(mp, bifurcation)\n"
            "        bifurcation.lambda1_ball(N, 1.0, mode=mode)\n"
            "    print(N, mode, t._assert_shots_agree(pairs, rel=1e-12))\n")
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(bifurcation.__file__)),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {(int(N), mode): float(share)
            for N, mode, share in (line.split() for line in proc.stdout.splitlines())}


class TestDop853AgainstScipy:
    """Every shot of the eigenvalue and level searches beside scipy's DOP853."""

    @pytest.mark.parametrize("N, mode", EIGEN_CASES)
    def test_eigen_shots(self, monkeypatch, eigen_step_shares, N, mode):
        pairs = _shots_beside_scipy(monkeypatch, bifurcation)
        bifurcation.lambda1_ball(N, 1.0, mode=mode)
        assert len(pairs) == 2  # the unit shot to the first zero and the eigenfunction
        _assert_shots_agree(pairs, rel=1e-12)
        assert eigen_step_shares[N, mode] == 1.0

    def test_annulus_level_shots_with_cap(self, monkeypatch):
        # the annulus shoots inward from its zero boundary: only the cap fires
        pairs = _shots_beside_scipy(monkeypatch, radial)
        prob = LogisticProblem(N=1, f=analyze_nonlinearity("t^3"),
                               b=ScalarFn.from_source("t^2"), domain=("annulus", 0.0, 1.0))
        boundary_blowup(prob, n_levels=[10.0, 20.0, 40.0])
        assert {got.event for got, _ in pairs} - {None} == {2}
        assert _assert_shots_agree(pairs, rel=1e-12) >= 0.9

    def test_ball_level_shots_with_cap(self, monkeypatch):
        pairs = _shots_beside_scipy(monkeypatch, radial)
        prob = LogisticProblem(N=3, f=analyze_nonlinearity("t^3"), b=ScalarFn.from_source("1"),
                               domain=("ball", 1.0))
        boundary_blowup(prob, n_levels=[10.0, 20.0, 40.0])
        assert any(got.event == 2 for got, _ in pairs)
        # shots into the cap are ill-conditioned: one ulp on the centre value
        # moves scipy's own cap radius by up to 7e-13 relative, and the
        # kernel's cap radii differ from scipy's by up to 2.2e-12
        assert _assert_shots_agree(pairs, rel=1e-11) >= 0.9


class TestDop853Kernel:
    def test_dense_output_tracks_sinc(self):
        # u'' + (2/r) u' = -u from u(0) = 1 is sin r / r
        source = lambda r, u, du: -u  # noqa: E731
        r0, y0 = series_start(source, 1.0, 3, 1e-6)
        sol = shoot(source, 3, r0, y0, 6.0, 1e-12, 1e-14, dense=True)
        assert isinstance(sol, ShotResult) and sol.status == 0
        r = np.linspace(0.01, 6.0, 301)
        vals = sol.sol(r)
        assert vals.shape == (2, r.size)
        assert np.max(np.abs(vals[0] - np.sin(r) / r)) < 1e-10
        assert np.max(np.abs(vals[1] - (r * np.cos(r) - np.sin(r)) / r ** 2)) < 1e-10

    @pytest.mark.parametrize("stages, dense_stages", [pytest.param(12, 3, id="DOP853-12-3")])
    @pytest.mark.parametrize("dense", [False, True])
    def test_nfev_counts_every_source_call(self, stages, dense_stages, dense):
        calls = []

        def source(r, u, du):
            calls.append(r)
            return -u

        # cos r falls to 0 at pi/2, inside the window: the floor event fires
        sol = shoot(source, 1, 0.0, (1.0, 0.0), 3.0, 1e-10, 1e-12, floors=(0.0,),
                    dense=dense)
        assert isinstance(sol, ShotResult) and sol.status == 1
        assert sol.nfev == len(calls)
        interpolants = sol.steps_accepted if dense else 1
        assert sol.nfev == (2 + stages * (sol.steps_accepted + sol.steps_rejected)
                            + dense_stages * interpolants)


def test_radial_solution_grid_validation():
    with pytest.raises(ValueError):
        RadialSolution(dimension=1, r=np.array([0.0, 0.0, 1.0]), u=np.zeros(3))


def test_radial_solution_csv_roundtrip(tmp_path):
    sol = RadialSolution(dimension=2, r=np.linspace(0, 1, 5), u=np.arange(5.0),
                         du=np.ones(5), classification=BOUNDED)
    path = tmp_path / "sol.csv"
    sol.to_csv(path)
    text = path.read_text()
    assert text.startswith("# classification=bounded")
    assert "r,u,u_prime" in text


def test_tail_domain_error_past_the_samples_propagates():
    # psi is defined up to 1e20, far past the geometric samples (up to 2^48):
    # the samples in w = ln t beyond them and the nodes of the tail
    # quadrature reach its failing points
    psi = ScalarFn.from_source("sqrt(1e20-t)*(1+t)^(-3)").fast()
    with pytest.raises(EvalDomainError, match=r"sqrt\(\(1e\+20 - t\)\) at t="):
        classify_tail_integral(psi, 1.0)
    with pytest.raises(EvalDomainError, match=r"sqrt\(\(1e\+20 - t\)\) at t=5.18"):
        numerics._log_integrand(psi, np.array([50.0]), math.inf)
    # a failure in float arithmetic still reads as a zero
    assert numerics._log_integrand(lambda t: math.log(-t), np.array([0.0]),
                                   math.inf).tolist() == [0.0]


class TestFixedOrderFits:
    """The tail fits solve their least squares without BLAS or LAPACK."""

    TS = 2.0 ** np.arange(1.0, 81.0)

    @pytest.mark.parametrize("A,B", [(-1.3, 0.7), (-1.0, -2.0), (2.5, -0.5), (-3.0, 0.0),
                                     (0.0, 1.5), (-0.999, 3.0)])
    @pytest.mark.parametrize("n", [8, 20, 49, 80])
    def test_bertrand_fit_recovers_exact_exponents(self, A, B, n):
        ts = self.TS[:n]
        fs = np.exp(A * np.log(ts) + B * np.log(np.log(ts)))
        a, b, diag = numerics._bertrand_fit(ts, fs)
        assert abs(a - A) <= 1e-13 and abs(b - B) <= 1e-13
        assert diag["misfit"] <= numerics.EXACT_MISFIT

    @pytest.mark.parametrize("L,c1,c2", [(2.0, 0.5, -0.25), (0.0, -3.0, 7.0), (-1e3, 40.0, 0.0)])
    @pytest.mark.parametrize("n", [8, 20, 49, 80])
    def test_inverse_log_fit_recovers_the_limit(self, L, c1, c2, n):
        ts = self.TS[:n]
        w = np.log(ts)
        got, tail, misfit = numerics._inverse_log_fit(ts, L + c1 / w + c2 / w ** 2)
        assert got == pytest.approx(L, rel=1e-12, abs=1e-12)
        assert tail == pytest.approx(c1 / w[-1] + c2 / w[-1] ** 2, rel=1e-9, abs=1e-12)
        assert misfit <= numerics.EXACT_MISFIT

    def test_no_lapack_call(self, monkeypatch):
        ts = self.TS[:49]
        w = np.log(ts)
        fs, ys = ts ** -1.3 * w ** 0.7 * (1.0 + 1.0 / w), 2.0 + 0.5 / w + 1e-9 * np.sin(w)
        before = numerics._bertrand_fit(ts, fs), numerics._inverse_log_fit(ts, ys)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        assert (numerics._bertrand_fit(ts, fs), numerics._inverse_log_fit(ts, ys)) == before
