import math

import numpy as np
import pytest

from sel_lab.numerics import (
    BOUNDARY_BLOWUP,
    BOUNDED,
    BracketError,
    NonIntegrableError,
    RadialSolution,
    classify_origin_integral,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    integrate_radial_ivp,
    series_start,
    shoot,
)


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

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda t: t, 1.0, 0.0, 1e-9)


class TestTailClassifier:
    def test_inverse_square(self):
        v = classify_tail_integral(lambda t: t ** -2, 1.0, 1e-8)
        assert v.is_convergent
        assert v.value == pytest.approx(1.0, abs=1e-8)
        assert v.err <= 1e-8 * (1.0 + abs(v.value))

    def test_harmonic(self):
        v = classify_tail_integral(lambda t: 1.0 / t, 1.0)
        assert v.is_divergent
        assert v.slope == pytest.approx(-1.0, abs=1e-6)

    def test_ko_integrand_of_cubic(self):
        # (2F)^(-1/2) with F = t^4/4 integrates to sqrt(2) (antiderivative -sqrt2/t)
        v = classify_tail_integral(lambda t: (2.0 * t ** 4 / 4.0) ** -0.5, 1.0, 1e-8)
        assert v.is_convergent
        assert v.value == pytest.approx(math.sqrt(2.0), rel=1e-8)

    @pytest.mark.parametrize("s,divergent", [
        (0.5, True), (0.9, True), (1.0, True), (1.1, False), (2.0, False)])
    def test_power_family(self, s, divergent):
        v = classify_tail_integral(lambda t: t ** -s, 1.0, 1e-8)
        if divergent:
            assert v.is_divergent
        else:
            assert v.is_convergent
            assert v.value == pytest.approx(1.0 / (s - 1.0), rel=1e-6)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            classify_tail_integral(lambda t: math.sin(t), 1.0)

    def test_zero_function(self):
        v = classify_tail_integral(lambda t: 0.0, 1.0)
        assert v.is_convergent and v.value == 0.0


class TestOriginClassifier:
    def test_mild_singularity(self):
        v = classify_origin_integral(lambda t: t ** -0.5, 1.0, 1e-8)
        assert v.is_convergent
        assert v.value == pytest.approx(2.0, rel=1e-7)

    def test_harmonic(self):
        v = classify_origin_integral(lambda t: 1.0 / t, 1.0)
        assert v.is_divergent

    def test_nested_growth_condition(self):
        # (int_0^t s^-1/2 ds)^(-1/2) = (2 sqrt t)^(-1/2): power -1/4 > -1
        v = classify_origin_integral(lambda t: (2.0 * math.sqrt(t)) ** -0.5, 1.0, 1e-8)
        assert v.is_convergent
        assert v.value == pytest.approx((4.0 / 3.0) / math.sqrt(2.0), rel=1e-7)

    @pytest.mark.parametrize("s,divergent", [
        (0.5, False), (0.9, False), (1.0, True), (1.1, True), (2.0, True)])
    def test_power_family(self, s, divergent):
        v = classify_origin_integral(lambda t: t ** -s, 1.0, 1e-8)
        assert v.is_divergent == divergent


class TestRootFinding:
    def test_square(self):
        assert find_root_monotone(lambda x: x * x, 4.0, 0.0, 10.0) == pytest.approx(2.0)

    def test_exp(self):
        assert find_root_monotone(math.exp, 1.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_profile_inversion(self):
        # Phi(h) = sqrt(2)/h, target t^2/2 at t = 0.1 -> h = 2 sqrt2/t^2
        got = find_root_monotone(lambda h: math.sqrt(2.0) / h, 0.005, 1e-6, 1.0,
                                 tol=1e-13)
        assert got == pytest.approx(2.0 * math.sqrt(2.0) * 100.0, rel=1e-9)

    def test_bracket_expansion(self):
        # root at 1000 lies far beyond the initial interval
        got = find_root_monotone(lambda x: x, 1000.0, 0.0, 1.0)
        assert got == pytest.approx(1000.0, rel=1e-9)

    def test_bracket_failure(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: -1.0 / (1.0 + x), 5.0, 0.0, 1.0)

    def test_decreasing_function(self):
        got = find_root_monotone(lambda x: 1.0 / x, 0.25, 1.0, 2.0)
        assert got == pytest.approx(4.0, rel=1e-9)


class TestRadialIVP:
    def test_constant_solution(self):
        sol = integrate_radial_ivp(lambda r, u, du: 0.0, 1.0, 0.0, 3, 5.0)
        assert sol.classification == BOUNDED
        assert np.max(np.abs(sol.u - 1.0)) < 1e-12

    def test_radial_eigenfunction(self):
        # u'' + (2/r) u' = -pi^2 u from u(0)=1 is sin(pi r)/(pi r): u(1) = 0
        lam = math.pi ** 2
        sol = integrate_radial_ivp(lambda r, u, du: -lam * u, 1.0, 0.0, 3, 1.0,
                                   tol=1e-12)
        assert abs(sol.u[-1]) < 1e-8

    def test_gradient_counterexample_tracks_exact_solution(self):
        # u = r^2 + 2N solves u'' + (N-1)/r u' = u - 2^(a-2) r^a |u'|^(2-a)
        alpha, N = 0.5, 3
        sol = integrate_radial_ivp(
            lambda r, u, du: u - 2.0 ** (alpha - 2.0) * r ** alpha * abs(du) ** (2.0 - alpha),
            2.0 * N, 0.0, N, 10.0, tol=1e-10)
        exact = sol.r ** 2 + 2.0 * N
        assert np.max(np.abs(sol.u - exact) / exact) < 1e-6

    def test_blowup_detection(self):
        # u'' = u^2 from a large start blows up before r = 10
        sol = integrate_radial_ivp(lambda r, u, du: u * u, 10.0, 0.0, 1, 10.0,
                                   blowup_threshold=1e8)
        assert sol.classification == BOUNDARY_BLOWUP
        assert sol.blowup_radius is not None and 0.0 < sol.blowup_radius < 10.0
        assert np.max(np.abs(sol.u)) <= 2e8

    def test_tolerance_controls_error_like_high_order(self):
        lam = math.pi ** 2
        errs = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            sol = integrate_radial_ivp(lambda r, u, du: -lam * u, 1.0, 0.0, 3, 1.0,
                                       tol=tol)
            errs.append(abs(float(sol.u[-1])))
        # adaptive embedded pair of order >= 4: error tracks the tolerance
        assert errs[1] < errs[0] and errs[2] < errs[1] * 0.5 and errs[3] < 1e-8
        assert errs[3] <= errs[0] * 1e-3


class TestShoot:
    def test_floor_events_in_order(self):
        # u'' = -u from (1, 0) is cos r: it falls to 1/2 at pi/3 before reaching 0
        sol = shoot(lambda r, u, du: -u, 1, 0.0, (1.0, 0.0), 3.0, "DOP853", 1e-12, 1e-14,
                    floors=(0.5, 0.0))
        assert sol.status == 1
        assert sol.t_events[0][0] == pytest.approx(math.pi / 3.0, abs=1e-10)
        assert sol.t_events[1].size == 0
        assert sol.t[-1] == sol.t_events[0][0]

    def test_cap_event(self):
        # u'' = u from (1, 0) is cosh r: it rises to 2 at arccosh 2
        sol = shoot(lambda r, u, du: u, 1, 0.0, (1.0, 0.0), 3.0, "DOP853", 1e-12, 1e-14,
                    cap=2.0)
        assert sol.t_events[0][0] == pytest.approx(math.acosh(2.0), abs=1e-10)

    def test_event_order_floors_cap_blowup(self):
        # max(cosh r, |sinh r|) = cosh r reaches 3 at arccosh 3, before the cap 10
        sol = shoot(lambda r, u, du: u, 1, 0.0, (1.0, 0.0), 5.0, "DOP853", 1e-12, 1e-14,
                    floors=(0.5,), cap=10.0, blowup=3.0)
        assert len(sol.t_events) == 3
        assert sol.t_events[0].size == 0 and sol.t_events[1].size == 0
        assert sol.t_events[2][0] == pytest.approx(math.acosh(3.0), abs=1e-10)

    def test_drift_term_with_series_start(self):
        # u'' + (2/r) u' = -u from u(0) = 1 is sin(r)/r: first zero at pi
        source = lambda r, u, du: -u  # noqa: E731
        r0, y0 = series_start(source, 1.0, 3, 1e-6)
        sol = shoot(source, 3, r0, y0, 4.0, "DOP853", 1e-12, 1e-14, floors=(0.0,),
                    dense=True)
        assert sol.t_events[0][0] == pytest.approx(math.pi, abs=1e-9)
        assert float(sol.sol(1.0)[0]) == pytest.approx(math.sin(1.0), abs=1e-10)

    def test_series_start(self):
        source = lambda r, u, du: 3.0 * u + 1.0  # noqa: E731
        assert series_start(source, 2.0, 1, 1e-3, du0=0.5) == (0.0, (2.0, 0.5))
        r0, (u, du) = series_start(source, 2.0, 3, 1e-3, du0=0.5)
        # g0 = source(0, 2, 0) = 7: u ~ 2 + 0.5 eps + 7 eps^2/6, u' ~ 0.5 + 7 eps/3
        assert r0 == 1e-3
        assert u == pytest.approx(2.0 + 0.5e-3 + 7e-6 / 6.0, rel=1e-15)
        assert du == pytest.approx(0.5 + 7e-3 / 3.0, rel=1e-15)


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
