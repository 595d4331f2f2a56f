import math

import numpy as np
import pytest
from scipy.special import expn

from sel_lab import radial
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import KFunction, analyze_nonlinearity
from sel_lab.numerics import (
    BOUNDED,
    ENTIRE_LARGE,
    UNDETERMINED,
    NumericsError,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    shoot,
)
from sel_lab.profile import VARIANT_K, VARIANT_SQRT_K, build_profile
from sel_lab.radial import (
    _SERIES_FROM,
    _graded_mesh,
    _green_kernel,
    _large_condition_kernel,
    _volterra,
    LogisticProblem,
    RadialPotential,
    SystemProblem,
    boundary_blowup,
    check_large_condition,
    check_slow_variation,
    lipschitz_constant,
    measure_boundary_rate,
    picard_gradient_entire,
    residual,
    residual_on_table,
    solve_system,
)


@pytest.fixture(scope="module")
def f_sqrt():
    return analyze_nonlinearity("t^(1/2)")


@pytest.fixture(scope="module")
def f_cubic():
    return analyze_nonlinearity("t^3")


class TestSlowVariation:
    def test_radial_potential_trivial(self):
        pot = RadialPotential(phi=ScalarFn.from_source("1/(1+t^2)"))
        v = check_slow_variation(pot)
        assert v.is_convergent and v.value == 0.0

    def test_template_example(self):
        # max/min envelopes with r gap(r) Psi(r) = O(r^-2)
        pot = RadialPotential(phi=ScalarFn.from_source("(t^2+1)/((t^2+1)^2+1)"),
                              psi=ScalarFn.from_source("1/(t^2+2)"),
                              lam_N=1.0)
        v = check_slow_variation(pot)
        assert v.is_convergent
        assert v.slope == pytest.approx(-2.0, abs=0.1)

    def test_divergent_gap(self):
        pot = RadialPotential(phi=ScalarFn.from_source("1/(1+t)"),
                              psi=ScalarFn.from_source("0"), lam_N=1.0)
        assert check_slow_variation(pot).is_divergent

    def test_envelope_order_enforced(self):
        with pytest.raises(ValueError):
            RadialPotential(phi=ScalarFn.from_source("0"),
                            psi=ScalarFn.from_source("1"))


class TestLargeCondition:
    def test_constant_weight_diverges(self):
        assert check_large_condition(ScalarFn.from_source("1"), 3).is_divergent

    def test_decaying_weight_converges_with_bound(self):
        v = check_large_condition(ScalarFn.from_source("(1+t)^(-3)"), 3)
        assert v.is_convergent
        # elementary bound (N-2)^-1 int t psi = 1/2 (integration by parts)
        assert v.diagnostics["elementary_bound"] == pytest.approx(0.5, rel=1e-8)
        assert v.diagnostics["bound_holds"]
        assert v.value <= 0.5

    def test_zero_weight(self):
        v = check_large_condition(ScalarFn.from_source("0"), 3)
        assert v.is_convergent and v.value == 0.0

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            check_large_condition(ScalarFn.from_source("1"), 2)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_closed_form(self, k, N):
        # psi = t^k e^-t: int_0^inf s^k e^-s K_N(s) ds = Gamma(k+2, 1)/(N+k),
        # e.g. 2/(N e) for k = 0
        upper_gamma = math.factorial(k + 1) / math.e * sum(
            1.0 / math.factorial(j) for j in range(k + 2))
        v = check_large_condition(ScalarFn.from_source(f"t^{k}*exp(-t)"), N)
        assert v.is_convergent
        assert v.value == pytest.approx(upper_gamma / (N + k), rel=1e-12)
        assert v.diagnostics["bound_holds"]

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("psi", ["(1+t^2)^(-2)", "(1+t)^(-3)", "exp(-t)", "(1+t)^(-1.5)"])
    def test_values_match_nested_quadrature(self, psi, N):
        got = check_large_condition(ScalarFn.from_source(psi), N)
        ref = _nested_large_condition(psi, N)
        assert got.is_convergent and ref.is_convergent
        assert got.value == pytest.approx(ref.value, rel=1e-10)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("psi", ["1", "(1+t)^(-0.5)", "1/(1+t)"])
    def test_verdicts_match_nested_quadrature(self, psi, N):
        got = check_large_condition(ScalarFn.from_source(psi), N)
        assert got.status == _nested_large_condition(psi, N).status

    def test_weight_vanishing_past_one_keeps_its_head(self):
        # psi = max(1 - t, 0): the tail from 1 is zero, the double integral is
        # E_2(1) int_0^1 (1 - s) s^2 e^s ds = (3e - 8) E_2(1)
        v = check_large_condition(ScalarFn.from_source("(1-t+abs(1-t))/2"), 3)
        assert v.is_convergent
        assert v.value == pytest.approx((3.0 * math.e - 8.0) * expn(2, 1.0), rel=1e-12)

    def test_bound_check_can_fail(self, monkeypatch):
        # a kernel ten times too large breaks outer <= (N-2)^-1 int t psi
        kernel = radial._large_condition_kernel
        monkeypatch.setattr(radial, "_large_condition_kernel",
                            lambda N: (lambda s, K=kernel(N): 10.0 * K(s)))
        v = check_large_condition(ScalarFn.from_source("(1+t)^(-3)"), 3)
        assert v.is_convergent and not v.diagnostics["bound_holds"]

    def test_domain_error_propagates(self):
        # sqrt(1e3 - t) fails at the tail sample t = 1024
        with pytest.raises(EvalDomainError, match=r"sqrt\(\(1000.0 - t\)\) at t=1024.0"):
            check_large_condition(ScalarFn.from_source("sqrt(1e3-t)"), 3)


def _nested_large_condition(psi_src: str, N: int, tol: float = 1e-8):
    """Reference: int_1^inf J(t) dt classified as a nested quadrature, with
    J(t) = e^-t t^(1-N) int_0^t e^s s^(N-1) psi(s) ds by one adaptive inner
    integral per outer node (s = t - x, so only the last ~60 units count)."""
    psi = ScalarFn.from_source(psi_src).fast()

    def J(t: float) -> float:
        if t < 1e-4:
            return psi(0.0) * t / N

        def integrand(x):
            s = t - x
            return math.exp(-x) * (s / t) ** (N - 1) * psi(s) if s >= 0.0 else 0.0

        return integrate_finite(integrand, 0.0, min(t, 60.0), 1e-10)[0]

    return classify_tail_integral(J, 1.0, tol)


class TestLargeConditionKernel:
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 9])
    def test_continuous_at_one_and_at_the_series_switch(self, N):
        K = _large_condition_kernel(N)
        for s in (1.0, _SERIES_FROM):
            below = K(math.nextafter(s, 0.0))
            assert below == pytest.approx(K(s), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 9])
    def test_tends_to_one(self, N):
        K = _large_condition_kernel(N)
        # s e^s E_n(s) = 1 - n/s + O(s^-2)
        for s in (1e3, 1e5, 1e8, 1e150):
            assert K(s) == pytest.approx(1.0 - (N - 1) / s, rel=0.0, abs=2.0 * N * N / s ** 2)
        values = [K(s) for s in (1.0, 10.0, 100.0, 1e3, 1e6)]
        assert all(a < b < 1.0 for a, b in zip(values, values[1:]))


class TestVolterraKernels:
    """Product-integration kernels are exact for s^m times a cubic, down to t[1]."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_system_kernel_exact(self, N):
        t = np.linspace(0.0, 50.0, 1025)
        K = _green_kernel(t, N)
        for fvals, exact in ((np.ones_like(t), t ** 2 / (2.0 * N)),
                             (t ** 2, t ** 4 / (4.0 * (N + 2)))):
            got = K(fvals)
            assert got[0] == 0.0
            np.testing.assert_allclose(got[1:4], exact[1:4], rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(got[1:], exact[1:], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_gradient_inner_matches_series(self, N):
        # J(t) = e^-t t^(1-N) int_0^t e^s s^(N-1) ds
        #      = t/N - t^2/(N(N+1)) + t^3/(N(N+1)(N+2)) - ...
        t = _graded_mesh(50.0, 1024)
        inner = _volterra(t, N - 1, rate=1)
        J = inner(np.ones_like(t))[1:4] * t[1:4] ** (1.0 - N)
        x = t[1:4]
        series = sum((-1) ** k * x ** (k + 1) / math.prod(range(N, N + k + 1))
                     for k in range(8))
        np.testing.assert_allclose(J, series, rtol=1e-13, atol=0.0)
        # negative panels are carried apart from the positive ones
        np.testing.assert_array_equal(inner(-np.ones_like(t)), -inner(np.ones_like(t)))

    def test_outer_integral_exact_for_cubic(self):
        t = _graded_mesh(50.0, 1024)
        np.testing.assert_allclose(_volterra(t, 0)(t ** 3)[1:], t[1:] ** 4 / 4.0,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_system_kernel_fourth_order(self, N):
        # the drift between consecutive mesh doublings falls ~16x
        def kernel(panels):
            t = np.linspace(0.0, 100.0, panels + 1)
            return _green_kernel(t, N)((1.0 + t * t) ** -2)

        runs = [kernel(1024 * 2 ** k) for k in range(3)]
        d1, d2 = (float(np.max(np.abs(fine[::2] - coarse)))
                  for coarse, fine in zip(runs, runs[1:]))
        assert d1 / d2 >= 12.0


class TestPicardGradient:
    def test_zero_weight_fixed_point(self, f_sqrt):
        sol = picard_gradient_entire(ScalarFn.from_source("0"), f_sqrt, 1.0, 10.0, 3,
                                     panels=256)
        assert sol.metadata["iterations"] == 1
        assert np.max(np.abs(sol.u - 1.0)) == 0.0

    def test_constant_weight_large(self, f_sqrt):
        sol = picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3,
                                     panels=1024)
        assert sol.classification == ENTIRE_LARGE
        assert sol.metadata["large_condition"] == "divergent"
        assert sol.metadata["monotone"]
        assert sol.metadata["growth_bound_ok"]
        # iterates grow in r
        assert np.all(np.diff(sol.u) >= -1e-12)

    def test_decaying_weight_bounded_with_plateau(self, f_sqrt):
        sol = picard_gradient_entire(ScalarFn.from_source("(1+t)^(-3)"), f_sqrt,
                                     1.0, 100.0, 3, panels=1024)
        assert sol.classification == BOUNDED
        assert sol.metadata["large_condition"] == "convergent"
        assert sol.metadata["plateau_drift"] < 1e-6

    def test_ordering_constant(self, f_sqrt):
        pot = RadialPotential(phi=ScalarFn.from_source("(t^2+1)/((t^2+1)^2+1)"),
                              psi=ScalarFn.from_source("1/(t^2+2)"),
                              lam_N=1.0)
        sol = picard_gradient_entire(pot, f_sqrt, 1.5, 30.0, 3, panels=1024)
        assert sol.metadata["b_star"] > 1.0
        assert sol.metadata["ordering_ok"]

    def test_large_condition_domain_error_propagates(self, f_sqrt):
        # psi is defined on the mesh [0, 50], not at the tail sample t = 1024
        with pytest.raises(EvalDomainError, match=r"sqrt\(\(1000.0 - t\)\) at t=1024.0"):
            picard_gradient_entire(ScalarFn.from_source("sqrt(1e3-t)"), f_sqrt, 1.0, 50.0,
                                   3, panels=256)

    def test_ordering_domain_error_propagates(self, f_sqrt):
        pot = RadialPotential(
            phi=ScalarFn.from_source("1/(t^2+2) + sqrt(1e3-t)*(1+t)^(-4)"),
            psi=ScalarFn.from_source("1/(t^2+2)"), lam_N=1.0)
        with pytest.raises(EvalDomainError, match=r"sqrt\(\(1000.0 - t\)\)"):
            picard_gradient_entire(pot, f_sqrt, 1.5, 30.0, 3, panels=256)

    def test_large_condition_quadrature_failure_is_recorded(self, f_sqrt, monkeypatch):
        def fail(psi, N):
            raise NumericsError("max subdivision exceeded without reaching tolerance")

        monkeypatch.setattr(radial, "check_large_condition", fail)
        sol = picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 20.0, 3,
                                     panels=256)
        assert sol.classification == UNDETERMINED
        assert "large_condition" not in sol.metadata
        assert sol.metadata["large_condition_error"].startswith("max subdivision")

    def test_b0_below_one_warns(self, f_sqrt):
        with pytest.warns(RuntimeWarning):
            picard_gradient_entire(ScalarFn.from_source("0"), f_sqrt, 0.5, 5.0, 3,
                                   panels=128)

    @pytest.mark.parametrize("q", [0.4878, 0.5501, 0.696])
    def test_constant_weight_large_in_dimension_four(self, q):
        # an inexact first panel makes the first iterate dip below w0 = 1 here
        sol = picard_gradient_entire(ScalarFn.from_source("1"),
                                     analyze_nonlinearity(f"t^{q!r}"), 1.0, 50.0, 4,
                                     panels=1024)
        assert sol.classification == ENTIRE_LARGE
        assert sol.metadata["monotone"] and sol.metadata["growth_bound_ok"]
        assert sol.metadata["mesh_points"] >= 2048
        assert sol.metadata["mesh_drift"] <= 1e-8

    def test_growth_ratio_does_not_move_with_the_mesh(self, f_sqrt):
        # the ratio reads w(R/2) between nodes of the graded mesh; the final
        # meshes here have 1024 and 2048 panels, where w(R) agrees to 5e-12
        ratios = [picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3,
                                         panels=panels).metadata["growth_ratio"]
                  for panels in (512, 1024)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)

    def test_unmet_tolerance_raises(self, f_sqrt):
        # w(R) still moves by ~8e-12 after the last doubling to 1024 panels
        with pytest.raises(NumericsError, match="Picard mesh refinement"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3,
                                   tol=1e-14, panels=128)

    def test_domain_error_from_the_mesh_sweep_is_the_scalar_error(self, f_sqrt):
        with pytest.raises(EvalDomainError) as err:
            picard_gradient_entire(ScalarFn.from_source("sqrt(40-t)"), f_sqrt, 1.0, 50.0, 3,
                                   panels=256)
        assert str(err.value) == ("square root of a negative value in sqrt((40.0 - t)) "
                                  "at t=40.009307861328125")

    def test_growth_bound_value(self, f_sqrt):
        # M = lam_N max t psi on [0,R]; for psi = 1: M = R/(N-2)
        sol = picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 20.0, 3,
                                     panels=512)
        assert sol.metadata["growth_bound_M"] == pytest.approx(20.0, rel=1e-9)


class TestSolveSystem:
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_entire_large_with_lower_bound(self, f_sqrt, N):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        sol = solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=1.0), 50.0, N, mesh_points=1024)
        assert sol.classification == ENTIRE_LARGE
        assert sol.metadata["lower_bound_ok"]
        # explicit kernel for p = 1: A(r) = r^2/(2N)
        lower = 1.0 + math.sqrt(1.0) * sol.r ** 2 / (2.0 * N)
        assert np.all(sol.u >= lower * (1.0 - 1e-9))

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_bounded_with_plateau(self, f_sqrt, N):
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        sol = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=1.0), 100.0, N, mesh_points=1024)
        assert sol.classification == BOUNDED
        assert sol.metadata["plateau_drift"] < 1e-6
        assert sol.metadata["lower_bound_ok"]
        # the refinement stops after three doublings with a last drift of
        # 4.5-8.8e-9; the drifts fall ~16x per doubling, so the Richardson
        # error left on the finest mesh meets the 1e-9 target
        assert sol.metadata["mesh_points"] == 8192
        assert sol.metadata["mesh_drift"] < 1e-7
        assert sol.metadata["mesh_error"] <= 1e-9

    def test_unmet_mesh_target_raises(self, f_sqrt):
        # 16 panels doubled three times leave a drift of ~3e-2
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        with pytest.raises(NumericsError, match="mesh error"):
            solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         100.0, 3, mesh_points=16)

    @pytest.mark.parametrize("potential, where", [("p", "t=40.0390625"), ("q", "t=40.0390625")])
    def test_domain_error_from_the_mesh_sweep_is_the_scalar_error(self, f_sqrt, potential,
                                                                   where):
        # the vector sweep over the mesh reports the scalar evaluator's error
        # at the first mesh node past 40
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        bad = RadialPotential(phi=ScalarFn.from_source("sqrt(40-t)"))
        pots = {"p": one, "q": one, potential: bad}
        with pytest.raises(EvalDomainError) as err:
            solve_system(SystemProblem(f=f_sqrt, g=f_sqrt, a=1.0, b=1.0, **pots), 50.0, 3,
                         mesh_points=256)
        assert str(err.value) == ("square root of a negative value in sqrt((40.0 - t)) "
                                  f"at {where}")

    def test_zero_potentials(self, f_sqrt):
        zero = RadialPotential(phi=ScalarFn.from_source("0"))
        sol = solve_system(SystemProblem(p=zero, q=zero, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=2.0), 10.0, 3, mesh_points=256)
        assert np.max(np.abs(sol.u - 1.0)) == 0.0
        assert np.max(np.abs(sol.v - 2.0)) == 0.0

    def test_mixed_verdicts_undetermined(self, f_sqrt):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        sol = solve_system(SystemProblem(p=one, q=dec, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=1.0), 50.0, 3, mesh_points=512)
        assert sol.classification == UNDETERMINED

    def test_coupling_warning(self):
        # f = g = t gives g(c f(t))/t = c, which does not vanish
        f_lin = analyze_nonlinearity("t")
        one = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        with pytest.warns(RuntimeWarning):
            solve_system(SystemProblem(p=one, q=one, f=f_lin, g=f_lin,
                                       a=1.0, b=1.0), 10.0, 3, mesh_points=256)


class TestMonotoneCheck:
    """Both schemes share one Picard loop; a step that lowers the iterate
    must make each of them refuse its result."""

    @pytest.fixture
    def lowering_kernel(self, monkeypatch):
        # every Volterra integral reads -1, so the first step lowers u(0)
        monkeypatch.setattr(radial, "_volterra",
                            lambda t, m, rate=0: lambda fvals: np.full_like(t, -1.0))

    def test_gradient_scheme_raises(self, f_sqrt, lowering_kernel):
        with pytest.raises(ValueError, match="nondecreasing"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 10.0, 3,
                                   panels=64)

    def test_system_raises(self, f_sqrt, lowering_kernel):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        with pytest.raises(ValueError, match="nondecreasing"):
            solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         10.0, 3, mesh_points=64)


class TestLipschitz:
    def test_zero_lipschitz(self):
        assert lipschitz_constant(1.0, 1.0, 0.0) == 1.0

    def test_formula(self):
        assert lipschitz_constant(1.0, 1.0, 1.0) == pytest.approx(2.0 * math.e)

    def test_paired_run_bound(self, f_sqrt):
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        a = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                       a=1.0, b=1.0), 50.0, 3, mesh_points=1024)
        b = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                       a=1.01, b=1.01), 50.0, 3, mesh_points=1024)
        diff = max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.v - b.v))))
        # C_p = C_q = (N-2)^-1 int t (1+t^2)^-2 dt = 1/2; Lipschitz constant of
        # sqrt on the attained range [1, sup] is 1/2
        bound = lipschitz_constant(0.5, 0.5, 0.5) * 0.01
        assert diff <= bound


class TestResidual:
    def test_explicit_entire_large_solution(self):
        alpha, N = 0.5, 3
        got = residual(
            "t^2+6",
            lambda r, u, du: u - 2.0 ** (alpha - 2.0) * r ** alpha
            * abs(du) ** (2.0 - alpha),
            N, np.linspace(0.0, 10.0, 101))
        assert got <= 1e-10

    def test_harmonic_constant(self):
        assert residual("1", lambda r, u, du: 0.0, 3, np.linspace(0.0, 5.0, 21)) == 0.0

    def test_sine(self):
        got = residual("sin(t)", lambda r, u, du: -u, 1, np.linspace(0.0, 3.0, 31))
        assert got <= 1e-12

    def test_table_residual(self):
        r = np.linspace(0.0, 3.0, 301)
        got = residual_on_table(r, np.sin(r), np.cos(r),
                                lambda x, u, du: -u, 1)
        assert got <= 1e-7


class TestBoundaryBlowup:
    @pytest.fixture(scope="class")
    @classmethod
    def headline(cls, f_cubic):
        prob = LogisticProblem(N=1, f=f_cubic, b=ScalarFn.from_source("t^2"),
                               a_lin=0.0, domain=("annulus", 0.0, 1.0),
                               b_normalization="k2")
        return boundary_blowup(prob)

    def test_classification(self, headline):
        assert headline.classification == "boundary-blowup"
        assert headline.blowup_radius == 0.0

    def test_rate_against_exact_solution(self, headline, f_cubic):
        profile = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                                variant=VARIANT_K, c=1.0,
                                t_grid=2.0 ** (-np.arange(1, 16, dtype=float)))
        rate = measure_boundary_rate(headline, profile)
        assert abs(rate.limit - 1.0) <= 0.02

    def test_variant_mismatch_refused(self, headline, f_cubic):
        wrong = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                              variant=VARIANT_SQRT_K, c=1.0,
                              t_grid=2.0 ** (-np.arange(1, 10, dtype=float)))
        with pytest.raises(ValueError, match="normalization mismatch"):
            measure_boundary_rate(headline, wrong)

    @pytest.mark.parametrize("domain", [("annulus", 0.0, 1.0), ("ball", 1.0)])
    def test_level_shots_in_metadata(self, monkeypatch, f_cubic, domain):
        shots = []

        def counted(*args, **kwargs):
            shots.append((kwargs["dense"], shoot(*args, **kwargs)))
            return shots[-1][1]

        monkeypatch.setattr(radial, "shoot", counted)
        prob = LogisticProblem(N=1 if domain[0] == "annulus" else 3, f=f_cubic,
                               b=ScalarFn.from_source("t^2" if domain[0] == "annulus" else "1"),
                               domain=domain)
        meta = boundary_blowup(prob, n_levels=[10.0, 20.0, 40.0]).metadata
        assert len(meta["level_shots"]) == 3 and min(meta["level_shots"]) > 1
        assert sum(meta["level_shots"]) == len(shots)
        assert sum(meta["level_steps_accepted"]) == sum(sol.steps_accepted for _, sol in shots)
        assert sum(meta["level_steps_rejected"]) == sum(sol.steps_rejected for _, sol in shots)
        # only the top two levels, which decide, build their interpolants
        assert sum(dense for dense, _ in shots) == 2

    def test_single_level_undetermined(self, f_cubic):
        prob = LogisticProblem(N=1, f=f_cubic, b=ScalarFn.from_source("t^2"),
                               a_lin=0.0, domain=("annulus", 0.0, 1.0))
        sol = boundary_blowup(prob, n_levels=[100.0])
        assert sol.classification == UNDETERMINED

    def test_ko_gate(self):
        f_lin = analyze_nonlinearity("t")
        prob = LogisticProblem(N=1, f=f_lin, b=ScalarFn.from_source("t^2"),
                               domain=("annulus", 0.0, 1.0))
        with pytest.raises(ValueError, match="Keller-Osserman"):
            boundary_blowup(prob)

    def test_eigenvalue_gate(self, f_cubic):
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("1"),
                               a_lin=50.0, domain=("annulus", 1.0, 2.0),
                               omega0_radius=1.0)
        with pytest.raises(ValueError, match="lambda_inf_1"):
            boundary_blowup(prob)

    def test_whole_space_shot_that_blows_up_in_its_window(self, f_cubic):
        # u(0) = 1, Delta u = u^3 in R^3 blows up at r ~ 2.5747, inside the
        # first window [0, 10]: no ratio is read past the end of the shot
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("1"),
                               domain=("whole-space", 10.0))
        sol = boundary_blowup(prob)
        assert sol.classification == "boundary-blowup"
        assert sol.blowup_radius == pytest.approx(2.5747178212, rel=1e-9)
        assert sol.r[-1] == sol.blowup_radius
        assert sol.metadata["window_ratios"] == []

    def test_ball_mode(self, f_cubic):
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("1"),
                               a_lin=0.0, domain=("ball", 1.0))
        sol = boundary_blowup(prob)
        assert sol.classification == "boundary-blowup"
        assert sol.blowup_radius == 1.0
        # phi(n) = sqrt(2)/n: 1e13 is the last power of ten above 1e-13
        assert sol.metadata["n_levels"] == [1e11, 1e13]
        # the kept points, where the two levels agree, reach the centre and
        # grow toward the boundary
        assert sol.r[0] == 0.0 and sol.r.size > 100
        assert np.all(np.diff(sol.u) > 0.0)

    def test_levels_agree_on_the_kept_points(self, f_cubic):
        # the top level read where the level n/100 agrees with it to 1e-4
        prob = LogisticProblem(N=1, f=f_cubic, b=ScalarFn.from_source("t^2"),
                               domain=("annulus", 0.0, 1.0))
        top = boundary_blowup(prob, n_levels=[1e9, 1e11])
        lower = boundary_blowup(prob, n_levels=[1e7, 1e9])
        # a higher pair resolves a longer stretch toward the boundary r = 0
        assert 2 <= lower.r.size < top.r.size
        shared = np.isin(top.r, lower.r)
        assert np.array_equal(top.r[shared], lower.r)
        assert np.all(np.abs(top.u[shared] - lower.u) <= 1e-4 * top.u[shared])

    def test_top_height_is_capped(self):
        # phi(n) reaches 1e-13 near n = 1e22 for f = t^2.2: the cap 1e20 decides
        prob = LogisticProblem(N=1, f=analyze_nonlinearity("t^2.2"),
                               b=ScalarFn.from_source("t^1.8294"), domain=("annulus", 0.0, 1.0))
        sol = boundary_blowup(prob)
        assert sol.classification == "boundary-blowup"
        assert sol.metadata["n_levels"] == [1e18, 1e20]

    def test_failed_top_height_is_retried_once(self, monkeypatch, f_cubic):
        searches = []

        def first_fails(*args, **kwargs):
            searches.append(args[1])
            if len(searches) == 1:
                raise NumericsError("no convergence")
            return find_root_monotone(*args, **kwargs)

        monkeypatch.setattr(radial, "find_root_monotone", first_fails)
        prob = LogisticProblem(N=1, f=f_cubic, b=ScalarFn.from_source("t^2"),
                               domain=("annulus", 0.0, 1.0))
        sol = boundary_blowup(prob)
        assert sol.metadata["n_levels"] == [1e9, 1e11]
        assert sol.classification == "boundary-blowup"

        def always_fails(*args, **kwargs):
            raise NumericsError("no convergence")

        monkeypatch.setattr(radial, "find_root_monotone", always_fails)
        with pytest.raises(NumericsError, match=r"top height 1e\+13 or 1e\+11: no convergence"):
            boundary_blowup(prob)


def test_rate_roundtrip_on_predicted_solution(f_cubic):
    # feeding the profile's own prediction back gives ratios identically 1
    from sel_lab.numerics import RadialSolution
    from sel_lab.profile import predicted_rate

    profile = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                            variant=VARIANT_K, c=1.0,
                            t_grid=2.0 ** (-np.arange(1, 14, dtype=float)))
    d = np.geomspace(0.01, 0.2, 40)
    u = np.array([predicted_rate(profile, float(x)) for x in d])
    sol = RadialSolution(dimension=1, r=d, u=u, classification="boundary-blowup",
                         blowup_radius=0.0,
                         metadata={"b_normalization": "k2"})
    rate = measure_boundary_rate(sol, profile)
    assert np.max(np.abs(rate.ratio_xi0h - 1.0)) < 1e-9
    assert rate.limit == pytest.approx(1.0, abs=1e-9)


def test_far_field_rate_refused(f_cubic):
    # ratios that still move by 3.5e-2 between the two nearest points are a
    # far-field reading, not the boundary limit
    from sel_lab.numerics import RadialSolution
    from sel_lab.profile import predicted_rate

    profile = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                            variant=VARIANT_K, c=1.0,
                            t_grid=2.0 ** (-np.arange(1, 14, dtype=float)))
    d = 0.2 * 1.035 ** np.arange(20)
    u = np.array([predicted_rate(profile, float(x)) * (1.0 + 5.0 * x) for x in d])
    sol = RadialSolution(dimension=1, r=d, u=u, classification="boundary-blowup",
                         blowup_radius=0.0,
                         metadata={"b_normalization": "k2", "n_levels": [1e6, 1e8]})
    with pytest.raises(NumericsError, match=r"differ by 0.035.* > 1e-2 \(levels u = 1e\+06, "
                                            r"1e\+08\)"):
        measure_boundary_rate(sol, profile)


def test_large_condition_domain_error_past_the_samples_propagates():
    # psi is undefined past 1e20, beyond the tail classifier's last sample
    with pytest.raises(EvalDomainError, match=r"sqrt\(\(1e\+20 - t\)\) at t="):
        check_large_condition(ScalarFn.from_source("sqrt(1e20-t)*(1+t)^(-3)"), 3)
