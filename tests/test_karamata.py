import math

import numpy as np
import pytest

from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import (
    Antiderivative,
    KFunction,
    NotRegularlyVarying,
    TwoTermSpec,
    analyze_nonlinearity,
    analyze_singular_term,
    chi_two_term,
    ell_limits,
    keller_osserman,
    make_k,
    necessary_condition_entire,
    rv_index,
    xi0_power,
    xi0_via_A,
)
from sel_lab.numerics import integrate_panel


class TestAntiderivative:
    def test_cubic(self):
        F = Antiderivative(ScalarFn.from_source("t^3"))
        for t in (0.5, 1.0, 2.0, 7.3, 100.0):
            assert F(t) == pytest.approx(t ** 4 / 4.0, rel=1e-10)

    def test_zero_at_origin_and_monotone_queries(self):
        F = Antiderivative(ScalarFn.from_source("t"))
        assert F(0.0) == 0.0
        # scattered query order must not corrupt the lattice
        assert F(1e6) == pytest.approx(5e11, rel=1e-9)
        assert F(2.0) == pytest.approx(2.0, rel=1e-10)
        assert F(300.0) == pytest.approx(45000.0, rel=1e-10)

    def test_overflow_saturates_to_inf(self):
        F = Antiderivative(ScalarFn.from_source("t^3"))
        assert F(1e120) == math.inf

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_log_corrected_power_closed_form(self, order):
        def exact(t):
            return (t * t - 1.0) * math.log1p(t) / 2.0 - t * t / 4.0 + t / 2.0

        ts = [0.3, 1.7, 12.5, 300.0, 4.1e4, 7.0e6]
        if order == "descending":
            ts.reverse()
        F = Antiderivative(ScalarFn.from_source("t*ln(1+t)"))
        for t in ts:
            assert F(t) == pytest.approx(exact(t), rel=1e-11)

    def test_kink_panel_falls_back(self):
        # after the base quadrature to 1 the kink at t = 3 lies inside the
        # lattice panel (2^(6/4), 2^(7/4))
        F = Antiderivative(ScalarFn.from_source("abs(t-3)^0.5"))
        assert F(1.0) == pytest.approx((2.0 / 3.0) * (3.0 ** 1.5 - 2.0 ** 1.5), rel=1e-12)
        assert F(5.0) == pytest.approx((2.0 / 3.0) * (3.0 ** 1.5 + 2.0 ** 1.5), rel=1e-12)

    def test_interior_integrable_singularity_is_finite(self):
        # the pole at t = 3 lies inside the base quadrature (0, 2^(9/4)); the
        # failed panel is split where |f| peaks
        F = Antiderivative(ScalarFn.from_source("abs(t-3)^(-0.5)"))
        exact = 2.0 * math.sqrt(3.0) + 2.0 * math.sqrt(2.0)
        assert F(5.0) == pytest.approx(exact, rel=1e-9)
        assert F(5.0) == pytest.approx(6.2925, abs=5e-5)
        assert F(40.0) == pytest.approx(2.0 * math.sqrt(3.0) + 2.0 * math.sqrt(37.0), rel=1e-9)

    def test_non_integrable_panel_saturates_to_inf(self):
        F = Antiderivative(ScalarFn.from_source("abs(t-3)^(-1.5)"))
        assert F(2.0) < math.inf
        assert F(5.0) == math.inf

    def test_downward_fill_is_one_base_quadrature(self):
        calls = [0]

        def cube(t):
            calls[0] += 1
            return t ** 3

        F = Antiderivative(cube)
        assert F(1e6) == pytest.approx(0.25e24, rel=1e-12)
        calls[0] = 0
        assert F(1e-3) == pytest.approx(0.25e-12, rel=1e-12)
        # one quadrature from 0, then 15-point panels up the 118 lattice steps
        assert calls[0] <= 5000

    def test_gauss_kronrod_exact_for_degree_22(self):
        calls = [0]

        def p22(t):
            calls[0] += 1
            return t ** 22

        a, b = 1.0, 2.0 ** 0.25
        value, err = integrate_panel(p22, a, b, 1e-12)
        assert calls[0] == 15
        assert value == pytest.approx((b ** 23 - a ** 23) / 23.0, rel=1e-14)
        assert 0.0 < err <= 1e-12 * (1.0 + value)

    def test_domain_error_propagates(self):
        # f is undefined past 1e9, so F(2e9) is no number at all
        F = Antiderivative(ScalarFn.from_source("t^2*sqrt(1e9-t)"))
        with pytest.raises(EvalDomainError, match="square root of a negative value"):
            F(2e9)

    def test_domain_error_is_no_ko_verdict(self):
        nl = analyze_nonlinearity("t^2*sqrt(1e9-t)")
        with pytest.raises(EvalDomainError, match="square root of a negative value"):
            keller_osserman(nl)


class TestRvIndex:
    def test_pure_power(self):
        assert rv_index(ScalarFn.from_source("t^3")) == pytest.approx(3.0, abs=1e-6)

    def test_slowly_varying_log(self):
        assert abs(rv_index(ScalarFn.from_source("ln(1+t)"))) <= 0.02

    def test_power_times_slowly_varying(self):
        got = rv_index(ScalarFn.from_source("t^2*ln(1+t)"))
        assert got == pytest.approx(2.0, abs=0.02)

    def test_not_rv_flag(self):
        with pytest.raises(NotRegularlyVarying):
            rv_index(ScalarFn.from_source("t^2*(2+sin(ln(t)*3))"))


class TestAnalyze:
    def test_cubic(self):
        nl = analyze_nonlinearity("t^3")
        assert nl.theta == pytest.approx(3.0, abs=1e-6)
        assert nl.gamma == pytest.approx(0.25, abs=1e-3)
        assert nl.rho == pytest.approx(2.0, abs=1e-6)
        assert nl.m == math.inf
        assert nl.Lambda == math.inf

    def test_linear(self):
        nl = analyze_nonlinearity("t")
        assert nl.m == pytest.approx(1.0, abs=1e-9)
        assert nl.theta == pytest.approx(1.0, abs=1e-9)
        assert nl.gamma == pytest.approx(0.5, abs=1e-6)
        assert nl.rho == pytest.approx(0.0, abs=1e-9)
        assert keller_osserman(nl).is_divergent

    def test_exponential_flags_infinite_theta(self):
        nl = analyze_nonlinearity("exp(t)-1")
        assert nl.theta == math.inf
        assert nl.m == math.inf

    def test_sublinear(self):
        nl = analyze_nonlinearity("t^(1/2)")
        assert nl.m == 0.0
        assert nl.Lambda == pytest.approx(1.0, rel=1e-9)

    def test_monotonicity_precondition(self):
        with pytest.raises(ValueError):
            analyze_nonlinearity("1/(1+t)")

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_remark_identities(self, p):
        nl = analyze_nonlinearity(f"t^{p}")
        assert nl.theta == pytest.approx(p, abs=1e-3)
        assert nl.gamma == pytest.approx(1.0 / (p + 1.0), abs=1e-3)
        assert nl.rho == pytest.approx(p - 1.0, abs=0.02)
        assert nl.check_remark_identities()

    def test_singular_metadata(self):
        g = analyze_singular_term("t^(-1/2)")
        assert g.alpha_sing == pytest.approx(0.5, abs=1e-6)
        assert g.sing_c0 == pytest.approx(1.0, rel=1e-6)

    def test_bounded_limit_at_infinity(self):
        g = analyze_singular_term("exp(-t)")
        assert g.value_at_inf == pytest.approx(0.0, abs=1e-12)


class TestExistenceIntegrals:
    @pytest.mark.parametrize("src,expected", [
        ("t^2", "convergent"),
        ("t", "divergent"),
        ("t*ln(1+t)", "divergent"),
        ("t*ln(1+t)^4", "convergent"),
    ])
    def test_keller_osserman_battery(self, src, expected):
        assert keller_osserman(analyze_nonlinearity(src)).status == expected

    def test_ko_value_for_square(self):
        # int_1^inf (t^3/3)^(-1/2) dt = 2 sqrt 3
        v = keller_osserman(analyze_nonlinearity("t^2"))
        assert v.value == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-7)

    def test_necessary_condition(self):
        v = necessary_condition_entire(analyze_nonlinearity("t^2"))
        assert v.is_convergent and v.value == pytest.approx(1.0, rel=1e-8)
        assert necessary_condition_entire(analyze_nonlinearity("t")).is_divergent
        assert necessary_condition_entire(analyze_nonlinearity("t*ln(1+t)^2")).is_convergent


class TestEllLimits:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_powers(self, alpha):
        est = ell_limits(ScalarFn.from_source(f"t^{alpha}"), 1.0)
        assert est.ell1 == pytest.approx(1.0 / (alpha + 1.0), abs=1e-3)
        assert abs(est.ell0) < 1e-4

    def test_exponential_weight(self):
        est = ell_limits(ScalarFn.from_source("exp(-1/t)"), 1.0)
        assert abs(est.ell1) <= 2e-2

    def test_log_weight(self):
        est = ell_limits(ScalarFn.from_source("1/ln(1/t)"), 0.5)
        assert est.ell1 == pytest.approx(1.0, abs=2e-2)


class TestMakeK:
    def test_inv_s(self):
        k = make_k("invS", "t^2", 2.0)
        assert k.predicted_ell1 == pytest.approx(1.0 / 3.0)
        assert k.ell1 == pytest.approx(1.0 / 3.0, abs=2e-2)

    def test_exp_a(self):
        k = make_k("expA", "t", 2.0)
        assert k.predicted_ell1 == 0.0
        assert abs(k.ell1) <= 2e-2

    def test_inv_ln_s(self):
        k = make_k("invLnS", "t^3", 2.0)
        assert k.predicted_ell1 == 1.0
        assert k.ell1 == pytest.approx(1.0, abs=2e-2)

    def test_rejects_bad_rv_index(self):
        # S' has RV index -1.5 <= -1
        with pytest.raises(ValueError):
            make_k("invS", "t^(-1/2)", 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_k("magic", "t", 1.0)

    def test_power_factory(self):
        k = KFunction.power(2.0)
        assert k.ell1 == pytest.approx(1.0 / 3.0)


class TestXi0:
    def test_power_formula(self):
        assert xi0_power(2.0, 0.5, 1.0) == pytest.approx(math.sqrt(3.0) / 2.0)
        assert xi0_power(2.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_power_normalization(self):
        rho, ell1 = 3.7, 0.4
        c = (2.0 + ell1 * rho) / (2.0 + rho)
        assert xi0_power(rho, ell1, c) == pytest.approx(1.0)

    def test_power_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            xi0_power(0.0, 0.5, 1.0)

    def test_via_A_matches_closed_form(self):
        nl = analyze_nonlinearity("t^3")
        got = xi0_via_A(nl, 0.25, 0.5, 1.0)
        assert got == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-6)

    def test_via_A_identity_point(self):
        # target works out to 1 and A(1) = 1 for every admitted f
        nl = analyze_nonlinearity("t^2")
        assert xi0_via_A(nl, 1.0 / 3.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_via_A_scaled_target(self):
        nl = analyze_nonlinearity("t^3")
        got = xi0_via_A(nl, 0.25, 1.0, 0.75)
        assert got == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-6)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kprime0", [0.0, 1.0 / 3.0, 1.0])
    def test_consistency_with_power_form(self, rho, kprime0):
        # for f = t^(rho+1) the A-equation reduces to the power formula with
        # ell1 = K'(0)
        nl = analyze_nonlinearity(f"t^{rho + 1.0}")
        gamma = 1.0 / (rho + 2.0)
        got = xi0_via_A(nl, gamma, kprime0, 1.0)
        assert got == pytest.approx(xi0_power(rho, kprime0, 1.0), abs=1e-6)

    def test_A_monotone_for_log_corrected_power(self):
        nl = analyze_nonlinearity("t^2*ln(1+t)")
        got = xi0_via_A(nl, 1.0 / 3.0, 1.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-2)


class TestChiTwoTerm:
    def test_pure_power_theta_below_zeta(self):
        spec = TwoTermSpec(rho=2.0, zeta=3.0, theta=1.0, ell_star=-1.0, c_tilde=0.5)
        varpi, chi = chi_two_term(spec)
        assert varpi == 1.0
        assert chi == pytest.approx(-0.5 / 2.0)

    def test_pure_power_theta_above_zeta(self):
        spec = TwoTermSpec(rho=2.0, zeta=1.0, theta=3.0, ell_star=-1.0)
        varpi, chi = chi_two_term(spec)
        assert varpi == 1.0
        assert chi == pytest.approx(-(1.0 + 1.0) * (-1.0) / 2.0)

    def test_eta_zero_tau_case(self):
        spec = TwoTermSpec(rho=2.0, zeta=1.0, theta=2.0, ell_star=-1.0,
                           ell_sup=1.0, case="etaZeroTau")
        varpi, chi = chi_two_term(spec)
        # independent re-evaluation of the published formula
        xi0 = (2.0 / 4.0) ** 0.5
        chi1 = -(1.0 + 1.0) * (-1.0) / 2.0
        expected = chi1 - (1.0 / 2.0) * (1.0) ** 1.0 * (0.25 + math.log(xi0))
        assert varpi == 1.0
        assert chi == pytest.approx(expected, rel=1e-14)
        assert chi == pytest.approx(1.0482867951399863, rel=1e-12)

    def test_borderline_warns_and_uses_half(self):
        spec = TwoTermSpec(rho=2.0, zeta=1.0, theta=1.0, ell_star=-1.0, c_tilde=1.0)
        with pytest.warns(RuntimeWarning):
            varpi, chi = chi_two_term(spec)
        assert chi == pytest.approx(0.5 * 1.0 - 0.5 * 0.5)

    def test_eta_zero_requires_ell_sup(self):
        with pytest.raises(ValueError):
            TwoTermSpec(rho=2.0, zeta=1.0, theta=2.0, ell_star=-1.0, case="etaZeroTau")

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            TwoTermSpec(rho=-1.0, zeta=1.0, theta=1.0, ell_star=0.0)


def test_kfunction_invariants():
    with pytest.raises(ValueError):
        KFunction(k=ScalarFn.from_source("t"), nu=1.0, ell0=0.4, ell1=0.5)
    with pytest.raises(ValueError):
        KFunction(k=ScalarFn.from_source("t"), nu=1.0, ell0=0.0, ell1=1.4)
