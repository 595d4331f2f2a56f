import bisect
import math
import re

import numpy as np
import pytest

from sel_lab import karamata
from sel_lab.bifurcation import LEFProblem, solve_lef
from sel_lab.expr import EvalDomainError, ScalarFn, parse_expression
from sel_lab.karamata import (
    Antiderivative,
    KFunction,
    Nonlinearity,
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
from sel_lab.numerics import SampleError, integrate_panel
from sel_lab.radial import RadialPotential, SystemProblem, picard_gradient_entire, solve_system


def _no_arrays(ts):
    raise ArithmeticError("no array evaluation")


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
        # the pole at t = 3 lies inside the lattice panel (2^(6/4), 2^(7/4));
        # it fails both rules and is split where |f| peaks
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
        # f's evaluations counted at the point and over arrays, one per node
        cube = ScalarFn.from_source("t^3")
        scalar, vec = cube.fast(), cube.vector()
        calls = [0]

        def counted(t):
            calls[0] += 1
            return scalar(t)

        def counted_many(ts):
            calls[0] += np.size(ts)
            return vec(ts)

        cube._fast, cube._vector = counted, counted_many
        F = Antiderivative(cube)
        assert F(1e6) == pytest.approx(0.25e24, rel=1e-12)
        calls[0] = 0
        assert F(1e-3) == pytest.approx(0.25e-12, rel=1e-12)
        # one quadrature from 0, then 15-point panels up the 39 lattice steps
        # below the lattice's first point t = 1
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

    @pytest.mark.parametrize("src, exact", [("(1+t)^(-2)", 1.0), ("exp(-t)", 1.0),
                                            ("1/(1+t^2)", math.pi / 2.0)])
    def test_first_query_at_large_t(self, src, exact):
        # a first query far out must not integrate (0, t) in one quadrature,
        # which misses the mass near 0; nor may the answer depend on what
        # was asked before
        fresh = Antiderivative(ScalarFn.from_source(src))
        assert fresh(1e20) == pytest.approx(exact, abs=1e-12)
        for first in (1.0, 0.5, 1e-3, 2.0, 40.0):
            after = Antiderivative(ScalarFn.from_source(src))
            after(first)
            assert fresh(1e20) == after(1e20)

    @pytest.mark.parametrize("src, t", [("t^1.7717*ln(1+t)^2.0775", 1e300),
                                        ("exp(t)", 1e3),
                                        ("(1+t)^(-2)", 1.7e308),
                                        ("abs(t-3)^(-0.5)", 40.0)])
    def test_block_fill_matches_the_scalar_path(self, src, t):
        # the reference's array evaluator raises, so _block sends every
        # panel through the scalar panel rule
        ref = ScalarFn.from_source(src)
        ref._vector = _no_arrays
        block, scalar = Antiderivative(ScalarFn.from_source(src)), Antiderivative(ref)
        block(t)
        scalar(t)
        # the block fill runs ahead of the query; ask the scalar path as far
        scalar(2.0 ** (block._kmax / 4.0))
        assert block._kmax == scalar._kmax
        assert block._kinf == scalar._kinf
        assert block._lat.keys() == scalar._lat.keys()
        for k, v in scalar._lat.items():
            assert block._lat[k] == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_lattice_reaches_the_largest_float(self):
        F = Antiderivative(ScalarFn.from_source("(1+t)^(-2)"))
        assert F(1.7e308) == pytest.approx(1.0, abs=1e-12)
        assert F._kmax == 4095 and F._kinf is None

    def test_fill_ahead_raises_nothing_new(self):
        # the fill ahead of F(9.9e5) crosses 1e6, where f stops being defined
        def exact(t):
            # (2/3)(a^1.5 - b^1.5) with a = 1e6, b = a - t, free of cancellation
            a, b = 1e6, 1e6 - t
            return 2.0 * t * (a * a + a * b + b * b) / (3.0 * (a ** 1.5 + b ** 1.5))

        F = Antiderivative(ScalarFn.from_source("sqrt(1e6-t)"))
        for t in (10.0, 1e5, 9.9e5):
            assert F(t) == pytest.approx(exact(t), rel=1e-12)
        assert F(9.9e5) == pytest.approx(6.66e8, rel=1e-12)
        with pytest.raises(EvalDomainError,
                           match=re.escape("sqrt((1000000.0 - t)) at t=1047863.2403809046")):
            F(2e6)

    def test_ko_far_from_the_band_fills_by_blocks(self):
        # KO samples F out to where it overflows: a lattice of some 2,700
        # panels, whose f calls are array calls bar the query remainders
        f = ScalarFn.from_source("t^0.5*ln(1+t)^3")
        scalar = f.fast()
        calls = [0]

        def counted(t):
            calls[0] += 1
            return scalar(t)

        f._fast = counted
        nl = Nonlinearity(f=f, fprime=f.derivative_fn())
        assert keller_osserman(nl).is_divergent
        assert len(nl.F._lat) > 2500
        assert calls[0] <= 2000

    def test_domain_error_propagates(self):
        # f is undefined past 1e9, so F(2e9) is no number at all
        F = Antiderivative(ScalarFn.from_source("t^2*sqrt(1e9-t)"))
        with pytest.raises(EvalDomainError, match="square root of a negative value"):
            F(2e9)

    @pytest.mark.parametrize("src", ["t^3", "t^2.2", "t*ln(1+t)^4"])
    def test_many_matches_the_scalar_path(self, src):
        # lattice points, points between them, below 1 and past the overflow
        # of F (t ~ 1e77, 1e96 and 1e149)
        lattice = [2.0 ** (k / 4.0) for k in (-9, -1, 0, 7, 160)]
        ts = np.array(lattice + [0.3, 0.9, 1.3, 5.5, 77.7, 3.3e10, 1e160])
        F = Antiderivative(ScalarFn.from_source(src))
        got = F.many(ts)
        want = np.array([F(t) for t in ts.tolist()])
        assert got[:len(lattice)].tolist() == want[:len(lattice)].tolist()
        assert got[-1] == want[-1] == math.inf
        # a remainder runs numpy's pow, which may differ from libm's in the
        # last bit of a node
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert F.many(ts.reshape(2, -1)).tolist() == got.reshape(2, -1).tolist()

    def test_many_falls_back_point_by_point_when_the_array_call_raises(self):
        fn = ScalarFn.from_source("t^2.2")
        fn._vector = _no_arrays
        ts = [2.0 ** -2.25, 0.3, 1.0, 77.7, 1e160]
        scalar = Antiderivative(fn)
        assert Antiderivative(fn).many(ts).tolist() == [scalar(t) for t in ts]

    def test_domain_error_is_no_ko_verdict(self):
        nl = analyze_nonlinearity("t^2*sqrt(1e9-t)")
        with pytest.raises(EvalDomainError, match="square root of a negative value"):
            keller_osserman(nl)

    @pytest.mark.parametrize("src", ["t^2.3*ln(1+t)^1.7", "t^3", "exp(t)"])
    def test_lattice_does_not_depend_on_the_query_order(self, src):
        # F overflows near t = 1e130, 1e77 and 710; the points reach past it
        ts = [2.0 ** j for j in range(0, 480, 3)]
        ascending = Antiderivative(ScalarFn.from_source(src))
        for t in ts:
            ascending(t)
        many = Antiderivative(ScalarFn.from_source(src))
        many.many(np.array(ts))
        first = Antiderivative(ScalarFn.from_source(src))
        first.overflow_index()
        for t in ts:
            first(t)
        kinf = ascending._kinf
        assert kinf is not None and many._kinf == first._kinf == kinf

        def upto(F):
            return {k: v for k, v in F._lat.items() if 0 <= k <= kinf}

        assert upto(ascending) == upto(many) == upto(first)
        assert len(upto(ascending)) == kinf + 1

    @pytest.mark.parametrize("before", ["nothing", "a point", "many", "overflow index"])
    def test_ko_fill_stops_one_block_past_the_overflow(self, before):
        # f is evaluated by its array back end on at most one block of
        # panels past the lattice index where F overflows, whatever was
        # asked of F before the verdict
        f = ScalarFn.from_source("t^2.3*ln(1+t)^1.7")
        vec = f.vector()
        nodes = []

        def counted(t):
            nodes.append(np.asarray(t, dtype=float).ravel())
            return vec(t)

        f._vector = counted
        nl = Nonlinearity(f=f, fprime=f.derivative_fn())
        if before == "a point":
            nl.F(1e300)
        elif before == "many":
            nl.F.many(np.array([1e300]))
        elif before == "overflow index":
            nl.F.overflow_index()
        assert keller_osserman(nl).is_convergent
        kinf = nl.F._kinf
        assert kinf is not None
        past = sum(int(np.count_nonzero(t > Antiderivative._t_of(kinf))) for t in nodes)
        assert 0 < past <= 15 * Antiderivative._BLOCK


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

    @pytest.mark.parametrize("src, m", [
        # a power or a log power away from linear moves m off 1 at once
        ("t^1.005", math.inf),
        ("t*ln(2+t)^0.05", math.inf),
        ("t^0.995", 0.0),
        ("t/ln(2+t)^0.05", 0.0),
        # f(u)/u = 1 + u^(-1/2) reaches 1 only in the limit
        ("t+sqrt(t)", 1.0),
    ])
    def test_growth_constant_is_the_limit(self, src, m):
        got = analyze_nonlinearity(src).m
        assert got == m if m in (0.0, math.inf) else got == pytest.approx(m, abs=1e-12)

    @pytest.mark.parametrize("src", [
        # f(u)/u oscillates between 1 and 3: no limit
        "t*(2+sin(ln(t+1)))",
        # f(u)/u = 1 + 1/ln(2+u) has no power of ln u that the fit resolves
        "t*(1+1/ln(2+t))",
    ])
    def test_undecided_fit_leaves_m_unknown(self, src):
        nl = analyze_nonlinearity(src)
        assert nl.m is None and nl.Lambda is None
        assert any("does not decide" in note for note in nl.notes)

    @pytest.mark.parametrize("src, m, Lambda", [
        # overflows past t = 6.5: the doubling samples t = 1, 2, 4 are too
        # few to fit, so f is sampled 16 times an octave up to the overflow
        ("exp(exp(t))", math.inf, math.inf),
        # enough doubling samples: read as before
        ("exp(t^2)", math.inf, math.inf),
        ("t^2", math.inf, math.inf),
        ("t^0.5", 0.0, 1.0),
    ])
    def test_growth_of_f_that_overflows_early(self, src, m, Lambda):
        nl = analyze_nonlinearity(src)
        assert (nl.m, nl.Lambda) == (m, Lambda)
        assert not any(note.startswith("m and Lambda unknown") for note in nl.notes)

    def test_no_threshold_for_superlinear_growth(self):
        prob = LEFProblem(N=1, geometry="interval", lam=1.0, f=analyze_nonlinearity("t^1.005"))
        assert prob.lam_star(math.pi ** 2 / 4.0) is None

    def test_lambda_is_the_sup_from_one(self):
        # f(u)/u = 1 + u^(-1/2) peaks at u = 1
        nl = analyze_nonlinearity("t+sqrt(t)")
        assert nl.Lambda == 2.0

    def test_bounded_f_has_a_value_at_infinity(self):
        nl = analyze_nonlinearity("1-exp(-t)")
        assert nl.m == 0.0
        assert nl.value_at_inf == 1.0

    def test_domain_error_past_the_grid_leaves_m_unknown(self):
        # f is defined on the 121-point grid to 1e8 but not at t = 2^30
        nl = analyze_nonlinearity("t^2*sqrt(1e9-t)")
        assert nl.m is None and nl.Lambda is None
        assert any("square root of a negative value" in note for note in nl.notes)

    def test_f_vanishing_at_one_has_no_growth_index(self):
        # the samples of f start at t = 1, where this f is 0: none to fit
        nl = analyze_nonlinearity("(t-1+abs(t-1))/2")
        assert (nl.m, nl.theta, nl.gamma) == (None, None, None)
        assert "gamma unknown: 0 samples are too few to fit" in nl.notes
        assert nl.check_remark_identities() is None

    def test_identities_fail_on_a_moved_theta(self):
        nl = analyze_nonlinearity("t^3")
        assert nl.check_remark_identities()
        nl.theta += 1e-2
        assert not nl.check_remark_identities()

    def test_identities_fail_on_a_moved_gamma(self):
        nl = analyze_nonlinearity("t^3")
        assert nl.check_remark_identities()
        nl.gamma += 1e-2
        assert nl.check_remark_identities() is False

    def test_identities_fail_on_a_theta_off_the_fit_of_ln_f(self):
        # theta, rho and gamma moved together keep gamma (theta + 1) = 1:
        # only the comparison with the A of the fit of ln f sees the move
        nl = analyze_nonlinearity("t^2*ln(1+t)")
        assert nl.check_remark_identities()
        nl.theta += 1e-2
        nl.rho += 1e-2
        nl.gamma = 1.0 / (nl.theta + 1.0)
        assert nl.check_remark_identities() is False

    @pytest.mark.parametrize("index", ["theta", "gamma"])
    def test_identities_unknown_with_an_unknown_index(self, index):
        nl = analyze_nonlinearity("t^3")
        setattr(nl, index, None)
        assert nl.check_remark_identities() is None

    # f = t^A L(u) with L slowly varying: theta(u) = A + B/ln u + ...
    SLOWLY_VARYING = [
        ("t^2*ln(1+t)^3", 2.0),
        ("t^2*ln(1+t)", 2.0),
        ("t^2*ln(1+t)^0.5", 2.0),
        ("t^2/ln(2+t)", 2.0),
        ("t*ln(1+t)^4", 1.0),
        ("t^0.5*ln(1+t)^3", 0.5),
    ]

    @pytest.mark.parametrize("src, A", SLOWLY_VARYING)
    def test_theta_of_a_slowly_varying_factor(self, src, A):
        nl = analyze_nonlinearity(src)
        assert nl.theta == pytest.approx(A, abs=1e-6)
        assert nl.rho == pytest.approx(A - 1.0, abs=1e-6)

    @pytest.mark.parametrize("src, A", SLOWLY_VARYING)
    def test_gamma_of_a_slowly_varying_factor(self, src, A):
        # gamma(u) converges like 1/ln u from samples up to 1e8: read within
        # 1e-3 or unknown with a note, and then the identities are unknown
        nl = analyze_nonlinearity(src)
        if nl.gamma is None:
            assert any(note.startswith("gamma unknown") for note in nl.notes)
            assert nl.check_remark_identities() is None
        else:
            assert nl.gamma == pytest.approx(1.0 / (A + 1.0), abs=1e-3)
            assert nl.check_remark_identities()

    @pytest.mark.parametrize("src", ["exp(t^2)", "exp(exp(t))"])
    def test_rapid_variation_has_infinite_theta_and_zero_gamma(self, src):
        nl = analyze_nonlinearity(src)
        assert (nl.theta, nl.rho, nl.gamma) == (math.inf, math.inf, 0.0)
        assert nl.check_remark_identities()

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

    @pytest.mark.parametrize("src, alpha, c0", [("t^(-0.5)", 0.5, 1.0), ("t^(-1)", 1.0, 1.0),
                                                ("t^(-1.0)", 1.0, 1.0), ("5/t", 1.0, 5.0),
                                                ("3*t^(-0.25)", 0.25, 3.0),
                                                ("t^(-0.5)*3", 0.5, 3.0), ("2/t^0.3", 0.3, 2.0)])
    def test_pure_power_singular_term_is_exact(self, src, alpha, c0):
        # alpha and C0 come from the AST, not from a fit that misses by an ulp
        g = analyze_singular_term(src)
        assert (g.alpha_sing, g.sing_c0) == (alpha, c0)

    def test_bounded_limit_at_infinity(self):
        g = analyze_singular_term("exp(-t)")
        assert g.value_at_inf == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("src,limit", [("2+t^(-0.5)", 2.0), ("t^(-0.5)", 0.0),
                                           ("exp(-t^5)", 0.0), ("0", 0.0)])
    def test_singular_limit_at_infinity(self, src, limit):
        # a power-law decay reads exactly its limit; exp(-t^5) and 0 vanish
        # past their first samples
        assert analyze_singular_term(src).value_at_inf == limit

    def test_singular_limit_that_does_not_resolve(self):
        g = analyze_singular_term("2+sin(ln(1+t))")
        assert g.value_at_inf is None
        assert g.notes[-1].startswith("lim g unknown: the fit in 1/ln u does not resolve it")


class TestLimit:
    def test_power_decay_reads_zero(self):
        s = 10.0 * 2.0 ** np.arange(27.0)
        assert karamata._limit(s, 2.0 / s)[0] == 0.0

    def test_power_growth_reads_inf(self):
        u = 2.0 ** np.arange(49.0)
        assert karamata._limit(u, u ** 0.5)[0] == math.inf

    def test_power_convergence_reads_the_last_sample(self):
        # y - 1/2 = 1/sqrt(s) is no series in 1/ln s: the limit is the last
        # sample, and the resolution bounds the remainder 1/sqrt(s_last)
        s = 10.0 * 2.0 ** np.arange(27.0)
        value, res = karamata._limit(s, 0.5 + s ** -0.5)
        assert value == 0.5 + s[-1] ** -0.5
        assert s[-1] ** -0.5 <= res <= 1.01 * s[-1] ** -0.5


# The eager analysis the lazy stages must reproduce: analyze_nonlinearity
# and analyze_singular_term as they were when every index was measured at
# construction, on a Nonlinearity built directly (nothing pending), whose
# _res starts as a dict of its own.

def _eager_analysis(f_src):
    f = ScalarFn.from_source(f_src)
    fp = f.derivative_fn()
    call = f.fast()
    notes = []
    nl = Nonlinearity(f=f, fprime=fp, source=f_src, notes=notes)
    nl._res = {}
    try:
        ts, fs = karamata._tail_samples(call, 1.0)
        if 0 < len(ts) < 4:
            ts, fs = karamata._octave_samples(call, 2.0 * ts[-1])
    except (ArithmeticError, ValueError) as exc:
        notes.append(f"m, Lambda, theta and gamma unknown: f fails in its samples ({exc})")
        return nl
    fit = karamata._bertrand_fit(ts, fs)
    nl._fit = None if fit is None else fit[2]
    nl.m, nl.Lambda, nl.value_at_inf = karamata._growth_limits(ts, fs, fit, notes)

    u, fu = np.array(ts), np.array(fs)
    try:
        with np.errstate(all="ignore"):
            dcall = fp.fast()
            thetas = karamata._finite_prefix(np.array([t * dcall(t) for t in ts]) / fu)
            n = min(bisect.bisect_right(ts, karamata.U_MAX), thetas.size)
            Fs = np.array([nl.F(t) for t in reversed(ts[:n])])[::-1]
            gammas = karamata._finite_prefix(1.0 - thetas[:n] * (Fs / (u[:n] * fu[:n])))
    except (ArithmeticError, ValueError) as exc:
        notes.append(f"theta and gamma unknown: f' or F fails at the samples of f ({exc})")
        return nl
    theta, res = karamata._limit(u[:thetas.size], thetas)
    if theta == math.inf:
        nl.theta, nl.rho, nl.gamma = math.inf, math.inf, 0.0
        return nl
    if theta is None:
        notes.append(f"theta unknown: {res}")
    else:
        nl.theta, nl.rho, nl._res["theta"] = theta, theta - 1.0, res
    gamma, res = karamata._limit(u[:gammas.size], gammas)
    if gamma is None:
        notes.append(f"gamma unknown: {res}")
    else:
        nl.gamma, nl._res["gamma"] = gamma, res
    if nl.check_remark_identities() is False:
        notes.append("gamma/rho/theta consistency identities failed at sampling accuracy")
    return nl


def _eager_singular_limit(g_src):
    g = ScalarFn.from_source(g_src)
    ts, gs = karamata._tail_samples(g, 1.0)
    value_at_inf, why = karamata._limit(ts, gs)
    points = karamata._sample_points(1.0)
    if (value_at_inf is None and len(ts) < len(points)
            and g.fast()(points[len(ts)]) < karamata._TINY):
        value_at_inf = 0.0
    return value_at_inf, [] if value_at_inf is not None else [f"lim g unknown: {why}"]


_INDICES = ("m", "Lambda", "value_at_inf", "theta", "gamma", "rho", "_res", "_fit", "notes")


def _read_all(nl):
    return {name: getattr(nl, name) for name in _INDICES}


class TestLazyIndices:
    # "t^2*sqrt(1e9-t)" is defined on the checked grid but fails in its samples
    SOURCES = ["t", "t^0.5123", "t^3", "t^1.005", "t+sqrt(t)", "t^2*ln(1+t)^3", "exp(t)",
               "exp(t^2)", "t^2*sqrt(1e9-t)"]

    @pytest.fixture(scope="class")
    def eager(self):
        return {src: _read_all(_eager_analysis(src)) for src in self.SOURCES}

    @pytest.mark.parametrize("src", SOURCES)
    @pytest.mark.parametrize("first", ["m", "theta", "identities", "ko and tail map"])
    def test_every_read_order_matches_the_eager_analysis(self, eager, src, first):
        nl = analyze_nonlinearity(src)
        if first == "identities":
            nl.check_remark_identities()
        elif first == "ko and tail map":
            # F is filled by the verdict (or raises where f stops being
            # defined) before theta and gamma read it
            try:
                if keller_osserman(nl).is_convergent:
                    karamata.tail_map(nl)(2.0)
            except EvalDomainError:
                assert src == "t^2*sqrt(1e9-t)"
        else:
            getattr(nl, first)
        assert _read_all(nl) == eager[src]

    @pytest.mark.parametrize("src", ["t^(-0.5)", "5/t", "exp(-t)", "2+t^(-0.5)", "exp(-t^5)",
                                     "0", "2+sin(ln(1+t))", "1/ln(2+t)"])
    @pytest.mark.parametrize("first", ["value_at_inf", "m"])
    def test_singular_limit_matches_the_eager_analysis(self, src, first):
        g = analyze_singular_term(src)
        getattr(g, first)
        assert (g.value_at_inf, g.notes) == _eager_singular_limit(src)
        assert g.m == 0.0

    def test_nothing_is_measured_until_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(karamata, "_limit",
                            lambda *args, limit=karamata._limit: calls.append(1) or limit(*args))
        nl = analyze_nonlinearity("t^3")
        g = analyze_singular_term("t^(-0.5)")
        assert nl.__dict__["m"] is None and nl.__dict__["theta"] is None
        assert (nl.notes, nl._F, g.notes, calls) == ([], None, [], [])
        assert nl.Lambda == math.inf and nl._F is None and calls == []
        assert nl.rho == pytest.approx(2.0, abs=1e-6) and len(calls) == 2

    def test_an_assignment_before_the_first_read_stays(self):
        want = _read_all(_eager_analysis("t^3"))
        nl = analyze_nonlinearity("t^3")
        nl.theta = 7.0
        nl.m = None
        assert (nl.theta, nl.m) == (7.0, None)
        assert (nl.gamma, nl.rho, nl.Lambda, nl._fit) == (want["gamma"], want["rho"],
                                                          want["Lambda"], want["_fit"])

    def test_a_nonlinearity_built_directly_has_nothing_pending(self):
        f = ScalarFn.from_source("t^3")
        nl = Nonlinearity(f=f, fprime=f.derivative_fn(), theta=3.0)
        assert (nl.m, nl.theta, nl.gamma, nl._fit, dict(nl._res)) == (None, 3.0, None, None, {})
        assert nl.check_remark_identities() is None and nl._F is None
        assert Nonlinearity.m is None

    def test_solves_measure_no_index_they_do_not_read(self, monkeypatch):
        # the system and the gradient scheme read Lambda at most, and the
        # singular LEF shots read f's m and g's alpha and C0: no theta stage
        # fills F, and no limit is fitted
        calls = []
        monkeypatch.setattr(karamata, "_limit",
                            lambda *args, limit=karamata._limit: calls.append(1) or limit(*args))
        f = analyze_nonlinearity("t^0.5")
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        solve_system(SystemProblem(p=one, q=one, f=f, g=f, a=1.0, b=1.0), 50.0, 3,
                     mesh_points=1024)
        picard_gradient_entire(ScalarFn.from_source("1"), f, 1.0, 50.0, 3, panels=1024)
        lin, g = analyze_nonlinearity("t"), analyze_singular_term("t^(-0.5)")
        solve_lef(LEFProblem(N=1, geometry="interval", lam=1.0, f=lin, g=g))
        assert (f._F, lin._F, g._F) == (None, None, None)
        assert calls == []


class TestExistenceIntegrals:
    @pytest.mark.parametrize("src,expected", [
        ("t^2", "convergent"),
        ("t", "divergent"),
        ("t*ln(1+t)", "divergent"),
        ("t*ln(1+t)^4", "convergent"),
        # F^(-1/2) varies regularly with index -(p+1)/2 > -1, whatever the log power
        ("t^0.8584*ln(1+t)^8", "divergent"),
        ("t^0.9*ln(1+t)^12", "divergent"),
        ("t^0.5*ln(1+t)^20", "divergent"),
        # index -0.9995 > -1 diverges, but the fit of the computed F misses by
        # 1.6e-4 and cannot resolve it from -1 (where B = -1.5 converges)
        ("t^0.999*ln(1+t)^3", "inconclusive"),
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
        # 1/f = t^-0.8584 ln(1+t)^-8 varies regularly with index -0.8584 > -1
        assert necessary_condition_entire(analyze_nonlinearity("t^0.8584*ln(1+t)^8")).is_divergent
        # an exact fit resolves index -0.999 > -1, and log power -3 cannot save it
        assert necessary_condition_entire(analyze_nonlinearity("t^0.999*ln(1+t)^3")).is_divergent

    @pytest.mark.parametrize("which", ["ko", "1/f"])
    def test_closed_forms_on_both_paths(self, which):
        # KO of t^3: F = t^4/4, int_1^inf F^(-1/2) = 2; 1/f of t^2 integrates to 1
        if which == "ko":
            nl = analyze_nonlinearity("t^3")
            array, exact = keller_osserman(nl), 2.0
            scalar = karamata.classify_tail_integral(karamata._ko_integrand(nl).scalar, 1.0)
        else:
            nl = analyze_nonlinearity("t^2")
            array, exact = necessary_condition_entire(nl), 1.0
            call = nl.f.fast()
            scalar = karamata.classify_tail_integral(lambda t: 1.0 / call(t), 1.0)
        for v in (array, scalar):
            assert v.is_convergent
            assert abs(v.value - exact) <= v.err
        assert array.slope == pytest.approx(scalar.slope, rel=1e-12, abs=0.0)
        assert array.value == pytest.approx(scalar.value, rel=1e-14, abs=0.0)

    def test_ko_just_past_the_borderline(self):
        # F = t^2.04/2.04: int_1^inf F^(-1/2) = sqrt(2.04)/0.02, and F overflows
        # near t = e^348, so the remainder past the last sample comes from the fit
        v = keller_osserman(analyze_nonlinearity("t^1.04"))
        assert v.is_convergent
        assert abs(v.value - math.sqrt(2.04) / 0.02) <= v.err


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

    def test_log_weight_to_its_resolution(self):
        # r' = 1 - 1/ln(1/t) + O(1/ln^2(1/t)): the fit in 1/ln(1/t) reads 1
        est = ell_limits(ScalarFn.from_source("1/ln(1/t)"), 0.5)
        assert abs(est.ell1 - 1.0) <= 1.5e-3
        assert abs(est.ell1 - 1.0) <= 2.0 * est.ell1_err

    def test_log_corrected_power(self):
        # r' = 1/3 + 1/(9L) + 1/(9L^2), L = ln(1/t): exactly the fit's form
        est = ell_limits(ScalarFn.from_source("t^2*ln(1/t)"), 0.5)
        assert abs(est.ell1 - 1.0 / 3.0) <= 1e-6

    @pytest.mark.parametrize("src,exact", [("t+t^2", 0.5), ("t^0.5+t", 2.0 / 3.0)])
    def test_power_corrected_weight(self, src, exact):
        # r' - ell_1 ~ t or t^0.5: a power of t, not a series in 1/ln(1/t)
        est = ell_limits(ScalarFn.from_source(src), 1.0)
        assert est.ell1_err <= 1e-4
        assert abs(est.ell1 - exact) <= 2.0 * est.ell1_err

    def test_exponential_weight_reads_zero(self):
        # r' ~ 2t decays like a power of t, the scaled ratio keeps it positive
        est = ell_limits(ScalarFn.from_source("exp(-1/t)"), 1.0)
        assert abs(est.ell1) <= 1e-6


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
        # S' = -t^(-3/2)/2 is negative
        with pytest.raises(ValueError, match="is negative"):
            make_k("invS", "t^(-1/2)", 2.0)
        # S' = t^(-3/2)/2 has RV index -1.5 <= -1
        with pytest.raises(ValueError, match="index q > -1"):
            make_k("invS", "-t^(-1/2)", 2.0)

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

    def test_via_A_with_a_slowly_varying_factor(self):
        # t^2.5 ln(1+t)^3 varies regularly with index 2.5: A(xi) = xi^1.5
        nl = analyze_nonlinearity("t^2.5*ln(1+t)^3")
        got = xi0_via_A(nl, 1.0 / 3.5, 0.5, 1.0)
        assert abs(got - xi0_power(1.5, 0.5, 1.0)) <= 1e-6

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


@pytest.mark.parametrize("build, source, message", [
    (analyze_nonlinearity, "1-t",
     "f must be nonnegative (t = 1.165914401179831: f = -0.16591440117983103)"),
    (analyze_nonlinearity, "1/(1+t)",
     "f must be nondecreasing on the sampled range (t = 1.308177474260193e-06: "
     "f = 0.999998691824237, f_before = 0.9999990000010001)"),
    (analyze_singular_term, "-t^(-0.5)",
     "singular term must be nonnegative (t = 1e-08: g = -10000.0)"),
    (lambda S: make_k("invLnS", S, 0.5), "t",
     "constructed k is not positive increasing on (0, nu) (t = 1.0443656392604836: "
     "k = -23.036348630903902, dk = 508.12985251058086)"),
    (lambda src: LEFProblem(N=1, lam=1.0, mu=1.0, mode="two-param",
                            source=ScalarFn.from_source(src)), "t-0.5",
     "the source term must be positive on the domain (x = 0.0: source = -0.5)"),
])
def test_a_function_refused_on_its_samples_is_carried_and_its_point_named(build, source,
                                                                          message):
    # each site named no point or printed 3 digits, and its ValueError
    # carried nothing a caller could name the function by
    with pytest.raises(SampleError) as err:
        build(source)
    assert str(err.value) == message
    assert err.value.fn.body == parse_expression(source)
