import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expn

from sel_lab import radial
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import KFunction, analyze_nonlinearity, tail_map
from sel_lab.numerics import (
    BOUNDED,
    ENTIRE_LARGE,
    UNDETERMINED,
    BracketError,
    Integrand,
    NumericsError,
    SampleError,
    ShotTally,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    series_start,
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
    measure_boundary_rate,
    picard_gradient_entire,
    solve_system,
)

from reference import residual, residual_on_table


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

    def test_the_bound_and_the_weight_read_the_potentials_t_psi(self, monkeypatch):
        # t psi is built once per potential, not once per reader
        seen = []

        def spy(fn, a, *args, **kwargs):
            seen.append(fn)
            return classify_tail_integral(fn, a, *args, **kwargs)

        monkeypatch.setattr(radial, "classify_tail_integral", spy)
        pot = RadialPotential(phi=ScalarFn.from_source("(1+t)^(-3)"))
        v = check_large_condition(pot, 3)
        assert seen[-1] is pot.t_psi
        assert v == check_large_condition(ScalarFn.from_source("(1+t)^(-3)"), 3)
        pot.weight(2.0)
        assert pot._psi_int._fn is pot.t_psi.fast()

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

        def tenfold(N):
            K = kernel(N)
            return Integrand(lambda s: 10.0 * K(s), lambda s: 10.0 * K.many(s))

        monkeypatch.setattr(radial, "_large_condition_kernel", tenfold)
        v = check_large_condition(ScalarFn.from_source("(1+t)^(-3)"), 3)
        assert v.is_convergent and not v.diagnostics["bound_holds"]

    def test_domain_error_propagates(self):
        # sqrt(1e3 - t) fails at the tail sample t = 1024
        with pytest.raises(EvalDomainError, match=r"sqrt\(\(1000.0 - t\)\) at t=1024.0"):
            check_large_condition(ScalarFn.from_source("sqrt(1e3-t)"), 3)


def _nested_large_condition(psi_src: str, N: int):
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

    return classify_tail_integral(J, 1.0)


class TestLargeConditionKernel:
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 9])
    def test_continuous_at_one_and_at_the_series_switch(self, N):
        K = _large_condition_kernel(N)
        for s in (1.0, _SERIES_FROM):
            below = K(math.nextafter(s, 0.0))
            assert below == pytest.approx(K(s), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 9])
    def test_array_form_matches_the_scalar_kernel(self, N):
        # every branch: the power below 1, s e^s E_n(s) up to the series switch,
        # the series past it
        K = _large_condition_kernel(N)
        s = np.concatenate((np.geomspace(1e-3, 0.999, 7), np.geomspace(1.0, 599.0, 9),
                            np.geomspace(_SERIES_FROM, 1e150, 9)))
        got = K.many(s.reshape(5, -1)).ravel()
        want = np.array([K(x) for x in s.tolist()])
        # numpy's exp may differ from libm's in the last bit
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
        far = s >= _SERIES_FROM
        assert got[far].tolist() == want[far].tolist()

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
        t = _graded_mesh(50.0, 1024)
        K = _green_kernel(50.0, 1024, N)
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
        inner = _volterra(_graded_mesh, 50.0, 1024, N - 1, rate=1)
        J = inner(np.ones_like(t))[1:4] * t[1:4] ** (1.0 - N)
        x = t[1:4]
        series = sum((-1) ** k * x ** (k + 1) / math.prod(range(N, N + k + 1))
                     for k in range(8))
        np.testing.assert_allclose(J, series, rtol=1e-13, atol=0.0)
        # every step of the operator is odd in fvals, so negation is exact
        np.testing.assert_array_equal(inner(-np.ones_like(t)), -inner(np.ones_like(t)))

    def test_outer_integral_exact_for_cubic(self):
        t = _graded_mesh(50.0, 1024)
        np.testing.assert_allclose(_volterra(_graded_mesh, 50.0, 1024, 0)(t ** 3)[1:],
                                   t[1:] ** 4 / 4.0,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_system_kernel_fourth_order(self, N):
        # the drift between consecutive mesh doublings falls ~16x
        def kernel(panels):
            t = np.linspace(0.0, 100.0, panels + 1)
            return _green_kernel(100.0, panels, N)((1.0 + t * t) ** -2)

        runs = [kernel(1024 * 2 ** k) for k in range(3)]
        d1, d2 = (float(np.max(np.abs(fine[::2] - coarse)))
                  for coarse, fine in zip(runs, runs[1:]))
        assert d1 / d2 >= 12.0


# ---------------------------------------------------------------------------
# The reference Volterra operator
# ---------------------------------------------------------------------------

def _reference_volterra(t, m, rate=0):
    """The operator _volterra replaced: the Lagrange basis divided out at
    every Gauss point, the panels gathered through an index array and
    contracted by einsum, and the rate = 1 sum carried by two log-sum-exp
    scans, positive and negative panel parts apart."""
    k = min(4, t.size)
    start = np.clip(np.arange(t.size - 1) - 1, 0, t.size - k)
    idx = start[:, None] + np.arange(k)
    nodes = t[idx]
    half = 0.5 * np.diff(t)
    W = np.zeros(nodes.shape)
    for x, gw in zip(*np.polynomial.legendre.leggauss((m + 5) // 2 + 4 * rate)):
        s = t[:-1] + half * (x + 1.0)
        weight = gw * half * s ** m * np.exp(rate * (s - t[1:]))
        for a in range(k):
            basis = weight.copy()
            for b in range(k):
                if b != a:
                    basis *= (s - nodes[:, b]) / (nodes[:, a] - nodes[:, b])
            W[:, a] += basis

    def apply(fvals):
        panel = np.einsum("jk,jk->j", W, fvals[idx])
        out = np.zeros_like(t)
        if not rate:
            out[1:] = np.cumsum(panel)
            return out
        with np.errstate(divide="ignore"):
            for sign in (1.0, -1.0):
                ln_cum = np.logaddexp.accumulate(np.log(np.maximum(sign * panel, 0.0)) + t[1:])
                out[1:] += sign * np.exp(ln_cum - t[1:])
        return out

    return apply


def _uniform_mesh(R, panels):
    # panels equal panels on [0, R]: a grading for _volterra alone, as
    # _five_nodes and _close_nodes are
    return np.linspace(0.0, R, panels + 1)


_GRADINGS = {"graded": _graded_mesh, "uniform": _uniform_mesh}


def _five_nodes(R, panels):
    # an uneven tiny mesh: the first panels + 1 of five fixed nodes
    return R * np.array([0.0, 0.4, 1.1, 1.7, 2.6])[:panels + 1]


def _close_nodes(R, panels):
    return R * np.array([0.0, 0.2, 0.6, 0.6002, 1.0])[:panels + 1]


class TestVolterraAgainstReference:
    """The operator agrees with the one it replaced to 1e-12 relative, on
    graded and uniform meshes and at the ends of the float range; with
    rate = 1 it is closer to a closed form than the reference."""

    # 2^(+-963) ~ 1e(+-290): a power of two scales both operators exactly
    # where no product is subnormal.  The reference's log-sum-exp rounds
    # ln|panel| + t, which at |ln fvals| ~ 668 drifts by ~1e-12 over 1024
    # panels, so the scaled runs are held to the reference's run at scale 1
    # times the scale, and to the scaled reference's finiteness.
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 963, 2.0 ** -963],
                             ids=["smooth", "1e290", "1e-290"])
    # at rate = 0 every R reads the unit-mesh table stored for this mesh
    # and m, scaled by R^(m+1); R = 37 is one more radius on that table
    @pytest.mark.parametrize("R", [1.0, 37.0, 50.0, 1500.0])
    @pytest.mark.parametrize("kind", ["graded", "uniform"])
    @pytest.mark.parametrize("rate", [0, 1])
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_matches_reference(self, m, rate, kind, R, scale):
        t = _GRADINGS[kind](R, 1024)
        fvals = (2.0 + np.sin(t)) / (1.0 + t * t)
        got = _volterra(_GRADINGS[kind], R, 1024, m, rate)(scale * fvals)
        ref = _reference_volterra(t, m, rate)
        np.testing.assert_allclose(got, scale * ref(fvals), rtol=1e-12,
                                   atol=1e-12 * np.finfo(float).tiny)
        assert np.all(np.isfinite(got[np.isfinite(ref(scale * fvals))]))

    @pytest.mark.parametrize("R, rtol", [(50.0, 2e-15), (1500.0, 1e-13)])
    def test_rate_one_closed_form(self, R, rtol):
        # int_0^t e^(s-t) s^2 ds = t^2 - 2t + 2 - 2e^-t; the reference misses
        # by 2.2e-13 at R = 1500, where ln-space sums round at ulp(t)
        t = _graded_mesh(R, 2048)
        got = _volterra(_graded_mesh, R, 2048, 2, rate=1)(np.ones_like(t))
        x = t[t > 1.0]
        exact = x * x - 2.0 * x + 2.0 - 2.0 * np.exp(-x)
        np.testing.assert_allclose(got[t > 1.0], exact, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("rate", [0, 1])
    def test_negation_is_exact_across_blocks(self, rate):
        # R = 1500 sums the rate = 1 panels in many blocks; fvals change sign
        t = _graded_mesh(1500.0, 1024)
        fvals = np.sin(t) / (1.0 + t)
        op = _volterra(_graded_mesh, 1500.0, 1024, 2, rate)
        np.testing.assert_array_equal(op(-fvals), -op(fvals))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_tiny_mesh_exact_for_polynomials(self, m, size):
        # the interpolant has degree min(size, 4) - 1, so the end panels alone
        # integrate s^m times any polynomial below that degree exactly; one
        # node is no panel
        t = _five_nodes(1.0, size - 1)
        coef = [1.0, 2.0, 0.5, 0.25][:min(size, 4)]
        fvals = sum(c * t ** p for p, c in enumerate(coef))
        exact = sum(c * t ** (m + p + 1) / (m + p + 1) for p, c in enumerate(coef))
        got = _volterra(_five_nodes, 1.0, size - 1, m)(fvals)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], exact[1:], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("R", [1.0, 50.0, 1500.0, 5000.0])
    def test_tiny_mesh_rate_one(self, m, size, R):
        # from R = 1500 on, panels wider than a block (width 64) appear; at
        # R = 5000 one is 2,000 wide, and its factor e^2000 would overflow
        t = _close_nodes(R, size - 1)
        fvals = 1.0 + t / R
        got = _volterra(_close_nodes, R, size - 1, m, rate=1)(fvals)
        ref = _reference_volterra(t, m, rate=1)(fvals)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.fixture
def weight_builds(monkeypatch):
    """(panels, R, m, rate) of every Volterra weight build, from an empty store."""
    builds = []
    build = radial._volterra_weights

    def counting(t, m, rate):
        builds.append((t.size - 1, float(t[-1]), m, rate))
        return build(t, m, rate)

    monkeypatch.setattr(radial, "_volterra_weights", counting)
    radial._volterra_table.cache_clear()
    return builds


class TestVolterraStore:
    """Each weight table is built once per mesh shape and reused while the
    bounded store holds it; rate = 0 tables are built on the unit mesh."""

    def test_second_system_call_builds_nothing(self, f_sqrt, weight_builds):
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        problem = SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0)
        first = solve_system(problem, 100.0, 3, mesh_points=1024)
        # the [0, R/2] rerun of the dichotomy shares the unit-mesh tables
        assert first.metadata["plateau_drift"] < 1e-6
        assert sorted(weight_builds) == [(p, 1.0, m, 0) for p in (1024, 2048, 4096)
                                         for m in (1, 2)]
        weight_builds.clear()
        second = solve_system(problem, 100.0, 3, mesh_points=1024)
        assert weight_builds == []
        np.testing.assert_array_equal(second.u, first.u)
        np.testing.assert_array_equal(second.v, first.v)

    def test_two_envelope_picard_builds_each_table_once(self, f_sqrt, weight_builds):
        # the final mesh runs the scheme three times on [0, R] (w and the two
        # ordering runs) and once on [0, R/2]
        pot = RadialPotential(phi=ScalarFn.from_source("(t^2+1)/((t^2+1)^2+1)"),
                              psi=ScalarFn.from_source("1/(t^2+2)"),
                              lam_N=1.0)
        sol = picard_gradient_entire(pot, f_sqrt, 1.5, 30.0, 3, panels=1024)
        assert sol.metadata["ordering_ok"]
        assert len(set(weight_builds)) == len(weight_builds)
        final = sol.metadata["mesh_points"]
        assert sorted(b for b in weight_builds if b[0] == final) == [
            (final, 1.0, 0, 0), (final, 15.0, 2, 1), (final, 30.0, 2, 1)]

    def test_store_never_exceeds_its_bound(self, weight_builds):
        bound = radial._VOLTERRA_TABLES
        assert radial._volterra_table.cache_info().maxsize == bound
        for panels in (*range(1, bound + 6), 1):
            t = _uniform_mesh(2.0, panels)
            np.testing.assert_allclose(_volterra(_uniform_mesh, 2.0, panels, 0)(np.ones_like(t)),
                                       t, rtol=1e-14)
            assert radial._volterra_table.cache_info().currsize <= bound
        # the one-panel table was the least recently used when the store
        # filled, so asking for it again builds it again
        assert len(weight_builds) == bound + 6
        assert radial._volterra_table.cache_info().currsize == bound


class TestAuditsCanFail:
    """Each audit flag of the Picard schemes reads False, or raises, when
    its inequality is broken on purpose."""

    def test_system_lower_bound_doubled(self, f_sqrt, monkeypatch):
        bounds = radial._system_lower_bounds
        monkeypatch.setattr(radial, "_system_lower_bounds",
                            lambda *args: tuple(2.0 * b for b in bounds(*args)))
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        sol = solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                           50.0, 3, mesh_points=1024)
        assert sol.classification == ENTIRE_LARGE
        assert sol.metadata["lower_bound_ok"] is False

    def test_ordering_with_v_above_w(self, f_sqrt, monkeypatch):
        # only the subsolution run v starts from b0 = 1
        run = radial._picard_gradient_run

        def lifted(psi_vals, f_vec, b0, *args):
            (w,), iterations, monotone = run(psi_vals, f_vec, b0, *args)
            return (10.0 * w if b0 == 1.0 else w,), iterations, monotone

        monkeypatch.setattr(radial, "_picard_gradient_run", lifted)
        pot = RadialPotential(phi=ScalarFn.from_source("(t^2+1)/((t^2+1)^2+1)"),
                              psi=ScalarFn.from_source("1/(t^2+2)"),
                              lam_N=1.0)
        sol = picard_gradient_entire(pot, f_sqrt, 1.5, 30.0, 3, panels=1024)
        assert sol.metadata["b_star"] > 1.0
        assert sol.metadata["ordering_ok"] is False

    def test_growth_bound_with_a_scaled_iterate(self, f_sqrt, monkeypatch):
        psi = ScalarFn.from_source("(1+t)^(-3)")
        M = picard_gradient_entire(psi, f_sqrt, 1.0, 20.0, 3,
                                   panels=256).metadata["growth_bound_M"]
        run = radial._picard_gradient_run
        factor = 2.0 * math.exp(M * 20.0)  # past b0 e^(M r) at every r <= R

        def scaled(*args):
            (w,), iterations, monotone = run(*args)
            return (factor * w,), iterations, monotone

        monkeypatch.setattr(radial, "_picard_gradient_run", scaled)
        with pytest.raises(ValueError, match=r"growth bound .* violated"):
            picard_gradient_entire(psi, f_sqrt, 1.0, 20.0, 3, panels=256)


class TestPicardGradient:
    @pytest.mark.parametrize("b0", [0.0, -1.0])
    def test_nonpositive_central_value_is_refused(self, f_sqrt, b0):
        # w = b0 <= 0 would read f(w) = sqrt(w) off its domain
        with pytest.raises(ValueError, match="central value b0 must be positive"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, b0, 10.0, 3, panels=256)

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

    @pytest.mark.parametrize("R, panels", [(50.0, 256), (50.0, 2048), (25.0, 1024)])
    def test_envelopes_out_of_order_past_20_are_refused(self, f_sqrt, R, panels):
        # phi falls below psi only past r = 20.5, beyond the 41 radii of
        # [0, 20] checked when the potential is built: the solve checks its
        # own mesh of [0, R] and names the first node past 20.5
        pot = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)*(1+(20.5-t)/1000)"),
                              psi=ScalarFn.from_source("(1+t^2)^(-2)"), lam_N=1.0)
        mesh = _graded_mesh(R, panels)
        first = float(mesh[mesh > 20.5][0])
        with pytest.raises(SampleError,
                           match=rf"phi >= psi >= 0 \(r = {re.escape(repr(first))}:") as err:
            picard_gradient_entire(pot, f_sqrt, 1.5, R, 3, panels=panels)
        assert err.value.fn is pot.phi  # phi fell below psi
        # inside [0, 20.5] the same envelopes are in order
        sol = picard_gradient_entire(pot, f_sqrt, 1.5, 20.0, 3, panels=256)
        assert sol.metadata["ordering_ok"]

    def test_envelope_check_names_a_negative_psi(self):
        pot = RadialPotential(phi=ScalarFn.from_source("1"),
                              psi=ScalarFn.from_source("(30-t)/(30+t^2)"))
        with pytest.raises(SampleError, match=r"\(r = 31.0: phi = 1.0, psi = -") as err:
            pot.check(np.array([0.0, 10.0, 31.0, 40.0]))
        assert err.value.fn is pot.psi
        r = np.array([0.0, 10.0, 30.0])
        phi, psi = pot.check(r)
        np.testing.assert_array_equal(phi, pot.phi.vector()(r))
        np.testing.assert_array_equal(psi, pot.psi.vector()(r))

    def test_envelope_check_reads_a_radial_potential_once(self):
        pot = RadialPotential(phi=ScalarFn.from_source("1/(1+t^2)"))
        phi, psi = pot.check(np.array([0.0, 1.0, 2.0]))
        assert phi is psi

    def test_a_negative_bare_psi_is_named_on_the_first_mesh(self, f_sqrt):
        # psi = 1 - t/30 is read through RadialPotential.check: the first
        # node past 30 of _graded_mesh(50, 512), node 397, is named; the
        # bare psi had its own rule, "psi envelope must be nonnegative"
        psi = ScalarFn.from_source("1-t/30")
        with pytest.raises(SampleError,
                           match=r"radial potential must be nonnegative "
                                 r"\(r = 30\.06153106689453: p = -0\.00205\d*\)$") as err:
            picard_gradient_entire(psi, f_sqrt, 1.0, 50.0, 3, panels=512)
        assert err.value.fn is psi

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
        # after the last doubling to 1024 panels w still moves by ~6e-10 on
        # the coarse nodes, a mesh error of ~4e-11
        with pytest.raises(NumericsError, match="Picard mesh refinement"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3,
                                   tol=1e-14, panels=128)

    def test_refinement_checks_every_node(self):
        # w(R) moves by only 7e-14 from 1024 to 2048 panels while interior
        # nodes still move by ~2e-11: a w(R)-only check stopped at 2048
        sol = picard_gradient_entire(ScalarFn.from_source("1"), analyze_nonlinearity("t^0.4042"),
                                     1.0, 50.0, 4, tol=1e-12, panels=1024)
        assert sol.classification == ENTIRE_LARGE
        assert sol.metadata["mesh_points"] == 8192
        assert sol.metadata["mesh_error"] <= 1e-12

    def test_far_radius_refines_past_the_drift_at_r_near_one(self, f_sqrt):
        # the R = 1500 CI config: at 4096 panels w(R) has settled to 3.5e-9,
        # but w near r = 1.65 still moves by 2.6e-8 > tol; at 8192 panels
        # u_end moves by 4.0e-10 relative from the 4096-panel value
        sol = picard_gradient_entire(ScalarFn.from_source("(1+t^2)^(-2)"), f_sqrt, 1.0,
                                     1500.0, 3, panels=1024)
        assert sol.classification == BOUNDED
        assert sol.metadata["mesh_points"] == 8192
        assert sol.metadata["mesh_error"] <= 1e-8
        assert sol.u[-1] == pytest.approx(1.212589756458416, rel=1e-9)

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
        # on the graded mesh the refinement stops after two doublings with a
        # last drift of 1.2-3.0e-10; the drifts fall ~15x per doubling, so the
        # Richardson error left on the finest mesh meets the 1e-9 target
        assert sol.metadata["mesh_points"] == 4096
        assert sol.metadata["mesh_drift"] < 1e-7
        assert sol.metadata["mesh_error"] <= 1e-9

    def test_graded_mesh_meets_the_target_against_a_fine_reference(self, f_sqrt):
        # the README's bounded N = 4 system stops at 4096 panels; at the radii
        # it shares with a solve started at 16384 panels (which ends on 32768:
        # every eighth node) u and v agree to 2e-11, inside the 1e-9 target
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        problem = SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0)
        sol = solve_system(problem, 100.0, 4, mesh_points=1024)
        ref = solve_system(problem, 100.0, 4, mesh_points=16384)
        assert sol.metadata["mesh_points"] == 4096
        assert ref.metadata["mesh_points"] >= 16384
        stride = ref.metadata["mesh_points"] // sol.metadata["mesh_points"]
        np.testing.assert_array_equal(ref.r[::stride], sol.r)
        np.testing.assert_allclose(sol.u, ref.u[::stride], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(sol.v, ref.v[::stride], rtol=1e-9, atol=0.0)

    def test_unmet_mesh_target_raises(self, f_sqrt):
        # 16 panels doubled three times leave a drift of ~3e-4
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        with pytest.raises(NumericsError, match="mesh error"):
            solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         100.0, 3, mesh_points=16)

    @pytest.mark.parametrize("potential, where", [("p", "t=40.009307861328125"),
                                                  ("q", "t=40.009307861328125")])
    def test_domain_error_from_the_mesh_sweep_is_the_scalar_error(self, f_sqrt, potential,
                                                                   where):
        # the vector sweep over the mesh reports the scalar evaluator's error
        # at the first mesh node past 40, node 229 of _graded_mesh(50, 256)
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        bad = RadialPotential(phi=ScalarFn.from_source("sqrt(40-t)"))
        pots = {"p": one, "q": one, potential: bad}
        with pytest.raises(EvalDomainError) as err:
            solve_system(SystemProblem(f=f_sqrt, g=f_sqrt, a=1.0, b=1.0, **pots), 50.0, 3,
                         mesh_points=256)
        assert str(err.value) == ("square root of a negative value in sqrt((40.0 - t)) "
                                  f"at {where}")

    @pytest.mark.parametrize("negative", ["p", "q"])
    def test_a_negative_potential_is_named_on_the_first_mesh(self, f_sqrt, negative):
        # p or q = 1 - t/30 was read unchecked: the scheme refined 512 panels
        # to 4,096 and then blamed the mesh ("iterates failed to be
        # nondecreasing"); the first node past 30 is named on the first mesh
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        bad = RadialPotential(phi=ScalarFn.from_source("1-t/30"))
        pots = {"p": one, "q": one, negative: bad}
        with pytest.raises(SampleError,
                           match=r"radial potential must be nonnegative "
                                 r"\(r = 30\.06153106689453: p = -0\.00205\d*\)$") as err:
            solve_system(SystemProblem(f=f_sqrt, g=f_sqrt, a=1.0, b=1.0, **pots), 50.0, 3,
                         mesh_points=512)
        assert err.value.fn is bad.phi

    def test_zero_potentials(self, f_sqrt):
        zero = RadialPotential(phi=ScalarFn.from_source("0"))
        sol = solve_system(SystemProblem(p=zero, q=zero, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=2.0), 10.0, 3, mesh_points=256)
        assert np.max(np.abs(sol.u - 1.0)) == 0.0
        assert np.max(np.abs(sol.v - 2.0)) == 0.0

    def test_one_potential_is_classified_once(self, f_sqrt, monkeypatch):
        # p is q: one tail verdict of t p, read off the potential's own t_psi,
        # and the same solution as from two potentials of the same p
        seen = []

        def spy(fn, a, *args, **kwargs):
            seen.append(fn)
            return classify_tail_integral(fn, a, *args, **kwargs)

        monkeypatch.setattr(radial, "classify_tail_integral", spy)
        pot = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        one = solve_system(SystemProblem(p=pot, q=pot, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                           20.0, 3, mesh_points=256)
        assert seen == [pot.t_psi] and seen[0] is pot.t_psi
        twin = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        two = solve_system(SystemProblem(p=pot, q=twin, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                           20.0, 3, mesh_points=256)
        assert len(seen) == 3
        np.testing.assert_array_equal(one.u, two.u)
        np.testing.assert_array_equal(one.v, two.v)
        assert one.metadata == two.metadata

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
                            lambda grading, R, panels, m, rate=0:
                            lambda fvals: np.full(panels + 1, -1.0))

    def test_gradient_scheme_raises(self, f_sqrt, lowering_kernel):
        with pytest.raises(ValueError, match="nondecreasing"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 10.0, 3,
                                   panels=64)

    def test_system_raises(self, f_sqrt, lowering_kernel):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        with pytest.raises(ValueError, match="nondecreasing"):
            solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         10.0, 3, mesh_points=64)


class TestWarmStart:
    """Each doubling of the refinement starts from the solution it refines,
    read on the doubled mesh; a start that is no sub-solution costs one
    step and the run is the cold one."""

    @staticmethod
    def _gradient(psi, R, tol=1e-8):
        def solve(f):
            return picard_gradient_entire(ScalarFn.from_source(psi), f, 1.0, R, 3, tol=tol,
                                          panels=1024)
        return solve

    @staticmethod
    def _system(p, R, N, tol=1e-10):
        def solve(f):
            pot = RadialPotential(phi=ScalarFn.from_source(p))
            return solve_system(SystemProblem(p=pot, q=pot, f=f, g=f, a=1.0, b=1.0), R, N,
                                tol=tol, mesh_points=1024)
        return solve

    @pytest.mark.parametrize("case, verdict", [
        ("gradient bounded", BOUNDED), ("gradient large", ENTIRE_LARGE),
        ("system bounded", BOUNDED), ("system large", ENTIRE_LARGE)])
    def test_matches_a_cold_solve_on_the_final_mesh(self, f_sqrt, monkeypatch, case, verdict):
        solve, tol = {
            "gradient bounded": (self._gradient("(1+t)^(-3)", 100.0), 1e-8),
            "gradient large": (self._gradient("1", 50.0), 1e-8),
            "system bounded": (self._system("(1+t^2)^(-2)", 100.0, 4), 1e-10),
            "system large": (self._system("1", 50.0, 3), 1e-10)}[case]
        warm = solve(f_sqrt)
        # with no warm start every run is cold: the last is the cold solve
        # on the final mesh
        monkeypatch.setattr(radial, "_warm_start", lambda *args: None)
        cold = solve(f_sqrt)
        assert warm.classification == cold.classification == verdict
        assert warm.metadata["mesh_points"] == cold.metadata["mesh_points"]
        for name in ("u", "v"):
            if getattr(cold, name) is not None:
                w, c = getattr(warm, name), getattr(cold, name)
                assert np.max(np.abs(w - c) / (1.0 + np.abs(c))) <= tol
        # one run per mesh, coarse to fine; no warm start was rejected here,
        # so each refined run took fewer steps than its cold one
        steps, cold_steps = warm.metadata["picard_steps"], cold.metadata["picard_steps"]
        assert len(steps) == len(cold_steps) >= 2
        assert steps[0] == cold_steps[0]
        assert all(s < c for s, c in zip(steps[1:], cold_steps[1:]))
        assert steps[-1] == warm.metadata["iterations"]
        assert cold_steps[-1] == cold.metadata["iterations"]

    def test_the_drift_reads_the_mesh(self, monkeypatch):
        # f = t^0.9 converges slowly: a warm run stopped at tol would end
        # about tol short of its fixed point, so the drift of the doubling to
        # 2,048 panels (1.05e-8 between cold runs, above tol) would read
        # below tol and stop the refinement one doubling early
        solve = self._gradient("1", 50.0)
        f = analyze_nonlinearity("t^0.9")
        warm = solve(f)
        monkeypatch.setattr(radial, "_warm_start", lambda *args: None)
        cold = solve(f)
        assert warm.metadata["mesh_points"] == cold.metadata["mesh_points"] == 4096
        assert abs(warm.metadata["mesh_drift"] - cold.metadata["mesh_drift"]) <= 1e-9
        assert np.max(np.abs(warm.u - cold.u) / (1.0 + np.abs(cold.u))) <= 1e-8

    def test_lifted_gradient_start_reruns_cold(self, f_sqrt):
        t = _graded_mesh(50.0, 256)
        args = (np.ones_like(t), f_sqrt.f.vector(), 1.0, 50.0, 256, 3, 1e-8)
        (w,), iterations, monotone = radial._picard_gradient_run(*args)
        # 1e-6 above the solution: the first step lowers it, so it is refused
        steps = []
        (again,), again_iterations, again_monotone = radial._picard_gradient_run(
            *args, (w * (1.0 + 1e-6),), steps)
        np.testing.assert_array_equal(again, w)
        assert (again_iterations, again_monotone) == (iterations, monotone)
        assert steps == [iterations + 1]

    def test_lifted_system_start_reruns_cold(self, f_sqrt):
        one = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        problem = SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0)
        (u, v), iterations, monotone, *_ = radial._system_run(problem, 4, 1e-10, 100.0, 256)
        steps = []
        (u2, v2), iterations2, monotone2, *_ = radial._system_run(
            problem, 4, 1e-10, 100.0, 256, (u * (1.0 + 1e-6), v * (1.0 + 1e-6)), steps)
        np.testing.assert_array_equal(u2, u)
        np.testing.assert_array_equal(v2, v)
        assert (iterations2, monotone2) == (iterations, monotone)
        assert steps == [iterations + 1]

    def test_warm_start_keeps_the_coarse_nodes(self):
        R, panels = 50.0, 64
        t = _graded_mesh(R, panels)
        y = 1.0 + t ** 3 - 0.5 * t ** 2  # a cubic: the read is exact to rounding
        (fine,) = radial._warm_start(R, panels, (y,), 1e-9)
        lowered = 1.0 - radial.WARM_MARGIN * 1e-9
        np.testing.assert_array_equal(fine[::2], y * lowered)
        odd = _graded_mesh(R, 2 * panels)[1::2]
        np.testing.assert_allclose(fine[1::2], (1.0 + odd ** 3 - 0.5 * odd ** 2) * lowered,
                                   rtol=1e-12)
        # the array read is the scalar read, point by point
        reads = radial._cubic_read(t, y, odd)
        assert reads.tolist() == [float(radial._cubic_read(t, y, float(x))) for x in odd]

    @pytest.mark.parametrize("scheme", ["Picard", "system"])
    def test_refusals_keep_their_messages(self, f_sqrt, monkeypatch, scheme):
        # the lowering kernel of TestMonotoneCheck: every step sets u(0) one
        # below its start, so the doubled mesh's warm start is refused after
        # one step and the cold run that follows lowers u(0)
        monkeypatch.setattr(radial, "_volterra",
                            lambda grading, R, panels, m, rate=0:
                            lambda fvals: np.full(panels + 1, -1.0))
        message = (f"{scheme} iterates failed to be nondecreasing on 128 panels (refined from "
                   "64): the scheme's assumptions are violated or the mesh is too coarse")
        one = ScalarFn.from_source("1")
        with pytest.raises(ValueError, match=re.escape(message)):
            if scheme == "Picard":
                picard_gradient_entire(one, f_sqrt, 1.0, 10.0, 3, panels=64)
            else:
                pot = RadialPotential(phi=one)
                solve_system(SystemProblem(p=pot, q=pot, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                             10.0, 3, mesh_points=64)


class TestMeshSize:
    """A mesh below one panel is refused; a coarse one that breaks
    monotonicity names its panels."""

    def test_graded_mesh_needs_a_panel(self):
        # panels = 0 divided 0 by 0 and read classification=undetermined
        for panels in (0, -1):
            with pytest.raises(ValueError, match="at least one panel"):
                _graded_mesh(50.0, panels)
        assert _graded_mesh(50.0, 1).tolist() == [0.0, 50.0]

    def test_gradient_scheme_needs_a_panel(self, f_sqrt):
        with pytest.raises(ValueError, match="at least one panel"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3, panels=0)

    def test_system_needs_a_panel(self, f_sqrt):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        with pytest.raises(ValueError, match="at least one panel, not mesh_points = 0"):
            solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         50.0, 3, mesh_points=0)

    def test_coarse_gradient_mesh_names_its_panels(self, f_sqrt):
        # one panel refined three times is 8 panels, still too coarse on [0, 50]
        with pytest.raises(ValueError, match=r"nondecreasing on 8 panels \(refined from 1\)"):
            picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3, panels=1)

    def test_coarse_system_mesh_names_its_panels(self, f_sqrt):
        one = RadialPotential(phi=ScalarFn.from_source("1"))
        with pytest.raises(ValueError, match=r"nondecreasing on 32 panels \(refined from 4\)"):
            solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt, a=1.0, b=1.0),
                         50.0, 3, mesh_points=4)



class TestLipschitz:
    def test_paired_run_bound(self, f_sqrt):
        dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))
        a = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                       a=1.0, b=1.0), 50.0, 3, mesh_points=1024)
        b = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                       a=1.01, b=1.01), 50.0, 3, mesh_points=1024)
        diff = max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.v - b.v))))
        # C_p = C_q = (N-2)^-1 int t (1+t^2)^-2 dt = 1/2; Lipschitz constant of
        # sqrt on the attained range [1, sup] is m = 1/2; the Gronwall factor
        # on central-value gaps is (1 + m C_q) e^(m^2 C_p C_q)
        bound = (1.0 + 0.5 * 0.5) * math.exp(0.5 * 0.5 * 0.5 * 0.5) * 0.01
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

    # b vanishes on the core r <= 0.5 of the unit ball, whose first Dirichlet
    # eigenvalue is lambda_inf_1 = 4 pi^2
    CORE_B = "((t-0.5+abs(t-0.5))/2)^2"

    def test_eigenvalue_gate(self, f_cubic):
        # a = 40 lies past lambda_inf_1 = 4 pi^2 = 39.48
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source(self.CORE_B),
                               a_lin=40.0, domain=("ball", 1.0), omega0_radius=0.5)
        with pytest.raises(ValueError, match="lambda_inf_1"):
            boundary_blowup(prob)

    def test_dimension_below_one_is_refused(self, f_cubic):
        # N = 0 reached the series start's division by N
        with pytest.raises(ValueError, match="dimension N must be >= 1"):
            LogisticProblem(N=0, f=f_cubic, b=ScalarFn.from_source("1"))

    @pytest.mark.parametrize("b, r, value", [
        ("1", 0.0, 1.0),
        # zero on r <= 0.45 only: the grid of [0, 0.5] meets it at r = 0.4625
        ("((t-0.45+abs(t-0.45))/2)^2", 0.4625, 0.00015625000000000027),
    ])
    def test_a_core_where_b_does_not_vanish_is_refused(self, f_cubic, b, r, value):
        with pytest.raises(SampleError, match=re.escape(
                f"b must vanish on the core r <= 0.5 (r = {r!r}: b = {value!r})")):
            LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source(b), domain=("ball", 1.0),
                            omega0_radius=0.5)

    @pytest.mark.parametrize("domain, omega0, why", [
        (("ball", 1.0), 1.0, "inside the ball"),
        (("ball", 1.0), 2.0, "inside the ball"),
        (("annulus", 0.5, 1.0), 0.25, "annulus"),
    ])
    def test_a_core_outside_the_domain_is_refused(self, f_cubic, domain, omega0, why):
        with pytest.raises(ValueError, match=why):
            LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("0"), domain=domain,
                            omega0_radius=omega0)

    @pytest.fixture(scope="class")
    @classmethod
    def vanishing_core(cls, f_cubic):
        """The ball N = 3 whose b is 0 on the core r <= 0.5, at a linear term a."""
        return lambda a: boundary_blowup(LogisticProblem(
            N=3, f=f_cubic, b=ScalarFn.from_source("((t-0.5+abs(t-0.5))/2)^2"), a_lin=a,
            domain=("ball", 1.0), omega0_radius=0.5))

    def test_two_levels_on_one_parameter_are_undetermined(self, vanishing_core):
        # at a ~ 0.5 lambda_inf_1 both level searches return 370.4485398658448:
        # the two levels are one shot, which agrees with itself everywhere
        sol = vanishing_core(19.74)
        assert sol.metadata["level_parameter_gap"] == 0.0
        assert sol.classification == UNDETERMINED

    def test_two_distinct_levels_keep_the_verdict(self, vanishing_core):
        sol = vanishing_core(0.0)
        assert 0.0 < sol.metadata["level_parameter_gap"] < 1e-9
        assert sol.classification == "boundary-blowup"

    def test_whole_space_shot_that_blows_up_in_its_window(self, f_cubic):
        # u(0) = 1, Delta u = u^3 in R^3 blows up at r ~ 2.5748, inside the
        # first window [0, 10]: no ratio is read past the end of the shot
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("1"),
                               domain=("whole-space", 10.0))
        sol = boundary_blowup(prob)
        assert sol.classification == "boundary-blowup"
        assert sol.blowup_radius == pytest.approx(2.574836727800781, rel=1e-9)
        assert sol.r[-1] == sol.blowup_radius
        assert sol.metadata["window_ratios"] == []

    def test_whole_space_blowup_radius_is_where_u_blows_up(self, f_cubic):
        # the shot ends where u reaches 1e8: within 1e-7 of where it reaches
        # 1e12, not where |u'| reaches 1e8 first (4.6e-5 short)
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("1"),
                               domain=("whole-space", 10.0))
        source = radial._level_source(prob)
        start, y0 = series_start(source, 1.0, 3, 1e-5)
        far = shoot(source, 3, start, y0, 10.0, 1e-10, 1e-13, cap=1e12)
        assert far.event == 2
        assert boundary_blowup(prob).blowup_radius == pytest.approx(far.t[-1], rel=1e-7)

    def test_whole_space_windows_of_a_decaying_weight(self, f_cubic):
        # Delta u = e^-r u^3 from u(0) = 1 stays finite over both windows; the
        # verdict is not asserted here, only the numbers of the two shots
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source("exp(-t)"),
                               domain=("whole-space", 10.0))
        sol = boundary_blowup(prob)
        assert sol.metadata["window_ratios"] == [1.4246048899276365, 1.1806032243221471]
        assert sol.u[-1] == 3.836987781824512
        assert sol.r[-1] == 20.0 and sol.blowup_radius is None

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



# ---------------------------------------------------------------------------
# The level search's exponent
# ---------------------------------------------------------------------------

def _reference_level_search(shot, span, cap, f, phi):
    """The level search as it was before the exponent: Brent's method on
    the distance D itself, against phi(n), to 1e-4 phi(n)."""
    memo = {}

    def distance(p, tally):
        if p not in memo:
            sol = tally.add(shot(p, cap))
            x, u, du = float(sol.t[-1]), float(sol.y[0, -1]), float(sol.y[1, -1])
            if sol.status == -1:
                memo[p] = -span
            elif sol.event == 2:
                memo[p] = phi(u) - du * (span - x) / math.sqrt(2.0 * f.F(u))
            else:
                memo[p] = phi(u) if u > 0.0 else 1e300
        return memo[p]

    def solve(n, tally):
        target = phi(n)
        for _ in range(60):
            below = [p for p, D in memo.items() if D > target]
            above = [p for p, D in memo.items() if D < target and p > max(below, default=0.0)]
            if below and above:
                return find_root_monotone(lambda p: distance(p, tally), target, max(below),
                                          min(above), tol=1e-4 * target, width_tol=1e-15)
            distance(2.0 * max(below) if below else 0.5 * min(above, default=2.0), tally)
        raise BracketError(f"no two shots bracket the level u = {n:g}")

    return solve


# (N, f, b, domain): the README headline and the bench's ball N = 3 shape,
# whose b vanish at the blow-up boundary like d^2 and d^2.5376, and the
# ball with 100 b, whose order is b's and whose value at d is not d^2.5376
_LEVEL_SHAPES = {
    "headline": (1, "t^3", "t^2", ("annulus", 0.0, 1.0)),
    "ball3": (3, "t^3.4", "(1-t)^2.5376", ("ball", 1.0)),
    "ball3_scaled": (3, "t^3.4", "100*(1-t)^2.5376", ("ball", 1.0)),
}


def _level_problem(name):
    N, f, b, domain = _LEVEL_SHAPES[name]
    return LogisticProblem(N=N, f=analyze_nonlinearity(f), b=ScalarFn.from_source(b),
                           domain=domain)


def _traced_blowup(name):
    """boundary_blowup of a shape with every level shot, (p, sol), in order."""
    prob = _level_problem(name)
    shot, span = radial._level_shot(prob)
    shots = []

    def traced(p, cap, dense=False):
        shots.append((p, shot(p, cap, dense)))
        return shots[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_level_shot", lambda prob: (traced, span))
        return boundary_blowup(prob), shots


@pytest.fixture(scope="module")
def traced_blowups():
    return {name: _traced_blowup(name) for name in _LEVEL_SHAPES}


def _power_exponent(points):
    """beta of the power law D = c (P - p)^beta through three (p, D): the
    beta for which the D^(1/beta) lie on one line in p."""
    (p1, D1), (p2, D2), (p3, D3) = sorted(points)

    def bend(beta):
        y1, y2, y3 = (D ** (1.0 / beta) for D in (D1, D2, D3))
        return (y2 - y1) / (p2 - p1) - (y3 - y2) / (p3 - p2)

    return brentq(bend, 0.5, 3.0, xtol=1e-12)


class TestLevelSearchExponent:
    @pytest.mark.parametrize("name, most", [("headline", 18), ("ball3", 15)])
    def test_level_shots(self, traced_blowups, name, most):
        # Brent on D itself takes [4, 25] and [4, 21] shots here
        sol, shots = traced_blowups[name]
        assert sum(sol.metadata["level_shots"]) == len(shots) <= most

    @pytest.mark.parametrize("name, levels", [("headline", [1e11, 1e13]),
                                              ("ball3", [1e8, 1e10])])
    def test_verdict_and_levels(self, traced_blowups, name, levels):
        sol, _ = traced_blowups[name]
        assert sol.classification == "boundary-blowup"
        assert sol.metadata["n_levels"] == levels

    @pytest.mark.parametrize("name, beta", [("headline", 1.1287), ("ball3", 1.1641),
                                            ("ball3_scaled", 1.1641)])
    def test_exponent_is_the_power_of_the_traced_distance(self, traced_blowups, name, beta):
        # the top-search shots that end at the boundary lie on D = c (P -
        # p)^beta with beta the predicted one: read at the three nearest the
        # root whose distances differ tenfold, so float spacings of p do not
        # decide
        sol, shots = traced_blowups[name]
        phi = tail_map(_level_problem(name).f)
        top_search = shots[:sol.metadata["level_shots"][-1] - 1]
        ends = sorted((phi(float(s.y[0, -1])), p) for p, s in top_search
                      if s.status == 0 and s.event is None)
        nearest = [ends[0]]
        for D, p in ends:
            if len(nearest) < 3 and D >= 10.0 * nearest[-1][0]:
                nearest.append((D, p))
        nearest = [(p, D) for D, p in nearest]
        predicted = sol.metadata["level_search_exponent"]
        assert predicted == pytest.approx(beta, abs=1e-4)
        assert abs(_power_exponent(nearest) - predicted) <= 1e-3

    @pytest.mark.parametrize("domain", [("annulus", 0.0, 1.0), ("ball", 1.0)])
    def test_flat_weight_searches_as_the_reference(self, f_cubic, domain):
        # b = 1 does not vanish at the boundary: beta is exactly 1 and every
        # level parameter and shot count is the reference search's
        prob = LogisticProblem(N=1 if domain[0] == "annulus" else 3, f=f_cubic,
                               b=ScalarFn.from_source("1"), domain=domain)
        shot, span = radial._level_shot(prob)
        beta = radial._search_exponent(prob, span)
        assert beta == 1.0
        phi, heights = tail_map(f_cubic), [1e13, 1e11, 1e9]
        runs = []
        for solve in (radial._level_search(shot, span, 1e14, f_cubic, phi, beta),
                      _reference_level_search(shot, span, 1e14, f_cubic, phi)):
            tallies = [ShotTally() for _ in heights]
            runs.append(([solve(n, t) for n, t in zip(heights, tallies)],
                         [t.shots for t in tallies]))
        assert runs[0] == runs[1]
        assert boundary_blowup(prob).metadata["level_search_exponent"] == 1.0

    @pytest.mark.parametrize("name", ["headline", "ball3"])
    def test_both_exponents_meet_the_stop_rule(self, name):
        prob = _level_problem(name)
        shot, span = radial._level_shot(prob)
        phi, n = tail_map(prob.f), 1e10
        for beta in (1.0, radial._search_exponent(prob, span)):
            p = radial._level_search(shot, span, 10.0 * n, prob.f, phi, beta)(n, ShotTally())
            sol = shot(p, 10.0 * n)
            assert sol.status == 0 and sol.event is None
            assert abs(phi(float(sol.y[0, -1])) - phi(n)) <= 1e-4 * phi(n)

    @pytest.mark.parametrize("b", ["t^0.5*0", "-(1-t)^2", "ln(1-t)", "(1-t)^-2",
                                   "exp(-1/(1-t))", "sqrt(0.5-t)"])
    def test_unreadable_weight_falls_back_to_one(self, f_cubic, b):
        prob = LogisticProblem(N=3, f=f_cubic, b=ScalarFn.from_source(b), domain=("ball", 1.0))
        assert radial._search_exponent(prob, 1.0) == 1.0


def test_rate_roundtrip_on_predicted_solution(f_cubic):
    # feeding the profile's own prediction back gives ratios identically 1
    from sel_lab.numerics import RadialSolution

    profile = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                            variant=VARIANT_K, c=1.0,
                            t_grid=2.0 ** (-np.arange(1, 14, dtype=float)))
    d = np.geomspace(0.01, 0.2, 40)
    u = np.array([profile.xi0 * profile.h_at(float(x)) for x in d])
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

    profile = build_profile(f_cubic, KFunction.power(1.0, nu=1.0),
                            variant=VARIANT_K, c=1.0,
                            t_grid=2.0 ** (-np.arange(1, 14, dtype=float)))
    d = 0.2 * 1.035 ** np.arange(20)
    u = np.array([profile.xi0 * profile.h_at(float(x)) * (1.0 + 5.0 * x) for x in d])
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
