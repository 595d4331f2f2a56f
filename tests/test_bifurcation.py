import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv, spherical_jn

from sel_lab import bifurcation
from sel_lab.bifurcation import (
    PROBES,
    S_MAX_PROBE,
    LEFProblem,
    gelfand_reduced_source,
    gelfand_solvable,
    gelfand_transform,
    lambda1_ball,
    lambda_inf_1,
    solve_lef,
    sweep,
    young_constant,
)
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import analyze_nonlinearity, analyze_singular_term
from sel_lab.numerics import (
    NO_SOLUTION,
    NumericsError,
    RadialSolution,
    find_root_monotone,
    series_start,
    shoot,
)
from sel_lab.radial import residual_on_table


def bessel_j0_first_zero():
    """Independent oracle: bisection on the J0 power series."""

    def j0(x):
        term, total = 1.0, 1.0
        for k in range(1, 40):
            term *= -(x * x / 4.0) / (k * k)
            total += term
        return total

    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def first_bessel_zero(nu):
    """j_{nu,1}: brentq on the first sign change of J_nu on a 1/8 grid."""
    x = 0.125
    while jv(nu, x + 0.125) > 0.0:
        x += 0.125
    return brentq(lambda t: jv(nu, t), x, x + 0.125, xtol=1e-15)


def lambda1_by_search(N, R, mode="ball"):
    """Reference copy of the former lambda_1 search: Brent's method on the
    sign change of phi(R) over a doubling bracket from lambda = 0.1/R^2,
    stopped when the bracket in lambda R^2 is narrower than about 1e-12."""
    phi0, dphi0 = (0.0, 1.0) if mode == "interval" else (1.0, 0.0)

    def endpoint(mu):
        source = lambda r, u, du: -mu / (R * R) * u  # noqa: E731
        start, y0 = (0.0, (phi0, dphi0)) if dphi0 else series_start(source, phi0, N, 1e-6 * R)
        return float(shoot(source, N, start, y0, R, 1e-13, 1e-14).y[0, -1])

    return find_root_monotone(endpoint, 0.0, 0.1, 0.2, tol=0.0, width_tol=1e-12) / (R * R)


class TestEigenvalues:
    def test_n1_symmetric(self):
        assert lambda1_ball(1, 1.0).lambda1 == pytest.approx(math.pi ** 2 / 4.0,
                                                             abs=1e-8)

    def test_n1_interval(self):
        got = lambda1_ball(1, 1.0, mode="interval").lambda1
        assert got == pytest.approx(math.pi ** 2, abs=1e-8)

    def test_n3(self):
        assert lambda1_ball(3, 1.0).lambda1 == pytest.approx(math.pi ** 2, abs=1e-8)

    def test_n2_against_series_oracle(self):
        j01 = bessel_j0_first_zero()
        assert j01 == pytest.approx(2.404825557695773, abs=1e-12)
        got = lambda1_ball(2, 1.0).lambda1
        assert got == pytest.approx(j01 * j01, abs=1e-6)
        assert got == pytest.approx(5.7831859629, abs=1e-6)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_scaling_invariant(self, N):
        vals = [lambda1_ball(N, R).lambda1 * R * R for R in (0.5, 1.0, 2.0)]
        assert max(abs(v - vals[1]) for v in vals) <= 1e-8

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_eigen_residual(self, N):
        eig = lambda1_ball(N, 1.0)
        assert residual_on_table(eig.r, eig.phi, eig.dphi, lambda r, u, du: -eig.lambda1 * u,
                                 N) <= 1e-8

    def test_eigenfunction_normalized_and_positive(self):
        eig = lambda1_ball(3, 1.0)
        assert eig.phi[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(eig.phi[:-1] > 0.0)
        assert abs(eig.phi[-1]) < 1e-9

    @pytest.mark.parametrize("N, mode", [(1, "ball"), (2, "ball"), (3, "ball"), (4, "ball"),
                                         (5, "ball"), (1, "interval")])
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_closed_forms(self, N, mode, R):
        # j_{N/2-1,1}^2/R^2 on the N-ball, (pi/2)^2/R^2 and pi^2/R^2 on the intervals
        if mode == "interval":
            want = math.pi ** 2
        elif N == 1:
            want = (math.pi / 2.0) ** 2
        else:
            want = brentq(lambda x: jv(N / 2.0 - 1.0, x), 2.0, 5.0, xtol=1e-15) ** 2
        assert lambda1_ball(N, R, mode=mode).lambda1 == pytest.approx(want / R ** 2, rel=1e-13,
                                                                     abs=0.0)

    def test_lambda_inf_1(self):
        assert lambda_inf_1(3, 0.0) == math.inf
        assert lambda_inf_1(3, 1.0) == pytest.approx(math.pi ** 2, abs=1e-8)
        assert lambda_inf_1(3, 0.5) == pytest.approx(4.0 * math.pi ** 2, abs=1e-6)

    def test_counts_every_shot_and_reads_dense_output_once(self, monkeypatch):
        shots, lams = [], []

        def counted(*args, **kwargs):
            shots.append((kwargs.get("dense", False), shoot(*args, **kwargs)))
            lams.append(-args[0](0.0, 1.0, 0.0))  # the source is -lambda u
            return shots[-1][1]

        monkeypatch.setattr(bifurcation, "shoot", counted)
        eig = lambda1_ball(3, 1.0)
        assert eig.shots == len(shots) == 2
        assert eig.steps_accepted == sum(sol.steps_accepted for _, sol in shots)
        assert eig.steps_rejected == sum(sol.steps_rejected for _, sol in shots)
        # the unit shot to the first zero, then the eigenfunction at lambda_1
        assert [dense for dense, _ in shots] == [False, True]
        assert lams == [1.0, eig.lambda1]

    @pytest.mark.parametrize("N, mode", [(N, "ball") for N in range(1, 13)] + [(1, "interval")])
    @pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
    def test_scaled_zero_agrees_with_the_search(self, N, mode, R):
        # each is within 1e-13 of j^2/R^2 (the search is off by 1.08e-13 at
        # N = 11, the scaled zero by 8.1e-14 at N = 2), so they agree to 2e-13
        if mode == "interval":
            want = math.pi ** 2
        elif N == 1:
            want = (math.pi / 2.0) ** 2
        else:
            want = first_bessel_zero(N / 2.0 - 1.0) ** 2
        got = lambda1_ball(N, R, mode=mode).lambda1
        assert got == pytest.approx(want / R ** 2, rel=1e-13, abs=0.0)
        assert got == pytest.approx(lambda1_by_search(N, R, mode), rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("N, mode", [(1, "ball"), (3, "ball"), (1, "interval")])
    def test_phi_at_R_is_the_audited_zero(self, N, mode):
        eig = lambda1_ball(N, 2.0, mode=mode)
        assert eig.phi_at_R == eig.phi[-1] == pytest.approx(0.0, abs=1e-13)

    def test_audit_fires_on_a_shifted_zero(self, monkeypatch):
        def shifted(*args, **kwargs):
            sol = shoot(*args, **kwargs)
            if sol.event == 0:
                sol.t[-1] *= 1.0 + 1e-6
            return sol

        monkeypatch.setattr(bifurcation, "shoot", shifted)
        with pytest.raises(NumericsError, match="misses its zero"):
            lambda1_ball(3, 1.0)

    def test_unit_shot_without_a_zero_is_a_numerics_error(self, monkeypatch):
        # a span short of the first zero: the unit shot reaches its end
        def short(source, N, r_start, y0, r_end, *args, **kwargs):
            return shoot(source, N, r_start, y0, 1.0 if kwargs.get("floors") else r_end,
                         *args, **kwargs)

        monkeypatch.setattr(bifurcation, "shoot", short)
        with pytest.raises(NumericsError, match=r"N = 3, mode 'ball'.* no zero on \(0, 14.0\]"):
            lambda1_ball(3, 1.0)

    # (phi, phi'/k) at x = k r, k = sqrt(lambda_1), with phi(0) = 1 on the
    # ball and phi'(0) = 1 on the interval (there k phi and phi')
    CLOSED_FORMS = {
        (1, "ball"): lambda x: (np.cos(x), -np.sin(x)),
        (1, "interval"): lambda x: (np.sin(x), np.cos(x)),
        (2, "ball"): lambda x: (jv(0.0, x), -jv(1.0, x)),
        (3, "ball"): lambda x: (spherical_jn(0, x), -spherical_jn(1, x)),
        (5, "ball"): lambda x: (3.0 * spherical_jn(1, x) / x, -3.0 * spherical_jn(2, x) / x),
    }

    @pytest.mark.parametrize("N, mode", list(CLOSED_FORMS))
    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_table_rows_on_each_side_of_the_series_start(self, N, mode, R):
        # rows below EIGEN_START/k are the series, the rest the dense shot
        eig = lambda1_ball(N, R, mode=mode)
        k = math.sqrt(eig.lambda1)
        start = np.searchsorted(eig.r, bifurcation.EIGEN_START / k)
        assert 0 < start < eig.r.size - 3
        rows = slice(start - 3, start + 3)
        phi, slope = self.CLOSED_FORMS[N, mode](k * eig.r[rows])
        scale = k if mode == "interval" else 1.0
        assert np.max(np.abs(scale * eig.phi[rows] - phi)) <= 1e-12
        assert np.max(np.abs(scale * eig.dphi[rows] / k - slope)) <= 1e-12

    def test_five_ball_steps(self):
        # both shots start at x = 1 on the series, past the origin, where the
        # drift (N-1)/r u' is stiff: 68 accepted steps, 234 from r = 1e-6
        eig = lambda1_ball(5, 1.0)
        assert eig.steps_accepted <= 100

    def test_interval_mode_requires_1d(self):
        with pytest.raises(ValueError):
            lambda1_ball(3, 1.0, mode="interval")


@pytest.fixture(scope="module")
def g_half():
    return analyze_singular_term("t^(-1/2)")


@pytest.fixture(scope="module")
def f_linear():
    return analyze_nonlinearity("t")


class TestSolveLEF:
    def test_torsion_closed_form(self):
        # -u'' = 1 on (0,1): u = x(1-x)/2, sup norm 1/8
        prob = LEFProblem(N=1, geometry="interval", lam=1.0,
                          f=analyze_nonlinearity("1"),
                          a_pot=ScalarFn.from_source("0"))
        sol = solve_lef(prob)
        assert np.max(np.abs(sol.u - sol.r * (1.0 - sol.r) / 2.0)) <= 1e-8
        assert sol.metadata["sup_norm"] == pytest.approx(0.125, abs=1e-8)

    def test_pure_singular_distance_bounds(self, g_half):
        prob = LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob, options={"check_eps_sensitivity": True})
        assert sol.classification == "bounded"
        # the scaling solution has slope 3^(1/3) at the boundary
        assert sol.metadata["shooting_parameter"] == pytest.approx(3.0 ** (1.0 / 3.0),
                                                                   rel=1e-5)
        c1, c2 = sol.metadata["c1"], sol.metadata["c2"]
        assert 0.0 < c1 <= c2 < math.inf
        d = np.minimum(sol.r, 1.0 - sol.r)
        mask = (d < 0.2) & (d > 1e-4)
        assert np.all(sol.u[mask] >= c1 * d[mask] * (1.0 - 1e-9))
        assert np.all(sol.u[mask] <= c2 * d[mask] * (1.0 + 1e-9))
        assert sol.metadata["eps_cut_drift"] < 1e-6

    def test_singular_interval_search_shots(self, monkeypatch, g_half):
        # the probes up to the bracket, Brent's search and the dense shot
        shots = []

        def counted(*args, **kwargs):
            shots.append((kwargs["dense"], args[3]))
            return shoot(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "shoot", counted)
        prob = LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        assert solve_lef(prob).classification == "bounded"
        assert len(shots) <= 20
        # no slope is shot twice: the start (u, u') at x = 1e-6 is set by the slope
        starts = [y0 for dense, y0 in shots if not dense]
        assert len(set(starts)) == len(starts)

    @pytest.mark.parametrize("geometry,N,a", [("interval", 1, "1"), ("ball", 3, "1"),
                                              ("ball", 2, "1+t")])
    def test_eps_cut_audit_measures_a_drift(self, g_half, geometry, N, a):
        # halving the cut moves the modelled zero by a small but nonzero amount
        prob = LEFProblem(N=N, geometry=geometry, lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source(a))
        sol = solve_lef(prob, options={"check_eps_sensitivity": True})
        assert 0.0 < sol.metadata["eps_cut_drift"] < 1e-6
        assert sol.metadata["eps_cut_ok"]

    def test_eps_cut_audit_fires_on_a_moved_cut(self, monkeypatch, g_half):
        # the audit's halved cut read as a cut 1e4 times wider: the local
        # linear model of the zero then drifts far past 1e-6
        def wide(*args, floors, **kwargs):
            if floors[0] == floors[1] + bifurcation.EPS_BOUNDARY / 2.0:
                floors = (floors[1] + 1e-2, floors[1])
            return shoot(*args, floors=floors, **kwargs)

        monkeypatch.setattr(bifurcation, "shoot", wide)
        prob = LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob, options={"check_eps_sensitivity": True})
        assert sol.metadata["eps_cut_drift"] > 1e-6
        assert sol.metadata["eps_cut_ok"] is False

    @pytest.mark.parametrize("g", ["t^(-1)", "t^(-1.0)", "1/t"])
    def test_inverse_power_singular_term_is_bounded(self, f_linear, g):
        # alpha = 1 exactly: the start takes no 1/(1 - alpha) correction
        prob = LEFProblem(N=1, geometry="interval", lam=1.0, f=f_linear,
                          g=analyze_singular_term(g), a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob)
        assert sol.classification == "bounded"
        assert sol.metadata["shots"] > 0

    def test_no_solution_past_threshold(self, f_linear, g_half):
        prob = LEFProblem(N=1, geometry="interval", lam=1.1 * math.pi ** 2,
                          f=f_linear, g=g_half, a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob)
        assert sol.classification == NO_SOLUTION
        assert sol.metadata["sup_zero_location"] < 1.0
        # z rises over the whole coarse slice: no turning maximum to search
        assert [s for s, _ in sol.metadata["probe_table"]] == list(PROBES[10::4])
        assert sol.metadata["fold_parameter"] == S_MAX_PROBE
        # the singular term breaks the scaling u(r) = w(sqrt(lam) r)
        assert "lambda_star" not in sol.metadata

    @pytest.mark.parametrize("lam", [2.0, 10.45, 12.0, 16.52])
    def test_linear_problem_has_no_positive_solution(self, f_linear, lam):
        # -u'' = lam u on (0,1) away from lam = pi^2: probes that barely
        # clear the epsilon cut used to bracket R with sup_norm ~ EPS_BOUNDARY
        prob = LEFProblem(N=1, geometry="interval", lam=lam, f=f_linear)
        sol = solve_lef(prob)
        assert sol.classification == NO_SOLUTION
        # z = pi/sqrt(lam) up to the cut's model error, which falls with s:
        # the lowest probe is no turning maximum, and no probe is shot twice
        assert sol.metadata["shots"] == len(sol.metadata["probe_table"]) == 14
        # the linear problem scales: lambda_star is lambda_1 = pi^2 up to
        # twice the model error of the lowest probe's zero
        assert sol.metadata["lambda_star"] == pytest.approx(math.pi ** 2, rel=1e-4)

    def test_sup_zero_location_skips_probes_under_the_cut_margin(self, f_linear):
        # every shot of -u'' = lam u returns to 0 at pi/sqrt(lam); the probe at
        # s ~ 4.5e-6 peaks at ~ 1.04e-6, crosses the cut with a near-zero slope
        # and its linear model reads ~ 1.18, which bracket_in already refuses
        lam = 18.5157
        sol = solve_lef(LEFProblem(N=1, geometry="interval", lam=lam, f=f_linear))
        assert sol.classification == NO_SOLUTION
        assert sol.metadata["sup_zero_location"] == pytest.approx(math.pi / math.sqrt(lam),
                                                                  rel=1e-4)

    def test_coarse_scan_is_a_slice_of_the_probe_grid(self):
        assert np.array_equal(PROBES[10::4], np.geomspace(1e-4, S_MAX_PROBE, 14))
        assert PROBES[-1] == S_MAX_PROBE
        assert np.allclose(np.diff(np.log10(PROBES)), 10 / 52, rtol=1e-12, atol=0.0)

    def test_solvable_below_threshold(self, f_linear, g_half):
        prob = LEFProblem(N=1, geometry="interval", lam=0.95 * math.pi ** 2,
                          f=f_linear, g=g_half, a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob)
        assert sol.classification == "bounded"
        assert sol.metadata["sup_norm"] > 1.0

    def test_regularized_runs_decrease_in_k(self, g_half):
        prob = LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob, options={"regularization_levels": [2, 4, 8, 16]})
        assert sol.metadata["regularization"]["monotone_decreasing"]

    def test_regularization_audit_fires_on_two_swapped_levels(self, g_half):
        # levels that sort in reverse: the runs are solved for k = 4, then
        # k = 2, and u = 1/2 on the boundary lies above u = 1/4
        class Reversed(float):
            def __lt__(self, other):
                return float.__gt__(self, other)

        prob = LEFProblem(N=1, geometry="interval", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob, options={"regularization_levels": [Reversed(2), Reversed(4)]})
        reg = sol.metadata["regularization"]
        assert reg["k_levels"] == [4, 2]
        assert reg["monotone_decreasing"] is False

    @pytest.mark.parametrize("N,f,g,a", [(2, "t", "t^-0.3", "1+t"),
                                         (3, "t^3", "t^-0.5", "1")])
    def test_regularized_ball_runs_decrease_in_k(self, N, f, g, a):
        # the regularized levels shoot the ball problem, u(R) = 1/k
        prob = LEFProblem(N=N, geometry="ball", lam=1.0, f=analyze_nonlinearity(f),
                          g=analyze_singular_term(g), a_pot=ScalarFn.from_source(a))
        sol = solve_lef(prob, options={"regularization_levels": [8, 2, 4]})
        reg = sol.metadata["regularization"]
        assert reg["k_levels"] == [2, 4, 8]
        assert reg["monotone_decreasing"]
        values = sol.metadata["regularized_values"]
        assert values[0][-1] == pytest.approx(0.5, abs=1e-5)
        assert np.all(values[-1] >= sol.u - 1e-7)

    def test_ball_geometry(self, g_half):
        prob = LEFProblem(N=3, geometry="ball", lam=0.0, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
        sol = solve_lef(prob)
        assert sol.classification == "bounded"
        assert sol.metadata["c1"] > 0.0

    def test_gradient_power_validated(self):
        with pytest.raises(ValueError):
            LEFProblem(N=1, geometry="interval", grad_p=2.5)


class TestSweep:
    def test_linear_case_threshold(self, f_linear, g_half):
        template = LEFProblem(N=1, geometry="interval", f=f_linear, g=g_half,
                              a_pot=ScalarFn.from_source("1"))
        grid = [c * math.pi ** 2 for c in (0.3, 0.6, 0.9, 0.95, 1.05)]
        diagram = sweep(template, grid)
        assert diagram.status == ["solved"] * 4 + ["no-solution"]
        assert diagram.lam_star_theoretical == pytest.approx(math.pi ** 2, rel=1e-9)
        lo, hi = diagram.lam_star_bracket
        assert lo < diagram.lam_star_theoretical < hi
        assert diagram.monotone_centers

    def test_sublinear_case_no_threshold(self, g_half):
        f_sub = analyze_nonlinearity("t^(1/2)")
        template = LEFProblem(N=1, geometry="interval", f=f_sub, g=g_half,
                              a_pot=ScalarFn.from_source("1"))
        grid = [20.0, 60.0, 200.0]
        diagram = sweep(template, grid)
        assert diagram.status == ["solved"] * 3
        assert diagram.lam_star_bracket is None
        assert diagram.lam_star_theoretical is None  # m = 0
        assert diagram.monotone_centers

    def test_empty_grid(self, f_linear, g_half):
        template = LEFProblem(N=1, geometry="interval", f=f_linear, g=g_half,
                              a_pot=ScalarFn.from_source("1"))
        diagram = sweep(template, [])
        assert diagram.lam == [] and diagram.status == []

    def test_grid_must_increase(self, f_linear):
        template = LEFProblem(N=1, geometry="interval", f=f_linear,
                              a_pot=ScalarFn.from_source("0"), lam=1.0)
        with pytest.raises(ValueError):
            sweep(template, [2.0, 1.0])

    def test_domain_error_propagates(self, f_linear, g_half):
        # a = sqrt(0.5-x) is undefined past x = 0.5, which the interval shots
        # cross: an EvalDomainError, not three failed points
        template = LEFProblem(N=1, geometry="interval", f=f_linear, g=g_half,
                              a_pot=ScalarFn.from_source("sqrt(0.5-t)"))
        with pytest.raises(EvalDomainError) as err:
            sweep(template, [0.5, 1.0, 2.0])
        assert str(err.value) == ("square root of a negative value in sqrt((0.5 - t)) "
                                  "at t=0.5010085380365554")
        assert err.value.node == template.a_pot.body


def bratu_1d_center(lam):
    """Closed-form oracle: -u'' = lam e^u on (-1, 1) has the minimal center
    value s solving s = 2 ln cosh(sqrt(lam e^s / 2)), by fixed-point iteration."""
    s = 0.0
    for _ in range(500):
        s = 2.0 * math.log(math.cosh(math.sqrt(lam * math.exp(s) / 2.0)))
    return s


@pytest.fixture(scope="module")
def f_exp():
    return analyze_nonlinearity("exp(t)")


@pytest.fixture(scope="module")
def bratu_1d_sweep(f_exp):
    return sweep(LEFProblem(N=1, geometry="ball", f=f_exp), [0.5, 0.8, 0.87, 0.9])


@pytest.mark.filterwarnings("error")
class TestGelfandBall:
    """-Delta u = lam e^u on the unit ball: solved below lam*, none above.
    lam* ~ 0.8785 for N = 1 (closed form) and ~ 3.32 for N = 3 (Joseph &
    Lundgren, Arch. Rational Mech. Anal. 49, 1973)."""

    def test_n3_below_threshold_is_solved(self, f_exp):
        sol = solve_lef(LEFProblem(N=3, geometry="ball", lam=3.0, f=f_exp))
        assert sol.classification == "bounded"
        assert 0.0 < sol.metadata["center_value"] < 2.0

    def test_n1_center_values_match_closed_form(self, bratu_1d_sweep):
        for lam, center in zip(bratu_1d_sweep.lam[:3], bratu_1d_sweep.center_value[:3]):
            assert center == pytest.approx(bratu_1d_center(lam), rel=1e-7)

    def test_n1_sweep_brackets_threshold(self, bratu_1d_sweep):
        assert bratu_1d_sweep.status == ["solved"] * 3 + ["no-solution"]
        assert bratu_1d_sweep.lam_star_bracket == (0.87, 0.9)
        assert bratu_1d_sweep.monotone_centers

    @pytest.mark.parametrize("N, lam", [(3, 3.0), (1, 0.9)])
    def test_failed_probes_have_no_zero_location(self, f_exp, N, lam):
        # past s ~ 890 the source lam e^u overflows its saturation and the
        # shot stops at the minimum step: a failed probe, not a zero
        zero_location, integrate = bifurcation._shooting_map(
            LEFProblem(N=N, geometry="ball", lam=lam, f=f_exp))
        failed = 0
        for s in PROBES:
            sol = integrate(s)
            z = zero_location(s)[0]
            assert math.isnan(z) == (sol is not None and not sol.success)
            failed += math.isnan(z)
        assert failed >= 16

    def test_n1_no_solution_reports_failed_probes(self, f_exp):
        sol = solve_lef(LEFProblem(N=1, geometry="ball", lam=0.9, f=f_exp))
        assert sol.classification == NO_SOLUTION
        zeros = [z for _, z in sol.metadata["probe_table"]]
        assert sol.metadata["failed_probes"] == sum(map(math.isnan, zeros)) == 5
        assert sol.metadata["shots"] <= len(PROBES)
        assert sol.metadata["sup_zero_location"] == max(z for z in zeros if not math.isnan(z))

    def test_n3_sweep_brackets_threshold(self, f_exp):
        diagram = sweep(LEFProblem(N=3, geometry="ball", f=f_exp), [2.0, 2.5, 3.0, 3.5])
        assert diagram.status == ["solved"] * 3 + ["no-solution"]
        assert diagram.lam_star_bracket == (3.0, 3.5)
        assert diagram.monotone_centers

    def test_n3_just_below_threshold_is_solved(self, f_exp):
        # at lam = 3.3 < lam* ~ 3.322 the zero location exceeds R only on the
        # window s ~ 1.4-1.8 of the branch's turning point
        sol = solve_lef(LEFProblem(N=3, geometry="ball", lam=3.3, f=f_exp))
        assert sol.classification == "bounded"
        diagram = sweep(LEFProblem(N=3, geometry="ball", f=f_exp), [3.0, 3.3, 3.5])
        assert diagram.status == ["solved", "solved", "no-solution"]
        assert diagram.lam_star_bracket == (3.3, 3.5)


BRATU_THETA = brentq(lambda t: t * math.tanh(t) - 1.0, 0.5, 2.0)


def bratu_lambda_star(R):
    """Closed-form fold of -u'' = lam e^u on an interval of length R:
    lam* = 8 theta^2/(R^2 cosh^2 theta) with theta tanh theta = 1 (Gelfand
    1963); R = 2 is the N = 1 ball (-1, 1)."""
    return 8.0 * BRATU_THETA ** 2 / (R * math.cosh(BRATU_THETA)) ** 2


@pytest.mark.filterwarnings("error")
class TestFold:
    """The zero-location map z(s) of -Delta u = lam e^u exceeds R only on a
    window around the fold, which the search locates instead of sampling."""

    @pytest.mark.parametrize("N, geometry, R, lam", [
        (1, "interval", 2.0, 0.877),   # lam* = 0.87846
        (1, "interval", 1.0, 3.513),   # lam* = 3.51383
        (2, "ball", 1.0, 1.998),       # lam* = 2
        (2, "ball", 1.0, 1.99),
        (2, "ball", 1.0, 1.96),
        (3, "ball", 1.0, 3.321),       # lam* ~ 3.32199
    ])
    def test_just_below_the_fold_is_solved(self, f_exp, N, geometry, R, lam):
        sol = solve_lef(LEFProblem(N=N, geometry=geometry, R=R, lam=lam, f=f_exp))
        assert sol.classification == "bounded"
        # every shot once: the coarse slice, the search and Brent's method
        assert sol.metadata["shots"] < 40

    @pytest.mark.parametrize("N, geometry, R, lam, lam_star", [
        (1, "interval", 2.0, 0.9, bratu_lambda_star(2.0)),
        (1, "interval", 1.0, 4.0, bratu_lambda_star(1.0)),
        (1, "ball", 1.0, 0.9, bratu_lambda_star(2.0)),
        (2, "ball", 1.0, 2.2, 2.0),
    ])
    def test_lambda_star_matches_the_closed_forms(self, f_exp, N, geometry, R, lam, lam_star):
        sol = solve_lef(LEFProblem(N=N, geometry=geometry, R=R, lam=lam, f=f_exp))
        assert sol.classification == NO_SOLUTION
        assert sol.metadata["lambda_star"] == pytest.approx(lam_star, rel=1e-9)
        assert sol.metadata["sup_zero_location"] < R

    @pytest.mark.parametrize("N, lam, s_fold", [
        # u(0) at the fold: 2 ln cosh theta for N = 1, ln 4 for N = 2
        (1, 0.9, 2.0 * math.log(math.cosh(BRATU_THETA))),
        (2, 2.2, math.log(4.0)),
    ])
    def test_fold_parameter_is_the_center_value_at_the_fold(self, f_exp, N, lam, s_fold):
        # the search stops at 1e-5 in ln s
        sol = solve_lef(LEFProblem(N=N, geometry="ball", lam=lam, f=f_exp))
        assert sol.metadata["fold_parameter"] == pytest.approx(s_fold, rel=1e-5)

    def test_no_shot_is_repeated(self, f_exp):
        sol = solve_lef(LEFProblem(N=3, geometry="ball", lam=3.5, f=f_exp))
        table = [s for s, _ in sol.metadata["probe_table"]]
        assert table == sorted(set(table))
        assert set(PROBES[10::4]) <= set(table)


class TestGelfand:
    def test_predicate(self):
        assert gelfand_solvable(0.0, 123.0, 0.0, math.pi ** 2)
        assert gelfand_solvable(1.0, 9.0, 0.0, math.pi ** 2)
        assert not gelfand_solvable(1.0, 10.0, 0.0, math.pi ** 2)

    def test_transform_zero(self):
        sol = RadialSolution(dimension=1, r=np.linspace(0, 1, 5), u=np.zeros(5),
                             du=np.zeros(5))
        out = gelfand_transform(sol, 0.7, "forward")
        assert np.all(out.u == 0.0)

    def test_round_trip(self):
        r = np.linspace(0.0, 1.0, 33)
        sol = RadialSolution(dimension=1, r=r, u=np.sin(math.pi * r) + 0.2,
                             du=math.pi * np.cos(math.pi * r))
        back = gelfand_transform(gelfand_transform(sol, 0.5, "forward"), 0.5, "back")
        assert np.max(np.abs(back.u - sol.u)) <= 1e-12
        assert np.max(np.abs(back.du - sol.du)) <= 1e-12

    def test_back_domain(self):
        sol = RadialSolution(dimension=1, r=np.array([0.0, 1.0]),
                             u=np.array([-2.0, 0.0]))
        with pytest.raises(ValueError):
            gelfand_transform(sol, 1.0, "back")

    def test_reduced_solve_and_residual(self):
        # -Delta u = g(u) + lam |u'|^2 + mu with g = e^-s, lam = 0.5, mu = 1:
        # solve the reduced problem, map back, check the original equation
        lam, mu = 0.5, 1.0
        phi = analyze_nonlinearity(gelfand_reduced_source("exp(-t)", lam, mu))
        reduced = LEFProblem(N=1, geometry="interval", lam=1.0, f=phi,
                             a_pot=ScalarFn.from_source("0"))
        v_sol = solve_lef(reduced)
        assert v_sol.classification == "bounded"
        u_sol = gelfand_transform(v_sol, lam, "back")
        res = residual_on_table(
            u_sol.r, u_sol.u, u_sol.du,
            lambda r, u, du: -(math.exp(-u) + lam * du * du + mu), 1)
        assert res <= 1e-6

    def test_reduced_source_handles_t_in_function_names(self):
        # substitution must not corrupt 'atan' or 'sqrt'
        src = gelfand_reduced_source("atan(t)+sqrt(t+1)", 1.0, 0.0)
        from sel_lab.expr import evaluate, parse_expression
        got = evaluate(parse_expression(src), 0.5)
        inner = math.log(1.5)
        assert got == pytest.approx(1.5 * (math.atan(inner) + math.sqrt(inner + 1.0)))


class TestYoung:
    def test_reference_case(self):
        assert young_constant(0.0, 1.5, math.pi ** 2) == 1.0

    def test_sampled_inequality_for_nontrivial_case(self):
        # inequality with the proof's coefficient arrangement:
        # s^p <= C^(p/2-1) s^2 + C^(p/2)
        p = 1.7
        C = young_constant(2.0, p, 5.0)
        assert C < 1.0
        s = np.geomspace(1e-6, 1e6, 500)
        assert np.max(s ** p - C ** (p / 2 - 1) * s ** 2 - C ** (p / 2)) <= 1e-9

    def test_printed_coefficient_arrangement_would_fail(self):
        # the swapped arrangement is genuinely false for C < 1: a direct
        # counterexample at the maximizing s, recorded here as the reason
        # for the arrangement used above
        p, C = 1.7, 0.5
        s_star = (p / (2.0 * C ** (p / 2.0))) ** (1.0 / (2.0 - p))
        assert s_star ** p > C ** (p / 2.0) * s_star ** 2 + C ** (p / 2.0 - 1.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5])
    def test_power_range_enforced(self, p):
        with pytest.raises(ValueError):
            young_constant(0.0, p, math.pi ** 2)
