"""Acceptance suite: one check per criterion, each at its stated tolerance.

Run under pytest, or directly (`python tests/test_acceptance.py`) to get the
one-line pass/fail report per criterion.
"""

import math
import time

import numpy as np
import pytest

from sel_lab.bifurcation import (
    LEFProblem,
    gelfand_reduced_source,
    lambda1_ball,
    solve_lef,
    sweep,
    young_constant,
)
from sel_lab.expr import ScalarFn
from sel_lab.karamata import (
    KFunction,
    Nonlinearity,
    analyze_nonlinearity,
    analyze_singular_term,
    keller_osserman,
    make_k,
    ell_limits,
)
from sel_lab.numerics import NO_SOLUTION, series_start, shoot
from sel_lab.profile import VARIANT_K, build_profile
from sel_lab.radial import (
    LogisticProblem,
    RadialPotential,
    SystemProblem,
    boundary_blowup,
    check_slow_variation,
    measure_boundary_rate,
    picard_gradient_entire,
    solve_system,
)

from reference import profile_ode_g, residual

PI2 = math.pi ** 2


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. explicit entire large solution u = |x|^2 + 2N
# ---------------------------------------------------------------------------

def check_1():
    alpha, N = 0.5, 3

    def rhs(r, u, du):
        return u - 2.0 ** (alpha - 2.0) * r ** alpha * abs(du) ** (2.0 - alpha)

    res = residual("t^2+6", rhs, N, np.linspace(0.0, 10.0, 201))
    # one shot from the series start at 1e-6 R to R = 10, read on 513 points
    start, y0 = series_start(rhs, 2.0 * N, N, 1e-6 * 10.0)
    sol = shoot(rhs, N, start, y0, 10.0, 1e-10, 1e-13, dense=True)
    r = np.linspace(start, 10.0, 513)
    exact = r ** 2 + 2.0 * N
    track = float(np.max(np.abs(sol.sol(r)[0] - exact) / exact))
    ok = res <= 1e-10 and track <= 1e-6
    return ok, f"residual={res:.2e} (<=1e-10), ivp rel err={track:.2e} (<=1e-6)"


# ---------------------------------------------------------------------------
# 2. Keller-Osserman classifier battery
# ---------------------------------------------------------------------------

def check_2():
    cases = [("t^2", "convergent"), ("t", "divergent"),
             ("t*ln(1+t)", "divergent"), ("t*ln(1+t)^4", "convergent")]
    got = [keller_osserman(analyze_nonlinearity(src)).status for src, _ in cases]
    correct = sum(g == want for g, (_, want) in zip(got, cases))
    return correct == 4, f"{correct}/4 correct: {dict(zip([c[0] for c in cases], got))}"


# ---------------------------------------------------------------------------
# 3. Karamata identities on the power family
# ---------------------------------------------------------------------------

def check_3():
    worst = {"theta": 0.0, "gamma": 0.0, "rho": 0.0}
    for p in (1.5, 2.0, 3.0, 5.0):
        nl = analyze_nonlinearity(f"t^{p}")
        worst["theta"] = max(worst["theta"], abs(nl.theta - p))
        worst["gamma"] = max(worst["gamma"], abs(nl.gamma - 1.0 / (p + 1.0)))
        worst["rho"] = max(worst["rho"], abs(nl.rho - (p - 1.0)))
    ok = worst["theta"] <= 1e-3 and worst["gamma"] <= 1e-3 and worst["rho"] <= 0.02
    return ok, (f"|theta-p|<={worst['theta']:.1e} (1e-3), "
                f"|gamma-1/(p+1)|<={worst['gamma']:.1e} (1e-3), "
                f"|rho-(p-1)|<={worst['rho']:.1e} (0.02)")


# ---------------------------------------------------------------------------
# 4. ell_1 battery: powers and the three constructors
# ---------------------------------------------------------------------------

def check_4():
    worst_power = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0):
        est = ell_limits(ScalarFn.from_source(f"t^{alpha}"), 1.0)
        worst_power = max(worst_power, abs(est.ell1 - 1.0 / (alpha + 1.0)))
    cons = [
        ("expA", "t", 0.0),            # S = u
        ("invS", "t^2", 1.0 / 3.0),    # S = u^2 -> 1/(m+1)
        ("invLnS", "t^3", 1.0),        # S = u^3
    ]
    worst_cons = 0.0
    for kind, S, want in cons:
        k = make_k(kind, S, 2.0)
        worst_cons = max(worst_cons, abs(k.ell1 - want))
    ok = worst_power <= 1e-3 and worst_cons <= 2e-2
    return ok, (f"power family err<={worst_power:.1e} (1e-3), "
                f"constructors err<={worst_cons:.2e} (2e-2)")


# ---------------------------------------------------------------------------
# 5. headline blow-up rate for u'' = x^2 u^3
# ---------------------------------------------------------------------------

def check_5():
    t0 = time.monotonic()
    f3 = analyze_nonlinearity("t^3")
    prob = LogisticProblem(N=1, f=f3, b=ScalarFn.from_source("t^2"), a_lin=0.0,
                           domain=("annulus", 0.0, 1.0), b_normalization="k2")
    sol = boundary_blowup(prob)
    profile = build_profile(f3, KFunction.power(1.0, nu=1.0), variant=VARIANT_K,
                            c=1.0, t_grid=2.0 ** (-np.arange(1, 13, dtype=float)))
    rate = measure_boundary_rate(sol, profile)
    elapsed = time.monotonic() - t0
    # the profile pieces are closed-form checkable
    h_ok = abs(profile.h_at(0.1) - 2.0 * math.sqrt(2.0) / 0.01) <= 1e-6
    xi_ok = abs(profile.xi0 - math.sqrt(3.0 / 4.0)) <= 1e-12
    pred = profile.xi0 * profile.h_at(0.05) * 0.05 ** 2
    pred_ok = abs(pred - math.sqrt(6.0)) <= 1e-8
    rate_ok = abs(rate.limit - 1.0) <= 0.02
    sqrt6_ok = abs(rate.limit - 1.0) <= 0.01  # u d^2 -> sqrt 6 within 1%
    ok = h_ok and xi_ok and pred_ok and rate_ok and sqrt6_ok and elapsed < 5.0
    return ok, (f"ratio={rate.limit:.5f} (+-2%), u*d^2 within "
                f"{abs(rate.limit - 1.0) * 100.0:.2f}% of sqrt6 (1%), "
                f"runtime={elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 6. system dichotomy and the Gronwall pairing bound
# ---------------------------------------------------------------------------

def check_6():
    f_sqrt = analyze_nonlinearity("t^(1/2)")
    one = RadialPotential(phi=ScalarFn.from_source("1"))
    dec = RadialPotential(phi=ScalarFn.from_source("(1+t^2)^(-2)"))

    large = solve_system(SystemProblem(p=one, q=one, f=f_sqrt, g=f_sqrt,
                                       a=1.0, b=1.0), 50.0, 3, mesh_points=1024)
    lower = 1.0 + 1.0 * large.r ** 2 / 6.0  # a + g(b) r^2/(2N)
    large_ok = (large.classification == "entire-large"
                and bool(np.all(large.u >= lower * (1.0 - 1e-9))))

    bounded = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                         a=1.0, b=1.0), 100.0, 3, mesh_points=1024)
    drift = bounded.metadata.get("plateau_drift", math.inf)
    bounded_ok = bounded.classification == "bounded" and drift < 1e-6

    a = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                   a=1.0, b=1.0), 50.0, 3, mesh_points=1024)
    b = solve_system(SystemProblem(p=dec, q=dec, f=f_sqrt, g=f_sqrt,
                                   a=1.01, b=1.01), 50.0, 3, mesh_points=1024)
    diff = max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.v - b.v))))
    # C_p = C_q = 1/2 (int t(1+t^2)^-2 = 1/2, N-2 = 1); m = 1/2 on [1, sup u];
    # the Gronwall factor (1 + m C_q) e^(m^2 C_p C_q) on central-value gaps
    bound = (1.0 + 0.5 * 0.5) * math.exp(0.5 * 0.5 * 0.5 * 0.5) * 0.01
    lip_ok = diff <= bound

    ok = large_ok and bounded_ok and lip_ok
    return ok, (f"large+lower bound: {large_ok}, bounded plateau drift="
                f"{drift:.2e} (<1e-6), paired diff={diff:.4f}<=bound={bound:.4f}")


# ---------------------------------------------------------------------------
# 7. Picard properties and the slow-variation example
# ---------------------------------------------------------------------------

def check_7():
    f_sqrt = analyze_nonlinearity("t^(1/2)")
    sol = picard_gradient_entire(ScalarFn.from_source("1"), f_sqrt, 1.0, 50.0, 3,
                                 panels=1024)
    monotone_ok = sol.metadata["monotone"]
    growth_ok = sol.metadata["growth_bound_ok"]

    pot = RadialPotential(phi=ScalarFn.from_source("(t^2+1)/((t^2+1)^2+1)"),
                          psi=ScalarFn.from_source("1/(t^2+2)"), lam_N=1.0)
    verdict = check_slow_variation(pot)
    slope_ok = (verdict.is_convergent
                and abs(verdict.slope - (-2.0)) <= 0.1)
    ok = monotone_ok and growth_ok and slope_ok
    return ok, (f"monotone={monotone_ok}, growth bound={growth_ok}, "
                f"slow-variation {verdict.status} slope={verdict.slope:.3f} (-2 +-0.1)")


# ---------------------------------------------------------------------------
# 8. eigenvalues against closed forms and the Bessel series oracle
# ---------------------------------------------------------------------------

def _j0_first_zero():
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


def check_8():
    e_sym = abs(lambda1_ball(1, 1.0).lambda1 - PI2 / 4.0)
    e_int = abs(lambda1_ball(1, 1.0, mode="interval").lambda1 - PI2)
    e_3 = abs(lambda1_ball(3, 1.0).lambda1 - PI2)
    j01 = _j0_first_zero()
    lam2 = lambda1_ball(2, 1.0).lambda1
    e_2 = abs(lam2 - j01 * j01)
    e_2_pinned = abs(lam2 - 5.7831859629)
    scale = [lambda1_ball(3, R).lambda1 * R * R for R in (0.5, 1.0, 2.0)]
    e_scale = max(abs(v - scale[1]) for v in scale)
    ok = (e_sym <= 1e-8 and e_int <= 1e-8 and e_3 <= 1e-8
          and e_2 <= 1e-6 and e_2_pinned <= 1e-6 and e_scale <= 1e-8)
    return ok, (f"errors: sym={e_sym:.1e}, int={e_int:.1e}, N3={e_3:.1e} "
                f"(1e-8); N2={e_2:.1e} (1e-6); scaling={e_scale:.1e} (1e-8)")


# ---------------------------------------------------------------------------
# 9. bifurcation threshold lambda* = lambda_1/m
# ---------------------------------------------------------------------------

def check_9():
    f_lin = analyze_nonlinearity("t")
    g_half = analyze_singular_term("t^(-1/2)")
    template = LEFProblem(N=1, geometry="interval", f=f_lin, g=g_half,
                          a_pot=ScalarFn.from_source("1"))
    grid = [c * PI2 for c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.05)]
    diagram = sweep(template, grid)
    below = all(s == "solved" for s, lam in zip(diagram.status, grid)
                if lam <= 0.95 * PI2 + 1e-9)
    above = all(s == "no-solution" for s, lam in zip(diagram.status, grid)
                if lam >= 1.05 * PI2 - 1e-9)
    centers = [c for c in diagram.center_value if c is not None]
    monotone = all(b > a for a, b in zip(centers, centers[1:]))

    import dataclasses

    sol = solve_lef(dataclasses.replace(template, lam=0.9 * PI2))
    d = np.minimum(sol.r, 1.0 - sol.r)
    mask = (d < 0.2) & (d > 1e-4)
    c1, c2 = sol.metadata["c1"], sol.metadata["c2"]
    d_ok = (0.0 < c1 <= c2 < math.inf
            and bool(np.all(sol.u[mask] >= c1 * d[mask] * (1.0 - 1e-9)))
            and bool(np.all(sol.u[mask] <= c2 * d[mask] * (1.0 + 1e-9))))
    ok = below and above and monotone and d_ok
    return ok, (f"solved<=0.95pi^2: {below}, no-solution>=1.05pi^2: {above}, "
                f"centers increasing: {monotone}, d-bounds c1={c1:.3f}<=c2={c2:.3f}: {d_ok}")


# ---------------------------------------------------------------------------
# 10. Gelfand criterion on a (lambda, mu) grid, plus the Young constant
# ---------------------------------------------------------------------------

def _light_nonlinearity(src: str) -> Nonlinearity:
    f = ScalarFn.from_source(src)
    return Nonlinearity(f=f, fprime=f.derivative_fn(), source=src)


def check_10():
    lam1 = lambda1_ball(1, 1.0, mode="interval").lambda1
    a_lim = 0.0  # lim e^-s = 0
    lams = np.linspace(0.2, 2.0, 10)
    mus = np.linspace(0.5, 9.5, 10)
    tested = agreed = 0
    for lam in lams:
        for mu in mus:
            margin = abs(lam * (a_lim + mu) - lam1)
            if margin <= 0.05 * lam1:
                continue  # near-boundary points may be undetermined
            predicate = lam * (a_lim + mu) < lam1
            phi = _light_nonlinearity(gelfand_reduced_source("exp(-t)", lam, mu))
            reduced = LEFProblem(N=1, geometry="interval", lam=1.0, f=phi,
                                 a_pot=ScalarFn.from_source("0"))
            solved = solve_lef(reduced).classification != NO_SOLUTION
            tested += 1
            agreed += solved == predicate
    young_ok = young_constant(a_lim, 1.5, lam1) == 1.0
    ok = tested >= 80 and agreed == tested and young_ok
    return ok, f"grid agreement {agreed}/{tested}, young C=1: {young_ok}"


# ---------------------------------------------------------------------------
# 11. profile ODE h'' = g(h) invariants
# ---------------------------------------------------------------------------

def check_11():
    prof = profile_ode_g(analyze_singular_term("t^(-1/2)"), 1.0)
    C = (9.0 / 4.0) ** (2.0 / 3.0)
    mask = prof.t >= 1e-4
    exact = C * prof.t[mask] ** (4.0 / 3.0)
    rel = float(np.max(np.abs(prof.h[mask] - exact) / exact))
    has_ok = bool(np.all(prof.t * prof.hp <= 2.0 * prof.h * (1.0 + 1e-12)))
    lh_ok = True
    for p in (0.5, 1.0, 1.5, 2.0):
        c1, c2 = prof.lh_constants(p)
        lh_ok &= bool(np.max(prof.hp ** p - c1 * prof.hpp - c2) <= 0.0)
    ok = rel <= 1e-4 and has_ok and lh_ok
    return ok, (f"rel err vs (9/4)^(2/3) t^(4/3) = {rel:.2e} (1e-4), "
                f"t h'<=2h: {has_ok}, (h')^p<=c1 g(h)+c2: {lh_ok}")


CRITERIA = [
    (1, "explicit-solution residual", check_1),
    (2, "KO classifier battery", check_2),
    (3, "Karamata identities", check_3),
    (4, "ell_1 battery", check_4),
    (5, "blow-up rate headline", check_5),
    (6, "system dichotomy", check_6),
    (7, "Picard properties", check_7),
    (8, "eigenvalues", check_8),
    (9, "bifurcation threshold", check_9),
    (10, "Gelfand criterion", check_10),
    (11, "profile ODE invariants", check_11),
]


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, name, fn):
    ok, detail = fn()
    assert _report(number, name, ok, detail), detail


if __name__ == "__main__":
    failures = 0
    for number, name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, keep running the rest
            ok, detail = False, f"exception: {exc}"
        failures += not _report(number, name, ok, detail)
    raise SystemExit(1 if failures else 0)
