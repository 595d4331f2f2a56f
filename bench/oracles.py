"""Analytic oracles, one per workload family.

Each oracle is a closed form (or a scipy.special reference) that is
independent of the sel_lab code under test.  The generators in
workloads.py call these when they make an item, so every item carries the
answer it will be checked against before the program ever sees it.
"""

from __future__ import annotations

import functools
import math

from scipy import optimize, special

BOUNDED = "bounded"
NO_SOLUTION = "no-solution"
ENTIRE_LARGE = "entire-large"
CONVERGENT = "convergent"
DIVERGENT = "divergent"

# Relative margin around a threshold inside which the analytic answer is
# not decisive at finite resolution (acceptance criteria 9 and 10 use 5 %).
THRESHOLD_MARGIN = 0.05
# Tolerances of acceptance criteria 3, 4, 5 and 8.
THETA_TOL = 1e-3
GAMMA_TOL = 1e-3
RHO_TOL = 0.02
ELL1_TOL = 1e-3
RATE_TOL = 0.02
EIGEN_REL_TOL = 1e-8
# Convergent improper integrals: value tolerance relative to 1 + |value|.
INTEGRAL_VALUE_TOL = 1e-6
# Plateau drift below which a bounded Picard/system run is window independent.
PLATEAU_DRIFT_TOL = 1e-6


@functools.lru_cache(maxsize=None)
def bessel_first_zero(nu: float) -> float:
    """First positive zero j_{nu,1} of the Bessel function J_nu.

    Integer orders come from scipy.special.jn_zeros.  Half-integer orders
    (odd dimensions) are bracketed on a 0.05 grid and refined with brentq
    on scipy.special.jv.
    """
    if nu == int(nu) and nu >= 0:
        return float(special.jn_zeros(int(nu), 1)[0])
    x_prev, f_prev = 0.05, float(special.jv(nu, 0.05))
    x = x_prev
    while x < 50.0:
        x = x_prev + 0.05
        f = float(special.jv(nu, x))
        if f_prev * f <= 0.0:
            return float(optimize.brentq(lambda z: special.jv(nu, z), x_prev, x,
                                         xtol=1e-15, rtol=1e-15))
        x_prev, f_prev = x, f
    raise ValueError(f"no zero of J_{nu} below 50")


def lambda1(N: int, R: float = 1.0, mode: str = "ball") -> float:
    """First Dirichlet eigenvalue of the radial Laplacian.

    Ball of radius R in dimension N: j_{N/2-1,1}^2 / R^2.  Interval (0, R)
    (mode 'interval', N = 1): pi^2 / R^2.
    """
    if mode == "interval":
        return (math.pi / R) ** 2
    return (bessel_first_zero(N / 2.0 - 1.0) / R) ** 2


def lambda_star(lam1: float, m: float) -> float:
    """Bifurcation threshold lambda* = lambda_1 / m for asymptotically linear f."""
    return lam1 / m


def lef_verdict(kappa: float) -> str:
    """Singular LEF problem at lambda = kappa * lambda*: solvable iff kappa < 1."""
    return BOUNDED if kappa < 1.0 else NO_SOLUTION


def gelfand_verdict(lam: float, mu: float, a_lim: float, lam1: float) -> str:
    """Gelfand-reduced problem: solvable iff lam (a + mu) < lambda_1."""
    return BOUNDED if lam * (a_lim + mu) < lam1 else NO_SOLUTION


def linear_verdict() -> str:
    """-u'' = lam u on (0, 1) has no positive solution away from lam = pi^2."""
    return NO_SOLUTION


def near_threshold(value: float, threshold: float) -> bool:
    """True inside the relative margin where a verdict is not decisive."""
    return abs(value - threshold) <= THRESHOLD_MARGIN * abs(threshold)


def tail_integral(s: float) -> tuple[str, float | None]:
    """int_1^inf t^-s dt: convergent with value 1/(s-1) iff s > 1."""
    return (CONVERGENT, 1.0 / (s - 1.0)) if s > 1.0 else (DIVERGENT, None)


def origin_integral(s: float) -> tuple[str, float | None]:
    """int_0^1 t^-s dt: convergent with value 1/(1-s) iff s < 1."""
    return (CONVERGENT, 1.0 / (1.0 - s)) if s < 1.0 else (DIVERGENT, None)


def keller_osserman_verdict(p: float, q: float) -> str:
    """int^inf F^(-1/2) for f = t^p ln(1+t)^q, F ~ t^(p+1) ln^q / (p+1).

    The integrand behaves like t^(-(p+1)/2) ln(t)^(-q/2): convergent iff
    p > 1, or p = 1 and q > 2.
    """
    if p > 1.0 or (p == 1.0 and q > 2.0):
        return CONVERGENT
    return DIVERGENT


def entire_condition_verdict(p: float, q: float) -> str:
    """int^inf dt/f for f = t^p ln(1+t)^q: convergent iff p > 1, or p = 1 and q > 1."""
    if p > 1.0 or (p == 1.0 and q > 1.0):
        return CONVERGENT
    return DIVERGENT


def power_growth(p: float) -> dict:
    """Growth constants of f = t^p: theta = p, gamma = 1/(p+1), rho = p - 1."""
    return {"theta": p, "gamma": 1.0 / (p + 1.0), "rho": p - 1.0}


def ell1_power(alpha: float) -> float:
    """ell_1 of the weight k = t^alpha: 1/(alpha+1)."""
    return 1.0 / (alpha + 1.0)


def dichotomy_verdict(decay: float) -> str:
    """Picard and system dichotomy for a potential psi ~ t^-decay.

    int^inf t psi(t) dt converges iff decay > 2; a convergent integral gives
    bounded entire solutions, a divergent one large solutions.
    """
    return BOUNDED if decay > 2.0 else ENTIRE_LARGE


def blowup_rate_constant(p: float, alpha: float) -> float:
    """C with u ~ C d^-beta for u'' = d^(2 alpha) u^p, beta = (2+2 alpha)/(p-1).

    Substituting u = C d^-beta gives C^(p-1) = beta (beta + 1); for the
    headline u'' = x^2 u^3 this is sqrt(6).  The rate limit reported by
    the program is u / (xi0 h(d)), whose oracle value is 1.
    """
    beta = (2.0 + 2.0 * alpha) / (p - 1.0)
    return (beta * (beta + 1.0)) ** (1.0 / (p - 1.0))


def rate_ok(rate_limit: float) -> bool:
    """Acceptance criterion 5: the measured rate limit is 1 within 2 %."""
    return abs(rate_limit - 1.0) <= RATE_TOL
