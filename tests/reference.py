"""References the tests check the library against; not a test module.

Residual audits of explicit and tabulated radial solutions, the
sub-solution profile h'' = g(h), h(0) = h'(0) = 0, of a singular term g,
and the probe grid that audits the shooting map.
Test files import them as `from reference import ...`.
"""

from dataclasses import dataclass

import numpy as np

from sel_lab.bifurcation import S_MAX_PROBE
from sel_lab.expr import ScalarFn
from sel_lab.karamata import Nonlinearity
from sel_lab.numerics import shoot

ODE_POINTS = 400  # geometric points of (0, t_max] profile_ode_g reads h at
ODE_TOL = 1e-11  # rtol of its shot; atol is 1e-2 of it
# The audit grid of the shooting map: 63 probes a factor 10^(10/52) apart,
# from 1.19e-6 to S_MAX_PROBE.  Every fourth from the eleventh,
# AUDIT_PROBES[10::4], is bifurcation.PROBES bit for bit.
AUDIT_PROBES = tuple(float(s) for s in np.concatenate((
    np.geomspace(1e-4 * 10.0 ** (-100 / 52), 1e-4, 11)[:-1],
    np.geomspace(1e-4, S_MAX_PROBE, 53))))


def residual(u_src: str, rhs, N: int, r_grid) -> float:
    """sup over the grid of |u'' + (N-1)/r u' - rhs(r, u, u')| for symbolic u."""
    u_fn = ScalarFn.from_source(u_src)
    du_fn = u_fn.derivative_fn()
    ddu_fn = du_fn.derivative_fn()
    worst = 0.0
    for r in np.asarray(r_grid, dtype=float):
        u, du, ddu = u_fn(r), du_fn(r), ddu_fn(r)
        lap = N * ddu if r == 0.0 else ddu + (N - 1) / r * du  # N u'' is the limit at 0
        worst = max(worst, abs(lap - rhs(float(r), u, du)))
    return worst


def residual_on_table(r, u, du, rhs, N: int) -> float:
    """Residual of a tabulated solution; u'' via Richardson differences of u'."""
    r, u, du = (np.asarray(x, dtype=float) for x in (r, u, du))
    worst = 0.0
    for i in range(2, r.size - 2):
        h1 = r[i + 1] - r[i - 1]
        h2 = r[i + 2] - r[i - 2]
        d_a = (du[i + 1] - du[i - 1]) / h1
        d_b = (du[i + 2] - du[i - 2]) / h2
        ddu = (4.0 * d_a - d_b) / 3.0 if abs(h2 - 2.0 * h1) < 1e-9 * h1 else d_a
        lap = ddu + ((N - 1) / r[i] * du[i] if r[i] > 0.0 else (N - 1) * ddu)
        worst = max(worst, abs(lap - rhs(float(r[i]), float(u[i]), float(du[i]))))
    return worst


@dataclass
class OdeProfile:
    """Grid solution of h'' = g(h) from a singular-origin power start.

    Invariants (checked by the tests): h, h' nondecreasing, h'' = g(h)
    nonincreasing, t h'(t) <= 2 h(t), and h(t) <= C t^(2/(1+alpha)) near 0.
    """

    t: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    alpha: float
    power_coef: float  # C of the local start h ~ C t^(2/(1+alpha))

    def lh_constants(self, p: float) -> tuple[float, float]:
        """(c1, c2) with (h')^p <= c1 g(h) + c2, p in (0, 2]: 2 h(T), h'(T)^2 + 1."""
        return 2.0 * float(self.h[-1]), float(self.hp[-1]) ** 2 + 1.0


def profile_ode_g(g: Nonlinearity, t_max: float) -> OdeProfile:
    """Integrate h'' = g(h) with h(0) = h'(0) = 0 for a g integrable at 0.

    The start matches the local power solution h ~ C t^beta, beta =
    2/(1+alpha), obtained from g ~ C0 s^-alpha near 0; where
    analyze_singular_term found no such power, g is bounded at 0 and the
    start is alpha = 0, C0 = g(t0).
    """
    g_call = g.f.fast()
    t0 = 1e-6 * t_max
    if g.alpha_sing is not None:
        alpha, c0 = g.alpha_sing, g.sing_c0
    else:  # g is bounded at the origin: h ~ g(0) t^2 / 2
        alpha, c0 = 0.0, g_call(t0)

    beta = 2.0 / (1.0 + alpha)
    coef = (c0 / (beta * (beta - 1.0))) ** (1.0 / (1.0 + alpha))

    y0 = (coef * t0 ** beta, coef * beta * t0 ** (beta - 1.0))

    grid = np.geomspace(t0 * 2.0, t_max, ODE_POINTS)
    sol = shoot(lambda t, h, dh: g_call(h), 1, t0, y0, t_max, ODE_TOL, ODE_TOL * 1e-2, dense=True)
    vals = sol.sol(grid)
    h, hp = vals[0], vals[1]
    hpp = np.array([g_call(float(v)) for v in h])
    return OdeProfile(t=grid, h=h, hp=hp, hpp=hpp, alpha=alpha, power_coef=coef)
