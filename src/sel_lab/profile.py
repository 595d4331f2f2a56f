"""Blow-up boundary profiles.

The profile h is built two ways: by inverting the integral identity

    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t k(s) ds        (k-integrand)
    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t sqrt(k(s)) ds  (sqrt-k-integrand)

and, for singular absorption terms, as the solution of h'' = g(h) with
h(0) = h'(0) = 0.  The two integral variants correspond to the two weight
normalizations b ~ c*k^2(d) and b ~ c*k(d); they coexist and are never
converted into one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .expr import ExprAst, ScalarFn
from .ioutil import write_csv
from .karamata import KFunction, Nonlinearity, _integral_from_zero, tail_map, xi0_power
from .numerics import NumericsError, classify_origin_integral, find_root_monotone, shoot

VARIANT_K = "k-integrand"          # Phi(h) = int_0^t k;      pairs with b ~ c k^2(d)
VARIANT_SQRT_K = "sqrt-k-integrand"  # Phi(h) = int_0^t sqrt(k); pairs with b ~ c k(d)

# profile variant <-> weight normalization tag used by radial solutions
VARIANT_NORMALIZATION = {VARIANT_K: "k2", VARIANT_SQRT_K: "k"}

ODE_POINTS = 400  # geometric points of (0, t_max] profile_ode_g reads h at
ODE_TOL = 1e-11  # rtol of its shot; atol is 1e-2 of it


def _weight(k: KFunction, variant: str) -> ScalarFn:
    """The integrand w of the variant's identity: k, or the expression sqrt(k)."""
    if variant == VARIANT_K:
        return k.k
    if variant == VARIANT_SQRT_K:
        return ScalarFn(ExprAst("sqrt", children=(k.k.body,)))
    raise ValueError(f"unknown profile variant {variant!r}")


@dataclass
class BlowupProfile:
    """Monotone table of the profile h with its rate constants.

    h decreases in t with h(t) -> inf as t -> 0+; interpolation is
    monotone cubic in log-log; queries outside the table raise (no silent
    extrapolation).  xi0 multiplies h in the predicted boundary rate; the
    optional (chi, varpi) pair enables the two-term rate.
    """

    variant: str
    f: Nonlinearity
    k: KFunction
    c: float
    xi0: float | None
    t: np.ndarray
    h: np.ndarray
    chi: float | None = None
    varpi: float | None = None
    roundtrip_err: float = 0.0
    _interp: object = field(default=None, repr=False)
    _w: ScalarFn = field(init=False, repr=False)

    def __post_init__(self):
        self._w = _weight(self.k, self.variant)
        self.t = np.asarray(self.t, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("profile table t must be increasing")
        if np.any(np.diff(self.h) >= 0.0):
            raise ValueError("profile h must be decreasing in t")
        self._interp = PchipInterpolator(np.log(self.t), np.log(self.h))

    @property
    def normalization(self) -> str:
        return VARIANT_NORMALIZATION[self.variant]

    def h_at(self, d: float) -> float:
        if not (self.t[0] <= d <= self.t[-1]):
            raise ValueError(
                f"d={d!r} outside the profile table [{self.t[0]!r}, {self.t[-1]!r}]; "
                "extrapolation refused"
            )
        return float(math.exp(self._interp(math.log(d))))

    def h_prime(self, t: float) -> float:
        """h'(t) = -w(t) sqrt(2 F(h(t))) with w = k or sqrt(k) per variant."""
        return -self._w(t) * math.sqrt(2.0 * self.f.F(self.h_at(t)))

    def h_second(self, t: float) -> float:
        """h'' from differentiating the defining identity (not differences)."""
        wt, h = self._w(t), self.h_at(t)
        return wt * wt * self.f.f(h) - self._w.deriv(t) * math.sqrt(2.0 * self.f.F(h))

    def export_csv(self, path):
        t = self.t.tolist()
        write_csv(path, "t,h,h_prime",
                  (t, [self.h_at(ti) for ti in t], [self.h_prime(ti) for ti in t]),
                  [f"variant={self.variant}"])


def build_profile(f: Nonlinearity, k: KFunction, variant: str = VARIANT_K,
                  t_grid=None, c: float = 1.0, tol: float = 1e-10) -> BlowupProfile:
    """Invert the integral identity for h on a geometric t-grid.

    Requires the Keller-Osserman integral of f to converge (the identity is
    vacuous otherwise): tail_map(f) is the gate.  The targets int_0^t w,
    w = k or sqrt(k), are read on t_grid itself (karamata's
    _integral_from_zero), so w is never evaluated past the largest t; a w
    that is not integrable at 0 raises NonIntegrableError.  h(t) is found
    by root-finding on the lattice panel of the tail map Phi that holds
    its target; a target below Phi at the lattice top, where F overflows,
    is a NumericsError.  The round-trip Phi(h(t)) = int_0^t w is checked
    to 1e-8 relative on the whole table.
    """
    w = _weight(k, variant)
    phi = tail_map(f)
    if t_grid is None:
        t_grid = k.nu * 2.0 ** (-np.arange(1, 33, dtype=float))
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= 0.0 or t_grid[-1] >= k.nu * (1.0 + 1e-12):
        raise ValueError("t_grid must lie inside (0, nu)")

    targets = _integral_from_zero(w, t_grid, min(tol, 1e-11))
    top = phi.top
    hs = np.empty_like(t_grid)
    for idx, (t, target) in enumerate(zip(t_grid.tolist(), targets.tolist())):
        if target <= 0.0:
            raise ValueError(f"int_0^t weight vanished at t={t!r}")
        if target < phi(top):
            raise NumericsError(
                f"h(t) at t={t!r} lies past the tail map's lattice top {top!r}, where F "
                f"overflows: Phi there is {phi(top)!r} > {target!r}")
        hs[idx] = find_root_monotone(phi, target, *phi.bracket(target), tol=tol * abs(target))

    # round-trip check of the defining identity
    rel = max(abs(phi(h) - rhs) / (abs(rhs) + 1e-300)
              for h, rhs in zip(hs.tolist(), targets.tolist()))
    if rel > 1e-8:
        raise ValueError(f"profile round-trip error {rel:.3e} exceeds 1e-8")

    xi0 = None
    if f.rho is not None:
        if math.isfinite(f.rho) and f.rho > 0.0:
            xi0 = xi0_power(f.rho, k.ell1, c)
        elif f.rho == math.inf:
            xi0 = 1.0  # limit of ((2 + ell1 rho)/(c(2+rho)))^(1/rho)
    return BlowupProfile(variant=variant, f=f, k=k, c=c, xi0=xi0,
                         t=t_grid, h=hs, roundtrip_err=rel)


def predicted_rate(profile: BlowupProfile, d: float, order: str = "one") -> float:
    """xi0*h(d), or xi0*h(d)*(1 + chi d^varpi) for the two-term rate."""
    if profile.xi0 is None:
        raise ValueError("profile has no rate constant xi0 (rho unavailable)")
    base = profile.xi0 * profile.h_at(d)
    if order == "one":
        return base
    if order == "two":
        if profile.chi is None or profile.varpi is None:
            raise ValueError("two-term rate requires chi and varpi on the profile")
        return base * (1.0 + profile.chi * d ** profile.varpi)
    raise ValueError("order must be 'one' or 'two'")


# ---------------------------------------------------------------------------
# The sub-solution profile h'' = g(h), h(0) = h'(0) = 0
# ---------------------------------------------------------------------------

@dataclass
class OdeProfile:
    """Grid solution of h'' = g(h) from a singular-origin power start.

    Invariants (checked by callers/tests): h, h' nondecreasing, h'' = g(h)
    nonincreasing, t h'(t) <= 2 h(t), and h(t) <= C t^(2/(1+alpha)) near 0.
    """

    t: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    alpha: float
    c0: float
    power_coef: float  # C of the local start h ~ C t^(2/(1+alpha))

    def lh_constants(self, p: float) -> tuple[float, float]:
        """(c1, c2) with (h')^p <= c1 g(h) + c2: c1 = 2 h(T), c2 = h'(T)^2+1."""
        if not 0.0 < p <= 2.0:
            raise ValueError("the gradient power p must lie in (0, 2]")
        return 2.0 * float(self.h[-1]), float(self.hp[-1]) ** 2 + 1.0

    def export_csv(self, path):
        write_csv(path, "t,h,h_prime", (self.t, self.h, self.hp))


def profile_ode_g(g: Nonlinearity, t_max: float) -> OdeProfile:
    """Integrate h'' = g(h) with h(0) = h'(0) = 0.

    Gate: int_0 g must converge (origin integrability), otherwise the flat
    start h'(0) = 0 is not attainable and this raises.  The start matches
    the local power solution h ~ C t^beta, beta = 2/(1+alpha), obtained
    from g ~ C0 s^-alpha near 0; where analyze_singular_term found no such
    power, g is bounded at 0 and the start is alpha = 0, C0 = g(t0).
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    g_call = g.f.fast()
    verdict = classify_origin_integral(g.f, 1.0)
    if not verdict.is_convergent:
        raise ValueError(
            f"g is not integrable at the origin ({verdict.status}); "
            "h''=g(h) admits no profile with h(0)=h'(0)=0"
        )
    t0 = 1e-6 * t_max
    if g.alpha_sing is not None:
        alpha, c0 = g.alpha_sing, g.sing_c0
    else:  # g is bounded at the origin: h ~ g(0) t^2 / 2
        alpha, c0 = 0.0, g_call(t0)
        if not c0 > 0.0:
            raise ValueError("g must be positive near the origin")
    if alpha >= 1.0:
        raise ValueError(f"origin exponent alpha={alpha:.3f} >= 1 contradicts integrability")

    beta = 2.0 / (1.0 + alpha)
    coef = (c0 / (beta * (beta - 1.0))) ** (1.0 / (1.0 + alpha))

    y0 = (coef * t0 ** beta, coef * beta * t0 ** (beta - 1.0))

    grid = np.geomspace(t0 * 2.0, t_max, ODE_POINTS)
    sol = shoot(lambda t, h, dh: g_call(h), 1, t0, y0, t_max, ODE_TOL, ODE_TOL * 1e-2, dense=True)
    if not sol.success:
        raise ValueError(f"profile ODE integration failed: {sol.message}")
    vals = sol.sol(grid)
    h, hp = vals[0], vals[1]
    hpp = np.array([g_call(float(v)) for v in h])
    return OdeProfile(t=grid, h=h, hp=hp, hpp=hpp, alpha=alpha, c0=c0, power_coef=coef)
