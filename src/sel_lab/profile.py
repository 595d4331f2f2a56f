"""Blow-up boundary profiles.

The profile h is built by inverting the integral identity

    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t k(s) ds        (k-integrand)
    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t sqrt(k(s)) ds  (sqrt-k-integrand)

The two variants correspond to the two weight normalizations b ~ c*k^2(d)
and b ~ c*k(d); they coexist and are never converted into one another.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprAst, ScalarFn
from .ioutil import write_csv
from .karamata import KFunction, Nonlinearity, _integral_from_zero, tail_map, xi0_power
from .numerics import NumericsError, find_root_monotone

VARIANT_K = "k-integrand"          # Phi(h) = int_0^t k;      pairs with b ~ c k^2(d)
VARIANT_SQRT_K = "sqrt-k-integrand"  # Phi(h) = int_0^t sqrt(k); pairs with b ~ c k(d)

# profile variant <-> weight normalization tag used by radial solutions
VARIANT_NORMALIZATION = {VARIANT_K: "k2", VARIANT_SQRT_K: "k"}


class MonotoneCubic:
    """Fritsch-Carlson monotone cubic (PCHIP) through the points (x, y), x
    increasing: the slopes, coefficients and evaluation of scipy's PCHIP
    interpolant, float operation for float, so its values are scipy's
    bytes (Fritsch and Butland, SIAM J. Sci. Comput. 5, 1984; Moler,
    Numerical Computing with MATLAB, 2004, sec. 3.6).

    The interior slopes are the weighted harmonic means of the secants, 0
    where they change sign or vanish; the end slopes are one-sided
    three-point estimates kept shape-preserving; two points give a line.
    A query v is read on the panel [x_i, x_(i+1)) that holds it (the last
    panel closed, outside points on the end panels) as the panel's Hermite
    cubic in s = v - x_i, summed from the constant term up.  Its one
    caller reads scalars, so the evaluation is in Python floats.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.zeros_like(y)
            d[1:-1][~flat] = 1.0 / whmean[~flat]
            d[0] = self._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x.tolist()
        # per panel, the coefficients of 1, s, s^2 and s^3
        self.c = tuple(col.tolist() for col in (y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        """The one-sided three-point slope at an end, 0 where its sign is
        not the end secant's, and 3 m0 where the secants change sign and it
        exceeds 3 |m0|."""
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, v: float) -> float:
        i = min(max(bisect.bisect_right(self.x, v) - 1, 0), len(self.x) - 2)
        s = v - self.x[i]
        res, z = 0.0, 1.0
        for coef in self.c:
            res += coef[i] * z
            z *= s
        return res


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
    extrapolation).  xi0 multiplies h in the predicted boundary rate
    xi0 h(d).  metadata holds the tail map's lattice panels when the table
    was built, interpolated and fallen back (tail_map_panels,
    tail_map_fallback_panels).
    """

    variant: str
    f: Nonlinearity
    k: KFunction
    c: float
    xi0: float | None
    t: np.ndarray
    h: np.ndarray
    roundtrip_err: float = 0.0
    metadata: dict = field(default_factory=dict)
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
        self._interp = MonotoneCubic(np.log(self.t), np.log(self.h))

    @property
    def normalization(self) -> str:
        return VARIANT_NORMALIZATION[self.variant]

    def h_at(self, d: float) -> float:
        if not (self.t[0] <= d <= self.t[-1]):
            raise ValueError(
                f"d={d!r} outside the profile table [{self.t[0]!r}, {self.t[-1]!r}]; "
                "extrapolation refused"
            )
        return math.exp(self._interp(math.log(d)))

    def h_prime(self, t: float) -> float:
        """h'(t) = -w(t) sqrt(2 F(h(t))) with w = k or sqrt(k) per variant."""
        return -self._w(t) * math.sqrt(2.0 * self.f.F(self.h_at(t)))

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
                         t=t_grid, h=hs, roundtrip_err=rel, metadata=phi.panel_counts())
