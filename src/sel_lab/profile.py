"""Blow-up boundary profiles.

The profile h is built by inverting the integral identity

    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t k(s) ds        (k-integrand)
    int_{h(t)}^inf ds/sqrt(2 F(s)) = int_0^t sqrt(k(s)) ds  (sqrt-k-integrand)

The two variants correspond to the two weight normalizations b ~ c*k^2(d)
and b ~ c*k(d); they coexist and are never converted into one another.
The table and every read of h between its points invert the identity the
same way (_invert); h is never interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprAst, ScalarFn
from .ioutil import write_csv
from .karamata import KFunction, Nonlinearity, TailMap, _integral_from_zero, tail_map, xi0_power
from .numerics import NumericsError, find_root_monotone, integrate_panel

VARIANT_K = "k-integrand"          # Phi(h) = int_0^t k;      pairs with b ~ c k^2(d)
VARIANT_SQRT_K = "sqrt-k-integrand"  # Phi(h) = int_0^t sqrt(k); pairs with b ~ c k(d)

# profile variant <-> weight normalization tag used by radial solutions
VARIANT_NORMALIZATION = {VARIANT_K: "k2", VARIANT_SQRT_K: "k"}


def _weight(k: KFunction, variant: str) -> ScalarFn:
    """The integrand w of the variant's identity: k, or the expression sqrt(k)."""
    if variant == VARIANT_K:
        return k.k
    if variant == VARIANT_SQRT_K:
        return ScalarFn(ExprAst("sqrt", children=(k.k.body,)))
    raise ValueError(f"unknown profile variant {variant!r}")


def _invert(phi: TailMap, target: float, t: float, tol: float) -> tuple[float, float]:
    """(h, rel): h(t) = Phi^-1(target) for the target int_0^t w, found by
    root-finding to tol*target on the lattice panel of the tail map Phi
    that holds the target, and rel = |Phi(h) - target|/target, the
    round-trip error of the identity, refused past 1e-8 (ValueError).  A
    target <= 0 is a ValueError; one below Phi at the lattice top, where F
    overflows, a NumericsError."""
    if target <= 0.0:
        raise ValueError(f"int_0^t weight vanished at t={t!r}")
    top = phi.top
    if target < phi(top):
        raise NumericsError(
            f"h(t) at t={t!r} lies past the tail map's lattice top {top!r}, where F "
            f"overflows: Phi there is {phi(top)!r} > {target!r}")
    h = find_root_monotone(phi, target, *phi.bracket(target), tol=tol * target)
    rel = abs(phi(h) - target) / (target + 1e-300)
    if rel > 1e-8:
        raise ValueError(f"profile round-trip error {rel:.3e} exceeds 1e-8")
    return h, rel


@dataclass
class BlowupProfile:
    """Table of the profile h with its rate constants.

    h decreases in t with h(t) -> inf as t -> 0+.  targets holds int_0^t w
    on the table, the right-hand side of the identity Phi(h(t)) = int_0^t w
    that each h inverts to tol*target.  h_at reads h anywhere in the
    table's range by that same inversion; queries outside it raise (no
    silent extrapolation).  xi0 multiplies h in the predicted boundary rate
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
    targets: np.ndarray
    tol: float
    roundtrip_err: float = 0.0
    metadata: dict = field(default_factory=dict)
    _w: ScalarFn = field(init=False, repr=False)

    def __post_init__(self):
        self._w = _weight(self.k, self.variant)
        self.t = np.asarray(self.t, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("profile table t must be increasing")
        if np.any(np.diff(self.h) >= 0.0):
            raise ValueError("profile h must be decreasing in t")

    @property
    def normalization(self) -> str:
        return VARIANT_NORMALIZATION[self.variant]

    def h_at(self, d: float) -> float:
        """h(d): the table's own h at a table point; between t_j < d <
        t_(j+1), Phi^-1 of int_0^d w, read as the target at t_j plus one
        Gauss-Kronrod panel of w over (t_j, d), with the table's root
        tolerance and round-trip audit."""
        if not (self.t[0] <= d <= self.t[-1]):
            raise ValueError(
                f"d={d!r} outside the profile table [{self.t[0]!r}, {self.t[-1]!r}]; "
                "extrapolation refused"
            )
        j = int(np.searchsorted(self.t, d))
        if self.t[j] == d:
            return float(self.h[j])
        lo = float(self.t[j - 1])
        target = float(self.targets[j - 1]) + integrate_panel(
            self._w.fast(), lo, d, min(self.tol, 1e-11))[0]
        return _invert(tail_map(self.f), target, d, self.tol)[0]

    def h_prime(self, t: float) -> float:
        """h'(t) = -w(t) sqrt(2 F(h(t))) with w = k or sqrt(k) per variant."""
        return self._slope(t, self.h_at(t))

    def _slope(self, t: float, h: float) -> float:
        return -self._w(t) * math.sqrt(2.0 * self.f.F(h))

    def export_csv(self, path):
        t, h = self.t.tolist(), self.h.tolist()
        write_csv(path, "t,h,h_prime", (t, h, list(map(self._slope, t, h))),
                  [f"variant={self.variant}"])


def build_profile(f: Nonlinearity, k: KFunction, variant: str = VARIANT_K,
                  t_grid=None, c: float = 1.0, tol: float = 1e-10) -> BlowupProfile:
    """Invert the integral identity for h on a geometric t-grid.

    Requires the Keller-Osserman integral of f to converge (the identity is
    vacuous otherwise): tail_map(f) is the gate.  The targets int_0^t w,
    w = k or sqrt(k), are read on t_grid itself (karamata's
    _integral_from_zero), so w is never evaluated past the largest t; a w
    that is not integrable at 0 raises NonIntegrableError.  Each h(t) is
    _invert of its target, the inversion BlowupProfile.h_at reads between
    the table points: root-finding on the lattice panel of the tail map
    Phi that holds the target, a NumericsError for a target below Phi at
    the lattice top, where F overflows, and the round-trip
    Phi(h(t)) = int_0^t w checked to 1e-8 relative; roundtrip_err is the
    table's largest.
    """
    w = _weight(k, variant)
    phi = tail_map(f)
    if t_grid is None:
        t_grid = k.nu * 2.0 ** (-np.arange(1, 33, dtype=float))
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= 0.0 or t_grid[-1] >= k.nu * (1.0 + 1e-12):
        raise ValueError("t_grid must lie inside (0, nu)")

    targets = _integral_from_zero(w, t_grid, min(tol, 1e-11))
    hs, rels = zip(*(_invert(phi, target, t, tol)
                     for t, target in zip(t_grid.tolist(), targets.tolist())))

    xi0 = None
    if f.rho is not None:
        if math.isfinite(f.rho) and f.rho > 0.0:
            xi0 = xi0_power(f.rho, k.ell1, c)
        elif f.rho == math.inf:
            xi0 = 1.0  # limit of ((2 + ell1 rho)/(c(2+rho)))^(1/rho)
    return BlowupProfile(variant=variant, f=f, k=k, c=c, xi0=xi0, t=t_grid, h=hs,
                         targets=targets, tol=tol, roundtrip_err=max(rels),
                         metadata=phi.panel_counts())
