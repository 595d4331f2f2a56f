"""Regular-variation analysis and closed-form blow-up rate constants.

Computes the growth metadata of a nonlinearity f (m, Lambda, theta, gamma,
rho and their consistency identities), classifies the existence integrals
(Keller-Osserman and the 1/f condition for entire solutions), measures the
ell_0/ell_1 limits of boundary weights k, builds the three k-constructors,
and evaluates the rate constants xi_0 and the two-term coefficient chi.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .expr import ExprAst, ScalarFn, parse_expression, substitute
from .numerics import (
    EXACT_MISFIT,
    SLOPE_BAND,
    ConvergenceVerdict,
    Integrand,
    NonIntegrableError,
    NumericsError,
    SampleError,
    _TINY,
    _bertrand_fit,
    _gk15_nodes,
    _gk15_ok,
    _gk15_partials,
    _gk15_sums,
    _gk15_tail_coefficients,
    _inverse_log_fit,
    _legendre_sum,
    _resolution,
    _sample_points,
    _tail_samples,
    bertrand_remainder,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    integrate_panel,
    integrate_panels,
    refuse_samples,
)

INF = math.inf

# f is checked on [1e-6, U_MAX], and gamma is fitted on f's samples up to
# U_MAX; every other growth index comes from f's samples from t = 1.
U_MAX = 1e8
# the 121 geometric points of [1e-6, U_MAX] where f is checked
_CHECK_GRID = np.geomspace(1e-6, U_MAX, 121).tolist()
IDENTITY_TOL = 1e-3  # of the remark identities, before the fits' resolutions


class NotRegularlyVarying(ValueError):
    """rv_index's fit of ln fn missed by more than RV_MISFIT."""

    def __init__(self, index: float, misfit: float):
        super().__init__(f"not regularly varying (index~{index:.4f}, misfit {misfit:.4f})")
        self.index = index
        self.misfit = misfit


# ---------------------------------------------------------------------------
# Cached antiderivative F(t) = int_0^t f
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _peak(fn, a: float, b: float) -> float:
    """Where |fn| peaks on (a, b), by golden section down to rounding; a
    point where fn raises counts as a pole."""
    def size(t):
        try:
            return abs(fn(t))
        except (ArithmeticError, ValueError):
            return INF

    lo, hi = a, b
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = size(x1), size(x2)
    for _ in range(80):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = size(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = size(x2)
    return x1 if f1 >= f2 else x2


class Antiderivative:
    """F(t) = int_0^t f with F(0) = 0, cached on the lattice t_k = 2^(k/4).

    f is an expression (ScalarFn).  Lattice values fill lazily over a
    contiguous range of k, in blocks of at most _BLOCK panels, each one
    integrate_panels call, a single array evaluation of f; the values live
    in one array indexed by k + _KTOP.  Every value is a function of its
    index alone, whatever the order of the queries.  A fresh lattice
    starts at k = 0 (t = 1) with one quadrature from 0 (integrate_finite)
    and grows upward to a query from its top, stopping after the block
    where F overflows: f is evaluated on at most one block past the
    overflow, and never past the query.  Below t = 1 it grows down to a
    query one block of _BLOCK panels at a time, each aligned on a multiple
    of _BLOCK and started by its own quadrature from 0; summing panels
    down from F(1) instead would cancel away F's digits near 0.  A panel
    that fails its error test and every panel of a block whose array
    evaluation raises go through integrate_panel (which falls back to
    integrate_finite), one panel at a time and in order, up to the
    overflow.  Each panel's value is that of its own rule whatever block
    it falls in, and every running sum adds the panels one by one upward.
    The remainder from the nearest lattice point below a query is one
    integrate_panel call; a query below the lattice, t < t_-4095, is one
    quadrature from 0.  Once f or the running integral overflows, or
    the quadrature of a panel fails (not integrable, or short of its
    tolerance), every larger argument reports inf.  A domain error of f
    (EvalDomainError) propagates: F is no number there.
    """

    # t_4096 = 2^1024 overflows
    _KTOP = 4095
    # panels per array call of f, here and in TailMap, and so the most
    # panels of f work wasted past the overflow: calls of 256-512 panels
    # cost least per panel (about 0.5 us, against 0.9 us at 2,048)
    _BLOCK = 256
    _TOL = 1e-12

    def __init__(self, fn: ScalarFn):
        self._fn = fn.fast()
        self._expr = fn
        # F(t_k) at k + _KTOP, filled over [kmin, kmax]
        self._values = np.empty(2 * self._KTOP + 1)
        self._kmin: int | None = None
        self._kmax: int | None = None
        self._kinf: int | None = None

    @staticmethod
    def _t_of(k: int) -> float:
        return 2.0 ** (k / 4.0)

    @classmethod
    def _points(cls, lo: int, hi: int) -> np.ndarray:
        """The lattice points t_lo..t_hi as an array, each _t_of's float."""
        return _LATTICE[lo + cls._KTOP:hi + cls._KTOP + 1]

    def _quad(self, rule, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        try:
            v, _ = rule(self._fn, a, b, self._TOL)
        except NonIntegrableError:
            return INF
        except NumericsError:
            v = self._split_at_peak(a, b)
        except ArithmeticError:
            return INF
        return v if math.isfinite(v) else INF

    def _split_at_peak(self, a: float, b: float) -> float:
        """A panel that failed both rules, integrated once more as two halves
        split where |f| peaks, each graded towards that point by
        integrate_finite: an integrable interior singularity becomes two
        endpoint ones.  A peak at an end (overflow, an endpoint pole) has
        no interior point to split at and stays a failure."""
        c = _peak(self._fn, a, b)
        margin = (b - a) * 2.0 ** -20
        if not a + margin < c < b - margin:
            return INF
        left = self._graded(a, c)
        return left + self._graded(c, b) if math.isfinite(left) else INF

    def _graded(self, a: float, b: float) -> float:
        """integrate_finite up to a pole at an end.  t is rounded next to the
        pole, so f carries noise of about ulp(t)^(1-p) there for a pole of
        order p; the tolerance is loosened 100-fold per failure, up to 1e-6."""
        tol = self._TOL
        while tol <= 1e-6:
            try:
                return integrate_finite(self._fn, a, b, tol)[0]
            except NonIntegrableError:
                return INF
            except (NumericsError, ArithmeticError):
                tol *= 100.0
        return INF

    def _block(self, j0: int, top: int):
        """(values, ok) lists of the panels j0+1..top by one integrate_panels
        call; empty where the array evaluation raised."""
        try:
            values, ok = integrate_panels(self._expr.vector(), self._points(j0, top - 1),
                                          self._points(j0 + 1, top), self._TOL)
        except (ValueError, ArithmeticError):
            return [], []
        return values.tolist(), ok.tolist()

    def _accumulate(self, j0: int, val: float, k: int) -> None:
        """Store val at j0 and add the panels up to k in order, by one _block call
        and by integrate_panel for those it rejects.  The first value that is not
        finite sets kinf; from it on every value is inf and no panel is integrated."""
        values, ok = self._block(j0, k) if k > j0 else ([], [])
        out = []
        for j in range(j0, k + 1):
            if j > j0 and math.isfinite(val):
                i = j - j0 - 1
                if ok and ok[i]:
                    val += values[i]
                else:
                    val += self._quad(integrate_panel, self._t_of(j - 1), self._t_of(j))
            if not math.isfinite(val):
                val = INF
                if self._kinf is None or j < self._kinf:
                    self._kinf = j
            out.append(val)
        self._values[j0 + self._KTOP:k + self._KTOP + 1] = out

    def _fill(self, k: int) -> float:
        # invariant: the lattice is contiguous on [kmin, kmax]
        if self._kmin is None:
            self._kmin = self._kmax = 0
            self._accumulate(0, self._quad(integrate_finite, 0.0, 1.0), 0)
        while self._kmin > k:
            lo = max((self._kmin - 1) // self._BLOCK * self._BLOCK, -self._KTOP)
            self._accumulate(lo, self._quad(integrate_finite, 0.0, self._t_of(lo)), self._kmin - 1)
            self._kmin = lo
        while self._kmax < k and self._kinf is None:
            top = min(k, self._kmax + self._BLOCK)
            self._accumulate(self._kmax, self._values[self._kmax + self._KTOP].item(), top)
            self._kmax = top
        if self._kinf is not None and k >= self._kinf:
            return INF
        return self._values[k + self._KTOP].item()

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("antiderivative evaluated at t < 0")
        if t == 0.0:
            return 0.0
        k = min(math.floor(4.0 * math.log2(t)), self._KTOP)
        if k < -self._KTOP:
            return self._quad(integrate_finite, 0.0, t)
        base = self._fill(k)
        if not math.isfinite(base):
            return INF
        return base + self._quad(integrate_panel, self._t_of(k), t)

    def overflow_index(self) -> int | None:
        """The first lattice index where F is inf, found by filling the
        lattice up to it; None when F stays finite up to _KTOP."""
        self._fill(self._KTOP)
        return self._kinf

    def many(self, ts) -> np.ndarray:
        """F at every point of the array ts, an array of ts's shape.

        The lattice is filled once to the smallest and the largest index of
        ts, its points and values are read by index, and every remainder
        is one integrate_panels call.  A remainder that fails the array
        rule, every one when the array evaluation raises, and every point
        of an array holding a point that is not finite or lies below the
        lattice go through F(t).  A remainder by the array rule is
        integrate_panel's value wherever f's array evaluator agrees with
        its scalar one.
        """
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        with np.errstate(all="ignore"):
            ks = np.floor(4.0 * np.log2(flat))
        if not np.all((ks >= -self._KTOP) & (flat < INF)):
            return np.array([self(t) for t in flat.tolist()], dtype=float).reshape(ts.shape)
        ks = np.minimum(ks.astype(np.int64), self._KTOP)
        self._fill(int(ks.min()))
        self._fill(int(ks.max()))
        at = np.minimum(ks, self._kmax) + self._KTOP
        points = _LATTICE[at]
        out = np.where(ks <= self._kmax, self._values[at], INF)
        lanes = np.flatnonzero(np.isfinite(out) & (flat > points))
        if lanes.size:
            try:
                rem, ok = integrate_panels(self._expr.vector(), points[lanes], flat[lanes],
                                           self._TOL)
                out[lanes[ok]] += rem[ok]
            except (ValueError, ArithmeticError):
                ok = np.zeros(lanes.size, dtype=bool)
            for i in lanes[~ok].tolist():
                out[i] = self(float(flat[i]))
        return out.reshape(ts.shape)


# Every lattice point t_k = 2^(k/4), |k| <= _KTOP, by Python's pow as _t_of
# takes it: numpy's power differs in the last bit at some of them.
_LATTICE = np.array([Antiderivative._t_of(k)
                     for k in range(-Antiderivative._KTOP, Antiderivative._KTOP + 1)])


class TailMap:
    """Phi(y) = int_y^inf G, G = (2F)^(-1/2), the Keller-Osserman tail map,
    cached on F's lattice t_k = 2^(k/4).

    The lattice top is K (top = t_K), the last index where 2F is finite,
    found by F's own fill-ahead.  Phi(t_K) is the remainder past t_K of the
    convergent Keller-Osserman verdict's fit (numerics.bertrand_remainder
    with G(t_K)): that fit is of F^(-1/2), whose A, B and misfit are G's.
    Below the top, Phi(t_k) = Phi(t_{k+1}) + int_{t_k}^{t_{k+1}} G, a
    running sum from the top down, filled in blocks of F's _BLOCK panels
    aligned on K, so how the queries split it into blocks does not move a
    value: every Phi(t_k), as every F(t_k), is a function of k alone.

    A block is one array call of f at the Kronrod nodes of its panels, each
    of which is one panel of F's lattice.  A panel's 15 samples of f fix
    the degree-14 interpolant of f there, and F at the same nodes is F(t_k)
    plus the interpolant's partial integrals (numerics._gk15_partials);
    G at the nodes follows, and the panel of Phi is the Kronrod sum of
    those values of G.  A panel takes this path (is interpolated) when f's
    rule and G's rule both pass integrate_panel's test and F is finite and
    positive at its nodes.  Every other panel, and every panel of a block
    whose array call raises, falls back to the nested rule: one
    integrate_panels call on G read through F.many at its nodes, then
    integrate_panel on a scalar G for a panel that fails it, which is where
    a refusal such as F(s) <= 0 comes from.  G's node values are kept, one
    array per block.

    A query y inside an interpolated panel reads Phi(t_{k+1}) plus the
    integral of G's interpolant over (y, t_{k+1}): a Legendre sum whose
    coefficients are built on the panel's first query and cached.  Inside a
    panel that fell back it reads Phi(t_{k+1}) plus one integrate_panel on
    the scalar G over (y, t_{k+1}); a query at a lattice point reads the
    lattice alone.  Every panel runs at F's tolerance.  Past the top,
    Phi(y) is the fit's remainder at y with G(y), 0 where F overflows.
    panels and fallback_panels count the lattice panels of either kind.
    """

    def __init__(self, F: Antiderivative, ko: ConvergenceVerdict):
        self._F = F
        self._fit = ko.diagnostics
        k = F.overflow_index()
        k = F._KTOP if k is None else k - 1
        while not math.isfinite(2.0 * F._fill(k)):  # 2F overflows
            k -= 1
        self._top, self.top = k, Antiderivative._t_of(k)
        # Phi(t_k) at k = top - i, increasing in i
        self._lat = [bertrand_remainder(self._fit, self.top, (2.0 * F._fill(k)) ** -0.5)]
        # per block, from the top down: (lo, G at the nodes, interpolated mask)
        self._blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
        # k -> the Legendre coefficients of the panel's tail, None if it fell back
        self._tails: dict[int, list | None] = {}
        self.panels = self.fallback_panels = 0

    def _g(self, s: float) -> float:
        Fs = self._F(s)
        if not math.isfinite(Fs):
            return 0.0
        if Fs <= 0.0:
            raise ValueError(f"F({s!r}) <= 0: f is not positive below {s!r}")
        return (2.0 * Fs) ** -0.5

    def _panel(self, a: float, b: float) -> float:
        return integrate_panel(self._g, a, b, Antiderivative._TOL)[0]

    def _g_many(self, s: np.ndarray) -> np.ndarray:
        Fs = self._F.many(s)
        with np.errstate(all="ignore"):
            return np.where(np.isfinite(Fs), (2.0 * Fs) ** -0.5, 0.0)

    def _interpolated(self, lo: int, hi: int, ends: np.ndarray):
        """(values, G, ok) of the panels t_lo..t_hi from one array call of f:
        the Kronrod sums of G, G at the nodes, and where a panel may take
        them; ok is all False (and G None) when the array call raises."""
        F, n = self._F, hi - lo
        nodes, half = _gk15_nodes(ends[:-1], ends[1:])
        try:
            with np.errstate(all="ignore"):
                fv = F._expr.vector()(nodes)
        except (ValueError, ArithmeticError):
            return np.zeros(n), None, np.zeros(n, dtype=bool)
        F._fill(lo)
        F._fill(hi - 1)
        base = F._values[lo + F._KTOP:hi + F._KTOP]
        both = np.empty((2 * n, 15))  # f's rows, then G's: one rule for both
        both[:n] = fv
        with np.errstate(all="ignore"):
            Fn = base[:, None] + half[:, None] * _gk15_partials(fv)
            np.power(2.0 * Fn, -0.5, out=both[n:])
        values, errs, _ = _gk15_sums(both, np.concatenate((half, half)))
        ok = _gk15_ok(values, errs, Antiderivative._TOL)
        ok = ok[:n] & ok[n:] & np.all((Fn > 0.0) & (Fn < INF), axis=1)
        return values[n:], both[n:].copy(), ok

    def _extend(self) -> None:
        """One more block at the bottom of the lattice."""
        hi = self._top - len(self._lat) + 1
        lo = max(hi - Antiderivative._BLOCK, -Antiderivative._KTOP)
        if lo == hi:
            raise NumericsError(f"the tail map's lattice ends at t={Antiderivative._t_of(hi)!r}")
        ends = Antiderivative._points(lo, hi)
        panels, G, ok = self._interpolated(lo, hi, ends)
        self._blocks.append((lo, G, ok))
        accepted, rest = ok.copy(), np.flatnonzero(~ok)
        if rest.size:  # the nested rule, then integrate_panel where it fails
            panels[rest], accepted[rest] = integrate_panels(
                self._g_many, ends[rest], ends[rest + 1], Antiderivative._TOL)
        self.panels += int(np.count_nonzero(ok))
        self.fallback_panels += int(rest.size)
        ends, panels, accepted = ends.tolist(), panels.tolist(), accepted.tolist()
        value = self._lat[-1]
        for i in range(hi - lo - 1, -1, -1):
            value += panels[i] if accepted[i] else self._panel(ends[i], ends[i + 1])
            self._lat.append(value)

    def _tail(self, k: int, y: float, hi: float) -> float:
        """int_y^{t_{k+1}} G over the lattice panel k."""
        if k not in self._tails:
            lo, G, ok = self._blocks[(self._top - k - 1) // Antiderivative._BLOCK]
            self._tails[k] = _gk15_tail_coefficients(G[k - lo].tolist()) if ok[k - lo] else None
        coef = self._tails[k]
        if coef is None:
            return self._panel(y, hi)
        a = Antiderivative._t_of(k)
        centre, half = 0.5 * (a + hi), 0.5 * (hi - a)
        return half * _legendre_sum(coef, (y - centre) / half)

    def __call__(self, y: float) -> float:
        if not y > 0.0:
            raise ValueError("tail map defined for y > 0")
        if y >= self.top:
            return bertrand_remainder(self._fit, y, self._g(y)) if y > self.top else self._lat[0]
        k = math.floor(4.0 * math.log2(y))
        i = self._top - k
        while len(self._lat) <= i:
            self._extend()
        hi = Antiderivative._t_of(k + 1)
        if y >= hi:  # y rounds onto t_{k+1}
            return self._lat[i - 1]
        if y == Antiderivative._t_of(k):
            return self._lat[i]
        return self._lat[i - 1] + self._tail(k, y, hi)

    def panel_counts(self) -> dict:
        """The lattice panels so far, as the metadata of a solution reads them."""
        return {"tail_map_panels": self.panels, "tail_map_fallback_panels": self.fallback_panels}

    def bracket(self, target: float) -> tuple[float, float]:
        """(t_k, t_{k+1}) with Phi(t_k) >= target >= Phi(t_{k+1}), for a
        target at least Phi at the top; the lattice grows down to it."""
        while self._lat[-1] < target:
            self._extend()
        k = self._top - max(bisect.bisect_left(self._lat, target), 1)
        return Antiderivative._t_of(k), Antiderivative._t_of(k + 1)


def tail_map(nl: Nonlinearity) -> TailMap:
    """The Keller-Osserman tail map Phi(y) = int_y^inf ds/sqrt(2F(s)) of nl,
    one TailMap per Nonlinearity, built on its cached F and anchored on its
    Keller-Osserman verdict; a verdict that is not convergent is a
    ValueError, the one gate of every large-solution computation."""
    if nl._Phi is None:
        ko = keller_osserman(nl)
        if not ko.is_convergent:
            raise ValueError(
                f"Keller-Osserman integral is {ko.status}: large solutions and blow-up "
                "profiles exist only under the Keller-Osserman condition")
        nl._Phi = TailMap(nl.F, ko)
    return nl._Phi


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class _Measured:
    """A growth index of a Nonlinearity that its stage measures on the
    first read (Nonlinearity._settle).  An assignment settles the stage
    first, so the assigned value stays; with nothing pending the index is
    a plain attribute.  Read on the class, it is the default."""

    def __init__(self, stage: str, default=None):
        self.stage, self.default = stage, default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.default
        if self.stage in obj._pending:
            obj._settle(self.stage)
        return obj.__dict__.get(self.name, self.default)

    def __set__(self, obj, value):
        if self.stage in obj._pending:
            obj._settle(self.stage)
        obj.__dict__[self.name] = value


@dataclass
class Nonlinearity:
    """An absorption/singular term with its growth metadata.

    m = lim f(s)/s at infinity, Lambda = sup_{s>=1} f(s)/s and value_at_inf
    = lim f come from one fit of ln f (its diagnostics kept as _fit);
    theta = lim u f'(u)/f(u) and gamma = lim (F/f)'(u) from fits in 1/ln u
    on the same samples of f (their resolutions kept in _res), rho =
    theta - 1 (the RV index of f').
    Fields are math.inf when infinite and None when undecided (see notes).
    alpha_sing/sing_c0 (analyze_singular_term) describe an origin
    singularity f(s) <= C0 s^-alpha near 0.

    analyze_nonlinearity and analyze_singular_term leave the indices
    pending, and each is measured on its first read by its stage: "fit"
    measures m, Lambda, value_at_inf and _fit; "theta" measures theta,
    gamma, rho and _res, also on a call of check_remark_identities, and
    runs "fit" first.  A stage runs once, appends its notes to notes, and
    caches its indices on the instance, as F, the tail map and the KO
    verdict are cached; so notes hold the notes of the stages measured so
    far, in the order of an analysis that measured them all at once.  An
    assignment to an index settles its stage first, so the assigned value
    stays.  A Nonlinearity built directly has nothing pending.
    """

    f: ScalarFn
    fprime: ScalarFn
    m: float | None = _Measured("fit")
    Lambda: float | None = _Measured("fit")
    theta: float | None = _Measured("theta")
    gamma: float | None = _Measured("theta")
    rho: float | None = _Measured("theta")
    value_at_inf: float | None = _Measured("fit")
    alpha_sing: float | None = None
    sing_c0: float | None = None
    source: str = ""
    notes: list = field(default_factory=list)
    _F: Antiderivative | None = field(default=None, repr=False, compare=False)
    _Phi: TailMap | None = field(default=None, repr=False, compare=False)
    _ko: ConvergenceVerdict | None = field(default=None, repr=False, compare=False)
    # not fields: the fit's diagnostics, the resolutions of theta and gamma,
    # the samples of f the two stages share, and the stages still to run
    _fit = _Measured("fit")
    _res = _Measured("theta", MappingProxyType({}))
    _samples: ClassVar[tuple | None] = None
    _pending: ClassVar[dict] = {}

    @property
    def F(self) -> Antiderivative:
        if self._F is None:
            self._F = Antiderivative(self.f)
        return self._F

    def _settle(self, stage: str) -> None:
        """Run stage if it is pending; it runs once."""
        if stage in self._pending:
            self._pending.pop(stage)(self)

    def check_remark_identities(self) -> bool | None:
        """gamma (rho + 2) = gamma (theta + 1) = 1 within IDENTITY_TOL plus
        what the resolutions of theta and gamma allow, relative, so an error
        in theta is not shrunk by gamma^2; and theta is the A of the fit of
        ln f within the resolutions of both fits.  gamma = 0 and rho = inf when
        theta = inf.  None when theta, rho or gamma is unknown."""
        if self.theta is None or self.rho is None or self.gamma is None:
            return None
        if self.theta == INF:
            return self.rho == INF and self.gamma == 0.0
        res_theta, res_gamma = self._res.get("theta", 0.0), self._res.get("gamma", 0.0)
        tol = IDENTITY_TOL + (self.gamma * res_theta + (self.theta + 1.0) * res_gamma)
        ok1 = abs(self.gamma * (self.rho + 2.0) - 1.0) <= tol
        ok2 = abs(self.gamma * (self.theta + 1.0) - 1.0) <= tol
        ok3 = (self._fit is None
               or abs(self.theta - self._fit["a"]) <= _resolution(self._fit) + res_theta)
        return ok1 and ok2 and ok3


@dataclass
class KFunction:
    """A boundary weight k on (0, nu) with its ell_0/ell_1 limits.

    ell_0 = 0 for every admitted k; ell_1 lies in [0, 1].
    """

    k: ScalarFn
    nu: float
    ell0: float
    ell1: float
    ell0_err: float = 0.0
    ell1_err: float = 0.0
    predicted_ell1: float | None = None

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("k lives on (0, nu) with nu > 0")
        if abs(self.ell0) > 0.02 + 10.0 * self.ell0_err:
            raise ValueError(f"ell0 must vanish for an admitted k (got {self.ell0!r})")
        if not -0.05 <= self.ell1 <= 1.05:
            raise ValueError(f"ell1 out of [0, 1]: {self.ell1!r}")

    @classmethod
    def power(cls, alpha: float, nu: float = 1.0) -> "KFunction":
        if alpha <= 0.0:
            raise ValueError("power weight needs alpha > 0")
        body = ExprAst("pow", children=(parse_expression("t"), ExprAst("const", alpha)))
        return cls(k=ScalarFn(body), nu=nu, ell0=0.0, ell1=1.0 / (alpha + 1.0),
                   predicted_ell1=1.0 / (alpha + 1.0))


TWO_TERM_CASES = ("purePower", "etaNonzero", "etaZeroTau")


@dataclass
class TwoTermSpec:
    """Inputs of the two-term expansion u ~ xi0 h(d) (1 + chi d^varpi).

    case selects the growth regime of f: 'purePower' and 'etaNonzero'
    share the chi_1 formula; 'etaZeroTau' adds the logarithmic correction
    and requires a finite ell_sup.
    """

    rho: float
    zeta: float
    theta: float
    ell_star: float
    c_tilde: float = 0.0
    ell_sup: float | None = None
    case: str = "purePower"

    def __post_init__(self):
        if self.case not in TWO_TERM_CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.rho <= 0.0 or self.zeta <= 0.0 or self.theta <= 0.0:
            raise ValueError("rho, zeta, theta must be positive")
        if self.case == "etaZeroTau" and self.ell_sup is None:
            raise ValueError("case etaZeroTau requires a finite ell_sup")

    @property
    def varpi(self) -> float:
        return min(self.theta, self.zeta)

    @property
    def tau1(self) -> float:
        return self.varpi / self.zeta


# ---------------------------------------------------------------------------
# Regular variation: one fit of ln f
# ---------------------------------------------------------------------------

# A fit of ln f that misses by more than this is not of regular variation.
RV_MISFIT = 0.05


def rv_index(fn: ScalarFn) -> float:
    """The regular-variation index of the expression fn at infinity: the A
    of the fit ln fn = A ln t + B ln ln t + c (numerics._bertrand_fit) of
    fn's scalar samples from t = 1 (numerics._tail_samples).  Raises
    NotRegularlyVarying when the fit misses by more than RV_MISFIT,
    SampleError when fn is negative, ValueError when it is positive and
    finite at fewer than three samples."""
    ts, fs = _tail_samples(fn, 1.0, array=False)  # the array back end's ^ differs in the last bit
    fit = _bertrand_fit(ts, fs)
    if fit is None:
        raise ValueError(f"rv_index needs fn > 0 at three samples from t = 1 (got {len(ts)})")
    A, _, diag = fit
    if diag["misfit"] > RV_MISFIT:
        raise NotRegularlyVarying(A, diag["misfit"])
    return A


def _octave_samples(call, top: float):
    """(ts, fs): call at t = 2^(j/16) below top, up to the first value that
    is 0, subnormal, >= 1e300 or not finite, or where call overflows."""
    ts, fs = [], []
    for j in range(int(16 * math.log2(top))):
        t = 2.0 ** (j / 16.0)
        try:
            v = call(t)
        except OverflowError:
            break
        if not _TINY <= v < 1e300:
            break
        ts.append(t)
        fs.append(v)
    return ts, fs


def _growth_limits(ts, fs, fit, notes):
    """(m, Lambda, value_at_inf) of f read off the fit of ln f on f's
    samples (ts, fs), as in rv_index.

    f(t)/t ~ t^(A-1) (ln t)^B: the first of A - 1 and B that is off 0 by
    more than the fit's resolution decides m = inf (positive) or 0
    (negative), outside SLOPE_BAND or when the fit is exact.  When both
    are 0 within the resolution, m is f(t)/t at the last sample.  Lambda
    is inf with m, otherwise the largest f(t)/t over the samples.
    value_at_inf is f at the last sample when A and B are 0 within the
    resolution.  Where the fit does not decide, m and Lambda are None with
    a note.
    """
    if fit is None:
        notes.append(f"m and Lambda unknown: {len(ts)} samples of f are too few to fit")
        return None, None, None
    A, B, diag = fit
    res = _resolution(diag)
    value_at_inf = fs[-1] if abs(A) <= res and abs(B) <= res else None
    x = A - 1.0 if abs(A - 1.0) > res else B
    if abs(x) <= res:
        m = fs[-1] / ts[-1]
    elif abs(x) > SLOPE_BAND or diag["misfit"] <= EXACT_MISFIT:
        m = INF if x > 0.0 else 0.0
    else:
        notes.append(f"m and Lambda unknown: the fit of ln f does not decide (A={A:.6g}, "
                     f"B={B:.6g}, misfit {diag['misfit']:.2g})")
        return None, None, value_at_inf
    return m, INF if m == INF else max(f / t for t, f in zip(ts, fs)), value_at_inf


# ---------------------------------------------------------------------------
# Nonlinearity analysis
# ---------------------------------------------------------------------------

def _limit(ts, ys):
    """(limit, resolution) of the samples ys(t) as t -> inf, or (None, why).

    Positive samples whose fit ln y = A ln t + B ln ln t + c
    (numerics._bertrand_fit) has A > SLOPE_BAND grow like a power: the
    limit is inf; with A < -SLOPE_BAND it is 0, whatever the fit's misfit
    (exp(-t) fits with A = -430), and the resolution is that fit's
    (numerics._resolution).  Otherwise the limit is L of y = L + c1/ln t +
    c2/ln^2 t (numerics._inverse_log_fit), or the last sample where the
    1/ln t terms are 0 within the resolution.  That resolution is
    numerics._resolution of the spread: the misfit of an exact fit, else
    the larger of the misfit and the move of L without the last six
    samples (inf without enough samples).  Past it, samples whose steps
    |y_j - y_j-1| fit with A < -SLOPE_BAND converge like a power of t: the
    limit is the last sample, and the resolution is the remainder
    c t^A that the last step gives, unless that passes 1e-3; otherwise
    the limit is unknown.  Every resolution is an estimate of the error,
    not a bound."""
    ys = np.asarray(ys, dtype=float)
    power = ys.size and ys.min() > 0.0 and _bertrand_fit(ts, ys)
    if power and abs(power[0]) > SLOPE_BAND:  # ys(t) ~ t^A
        return (INF if power[0] > 0.0 else 0.0), _resolution(power[2])
    fit = _inverse_log_fit(ts, ys)
    if fit is None:
        return None, f"{len(ts)} samples are too few to fit"
    L, tail, spread = fit
    if spread > EXACT_MISFIT:
        short = _inverse_log_fit(ts[:-6], ys[:-6])
        spread = INF if short is None else max(spread, abs(L - short[0]))
    res = _resolution({"misfit": spread})
    if spread <= res:
        return (float(ys[-1]) if abs(tail) <= res else L), res
    steps = np.abs(np.diff(ys))
    power = steps.min() > 0.0 and _bertrand_fit(ts[1:], steps)
    if power and power[0] < -SLOPE_BAND:  # ys(t) - lim ~ t^A
        rest = float(steps[-1]) / ((ts[-2] / ts[-1]) ** power[0] - 1.0)
        if rest <= 1e-3:
            return float(ys[-1]), _resolution({"misfit": rest})
    return None, f"the fit in 1/ln u does not resolve it (L={L:.6g}, spread {spread:.2g})"


def _finite_prefix(values: np.ndarray) -> np.ndarray:
    """values up to the first that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    return values[:bad[0]] if bad.size else values


def analyze_nonlinearity(f_src: str) -> Nonlinearity:
    """Parse f, check it, and leave its growth metadata at infinity to be
    measured on the first read of each index (Nonlinearity).

    f must be nonnegative and nondecreasing on 121 geometric points of
    [1e-6, U_MAX]; that check runs here (SampleError at the first failing
    point), and a domain error of f there propagates.  Every index
    comes from one set of samples of f, doubling from t = 1
    (numerics._tail_samples), or 16 an octave when f overflows by t = 8,
    as exp(exp(t)) does (_octave_samples).  The "fit" stage (_fit_stage)
    reads m, Lambda and value_at_inf off the fit of ln f; the "theta"
    stage (_theta_stage) reads theta = lim u f'/f and gamma = lim (F/f)'
    = lim 1 - F f'/f^2 from fits in 1/ln u, and rho = theta - 1.  Where f,
    f' or F fails at the samples, the indices left are None with a note;
    a read never raises.
    """
    f = ScalarFn(parse_expression(f_src))
    fp = f.derivative_fn()

    vals = np.fromiter(map(f.fast(), _CHECK_GRID), float)
    refuse_samples(f, "f must be nonnegative", vals < 0.0, _CHECK_GRID, f=vals)
    lo, hi = vals[:-1], vals[1:]
    refuse_samples(f, "f must be nondecreasing on the sampled range",
                   np.isfinite(lo) & (hi < lo * (1.0 - 1e-9) - 1e-300),
                   _CHECK_GRID[1:], f=hi, f_before=lo)

    nl = Nonlinearity(f=f, fprime=fp, source=f_src)
    nl._pending = {"fit": _fit_stage, "theta": _theta_stage}
    return nl


def _fit_stage(nl: Nonlinearity) -> None:
    """m, Lambda and value_at_inf from the fit of ln f on f's samples
    (_growth_limits), the fit's diagnostics as _fit; the samples are kept
    for the theta stage."""
    call = nl.f.fast()
    try:
        ts, fs = _tail_samples(call, 1.0)
        if 0 < len(ts) < 4:
            ts, fs = _octave_samples(call, 2.0 * ts[-1])
    except (ArithmeticError, ValueError) as exc:
        nl.notes.append(f"m, Lambda, theta and gamma unknown: f fails in its samples ({exc})")
        return
    fit = _bertrand_fit(ts, fs)
    nl._fit = None if fit is None else fit[2]
    nl.m, nl.Lambda, nl.value_at_inf = _growth_limits(ts, fs, fit, nl.notes)
    nl._samples = ts, fs


def _theta_stage(nl: Nonlinearity) -> None:
    """theta, rho and gamma with their resolutions (_res) from fits in
    1/ln u on the fit stage's samples (_limit; gamma up to U_MAX, where F
    is filled).  Where theta(u) grows like a power of u (_limit reads inf),
    gamma = 0."""
    nl._settle("fit")
    nl._res = {}
    if nl._samples is None:
        return
    ts, fs = nl._samples
    u, fu = np.array(ts), np.array(fs)
    try:
        with np.errstate(all="ignore"):
            dcall = nl.fprime.fast()
            thetas = _finite_prefix(np.array([t * dcall(t) for t in ts]) / fu)
            n = min(bisect.bisect_right(ts, U_MAX), thetas.size)
            Fs = np.array([nl.F(t) for t in reversed(ts[:n])])[::-1]  # top first: one fill
            gammas = _finite_prefix(1.0 - thetas[:n] * (Fs / (u[:n] * fu[:n])))
    except (ArithmeticError, ValueError) as exc:
        nl.notes.append(f"theta and gamma unknown: f' or F fails at the samples of f ({exc})")
        return
    theta, res = _limit(u[:thetas.size], thetas)
    if theta == INF:  # theta(u) ~ u^A
        nl.theta, nl.rho, nl.gamma = INF, INF, 0.0
        return
    if theta is None:
        nl.notes.append(f"theta unknown: {res}")
    else:
        nl.theta, nl.rho, nl._res["theta"] = theta, theta - 1.0, res
    gamma, res = _limit(u[:gammas.size], gammas)
    if gamma is None:
        nl.notes.append(f"gamma unknown: {res}")
    else:
        nl.gamma, nl._res["gamma"] = gamma, res
    if nl.check_remark_identities() is False:
        nl.notes.append("gamma/rho/theta consistency identities failed at sampling accuracy")


def _pure_power(ast: ExprAst):
    """(alpha, C0) with g = C0 t^-alpha, alpha > 0 and C0 > 0, when g's AST
    is t^p, c*t^p, t^p*c, c/t^q or c/t with constants p < 0 < q; else None."""
    c, x, alpha = 1.0, ast, -1.0  # g = c x^-alpha, to start with x = g itself
    if ast.kind in ("mul", "div"):
        x, y = ast.children
        if ast.kind == "mul" and y.kind == "const":
            x, y = y, x
        if x.kind != "const":
            return None
        c, x, alpha = x.value, y, (1.0 if ast.kind == "div" else -1.0)
    if x.kind == "pow" and x.children[1].kind == "const":
        x, alpha = x.children[0], alpha * x.children[1].value
    return (alpha, c) if x.kind == "var" and alpha > 0.0 < c else None


def analyze_singular_term(g_src: str) -> Nonlinearity:
    """Metadata for a nonincreasing singular term g (no growth analysis).

    The origin exponent alpha and constant C0 of g(s) <= C0 s^-alpha are
    read off the AST when g is a pure power (_pure_power), and fitted on
    13 points of [1e-8, 1e-2] otherwise; g < 0 there is a SampleError.
    g's samples from t = 1 (numerics._tail_samples) are taken here, so an
    error in them surfaces at construction.  value_at_inf = lim g is the
    "fit" stage, measured on its first read (Nonlinearity): _limit reads
    it off those samples, and it is 0 where g vanishes at the sample past
    them; where it does not resolve it is None with _limit's reason in the
    notes.
    """
    ast = parse_expression(g_src)
    g = ScalarFn(ast)
    near = np.geomspace(1e-8, 1e-2, 13)
    gv = np.array([g(float(s)) for s in near])
    refuse_samples(g, "singular term must be nonnegative", gv < 0.0, near, g=gv)
    alpha_sing, sing_c0 = _pure_power(ast) or (None, None)
    if alpha_sing is None and np.all(gv > 0.0):
        slope = float(np.polyfit(np.log(near), np.log(gv), 1)[0])
        if slope < -1e-6:
            alpha_sing = -slope
            sing_c0 = float(np.max(gv * near ** alpha_sing))
    nl = Nonlinearity(f=g, fprime=g.derivative_fn(), m=0.0, alpha_sing=alpha_sing,
                      sing_c0=sing_c0, source=g_src)
    nl._samples = _tail_samples(g, 1.0)
    nl._pending = {"fit": _singular_limit_stage}
    return nl


def _singular_limit_stage(nl: Nonlinearity) -> None:
    """value_at_inf = lim g off the samples analyze_singular_term took; a
    point past them where g raises does not count as g vanishing."""
    ts, gs = nl._samples
    value_at_inf, why = _limit(ts, gs)
    points = _sample_points(1.0)
    if value_at_inf is None and len(ts) < len(points):
        try:
            if nl.f.fast()(points[len(ts)]) < _TINY:
                value_at_inf = 0.0
        except (ArithmeticError, ValueError):
            pass
    nl.value_at_inf = value_at_inf
    if value_at_inf is None:
        nl.notes.append(f"lim g unknown: {why}")


# ---------------------------------------------------------------------------
# Existence integrals
# ---------------------------------------------------------------------------

def _ko_integrand(nl: Nonlinearity) -> Integrand:
    """F^(-1/2), 0 where F overflows, at a point and over arrays (F.many)."""
    F = nl.F

    def fn(t):
        Ft = F(t)
        if not math.isfinite(Ft):
            return 0.0
        if Ft <= 0.0:
            raise ValueError(f"F({t!r}) <= 0: f is not positive below {t!r}")
        return Ft ** -0.5

    def many(ts):
        Fs = F.many(ts)
        if np.any(Fs <= 0.0):
            raise ValueError("F <= 0: f is not positive")
        return np.where(np.isfinite(Fs), Fs ** -0.5, 0.0)

    return Integrand(fn, many)


def keller_osserman(nl: Nonlinearity) -> ConvergenceVerdict:
    """Classify the Keller-Osserman integral int_1^inf F(t)^(-1/2) dt, once
    per Nonlinearity, over arrays through F.many: the verdict is cached on
    nl, as F is."""
    if nl._ko is None:
        nl._ko = classify_tail_integral(_ko_integrand(nl), 1.0)
    return nl._ko


def necessary_condition_entire(nl: Nonlinearity) -> ConvergenceVerdict:
    """Classify int_1^inf dt/f(t), necessary for entire large solutions,
    over arrays through f's vector back end."""
    call, vec = nl.f.fast(), nl.f.vector()

    def fn(t):
        v = call(t)
        if v == 0.0:
            raise ValueError(f"f({t!r}) = 0 in the 1/f integrand")
        return 0.0 if not math.isfinite(v) else 1.0 / v

    def many(ts):
        v = vec(ts)
        if np.any(v == 0.0):
            raise ValueError("f = 0 in the 1/f integrand")
        return np.where(np.isfinite(v), 1.0 / v, 0.0)

    return classify_tail_integral(Integrand(fn, many), 1.0)


# ---------------------------------------------------------------------------
# ell-limits of boundary weights
# ---------------------------------------------------------------------------

# the tolerance of ell_limits' quadratures
_ELL_TOL = 1e-11


@dataclass(frozen=True)
class EllEstimate:
    """ell_0/ell_1 with their resolutions, those _limit reports."""

    ell0: float
    ell1: float
    ell0_err: float
    ell1_err: float


def _integral_from_zero(w: ScalarFn, ts: np.ndarray, tol: float) -> np.ndarray:
    """int_0^t w at every t of the increasing ts, never evaluating w past
    the largest: one integrate_finite from 0 to the smallest t, then one
    15-point Gauss-Kronrod panel per step of ts (integrate_panels, and
    integrate_panel for a panel it rejects), summed upward."""
    call, lo, hi = w.fast(), ts[:-1], ts[1:]
    panels, ok = integrate_panels(w.vector(), lo, hi, tol)
    for i in np.flatnonzero(~ok).tolist():
        panels[i] = integrate_panel(call, lo[i], hi[i], tol)[0]
    return np.cumsum(np.append(integrate_finite(call, 0.0, ts[0], tol)[0], panels))


def _ratio_samples(k: ScalarFn, ts: np.ndarray):
    """(r, dlnk): r(t) = (int_0^t k)/k(t) and k'(t)/k(t) over a prefix of
    the descending ts, with k's exact derivative.

    For k = exp(g), r(t) = t int_0^1 exp(g(tx) - g(t)) dx, one
    integrate_finite per t, and k'/k = g': weights like exp(-1/t) keep
    their ratio where k underflows.  Their samples end at the first t
    where that quadrature fails or its error estimate is not below 1e-6 of
    its value.  For any other k, int_0^t k is _integral_from_zero, and
    the samples end where k falls below 1e-280, so that int_0^t k stays a
    normal float.
    """
    if k.body.kind == "exp":
        g = ScalarFn(k.body.children[0])
        lng, r = g.fast(), []
        for t in ts.tolist():
            def integrand(x, t=t, shift=lng(t)):
                return math.exp(max(lng(t * x) - shift, -745.0))

            try:
                v, err = integrate_finite(integrand, 0.0, 1.0, _ELL_TOL)
            except (NumericsError, ArithmeticError):
                break
            if not err <= 1e-6 * v:
                break
            r.append(t * v)
        return np.array(r), g.derivative_fn().vector()(ts[:len(r)])
    K = _integral_from_zero(k, ts[::-1], _ELL_TOL)[::-1]
    with np.errstate(all="ignore"):
        ks = k.vector()(ts)
        r = _finite_prefix(np.where(ks >= 1e-280, K / ks, np.nan))
        return r, (k.derivative_fn().vector()(ts) / ks)[:r.size]


def ell_limits(k: ScalarFn, nu: float) -> EllEstimate:
    """Measure ell_i = lim_{t->0+} ((int_0^t k)/k(t))^(i), i = 0, 1.

    r(t) and k'/k are sampled at t = t0 2^-j, j <= 26, t0 = min(0.1,
    0.45 nu) (_ratio_samples); ell_0 is _limit of r and ell_1 _limit of
    r' = 1 - r k'/k, both over s = 1/t, so a fit in 1/ln(1/t) takes the
    logarithmic corrections of weights like 1/ln(1/t), and an r' that
    decays like a power of t reads 0.  The error bars are _limit's
    resolutions; a limit that does not resolve is a ValueError.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    ts = min(0.1, 0.45 * nu) * 2.0 ** -np.arange(27.0)
    r, dlnk = _ratio_samples(k, ts)
    s = 1.0 / ts[:r.size]
    (ell0, err0), (ell1, err1) = _limit(s, r), _limit(s, 1.0 - r * dlnk)
    for name, value, why in (("ell_0", ell0, err0), ("ell_1", ell1, err1)):
        if value is None:
            raise ValueError(f"{name} unknown: {why}")
    return EllEstimate(ell0, ell1, err0, err1)


# ---------------------------------------------------------------------------
# k-constructors
# ---------------------------------------------------------------------------

K_KINDS = ("expA", "invS", "invLnS")


def make_k(kind: str, S_src: str, D: float) -> KFunction:
    """Build k from S per the three constructions and verify ell_1.

    kind=expA:   k(t) = exp(-S(1/t))      -> ell_1 = 0
    kind=invS:   k(t) = 1/S(1/t)          -> ell_1 = 1/(q+2)
    kind=invLnS: k(t) = 1/ln(S(1/t))      -> ell_1 = 1
    where q > -1 is the RV index of S' (rv_index); k not positive increasing
    at 24 points of (0, nu) is a SampleError for S.
    """
    if kind not in K_KINDS:
        raise ValueError(f"kind must be one of {K_KINDS}")
    if D <= 0.0:
        raise ValueError("D must be positive")
    S_ast = parse_expression(S_src)
    S = ScalarFn(S_ast)
    try:
        q = rv_index(S.derivative_fn())
    except SampleError as exc:  # S' is no expression of the caller's: name S
        raise SampleError(f"its derivative S': {exc}", S) from exc
    if q <= -1.0:
        raise ValueError(f"S' must vary regularly with index q > -1 (got {q:.4f})")

    inv_t = parse_expression("1/t")
    S_of_inv = substitute(S_ast, inv_t)
    if kind == "expA":
        body = ExprAst("exp", children=(ExprAst("neg", children=(S_of_inv,)),))
        predicted = 0.0
    elif kind == "invS":
        body = ExprAst("div", children=(ExprAst("const", 1.0), S_of_inv))
        predicted = 1.0 / (q + 2.0)
    else:
        body = ExprAst("div", children=(ExprAst("const", 1.0),
                                        ExprAst("ln", children=(S_of_inv,))))
        predicted = 1.0

    nu = 1.0 / D
    k = ScalarFn(body)
    ts = np.geomspace(1e-6 * nu, 0.95 * nu, 24)
    try:
        ks, dks = np.array([(k(float(t)), k.deriv(float(t))) for t in ts]).T
    except ValueError as exc:
        raise ValueError(f"k not defined on (0, nu): {exc}") from exc
    refuse_samples(S, "constructed k is not positive increasing on (0, nu)",
                   (ks < 0.0) | ((ks > 0.0) & (dks < -1e-9 * np.maximum(ks / ts, 1.0))),
                   ts, k=ks, dk=dks)

    est = ell_limits(k, nu)
    if abs(est.ell1 - predicted) > 0.02 + 3.0 * est.ell1_err:
        raise ValueError(
            f"measured ell1 {est.ell1:.4f} disagrees with predicted {predicted:.4f} "
            f"beyond the error bar {est.ell1_err:.2g}"
        )
    return KFunction(k=k, nu=nu, ell0=est.ell0, ell1=est.ell1,
                     ell0_err=est.ell0_err, ell1_err=est.ell1_err, predicted_ell1=predicted)


# ---------------------------------------------------------------------------
# Rate constants
# ---------------------------------------------------------------------------

def xi0_power(rho: float, ell1: float, c: float) -> float:
    """xi0 = ((2 + ell1*rho) / (c*(2 + rho)))^(1/rho)."""
    if rho <= 0.0:
        raise ValueError("xi0_power needs rho > 0")
    if c <= 0.0:
        raise ValueError("xi0_power needs c > 0")
    if not -1e-9 <= ell1 <= 1.0 + 1e-9:
        raise ValueError("ell1 must lie in [0, 1]")
    return ((2.0 + ell1 * rho) / (c * (2.0 + rho))) ** (1.0 / rho)


def _A_functional(nl: Nonlinearity):
    """A(xi) = lim_{u->inf} f(xi u)/(xi f(u)), read by _limit off f's
    samples from u = 1 (numerics._tail_samples), with f(xi u) from f's
    vector back end; a limit that does not resolve is a ValueError."""
    ts, fs = _tail_samples(nl.f, 1.0)
    u, fu = np.array(ts), np.array(fs)
    vec = nl.f.vector()

    def A(xi):
        with np.errstate(all="ignore"):
            ys = _finite_prefix(vec(xi * u) / (xi * fu))
        value, why = _limit(u[:ys.size], ys)
        if value is None:
            raise ValueError(f"A({xi!r}) unknown: {why}")
        return value

    return A


def xi0_via_A(nl: Nonlinearity, gamma: float, Kprime0: float, c: float) -> float:
    """Solve A(xi) = (K'(0)(1-2*gamma) + 2*gamma)/c for the rate constant.

    A must be monotone increasing (checked on a sampled grid); for
    f in RV_{rho+1} the result equals xi0_power(rho, K'(0), c).
    """
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    if c <= 0.0:
        raise ValueError("c must be positive")
    A = _A_functional(nl)
    grid = np.geomspace(0.25, 4.0, 9)
    sampled = [A(float(x)) for x in grid]
    if any(b <= a for a, b in zip(sampled, sampled[1:])):
        raise ValueError("A(xi) is not strictly increasing on the sampled grid")
    target = (Kprime0 * (1.0 - 2.0 * gamma) + 2.0 * gamma) / c
    return find_root_monotone(A, target, 1e-6, 8.0, tol=1e-12)


def _heaviside(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return 0.0
    return 0.5  # the theta == zeta borderline is never evaluated upstream


def chi_two_term(spec: TwoTermSpec) -> tuple[float, float]:
    """Return (varpi, chi) of the two-term expansion.

    chi_1 = -(1+zeta) ell_star/(2 zeta) H(theta-zeta) - c~/rho H(zeta-theta);
    the etaZeroTau case subtracts
    ell_sup/rho (-rho ell_star/2)^tau1 [1/(rho+2) + ln xi0],
    with xi0 = (2/(2+rho))^(1/rho).
    """
    rho, zeta, theta = spec.rho, spec.zeta, spec.theta
    if abs(theta - zeta) < 1e-9:
        warnings.warn(
            "theta == zeta: Heaviside(0) := 1/2 by convention; the expansion "
            "is not pinned by the theory at this borderline",
            RuntimeWarning,
            stacklevel=2,
        )
    varpi = spec.varpi
    chi = (-(1.0 + zeta) * spec.ell_star / (2.0 * zeta) * _heaviside(theta - zeta)
           - spec.c_tilde / rho * _heaviside(zeta - theta))
    if spec.case == "etaZeroTau":
        base = -rho * spec.ell_star / 2.0
        if base <= 0.0:
            raise ValueError("(-rho*ell_star/2) must be positive in case etaZeroTau")
        xi0 = (2.0 / (2.0 + rho)) ** (1.0 / rho)
        chi -= (spec.ell_sup / rho) * base ** spec.tau1 * (1.0 / (rho + 2.0) + math.log(xi0))
    return varpi, chi
