"""Regular-variation analysis and closed-form blow-up rate constants.

Computes the growth metadata of a nonlinearity f (m, Lambda, theta, gamma,
rho and their consistency identities), classifies the existence integrals
(Keller-Osserman and the 1/f condition for entire solutions), measures the
ell_0/ell_1 limits of boundary weights k, builds the three k-constructors,
and evaluates the rate constants xi_0 and the two-term coefficient chi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprAst, ScalarFn, parse_expression, substitute
from .numerics import (
    ConvergenceVerdict,
    NonIntegrableError,
    NumericsError,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    integrate_panel,
)

INF = math.inf

# Limits at infinity are sampled on u_max/2^k and must stabilize to this
# relative spread before they are reported as converged.
STABILIZE_TOL = 1e-3


class NotRegularlyVarying(ValueError):
    """rv_index spread exceeded 0.05: not regularly varying at this scale."""

    def __init__(self, index: float, spread: float):
        super().__init__(
            f"not regularly varying at this scale (index~{index:.4f}, spread {spread:.4f})"
        )
        self.index = index
        self.spread = spread


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

    Lattice values fill lazily over a contiguous range of k: the lowest
    point takes one quadrature from 0 (integrate_finite), and every
    lattice panel above it, like the remainder from the nearest lattice
    point below a query, one integrate_panel call (a 15-point
    Gauss-Kronrod rule that falls back to integrate_finite).  Once f or
    the running integral overflows, or the quadrature of a panel fails
    (not integrable, or short of its tolerance), every larger argument
    reports inf.  A domain error of f (EvalDomainError) propagates: F is
    no number there.
    """

    def __init__(self, fn, tol: float = 1e-12):
        self._fn = fn.fast() if isinstance(fn, ScalarFn) else fn
        self._tol = tol
        self._lat: dict[int, float] = {}
        self._kmin: int | None = None
        self._kmax: int | None = None
        self._kinf: int | None = None

    @staticmethod
    def _t_of(k: int) -> float:
        return 2.0 ** (k / 4.0)

    def _quad(self, rule, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        try:
            v, _ = rule(self._fn, a, b, self._tol)
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
        tol = self._tol
        while tol <= 1e-6:
            try:
                return integrate_finite(self._fn, a, b, tol)[0]
            except NonIntegrableError:
                return INF
            except (NumericsError, ArithmeticError):
                tol *= 100.0
        return INF

    def _accumulate(self, j0: int, val: float, k: int) -> None:
        """Store val at j0 and add panels up to k; the first non-finite
        value sets kinf."""
        for j in range(j0, k + 1):
            if j > j0 and math.isfinite(val):
                val += self._quad(integrate_panel, self._t_of(j - 1), self._t_of(j))
            if not math.isfinite(val):
                val = INF
                if self._kinf is None or j < self._kinf:
                    self._kinf = j
            self._lat[j] = val

    def _fill(self, k: int) -> float:
        # invariant: the lattice is contiguous on [kmin, kmax]
        if self._kinf is not None and k >= self._kinf:
            return INF
        if self._kmin is None or k < self._kmin:
            top = k if self._kmin is None else self._kmin - 1
            self._accumulate(k, self._quad(integrate_finite, 0.0, self._t_of(k)), top)
            if self._kmin is None:
                self._kmax = top
            self._kmin = k
        elif k > self._kmax:
            self._accumulate(self._kmax, self._lat[self._kmax], k)
            self._kmax = k
        return self._lat[k]

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("antiderivative evaluated at t < 0")
        if t == 0.0:
            return 0.0
        k = math.floor(4.0 * math.log2(t))
        base = self._fill(k)
        if not math.isfinite(base):
            return INF
        return base + self._quad(integrate_panel, self._t_of(k), t)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class Nonlinearity:
    """An absorption/singular term with its growth metadata.

    m = lim f(s)/s at infinity, Lambda = sup_{s>=1} f(s)/s, theta =
    lim u f'(u)/f(u), gamma = lim (F/f)'(u), rho = theta - 1 (the RV index
    of f').  Fields are math.inf when flagged infinite and None when the
    sampled limit did not stabilize (recorded in notes).  alpha_sing/sing_c0
    describe an origin singularity f(s) <= C0 s^-alpha on (0, sing_eta).
    """

    f: ScalarFn
    fprime: ScalarFn
    m: float | None = None
    Lambda: float | None = None
    theta: float | None = None
    gamma: float | None = None
    rho: float | None = None
    value_at_inf: float | None = None
    alpha_sing: float | None = None
    sing_c0: float | None = None
    sing_eta: float | None = None
    source: str = ""
    notes: list = field(default_factory=list)
    _F: Antiderivative | None = field(default=None, repr=False, compare=False)

    @property
    def F(self) -> Antiderivative:
        if self._F is None:
            self._F = Antiderivative(self.f)
        return self._F

    def check_remark_identities(self, tol: float = 1e-3) -> bool:
        """gamma = 1/(rho+2) = 1/(theta+1) when rho is finite."""
        if self.rho is None or self.gamma is None or not math.isfinite(self.rho):
            return True
        ok1 = abs(self.gamma - 1.0 / (self.rho + 2.0)) <= tol
        ok2 = self.theta is not None and abs(self.gamma - 1.0 / (self.theta + 1.0)) <= tol
        return ok1 and ok2


@dataclass
class KFunction:
    """A boundary weight k on (0, nu) with its ell_0/ell_1 limits.

    ell_0 = 0 for every admitted k; ell_1 lies in [0, 1].  zeta/ell_star
    are the extra two-term-expansion descriptors of the class with ell_1=0
    and t^-zeta (int k / k)' -> ell_star; the artifact takes them as
    user-supplied fields, there is no stable estimator for ell_star.
    """

    k: ScalarFn
    nu: float
    ell0: float
    ell1: float
    ell0_err: float = 0.0
    ell1_err: float = 0.0
    tag: str = "user"
    predicted_ell1: float | None = None
    zeta: float | None = None
    ell_star: float | None = None

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
                   tag=f"power({alpha:g})", predicted_ell1=1.0 / (alpha + 1.0))


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
        if self.case not in ("purePower", "etaNonzero", "etaZeroTau"):
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
# Regular-variation index
# ---------------------------------------------------------------------------

def rv_index(fn, u_max: float = 1e8) -> float:
    """Estimate the regular-variation index of fn at infinity.

    Raw estimates log(fn(xi*u)/fn(u))/log(xi) are taken over xi in {2,4,8}
    and u in {u_max/8, u_max/4, u_max/2}.  Slowly varying factors bias each
    raw estimate by O(1/log u), so per xi the estimates at the outer two u
    scales are combined with a log-Richardson step before averaging.
    Raises NotRegularlyVarying when the raw spread exceeds 0.05.
    """
    call = fn.fast() if isinstance(fn, ScalarFn) else fn
    raw = {}
    for u_div in (8.0, 4.0, 2.0):
        u = u_max / u_div
        fu = call(u)
        if not fu > 0.0:
            raise ValueError(f"rv_index needs fn > 0 (fn({u!r}) = {fu!r})")
        for xi in (2.0, 4.0, 8.0):
            fxu = call(xi * u)
            if not fxu > 0.0 or not math.isfinite(fxu):
                raise ValueError("rv_index sample not positive finite")
            raw[(xi, u)] = math.log(fxu / fu) / math.log(xi)
    estimates = list(raw.values())
    spread = float(np.max(estimates) - np.min(estimates))
    refined = []
    for xi in (2.0, 4.0, 8.0):
        u1, u2 = u_max / 8.0, u_max / 2.0
        L1, L2 = math.log(u1), math.log(u2)
        e1, e2 = raw[(xi, u1)], raw[(xi, u2)]
        refined.append((L2 * e2 - L1 * e1) / (L2 - L1))
    index = float(np.mean(refined))
    if spread > 0.05:
        raise NotRegularlyVarying(index, spread)
    return index


# ---------------------------------------------------------------------------
# Nonlinearity analysis
# ---------------------------------------------------------------------------

def _finite_cap(call, u_max: float) -> float:
    """Largest u <= u_max (walking down by 2) where the value is finite."""
    u = u_max
    for _ in range(80):
        try:
            v = call(u)
        except Exception:
            v = INF
        if v is not None and math.isfinite(v):
            return u
        u *= 0.5
    raise ValueError("function not finitely evaluable at any sampled scale")


def _limit_by_samples(values, notes, name):
    """Classify a sampled sequence (ascending u): value, inf flag, or None."""
    last, prev = values[-1], values[-2]
    if abs(last - prev) <= STABILIZE_TOL * (1.0 + abs(last)):
        # Aitken acceleration when the tail looks geometric
        if len(values) >= 3:
            d1, d2 = values[-1] - values[-2], values[-2] - values[-3]
            if d2 != 0.0 and abs(d1) < abs(d2):
                acc = values[-1] - d1 * d1 / (d1 - d2) if d1 != d2 else values[-1]
                if abs(acc - last) <= 10.0 * STABILIZE_TOL * (1.0 + abs(last)):
                    return acc
        return last
    increasing = all(b >= a for a, b in zip(values, values[1:]))
    if increasing and last > values[0] + 0.5:
        return INF
    notes.append(f"{name} did not stabilize (last samples {prev:.4g}, {last:.4g})")
    return None


def analyze_nonlinearity(f_src: str, u_max: float = 1e8) -> Nonlinearity:
    """Parse f and measure its growth metadata at infinity.

    Requires f positive and nondecreasing on the sampled range.  Limits are
    taken at u_max/2^k with a stabilization test; monotonically escaping
    sequences are flagged inf; anything else is left None with a note.
    """
    ast = parse_expression(f_src)
    f = ScalarFn(ast)
    fp = f.derivative_fn()
    call, dcall = f.fast(), fp.fast()

    grid = np.geomspace(1e-6, u_max, 121)
    vals = []
    for u in grid:
        v = call(float(u))
        vals.append(v)
        if v < 0.0:
            raise ValueError(f"f must be nonnegative (f({u:.3g}) = {v:.3g})")
    for a, b in zip(vals, vals[1:]):
        if math.isfinite(a) and math.isfinite(b) and b < a * (1.0 - 1e-9) - 1e-300:
            raise ValueError("f must be nondecreasing on the sampled range")

    notes: list = []
    cap = _finite_cap(call, u_max)
    cap = min(cap, _finite_cap(dcall, cap))

    # m and the finite limit of f itself, from the top-decade log slope
    us = [cap / 2.0 ** k for k in range(4)][::-1]
    sigma = float(np.polyfit(np.log(us), np.log([max(call(u), 1e-300) for u in us]), 1)[0])
    top = [call(u) / u for u in us]
    if sigma > 1.01:
        m = INF
    elif sigma < 0.99:
        m = 0.0
    else:
        m = float(np.median(top))
    f_top = [call(u) for u in us]
    value_at_inf = None
    if abs(f_top[-1] - f_top[-2]) <= 1e-6 * (1.0 + abs(f_top[-1])):
        value_at_inf = f_top[-1]

    # Lambda = sup_{s >= 1} f(s)/s on a 200-point log grid to 1e8
    s_grid = np.geomspace(1.0, 1e8, 200)
    ratios = np.array([call(float(s)) / float(s) for s in s_grid])
    top_decade = s_grid >= 1e7
    if np.any(~np.isfinite(ratios)) or (
        ratios[top_decade][-1] > ratios[top_decade][0] * (1.0 + 1e-9)
    ):
        Lambda = INF
    else:
        Lambda = float(np.max(ratios))

    # theta = lim u f'/f
    theta_samples = []
    for k in range(10, -1, -1):
        u = cap / 2.0 ** k
        fu = call(u)
        if fu <= 0.0 or not math.isfinite(fu):
            continue
        theta_samples.append(u * dcall(u) / fu)
    theta = _limit_by_samples(theta_samples, notes, "theta") if len(theta_samples) >= 3 else None

    # gamma = lim (F/f)' by centered differences with one Richardson step
    F = Antiderivative(f)

    def ratio(u):
        return F(u) / call(u)

    def gamma_at(u):
        h = 0.01 * u
        d1 = (ratio(u + h) - ratio(u - h)) / (2.0 * h)
        d2 = (ratio(u + 0.5 * h) - ratio(u - 0.5 * h)) / h
        return (4.0 * d2 - d1) / 3.0

    gamma_samples = []
    for k in range(6, -1, -1):
        u = cap / 2.0 ** k
        try:
            g = gamma_at(u)
        except Exception:
            continue
        if math.isfinite(g):
            gamma_samples.append(g)
    gamma = _limit_by_samples(gamma_samples, notes, "gamma") if len(gamma_samples) >= 3 else None
    if gamma == INF:
        gamma = None

    rho = None
    if theta is not None:
        rho = INF if theta == INF else theta - 1.0

    # origin singularity metadata for singular terms g(s) <= C0 s^-alpha
    alpha_sing = sing_c0 = sing_eta = None
    try:
        near = np.geomspace(1e-6, 1e-2, 9)
        fv = np.array([call(float(s)) for s in near])
        if np.all(fv > 0.0) and fv[0] > fv[-1] and fv[0] > 10.0:
            slope = float(np.polyfit(np.log(near), np.log(fv), 1)[0])
            if slope < -1e-3:
                alpha_sing = -slope
                sing_c0 = float(np.max(fv * near ** alpha_sing))
                sing_eta = 1e-2
    except Exception:
        pass

    nl = Nonlinearity(f=f, fprime=fp, m=m, Lambda=Lambda, theta=theta, gamma=gamma,
                      rho=rho, value_at_inf=value_at_inf, alpha_sing=alpha_sing,
                      sing_c0=sing_c0, sing_eta=sing_eta, source=f_src, notes=notes)
    nl._F = F
    if not nl.check_remark_identities():
        notes.append("gamma/rho/theta consistency identities failed at sampling accuracy")
    return nl


def analyze_singular_term(g_src: str) -> Nonlinearity:
    """Metadata for a nonincreasing singular term g (no growth analysis).

    Fits the origin exponent alpha and constant C0 of g(s) <= C0 s^-alpha,
    and records lim g at infinity when it stabilizes.
    """
    ast = parse_expression(g_src)
    g = ScalarFn(ast)
    call = g.fast()
    near = np.geomspace(1e-8, 1e-2, 13)
    gv = np.array([call(float(s)) for s in near])
    if np.any(gv < 0.0):
        raise ValueError("singular term must be nonnegative")
    alpha_sing = sing_c0 = sing_eta = None
    if np.all(gv > 0.0):
        slope = float(np.polyfit(np.log(near), np.log(gv), 1)[0])
        if slope < -1e-6:
            alpha_sing = -slope
            sing_c0 = float(np.max(gv * near ** alpha_sing))
            sing_eta = 1e-2
    tail = [call(u) for u in (1e6, 1e7, 1e8)]
    value_at_inf = None
    if all(math.isfinite(v) for v in tail) and abs(tail[-1] - tail[-2]) <= 1e-6 * (1.0 + abs(tail[-1])):
        value_at_inf = tail[-1]
    return Nonlinearity(f=g, fprime=g.derivative_fn(), m=0.0, value_at_inf=value_at_inf,
                        alpha_sing=alpha_sing, sing_c0=sing_c0, sing_eta=sing_eta,
                        source=g_src)


# ---------------------------------------------------------------------------
# Existence integrals
# ---------------------------------------------------------------------------

def _ko_integrand(nl: Nonlinearity):
    F = nl.F

    def fn(t):
        Ft = F(t)
        if not math.isfinite(Ft):
            return 0.0
        if Ft <= 0.0:
            raise ValueError(f"F({t!r}) <= 0: f is not positive below {t!r}")
        return Ft ** -0.5

    return fn


def keller_osserman(nl: Nonlinearity, tol: float = 1e-8) -> ConvergenceVerdict:
    """Classify the Keller-Osserman integral int_1^inf F(t)^(-1/2) dt."""
    return classify_tail_integral(_ko_integrand(nl), 1.0, tol)


def necessary_condition_entire(nl: Nonlinearity, tol: float = 1e-8) -> ConvergenceVerdict:
    """Classify int_1^inf dt/f(t), necessary for entire large solutions."""
    call = nl.f.fast()

    def fn(t):
        v = call(t)
        if v == 0.0:
            raise ValueError(f"f({t!r}) = 0 in the 1/f integrand")
        return 0.0 if not math.isfinite(v) else 1.0 / v

    return classify_tail_integral(fn, 1.0, tol)


# ---------------------------------------------------------------------------
# ell-limits of boundary weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllEstimate:
    """ell_0/ell_1 with their extrapolation error bars and the raw table."""

    ell0: float
    ell1: float
    ell0_err: float
    ell1_err: float
    table: tuple = ()


def _k_ratio_factory(k, quad_tol: float):
    """Return r(t) = (int_0^t k)/k(t), stable also for exp-form weights.

    When k = exp(g) the ratio is evaluated as int_0^t exp(g(s)-g(t)) ds,
    which survives the severe underflow of weights like exp(-1/t).
    """
    if isinstance(k, ScalarFn) and k.body.kind == "exp":
        lnk = ScalarFn(k.body.children[0]).fast()

        def ratio(t):
            shift = lnk(t)

            def integrand(s):
                return math.exp(max(lnk(s) - shift, -745.0))

            v, _ = integrate_finite(integrand, 0.0, t, quad_tol)
            return v

        return ratio

    call = k.fast() if isinstance(k, ScalarFn) else k
    cache = Antiderivative(call, tol=quad_tol)

    def ratio(t):
        kt = call(t)
        if not (kt > 1e-280 and math.isfinite(kt)):
            raise OverflowError(f"k not evaluable at t={t!r}")
        return cache(t) / kt

    return ratio


def ell_limits(k, nu: float, quad_tol: float = 1e-11) -> EllEstimate:
    """Measure ell_i = lim_{t->0+} ((int_0^t k)/k(t))^(i), i = 0, 1.

    r(t) is sampled at t = t0*10^-j; ell_1 comes from Richardson-refined
    centered differences of r, extrapolated against 1/log(1/t) (two-point
    elimination), which also handles weights with logarithmic corrections.
    Scales where k underflows are skipped and the error bar widened.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    ratio = _k_ratio_factory(k, quad_tol)
    t0 = min(0.1, 0.45 * nu)
    rows = []
    skipped = 0
    for j in range(8):
        t = t0 * 10.0 ** (-j)
        try:
            r = ratio(t)
            h = 0.25 * t
            d1 = (ratio(t + h) - ratio(t - h)) / (2.0 * h)
            d2 = (ratio(t + 0.5 * h) - ratio(t - 0.5 * h)) / h
        except (OverflowError, ZeroDivisionError, ValueError):
            skipped += 1
            continue
        rp = (4.0 * d2 - d1) / 3.0
        rows.append((t, r, rp))
    if len(rows) < 2:
        raise ValueError("k evaluable at too few scales to estimate ell limits")

    def log_extrapolate(pairs):
        # eliminate the leading c/log(1/t) correction between scales
        ests = []
        for (ta, va), (tb, vb) in zip(pairs, pairs[1:]):
            La, Lb = -math.log(ta), -math.log(tb)
            ests.append((Lb * vb - La * va) / (Lb - La))
        return ests

    r_pairs = [(t, r) for t, r, _ in rows]
    rp_pairs = [(t, rp) for t, _, rp in rows]
    e0 = log_extrapolate(r_pairs)
    e1 = log_extrapolate(rp_pairs)
    ell0, ell1 = e0[-1], e1[-1]
    err0 = abs(e0[-1] - e0[-2]) if len(e0) > 1 else abs(ell0 - r_pairs[-1][1])
    err1 = abs(e1[-1] - e1[-2]) if len(e1) > 1 else abs(ell1 - rp_pairs[-1][1])
    if skipped:
        err0 += 0.005 * skipped
        err1 += 0.005 * skipped
    return EllEstimate(ell0, ell1, err0 + 1e-12, err1 + 1e-12, table=tuple(rows))


# ---------------------------------------------------------------------------
# k-constructors
# ---------------------------------------------------------------------------

_K_KINDS = ("expA", "invS", "invLnS")


def make_k(kind: str, S_src: str, D: float) -> KFunction:
    """Build k from S per the three constructions and verify ell_1.

    kind=expA:   k(t) = exp(-S(1/t))      -> ell_1 = 0
    kind=invS:   k(t) = 1/S(1/t)          -> ell_1 = 1/(q+2)
    kind=invLnS: k(t) = 1/ln(S(1/t))      -> ell_1 = 1
    where q > -1 is the RV index of S' (checked via rv_index).
    """
    if kind not in _K_KINDS:
        raise ValueError(f"kind must be one of {_K_KINDS}")
    if D <= 0.0:
        raise ValueError("D must be positive")
    S_ast = parse_expression(S_src)
    Sp = ScalarFn(S_ast).derivative_fn()
    q = rv_index(Sp)
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
    kp = k.fast()
    dkp = k.derivative_fn().fast()
    for t in np.geomspace(1e-6 * nu, 0.95 * nu, 24):
        try:
            kt = kp(float(t))
            dk = dkp(float(t))
        except ValueError as exc:
            raise ValueError(f"k not defined on (0, nu): {exc}") from exc
        if kt < 0.0 or (kt > 0.0 and dk < -1e-9 * max(kt / t, 1.0)):
            raise ValueError("constructed k is not positive increasing on (0, nu)")

    est = ell_limits(k, nu)
    if abs(est.ell1 - predicted) > 0.02 + 3.0 * est.ell1_err:
        raise ValueError(
            f"measured ell1 {est.ell1:.4f} disagrees with predicted {predicted:.4f} "
            f"beyond the error bar {est.ell1_err:.2g}"
        )
    return KFunction(k=k, nu=nu, ell0=est.ell0, ell1=est.ell1,
                     ell0_err=est.ell0_err, ell1_err=est.ell1_err,
                     tag=kind, predicted_ell1=predicted)


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
    """A(xi) = lim_{u->inf} f(xi*u)/(xi*f(u)) sampled at u = 1e6..1e8.

    Slowly varying factors bias the raw samples by O(1/log u); consecutive
    samples are combined with a log-Richardson step before the
    stabilization test, so f like u^p log(u+1) pass as the theory says.
    """
    call = nl.f.fast()
    us = (1e6, 1e7, 1e8)
    Ls = [math.log(u) for u in us]

    def A(xi):
        vals = []
        for u in us:
            fu = call(u)
            fxu = call(xi * u)
            if not (fu > 0.0 and math.isfinite(fu) and math.isfinite(fxu)):
                raise ValueError(f"A({xi!r}) not evaluable at u={u!r}")
            vals.append(fxu / (xi * fu))
        refined = [
            (Ls[i + 1] * vals[i + 1] - Ls[i] * vals[i]) / (Ls[i + 1] - Ls[i])
            for i in range(len(us) - 1)
        ]
        if abs(refined[-1] - refined[-2]) > 1e-3 * (1.0 + abs(refined[-1])):
            raise ValueError(f"A({xi!r}) did not stabilize: {vals}")
        return refined[-1]

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
