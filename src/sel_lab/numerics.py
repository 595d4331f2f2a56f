"""Shared numerical kernels.

Adaptive quadrature with endpoint-singularity grading, improper-integral
convergence classification (tail and origin), monotone root finding, and the
radial shooting kernel: `shoot` integrates u'' + (N-1)/r u' = F(r, u, u')
with terminal floor, cap and blow-up events (every ODE solve of the package
goes through it), `series_start` steps past the (N-1)/r origin singularity,
and `integrate_radial_ivp` builds graded solutions on top of both.

All functions here are pure over immutable inputs; no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from .ioutil import write_csv

# Slope band half-width for the +-1 borderline of the classifiers.
SLOPE_BAND = 0.05
# Direct-summation fallback: number of doubling panels before giving up.
FALLBACK_PANELS = 40
# Default blow-up threshold for the radial IVP ((and its derivative).
BLOWUP_THRESHOLD = 1e8

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

BOUNDED = "bounded"
ENTIRE_LARGE = "entire-large"
BOUNDARY_BLOWUP = "boundary-blowup"
NO_SOLUTION = "no-solution"
UNDETERMINED = "undetermined"


class NumericsError(Exception):
    pass


class NonIntegrableError(NumericsError):
    """A local power <= -1 endpoint singularity was detected."""


class BracketError(NumericsError):
    """Root bracketing failed after the allowed expansions."""


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of an improper-integral classification.

    Convergent carries (value, err) with err <= tol*(1+|value|) as estimated
    from quadrature error plus a power-law extrapolation bound of the
    unsampled remainder.  Divergent carries the fitted log-log slope.
    """

    status: str
    value: float | None = None
    err: float | None = None
    slope: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_convergent(self) -> bool:
        return self.status == CONVERGENT

    @property
    def is_divergent(self) -> bool:
        return self.status == DIVERGENT

    @classmethod
    def convergent(cls, value, err, slope=None, **diag):
        return cls(CONVERGENT, value=value, err=err, slope=slope, diagnostics=diag)

    @classmethod
    def divergent(cls, slope, **diag):
        return cls(DIVERGENT, slope=slope, diagnostics=diag)

    @classmethod
    def inconclusive(cls, slope=None, **diag):
        return cls(INCONCLUSIVE, slope=slope, diagnostics=diag)


@dataclass
class RadialSolution:
    """Grid solution of a radial problem with its classification.

    The grid is strictly increasing; `v` is present only for systems.
    classification is one of bounded / entire-large / boundary-blowup /
    no-solution / undetermined; boundary-blowup carries the event radius.
    """

    dimension: int
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray | None = None
    v: np.ndarray | None = None
    dv: np.ndarray | None = None
    classification: str = UNDETERMINED
    blowup_radius: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.r.size > 1 and not np.all(np.diff(self.r) > 0):
            raise ValueError("solution grid must be strictly increasing")

    def to_csv(self, path):
        cols = [("r", self.r), ("u", self.u)]
        if self.v is not None:
            cols.append(("v", np.asarray(self.v, dtype=float)))
        if self.du is not None:
            cols.append(("u_prime", np.asarray(self.du, dtype=float)))
        comments = [f"classification={self.classification}"]
        if self.blowup_radius is not None:
            comments.append(f"blowup_radius={self.blowup_radius!r}")
        comments.append(f"dimension={self.dimension}")
        if "b_normalization" in self.metadata:
            comments.append(f"b_normalization={self.metadata['b_normalization']}")
        write_csv(path, ",".join(name for name, _ in cols), zip(*(col for _, col in cols)),
                  comments)


# ---------------------------------------------------------------------------
# Finite-interval adaptive quadrature
# ---------------------------------------------------------------------------

def _quad_piece(fn, a: float, b: float, tol: float, toward: str):
    """Integrate with a cubic grading substitution toward one endpoint.

    toward='left' maps t = a + (b-a) w^3, concentrating nodes near a; this
    turns an integrable power singularity t^-p into w^(2-3p), which QUADPACK
    then resolves.  Endpoints themselves are never evaluated.
    """
    width = b - a
    if width <= 0.0:
        return 0.0, 0.0
    # when w^3 underflows the graded argument collapses onto the endpoint;
    # for any integrable singularity the limit of the graded integrand is 0
    if toward == "left":
        def g(w):
            t = a + width * w ** 3
            if t == a:
                return 0.0
            return 3.0 * width * w * w * fn(t)
    else:
        def g(w):
            t = b - width * w ** 3
            if t == b:
                return 0.0
            return 3.0 * width * w * w * fn(t)
    value, err = quad(g, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200, full_output=1)[:2]
    return value, err


def _endpoint_slope(fn, a: float, b: float, end: str) -> float:
    """Log-log slope of fn against distance from the given endpoint."""
    width = b - a
    ds, vs = [], []
    for k in range(4, 14):
        d = width * 2.0 ** (-k)
        t = a + d if end == "left" else b - d
        try:
            v = fn(t)
        except Exception:
            continue
        if v is None or not math.isfinite(v) or v <= 0.0:
            continue
        ds.append(math.log(d))
        vs.append(math.log(v))
    if len(ds) < 3:
        return 0.0
    return float(np.polyfit(ds, vs, 1)[0])


def _raise_if_not_integrable(fn, a: float, b: float) -> None:
    """Raise NonIntegrableError when fn's local power at an endpoint is <= -1."""
    for end in ("left", "right"):
        slope = _endpoint_slope(fn, a, b, end)
        if slope <= -1.0 + 1e-9:
            raise NonIntegrableError(
                f"non-integrable singularity at the {end} endpoint (local power {slope:.3f})"
            )


def integrate_finite(fn, a: float, b: float, tol: float = 1e-10):
    """Adaptive quadrature of fn on (a, b); returns (value, err).

    Integrable endpoint power singularities are allowed; a non-integrable
    one (local power <= -1) raises NonIntegrableError.  The error estimate
    satisfies err <= tol*(1+|value|) or NumericsError is raised.
    """
    if not b > a:
        raise ValueError("integrate_finite requires a < b")
    mid = 0.5 * (a + b)
    v1, e1 = _quad_piece(fn, a, mid, tol * 0.25, "left")
    v2, e2 = _quad_piece(fn, mid, b, tol * 0.25, "right")
    value, err = v1 + v2, e1 + e2
    if not math.isfinite(value):
        _raise_if_not_integrable(fn, a, b)
        raise NumericsError("quadrature produced a non-finite value")
    if err > tol * (1.0 + abs(value)):
        # one refinement pass before declaring failure
        v1, e1 = _quad_piece(fn, a, mid, tol * 0.02, "left")
        v2, e2 = _quad_piece(fn, mid, b, tol * 0.02, "right")
        value, err = v1 + v2, e1 + e2
        if err > tol * (1.0 + abs(value)):
            _raise_if_not_integrable(fn, a, b)
            raise NumericsError("max subdivision exceeded without reaching tolerance")
    return value, err


# ---------------------------------------------------------------------------
# Improper-integral classification
# ---------------------------------------------------------------------------

def _is_zero_function(fn, points) -> bool:
    for t in points:
        if fn(t) != 0.0:
            return False
    return True


def _geometric_samples(fn, start: float, factor: float, max_count: int = 49):
    ts, fs = [], []
    t = start
    for _ in range(max_count):
        if not math.isfinite(t) or t <= 0.0:
            break
        try:
            v = fn(t)
        except OverflowError:
            break
        if v is None or isinstance(v, complex):
            break
        if v < 0.0:
            raise ValueError(f"classifier integrand is negative at t={t!r}")
        if v == 0.0 or not math.isfinite(v) or v >= 1e300:
            break
        ts.append(t)
        fs.append(v)
        t *= factor
    return ts, fs


def _fit_slope(ts, fs, count: int = 10) -> float:
    k = min(count, len(ts))
    x = np.log(np.asarray(ts[-k:]))
    y = np.log(np.asarray(fs[-k:]))
    return float(np.polyfit(x, y, 1)[0])


def _log_substituted(fn):
    """g(w) = fn(e^w) e^w, the integrand after t = e^w.

    Points where fn fails or is not finite contribute 0: beyond the sampled
    range the integrand may degenerate in float arithmetic, and the
    caller's power-law remainder bound covers them.
    """
    def g(w):
        try:
            v = fn(math.exp(w))
        except (OverflowError, ValueError, ZeroDivisionError):
            return 0.0
        return v * math.exp(w) if math.isfinite(v) else 0.0

    return g


def _cap_value(fn, t_cap: float) -> float:
    """fn at the cut-off of a log-substituted integral; 0 if it fails or is not finite."""
    try:
        f_cap = fn(t_cap)
    except Exception:
        return 0.0
    return f_cap if f_cap and math.isfinite(f_cap) else 0.0


def _panel_fallback(fn, edges, tol: float, slope: float, quad_tol: float):
    """Direct doubling-panel summation with a geometric tail test."""
    panels = []
    errs = 0.0
    for lo, hi in edges:
        v, e = integrate_finite(fn, lo, hi, quad_tol)
        panels.append(v)
        errs += e
        if v <= 0.0:
            break
    total = float(np.sum(panels))
    diag = {"panels": len(panels), "partial_sum": total}
    if len(panels) >= 10:
        recent = [panels[i + 1] / panels[i] for i in range(len(panels) - 7, len(panels) - 1)
                  if panels[i] > 0.0]
        if recent:
            diag["recent_ratios"] = [round(r, 6) for r in recent]
            if min(recent) >= 0.98:
                return ConvergenceVerdict.divergent(slope, **diag)
            if max(recent) <= 0.97:
                r = max(recent)
                tail = panels[-1] * r / (1.0 - r)
                if tail + errs <= tol * (1.0 + total + tail):
                    return ConvergenceVerdict.convergent(total + tail, tail + errs,
                                                         slope=slope, **diag)
                diag["tail_estimate"] = tail
    return ConvergenceVerdict.inconclusive(slope=slope, **diag)


def classify_tail_integral(fn, a: float, tol: float = 1e-8) -> ConvergenceVerdict:
    """Classify the convergence of the tail integral of fn over [a, inf).

    Samples fn at a*2^j, fits the log-log slope s of the last 10 points;
    s < -1-delta integrates head and tail (log substitution) and returns
    Convergent; s > -1+delta returns Divergent(s); inside the band a direct
    doubling-panel summation decides, else Inconclusive.  delta = 0.05.
    """
    if a <= 0.0:
        raise ValueError("tail classification starts at a > 0")
    if _is_zero_function(fn, [a, 2.0 * a, 8.0 * a, 64.0 * a]):
        return ConvergenceVerdict.convergent(0.0, 0.0, slope=None, zero=True)
    ts, fs = _geometric_samples(fn, a, 2.0)
    if len(ts) < 4:
        return ConvergenceVerdict.inconclusive(samples=len(ts))
    slope = _fit_slope(ts, fs)
    if slope < -1.0 - SLOPE_BAND:
        quad_tol = min(tol * 0.25, 1e-9)
        w_lo, w_hi = math.log(a), math.log(ts[-1])
        g = _log_substituted(fn)
        head, e1 = integrate_finite(g, w_lo, w_hi, quad_tol) if w_hi > w_lo else (0.0, 0.0)
        w_cap = 690.0
        tail, e2 = (0.0, 0.0)
        if w_hi < w_cap:
            tail, e2 = integrate_finite(g, w_hi, w_cap, quad_tol)
        # power-law bound on the remainder past the cap, with a pessimistic
        # slope from the drift between the two fitting windows
        s2 = _fit_slope(ts, fs, count=min(20, len(ts)))
        s_p = min(-1.0 - 1e-3, slope + 2.0 * abs(slope - s2))
        t_cap = math.exp(w_cap)
        rem = _cap_value(fn, t_cap) * t_cap / (-1.0 - s_p)
        value = head + tail
        return ConvergenceVerdict.convergent(value, e1 + e2 + rem, slope=slope)
    if slope > -1.0 + SLOPE_BAND:
        return ConvergenceVerdict.divergent(slope)
    edges = [(a * 2.0 ** j, a * 2.0 ** (j + 1)) for j in range(FALLBACK_PANELS)]
    return _panel_fallback(fn, edges, tol, slope, quad_tol=min(tol, 1e-9))


def classify_origin_integral(fn, b: float, tol: float = 1e-8) -> ConvergenceVerdict:
    """Mirror of the tail classifier for the integral of fn over (0, b]."""
    if b <= 0.0:
        raise ValueError("origin classification needs b > 0")
    if _is_zero_function(fn, [b, b / 2.0, b / 8.0, b / 64.0]):
        return ConvergenceVerdict.convergent(0.0, 0.0, slope=None, zero=True)
    ts, fs = _geometric_samples(fn, b, 0.5)
    if len(ts) < 4:
        return ConvergenceVerdict.inconclusive(samples=len(ts))
    slope = _fit_slope(ts, fs)
    if slope > -1.0 + SLOPE_BAND:
        quad_tol = min(tol * 0.25, 1e-9)
        w_lo, w_hi = -690.0, math.log(b)
        value, e1 = integrate_finite(_log_substituted(fn), w_lo, w_hi, quad_tol)
        t_cap = math.exp(w_lo)
        rem = _cap_value(fn, t_cap) * t_cap / (1.0 + min(slope, 0.0) + 1e-12)
        return ConvergenceVerdict.convergent(value, e1 + abs(rem), slope=slope)
    if slope < -1.0 - SLOPE_BAND:
        return ConvergenceVerdict.divergent(slope)
    edges = [(b * 2.0 ** (-(j + 1)), b * 2.0 ** (-j)) for j in range(FALLBACK_PANELS)]
    return _panel_fallback(fn, edges, tol, slope, quad_tol=min(tol, 1e-9))


# ---------------------------------------------------------------------------
# Monotone root finding
# ---------------------------------------------------------------------------

def find_root_monotone(fn, target: float, lo: float, hi: float, tol: float = 1e-12,
                       width_tol: float | None = None) -> float:
    """Solve fn(x) = target for monotone fn on [lo, hi].

    If (lo, hi) does not bracket the target, hi is pushed out by doubling
    the interval width up to 60 times.  Hybrid bisection/secant; stops when
    |fn(x)-target| <= tol or the bracket width <= tol*(1+|x|).  Callers
    whose fn is steeply sensitive can decouple the two criteria by passing
    an explicit width_tol.
    """
    if not hi > lo:
        raise ValueError("find_root_monotone requires lo < hi")
    glo = fn(lo) - target
    ghi = fn(hi) - target
    if glo == 0.0:
        return lo
    expansions = 0
    while glo * ghi > 0.0 and expansions < 60:
        width = hi - lo
        hi = hi + width
        ghi = fn(hi) - target
        expansions += 1
    if glo * ghi > 0.0:
        raise BracketError(
            f"could not bracket target {target!r} after {expansions} expansions (hi={hi!r})"
        )
    if ghi == 0.0:
        return hi
    if width_tol is None:
        width_tol = tol
    # Illinois-accelerated regula falsi with periodic bisection safeguards
    side = 0
    for iteration in range(200):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if ghi != glo and iteration % 4 != 3:
            secant = lo - glo * width / (ghi - glo)
            if lo + 1e-3 * width < secant < hi - 1e-3 * width:
                mid = secant
        gm = fn(mid) - target
        if abs(gm) <= tol or width <= width_tol * (1.0 + abs(mid)):
            return mid
        if glo * gm <= 0.0:
            hi, ghi = mid, gm
            if side == +1:
                glo *= 0.5  # stale left endpoint: pull the secant over
            side = +1
        else:
            lo, glo = mid, gm
            if side == -1:
                ghi *= 0.5
            side = -1
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Radial initial value problems
# ---------------------------------------------------------------------------

def series_start(source, u0: float, N: int, eps: float, du0: float = 0.0):
    """Start point (r, (u, u')) of a radial shot from the origin.

    N = 1 starts at the origin itself.  For N >= 2 the second-order series
    u(eps) ~ u0 + du0*eps + source(0,u0,0) eps^2/(2N) steps past the (N-1)/r
    singularity.
    """
    if N == 1:
        return 0.0, (u0, du0)
    g0 = source(0.0, u0, 0.0)
    return eps, (u0 + du0 * eps + g0 * eps * eps / (2.0 * N), du0 + g0 * eps / N)


def _terminal(event):
    event.terminal = True
    event.direction = -1
    return event


def shoot(source, N: int, r_start: float, y0, r_end: float, method: str, rtol: float,
          atol: float, floors=(), cap: float | None = None, blowup: float | None = None,
          dense: bool = False):
    """Integrate u'' + (N-1)/r u' = source(r, u, u') from (r_start, y0) to r_end.

    The drift term is dropped at r = 0.  Terminal events, in t_events order:
    u falls to each level in floors, u rises to cap, max(|u|, |u'|) reaches
    blowup.  Returns the scipy OdeResult.
    """
    if N == 1:
        def f(r, y):
            return (y[1], source(r, y[0], y[1]))
    else:
        def f(r, y):
            val = source(r, y[0], y[1])
            if r > 0.0:
                val -= (N - 1) / r * y[1]
            return (y[1], val)

    events = [_terminal(lambda r, y, level=level: y[0] - level) for level in floors]
    if cap is not None:
        events.append(_terminal(lambda r, y: cap - y[0]))
    if blowup is not None:
        events.append(_terminal(lambda r, y: blowup - max(abs(y[0]), abs(y[1]))))
    return solve_ivp(f, (r_start, r_end), y0, method=method, rtol=rtol, atol=atol,
                     dense_output=dense, events=events or None)


def integrate_radial_ivp(rhs, u0: float, du0: float, N: int, r_max: float,
                         tol: float = 1e-10, blowup_threshold: float = BLOWUP_THRESHOLD,
                         n_points: int = 513) -> RadialSolution:
    """Integrate u'' + (N-1)/r u' = rhs(r, u, u') from the origin.

    For N >= 2 the first step uses the series u(eps) ~ u0 + du0*eps +
    rhs(0,u0,0) eps^2/(2N) at eps = 1e-6*r_max, which keeps the local error
    below the integrator tolerance while skipping the (N-1)/r singularity.
    Integration stops early with classification boundary-blowup when |u| or
    |u'| exceeds blowup_threshold; the event radius comes from the solver's
    inverse interpolation.
    """
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")

    r_start, y0 = series_start(rhs, u0, N, 1e-6 * r_max, du0)
    rtol = max(tol, 1e-13)
    sol = shoot(rhs, N, r_start, y0, r_max, "RK45", rtol, rtol * 1e-3,
                blowup=blowup_threshold, dense=True)
    if sol.status == -1:
        raise NumericsError(f"radial IVP integrator failed: {sol.message}")

    blew_up = sol.status == 1 and sol.t_events[0].size > 0
    r_end = float(sol.t_events[0][0]) if blew_up else r_max
    grid = np.linspace(r_start, r_end, n_points)
    vals = sol.sol(grid)
    classification = BOUNDARY_BLOWUP if blew_up else BOUNDED
    return RadialSolution(
        dimension=N,
        r=grid,
        u=vals[0],
        du=vals[1],
        classification=classification,
        blowup_radius=r_end if blew_up else None,
        metadata={"nfev": int(sol.nfev), "start": r_start, "rtol": rtol},
    )
