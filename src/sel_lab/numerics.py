"""Shared numerical kernels.

Adaptive quadrature with endpoint-singularity grading, improper-integral
convergence classification (tail and origin), monotone root finding, and the
radial shooting kernel: `shoot` integrates u'' + (N-1)/r u' = F(r, u, u')
with terminal floor, cap and blow-up events (every ODE solve of the package
goes through it; RK45 shots run a plain-float Dormand-Prince kernel, DOP853
shots scipy's solve_ivp), `series_start` steps past the (N-1)/r origin
singularity, and `integrate_radial_ivp` builds graded solutions on top of both.

All functions here are pure over immutable inputs; no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45, quad, solve_ivp
from scipy.optimize import brentq

from .ioutil import write_csv

# Slope band half-width for the +-1 borderline of the classifiers.
SLOPE_BAND = 0.05
# Direct-summation fallback: number of doubling panels before giving up.
FALLBACK_PANELS = 40
# Default blow-up threshold for the radial IVP (and its derivative).
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


# Dormand-Prince 5(4) as in scipy's RK45: nodes, stage weights, solution
# weights, error weights and the quartic dense-output matrix, as Python floats
_C = RK45.C.tolist()
_A = RK45.A.tolist()
_B = RK45.B.tolist()
_E = RK45.E.tolist()
# columns of P without its zero second row: Q_j = sum_k K_k P[k][j]
_P_COLUMNS = [tuple(row[j] for i, row in enumerate(RK45.P.tolist()) if i != 1)
              for j in range(4)]
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2 ** 0.5
# scipy's solve_ivp messages, by status
_MESSAGES = {-1: "Required step size is less than spacing between numbers.",
             0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred."}


def _quartic(k1, k3, k4, k5, k6, k7):
    """Dense-output coefficients of one component from its stage slopes."""
    return [k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7
            for p1, p3, p4, p5, p6, p7 in _P_COLUMNS]


def _interpolate(step, r):
    """(u, u') at r on one step (r_old, h, u_old, v_old, Q_u, Q_v):
    y_old + h sum_j Q_j x^(j+1) with x = (r - r_old)/h."""
    r_old, h, u_old, v_old, (a1, a2, a3, a4), (b1, b2, b3, b4) = step
    x = (r - r_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return (h * (a1 * x + a2 * x2 + a3 * x3 + a4 * x4) + u_old,
            h * (b1 * x + b2 * x2 + b3 * x3 + b4 * x4) + v_old)


class _QuarticSolution:
    """Continuous solution from the per-step quartics, evaluated over numpy
    arrays; a breakpoint takes the earlier step, points outside the range
    the nearest end step."""

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts, dtype=float)
        r_old, h, u_old, v_old, qu, qv = (np.array(col) for col in zip(*steps))
        self.r_old, self.h = r_old, h
        self.y_old = np.stack([u_old, v_old], axis=-1)
        self.q = np.stack([qu, qv], axis=1)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, r, side="left") - 1, 0, self.h.size - 1)
        x = (r - self.r_old[seg]) / self.h[seg]
        powers = np.cumprod(np.stack([x, x, x, x], axis=-1), axis=-1)
        y = (self.h[seg][..., None] * np.einsum("...ij,...j->...i", self.q[seg], powers)
             + self.y_old[seg])
        return np.moveaxis(y, -1, 0)


@dataclass
class ShotResult:
    """One RK45 shot, with the fields of scipy's OdeResult that callers read
    plus the step counts."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    sol: _QuarticSolution | None
    status: int
    message: str
    nfev: int
    steps_accepted: int
    steps_rejected: int

    @property
    def success(self) -> bool:
        return self.status >= 0


def _dopri5(acc, r0, y0, r_end, rtol, atol, events, dense) -> ShotResult:
    """Integrate u' = v, v' = acc(r, u, v) from (r0, y0) to r_end > r0.

    Plain-float Dormand-Prince 5(4) that mirrors scipy's RK45 step for step
    (initial step, RMS error norm, step-size control, minimum step), so its
    results match scipy's up to rounding.  Every event g(u, v) is terminal
    and fires when g falls through zero on a step (g_old >= 0 >= g_new); it
    is located on the step's quartic interpolant and the earliest root ends
    the shot.  Squares are x * x, so an overflow gives inf or nan and a
    rejected step rather than an exception.
    """
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    c2, c3, c4, c5 = _C[1:5]
    a21 = _A[1][0]
    a31, a32 = _A[2][:2]
    a41, a42, a43 = _A[3][:3]
    a51, a52, a53, a54 = _A[4][:4]
    a61, a62, a63, a64, a65 = _A[5]
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E

    # the slope at the current point and the initial step (Hairer-Norsett-
    # Wanner II.4, as scipy's select_initial_step with error order 4)
    r = r0
    k1u, k1v = v, acc(r, u, v)
    interval = r_end - r0
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = math.sqrt((u / su) * (u / su) + (v / sv) * (v / sv)) / _SQRT2
    d1 = math.sqrt((k1u / su) * (k1u / su) + (k1v / sv) * (k1v / sv)) / _SQRT2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    u1, v1 = u + h0 * k1u, v + h0 * k1v
    du, dv = (v1 - k1u) / su, (acc(r + h0, u1, v1) - k1v) / sv
    # h0 underflows to 0 when d1 is huge; the first step is then the minimum step
    d2 = math.sqrt(du * du + dv * dv) / _SQRT2 / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_next = min(100 * h0, h1, interval)
    nfev = 2

    ts, us, vs = [r], [u], [v]
    steps = []
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    g_old = [g(u, v) for g in events]
    accepted = rejected = 0
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h = max(h_next, min_step)
        step_rejected = False
        while True:
            if not h >= min_step:  # also a nan step, where scipy's loop never ends
                status = -1
                break
            r_new = min(r + h, r_end)
            h = r_new - r
            u2 = u + (a21 * k1u) * h
            v2 = v + (a21 * k1v) * h
            k2u, k2v = v2, acc(r + c2 * h, u2, v2)
            u3 = u + (a31 * k1u + a32 * k2u) * h
            v3 = v + (a31 * k1v + a32 * k2v) * h
            k3u, k3v = v3, acc(r + c3 * h, u3, v3)
            u4 = u + (a41 * k1u + a42 * k2u + a43 * k3u) * h
            v4 = v + (a41 * k1v + a42 * k2v + a43 * k3v) * h
            k4u, k4v = v4, acc(r + c4 * h, u4, v4)
            u5 = u + (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u) * h
            v5 = v + (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v) * h
            k5u, k5v = v5, acc(r + c5 * h, u5, v5)
            u6 = u + (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u) * h
            v6 = v + (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v) * h
            k6u, k6v = v6, acc(r + h, u6, v6)
            u_new = u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            v_new = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            k7u, k7v = v_new, acc(r + h, u_new, v_new)
            nfev += 6
            eu = ((e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u) * h
                  / (atol + max(abs(u), abs(u_new)) * rtol))
            ev = ((e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v) * h
                  / (atol + max(abs(v), abs(v_new)) * rtol))
            error_norm = math.sqrt(eu * eu + ev * ev) / _SQRT2
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.2)
                h_next = h * (min(1.0, factor) if step_rejected else factor)
                break
            h *= max(0.2, 0.9 * error_norm ** -0.2)
            step_rejected = True
            rejected += 1
        if status is not None:
            break

        accepted += 1
        g_new = [g(u_new, v_new) for g in events]
        active = [i for i, (before, after) in enumerate(zip(g_old, g_new))
                  if before >= 0.0 >= after]
        g_old = g_new
        if dense or active:
            step = (r, h, u, v, _quartic(k1u, k3u, k4u, k5u, k6u, k7u),
                    _quartic(k1v, k3v, k4v, k5v, k6v, k7v))
            if dense:
                steps.append(step)
        r_old = r
        r, u, v = r_new, u_new, v_new
        k1u, k1v = k7u, k7v
        if r >= r_end:
            status = 0
        if active:
            root, i = min((brentq(lambda x, g=events[i]: g(*_interpolate(step, x)),
                                  r_old, r, xtol=4 * _EPS, rtol=4 * _EPS), i)
                          for i in active)
            r, (u, v) = root, _interpolate(step, root)
            t_events[i].append(root)
            y_events[i].append((u, v))
            status = 1
        if dense and len(ts) > 1 and ts[-1] == r:
            steps.pop()
        else:
            ts.append(r)
            us.append(u)
            vs.append(v)

    return ShotResult(
        t=np.array(ts), y=np.array([us, vs]),
        t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events],
        sol=_QuarticSolution(ts, steps) if dense and steps else None,
        status=status, message=_MESSAGES[status],
        nfev=nfev, steps_accepted=accepted, steps_rejected=rejected)


def shoot(source, N: int, r_start: float, y0, r_end: float, method: str, rtol: float,
          atol: float, floors=(), cap: float | None = None, blowup: float | None = None,
          dense: bool = False):
    """Integrate u'' + (N-1)/r u' = source(r, u, u') from (r_start, y0) to r_end.

    The drift term is dropped at r = 0.  Terminal events, in t_events order:
    u falls to each level in floors, u rises to cap, max(|u|, |u'|) reaches
    blowup.  method "RK45" runs the plain-float Dormand-Prince kernel and
    returns a ShotResult (with step counts); "DOP853" runs scipy's solve_ivp
    and returns its OdeResult.
    """
    if N == 1:
        acc = source
    else:
        def acc(r, u, du):
            val = source(r, u, du)
            if r > 0.0:
                val -= (N - 1) / r * du
            return val

    events = [lambda u, du, level=level: u - level for level in floors]
    if cap is not None:
        events.append(lambda u, du: cap - u)
    if blowup is not None:
        events.append(lambda u, du: blowup - max(abs(u), abs(du)))
    if method == "RK45":
        return _dopri5(acc, r_start, y0, r_end, rtol, atol, events, dense)
    return solve_ivp(lambda r, y: (y[1], acc(r, y[0], y[1])), (r_start, r_end), y0,
                     method=method, rtol=rtol, atol=atol, dense_output=dense,
                     events=[_terminal(lambda r, y, g=g: g(y[0], y[1])) for g in events]
                     or None)


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
        metadata={"nfev": sol.nfev, "steps_accepted": sol.steps_accepted,
                  "steps_rejected": sol.steps_rejected, "start": r_start, "rtol": rtol},
    )
