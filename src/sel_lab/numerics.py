"""Shared numerical kernels.

Adaptive quadrature with endpoint-singularity grading, a Gauss-Kronrod
panel rule that falls back to it, improper-integral convergence
classification (tail and origin), bracketed root finding, and the radial
shooting kernel: `shoot` integrates u'' + (N-1)/r u' = F(r, u, u')
with terminal floor, cap and blow-up events.  Every ODE solve of the package
goes through it, on DOP853 over plain floats.  The whole step loop (stages,
error norm, step control, the drift (N-1)/r u' and four event slots: floor
0, floor 1, cap, blow-up) is one function generated at import from scipy's
tables, one for N = 1 and one for N >= 2; it calls the problem's source and
returns to Python only at the end of the interval, at the minimum step or
on a step where an event fires.  `shoot` then locates the event and returns
a `ShotResult` with its step and RHS-call counts.  `series_start` steps past
the (N-1)/r origin singularity, and `integrate_radial_ivp` builds graded
solutions on top of both.

All functions here are pure over immutable inputs; no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, quad
from scipy.optimize import brentq

from .expr import EvalDomainError
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


# QUADPACK's qk15 (Piessens et al., QUADPACK, 1983, sec. 2.2): the nonnegative
# Kronrod nodes with their weights and the weights of the embedded 7-point
# Gauss rule (0 at the Kronrod-only nodes), outermost node first; the centre
# node last.
_GK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK15_CENTRE = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)


def integrate_panel(fn, a: float, b: float, tol: float = 1e-10):
    """Quadrature of fn over one smooth panel (a, b); returns (value, err).

    One 15-point Gauss-Kronrod rule, endpoints never evaluated.  The
    Kronrod value is accepted when it is finite and its raw error
    estimate |K15 - G7| is <= tol*(1+|K15|), integrate_finite's own test.
    Otherwise, and when fn raises ArithmeticError at a node, the panel goes
    to integrate_finite; any other exception of fn propagates.
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    try:
        fc = fn(centre)
        kronrod, gauss = _GK15_CENTRE[0] * fc, _GK15_CENTRE[1] * fc
        for x, wk, wg in _GK15:
            dx = half * x
            pair = fn(centre - dx) + fn(centre + dx)
            kronrod += wk * pair
            gauss += wg * pair
    except ArithmeticError:
        return integrate_finite(fn, a, b, tol)
    value, err = kronrod * half, abs(kronrod - gauss) * half
    if math.isfinite(value) and err <= tol * (1.0 + abs(value)):
        return value, err
    return integrate_finite(fn, a, b, tol)


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

    Points where fn overflows or is not finite contribute 0: beyond the
    sampled range the integrand may degenerate in float arithmetic, and the
    caller's power-law remainder bound covers them.  A point outside fn's
    domain (EvalDomainError) is a failure, not a zero, and propagates.
    """
    def g(w):
        try:
            v = fn(math.exp(w))
        except EvalDomainError:
            raise
        except (OverflowError, ValueError, ZeroDivisionError):
            return 0.0
        return v * math.exp(w) if math.isfinite(v) else 0.0

    return g


def _cap_value(fn, t_cap: float) -> float:
    """fn at the cut-off of a log-substituted integral; 0 if it fails in float
    arithmetic or is not finite.  An EvalDomainError propagates."""
    try:
        f_cap = fn(t_cap)
    except EvalDomainError:
        raise
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
# Bracketed root finding
# ---------------------------------------------------------------------------

class _Converged(Exception):
    """Raised inside brentq's objective with a point that meets the residual stop."""


def find_root_monotone(fn, target: float, lo: float, hi: float, tol: float = 1e-12,
                       width_tol: float | None = None) -> float:
    """Solve fn(x) = target by Brent's method on a bracket of [lo, hi].

    fn need not be monotone: fn - target must change sign on the bracket.
    If (lo, hi) does not bracket the target, hi is pushed out by doubling
    the interval width up to 60 times.  Stops when |fn(x)-target| <= tol or
    the bracket width is below about width_tol*(1+|x|) (width_tol defaults
    to tol); callers whose fn is steeply sensitive decouple the two stops
    by passing width_tol.  Each point is evaluated once.  A search that
    meets a nan value of fn on the bracket, or does not converge, raises
    NumericsError.
    """
    if not hi > lo:
        raise ValueError("find_root_monotone requires lo < hi")
    glo = fn(lo) - target
    ghi = fn(hi) - target
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
    if width_tol is None:
        width_tol = tol
    known = {lo: glo, hi: ghi}

    def residual(x):
        g = known.pop(x) if x in known else fn(x) - target
        if math.isnan(g):
            raise NumericsError(f"root search for target {target!r}: fn is nan at x={x!r}")
        if abs(g) <= tol:
            raise _Converged(x)
        return g

    try:
        root, info = brentq(residual, lo, hi, xtol=width_tol,
                            rtol=max(width_tol, 4.0 * np.finfo(float).eps),
                            maxiter=200, full_output=True, disp=False)
    except _Converged as hit:
        return hit.args[0]
    if not info.converged:
        raise NumericsError(f"root search for target {target!r} did not converge on "
                            f"[{lo!r}, {hi!r}]: {info.flag} after {info.iterations} iterations")
    return root


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


# The explicit Runge-Kutta pair as scipy runs it: DOP853 (Dormand-Prince
# 8(5,3), Hairer-Norsett-Wanner II.10, with degree-7 dense output from three
# extra stages).  Its tables are read from scipy's class, and the whole step
# loop (stages, error norm, step control, drift and events) is generated
# once, at import, as straight-line code over Python floats.
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2 ** 0.5
# scipy's result messages, by status
_MESSAGES = {-1: "Required step size is less than spacing between numbers.",
             0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred."}
_STAGES = DOP853.n_stages  # RHS calls of an attempted step: 12
_DENSE_STAGES = len(DOP853.C_EXTRA)  # and of one step's interpolant: 3
_ERROR_EXPONENT = 1 / (DOP853.error_estimator_order + 1)  # 1/8
# The four event slots, in t_events order, as g(u, au = |u|, av = |u'|): u
# falls to floor 0 or 1, rises to the cap, max(|u|, |u'|) reaches the blow-up
# level.  An absent slot's level is -inf (floors) or +inf: its g is never <= 0.
# The step loop writes max(a, b) as the builtin evaluates it, b if b > a else
# a, and min(a, b) as b if b < a else a, nan included.
_GATES = ("{u} - lo0", "{u} - lo1", "cap - {u}", "blow - ({av} if {av} > {au} else {au})")


def _weighted(coefs, names) -> str:
    """Source of sum_k coefs[k] * names[k] over the nonzero coefficients, in order."""
    return " + ".join(f"{c!r} * {x}" for c, x in zip(coefs, names) if c)


def _slope_lines(f: str, r: str, u: str, v: str, drift: bool) -> list:
    """Source of f = u'' at (r, u, u' = v): the source, less the drift
    d/r u' (d = N - 1) for r > 0 when drift, with r taken once as rs."""
    if not drift:
        return [f"{f} = source({r}, {u}, {v})"]
    return [f"rs = {r}", f"{f} = source(rs, {u}, {v})", "if rs > 0.0:",
            f"    {f} -= d / rs * {v}"]


def _stage_lines(rows, nodes, ku, kv, first: int, drift: bool) -> list:
    """Source of the stages first, first + 1, ...: stage i has the state
    (u_i, v_i) = y + (sum_k a_ik K_k) h and the slope K_i = (v_i, f_i),
    which is appended to the slope names ku, kv."""
    lines = []
    for i, (a, c) in enumerate(zip(rows, nodes), start=first):
        lines += [f"u{i} = u + ({_weighted(a, ku)}) * h",
                  f"v{i} = v + ({_weighted(a, kv)}) * h",
                  *_slope_lines(f"f{i}", "r + h" if c == 1.0 else f"r + {c!r} * h",
                                f"u{i}", f"v{i}", drift)]
        ku.append(f"v{i}")
        kv.append(f"f{i}")
    return lines


def _indent(lines, depth: int) -> list:
    return ["    " * depth + line for line in lines]


def _compile_kernel(drift: bool):
    """Generate (run, slope, gates) for one drift class from scipy's DOP853
    tables: u'' at (r, u, u' = v), the four event functions, and the step
    loop.  run steps from (r, u, v) with slope f, trying h_next first, and
    appends each accepted step's end to ts, us, vs and, when dense, its
    interpolant (r, h, u, v, F rows of u, F rows of v) to steps.  It returns
    (status, accepted, rejected, r_new, step, fired) at r_end (status 0),
    at the minimum step (-1) or on a step where an event slot fires (1);
    only then are the last three that step's end, its interpolant and the
    four slots' flags, and the step's end is left to the caller.  The
    u-slope of each stage is that stage's v.
    """
    ku, kv = ["v"], ["f"]
    stages = _stage_lines(DOP853.A[1:].tolist(), DOP853.C[1:].tolist(), ku, kv, 2, drift)
    b, e5, e3 = DOP853.B.tolist(), DOP853.E5.tolist(), DOP853.E3.tolist()
    stages += [f"u_new = u + h * ({_weighted(b, ku)})",
               f"v_new = v + h * ({_weighted(b, kv)})",
               *_slope_lines("f_new", "r + h", "u_new", "v_new", drift),
               "au_new = abs(u_new)",
               "av_new = abs(v_new)",
               "su = atol + (au_new if au_new > au else au) * rtol",
               "sv = atol + (av_new if av_new > av else av) * rtol"]
    ku.append("v_new")
    kv.append("f_new")
    # the fifth-order estimate corrected by the third-order one (HNW II.10):
    # |h| |e5|^2 / sqrt(2 (|e5|^2 + |e3|^2/100)), norms of e/scale as scipy takes them
    stages += [f"e5u = ({_weighted(e5, ku)}) / su",
               f"e5v = ({_weighted(e5, kv)}) / sv",
               f"e3u = ({_weighted(e3, ku)}) / su",
               f"e3v = ({_weighted(e3, kv)}) / sv",
               "n5 = _sqrt(e5u * e5u + e5v * e5v)",
               "n3 = _sqrt(e3u * e3u + e3v * e3v)",
               "n5 = n5 * n5",
               "n3 = n3 * n3",
               "error_norm = h * n5 / _sqrt((n5 + 0.01 * n3) * 2) if n5 else 0.0"]
    # three extra stages, then scipy's F rows: y_new - y_old, h f_old - dy,
    # 2 dy - h (f_new + f_old) and h D K over all sixteen stages
    interpolant = _stage_lines(DOP853.A_EXTRA.tolist(), DOP853.C_EXTRA.tolist(), ku, kv,
                               len(ku) + 1, drift)
    rows = DOP853.D.tolist()
    interpolant += [
        "du = u_new - u",
        "dv = v_new - v",
        "step = (r, h, u, v, (du, h * v - du, 2 * du - h * (v_new + v), "
        f"{', '.join(f'h * ({_weighted(d, ku)})' for d in rows)}), "
        "(dv, h * f - dv, 2 * dv - h * (f_new + f), "
        f"{', '.join(f'h * ({_weighted(d, kv)})' for d in rows)}))"]

    def gate_exprs(u, au, av):
        return [g.format(u=u, au=au, av=av) for g in _GATES]

    exponent = -_ERROR_EXPONENT
    crossed = [f"g{i} >= 0.0 >= g{i}_new" for i in range(len(_GATES))]
    lines = [
        "def slope(source, d, r, u, v):",
        *_indent(_slope_lines("f", "r", "u", "v", drift), 1),
        "    return f",
        "",
        "def gates(u, v, lo0, lo1, cap, blow):",
        "    au = abs(u)",
        "    av = abs(v)",
        f"    return {', '.join(gate_exprs('u', 'au', 'av'))}",
        "",
        "def run(source, d, r, u, v, f, h_next, r_end, rtol, atol, lo0, lo1, cap, blow,",
        "        dense, ts, us, vs, steps):",
        "    accepted = rejected = 0",
        "    au = abs(u)",
        "    av = abs(v)",
        *(f"    g{i} = {g}" for i, g in enumerate(gate_exprs("u", "au", "av"))),
        "    while True:",
        "        min_step = 10.0 * (_nextafter(r, _inf) - r)",
        "        h = min_step if min_step > h_next else h_next",
        "        step_rejected = False",
        "        while True:",
        "            if not h >= min_step:  # also a nan step, where scipy's loop never ends",
        "                return -1, accepted, rejected, None, None, None",
        "            r_new = r + h",
        "            if r_end < r_new:",
        "                r_new = r_end",
        "            h = r_new - r",
        *_indent(stages, 3),
        "            if error_norm < 1.0:",
        f"                factor = 10.0 if error_norm == 0.0 else 0.9 * error_norm ** {exponent!r}",
        "                factor = factor if factor < 10.0 else 10.0",
        "                h_next = h * (factor if factor < 1.0 or not step_rejected else 1.0)",
        "                break",
        f"            factor = 0.9 * error_norm ** {exponent!r}",
        "            h *= factor if factor > 0.2 else 0.2",
        "            step_rejected = True",
        "            rejected += 1",
        "        accepted += 1",
        *(f"        g{i}_new = {g}"
          for i, g in enumerate(gate_exprs("u_new", "au_new", "av_new"))),
        f"        event = {' or '.join(crossed)}",
        "        if dense or event:",
        *_indent(interpolant, 3),
        "            if dense:",
        "                steps.append(step)",
        "            if event:",
        f"                return 1, accepted, rejected, r_new, step, ({', '.join(crossed)})",
        *(f"        {x} = {x}_new" for x in ("r", "u", "v", "f", "au", "av", "g0", "g1", "g2",
                                                "g3")),
        "        ts.append(r)",
        "        us.append(u)",
        "        vs.append(v)",
        "        if r >= r_end:",
        "            return 0, accepted, rejected, None, None, None"]
    env = {"_sqrt": math.sqrt, "_nextafter": math.nextafter, "_inf": math.inf}
    code = compile("\n".join(lines), f"<sel_lab DOP853 drift={drift}>", "exec")
    exec(code, env)  # noqa: S102 - own codegen
    return env["run"], env["slope"], env["gates"]


# the kernels without (N = 1) and with the drift term (N >= 2)
_KERNELS = {drift: _compile_kernel(drift) for drift in (False, True)}


def _nested(coefs, x):
    """scipy's DOP853 interpolant y - y_old = (((F_6 x + F_5)(1 - x) + F_4) x
    + ...) x, alternating x and 1 - x; floats or numpy arrays."""
    y = 0.0
    for j, c in enumerate(reversed(coefs)):
        y = (y + c) * (x if j % 2 == 0 else 1 - x)
    return y


def _nested_increment(x, coefs):
    """The interpolant over numpy arrays; coefs has the F rows last."""
    return _nested([coefs[..., j] for j in range(coefs.shape[-1])], x[..., None])


def _interpolate_nested(step, r):
    """(u, u') at r on one step (r_old, h, u_old, v_old, F_u, F_v)."""
    r_old, h, u_old, v_old, fu, fv = step
    x = (r - r_old) / h
    return _nested(fu, x) + u_old, _nested(fv, x) + v_old


class _DenseSolution:
    """Continuous solution from the per-step interpolants, evaluated over
    numpy arrays; a breakpoint takes the earlier step, points outside the
    range the nearest end step."""

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts, dtype=float)
        r_old, h, u_old, v_old, cu, cv = (np.array(col) for col in zip(*steps))
        self.r_old, self.h = r_old, h
        self.y_old = np.stack([u_old, v_old], axis=-1)
        self.coefs = np.stack([cu, cv], axis=1)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, r, side="left") - 1, 0, self.h.size - 1)
        x = (r - self.r_old[seg]) / self.h[seg]
        y = _nested_increment(x, self.coefs[seg]) + self.y_old[seg]
        return np.moveaxis(y, -1, 0)


@dataclass
class ShotResult:
    """One shot of `shoot`, with the fields of scipy's OdeResult that
    callers read plus the accepted and rejected step counts."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    sol: _DenseSolution | None
    status: int
    message: str
    nfev: int
    steps_accepted: int
    steps_rejected: int

    @property
    def success(self) -> bool:
        return self.status >= 0


@dataclass
class ShotTally:
    """Shots, steps and right-hand-side calls summed over the shots of one
    search."""

    shots: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_calls: int = 0

    def add(self, shot: ShotResult) -> ShotResult:
        self.shots += 1
        self.steps_accepted += shot.steps_accepted
        self.steps_rejected += shot.steps_rejected
        self.rhs_calls += shot.nfev
        return shot


def shoot(source, N: int, r_start: float, y0, r_end: float, rtol: float, atol: float,
          floors=(), cap: float | None = None, blowup: float | None = None,
          dense: bool = False) -> ShotResult:
    """Integrate u'' + (N-1)/r u' = source(r, u, u') from (r_start, y0) to r_end > r_start.

    The drift term is dropped at r = 0.  Terminal events, in t_events order:
    u falls to each level in floors (at most two), u rises to cap,
    max(|u|, |u'|) reaches blowup.  Every shot is a DOP853 (Dormand-Prince
    8(5,3)) shot that mirrors scipy's solver step for step (initial step,
    error norm, step-size control, minimum step), so the results match
    scipy's up to rounding.  The step loop runs in one generated function
    per drift class, with the drift and the four event slots inline; it
    returns here only at r_end, at the minimum step (status -1, also for a
    nan source) or on a step where an event falls through zero, which is
    then located by brentq on the step's interpolant (the earliest root
    ends the shot).  Squares are x * x, so an overflow gives inf or nan and
    a rejected step rather than an exception.  dense=True builds the
    continuous solution `sol`, at three more RHS calls per step.
    """
    if len(floors) > 2:
        raise ValueError("shoot takes at most two floors")
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    run, slope, gates = _KERNELS[N > 1]
    d = N - 1

    # the slope at the start and the initial step (Hairer-Norsett-Wanner
    # II.4, as scipy's select_initial_step)
    r = r_start
    f = slope(source, d, r, u, v)
    interval = r_end - r
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = math.sqrt((u / su) * (u / su) + (v / sv) * (v / sv)) / _SQRT2
    d1 = math.sqrt((v / su) * (v / su) + (f / sv) * (f / sv)) / _SQRT2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    u1, v1 = u + h0 * v, v + h0 * f
    du, dv = (v1 - v) / su, (slope(source, d, r + h0, u1, v1) - f) / sv
    # h0 underflows to 0 when d1 is huge; the first step is then the minimum step
    d2 = math.sqrt(du * du + dv * dv) / _SQRT2 / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ERROR_EXPONENT
    h_next = min(100 * h0, h1, interval)

    # slots[k] is the event slot of t_events[k]; absent slots never fire
    levels = ((*floors, -math.inf, -math.inf)[:2]
              + (math.inf if cap is None else cap, math.inf if blowup is None else blowup))
    slots = [*range(len(floors)), *[2] * (cap is not None), *[3] * (blowup is not None)]
    ts, us, vs, steps = [r], [u], [v], []
    status, accepted, rejected, r_new, step, fired = run(
        source, d, r, u, v, f, h_next, r_end, rtol, atol, *levels, dense, ts, us, vs, steps)
    t_events = [[] for _ in slots]
    y_events = [[] for _ in slots]
    if status == 1:  # the earliest root on the step's interpolant ends the shot
        root, k = min((brentq(lambda x, j=j: gates(*_interpolate_nested(step, x), *levels)[j],
                              step[0], r_new, xtol=4 * _EPS, rtol=4 * _EPS), k)
                      for k, j in enumerate(slots) if fired[j])
        u, v = _interpolate_nested(step, root)
        t_events[k].append(root)
        y_events[k].append((u, v))
        if dense and len(ts) > 1 and ts[-1] == root:
            steps.pop()
        else:
            ts.append(root)
            us.append(u)
            vs.append(v)

    interpolants = accepted if dense else status == 1
    return ShotResult(
        t=np.array(ts), y=np.array([us, vs]),
        t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events],
        sol=_DenseSolution(ts, steps) if dense and steps else None,
        status=status, message=_MESSAGES[status],
        nfev=2 + _STAGES * (accepted + rejected) + _DENSE_STAGES * interpolants,
        steps_accepted=accepted, steps_rejected=rejected)


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
    sol = shoot(rhs, N, r_start, y0, r_max, rtol, rtol * 1e-3,
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
