"""Shared numerical kernels.

Adaptive quadrature with endpoint-singularity grading (integrate_finite:
each graded half bisected on the 15-point Gauss-Kronrod panel, an end it
cannot close read as the tail of its t -> end + 1/s image), that panel
rule with a fallback to it (integrate_panel) and the same rule over
many panels in one array evaluation (integrate_panels, no fallback: it
reports which panels pass) with the integrals of the degree-14
interpolant its 15 samples fix, one improper-integral classifier for
tails [a, inf) (a = 0 means the integral over [0, inf)): Bertrand's test
on one least-squares fit ln fn = A ln t + B ln ln t + c, which decides the
verdict and bounds the remainder past the last sample, and a convergent
value by a composite Gauss-Kronrod rule on geometric w = ln t panels,
bisected in numpy where they fail.  The samples and each level of that
rule are one array call of the integrand's array form (`many`: ScalarFn's
vector back end, or an Integrand); a plain callable is mapped node by
node.  It also classifies an origin integral over (0, b] as its t -> 1/s
image.  Then bracketed root finding, and the radial shooting kernel:
`shoot` integrates u'' + (N-1)/r u' = F(r, u, u') with terminal floor
and cap events.  Every ODE solve of the package goes through it, on
DOP853 over plain floats.  The whole step loop (stages, error norm, step
control, the drift (N-1)/r u' and three event slots: floor 0, floor 1,
cap) is one function generated at import from DOP853's tables, one for
N = 1 and one for N >= 2; it calls the problem's source and returns to
Python only at the end of the interval, at the minimum step or on a step
where an event fires.  `shoot` then locates the event, ends the shot
there and returns a `ShotResult` that names the slot that fired, with its
step and RHS-call counts.  `series_start` steps past the (N-1)/r origin
singularity, and `bessel_psi` sums the regular solution of -Delta w = w.

All functions here are pure over immutable inputs; no global state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ports
from .expr import EvalDomainError, ScalarFn
from .ioutil import write_csv

# Band half-width around the borderline of a fitted power: -1 for the tail
# classifier, 1 for karamata's growth constant m.
SLOPE_BAND = 0.05
# A Bertrand fit that misses by no more than this is exact: A decides in the band.
EXACT_MISFIT = 1e-9
# The smallest normal float: a tail sample below it has lost its precision.
_TINY = float(np.finfo(float).tiny)
# Quadrature tolerances of the tail classifier: its tail after t = e^w, and
# the [0, 1] head of an integral over [0, inf).
_TAIL_QUAD_TOL, _HEAD_QUAD_TOL = 1e-9, 1e-8

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


class SampleError(ValueError):
    """The ScalarFn `fn` fails a hypothesis at one of its samples."""

    def __init__(self, message: str, fn: ScalarFn):
        super().__init__(message)
        self.fn = fn


def refuse_samples(fn: ScalarFn, what: str, bad, points, /, var: str = "t", **values) -> None:
    """Raise SampleError for fn at the first sample where the mask bad holds, as
    "what (var = x: name = v, ...)": its point and values (arrays, or one for all)."""
    bad = np.asarray(bad)
    if bad.any():
        i = int(bad.argmax())
        x, *vs = (float(v[i] if np.ndim(v) else v) for v in (points, *values.values()))
        named = ", ".join(f"{name} = {v!r}" for name, v in zip(values, vs))
        raise SampleError(f"{what} ({var} = {x!r}: {named})", fn)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of an improper-integral classification.

    Convergent carries (value, err): err bounds |value - integral| by the
    quadrature error plus the remainder past the last sample from the
    fitted (A, B), so on slowly converging tails it can exceed the
    quadrature tolerance.  slope is the fitted power A of the tail
    classifier (for an origin integral, fn's local power at 0);
    diagnostics hold A, B, the misfit and the w range of the fit.
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
        write_csv(path, ",".join(name for name, _ in cols), [col for _, col in cols], comments)


# ---------------------------------------------------------------------------
# Finite-interval adaptive quadrature
# ---------------------------------------------------------------------------

# The most panels a graded half of integrate_finite is cut into (QUADPACK's
# limit), and its narrowest panel, relative to |t| at the centre: there the
# nodes lie thousands of ulps apart, short of landing on an interior pole.
_PANEL_LIMIT, _PANEL_FLOOR = 200, 2.0 ** -36


def _kronrod_panel(g, a: float, b: float):
    """(value, err) of g over (a, b) in Python floats: integrate_panel's
    Kronrod value in its float operations and qk15's scaled estimate as
    _gk15 forms it (inf where the value is not finite)."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fs = [g(centre)]
    kronrod, gauss = _GK15_CENTRE[0] * fs[0], _GK15_CENTRE[1] * fs[0]
    for x, wk, wg in _GK15:
        dx = half * x
        fs += (g(centre - dx), g(centre + dx))
        pair = fs[-2] + fs[-1]
        kronrod += wk * pair
        gauss += wg * pair
    value, mean = kronrod * half, 0.5 * kronrod
    if not math.isfinite(value):
        return value, math.inf
    resabs, resasc = _GK15_CENTRE[0] * abs(fs[0]), _GK15_CENTRE[0] * abs(fs[0] - mean)
    for (_, wk, _), f1, f2 in zip(_GK15, fs[1::2], fs[2::2]):
        resabs += wk * (abs(f1) + abs(f2))
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    raw, resabs, resasc = abs(kronrod - gauss) * half, resabs * half, resasc * half
    err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5) if resasc > 0.0 and raw > 0.0 else raw
    return value, max(err, 50.0 * _EPS * resabs)


def _quad_piece(fn, a: float, b: float, tol: float, toward: str):
    """Integrate with a cubic grading substitution toward one endpoint.

    toward='left' maps t = a + (b-a) w^3, concentrating nodes near a; this
    turns an integrable power singularity t^-p into w^(2-3p).  Bisection
    over w in (0, 1), from two panels, halves the largest error estimate
    (_kronrod_panel) until they sum to at most tol (1 + |value|); a panel
    that is not finite, narrower than _PANEL_FLOOR of its t or past
    _PANEL_LIMIT ends it: at w = 0 the piece goes to the end's image
    (_end_integral), elsewhere it is a NumericsError.  Endpoints themselves
    are never evaluated.
    """
    width = b - a
    if width <= 0.0:
        return 0.0, 0.0
    end, step = (a, width) if toward == "left" else (b, -width)

    # when w^3 underflows the graded argument collapses onto the endpoint;
    # for any integrable singularity the limit of the graded integrand is 0
    def g(w):
        t = end + step * w ** 3
        if t == end:
            return 0.0
        return 3.0 * width * w * w * fn(t)

    (v1, e1), (v2, e2) = _kronrod_panel(g, 0.0, 0.5), _kronrod_panel(g, 0.5, 1.0)
    panels = [(-e1, 0.0, 0.5, v1), (-e2, 0.5, 1.0, v2)]  # (-err, lo, hi, value)
    heapq.heapify(panels)  # the largest estimate first
    value, err = v1 + v2, e1 + e2
    while not err <= tol * (1.0 + abs(value)):
        e, lo, hi, v = panels[0]
        mid = 0.5 * (lo + hi)
        if (len(panels) == _PANEL_LIMIT or not math.isfinite(v - e) or not
                width * (hi ** 3 - lo ** 3) > _PANEL_FLOOR * abs(end + step * mid ** 3)):
            if lo == 0.0:
                return _end_integral(fn, end, step, tol, toward, -1.0 if v < 0.0 else 1.0)
            raise NumericsError("max subdivision exceeded without reaching tolerance")
        (v1, e1), (v2, e2) = _kronrod_panel(g, lo, mid), _kronrod_panel(g, mid, hi)
        heapq.heapreplace(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        value += v1 + v2 - v
        err += e1 + e2 + e
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def _end_integral(fn, end: float, step: float, tol: float, toward: str, sign: float):
    """(value, err) of sign fn from end to end + step, sign its sign near
    the end, as the tail of its image (_end_image) from s = 1/|step|:
    Bertrand's test on the image's samples decides (divergent is a
    NonIntegrableError, undecided a NumericsError), _integrate_log_tail
    integrates it up to the last sample, and the fitted remainder past
    that (_end_remainder) is added to the value and its bound to err.
    """
    image = _end_image(fn if sign > 0.0 else (lambda t: -fn(t)), end, math.copysign(1.0, step))
    s0 = 1.0 / abs(step)
    try:
        ts, fs = _tail_samples(image, s0)
    except ValueError as exc:  # a negative sample, or fn failing at one
        raise NumericsError(f"the image of the {toward} endpoint: {exc}") from exc
    fit = bertrand_tail(ts, fs)
    if fit is None or fit[0] is None:
        raise NumericsError(f"the {toward} endpoint is undecided ({len(ts)} image samples)")
    if not fit[0]:
        raise NonIntegrableError(f"non-integrable singularity at the {toward} endpoint "
                                 f"(local power {-2.0 - fit[2]:.3f})")
    top = math.log(ts[-1])
    value, err = _integrate_log_tail(image, [w for w in _panel_edges(s0) if w < top] + [top],
                                     tol, ts[-1])
    rem, rem_err = _end_remainder(fit[3], ts[-1], fs[-1])
    return sign * (value + rem), err + rem_err


def _raise_if_not_integrable(fn, a: float, b: float) -> None:
    """Raise NonIntegrableError when fn's local power at an end of (a, b) is
    <= -1: both slopes of ln|fn| over the distances d, d/2, d/4 from the end,
    d = 2^-60 of the width or, if larger, 2^-30 |end|, deep enough that a
    log factor hardly bends them (t^-0.95 ln(1/t)^2 reads -0.998).  A first
    slope above -1, or fn failing there, passes the end in two calls."""
    width = b - a
    for end, x, sign in (("left", a, 1.0), ("right", b, -1.0)):
        d = max(width * 2.0 ** -60, abs(x) * 2.0 ** -30)
        if not 4.0 * d < width:
            continue
        slopes, last = [], None
        for t in (x + sign * d, x + sign * 0.5 * d, x + sign * 0.25 * d):
            try:
                v = abs(fn(t))
            except (ArithmeticError, ValueError):
                break
            if not 0.0 < v < math.inf:
                break
            point = (math.log(abs(t - x)), math.log(v))
            if last is not None:
                slopes.append((point[1] - last[1]) / (point[0] - last[0]))
                if slopes[-1] > -1.0 + 1e-9:
                    break
            last = point
        else:
            raise NonIntegrableError(f"non-integrable singularity at the {end} endpoint "
                                     f"(local power {max(slopes):.3f})")


def integrate_finite(fn, a: float, b: float, tol: float = 1e-10):
    """Adaptive quadrature of fn on (a, b); returns (value, err).

    Integrable endpoint power singularities are allowed; a non-integrable
    one (local power <= -1) raises NonIntegrableError.  Each half of (a, b)
    is graded toward its end and bisected (_quad_piece), or read off the
    end's image (_end_integral).  The error estimate satisfies
    err <= tol*(1+|value|) or NumericsError is raised.
    """
    if not b > a:
        raise ValueError("integrate_finite requires a < b")
    # before the bisection, which can overflow near a divergent end (t^-2
    # at a tiny t) before the end's image has decided it
    _raise_if_not_integrable(fn, a, b)
    mid = 0.5 * (a + b)
    v1, e1 = _quad_piece(fn, a, mid, tol * 0.25, "left")
    v2, e2 = _quad_piece(fn, mid, b, tol * 0.25, "right")
    value, err = v1 + v2, e1 + e2
    if not math.isfinite(value):
        raise NumericsError("quadrature produced a non-finite value")
    if err > tol * (1.0 + abs(value)):
        # one refinement pass before declaring failure
        v1, e1 = _quad_piece(fn, a, mid, tol * 0.02, "left")
        v2, e2 = _quad_piece(fn, mid, b, tol * 0.02, "right")
        value, err = v1 + v2, e1 + e2
        if err > tol * (1.0 + abs(value)):
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
# the columns of _GK15 as arrays, for integrate_panels
_GK15_NODES, _GK15_KRONROD, _GK15_GAUSS = (np.array(col) for col in zip(*_GK15))
# the Kronrod weights in _gk15's node order: centre, then -x, +x per node
_GK15_ROW = np.array([_GK15_CENTRE[0], *np.repeat(_GK15_KRONROD, 2)])


def _legendre(x: float, n: int) -> list:
    """P_0(x), ..., P_(n-1)(x) by Bonnet's recurrence."""
    p = [1.0, x]
    for m in range(1, n - 1):
        p.append(((2 * m + 1) * x * p[m] - m * p[m - 1]) / (m + 1))
    return p[:n]


def _gk15_interpolation():
    """(partial, tail): the constants of the degree-14 interpolant of 15 node
    values on [-1, 1], nodes in _gk15's order (a panel's 15 Kronrod samples
    fix it, and its integrals are exact to rounding wherever the panel's
    |K15 - G7| meets a tight tolerance: QUADPACK, sec. 2.2).

    partial[i] is the column of int_{-1}^{x_j} l_i over the nodes x_j, a
    (15, 1) array, l_i the Lagrange basis on the nodes, so int_{-1}^{x_j}
    of the interpolant of f is sum_i partial[i][j] f_i.
    tail[i] holds the Legendre coefficients (degree 0..15) of
    int_x^1 l_i, so int_x^1 of the interpolant has the coefficients
    sum_i tail[i] f_i, read at any x by _legendre_sum.  The Legendre
    coefficients of the l_i come from the Legendre-Vandermonde matrix
    P_m(x_j), inverted by Gauss-Jordan elimination in Python floats (its
    condition number is about 60), and every later sum is correctly rounded
    by fsum: the constants are the same bytes wherever IEEE floats are,
    whatever the BLAS or LAPACK build.
    """
    xs = [0.0]
    for x, _, _ in _GK15:
        xs += [-x, x]
    n = len(xs)
    rows = [_legendre(x, n) + [float(i == j) for i in range(n)] for j, x in enumerate(xs)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    # coef[m][i]: the coefficient of P_m in l_i; int_{-1}^x P_0 = P_0 + P_1
    # and int_{-1}^x P_m = (P_(m+1) - P_(m-1))/(2m+1) for m >= 1
    coef = [row[n:] for row in rows]
    lift = [[0.0] * n for _ in range(n + 1)]  # lift[r][m]: P_r in int_{-1}^x P_m
    lift[0][0] = lift[1][0] = 1.0
    for m in range(1, n):
        lift[m + 1][m], lift[m - 1][m] = 1.0 / (2 * m + 1), -1.0 / (2 * m + 1)
    anti = [[math.fsum(lift[r][m] * coef[m][i] for m in range(n)) for i in range(n)]
            for r in range(n + 1)]
    # int_x^1 l_i = int_{-1}^1 l_i - int_{-1}^x l_i, and P_r(1) = 1
    total = [math.fsum(anti[r][i] for r in range(n + 1)) for i in range(n)]
    tail = tuple(tuple(float(r == 0) * total[i] - anti[r][i] for r in range(n + 1))
                 for i in range(n))
    ps = [_legendre(x, n + 1) for x in xs]
    partial = tuple(np.array([[math.fsum(map(float.__mul__, column, p))] for p in ps])
                    for column in zip(*anti))
    return partial, tail


_GK15_PARTIAL, _GK15_TAIL = _gk15_interpolation()
# Clenshaw's recurrence of the Legendre sums: P_(m+1) = A_m x P_m + B_m P_(m-1)
_LEGENDRE_A = tuple((2 * m + 1) / (m + 1) for m in range(16))
_LEGENDRE_B = tuple(-m / (m + 1) for m in range(17))


def _legendre_sum(coef, x: float) -> float:
    """sum_m coef[m] P_m(x) by Clenshaw's recurrence, from the top down."""
    b1 = b2 = 0.0
    for m in range(len(coef) - 1, 0, -1):
        b1, b2 = coef[m] + _LEGENDRE_A[m] * x * b1 + _LEGENDRE_B[m + 1] * b2, b1
    return coef[0] + x * b1 - 0.5 * b2


def _gk15_tail_coefficients(values) -> list:
    """The Legendre coefficients of int_x^1 of the interpolant of the 15
    node values (_GK15_TAIL), each a running sum over the nodes in order."""
    coef = [0.0] * 16
    for v, column in zip(values, _GK15_TAIL):
        coef = [c + w * v for c, w in zip(coef, column)]
    return coef


def _gk15_partials(fv):
    """int_{-1}^{x_j} of the interpolant of each row of fv, an (n, 15) array
    of node values in _gk15's order, as an (n, 15) array: a running sum over
    the nodes in order, no matrix product, so the bytes do not depend on
    the BLAS kernel."""
    rows = fv.T.copy()  # node i's values over the panels, contiguous
    with np.errstate(all="ignore"):
        acc = _GK15_PARTIAL[0] * rows[0]
        term = np.empty_like(acc)
        for column, row in zip(_GK15_PARTIAL[1:], rows[1:]):
            np.multiply(column, row, out=term)
            acc += term
    return acc.T


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


def _gk15_nodes(a, b):
    """(nodes, half): the (n, 15) array of the Kronrod nodes of the panels
    (a[i], b[i]) in integrate_panel's order, centre first, then -x and +x
    per node of _GK15, and the panels' half-widths."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        dx = half[:, None] * _GK15_NODES
        nodes = np.empty((a.size, 15))
        nodes[:, 0] = centre
        nodes[:, 1::2] = centre[:, None] - dx
        nodes[:, 2::2] = centre[:, None] + dx
    return nodes, half


def _gk15_sums(fv, half):
    """(values, errs, kronrod): the Kronrod values of the rows of fv, an (n, 15)
    array of node values in _gk15_nodes's order, with their raw estimates
    |K15 - G7| and the unscaled Kronrod sums.  The sums are integrate_panel's
    float operations in its order (a running sum, not a pairwise one)."""
    with np.errstate(all="ignore"):
        pair = fv[:, 1::2] + fv[:, 2::2]
        kp, gp = (_GK15_KRONROD * pair).T, (_GK15_GAUSS * pair).T
        kronrod, gauss = _GK15_CENTRE[0] * fv[:, 0], _GK15_CENTRE[1] * fv[:, 0]
        for j in range(7):  # a running sum in integrate_panel's order
            kronrod = kronrod + kp[j]
            gauss = gauss + gp[j]
        return kronrod * half, np.abs(kronrod - gauss) * half, kronrod


def _gk15_ok(values, errs, tol: float):
    """integrate_panel's acceptance test of each panel: a finite value whose
    raw estimate is <= tol*(1+|value|)."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(values) & (errs <= tol * (1.0 + np.abs(values)))


def _gk15(vec, a, b, scaled: bool = False):
    """integrate_panel's rule over the panels (a[i], b[i]) at once; returns
    the arrays (values, errs) of the Kronrod values and the raw estimates
    |K15 - G7|, and with scaled=True (values, errs, scaled), with
    QUADPACK's scaled estimates too.

    vec is called once on the (n, 15) array of every panel's nodes in
    integrate_panel's order (_gk15_nodes); its exceptions propagate.  A
    panel's value is integrate_panel's wherever vec agrees with fn
    (_gk15_sums).  The scaled estimate is qk15's: with
    resasc the Kronrod-weighted |f - mean f| and resabs the Kronrod-weighted
    |f|, both summed as _gk15_sums sums the values (no matrix product, so
    the bytes do not depend on the BLAS kernel), it is
    resasc min(1, (200 raw / resasc)^1.5), and at least
    50 eps resabs.  It is far below the raw one on a smooth panel and
    near resasc on a panel that holds a jump, where the raw one can fall
    short of the true error.
    """
    nodes, half = _gk15_nodes(a, b)
    with np.errstate(all="ignore"):
        fv = vec(nodes)
    values, raw, kronrod = _gk15_sums(fv, half)
    if not scaled:
        return values, raw
    with np.errstate(all="ignore"):
        resabs = _gk15_sums(np.abs(fv), half)[0]
        resasc = _gk15_sums(np.abs(fv - 0.5 * kronrod[:, None]), half)[0]
        est = np.where((resasc > 0.0) & (raw > 0.0),
                       resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5), raw)
        return values, raw, np.maximum(est, 50.0 * _EPS * resabs)


def integrate_panels(vec, a, b, tol: float = 1e-10):
    """integrate_panel's rule over the panels (a[i], b[i]) at once; returns
    (values, ok), arrays with one entry per panel.

    vec is an array evaluator of fn (ScalarFn.vector()), called once on all
    the nodes (_gk15); its exceptions propagate.  ok is integrate_panel's
    acceptance test; a panel that fails it is left to the caller, with no
    fallback here.
    """
    value, err = _gk15(vec, a, b)
    return value, _gk15_ok(value, err, tol)


# ---------------------------------------------------------------------------
# Improper-integral classification
# ---------------------------------------------------------------------------

def _is_zero_function(fn, a: float) -> bool:
    """fn reads 0 at a, 2a, 8a and 64a, for a below ~7e13 only: further out,
    a function that underflows at those points can still integrate over
    [a, 64a] to a normal float (t^-2 from 1e300 integrates to 1e-300)."""
    if not 64.0 * a * math.ulp(0.0) < _TINY:
        return False
    return all(fn(t) == 0.0 for t in (a, 2.0 * a, 8.0 * a, 64.0 * a))


class Integrand:
    """A scalar integrand with its array form: fn(t) at one point and
    fn.many(ts) at an array of points, an array of ts's shape, as ScalarFn
    has them.  The classifiers read every sample and every quadrature node
    through many where an integrand has it; a plain callable is mapped
    node by node.  negative(t), where given, raises the SampleError of the
    expression the integrand is made from for a negative sample at t."""

    __slots__ = ("scalar", "many", "negative")

    def __init__(self, scalar, many, negative=None):
        self.scalar, self.many, self.negative = scalar, many, negative

    def __call__(self, t: float) -> float:
        return self.scalar(t)


# The geometric samples of a tail: t = a 2^j for j < _GEOMETRIC.
_GEOMETRIC = 49


def _sample_points(a: float) -> list:
    """t = a 2^j for j < _GEOMETRIC, then with w = ln t up by 10 % a step to
    w = 690."""
    ts = [a * 2.0 ** j for j in range(_GEOMETRIC)]
    w = max(math.log(ts[-1]), 1.0)
    while w * 1.1 <= 690.0:
        w *= 1.1
        ts.append(math.exp(w))
    return ts


def _tail_samples(fn, a: float, lead_zeros: bool = False, array: bool = True):
    """(ts, fs): fn at _sample_points(a), up to the first value that is 0,
    subnormal, >= 1e300 or not finite, or where fn overflows or (past the
    geometric samples) fails; with lead_zeros, the zeros before the first
    positive value are skipped; a negative value before that is a ValueError
    (SampleError for a ScalarFn or an Integrand with `negative`).  With
    array, an fn with an array form (`many`) is evaluated in one array call,
    and point by point when that call raises."""
    ts = _sample_points(a)
    values = None
    if array and hasattr(fn, "many"):
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(fn.many(np.array(ts)), dtype=float).tolist()
        except Exception:  # noqa: BLE001 - the point-by-point pass decides
            pass
    start, fs = 0, []
    for j, t in enumerate(ts):
        if values is not None:
            v = values[j]
        else:
            try:
                v = fn(t)
            except (ArithmeticError, ValueError) as exc:
                if j < _GEOMETRIC and not isinstance(exc, OverflowError):
                    raise
                break
        if v < 0.0:
            if isinstance(fn, ScalarFn):  # an expression its caller can name
                refuse_samples(fn, "the sampled function is negative", True, t, fn=v)
            if getattr(fn, "negative", None) is not None:
                fn.negative(t)
            raise ValueError(f"the sampled function is negative at t={t!r}")
        if v == 0.0 and lead_zeros and not fs:
            start = j + 1
            continue
        if not _TINY <= v < 1e300:
            break
        fs.append(v)
    return ts[start:start + len(fs)], fs


def _fit_window(w) -> int:
    """The first index of a tail fit's window over ascending w = ln t: the
    samples with w >= max(1, w_last/4), at least the last four with w > 0."""
    return max(min(int(np.searchsorted(w, max(1.0, w[-1] / 4.0))), w.size - 4),
               int(np.searchsorted(w, 0.0, side="right")))


def _lstsq3(cols, y):
    """(coef, misfit): the least-squares coefficients (c0, c1, c2) of y on
    three linearly independent columns cols, and the largest residual
    |c0 col0 + c1 col1 + c2 col2 - y|.

    Modified Gram-Schmidt on [cols | y], the right-hand side taken along
    as a fourth column (Bjorck, Numerical Methods for Least Squares
    Problems, 1996, sec. 2.4), then back substitution.  Every dot product
    is a correctly rounded fsum and every update an elementwise array
    operation, with no BLAS or LAPACK call: the same bytes on every BLAS
    kernel.
    """
    q = [*cols, y]
    r = [[0.0] * 4 for _ in range(3)]
    for j in range(3):
        r[j][j] = math.sqrt(math.fsum((q[j] * q[j]).tolist()))
        q[j] = q[j] / r[j][j]
        for k in range(j + 1, 4):
            r[j][k] = math.fsum((q[j] * q[k]).tolist())
            q[k] = q[k] - r[j][k] * q[j]
    coef = [0.0] * 3
    for j in (2, 1, 0):
        coef[j] = (r[j][3] - math.fsum(r[j][k] * coef[k] for k in range(j + 1, 3))) / r[j][j]
    c0, c1, c2 = coef
    misfit = float(np.max(np.abs(c0 * cols[0] + c1 * cols[1] + c2 * cols[2] - y)))
    return coef, misfit


def _bertrand_fit(ts, fs):
    """Least-squares (A, B, diagnostics) of ln fn = A w + B ln w + c, w = ln t,
    over the window of _fit_window (_lstsq3); the misfit is the largest residual.
    None below three samples in the window."""
    if len(ts) < 3:
        return None
    w = np.log(ts)
    start = _fit_window(w)
    if w.size - start < 3:
        return None
    w, y = w[start:], np.log(fs[start:])
    (A, B, _), misfit = _lstsq3((w, np.log(w), np.ones_like(w)), y)
    return A, B, {"a": A, "b": B, "misfit": misfit, "w_range": [float(w[0]), float(w[-1])]}


def _inverse_log_fit(ts, ys):
    """Least-squares (L, tail, misfit) of y = L + c1/w + c2/w^2, w = ln t,
    over _bertrand_fit's window (_lstsq3); tail is c1/w + c2/w^2 at the last sample
    and the misfit the largest residual.  None below four samples in the
    window, one more than the fit's parameters."""
    w = np.log(ts)
    start = _fit_window(w) if w.size >= 4 else 0
    if w.size - start < 4:
        return None
    x = w[start] / w[start:]  # 1/w scaled to (0, 1]
    y = np.asarray(ys[start:], dtype=float)
    coef, misfit = _lstsq3((np.ones_like(x), x, x * x), y)
    return coef[0], float(coef[1] * x[-1] + coef[2] * x[-1] ** 2), misfit


def _resolution(diag) -> float:
    """How closely a fit resolves its A and B: the misfit, in [1e-9, 1e-3]."""
    return min(1e-3, max(diag["misfit"], 1e-9))


def _near_one(diag) -> bool:
    """A fit's A is -1 within its resolution."""
    return abs(diag["a"] + 1.0) <= _resolution(diag)


def bertrand_remainder(diag, t: float, value: float) -> float:
    """The integral past t of an integrand whose convergent Bertrand fit
    has the diagnostics diag and whose value at t is value:
    value t/(-1-A), or value t ln t/(-1-B) when A ~ -1."""
    if _near_one(diag):
        return value * t * (math.log(t) / (-1.0 - diag["b"]))
    return value * t * (1.0 / (-1.0 - diag["a"]))


def _end_remainder(diag, t: float, value: float):
    """(rem, err): the integral past t of an integrand with the convergent
    Bertrand fit diag and the value value at t, and a bound on its error.

    The fit's shape s^A (ln s)^B makes it value t/lam E(1 + q x)^B, x ~ e^-x,
    lam = -1 - A, q = 1/(lam ln t); by Taylor's theorem the expectation is
    1 + B q + B (B-1) q^2 th, th between 1 and (1 - (B-2) q)^-3, read at
    their mean.  With A = -1 within the fit's resolution, rem is
    bertrand_remainder's, exact at A = -1, and err bounds what a decay
    e^(-|A+1| ln s) takes off it.  err adds the misfit as a relative error
    of the shape, grown past the window as a quadratic within the misfit on
    it may grow (Markov: 8 misfit per window span, in ln s or, at A ~ -1,
    in ln ln s).
    """
    A, B, misfit = diag["a"], diag["b"], diag["misfit"]
    w, w0 = math.log(t), diag["w_range"][0]
    base = bertrand_remainder(diag, t, value)
    if _near_one(diag):
        # int_w^inf min(1, x u/w) u^(-1-beta) du over base's is at most this
        beta, x = -1.0 - B, min(1.0, abs(A + 1.0) * w)
        decay = x ** min(beta, 1.0) * (1.0 - beta * math.log(x)) if x > 0.0 else 0.0
        return base, abs(base) * (decay + misfit * (1.0 + 8.0 / (beta * math.log(w / w0))))
    lam = -1.0 - A
    q = 1.0 / (lam * w)
    if not (B - 2.0) * q < 1.0:
        return base, math.inf
    c, k = B * (B - 1.0) * q * q, (1.0 - (B - 2.0) * q) ** -3
    return (base * (1.0 + B * q + 0.5 * c * (1.0 + k)),
            abs(base) * (0.5 * abs(c * (k - 1.0)) + misfit * (1.0 + 8.0 / (lam * (w - w0)))))


def bertrand_tail(ts, fs):
    """The Bertrand fit of tail samples (ts, fs) of an integrand
    (_bertrand_fit) read as (converges, remainder, A, diag), or None below
    three samples.  A decides outside the band |A + 1| <= SLOPE_BAND, and
    inside it when the fit is exact (misfit <= 1e-9).  B decides when A is
    -1 within the fit's resolution (_near_one): B < -1.1 converges,
    B > -0.9 diverges.  converges is None where neither decides.  A
    convergent fit's remainder is bertrand_remainder at the last sample;
    otherwise it is None.
    """
    fit = _bertrand_fit(ts, fs)
    if fit is None:
        return None
    A, B, diag = fit
    near_one = _near_one(diag)
    if near_one and not -1.1 <= B <= -0.9:
        converges = B < -1.0
    elif not near_one and (abs(A + 1.0) > SLOPE_BAND or diag["misfit"] <= EXACT_MISFIT):
        converges = A < -1.0
    else:
        return None, None, A, diag
    rem = bertrand_remainder(diag, ts[-1], fs[-1]) if converges else None
    return converges, rem, A, diag


def _log_integrand(fn, w, last: float) -> np.ndarray:
    """g(w) = fn(e^w) e^w at the array w, the integrand after t = e^w.

    The node rule: where fn overflows, divides by zero, raises any other
    ValueError or is not finite, g is 0.  Past the last finite sample the
    integrand has degenerated in float arithmetic, and the remainder bound
    from the fit covers those points.  A point outside fn's domain
    (EvalDomainError) is a failure, not a zero, and propagates, except past
    the sample `last`, where one at_zero has degenerated too.  An fn with an
    array form (`many`) is evaluated in one array call; a call that raises
    anything but EvalDomainError, or one past `last`, is redone node by node.
    """
    t = np.exp(w)
    v = None
    with np.errstate(all="ignore"):
        if hasattr(fn, "many"):
            try:
                v = np.asarray(fn.many(t), dtype=float)
            except EvalDomainError:
                if not np.any(t > last):
                    raise
            except Exception:  # noqa: BLE001 - redone node by node
                pass
        if v is None:
            v = np.array([_node(fn, x, last) for x in t.ravel().tolist()],
                         dtype=float).reshape(t.shape)
        g = v * t
    return np.where(np.isfinite(g), g, 0.0)


def _node(fn, t: float, last: float) -> float:
    """fn(t) under _log_integrand's node rule."""
    try:
        return fn(t)
    except EvalDomainError as exc:
        if t > last and exc.at_zero:
            return 0.0
        raise
    except (OverflowError, ValueError, ZeroDivisionError):
        return 0.0


# ln of the largest float: the tail quadrature's nodes stay below it.
_LN_MAX = math.log(np.finfo(float).max)
# Bisection levels of the tail quadrature, and the most panels one level may hold.
_TAIL_DEPTH, _TAIL_PANELS = 40, 4096


def _panel_edges(a: float) -> list:
    """The first panel edges of the tail quadrature in w = ln t, every
    second geometric sample point and every third one after them: t = a 4^j
    up to a 2^48, then w up by 33.1 % a step.  The last edge is w = 690, or
    a 2^48 where that is further, and never past _LN_MAX."""
    w0, step = math.log(a), math.log(4.0)
    edges = [w0 + j * step for j in range(_GEOMETRIC // 2 + 1)]
    w = max(edges[-1], 1.0)
    while w * 1.331 <= 690.0:
        w *= 1.331
        edges.append(w)
    top = min(max(edges[-1], 690.0), _LN_MAX)
    return [w for w in edges if w < top] + [top]


def _integrate_log_tail(fn, edges, tol: float, last: float):
    """(value, err) of the integral of g = _log_integrand(fn, last) over w from
    edges[0] to edges[-1]: a composite 15-point Gauss-Kronrod rule on the
    panels between the edges, each level one array evaluation of g on the
    nodes of its open panels (Piessens et al., QUADPACK, 1983; Gonnet, ACM
    Comput. Surv. 44, 2012, art. 22).

    err is the sum of the panels' scaled estimates (qk15's, see _gk15),
    which bound a panel that holds a jump as well as a smooth one.  The
    rule stops once err <= tol (1 + |value|); until then a panel whose
    estimate exceeds its share of that budget, in proportion to its width,
    is bisected, and the others are kept.  Past _TAIL_DEPTH levels, or at
    more than _TAIL_PANELS open panels, it raises NumericsError.
    """
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    span = edges[-1] - edges[0]
    kept_v, kept_e = [], []
    for _ in range(_TAIL_DEPTH):
        v, _, e = _gk15(lambda w: _log_integrand(fn, w, last), lo, hi, scaled=True)
        value = math.fsum(kept_v + v.tolist())
        err = math.fsum(kept_e + e.tolist())
        budget = tol * (1.0 + abs(value))
        if err <= budget:
            return value, err
        keep = e <= budget * ((hi - lo) / span)
        kept_v += v[keep].tolist()
        kept_e += e[keep].tolist()
        lo, hi = lo[~keep], hi[~keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        if lo.size > _TAIL_PANELS:
            break
    raise NumericsError(f"tail quadrature short of its tolerance {tol!r} with "
                        f"{lo.size} panels open (error estimate {err:.3g})")


def classify_tail_integral(fn, a: float) -> ConvergenceVerdict:
    """Classify the convergence of the tail integral of fn over [a, inf).

    Bertrand's test (Bingham, Goldie & Teugels, Regular Variation, 1.5-1.6)
    on one fit ln fn = A ln t + B ln ln t + c (bertrand_tail) over samples
    up to t = e^690 or to where fn stops being a finite normal float; zeros
    of fn before its first positive sample are skipped.  A fit that does
    not decide is Inconclusive.  A convergent value integrates fn after
    t = e^w up to w = 690 (or to the last geometric sample, if further) by
    a composite Gauss-Kronrod rule over arrays, on geometric panels in w
    that are bisected where they fail (_integrate_log_tail on _panel_edges,
    at _TAIL_QUAD_TOL); err
    adds the fit's remainder past the last sample, so a run cut short by
    overflow is bounded, not read as 0; an err not below |value| is
    Inconclusive.  fn's array form (Integrand, ScalarFn) evaluates the
    samples in one call and each level of the rule in one more; a plain
    callable is mapped node by node.  a = 0 classifies the integral over
    [0, inf): the tail from 1 decides, and a convergent value includes the
    [0, 1] head (integrate_finite, at _HEAD_QUAD_TOL).
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"tail classification starts at a finite a >= 0, not {a!r}")
    if a == 0.0:
        verdict = classify_tail_integral(fn, 1.0)
        if not verdict.is_convergent:
            return verdict
        head, e_head = integrate_finite(fn, 0.0, 1.0, _HEAD_QUAD_TOL)
        return replace(verdict, value=verdict.value + head, err=verdict.err + e_head)
    if _is_zero_function(fn, a):
        return ConvergenceVerdict.convergent(0.0, 0.0, slope=None, zero=True)
    ts, fs = _tail_samples(fn, a, lead_zeros=True)
    fit = bertrand_tail(ts, fs)
    if fit is None:
        return ConvergenceVerdict.inconclusive(samples=len(ts))
    converges, rem, A, diag = fit
    if converges is None:
        return ConvergenceVerdict.inconclusive(slope=A, **diag)
    if not converges:
        return ConvergenceVerdict.divergent(A, **diag)
    value, err = _integrate_log_tail(fn, _panel_edges(a), _TAIL_QUAD_TOL, ts[-1])
    err += rem
    if not err < abs(value):
        return ConvergenceVerdict.inconclusive(slope=A, value_estimate=value,
                                               err_estimate=err, **diag)
    return ConvergenceVerdict.convergent(value, err, slope=A, **diag)


def _end_image(fn, end: float = 0.0, side: float = 1.0):
    """fn near end as a tail, s -> fn(end + side/s)/s^2: its integral from
    s = 1/d is fn's from end to end + side d.  A point that rounds onto end
    reads 0, with no call of fn.  At end 0, where none does, an fn's array
    form is kept (an Integrand naming a ScalarFn's negative samples)."""

    # / s / s, not / (s * s): the log substitution reaches s = e^690
    def image(s):
        t = end + side / s
        if t == end:
            return 0.0
        return fn(t) / s / s

    if end != 0.0 or not hasattr(fn, "many"):
        return image

    def many(s):
        return fn.many(side / s) / s / s

    def negative(s):  # the image is negative at s where fn is at side/s
        refuse_samples(fn, "the sampled function is negative", True, side / s, fn=fn(side / s))

    return Integrand(image, many, negative if isinstance(fn, ScalarFn) else None)


def classify_origin_integral(fn, b: float) -> ConvergenceVerdict:
    """Classify the integral of fn over (0, b] as the tail integral of its
    t = 1/s image fn(1/s)/s^2 from 1/b (_end_image), with an array form
    where fn has one.  The slope is fn's own local power at 0,
    p = -2 - (the image's tail slope): p > -1 converges.  The diagnostics
    are the image's fit, whose B is the power of ln(1/t).
    """
    if not 0.0 < b < math.inf:
        raise ValueError(f"origin classification needs a finite b > 0, not {b!r}")
    verdict = classify_tail_integral(_end_image(fn), 1.0 / b)
    if verdict.slope is None:
        return verdict
    return replace(verdict, slope=-2.0 - verdict.slope)


# ---------------------------------------------------------------------------
# Bracketed root finding
# ---------------------------------------------------------------------------

class _Converged(Exception):
    """Raised inside Brent's objective with a point that meets the residual stop."""


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

    def gap(x):
        g = known.pop(x) if x in known else fn(x) - target
        if math.isnan(g):
            raise NumericsError(f"root search for target {target!r}: fn is nan at x={x!r}")
        if abs(g) <= tol:
            raise _Converged(x)
        return g

    try:
        root, iterations, converged = ports.brentq(gap, lo, hi, width_tol,
                                                   max(width_tol, 4.0 * _EPS), 200)
    except _Converged as hit:
        return hit.args[0]
    if not converged:
        raise NumericsError(f"root search for target {target!r} did not converge on "
                            f"[{lo!r}, {hi!r}]: convergence error after {iterations} iterations")
    return root


# ---------------------------------------------------------------------------
# Radial initial value problems
# ---------------------------------------------------------------------------

def series_start(source, u0: float, N: int, eps: float):
    """Start point (r, (u, u')) of a radial shot from the origin with u'(0) = 0.

    N = 1 starts at the origin itself.  For N >= 2 the second-order series
    u(eps) ~ u0 + source(0,u0,0) eps^2/(2N) steps past the (N-1)/r
    singularity.
    """
    if N == 1:
        return 0.0, (u0, 0.0)
    g0 = source(0.0, u0, 0.0)
    return eps, (u0 + g0 * eps * eps / (2.0 * N), g0 * eps / N)


def bessel_psi(M: int, x):
    """psi_M(x) = sum_j (-x^2/4)^j / (j! (M/2)_j), a float or an array like x.

    The regular solution of -Delta w = w in dimension M with w(0) = 1:
    Gamma(M/2) (x/2)^(1-M/2) J_{M/2-1}(x) (Watson, Bessel Functions, 3.1;
    Abramowitz & Stegun 9.1.10), cos x for M = 1 and sin x / x for M = 3.
    Its slope is psi_M'(x) = -(x/M) psi_{M+2}(x).  The sum is nested
    (Horner) and runs until the terms at max |x| fall below 1e-17; on
    |x| <= 1 they fall like 4^-j/j!, so it is exact to rounding there.
    """
    q = 0.25 * x * x
    q_max, a = float(np.max(q)) if isinstance(q, np.ndarray) else q, 0.5 * M
    terms, term = 0, 1.0
    while term > 1e-17:  # the terms rise while j (a + j - 1) < q_max, then fall
        terms += 1
        term *= q_max / (terms * (a + terms - 1))
    total = 1.0
    for j in range(terms, 0, -1):
        total = 1.0 - q / (j * (a + j - 1)) * total
    return total


# The explicit Runge-Kutta pair as scipy runs it: DOP853 (Dormand-Prince
# 8(5,3), Hairer-Norsett-Wanner II.10, with degree-7 dense output from three
# extra stages).  Its tables are the literals of ports, and the whole step
# loop (stages, error norm, step control, drift and events) is generated
# once, at import, as straight-line code over Python floats.
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2 ** 0.5
# scipy's result messages, by status
_MESSAGES = {-1: "Required step size is less than spacing between numbers.",
             0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred."}
_STAGES = ports.DOP853_STAGES  # RHS calls of an attempted step: 12
_DENSE_STAGES = len(ports.DOP853_C_EXTRA)  # and of one step's interpolant: 3
_ERROR_EXPONENT = 1 / (ports.DOP853_ERROR_ORDER + 1)  # 1/8
# The three event slots, numbered as ShotResult.event, as g(u): u falls to
# floor 0 or 1, or rises to the cap.  An absent slot's level is -inf (floors)
# or +inf (cap): its g is never <= 0.  The step loop writes max(a, b) as the
# builtin evaluates it, b if b > a else a, and min(a, b) as b if b < a else
# a, nan included.
_GATES = ("{u} - lo0", "{u} - lo1", "cap - {u}")


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
    """Generate (run, slope) for one drift class from DOP853's tables:
    u'' at (r, u, u' = v) and the step loop.  run steps from (r, u, v)
    with slope f, trying h_next first, and appends each accepted step's
    end to ts, us, vs and, when dense, its interpolant (r, h, u, v, F rows
    of u, F rows of v) to steps.  It returns
    (status, accepted, rejected, r_new, step, fired) at r_end (status 0),
    at the minimum step (-1) or on a step where an event slot fires (1);
    only then are the last three that step's end, its interpolant and the
    three slots' flags, and the step's end is left to the caller.  The
    u-slope of each stage is that stage's v.
    """
    ku, kv = ["v"], ["f"]
    stages = _stage_lines(ports.DOP853_A, ports.DOP853_C, ku, kv, 2, drift)
    b, e5, e3 = ports.DOP853_B, ports.DOP853_E5, ports.DOP853_E3
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
    interpolant = _stage_lines(ports.DOP853_A_EXTRA, ports.DOP853_C_EXTRA, ku, kv,
                               len(ku) + 1, drift)
    rows = ports.DOP853_D
    interpolant += [
        "du = u_new - u",
        "dv = v_new - v",
        "step = (r, h, u, v, (du, h * v - du, 2 * du - h * (v_new + v), "
        f"{', '.join(f'h * ({_weighted(d, ku)})' for d in rows)}), "
        "(dv, h * f - dv, 2 * dv - h * (f_new + f), "
        f"{', '.join(f'h * ({_weighted(d, kv)})' for d in rows)}))"]

    exponent = -_ERROR_EXPONENT
    crossed = [f"g{i} >= 0.0 >= g{i}_new" for i in range(len(_GATES))]
    lines = [
        "def slope(source, d, r, u, v):",
        *_indent(_slope_lines("f", "r", "u", "v", drift), 1),
        "    return f",
        "",
        "def run(source, d, r, u, v, f, h_next, r_end, rtol, atol, lo0, lo1, cap,",
        "        dense, ts, us, vs, steps):",
        "    accepted = rejected = 0",
        "    au = abs(u)",
        "    av = abs(v)",
        *(f"    g{i} = {g.format(u='u')}" for i, g in enumerate(_GATES)),
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
        *(f"        g{i}_new = {g.format(u='u_new')}" for i, g in enumerate(_GATES)),
        f"        event = {' or '.join(crossed)}",
        "        if dense or event:",
        *_indent(interpolant, 3),
        "            if dense:",
        "                steps.append(step)",
        "            if event:",
        f"                return 1, accepted, rejected, r_new, step, ({', '.join(crossed)})",
        *(f"        {x} = {x}_new" for x in ("r", "u", "v", "f", "au", "av", "g0", "g1", "g2")),
        "        ts.append(r)",
        "        us.append(u)",
        "        vs.append(v)",
        "        if r >= r_end:",
        "            return 0, accepted, rejected, None, None, None"]
    env = {"_sqrt": math.sqrt, "_nextafter": math.nextafter, "_inf": math.inf}
    code = compile("\n".join(lines), f"<sel_lab DOP853 drift={drift}>", "exec")
    exec(code, env)  # noqa: S102 - own codegen
    return env["run"], env["slope"]


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
    """One shot of `shoot`: the accepted steps' ends (t, y = (u, u')), the
    slot that ended it (event: 0 or 1 for floors[0] or floors[1], 2 for the
    cap, None when no event did; the located root is the shot's last
    point), the dense solution, scipy's status and message, and the RHS
    calls and accepted and rejected step counts."""

    t: np.ndarray
    y: np.ndarray
    event: int | None
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
          floors=(), cap: float | None = None, dense: bool = False) -> ShotResult:
    """Integrate u'' + (N-1)/r u' = source(r, u, u') from (r_start, y0) to r_end > r_start.

    The drift term is dropped at r = 0.  Terminal events, numbered as
    ShotResult.event: u falls to floors[0] (0) or floors[1] (1), u rises to
    cap (2).  Every shot is a DOP853 (Dormand-Prince 8(5,3)) shot that
    mirrors scipy's solver step for step (initial step, error norm,
    step-size control, minimum step), so the results match scipy's up to
    rounding.  The step loop runs in one generated function per drift
    class, with the drift and the three event slots inline; it returns here
    only at r_end, at the minimum step (status -1, also for a nan source)
    or on a step where an event falls through zero, which is then located
    by Brent's method (ports.brentq) on the step's interpolant of u: the
    earliest root ends the shot and is its last point.  Squares are x * x,
    so an overflow gives inf or nan and a rejected step rather than an
    exception.  dense=True builds
    the continuous solution `sol`, at three more RHS calls per step.
    """
    if len(floors) > 2:
        raise ValueError("shoot takes at most two floors")
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    run, slope = _KERNELS[N > 1]
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

    # the levels of the event slots; absent slots never fire
    levels = (*floors, -math.inf, -math.inf)[:2] + (math.inf if cap is None else cap,)
    ts, us, vs, steps = [r], [u], [v], []
    status, accepted, rejected, r_new, step, fired = run(
        source, d, r, u, v, f, h_next, r_end, rtol, atol, *levels, dense, ts, us, vs, steps)
    event = None
    if status == 1:  # the earliest root on the step's interpolant ends the shot
        r_old, h, u_old, _, fu, _ = step

        def gap(j):  # slot j's g of u on the interpolant, as _GATES forms it
            level = levels[j]
            if j == 2:
                return lambda x: level - (_nested(fu, (x - r_old) / h) + u_old)
            return lambda x: _nested(fu, (x - r_old) / h) + u_old - level

        root = None
        for j in range(len(_GATES)):
            if fired[j]:
                x, iterations, converged = ports.brentq(gap(j), r_old, r_new,
                                                        4 * _EPS, 4 * _EPS, 100)
                if not converged:
                    raise NumericsError(f"event {j} not located on [{r_old!r}, {r_new!r}] "
                                        f"after {iterations} iterations")
                if root is None or x < root:
                    root, event = x, j
        u, v = _interpolate_nested(step, root)
        if dense and len(ts) > 1 and ts[-1] == root:
            steps.pop()
        else:
            ts.append(root)
            us.append(u)
            vs.append(v)

    interpolants = accepted if dense else status == 1
    return ShotResult(
        t=np.array(ts), y=np.array([us, vs]), event=event,
        sol=_DenseSolution(ts, steps) if dense and steps else None,
        status=status, message=_MESSAGES[status],
        nfev=2 + _STAGES * (accepted + rejected) + _DENSE_STAGES * interpolants,
        steps_accepted=accepted, steps_rejected=rejected)

