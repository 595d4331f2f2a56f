"""Eigenvalues, singular Lane-Emden-Fowler solves, and parameter sweeps.

The first Dirichlet eigenvalue of the radial Laplacian is scale invariant:
one shot of -Delta w = w from its exact series at x = 1 to its first zero
j gives lambda_1 = (j/R)^2, and a second shot at lambda_1 gives the
eigenfunction.
The singular boundary-value problems are solved by shooting on the center
value (ball) or the starting slope (interval), with the zero located through
an epsilon cut and a local linear model, and Brent's method on that
parameter (numerics.find_root_monotone).  Nonexistence is an audited verdict:
the shooting map has no sign change on a log grid of probes, nor at the
located maxima of the zero location, which also give the fold.  The
Gelfand substitution v = e^(lambda u) - 1 reduces the quadratic-convection
problem to an absorption problem, and the Young-inequality constant handles
1 < p < 2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .expr import EvalDomainError, ScalarFn, compose_scalar, const
from .ioutil import fmt, write_csv
from .karamata import Nonlinearity
from .numerics import (
    BOUNDED,
    NO_SOLUTION,
    NumericsError,
    RadialSolution,
    ShotTally,
    bessel_psi,
    find_root_monotone,
    refuse_samples,
    series_start,
    shoot,
)

EPS_BOUNDARY = 1e-6  # epsilon cut where integration stops and the zero is modelled
CUT_MARGIN = 10.0  # the bracket end past R must rise to CUT_MARGIN * EPS_BOUNDARY
R_CAP = 3.0  # shots end at r = R_CAP * R: a zero location past it is no zero
U_CAP = 1e9  # shots also end where u reaches U_CAP
S_MAX_PROBE = 1e6
# The coarse scan of the shooting searches: 14 probes a factor 10^(10/13)
# apart, from 1e-4 to S_MAX_PROBE.
PROBES = tuple(float(s) for s in np.geomspace(1e-4, S_MAX_PROBE, 14))
N_PROBES = len(PROBES)  # a full scan; bench/tracing.py counts those by it
EIGEN_START = 1.0  # where the eigen shots leave the series of w: below every j_{N/2-1,1}
EIGEN_AUDIT = 1e-9  # largest |phi(R)| of the eigenfunction, relative to max |phi|
EIGEN_MODES = ("ball", "interval")
LEF_GEOMETRIES = ("interval", "ball")


# ---------------------------------------------------------------------------
# First Dirichlet eigenvalue by shooting
# ---------------------------------------------------------------------------

@dataclass
class EigenResult:
    """lambda_1 with the eigenfunction table, normalized phi(0) = 1.

    For the N = 1 interval mode the normalization is phi'(0) = 1 instead
    (phi vanishes at both endpoints).  shots counts the unit shot to the
    first zero and the eigenfunction shot, with their accepted and rejected
    steps; phi_at_R is the eigenfunction shot's phi(R), which the audit
    bounds by EIGEN_AUDIT max |phi|.
    """

    lambda1: float
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    N: int
    R: float
    mode: str = "ball"
    shots: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0
    phi_at_R: float = math.nan

    def to_csv(self, path):
        write_csv(path, "r,phi", (self.r, self.phi), [f"lambda1={fmt(self.lambda1)}"])


def lambda1_ball(N: int, R: float, mode: str = "ball") -> EigenResult:
    """First Dirichlet eigenvalue of -Delta on the ball of radius R.

    mode='ball' solves the radial problem with phi'(0) = 0 (for N = 1 this
    is the symmetric interval (-R, R)); mode='interval' (N = 1 only) is
    the Dirichlet interval (0, R) with phi(0) = 0.  The eigenproblem is
    scale invariant: phi(r) = w(sqrt(lambda) r) with -Delta w = w, and
    below x = EIGEN_START the regular w is its exact series (bessel_psi):
    psi_N on the ball, x psi_3(x) = sin x on the interval.  One shot of w
    from EIGEN_START to its first zero j gives lambda_1 = (j/R)^2, with
    j = j_{N/2-1,1} >= pi/2 > EIGEN_START on the N-ball (Watson 15.2).  A
    second, dense shot at lambda_1 from r = EIGEN_START/sqrt(lambda_1) to R
    builds the eigenfunction table, whose rows below that start are the
    series; its phi(R) is the audit that the scaled zero carries over to R.
    """
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    if R <= 0.0:
        raise ValueError("radius must be positive")
    if mode not in EIGEN_MODES:
        raise ValueError("mode must be 'ball' or 'interval'")
    if mode == "interval" and N != 1:
        raise ValueError("interval mode is the 1-D Dirichlet analogue (N = 1)")

    def unit(x):
        """(w, w') at x, floats or arrays."""
        if mode == "interval":
            return x * bessel_psi(3, x), bessel_psi(1, x)
        return bessel_psi(N, x), -(x / N) * bessel_psi(N + 2, x)

    tally = ShotTally()

    def integrate(lam, start, y0, r_end, **kwargs):
        source = lambda r, u, du: -lam * u  # noqa: E731
        return tally.add(shoot(source, N, start, y0, r_end, 1e-13, 1e-14, **kwargs))

    w, dw = unit(EIGEN_START)
    span = 2.0 * N + 8.0  # past j_{N/2-1,1} < N + 2 and pi; the event ends the shot
    shot = integrate(1.0, EIGEN_START, (w, dw), span, floors=(0.0,))
    if shot.event is None:
        raise NumericsError(f"eigenvalue shot of -Delta w = w (N = {N}, mode {mode!r}) "
                            f"has no zero on (0, {span!r}]: {shot.message}")
    k = float(shot.t[-1]) / R
    lam = k * k
    # phi(r) = c w(k r): phi(0) = 1 on the ball, phi'(0) = 1 on the interval
    c = 1.0 / k if mode == "interval" else 1.0
    start = EIGEN_START / k
    sol = integrate(lam, start, (c * w, c * k * dw), R, dense=True)
    phi_at_r = float(sol.y[0, -1])
    if abs(phi_at_r) > EIGEN_AUDIT * float(np.max(np.abs(sol.y[0]))):
        raise NumericsError(f"eigenfunction at lambda_1 = {lam!r} (N = {N}, mode {mode!r}) "
                            f"misses its zero: phi(R = {R!r}) = {phi_at_r!r}")
    # the r column the eigen CSVs have: from 0 for N = 1, from 1e-6 R for N >= 2
    grid = np.linspace(0.0 if N == 1 else 1e-6 * R, R, 401)
    head = grid < start
    w, dw = unit(k * grid[head])
    vals = sol.sol(grid[~head])
    phi = np.concatenate((c * w, vals[0]))
    dphi = np.concatenate((c * k * dw, vals[1]))
    return EigenResult(lambda1=lam, r=grid, phi=phi, dphi=dphi, N=N, R=R,
                       mode=mode, shots=tally.shots,
                       steps_accepted=tally.steps_accepted,
                       steps_rejected=tally.steps_rejected, phi_at_R=phi_at_r)


def lambda1_domain(N: int, geometry: str, R: float = 1.0) -> float:
    """lambda_1 of an LEF domain: for N = 1 the interval (0, R) or the
    symmetric interval (-R, R) as geometry says, otherwise the N-ball."""
    return lambda1_ball(N, R, mode=geometry if N == 1 else "ball").lambda1


def lambda_inf_1(N: int, R0: float) -> float:
    """First Dirichlet eigenvalue of the concentric vanishing core.

    R0 = 0 means the core is empty and the eigenvalue is +inf.
    """
    if R0 < 0.0:
        raise ValueError("R0 must be nonnegative")
    if R0 == 0.0:
        return math.inf
    return lambda1_ball(N, R0).lambda1


# ---------------------------------------------------------------------------
# Lane-Emden-Fowler problems
# ---------------------------------------------------------------------------

@dataclass
class LEFProblem:
    """Singular Dirichlet problem -Delta u = RHS(x, u, u') on the unit ball
    or the 1-D interval (0, R).

    mode selects the right-hand side composition:
      absorption:        lam f(u) + a(x) g(u)
      two-param:         lam f(u) - K(x) g(u) + mu source(x)
      convection:        g(u) + lam |u'|^p + mu f(u)
      convection-absorb: lam f(u) - K(x) g(u) - |u'|^p
    The gradient power p must lie in [0, 2] (quadratic growth is the
    maximum principle's ceiling); with mu > 0, a source <= 0 at one of 17
    points of [0, R] is a SampleError.
    """

    N: int
    geometry: str = "interval"  # "interval" | "ball"
    R: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    f: Nonlinearity | None = None
    g: Nonlinearity | None = None
    a_pot: ScalarFn | None = None
    K_pot: ScalarFn | None = None
    source: ScalarFn | None = None
    grad_p: float = 0.0
    mode: str = "absorption"

    def __post_init__(self):
        if self.geometry not in LEF_GEOMETRIES:
            raise ValueError("geometry must be 'interval' or 'ball'")
        if self.geometry == "interval" and self.N != 1:
            raise ValueError("interval geometry is one-dimensional")
        if not 0.0 <= self.grad_p <= 2.0:
            raise ValueError("the gradient power must lie in [0, 2]")
        if self.mode not in LEF_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.source is not None and self.mu > 0.0:
            src, xs = self.source.fast(), np.linspace(0.0, self.R, 17)
            values = np.array([src(float(x)) for x in xs])
            refuse_samples(self.source, "the source term must be positive on the domain",
                           values <= 0.0, xs, "x", source=values)

    @property
    def m(self) -> float:
        if self.f is None or self.f.m is None:
            return 0.0
        return self.f.m if math.isfinite(self.f.m) else math.inf

    def lam_star(self, lambda1: float) -> float | None:
        """lambda* = lambda_1/m for the asymptotically linear case."""
        m = self.m
        if m > 0.0 and math.isfinite(m):
            return lambda1 / m
        return None


def _interval_start(prob: LEFProblem, source, s: float, eps: float, level: float):
    """Series start at x = eps for interval shooting from u(0) = level with slope s.

    Above zero the right-hand side is regular, and the Taylor series
    u ~ level + s x + source(0, level, s) x^2/2 holds.  At level 0 the start
    is u ~ s x plus the leading correction from the singular part
    a(0) g(u) ~ a0 C0 (s x)^-alpha.
    """
    if level > 0.0:
        g0 = source(0.0, level, s)
        return level + s * eps + g0 * eps * eps / 2.0, s + g0 * eps
    g = prob.g
    u = s * eps
    du = s
    if g is not None and g.alpha_sing is not None and prob.mode == "absorption":
        a0 = prob.a_pot.fast()(0.0) if prob.a_pot is not None else 1.0
        alpha, c0 = g.alpha_sing, g.sing_c0
        if 0.0 < alpha < 1.0 and c0 is not None and s > 0.0:
            amp = a0 * c0 * s ** (-alpha)
            u -= amp * eps ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))
            du -= amp * eps ** (1.0 - alpha) / (1.0 - alpha)
    f0 = prob.f.f.fast()(0.0) if prob.f is not None else 0.0
    u -= prob.lam * f0 * eps * eps / 2.0
    du -= prob.lam * f0 * eps
    return u, du


# The right-hand side of each mode over F = f(u), G = g(u), A = a(x),
# K = K(x), S = source(x) and D = |u'|^p, with its terms in the order they
# are evaluated.
_LEF_RHS = {
    "absorption": ("FAG", "lam * F + A * G"),
    "two-param": ("FKGS", "lam * F - K * G + mu * S"),
    "convection": ("GDF", "G + lam * D + mu * F"),
    "convection-absorb": ("FKGD", "lam * F - K * G - D"),
}
LEF_MODES = tuple(_LEF_RHS)


def _lef_source(prob: LEFProblem):
    """minus the RHS with a positivity clamp below the epsilon cut, as one
    generated function of (r, u, u') with the user expressions inlined.

    Runge-Kutta stages can overshoot u slightly below the terminal events;
    every term in u, f as well as the singular g, is evaluated at
    max(u, eps/100) (a nan u stays nan), which leaves the dynamics above
    the clamp untouched.  Non-finite right-hand
    sides are saturated (the cap event terminates those trajectories anyway).
    An absent f or g reads 0, an absent a, K or source 1.
    """
    u = "_floor if u < _floor else u"  # max(u, _floor) without the call
    terms = {
        "F": ("F", prob.f.f.body if prob.f is not None else const(0.0), u),
        "G": ("G", prob.g.f.body if prob.g is not None else const(0.0), u),
        "A": ("A", prob.a_pot.body if prob.a_pot is not None else const(1.0), "r"),
        "K": ("K", prob.K_pot.body if prob.K_pot is not None else const(1.0), "r"),
        "S": ("S", prob.source.body if prob.source is not None else const(1.0), "r"),
        "D": "D = abs(du) ** p",
    }
    order, rhs = _LEF_RHS[prob.mode]
    lines = [terms[name] for name in order] + [
        f"val = -({rhs})",
        "if not _isfinite(val):",
        "    val = -1e15 if val < 0.0 else 1e15",
        "return val"]
    return compose_scalar("r, u, du", lines, {
        "lam": prob.lam, "mu": prob.mu, "p": prob.grad_p, "_floor": EPS_BOUNDARY / 100.0,
        "_isfinite": math.isfinite})


def _shot_start(prob: LEFProblem, source, s: float, level: float):
    """(r, (u, u')) where the shot of parameter s toward the level starts."""
    if prob.geometry == "ball":
        return series_start(source, s, prob.N, 1e-8 * prob.R)
    return 1e-6, _interval_start(prob, source, s, 1e-6, level)


def _shooting_map(prob: LEFProblem, tally: ShotTally | None = None):
    """Return zero_location(s, level) -> (where the solution returns to the
    boundary value level, peak height above it), and the shot itself; the
    shots are counted in tally when one is given.

    level = 0 is the singular problem and level = 1/k its regularization
    with u = 1/k on the boundary; s is the center value on the ball and
    the starting slope on the interval.  The integration stops at the
    epsilon cut u = level + eps_b (default 1e-6) and the zero is located by
    the local linear model u - level ~ c (R - r); an event at the level
    itself backstops trajectories that never rise above the cut.  A shot
    that starts at or below the level has its zero at 0; a shot that fails
    (the step size falls below the spacing of floats) has none, nan.  The
    peak is the highest u on the solver's steps.
    """
    N, R = prob.N, prob.R
    r_cap = R_CAP * R
    source = _lef_source(prob)

    def integrate(s, level=0.0, eps_b=EPS_BOUNDARY, dense=False):
        """The shot, or None when it starts at or below the level."""
        start, y0 = _shot_start(prob, source, s, level)
        if y0[0] <= level:
            return None
        sol = shoot(source, N, start, y0, r_cap, 1e-10, 1e-13 * max(1.0, s),
                    floors=(level + eps_b, level), cap=U_CAP, dense=dense)
        return sol if tally is None else tally.add(sol)

    def zero_location(s, level=0.0, eps_b=EPS_BOUNDARY):
        sol = integrate(s, level, eps_b)
        if sol is None:
            return 0.0, 0.0  # the shot cannot even leave the boundary layer
        return located(sol, level), float(np.max(sol.y[0])) - level

    def located(sol, level):
        if not sol.success:
            return math.nan
        r_end, u_end, du_end = float(sol.t[-1]), float(sol.y[0, -1]) - level, float(sol.y[1, -1])
        if sol.event == 1 or (sol.event == 0 and not du_end < 0.0):
            return r_end
        if du_end < 0.0 and (sol.event == 0 or (sol.event is None and u_end > 0.0)):
            return r_end + u_end / (-du_end)  # local model u - level ~ c (R - r)
        return r_cap + 1.0 + math.log1p(max(u_end, 0.0))  # past the cap or never back

    return zero_location, integrate


class _Bracketed(Exception):
    """Ends a fold search at the first shot that brackets R."""


def _minimize_bounded(f, a: float, b: float, xatol: float) -> float:
    """The point of [a, b] where Brent's bounded minimiser (Brent 1973,
    ch. 5) settles on f, in the float operations of scipy's
    minimize_scalar(method="bounded") with xatol (tests/test_ports.py),
    after at most 500 calls (scipy's default): golden-section steps, a
    parabolic step wherever one is acceptable, no two points closer than
    tol1 = sqrt(2.2e-16) |x| + xatol/3, and a stop when the bracket around
    the best point x is within 2 tol1 of it."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def solve_lef(prob: LEFProblem, options: dict | None = None) -> RadialSolution:
    """Shooting solve of the singular problem; NoSolution is an audited verdict.

    One search serves every boundary level.  The shooting map
    s -> z(s) = zero_location(s, level) is probed on the coarse scan
    PROBES up to the first bracket of R.  When that scan has none,
    z is maximised at each interior turning maximum of the scan, highest
    first, by a bounded Brent search in ln s between the maximum's
    neighbours, up to the first shot that brackets R: a window around a
    fold where z exceeds R is located, not sampled (Keller 1977).  Brent's
    method then solves z(s) = R on that bracket; no s is shot twice.  A
    bracket counts, and the search reads z, only where the shot clears the
    epsilon cut by the factor CUT_MARGIN.  When no shot brackets R, the
    singular problem is declared no-solution with every shot, sorted by s,
    in probe_table (a search in which no probe starts above the boundary
    value, so that no shot was made, is a NumericsError instead):
    sup_zero_location is the largest z read and
    fold_parameter its s; a scale-invariant problem (-Delta u = lam f(u)
    alone, lam > 0) also records lambda_star = lam (sup_zero_location/R)^2,
    where its branch folds, when that z lies within the shots' reach.
    failed_probes counts the shots that failed (zero location nan).
    options={'check_eps_sensitivity': True} records the drift of the zero
    when the cut is halved; options={'regularization_levels': [k, ...]}
    solves the problems with u = 1/k on the boundary, on either geometry,
    and checks that they decrease pointwise in k.  The metadata counts the
    shots of the whole solve with their accepted and rejected steps and
    right-hand-side calls.
    """
    options = dict(options or {})
    tally = ShotTally()
    zero_location, integrate = _shooting_map(prob, tally)
    R = prob.R

    def admissible(z, peak):
        # a probe that barely clears the cut crosses it with a near-zero
        # slope, and the linear model puts its zero far beyond the true one
        # (a probe that never clears it gets the true zero from the backstop
        # event); only a peak of CUT_MARGIN times the cut is read
        return math.isfinite(z) and peak >= CUT_MARGIN * EPS_BOUNDARY

    def bracket_in(points):
        # a sign change of zero_location - R counts only when the probe past
        # R is admissible
        for (s1, z1, peak1), (s2, z2, peak2) in zip(points, points[1:]):
            if (z1 - R) * (z2 - R) <= 0.0 and (admissible(z1, peak1) if z1 > z2
                                               else admissible(z2, peak2)):
                return s1, s2
        return None

    probes_at = {}  # one memoised zero_location per boundary level

    def shoot_to_R(level):
        """(s*, every shot as (s, z, peak) sorted by s); s* is None when no
        shot brackets R."""
        # one memo serves the coarse scan, the fold search, Brent's method
        # and the cut audit
        shots = {}

        def probe(s):
            if s not in shots:
                shots[s] = zero_location(s, level)
            return shots[s]

        probes_at[level] = probe

        points = []
        for s in PROBES:
            points.append((s, *probe(s)))
            bracket = bracket_in(points[-2:])
            if bracket is not None:
                break
        else:
            bracket = fold_search(probe, shots, points)
            points = [(s, *shots[s]) for s in sorted(shots)]
        if bracket is None:
            return None, points
        s_star = find_root_monotone(lambda s: probe(s)[0], R, *bracket,
                                    tol=1e-9 * R, width_tol=1e-13)
        return s_star, points

    def fold_search(probe, shots, coarse):
        """Maximise z at the coarse scan's turning maxima, highest first;
        the first bracket of R that a shot completes, or None."""
        tol = 1e-9 * R
        ok = [(s, z) for s, z, peak in coarse if admissible(z, peak)]
        # a maximum between two lower admissible neighbours; at either end of
        # the scan z may keep rising toward shots that cannot be read, and a
        # search there only climbs into the model error of the cut
        maxima = sorted(((z, lo, hi) for (lo, z_lo), (_, z), (hi, z_hi)
                         in zip(ok, ok[1:], ok[2:]) if z > max(z_lo, z_hi) + tol),
                        reverse=True)

        def minus_z(x):
            z, peak = probe(math.exp(x))
            bracket = bracket_in([(s, *shots[s]) for s in sorted(shots)])
            if bracket is not None:
                raise _Bracketed(bracket)
            return -z if admissible(z, peak) else 0.0

        for _, lo, hi in maxima:
            try:
                _minimize_bounded(minus_z, math.log(lo), math.log(hi), xatol=1e-5)
            except _Bracketed as found:
                return found.args[0]
        return None

    s_star, points = shoot_to_R(0.0)
    probes = [(s, z) for s, z, _ in points]
    if s_star is None:
        if tally.shots == 0:  # no verdict rests on no shot
            s = points[0][0]
            u0 = _shot_start(prob, _lef_source(prob), s, 0.0)[1][0]
            raise NumericsError(
                f"the singular search shot nothing: the first probe, s = {s:g}, starts at "
                f"u = {u0!r}, not above the boundary value 0 "
                f"(g's alpha = {prob.g.alpha_sing if prob.g is not None else None!r})")
        sup, fold = max(((z, s) for s, z, peak in points if admissible(z, peak)),
                        default=(math.nan, math.nan))
        metadata = {"probe_table": probes, "sup_zero_location": sup, "fold_parameter": fold}
        if (prob.mode == "absorption" and prob.g is None and prob.f is not None
                and prob.lam > 0.0 and sup <= R_CAP * R):
            # -Delta u = lam f(u) alone scales, on the ball and the interval:
            # u(r) = w(sqrt(lam) r) with -Delta w = f(w), so the largest zero
            # location goes like 1/sqrt(lam), and the branch folds where it is R
            metadata["lambda_star"] = prob.lam * (sup / R) ** 2
        metadata["failed_probes"] = sum(not math.isfinite(z) for _, z in probes)
        return RadialSolution(
            dimension=prob.N, r=np.array([0.0, R]), u=np.zeros(2),
            classification=NO_SOLUTION, metadata={**metadata, **asdict(tally)},
        )

    sol = integrate(s_star, dense=True)
    r_end = float(sol.t[-1])
    grid = np.linspace(sol.t[0], r_end, 401)
    vals = sol.sol(grid)
    u, du = vals[0], vals[1]

    # distance bounds c1 d <= u <= c2 d on the near-boundary region
    if prob.geometry == "interval":
        d = np.minimum(grid, R - grid)
    else:
        d = R - grid
    mask = (d > 1e-4 * R) & (d < 0.2 * R) & (u > 0.0)
    c1 = float(np.min(u[mask] / d[mask])) if np.any(mask) else math.nan
    c2 = float(np.max(u[mask] / d[mask])) if np.any(mask) else math.nan

    metadata = {
        "shooting_parameter": s_star,
        "probe_table": probes,
        "c1": c1,
        "c2": c2,
        "sup_norm": float(np.max(u)),
        # u(0) on the ball is the shooting parameter; u(R/2) the dense solution's
        "center_value": float(sol.sol(R / 2.0)[0]) if prob.geometry == "interval" else s_star,
    }

    if options.get("check_eps_sensitivity"):
        drift = abs(probes_at[0.0](s_star)[0] -
                    zero_location(s_star, eps_b=EPS_BOUNDARY / 2.0)[0])
        metadata["eps_cut_drift"] = drift
        metadata["eps_cut_ok"] = bool(drift < 1e-6)

    k_levels = sorted(options.get("regularization_levels") or ())
    if k_levels:
        values = []
        for k in k_levels:
            s_k = shoot_to_R(1.0 / k)[0]
            if s_k is None:
                raise NumericsError(f"regularized problem u = 1/{k} on the boundary: "
                                    "no shot brackets R")
            reg = integrate(s_k, 1.0 / k, dense=True)
            values.append(reg.sol(np.clip(grid, reg.t[0], reg.t[-1]))[0])
        metadata["regularization"] = {
            "k_levels": k_levels,
            "monotone_decreasing": all(
                bool(np.all(u_next <= u_k + 1e-7 * (1.0 + np.abs(u_k))))
                for u_k, u_next in zip(values, values[1:])),
        }
        metadata["regularized_values"] = values

    metadata.update(asdict(tally))
    return RadialSolution(dimension=prob.N, r=grid, u=u, du=du,
                          classification=BOUNDED, metadata=metadata)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class BifurcationDiagram:
    """lambda-sweep record with the empirical threshold bracket."""

    lam: list
    status: list          # "solved" | "no-solution" | "failed"
    sup_norm: list
    center_value: list
    lam_star_theoretical: float | None = None
    lam_star_bracket: tuple | None = None
    monotone_centers: bool = True

    def to_csv(self, path):
        write_csv(path, "lambda,status,sup_norm,center_value",
                  (self.lam, self.status,
                   [math.nan if sn is None else sn for sn in self.sup_norm],
                   [math.nan if cv is None else cv for cv in self.center_value]))


def sweep(prob_template: LEFProblem, lam_grid) -> BifurcationDiagram:
    """Run solve_lef across the lambda grid and assemble the diagram.

    lam_star_bracket is (last solved, first no-solution); no interpolation
    beyond the bracket is claimed.  Center values must be strictly
    increasing along the solved branch.  A point whose solve fails
    numerically is "failed"; an EvalDomainError (an expression undefined
    where it is shot) propagates.
    """
    lam_grid = list(float(x) for x in lam_grid)
    if any(b <= a for a, b in zip(lam_grid, lam_grid[1:])):
        raise ValueError("lambda grid must be increasing")
    import dataclasses

    status, sups, centers = [], [], []
    for lam in lam_grid:
        prob = dataclasses.replace(prob_template, lam=lam)
        try:
            sol = solve_lef(prob)
        except EvalDomainError:
            raise  # a problem undefined where it is shot is not a failed point
        except (NumericsError, ValueError):
            status.append("failed")
            sups.append(None)
            centers.append(None)
            continue
        if sol.classification == NO_SOLUTION:
            status.append("no-solution")
            sups.append(None)
            centers.append(None)
        else:
            status.append("solved")
            sups.append(sol.metadata["sup_norm"])
            centers.append(sol.metadata["center_value"])

    bracket = None
    for i, st in enumerate(status):
        if st == "no-solution" and i > 0 and status[i - 1] == "solved":
            bracket = (lam_grid[i - 1], lam_grid[i])
            break

    lam_star_th = None
    if prob_template.f is not None:
        lam_star_th = prob_template.lam_star(
            lambda1_domain(prob_template.N, prob_template.geometry, prob_template.R))

    solved_centers = [c for c in centers if c is not None]
    monotone = all(b > a for a, b in zip(solved_centers, solved_centers[1:]))
    return BifurcationDiagram(lam=lam_grid, status=status, sup_norm=sups,
                              center_value=centers, lam_star_theoretical=lam_star_th,
                              lam_star_bracket=bracket, monotone_centers=monotone)


# ---------------------------------------------------------------------------
# Gelfand reduction and the Young constant
# ---------------------------------------------------------------------------

def gelfand_solvable(lam: float, mu: float, a_lim: float, lambda1: float) -> bool:
    """Solvability predicate lam (a + mu) < lambda_1 of the quadratic
    convection problem with constant forcing."""
    if lam < 0.0 or mu < 0.0:
        raise ValueError("lambda and mu must be nonnegative")
    if a_lim < 0.0:
        raise ValueError("a = lim g must be nonnegative")
    return lam * (a_lim + mu) < lambda1


def gelfand_transform(u_sol: RadialSolution, lam: float,
                      direction: str = "forward") -> RadialSolution:
    """Pointwise v = e^(lam u) - 1 (forward) or u = ln(1+v)/lam (back)."""
    if lam <= 0.0:
        raise ValueError("the transform needs lambda > 0")
    if direction == "forward":
        v = np.expm1(lam * u_sol.u)
        dv = lam * (v + 1.0) * u_sol.du if u_sol.du is not None else None
        out_u, out_du = v, dv
    elif direction == "back":
        if np.any(u_sol.u <= -1.0):
            raise ValueError("back transform requires v > -1")
        out_u = np.log1p(u_sol.u) / lam
        out_du = (u_sol.du / (lam * (1.0 + u_sol.u))) if u_sol.du is not None else None
    else:
        raise ValueError("direction must be 'forward' or 'back'")
    meta = dict(u_sol.metadata)
    meta["gelfand"] = direction
    return RadialSolution(dimension=u_sol.dimension, r=u_sol.r.copy(), u=out_u,
                          du=out_du, classification=u_sol.classification,
                          blowup_radius=u_sol.blowup_radius, metadata=meta)


def gelfand_reduced_source(g_src: str, lam: float, mu: float) -> str:
    """Expression of Phi_lam(v) = lam (v+1) g(ln(1+v)/lam) + lam mu (v+1)."""
    lam, mu = float(lam), float(mu)
    if lam <= 0.0:
        raise ValueError("the reduction needs lambda > 0")
    from .expr import parse_expression, substitute, to_source

    inner = parse_expression(f"ln(t+1)/{lam!r}")
    g_of = to_source(substitute(parse_expression(g_src), inner))
    return f"{lam!r}*(t+1)*({g_of}) + {lam!r}*{mu!r}*(t+1)"


def young_constant(a_lim: float, p: float, lambda1: float) -> float:
    """Largest C = 2^-j with a C^(p/2) + C^(p-1) < lambda_1/2 (margin 2).

    The returned constant satisfies the Young-type inequality
    s^p <= C^(p/2-1) s^2 + C^(p/2) for all s >= 0 (verified on a sampled
    log grid), which converts the 1 < p < 2 convection term into a
    quadratic one plus a constant.  Maximizing s^p/(s^2 + C) shows the
    bound C^(p/2-1) on that ratio by weighted AM-GM, which is exactly this
    coefficient arrangement; the opposite arrangement fails for C < 1.
    """
    if not 1.0 < p < 2.0:
        raise ValueError("the Young constant is defined for 1 < p < 2")
    if lambda1 <= 0.0:
        raise ValueError("lambda_1 must be positive")
    if a_lim < 0.0:
        raise ValueError("a must be nonnegative")
    C = 1.0
    for _ in range(200):
        if a_lim * C ** (p / 2.0) + C ** (p - 1.0) < 0.5 * lambda1:
            break
        C *= 0.5
    else:
        raise NumericsError("no feasible Young constant found (should be impossible)")
    s = np.geomspace(1e-6, 1e6, 241)
    gap = s ** p - C ** (p / 2.0 - 1.0) * s ** 2 - C ** (p / 2.0)
    if float(np.max(gap)) > 1e-9:
        raise NumericsError("sampled Young inequality violated; numeric fault")
    return C
