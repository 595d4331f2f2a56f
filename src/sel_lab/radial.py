"""Constructive radial solvers.

Monotone Picard iterations for entire solutions (with the exponential
gradient kernel and for coupled systems, both through one loop,
`_monotone_picard`, refined by one rule on one graded mesh, `_refined`),
the integral condition checkers and the one bounded-vs-large dichotomy
(`_dichotomy`) both schemes share, boundary blow-up solutions from two
level problems u = n read where they agree, and the boundary rate of a
blow-up solution against a profile.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expn

from .expr import VAR, ExprAst, ScalarFn, compose_scalar
from .karamata import Antiderivative, Nonlinearity, keller_osserman, tail_map
from .numerics import (
    BOUNDARY_BLOWUP,
    BOUNDED,
    ENTIRE_LARGE,
    UNDETERMINED,
    BracketError,
    Integrand,
    NumericsError,
    RadialSolution,
    ShotTally,
    classify_tail_integral,
    find_root_monotone,
    refuse_samples,
    series_start,
    shoot,
)
from .profile import BlowupProfile

MAX_PICARD_ITERATIONS = 200
MONOTONE_SLACK = 1e-9  # a Picard step may lower a component by this much relative
WARM_MARGIN = 10.0  # a warm start lies this many mesh targets (relative) below what it is read from
WARM_TOL = 0.1  # a warm-started run stops once no component moves by this fraction of tol
RATE_POINTS = 10  # grid points nearest the boundary a rate is read at


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class RadialPotential:
    """Radial envelopes of a (possibly non-radial) potential.

    phi(r) = max_{|x|=r} p, psi(r) = min_{|x|=r} p; a radial potential has
    phi = psi and gap = 0.  Psi(r) = exp(lam_N int_0^r s psi(s) ds) with
    lam_N = Lambda/(N-2) is the Gronwall weight of the slow-variation
    condition.  check reads them on each Picard mesh and here on 41 radii
    of [0, 20], which the verdict and ordering integrals read as well.
    t_psi = t psi(t) serves Psi, the large condition's bound and t p, t q.
    """

    phi: ScalarFn
    psi: ScalarFn | None = None
    lam_N: float = 1.0
    _psi_int: Antiderivative | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.psi is None:
            self.psi = self.phi
        self.t_psi = ScalarFn(ExprAst("mul", children=(VAR, self.psi.body)))
        self.check(np.linspace(0.0, 20.0, 41))

    def check(self, r) -> tuple:
        """(phi, psi) at the radii r, one array if radial; a SampleError for
        psi < 0 or phi < psi (to 1e-12) at the first radius where either holds,
        for a radial potential p < 0 with its one value."""
        lo = self.psi.vector()(r)
        negative = lo < -1e-12
        if self.is_radial:
            refuse_samples(self.phi, "radial potential must be nonnegative", negative, r, "r",
                           p=lo)
            return lo, lo
        hi = self.phi.vector()(r)
        bad = negative | (hi < lo - 1e-12 * (1.0 + np.abs(hi)))
        refuse_samples(self.psi if negative[bad.argmax()] else self.phi,
                       "envelopes must satisfy phi >= psi >= 0", bad, r, "r", phi=hi, psi=lo)
        return hi, lo

    @property
    def is_radial(self) -> bool:
        return self.psi is self.phi

    def gap(self, r: float) -> float:
        """phi - psi, clamped to 0 once the difference falls below the
        floating-point resolution of the envelopes themselves."""
        if self.is_radial:
            return 0.0
        hi = self.phi.fast()(r)
        d = hi - self.psi.fast()(r)
        if not math.isfinite(d) or d <= 1e-12 * abs(hi):
            return 0.0
        return d

    def weight(self, r: float) -> float:
        """Psi(r); nondecreasing with Psi(0) = 1."""
        if self._psi_int is None:
            self._psi_int = Antiderivative(self.t_psi)
        return math.exp(self.lam_N * self._psi_int(r))


@dataclass
class SystemProblem:
    """Coupled system Delta u = p g(v), Delta v = q f(u) with central values (p, q read as psi)."""

    p: RadialPotential
    q: RadialPotential
    f: Nonlinearity
    g: Nonlinearity
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("central values must be positive")


@dataclass
class LogisticProblem:
    """Radial logistic problem Delta u + a u = b(r) f(u).

    domain is ("ball", R), ("annulus", R0, R) or ("whole-space", Rmax);
    blow-up data sits on the outer boundary for a ball and on the inner
    boundary for an annulus.  omega0_radius is the concentric vanishing
    ball of b (0 = empty): it must lie inside a ball and is refused on an
    annulus, and b must be 0 at 41 radii of [0, omega0_radius] (a
    SampleError for b names the first where it is not).  b_normalization
    records whether b ~ c k^2(d) ("k2") or b ~ c k(d) ("k") so rate
    measurements can refuse mismatched profiles.
    """

    N: int
    f: Nonlinearity
    b: ScalarFn
    a_lin: float = 0.0
    domain: tuple = ("ball", 1.0)
    omega0_radius: float = 0.0
    b_normalization: str = "k2"

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension N must be >= 1")
        kind = self.domain[0]
        if kind == "ball":
            if len(self.domain) != 2 or self.domain[1] <= 0.0:
                raise ValueError("ball domain is ('ball', R) with R > 0")
        elif kind == "annulus":
            if len(self.domain) != 3 or not 0.0 <= self.domain[1] < self.domain[2]:
                raise ValueError("annulus domain is ('annulus', R0, R) with 0 <= R0 < R")
            if self.domain[1] == 0.0 and self.N > 1:
                raise ValueError("annulus inner radius 0 requires N = 1")
        elif kind == "whole-space":
            if len(self.domain) != 2 or self.domain[1] <= 0.0:
                raise ValueError("whole-space domain is ('whole-space', Rmax)")
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
        if self.b_normalization not in ("k2", "k"):
            raise ValueError("b_normalization must be 'k2' or 'k'")
        if self.omega0_radius > 0.0:
            self._check_core()

    def _check_core(self) -> None:
        omega0 = self.omega0_radius
        if self.domain[0] == "annulus":
            raise ValueError("a vanishing core needs a ball or the whole space, not an annulus")
        if self.domain[0] == "ball" and omega0 >= self.domain[1]:
            raise ValueError(f"the vanishing core must lie inside the ball (omega0 = {omega0!r}, "
                             f"R = {self.domain[1]!r})")
        r = np.linspace(0.0, omega0, 41)
        b = self.b.vector()(r)
        refuse_samples(self.b, f"b must vanish on the core r <= {omega0!r}", b != 0.0, r, "r", b=b)


# ---------------------------------------------------------------------------
# Integral condition checkers
# ---------------------------------------------------------------------------

def check_slow_variation(pot: RadialPotential):
    """Classify int_0^inf r gap(r) Psi(r) dr (the slow-variation condition).

    Radial potentials (gap = 0) are trivially Convergent(0).
    """
    if pot.is_radial:
        return classify_tail_integral(lambda r: 0.0, 1.0)

    def integrand(r):
        g = pot.gap(r)
        if g <= 0.0:
            return 0.0
        w = pot.weight(r)
        return r * g * w if math.isfinite(w) else math.inf

    return classify_tail_integral(integrand, 0.0)


_SERIES_FROM = 600.0  # K_N's switch to the series, before E_n(s) nears subnormals (s ~ 703)


def _large_condition_kernel(N: int):
    """K_N(s) = e^s s^(N-1) int_max(1,s)^inf e^-t t^(1-N) dt, which tends to 1.

    With n = N - 1 (Abramowitz & Stegun 5.1.4): s e^s E_n(s) for s >= 1 and
    e^s s^n E_n(1) below 1.  From _SERIES_FROM on, s e^s E_n(s) is the series
    sum_k (-1)^k (n)_k / s^k (A&S 5.1.51), stopped at its smallest term or
    where the terms fall below the rounding of the sum.
    """
    n = N - 1
    head = float(expn(n, 1.0))

    def K(s: float) -> float:
        if s < 1.0:
            return math.exp(s) * s ** n * head
        if s < _SERIES_FROM:
            return s * math.exp(s) * float(expn(n, s))
        total, term, k = 1.0, 1.0, n
        while True:
            nxt = -term * k / s
            if not 1e-17 <= abs(nxt) < abs(term):
                return total
            term, total, k = nxt, total + nxt, k + 1

    def many(s: np.ndarray) -> np.ndarray:
        """K over an array of s > 0, branch by branch as K takes them."""
        out = np.empty_like(s)
        low, far = s < 1.0, s >= _SERIES_FROM
        mid = ~(low | far)
        out[low] = np.exp(s[low]) * s[low] ** n * head
        out[mid] = s[mid] * np.exp(s[mid]) * expn(n, s[mid])
        x = s[far]
        total, term, live = np.ones_like(x), np.ones_like(x), np.ones(x.shape, dtype=bool)
        k = n
        while live.any():
            nxt = -term * k / x
            live &= (1e-17 <= np.abs(nxt)) & (np.abs(nxt) < np.abs(term))
            total = np.where(live, total + nxt, total)
            term = np.where(live, nxt, term)
            k += 1
        out[far] = total
        return out

    return Integrand(K, many)


def check_large_condition(pot_env, N: int):
    """Classify the outer weighted integral that gates entire large solutions.

    pot_env is a RadialPotential or a bare psi, the RadialPotential(phi=psi).
    int_1^inf e^-t t^(1-N) int_0^t e^s s^(N-1) psi(s) ds dt = inf holds iff
    entire large solutions of the gradient problem exist.  As psi >= 0 the
    order of integration swaps (Tonelli) into int_0^inf psi K_N ds with
    K_N -> 1 (_large_condition_kernel), so the verdict reads psi's own tail
    and a convergent value is the whole int_0^inf psi K_N.  The elementary
    bound outer <= (N-2)^-1 int_0^inf t psi(t) dt (t_psi) is a cross-check
    in the diagnostics of a convergent verdict.
    """
    if N < 3:
        raise ValueError("the gradient problem lives in dimension N >= 3")
    pot = pot_env if isinstance(pot_env, RadialPotential) else RadialPotential(phi=pot_env)
    psi_call, psi_vec = pot.psi.fast(), pot.psi.vector()
    K = _large_condition_kernel(N)
    verdict = classify_tail_integral(
        Integrand(lambda s: psi_call(s) * K(s), lambda s: psi_vec(s) * K.many(s)), 0.0)
    if verdict.is_convergent and verdict.value > 0.0:
        bound = classify_tail_integral(pot.t_psi, 0.0)
        if bound.is_convergent:
            limit = bound.value / (N - 2.0)
            verdict = replace(verdict, diagnostics={
                **verdict.diagnostics, "elementary_bound": limit,
                "bound_holds": bool(verdict.value <= limit * (1.0 + 1e-6))})
    return verdict


# ---------------------------------------------------------------------------
# Picard iteration for the gradient problem (single equation)
# ---------------------------------------------------------------------------

def _graded_mesh(R: float, panels: int) -> np.ndarray:
    """Quadratic grading toward 0, where t^(1-N) concentrates mass."""
    if panels < 1:
        raise ValueError(f"a mesh needs at least one panel, not {panels!r}")
    i = np.arange(panels + 1, dtype=float) / panels
    return R * i * i


@functools.lru_cache(maxsize=None)
def _gauss_legendre(degree: int) -> tuple:
    """(node, weight) pairs of the degree-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(degree)
    return tuple(zip(x.tolist(), w.tolist()))


# Width in t of one block of the rate = 1 cumulative sum: a block's factors
# e^(t_j+1 - anchor) lie in [1, e^64], so its panels scaled by their peak
# cannot overflow.
_RATE_BLOCK = 64.0

# Bound of the per-process store of Volterra tables (_volterra_table); a
# cyclic run over more mesh shapes than this rebuilds every table.
_VOLTERRA_TABLES = 32


def _volterra_weights(t: np.ndarray, m: int, rate: int) -> np.ndarray:
    """Product-integration weights on the mesh t, one row per interpolation
    node: W[a, j] multiplies fvals[start_j + a] in panel j (see _volterra)."""
    n = t.size
    k = min(4, n)
    start = np.clip(np.arange(n - 1) - 1, 0, n - k)
    nodes = t[start + np.arange(k)[:, None]]
    half = 0.5 * np.diff(t)
    W = np.zeros((k, n - 1))
    for x, gw in _gauss_legendre((m + 5) // 2 + 4 * rate):
        s = t[:-1] + half * (x + 1.0)
        weight = gw * half
        if m:
            weight *= s ** m
        if rate:
            weight *= np.exp(s - t[1:])
        d = s - nodes
        for a in range(k):
            basis = weight
            for b in range(k):
                if b != a:
                    basis = basis * d[b]
            W[a] += basis
    for a in range(k):
        denom = np.ones(n - 1)
        for b in range(k):
            if b != a:
                denom *= nodes[a] - nodes[b]
        W[a] /= denom
    return W


@functools.lru_cache(maxsize=_VOLTERRA_TABLES)
def _volterra_table(grading, panels: int, m: int, rate: int, R: float) -> tuple:
    """(W, blocks) of _volterra on the mesh grading(R, panels), read-only;
    blocks is None for rate = 0, else (grow, ((b, e, decay), ...)) of the
    block sums."""
    t = grading(R, panels)
    W = _volterra_weights(t, m, rate)
    W.flags.writeable = False
    if not rate:
        return W, None
    n = t.size
    bounds = [0]
    while bounds[-1] < n - 1:
        b = bounds[-1]
        top = int(np.searchsorted(t, t[b] + _RATE_BLOCK, side="right")) - 1
        bounds.append(max(b + 1, top))
    anchors = [max(float(t[b]), float(t[e]) - _RATE_BLOCK)
               for b, e in zip(bounds, bounds[1:])]
    grow = np.exp(t[1:] - np.repeat(anchors, np.diff(bounds)))
    grow.flags.writeable = False
    return W, (grow, tuple((b, e, math.exp(float(t[b]) - anchor))
                           for b, e, anchor in zip(bounds, bounds[1:], anchors)))


def _volterra(grading, R: float, panels: int, m: int, rate: int = 0):
    """fvals -> C_i = int_0^t_i e^(rate (s - t_i)) s^m fvals(s) ds at every
    node t of the mesh grading(R, panels).

    Product integration (Linz, Analytical and Numerical Methods for Volterra
    Equations, SIAM 1985, ch. 7): fvals is interpolated by the cubic through
    the four nodes around each panel (t[j-1..j+2], shifted inward at the
    ends) and the weight e^(rate (s - t_j+1)) s^m is integrated against it by
    Gauss-Legendre, exact for s^m times a cubic (four spare nodes resolve the
    exponential).  The weights hold one row per interpolation node
    (_volterra_weights).  An application sums the inner panels as four
    multiply-adds on shifted slices of fvals, the two end panels as ordered
    float sums, and then accumulates them.  With rate = 1 the panels are
    summed in blocks of width _RATE_BLOCK in t: inside a block anchored at
    t_b, C_i = (C_b + sum_{b<=j<i} panel_j e^(t_j+1 - t_b)) / e^(t_i - t_b),
    the block divided by a power of two at max(|panel|, |C_b|), so no term
    overflows at any t (a single panel wider than a block is anchored at
    its end less _RATE_BLOCK instead).

    grading(R, panels) must be R grading(1, panels), as _graded_mesh, the
    one mesh of both Picard schemes, is.  The weights come from one
    per-process LRU store (_volterra_table) of at most _VOLTERRA_TABLES
    tables, keyed by tuples without arrays.  For rate = 0 the key is (grading, panels, m) and the
    table is the unit-mesh W(1), which every call scales to R^(m+1) W(1):
    the weights, not the result, so fvals near the ends of the float range
    stay as exact as a build at R.  The kernel e^(s - t) of rate = 1 does
    not scale, so its table is keyed by (grading, panels, m, R) and also
    holds the block factors.  A repeat is therefore a lookup plus, for
    rate = 0, one 4 x panels scaling, and a result never depends on what
    the store holds.  A table takes 32 panels bytes (40 panels with
    rate = 1): at most 32 MiB at the bound with the largest default mesh
    (solve_system's 4096 points doubled three times, 32,768 panels).
    """
    n = panels + 1
    if panels < 1:  # a one-node mesh has no panel: every integral is 0
        return lambda fvals: np.zeros(n)
    if rate:
        W, (grow, blocks) = _volterra_table(grading, panels, m, 1, float(R))
    else:
        W = _volterra_table(grading, panels, m, 0, 1.0)[0] * float(R) ** (m + 1)
    k = W.shape[0]
    first, last, inner = W[:, 0].tolist(), W[:, -1].tolist(), W[:, 1:-1]

    def apply(fvals):
        panel = np.empty(n - 1)
        if k == 4:
            mid = np.multiply(inner[0], fvals[:-3], out=panel[1:-1])
            for a in (1, 2, 3):
                mid += inner[a] * fvals[a:n - 3 + a]
        for j, w, f in ((0, first, fvals[:k].tolist()), (-1, last, fvals[n - k:].tolist())):
            acc = w[0] * f[0]
            for a in range(1, k):
                acc += w[a] * f[a]
            panel[j] = acc
        out = np.empty(n)
        out[0] = 0.0
        if not rate:
            np.cumsum(panel, out=out[1:])
            return out
        carry = 0.0
        for b, e, decay in blocks:
            seg = panel[b:e]
            peak = max(float(np.max(np.abs(seg))), abs(carry))
            scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
            acc = seg / scale
            acc *= grow[b:e]
            acc[0] += carry / scale * decay
            np.cumsum(acc, out=acc)
            acc /= grow[b:e]
            np.multiply(acc, scale, out=out[b + 1:e + 1])
            carry = float(out[e])
        return out

    return apply


def _cubic_read(t: np.ndarray, y: np.ndarray, x):
    """y at the points x (a float or an array) from the cubic through the
    four mesh nodes around each (shifted inward at the ends), the
    interpolant _volterra integrates."""
    k = min(4, t.size)
    start = np.clip(np.searchsorted(t, x, side="right") - 2, 0, t.size - k)
    at = np.add.outer(np.arange(k), start)
    nodes, vals = t[at], y[at]
    total = 0.0
    for a in range(k):
        term = vals[a]
        for b in range(k):
            if b != a:
                term = term * ((x - nodes[b]) / (nodes[a] - nodes[b]))
        total = total + term
    return total


def _warm_start(R: float, panels: int, state: tuple, target: float) -> tuple:
    """state on _graded_mesh(R, panels) read on the doubled mesh: its own
    values on the even nodes, which are the coarse ones, the cubic read on
    the odd ones, all lowered by WARM_MARGIN * target relative, so that a
    doubling that moves the solution by less than that starts below it."""
    t = _graded_mesh(R, panels)
    odd = _graded_mesh(R, 2 * panels)[1::2]
    warm = []
    for y in state:
        fine = np.empty(2 * panels + 1)
        fine[::2] = y
        fine[1::2] = _cubic_read(t, y, odd)
        warm.append(fine * (1.0 - WARM_MARGIN * target))
    return tuple(warm)


def _lowers(old: tuple, new: tuple) -> bool:
    """Whether a step old -> new lowers a component by more than MONOTONE_SLACK relative."""
    return any(np.any(b < a - MONOTONE_SLACK * (1.0 + np.abs(a))) for a, b in zip(old, new))


def _monotone_picard(step, cold: tuple, tol: float, warm: tuple | None = None,
                     steps: list | None = None):
    """Iterate state -> step(state) over tuples of mesh arrays until no
    component moves by tol (relative) or MAX_PICARD_ITERATIONS is reached.

    The run starts from cold, or from warm floored at cold when warm is
    given and its first step lowers no component by more than
    MONOTONE_SLACK relative: a sub-solution, from which the iteration
    climbs monotonically as from cold (Sattinger 1972).  A warm start that
    is no sub-solution costs that one step and the run restarts from cold,
    so it is refused as non-monotone exactly when the cold run is.  A
    warm-started run stops at WARM_TOL * tol: a run from the constant start
    stops once its steps shrink fast, a small fraction of tol short of its
    fixed point, but one from close by stops while they still shrink
    slowly, about tol short, a gap a mesh drift comparing the two would
    read as the mesh's.  Returns
    (state, iterations, monotone): iterations counts the steps of the
    returned run, and monotone is False once one of them lowered a
    component by more than MONOTONE_SLACK relative.  steps, when given,
    gets the number of steps taken appended, a rejected warm step included.
    """
    state, nxt, stop = cold, None, tol
    if warm is not None:
        warm = tuple(np.maximum(w, c) for w, c in zip(warm, cold))
        first = step(warm)
        if not _lowers(warm, first):
            state, nxt, stop = warm, first, WARM_TOL * tol
    rejected = warm is not None and nxt is None
    monotone = True
    for iterations in range(1, MAX_PICARD_ITERATIONS + 1):
        if nxt is None:
            nxt = step(state)
        if _lowers(state, nxt):
            monotone = False
        change = max(float(np.max(np.abs(new - old) / (1.0 + np.abs(new))))
                     for old, new in zip(state, nxt))
        state, nxt = nxt, None
        if change < stop:
            break
    if steps is not None:
        steps.append(iterations + rejected)
    return state, iterations, monotone


def _dichotomy(verdicts, t: np.ndarray, u: np.ndarray, R: float, rerun,
               metadata: dict) -> str:
    """Bounded vs entire-large from the integral verdicts and the growth of u.

    All verdicts divergent and growth_ratio u(R)/u(R/2) > 1.05 give
    entire-large.  All convergent, growth_ratio <= 1.05 and a plateau give
    bounded: rerun() returns u solved on [0, R/2] alone, whose end value
    must drift from u(R/2) by less than 1e-6 (plateau_drift).  Anything
    else, and no verdict at all, is undetermined.  u(R/2) is the cubic
    read of the mesh values.
    """
    half = float(_cubic_read(t, u, R / 2.0))
    ratio = u[-1] / half if half > 0.0 else math.inf
    metadata["growth_ratio"] = float(ratio)
    if not verdicts:
        return UNDETERMINED
    if all(v.is_divergent for v in verdicts) and ratio > 1.05:
        return ENTIRE_LARGE
    if all(v.is_convergent for v in verdicts) and ratio <= 1.05:
        drift = abs(rerun()[-1] - half) / (1.0 + abs(half))
        metadata["plateau_drift"] = float(drift)
        if drift < 1e-6:
            return BOUNDED
    return UNDETERMINED


def _refined(run, R: float, panels: int, target: float, scheme: str):
    """run(R, n, warm, steps) at n = panels and up to three doublings, until
    no state array moves by more than target (relative) on the coarse nodes,
    which each doubling of _graded_mesh keeps.  The first run starts cold
    (warm = None); each doubling's run is handed the state it refines, read
    on the doubled mesh (_warm_start), for _monotone_picard to keep if it is
    a sub-solution.  run returns _monotone_picard's (state, iterations,
    monotone) plus any extras and passes steps on to it.  Returns (panels,
    result, mesh_drift, mesh_error, steps) of the last run, steps being the
    Picard steps of each run, coarse to fine; refuses, named by scheme, a
    last run that is not monotone and a mesh_error that misses target."""
    steps = []
    first, result, drifts = panels, run(R, panels, None, steps), []
    for _ in range(3):
        fine = run(R, 2 * panels, _warm_start(R, panels, result[0], target), steps)
        drifts.append(max(float(np.max(np.abs(new[::2] - old) / (1.0 + np.abs(old))))
                          for old, new in zip(result[0], fine[0])))
        panels, result = 2 * panels, fine
        if drifts[-1] <= target:
            break
    if not result[2]:
        raise ValueError(f"{scheme} iterates failed to be nondecreasing on {panels} panels "
                         f"(refined from {first}): the scheme's assumptions are violated "
                         "or the mesh is too coarse")
    # Richardson: drifts falling by ratio per doubling leave drift/(ratio - 1)
    # on the finest mesh; a ratio below 8 is not yet asymptotic
    mesh_drift = mesh_error = drifts[-1]
    ratio = drifts[-2] / mesh_drift if len(drifts) > 1 and mesh_drift > 0.0 else 0.0
    if ratio >= 8.0:
        mesh_error = mesh_drift / (ratio - 1.0)
    if not mesh_error <= target:
        raise NumericsError(f"{scheme} mesh refinement stopped at {panels} panels with "
                            f"mesh error {mesh_error:.3g} > {target:.3g} (last drift "
                            f"{mesh_drift:.3g})")
    return panels, result, mesh_drift, mesh_error, steps


def _picard_gradient_run(psi_vals, f_vec, b0: float, R: float, panels: int, N: int,
                         tol: float, warm: tuple | None = None, steps: list | None = None):
    # w = b0 + int_0^r J with J(t) = e^-t t^(1-N) int_0^t e^s s^(N-1) psi f(w) ds
    # on the mesh t = _graded_mesh(R, panels), where psi_vals are read
    t = _graded_mesh(R, panels)
    inner = _volterra(_graded_mesh, R, panels, N - 1, rate=1)
    outer = _volterra(_graded_mesh, R, panels, 0)
    t_scale = np.concatenate(([0.0], t[1:] ** (1.0 - N)))
    return _monotone_picard(
        lambda state: (b0 + outer(t_scale * inner(psi_vals * f_vec(state[0]))),),
        (np.full_like(t, b0),), tol, warm, steps)


def picard_gradient_entire(pot_env, f: Nonlinearity, b0: float, R: float, N: int,
                           tol: float = 1e-8, panels: int = 2048) -> RadialSolution:
    """Monotone Picard scheme w_{k+1} = b0 + K[psi f(w_k)] on [0, R].

    pot_env is a RadialPotential or a bare psi, the RadialPotential(phi=psi).
    K is the exponential radial kernel of the gradient problem.  Verifies
    the induction growth bound w_k <= b0 e^(M r) with
    M = lam_N max_{[0,R]} t psi(t), classifies large-vs-bounded by pairing
    the large-condition verdict with the growth ratio w(R)/w(R/2), and, when
    the envelopes differ, computes the ordering constant b* and checks the
    sub/super ordering v <= w pointwise.  w lives on _graded_mesh(R, panels),
    refined as the system's mesh is (_refined, each doubling warm-started;
    metadata iterations counts the final run's steps, picard_steps every
    run's), each mesh read through RadialPotential.check: raises
    SampleError at a node where the envelopes are out of order, and
    NumericsError when the mesh error of w over every node misses tol after
    at most three doublings.
    """
    if N < 3:
        raise ValueError("the gradient scheme requires N >= 3")
    if b0 < 1.0:
        warnings.warn("the monotone scheme assumes b0 >= 1 (f(w) <= Lambda w needs w >= 1)",
                      RuntimeWarning, stacklevel=2)
    pot = pot_env if isinstance(pot_env, RadialPotential) else RadialPotential(phi=pot_env)
    f_vec = f.f.vector()

    def run(r_end, n, warm=None, steps=None):
        phi_vals, psi_vals = pot.check(_graded_mesh(r_end, n))
        return (*_picard_gradient_run(psi_vals, f_vec, b0, r_end, n, N, tol, warm, steps),
                phi_vals, psi_vals)

    panels, ((w,), iterations, monotone, phi_vals, psi_vals), mesh_drift, mesh_error, steps = (
        _refined(run, R, panels, tol, "Picard"))
    t = _graded_mesh(R, panels)

    lam = f.Lambda if f.Lambda is not None else math.inf
    lam_N = lam / (N - 2.0)
    M = lam_N * float(np.max(t * psi_vals)) if math.isfinite(lam_N) else math.inf
    with np.errstate(over="ignore"):
        bound = b0 * np.exp(np.minimum(M * t, 700.0)) if math.isfinite(M) else np.full_like(t, math.inf)
    growth_ok = bool(np.all(w <= bound * (1.0 + 1e-9)))
    if not growth_ok:
        raise ValueError("growth bound w <= b0 e^(M r) violated: implementation or input fault")

    metadata = {
        "iterations": iterations,
        "picard_steps": steps,
        "mesh_points": panels,
        "mesh_drift": mesh_drift,
        "mesh_error": mesh_error,
        "growth_bound_M": M,
        "growth_bound_ok": growth_ok,
        "monotone": monotone,
    }

    verdicts = []
    try:
        verdicts.append(check_large_condition(pot, N))
        metadata["large_condition"] = verdicts[0].status
    except NumericsError as exc:  # a quadrature failure leaves the class undetermined
        metadata["large_condition_error"] = str(exc)

    classification = _dichotomy(verdicts, t, w, R, lambda: run(R / 2.0, panels)[0][0],
                                metadata)

    # ordering constant of the two-envelope comparison
    if not pot.is_radial:
        try:
            gap = classify_tail_integral(lambda s: s * pot.gap(s), 0.0)
            slow = check_slow_variation(pot)
            if gap.is_convergent and slow.is_convergent:
                K_const = math.exp(lam_N * gap.value)
                b_star = 1.0 + K_const * lam_N * slow.value
                metadata["b_star"] = b_star
                (v_run,), *_ = _picard_gradient_run(phi_vals, f_vec, 1.0, R, panels, N, tol)
                (w_run,), *_ = _picard_gradient_run(psi_vals, f_vec, b_star * (1.0 + 1e-9),
                                                    R, panels, N, tol)
                metadata["ordering_ok"] = bool(np.all(v_run <= w_run * (1.0 + 1e-9)))
        except NumericsError as exc:
            metadata["ordering_error"] = str(exc)

    return RadialSolution(dimension=N, r=t, u=w, classification=classification,
                          metadata=metadata)


# ---------------------------------------------------------------------------
# Coupled systems
# ---------------------------------------------------------------------------

def _green_kernel(R: float, panels: int, N: int):
    """fvals -> int_0^r t^(1-N) int_0^t s^(N-1) fvals ds dt on the mesh
    _graded_mesh(R, panels), graded toward 0 as the weights s^(N-1) and
    r^(2-N) concentrate the kernel's mass there.

    Swapping the order gives the radial Green's function split
    (P(r) - r^(2-N) Q(r)) / (N-2) with P = int_0^r s f, Q = int_0^r s^(N-1) f.
    """
    P = _volterra(_graded_mesh, R, panels, 1)
    Q = _volterra(_graded_mesh, R, panels, N - 1)
    t = _graded_mesh(R, panels)
    scale = np.concatenate(([0.0], t[1:] ** (2.0 - N)))
    return lambda fvals: (P(fvals) - scale * Q(fvals)) / (N - 2.0)


def _system_lower_bounds(sys_: SystemProblem, K, p_vals, q_vals) -> tuple:
    """The theory's lower bounds u >= a + g(b) A(r), v >= b + f(a) B(r) on the
    mesh, with A = K[p] and B = K[q]."""
    return (sys_.a + sys_.g.f(sys_.b) * K(p_vals),
            sys_.b + sys_.f.f(sys_.a) * K(q_vals))


def _system_run(sys_: SystemProblem, N: int, tol: float, R: float, panels: int,
                warm: tuple | None = None, steps: list | None = None):
    t = _graded_mesh(R, panels)
    p_vals = sys_.p.check(t)[1]
    q_vals = p_vals if sys_.q is sys_.p else sys_.q.check(t)[1]
    f_vec, g_vec = sys_.f.f.vector(), sys_.g.f.vector()
    K = _green_kernel(R, panels, N)

    def step(state):
        u_next = sys_.a + K(p_vals * g_vec(state[1]))
        return u_next, sys_.b + K(q_vals * f_vec(u_next))

    cold = (np.full_like(t, sys_.a), np.full_like(t, sys_.b))
    return (*_monotone_picard(step, cold, tol, warm, steps), p_vals, q_vals)


def solve_system(sys_: SystemProblem, R: float, N: int, tol: float = 1e-10,
                 mesh_points: int = 4096) -> RadialSolution:
    """Alternating monotone Picard scheme for the coupled system on [0, R].

    Classification follows the dichotomy of the tail integrals of t p(t)
    and t q(t), one verdict when p is q: both divergent and sustained
    growth -> entire-large; both convergent and a window-independent
    plateau -> bounded; mixed verdicts are undetermined (only the two pure
    cases are covered by the theory).
    u and v live on _graded_mesh(R, mesh_points), refined as the gradient
    scheme's w is (_refined, with the same iterations and picard_steps),
    each mesh read through RadialPotential.check, once when p is q: raises
    SampleError at a node where p or q is negative, and NumericsError when
    the mesh error of u and v over every node (metadata mesh_error) misses
    max(tol, 1e-9) after at most three doublings.  The lower bounds
    (_system_lower_bounds, metadata lower_bound_ok) are audited on the
    final mesh.
    """
    if N < 3:
        raise ValueError("the system scheme requires N >= 3")
    if mesh_points < 1:
        raise ValueError(f"a mesh needs at least one panel, not mesh_points = {mesh_points!r}")
    # sublinear coupling check: g(c f(t))/t -> 0
    f_call, g_call = sys_.f.f.fast(), sys_.g.f.fast()
    for c in (1.0, 10.0):
        vals = []
        for u in (1e6, 1e7, 1e8):
            try:
                vals.append(g_call(c * f_call(u)) / u)
            except (ValueError, OverflowError):
                vals.append(math.inf)
        if not (vals[-1] < vals[0] or vals[-1] < 0.05):
            warnings.warn(
                f"g(c f(t))/t does not visibly vanish at c={c:g} "
                f"(samples {vals}); the existence theory may not apply",
                RuntimeWarning, stacklevel=2,
            )
            break

    run = functools.partial(_system_run, sys_, N, tol)
    panels, ((u, v), iterations, _, p_vals, q_vals), mesh_drift, mesh_error, steps = _refined(
        run, R, mesh_points, max(tol, 1e-9), "system")
    t = _graded_mesh(R, panels)
    lower_u, lower_v = _system_lower_bounds(sys_, _green_kernel(R, panels, N), p_vals, q_vals)
    lower_ok = bool(np.all(u >= lower_u * (1.0 - 1e-9) - 1e-12)
                    and np.all(v >= lower_v * (1.0 - 1e-9) - 1e-12))

    s2_p = classify_tail_integral(sys_.p.t_psi, 1.0)
    s2_q = s2_p if sys_.q is sys_.p else classify_tail_integral(sys_.q.t_psi, 1.0)
    metadata = {
        "iterations": iterations,
        "picard_steps": steps,
        "mesh_points": panels,
        "mesh_drift": mesh_drift,
        "mesh_error": mesh_error,
        "tp_verdict": s2_p.status,
        "tq_verdict": s2_q.status,
        "lower_bound_ok": lower_ok,
    }

    classification = _dichotomy([s2_p, s2_q], t, u, R, lambda: run(R / 2.0, panels)[0][0],
                                metadata)
    metadata["prediction_agrees"] = classification != UNDETERMINED

    return RadialSolution(dimension=N, r=t, u=u, v=v, classification=classification,
                          metadata=metadata)


# ---------------------------------------------------------------------------
# Boundary blow-up from two level problems u = n
# ---------------------------------------------------------------------------

TOP_DISTANCE = 1e-13  # phi(n)/R a few hundred float spacings of a shot resolve
HEIGHT_EXPONENTS = range(21)  # the top height is a power of ten, at most 1e20
AGREEMENT = 1e-4  # the two levels agree where they differ by this much relative
N_GRID = 200  # radii a boundary-blowup or whole-space solution is read at


def _level_source(prob: LogisticProblem, inward_from: float | None = None):
    """b(r) f(u) - a u, the level problems' right-hand side, as one generated
    function of (r, u, u') with b and f inlined and f read at max(u, 0).
    With inward_from = R its first argument is x = R - r and it carries the
    drift (N-1)/(R-x) u' itself."""
    r, drift = ("r", "") if inward_from is None else ("R - r", " + d * du / (R - r)")
    return compose_scalar("r, u, du", [
        ("B", prob.b.body, r), ("F", prob.f.f.body, "0.0 if u < 0.0 else u"),
        f"return B * F - a * u{drift if prob.N > 1 else ''}"],
        {"a": prob.a_lin, "R": inward_from, "d": prob.N - 1.0})


def _level_shot(prob: LogisticProblem):
    """(shot, span): shot(p, cap, dense) runs one level shot over [0, span]
    to the blow-up boundary.  The ball shoots from its centre value p, the
    annulus inward from its zero boundary u(R) = 0 with slope p, in x = R - r."""
    ball, R = prob.domain[0] == "ball", float(prob.domain[-1])
    span, N = (R, prob.N) if ball else (R - float(prob.domain[1]), 1)
    source = _level_source(prob, None if ball else R)

    def shot(p, cap, dense=False):
        start, y0 = series_start(source, p, N, 1e-8 * R) if ball else (0.0, (0.0, p))
        return shoot(source, N, start, y0, span, 1e-10, 1e-12, cap=cap, dense=dense)

    return shot, span


def _search_exponent(prob: LogisticProblem, span: float) -> float:
    """beta, the power of the level search's distance D ~ c (P - p)^beta
    below the critical parameter P: the decay exponent of the linearisation
    of u'' = d^(2 alpha) u^q about its blow-up profile C d^-k, k = 2(1 +
    alpha)/(q - 1).  q = -2A - 1 comes from the Keller-Osserman fit
    F^(-1/2) ~ t^A, alpha from the log-log slope of b against the distance
    d to the blow-up boundary at d = span 2^-12 and span 2^-20.  beta is 1
    exactly when alpha = 0, and 1 wherever q or alpha cannot be read."""
    A = keller_osserman(prob.f).slope
    q = -2.0 * A - 1.0 if A is not None else math.nan
    d = (span * 2.0 ** -12, span * 2.0 ** -20)
    r = ([prob.domain[1] - x for x in d] if prob.domain[0] == "ball"
         else [prob.domain[1] + x for x in d])
    try:
        b = [prob.b(float(x)) for x in r]
    except (ValueError, ArithmeticError):
        return 1.0
    if not (q > 1.0 and math.isfinite(q) and all(0.0 < v < math.inf for v in b)):
        return 1.0
    alpha = 0.5 * (math.log(b[1]) - math.log(b[0])) / math.log(d[1] / d[0])
    k = 2.0 * (1.0 + alpha) / (q - 1.0)
    gap = math.sqrt(1.0 + 4.0 * q * k * (k + 1.0)) - 2.0 * k - 1.0
    if alpha == 0.0 or not (k > 0.0 and gap > 0.0):
        return 1.0
    return 2.0 * (1.0 + alpha) / gap


def _level_search(shot, span: float, cap: float, f: Nonlinearity, phi, beta: float):
    """solve(n, tally): the shooting parameter of the level u = n.

    Each search runs on the Keller-Osserman tail map phi of the shot's
    boundary value: phi(u) is the distance D to blow-up of u'' = f(u),
    which below the critical parameter P falls like c (P - p)^beta
    (_search_exponent).  Brent's method runs on sign(D) |D|^(1/beta),
    linear in p near P, against phi(n)^(1/beta), to (1e-4/beta)
    phi(n)^(1/beta): to first order the stop |D - phi(n)| <= 1e-4 phi(n).
    A shot into the cap, continued to the boundary along phi's tangent,
    reads below 0; one that stalls at the minimum step reads -span.  One
    memo of the shots serves every height and brackets each search by the
    nearest shots on either side, found by doubling or halving from 1.
    """
    memo: dict[float, float] = {}

    def distance(p, tally):
        if p not in memo:
            sol = tally.add(shot(p, cap))
            x, u, du = float(sol.t[-1]), float(sol.y[0, -1]), float(sol.y[1, -1])
            if sol.status == -1:
                memo[p] = -span
            elif sol.event == 2:
                memo[p] = phi(u) - du * (span - x) / math.sqrt(2.0 * f.F(u))
            else:
                memo[p] = phi(u) if u > 0.0 else 1e300
        return memo[p]

    def linear(p, tally):
        D = distance(p, tally)
        return math.copysign(abs(D) ** (1.0 / beta), D)

    def solve(n, tally):
        target = phi(n)
        for _ in range(60):
            below = [p for p, D in memo.items() if D > target]
            above = [p for p, D in memo.items() if D < target and p > max(below, default=0.0)]
            if below and above:
                goal = target ** (1.0 / beta)
                return find_root_monotone(lambda p: linear(p, tally), goal, max(below),
                                          min(above), tol=1e-4 / beta * goal, width_tol=1e-15)
            distance(2.0 * max(below) if below else 0.5 * min(above, default=2.0), tally)
        raise BracketError(f"no two shots bracket the level u = {n:g}")

    return solve


def boundary_blowup(prob: LogisticProblem, n_levels=None) -> RadialSolution:
    """Boundary blow-up solution from two level problems u = n.

    By default the levels are n/100 and the top height n, the largest power
    of ten whose Keller-Osserman tail map phi(n) = int_n^inf ds/sqrt(2F)
    still reaches TOP_DISTANCE R, retried once at n/10^4 and n/100 when a
    search fails; given n_levels, each height is solved and the top two
    decide.  The searches run from the top height down, each bracketed by
    the shots before it.  The solution is the top level at the grid points
    where the two agree to AGREEMENT relative; it is undetermined at fewer
    than two such points, and when the two levels are the same shot
    (metadata level_parameter_gap = |p_top - p_low|/|p_top| is 0).
    Requires the Keller-Osserman integral of f to converge
    (tail_map(f) is the gate, also of the whole-space branch) and a_lin
    below the first Dirichlet eigenvalue of the vanishing core when one is
    present.  The metadata of a level solution counts the tail map's
    lattice panels so far, interpolated and fallen back (tail_map_panels,
    tail_map_fallback_panels).
    """
    phi = tail_map(prob.f)
    if prob.omega0_radius > 0.0:
        from .bifurcation import lambda_inf_1

        lam_gate = lambda_inf_1(prob.N, prob.omega0_radius)
        if prob.a_lin >= lam_gate:
            raise ValueError(
                f"a = {prob.a_lin!r} >= lambda_inf_1 = {lam_gate!r}: no large solution"
            )

    kind = prob.domain[0]
    if kind == "whole-space":
        return _whole_space_large(prob)

    shot, span = _level_shot(prob)
    beta = _search_exponent(prob, span)
    if n_levels is None:
        k = bisect.bisect(HEIGHT_EXPONENTS, False,
                          key=lambda k: phi(10.0 ** k) < TOP_DISTANCE * span)
        n = 10.0 ** max(k - 1, 0)
        attempts = ([n / 100.0, n], [n / 1e4, n / 100.0])
    else:
        attempts = (sorted(float(n) for n in n_levels),)
    for heights in attempts:
        solve = _level_search(shot, span, 10.0 * heights[-1], prob.f, phi, beta)
        tallies = [ShotTally() for _ in heights]
        try:  # from the top down: each search is bracketed by the shots before it
            params = [solve(n, t) for n, t in zip(heights[::-1], tallies[::-1])][::-1]
            break
        except NumericsError as exc:
            failure = exc
    else:
        tops = " or ".join(f"{h[-1]:g}" for h in attempts)
        raise NumericsError(f"the level problems did not resolve with top height {tops}: "
                            f"{failure}")

    R = float(prob.domain[-1])
    if kind == "ball":
        blow_r = R
        x = interior = np.concatenate(([0.0], R - np.geomspace(1e-3 * R, 0.98 * R, N_GRID)[::-1]))
    else:
        blow_r = float(prob.domain[1])
        interior = np.concatenate((blow_r + np.geomspace(1e-3 * span, 0.98 * span, N_GRID), [R]))
        x = R - interior
    # the top two levels, shot once more with dense output
    levels = [t.add(shot(p, 10.0 * heights[-1], dense=True))
              for p, t in zip(params[-2:], tallies[-2:])]
    *low, u = (sol.sol(np.clip(x, sol.t[0], sol.t[-1]))[0] for sol in levels)
    if low and np.any(low[0] > u + 1e-7 * (1.0 + np.abs(low[0]))):
        raise ValueError("levels are not monotone nondecreasing in n "
                         "(maximum-principle ordering violated)")
    agree = np.abs(u - low[0]) <= AGREEMENT * np.abs(u) if low else np.zeros(u.size, bool)
    metadata = {
        "n_levels": heights,
        "b_normalization": prob.b_normalization,
        "blowup_boundary": blow_r,
        "boundary_side": "outer" if kind == "ball" else "inner",
        "level_shots": [t.shots for t in tallies],
        "level_search_exponent": beta,
        "level_steps_accepted": [t.steps_accepted for t in tallies],
        "level_steps_rejected": [t.steps_rejected for t in tallies],
        **phi.panel_counts(),
    }
    if low:  # two levels read on one parameter are one shot, not two
        metadata["level_parameter_gap"] = abs(params[-1] - params[-2]) / abs(params[-1])
    if np.count_nonzero(agree) < 2 or metadata.get("level_parameter_gap") == 0.0:
        return RadialSolution(dimension=prob.N, r=interior, u=u,
                              classification=UNDETERMINED, metadata=metadata)
    return RadialSolution(dimension=prob.N, r=interior[agree], u=u[agree],
                          classification=BOUNDARY_BLOWUP, blowup_radius=blow_r,
                          metadata=metadata)


# u at which a whole-space shot ends: it blows up inside its window
WHOLE_SPACE_CAP = 1e8


def _whole_space_large(prob: LogisticProblem) -> RadialSolution:
    """Entire-solution window sweep from u(0) = 1: one shot per window,
    from series_start, stopped where u reaches WHOLE_SPACE_CAP.  Growth must
    persist across 2 windows.  A shot that reaches the cap inside its window
    is returned as boundary-blowup at that radius, with the ratios of the
    windows before it."""
    rhs = _level_source(prob)
    Rmax, rtol = float(prob.domain[1]), 1e-10
    ratios = []
    for window in (Rmax, 2.0 * Rmax):
        start, y0 = series_start(rhs, 1.0, prob.N, 1e-6 * window)
        shot = shoot(rhs, prob.N, start, y0, window, rtol, rtol * 1e-3, cap=WHOLE_SPACE_CAP,
                     dense=True)
        if shot.status == -1:
            raise NumericsError(f"whole-space shot over [0, {window!r}] failed: {shot.message}")
        r_end = float(shot.t[-1])
        r = np.linspace(start, r_end, N_GRID)
        u, du = shot.sol(r)
        if shot.event == 2:
            classification = BOUNDARY_BLOWUP
            break
        mid = float(np.interp(window / 2.0, r, u))
        ratios.append(float(u[-1] / mid) if mid else math.inf)
    else:
        classification = ENTIRE_LARGE if all(q > 1.05 for q in ratios) else UNDETERMINED
    return RadialSolution(
        dimension=prob.N, r=r, u=u, du=du, classification=classification,
        blowup_radius=r_end if classification == BOUNDARY_BLOWUP else None,
        metadata={"nfev": shot.nfev, "steps_accepted": shot.steps_accepted,
                  "steps_rejected": shot.steps_rejected, "start": start,
                  "rtol": rtol, "window_ratios": ratios})


# ---------------------------------------------------------------------------
# Rate measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    """Boundary-rate ratios near the blow-up boundary with their limit."""

    d: np.ndarray
    ratio_h: np.ndarray
    ratio_xi0h: np.ndarray
    limit: float
    drift: float


def measure_boundary_rate(sol: RadialSolution, profile: BlowupProfile) -> RateTable:
    """Ratios u/h(d) and u/(xi0 h(d)) at the RATE_POINTS grid points nearest
    the boundary inside the profile table.

    The limit is the xi0-normalized ratio nearest the boundary and the drift
    its change to the next point.  A reading whose two nearest ratios differ
    by more than 1e-2 is a far-field ratio and is refused (NumericsError),
    as are solutions whose b-normalization does not match the profile
    variant.  Refusals name the level heights the solution carries.
    """
    heights = sol.metadata.get("n_levels")
    levels = f" (levels u = {', '.join(f'{n:g}' for n in heights)})" if heights else ""
    if sol.classification != BOUNDARY_BLOWUP:
        raise ValueError(f"rate measurement needs a boundary-blowup solution{levels}")
    norm = sol.metadata.get("b_normalization")
    if norm is not None and norm != profile.normalization:
        raise ValueError(
            f"normalization mismatch: solution weight is b ~ c*{norm}, profile "
            f"variant expects {profile.normalization} (k vs k^2 conventions differ)"
        )
    if profile.xi0 is None:
        raise ValueError("profile carries no xi0")
    d_all = np.abs(sol.r - sol.blowup_radius)
    idx = np.where((d_all >= profile.t[0]) & (d_all <= profile.t[-1]) & (d_all > 0.0))[0]
    if idx.size < 2:
        raise ValueError(f"too few resolved grid points inside the profile table{levels}")
    order = idx[np.argsort(d_all[idx])][:RATE_POINTS][::-1]  # the nearest, by decreasing d
    d = d_all[order]
    ratio_h = sol.u[order] / np.array([profile.h_at(float(x)) for x in d])
    ratio_x = ratio_h / profile.xi0
    drift = abs(ratio_x[-1] - ratio_x[-2])
    if drift > 1e-2:
        raise NumericsError(f"far-field boundary rate refused: the ratios at d = {d[-1]:.3g} "
                            f"and {d[-2]:.3g} differ by {drift:.3g} > 1e-2{levels}")
    return RateTable(d=d, ratio_h=ratio_h, ratio_xi0h=ratio_x,
                     limit=float(ratio_x[-1]), drift=float(drift))
