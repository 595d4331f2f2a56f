"""Constructive radial solvers.

Monotone Picard iterations for entire solutions (with the exponential
gradient kernel and for coupled systems, both through one loop,
`_monotone_picard`), the integral condition checkers and the one
bounded-vs-large dichotomy (`_dichotomy`) both schemes share, Gronwall
Lipschitz constants, boundary blow-up solutions from two level problems
u = n read where they agree, and residual verification of explicit
solutions.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expn

from .expr import ScalarFn, compose_scalar
from .karamata import Antiderivative, Nonlinearity, keller_osserman
from .numerics import (
    BOUNDARY_BLOWUP,
    BOUNDED,
    ENTIRE_LARGE,
    UNDETERMINED,
    BracketError,
    NumericsError,
    RadialSolution,
    ShotTally,
    classify_tail_integral,
    find_root_monotone,
    integrate_radial_ivp,
    series_start,
    shoot,
)
from .profile import BlowupProfile, tail_map

MAX_PICARD_ITERATIONS = 200


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class RadialPotential:
    """Radial envelopes of a (possibly non-radial) potential.

    phi(r) = max_{|x|=r} p, psi(r) = min_{|x|=r} p; a radial potential has
    phi = psi and gap = 0.  Psi(r) = exp(lam_N int_0^r s psi(s) ds) with
    lam_N = Lambda/(N-2) is the Gronwall weight of the slow-variation
    condition.
    """

    phi: ScalarFn
    psi: ScalarFn | None = None
    lam_N: float = 1.0
    _psi_int: Antiderivative | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.psi is None:
            self.psi = self.phi
        fphi, fpsi = self.phi.fast(), self.psi.fast()
        for r in np.linspace(0.0, 20.0, 41):
            lo, hi = fpsi(float(r)), fphi(float(r))
            if lo < -1e-12 or hi < lo - 1e-12 * (1.0 + abs(hi)):
                raise ValueError("envelopes must satisfy phi >= psi >= 0")

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
            psi = self.psi.fast()
            self._psi_int = Antiderivative(lambda s: s * psi(s))
        return math.exp(self.lam_N * self._psi_int(r))


@dataclass
class SystemProblem:
    """Coupled system Delta u = p g(v), Delta v = q f(u) with central values."""

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
    ball of b (0 = empty).  b_normalization records whether b ~ c k^2(d)
    ("k2") or b ~ c k(d) ("k") so rate measurements can refuse mismatched
    profiles.
    """

    N: int
    f: Nonlinearity
    b: ScalarFn
    a_lin: float = 0.0
    domain: tuple = ("ball", 1.0)
    omega0_radius: float = 0.0
    b_normalization: str = "k2"

    def __post_init__(self):
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


# ---------------------------------------------------------------------------
# Integral condition checkers
# ---------------------------------------------------------------------------

def check_slow_variation(pot: RadialPotential, tol: float = 1e-8):
    """Classify int_0^inf r gap(r) Psi(r) dr (the slow-variation condition).

    Radial potentials (gap = 0) are trivially Convergent(0).
    """
    if pot.is_radial:
        return classify_tail_integral(lambda r: 0.0, 1.0, tol)

    def integrand(r):
        g = pot.gap(r)
        if g <= 0.0:
            return 0.0
        w = pot.weight(r)
        return r * g * w if math.isfinite(w) else math.inf

    return classify_tail_integral(integrand, 0.0, tol)


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

    return K


def check_large_condition(psi_env, N: int, tol: float = 1e-8):
    """Classify the outer weighted integral that gates entire large solutions.

    int_1^inf e^-t t^(1-N) int_0^t e^s s^(N-1) psi(s) ds dt = inf holds iff
    entire large solutions of the gradient problem exist.  As psi >= 0 the
    order of integration swaps (Tonelli) into int_0^inf psi K_N ds with
    K_N -> 1 (_large_condition_kernel), so the verdict reads psi's own tail
    and a convergent value is the whole int_0^inf psi K_N.  The elementary
    bound outer <= (N-2)^-1 int_0^inf t psi(t) dt is a cross-check
    reported in the diagnostics of a convergent verdict.
    """
    if N < 3:
        raise ValueError("the gradient problem lives in dimension N >= 3")
    psi_call = psi_env.fast()
    K = _large_condition_kernel(N)
    verdict = classify_tail_integral(lambda s: psi_call(s) * K(s), 0.0, tol)
    if verdict.is_convergent and verdict.value > 0.0:
        bound = classify_tail_integral(lambda t: t * psi_call(t), 0.0, tol)
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
    i = np.arange(panels + 1, dtype=float) / panels
    return R * i * i


def _volterra(t: np.ndarray, m: int, rate: int = 0):
    """fvals -> C_i = int_0^t_i e^(rate (s - t_i)) s^m fvals(s) ds at every node.

    Product integration: fvals is interpolated by the cubic through the four
    nodes around each panel (t[j-1..j+2], shifted inward at the ends) and the
    weight e^(rate (s - t_j+1)) s^m is integrated against it by Gauss-Legendre,
    exact for s^m times a cubic (four spare nodes resolve the exponential).
    The weights are built once per mesh; an application is one gather, a
    multiply-add and a cumulative sum.  With rate = 1 the panels are carried
    with the factor e^(panel end) split off and summed by log-sum-exp,
    positive and negative panel parts apart, so large t never overflows.
    """
    k = min(4, t.size)
    start = np.clip(np.arange(t.size - 1) - 1, 0, t.size - k)
    idx = start[:, None] + np.arange(k)
    nodes = t[idx]
    half = 0.5 * np.diff(t)
    W = np.zeros(nodes.shape)
    for x, gw in zip(*np.polynomial.legendre.leggauss((m + 5) // 2 + 4 * rate)):
        s = t[:-1] + half * (x + 1.0)
        weight = gw * half * s ** m * np.exp(rate * (s - t[1:]))
        for a in range(k):
            basis = weight.copy()
            for b in range(k):
                if b != a:
                    basis *= (s - nodes[:, b]) / (nodes[:, a] - nodes[:, b])
            W[:, a] += basis

    def apply(fvals):
        panel = np.einsum("jk,jk->j", W, fvals[idx])
        out = np.zeros_like(t)
        if not rate:
            out[1:] = np.cumsum(panel)
            return out
        with np.errstate(divide="ignore"):
            for sign in (1.0, -1.0):
                ln_cum = np.logaddexp.accumulate(np.log(np.maximum(sign * panel, 0.0)) + t[1:])
                out[1:] += sign * np.exp(ln_cum - t[1:])
        return out

    return apply


def _cubic_read(t: np.ndarray, y: np.ndarray, x: float) -> float:
    """y at x from the cubic through the four mesh nodes around x (shifted
    inward at the ends), the interpolant _volterra integrates."""
    k = min(4, t.size)
    start = int(np.clip(np.searchsorted(t, x, side="right") - 2, 0, t.size - k))
    nodes, vals = t[start:start + k], y[start:start + k]
    total = 0.0
    for a in range(k):
        term = vals[a]
        for b in range(k):
            if b != a:
                term *= (x - nodes[b]) / (nodes[a] - nodes[b])
        total += term
    return float(total)


def _monotone_picard(step, state: tuple, tol: float):
    """Iterate state -> step(state) over tuples of mesh arrays until no
    component moves by tol (relative) or MAX_PICARD_ITERATIONS is reached.

    Returns (state, iterations, monotone); monotone is False once a step
    lowered a component by more than 1e-9 relative.
    """
    monotone = True
    for iterations in range(1, MAX_PICARD_ITERATIONS + 1):
        nxt = step(state)
        if any(np.any(new < old - 1e-9 * (1.0 + np.abs(old))) for old, new in zip(state, nxt)):
            monotone = False
        change = max(float(np.max(np.abs(new - old) / (1.0 + np.abs(new))))
                     for old, new in zip(state, nxt))
        state = nxt
        if change < tol:
            break
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
    half = _cubic_read(t, u, R / 2.0)
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


def _picard_gradient_run(psi_vals, f_vec, b0: float, t: np.ndarray, N: int,
                         tol: float):
    # w = b0 + int_0^r J with J(t) = e^-t t^(1-N) int_0^t e^s s^(N-1) psi f(w) ds
    inner, outer = _volterra(t, N - 1, rate=1), _volterra(t, 0)
    t_scale = np.concatenate(([0.0], t[1:] ** (1.0 - N)))
    (w,), iterations, monotone = _monotone_picard(
        lambda state: (b0 + outer(t_scale * inner(psi_vals * f_vec(state[0]))),),
        (np.full_like(t, b0),), tol)
    return w, iterations, monotone


def picard_gradient_entire(pot_env, f: Nonlinearity, b0: float, R: float, N: int,
                           tol: float = 1e-8, panels: int = 2048) -> RadialSolution:
    """Monotone Picard scheme w_{k+1} = b0 + K[psi f(w_k)] on [0, R].

    K is the exponential radial kernel of the gradient problem.  Verifies
    the induction growth bound w_k <= b0 e^(M r) with
    M = lam_N max_{[0,R]} t psi(t), classifies large-vs-bounded by pairing
    the large-condition verdict with the growth ratio w(R)/w(R/2), and, when both
    envelopes are supplied, computes the ordering constant b* and checks
    the sub/super ordering v <= w pointwise.  Raises NumericsError when
    w(R) still moves by more than tol at the last of four mesh levels.
    """
    if N < 3:
        raise ValueError("the gradient scheme requires N >= 3")
    if b0 < 1.0:
        warnings.warn("the monotone scheme assumes b0 >= 1 (f(w) <= Lambda w needs w >= 1)",
                      RuntimeWarning, stacklevel=2)
    pot = pot_env if isinstance(pot_env, RadialPotential) else None
    psi = pot.psi if pot is not None else pot_env
    f_vec = f.f.vector()

    # refinement: double panels until the fixed point stops moving at R
    w = None
    for level in range(4):
        t = _graded_mesh(R, panels * 2 ** level)
        psi_vals = psi.vector()(t)
        if np.any(psi_vals < 0.0):
            raise ValueError("psi envelope must be nonnegative")
        w_prev = w
        w, iterations, monotone = _picard_gradient_run(psi_vals, f_vec, b0, t, N, tol)
        mesh_drift = abs(w[-1] - w_prev[-1]) / (1.0 + abs(w[-1])) if level else math.nan
        if mesh_drift <= tol:
            break
    if not monotone:
        raise ValueError("Picard iterates failed to be nondecreasing: the scheme's "
                         "assumptions are violated (check b0 >= 1 and f nondecreasing)")
    if mesh_drift > tol:
        raise NumericsError(f"Picard mesh refinement stopped at {t.size - 1} panels with "
                            f"w(R) still moving by {mesh_drift:.3g} > tol = {tol:.3g}")

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
        "mesh_points": t.size - 1,
        "mesh_drift": mesh_drift,
        "growth_bound_M": M,
        "growth_bound_ok": growth_ok,
        "monotone": monotone,
    }

    verdicts = []
    try:
        verdicts.append(check_large_condition(psi, N))
        metadata["large_condition"] = verdicts[0].status
    except NumericsError as exc:  # a quadrature failure leaves the class undetermined
        metadata["large_condition_error"] = str(exc)

    def rerun():
        t_half = _graded_mesh(R / 2.0, t.size - 1)
        return _picard_gradient_run(psi.vector()(t_half), f_vec, b0, t_half, N, tol)[0]

    classification = _dichotomy(verdicts, t, w, R, rerun, metadata)

    # ordering constant of the two-envelope comparison
    if pot is not None and not pot.is_radial:
        try:
            gap = classify_tail_integral(lambda s: s * pot.gap(s), 0.0, 1e-8)
            slow = check_slow_variation(pot, 1e-8)
            if gap.is_convergent and slow.is_convergent:
                K_const = math.exp(lam_N * gap.value)
                b_star = 1.0 + K_const * lam_N * slow.value
                metadata["b_star"] = b_star
                v_run, _, _ = _picard_gradient_run(pot.phi.vector()(t), f_vec, 1.0, t, N, tol)
                w_run, _, _ = _picard_gradient_run(psi_vals, f_vec,
                                                   b_star * (1.0 + 1e-9), t, N, tol)
                metadata["ordering_ok"] = bool(np.all(v_run <= w_run * (1.0 + 1e-9)))
        except NumericsError as exc:
            metadata["ordering_error"] = str(exc)

    return RadialSolution(dimension=N, r=t, u=w, classification=classification,
                          metadata=metadata)


# ---------------------------------------------------------------------------
# Coupled systems
# ---------------------------------------------------------------------------

def _green_kernel(t: np.ndarray, N: int):
    """fvals -> int_0^r t^(1-N) int_0^t s^(N-1) fvals ds dt on the mesh.

    Swapping the order gives the radial Green's function split
    (P(r) - r^(2-N) Q(r)) / (N-2) with P = int_0^r s f, Q = int_0^r s^(N-1) f.
    """
    P, Q = _volterra(t, 1), _volterra(t, N - 1)
    scale = np.concatenate(([0.0], t[1:] ** (2.0 - N)))
    return lambda fvals: (P(fvals) - scale * Q(fvals)) / (N - 2.0)


def _system_run(sys_: SystemProblem, t: np.ndarray, N: int, tol: float):
    p_vals, q_vals = sys_.p.phi.vector()(t), sys_.q.phi.vector()(t)
    f_vec, g_vec = sys_.f.f.vector(), sys_.g.f.vector()
    K = _green_kernel(t, N)

    def step(state):
        u_next = sys_.a + K(p_vals * g_vec(state[1]))
        return u_next, sys_.b + K(q_vals * f_vec(u_next))

    (u, v), iterations, monotone = _monotone_picard(
        step, (np.full_like(t, sys_.a), np.full_like(t, sys_.b)), tol)
    # theory lower bounds u >= a + g(b) A(r), v >= b + f(a) B(r)
    lower_u = sys_.a + sys_.g.f(sys_.b) * K(p_vals)
    lower_v = sys_.b + sys_.f.f(sys_.a) * K(q_vals)
    lower_ok = bool(np.all(u >= lower_u * (1.0 - 1e-9) - 1e-12)
                    and np.all(v >= lower_v * (1.0 - 1e-9) - 1e-12))
    return u, v, iterations, monotone, lower_ok


def solve_system(sys_: SystemProblem, R: float, N: int, tol: float = 1e-10,
                 mesh_points: int = 4096) -> RadialSolution:
    """Alternating monotone Picard scheme for the coupled system on [0, R].

    Classification follows the dichotomy of the tail integrals of t p(t)
    and t q(t): both divergent and sustained growth -> entire-large; both
    convergent and a window-independent plateau -> bounded; mixed verdicts
    are undetermined (only the two pure cases are covered by the theory).
    Raises NumericsError when the mesh error left after at most three
    doublings (metadata mesh_error) misses max(tol, 1e-9).
    """
    if N < 3:
        raise ValueError("the system scheme requires N >= 3")
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

    # refinement: double the mesh until neither u nor v moves on the coarse nodes
    target = max(tol, 1e-9)
    t = np.linspace(0.0, R, mesh_points + 1)
    run = _system_run(sys_, t, N, tol)
    drifts = []
    for _ in range(3):
        t2 = np.linspace(0.0, R, 2 * (t.size - 1) + 1)
        run2 = _system_run(sys_, t2, N, tol)
        drifts.append(max(float(np.max(np.abs(fine[::2] - coarse) / (1.0 + np.abs(coarse))))
                          for coarse, fine in zip(run[:2], run2[:2])))
        t, run = t2, run2
        if drifts[-1] <= target:
            break
    u, v, iterations, monotone, lower_ok = run
    if not monotone:
        raise ValueError("system iterates failed to be nondecreasing")
    # Richardson: drifts falling by ratio per doubling leave drift/(ratio - 1)
    # on the finest mesh; a ratio below 8 is not yet asymptotic
    mesh_drift = mesh_error = drifts[-1]
    ratio = drifts[-2] / mesh_drift if len(drifts) > 1 and mesh_drift > 0.0 else 0.0
    if ratio >= 8.0:
        mesh_error = mesh_drift / (ratio - 1.0)
    if not mesh_error <= target:
        raise NumericsError(f"system mesh refinement stopped at {t.size - 1} panels with "
                            f"mesh error {mesh_error:.3g} > {target:.3g} (last drift "
                            f"{mesh_drift:.3g})")

    p_call, q_call = sys_.p.phi.fast(), sys_.q.phi.fast()
    s2_p = classify_tail_integral(lambda s: s * p_call(s), 1.0, 1e-8)
    s2_q = classify_tail_integral(lambda s: s * q_call(s), 1.0, 1e-8)
    metadata = {
        "iterations": iterations,
        "mesh_points": t.size - 1,
        "mesh_drift": mesh_drift,
        "mesh_error": mesh_error,
        "tp_verdict": s2_p.status,
        "tq_verdict": s2_q.status,
        "lower_bound_ok": lower_ok,
    }

    classification = _dichotomy(
        [s2_p, s2_q], t, u, R,
        lambda: _system_run(sys_, np.linspace(0.0, R / 2.0, t.size), N, tol)[0], metadata)
    metadata["prediction_agrees"] = classification != UNDETERMINED

    return RadialSolution(dimension=N, r=t, u=u, v=v, classification=classification,
                          metadata=metadata)


def lipschitz_constant(Cp: float, Cq: float, m_lip: float) -> float:
    """(1 + m Cq) e^(m^2 Cp Cq): the Gronwall factor on central-value gaps."""
    if Cp < 0.0 or Cq < 0.0 or m_lip < 0.0:
        raise ValueError("Cp, Cq, m must be nonnegative")
    return (1.0 + m_lip * Cq) * math.exp(m_lip * m_lip * Cp * Cq)


# ---------------------------------------------------------------------------
# Boundary blow-up from two level problems u = n
# ---------------------------------------------------------------------------

TOP_DISTANCE = 1e-13  # phi(n)/R a few hundred float spacings of a shot resolve
HEIGHT_EXPONENTS = range(21)  # the top height is a power of ten, at most 1e20
AGREEMENT = 1e-4  # the two levels agree where they differ by this much relative


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


def _level_search(shot, span: float, cap: float, f: Nonlinearity, phi):
    """solve(n, tally): the shooting parameter of the level u = n.

    Each search runs on the Keller-Osserman tail map phi of the shot's
    boundary value against phi(n): phi(u) is the distance to blow-up of
    u'' = f(u), which falls nearly linearly in the parameter where log u is
    singular.  A shot into the cap, continued to the boundary along phi's
    tangent, reads below 0; one that stalls at the minimum step reads -span.
    One memo of the shots serves every height and brackets each search by
    the nearest shots on either side, found by doubling or halving from 1.
    """
    memo: dict[float, float] = {}

    def distance(p, tally):
        if p not in memo:
            sol = tally.add(shot(p, cap))
            x, u, du = float(sol.t[-1]), float(sol.y[0, -1]), float(sol.y[1, -1])
            if sol.status == -1:
                memo[p] = -span
            elif sol.t_events[0].size:
                memo[p] = phi(u) - du * (span - x) / math.sqrt(2.0 * f.F(u))
            else:
                memo[p] = phi(u) if u > 0.0 else 1e300
        return memo[p]

    def solve(n, tally):
        target = phi(n)
        for _ in range(60):
            below = [p for p, D in memo.items() if D > target]
            above = [p for p, D in memo.items() if D < target and p > max(below, default=0.0)]
            if below and above:
                return find_root_monotone(lambda p: distance(p, tally), target, max(below),
                                          min(above), tol=1e-4 * target, width_tol=1e-15)
            distance(2.0 * max(below) if below else 0.5 * min(above, default=2.0), tally)
        raise BracketError(f"no two shots bracket the level u = {n:g}")

    return solve


def boundary_blowup(prob: LogisticProblem, n_levels=None, n_grid: int = 200) -> RadialSolution:
    """Boundary blow-up solution from two level problems u = n.

    By default the levels are n/100 and the top height n, the largest power
    of ten whose Keller-Osserman tail map phi(n) = int_n^inf ds/sqrt(2F)
    still reaches TOP_DISTANCE R, retried once at n/10^4 and n/100 when a
    search fails; given n_levels, each height is solved and the top two
    decide.  The searches run from the top height down, each bracketed by
    the shots before it.  The solution is the top level at the grid points
    where the two agree to AGREEMENT relative (fewer than two:
    undetermined).  Requires the Keller-Osserman integral of f to converge
    and a_lin below the first Dirichlet eigenvalue of the vanishing core
    when one is present.
    """
    ko = keller_osserman(prob.f)
    if not ko.is_convergent:
        raise ValueError(
            f"Keller-Osserman integral is {ko.status}: large solutions exist only "
            "under the Keller-Osserman condition"
        )
    if prob.omega0_radius > 0.0:
        from .bifurcation import lambda_inf_1

        lam_gate = lambda_inf_1(prob.N, prob.omega0_radius)
        if prob.a_lin >= lam_gate:
            raise ValueError(
                f"a = {prob.a_lin!r} >= lambda_inf_1 = {lam_gate!r}: no large solution"
            )

    kind = prob.domain[0]
    if kind == "whole-space":
        return _whole_space_large(prob, n_grid)

    shot, span = _level_shot(prob)
    phi = tail_map(prob.f)
    if n_levels is None:
        k = bisect.bisect(HEIGHT_EXPONENTS, False,
                          key=lambda k: phi(10.0 ** k) < TOP_DISTANCE * span)
        n = 10.0 ** max(k - 1, 0)
        attempts = ([n / 100.0, n], [n / 1e4, n / 100.0])
    else:
        attempts = (sorted(float(n) for n in n_levels),)
    for heights in attempts:
        solve = _level_search(shot, span, 10.0 * heights[-1], prob.f, phi)
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
        x = interior = np.concatenate(([0.0], R - np.geomspace(1e-3 * R, 0.98 * R, n_grid)[::-1]))
    else:
        blow_r = float(prob.domain[1])
        interior = np.concatenate((blow_r + np.geomspace(1e-3 * span, 0.98 * span, n_grid), [R]))
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
        "level_steps_accepted": [t.steps_accepted for t in tallies],
        "level_steps_rejected": [t.steps_rejected for t in tallies],
    }
    if np.count_nonzero(agree) < 2:
        return RadialSolution(dimension=prob.N, r=interior, u=u,
                              classification=UNDETERMINED, metadata=metadata)
    return RadialSolution(dimension=prob.N, r=interior[agree], u=u[agree],
                          classification=BOUNDARY_BLOWUP, blowup_radius=blow_r,
                          metadata=metadata)


def _whole_space_large(prob: LogisticProblem, n_grid: int) -> RadialSolution:
    """Entire-solution window sweep: growth must persist across 2 windows.
    A shot that blows up inside its window is returned as boundary-blowup
    at that radius, with the ratios of the windows before it."""
    rhs = _level_source(prob)
    Rmax = float(prob.domain[1])
    ratios = []
    for window in (Rmax, 2.0 * Rmax):
        sol = integrate_radial_ivp(rhs, 1.0, 0.0, prob.N, window, 1e-10, n_points=n_grid)
        if sol.classification == BOUNDARY_BLOWUP:
            break
        mid = float(np.interp(window / 2.0, sol.r, sol.u))
        ratios.append(float(sol.u[-1] / mid) if mid else math.inf)
    else:
        sol.classification = ENTIRE_LARGE if all(r > 1.05 for r in ratios) else UNDETERMINED
    sol.metadata["window_ratios"] = ratios
    return sol


# ---------------------------------------------------------------------------
# Residual verification and rate measurement
# ---------------------------------------------------------------------------

def residual(u_src: str, rhs, N: int, r_grid) -> float:
    """sup over the grid of |u'' + (N-1)/r u' - rhs(r, u, u')| for symbolic u."""
    u_fn = ScalarFn.from_source(u_src)
    du_fn = u_fn.derivative_fn()
    ddu_fn = du_fn.derivative_fn()
    worst = 0.0
    for r in np.asarray(r_grid, dtype=float):
        u = u_fn(r)
        du = du_fn(r)
        ddu = ddu_fn(r)
        if r == 0.0:
            lap = N * ddu  # radial Laplacian limit at the origin
        else:
            lap = ddu + (N - 1) / r * du
        worst = max(worst, abs(lap - rhs(float(r), u, du)))
    return worst


def residual_on_table(r, u, du, rhs, N: int) -> float:
    """Residual of a tabulated solution; u'' via Richardson differences of u'."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    worst = 0.0
    for i in range(2, r.size - 2):
        h1 = r[i + 1] - r[i - 1]
        h2 = r[i + 2] - r[i - 2]
        d_a = (du[i + 1] - du[i - 1]) / h1
        d_b = (du[i + 2] - du[i - 2]) / h2
        ddu = (4.0 * d_a - d_b) / 3.0 if abs(h2 - 2.0 * h1) < 1e-9 * h1 else d_a
        lap = ddu + ((N - 1) / r[i] * du[i] if r[i] > 0.0 else (N - 1) * ddu)
        worst = max(worst, abs(lap - rhs(float(r[i]), float(u[i]), float(du[i]))))
    return worst


@dataclass(frozen=True)
class RateTable:
    """Boundary-rate ratios near the blow-up boundary with their limit."""

    d: np.ndarray
    ratio_h: np.ndarray
    ratio_xi0h: np.ndarray
    limit: float
    drift: float


def measure_boundary_rate(sol: RadialSolution, profile: BlowupProfile,
                          points: int = 10) -> RateTable:
    """Ratios u/h(d) and u/(xi0 h(d)) at the `points` grid points nearest the
    boundary inside the profile table.

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
    order = idx[np.argsort(d_all[idx])][:points][::-1]  # the nearest, by decreasing d
    d = d_all[order]
    ratio_h = sol.u[order] / np.array([profile.h_at(float(x)) for x in d])
    ratio_x = ratio_h / profile.xi0
    drift = abs(ratio_x[-1] - ratio_x[-2])
    if drift > 1e-2:
        raise NumericsError(f"far-field boundary rate refused: the ratios at d = {d[-1]:.3g} "
                            f"and {d[-2]:.3g} differ by {drift:.3g} > 1e-2{levels}")
    return RateTable(d=d, ratio_h=ratio_h, ratio_xi0h=ratio_x,
                     limit=float(ratio_x[-1]), drift=float(drift))
