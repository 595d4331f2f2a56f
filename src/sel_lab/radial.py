"""Constructive radial solvers.

Monotone Picard iterations for entire solutions (with the exponential
gradient kernel and for coupled systems), the integral condition checkers
that decide bounded-vs-large, Gronwall Lipschitz constants, the u_n = n
approximation scheme for boundary blow-up solutions with Aitken
extrapolation across levels, and residual verification of explicit
solutions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expn

from .expr import ScalarFn, compose_scalar
from .karamata import Antiderivative, Nonlinearity, keller_osserman
from .numerics import (
    BOUNDARY_BLOWUP,
    BOUNDED,
    ENTIRE_LARGE,
    UNDETERMINED,
    NumericsError,
    RadialSolution,
    ShotTally,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
    integrate_radial_ivp,
    series_start,
    shoot,
)
from .profile import BlowupProfile

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

    def sigma(self) -> float:
        """liminf f/g at infinity, sampled (the coupling constant)."""
        fc, gc = self.f.f.fast(), self.g.f.fast()
        vals = []
        for u in (1e4, 1e6, 1e8):
            gu = gc(u)
            if gu > 0.0 and math.isfinite(gu):
                fu = fc(u)
                if math.isfinite(fu):
                    vals.append(fu / gu)
        return min(vals) if vals else math.nan


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

    Radial potentials (gap = 0) are trivially Convergent(0).  When the
    verdict is Convergent, value includes the [0, 1] head.
    """
    if pot.is_radial:
        return classify_tail_integral(lambda r: 0.0, 1.0, tol)

    def integrand(r):
        g = pot.gap(r)
        if g <= 0.0:
            return 0.0
        w = pot.weight(r)
        return r * g * w if math.isfinite(w) else math.inf

    verdict = classify_tail_integral(integrand, 1.0, tol)
    if verdict.is_convergent:
        head, e_head = integrate_finite(integrand, 0.0, 1.0, tol)
        verdict = type(verdict)(verdict.status, verdict.value + head,
                                verdict.err + e_head, verdict.slope, verdict.diagnostics)
    return verdict


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
    K_N -> 1 (_large_condition_kernel), so the verdict reads psi's own tail:
    the tail from 1 is classified and, when convergent, the [0, 1] head,
    where K_N = e^s s^(N-1) E_(N-1)(1), is added.  The elementary bound
    outer <= (N-2)^-1 int_0^inf t psi(t) dt is then a cross-check reported
    in the diagnostics.
    """
    if N < 3:
        raise ValueError("the gradient problem lives in dimension N >= 3")
    psi_call = psi_env.fast() if isinstance(psi_env, ScalarFn) else psi_env
    K = _large_condition_kernel(N)
    verdict = classify_tail_integral(lambda s: psi_call(s) * K(s), 1.0, tol)
    if not verdict.is_convergent:
        return verdict
    head, e_head = integrate_finite(lambda s: psi_call(s) * K(s), 0.0, 1.0, tol)
    value, diag = verdict.value + head, dict(verdict.diagnostics)
    if value > 0.0:
        bound_tail = classify_tail_integral(lambda t: t * psi_call(t), 1.0, tol)
        if bound_tail.is_convergent:
            head, _ = integrate_finite(lambda t: t * psi_call(t), 0.0, 1.0, tol)
            bound = (head + bound_tail.value) / (N - 2.0)
            diag["elementary_bound"] = bound
            diag["bound_holds"] = bool(value <= bound * (1.0 + 1e-6))
    return type(verdict)(verdict.status, value, verdict.err + e_head, verdict.slope, diag)


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


def _on_mesh(fn, t: np.ndarray) -> np.ndarray:
    """fn at every node of t: one vector call for an expression, one call
    per node for a plain callable."""
    if isinstance(fn, ScalarFn):
        return fn.vector()(t)
    return np.array([fn(float(x)) for x in t])


def _picard_gradient_run(psi_vals, f_vec, b0: float, t: np.ndarray, N: int,
                         tol: float):
    # w = b0 + int_0^r J with J(t) = e^-t t^(1-N) int_0^t e^s s^(N-1) psi f(w) ds
    inner, outer = _volterra(t, N - 1, rate=1), _volterra(t, 0)
    t_scale = np.concatenate(([0.0], t[1:] ** (1.0 - N)))
    w = np.full_like(t, b0)
    iterations = 0
    monotone = True
    for iterations in range(1, MAX_PICARD_ITERATIONS + 1):
        w_next = b0 + outer(t_scale * inner(psi_vals * f_vec(w)))
        if np.any(w_next < w - 1e-9 * (1.0 + np.abs(w))):
            monotone = False
        change = float(np.max(np.abs(w_next - w) / (1.0 + np.abs(w_next))))
        w = w_next
        if change < tol:
            break
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
    psi_call = psi.fast() if isinstance(psi, ScalarFn) else psi
    f_vec = f.f.vector()

    # refinement: double panels until the fixed point stops moving at R
    w = None
    for level in range(4):
        t = _graded_mesh(R, panels * 2 ** level)
        psi_vals = _on_mesh(psi, t)
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

    large_cond = None
    try:
        large_cond = check_large_condition(psi_call, N)
        metadata["large_condition"] = large_cond.status
    except NumericsError as exc:  # a quadrature failure leaves the class undetermined
        metadata["large_condition_error"] = str(exc)

    half = _cubic_read(t, w, R / 2.0)
    ratio = w[-1] / half
    metadata["growth_ratio"] = float(ratio)
    classification = UNDETERMINED
    if large_cond is not None:
        if large_cond.is_divergent and ratio > 1.05:
            classification = ENTIRE_LARGE
        elif large_cond.is_convergent and ratio <= 1.05:
            # plateau: the computed value at R/2 must be window independent
            t_half = _graded_mesh(R / 2.0, t.size - 1)
            w_half, _, _ = _picard_gradient_run(_on_mesh(psi, t_half), f_vec, b0, t_half,
                                                N, tol)
            drift = abs(w_half[-1] - half) / (1.0 + abs(half))
            metadata["plateau_drift"] = float(drift)
            if drift < 1e-6:
                classification = BOUNDED

    # ordering constant of the two-envelope comparison
    if pot is not None and not pot.is_radial:
        try:
            gap_tail = classify_tail_integral(lambda s: s * pot.gap(s), 1.0, 1e-8)
            slow = check_slow_variation(pot, 1e-8)
            if gap_tail.is_convergent and slow.is_convergent:
                head, _ = integrate_finite(lambda s: s * pot.gap(s), 0.0, 1.0, 1e-10)
                K_const = math.exp(lam_N * (head + gap_tail.value))
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
    u = np.full_like(t, sys_.a)
    v = np.full_like(t, sys_.b)
    monotone = True
    iterations = 0
    for iterations in range(1, MAX_PICARD_ITERATIONS + 1):
        u_next = sys_.a + K(p_vals * g_vec(v))
        v_next = sys_.b + K(q_vals * f_vec(u_next))
        if np.any(u_next < u - 1e-9 * (1.0 + np.abs(u))) or \
           np.any(v_next < v - 1e-9 * (1.0 + np.abs(v))):
            monotone = False
        change = max(float(np.max(np.abs(u_next - u) / (1.0 + np.abs(u_next)))),
                     float(np.max(np.abs(v_next - v) / (1.0 + np.abs(v_next)))))
        u, v = u_next, v_next
        if change < tol:
            break
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

    u_half = float(np.interp(R / 2.0, t, u))
    ratio = u[-1] / u_half if u_half > 0.0 else math.inf
    metadata["growth_ratio"] = float(ratio)
    classification = UNDETERMINED
    if s2_p.is_divergent and s2_q.is_divergent:
        if ratio > 1.05:
            classification = ENTIRE_LARGE
    elif s2_p.is_convergent and s2_q.is_convergent:
        t_half = np.linspace(0.0, R / 2.0, t.size)
        uh = _system_run(sys_, t_half, N, tol)[0]
        drift = abs(uh[-1] - u_half) / (1.0 + abs(u_half))
        metadata["plateau_drift"] = float(drift)
        if ratio <= 1.05 and drift < 1e-6:
            classification = BOUNDED
    metadata["prediction_agrees"] = classification != UNDETERMINED

    return RadialSolution(dimension=N, r=t, u=u, v=v, classification=classification,
                          metadata=metadata)


def lipschitz_constant(Cp: float, Cq: float, m_lip: float) -> float:
    """(1 + m Cq) e^(m^2 Cp Cq): the Gronwall factor on central-value gaps."""
    if Cp < 0.0 or Cq < 0.0 or m_lip < 0.0:
        raise ValueError("Cp, Cq, m must be nonnegative")
    return (1.0 + m_lip * Cq) * math.exp(m_lip * m_lip * Cp * Cq)


# ---------------------------------------------------------------------------
# Boundary blow-up via the u_n = n scheme
# ---------------------------------------------------------------------------

def _aitken(seq: np.ndarray) -> np.ndarray:
    """One Delta^2 pass; length shrinks by 2."""
    d1 = seq[1:-1] - seq[:-2]
    d2 = seq[2:] - 2.0 * seq[1:-1] + seq[:-2]
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = seq[:-2] - np.where(d2 != 0.0, d1 * d1 / np.where(d2 != 0.0, d2, 1.0), 0.0)
    return np.where(np.isfinite(acc), acc, seq[2:])


def _extrapolate_levels(levels: np.ndarray):
    """Aitken-accelerate the level sequence at each grid point.

    Acceleration only uses the converged tail of the sequence (levels
    within a factor 2 of the top one); points still saturated by the
    boundary value u = n keep the last level with a large error bar.
    """
    n_lv, n_pts = levels.shape
    u_inf = levels[-1].copy()
    err = np.empty(n_pts)
    for i in range(n_pts):
        seq = levels[:, i]
        top = seq[-1]
        err[i] = abs(seq[-1] - seq[-2])
        start = int(np.argmax(seq >= 0.5 * top))
        tail = seq[start:]
        if tail.size < 4:
            continue
        acc = _aitken(tail)
        if acc.size >= 3:
            acc2 = _aitken(acc)
            cand, delta = acc2[-1], abs(acc2[-1] - acc[-1])
        else:
            cand, delta = acc[-1], abs(acc[-1] - tail[-1])
        # an admissible limit dominates the monotone levels but cannot
        # overshoot the geometric trend (ratio cap ~0.95)
        cap = top + 20.0 * abs(seq[-1] - seq[-2]) + 1e-12
        if (math.isfinite(cand) and top * (1.0 - 1e-9) <= cand <= cap
                and delta < 0.5 * abs(cand)):
            u_inf[i] = cand
            err[i] = delta
    return u_inf, err


def _level_rhs(prob: LogisticProblem):
    """b(r) f(u) - a u, the level problems' right-hand side, as one generated
    function of (r, u, u') with b and f inlined."""
    return compose_scalar("r, u, du", [("B", prob.b.body, "r"), ("F", prob.f.f.body, "u"),
                                       "return B * F - a * u"], {"a": prob.a_lin})


def _shoot_level_annulus(prob: LogisticProblem, n: float, R0: float, R: float,
                         sigma_bracket, tally: ShotTally):
    """Level BVP u(R0) = n, u(R) = 0 by shooting on the inner slope; the
    shots are counted in tally."""
    rhs = _level_rhs(prob)
    N = prob.N
    r_start = R0 if (N == 1 or R0 > 0.0) else 1e-9 * R
    r_span = R + 0.05 * (R - R0)  # lets the zero event fire slightly past R

    def integrate(sigma, dense=False):
        # full accuracy also while probing: the level ordering near the
        # blow-up boundary is steeply sensitive to the slope.  A level
        # solution stays below its boundary value; rising past 1.5 n means
        # the slope was too shallow.
        return tally.add(shoot(rhs, N, r_start, (n, -sigma), r_span, 1e-10, 1e-12 * n,
                               floors=(0.0,), cap=1.5 * n, dense=dense))

    def zero_location(sigma):
        sol = integrate(sigma)
        if sol.t_events[0].size:
            return float(sol.t_events[0][0])
        # never returned to zero inside the window: continuous extension
        u_end, du_end = sol.y[0, -1], sol.y[1, -1]
        if du_end < 0.0:
            return float(sol.t[-1] + u_end / (-du_end))
        return float(sol.t[-1] + u_end + 1.0)

    # stop on the zero-location residual itself: the location is steeply
    # sensitive to sigma at large levels, so a sigma-width stop would
    # terminate with the zero visibly misplaced
    lo, hi = sigma_bracket
    sigma = find_root_monotone(lambda s: -zero_location(s), -R, lo, hi,
                               tol=1e-9 * R, width_tol=1e-15)
    return sigma, integrate(sigma, dense=True)


def _shoot_level_ball(prob: LogisticProblem, n: float, R: float, s_bracket,
                      tally: ShotTally):
    """Level BVP u'(0) = 0, u(R) = n by shooting on the center value; the
    shots are counted in tally."""
    rhs = _level_rhs(prob)
    N = prob.N

    def integrate(s, dense=False):
        start, y0 = series_start(rhs, s, N, 1e-8 * R)
        return tally.add(shoot(rhs, N, start, y0, R, 1e-10, 1e-12 * max(n, 1.0),
                               cap=10.0 * n, dense=dense))

    def endpoint(s):
        sol = integrate(s)
        if sol.t_events[0].size:
            return 10.0 * n + (R - float(sol.t_events[0][0]))
        return float(sol.y[0, -1])

    lo, hi = s_bracket
    s = find_root_monotone(endpoint, n, lo, hi, tol=1e-8 * max(1.0, n),
                           width_tol=1e-15)
    return s, integrate(s, dense=True)


def boundary_blowup(prob: LogisticProblem, n_levels=None, n_grid: int = 200) -> RadialSolution:
    """Boundary blow-up solution by the monotone u_n = n scheme.

    Solves the level BVPs with u = n on the blow-up boundary for
    n = 10*2^j by default, checks monotonicity in n, and Aitken-
    extrapolates across levels at every interior grid point.  Requires the
    Keller-Osserman integral of f to converge and a_lin below the first
    Dirichlet eigenvalue of the vanishing core when one is present.
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

    if n_levels is None:
        n_levels = [10.0 * 2.0 ** j for j in range(9)]
    n_levels = sorted(float(n) for n in n_levels)

    kind = prob.domain[0]
    if kind == "whole-space":
        return _whole_space_large(prob, n_grid)

    if kind == "ball":
        R0, R = 0.0, float(prob.domain[1])
        blow_r, d_sign = R, -1.0
        interior = R - np.geomspace(1e-3 * R, 0.98 * R, n_grid)[::-1]
        interior = np.concatenate(([0.0], interior))
    else:
        R0, R = float(prob.domain[1]), float(prob.domain[2])
        blow_r, d_sign = R0, +1.0
        interior = R0 + np.geomspace(1e-3 * (R - R0), 0.98 * (R - R0), n_grid)
        interior = np.concatenate((interior, [R]))

    levels = np.empty((len(n_levels), interior.size))
    params: list[float] = []
    tallies = [ShotTally() for _ in n_levels]
    for j, n in enumerate(n_levels):
        if len(params) >= 2:
            # log-linear prediction of the shooting parameter across levels;
            # the previous parameter is a guaranteed lower bound
            pred = params[-1] * (params[-1] / params[-2])
            bracket = (params[-1], max(1.35 * pred, 1.05 * params[-1]))
        elif params:
            bracket = (params[-1], params[-1] * 4.0)
        else:
            bracket = (1e-6, n) if kind == "ball" else (1e-6, 1.0)
        if kind == "ball":
            shoot_param, sol = _shoot_level_ball(prob, n, R, bracket, tallies[j])
        else:
            shoot_param, sol = _shoot_level_annulus(prob, n, R0, R, bracket, tallies[j])
        params.append(shoot_param)
        # evaluate on the fixed grid, clamping into the level's dense range;
        # tiny negative overshoot at the outer Dirichlet boundary is pure
        # shooting residue
        grid = np.clip(interior, sol.t[0], sol.t[-1])
        levels[j] = np.maximum(sol.sol(grid)[0], 0.0)

    for j in range(len(n_levels) - 1):
        slack = 1e-7 * (1.0 + np.abs(levels[j])) + 1e-6 * n_levels[j + 1]
        if np.any(levels[j + 1] < levels[j] - slack):
            raise ValueError("levels are not monotone nondecreasing in n "
                             "(maximum-principle ordering violated)")

    metadata = {
        "n_levels": list(n_levels),
        "b_normalization": prob.b_normalization,
        "blowup_boundary": blow_r,
        "boundary_side": "outer" if kind == "ball" else "inner",
        "level_shots": [t.shots for t in tallies],
        "level_steps_accepted": [t.steps_accepted for t in tallies],
        "level_steps_rejected": [t.steps_rejected for t in tallies],
    }
    if len(n_levels) == 1:
        return RadialSolution(dimension=prob.N, r=interior, u=levels[0],
                              classification=UNDETERMINED, metadata=metadata)
    if len(n_levels) < 4:
        u_inf, err = levels[-1], np.abs(levels[-1] - levels[-2])
    else:
        u_inf, err = _extrapolate_levels(levels)
    metadata["extrapolation_err"] = err
    metadata["distance_sign"] = d_sign
    return RadialSolution(dimension=prob.N, r=interior, u=u_inf,
                          classification=BOUNDARY_BLOWUP, blowup_radius=blow_r,
                          metadata=metadata)


def _whole_space_large(prob: LogisticProblem, n_grid: int) -> RadialSolution:
    """Entire-solution window sweep: growth must persist across 2 windows."""
    rhs = _level_rhs(prob)
    Rmax = float(prob.domain[1])
    ratios = []
    sol = None
    for window in (Rmax, 2.0 * Rmax):
        sol = integrate_radial_ivp(rhs, 1.0, 0.0, prob.N, window, 1e-10, n_points=n_grid)
        mid = float(np.interp(window / 2.0, sol.r, sol.u))
        ratios.append(float(sol.u[-1] / mid) if mid else math.inf)
    classification = ENTIRE_LARGE if all(r > 1.05 for r in ratios) else UNDETERMINED
    sol.classification = classification
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
    """Ratios u/h(d) and u/(xi0 h(d)) at the grid points nearest the boundary.

    The limit is a Richardson (Aitken) extrapolation of the xi0-normalized
    ratio along decreasing d, with the drift of the last two accelerated
    values.  Refuses solutions whose b-normalization does not match the
    profile variant.
    """
    if sol.classification != BOUNDARY_BLOWUP:
        raise ValueError("rate measurement needs a boundary-blowup solution")
    norm = sol.metadata.get("b_normalization")
    if norm is not None and norm != profile.normalization:
        raise ValueError(
            f"normalization mismatch: solution weight is b ~ c*{norm}, profile "
            f"variant expects {profile.normalization} (k vs k^2 conventions differ)"
        )
    if profile.xi0 is None:
        raise ValueError("profile carries no xi0")
    R_b = sol.blowup_radius
    d_all = np.abs(sol.r - R_b)
    in_table = (d_all >= profile.t[0]) & (d_all <= profile.t[-1]) & (d_all > 0.0)
    err = sol.metadata.get("extrapolation_err")
    usable = in_table
    if err is not None:
        # prefer points whose level extrapolation converged well; relax the
        # quality threshold before giving up
        rel = np.asarray(err) / np.maximum(np.abs(sol.u), 1e-300)
        for threshold in (0.005, 0.02, math.inf):
            usable = in_table & (rel <= threshold)
            if usable.sum() >= 3:
                break
    idx = np.where(usable)[0]
    if idx.size < 3:
        raise ValueError("too few usable grid points inside the profile table")
    # walk inward from the largest usable d and keep points while the ratio
    # varies smoothly; this drops near-boundary points whose level
    # extrapolation never converged (e.g. solutions reloaded without error
    # metadata)
    ordered = idx[np.argsort(d_all[idx])][::-1]  # decreasing d
    ratios = []
    kept = []
    for i in ordered:
        r_i = sol.u[i] / (profile.xi0 * profile.h_at(float(d_all[i])))
        if ratios and not (0.8 * abs(ratios[-1]) <= abs(r_i) <= 1.25 * abs(ratios[-1])):
            break
        ratios.append(r_i)
        kept.append(i)
    if len(kept) < 3:
        raise ValueError("boundary ratios are not consistent enough to extrapolate")
    order = np.asarray(kept[-points:])  # the `points` nearest consistent ones
    d = d_all[order]
    hvals = np.array([profile.h_at(float(x)) for x in d])
    ratio_h = sol.u[order] / hvals
    ratio_x = ratio_h / profile.xi0
    acc = ratio_x.copy()
    drift = abs(acc[-1] - acc[-2])
    while acc.size >= 3:
        nxt = _aitken(acc)
        drift = abs(nxt[-1] - acc[-1])
        acc = nxt
        if acc.size < 3:
            break
    return RateTable(d=d, ratio_h=ratio_h, ratio_xi0h=ratio_x,
                     limit=float(acc[-1]), drift=float(drift))
