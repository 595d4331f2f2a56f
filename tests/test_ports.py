"""The classic routines the package ports against the scipy routines they replace.

DOP853's tables must be scipy's entry by entry; Brent's root finder must
return brentq's root and iteration count after evaluating brentq's points,
on random brackets and on the event objectives of real shots; and the
bounded minimiser must evaluate minimize_scalar's points.  These tests
import scipy; the package does not.  Quadrature is not a port: the
closed forms of integrate_finite are in tests/test_numerics.py.
"""

import math
import random

import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq, minimize_scalar

from sel_lab import bifurcation, numerics
from sel_lab.bifurcation import LEFProblem, solve_lef
from sel_lab.karamata import analyze_nonlinearity
from sel_lab.radial import LogisticProblem, boundary_blowup

# ---------------------------------------------------------------------------
# DOP853's tables
# ---------------------------------------------------------------------------


def _padded(rows, width):
    return [list(row) + [0.0] * (width - len(row)) for row in rows]


def test_dop853_tables_are_scipy_s_entry_by_entry():
    assert numerics.DOP853_STAGES == DOP853.n_stages
    assert numerics.DOP853_ERROR_ORDER == DOP853.error_estimator_order
    assert list(numerics.DOP853_C) == DOP853.C[1:].tolist()
    assert _padded(numerics.DOP853_A, DOP853.n_stages) == DOP853.A[1:].tolist()
    for name in ("B", "E3", "E5", "C_EXTRA"):
        assert list(getattr(numerics, f"DOP853_{name}")) == getattr(DOP853, name).tolist(), name
    assert _padded(numerics.DOP853_A_EXTRA, 16) == DOP853.A_EXTRA.tolist()
    assert [list(row) for row in numerics.DOP853_D] == DOP853.D.tolist()


# ---------------------------------------------------------------------------
# Brent's root finder
# ---------------------------------------------------------------------------

def _traced(f):
    """f and the list of the points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def _scipy_root(f, a, b, xtol, rtol, maxiter):
    """(root, iterations, converged) or the ValueError of brentq, and its
    points.  brentq leaves its iteration count unset when an end is the
    root; it reads 0 here, as the port's."""
    g, points = _traced(f)
    try:
        root, info = brentq(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                            full_output=True, disp=False)
        iterations = 0 if 0.0 in (float(f(a)), float(f(b))) else info.iterations
        return (root, iterations, info.converged), points
    except ValueError as exc:
        return repr(exc), points


def _port_root(f, a, b, xtol, rtol, maxiter):
    g, points = _traced(f)
    try:
        return numerics._brentq(g, a, b, xtol, rtol, maxiter), points
    except ValueError as exc:
        return repr(exc), points


def _brackets(count: int, seed: int):
    """Random root problems: odd powers, steps smoothed by tanh, exponentials
    and cubics with three roots; a few ends of equal sign, a zero at an end,
    a nan value and too few iterations."""
    rng = random.Random(seed)
    for k in range(count):
        c, p, s = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0), rng.choice((1.0, -1.0))
        f = (lambda x, c=c, p=p, s=s: s * math.copysign(abs(x - c) ** p, x - c),
             lambda x, c=c, s=s: math.tanh(10.0 * s * (x - c)) + 1e-3 * x,
             lambda x, c=c, s=s: s * (math.exp(x - c) - 1.0),
             lambda x, c=c, s=s: s * ((x - c) ** 3 - 0.1 * (x - c)))[k % 4]
        a, b = c - rng.uniform(1e-6, 4.0), c + rng.uniform(1e-6, 4.0)
        if k % 97 == 5:
            a = c + 1e-3  # both ends on one side of the root
        if k % 89 == 7:
            a = c  # a root at an end
        if k % 83 == 11:
            f = (lambda x, c=c: math.nan if x > c else -1.0)
        xtol = rng.choice((2e-12, 4 * numerics._EPS, 1e-8, 1e-3))
        yield f, a, b, xtol, max(xtol, 4 * numerics._EPS), rng.choice((100, 200, 4))


def test_brent_root_and_iterations_are_brentq_s():
    problems = list(_brackets(1200, seed=5))
    differ = [p[1:] for p in problems if _port_root(*p) != _scipy_root(*p)]
    assert not differ
    # the battery holds each kind of outcome
    outcomes = [_port_root(*p)[0] for p in problems]
    assert sum(isinstance(o, str) and "NaN" in o for o in outcomes) >= 10
    assert sum(isinstance(o, str) and "signs" in o for o in outcomes) >= 10
    assert sum(o[1:] == (0, True) for o in outcomes if not isinstance(o, str)) >= 10
    assert sum(o[2] is False for o in outcomes if not isinstance(o, str)) >= 10


@pytest.mark.parametrize("ftol", [1e-9, 1e-3])
def test_a_residual_stop_returns_the_first_point_within_it(ftol):
    # with ftol, Brent's method evaluates brentq's points up to the first
    # whose |f| <= ftol and returns it, converged even when only the last
    # iteration found it; a search that meets no such point is brentq's
    stopped = 0
    for f, a, b, xtol, rtol, maxiter in _brackets(1200, seed=5):
        plain, points = _port_root(f, a, b, xtol, rtol, maxiter)
        g, seen = _traced(f)
        try:
            out = numerics._brentq(g, a, b, xtol, rtol, maxiter, ftol=ftol)
        except ValueError as exc:
            out = repr(exc)
        hits = [i for i, x in enumerate(points) if abs(f(x)) <= ftol]
        if not hits:
            assert (out, seen) == (plain, points)
            continue
        i = hits[0]
        assert seen == points[:max(i + 1, 2)]
        assert out[0] == points[i] and out[2] is True
        stopped += 1
    assert stopped >= 100


def _recorded(monkeypatch, name):
    """Record each call of numerics.<name> with its result."""
    calls, port = [], getattr(numerics, name)

    def recording(*args, **kwargs):
        out = port(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(numerics, name, recording)
    return calls


def test_event_location_is_brentq_s(monkeypatch):
    # every shot of an LEF solve ends on a floor or cap event, located on
    # the step's interpolant of u: the objective of shoot's event slots
    calls = _recorded(monkeypatch, "_brentq")
    f_exp = analyze_nonlinearity("exp(t)")
    solve_lef(LEFProblem(N=3, geometry="ball", lam=3.0, f=f_exp))
    solve_lef(LEFProblem(N=1, geometry="ball", lam=0.9, f=f_exp))
    boundary_blowup(LogisticProblem(N=1, f=analyze_nonlinearity("t^3"),
                                    b=numerics.ScalarFn.from_source("t^2"),
                                    domain=("annulus", 0.0, 1.0)))
    events = [args for args, _, _ in calls if args[5] == 100]
    assert len(events) >= 50
    for args in events:
        assert _port_root(*args) == _scipy_root(*args)


# ---------------------------------------------------------------------------
# Brent's bounded minimiser
# ---------------------------------------------------------------------------

def _minimisers(count: int, seed: int):
    rng = random.Random(seed)
    for k in range(count):
        c, w = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        f = (lambda x, c=c: (x - c) ** 2,
             lambda x, c=c, w=w: -math.exp(-(x - c) ** 2 / w) + 0.01 * math.sin(20.0 * x),
             lambda x, c=c: abs(x - c) ** 0.5,
             lambda x, c=c: 0.0 if x < c else x - c)[k % 4]
        lo, hi = c - rng.uniform(0.01, 5.0), c + rng.uniform(-0.005, 5.0)
        yield f, lo, hi, rng.choice((1e-5, 1e-8, 1e-2))


def test_bounded_minimiser_evaluates_minimize_scalar_s_points():
    for f, lo, hi, xatol in _minimisers(400, seed=11):
        theirs, ours = _traced(f), _traced(f)
        minimize_scalar(theirs[0], bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        bifurcation._minimize_bounded(ours[0], lo, hi, xatol)
        assert ours[1] == theirs[1], (lo, hi, xatol)


# The minimiser's first four points on [0, 1] and values there that put the
# vertex of the parabola through the last three on the bound 1 exactly, in
# float arithmetic: p == q (b - x).  The step is refused, as minimize_scalar
# refuses it (a test p <= q (b - x) would take it and read f 1e-5 beside x).
_ON_THE_BOUND = {0.3819660112501051: 1.0, 0.6180339887498948: 0.5,
                 0.7639320225002102: 0.3239041641271698,
                 0.9440000000000556: 0.2211953493725598}


def test_a_parabola_step_onto_the_bound_is_minimize_scalar_s():
    def f(x):
        return _ON_THE_BOUND.get(x, 2.0 + x)

    theirs, ours = _traced(f), _traced(f)
    minimize_scalar(theirs[0], bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-5})
    bifurcation._minimize_bounded(ours[0], 0.0, 1.0, 1e-5)
    assert ours[1][:4] == list(_ON_THE_BOUND)
    assert ours[1] == theirs[1]


def test_fold_search_shoots_as_under_minimize_scalar(monkeypatch):
    # N = 1 Gelfand ball past lambda*: the no-solution verdict runs the fold search
    problem = LEFProblem(N=1, geometry="ball", lam=0.9, f=analyze_nonlinearity("exp(t)"))
    ours = solve_lef(problem)

    def scipy_s(f, lo, hi, xatol):
        return minimize_scalar(f, bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol}).x

    monkeypatch.setattr(bifurcation, "_minimize_bounded", scipy_s)
    theirs = solve_lef(problem)
    assert ours.metadata["probe_table"] == theirs.metadata["probe_table"]
    assert ours.metadata["lambda_star"] == theirs.metadata["lambda_star"]
