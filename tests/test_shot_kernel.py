"""The generated DOP853 step loop against the Python step loop it replaces.

`numerics.shoot` runs each shot in one generated function that holds the
accept/reject loop, the drift (N-1)/r u' and three event slots.  The
reference here is the integrator that ran every shot before: a generated
`step`/`dense` pair called once per attempted step through a drift
wrapper, with the events as Python lambdas and the step loop in Python.
Every shot must come out the same, bit for bit: the same t, y, fired event
slot, dense solution, status, message, RHS calls and step counts, or the same
exception with the same message, node and t.
"""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

from sel_lab import bifurcation, numerics, radial
from sel_lab.bifurcation import LEFProblem, _lef_source, solve_lef
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import analyze_nonlinearity, analyze_singular_term
from sel_lab.numerics import (
    _MESSAGES,
    ShotResult,
    _DenseSolution,
    _interpolate_nested,
    series_start,
    shoot,
)
from sel_lab.radial import LogisticProblem, boundary_blowup

import reference

# ---------------------------------------------------------------------------
# The reference integrator
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_SQRT2 = 2 ** 0.5


def _weighted(coefs, names):
    return " + ".join(f"{c!r} * {x}" for c, x in zip(coefs, names) if c)


def _stage_lines(rows, nodes, ku, kv, first):
    lines = []
    for i, (a, c) in enumerate(zip(rows, nodes), start=first):
        r_stage = "r + h" if c == 1.0 else f"r + {c!r} * h"
        lines += [f"    u{i} = u + ({_weighted(a, ku)}) * h",
                  f"    v{i} = v + ({_weighted(a, kv)}) * h",
                  f"    f{i} = acc({r_stage}, u{i}, v{i})"]
        ku.append(f"v{i}")
        kv.append(f"f{i}")
    return lines


def _compile_pair():
    ku, kv = ["v"], ["f"]
    lines = ["def step(acc, r, u, v, f, h, atol, rtol):"]
    lines += _stage_lines(DOP853.A[1:].tolist(), DOP853.C[1:].tolist(), ku, kv, 2)
    b, e5, e3 = DOP853.B.tolist(), DOP853.E5.tolist(), DOP853.E3.tolist()
    lines += [f"    u_new = u + h * ({_weighted(b, ku)})",
              f"    v_new = v + h * ({_weighted(b, kv)})",
              "    f_new = acc(r + h, u_new, v_new)",
              "    su = atol + max(abs(u), abs(u_new)) * rtol",
              "    sv = atol + max(abs(v), abs(v_new)) * rtol"]
    ku.append("v_new")
    kv.append("f_new")
    lines += [f"    e5u = ({_weighted(e5, ku)}) / su",
              f"    e5v = ({_weighted(e5, kv)}) / sv",
              f"    e3u = ({_weighted(e3, ku)}) / su",
              f"    e3v = ({_weighted(e3, kv)}) / sv",
              "    n5 = _sqrt(e5u * e5u + e5v * e5v)",
              "    n3 = _sqrt(e3u * e3u + e3v * e3v)",
              "    n5 = n5 * n5",
              "    n3 = n3 * n3",
              "    error_norm = h * n5 / _sqrt((n5 + 0.01 * n3) * 2) if n5 else 0.0"]
    slopes = ", ".join(ku + kv)
    lines += [f"    return u_new, v_new, f_new, error_norm, ({slopes})",
              "",
              "def dense(acc, r, u, h, u_new, slopes):",
              f"    {slopes} = slopes"]
    lines += _stage_lines(DOP853.A_EXTRA.tolist(), DOP853.C_EXTRA.tolist(), ku, kv,
                          len(ku) + 1)
    rows = DOP853.D.tolist()
    lines += [
        "    du = u_new - u",
        "    dv = v_new - v",
        "    return ((du, h * v - du, 2 * du - h * (v_new + v), "
        f"{', '.join(f'h * ({_weighted(d, ku)})' for d in rows)}),",
        "            (dv, h * f - dv, 2 * dv - h * (f_new + f), "
        f"{', '.join(f'h * ({_weighted(d, kv)})' for d in rows)}))"]
    env = {"_sqrt": math.sqrt}
    exec(compile("\n".join(lines), "<reference DOP853>", "exec"), env)  # noqa: S102
    return env["step"], env["dense"]


_STEP, _DENSE = _compile_pair()


def _runge_kutta(acc, r0, y0, r_end, rtol, atol, events, dense):
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    exponent = -1 / 8

    r = r0
    f = acc(r, u, v)
    interval = r_end - r0
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = math.sqrt((u / su) * (u / su) + (v / sv) * (v / sv)) / _SQRT2
    d1 = math.sqrt((v / su) * (v / su) + (f / sv) * (f / sv)) / _SQRT2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    u1, v1 = u + h0 * v, v + h0 * f
    du, dv = (v1 - v) / su, (acc(r + h0, u1, v1) - f) / sv
    d2 = math.sqrt(du * du + dv * dv) / _SQRT2 / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_next = min(100 * h0, h1, interval)
    nfev = 2

    ts, us, vs = [r], [u], [v]
    steps = []
    event = None
    g_old = [g(u, v) for _, g in events]
    accepted = rejected = 0
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h = max(h_next, min_step)
        step_rejected = False
        while True:
            if not h >= min_step:
                status = -1
                break
            r_new = min(r + h, r_end)
            h = r_new - r
            u_new, v_new, f_new, error_norm, slopes = _STEP(acc, r, u, v, f, h, atol, rtol)
            nfev += 12
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** exponent)
                h_next = h * (min(1.0, factor) if step_rejected else factor)
                break
            h *= max(0.2, 0.9 * error_norm ** exponent)
            step_rejected = True
            rejected += 1
        if status is not None:
            break

        accepted += 1
        g_new = [g(u_new, v_new) for _, g in events]
        active = [i for i, (before, after) in enumerate(zip(g_old, g_new))
                  if before >= 0.0 >= after]
        g_old = g_new
        if dense or active:
            step = (r, h, u, v, *_DENSE(acc, r, u, h, u_new, slopes))
            nfev += 3
            if dense:
                steps.append(step)
        r_old = r
        r, u, v, f = r_new, u_new, v_new, f_new
        if r >= r_end:
            status = 0
        if active:
            root, i = min((brentq(lambda x, g=events[i][1]: g(*_interpolate_nested(step, x)),
                                  r_old, r, xtol=4 * _EPS, rtol=4 * _EPS), i)
                          for i in active)
            r, (u, v) = root, _interpolate_nested(step, root)
            event = events[i][0]
            status = 1
        if dense and len(ts) > 1 and ts[-1] == r:
            steps.pop()
        else:
            ts.append(r)
            us.append(u)
            vs.append(v)

    return ShotResult(
        t=np.array(ts), y=np.array([us, vs]), event=event,
        sol=_DenseSolution(ts, steps) if dense and steps else None,
        status=status, message=_MESSAGES[status],
        nfev=nfev, steps_accepted=accepted, steps_rejected=rejected)


def reference_shoot(source, N, r_start, y0, r_end, rtol, atol, floors=(), cap=None,
                    dense=False):
    if N == 1:
        acc = source
    else:
        def acc(r, u, du):
            val = source(r, u, du)
            if r > 0.0:
                val -= (N - 1) / r * du
            return val

    # (slot, g): the floors are slots 0 and 1, the cap slot 2
    events = [(k, lambda u, du, level=level: u - level) for k, level in enumerate(floors)]
    if cap is not None:
        events.append((2, lambda u, du: cap - u))
    return _runge_kutta(acc, r_start, y0, r_end, rtol, atol, events, dense)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_shot(got, want):
    assert isinstance(got, ShotResult)
    for name in ("event", "status", "message", "nfev", "steps_accepted", "steps_rejected"):
        assert getattr(got, name) == getattr(want, name), name
    assert _same_array(got.t, want.t) and _same_array(got.y, want.y)
    assert (got.sol is None) == (want.sol is None)
    if want.sol is not None:
        for name in ("ts", "r_old", "h", "y_old", "coefs"):
            assert _same_array(getattr(got.sol, name), getattr(want.sol, name)), name
        grid = np.linspace(want.t[0], want.t[-1], 257)
        assert _same_array(got.sol(grid), want.sol(grid))


def _outcome(fn, *args, **kwargs):
    try:
        return ("shot", fn(*args, **kwargs)), None
    except EvalDomainError as exc:
        return ("domain", str(exc), exc.node, exc.t), exc
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc)), exc


def _assert_same_outcome(args, kwargs, shoot_fn=shoot):
    """Shoot with both integrators; returns the shot of shoot_fn, or raises its
    exception."""
    got, exc = _outcome(shoot_fn, *args, **kwargs)
    want, _ = _outcome(reference_shoot, *args, **kwargs)
    assert got[0] == want[0]
    if got[0] == "shot":
        _assert_same_shot(got[1], want[1])
        return got[1]
    assert got == want
    raise exc


def _beside_reference(monkeypatch, module):
    """Make module's shots run on both integrators, asserting the same outcome;
    returns the list of the shots taken."""
    shots = []
    real = numerics.shoot

    def both(*args, **kwargs):
        sol = _assert_same_outcome(args, kwargs, real)
        shots.append(sol)
        return sol

    monkeypatch.setattr(module, "shoot", both)
    return shots


# ---------------------------------------------------------------------------
# The shots of the searches
# ---------------------------------------------------------------------------

def _lef_problem(mode, geometry):
    N = 1 if geometry == "interval" else 3
    g_half = analyze_singular_term("t^(-1/2)")
    f_lin = analyze_nonlinearity("t")
    return {
        "absorption": LEFProblem(N=N, geometry=geometry, lam=1.0, f=f_lin, g=g_half,
                                 a_pot=ScalarFn.from_source("1+t")),
        "two-param": LEFProblem(N=N, geometry=geometry, mode="two-param", lam=1.0, mu=0.5,
                                f=f_lin, g=g_half, K_pot=ScalarFn.from_source("0.1*(1+t^2)"),
                                source=ScalarFn.from_source("1+t")),
        "convection": LEFProblem(N=N, geometry=geometry, mode="convection", lam=0.5, mu=0.5,
                                 grad_p=1.5, f=f_lin, g=g_half),
        "convection-absorb": LEFProblem(N=N, geometry=geometry, mode="convection-absorb",
                                        lam=10.0, grad_p=1.5, f=f_lin, g=g_half,
                                        K_pot=ScalarFn.from_source("0.1")),
        "gelfand": LEFProblem(N=N, geometry=geometry, lam=3.0 if N == 3 else 0.9,
                              f=analyze_nonlinearity("exp(t)")),
    }[mode]


@pytest.mark.parametrize("geometry", ["interval", "ball"])
@pytest.mark.parametrize("mode", ["absorption", "two-param", "convection",
                                  "convection-absorb", "gelfand"])
def test_probe_table_shots(monkeypatch, mode, geometry):
    shots = _beside_reference(monkeypatch, bifurcation)
    _, integrate = bifurcation._shooting_map(_lef_problem(mode, geometry))
    for s in reference.AUDIT_PROBES:
        integrate(s)
    assert len(shots) > len(reference.AUDIT_PROBES) // 2
    assert any(sol.event is not None for sol in shots)
    if (mode, geometry) == ("gelfand", "ball"):
        # past s ~ 890 the probes end at the minimum step
        assert sum(sol.status == -1 for sol in shots) >= 10


@pytest.mark.parametrize("mode, geometry", [("absorption", "interval"), ("gelfand", "ball")])
def test_solve_lef_shots(monkeypatch, mode, geometry):
    shots = _beside_reference(monkeypatch, bifurcation)
    sol = solve_lef(_lef_problem(mode, geometry), {"check_eps_sensitivity": True})
    assert sol.classification == "bounded"
    # the dense shot at s*, before the cut check at half the cut (the check at
    # the cut itself reads Brent's shot at s* from the search's memo)
    assert shots[-2].sol is not None


_COUNTS = ("shots", "steps_accepted", "steps_rejected", "rhs_calls")


@pytest.mark.parametrize("mode, geometry, lam", [("absorption", "interval", None),
                                                 ("gelfand", "ball", None),
                                                 ("gelfand", "ball", 3.5)])
def test_solve_lef_counts_match_the_reference(monkeypatch, mode, geometry, lam):
    prob = _lef_problem(mode, geometry)
    if lam is not None:
        prob.lam = lam  # past the Gelfand threshold: the full audit table
    shots = []

    def counted(*args, **kwargs):
        shots.append(shoot(*args, **kwargs))
        return shots[-1]

    monkeypatch.setattr(bifurcation, "shoot", counted)
    sol = solve_lef(prob)
    assert sol.classification == ("bounded" if lam is None else "no-solution")
    got = sol.metadata
    assert [got[key] for key in _COUNTS] == [
        len(shots), sum(sol.steps_accepted for sol in shots),
        sum(sol.steps_rejected for sol in shots), sum(sol.nfev for sol in shots)]
    monkeypatch.setattr(bifurcation, "shoot", reference_shoot)
    want = solve_lef(prob).metadata
    assert [got[key] for key in _COUNTS] == [want[key] for key in _COUNTS]
    assert got["probe_table"] == want["probe_table"]


def test_annulus_level_shots_with_cap(monkeypatch):
    # the annulus shoots inward from its zero boundary: only the cap fires
    shots = _beside_reference(monkeypatch, radial)
    prob = LogisticProblem(N=1, f=analyze_nonlinearity("t^3"), b=ScalarFn.from_source("t^2"),
                           domain=("annulus", 0.0, 1.0))
    boundary_blowup(prob, n_levels=[10.0, 20.0, 40.0])
    assert {sol.event for sol in shots} - {None} == {2}


def test_ball_level_shots_with_cap(monkeypatch):
    shots = _beside_reference(monkeypatch, radial)
    prob = LogisticProblem(N=3, f=analyze_nonlinearity("t^3"), b=ScalarFn.from_source("1"),
                           domain=("ball", 1.0))
    boundary_blowup(prob, n_levels=[10.0, 20.0, 40.0])
    assert any(sol.event == 2 for sol in shots)


@pytest.mark.parametrize("N, mode", [(1, "ball"), (2, "ball"), (3, "ball"), (4, "ball"),
                                     (5, "ball"), (1, "interval")])
def test_eigen_shots(monkeypatch, N, mode):
    shots = _beside_reference(monkeypatch, bifurcation)
    bifurcation.lambda1_ball(N, 1.0, mode=mode)
    assert shots[-1].sol is not None


def test_profile_shot(monkeypatch):
    shots = _beside_reference(monkeypatch, reference)
    reference.profile_ode_g(analyze_singular_term("t^(-1/2)"), 1.0)
    assert len(shots) == 1 and shots[0].sol is not None


def test_whole_space_blowup_shot(monkeypatch):
    # Delta u = u^2 in R^3 from u(0) = 1 reaches the cap inside the first window
    shots = _beside_reference(monkeypatch, radial)
    prob = LogisticProblem(N=3, f=analyze_nonlinearity("t^2"), b=ScalarFn.from_source("1"),
                           domain=("whole-space", 10.0))
    sol = boundary_blowup(prob)
    assert sol.classification == "boundary-blowup"
    assert len(shots) == 1 and shots[0].event == 2 and shots[0].sol is not None


# ---------------------------------------------------------------------------
# Single shots
# ---------------------------------------------------------------------------

def _cosine(r, u, du):
    return -u


def _nan_past_half(r, u, du):
    return math.nan if r > 0.5 else -u


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("events", [
    {}, {"floors": (0.5, 0.0)}, {"floors": (0.0,), "cap": 0.9}, {"cap": 2.0},
    {"floors": (2.0, 0.0)}, {"floors": (-2.0, -3.0), "cap": 5.0}])
def test_single_shots(N, dense, events):
    r0, y0 = series_start(_cosine, 1.0, N, 1e-6)
    sol = _assert_same_outcome((_cosine, N, r0, y0, 7.0, 1e-10, 1e-12),
                               dict(events, dense=dense))
    slots = [*range(len(events.get("floors", ()))), *[2] * ("cap" in events)]
    assert sol.event is None or sol.event in slots


def test_growing_shot_with_cap_event_and_dense_output():
    sol = _assert_same_outcome((lambda r, u, du: u, 1, 0.0, (1.0, 0.0), 5.0, 1e-12, 1e-14),
                               dict(floors=(0.5,), cap=3.0, dense=True))
    assert sol.event == 2


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("dense", [False, True])
def test_nan_source(N, dense):
    sol = _assert_same_outcome((_nan_past_half, N, 1e-6 * (N > 1), (1.0, 0.0), 2.0, 1e-10,
                                1e-12), dict(floors=(0.0,), dense=dense))
    assert sol.status == -1 and sol.steps_rejected > 0


@pytest.mark.parametrize("N", [1, 3])
def test_domain_error_inside_the_step_loop(N):
    geometry = "interval" if N == 1 else "ball"
    prob = LEFProblem(N=N, geometry=geometry, lam=1.0, f=analyze_nonlinearity("t"),
                      g=analyze_singular_term("t^(-1/2)"),
                      a_pot=ScalarFn.from_source("sqrt(0.5-t)"))
    source = _lef_source(prob)
    r0, y0 = (1e-6, (1e-6, 1.0)) if N == 1 else series_start(source, 1.0, N, 1e-8)
    with pytest.raises(EvalDomainError) as err:
        _assert_same_outcome((source, N, r0, y0, 3.0, 1e-10, 1e-13),
                             dict(floors=(1e-6, 0.0), cap=1e9))
    assert "sqrt((0.5 - t)) at t=0.5" in str(err.value)
    assert err.value.node == prob.a_pot.body


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("events", [{}, {"floors": (0.0,)}])
def test_overflowing_shot_without_a_cap_reports_no_event(N, events):
    sol = _assert_same_outcome((lambda r, u, du: u * u * u, N, 1e-6 * (N > 1), (1.0, 0.0),
                                10.0, 1e-10, 1e-12), events)
    assert sol.status == -1
    assert sol.event is None
