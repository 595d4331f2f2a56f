"""The generated shot sources against the closure chains they replace.

`bifurcation._lef_source` and `radial._level_source` inline the user
expressions into one straight-line function per problem.  The reference
here is the chain of closures that composed the same right-hand sides
call by call: the clamp and saturation wrapper around `LEFProblem`'s
per-mode closure, and `b(r) f(max(u, 0)) - a u` (in x = R - r with the
drift for the annulus).  The generated function must
return the same float (bit for bit) and raise the same exception (same
message, node and t) at every point of the grid.
"""

import itertools
import math

import pytest

from sel_lab.bifurcation import EPS_BOUNDARY, LEFProblem, _lef_source
from sel_lab.expr import EvalDomainError, ScalarFn
from sel_lab.karamata import Nonlinearity
from sel_lab.radial import LogisticProblem, _level_source


def _reference_lef_source(prob):
    f_call = prob.f.f.fast() if prob.f is not None else (lambda u: 0.0)
    g_call = prob.g.f.fast() if prob.g is not None else (lambda u: 0.0)
    a_call = prob.a_pot.fast() if prob.a_pot is not None else (lambda r: 1.0)
    K_call = prob.K_pot.fast() if prob.K_pot is not None else (lambda r: 1.0)
    s_call = prob.source.fast() if prob.source is not None else (lambda r: 1.0)
    lam, mu, p = prob.lam, prob.mu, prob.grad_p
    mode = prob.mode

    if mode == "absorption":
        def rhs(r, u, du):
            return lam * f_call(u) + a_call(r) * g_call(u)
    elif mode == "two-param":
        def rhs(r, u, du):
            return lam * f_call(u) - K_call(r) * g_call(u) + mu * s_call(r)
    elif mode == "convection":
        def rhs(r, u, du):
            return g_call(u) + lam * abs(du) ** p + mu * f_call(u)
    else:
        def rhs(r, u, du):
            return lam * f_call(u) - K_call(r) * g_call(u) - abs(du) ** p

    floor = EPS_BOUNDARY / 100.0

    def source(r, u, du):
        val = -rhs(r, max(u, floor), du)
        if not math.isfinite(val):
            val = -1e15 if val < 0.0 else 1e15
        return val

    return source


def _reference_level_source(prob, inward_from=None):
    b_call = prob.b.fast()
    f_call = prob.f.f.fast()
    a, d = prob.a_lin, prob.N - 1.0

    def rhs(r, u, du):
        return b_call(r) * f_call(0.0 if u < 0.0 else u) - a * u

    def inward(x, u, du):
        R = inward_from
        value = b_call(R - x) * f_call(0.0 if u < 0.0 else u) - a * u
        return value + d * du / (R - x) if d else value

    return rhs if inward_from is None else inward


def _nonlinearity(text):
    fn = ScalarFn.from_source(text)
    return Nonlinearity(f=fn, fprime=fn.derivative_fn(), source=text)


def _outcome(fn, r, u, du):
    try:
        return "value", fn(r, u, du)
    except EvalDomainError as exc:
        return "domain", str(exc), exc.node, exc.t
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _same(got, want):
    if got[0] != "value" or want[0] != "value":
        return got == want
    a, b = got[1], want[1]
    # bit for bit: the same type, value and sign of zero, or both nan
    return type(a) is type(b) and (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
                                   or math.isnan(a) and math.isnan(b))


R_GRID = (0.0, 1e-8, 0.3, 0.75, 1.0, 2.5)
# below the clamp (EPS_BOUNDARY/100), at it, ordinary, large enough that exp
# overflows, nan and inf
U_GRID = (-3.0, -1e-12, 0.0, 1e-9, EPS_BOUNDARY / 100.0, 0.5, 1.7, 800.0, math.nan, math.inf)
DU_GRID = (0.0, -0.7, 2.5, -1e30, 1e200, math.nan)


def _assert_equivalent(got_fn, want_fn):
    failures = 0
    for r, u, du in itertools.product(R_GRID, U_GRID, DU_GRID):
        got, want = _outcome(got_fn, r, u, du), _outcome(want_fn, r, u, du)
        assert _same(got, want), (r, u, du, got, want)
        failures += want[0] != "value"
    return failures


FUNCTIONS = {
    "f": ("t", "t^2.2", "exp(t)", "sqrt(0.5-t)", "ln(t)"),
    "g": ("t^(-0.5)", "exp(t)", "ln(t-1)"),
    "a": ("1+t", "sqrt(0.5-t)"),
    "K": ("1+t^2", "ln(t)"),
    "source": ("1+t", "sqrt(2-t)"),
}


def _problems(mode):
    """Problems of one mode: every term present with each of its choices,
    and with each term absent in turn."""
    names = ("f", "g", "a", "K", "source")
    for missing in (None,) + names:
        for i in range(len(FUNCTIONS["f"])):
            texts = {k: v[i % len(v)] for k, v in FUNCTIONS.items() if k != missing}
            yield LEFProblem(
                N=1, lam=1.5, mu=0.7, grad_p={"convection": 2.0}.get(mode, 0.5), mode=mode,
                f=_nonlinearity(texts["f"]) if "f" in texts else None,
                g=_nonlinearity(texts["g"]) if "g" in texts else None,
                a_pot=ScalarFn.from_source(texts["a"]) if "a" in texts else None,
                K_pot=ScalarFn.from_source(texts["K"]) if "K" in texts else None,
                source=ScalarFn.from_source(texts["source"]) if "source" in texts else None)


@pytest.mark.parametrize("mode", ["absorption", "two-param", "convection", "convection-absorb"])
def test_lef_source_matches_the_closure_chain(mode):
    failures = 0
    for prob in _problems(mode):
        failures += _assert_equivalent(_lef_source(prob), _reference_lef_source(prob))
    assert failures > 0  # the grid reaches the failing sub-expressions


@pytest.mark.parametrize("grad_p", [0.0, 1.0, 2.0])
def test_lef_source_gradient_powers(grad_p):
    for mode in ("convection", "convection-absorb"):
        prob = LEFProblem(N=3, geometry="ball", lam=0.9, mu=2.0, grad_p=grad_p, mode=mode,
                          f=_nonlinearity("exp(t)"), g=_nonlinearity("t^(-0.5)"))
        _assert_equivalent(_lef_source(prob), _reference_lef_source(prob))


def test_lef_source_clamps_saturates_and_keeps_nan():
    prob = LEFProblem(N=1, lam=2.0, f=_nonlinearity("exp(t)"), g=_nonlinearity("t^(-0.5)"))
    source = _lef_source(prob)
    floor = EPS_BOUNDARY / 100.0
    assert source(0.3, -1.0, 0.0) == source(0.3, floor, 0.0) == -(2.0 * math.exp(floor)
                                                                  + floor ** -0.5)
    assert source(0.3, 800.0, 0.0) == -1e15  # lam e^u overflows to inf
    assert source(0.3, math.nan, 0.0) == 1e15  # nan saturates upward, as before
    two = LEFProblem(N=1, lam=1.0, mode="two-param", f=_nonlinearity("exp(t)"),
                     g=_nonlinearity("exp(t)"))
    assert _lef_source(two)(0.3, 800.0, 0.0) == 1e15  # inf - inf


def test_lef_source_domain_errors_name_their_expression():
    prob = LEFProblem(N=1, lam=1.0, f=_nonlinearity("sqrt(0.5-t)"),
                      g=_nonlinearity("t^(-0.5)"), a_pot=ScalarFn.from_source("ln(t)"))
    source = _lef_source(prob)
    with pytest.raises(EvalDomainError) as err:
        source(0.3, 0.7, 0.0)  # f fails before a is read
    assert str(err.value) == "square root of a negative value in sqrt((0.5 - t)) at t=0.7"
    assert err.value.node == prob.f.f.body and err.value.t == 0.7
    with pytest.raises(EvalDomainError) as err:
        source(0.0, 0.2, 0.0)
    assert str(err.value) == "logarithm of a non-positive value in ln(t) at t=0.0"
    assert err.value.node == prob.a_pot.body and err.value.t == 0.0


def test_level_source_matches_the_closure_chain():
    failures = 0
    for f_text, b_text, a_lin in itertools.product(
            ("t^3", "t^2.2", "exp(t)", "t^2*ln(1+t)^3"), ("t^1.8294", "(1-t)^2.5", "sqrt(0.5-t)"),
            (0.0, 1.3)):
        prob = LogisticProblem(N=1, f=_nonlinearity(f_text), b=ScalarFn.from_source(b_text),
                               a_lin=a_lin, domain=("annulus", 0.0, 1.0))
        failures += _assert_equivalent(_level_source(prob), _reference_level_source(prob))
        # the annulus shoots inward in x = R - r; N = 3 carries the drift
        shell = LogisticProblem(N=3, f=prob.f, b=prob.b, a_lin=a_lin, domain=("annulus", 0.5, 1.0))
        for inward in (prob, shell):
            failures += _assert_equivalent(_level_source(inward, inward_from=1.0),
                                           _reference_level_source(inward, inward_from=1.0))
    assert failures > 0


def test_level_source_reads_f_at_zero_below_zero():
    # f = t^2.2 is undefined below 0, where a Runge-Kutta stage of a level
    # shot can land: the source reads f(0) there instead of raising
    prob = LogisticProblem(N=1, f=_nonlinearity("t^2.2"), b=ScalarFn.from_source("t^1.8294"),
                           a_lin=0.5, domain=("annulus", 0.0, 1.0))
    assert _level_source(prob)(0.5, -0.25, 0.0) == 0.125
    assert _level_source(prob, inward_from=1.0)(0.5, -0.25, 3.0) == 0.125
    prob.b = ScalarFn.from_source("sqrt(0.5-t)")
    with pytest.raises(EvalDomainError) as err:
        _level_source(prob, inward_from=1.0)(0.25, -0.25, 0.0)  # b at r = 0.75
    assert str(err.value) == "square root of a negative value in sqrt((0.5 - t)) at t=0.75"
    assert err.value.node == prob.b.body and err.value.t == 0.75
