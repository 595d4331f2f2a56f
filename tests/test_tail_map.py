"""The Keller-Osserman tail map against the nested quadrature it replaces.

`karamata.TailMap` reads F and Phi inside a lattice panel off the panel's
own 15 Kronrod samples: F at the nodes from the degree-14 interpolant of f,
and Phi between lattice points from the interpolant of G = (2F)^(-1/2).
The reference here is the map that ran before: every value of G read
through F.many (one 15-point panel of f per node) and every off-lattice
query one integrate_panel on a scalar G.  The two agree to rounding where
the interpolant is taken, and bit for bit where every panel falls back.
"""

import bisect
import gc
import math
import weakref

import numpy as np
import pytest

from sel_lab import cli
from sel_lab.expr import ScalarFn
from sel_lab.karamata import (
    Antiderivative,
    KFunction,
    TailMap,
    analyze_nonlinearity,
    keller_osserman,
    tail_map,
)
from sel_lab.numerics import (
    NumericsError,
    _GK15,
    _GK15_ROW,
    _GK15_TAIL,
    _gk15_partials,
    _gk15_tail_coefficients,
    _legendre_sum,
    bertrand_remainder,
    find_root_monotone,
    integrate_panel,
    integrate_panels,
)
from sel_lab.profile import build_profile
from sel_lab.radial import LogisticProblem, boundary_blowup

# ---------------------------------------------------------------------------
# The reference map
# ---------------------------------------------------------------------------


class NestedTailMap:
    """The tail map with every value of G read through F's nested rule, in
    blocks of F's _BLOCK panels as TailMap fills them."""

    def __init__(self, F, ko):
        self._F = F
        self._fit = ko.diagnostics
        k = F.overflow_index()
        k = F._KTOP if k is None else k - 1
        while not math.isfinite(2.0 * F._fill(k)):
            k -= 1
        self._top, self.top = k, Antiderivative._t_of(k)
        self._lat = [bertrand_remainder(self._fit, self.top, (2.0 * F._fill(k)) ** -0.5)]

    def _g(self, s):
        Fs = self._F(s)
        if not math.isfinite(Fs):
            return 0.0
        if Fs <= 0.0:
            raise ValueError(f"F({s!r}) <= 0: f is not positive below {s!r}")
        return (2.0 * Fs) ** -0.5

    def _panel(self, a, b):
        return integrate_panel(self._g, a, b, Antiderivative._TOL)[0]

    def _g_many(self, s):
        Fs = self._F.many(s)
        with np.errstate(all="ignore"):
            return np.where(np.isfinite(Fs), (2.0 * Fs) ** -0.5, 0.0)

    def _extend(self):
        hi = self._top - len(self._lat) + 1
        lo = max(hi - Antiderivative._BLOCK, -Antiderivative._KTOP)
        if lo == hi:
            raise NumericsError(f"the tail map's lattice ends at t={Antiderivative._t_of(hi)!r}")
        ends = Antiderivative._points(lo, hi).tolist()
        panels, ok = integrate_panels(self._g_many, ends[:-1], ends[1:], Antiderivative._TOL)
        value = self._lat[-1]
        for i in range(hi - lo - 1, -1, -1):
            value += panels[i] if ok[i] else self._panel(ends[i], ends[i + 1])
            self._lat.append(value)

    def __call__(self, y):
        if not y > 0.0:
            raise ValueError("tail map defined for y > 0")
        if y >= self.top:
            return bertrand_remainder(self._fit, y, self._g(y)) if y > self.top else self._lat[0]
        k = math.floor(4.0 * math.log2(y))
        i = self._top - k
        while len(self._lat) <= i:
            self._extend()
        hi = Antiderivative._t_of(k + 1)
        if y >= hi:
            return self._lat[i - 1]
        if y == Antiderivative._t_of(k):
            return self._lat[i]
        return self._lat[i - 1] + self._panel(y, hi)

    def bracket(self, target):
        while self._lat[-1] < target:
            self._extend()
        k = self._top - max(bisect.bisect_left(self._lat, target), 1)
        return Antiderivative._t_of(k), Antiderivative._t_of(k + 1)


# ---------------------------------------------------------------------------
# The interpolation constants
# ---------------------------------------------------------------------------

# the Kronrod nodes in _gk15's order: centre, then -x, +x per node
_NODES = np.array([0.0] + [s * x for x, _, _ in _GK15 for s in (-1.0, 1.0)])


@pytest.mark.parametrize("d", range(15))
def test_partial_integrals_are_exact_on_polynomials(d):
    # int_{-1}^{x_j} x^d, to within 1e-15, at every node
    got = _gk15_partials((_NODES ** d)[None, :])[0]
    exact = (_NODES ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
    assert np.max(np.abs(got - exact)) <= 1e-15


@pytest.mark.parametrize("d", range(15))
def test_tail_integrals_are_exact_on_polynomials(d):
    # int_x^1 x^d at 41 points of [-1, 1] by the Legendre sum
    coef = _gk15_tail_coefficients((_NODES ** d).tolist())
    for x in np.linspace(-1.0, 1.0, 41).tolist():
        assert abs(_legendre_sum(coef, x) - (1.0 - x ** (d + 1)) / (d + 1)) <= 1e-15


def test_lagrange_basis_integrates_to_the_kronrod_weights():
    # the Kronrod rule is interpolatory: int_{-1}^1 l_i is the weight of node i
    for i, column in enumerate(_GK15_TAIL):
        assert _legendre_sum(column, -1.0) == pytest.approx(_GK15_ROW[i], abs=1e-15)
        assert abs(_legendre_sum(column, 1.0)) <= 1e-16


# ---------------------------------------------------------------------------
# The map against the reference
# ---------------------------------------------------------------------------

_SOURCES = ["t^1.5", "t^2", "t^2.5", "t^3", "t^3.5", "t^4", "t*ln(1+t)^4",
            "t^1.7717*ln(1+t)^2.0775", "exp(t)", "t^2+exp(t/10)"]
# 300 log-uniform points of [1e-3, 1e25]
_YS = np.exp(np.random.default_rng(48).uniform(math.log(1e-3), math.log(1e25), 300)).tolist()


def _pair(src):
    nl = analyze_nonlinearity(src)
    ko = keller_osserman(nl)
    return TailMap(nl.F, ko), NestedTailMap(nl.F, ko)


def _relative(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


@pytest.mark.parametrize("src", _SOURCES)
def test_values_agree_with_the_nested_map(src):
    phi, ref = _pair(src)
    for y in _YS:
        assert _relative(phi(y), ref(y)) <= 1e-13, y
    assert len(phi._lat) == len(ref._lat)
    # the lattice values in [1e-3, 1e25]; below, f's own rounding (ln(1+t)
    # loses ~eps/t relative) parts the two rules by up to 1e-11
    for i, (a, b) in enumerate(zip(phi._lat, ref._lat)):
        if 1e-3 <= Antiderivative._t_of(phi._top - i) <= 1e25:
            assert _relative(a, b) <= 1e-13, i
    assert phi.panels + phi.fallback_panels == len(phi._lat) - 1


@pytest.mark.parametrize("src", _SOURCES)
def test_brackets_agree_with_the_nested_map(src):
    phi, ref = _pair(src)
    for y in _YS:
        if y < ref.top:
            target = ref(y)
            assert phi.bracket(target) == ref.bracket(target), y


def test_fast_growth_mixes_interpolated_and_fallback_panels():
    # exp(t) grows too fast on the wide panels near the top for one 15-point
    # rule of f: those fall back, the panels below read the interpolant
    phi, _ = _pair("exp(t)")
    phi(1e-3)
    assert phi.panels > 0 and phi.fallback_panels > 0
    phi, _ = _pair("t^2.6")
    phi(1e-3)
    assert phi.fallback_panels == 0


@pytest.mark.parametrize("src", ["t^2.6", "exp(t)", "t*ln(1+t)^4"])
def test_a_raising_array_form_falls_back_bit_for_bit(src, monkeypatch):
    nl = analyze_nonlinearity(src)
    ko = keller_osserman(nl)

    def raising(self):
        raise ValueError("no array form")

    monkeypatch.setattr(ScalarFn, "vector", raising)
    phi, ref = TailMap(nl.F, ko), NestedTailMap(nl.F, ko)
    assert [phi(y) for y in _YS] == [ref(y) for y in _YS]
    assert phi._lat == ref._lat
    assert phi.panels == 0 and phi.fallback_panels == len(phi._lat) - 1


def test_a_small_query_under_a_log_factor_is_answered():
    # ln(1 + t) is read as log1p(t), so f keeps its digits near 0 and the
    # panels of G below y = 1e-5 meet their tolerance
    phi = tail_map(analyze_nonlinearity("t*ln(1+t)^4"))
    assert math.isfinite(phi(3e-6))


def test_a_nonpositive_F_is_refused_where_it_was():
    # F = t^4/4 - t is negative below 4^(1/3): the interpolant refuses those
    # panels, and the nested rule's scalar G names the same point
    nl = analyze_nonlinearity("t^3")
    ko = keller_osserman(nl)
    errors = []
    for cls in (TailMap, NestedTailMap):
        phi = cls(nl.F, ko)
        phi._F = Antiderivative(ScalarFn.from_source("t^3-1"))
        with pytest.raises(ValueError, match=r"F\(.*\) <= 0: f is not positive below") as err:
            phi(0.5)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# Lifetime and metadata
# ---------------------------------------------------------------------------

def _blowup_problem():
    return LogisticProblem(N=1, f=analyze_nonlinearity("t^3"), b=ScalarFn.from_source("t^2"),
                           domain=("annulus", 0.0, 1.0))


def test_a_blowup_map_dies_with_its_last_reference():
    # brentq's wrapper of the root search's objective sits in a reference
    # cycle; the objective held the level search and, through it, the map
    gc.collect()
    gc.disable()
    try:
        prob = _blowup_problem()
        boundary_blowup(prob)
        phi = weakref.ref(tail_map(prob.f))
        del prob
        assert phi() is None
    finally:
        gc.enable()


def test_a_root_search_keeps_no_objective_alive():
    class Square:
        def __call__(self, x):
            return x * x

    gc.collect()
    gc.disable()
    try:
        fn = Square()
        alive = weakref.ref(fn)
        assert find_root_monotone(fn, 2.0, 0.0, 3.0) == pytest.approx(math.sqrt(2.0))
        del fn
        assert alive() is None
    finally:
        gc.enable()


def test_counts_are_in_the_metadata():
    prob = _blowup_problem()
    sol = boundary_blowup(prob)
    phi = tail_map(prob.f)
    assert sol.metadata["tail_map_panels"] > 0
    assert sol.metadata["tail_map_fallback_panels"] == 0
    prof = build_profile(prob.f, KFunction.power(1.0), t_grid=2.0 ** -np.arange(1, 15.0))
    assert prof.metadata == {"tail_map_panels": phi.panels,
                             "tail_map_fallback_panels": phi.fallback_panels}
    assert phi.panels + phi.fallback_panels == len(phi._lat) - 1


def test_counts_stay_off_the_summary_line(tmp_path, capsys):
    cfg = tmp_path / "profile.cfg"
    cfg.write_text('[problem]\ncommand = profile\nk_alpha = 1\n\n[functions]\nf = "exp(t)"\n\n'
                   "[numerics]\ngrid_depth = 6\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "roundtrip_err=5.58182389198" in out
    assert "tail_map" not in out
