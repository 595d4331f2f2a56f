import math

import numpy as np
import pytest

from sel_lab import profile
from sel_lab.expr import ScalarFn
from sel_lab.karamata import (
    KFunction,
    _integral_from_zero,
    analyze_nonlinearity,
    analyze_singular_term,
    ell_limits,
    keller_osserman,
    make_k,
    xi0_power,
)
from sel_lab.numerics import NonIntegrableError, NumericsError, find_root_monotone
from sel_lab.profile import (
    VARIANT_K,
    VARIANT_SQRT_K,
    build_profile,
    tail_map,
)

from reference import profile_ode_g


@pytest.fixture(scope="module")
def cubic_profile():
    f = analyze_nonlinearity("t^3")
    k = KFunction.power(1.0, nu=1.0)
    return build_profile(f, k, variant=VARIANT_K, c=1.0,
                         t_grid=2.0 ** (-np.arange(1, 21, dtype=float)))


class TestTailMap:
    def test_cubic_closed_form(self):
        # F = t^4/4 gives Phi(y) = sqrt(2)/y
        phi = tail_map(analyze_nonlinearity("t^3"))
        for y in (0.5, 1.0, 10.0, 250.0):
            assert phi(y) == pytest.approx(math.sqrt(2.0) / y, rel=1e-9)

    def test_square_closed_form(self):
        # F = t^3/3 gives Phi(y) = sqrt(6)/sqrt(y); at y = 1e20 Phi is 2.4e-10,
        # below an absolute quadrature tolerance
        phi = tail_map(analyze_nonlinearity("t^2"))
        for y in (1.0, 4.0, 100.0, 1e20):
            assert phi(y) == pytest.approx(math.sqrt(6.0 / y), rel=1e-12)

    def test_slowly_converging_tail(self):
        # F^(-1/2) ~ sqrt(2)/(t ln(t)^2), so Phi(y) ~ 1/ln y: the tail past the
        # overflow of F (t ~ 1e149) is the fit's remainder.  References from
        # DOP853 at rtol 1e-12 on (ln F, Phi) in w = ln s up to w = 1e6, plus
        # the 1/w remainder
        phi = tail_map(analyze_nonlinearity("t*ln(1+t)^4"))
        assert phi(1e3) == pytest.approx(0.155184, rel=5e-3)
        assert phi(1e20) == pytest.approx(0.021950, rel=5e-3)

    @pytest.mark.parametrize("src", ["t^1.001", "t^1.001*ln(1+t)^6"])
    def test_no_map_without_a_convergent_verdict(self, src):
        # the Keller-Osserman verdict is the map's only judge: a lattice fit of
        # its own read both of these borderline tails as convergent
        nl = analyze_nonlinearity(src)
        status = keller_osserman(nl).status
        assert status == "inconclusive"
        with pytest.raises(ValueError, match=f"Keller-Osserman integral is {status}"):
            tail_map(nl)

    def test_one_map_per_nonlinearity(self):
        nl = analyze_nonlinearity("t^2.2")
        assert tail_map(nl) is tail_map(nl)

    def test_values_do_not_depend_on_the_first_query(self):
        ys = (1.0, 3.7, 2.0 ** 10.25, 1e5, 1e20)
        values = []
        for first in (1e-8, 1.0, 1e20):
            phi = tail_map(analyze_nonlinearity("t^2.2"))
            phi(first)
            values.append([phi(y) for y in ys])
        assert values[0] == values[1] == values[2]


class TestBuildProfile:
    def test_closed_form_inversion(self, cubic_profile):
        # Phi(h) = sqrt2/h and int_0^t k = t^2/2 invert to h = 2 sqrt2/t^2
        assert cubic_profile.h_at(0.1) == pytest.approx(282.842712474619, rel=1e-9)

    def test_roundtrip_identity(self, cubic_profile):
        assert cubic_profile.roundtrip_err <= 1e-8
        phi = tail_map(cubic_profile.f)
        for t in (0.25, 0.0625, 2.0 ** -10):
            assert phi(cubic_profile.h_at(t)) == pytest.approx(t * t / 2.0, rel=1e-8)

    def test_xi0(self, cubic_profile):
        assert cubic_profile.xi0 == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_roundtrip_check_fires_on_a_moved_root(self, monkeypatch):
        # every h off its root by 1e-6 relative misses Phi(h) = int_0^t k
        # by about as much, far past the 1e-8 the check allows, in the table
        # and between its points alike; a table point is not inverted again
        args = (analyze_nonlinearity("t^3"), KFunction.power(1.0, nu=1.0))
        grid = 2.0 ** (-np.arange(1, 11, dtype=float))
        prof = build_profile(*args, variant=VARIANT_K, c=1.0, t_grid=grid)
        monkeypatch.setattr(profile, "find_root_monotone",
                            lambda *args, **kwargs: find_root_monotone(*args, **kwargs)
                            * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="round-trip error"):
            build_profile(*args, variant=VARIANT_K, c=1.0, t_grid=grid)
        with pytest.raises(ValueError, match="round-trip error"):
            prof.h_at(0.75 * 2.0 ** -3)
        assert prof.h_at(2.0 ** -3) == prof.h[7]

    def test_sqrt_k_variant_roundtrip(self):
        f = analyze_nonlinearity("t^2")
        k = KFunction.power(0.5, nu=1.0)
        prof = build_profile(f, k, variant=VARIANT_SQRT_K, c=1.0,
                             t_grid=2.0 ** (-np.arange(1, 13, dtype=float)))
        assert prof.roundtrip_err <= 1e-8
        # closed form: sqrt6/sqrt(h) = (4/5) t^(5/4)
        t = 0.25
        exact = 6.0 * (5.0 / (4.0 * t ** 1.25)) ** 2
        assert prof.h_at(t) == pytest.approx(exact, rel=1e-8)

    def test_target_past_the_lattice_top_is_refused(self):
        # h(2^-14) lies past t ~ 1e149, where F overflows
        with pytest.raises(NumericsError, match=r"t=6\.103515625e-05 lies past the tail "
                                                r"map's lattice top 1\.02\d*e\+149"):
            build_profile(analyze_nonlinearity("t*ln(1+t)^4"), KFunction.power(1.0),
                          t_grid=2.0 ** (-np.arange(1, 15, dtype=float)))

    def test_ko_divergent_refused(self):
        with pytest.raises(ValueError, match="Keller-Osserman"):
            build_profile(analyze_nonlinearity("t"), KFunction.power(1.0))

    def test_table_points_read_the_table(self, cubic_profile):
        for t, h in zip(cubic_profile.t.tolist(), cubic_profile.h.tolist()):
            assert cubic_profile.h_at(t) == h

    # the weight of each case: k = t, or make-k's invLnS of S = t
    MIDPOINT_CASES = [("exp(t)", None), ("t^3", "invLnS"), ("t^1.5*ln(1+t)^2", None)]

    @pytest.mark.parametrize("f_src,k_kind", MIDPOINT_CASES)
    def test_identity_holds_between_table_points(self, f_src, k_kind):
        # at the 13 geometric midpoints of the 2^-1 ... 2^-14 grid of blowup
        # and rate, h_at inverts Phi(h(d)) = int_0^d k as the table does;
        # a cubic through the table missed it by up to 1.8e-2
        f = analyze_nonlinearity(f_src)
        k = KFunction.power(1.0) if k_kind is None else make_k(k_kind, "t", 1.0)
        grid = k.nu * 2.0 ** (-np.arange(1, 15, dtype=float))
        prof = build_profile(f, k, t_grid=grid)
        phi = tail_map(f)
        for d in np.sqrt(grid[1:] * grid[:-1]).tolist():
            rhs = _integral_from_zero(k.k, np.array([d]), 1e-12)[0]
            assert abs(phi(prof.h_at(d)) - rhs) <= 1e-8 * rhs, d

    def test_h_decreasing_to_infinity(self, cubic_profile):
        assert np.all(np.diff(cubic_profile.h) < 0.0)
        assert cubic_profile.h[0] > 1e6  # t = 2^-20 end


class TestWeightDomain:
    """int_0^t k is read on the profile's own grid, inside (0, nu)."""

    def test_weight_defined_only_below_nu(self):
        # k = t/sqrt(1-2t) is no number past t = 1/2; its ell_1 is 1/2
        k = ScalarFn.from_source("t/sqrt(1-2*t)")
        est = ell_limits(k, 0.5)
        prof = build_profile(analyze_nonlinearity("t^3"),
                             KFunction(k=k, nu=0.5, ell0=est.ell0, ell1=est.ell1))
        assert prof.roundtrip_err <= 1e-8
        assert prof.xi0 == pytest.approx(xi0_power(2.0, 0.5, 1.0), abs=1e-9)

    def test_weight_is_evaluated_only_up_to_the_grid(self):
        k = ScalarFn.from_source("t")
        scalar, vec = k.fast(), k.vector()
        seen = []

        def counted(t):
            seen.append(t)
            return scalar(t)

        def counted_many(ts):
            seen.extend(np.ravel(ts).tolist())
            return vec(ts)

        k._fast, k._vector = counted, counted_many
        t_grid = 0.5 * 2.0 ** -np.arange(1.0, 25.0)
        build_profile(analyze_nonlinearity("t^3"),
                      KFunction(k=k, nu=0.5, ell0=0.0, ell1=0.5), t_grid=t_grid)
        assert seen
        assert 0.0 < min(seen) and max(seen) <= t_grid.max()

    def test_weight_not_integrable_at_zero(self):
        k = KFunction(k=ScalarFn.from_source("1/t"), nu=1.0, ell0=0.0, ell1=0.0)
        with pytest.raises(NonIntegrableError, match="left endpoint"):
            build_profile(analyze_nonlinearity("t^3"), k)

    def test_weight_with_finite_part_not_integrable_at_zero(self):
        # 1/t^2 read "int_0^t weight vanished" from QUADPACK's finite value
        k = KFunction(k=ScalarFn.from_source("1/t^2"), nu=1.0, ell0=0.0, ell1=0.0)
        with pytest.raises(NonIntegrableError, match="left endpoint"):
            build_profile(analyze_nonlinearity("t^3"), k)


class TestPredictedRate:
    def test_headline_constant(self, cubic_profile):
        # xi0 h(d) d^2 = sqrt 6, the exact coefficient of u'' = x^2 u^3
        for d in (0.05, 0.1, 0.2):
            assert cubic_profile.xi0 * cubic_profile.h_at(d) * d * d == pytest.approx(
                math.sqrt(6.0), rel=1e-8)

    def test_extrapolation_refused(self, cubic_profile):
        with pytest.raises(ValueError, match="extrapolation refused"):
            cubic_profile.h_at(0.9)
        with pytest.raises(ValueError, match="extrapolation refused"):
            cubic_profile.h_at(2.0 ** -30)


class TestProfileInvariants:
    def test_h_prime_identity(self, cubic_profile):
        # h' = -k sqrt(2 F(h)) against the closed form -4 sqrt2/t^3
        t = 0.125
        assert cubic_profile.h_prime(t) == pytest.approx(
            -4.0 * math.sqrt(2.0) / t ** 3, rel=1e-8)


class TestOdeProfile:
    @pytest.fixture(scope="class")
    @classmethod
    def sqrt_profile(cls):
        return profile_ode_g(analyze_singular_term("t^(-1/2)"), 1.0)

    def test_power_solution(self, sqrt_profile):
        # h'' = h^(-1/2) with flat start is exactly C t^(4/3), C = (9/4)^(2/3)
        C = (9.0 / 4.0) ** (2.0 / 3.0)
        mask = sqrt_profile.t >= 1e-4
        exact = C * sqrt_profile.t[mask] ** (4.0 / 3.0)
        rel = np.max(np.abs(sqrt_profile.h[mask] - exact) / exact)
        assert rel <= 1e-4

    def test_power_coefficient(self, sqrt_profile):
        assert sqrt_profile.power_coef == pytest.approx((9.0 / 4.0) ** (2.0 / 3.0),
                                                        rel=1e-6)

    def test_monotonicity_triple(self, sqrt_profile):
        assert np.all(np.diff(sqrt_profile.h) > 0.0)
        assert np.all(np.diff(sqrt_profile.hp) > 0.0)
        assert np.all(np.diff(sqrt_profile.hpp) < 0.0)

    def test_th_bound(self, sqrt_profile):
        # t h'(t) <= 2 h(t) everywhere
        assert np.all(sqrt_profile.t * sqrt_profile.hp
                      <= 2.0 * sqrt_profile.h * (1.0 + 1e-12))

    def test_near_origin_power_bound(self, sqrt_profile):
        mask = sqrt_profile.t <= 1e-2
        bound = 1.01 * sqrt_profile.power_coef * sqrt_profile.t[mask] ** (4.0 / 3.0)
        assert np.all(sqrt_profile.h[mask] <= bound)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    def test_gradient_bound_constants(self, sqrt_profile, p):
        c1, c2 = sqrt_profile.lh_constants(p)
        assert np.max(sqrt_profile.hp ** p - c1 * sqrt_profile.hpp - c2) <= 0.0

    def test_bounded_g_starts_from_its_value(self):
        # g = 2 has no origin power: alpha = 0, C0 = g(t0) = 2, so h = t^2 exactly
        prof = profile_ode_g(analyze_singular_term("2"), 1.0)
        assert prof.alpha == 0.0 and prof.power_coef == 1.0
        assert np.max(np.abs(prof.h - prof.t ** 2)) <= 1e-12


def test_profile_csv_export(cubic_profile, tmp_path):
    path = tmp_path / "h.csv"
    cubic_profile.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# variant=")
    assert lines[1] == "t,h,h_prime"
    assert len(lines) == 2 + cubic_profile.t.size
