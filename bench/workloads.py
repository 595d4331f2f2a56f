"""Seeded workloads: item generators, calls into sel_lab, oracle checks.

A workload is a fixed cycle of families (one *round*).  The discrete
shape of a problem (geometry, dimension, exponent) cycles through a fixed
list, the same for every seed.  Continuous values come from a Kronecker
(R_d) low-discrepancy sequence shifted by the seed, so any prefix of the
item stream covers the value box evenly: the share of items in a region
(for instance where the program is known to fail) stays close to the
region's measure however many items a run completes.  Only a few heavy
items fit in one run; fixed shapes keep the mix, and with it the cost of
a run, the same across seeds.  Points inside an oracle margin (where the
analytic answer is not decisive) are skipped by drawing the next value
point.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sel_lab import bifurcation, cli, karamata, numerics, radial
from sel_lab.expr import ScalarFn

import oracles

PI2 = math.pi ** 2


@dataclass(frozen=True)
class Item:
    """One question a researcher asks; `expect` is its oracle answer."""

    id: int
    family: str
    params: dict
    expect: dict


@dataclass
class Outcome:
    """What the program answered: a verdict plus the numbers behind it."""

    verdict: str
    numbers: dict = field(default_factory=dict)


@dataclass
class Row:
    """Per-item record: the audit trail for every verdict.

    `seconds` is the item's time at the reference host speed: its wall time
    (`wall_seconds`) over the host's slowness around it (`host_slowness`).
    """

    id: int
    family: str
    params: dict
    expect: dict
    verdict: str | None
    numbers: dict | None
    ok: bool
    seconds: float
    error: str | None
    wall_seconds: float | None = None
    host_slowness: float | None = None

    def signature(self) -> str:
        """Verdict, numbers and error text; must not depend on tracing."""
        return json.dumps([self.verdict, self.numbers, self.error], sort_keys=True)


class ProgramFailure(Exception):
    """The program reported a failure through its own channel (CLI exit code)."""


@dataclass
class Context:
    """Where an item may write: config files and per-phase output folders."""

    root: str
    phase: str = "untraced"

    def config_path(self, item: Item) -> str:
        return os.path.join(self.root, "cfg", f"item-{item.id}.cfg")

    def out_dir(self, item: Item) -> str:
        return os.path.join(self.root, self.phase, f"item-{item.id}")


@dataclass(frozen=True)
class Family:
    """draw(shape, values) makes item parameters, or None inside a margin.

    `shape` is the next entry of the family's fixed cycle of shapes (None
    when it has none); `values` is a point of [0, 1)^value_dims from the
    seeded low-discrepancy sequence.
    """

    shapes: tuple | None
    value_dims: int
    draw: Callable[[list, list], dict | None]
    oracle: Callable[[dict], dict]
    solve: Callable[[Item, Context], Outcome]
    agrees: Callable[[dict, Outcome], bool]
    config: Callable[[dict], str] | None = None


# ---------------------------------------------------------------------------
# Parameter mapping helpers
# ---------------------------------------------------------------------------

def _span(u: float, lo: float, hi: float, digits: int = 4) -> float:
    return round(lo + u * (hi - lo), digits)


def _span_excluding(u: float, lo: float, hi: float, gap_lo: float, gap_hi: float,
                    digits: int = 4) -> float:
    """Map u in [0, 1) onto [lo, gap_lo] U [gap_hi, hi], linear in length."""
    left = gap_lo - lo
    x = u * (left + hi - gap_hi)
    return round(lo + x if x <= left else gap_hi + (x - left), digits)


def _sequence_point(k: int, offsets: list) -> list[float]:
    """k-th point of the R_d sequence, d = len(offsets), shifted by offsets.

    The steps are 1/phi_d^i with phi_d the root of x^(d+1) = x + 1.
    """
    x = 2.0
    for _ in range(60):
        x = (1.0 + x) ** (1.0 / (len(offsets) + 1))
    return [(o + k * (1.0 / x) ** (i + 1)) % 1.0 for i, o in enumerate(offsets)]


# ---------------------------------------------------------------------------
# lef-verdicts: singular Lane-Emden-Fowler shooting solves
# ---------------------------------------------------------------------------

# (geometry, N, a)
_SINGULAR_SHAPES = (("interval", 1, "1"), ("ball", 2, "1+t"), ("ball", 3, "1"),
                    ("interval", 1, "1+t"), ("ball", 2, "1"), ("ball", 3, "1+t"))


def _lef_outcome(sol) -> Outcome:
    meta = sol.metadata
    numbers = {"probes": len(meta["probe_table"])}
    if sol.classification == numerics.NO_SOLUTION:
        numbers["sup_zero_location"] = meta["sup_zero_location"]
    else:
        for key in ("shooting_parameter", "sup_norm", "center_value", "c1", "c2"):
            numbers[key] = meta[key]
    return Outcome(sol.classification, numbers)


def _lef_agrees(expect, outcome) -> bool:
    return outcome.verdict == expect["verdict"]


def _singular_draw(shape, u):
    geometry, N, a = shape
    kappa = _span_excluding(u[0], 0.1, 2.0, 1.0 - oracles.THRESHOLD_MARGIN,
                            1.0 + oracles.THRESHOLD_MARGIN)
    lam1 = oracles.lambda1(N, 1.0, "interval" if geometry == "interval" else "ball")
    return {"geometry": geometry, "N": N, "kappa": kappa,
            "lam": kappa * oracles.lambda_star(lam1, 1.0),
            "alpha": _span(u[1], 0.2, 0.8), "a": a}


def _singular_solve(item, ctx):
    params = item.params
    prob = bifurcation.LEFProblem(
        N=params["N"], geometry=params["geometry"], lam=params["lam"],
        f=karamata.analyze_nonlinearity("t"),
        g=karamata.analyze_singular_term(f"t^(-{params['alpha']!r})"),
        a_pot=ScalarFn.from_source(params["a"]),
    )
    return _lef_outcome(bifurcation.solve_lef(prob))


def _gelfand_draw(shape, u):
    lam, mu = _span(u[0], 0.2, 2.0), _span(u[1], 0.5, 9.5)
    lam1 = oracles.lambda1(1, 1.0, "interval")
    if oracles.near_threshold(lam * mu, lam1):
        return None
    return {"g": "exp(-t)", "lam": lam, "mu": mu, "a_lim": 0.0, "lambda1": lam1}


def _gelfand_solve(item, ctx):
    params = item.params
    src = bifurcation.gelfand_reduced_source(params["g"], params["lam"], params["mu"])
    f = ScalarFn.from_source(src)
    phi = karamata.Nonlinearity(f=f, fprime=f.derivative_fn(), source=src)
    prob = bifurcation.LEFProblem(N=1, geometry="interval", lam=1.0, f=phi,
                                  a_pot=ScalarFn.from_source("0"))
    return _lef_outcome(bifurcation.solve_lef(prob))


def _linear_draw(shape, u):
    lo, hi = (1.0 - oracles.THRESHOLD_MARGIN) * PI2, (1.0 + oracles.THRESHOLD_MARGIN) * PI2
    return {"lam": _span_excluding(u[0], 1.0, 30.0, lo, hi)}


def _linear_solve(item, ctx):
    params = item.params
    prob = bifurcation.LEFProblem(N=1, geometry="interval", lam=params["lam"],
                                  f=karamata.analyze_nonlinearity("t"))
    return _lef_outcome(bifurcation.solve_lef(prob))


# ---------------------------------------------------------------------------
# blowup-eigen-cli: in-process CLI runs on generated configs
# ---------------------------------------------------------------------------

# (p, domain, N): every p of the grid 2.0, 2.2, ..., 4.0 and all four
# domains.  A 20 s run reaches the first five: the headline shape, the two
# annulus failures seen while sizing (the non-integer raise at p = 2.2 and
# the p = 2 levels that cannot resolve u ~ d^-4), a passing ball shape and
# the 2 % rate miss of ball N = 2 at low p.
_BLOWUP_SHAPES = ((3.0, "annulus", 1), (2.2, "annulus", 1), (2.0, "annulus", 1),
                  (3.4, "ball", 3), (2.6, "ball", 2), (3.8, "ball", 1),
                  (2.4, "ball", 2), (4.0, "ball", 3), (2.0, "ball", 1),
                  (3.6, "annulus", 1), (3.2, "ball", 2), (2.8, "ball", 1))
# (N, mode), ordered so that cheap and expensive shoots alternate.  N = 3
# twice: the median item of a run then falls inside the N = 3 cost
# cluster rather than on the edge between two clusters.
_EIGEN_SHAPES = ((1, "ball"), (4, "ball"), (2, "ball"), (3, "ball"), (5, "ball"),
                 (1, "interval"), (3, "ball"))


def _blowup_draw(shape, u):
    p, domain, N = shape
    return {"p": p, "alpha": _span(u[0], 0.5, 2.0),
            "domain": domain, "N": N}


def _blowup_config(params) -> str:
    p, alpha = params["p"], params["alpha"]
    if params["domain"] == "annulus":
        geometry, b = "domain = annulus\nR0 = 0.0\nR = 1.0", f"t^({2.0 * alpha!r})"
    else:
        geometry, b = "domain = ball\nR = 1.0", f"(1-t)^({2.0 * alpha!r})"
    return (f"[problem]\ncommand = blowup\nN = {params['N']}\n{geometry}\n"
            f"b_normalization = k2\nk_alpha = {alpha!r}\nnu = 1.0\nc = 1.0\n\n"
            f"[functions]\nf = \"t^{p!r}\"\nb = \"{b}\"\n\n"
            f"[numerics]\ntol = 1e-10\ngrid_depth = 14\n\n"
            f"[output]\ncsv = solution.csv\njson = summary.json\n")


def _eigen_draw(shape, u):
    N, mode = shape
    return {"N": N, "mode": mode, "R": _span(u[0], 0.5, 2.0)}


def _eigen_config(params) -> str:
    return (f"[problem]\ncommand = eigen\nN = {params['N']}\nR = {params['R']!r}\n"
            f"mode = {params['mode']}\n\n[output]\ncsv = eigen.csv\njson = summary.json\n")


def _run_cli(item: Item, ctx: Context) -> tuple[dict, str]:
    """cli.main on the item's config; returns (summary JSON, CSV sha256)."""
    out = ctx.out_dir(item)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--config", ctx.config_path(item), "--out", out])
    if code != 0:
        reason = ""
        failure = os.path.join(out, "failure.json")
        if os.path.exists(failure):
            with open(failure, encoding="utf-8") as handle:
                reason = json.load(handle).get("error", "")
        raise ProgramFailure(f"exit code {code}: {reason}")
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    with open(os.path.join(out, summary["csv"]), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return summary, digest


def _blowup_solve(item, ctx):
    summary, digest = _run_cli(item, ctx)
    return Outcome(summary["classification"],
                   {"rate_limit": summary.get("rate_limit"),
                    "rate_drift": summary.get("rate_drift"),
                    "levels": summary["levels"], "csv_sha256": digest})


def _blowup_agrees(expect, outcome) -> bool:
    rate = outcome.numbers["rate_limit"]
    return (outcome.verdict == expect["verdict"] and isinstance(rate, float)
            and oracles.rate_ok(rate))


def _eigen_solve(item, ctx):
    summary, digest = _run_cli(item, ctx)
    return Outcome("eigenvalue", {"lambda1": summary["lambda1"], "csv_sha256": digest})


def _eigen_agrees(expect, outcome) -> bool:
    want, got = expect["lambda1"], outcome.numbers["lambda1"]
    return isinstance(got, float) and abs(got - want) <= oracles.EIGEN_REL_TOL * want


# ---------------------------------------------------------------------------
# growth-picard: growth classifiers, quadrature verdicts, Picard schemes
# ---------------------------------------------------------------------------

# (psi, decay exponent of psi at infinity, N)
_DICHOTOMY_SHAPES = (("1", 0.0, 3), ("(1+t^2)^(-2)", 4.0, 4), ("1", 0.0, 5),
                     ("(1+t^2)^(-2)", 4.0, 3), ("1", 0.0, 4), ("(1+t^2)^(-2)", 4.0, 5))


def _verdict_text(**verdicts) -> str:
    return ";".join(f"{k}={v}" for k, v in verdicts.items())


def _ko_draw(shape, u):
    # |p - 1| <= 0.1 puts the integrand slope -(p+1)/2 inside the
    # classifier's +-0.05 band around -1: a log borderline, not decisive
    return {"p": _span_excluding(u[0], 0.8, 3.0, 0.9, 1.1), "q": _span(u[1], 0.0, 6.0)}


def _ko_solve(item, ctx):
    params = item.params
    nl = karamata.analyze_nonlinearity(f"t^{params['p']!r}*ln(1+t)^{params['q']!r}")
    ko = karamata.keller_osserman(nl)
    entire = karamata.necessary_condition_entire(nl)
    return Outcome(_verdict_text(ko=ko.status, entire=entire.status),
                   {"ko_value": ko.value, "ko_slope": ko.slope,
                    "entire_value": entire.value, "entire_slope": entire.slope})


def _verdict_agrees(expect, outcome) -> bool:
    return outcome.verdict == expect["verdict"]


def _rates_draw(shape, u):
    return {"p": _span(u[0], 1.5, 5.0), "alpha": _span(u[1], 0.5, 4.0)}


def _rates_solve(item, ctx):
    params = item.params
    nl = karamata.analyze_nonlinearity(f"t^{params['p']!r}")
    est = karamata.ell_limits(ScalarFn.from_source(f"t^{params['alpha']!r}"), 1.0)
    return Outcome("measured", {"theta": nl.theta, "gamma": nl.gamma, "rho": nl.rho,
                                "ell1": est.ell1})


def _rates_agrees(expect, outcome) -> bool:
    got = outcome.numbers
    tols = {"theta": oracles.THETA_TOL, "gamma": oracles.GAMMA_TOL,
            "rho": oracles.RHO_TOL, "ell1": oracles.ELL1_TOL}
    return all(got[k] is not None and abs(got[k] - expect[k]) <= tol
               for k, tol in tols.items())


def _integrals_draw(shape, u):
    return {"s": _span_excluding(u[0], 0.2, 3.0, 1.0 - oracles.THRESHOLD_MARGIN,
                                 1.0 + oracles.THRESHOLD_MARGIN)}


def _integrals_solve(item, ctx):
    params = item.params
    fn = ScalarFn.from_source(f"t^(-{params['s']!r})").fast()
    tail = numerics.classify_tail_integral(fn, 1.0)
    origin = numerics.classify_origin_integral(fn, 1.0)
    return Outcome(_verdict_text(tail=tail.status, origin=origin.status),
                   {"tail_value": tail.value, "origin_value": origin.value})


def _integrals_agrees(expect, outcome) -> bool:
    if outcome.verdict != expect["verdict"]:
        return False
    for key in ("tail_value", "origin_value"):
        want, got = expect[key], outcome.numbers[key]
        if want is not None and (got is None or abs(got - want)
                                 > oracles.INTEGRAL_VALUE_TOL * (1.0 + abs(want))):
            return False
    return True


def _dichotomy_draw(shape, u):
    psi, decay, N = shape
    return {"psi": psi, "decay": decay, "q": _span(u[0], 0.3, 0.8), "N": N}


def _picard_solve(item, ctx):
    params = item.params
    sol = radial.picard_gradient_entire(
        ScalarFn.from_source(params["psi"]),
        karamata.analyze_nonlinearity(f"t^{params['q']!r}"), 1.0, 50.0, params["N"],
        panels=1024)
    meta = sol.metadata
    return Outcome(sol.classification,
                   {"u_end": float(sol.u[-1]), "iterations": meta["iterations"],
                    "growth_ratio": meta["growth_ratio"], "monotone": meta["monotone"],
                    "growth_bound_ok": meta["growth_bound_ok"]})


def _picard_agrees(expect, outcome) -> bool:
    return (outcome.verdict == expect["verdict"] and outcome.numbers["monotone"]
            and outcome.numbers["growth_bound_ok"])


def _system_solve(item, ctx):
    params = item.params
    pot = radial.RadialPotential(phi=ScalarFn.from_source(params["psi"]))
    f = karamata.analyze_nonlinearity(f"t^{params['q']!r}")
    R = 50.0 if params["decay"] == 0.0 else 100.0
    N = params["N"]
    sol = radial.solve_system(radial.SystemProblem(p=pot, q=pot, f=f, g=f, a=1.0, b=1.0),
                              R, N, mesh_points=1024)
    # criterion 6 lower bound for p = q = 1 and a = b = 1: u >= 1 + r^2/(2N)
    lower = float(np.min(sol.u / (1.0 + sol.r ** 2 / (2.0 * N))))
    return Outcome(sol.classification,
                   {"u_end": float(sol.u[-1]), "v_end": float(sol.v[-1]),
                    "iterations": sol.metadata["iterations"],
                    "plateau_drift": sol.metadata.get("plateau_drift"),
                    "lower_bound_ratio": lower})


def _system_agrees(expect, outcome) -> bool:
    if outcome.verdict != expect["verdict"]:
        return False
    if expect["verdict"] == oracles.ENTIRE_LARGE:
        return outcome.numbers["lower_bound_ratio"] >= 1.0 - 1e-9
    drift = outcome.numbers["plateau_drift"]
    return drift is not None and drift < oracles.PLATEAU_DRIFT_TOL


def _integral_expect(params):
    tail, tail_value = oracles.tail_integral(params["s"])
    origin, origin_value = oracles.origin_integral(params["s"])
    return {"verdict": _verdict_text(tail=tail, origin=origin),
            "tail_value": tail_value, "origin_value": origin_value}


FAMILIES = {
    "singular": Family(_SINGULAR_SHAPES, 2, _singular_draw,
                       lambda p: {"verdict": oracles.lef_verdict(p["kappa"])},
                       _singular_solve, _lef_agrees),
    "gelfand": Family(None, 2, _gelfand_draw,
                      lambda p: {"verdict": oracles.gelfand_verdict(
                          p["lam"], p["mu"], p["a_lim"], p["lambda1"])},
                      _gelfand_solve, _lef_agrees),
    "linear": Family(None, 1, _linear_draw, lambda p: {"verdict": oracles.linear_verdict()},
                     _linear_solve, _lef_agrees),
    "blowup": Family(_BLOWUP_SHAPES, 1, _blowup_draw,
                     lambda p: {"verdict": numerics.BOUNDARY_BLOWUP, "rate_limit": 1.0},
                     _blowup_solve, _blowup_agrees, _blowup_config),
    "eigen": Family(_EIGEN_SHAPES, 1, _eigen_draw,
                    lambda p: {"lambda1": oracles.lambda1(p["N"], p["R"], p["mode"])},
                    _eigen_solve, _eigen_agrees, _eigen_config),
    "ko": Family(None, 2, _ko_draw,
                 lambda p: {"verdict": _verdict_text(
                     ko=oracles.keller_osserman_verdict(p["p"], p["q"]),
                     entire=oracles.entire_condition_verdict(p["p"], p["q"]))},
                 _ko_solve, _verdict_agrees),
    "rates": Family(None, 2, _rates_draw,
                    lambda p: {**oracles.power_growth(p["p"]),
                               "ell1": oracles.ell1_power(p["alpha"])},
                    _rates_solve, _rates_agrees),
    "integrals": Family(None, 1, _integrals_draw, _integral_expect, _integrals_solve,
                        _integrals_agrees),
    "picard": Family(_DICHOTOMY_SHAPES, 1, _dichotomy_draw,
                     lambda p: {"verdict": oracles.dichotomy_verdict(p["decay"])},
                     _picard_solve, _picard_agrees),
    "system": Family(_DICHOTOMY_SHAPES, 1, _dichotomy_draw,
                     lambda p: {"verdict": oracles.dichotomy_verdict(p["decay"])},
                     _system_solve, _system_agrees),
}

# One round of each workload, in the order the items are asked.
WORKLOADS = {
    "lef-verdicts": ("singular", "gelfand", "singular", "linear"),
    "blowup-eigen-cli": ("blowup",) + ("eigen",) * len(_EIGEN_SHAPES),
    "growth-picard": ("ko", "picard", "system", "rates", "ko", "picard", "system",
                      "integrals"),
}


def _seed_offset(key: str) -> float:
    """A uniform value in [0, 1) from a hash: nearby seeds give unrelated offsets
    (random.Random seeded with nearby strings starts out correlated)."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") / 2.0 ** 64


def generate(workload: str, seed: int, rounds: int) -> list[list[Item]]:
    """The item stream of a workload: `rounds` rounds, deterministic in seed."""
    counters = {}
    for name in sorted(set(WORKLOADS[workload])):
        family = FAMILIES[name]
        offsets = [_seed_offset(f"{workload}/{seed}/{name}/{i}")
                   for i in range(family.value_dims)]
        counters[name] = [0, 0, offsets]  # shape index, value index, value offsets
    out, next_id = [], 0
    for _ in range(rounds):
        block = []
        for name in WORKLOADS[workload]:
            family, state = FAMILIES[name], counters[name]
            shape = family.shapes[state[0] % len(family.shapes)] if family.shapes else None
            state[0] += 1
            params = None
            while params is None:
                state[1] += 1
                params = family.draw(shape, _sequence_point(state[1], state[2]))
            block.append(Item(next_id, name, params, family.oracle(params)))
            next_id += 1
        out.append(block)
    return out


def write_configs(items: list[Item], ctx: Context) -> None:
    """Write the config file of every CLI item (part of set-up)."""
    os.makedirs(os.path.join(ctx.root, "cfg"), exist_ok=True)
    for item in items:
        make = FAMILIES[item.family].config
        if make is not None:
            with open(ctx.config_path(item), "w", encoding="utf-8") as handle:
                handle.write(make(item.params))


def run_item(item: Item, ctx: Context, family: Family | None = None) -> Row:
    """Ask one question, time it, and check the answer against its oracle."""
    family = family or FAMILIES[item.family]
    outcome, error = None, None
    start = time.perf_counter()
    try:
        outcome = family.solve(item, ctx)
    except Exception as exc:  # a raising item is a measured failure, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    ok = outcome is not None and bool(family.agrees(item.expect, outcome))
    return Row(item.id, item.family, item.params, item.expect,
               outcome.verdict if outcome else None, outcome.numbers if outcome else None,
               ok, seconds, error)
