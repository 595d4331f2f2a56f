"""Batch harness: config parsing, dispatch, CSV/JSON artifacts.

Configs are line-oriented `key = value` files under [section] headers with
the sections [problem], [functions], [numerics], [output].  Expressions are
quoted strings in the shared grammar (single variable t; radial functions
read r as t).  Each command is declared once, in _COMMANDS, with one Key
per config key it accepts: kind, default, choices and range.  Unknown and
duplicate keys are errors, every number must be finite, every [functions]
expression must be quoted and parse, and every value must fit its Key
before any computation starts; the output directory is created by the
first write, and output files are written atomically, so a malformed
config (exit code 2) leaves no artifacts.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bifurcation as _bif
from . import karamata as _ka
from . import numerics as _num
from . import profile as _prof
from . import radial as _rad
from .expr import ParseError, ScalarFn, parse_expression
from .ioutil import atomic_write_text, write_csv

SECTIONS = ("problem", "functions", "numerics", "output")


class ConfigError(Exception):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


EXPR = "expr"  # the kind of a quoted [functions] expression
_EXPECTED = {int: "an integer", float: "a number", list: "a list of numbers",
             bool: "true or false", str: "a file name"}


def _convert(kind, value):
    """value as kind, or None when it does not fit: a number is a float, an
    integral number an int, one number a one-element list."""
    if kind in (list, bool, str) and isinstance(value, kind):
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool) or kind in (bool, str):
        return None
    if kind is int:
        return int(value) if isinstance(value, int) or value.is_integer() else None
    return [float(value)] if kind is list else float(value)


@dataclass(frozen=True)
class Key:
    """One config key of a command: its kind (float, int, list, bool, str for
    a word or a file name, or EXPR), default, whether it is required, the
    words it may take and a check (ok, must): ok(value) is False unless the
    value is `must`."""

    section: str
    name: str
    kind: object
    default: object = None
    required: bool = False
    choices: tuple | None = None
    check: tuple | None = None

    def read(self, value, lineno: int):
        """The value checked and converted to the key's kind; a ConfigError at
        lineno when it does not parse, is outside choices (tested before its
        kind), is not of its kind or fails the check."""
        where = f"[{self.section}] {self.name}"
        if self.kind is EXPR:
            try:
                parse_expression(value)
            except ParseError as exc:
                raise ConfigError(f"{where}: {exc}", lineno) from exc
            return value
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{where} must be one of {', '.join(self.choices)}, "
                              f"not {value!r}", lineno)
        converted = _convert(self.kind, value)
        if converted is None:
            raise ConfigError(f"{where} must be {_EXPECTED[self.kind]}, not {value!r}", lineno)
        if self.check is not None and not self.check[0](converted):
            raise ConfigError(f"{where} must be {self.check[1]}, not {converted!r}", lineno)
        return converted


@dataclass
class ProblemSpec:
    """Parsed configuration: raw (value, lineno) per section/key, and after
    validate() every key of the command by name, as values."""

    command: str
    path: str
    data: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def require(self, section: str, key: str):
        """The value of a key that the command needs only on one branch."""
        if self.values[key] is None:
            raise ConfigError(f"missing required key '{key}' in [{section}] "
                              f"for command {self.command}")
        return self.values[key]

    def check(self, section: str, key: str, value, ok: bool, must: str) -> None:
        """Unless ok, a ConfigError saying that [section] key must be `must`,
        at the key's line when the config sets it."""
        if not ok:
            entry = self.data.get(section, {}).get(key)
            raise ConfigError(f"[{section}] {key} must be {must}, not {value!r}",
                              entry[1] if entry else None)

    def validate(self):
        """Check the whole config against the command's Key table before
        anything runs: each key it sets, in file order, with Key.read (an
        unknown key is a ConfigError at its line), then fill in the defaults,
        refuse a missing required key and store the values by name."""
        table = {(key.section, key.name): key for key in _COMMANDS[self.command][1]}
        values = {}
        for lineno, section, name, value in sorted(
                (lineno, section, name, value) for section, entries in self.data.items()
                for name, (value, lineno) in entries.items()):
            if (section, name) not in table:
                raise ConfigError(f"unknown key '{name}' in [{section}] "
                                  f"for command {self.command}", lineno)
            values[name] = table[section, name].read(value, lineno)
        self.values = values
        for key in table.values():
            values.setdefault(key.name, key.default)
            if key.required:
                self.require(key.section, key.name)


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigError("empty value", lineno)
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if "," in text:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"list values must be numbers: {text!r}", lineno) from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text  # bare word (enum-like)


def parse_config(path: str) -> ProblemSpec:
    """Parse and validate the config file; fail-fast on malformed input."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    data: dict = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', found {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in data[section]:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", lineno)
        if section == "functions" and not (len(value) >= 2 and value[0] == value[-1] == '"'):
            raise ConfigError(f"[functions] {key} must be a quoted expression", lineno)
        parsed = _parse_value(value, lineno)
        if isinstance(parsed, (float, list)) and not np.all(np.isfinite(parsed)):
            raise ConfigError(f"[{section}] {key} must be finite, not {value!r}", lineno)
        data[section][key] = (parsed, lineno)

    command = data.get("problem", {}).get("command", (None,))[0]
    if command is None:
        raise ConfigError("missing required key 'command' in [problem]")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    return ProblemSpec(command=command, path=path, data=data)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _summary_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v)).removesuffix(".0")  # shortest string that reads back as v
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_summary_value(x) for x in v) + "]"
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _verdict_summary(v: _num.ConvergenceVerdict) -> dict:
    out = {"verdict": v.status}
    if v.value is not None:
        out["value"] = v.value
    if v.err is not None:
        out["err"] = v.err
    if v.slope is not None:
        out["slope"] = v.slope
    if "b" in v.diagnostics:  # the fitted log power and how far the samples reached
        out["log_power"] = v.diagnostics["b"]
        out["w_last"] = v.diagnostics["w_range"][1]
    return out


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_check_ko(spec, outdir):
    f_src = spec.values["f"]
    verdict = _ka.keller_osserman(_ka.analyze_nonlinearity(f_src))
    return {"f": f_src, **_verdict_summary(verdict)}


def _cmd_classify(spec, outdir):
    v = spec.values
    fn = ScalarFn.from_source(v["fn"])
    if v["direction"] == "tail":
        verdict = _num.classify_tail_integral(fn, v["a"])
    else:
        verdict = _num.classify_origin_integral(fn, v["b"])
    return {"direction": v["direction"], "fn": v["fn"], **_verdict_summary(verdict)}


def _cmd_analyze_f(spec, outdir):
    f_src = spec.values["f"]
    nl = _ka.analyze_nonlinearity(f_src)

    def show(x, unknown="unavailable"):
        return unknown if x is None else x

    return {"f": f_src, "m": show(nl.m), "Lambda": show(nl.Lambda), "theta": show(nl.theta),
            "gamma": show(nl.gamma), "rho": show(nl.rho),
            "identities_ok": show(nl.check_remark_identities(), "unknown")}


def _cmd_ell(spec, outdir):
    k_src = spec.values["k"]
    est = _ka.ell_limits(ScalarFn.from_source(k_src), spec.values["nu"])
    return {"k": k_src, "ell0": est.ell0, "ell1": est.ell1,
            "ell0_err": est.ell0_err, "ell1_err": est.ell1_err}


def _cmd_make_k(spec, outdir):
    v = spec.values
    kf = _ka.make_k(v["kind"], v["S"], v["D"])
    return {"kind": v["kind"], "S": v["S"], "nu": kf.nu, "ell1": kf.ell1,
            "predicted_ell1": kf.predicted_ell1, "ell1_err": kf.ell1_err}


def _weight_from_spec(spec):
    """Read the weight k; returns a function that builds its KFunction."""
    v = spec.values
    kind, D, alpha, nu = v["k_kind"], v["D"], v["k_alpha"], v["nu"]
    if kind is not None:
        S_src = spec.require("functions", "S")
        return lambda: _ka.make_k(kind, S_src, D)
    if alpha is not None:
        return lambda: _ka.KFunction.power(alpha, nu=nu)
    k_src = spec.require("functions", "k")

    def user_weight():
        k = ScalarFn.from_source(k_src)
        est = _ka.ell_limits(k, nu)
        return _ka.KFunction(k=k, nu=nu, ell0=est.ell0, ell1=est.ell1,
                             ell0_err=est.ell0_err, ell1_err=est.ell1_err)

    return user_weight


def _profile_from_spec(spec):
    """Read the profile config; returns a function that builds the profile,
    so that a command can read all of its config before it computes.  A
    command that has analysed f already hands its Nonlinearity to it."""
    v = spec.values
    weight = _weight_from_spec(spec)

    def build(nl=None):
        nl = nl if nl is not None else _ka.analyze_nonlinearity(v["f"])
        kf = weight()
        t_grid = kf.nu * 2.0 ** (-np.arange(1, v["grid_depth"] + 1, dtype=float))
        return _prof.build_profile(nl, kf, variant=v["variant"], t_grid=t_grid, c=v["c"],
                                   tol=v["tol"])

    return build


def _cmd_profile(spec, outdir):
    profile = _profile_from_spec(spec)()
    csv = spec.values["csv"]
    profile.export_csv(os.path.join(outdir, csv))
    return {"f": spec.values["f"], "variant": profile.variant,
            "xi0": profile.xi0 if profile.xi0 is not None else "unavailable",
            "roundtrip_err": profile.roundtrip_err, "csv": csv}


def _cmd_xi0(spec, outdir):
    v = spec.values
    if v["rho"] is not None:
        value = _ka.xi0_power(v["rho"], spec.require("problem", "ell1"), v["c"])
        return {"method": "power", "xi0": value}
    f_src = spec.require("functions", "f")
    gamma = spec.require("problem", "gamma")
    kprime0 = spec.require("problem", "kprime0")
    value = _ka.xi0_via_A(_ka.analyze_nonlinearity(f_src), gamma, kprime0, v["c"])
    return {"method": "A", "f": f_src, "xi0": value}


def _cmd_chi(spec, outdir):
    two = _ka.TwoTermSpec(**{name: spec.values[name] for name in (
        "rho", "zeta", "theta", "ell_star", "c_tilde", "ell_sup", "case")})
    varpi, chi = _ka.chi_two_term(two)
    return {"case": two.case, "varpi": varpi, "chi": chi}


def _cmd_solve_entire(spec, outdir):
    v = spec.values
    N, psi = v["N"], ScalarFn.from_source(v["psi"])
    nl = _ka.analyze_nonlinearity(v["f"])
    lam = nl.Lambda if nl.Lambda is not None else math.inf
    pot = _rad.RadialPotential(phi=psi if v["phi"] is None else ScalarFn.from_source(v["phi"]),
                               psi=psi, lam_N=lam / (N - 2.0) if math.isfinite(lam) else 1.0)
    sol = _rad.picard_gradient_entire(pot, nl, v["b0"], v["R"], N, v["tol"], v["panels"])
    sol.to_csv(os.path.join(outdir, v["csv"]))
    out = {"classification": sol.classification,
           "iterations": sol.metadata["iterations"],
           "growth_bound_ok": sol.metadata["growth_bound_ok"],
           "mesh_points": sol.metadata["mesh_points"], "mesh_drift": sol.metadata["mesh_drift"],
           "mesh_error": sol.metadata["mesh_error"], "u_end": float(sol.u[-1]),
           "csv": v["csv"]}
    for key in ("large_condition", "large_condition_error", "b_star", "ordering_ok",
                "ordering_error", "plateau_drift"):
        if key in sol.metadata:
            out[key] = sol.metadata[key]
    return out


def _cmd_solve_system(spec, outdir):
    v = spec.values
    p, q = (ScalarFn.from_source(v[k]) for k in "pq")
    f, g = (_ka.analyze_nonlinearity(v[k]) for k in "fg")
    # one potential when both keys parse to one tree: one tail verdict, one mesh read
    p_pot = _rad.RadialPotential(phi=p)
    q_pot = p_pot if q.body == p.body else _rad.RadialPotential(phi=q)
    sys_ = _rad.SystemProblem(p=p_pot, q=q_pot, f=f, g=g, a=v["a"], b=v["b"])
    sol = _rad.solve_system(sys_, v["R"], v["N"], v["tol"], v["mesh_points"])
    sol.to_csv(os.path.join(outdir, v["csv"]))
    return {"classification": sol.classification,
            "iterations": sol.metadata["iterations"],
            "tp_verdict": sol.metadata["tp_verdict"],
            "tq_verdict": sol.metadata["tq_verdict"],
            "lower_bound_ok": sol.metadata["lower_bound_ok"],
            "mesh_points": sol.metadata["mesh_points"], "mesh_drift": sol.metadata["mesh_drift"],
            "mesh_error": sol.metadata["mesh_error"],
            "u_end": float(sol.u[-1]), "v_end": float(sol.v[-1]), "csv": v["csv"]}


def _logistic_from_spec(spec) -> _rad.LogisticProblem:
    v = spec.values
    domain_kind, R0, R, omega0 = v["domain"], v["R0"], v["R"], v["omega0"]
    if R is None:
        R = 10.0 if domain_kind == "whole-space" else 1.0
    if domain_kind == "annulus":
        spec.check("problem", "R0", R0, 0.0 <= R0 < R, "in [0, R)")
    if omega0 > 0.0:
        spec.check("problem", "omega0", omega0, domain_kind != "annulus", "0 on an annulus")
        spec.check("problem", "omega0", omega0, domain_kind != "ball" or omega0 < R,
                   "below R on a ball")
    return _rad.LogisticProblem(
        N=v["N"], f=_ka.analyze_nonlinearity(v["f"]), b=ScalarFn.from_source(v["b"]),
        a_lin=v["a"], domain=("annulus", R0, R) if domain_kind == "annulus" else (domain_kind, R),
        omega0_radius=omega0, b_normalization=v["b_normalization"])


def _cmd_blowup(spec, outdir):
    # the rate is measured when a weight k is given in any of its three
    # forms; its config is read before anything is computed or written
    v = spec.values
    weighted = any(v[key] is not None for key in ("k_kind", "k_alpha", "k"))
    make_profile = _profile_from_spec(spec) if weighted else None
    prob = _logistic_from_spec(spec)
    sol = _rad.boundary_blowup(prob, n_levels=v["levels"])
    rate = None if make_profile is None else _rad.measure_boundary_rate(sol, make_profile(prob.f))
    sol.to_csv(os.path.join(outdir, v["csv"]))
    out = {"classification": sol.classification,
           "blowup_radius": sol.blowup_radius if sol.blowup_radius is not None else "none",
           "levels": len(sol.metadata.get("n_levels", [])),
           **{key: sol.metadata[key] for key in ("level_shots", "level_search_exponent",
                                                 "level_parameter_gap")
              if key in sol.metadata},
           "csv": v["csv"]}
    if rate is not None:
        out.update(rate_ratio=f"{rate.limit:.2f}x", rate_limit=rate.limit, rate_drift=rate.drift)
    return out


def _cmd_rate(spec, outdir):
    v = spec.values
    try:
        sol = _read_solution_csv(os.path.join(outdir, v["solution"]))
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"[problem] solution: {exc}",
                          spec.data["problem"]["solution"][1]) from exc
    rate = _rad.measure_boundary_rate(sol, _profile_from_spec(spec)())
    write_csv(os.path.join(outdir, v["csv"]), "d,ratio_h,ratio_xi0h",
              (rate.d, rate.ratio_h, rate.ratio_xi0h))
    return {"limit": rate.limit, "drift": rate.drift, "csv": v["csv"]}


def _read_solution_csv(path) -> _num.RadialSolution:
    """A solution CSV with its `# key=value` comment lines as metadata."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    meta = {k.strip(): v.strip() for k, _, v in (line[1:].partition("=") for line in lines
                                                  if line.startswith("#") and "=" in line)}
    table = [line.split(",") for line in lines if not line.startswith("#")]
    if len(table) < 2:
        raise ConfigError(f"solution file {path!r} is empty")
    if not {"r", "u"} <= set(table[0]):
        raise ConfigError(f"solution file {path!r} has no r and u columns")
    cols = dict(zip(table[0], np.array(table[1:], dtype=float).T))
    sol = _num.RadialSolution(
        dimension=int(meta.get("dimension", 1)), r=cols["r"], u=cols["u"],
        du=cols.get("u_prime"), v=cols.get("v"),
        classification=meta.get("classification", _num.UNDETERMINED),
        blowup_radius=float(meta["blowup_radius"]) if "blowup_radius" in meta else None,
    )
    if "b_normalization" in meta:
        sol.metadata["b_normalization"] = meta["b_normalization"]
    return sol


def _cmd_eigen(spec, outdir):
    v = spec.values
    N, R, mode = v["N"], v["R"], v["mode"]
    if mode == "interval":
        spec.check("problem", "N", N, N == 1, "1 in interval mode")
    eig = _bif.lambda1_ball(N, R, mode=mode)
    eig.to_csv(os.path.join(outdir, v["csv"]))
    return {"N": N, "R": R, "mode": mode,
            "lambda1": eig.lambda1, "phi_at_R": eig.phi_at_R, "shots": eig.shots,
            "steps_accepted": eig.steps_accepted, "steps_rejected": eig.steps_rejected,
            "csv": v["csv"]}


def _lef_from_spec(spec) -> _bif.LEFProblem:
    v = spec.values
    spec.check("problem", "N", v["N"], v["geometry"] == "ball" or v["N"] == 1,
               "1 on the interval geometry")

    def fn(key):
        return ScalarFn.from_source(v[key]) if v[key] else None

    return _bif.LEFProblem(
        N=v["N"], geometry=v["geometry"], R=v["R"], lam=v["lambda"], mu=v["mu"],
        f=_ka.analyze_nonlinearity(v["f"]) if v["f"] else None,
        g=_ka.analyze_singular_term(v["g"]) if v["g"] else None,
        a_pot=fn("a"), K_pot=fn("K"), source=fn("source"), grad_p=v["grad_p"], mode=v["mode"])


def _cmd_lef(spec, outdir):
    sol = _bif.solve_lef(_lef_from_spec(spec))
    out = {"classification": sol.classification}
    if sol.classification == _num.NO_SOLUTION:
        csv = spec.values["csv"] or "lef_probes.csv"
        write_csv(os.path.join(outdir, csv), "s,zero_location",
                  zip(*sol.metadata["probe_table"]))
        out.update((key, sol.metadata[key])
                   for key in ("sup_zero_location", "fold_parameter", "lambda_star",
                               "failed_probes") if key in sol.metadata)
    else:
        csv = spec.values["csv"] or "lef.csv"
        sol.to_csv(os.path.join(outdir, csv))
        out.update({"sup_norm": sol.metadata["sup_norm"],
                    "center_value": sol.metadata["center_value"],
                    "c1": sol.metadata["c1"], "c2": sol.metadata["c2"]})
    out["csv"] = csv
    out.update((key, sol.metadata[key])
               for key in ("shots", "steps_accepted", "steps_rejected", "rhs_calls"))
    return out


def _cmd_sweep(spec, outdir):
    grid, csv = spec.values["lambda_grid"], spec.values["csv"]
    diagram = _bif.sweep(_lef_from_spec(spec), grid)
    diagram.to_csv(os.path.join(outdir, csv))
    out = {"points": len(grid),
           "solved": sum(1 for s in diagram.status if s == "solved"),
           "monotone_centers": diagram.monotone_centers, "csv": csv}
    if diagram.lam_star_bracket:
        out["lambda_star_bracket"] = list(diagram.lam_star_bracket)
    if diagram.lam_star_theoretical is not None:
        out["lambda_star_theoretical"] = diagram.lam_star_theoretical
    return out


def _cmd_gelfand(spec, outdir):
    v = spec.values
    lam, mu, g_src, N, geometry = v["lambda"], v["mu"], v["g"], v["N"], v["geometry"]
    if v["solve"]:
        spec.check("problem", "N", N, geometry == "ball" or N == 1, "1 on the interval geometry")
    g_nl = _ka.analyze_singular_term(g_src)
    a_lim = g_nl.value_at_inf
    if a_lim is None:
        raise ValueError(g_nl.notes[-1])
    lam1 = _bif.lambda1_domain(N, geometry)
    solvable = _bif.gelfand_solvable(lam, mu, a_lim, lam1)
    out = {"lambda": lam, "mu": mu, "a": a_lim, "lambda1": lam1, "solvable": solvable}
    if v["solve"] and lam > 0.0:
        phi = _ka.analyze_nonlinearity(_bif.gelfand_reduced_source(g_src, lam, mu))
        reduced = _bif.LEFProblem(N=N, geometry=geometry, lam=1.0, f=phi,
                                  a_pot=ScalarFn.from_source("0"), mode="absorption")
        sol = _bif.solve_lef(reduced)
        out["solved"] = sol.classification != _num.NO_SOLUTION
        out["agrees"] = out["solved"] == solvable
        if out["solved"]:
            _bif.gelfand_transform(sol, lam, "back").to_csv(os.path.join(outdir, v["csv"]))
            out["csv"] = v["csv"]
    return out


def _cmd_young(spec, outdir):
    v = spec.values
    lam1 = v["lambda1"] if v["lambda1"] is not None else _bif.lambda1_domain(v["N"], v["geometry"])
    C = _bif.young_constant(v["a"], v["p"], lam1)
    return {"a": v["a"], "p": v["p"], "lambda1": lam1, "C": C}


# ---------------------------------------------------------------------------
# The config of every command: the one statement of its keys
# ---------------------------------------------------------------------------

_P = functools.partial(Key, "problem")
_F = functools.partial(Key, "functions", kind=EXPR)
_N = functools.partial(Key, "numerics")
_POSITIVE = (lambda x: x > 0.0, "positive")
_NONNEGATIVE = (lambda x: x >= 0.0, "nonnegative")
_UNIT = (lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_AT_LEAST_1 = (lambda x: x >= 1, "at least 1")
_AT_LEAST_3 = (lambda x: x >= 3, "at least 3")
_INTERVAL_OR_BALL = _P("geometry", str, "interval", choices=_bif.LEF_GEOMETRIES)

# the weight k in its three forms, and the profile built on it
_PROFILE_KEYS = (
    _P("k_kind", str, choices=_ka.K_KINDS), _P("D", float, 1.0, check=_POSITIVE),
    _P("k_alpha", float), _P("nu", float, 1.0, check=_POSITIVE),
    _P("c", float, 1.0, check=_POSITIVE),
    _P("variant", str, _prof.VARIANT_K, choices=tuple(_prof.VARIANT_NORMALIZATION)),
    _F("f", required=True), _F("S"), _F("k"),
    _N("grid_depth", int, 24, check=(lambda x: x >= 2, "at least 2")),
    _N("tol", float, 1e-10, check=_POSITIVE))

_LEF_KEYS = (
    _P("N", int, required=True), _INTERVAL_OR_BALL, _P("R", float, 1.0, check=_POSITIVE),
    _P("lambda", float, 0.0), _P("mu", float, 0.0),
    _P("grad_p", float, 0.0, check=(lambda x: 0.0 <= x <= 2.0, "in [0, 2]")),
    _P("mode", str, "absorption", choices=_bif.LEF_MODES),
    _F("f"), _F("g"), _F("a"), _F("K"), _F("source"))


def _common(name, csv):
    # the command's name and the file names of its CSV (None when it picks
    # one by its outcome; False when it writes none, so it takes no csv key)
    # and of its JSON summary
    return (_P("command", str, required=True),
            *(() if csv is False else (Key("output", "csv", str, csv),)),
            Key("output", "json", str, f"{name.replace('-', '_')}_summary.json"))


# command -> (handler, every key it accepts)
_COMMANDS = {name: (handler, keys + _common(name, csv)) for name, (handler, csv, keys) in {
    "check-ko": (_cmd_check_ko, False, (_F("f", required=True),)),
    "classify": (_cmd_classify, False, (
        _P("direction", str, "tail", choices=("tail", "origin")),
        _P("a", float, 1.0, check=_NONNEGATIVE), _P("b", float, 1.0, check=_POSITIVE),
        _F("fn", required=True))),
    "analyze-f": (_cmd_analyze_f, False, (_F("f", required=True),)),
    "ell": (_cmd_ell, False, (_P("nu", float, 1.0, check=_POSITIVE), _F("k", required=True))),
    "make-k": (_cmd_make_k, False, (
        _P("kind", str, required=True, choices=_ka.K_KINDS),
        _P("D", float, 1.0, check=_POSITIVE), _F("S", required=True))),
    "profile": (_cmd_profile, "profile.csv", _PROFILE_KEYS),
    "xi0": (_cmd_xi0, False, (
        _P("rho", float, check=_POSITIVE), _P("ell1", float, check=_UNIT),
        _P("c", float, 1.0, check=_POSITIVE), _P("gamma", float), _P("kprime0", float),
        _F("f"))),
    "chi": (_cmd_chi, False, (
        _P("rho", float, required=True, check=_POSITIVE),
        _P("zeta", float, required=True, check=_POSITIVE),
        _P("theta", float, required=True, check=_POSITIVE), _P("ell_star", float, required=True),
        _P("c_tilde", float, 0.0), _P("ell_sup", float),
        _P("case", str, "purePower", choices=_ka.TWO_TERM_CASES))),
    "solve-entire": (_cmd_solve_entire, "entire.csv", (
        _P("N", int, required=True, check=_AT_LEAST_3), _P("R", float, 50.0, check=_POSITIVE),
        _P("b0", float, 1.0, check=_POSITIVE), _F("f", required=True),
        _F("psi", required=True), _F("phi"),
        _N("tol", float, 1e-8, check=_POSITIVE), _N("panels", int, 2048, check=_AT_LEAST_1))),
    "solve-system": (_cmd_solve_system, "system.csv", (
        _P("N", int, required=True, check=_AT_LEAST_3), _P("R", float, 50.0, check=_POSITIVE),
        _P("a", float, 1.0, check=_POSITIVE), _P("b", float, 1.0, check=_POSITIVE),
        _F("p", required=True), _F("q", required=True), _F("f", required=True),
        _F("g", required=True), _N("tol", float, 1e-10, check=_POSITIVE),
        _N("mesh_points", int, 4096, check=_AT_LEAST_1))),
    # R defaults to 10 in the whole space and to 1 otherwise
    "blowup": (_cmd_blowup, "blowup.csv", _PROFILE_KEYS + (
        _P("N", int, required=True, check=_AT_LEAST_1),
        _P("domain", str, "ball", choices=("ball", "annulus", "whole-space")),
        _P("R", float, check=_POSITIVE), _P("R0", float, 0.0), _P("a", float, 0.0),
        _P("omega0", float, 0.0, check=_NONNEGATIVE),
        _P("b_normalization", str, "k2", choices=tuple(_prof.VARIANT_NORMALIZATION.values())),
        _F("b", required=True),
        _N("levels", list, check=(lambda xs: all(x > 0.0 for x in xs), "positive numbers")))),
    "rate": (_cmd_rate, "rate.csv", _PROFILE_KEYS + (_P("solution", str, required=True),)),
    "eigen": (_cmd_eigen, "eigen.csv", (
        _P("N", int, required=True, check=_AT_LEAST_1), _P("R", float, 1.0, check=_POSITIVE),
        _P("mode", str, "ball", choices=_bif.EIGEN_MODES))),
    # lef.csv for a solution, lef_probes.csv for a no-solution probe table
    "lef": (_cmd_lef, None, _LEF_KEYS),
    "sweep": (_cmd_sweep, "sweep.csv", _LEF_KEYS + (_P("lambda_grid", list, required=True),)),
    "gelfand": (_cmd_gelfand, "gelfand.csv", (
        _P("lambda", float, required=True, check=_NONNEGATIVE),
        _P("mu", float, required=True, check=_NONNEGATIVE), _P("N", int, 1),
        _INTERVAL_OR_BALL, _P("solve", bool, False), _F("g", required=True))),
    "young": (_cmd_young, False, (
        _P("a", float, 0.0, check=_NONNEGATIVE),
        _P("p", float, required=True, check=(lambda x: 1.0 < x < 2.0, "in (1, 2)")),
        _P("lambda1", float, check=_POSITIVE), _P("N", int, 1), _INTERVAL_OR_BALL)),
}.items()}


def run(spec: ProblemSpec, outdir: str, verbose: bool = False) -> dict:
    """Check the whole config (ProblemSpec.validate), then dispatch the
    command; returns the summary, the command's name first, as printed and
    written to [output] json.  A function refused on its samples (SampleError)
    is a ConfigError at the [functions] key that parses to it, if any."""
    spec.validate()
    try:
        summary = {"command": spec.command, **_COMMANDS[spec.command][0](spec, outdir)}
    except _num.SampleError as exc:
        for key, (source, lineno) in spec.data.get("functions", {}).items():
            if parse_expression(source) == exc.fn.body:
                raise ConfigError(f"[functions] {key}: {exc}", lineno) from exc
        raise ConfigError(str(exc)) from exc
    print(" ".join(f"{k}={_summary_value(v)}" for k, v in summary.items()))
    atomic_write_text(os.path.join(outdir, spec.values["json"]),
                      json.dumps(_jsonable(summary), indent=2) + "\n")
    if verbose:
        print(f"artifacts in {os.path.abspath(outdir)}", file=sys.stderr)
    return summary


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call: parsing leaves it
    unchanged, so every later main call in the process reuses it."""
    parser = argparse.ArgumentParser(
        prog="sel-lab",
        description="Numerical laboratory for singular and blow-up radial elliptic problems",
    )
    parser.add_argument("--config", required=True, help="problem configuration file")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    opts = _parser().parse_args(argv)

    try:
        spec = parse_config(opts.config)  # raises no error but ConfigError
        run(spec, opts.out, opts.verbose)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (_num.NumericsError, ValueError, ArithmeticError) as exc:
        diag = {"command": spec.command, "error": str(exc),
                "error_type": type(exc).__name__}
        atomic_write_text(os.path.join(opts.out, "failure.json"),
                          json.dumps(diag, indent=2) + "\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
