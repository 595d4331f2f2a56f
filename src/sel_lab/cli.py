"""Batch harness: config parsing, dispatch, CSV/JSON artifacts.

Configs are line-oriented `key = value` files under [section] headers with
the sections [problem], [functions], [numerics], [output].  Expressions are
quoted strings in the shared grammar (single variable t; radial functions
read r as t).  Each command is declared once, in _COMMANDS, with the keys
it accepts.  Unknown and duplicate keys are errors, every number must be
finite, and every [functions] expression must be quoted and parse before
any computation starts; the output directory is created by the first
write, and output files are written atomically, so a malformed config
(exit code 2) leaves no artifacts.

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
from .expr import EvalDomainError, ParseError, ScalarFn, parse_expression
from .ioutil import atomic_write_text, write_csv

SECTIONS = ("problem", "functions", "numerics", "output")


class ConfigError(Exception):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def _keys(problem="", functions="", numerics=""):
    out = set()
    for section, names in (("problem", problem), ("functions", functions),
                           ("numerics", numerics)):
        out.update((section, name) for name in names.split())
    return out


_PROFILE_KEYS = _keys(problem="k_kind D k_alpha nu variant c",
                      functions="f S k", numerics="grid_depth tol")

_LEF_KEYS = _keys(problem="N geometry R lambda mu grad_p mode",
                  functions="f g a K source")

# keys every command accepts
_COMMON_KEYS = {("problem", "command"), ("output", "csv"), ("output", "json")}


@dataclass
class ProblemSpec:
    """Parsed configuration: raw (value, lineno) per section/key."""

    command: str
    path: str
    data: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None, required: bool = False,
            kind=None, choices=None):
        """The value of [section] key, or default when it is absent.  kind
        (float, int, list for a list of numbers, or bool for true/false)
        converts a present value; a value it does not fit, or one outside
        choices, is a ConfigError at the key's line."""
        entry = self.data.get(section, {}).get(key)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key '{key}' in [{section}] "
                                  f"for command {self.command}")
            return default
        value, lineno = entry
        if kind is not None and not (kind in (list, bool) and isinstance(value, kind)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and kind is not bool and (kind is not int or isinstance(value, int)
                                                     or value.is_integer())):
                expected = {int: "an integer", float: "a number", list: "a list of numbers",
                            bool: "true or false"}[kind]
                raise ConfigError(f"[{section}] {key} must be {expected}, not {value!r}",
                                  lineno)
            value = [float(value)] if kind is list else kind(value)
        if choices is not None and value not in choices:
            raise ConfigError(f"[{section}] {key} must be one of {', '.join(choices)}, "
                              f"not {value!r}", lineno)
        return value

    def check(self, section: str, key: str, value, ok: bool, must: str) -> None:
        """Unless ok, a ConfigError saying that [section] key must be `must`,
        at the key's line when the config sets it."""
        if not ok:
            entry = self.data.get(section, {}).get(key)
            raise ConfigError(f"[{section}] {key} must be {must}, not {value!r}",
                              entry[1] if entry else None)

    # the source text of a [functions] expression; validate() has parsed it
    expression = get

    def validate(self):
        """Reject unknown keys, unparsable expressions and a tol that is not
        positive up front, before any computation or output."""
        allowed = _COMMANDS[self.command][1] | _COMMON_KEYS
        for section, entries in self.data.items():
            for key, (value, lineno) in entries.items():
                if (section, key) not in allowed:
                    raise ConfigError(
                        f"unknown key '{key}' in [{section}] for command {self.command}",
                        lineno,
                    )
                if section != "functions":
                    continue
                try:
                    parse_expression(value)
                except ParseError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}", lineno) from exc
        tol = self.get("numerics", "tol", 1.0, kind=float)
        self.check("numerics", "tol", tol, tol > 0.0, "positive")
        for key in ("panels", "mesh_points"):
            size = self.get("numerics", key, 1, kind=int)
            self.check("numerics", key, size, size >= 1, "at least 1")


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

    spec = ProblemSpec(command="", path=path, data=data)
    command = spec.get("problem", "command", required=True)
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    spec.command = command
    return spec


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


def _emit(summary: dict, outdir: str, write_json: str | None):
    print(" ".join(f"{k}={_summary_value(v)}" for k, v in summary.items()))
    if write_json:
        path = os.path.join(outdir, write_json)
        atomic_write_text(path, json.dumps(_jsonable(summary), indent=2) + "\n")


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
    f_src = spec.expression("functions", "f", required=True)
    nl = _ka.analyze_nonlinearity(f_src)
    verdict = _ka.keller_osserman(nl)
    return {"command": "check-ko", "f": f_src, **_verdict_summary(verdict)}


def _cmd_classify(spec, outdir):
    fn_src = spec.expression("functions", "fn", required=True)
    direction = spec.get("problem", "direction", "tail", choices=("tail", "origin"))
    fn = ScalarFn.from_source(fn_src)
    if direction == "tail":
        a = spec.get("problem", "a", 1.0, kind=float)
        verdict = _num.classify_tail_integral(fn, a)
    else:
        b = spec.get("problem", "b", 1.0, kind=float)
        verdict = _num.classify_origin_integral(fn, b)
    return {"command": "classify", "direction": direction, "fn": fn_src,
            **_verdict_summary(verdict)}


def _cmd_analyze_f(spec, outdir):
    f_src = spec.expression("functions", "f", required=True)
    nl = _ka.analyze_nonlinearity(f_src)

    def show(x, unknown="unavailable"):
        return unknown if x is None else x

    return {
        "command": "analyze-f", "f": f_src,
        "m": show(nl.m), "Lambda": show(nl.Lambda), "theta": show(nl.theta),
        "gamma": show(nl.gamma), "rho": show(nl.rho),
        "identities_ok": show(nl.check_remark_identities(), "unknown"),
    }


def _cmd_ell(spec, outdir):
    k_src = spec.expression("functions", "k", required=True)
    nu = spec.get("problem", "nu", 1.0, kind=float)
    est = _ka.ell_limits(ScalarFn.from_source(k_src), nu)
    return {"command": "ell", "k": k_src, "ell0": est.ell0, "ell1": est.ell1,
            "ell0_err": est.ell0_err, "ell1_err": est.ell1_err}


def _cmd_make_k(spec, outdir):
    kind = spec.get("problem", "kind", required=True)
    S_src = spec.expression("functions", "S", required=True)
    D = spec.get("problem", "D", 1.0, kind=float)
    kf = _ka.make_k(kind, S_src, D)
    return {"command": "make-k", "kind": kind, "S": S_src, "nu": kf.nu,
            "ell1": kf.ell1, "predicted_ell1": kf.predicted_ell1,
            "ell1_err": kf.ell1_err}


def _weight_from_spec(spec):
    """Read the weight k; returns a function that builds its KFunction."""
    kind = spec.get("problem", "k_kind", None)
    if kind is not None:
        S_src = spec.expression("functions", "S", required=True)
        D = spec.get("problem", "D", 1.0, kind=float)
        return lambda: _ka.make_k(kind, S_src, D)
    alpha = spec.get("problem", "k_alpha", None, kind=float)
    nu = spec.get("problem", "nu", 1.0, kind=float)
    if alpha is not None:
        return lambda: _ka.KFunction.power(alpha, nu=nu)
    k_src = spec.expression("functions", "k", required=True)

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
    f_src = spec.expression("functions", "f", required=True)
    weight = _weight_from_spec(spec)
    variant = spec.get("problem", "variant", _prof.VARIANT_K,
                       choices=tuple(_prof.VARIANT_NORMALIZATION))
    c = spec.get("problem", "c", 1.0, kind=float)
    depth = spec.get("numerics", "grid_depth", 24, kind=int)
    tol = spec.get("numerics", "tol", 1e-10, kind=float)

    def build(nl=None):
        nl = nl if nl is not None else _ka.analyze_nonlinearity(f_src)
        kf = weight()
        t_grid = kf.nu * 2.0 ** (-np.arange(1, depth + 1, dtype=float))
        return _prof.build_profile(nl, kf, variant=variant, t_grid=t_grid, c=c, tol=tol)

    return build


def _cmd_profile(spec, outdir):
    profile = _profile_from_spec(spec)()
    csv = spec.get("output", "csv", "profile.csv")
    profile.export_csv(os.path.join(outdir, csv))
    return {"command": "profile", "f": spec.expression("functions", "f"),
            "variant": profile.variant,
            "xi0": profile.xi0 if profile.xi0 is not None else "unavailable",
            "roundtrip_err": profile.roundtrip_err, "csv": csv}


def _cmd_xi0(spec, outdir):
    rho = spec.get("problem", "rho", None, kind=float)
    if rho is not None:
        ell1 = spec.get("problem", "ell1", required=True, kind=float)
        c = spec.get("problem", "c", 1.0, kind=float)
        value = _ka.xi0_power(rho, ell1, c)
        return {"command": "xi0", "method": "power", "xi0": value}
    f_src = spec.expression("functions", "f", required=True)
    gamma = spec.get("problem", "gamma", required=True, kind=float)
    kprime0 = spec.get("problem", "kprime0", required=True, kind=float)
    c = spec.get("problem", "c", 1.0, kind=float)
    nl = _ka.analyze_nonlinearity(f_src)
    value = _ka.xi0_via_A(nl, gamma, kprime0, c)
    return {"command": "xi0", "method": "A", "f": f_src, "xi0": value}


def _cmd_chi(spec, outdir):
    two = _ka.TwoTermSpec(
        rho=spec.get("problem", "rho", required=True, kind=float),
        zeta=spec.get("problem", "zeta", required=True, kind=float),
        theta=spec.get("problem", "theta", required=True, kind=float),
        ell_star=spec.get("problem", "ell_star", required=True, kind=float),
        c_tilde=spec.get("problem", "c_tilde", 0.0, kind=float),
        ell_sup=spec.get("problem", "ell_sup", None, kind=float),
        case=spec.get("problem", "case", "purePower"),
    )
    varpi, chi = _ka.chi_two_term(two)
    return {"command": "chi", "case": two.case, "varpi": varpi, "chi": chi}


def _cmd_solve_entire(spec, outdir):
    f_src = spec.expression("functions", "f", required=True)
    psi_src = spec.expression("functions", "psi", required=True)
    phi_src = spec.expression("functions", "phi", None)
    N = spec.get("problem", "N", required=True, kind=int)
    spec.check("problem", "N", N, N >= 3, "at least 3")
    R = spec.get("problem", "R", 50.0, kind=float)
    b0 = spec.get("problem", "b0", 1.0, kind=float)
    tol = spec.get("numerics", "tol", 1e-8, kind=float)
    panels = spec.get("numerics", "panels", 2048, kind=int)
    nl = _ka.analyze_nonlinearity(f_src)
    lam = nl.Lambda if nl.Lambda is not None else math.inf
    if phi_src is not None:
        try:
            pot = _rad.RadialPotential(phi=ScalarFn.from_source(phi_src),
                                       psi=ScalarFn.from_source(psi_src),
                                       lam_N=lam / (N - 2.0) if math.isfinite(lam) else 1.0)
        except EvalDomainError:
            raise  # an envelope undefined where it is sampled is a numerical failure
        except ValueError as exc:  # envelopes out of order: the config asks the impossible
            raise ConfigError(f"[functions] phi: {exc}", spec.data["functions"]["phi"][1]) from exc
        sol = _rad.picard_gradient_entire(pot, nl, b0, R, N, tol, panels)
    else:
        sol = _rad.picard_gradient_entire(ScalarFn.from_source(psi_src), nl, b0, R, N,
                                          tol, panels)
    csv = spec.get("output", "csv", "entire.csv")
    sol.to_csv(os.path.join(outdir, csv))
    out = {"command": "solve-entire", "classification": sol.classification,
           "iterations": sol.metadata["iterations"],
           "growth_bound_ok": sol.metadata["growth_bound_ok"],
           "mesh_points": sol.metadata["mesh_points"], "mesh_drift": sol.metadata["mesh_drift"],
           "mesh_error": sol.metadata["mesh_error"], "u_end": float(sol.u[-1]), "csv": csv}
    for key in ("large_condition", "large_condition_error", "b_star", "ordering_ok",
                "ordering_error", "plateau_drift"):
        if key in sol.metadata:
            out[key] = sol.metadata[key]
    return out


def _cmd_solve_system(spec, outdir):
    N = spec.get("problem", "N", required=True, kind=int)
    spec.check("problem", "N", N, N >= 3, "at least 3")
    sys_ = _rad.SystemProblem(
        p=_rad.RadialPotential(phi=ScalarFn.from_source(spec.expression("functions", "p", required=True))),
        q=_rad.RadialPotential(phi=ScalarFn.from_source(spec.expression("functions", "q", required=True))),
        f=_ka.analyze_nonlinearity(spec.expression("functions", "f", required=True)),
        g=_ka.analyze_nonlinearity(spec.expression("functions", "g", required=True)),
        a=spec.get("problem", "a", 1.0, kind=float),
        b=spec.get("problem", "b", 1.0, kind=float),
    )
    R = spec.get("problem", "R", 50.0, kind=float)
    tol = spec.get("numerics", "tol", 1e-10, kind=float)
    mesh = spec.get("numerics", "mesh_points", 4096, kind=int)
    sol = _rad.solve_system(sys_, R, N, tol, mesh)
    csv = spec.get("output", "csv", "system.csv")
    sol.to_csv(os.path.join(outdir, csv))
    return {"command": "solve-system", "classification": sol.classification,
            "iterations": sol.metadata["iterations"],
            "tp_verdict": sol.metadata["tp_verdict"],
            "tq_verdict": sol.metadata["tq_verdict"],
            "lower_bound_ok": sol.metadata["lower_bound_ok"],
            "mesh_points": sol.metadata["mesh_points"], "mesh_drift": sol.metadata["mesh_drift"],
            "mesh_error": sol.metadata["mesh_error"],
            "u_end": float(sol.u[-1]), "v_end": float(sol.v[-1]), "csv": csv}


def _logistic_from_spec(spec) -> _rad.LogisticProblem:
    N = spec.get("problem", "N", required=True, kind=int)
    domain_kind = spec.get("problem", "domain", "ball",
                           choices=("ball", "annulus", "whole-space"))
    if domain_kind == "ball":
        domain = ("ball", spec.get("problem", "R", 1.0, kind=float))
    elif domain_kind == "annulus":
        domain = ("annulus", spec.get("problem", "R0", 0.0, kind=float),
                  spec.get("problem", "R", 1.0, kind=float))
    else:
        domain = ("whole-space", spec.get("problem", "R", 10.0, kind=float))
    return _rad.LogisticProblem(
        N=N,
        f=_ka.analyze_nonlinearity(spec.expression("functions", "f", required=True)),
        b=ScalarFn.from_source(spec.expression("functions", "b", required=True)),
        a_lin=spec.get("problem", "a", 0.0, kind=float),
        domain=domain,
        omega0_radius=spec.get("problem", "omega0", 0.0, kind=float),
        b_normalization=spec.get("problem", "b_normalization", "k2",
                                 choices=tuple(_prof.VARIANT_NORMALIZATION.values())),
    )


def _cmd_blowup(spec, outdir):
    # the rate is measured when a weight k is given in any of its three
    # forms; its config is read before anything is computed or written
    make_profile = None
    if any(spec.get(section, key) is not None
           for section, key in (("problem", "k_kind"), ("problem", "k_alpha"),
                                ("functions", "k"))):
        make_profile = _profile_from_spec(spec)
    prob = _logistic_from_spec(spec)
    levels = spec.get("numerics", "levels", None, kind=list)
    sol = _rad.boundary_blowup(prob, n_levels=levels)
    csv = spec.get("output", "csv", "blowup.csv")
    sol.to_csv(os.path.join(outdir, csv))
    out = {"command": "blowup", "classification": sol.classification,
           "blowup_radius": sol.blowup_radius if sol.blowup_radius is not None else "none",
           "levels": len(sol.metadata.get("n_levels", [])),
           **{key: sol.metadata[key] for key in ("level_shots", "level_search_exponent",
                                                 "level_parameter_gap")
              if key in sol.metadata},
           "csv": csv}
    if make_profile is not None:
        rate = _rad.measure_boundary_rate(sol, make_profile(prob.f))
        out.update(rate_ratio=f"{rate.limit:.2f}x", rate_limit=rate.limit, rate_drift=rate.drift)
    return out


def _cmd_rate(spec, outdir):
    sol_path = spec.get("problem", "solution", required=True)
    sol = _read_solution_csv(os.path.join(outdir, sol_path)
                             if not os.path.isabs(sol_path) else sol_path)
    rate = _rad.measure_boundary_rate(sol, _profile_from_spec(spec)())
    csv = spec.get("output", "csv", "rate.csv")
    write_csv(os.path.join(outdir, csv), "d,ratio_h,ratio_xi0h",
              (rate.d, rate.ratio_h, rate.ratio_xi0h))
    return {"command": "rate", "limit": rate.limit, "drift": rate.drift, "csv": csv}


def _read_solution_csv(path) -> _num.RadialSolution:
    """A solution CSV with its `# key=value` comment lines as metadata."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    meta = {k.strip(): v.strip() for k, _, v in (line[1:].partition("=") for line in lines
                                                  if line.startswith("#") and "=" in line)}
    table = [line.split(",") for line in lines if not line.startswith("#")]
    if len(table) < 2:
        raise ConfigError(f"solution file {path!r} is empty")
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
    N = spec.get("problem", "N", required=True, kind=int)
    R = spec.get("problem", "R", 1.0, kind=float)
    mode = spec.get("problem", "mode", "ball", choices=_bif.EIGEN_MODES)
    spec.check("problem", "N", N, N >= 1, "at least 1")
    if mode == "interval":
        spec.check("problem", "N", N, N == 1, "1 in interval mode")
    spec.check("problem", "R", R, R > 0.0, "positive")
    eig = _bif.lambda1_ball(N, R, mode=mode)
    csv = spec.get("output", "csv", "eigen.csv")
    eig.to_csv(os.path.join(outdir, csv))
    return {"command": "eigen", "N": N, "R": R, "mode": mode,
            "lambda1": eig.lambda1, "phi_at_R": eig.phi_at_R, "shots": eig.shots,
            "steps_accepted": eig.steps_accepted, "steps_rejected": eig.steps_rejected,
            "csv": csv}


def _lef_from_spec(spec) -> _bif.LEFProblem:
    f_src = spec.expression("functions", "f", None)
    g_src = spec.expression("functions", "g", None)
    a_src = spec.expression("functions", "a", None)
    K_src = spec.expression("functions", "K", None)
    src_src = spec.expression("functions", "source", None)
    N = spec.get("problem", "N", required=True, kind=int)
    geometry = spec.get("problem", "geometry", "interval", choices=_bif.LEF_GEOMETRIES)
    spec.check("problem", "N", N, geometry == "ball" or N == 1, "1 on the interval geometry")
    grad_p = spec.get("problem", "grad_p", 0.0, kind=float)
    spec.check("problem", "grad_p", grad_p, 0.0 <= grad_p <= 2.0, "in [0, 2]")
    return _bif.LEFProblem(
        N=N,
        geometry=geometry,
        R=spec.get("problem", "R", 1.0, kind=float),
        lam=spec.get("problem", "lambda", 0.0, kind=float),
        mu=spec.get("problem", "mu", 0.0, kind=float),
        f=_ka.analyze_nonlinearity(f_src) if f_src else None,
        g=_ka.analyze_singular_term(g_src) if g_src else None,
        a_pot=ScalarFn.from_source(a_src) if a_src else None,
        K_pot=ScalarFn.from_source(K_src) if K_src else None,
        source=ScalarFn.from_source(src_src) if src_src else None,
        grad_p=grad_p,
        mode=spec.get("problem", "mode", "absorption", choices=_bif.LEF_MODES),
    )


def _cmd_lef(spec, outdir):
    prob = _lef_from_spec(spec)
    sol = _bif.solve_lef(prob)
    out = {"command": "lef", "classification": sol.classification}
    if sol.classification == _num.NO_SOLUTION:
        csv = spec.get("output", "csv", "lef_probes.csv")
        write_csv(os.path.join(outdir, csv), "s,zero_location",
                  zip(*sol.metadata["probe_table"]))
        out.update((key, sol.metadata[key])
                   for key in ("sup_zero_location", "fold_parameter", "lambda_star",
                               "failed_probes") if key in sol.metadata)
    else:
        csv = spec.get("output", "csv", "lef.csv")
        sol.to_csv(os.path.join(outdir, csv))
        out.update({"sup_norm": sol.metadata["sup_norm"],
                    "center_value": sol.metadata["center_value"],
                    "c1": sol.metadata["c1"], "c2": sol.metadata["c2"]})
    out["csv"] = csv
    out.update((key, sol.metadata[key])
               for key in ("shots", "steps_accepted", "steps_rejected", "rhs_calls"))
    return out


def _cmd_sweep(spec, outdir):
    prob = _lef_from_spec(spec)
    grid = spec.get("problem", "lambda_grid", required=True, kind=list)
    diagram = _bif.sweep(prob, grid)
    csv = spec.get("output", "csv", "sweep.csv")
    diagram.to_csv(os.path.join(outdir, csv))
    out = {"command": "sweep", "points": len(grid),
           "solved": sum(1 for s in diagram.status if s == "solved"),
           "monotone_centers": diagram.monotone_centers, "csv": csv}
    if diagram.lam_star_bracket:
        out["lambda_star_bracket"] = list(diagram.lam_star_bracket)
    if diagram.lam_star_theoretical is not None:
        out["lambda_star_theoretical"] = diagram.lam_star_theoretical
    return out


def _cmd_gelfand(spec, outdir):
    lam = spec.get("problem", "lambda", required=True, kind=float)
    mu = spec.get("problem", "mu", required=True, kind=float)
    g_src = spec.expression("functions", "g", required=True)
    N = spec.get("problem", "N", 1, kind=int)
    geometry = spec.get("problem", "geometry", "interval", choices=_bif.LEF_GEOMETRIES)
    solve = spec.get("problem", "solve", False, kind=bool)
    if solve:
        spec.check("problem", "N", N, geometry == "ball" or N == 1,
                   "1 on the interval geometry")
    g_nl = _ka.analyze_singular_term(g_src)
    a_lim = g_nl.value_at_inf
    if a_lim is None:
        raise ValueError(g_nl.notes[-1])
    lam1 = _bif.lambda1_domain(N, geometry)
    solvable = _bif.gelfand_solvable(lam, mu, a_lim, lam1)
    out = {"command": "gelfand", "lambda": lam, "mu": mu, "a": a_lim,
           "lambda1": lam1, "solvable": solvable}
    if solve and lam > 0.0:
        phi = _ka.analyze_nonlinearity(_bif.gelfand_reduced_source(g_src, lam, mu))
        reduced = _bif.LEFProblem(N=N, geometry=geometry, lam=1.0, f=phi,
                                  a_pot=ScalarFn.from_source("0"), mode="absorption")
        sol = _bif.solve_lef(reduced)
        out["solved"] = sol.classification != _num.NO_SOLUTION
        out["agrees"] = out["solved"] == solvable
        if out["solved"]:
            back = _bif.gelfand_transform(sol, lam, "back")
            csv = spec.get("output", "csv", "gelfand.csv")
            back.to_csv(os.path.join(outdir, csv))
            out["csv"] = csv
    return out


def _cmd_young(spec, outdir):
    a_lim = spec.get("problem", "a", 0.0, kind=float)
    p = spec.get("problem", "p", required=True, kind=float)
    lam1 = spec.get("problem", "lambda1", None, kind=float)
    if lam1 is None:
        N = spec.get("problem", "N", 1, kind=int)
        geometry = spec.get("problem", "geometry", "interval", choices=_bif.LEF_GEOMETRIES)
        lam1 = _bif.lambda1_domain(N, geometry)
    C = _bif.young_constant(a_lim, p, lam1)
    return {"command": "young", "a": a_lim, "p": p, "lambda1": lam1, "C": C}


# command -> (handler, the [section] keys it accepts besides _COMMON_KEYS)
_COMMANDS = {
    "check-ko": (_cmd_check_ko, _keys(functions="f")),
    "classify": (_cmd_classify, _keys(problem="direction a b", functions="fn")),
    "analyze-f": (_cmd_analyze_f, _keys(functions="f")),
    "ell": (_cmd_ell, _keys(problem="nu", functions="k")),
    "make-k": (_cmd_make_k, _keys(problem="kind D", functions="S")),
    "profile": (_cmd_profile, _PROFILE_KEYS),
    "xi0": (_cmd_xi0, _keys(problem="rho ell1 c gamma kprime0", functions="f")),
    "chi": (_cmd_chi, _keys(problem="rho zeta theta ell_star c_tilde ell_sup case")),
    "solve-entire": (_cmd_solve_entire, _keys(problem="N R b0", functions="f psi phi",
                                              numerics="tol panels")),
    "solve-system": (_cmd_solve_system, _keys(problem="N R a b", functions="p q f g",
                                              numerics="tol mesh_points")),
    "blowup": (_cmd_blowup, _PROFILE_KEYS | _keys(
        problem="N domain R R0 a omega0 b_normalization", functions="b", numerics="levels")),
    "rate": (_cmd_rate, _PROFILE_KEYS | _keys(problem="solution")),
    "eigen": (_cmd_eigen, _keys(problem="N R mode")),
    "lef": (_cmd_lef, _LEF_KEYS),
    "sweep": (_cmd_sweep, _LEF_KEYS | _keys(problem="lambda_grid")),
    "gelfand": (_cmd_gelfand, _keys(problem="lambda mu N geometry solve", functions="g")),
    "young": (_cmd_young, _keys(problem="a p lambda1 N geometry")),
}


def run(spec: ProblemSpec, outdir: str, verbose: bool = False) -> dict:
    """Validate the config, then dispatch the command; returns the summary
    dict (also printed)."""
    spec.validate()
    summary = _COMMANDS[spec.command][0](spec, outdir)
    json_name = spec.get("output", "json", f"{spec.command.replace('-', '_')}_summary.json")
    _emit(summary, outdir, json_name)
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
        spec = parse_config(opts.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
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
