import json
import math
import os
import re

import numpy as np
import pytest

from sel_lab import karamata, numerics
from sel_lab.cli import _COMMANDS, ConfigError, _summary_value, main, parse_config
from sel_lab.karamata import TailMap


def write_cfg(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, text, out="out"):
    cfg = write_cfg(tmp_path, text)
    outdir = str(tmp_path / out)
    code = main(["--config", cfg, "--out", outdir])
    return code, outdir


def headline_blowup(problem_weight="k_alpha = 1.0", functions_weight=""):
    """The README headline blow-up config with the weight k swapped."""
    return f"""
[problem]
command = blowup
N = 1
domain = annulus
R0 = 0.0
R = 1.0
b_normalization = k2
{problem_weight}
nu = 1.0
c = 1.0

[functions]
f = "t^3"
b = "t^2"
{functions_weight}

[numerics]
tol = 1e-10
grid_depth = 14

[output]
csv = solution.csv
json = summary.json
"""


class TestConfigParsing:
    def test_minimal_ko_config(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = check-ko

[functions]
f = "t^2"
""")
        spec = parse_config(cfg)
        assert spec.command == "check-ko"
        spec.validate()
        assert spec.values["f"] == "t^2"

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = eigen
R = 1.0
""")
        spec = parse_config(cfg)
        with pytest.raises(ConfigError, match="missing required key 'N'"):
            spec.validate()

    def test_duplicate_key(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = check-ko
N = 1
N = 2
""")
        with pytest.raises(ConfigError, match="duplicate key 'N'"):
            parse_config(cfg)

    def test_unknown_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[wat]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config(cfg)

    def test_unknown_command(self, tmp_path):
        cfg = write_cfg(tmp_path, "[problem]\ncommand = frobnicate\n")
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(cfg)

    def test_list_values(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = sweep
N = 1
lambda_grid = 1.0, 2.0, 3.5
""")
        spec = parse_config(cfg)
        spec.validate()
        assert spec.values["lambda_grid"] == [1.0, 2.0, 3.5]

    def test_typed_values(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = blowup
N = 3
R = 2

[functions]
f = "t^3"
b = "1"

[numerics]
levels = 10
""")
        spec = parse_config(cfg)
        spec.validate()
        values = spec.values
        assert values["N"] == 3 and isinstance(values["N"], int)
        assert values["R"] == 2.0 and isinstance(values["R"], float)
        # an absent key reads its default
        assert values["a"] == 0.0 and values["domain"] == "ball"
        # one number is a one-element list, as for lambda_grid
        assert values["levels"] == [10.0]

    def test_error_carries_line_number(self, tmp_path):
        cfg = write_cfg(tmp_path, "[problem]\ncommand = check-ko\nnot a kv line\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert err.value.lineno == 3


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = check-ko

[functions]
f = "t^2"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=convergent" in out
        assert os.path.exists(os.path.join(outdir, "check_ko_summary.json"))

    def test_unknown_key_is_config_error_without_partial_output(self, tmp_path):
        code, outdir = run_cli(tmp_path, """
[problem]
command = eigen
N = 3
R = 1.0
nonsense = 1
""")
        assert code == 2
        assert not os.path.exists(outdir) or not os.listdir(outdir)

    def test_bad_expression_fails_fast(self, tmp_path):
        code, outdir = run_cli(tmp_path, """
[problem]
command = check-ko

[functions]
f = "ln("
""")
        assert code == 2
        assert not os.path.exists(outdir) or not os.listdir(outdir)

    @pytest.mark.parametrize("weight", ['k = "t^"', "k = 2"])
    def test_malformed_weight_expression_leaves_no_artifact(self, tmp_path, weight):
        code, outdir = run_cli(tmp_path, headline_blowup("", weight))
        assert code == 2
        assert not os.path.exists(outdir)

    def test_missing_weight_source_writes_no_solution(self, tmp_path):
        code, outdir = run_cli(tmp_path, headline_blowup("k_kind = invS\nD = 1.0"))
        assert code == 2
        assert not os.path.exists(os.path.join(outdir, "solution.csv"))

    def test_missing_required_key_leaves_no_directory(self, tmp_path):
        code, outdir = run_cli(tmp_path, headline_blowup("k_kind = invS\nD = 1.0"))
        assert code == 2
        assert not os.path.exists(outdir)

    def test_unquoted_expression_is_config_error(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = check-ko

[functions]
f = t^3
""")
        assert code == 2
        assert "line 6: [functions] f must be a quoted expression" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("line, message", [
        ("N = three", "line 3: [problem] N must be an integer, not 'three'"),
        ("N = 3.5", "line 3: [problem] N must be an integer, not 3.5"),
        ("N = true", "line 3: [problem] N must be an integer, not True"),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, line, message):
        code, outdir = run_cli(tmp_path, f"[problem]\ncommand = eigen\n{line}\n")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_malformed_list_is_config_error(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = sweep
N = 1
lambda_grid = many

[functions]
f = "exp(t)"
""")
        assert code == 2
        assert "line 5: [problem] lambda_grid must be a list of numbers" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("value", ["no", "1", '"true"'])
    def test_boolean_key_takes_only_true_or_false(self, tmp_path, capsys, value):
        # a bare word is not a boolean: `solve = no` must not run the reduced solve
        code, outdir = run_cli(tmp_path, f"""
[problem]
command = gelfand
lambda = 1
mu = 0.5
solve = {value}

[functions]
g = "t^(-0.5)"
""")
        assert code == 2
        assert "line 6: [problem] solve must be true or false" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("direction, line", [
        ("tail", "a = inf"), ("tail", "a = nan"), ("tail", "a = -Infinity"),
        ("origin", "b = 1, nan")])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, direction, line):
        # a = inf read as the zero function, a = nan as inconclusive
        code, outdir = run_cli(tmp_path, f"""[problem]
command = classify
direction = {direction}
{line}

[functions]
fn = "t^(-2)"
""")
        assert code == 2
        key = line.split(" =")[0]
        assert f"line 4: [problem] {key} must be finite" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("tol", ["-1", "0", "0.0"])
    def test_non_positive_tol_is_config_error(self, tmp_path, capsys, tol):
        # tol = -1 reached scipy's quad, which refused it: exit 3
        code, outdir = run_cli(tmp_path, f"""[problem]
command = profile
k_alpha = 1

[functions]
f = "t^3"

[numerics]
tol = {tol}
""")
        assert code == 2
        assert "line 9: [numerics] tol must be positive" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("command, functions, key", [
        ("solve-entire", 'f = "t^0.5"\npsi = "1"', "panels"),
        ("solve-system", 'p = "1"\nq = "1"\nf = "t^0.5"\ng = "t^0.5"', "mesh_points")])
    @pytest.mark.parametrize("size", [0, -3])
    def test_mesh_below_one_panel_is_config_error(self, tmp_path, capsys, command, functions,
                                                  key, size):
        # panels = 0 divided 0 by 0 in the graded mesh and exited 0 with
        # classification=undetermined mesh_points=0
        code, outdir = run_cli(tmp_path, f"""[problem]
command = {command}
N = 3

[functions]
{functions}

[numerics]
{key} = {size}
""")
        assert code == 2
        assert f"[numerics] {key} must be at least 1, not {size}" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("command, functions", [("check-ko", 'f = "t^3"'),
                                                    ("classify", 'fn = "t^(-2)"')])
    def test_classifiers_take_no_tol(self, tmp_path, capsys, command, functions):
        code, _ = run_cli(tmp_path, f"""[problem]
command = {command}

[functions]
{functions}

[numerics]
tol = 1e-8
""")
        assert code == 2
        assert f"unknown key 'tol' in [numerics] for command {command}" in capsys.readouterr().err

    def test_analyze_f_takes_no_u_max(self, tmp_path, capsys):
        # m and Lambda come from one fit of ln f, with no sampling range to set
        code, _ = run_cli(tmp_path, """[problem]
command = analyze-f

[functions]
f = "t"

[numerics]
u_max = 1e8
""")
        assert code == 2
        assert "unknown key 'u_max' in [numerics] for command analyze-f" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ("command = eigen\nN = 3\nmode = annulus",
         "line 4: [problem] mode must be one of ball, interval, not 'annulus'"),
        ("command = eigen\nN = 3\nmode = interval",
         "line 3: [problem] N must be 1 in interval mode, not 3"),
        ("command = eigen\nN = 0", "line 3: [problem] N must be at least 1, not 0"),
        ("command = eigen\nN = 2\nR = 0", "line 4: [problem] R must be positive, not 0.0"),
        ("command = eigen\nN = 2\nR = -1.5", "line 4: [problem] R must be positive, not -1.5"),
        ("command = lef\nN = 1\ngeometry = disk",
         "line 4: [problem] geometry must be one of interval, ball, not 'disk'"),
        ("command = lef\nN = 1\nmode = diffusion",
         "line 4: [problem] mode must be one of absorption, two-param, convection, "
         "convection-absorb, not 'diffusion'"),
        ("command = lef\nN = 3", "line 3: [problem] N must be 1 on the interval geometry"),
        ("command = lef\nN = 1\ngrad_p = 2.5", "line 4: [problem] grad_p must be in [0, 2]"),
        ("command = sweep\nN = 1\nlambda_grid = 1, 2\ngeometry = shell",
         "line 5: [problem] geometry must be one of interval, ball, not 'shell'"),
        ("command = sweep\nN = 1\nlambda_grid = 1, 2\nmode = 3",
         "line 5: [problem] mode must be one of absorption"),
        ('command = solve-entire\nN = 2\n[functions]\nf = "t^0.5"\npsi = "1"',
         "line 3: [problem] N must be at least 3, not 2"),
        ('command = solve-system\nN = 1\n[functions]\np = "1"\nq = "1"\nf = "t^0.5"\n'
         'g = "t^0.5"', "line 3: [problem] N must be at least 3, not 1"),
        ('command = classify\ndirection = sideways\n[functions]\nfn = "t^(-2)"',
         "line 3: [problem] direction must be one of tail, origin, not 'sideways'"),
        ('command = blowup\nN = 1\ndomain = torus\n[functions]\nf = "t^3"\nb = "1"',
         "line 4: [problem] domain must be one of ball, annulus, whole-space, not 'torus'"),
        ('command = blowup\nN = 1\nb_normalization = k3\n[functions]\nf = "t^3"\nb = "1"',
         "line 4: [problem] b_normalization must be one of k2, k, not 'k3'"),
        ('command = profile\nk_alpha = 1\nvariant = k\n[functions]\nf = "t^3"',
         "line 4: [problem] variant must be one of k-integrand, sqrt-k-integrand, not 'k'"),
        ('command = gelfand\nlambda = 0.5\nmu = 1\ngeometry = annulus\n[functions]\n'
         'g = "exp(-t)"', "line 5: [problem] geometry must be one of interval, ball"),
        ('command = gelfand\nlambda = 0.5\nmu = 1\nN = 3\nsolve = true\n[functions]\n'
         'g = "exp(-t)"', "line 5: [problem] N must be 1 on the interval geometry, not 3"),
        ("command = young\np = 1.5\nN = 3\ngeometry = annulus",
         "line 5: [problem] geometry must be one of interval, ball, not 'annulus'"),
        ('command = solve-system\nN = 3\na = -1\n[functions]\np = "1"\nq = "1"\n'
         'f = "t^0.5"\ng = "t^0.5"', "line 4: [problem] a must be positive, not -1.0"),
        ('command = solve-system\nN = 3\nb = 0\n[functions]\np = "1"\nq = "1"\n'
         'f = "t^0.5"\ng = "t^0.5"', "line 4: [problem] b must be positive, not 0.0"),
        ('command = blowup\nN = 1\ndomain = annulus\nR0 = 1\nR = 1\n[functions]\nf = "t^3"\n'
         'b = "1"', "line 5: [problem] R0 must be in [0, R), not 1.0"),
        ('command = blowup\nN = 0\n[functions]\nf = "t^3"\nb = "1"',
         "line 3: [problem] N must be at least 1, not 0"),
        # a function that fails its hypotheses at a sample is named with the
        # point and its values there
        ('command = check-ko\n[functions]\nf = "1-t"',
         "line 4: [functions] f: f must be nonnegative (t = 1.165914401179831: "
         "f = -0.16591440117983103)"),
        ('command = check-ko\n[functions]\nf = "1/(1+t)"',
         "line 4: [functions] f: f must be nondecreasing on the sampled range "
         "(t = 1.308177474260193e-06: f = 0.999998691824237, "
         "f_before = 0.9999990000010001)"),
        ('command = lef\nN = 1\nlambda = 1\n[functions]\nf = "t"\ng = "-t^(-0.5)"\na = "1"',
         "line 7: [functions] g: singular term must be nonnegative (t = 1e-08: g = -10000.0)"),
        ('command = lef\nN = 1\nlambda = 1\nmu = 1\nmode = two-param\n[functions]\nf = "t"\n'
         'g = "t^(-0.5)"\nK = "1"\nsource = "t-0.5"',
         "line 11: [functions] source: the source term must be positive on the domain "
         "(x = 0.0: source = -0.5)"),
        ('command = sweep\nN = 1\nlambda_grid = 1, 2\nmu = 1\nmode = two-param\n[functions]\n'
         'f = "t"\ng = "t^(-0.5)"\nK = "1"\nsource = "t-0.5"',
         "line 11: [functions] source: the source term must be positive on the domain "
         "(x = 0.0: source = -0.5)"),
        ('command = classify\n[functions]\nfn = "-t^(-2)"',
         "line 4: [functions] fn: the sampled function is negative (t = 1.0: fn = -1.0)"),
        # the origin classifier samples fn through its t -> 1/s image
        ('command = classify\ndirection = origin\n[functions]\nfn = "-t^(-0.5)"',
         "line 5: [functions] fn: the sampled function is negative (t = 1.0: fn = -1.0)"),
        # make-k reads the RV index of S' off its samples
        ('command = make-k\nkind = invS\nD = 2\n[functions]\nS = "t^(-1/2)"',
         "line 6: [functions] S: its derivative S': the sampled function is negative "
         "(t = 1.0: fn = -0.5)"),
        ('command = make-k\nkind = invLnS\nD = 0.5\n[functions]\nS = "t"',
         "line 6: [functions] S: constructed k is not positive increasing on (0, nu) "
         "(t = 1.0443656392604836: k = -23.036348630903902, dk = 508.12985251058086)"),
        # the weight is built after the blow-up solve, before any file is written
        ('command = blowup\nN = 3\nk_kind = invLnS\nD = 0.5\n[functions]\nf = "t^3"\n'
         'b = "(1-t)^2"\nS = "t"',
         "line 9: [functions] S: constructed k is not positive increasing on (0, nu)"),
        # t p is negative past R, where its tail verdict samples it: no key
        # parses to t p, so the message is given alone
        ('command = solve-system\nN = 3\nR = 50\n[functions]\np = "(1+t^2)^(-2)*(1-t/100)"\n'
         'q = "(1+t^2)^(-2)"\nf = "t^0.5"\ng = "t^0.5"\n[numerics]\nmesh_points = 256',
         "config error: the sampled function is negative (t = 128.0: fn = "),
        # a file name given as a number or a boolean, and a solution file that
        # cannot be read or has no r and u columns, exited 1 with a traceback
        ("command = eigen\nN = 3\n[output]\ncsv = 5",
         "line 5: [output] csv must be a file name, not 5"),
        ("command = eigen\nN = 3\n[output]\njson = true",
         "line 5: [output] json must be a file name, not True"),
        ('command = rate\nsolution = 3\nk_alpha = 1\n[functions]\nf = "t^3"',
         "line 3: [problem] solution must be a file name, not 3"),
        ('command = rate\nsolution = missing.csv\nk_alpha = 1\n[functions]\nf = "t^3"',
         "line 3: [problem] solution: [Errno 2] No such file or directory"),
        # the config file itself has no r and u columns
        ('command = rate\nsolution = $TMP/problem.cfg\nk_alpha = 1\n[functions]\nf = "t^3"',
         "problem.cfg' has no r and u columns"),
        # a word outside its set exited 3 as a numerical failure
        ('command = make-k\nkind = 3\n[functions]\nS = "t^2"',
         "line 3: [problem] kind must be one of expA, invS, invLnS, not 3"),
        ('command = profile\nk_kind = bogus\n[functions]\nf = "t^3"\nS = "t^2"',
         "line 3: [problem] k_kind must be one of expA, invS, invLnS, not 'bogus'"),
        ("command = chi\nrho = 2\nzeta = 3\ntheta = 1\nell_star = -1\ncase = bogus",
         "line 7: [problem] case must be one of purePower, etaNonzero, etaZeroTau, not 'bogus'"),
        # a profile grid of fewer than two points, and an LEF domain of
        # radius 0, exited 1 with a traceback
        ('command = profile\nk_alpha = 1\n[functions]\nf = "t^3"\n[numerics]\ngrid_depth = 1',
         "line 7: [numerics] grid_depth must be at least 2, not 1"),
        ('command = lef\nN = 1\nR = 0\nlambda = 1\n[functions]\nf = "t"',
         "line 4: [problem] R must be positive, not 0.0"),
        # a key that the tail branch does not read is checked all the same
        ('command = classify\ndirection = tail\nb = foo\n[functions]\nfn = "t^(-2)"',
         "line 4: [problem] b must be a number, not 'foo'"),
        # the eight commands that write no CSV accepted [output] csv and
        # ignored it
        *((f'command = {command}\n[output]\ncsv = never.csv',
           f"line 4: unknown key 'csv' in [output] for command {command}")
          for command in ("check-ko", "classify", "analyze-f", "ell", "make-k", "xi0", "chi",
                          "young")),
        # a value out of its range reached the library: exit 3, no key named
        ('command = make-k\nkind = invS\nD = -1\n[functions]\nS = "t^2"',
         "line 4: [problem] D must be positive, not -1.0"),
        ('command = ell\nnu = -1\n[functions]\nk = "t"',
         "line 3: [problem] nu must be positive, not -1.0"),
        ('command = profile\nk_alpha = 1\nnu = -1\n[functions]\nf = "t^3"',
         "line 4: [problem] nu must be positive, not -1.0"),
        ('command = profile\nk_alpha = 1\nc = -1\n[functions]\nf = "t^3"',
         "line 4: [problem] c must be positive, not -1.0"),
        ('command = rate\nsolution = missing.csv\nk_alpha = 1\nc = -1\n[functions]\nf = "t^3"',
         "line 5: [problem] c must be positive, not -1.0"),
        ("command = young\np = 0.5", "line 3: [problem] p must be in (1, 2), not 0.5"),
        ('command = classify\na = -1\n[functions]\nfn = "t^(-2)"',
         "line 3: [problem] a must be nonnegative, not -1.0"),
        ('command = blowup\nN = 1\nR = -1\n[functions]\nf = "t^3"\nb = "1"',
         "line 4: [problem] R must be positive, not -1.0"),
        ('command = blowup\nN = 1\n[functions]\nf = "t^3"\nb = "1"\n[numerics]\nlevels = -5',
         "line 8: [numerics] levels must be positive numbers, not [-5.0]"),
        ('command = blowup\nN = 1\nk_alpha = 1\nnu = -1\n[functions]\nf = "t^3"\nb = "1"',
         "line 5: [problem] nu must be positive, not -1.0"),
        # a negative vanishing-core radius ran as if no core were set
        ('command = blowup\nN = 1\nomega0 = -1\n[functions]\nf = "t^3"\nb = "1"',
         "line 4: [problem] omega0 must be nonnegative, not -1.0"),
        ('command = solve-entire\nN = 3\nR = 0\n[functions]\nf = "t^0.5"\npsi = "1"',
         "line 4: [problem] R must be positive, not 0.0"),
        # b0 = -1 warned, then the scheme read f at w = -1: exit 3 naming no key
        ('command = solve-entire\nN = 3\nb0 = -1\n[functions]\nf = "t^0.5"\npsi = "1"',
         "line 4: [problem] b0 must be positive, not -1.0"),
        ("command = chi\nrho = -2\nzeta = 3\ntheta = 1\nell_star = -1",
         "line 3: [problem] rho must be positive, not -2.0"),
        ("command = xi0\nrho = 2\nell1 = -3", "line 4: [problem] ell1 must be in [0, 1], not -3.0"),
        ('command = solve-system\nN = 3\nR = -1\n[functions]\np = "1"\nq = "1"\nf = "t^0.5"\n'
         'g = "t^0.5"', "line 4: [problem] R must be positive, not -1.0"),
    ])
    def test_bad_enumerated_or_ranged_key_is_config_error(self, tmp_path, capsys, config,
                                                          message):
        # most reached the library's ValueError: exit 3 and a failure.json
        config = config.replace("$TMP", str(tmp_path))
        code, outdir = run_cli(tmp_path, f"[problem]\n{config}\n")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # profile on a KO-divergent nonlinearity is a numerical-domain error
        code, outdir = run_cli(tmp_path, """
[problem]
command = profile
k_alpha = 1.0

[functions]
f = "t"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert "Keller-Osserman" in diag["error"]


def render_key_reference() -> str:
    """The README key reference: each command, then one line per key with
    its section, name, kind, default and choices or range.  The keys every
    command takes alike, [problem] command and [output] json, are left out."""
    lines = []
    for command, (_, keys) in _COMMANDS.items():
        lines.append(command)
        for key in keys:
            if key.name in ("command", "json"):
                continue
            kind = getattr(key.kind, "__name__", key.kind)
            default = ("required" if key.required else "-" if key.default is None
                       else _summary_value(key.default))
            rule = (f"one of {', '.join(key.choices)}" if key.choices
                    else key.check[1] if key.check else "")
            lines.append(f"  {'[' + key.section + ']':11} {key.name:15} {kind:5} "
                         f"{default:11} {rule}".rstrip())
    return "\n".join(lines) + "\n"


class TestKeyTable:
    def test_no_two_keys_of_a_command_share_a_name(self):
        # the values of a validated config are keyed by name alone
        for command, (_, keys) in _COMMANDS.items():
            names = [key.name for key in keys]
            assert len(names) == len(set(names)), command

    def test_readme_key_reference_matches_the_command_table(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        block = readme.split("### Config keys", 1)[1].split("```text\n", 1)[1]
        assert block.split("```", 1)[0] == render_key_reference()


class TestSummaryFormat:
    def test_floats_print_as_the_shortest_round_trip_string(self):
        assert _summary_value([0.87, 0.9]) == "[0.87,0.9]"
        assert _summary_value([3.0, 3.5]) == "[3,3.5]"
        assert _summary_value(np.float64(0.1)) == "0.1"
        for x in (20.190728556426624, 1e-300, 2.0 / 3.0, -0.0, math.inf):
            assert float(_summary_value(x)) == x
        assert _summary_value(True) == "true" and _summary_value(3) == "3"


class TestCommands:
    def test_eigen_summary_and_csv(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = eigen
N = 3
R = 1.0

[output]
json = summary.json
""")
        assert code == 0
        out = capsys.readouterr().out
        lam = float(out.split("lambda1=")[1].split()[0])
        assert lam == pytest.approx(math.pi ** 2, abs=1e-8)
        assert int(out.split("shots=")[1].split()[0]) == 2
        assert int(out.split("steps_accepted=")[1].split()[0]) > 0
        assert int(out.split("steps_rejected=")[1].split()[0]) >= 0
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert summary["shots"] == int(out.split("shots=")[1].split()[0])
        assert {"steps_accepted", "steps_rejected"} <= set(summary)
        assert summary["phi_at_R"] == float(out.split("phi_at_R=")[1].split()[0])
        assert abs(summary["phi_at_R"]) <= 1e-13
        lines = open(os.path.join(outdir, "eigen.csv")).read().splitlines()
        assert lines[1] == "r,phi"

    def test_classify(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = classify
direction = origin
b = 1.0

[functions]
fn = "t^(-1/2)"
""")
        assert code == 0
        assert "verdict=convergent" in capsys.readouterr().out

    @pytest.mark.parametrize("direction,fn,exact", [("tail", "t^(-2)*ln(t)", 1.0),
                                                     ("origin", "t^(-0.5)*ln(1/t)", 4.0)])
    def test_classify_integrand_vanishing_at_the_limit(self, tmp_path, capsys, direction, fn,
                                                       exact):
        # ln vanishes at t = 1, the first sample of either classifier
        code, _ = run_cli(tmp_path, f"""
[problem]
command = classify
direction = {direction}

[functions]
fn = "{fn}"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=convergent" in out
        assert float(out.split("value=")[1].split()[0]) == pytest.approx(exact, abs=1e-8)

    def test_classify_origin_through_an_underflowed_quotient(self, tmp_path, capsys):
        # int_0^1 e^(-1/t)/t^2 = 1/e: past the image's last sample, at s ~ 1e166,
        # both e^(-s) and 1/s^2 underflow and the quotient is 0/0
        code, _ = run_cli(tmp_path, '[problem]\ncommand = classify\ndirection = origin\nb = 1.0\n'
                                    '[functions]\nfn = "exp(-1/t)/t^2"\n')
        assert code == 0
        fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
        assert fields["verdict"] == "convergent"
        assert abs(float(fields["value"]) - math.exp(-1.0)) <= float(fields["err"])

    def test_classify_origin_domain_error_inside_the_samples(self, tmp_path):
        # the image's second sample, s = 2, is t = 0.5: a division by zero
        # there is no degenerate float
        code, outdir = run_cli(tmp_path, '[problem]\ncommand = classify\ndirection = origin\n'
                                         '[functions]\nfn = "1/(t-0.5)"\n')
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert "division by zero in (1.0 / (t - 0.5)) at t=0.5" in diag["error"]

    def test_classify_overflowing_constant(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = classify

[functions]
fn = "1e999*t^-3"
""")
        assert code == 0
        assert "verdict=inconclusive" in capsys.readouterr().out

    def test_classify_domain_error_is_located(self, tmp_path):
        code, outdir = run_cli(tmp_path, """
[problem]
command = classify
a = 1

[functions]
fn = "ln(t-2)"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "EvalDomainError"
        assert "ln((t - 2.0))" in diag["error"] and "t=1.0" in diag["error"]

    def test_check_ko_domain_error_is_located(self, tmp_path):
        # f is undefined past 1e9: F there is no number, so no verdict
        code, outdir = run_cli(tmp_path, """
[problem]
command = check-ko

[functions]
f = "t^2*sqrt(1e9-t)"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "EvalDomainError"
        assert "square root of a negative value" in diag["error"]

    def test_analyze_f(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = analyze-f

[functions]
f = "t^3"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "rho=2" in out and "identities_ok=true" in out

    @pytest.mark.parametrize("f, printed", [
        # gamma is not resolved from samples up to 1e8: nothing is compared
        ("t^2*ln(1+t)^3", ["gamma=unavailable", "identities_ok=unknown"]),
        ("exp(t^2)", ["theta=inf", "gamma=0 ", "identities_ok=true"]),
    ])
    def test_analyze_f_prints_unknown_identities(self, tmp_path, capsys, f, printed):
        code, _ = run_cli(tmp_path, f'[problem]\ncommand = analyze-f\n\n[functions]\nf = "{f}"\n')
        assert code == 0
        out = capsys.readouterr().out
        assert all(p in out for p in printed)

    def test_ell(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = ell
nu = 1.0

[functions]
k = "t^2"
""")
        assert code == 0
        ell1 = float(capsys.readouterr().out.split("ell1=")[1].split()[0])
        assert ell1 == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_make_k(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = make-k
kind = invS
D = 2.0

[functions]
S = "t^2"
""")
        assert code == 0
        assert "predicted_ell1=0.333" in capsys.readouterr().out

    def test_xi0_power(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = xi0
rho = 2.0
ell1 = 0.5
c = 1.0
""")
        assert code == 0
        xi0 = float(capsys.readouterr().out.split("xi0=")[1].split()[0])
        assert xi0 == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_xi0_via_A(self, tmp_path, capsys):
        # the A-functional route of the xi0 command, as xi0_via_A's own test
        code, outdir = run_cli(tmp_path, """
[problem]
command = xi0
gamma = 0.25
kprime0 = 0.5

[functions]
f = "t^3"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "method=A f=t^3 " in out
        xi0 = float(out.split("xi0=")[1].split()[0])
        assert xi0 == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-6)
        assert json.loads(open(os.path.join(outdir, "xi0_summary.json")).read())["xi0"] == xi0

    def test_chi(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = chi
rho = 2.0
zeta = 3.0
theta = 1.0
ell_star = -1.0
c_tilde = 0.5
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "varpi=1" in out and "chi=-0.25" in out

    def test_profile_csv(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = profile
k_alpha = 1.0
nu = 1.0
c = 1.0

[functions]
f = "t^3"

[numerics]
grid_depth = 10

[output]
csv = h.csv
""")
        assert code == 0
        lines = open(os.path.join(outdir, "h.csv")).read().splitlines()
        assert lines[1] == "t,h,h_prime"
        assert "xi0=0.866" in capsys.readouterr().out

    def test_solve_system(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = solve-system
N = 3
R = 20.0
a = 1.0
b = 1.0

[functions]
p = "1"
q = "1"
f = "t^(1/2)"
g = "t^(1/2)"

[numerics]
mesh_points = 512
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=entire-large" in out
        # the refinement reports where it stopped, how far the last doubling
        # moved and the error it leaves
        assert re.search(r"mesh_points=(1024|2048|4096) mesh_drift=\S+ mesh_error=\S+", out)
        assert os.path.exists(os.path.join(outdir, "system.csv"))

    def test_solve_system_with_one_expression_builds_one_potential(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the bounded N = 4 system of the CI: p and q parse to one tree, so
        # one tail is classified; q written as q * 1 is a second tree with
        # the same values, which builds a second potential and classifies a
        # second tail, and must print the same line and write the same CSV
        classify = numerics.classify_tail_integral
        calls = []
        monkeypatch.setattr("sel_lab.radial.classify_tail_integral",
                            lambda *args: calls.append(args) or classify(*args))
        lines, tables = [], []
        for q, classified in (("(1+t^2)^(-2)", 1), ("(1+t^2)^(-2)*1", 2)):
            calls.clear()
            code, outdir = run_cli(tmp_path, f"""
[problem]
command = solve-system
N = 4
R = 100

[functions]
p = "(1+t^2)^(-2)"
q = "{q}"
f = "t^0.5"
g = "t^0.5"

[numerics]
mesh_points = 1024
""", out=f"out{len(lines)}")
            assert code == 0
            lines.append(capsys.readouterr().out)
            tables.append(open(os.path.join(outdir, "system.csv"), "rb").read())
            assert len(calls) == classified
        assert lines[0] == lines[1]
        assert tables[0] == tables[1]
        assert "classification=bounded" in lines[0] and "mesh_points=4096" in lines[0]
        # the steps of each refinement run stay in the metadata, off the line
        assert "picard_steps" not in lines[0]

    def test_solve_system_domain_error_in_the_mesh_sweep(self, tmp_path):
        # p is undefined past 40: the sweep over the 256-panel graded mesh on
        # [0, 50] fails at its first node past 40, node 229, with the scalar
        # evaluator's message
        code, outdir = run_cli(tmp_path, """
[problem]
command = solve-system
N = 3
R = 50

[functions]
p = "sqrt(40-t)"
q = "sqrt(40-t)"
f = "t^0.5"
g = "t^0.5"

[numerics]
mesh_points = 256
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "EvalDomainError"
        assert diag["error"] == ("square root of a negative value in sqrt((40.0 - t)) "
                                 "at t=40.009307861328125")

    @pytest.mark.parametrize("negative, line", [("p", 8), ("q", 9)])
    def test_solve_system_negative_potential_is_config_error(self, tmp_path, capsys,
                                                              negative, line):
        # p or q = 1 - t/30 is negative past 30: it exited 3 after refining
        # 512 panels to 4,096, blaming the mesh
        pots = {"p": "1", "q": "1", negative: "1-t/30"}
        code, outdir = run_cli(tmp_path, f"""
[problem]
command = solve-system
N = 3
R = 50

[functions]
p = "{pots['p']}"
q = "{pots['q']}"
f = "t^0.5"
g = "t^0.5"

[numerics]
mesh_points = 512
""")
        assert code == 2
        assert (f"line {line}: [functions] {negative}: radial potential must be nonnegative "
                "(r = 30.06153106689453: p = -0.00205" in capsys.readouterr().err)
        assert not os.path.exists(outdir)

    def test_solve_entire(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = solve-entire
N = 3
R = 30.0
b0 = 1.0

[functions]
f = "t^(1/2)"
psi = "(1+t)^(-3)"

[numerics]
panels = 512
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=bounded" in out
        assert "growth_bound_ok=true" in out
        assert re.search(r"mesh_points=(1024|2048|4096) mesh_drift=\S+", out)

    @staticmethod
    def _entire_config(phi=""):
        return f"""
[problem]
command = solve-entire
N = 3
R = 50

[functions]
f = "t^0.5"
psi = "(1+t^2)^(-2)"
{phi}
"""

    def test_solve_entire_with_equal_envelopes(self, tmp_path, capsys):
        # phi = psi is the radial potential given twice: the same solution,
        # with the ordering of the sub- and super-solution runs on top
        code, _ = run_cli(tmp_path, self._entire_config(), out="radial")
        assert code == 0
        radial = capsys.readouterr().out
        code, _ = run_cli(tmp_path, self._entire_config('phi = "(1+t^2)^(-2)"'), out="two")
        assert code == 0
        two = capsys.readouterr().out
        u_end = re.search(r" u_end=\S+ ", radial).group(0)
        assert u_end in two
        assert "b_star=1 ordering_ok=true" in two

    def test_solve_entire_warm_started_doubling(self, tmp_path, capsys, monkeypatch):
        # the CI's entire-large config: the 2,048-panel run starts from the
        # 1,024-panel solution and takes fewer steps than a cold run on the
        # same mesh, with the same verdict and mesh; the steps of both runs
        # stay in the metadata, off the line
        config = self._entire_config().replace('"(1+t^2)^(-2)"', '"1"')
        config += "\n[numerics]\npanels = 1024\n"
        code, _ = run_cli(tmp_path, config, out="warm")
        assert code == 0
        warm = capsys.readouterr().out
        monkeypatch.setattr("sel_lab.radial._warm_start", lambda *args: None)
        code, _ = run_cli(tmp_path, config, out="cold")
        assert code == 0
        cold = capsys.readouterr().out
        for field in ("classification=entire-large", "growth_bound_ok=true", "mesh_points=2048"):
            assert field in warm and field in cold
        steps = [int(re.search(r" iterations=(\d+) ", out).group(1)) for out in (warm, cold)]
        assert 1 < steps[0] < steps[1]
        assert "picard_steps" not in warm

    def test_solve_entire_phi_below_psi_is_config_error(self, tmp_path, capsys):
        # exited 3 with a failure.json as if the solve had failed
        code, outdir = run_cli(tmp_path, self._entire_config('phi = "(1+t^2)^(-3)"'))
        assert code == 2
        assert ("line 10: [functions] phi: envelopes must satisfy phi >= psi >= 0"
                in capsys.readouterr().err)
        assert not os.path.exists(outdir)

    def test_solve_entire_negative_psi_is_config_error(self, tmp_path, capsys):
        # a bare psi had its own rule, a numerical failure naming no radius;
        # the first node past 30 of the default 2,048-panel mesh is named
        code, outdir = run_cli(tmp_path, self._entire_config().replace("(1+t^2)^(-2)", "1-t/30"))
        assert code == 2
        assert ("line 9: [functions] psi: radial potential must be nonnegative "
                "(r = 30.023682117462158: p = -0.00078" in capsys.readouterr().err)
        assert not os.path.exists(outdir)

    def test_solve_entire_envelopes_are_checked_out_to_R(self, tmp_path, capsys):
        # phi dips below psi only past r = 20.5, inside the solve's [0, 50]:
        # it exited 0 with ordering_ok=true while only [0, 20] was checked
        phi = 'phi = "(1+t^2)^(-2)*(1+(20.5-t)/1000)"'
        code, outdir = run_cli(tmp_path, self._entire_config(phi))
        assert code == 2
        assert ("line 10: [functions] phi: envelopes must satisfy phi >= psi >= 0"
                in capsys.readouterr().err)
        assert not os.path.exists(outdir)

    def test_solve_entire_far_radius_reports_its_mesh_error(self, tmp_path, capsys):
        # the R = 1500 CI config: w moves by 2.6e-8 near r = 1.65 from 4096
        # to 8192 panels, so the refinement goes on to 8192
        code, outdir = run_cli(tmp_path, """
[problem]
command = solve-entire
N = 3
R = 1500

[functions]
f = "t^0.5"
psi = "(1+t^2)^(-2)"

[numerics]
panels = 1024
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=bounded" in out
        match = re.search(r"mesh_points=8192 mesh_drift=\S+ mesh_error=(\S+) ", out)
        assert match and float(match.group(1)) <= 1e-8

    def test_solve_entire_domain_error_in_the_large_condition(self, tmp_path, capsys):
        # psi is defined on the mesh [0, 50] but not past 1000: the large
        # condition's tail samples reach t = 1024, which is a numerical
        # failure, not an undetermined classification
        code, outdir = run_cli(tmp_path, """
[problem]
command = solve-entire
N = 3
R = 50

[functions]
f = "t^0.5"
psi = "sqrt(1e3-t)"

[numerics]
panels = 256
""")
        assert code == 3
        assert "classification=" not in capsys.readouterr().out
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "EvalDomainError"
        assert diag["error"] == ("square root of a negative value in sqrt((1000.0 - t)) "
                                 "at t=1024.0")

    def test_young(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, """
[problem]
command = young
a = 0.0
p = 1.5
geometry = interval
N = 1
""")
        assert code == 0
        assert "C=1" in capsys.readouterr().out

    def test_gelfand_predicate_and_solve(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = gelfand
lambda = 0.5
mu = 1.0
N = 1
geometry = interval
solve = true

[functions]
g = "exp(-t)"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "solvable=true" in out and "agrees=true" in out
        assert os.path.exists(os.path.join(outdir, "gelfand.csv"))

    def test_gelfand_reads_the_limit_of_g(self, tmp_path, capsys):
        # lim g = 2: lambda (a + mu) = 10 > pi^2, so the predicate is false
        code, _ = run_cli(tmp_path, """
[problem]
command = gelfand
lambda = 2.5
mu = 2

[functions]
g = "2+t^(-0.5)"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "a=2 " in out and "solvable=false" in out

    def test_gelfand_refuses_a_limit_of_g_that_does_not_resolve(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = gelfand
lambda = 2.5
mu = 2

[functions]
g = "2+sin(ln(1+t))"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error"].startswith("lim g unknown: the fit in 1/ln u does not resolve it")

    def test_lef_no_solution_writes_probe_table(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, f"""
[problem]
command = lef
N = 1
geometry = interval
lambda = {1.2 * math.pi ** 2}

[functions]
f = "t"
g = "t^(-1/2)"
a = "1"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=no-solution" in out and "failed_probes=0" in out
        lines = open(os.path.join(outdir, "lef_probes.csv")).read().splitlines()
        assert lines[0] == "s,zero_location"
        # the coarse slice: z rises over all of it, so there is no fold to search
        assert len(lines) == 15
        summary = json.loads(open(os.path.join(outdir, "lef_summary.json")).read())
        assert summary["fold_parameter"] == 1e6
        assert "lambda_star" not in summary

    def test_lef_reports_its_shots(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = lef
N = 3
geometry = ball
lambda = 3

[functions]
f = "exp(t)"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "center_value=0.958422380442605" in out and "c2=1.441937546163609" in out
        summary = json.loads(open(os.path.join(outdir, "lef_summary.json")).read())
        # 14 coarse probes without a bracket, the fold search up to its first
        # bracket, then Brent's method and the dense shot
        assert summary["shots"] == 21
        assert summary["rhs_calls"] > 12 * (summary["steps_accepted"]
                                            + summary["steps_rejected"])

    @pytest.mark.parametrize("lam, printed", [
        (1.98, "classification=bounded "),
        (2.2, "classification=no-solution sup_zero_location=0.9534625892419333 "
              "fold_parameter=1.3862965594040688 lambda_star=1.9999999999846496 "),
    ])
    def test_lef_at_the_n2_gelfand_fold(self, tmp_path, capsys, lam, printed):
        # lambda* = 2 on the unit disc; lambda_star reads it off the located
        # maximum of the zero location
        code, outdir = run_cli(tmp_path, f"""
[problem]
command = lef
N = 2
geometry = ball
lambda = {lam}

[functions]
f = "exp(t)"
""")
        assert code == 0
        assert f"command=lef {printed}" in capsys.readouterr().out
        if lam > 2.0:
            summary = json.loads(open(os.path.join(outdir, "lef_summary.json")).read())
            assert summary["lambda_star"] == pytest.approx(2.0, rel=1e-9)

    def test_lef_whose_search_shot_nothing_exits_3(self, tmp_path, capsys):
        # g = t^(-1)+0 keeps the fitted alpha = 0.9999999999999999, and the
        # interval start divides by 1 - alpha: every probe starts below 0
        code, outdir = run_cli(tmp_path, """
[problem]
command = lef
N = 1
geometry = interval
lambda = 1

[functions]
f = "t"
g = "t^(-1)+0"
a = "1"
""")
        assert code == 3
        assert "classification" not in capsys.readouterr().out
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "NumericsError"
        assert diag["error"].startswith("the singular search shot nothing: the first probe, "
                                        "s = 0.0001, starts at u = -")
        assert "g's alpha = 0.9999999999999999" in diag["error"]
        assert sorted(os.listdir(outdir)) == ["failure.json"]

    def test_sweep_domain_error_exits_3(self, tmp_path):
        code, outdir = run_cli(tmp_path, """
[problem]
command = sweep
N = 1
geometry = interval
lambda_grid = 0.5, 1, 2

[functions]
f = "t"
g = "t^(-0.5)"
a = "sqrt(0.5-t)"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error_type"] == "EvalDomainError"
        assert diag["error"] == ("square root of a negative value in sqrt((0.5 - t)) "
                                 "at t=0.5010085380365554")

    def test_blowup_with_rate(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = blowup
N = 1
domain = annulus
R0 = 0.0
R = 1.0
b_normalization = k2
k_alpha = 1.0
nu = 1.0
c = 1.0

[functions]
f = "t^3"
b = "t^2"

[numerics]
levels = 1e9, 1e11
grid_depth = 14
tol = 1e-9

[output]
csv = solution.csv
json = summary.json
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "rate_ratio=" in out
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert abs(summary["rate_limit"] - 1.0) < 0.05

    def test_blowup_with_rate_judges_keller_osserman_once(self, tmp_path, monkeypatch):
        # the level searches, the profile and the tail map read one verdict,
        # from one classification and one Bertrand fit of f
        classified, fits = [], []
        classify, fit = karamata.classify_tail_integral, numerics._bertrand_fit
        monkeypatch.setattr(karamata, "classify_tail_integral",
                            lambda *args: classified.append(args) or classify(*args))
        monkeypatch.setattr(numerics, "_bertrand_fit",
                            lambda *args: fits.append(args) or fit(*args))
        code, _ = run_cli(tmp_path, headline_blowup())
        assert code == 0
        assert len(classified) == 1
        assert len(fits) == 1

    def test_blowup_with_rate_fills_one_tail_map(self, tmp_path, monkeypatch):
        # the level searches and the profile read one Keller-Osserman tail
        # map, whose lattice is filled block by block, each block once
        blocks = []
        extend = TailMap._extend

        def counted(phi):
            blocks.append((phi, len(phi._lat)))
            extend(phi)

        monkeypatch.setattr(TailMap, "_extend", counted)
        code, _ = run_cli(tmp_path, """
[problem]
command = blowup
N = 1
domain = annulus
R0 = 0.0
R = 1.0
b_normalization = k2
k_alpha = 1.0
nu = 1.0
c = 1.0

[functions]
f = "t^3"
b = "t^2"

[numerics]
grid_depth = 14
""")
        assert code == 0
        phi = blocks[0][0]
        assert all(p is phi for p, _ in blocks)
        assert len(blocks) == math.ceil((len(phi._lat) - 1) / TailMap._BLOCK)
        assert len({n for _, n in blocks}) == len(blocks)

    @staticmethod
    def _blowup_shape(domain, N, p, alpha, levels=""):
        if domain == "annulus":
            geometry, b = "domain = annulus\nR0 = 0.0\nR = 1.0", f"t^{2.0 * alpha:.4f}"
        else:
            geometry, b = "domain = ball\nR = 1.0", f"(1-t)^{2.0 * alpha:.4f}"
        return (f"[problem]\ncommand = blowup\nN = {N}\n{geometry}\nb_normalization = k2\n"
                f"k_alpha = {alpha}\nnu = 1.0\nc = 1.0\n\n[functions]\nf = \"t^{p}\"\n"
                f"b = \"{b}\"\n\n[numerics]\ngrid_depth = 14\n{levels}\n"
                f"[output]\ncsv = solution.csv\njson = summary.json\n")

    @pytest.mark.parametrize("domain, N, p, alpha", [
        ("annulus", 1, 2.2, 0.9147),  # f undefined below 0, where a stage can land
        ("annulus", 1, 2.0, 1.8418),  # u ~ d^-5.7: the top height is 1e20
        ("ball", 2, 2.6, 0.6959),
        ("annulus", 1, 3.6, 0.8311),
        ("ball", 1, 2.0, 1.4041),  # u ~ d^-4.8: the levels agree only from d = 0.038
    ])
    def test_blowup_rate_of_bench_shapes(self, tmp_path, capsys, domain, N, p, alpha):
        code, outdir = run_cli(tmp_path, self._blowup_shape(domain, N, p, alpha))
        assert code == 0, open(os.path.join(outdir, "failure.json")).read()
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert abs(summary["rate_limit"] - 1.0) <= 0.02
        assert summary["levels"] == 2

    def test_blowup_summary_carries_the_level_search(self, tmp_path, capsys):
        # b vanishes like d^2.5376: the searches run on D^(1/beta), beta =
        # 1.1641, and the summary shows their shots per level
        code, outdir = run_cli(tmp_path, self._blowup_shape("ball", 3, 3.4, 1.2688))
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        shots, beta = summary["level_shots"], summary["level_search_exponent"]
        assert len(shots) == 2 and sum(shots) <= 15
        assert beta == pytest.approx(1.1641, abs=1e-4)
        assert f"level_shots=[{shots[0]},{shots[1]}] level_search_exponent={beta!r} " in out

    def test_blowup_on_one_shooting_parameter_is_undetermined(self, tmp_path, capsys):
        # the vanishing core r <= 0.5 at a ~ 0.5 lambda_inf_1: both levels
        # land on one parameter, so the summary shows a gap of 0
        code, outdir = run_cli(tmp_path, """
[problem]
command = blowup
N = 3
domain = ball
R = 1.0
a = 19.74
omega0 = 0.5

[functions]
f = "t^3"
b = "((t-0.5+abs(t-0.5))/2)^2"

[output]
json = summary.json
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=undetermined" in out and "level_parameter_gap=0 " in out
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert summary["level_parameter_gap"] == 0.0

    @staticmethod
    def _core_config(omega0, b, domain="ball\nR = 1.0"):
        return f"""
[problem]
command = blowup
N = 3
domain = {domain}
omega0 = {omega0}

[functions]
f = "t^3"
b = "{b}"
"""

    def test_blowup_core_where_b_does_not_vanish_is_config_error(self, tmp_path, capsys):
        # b = t^2 is not 0 on the core r <= 0.5: it was solved as if it were
        code, outdir = run_cli(tmp_path, self._core_config(0.5, "t^2"))
        assert code == 2
        assert ("line 11: [functions] b: b must vanish on the core r <= 0.5 "
                "(r = 0.0125: b = 0.00015625000000000003)" in capsys.readouterr().err)
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("omega0, domain", [(1.0, "ball\nR = 1.0"),
                                                (0.25, "annulus\nR0 = 0.5\nR = 1.0")])
    def test_blowup_core_outside_the_domain_is_config_error(self, tmp_path, capsys,
                                                            omega0, domain):
        code, outdir = run_cli(tmp_path, self._core_config(omega0, "0", domain))
        assert code == 2
        assert "[problem] omega0 must be" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_blowup_rate_unresolved_names_the_levels(self, tmp_path, capsys):
        # u ~ d^-4.8 at this ball's boundary: the levels 1e10 and 1e12
        # agree nowhere on the grid, so no rate is printed
        code, outdir = run_cli(tmp_path, self._blowup_shape("ball", 1, 2.0, 1.4041,
                                                            "levels = 1e10, 1e12\n"))
        assert code == 3
        assert "rate_ratio" not in capsys.readouterr().out
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert diag["error"] == ("rate measurement needs a boundary-blowup solution "
                                 "(levels u = 1e+10, 1e+12)")

    def test_blowup_rate_with_k_kind(self, tmp_path, capsys):
        # k = D/S with S = t, D = 1 is the headline weight k = 1 in another form
        code, outdir = run_cli(tmp_path, headline_blowup("k_kind = invS\nD = 1.0",
                                                         'S = "t"'))
        assert code == 0
        assert "rate_ratio=1.00x" in capsys.readouterr().out
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert abs(summary["rate_limit"] - 1.0) <= 0.02

    def test_blowup_rate_with_a_slowly_varying_factor(self, tmp_path, capsys):
        # theta = 2 of f = t^2 ln(1+t)^3 is read off the fit in 1/ln u, so
        # the profile carries xi0 and the rate is measured
        code, outdir = run_cli(tmp_path, """
[problem]
command = blowup
N = 3
domain = ball
R = 1.0
k_alpha = 1

[functions]
f = "t^2*ln(1+t)^3"
b = "(1-t)^2"

[output]
json = summary.json
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "classification=boundary-blowup" in out and "rate_ratio=1.0" in out
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert abs(summary["rate_limit"] - 1.0) <= 0.02

    def test_blowup_with_a_weight_defined_only_below_nu(self, tmp_path, capsys):
        # k = t/sqrt(1-2t) is defined on (0, 1/2) only: the profile reads
        # int_0^t k on its own grid, which ends at t = 1/4
        code, outdir = run_cli(tmp_path, """
[problem]
command = blowup
N = 3
domain = ball
R = 1.0
nu = 0.5

[functions]
f = "t^3"
b = "(1-t)^2"
k = "t/sqrt(1-2*t)"
""")
        assert code == 0, open(os.path.join(outdir, "failure.json")).read()
        assert "rate_ratio=1.00x" in capsys.readouterr().out

    def test_rate_from_solution_csv(self, tmp_path, capsys):
        blow_cfg = """
[problem]
command = blowup
N = 1
domain = annulus
R0 = 0.0
R = 1.0
b_normalization = k2

[functions]
f = "t^3"
b = "t^2"

[numerics]
levels = 1e9, 1e11
tol = 1e-9

[output]
csv = solution.csv
"""
        code, outdir = run_cli(tmp_path, blow_cfg, out="shared")
        assert code == 0
        rate_cfg = """
[problem]
command = rate
solution = solution.csv
k_alpha = 1.0
nu = 1.0
c = 1.0

[functions]
f = "t^3"

[numerics]
grid_depth = 14

[output]
csv = rate.csv
"""
        cfg = write_cfg(tmp_path, rate_cfg, name="rate.cfg")
        code = main(["--config", cfg, "--out", outdir])
        assert code == 0
        out = capsys.readouterr().out
        limit = float(out.split("limit=")[1].split()[0])
        assert abs(limit - 1.0) < 0.05
        assert os.path.exists(os.path.join(outdir, "rate.csv"))

    def test_sweep_with_bracket(self, tmp_path, capsys):
        grid = ", ".join(str(c * math.pi ** 2) for c in (0.5, 0.95, 1.05))
        code, outdir = run_cli(tmp_path, f"""
[problem]
command = sweep
N = 1
geometry = interval
lambda_grid = {grid}

[functions]
f = "t"
g = "t^(-1/2)"
a = "1"
""")
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_star_bracket=" in out
        lines = open(os.path.join(outdir, "sweep.csv")).read().splitlines()
        assert lines[0] == "lambda,status,sup_norm,center_value"
        assert len(lines) == 4

    def test_sweep_rejects_decreasing_grid(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, """
[problem]
command = sweep
N = 1
geometry = interval
lambda_grid = 5.0, 2.0

[functions]
f = "t"
""")
        assert code == 3
        diag = json.loads(open(os.path.join(outdir, "failure.json")).read())
        assert "must be increasing" in diag["error"]
        assert not os.path.exists(os.path.join(outdir, "sweep.csv"))

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        eigen = write_cfg(tmp_path, "[problem]\ncommand = eigen\nN = 2\n", name="eigen.cfg")
        young = write_cfg(tmp_path, "[problem]\ncommand = young\np = 1.5\n", name="young.cfg")
        assert main(["--config", eigen, "--out", str(tmp_path / "a")]) == 0
        assert main(["--config", young, "--out", str(tmp_path / "b"), "--verbose"]) == 0
        first = capsys.readouterr()
        assert "command=eigen N=2" in first.out and "command=young" in first.out
        assert first.err == f"artifacts in {tmp_path / 'b'}\n"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
        assert main(["--config", young, "--out", str(tmp_path / "d")]) == 0
        assert os.path.exists(tmp_path / "d" / "young_summary.json")
        assert not os.path.exists(tmp_path / "c")

    def test_removed_flags_are_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[problem]\ncommand = young\np = 1.5\n")
        for flag in ("--jobs", "--seed"):
            with pytest.raises(SystemExit):
                main(["--config", cfg, "--out", str(tmp_path / "out"), flag, "2"])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        text = """
[problem]
command = eigen
N = 2
R = 1.0
"""
        _, out1 = run_cli(tmp_path, text, out="out1")
        _, out2 = run_cli(tmp_path, text, out="out2")
        capsys.readouterr()
        a = open(os.path.join(out1, "eigen.csv"), "rb").read()
        b = open(os.path.join(out2, "eigen.csv"), "rb").read()
        assert a == b


@pytest.mark.parametrize("mode, printed", [
    ("two-param", "classification=no-solution sup_zero_location=3.1999300196326215 "
                  "fold_parameter=0.009840647208645376 failed_probes=0"),
    ("convection", "classification=bounded sup_norm=0.32968186115974374 "
                   "center_value=0.32968186060815396 c1=1.1291306356517536 "
                   "c2=1.6897836063549032"),
    ("convection-absorb", "classification=no-solution sup_zero_location=8.225059190902815 "
                          "fold_parameter=0.009763582580980135 failed_probes=0"),
])
def test_lef_modes_on_the_interval(tmp_path, capsys, mode, printed):
    code, outdir = run_cli(tmp_path, f"""
[problem]
command = lef
N = 1
geometry = interval
lambda = 1
mu = 1
grad_p = 1
mode = {mode}

[functions]
f = "t"
g = "t^(-0.5)"
K = "1"
source = "1"
""")
    assert code == 0
    assert f"command=lef {printed} csv=" in capsys.readouterr().out
