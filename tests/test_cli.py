import json
import math
import os
import re

import numpy as np
import pytest

from sel_lab.cli import ConfigError, _summary_value, main, parse_config


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
        assert spec.expression("functions", "f") == "t^2"

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = eigen
R = 1.0
""")
        spec = parse_config(cfg)
        with pytest.raises(ConfigError, match="missing required key 'N'"):
            spec.get("problem", "N", required=True)

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
lambda_grid = 1.0, 2.0, 3.5
""")
        spec = parse_config(cfg)
        assert spec.get("problem", "lambda_grid") == [1.0, 2.0, 3.5]

    def test_typed_values(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[problem]
command = blowup
N = 3
R = 2

[numerics]
levels = 10
""")
        spec = parse_config(cfg)
        assert spec.get("problem", "N", kind=int) == 3
        assert spec.get("problem", "R", kind=float) == 2.0
        assert spec.get("problem", "a", 0.5, kind=float) == 0.5
        # one number is a one-element list, as for lambda_grid
        assert spec.get("numerics", "levels", kind=list) == [10.0]

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
        assert int(out.split("shots=")[1].split()[0]) <= 25
        assert int(out.split("steps_accepted=")[1].split()[0]) > 0
        assert int(out.split("steps_rejected=")[1].split()[0]) >= 0
        summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
        assert summary["shots"] == int(out.split("shots=")[1].split()[0])
        assert {"steps_accepted", "steps_rejected"} <= set(summary)
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

    def test_solve_system_domain_error_in_the_mesh_sweep(self, tmp_path):
        # p is undefined past 40: the sweep over the 256-panel mesh on [0, 50]
        # fails at its first node past 40, with the scalar evaluator's message
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
                                 "at t=40.0390625")

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
        assert len(lines) >= 61

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
        assert "center_value=0.9584223804421385" in out and "c2=1.4419375461971118" in out
        summary = json.loads(open(os.path.join(outdir, "lef_summary.json")).read())
        assert summary["shots"] > 60
        assert summary["rhs_calls"] > 12 * (summary["steps_accepted"]
                                            + summary["steps_rejected"])

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
    ("two-param", "classification=no-solution sup_zero_location=3.199929438456093 "
                  "failed_probes=0"),
    ("convection", "classification=bounded sup_norm=0.32968186115974374 "
                   "center_value=0.32968186060815396 c1=1.1291306356517536 "
                   "c2=1.6897836063549032"),
    ("convection-absorb", "classification=no-solution sup_zero_location=8.225050300606199 "
                          "failed_probes=0"),
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
