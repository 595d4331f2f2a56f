"""The package exports what a sel-lab command or a bench workload calls,
and its numbers do not depend on the BLAS kernel.

Reads the source as text: every function `sel_lab` exports, and every
public function of `sel_lab.ports`, is called in `src/sel_lab/` outside
its own definition, or in `bench/workloads.py`.
A helper only the tests call belongs in `tests/reference.py`.  The tail
fits, the quadrature and the profile make no BLAS or LAPACK call, and
only `solve-entire` loads scipy (scipy.special.expn, imported inside
`radial._large_condition_kernel`): every other command runs with scipy
blocked.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sel_lab
from sel_lab import ports

ROOT = Path(__file__).resolve().parents[1]
EXPORTED = sorted(name for name, obj in vars(sel_lab).items() if inspect.isfunction(obj))
# the ports' functions, not their tables: a port nothing calls is dead code
PORTS = sorted(f"ports.{name}" for name, obj in vars(ports).items()
               if inspect.isfunction(obj) and obj.__module__ == ports.__name__
               and not name.startswith("_"))


@pytest.mark.parametrize("name", EXPORTED + PORTS)
def test_exported_function_has_a_caller(name):
    name = name.rpartition(".")[2]
    # the text of each module without the top-level `def name(...)` block
    texts = [re.sub(rf"^def {name}\(.*?(?=^\S)", "", path.read_text() + "\n#", flags=re.M | re.S)
             for path in (ROOT / "src" / "sel_lab").glob("*.py")]
    texts.append((ROOT / "bench" / "workloads.py").read_text())
    call = re.compile(rf"(?<!def )\b{name}\(")
    assert any(call.search(text) for text in texts), f"sel_lab.{name} has no caller"


def test_the_exports_are_read():
    assert {"build_profile", "classify_tail_integral", "solve_lef"} <= set(EXPORTED)


def test_the_ports_are_read():
    assert PORTS == ["ports.brentq", "ports.minimize_bounded"]


@pytest.mark.parametrize("module", ["numerics", "karamata", "profile"])
def test_no_blas_or_lapack_call(module):
    # the tail fits, the quadrature's estimates and the profile give the same
    # bytes on every BLAS kernel: no matrix product and no LAPACK solver
    text = (ROOT / "src" / "sel_lab" / f"{module}.py").read_text()
    found = re.findall(r" @ |np\.linalg|np\.dot|matmul|einsum", text)
    assert not found, f"{module}.py calls {found}"


def _scipy_imports(path: Path) -> list:
    """(module file, enclosing function or None, imported module) of each
    scipy import statement in one source file."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((path.name, where, alias.name) for alias in child.names
                             if alias.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom)
                  and (child.module or "").split(".")[0] == "scipy"):
                found.append((path.name, where, child.module))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_scipy_import_outside_the_large_condition_kernel():
    found = [hit for path in sorted((ROOT / "src" / "sel_lab").glob("*.py"))
             for hit in _scipy_imports(path)]
    assert found == [("radial.py", "_large_condition_kernel", "scipy.special")]


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])))


def test_the_cli_loads_no_scipy_module():
    code = ("import sel_lab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A sel-lab run with scipy blocked: importing scipy or any of its modules
# raises ImportError.  The exit status is the command's, or 1 when a scipy
# module was loaded all the same.
_BLOCKED = """
import sys
sys.modules["scipy"] = None
from sel_lab.cli import main
status = main(sys.argv[1:])
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print("scipy modules:", loaded)
sys.exit(status or bool(loaded))
"""


def _run_blocked(tmp_path, name: str, config: str) -> str:
    path = tmp_path / f"{name}.cfg"
    path.write_text(config)
    proc = subprocess.run([sys.executable, "-c", _BLOCKED, "--config", str(path),
                           "--out", str(tmp_path / name)],
                          env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
    return proc.stdout


def _readme_headline() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


# every command but solve-entire, with a token of its summary line; lef
# twice: a bounded solve and a no-solution verdict whose search runs the
# fold search (the N = 1 Gelfand ball past lambda* ~ 0.8785)
_COMMANDS_WITHOUT_SCIPY = {
    "blowup": (_readme_headline(), "rate_ratio=1.00x"),
    "check-ko": ('[problem]\ncommand = check-ko\n[functions]\nf = "t^2*ln(1+t)^3"\n',
                 "verdict=convergent"),
    "classify": ('[problem]\ncommand = classify\n[functions]\nfn = "t^(-1.02)"\n',
                 "verdict=convergent"),
    "analyze-f": ('[problem]\ncommand = analyze-f\n[functions]\nf = "t+sqrt(t)"\n',
                  "identities_ok=true"),
    "ell": ('[problem]\ncommand = ell\nnu = 1\n[functions]\nk = "t^2"\n', "ell1=0.33333"),
    "make-k": ('[problem]\ncommand = make-k\nkind = invS\nD = 2\n[functions]\nS = "t^2"\n',
               "predicted_ell1=0.33333"),
    "profile": ('[problem]\ncommand = profile\nk_alpha = 1\n[functions]\nf = "t^3"\n'
                "[numerics]\ngrid_depth = 6\n", "roundtrip_err="),
    "xi0": ('[problem]\ncommand = xi0\ngamma = 0.2857142857142857\nkprime0 = 0.5\n'
            '[functions]\nf = "t^2.5*ln(1+t)^3"\n', "xi0="),
    "chi": ("[problem]\ncommand = chi\nrho = 2\nzeta = 3\ntheta = 1\nell_star = -1\n"
            "c_tilde = 0.5\n", "chi=-0.25"),
    "solve-system": ('[problem]\ncommand = solve-system\nN = 4\nR = 100\n[functions]\n'
                     'p = "(1+t^2)^(-2)"\nq = "(1+t^2)^(-2)"\nf = "t^0.5"\ng = "t^0.5"\n'
                     "[numerics]\nmesh_points = 1024\n", "classification=bounded"),
    "eigen": ("[problem]\ncommand = eigen\nN = 3\n", "lambda1=9.8696044"),
    "lef": ('[problem]\ncommand = lef\nN = 3\ngeometry = ball\nlambda = 3\n[functions]\n'
            'f = "exp(t)"\n', "center_value=0.958422380442605"),
    "lef-fold": ('[problem]\ncommand = lef\nN = 1\ngeometry = ball\nlambda = 0.9\n'
                 '[functions]\nf = "exp(t)"\n', "lambda_star=0.87845"),
    "sweep": ('[problem]\ncommand = sweep\nN = 1\ngeometry = ball\nlambda_grid = 0.5, 0.9\n'
              '[functions]\nf = "exp(t)"\n', "lambda_star_bracket=[0.5,0.9]"),
    "gelfand": ('[problem]\ncommand = gelfand\nlambda = 2.5\nmu = 2\n[functions]\n'
                'g = "2+t^(-0.5)"\n', "solvable=false"),
    "young": ("[problem]\ncommand = young\na = 0\np = 1.5\ngeometry = interval\n", "C=1"),
}


@pytest.mark.parametrize("name", sorted(_COMMANDS_WITHOUT_SCIPY))
def test_the_command_runs_without_scipy(tmp_path, name):
    config, token = _COMMANDS_WITHOUT_SCIPY[name]
    assert f" {token}" in _run_blocked(tmp_path, name, config)


def test_rate_runs_without_scipy(tmp_path):
    _run_blocked(tmp_path, "blowup", _readme_headline())
    config = ("[problem]\ncommand = rate\nsolution = {}\nk_alpha = 1.0\nnu = 1.0\nc = 1.0\n"
              '[functions]\nf = "t^3"\n[numerics]\ngrid_depth = 14\n')
    out = _run_blocked(tmp_path, "rate", config.format(tmp_path / "blowup" / "solution.csv"))
    assert " limit=0.99999" in out


def test_the_command_table_has_no_other_command():
    from sel_lab.cli import _COMMANDS

    covered = {name.split("-fold")[0] for name in _COMMANDS_WITHOUT_SCIPY} | {"rate"}
    assert set(_COMMANDS) - covered == {"solve-entire"}
