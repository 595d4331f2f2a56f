"""The package exports what a sel-lab command or a bench workload calls,
and its numbers do not depend on the BLAS kernel.

Reads the source as text: every function `sel_lab` exports is called in
`src/sel_lab/` outside its own definition, or in `bench/workloads.py`.
A helper only the tests call belongs in `tests/reference.py`.  The tail
fits, the quadrature and the profile make no BLAS or LAPACK call, and
no module loads scipy.interpolate.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sel_lab

ROOT = Path(__file__).resolve().parents[1]
EXPORTED = sorted(name for name, obj in vars(sel_lab).items() if inspect.isfunction(obj))


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_function_has_a_caller(name):
    # the text of each module without the top-level `def name(...)` block
    texts = [re.sub(rf"^def {name}\(.*?(?=^\S)", "", path.read_text() + "\n#", flags=re.M | re.S)
             for path in (ROOT / "src" / "sel_lab").glob("*.py")]
    texts.append((ROOT / "bench" / "workloads.py").read_text())
    call = re.compile(rf"(?<!def )\b{name}\(")
    assert any(call.search(text) for text in texts), f"sel_lab.{name} has no caller"


def test_the_exports_are_read():
    assert {"build_profile", "classify_tail_integral", "solve_lef"} <= set(EXPORTED)


@pytest.mark.parametrize("module", ["numerics", "karamata", "profile"])
def test_no_blas_or_lapack_call(module):
    # the tail fits, the quadrature's estimates and the profile give the same
    # bytes on every BLAS kernel: no matrix product and no LAPACK solver
    text = (ROOT / "src" / "sel_lab" / f"{module}.py").read_text()
    found = re.findall(r" @ |np\.linalg|np\.dot|matmul|einsum", text)
    assert not found, f"{module}.py calls {found}"


def test_no_scipy_interpolate():
    for path in (ROOT / "src" / "sel_lab").glob("*.py"):
        assert "scipy.interpolate" not in path.read_text(), path.name


def test_the_cli_does_not_load_scipy_interpolate():
    code = "import sel_lab.cli, sys; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
