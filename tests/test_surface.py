"""The package exports what a sel-lab command or a bench workload calls.

Reads the source as text: every function `sel_lab` exports is called in
`src/sel_lab/` outside its own definition, or in `bench/workloads.py`.
A helper only the tests call belongs in `tests/reference.py`.
"""

import inspect
import re
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
