"""The one-pass CSV writer against the row-wise writer it replaced.

`reference_csv` is that writer, kept as the reference: every value that is
not a string goes through `fmt` on its own.  `write_csv` must write the
same bytes for every table, and so must every CSV-writing command.
"""

import math
import os

import numpy as np
import pytest

from sel_lab import bifurcation, cli, profile, radial
from sel_lab.ioutil import fmt, write_csv


def reference_csv(header, rows, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(v if isinstance(v, str) else fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def written(path):
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def assert_same_text(got, want):
    """Equal texts; on a mismatch, the first line that differs (a full diff
    of a 100,000-line table would take minutes)."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for number, (ours, theirs) in enumerate(zip(got_lines, want_lines), start=1):
        assert ours == theirs, f"line {number}"
    assert len(got_lines) == len(want_lines)


EDGE_VALUES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0]


class TestWriteCsv:
    def check(self, tmp_path, header, columns, comments=()):
        path = tmp_path / "table.csv"
        write_csv(path, header, columns, comments)
        rows = zip(*columns) if columns else ()
        assert_same_text(written(path), reference_csv(header, rows, comments))

    def test_edge_floats(self, tmp_path):
        column = np.array(EDGE_VALUES)
        self.check(tmp_path, "x,y", (column, column[::-1].tolist()), ["edge=1"])

    def test_random_doubles(self, tmp_path):
        # every bit pattern is a double: normal, subnormal, inf and nan payloads
        bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000, dtype=np.uint64)
        doubles = bits.view(np.float64)
        self.check(tmp_path, "a,b", (doubles[:100_000], doubles[100_000:]))

    def test_integers_and_numpy_scalars(self, tmp_path):
        ints = [0, 1, -7, 2**53 + 1, 10**20, True]
        self.check(tmp_path, "i,n,f32", (ints, np.array([0, 1, -7, 2**53 + 1, 5, 9]),
                                         np.array(EDGE_VALUES[:6], dtype=np.float32)))

    def test_string_column(self, tmp_path):
        self.check(tmp_path, "lambda,status,value",
                   ([0.5, 1.0, 2.0], ("solved", "no-solution", "failed"), [1.5, math.nan, -0.0]))

    def test_zero_rows_and_comments(self, tmp_path):
        self.check(tmp_path, "r,u", (np.array([]), np.array([])), ["classification=bounded",
                                                                   "dimension=3"])
        self.check(tmp_path, "s,zero_location", ())

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "t.csv", "a,b", ([1.0, 2.0], [1.0]))
        assert not os.path.exists(tmp_path / "t.csv")

    def test_a_string_in_a_number_column_is_refused(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", "a", ([1.0, "solved"],))


# The rows the writers built before they passed columns, one per artifact.
def eigen_reference(eig):
    return reference_csv("r,phi", zip(eig.r, eig.phi), [f"lambda1={fmt(eig.lambda1)}"])


def solution_reference(sol):
    cols = [("r", sol.r), ("u", sol.u)]
    if sol.v is not None:
        cols.append(("v", np.asarray(sol.v, dtype=float)))
    if sol.du is not None:
        cols.append(("u_prime", np.asarray(sol.du, dtype=float)))
    comments = [f"classification={sol.classification}"]
    if sol.blowup_radius is not None:
        comments.append(f"blowup_radius={sol.blowup_radius!r}")
    comments.append(f"dimension={sol.dimension}")
    if "b_normalization" in sol.metadata:
        comments.append(f"b_normalization={sol.metadata['b_normalization']}")
    return reference_csv(",".join(name for name, _ in cols), zip(*(col for _, col in cols)),
                         comments)


def probes_reference(sol):
    return reference_csv("s,zero_location", sol.metadata["probe_table"])


def sweep_reference(diagram):
    return reference_csv(
        "lambda,status,sup_norm,center_value",
        ((lam, st, math.nan if sn is None else sn, math.nan if cv is None else cv)
         for lam, st, sn, cv in zip(diagram.lam, diagram.status, diagram.sup_norm,
                                    diagram.center_value)))


def profile_reference(prof):
    return reference_csv("t,h,h_prime",
                         ((ti, prof.h_at(float(ti)), prof.h_prime(float(ti))) for ti in prof.t),
                         [f"variant={prof.variant}"])


def rate_reference(rate):
    return reference_csv("d,ratio_h,ratio_xi0h",
                         zip(rate.d.tolist(), rate.ratio_h.tolist(), rate.ratio_xi0h.tolist()))


def capture(monkeypatch, module, name):
    """Record every result of module.name while the CLI calls it."""
    results = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


BLOWUP = """[problem]
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
"""

COMMANDS = {
    "eigen": ("[problem]\ncommand = eigen\nN = 3\nR = 2\n",
              bifurcation, "lambda1_ball", "eigen.csv", eigen_reference),
    "lef": ("[problem]\ncommand = lef\nN = 1\ngeometry = interval\n"
            f"lambda = {1.2 * math.pi**2}\n"
            '[functions]\nf = "t"\ng = "t^(-1/2)"\na = "1"\n',
            bifurcation, "solve_lef", "lef_probes.csv", probes_reference),
    "sweep": ("[problem]\ncommand = sweep\nN = 1\ngeometry = interval\nlambda_grid = "
              + ", ".join(repr(c * math.pi**2) for c in (0.5, 0.95, 1.05))
              + '\n[functions]\nf = "t"\ng = "t^(-1/2)"\na = "1"\n',
              bifurcation, "sweep", "sweep.csv", sweep_reference),
    "blowup": (BLOWUP, radial, "boundary_blowup", "blowup.csv", solution_reference),
    "profile": ('[problem]\ncommand = profile\nk_alpha = 1.0\n[functions]\nf = "t^3"\n'
                "[numerics]\ngrid_depth = 10\n",
                profile, "build_profile", "profile.csv", profile_reference),
    "gelfand": ("[problem]\ncommand = gelfand\nlambda = 0.5\nmu = 1.0\nN = 1\n"
                'geometry = interval\nsolve = true\n[functions]\ng = "exp(-t)"\n',
                bifurcation, "gelfand_transform", "gelfand.csv", solution_reference),
}


def run(tmp_path, text, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    return cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_artifact_bytes(tmp_path, monkeypatch, capsys, command):
    text, module, name, csv, reference = COMMANDS[command]
    results = capture(monkeypatch, module, name)
    assert run(tmp_path, text, command) == 0
    assert len(results) == 1
    assert_same_text(written(tmp_path / "out" / csv), reference(results[0]))


def test_rate_reads_back_the_blowup_csv_bit_for_bit(tmp_path, monkeypatch, capsys):
    solutions = capture(monkeypatch, radial, "boundary_blowup")
    rates = capture(monkeypatch, radial, "measure_boundary_rate")
    assert run(tmp_path, BLOWUP, "blowup") == 0
    assert run(tmp_path, '[problem]\ncommand = rate\nsolution = blowup.csv\nk_alpha = 1.0\n'
               '[functions]\nf = "t^3"\n[numerics]\ngrid_depth = 14\n', "rate") == 0
    (sol,), (rate,) = solutions, rates
    assert_same_text(written(tmp_path / "out" / "rate.csv"), rate_reference(rate))
    back = cli._read_solution_csv(tmp_path / "out" / "blowup.csv")
    for name in ("r", "u"):
        ours, theirs = getattr(sol, name), getattr(back, name)
        assert ours.dtype == theirs.dtype == np.float64
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), name
    assert sol.du is back.du is None and sol.v is back.v is None
    assert (back.classification, back.dimension, back.blowup_radius) == (
        sol.classification, sol.dimension, sol.blowup_radius)
    assert back.metadata["b_normalization"] == sol.metadata["b_normalization"]
