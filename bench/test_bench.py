"""Tests of the benchmark itself: generators, oracles, failure accounting, tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.generate(workload, 7, 6)
    assert first == workloads.generate(workload, 7, 6)
    assert first != workloads.generate(workload, 8, 6)
    assert [item.family for block in first for item in block] == \
        list(workloads.WORKLOADS[workload]) * 6


def test_generated_items_stay_outside_the_oracle_margins():
    for block in workloads.generate("lef-verdicts", 3, 50):
        for item in block:
            p = item.params
            if item.family == "singular":
                assert abs(p["kappa"] - 1.0) > oracles.THRESHOLD_MARGIN - 1e-12
            elif item.family == "gelfand":
                assert not oracles.near_threshold(p["lam"] * p["mu"], p["lambda1"])
            else:
                assert not oracles.near_threshold(p["lam"], math.pi ** 2)


def test_oracles_reproduce_the_acceptance_values():
    pi2 = math.pi ** 2
    assert oracles.lambda1(1, 1.0, "ball") == pytest.approx(pi2 / 4.0, rel=1e-13)
    assert oracles.lambda1(1, 1.0, "interval") == pytest.approx(pi2, rel=1e-15)
    assert oracles.lambda1(3, 1.0, "ball") == pytest.approx(pi2, rel=1e-13)
    assert abs(oracles.lambda1(2, 1.0, "ball") - 5.7831859629) <= 1e-9
    assert oracles.lambda_star(oracles.lambda1(1, 1.0, "interval"), 1.0) == \
        pytest.approx(pi2, rel=1e-15)
    assert oracles.blowup_rate_constant(3.0, 1.0) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert oracles.lambda1(3, 2.0) == pytest.approx(pi2 / 4.0, rel=1e-13)


def test_verdict_oracles():
    assert oracles.gelfand_verdict(1.0, 9.0, 0.0, math.pi ** 2) == oracles.BOUNDED
    assert oracles.gelfand_verdict(2.0, 9.0, 0.0, math.pi ** 2) == oracles.NO_SOLUTION
    assert oracles.keller_osserman_verdict(1.0, 4.0) == oracles.CONVERGENT  # t ln(1+t)^4
    assert oracles.keller_osserman_verdict(1.0, 1.0) == oracles.DIVERGENT  # t ln(1+t)
    assert oracles.tail_integral(3.0) == (oracles.CONVERGENT, 0.5)
    assert oracles.origin_integral(0.5) == (oracles.CONVERGENT, 2.0)
    assert oracles.dichotomy_verdict(4.0) == oracles.BOUNDED
    assert oracles.dichotomy_verdict(0.0) == oracles.ENTIRE_LARGE
    assert oracles.power_growth(3.0) == {"theta": 3.0, "gamma": 0.25, "rho": 2.0}


def _planted(solve, agrees=lambda expect, outcome: True):
    return workloads.Family(0, 0, None, None, solve, agrees)


def test_planted_wrong_verdict_and_planted_exception_raise_failed_frac(tmp_path):
    ctx = workloads.Context(str(tmp_path))
    item = workloads.Item(0, "planted", {}, {"verdict": oracles.BOUNDED})
    right = _planted(lambda i, c: workloads.Outcome(oracles.BOUNDED),
                     workloads.FAMILIES["linear"].agrees)
    wrong = _planted(lambda i, c: workloads.Outcome(oracles.NO_SOLUTION),
                     workloads.FAMILIES["linear"].agrees)

    def boom(item, ctx):
        raise ValueError("planted")

    rows = [workloads.run_item(item, ctx, right) for _ in range(4)]
    base = run.end_to_end(rows, 1.0, 75)
    assert base["failed_frac"] == 0.0

    with_wrong = run.end_to_end(rows + [workloads.run_item(item, ctx, wrong)], 1.0, 75)
    raised = workloads.run_item(item, ctx, _planted(boom))
    with_raise = run.end_to_end(rows + [raised], 1.0, 75)
    assert with_wrong["failed_frac"] == pytest.approx(0.2)
    assert with_raise["failed_frac"] == pytest.approx(0.2)
    assert raised.error == "ValueError: planted"
    # a failed item is infinitely slow
    assert run.end_to_end([raised] * 3 + rows[:1], 1.0, 75)["verdict_p50_s"] == math.inf


def test_item_time_is_scaled_to_reference_host_speed(tmp_path, monkeypatch):
    assert run.host_slowness() > 0.0
    monkeypatch.setattr(run, "host_slowness", lambda: 2.0)
    item = workloads.generate("growth-picard", 1, 1)[0][-1]
    (row,), wall = run._timed([item], workloads.Context(str(tmp_path)))
    assert row.host_slowness == 2.0 and wall == row.wall_seconds
    assert row.seconds == row.wall_seconds / 2.0


def test_real_item_checks_against_its_oracle(tmp_path):
    ctx = workloads.Context(str(tmp_path))
    item = workloads.generate("growth-picard", 1, 1)[0][-1]
    assert item.family == "integrals"
    row = workloads.run_item(item, ctx)
    assert row.ok and row.error is None


def test_tracer_restores_every_original_and_keeps_outputs():
    import sel_lab
    from sel_lab import numerics, radial

    originals = (numerics.classify_tail_integral, radial.classify_tail_integral,
                 sel_lab.classify_tail_integral, numerics.quad)
    fn = sel_lab.ScalarFn.from_source("t^(-2)").fast()
    plain = numerics.classify_tail_integral(fn, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert radial.classify_tail_integral is numerics.classify_tail_integral
        traced = numerics.classify_tail_integral(fn, 1.0)
    finally:
        tracer.restore()
    assert (numerics.classify_tail_integral, radial.classify_tail_integral,
            sel_lab.classify_tail_integral, numerics.quad) == originals
    assert traced == plain
    names = {tracer.names[i] for i in tracer.name_id}
    assert "numerics.classify_tail_integral" in names
    assert "numerics.quad" in names
    assert all(s >= 0.0 for s in tracer.self_times())
