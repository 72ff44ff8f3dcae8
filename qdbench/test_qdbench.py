"""Tests of the benchmark's reference values, output checks and tracing.

    PYTHONPATH=src python -m pytest -q qdbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qdecoy  # noqa: E402
import qdecoy.cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _run(argv: list[str]) -> checks.Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qdecoy.cli.main(argv)
    return checks.Result(rc, out.getvalue(), err.getvalue())


def _shift(res: checks.Result, key: str, delta: float) -> checks.Result:
    obj = json.loads(res.stdout)
    obj[key] += delta
    return checks.Result(res.rc, json.dumps(obj), res.stderr)


def test_reference_probabilistic_family():
    a = reference.probabilistic_kraus(2, 0.5)
    assert reference.completeness_residual(a) < 1e-15
    assert reference.estimation_fidelity(a) == pytest.approx(0.75, abs=1e-15)
    assert reference.disturbance(a) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 16, 50])
def test_reference_bound_endpoints(n):
    assert reference.bound(1.0 / n, n) == pytest.approx(0.0, abs=1e-15)
    assert reference.bound(1.0, n) == pytest.approx(0.5 - 1.0 / (2 * n), abs=1e-15)


def test_reference_matches_saturating_family_closed_form():
    n, g = 4, 0.6
    a = reference.kraus_stack(qdecoy.optimal_attack(n, g).ops)
    assert reference.estimation_fidelity(a) == pytest.approx(g, abs=1e-12)
    assert reference.disturbance(a) == pytest.approx(reference.bound(g, n), abs=1e-12)


def test_simulate_check_passes_and_catches_a_shift_in_d():
    desc = "random(n=3,seed=5)"
    res = _run(["simulate", "--attack", desc, "--shots", "2000", "--seed", "7"])
    assert checks.check_simulate(res, desc, 2000, 7) == []
    assert checks.check_simulate(_shift(res, "d_analytic", 1e-3), desc, 2000, 7)
    assert checks.check_simulate(_shift(res, "d_hat", 1.0), desc, 2000, 7)


def test_optimize_check_passes_and_catches_a_shift_in_d():
    res = _run(["optimize", "--n", "3", "--g", "0.6", "--restarts", "2", "--seed", "1"])
    assert checks.check_optimize(res, 3, 0.6) == []
    assert checks.check_optimize(_shift(res, "d", 1e-3), 3, 0.6)
    assert checks.check_optimize(_shift(res, "d", -1e-3), 3, 0.6)


def test_verify_check_passes_and_catches_a_negative_margin():
    res = _run(["verify", "--n", "2", "--trials", "5", "--seed", "3"])
    assert checks.check_verify(res, 2, 5, 3) == []
    lines = res.stdout.splitlines()
    bad = [line.replace(line.rpartition(": ")[2], "-1.000000e-03") if line.startswith("min margin (named") else line
           for line in lines]
    assert checks.check_verify(checks.Result(0, "\n".join(bad), ""), 2, 5, 3)


@pytest.mark.parametrize("rc", [1, 2, None])
def test_nonzero_exit_is_a_failure(rc):
    res = _run(["optimize", "--n", "3", "--g", "0.6", "--restarts", "1", "--seed", "1"])
    assert checks.check_optimize(checks.Result(rc, res.stdout, "error: boom\n"), 3, 0.6)
    ver = _run(["verify", "--n", "2", "--seed", "1"])
    assert checks.check_verify(checks.Result(rc, ver.stdout, ""), 2, 0, 1)


def test_spans_account_for_the_whole_command_and_are_removed_after():
    original = qdecoy.cli.attack_point
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert qdecoy.cli.attack_point is not original
        with tracer.span(tracing.ROOT):
            assert _run(["verify", "--n", "2", "--trials", "3", "--seed", "1"]).rc == 0
    assert qdecoy.cli.attack_point is original
    assert sum(tracer.self_ns.values()) == tracer.total_ns[tracing.ROOT]
    assert tracer.counts["tradeoff.certified"] > 3
    metrics = tracer.layer_metrics(1)
    assert metrics["tradeoff.attack_point_s"]["value"] > 0
    assert metrics["choi.bytes_computed"]["value"] > 0


def _part(oks: list[bool]) -> tuple[int, dict]:
    """One workload process's result: a warm-up plus timed ops of 0.1 s, 0.2 s, ..."""
    ops = [[i, 0.1 * i, ok] for i, ok in enumerate([True, *oks])]
    return 0, {"ready_ns": 10**9, "attempted": len(ops), "failed": [ok for *_, ok in ops].count(False),
               "ops": ops, "elapsed_s": sum(t for _, t, _ in ops[1:]), "peak_rss_mb": 80.0}


def test_run_with_a_failed_operation_is_not_correct_and_reports_no_metrics():
    res = run.result("montecarlo", False, [_part([True, True]), _part([True, False])])
    assert res == {"correct": False, "attempted": 6, "failed": 1, "metrics": {}}
    traced = run.result("montecarlo", True, [_part([False])])
    assert not traced["correct"] and traced["metrics"] == {}


def test_run_without_failures_reports_every_end_to_end_metric():
    res = run.result("montecarlo", False, [_part([True, True]), _part([True])])
    assert res["correct"] and (res["attempted"], res["failed"]) == (5, 0)
    assert res["metrics"]["op_p50_ms"]["value"] == pytest.approx(100.0)
    assert res["metrics"]["items_per_s"]["value"] == pytest.approx(3 * 100_000 / 0.4)
    assert res["metrics"]["setup_s"]["value"] == pytest.approx(1.0)


@pytest.mark.parametrize("module_name, attr, span", tracing.TARGETS)
def test_every_tracing_target_exists(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))
    assert span in tracing.SPANS


def test_a_missing_tracing_target_fails_and_restores_the_others(monkeypatch):
    original = qdecoy.cli.attack_point
    monkeypatch.setattr(tracing, "TARGETS", (*tracing.TARGETS, ("qdecoy.cli", "no_such_layer", "cli")))
    with pytest.raises(AttributeError, match="no_such_layer"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert qdecoy.cli.attack_point is original
