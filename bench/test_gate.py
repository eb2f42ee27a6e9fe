"""Checks of the benchmark's own gate and tracer.

    python3 -m pytest bench/test_gate.py -q

Run from the repository root.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first_envelope_task(tmp_path, fault=None):
    wl = workloads.build("envelopes", 1, str(tmp_path), fault=fault)
    return next(t for t in wl.tasks if t.kind == "envelope")


def test_envelope_task_passes_its_gate(tmp_path):
    _, _, reason = report._execute(_first_envelope_task(tmp_path))
    assert reason is None


def test_inflated_gamma_counts_the_task_as_failed(tmp_path):
    # The fault verification's 'inflate-gamma' injects: gamma times 10.
    task = _first_envelope_task(tmp_path, fault="inflate-gamma")
    res = report.Result()
    _, out, reason = report._execute(task)
    res.record(task, out, reason)
    assert reason is not None and "envelope broken" in reason
    assert (res.attempted, res.failed) == (1, 1)


def test_failed_run_is_counted_not_raised():
    def boom():
        raise ValueError("bad input")

    task = workloads.Task("probe", boom, lambda r: None)
    _, _, reason = report._execute(task)
    assert reason == "raised ValueError: bad input"


def test_tracer_spans_self_time_and_restores_names(tmp_path):
    from fracdyn import caputo_solver as cs
    from fracdyn import field_expr as fe
    from fracdyn import scalar_analysis as sa

    original_solve = sa.solve_pece
    original_compiled = fe.FieldDef.compiled
    wl = workloads.build("ensemble", 1, str(tmp_path))
    task = next(t for t in wl.tasks if t.kind == "backward")
    tracer = tracing.Tracer()
    _, _, reason = report._execute(task, tracer, task_id=7)
    assert reason is None
    assert sa.solve_pece is original_solve and cs.solve_pece is original_solve
    assert fe.FieldDef.compiled is original_compiled

    busy, self_s, by_name = tracer.layer_metrics()
    names = {s["name"] for s in tracer.span_records()}
    assert {"find_zeros", "scan_zeros", "backward_extend", "solve_pece"} <= names
    assert all(s["task"] == 7 for s in tracer.span_records())
    # backward_extend's solves are its children: its self time excludes them.
    assert 0.0 < self_s["scalar_analysis"] < busy["scalar_analysis"]
    assert busy["caputo_solver"] == pytest.approx(self_s["caputo_solver"])
    solver = tracer.solver_metrics()
    assert solver["caputo_solver.solves"][0] > 10
    assert 1.0 < solver["field_expr.evals_per_step"][0] <= 11.0
    assert tracer.evals[0] > 0 and sum(tracer.ml_calls.values()) == 0


def test_ml_calls_are_banded():
    from fracdyn import mittag_leffler as mlf

    tracer = tracing.Tracer()
    tracer.install()
    try:
        mlf.ml(0.5, 1.0, -1.0)
        mlf.ml(0.5, 1.0, -40.0)
        mlf.ml_decay(0.97, 1.0, 10.0)  # z = -10^0.97, about -9.3
    finally:
        tracer.uninstall()
    assert tracer.ml_calls == {"z_small": 1, "z_large": 1, "alpha_high": 1}
