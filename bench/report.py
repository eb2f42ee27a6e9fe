"""Timed passes, metrics and the run report for ``run.py``."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

import tracing
from speed import SpeedProbe

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
EVAL_NS_REPEATS = 200


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    stiff: int = 0
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def record(self, task, result, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{task.kind}: {reason}")
        elif task.stiffness is not None and task.stiffness(result) > 1.0:
            self.stiff += 1


def _execute(task, tracer=None, task_id=None):
    """Run one task (traced if a tracer is given), then its gate.

    Returns (start and seconds of the run alone, result, failure reason or None).
    """
    if tracer is not None:
        tracer.install(task_id)
    t0 = time.perf_counter()
    try:
        result = task.run()
        reason = None
    except Exception as exc:  # a failed task is counted, the run goes on
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if reason is None:
        try:
            reason = task.check(result)
        except Exception as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
    return (t0, seconds), result, reason


def _passes(seconds, run_pass):
    """Run passes while another one fits in the time budget; at least one."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def untraced_run(wl, seconds, setup_samples):
    """End-to-end metrics; times are scaled to nominal host speed (speed.py)."""
    res = Result()
    latencies = []  # (scaled seconds, ok) per task execution
    pass_walls = []
    raw = [0.0]

    def run_pass():
        wall = 0.0
        for task in wl.tasks:
            (t0, sec), out, reason = _execute(task)
            res.record(task, out, reason)
            raw[0] += sec
            sec = probe.scaled(t0, sec)
            latencies.append((sec, reason is None))
            wall += sec
        pass_walls.append(wall)

    with SpeedProbe() as probe:
        _passes(seconds, run_pass)
    # A failed task misses any latency limit: rank it as slow as a whole pass.
    worst = max(pass_walls)
    lat_ms = [1e3 * (sec if ok else worst) for sec, ok in latencies]
    p50, p90 = np.percentile(lat_ms, [50, 90])
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_walls),
        "task_p50_ms": p50,
        "task_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    res.metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    res.extra = {
        "failed_frac": res.failed / res.attempted,
        "stiff_frac": res.stiff / res.attempted,
        "passes": len(pass_walls),
        "tasks_per_pass": len(wl.tasks),
        "pass_wall_s": pass_walls,
        "raw_task_s": raw[0],
        "host_speed": probe.speed(),
        "setup_samples_s": setup_samples,
        "compile_ms": wl.compile_ms,
    }
    return res


def _eval_ns(samples):
    """Calibrated cost of one compiled field component on the workload's fields."""
    count = 0
    t0 = time.perf_counter()
    for fn, params, states in samples:
        for _ in range(EVAL_NS_REPEATS):
            for s in states:
                fn(s, params)
        count += EVAL_NS_REPEATS * len(states)
    return 1e9 * (time.perf_counter() - t0) / count


def traced_run(wl, seconds):
    res = Result()
    tracer = tracing.Tracer()
    plain = [0.0]
    traced = [0.0]

    def run_pass():
        for i, task in enumerate(wl.tasks):
            (_, sec), out, reason = _execute(task)
            res.record(task, out, reason)
            plain[0] += sec
            (_, sec), out, reason = _execute(task, tracer, i)
            res.record(task, out, reason)
            traced[0] += sec

    _passes(seconds, run_pass)
    busy, self_s, by_name = tracer.layer_metrics()
    m = {}
    for layer in tracing.LAYERS:
        if layer in tracing.SPANNED:
            m[f"{layer}.busy_s"] = _metric(busy[layer], "s")
            m[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    for key, (value, unit) in tracer.solver_metrics().items():
        m[key] = _metric(value, unit)
    evals = tracer.evals[0]
    eval_ns = _eval_ns(wl.field_samples)
    m["field_expr.evals"] = _metric(evals, "count")
    m["field_expr.eval_ns"] = _metric(eval_ns, "ns")
    m["field_expr.est_s"] = _metric(evals * eval_ns * 1e-9, "s")
    m["field_expr.compile_ms"] = _metric(wl.compile_ms, "ms")
    ml_calls = sum(tracer.ml_calls.values())
    m["mittag_leffler.calls"] = _metric(ml_calls, "count")
    m["mittag_leffler.busy_s"] = _metric(busy["mittag_leffler"], "s")
    m["mittag_leffler.errors"] = _metric(tracer.ml_errors, "count")
    for band in tracing.ML_BANDS:
        n = tracer.ml_calls[band]
        m[f"mittag_leffler.calls.{band}"] = _metric(n, "count")
        m[f"mittag_leffler.call_us.{band}"] = _metric(
            1e6 * tracer.ml_s[band] / n if n else 0.0, "us")
    m["mittag_leffler.alpha_high_frac"] = _metric(
        tracer.ml_calls["alpha_high"] / ml_calls if ml_calls else 0.0, "1")
    m["scalar_analysis.scan_s"] = _metric(by_name.get("scan_zeros", 0.0), "s")
    m["scalar_analysis.envelope_s"] = _metric(
        by_name.get("envelope_check", 0.0) + by_name.get("lower_bound_check", 0.0), "s")
    m["scalar_analysis.backward_extend_s"] = _metric(by_name.get("backward_extend", 0.0), "s")
    m["workload.stiff_frac"] = _metric(res.stiff / res.attempted, "1")
    m["trace.overhead_frac"] = _metric(traced[0] / plain[0] - 1.0, "1")
    res.metrics = m
    res.extra = {
        "failed_frac": res.failed / res.attempted,
        "traced_s": traced[0],
        "untraced_s": plain[0],
        "spans": len(tracer.spans),
    }
    res.spans = tracer.span_records()
    return res


# ---------------------------------------------------------------------------
# Report


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed, root, thread_vars):
    import mpmath
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: os.environ.get(v) for v in thread_vars},
        "git_commit": _git_commit(root),
        "seed": seed,
        "platform": platform.platform(),
    }


def write(path, env, args, res):
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
        "extra": res.extra,
        "failures": res.failures,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if res.spans:
        spans_path = path.with_name(path.stem + "-spans.json")
        spans_path.write_text(json.dumps(res.spans) + "\n")


def print_summary(workload, env, res):
    print(json.dumps({"environment": env}))
    for name, m in res.metrics.items():
        print(f"{workload:>13} {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:>13} {'failed_frac':<42} {res.extra['failed_frac']:>14.6g} "
          f"1  ({res.failed} of {res.attempted} tasks)")
    for reason in res.failures:
        print(f"{workload:>13} FAILED {reason}")
