"""Per-layer tracing by rebinding the names fracdyn's modules hold.

``Tracer.install`` replaces each layer's public entry points, in every
loaded ``fracdyn`` module that holds them, with wrappers that record a span
(layer, name, start, end, parent, task id).  Per-point callables get no
spans: the components returned by ``FieldDef.compiled()`` are counted, and
``ml_eval`` calls are counted and timed per input band.  ``uninstall``
restores every original, so untraced code runs with no wrapper at all.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

from fracdyn import caputo_solver as cs
from fracdyn import field_expr as fe
from fracdyn import mittag_leffler as mlf

# Coarse public entry points per layer (module name under fracdyn).
SPANNED = {
    "caputo_solver": ("solve_pece", "solve_svie", "convergence_order"),
    "scalar_analysis": (
        "check_h1", "scan_zeros", "find_zeros", "attractor_interval",
        "gamma_rate_constant", "envelope_check", "lower_bound_check",
        "default_lipschitz_bound", "classify_limit", "rate_fit",
        "backward_extend", "heteroclinic_orbit",
    ),
    "triangular_systems": ("validate_triangular", "product_attractor", "componentwise_limits"),
    "bifurcation": ("sweep", "classify", "divergence_check"),
    "function_space_semigroup": ("rho", "apply_T", "semigroup_defect", "state_space_defect"),
    "cli": ("main",),
}
LAYERS = ("field_expr", "caputo_solver", "mittag_leffler", "scalar_analysis",
          "triangular_systems", "bifurcation", "function_space_semigroup", "cli")
ML_BANDS = ("z_small", "z_large", "alpha_high")
# Scalar solves binned by grid size for the per-step cost.
STEP_BINS = {"n1e4": (5_000, 20_000), "n1e5": (50_000, 200_000)}

# Span record fields
LAYER, NAME, START, END, PARENT, TASK, CHILD_S, ML_S = range(8)


def ml_band(alpha, z):
    if abs(z) <= 5.0 or z > 0.0:
        return "z_small"
    return "alpha_high" if alpha > 0.95 else "z_large"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.evals = [0]  # one cell, bumped by every counted field component
        self.ml_calls = dict.fromkeys(ML_BANDS, 0)
        self.ml_s = dict.fromkeys(ML_BANDS, 0.0)
        self.ml_errors = 0
        self.solves = []  # (n_grid, dim, steps, seconds, evals, iters, residual, escaped)
        self._rebinds = None
        self._installed = False
        self._counted = {}  # id(original list) -> (original list, counted list)

    # -- recording ---------------------------------------------------------

    def _open(self, layer, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self.task, 0.0, 0.0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    def _span(self, layer, name, fn):
        tracer = self
        is_solve = layer == "caputo_solver" and name in ("solve_pece", "solve_svie")

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            evals0 = tracer.evals[0]
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if is_solve:
                tracer._record_solve(result, tracer.spans[idx], tracer.evals[0] - evals0)
            return result

        return wrapped

    def _record_solve(self, traj, span, evals):
        n_grid = len(traj.times) - 1
        steps = traj.escape_index if traj.escape_index is not None else n_grid
        seconds = span[END] - span[START]
        self.solves.append((n_grid, traj.states.shape[1], steps, seconds, evals,
                            traj.meta.corrector_iterations, traj.meta.max_residual,
                            traj.escape_index is not None))

    def _timed_ml(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(q):
            t0 = time.perf_counter()
            try:
                return fn(q)
            except Exception:
                tracer.ml_errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                band = ml_band(q.alpha, q.z)
                tracer.ml_calls[band] += 1
                tracer.ml_s[band] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][ML_S] += dt

        return wrapped

    def _counted_compiled(self, original):
        tracer = self
        cell = self.evals

        def counted(fn):
            def component(s, p):
                cell[0] += 1
                return fn(s, p)

            return component

        def compiled(fld):
            fns = original(fld)
            hit = tracer._counted.get(id(fns))
            if hit is None or hit[0] is not fns:
                hit = (fns, [counted(fn) for fn in fns])
                tracer._counted[id(fns)] = hit
            return hit[1]

        return compiled

    # -- install / uninstall ---------------------------------------------

    def _plan(self):
        """(object, attribute, original, wrapper) for every name to rebind."""
        wrappers = {}
        for layer, names in SPANNED.items():
            mod = sys.modules["fracdyn." + layer]
            for name in names:
                original = getattr(mod, name)
                wrappers[id(original)] = (original, self._span(layer, name, original))
        wrappers[id(mlf.ml_eval)] = (mlf.ml_eval, self._timed_ml(mlf.ml_eval))
        plan = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracdyn" or mod_name.startswith("fracdyn.")):
                continue
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((mod, attr, value, hit[1]))
        original = fe.FieldDef.compiled
        plan.append((fe.FieldDef, "compiled", original, self._counted_compiled(original)))
        return plan

    def install(self, task=None):
        self.task = task
        if self._installed:
            return
        if self._rebinds is None:
            self._rebinds = self._plan()
        for obj, attr, _, wrapper in self._rebinds:
            setattr(obj, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for obj, attr, original, _ in reversed(self._rebinds or ()):
            setattr(obj, attr, original)
        self._installed = False
        self.task = None

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self):
        """busy_s (outermost spans of the layer) and self_s per layer."""
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        for span in self.spans:
            dur = span[END] - span[START]
            layer = span[LAYER]
            self_s[layer] += dur - span[CHILD_S] - span[ML_S]
            by_name[span[NAME]] = by_name.get(span[NAME], 0.0) + dur
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][LAYER] != layer:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                busy[layer] += dur
        busy["mittag_leffler"] = self_s["mittag_leffler"] = sum(self.ml_s.values())
        return busy, self_s, by_name

    def solver_metrics(self):
        """name -> (value, unit) for the solver and its field evaluations."""
        # A solve that escapes records the blow-up step's residual, so the
        # corrector's figures cover the solves that stayed bounded.
        bounded = [s for s in self.solves if not s[7]]
        field_evals = sum(s[4] for s in self.solves)
        point_steps = sum(s[2] * s[1] for s in self.solves)
        out = {
            "caputo_solver.solves": (len(self.solves), "count"),
            "caputo_solver.steps": (sum(s[2] for s in self.solves), "count"),
            "caputo_solver.escapes": (len(self.solves) - len(bounded), "count"),
            "caputo_solver.capped_solves": (
                sum(1 for s in bounded if s[5] >= cs.CORRECTOR_MAX_ITER), "count"),
            "caputo_solver.unconverged_solves": (
                sum(1 for s in bounded if s[6] > cs.CORRECTOR_TOL), "count"),
            "caputo_solver.max_residual": (max((s[6] for s in bounded), default=0.0), "1"),
            "field_expr.evals_per_step": (
                field_evals / point_steps if point_steps else 0.0, "evals/step"),
        }
        for label, (lo, hi) in STEP_BINS.items():
            picked = [s for s in self.solves if s[1] == 1 and lo <= s[0] < hi and s[2]]
            secs = sum(s[3] for s in picked)
            steps = sum(s[2] for s in picked)
            out[f"caputo_solver.step_us.{label}"] = (1e6 * secs / steps if steps else 0.0, "us")
        return out

    def span_records(self):
        return [
            {"layer": s[LAYER], "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "task": s[TASK]}
            for s in self.spans
        ]
