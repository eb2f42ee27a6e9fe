"""Fractional Adams predictor-corrector for Caputo initial value problems.

Solves the integral form

    x(t) = x0 + (1/Gamma(alpha)) * int_0^t (t-s)^(alpha-1) g(x(s)) ds

on a uniform grid by product integration (Diethelm, Ford & Freed 2002):
the predictor holds g constant on each step (rectangle rule), the corrector
takes g linear on each step (trapezoid rule) and is iterated as a fixed
point.  Both rules, and the memory integral of the function-space
semigroup, take their weights from one per-offset rule, `_weights`.  The
same recurrence with x0 replaced by a forcing function f(t_n) solves the
forced singular Volterra integral equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field_expr import FieldDef, eval_field

__all__ = [
    "CaputoProblem",
    "Trajectory",
    "SolverMeta",
    "solve_pece",
    "solve_svie",
    "convergence_order",
    "EXACT_ORDER",
]

ESCAPE_THRESHOLD = 1e8
MAX_GRID_POINTS = 10_000_000
CORRECTOR_TOL = 1e-12
CORRECTOR_MAX_ITER = 10

#: Sentinel returned by convergence_order when all errors are at rounding level.
EXACT_ORDER = "exact"


@dataclass(frozen=True)
class CaputoProblem:
    alpha: float
    fld: FieldDef
    params: tuple
    x0: tuple
    t_end: float
    dt: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.dt < self.t_end:
            raise ValueError(f"need 0 < dt < t_end, got dt={self.dt}, t_end={self.t_end}")
        if self.t_end / self.dt > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {self.t_end / self.dt:.3g} points exceeds the "
                f"{MAX_GRID_POINTS} budget"
            )
        if len(self.x0) != self.fld.dimension:
            raise ValueError(
                f"x0 has length {len(self.x0)}, field dimension is {self.fld.dimension}"
            )


@dataclass
class SolverMeta:
    corrector_iterations: int = 0
    max_residual: float = 0.0


@dataclass
class Trajectory:
    alpha: float
    times: np.ndarray
    states: np.ndarray  # (n_points, d)
    meta: SolverMeta = field(default_factory=SolverMeta)
    escape_index: int | None = None
    escape_sign: int = 0  # +-1 past +-ESCAPE_THRESHOLD, 0 when the field failed

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def endpoint(self):
        if self.escape_index is not None:
            return self.states[self.escape_index].copy()
        return self.states[-1].copy()

    def scalar(self):
        """Component-0 view for scalar problems."""
        return self.states[:, 0]


def _weights(alpha, n):
    """Product-integration weights of I^alpha on a unit grid, per offset k = 0..n.

    The one rule behind every memory integral here: with u the distance to
    the target time in steps, the step between offsets k-1 and k carries

        rect[k] = int_{k-1}^{k} u^(alpha-1) du,

    which g constant on the step multiplies, and for g linear on the step
    the split rect[k] = far[k] + near[k]: far[k] weights g at the node k
    steps back, near[k] at the node k-1 steps back.  Entry 0 is zero.
    Differences of powers are taken through expm1/log1p, so the relative
    error grows like k * eps rather than k^2 * eps.
    """
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1 is exact
        em = np.expm1(alpha * np.log1p(-1.0 / k))  # (1 - 1/k)^alpha - 1
    k_alpha = k**alpha
    rect = -k_alpha * em / alpha
    near = k_alpha * (-(k + alpha) * em - alpha) / (alpha * (alpha + 1.0))
    zero = np.zeros(1)
    return (np.concatenate((zero, rect)), np.concatenate((zero, rect - near)),
            np.concatenate((zero, near)))


def _pece_loop(alpha, fld, params, forcing, dt):
    """Shared predictor-corrector recurrence; forcing has shape (N+1, d).

    A step whose field fails (overflow, complex value) or whose state leaves
    +-ESCAPE_THRESHOLD escapes: the clamped state is held to the grid's end.
    """
    N, d = forcing.shape[0] - 1, forcing.shape[1]
    rect, far, near = _weights(alpha, max(N, 1))  # offset 1 holds the self-weight
    scale = dt**alpha / math.gamma(alpha)
    # Reversed so that step n reads contiguous slices: rrev[N - k] = rect[k] and
    # hrev[N - 1 - k] = far[k] + near[k + 1], the trapezoid weight of the node
    # k steps back, which is far of the step before it plus near of the step after.
    rrev = scale * rect[::-1]
    hrev = scale * (far[:-1] + near[1:])[::-1]
    far = scale * far
    w_self = scale * near[1]

    states = np.empty((N + 1, d))
    fvals = np.empty((N + 1, d))
    states[0] = forcing[0]
    meta = SolverMeta()
    escape_index = None
    escape_sign = 0
    params = tuple(params)
    eval_fns = fld.compiled()

    def evaluate(x):
        xs = x.tolist()  # plain floats are noticeably faster than numpy scalars
        # dtype=float turns a complex value (e.g. x^0.5 at x < 0) into TypeError.
        return np.asarray([fn(xs, params) for fn in eval_fns], dtype=float)

    eval_field(fld, states[0], params)  # FieldEvalError unless real and finite
    fvals[0] = evaluate(states[0])

    # Overflow on the way to an escape is expected; the escape check catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            # Node j of 0..n lies n + 1 - j steps behind the new node n + 1.
            x = forcing[n + 1] + rrev[N - n - 1 : N] @ fvals[: n + 1]
            base = (forcing[n + 1] + far[n + 1] * fvals[0]
                    + hrev[N - 1 - n : N - 1] @ fvals[1 : n + 1])
            residual = math.inf
            iters = 0
            try:
                for iters in range(1, CORRECTOR_MAX_ITER + 1):
                    x_new = base + w_self * evaluate(x)
                    residual = float(np.max(np.abs(x_new - x)))
                    x = x_new
                    if residual <= CORRECTOR_TOL:
                        break
                fvals[n + 1] = evaluate(x)
                meta.corrector_iterations = max(meta.corrector_iterations, iters)
                meta.max_residual = max(meta.max_residual, residual)
                escaped = not np.max(np.abs(x)) <= ESCAPE_THRESHOLD  # true for nan
            except (ArithmeticError, ValueError, TypeError):
                escaped = True
            if escaped:
                # nan takes the sign of the last state; +-inf clamps like any overflow.
                x = np.where(np.isnan(x), np.sign(states[n]) * ESCAPE_THRESHOLD, x)
                x = np.clip(x, -ESCAPE_THRESHOLD, ESCAPE_THRESHOLD)
                states[n + 1 :] = x
                escape_index = n + 1
                peak = x[int(np.argmax(np.abs(x)))]
                escape_sign = int(np.sign(peak)) if abs(peak) == ESCAPE_THRESHOLD else 0
                break
            states[n + 1] = x

    times = dt * np.arange(N + 1)
    return Trajectory(
        alpha, times, states, meta, escape_index=escape_index, escape_sign=escape_sign
    )


def solve_pece(p: CaputoProblem) -> Trajectory:
    """Solve the Caputo FDE with constant term x0 (integral form AIE)."""
    n_steps = int(round(p.t_end / p.dt))
    forcing = np.tile(np.asarray(p.x0, dtype=float), (n_steps + 1, 1))
    return _pece_loop(p.alpha, p.fld, p.params, forcing, p.dt)


def solve_svie(forcing, fld: FieldDef, params, alpha, t_end, dt) -> Trajectory:
    """Solve the forced singular Volterra equation x(t) = f(t) + I^alpha g(x).

    `forcing` is a SampledFunction (anything with .theta_grid and .values);
    it is resampled onto the solver grid by linear interpolation when the
    spacing differs.
    """
    n_steps = int(round(t_end / dt))
    times = dt * np.arange(n_steps + 1)
    grid = np.asarray(forcing.theta_grid, dtype=float)
    vals = np.atleast_2d(np.asarray(forcing.values, dtype=float))
    if vals.shape[0] != grid.shape[0]:
        vals = vals.T
    if grid[-1] < times[-1] - 1e-12:
        raise ValueError(
            f"forcing covers [0, {grid[-1]}] but the solve needs [0, {times[-1]}]"
        )
    if grid.shape[0] == times.shape[0] and np.allclose(grid, times, atol=1e-12):
        f_on_grid = vals.copy()
    else:
        f_on_grid = np.column_stack(
            [np.interp(times, grid, vals[:, j]) for j in range(vals.shape[1])]
        )
    return _pece_loop(alpha, fld, params, f_on_grid, dt)


def convergence_order(p: CaputoProblem, levels: int = 4):
    """Empirical order: least-squares slope of log(endpoint error) vs log(dt).

    The reference is the same solver at dt / 2^levels; returns EXACT_ORDER
    when every error sits at rounding level.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    ref = solve_pece(
        CaputoProblem(p.alpha, p.fld, p.params, p.x0, p.t_end, p.dt / 2**levels)
    )
    ref_end = ref.endpoint()
    dts, errs = [], []
    for i in range(levels):
        dt_i = p.dt / 2**i
        traj = solve_pece(CaputoProblem(p.alpha, p.fld, p.params, p.x0, p.t_end, dt_i))
        err = float(np.max(np.abs(traj.endpoint() - ref_end)))
        dts.append(dt_i)
        errs.append(err)
    if max(errs) < 1e-14:
        return EXACT_ORDER
    log_dt = np.log(np.asarray(dts))
    log_err = np.log(np.maximum(errs, 1e-300))
    slope = np.polyfit(log_dt, log_err, 1)[0]
    return float(slope)
