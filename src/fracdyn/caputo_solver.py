"""Fractional Adams predictor-corrector for Caputo initial value problems.

Solves the integral form

    x(t) = x0 + (1/Gamma(alpha)) * int_0^t (t-s)^(alpha-1) g(x(s)) ds

on a uniform grid by product integration (Diethelm, Ford & Freed 2002):
the predictor holds g constant on each step (rectangle rule), the corrector
takes g linear on each step (trapezoid rule) and is iterated as a fixed
point.  The two history sums are split by the lag (Hairer, Lubich &
Schlichte 1985, SIAM J. Sci. Stat. Comput. 6:532; Garrappa 2018,
Mathematics 6:16): numpy takes the nodes of the step's own leaf of LEAF
nodes by two dot products, and adds older leaves in FFT blocks, so that a
solve of N steps costs O(N log^2 N).  The corrector runs on lists of d
Python floats, where numpy's per-call overhead would dominate the step.
Both rules, and the memory integral of the function-space semigroup, take
their weights from one per-offset rule, `_weights`.  The same recurrence
with x0 replaced by a forcing function f(t_n) solves the forced singular
Volterra integral equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
#: Nodes per leaf of _pece_loop: the history inside a leaf is summed directly.
LEAF = 1024

#: Sentinel returned by convergence_order when all errors are at rounding level.
EXACT_ORDER = "exact"


def check_grid(t_end, dt):
    """The grid rules: 0 < dt <= t_end, and at most MAX_GRID_POINTS steps."""
    if not 0.0 < dt <= t_end:
        raise ValueError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    if not t_end / dt <= MAX_GRID_POINTS:  # inf / inf is nan
        raise ValueError(
            f"grid of {t_end / dt:.3g} points exceeds the {MAX_GRID_POINTS} budget"
        )


def check_solve(alpha, t_end, dt):
    """The rules of every solve on [0, t_end]: 0 < alpha < 1 and check_grid's."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    check_grid(t_end, dt)


@dataclass(frozen=True)
class CaputoProblem:
    alpha: float
    fld: FieldDef
    params: tuple
    x0: tuple
    t_end: float
    dt: float

    def __post_init__(self):
        check_solve(self.alpha, self.t_end, self.dt)
        if len(self.x0) != self.fld.dimension:
            raise ValueError(
                f"x0 has length {len(self.x0)}, field dimension is {self.fld.dimension}"
            )


@dataclass
class SolverMeta:
    """What one solve did: iterations and residual are the maxima over steps,
    field_evals counts whole-field evaluations, and unconverged_steps the
    steps whose corrector stopped at CORRECTOR_MAX_ITER above CORRECTOR_TOL."""

    corrector_iterations: int = 0
    max_residual: float = 0.0
    steps: int = 0
    field_evals: int = 0
    unconverged_steps: int = 0


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


def _block_spectrum(rrev, hrev, L):
    """rfft of both rules' weights at lags 1..2L, in two columns: lag p + 1 at
    row p.  Lags past N reach no node of the grid and are left zero."""
    N = len(rrev) - 1
    lags = np.zeros((2 * L, 2))
    k = min(2 * L, N)
    lags[:k, 0] = rrev[N - k : N][::-1]
    lags[: k - 1, 1] = hrev[N - k : N - 1][::-1]
    return np.fft.rfft(lags, axis=0)


def _pece_loop(alpha, fld, params, forcing, dt):
    """Shared predictor-corrector recurrence; forcing has shape (N+1, d).

    The grid is walked in leaves of LEAF nodes.  A node takes its history
    from the earlier nodes of its own leaf by two direct dot products; the
    rest has already been added to its offsets xp (predictor) and xb
    (corrector) by FFT blocks, the convolution splitting of Hairer, Lubich &
    Schlichte 1985 (SIAM J. Sci. Stat. Comput. 6:532) that Garrappa 2018
    (Mathematics 6:16) uses in his product-integration solvers.  When a leaf
    ends at node e, with L = e & -e, the block of sources [e - L, e) is
    convolved by FFT with both rules and added to the targets [e, e + L);
    each source reaches each later target of another leaf exactly once, so a
    solve costs O(N log^2 N) rather than O(N^2).  A solve with N + 1 <= LEAF
    is one leaf and takes no FFT.

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
    w_self = float(scale * near[1])

    states = np.empty((N + 1, d))
    fvals = np.empty((N + 1, d))
    states[0] = forcing[0]
    escape_index, escape_sign = None, 0
    params = tuple(params)
    eval_fns = fld.compiled()
    eval_field(fld, states[0], params)  # FieldEvalError unless real and finite
    fvals[0] = [float(fn(states[0].tolist(), params)) for fn in eval_fns]
    max_iters, max_residual, evals, unconverged = 0, 0.0, 1, 0
    spectra = {}  # L -> _block_spectrum, kept while a later block has size L

    # Overflow on the way to an escape is expected; the escape check catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        # Node 0 enters the corrector by its far weight alone, so it is added
        # here and left out of the corrector's sums.
        xp = forcing.astype(float)
        xb = forcing + (scale * far[: N + 1])[:, None] * fvals[0]
        del rect, far, near  # only rrev, hrev and w_self are read from here on
        for s in range(0, N + 1, LEAF):  # the leaf of nodes s .. s + LEAF - 1
            if s:  # the leaf before ends here: add its block to the nodes ahead
                L = s & -s
                w = spectra.get(L)
                if w is None:
                    w = _block_spectrum(rrev, hrev, L)
                    if s + 2 * L <= N:  # the leaf end s + 2L takes a block of size L too
                        spectra[L] = w
                src = np.fft.rfft(fvals[s - L : s], 2 * L, axis=0)
                hi = min(s + L, N + 1)
                # Outputs L - 1 .. 2L - 2 of the circular convolution do not wrap.
                xp[s:hi] += np.fft.irfft(src * w[:, :1], 2 * L, axis=0)[L - 1 : L - 1 + hi - s]
                if s == L:
                    # The spectrum of node 0 alone is fvals[0] at every frequency.
                    src -= fvals[0]
                xb[s:hi] += np.fft.irfft(src * w[:, 1:], 2 * L, axis=0)[L - 1 : L - 1 + hi - s]
            # The leaf's offsets are complete.  Its own earlier nodes (node 0 is in
            # xb already) are added last, as in one direct sum, so that a one-leaf
            # solve keeps its bits.
            xp_leaf, xb_leaf = xp[s : s + LEAF].tolist(), xb[s : s + LEAF].tolist()
            lo = s or 1
            for m in range(lo, min(s + LEAF, N + 1)):
                hist_p = (rrev[N + s - m : N] @ fvals[s:m]).tolist()
                hist_b = (hrev[N - 1 + lo - m : N - 1] @ fvals[lo:m]).tolist()
                x = [a + h for a, h in zip(xp_leaf[m - s], hist_p)]
                base = [a + h for a, h in zip(xb_leaf[m - s], hist_b)]
                try:
                    for iters in range(1, CORRECTOR_MAX_ITER + 1):
                        evals += 1
                        x_new, residual = [], 0.0
                        for b, fn, xi in zip(base, eval_fns, x):
                            # float() of a complex value (x^0.5 at x < 0) raises TypeError.
                            x_new.append(b + w_self * float(fn(x, params)))
                            r = abs(x_new[-1] - xi)
                            if r > residual or r != r:  # a nan difference sticks, as in np.max
                                residual = r
                        x = x_new
                        if residual <= CORRECTOR_TOL:
                            break
                    evals += 1
                    fvals[m] = [float(fn(x, params)) for fn in eval_fns]
                    max_iters = max(max_iters, iters)
                    max_residual = max(max_residual, residual)  # a nan residual leaves it
                    unconverged += not residual <= CORRECTOR_TOL
                    escaped = not all([abs(v) <= ESCAPE_THRESHOLD for v in x])  # true for nan
                except (ArithmeticError, ValueError, TypeError):
                    escaped = True
                if escaped:
                    # nan takes the sign of the last state; +-inf clamps like any overflow.
                    x = np.where(np.isnan(x), np.sign(states[m - 1]) * ESCAPE_THRESHOLD, x)
                    x = np.clip(x, -ESCAPE_THRESHOLD, ESCAPE_THRESHOLD)
                    states[m:] = x
                    escape_index = m
                    peak = x[int(np.argmax(np.abs(x)))]
                    escape_sign = int(np.sign(peak)) if abs(peak) == ESCAPE_THRESHOLD else 0
                    break
                states[m] = x
            if escape_index is not None:
                break

    meta = SolverMeta(max_iters, max_residual, escape_index or N, evals, unconverged)
    return Trajectory(alpha, dt * np.arange(N + 1), states, meta, escape_index, escape_sign)


def solve_pece(p: CaputoProblem) -> Trajectory:
    """Solve the Caputo FDE with constant term x0 (integral form AIE)."""
    n_steps = int(round(p.t_end / p.dt))
    forcing = np.tile(np.asarray(p.x0, dtype=float), (n_steps + 1, 1))
    return _pece_loop(p.alpha, p.fld, p.params, forcing, p.dt)


def solve_svie(forcing, fld: FieldDef, params, alpha, t_end, dt) -> Trajectory:
    """Solve the forced singular Volterra equation x(t) = f(t) + I^alpha g(x).

    `forcing` is a SampledFunction; `forcing.at` resamples it onto the
    solver grid by linear interpolation.
    """
    check_solve(alpha, t_end, dt)
    times = dt * np.arange(int(round(t_end / dt)) + 1)
    if forcing.horizon < times[-1] - 1e-12:
        raise ValueError(
            f"forcing covers [0, {forcing.horizon}] but the solve needs [0, {times[-1]}]"
        )
    return _pece_loop(alpha, fld, params, forcing.at(times), dt)


def convergence_order(p: CaputoProblem, levels: int = 4):
    """Empirical order: least-squares slope of log(endpoint error) vs log(dt).

    The reference is the same solver at dt / 2^levels; returns EXACT_ORDER
    when every error sits at rounding level.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    ref_end = solve_pece(replace(p, dt=p.dt / 2**levels)).endpoint()
    dts = [p.dt / 2**i for i in range(levels)]
    errs = [float(np.max(np.abs(solve_pece(replace(p, dt=dt)).endpoint() - ref_end)))
            for dt in dts]
    if max(errs) < 1e-14:
        return EXACT_ORDER
    slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.maximum(errs, 1e-300)), 1)[0]
    return float(slope)
