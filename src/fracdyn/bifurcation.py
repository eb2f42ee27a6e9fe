"""One-parameter sweeps of scalar families g(gamma, x): branch diagrams,
divergence detection, and saddle-node/pitchfork labels from the normal form at
the fold g = g_x = 0, which the FDE shares with the ODE of the same field (the
paper's attractor theorem), found by Newton's method with gamma a coordinate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import scalar_analysis as sa
from .caputo_solver import CaputoProblem, solve_pece
from .field_expr import FieldDef

__all__ = [
    "BifurcationDiagram",
    "sweep",
    "fold",
    "classify",
    "divergence_check",
]

GAMMA = "gamma"  # the swept parameter's name in a family's params
SCAN_INTERVAL = (-5.0, 5.0)  # where each parameter value's zeros are scanned


@dataclass(frozen=True)
class BifurcationDiagram:
    gammas: np.ndarray
    zero_sets: tuple  # one sa.ZeroSet per gamma
    family: FieldDef
    base_params: tuple  # the family's parameter row, GAMMA's entry aside
    _kept: dict = field(default_factory=dict, compare=False, repr=False)  # fold's answer

    def counts(self):
        return [len(zs) for zs in self.zero_sets]


def sweep(family: FieldDef, gamma_range, n_gammas, base_params=()) -> BifurcationDiagram:
    """Per-parameter zero scan over GAMMA (base_params, or zeros, hold the
    family's other parameters); empty and degenerate zero sets are tolerated.

    Every parameter value is scanned in one sa.scan_zero_sets call.
    """
    if n_gammas < 3:
        raise ValueError(f"need at least 3 parameter values, got {n_gammas}")
    lo, hi = (float(v) for v in gamma_range)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"need an ascending parameter range lo < hi with a finite "
                         f"hi - lo, got {lo}:{hi}")
    gammas = np.linspace(lo, hi, n_gammas)
    base = tuple(map(float, base_params)) if base_params else (0.0,) * len(family.params)
    param_sets = np.tile(np.asarray(base, dtype=float), (n_gammas, 1))
    if GAMMA in family.params:
        param_sets[:, family.params.index(GAMMA)] = gammas
    return BifurcationDiagram(gammas, sa.scan_zero_sets(family, SCAN_INTERVAL, param_sets),
                              family, base)


def _start(diag):
    """((gamma_lo, gamma_hi), x): the cell of the single change of zero count, by
    2 (rows of one degenerate zero left out), and the x where Newton starts: the
    middle of the closest pair of zeros in the row with more, or the one of the
    pair kept from the other row between two new zeros (a pitchfork)."""
    rows = [zs.zeros for zs in diag.zero_sets]
    kept = [i for i, zs in enumerate(diag.zero_sets)
            if len(rows[i]) != 1 or not zs.degenerate()[0]]
    steps = [(i, j) for i, j in zip(kept, kept[1:]) if len(rows[i]) != len(rows[j])]
    if len(steps) != 1:
        return None
    i, j = steps[0]
    low, high = sorted((rows[i], rows[j]), key=len)
    if len(high) - len(low) != 2:
        return None
    gaps = np.diff(high)
    k = int(np.argmin(gaps))
    x = 0.5 * (high[k] + high[k + 1])
    for m in (k, k + 1):
        if 0 < m < len(high) - 1 and any(abs(y - high[m]) < gaps[k] for y in low):
            x = high[m]
    return (float(diag.gammas[i]), float(diag.gammas[j])), x


def _partials(diag, s, *paths):
    """The derivatives of g at s = (x, gamma) along paths ((0, 1) is g_x,gamma) of
    the family with GAMMA lifted to coordinate 2; None if one is complex, not
    finite or raises."""
    lifted = diag.family.lift(GAMMA)
    with np.errstate(all="ignore"):
        try:
            vals = [reduce(FieldDef.derivative, path, lifted).compiled_arrays()[0](
                s, diag.base_params) for path in paths]
        except ArithmeticError:  # float division by 0, overflow in **
            return None
    return [float(v) for v in vals] if all(
        isinstance(v, float) and math.isfinite(v) for v in vals) else None


def fold(diag: BifurcationDiagram):
    """(gamma*, x*) where g = g_x = 0, by Newton's method from _start; None
    without a single change of zero count, or when Newton fails to evaluate g,
    to converge in 50 steps or to end within a cell's width of its cell.
    Solved once per diagram and kept."""
    if "fold" not in diag._kept:
        diag._kept["fold"] = _newton(diag)
    return diag._kept["fold"]


def _newton(diag):
    if (start := _start(diag)) is None:
        return None
    (lo, hi), x = start
    gam = mid = 0.5 * (lo + hi)
    for _ in range(50):
        if (vals := _partials(diag, (x, gam), (), (0,), (1,), (0, 0), (0, 1))) is None:
            return None
        g, gx, gg, gxx, gxg = vals
        det = gx * gxg - gg * gxx  # of the Jacobian of (g, g_x) in (x, gamma)
        if det == 0.0:  # singular, as at a pitchfork: only the fold itself is an answer
            if g or gx:
                return None
            dx = dg = 0.0
        else:
            dx, dg = (gg * gx - gxg * g) / det, (gxx * g - gx * gx) / det
        x, gam = x + dx, gam + dg
        if abs(dx) + abs(dg) <= 1e-13 * (1.0 + abs(x) + abs(gam)):
            # a cell's width of slack: the scan misses zeros closer than its spacing
            return (gam, x) if abs(gam - mid) <= 1.5 * (hi - lo) and math.isfinite(x) else None
    return None


def classify(diag: BifurcationDiagram) -> str:
    """'saddle-node', 'pitchfork' or 'none' from the normal form at the fold
    (Kuznetsov 2004, ch. 3): g_xx != 0 and g_gamma != 0 for a saddle-node,
    g_xx = g_gamma = 0, g_xxx != 0 and g_x,gamma != 0 for a pitchfork, where
    "= 0" is below H2_DERIVATIVE_FLOOR; 'none' without a fold."""
    at = fold(diag)
    if at is None:
        return "none"
    vals = _partials(diag, at[::-1], (0, 0), (1,), (0, 0, 0), (0, 1))
    if vals is None:
        return "none"
    gxx, gg, gxxx, gxg = (abs(v) >= sa.H2_DERIVATIVE_FLOOR for v in vals)
    if gxx and gg:
        return "saddle-node"
    return "pitchfork" if not (gxx or gg) and gxxx and gxg else "none"


def divergence_check(family: FieldDef, gamma, alpha, x0, t_end, dt=0.01) -> bool:
    """True iff the trajectory escapes to -infinity before t_end; the family's
    parameters other than GAMMA are 0."""
    params = [0.0] * len(family.params)
    params[family.params.index(GAMMA)] = float(gamma)
    p = CaputoProblem(alpha, family, tuple(params), (float(x0),), t_end, dt)
    traj = solve_pece(p)
    return traj.escape_index is not None and traj.escape_sign < 0
