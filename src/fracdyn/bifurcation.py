"""One-parameter sweeps of scalar families g(gamma, x): branch diagrams,
saddle-node/pitchfork classification and divergence detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scalar_analysis as sa
from .caputo_solver import CaputoProblem, solve_pece
from .field_expr import FieldDef

__all__ = [
    "BifurcationDiagram",
    "sweep",
    "classify",
    "divergence_check",
]

FOLD_FIT_POINTS = 10
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GAMMA = "gamma"  # the swept parameter's name in a family's params
MIDDLE_BRANCH_TOL = 0.05  # largest shift of the pitchfork's middle zero at the fold
SCAN_INTERVAL = (-5.0, 5.0)  # where each parameter value's zeros are scanned


@dataclass(frozen=True)
class BifurcationDiagram:
    gammas: np.ndarray
    zero_sets: tuple  # one sa.ZeroSet per gamma

    def counts(self):
        return [len(zs) for zs in self.zero_sets]


def sweep(family: FieldDef, gamma_range, n_gammas, base_params=()) -> BifurcationDiagram:
    """Per-parameter zero scan over GAMMA (base_params, or zeros, hold the
    family's other parameters); empty and degenerate zero sets are tolerated.

    Every parameter value is scanned in one sa.scan_zero_sets call.
    """
    if n_gammas < 3:
        raise ValueError(f"need at least 3 parameter values, got {n_gammas}")
    if not gamma_range[0] < gamma_range[1]:
        raise ValueError(f"need an ascending parameter range lo < hi, got "
                         f"{gamma_range[0]}:{gamma_range[1]}")
    gammas = np.linspace(gamma_range[0], gamma_range[1], n_gammas)
    base = list(base_params) if base_params else [0.0] * len(family.params)
    param_sets = np.tile(np.asarray(base, dtype=float), (n_gammas, 1))
    if GAMMA in family.params:
        param_sets[:, family.params.index(GAMMA)] = gammas
    return BifurcationDiagram(gammas, sa.scan_zero_sets(family, SCAN_INTERVAL, param_sets))


def _power_fit(gs, amps, gamma_star):
    """(exponent, residual) of the least-squares line log amp ~ log(gamma - gamma*)."""
    coef, res, *_ = np.polyfit(np.log(gs - gamma_star), np.log(amps), 1, full=True)
    return float(coef[0]), float(res[0]) if len(res) else 0.0


def _golden_min(f, lo, hi, tol):
    """A minimiser of f inside (lo, hi): golden-section search to width tol."""
    c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max(0, math.ceil(math.log(tol / (hi - lo)) / math.log(INV_PHI)))):
        if fc < fd:  # a minimum lies in (lo, d)
            hi, d, fd = d, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_PHI * (hi - lo)
            fd = f(d)
    return c if fc < fd else d


def _fold_exponent(diag, i_trans, high_count, cell):
    """Fitted exponent of the branch amplitude above the fold.

    The fold lies in cell = (lo, hi): at lo when lo == hi (a degenerate grid
    point), else where the amplitudes fit a power law best, found by a
    golden-section search over the cell to 1e-12.
    """
    gs, amps = [], []
    for g, zs in zip(diag.gammas[i_trans:], diag.zero_sets[i_trans:]):
        if len(zs) != high_count or g <= cell[0]:
            continue
        amps.append((zs.zeros[-1] - zs.zeros[0]) / 2.0)
        gs.append(g)
        if len(gs) >= FOLD_FIT_POINTS:
            break
    if len(gs) < 3 or min(amps) <= 0:
        return math.nan
    gs, amps = np.asarray(gs), np.asarray(amps)
    gamma_star = cell[0]
    if cell[0] < cell[1]:
        gamma_star = _golden_min(lambda g: _power_fit(gs, amps, g)[1], *cell, 1e-12)
    return _power_fit(gs, amps, gamma_star)[0]


def classify(diag: BifurcationDiagram) -> str:
    """Label the diagram 'saddle-node', 'pitchfork' or 'none'.

    A zero count that falls with gamma is labelled as its mirror image, the
    diagram of gamma -> -gamma with the rows reversed.
    """
    # Collapse degenerate folds (a single |g'|~0 zero) onto the transition.
    kept = [(i, len(zs)) for i, zs in enumerate(diag.zero_sets) if zs.degenerate() != (True,)]
    transitions = [(i, j, a, b) for (i, a), (j, b) in zip(kept, kept[1:]) if a != b]
    if len(transitions) != 1:
        return "none"
    i_lo, i_hi, low, high = transitions[0]
    if low > high:
        return classify(BifurcationDiagram(-diag.gammas[::-1], diag.zero_sets[::-1]))
    # Fold location: a flagged degenerate point if present, else fitted in the cell.
    folds = [i for i in range(i_lo, i_hi + 1) if any(diag.zero_sets[i].degenerate())]
    g = diag.gammas
    cell = (g[folds[0]], g[folds[0]]) if folds else (g[i_lo], g[i_hi])
    expo = _fold_exponent(diag, i_hi, high, cell)
    sqrt_like = not math.isnan(expo) and abs(expo - 0.5) <= 0.1

    if low == 0 and high == 2 and sqrt_like:
        return "saddle-node"
    if low == 1 and high == 3 and sqrt_like and _middle_branch_persists(diag, i_lo, i_hi):
        return "pitchfork"
    return "none"


def _middle_branch_persists(diag, i_lo, i_hi):
    pre = diag.zero_sets[i_lo].zeros
    if len(pre) != 1:
        return False
    post = diag.zero_sets[i_hi].zeros
    middle = post[len(post) // 2]
    return abs(middle - pre[0]) <= MIDDLE_BRANCH_TOL


def divergence_check(family: FieldDef, gamma, alpha, x0, t_end, dt=0.01) -> bool:
    """True iff the trajectory escapes to -infinity before t_end; the family's
    parameters other than GAMMA are 0."""
    params = [0.0] * len(family.params)
    params[family.params.index(GAMMA)] = float(gamma)
    p = CaputoProblem(alpha, family, tuple(params), (float(x0),), t_end, dt)
    traj = solve_pece(p)
    return traj.escape_index is not None and traj.escape_sign < 0
