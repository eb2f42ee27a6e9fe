"""Semigroup representation of Caputo dynamics on a function space.

The solution map of a Caputo FDE is not a semigroup on state space (memory
breaks concatenation), but the shift-plus-memory operators T_tau acting on
continuous functions f: R+ -> R^d through the forced Volterra equation do
compose: T_{t1+t2} = T_{t1} T_{t2}.  This module realizes the metric of
uniform convergence on compacts, the operators, and numerical defects
quantifying both facts.  The memory tail of T_tau is the solver's own
trapezoid rule at the nodes after the solved prefix (`prefix_memory`), summed
by FFT in O((m + n) log(m + n)) for m prefix and n output nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .caputo_solver import check_grid, check_solve, prefix_memory, solve_svie
from .field_expr import eval_points
from .mittag_leffler import ml

__all__ = [
    "SampledFunction",
    "RhoParams",
    "rho",
    "apply_T",
    "semigroup_defect",
    "semigroup_defects",
    "state_space_defect",
]


@dataclass(frozen=True)
class SampledFunction:
    """A function R+ -> R^d sampled on a uniform grid [0, Theta]."""

    theta_grid: np.ndarray
    values: np.ndarray  # (n_points, d)

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if grid.ndim != 1 or vals.shape[0] != grid.shape[0]:
            raise ValueError("grid and values shapes do not match")
        steps = np.diff(grid)
        uniform = np.all(steps > 0.0) and np.allclose(steps, steps[:1], rtol=1e-9, atol=1e-12)
        if grid[:1].tolist() != [0.0] or not (uniform and math.isfinite(grid[-1])):
            raise ValueError(f"grid must run from 0 by one positive step, got {grid[:3]}...")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "theta_grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self):
        return self.values.shape[1]

    @property
    def horizon(self):
        return float(self.theta_grid[-1])

    def check_covers(self, t):
        """ValueError unless the samples cover [0, t] (to 1e-12): solve_svie, rho, apply_T."""
        if self.horizon < t - 1e-12:
            raise ValueError(f"samples cover [0, {self.horizon}] but [0, {t}] is needed")

    @classmethod
    def constant(cls, x0, theta_max, dt):
        n = check_grid(theta_max, dt)
        grid = dt * np.arange(n + 1)
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return cls(grid, np.tile(x0, (n + 1, 1)))

    def at(self, t):
        """Linear interpolation, extended by the last value beyond the grid."""
        t = np.asarray(t, dtype=float)
        return np.column_stack(
            [np.interp(t, self.theta_grid, self.values[:, j])
             for j in range(self.dimension)]
        )


@dataclass(frozen=True)
class RhoParams:
    n_max: int = 20

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")


def rho(f: SampledFunction, h: SampledFunction, p: RhoParams = RhoParams()) -> float:
    """Truncated metric sum_{n<=n_max} 2^-n sup_[0,n]|f-h| / (1 + sup_[0,n]|f-h|),
    for f and h sampled on one grid.

    Truncation error is below 2^-n_max since each summand is below 1.
    """
    grid = f.theta_grid
    if grid.shape != h.theta_grid.shape or not np.allclose(grid, h.theta_grid, atol=1e-12):
        raise ValueError("rho needs both functions sampled on one grid")
    f.check_covers(p.n_max)
    diff = np.linalg.norm(f.values - h.values, axis=1)
    total = 0.0
    for n in range(1, p.n_max + 1):
        sup = float(np.max(diff[grid <= n + 1e-12]))
        total += 2.0**-n * sup / (1.0 + sup)
    return total


def _check_shifts(**shifts):
    """Each named shift must be >= 0 (nan is not)."""
    for name, tau in shifts.items():
        if not tau >= 0:
            raise ValueError(f"{name} must be >= 0, got {tau}")


def apply_T(tau, f: SampledFunction, fld, params, alpha, dt, theta_max=None) -> SampledFunction:
    """The operator (T_tau f)(theta) = f(tau+theta) + memory integral.

    tau is snapped to the solver grid, with a warning where that moves it;
    f must cover [0, tau + theta_max] (ValueError otherwise).  At theta = 0
    the Volterra solution's own endpoint is used.
    """
    _check_shifts(tau=tau)
    if theta_max is None:
        theta_max = RhoParams().n_max
    check_solve(alpha, tau + theta_max, dt)
    m = int(round(tau / dt))
    tau_snap = m * dt
    if abs(tau_snap - tau) > 1e-12:
        warnings.warn(
            f"tau={tau} snapped to the grid multiple {tau_snap}", stacklevel=2
        )
    f.check_covers(tau_snap + theta_max)
    n_out = int(round(theta_max / dt))
    out_grid = dt * np.arange(n_out + 1)
    shifted = f.at(tau_snap + out_grid)

    if m == 0:
        return SampledFunction(out_grid, shifted)

    traj = solve_svie(f, fld, params, alpha, tau_snap, dt)
    g = eval_points(fld, traj.states, tuple(params))

    # Row 0 is the solver's own equation at tau; its solution, the endpoint, replaces it.
    out = shifted + prefix_memory(alpha, dt, g, n_out)
    out[0] = traj.states[-1]
    return SampledFunction(out_grid, out)


def semigroup_defect(tau1, tau2, f, fld, params, alpha, dt,
                     p: RhoParams = RhoParams()) -> float:
    """rho(T_{tau1+tau2} f, T_{tau1} T_{tau2} f); zero in exact arithmetic."""
    _check_shifts(tau1=tau1, tau2=tau2)
    theta = float(p.n_max)
    one_shot = apply_T(tau1 + tau2, f, fld, params, alpha, dt, theta_max=theta)
    inner = apply_T(tau2, f, fld, params, alpha, dt, theta_max=theta + tau1)
    composed = apply_T(tau1, inner, fld, params, alpha, dt, theta_max=theta)
    return rho(one_shot, composed, p)


def semigroup_defects(tau1, tau2, x0, fld, params, alpha, dt0, dt_levels,
                      p: RhoParams = RhoParams()) -> list:
    """semigroup_defect from the constant function x0 at dt0 and at each of
    dt_levels - 1 halvings of it.

    ValueError before any solve unless tau1, tau2 and n_max are whole numbers
    of steps dt0: apply_T would snap a shift off the grid and then find the
    forcing short of the snapped horizon.
    """
    _check_shifts(tau1=tau1, tau2=tau2)
    if not dt0 > 0:
        raise ValueError(f"dt0 must be > 0, got {dt0}")
    if dt_levels < 1:
        raise ValueError(f"dt_levels must be >= 1, got {dt_levels}")
    horizon = float(p.n_max) + tau1 + tau2
    check_grid(horizon, dt0, names=("dt0", "tau1 + tau2 + n_max"))
    for name, t in (("tau1", tau1), ("tau2", tau2), ("n_max", p.n_max)):
        if abs(round(t / dt0) * dt0 - t) > 1e-12:  # apply_T's snapping limit
            raise ValueError(f"{name}={t} is not a whole number of steps dt0={dt0}")
    defects = []
    for level in range(dt_levels):
        dt = dt0 / 2**level
        f = SampledFunction.constant(x0, horizon + dt, dt)
        defects.append(semigroup_defect(tau1, tau2, f, fld, params, alpha, dt, p))
    return defects


def state_space_defect(alpha, t, s, lam=1.0) -> float:
    """Concatenation failure of the state-space solution map on g(x) = -lam x:

        |E_a(-lam (t+s)^a) - E_a(-lam t^a) E_a(-lam s^a)|

    Positive for 0 < alpha < 1, zero for alpha = 1 (the exponential).
    """
    if t <= 0 or s <= 0:
        raise ValueError("t and s must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    joint = ml(alpha, 1.0, -lam * (t + s) ** alpha)
    split = ml(alpha, 1.0, -lam * t**alpha) * ml(alpha, 1.0, -lam * s**alpha)
    return abs(joint - split)
