"""Fractional Adams corrector solver: exactness, accuracy, order."""

import collections
import math
import os
import re
import sys
import types
import warnings

import mpmath
import numpy as np
import pytest

from fracdyn import CaputoProblem, FieldDef, catalog, convergence_order, solve_pece, solve_svie
from fracdyn import caputo_solver
from fracdyn import scalar_analysis as sa
from fracdyn.caputo_solver import (
    CORRECTOR_MAX_ITER,
    CORRECTOR_TOL,
    ESCAPE_THRESHOLD,
    EXACT_ORDER,
    LEAF,
    SUB,
    SolverMeta,
    Trajectory,
    _weights,
)
from fracdyn.field_expr import eval_points
from fracdyn.function_space_semigroup import SampledFunction, apply_T
from fracdyn.mittag_leffler import ml
from oracles import direct_prefix_memory

LINEAR = FieldDef.parse(["-x"])
CUBIC = FieldDef.parse(["x - x^3"])
SADDLE = FieldDef.parse(["gamma - x^2"], ("gamma",))


class TestExactCases:
    def test_zero_field_is_constant(self):
        p = CaputoProblem(0.5, FieldDef.parse(["0"]), (), (1.5,), 1.0, 0.1)
        traj = solve_pece(p)
        assert np.max(np.abs(traj.scalar() - 1.5)) == 0.0

    def test_constant_field_power_solution(self):
        # g = 1 gives x(t) = x0 + t^alpha / Gamma(alpha + 1), integrated
        # exactly by the product-trapezoid corrector.
        for alpha in (0.3, 0.5, 0.8):
            p = CaputoProblem(alpha, FieldDef.parse(["1"]), (), (0.25,), 1.0, 0.01)
            traj = solve_pece(p)
            expect = 0.25 + traj.times**alpha / math.gamma(alpha + 1.0)
            assert np.max(np.abs(traj.scalar() - expect)) < 1e-12

    def test_linear_field_mittag_leffler(self):
        # x(t) = E_alpha(-t^alpha) x0
        for alpha in (0.4, 0.5, 0.7):
            p = CaputoProblem(alpha, LINEAR, (), (1.0,), 2.0, 0.002)
            traj = solve_pece(p)
            for i in (len(traj.times) // 2, len(traj.times) - 1):
                t = float(traj.times[i])
                expect = ml(alpha, 1.0, -(t**alpha))
                assert traj.scalar()[i] == pytest.approx(expect, abs=1e-3)


class TestWeights:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_against_extended_precision(self, alpha):
        # far/near split rect = int_{k-1}^{k} u^(a-1) du for g linear on the
        # step; 50 digits leave ~39 after the cancellation at k = 2e5.
        n = 200_000
        far, near = _weights(alpha, n)
        assert far[0] == near[0] == 0.0
        offsets = sorted({*range(1, 40), *np.geomspace(40, n, 60).astype(int).tolist()})
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            for k in offsets:
                k_ = mpmath.mpf(k)
                r = (k_**a - (k_ - 1) ** a) / a
                p = (k_ ** (a + 1) - (k_ - 1) ** (a + 1)) / (a + 1)
                for got, want in ((far[k] + near[k], r), (far[k], p - (k_ - 1) * r),
                                  (near[k], k_ * r - p)):
                    assert abs(got - want) <= 1e-9 * want, (k, got, want)

    def test_first_step_closed_form(self):
        # g = lam x: x1 = x0 (1 + cc alpha lam) / (1 - cc lam) with
        # cc = dt^alpha / Gamma(alpha + 2), pinning the weight of node 0 and
        # the corrector's self-weight.
        alpha, dt, lam, x0 = 0.4, 0.001, -0.5, 1.3  # cc lam = -0.025 contracts fast
        cc = dt**alpha / math.gamma(alpha + 2.0)
        fld = FieldDef.parse(["lam*x"], ("lam",))
        traj = solve_pece(CaputoProblem(alpha, fld, (lam,), (x0,), 2 * dt, dt))
        expect = x0 * (1.0 + cc * alpha * lam) / (1.0 - cc * lam)
        assert traj.scalar()[1] == pytest.approx(expect, rel=1e-13)


# (alpha, t_end, dt) that break the order rule or a grid rule of every solve.
BAD_SOLVES = [
    (0.0, 1.0, 0.1), (1.0, 1.0, 0.1), (1.5, 1.0, 0.1), (-0.5, 1.0, 0.1), (math.nan, 1.0, 0.1),
    (0.5, 1.0, 0.0), (0.5, 1.0, -0.05), (0.5, 1.0, math.nan), (0.5, -1.0, 0.1),
    (0.5, 1.0, 2.0), (0.5, math.inf, 0.1), (0.5, math.inf, math.inf),
    (0.5, 1.0, 1e-8),  # 1e8 steps, over MAX_GRID_POINTS
]
# The forcing is a small grid, so no entry point allocates the grid it rejects.
SMALL = SampledFunction.constant([0.5], 1.0, 0.5)
CUBIC_ZEROS = sa.find_zeros(CUBIC, (-5.0, 5.0))
SOLVE_ENTRY_POINTS = {
    "CaputoProblem": lambda a, t, dt: CaputoProblem(a, CUBIC, (), (0.5,), t, dt),
    "solve_svie": lambda a, t, dt: solve_svie(SMALL, CUBIC, (), a, t, dt),
    "apply_T": lambda a, t, dt: apply_T(0.0, SMALL, CUBIC, (), a, dt, theta_max=t),
    "heteroclinic_orbit": lambda a, t, dt: sa.heteroclinic_orbit(
        CUBIC, a, CUBIC_ZEROS, 0.5, t, 1.0, dt),
}
# The name each entry point's grid error gives the horizon t.
HORIZON_NAMES = {"heteroclinic_orbit": "t_back"}


@pytest.mark.parametrize("entry", SOLVE_ENTRY_POINTS)
@pytest.mark.parametrize("alpha, t_end, dt", BAD_SOLVES)
def test_bad_order_or_grid_is_rejected(entry, alpha, t_end, dt):
    horizon = HORIZON_NAMES.get(entry, "t_end")
    with pytest.raises(ValueError, match=rf"alpha must be in|need 0 < dt <= {horizon},|budget"):
        SOLVE_ENTRY_POINTS[entry](alpha, t_end, dt)


class TestForcedEquation:
    def test_constant_forcing_matches_initial_value_solve(self):
        f = SampledFunction.constant([1.0], 1.0, 0.01)
        by_ivp = solve_pece(CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, 0.01))
        by_svie = solve_svie(f, LINEAR, (), 0.5, 1.0, 0.01)
        assert np.array_equal(by_ivp.states, by_svie.states)

    def test_initial_value_forcing_is_a_view(self, monkeypatch):
        # solve_pece hands x0 to the loop as a stride-0 view, not an (N + 1, d) copy;
        # SampledFunction.constant keeps a writable array of its own.
        seen, loop = [], caputo_solver._pece_loop
        monkeypatch.setattr(caputo_solver, "_pece_loop",
                            lambda *args: seen.append(args[3]) or loop(*args))
        rot = FieldDef.parse(["y - x", "-x - y"])
        traj = solve_pece(CaputoProblem(0.6, rot, (), (1.0, 0.5), 1.0, 0.01))
        (forcing,) = seen
        assert forcing.shape == (101, 2) and forcing.strides[0] == 0
        assert not forcing.flags.writeable
        assert forcing[-1].tolist() == [1.0, 0.5] and traj.states[0].tolist() == [1.0, 0.5]
        assert SampledFunction.constant([1.0], 1.0, 0.01).values.flags.writeable

    def test_zero_field_returns_forcing(self):
        grid = 0.01 * np.arange(101)
        vals = np.sin(grid)[:, None]
        f = SampledFunction(grid, vals)
        traj = solve_svie(f, FieldDef.parse(["0"]), (), 0.5, 1.0, 0.01)
        assert np.max(np.abs(traj.states - vals)) == 0.0

    def test_forcing_must_cover_horizon(self):
        f = SampledFunction.constant([1.0], 0.5, 0.01)
        with pytest.raises(ValueError):
            solve_svie(f, LINEAR, (), 0.5, 1.0, 0.01)

    def test_self_convergence_under_refinement(self):
        grid = 0.005 * np.arange(401)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(grid))[:, None])
        ends = []
        for dt in (0.02, 0.01, 0.005):
            traj = solve_svie(f, CUBIC, (), 0.6, 2.0, dt)
            ends.append(float(traj.scalar()[-1]))
        assert abs(ends[0] - ends[1]) > abs(ends[1] - ends[2])
        assert abs(ends[1] - ends[2]) < 1e-4


class TestPrefixMemory:
    @pytest.mark.parametrize("m, n, d", [(1, 1, 1), (1, 40, 1), (3, 1, 2), (25, 60, 2),
                                         (4000, 20, 1), (4000, 2000, 2)])
    def test_matches_the_direct_sum(self, m, n, d):
        # The FFT's rounding against the direct O(m n) sum, at a fixed 1e-13 of its size.
        rng = np.random.default_rng(m + n + d)
        g = np.cumsum(rng.normal(size=(m + 1, d)), axis=0)
        got = caputo_solver.prefix_memory(0.6, 0.01, g, n)
        ref = direct_prefix_memory(0.6, 0.01, g, n)
        assert got.shape == ref.shape == (n + 1, d)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestConvergenceOrder:
    def test_linear_order_exceeds_floor(self):
        p = CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, 0.02)
        slope = convergence_order(p)
        assert slope != EXACT_ORDER
        assert slope >= 1.2

    def test_exact_sentinel_for_trivial_field(self):
        p = CaputoProblem(0.5, FieldDef.parse(["0"]), (), (2.0,), 1.0, 0.1)
        assert convergence_order(p) == EXACT_ORDER


class TestEscape:
    def test_negative_escape_is_marked(self):
        # gamma - x^2 from below the lower steady state runs to -infinity
        p = CaputoProblem(0.5, SADDLE, (0.25,), (-1.0,), 50.0, 0.01)
        traj = solve_pece(p)
        assert traj.escape_index is not None
        assert traj.escape_sign == -1
        assert np.all(np.isfinite(traj.states))
        assert traj.states.shape[0] == len(traj.times)
        # the clamped state at escape is held to the grid's end, so endpoint() reports it
        assert traj.states[-1][0] == traj.states[traj.escape_index][0]
        assert traj.endpoint()[0] == traj.states[traj.escape_index][0]

    def test_overflow_escape_is_finite_and_silent(self):
        # x^8 overflows to inf within a step from x0 = 2; the stored state
        # is clamped to the escape threshold and no numpy warning leaks.
        p = CaputoProblem(0.5, FieldDef.parse(["x*x*x*x*x*x*x*x"]), (), (2.0,), 5.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_pece(p)
        assert traj.escape_sign == +1
        assert np.all(np.isfinite(traj.endpoint()))
        assert np.all(np.isfinite(traj.states))

    def test_bounded_problem_does_not_escape(self):
        traj = solve_pece(CaputoProblem(0.5, CUBIC, (), (2.0,), 10.0, 0.01))
        assert traj.escape_index is None


class TestOrderPreservation:
    def test_random_seed_pairs_stay_ordered(self):
        rng = np.random.default_rng(31415)
        for _ in range(15):
            alpha = float(rng.uniform(0.2, 0.9))
            lo = float(rng.uniform(-2.0, 1.9))
            hi = lo + float(rng.uniform(1e-3, 1.0))
            t_lo = solve_pece(CaputoProblem(alpha, CUBIC, (), (lo,), 10.0, 0.01))
            t_hi = solve_pece(CaputoProblem(alpha, CUBIC, (), (hi,), 10.0, 0.01))
            assert np.all(t_hi.scalar() > t_lo.scalar())


class TestValidation:
    def test_alpha_range(self):
        for alpha in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                CaputoProblem(alpha, LINEAR, (), (1.0,), 1.0, 0.1)

    def test_step_vs_horizon(self):
        with pytest.raises(ValueError):
            CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, 2.0)
        with pytest.raises(ValueError):
            CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, -0.1)

    def test_grid_size_cap(self):
        with pytest.raises(ValueError):
            CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0e9, 1.0e-2)

    def test_one_step_grid_is_allowed(self):
        by_ivp = solve_pece(CaputoProblem(0.5, LINEAR, (), (1.0,), 0.1, 0.1))
        by_svie = solve_svie(SampledFunction.constant([1.0], 0.1, 0.1), LINEAR, (), 0.5, 0.1, 0.1)
        assert len(by_ivp.times) == 2
        assert np.array_equal(by_ivp.states, by_svie.states)

    def test_state_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CaputoProblem(0.5, LINEAR, (), (1.0, 2.0), 1.0, 0.1)

    def test_meta_reports_corrector_work(self):
        traj = solve_pece(CaputoProblem(0.5, CUBIC, (), (2.0,), 1.0, 0.01))
        assert traj.meta.corrector_iterations >= 1
        assert math.isfinite(traj.meta.max_residual)
        assert traj.meta.max_residual < 1e-2

    def test_multidimensional_states(self):
        rot = FieldDef.parse(["y - x", "-x - y"])
        traj = solve_pece(CaputoProblem(0.5, rot, (), (1.0, 0.0), 5.0, 0.01))
        assert traj.states.shape == (501, 2)
        assert np.all(np.isfinite(traj.states))
        # contraction: the field is linear with spectrum -1 +- i
        assert np.linalg.norm(traj.states[-1]) < 0.5


def _eliminate(A, r):
    """Solve A delta = r by elimination without pivoting, in the generated
    corrector's order of operations: row k is divided by its pivot and then
    subtracted from the rows below, and the upper part is substituted back.
    Zero entries are skipped, as the generated code skips structural zeros."""
    A, r = A.copy(), r.copy()
    d = len(r)
    for k in range(d):
        if A[k, k] == 0.0:
            raise ZeroDivisionError("zero pivot")
        r[k] /= A[k, k]
        for j in range(k + 1, d):
            if A[k, j] != 0.0:
                A[k, j] /= A[k, k]
        for i in range(k + 1, d):
            if A[i, k] != 0.0:
                r[i] -= A[i, k] * r[k]
                for j in range(k + 1, d):
                    if A[k, j] != 0.0:
                        A[i, j] -= A[i, k] * A[k, j]
    for k in reversed(range(d)):
        for j in range(k + 1, d):
            if A[k, j] != 0.0:
                r[k] -= A[k, j] * r[j]
    return r


def _newton(x, explicit, base, w, evaluate, jacobian):
    """Newton's method on F(x) = x - base - w*g(x) from the start x, itself an
    update of the step's last state; a step is accepted at max|F| <=
    CORRECTOR_TOL.  A step that is not accepted within CORRECTOR_MAX_ITER
    evaluations of g, or meets a zero pivot or a failing J, keeps the
    explicit step.  Returns (x, g(x), iterations, residual at the last
    iterate, accepted)."""
    for iters in range(1, CORRECTOR_MAX_ITER + 1):
        g = evaluate(x)
        F = x - base - w * g
        residual = float(np.max(np.abs(F)))
        if residual <= CORRECTOR_TOL or iters == CORRECTOR_MAX_ITER:
            break
        try:
            x = x - _eliminate(np.eye(len(x)) - w * jacobian(x), F)
        except (ArithmeticError, ValueError, TypeError):
            break
    accepted = residual <= CORRECTOR_TOL
    if not accepted:
        x = explicit
        g = evaluate(x)
    return x, g, iters, residual, accepted


def _fixed_point(x, explicit, base, w, evaluate, jacobian):
    """The corrector this solver had before Newton's method, kept as the
    record of its behaviour: x = base + w*g(x) iterated from the explicit step,
    until the change is at most CORRECTOR_TOL or CORRECTOR_MAX_ITER
    iterations are spent, then g evaluated once more at the last iterate."""
    del jacobian
    x = explicit
    for iters in range(1, CORRECTOR_MAX_ITER + 1):
        x_new = base + w * evaluate(x)
        residual = float(np.max(np.abs(x_new - x)))
        x = x_new
        if residual <= CORRECTOR_TOL:
            break
    return x, evaluate(x), iters, residual, residual <= CORRECTOR_TOL


def _earlier_sub_blocks(row, fvals, m0):
    """The corrector's history from the nodes before m0 of the targets
    m0 .. m0 + SUB - 1, row by row, by the solver's np.correlate on row, its
    padded weight row (row[n - k] weights lag k): zeros when m0 = 0."""
    n = row.shape[0] - 1
    d = fvals.shape[1]
    if not m0:
        return np.zeros((SUB, d))
    return np.stack([np.correlate(row[n - m0 - (SUB - 1) : n], fvals[:m0, i], "valid")[::-1]
                     for i in range(d)], axis=1)


def _own_sub_block(row, fvals, m):
    """The corrector's history of node m from the earlier nodes of its own
    sub-block, summed lag by lag 1 .. SUB - 1 in the solver's order.  A lag
    that reaches before the sub-block's start adds +0.0 here; the solver
    adds only the lags inside the sub-block, and x + 0.0 == x."""
    n = row.shape[0] - 1
    m0 = m - m % SUB
    total = None
    for lag in range(1, SUB):
        g = fvals[m - lag] if m - lag >= m0 else np.zeros(fvals.shape[1])
        total = row[n - lag] * g if total is None else total + row[n - lag] * g
    return total


def _reference_pece_loop(alpha, fld, params, forcing, dt, corrector=_newton):
    """The corrector on length-d numpy arrays, with the history sum taken
    directly over every earlier node at every step, O(N^2).

    Kept as the reference: bit-identical to the solver within one leaf, and
    the direct sum that the solver's FFT blocks must reproduce beyond it.  It
    takes the solver's summation order over the g values of every earlier
    node, node 0 included, whose trapezoid weight the corrector's offset
    takes back out.  The sum, split by sub-blocks of SUB nodes aligned at
    node 0, is the earlier sub-blocks' sum plus that of the node's own
    sub-block.  Newton starts from the chord update of x(n) with the kept
    Jacobian J*: x(n) - (I - w*J*)^-1 (x(n) - base - w*g(x(n))).  J* is
    evaluated at the state before each leaf's first step and renewed by
    every evaluation of J.  Where J fails there or I - w*J has a zero pivot,
    and after an unconverged step, which keeps the explicit step, J* = 0, so
    that the next start is the explicit step.
    """
    N, d = forcing.shape[0] - 1, forcing.shape[1]
    far, near = _weights(alpha, max(N, 1))
    scale = dt**alpha / math.gamma(alpha)
    padded = np.zeros(SUB + N + 1)  # the solver's weight row, SUB zeros first
    W = padded[SUB:]  # the trapezoid weights, by lag from N
    W[1:] = (far[:-1] + near[1:])[::-1]
    W *= scale
    node0 = scale * far - W[::-1]  # node 0 at step m: far[m] less its weight in W
    w_self = scale * near[1]

    states = np.empty((N + 1, d))
    fvals = np.empty((N + 1, d))
    states[0] = forcing[0]
    meta = SolverMeta()
    escape_index = None
    escape_sign = 0
    params = tuple(params)
    eval_fns = fld.compiled()
    jac_fns = [fld.derivative(i).compiled() for i in range(d)]
    last = [None]  # the point of the latest evaluation of g
    kept = [None]  # J*

    def evaluate(x):
        meta.field_evals += 1
        last[0] = x
        xs = x.tolist()
        return np.asarray([fn(xs, params) for fn in eval_fns], dtype=float)

    def jacobian(x):
        meta.jacobian_evals += 1
        xs = x.tolist()
        kept[0] = np.asarray([[float(jac_fns[i][k](xs, params)) for i in range(d)]
                              for k in range(d)])
        return kept[0]

    eval_points(fld, states[:1], params)
    fvals[0] = evaluate(states[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            t = (n + 1) % SUB
            if not (n and t):  # a sub-block starts, or node 1's
                earlier = _earlier_sub_blocks(padded, fvals, n + 1 - t)
            base = ((forcing[n + 1] + node0[n + 1] * fvals[0])
                    + (earlier[t] + _own_sub_block(padded, fvals, n + 1)))
            explicit = base + w_self * fvals[n]
            if not (n and (n + 1) % LEAF):  # a leaf's first step: J* at x(n)
                try:
                    _eliminate(np.eye(d) - w_self * jacobian(states[n]), np.zeros(d))
                except (ArithmeticError, ValueError, TypeError):
                    kept[0] = np.zeros((d, d))
            x = states[n] - _eliminate(np.eye(d) - w_self * kept[0],
                                       states[n] - base - w_self * fvals[n])
            try:
                x, fvals[n + 1], iters, residual, accepted = corrector(
                    x, explicit, base, w_self, evaluate, jacobian)
                meta.corrector_iterations = max(meta.corrector_iterations, iters)
                meta.newton_iterations += iters
                meta.max_residual = max(meta.max_residual, residual)
                meta.unconverged_steps += not accepted
                if not accepted:
                    kept[0] = np.zeros((d, d))
                escaped = not np.max(np.abs(x)) <= ESCAPE_THRESHOLD
            except (ArithmeticError, ValueError, TypeError):
                x, escaped = last[0], True
            if escaped:
                x = np.where(np.isnan(x), np.sign(states[n]) * ESCAPE_THRESHOLD, x)
                x = np.clip(x, -ESCAPE_THRESHOLD, ESCAPE_THRESHOLD)
                states[n + 1 :] = x
                escape_index = n + 1
                peak = x[int(np.argmax(np.abs(x)))]
                escape_sign = int(np.sign(peak)) if abs(peak) == ESCAPE_THRESHOLD else 0
                break
            states[n + 1] = x
    meta.steps = escape_index or N
    return Trajectory(alpha, dt * np.arange(N + 1), states, meta, escape_index, escape_sign)


# y^50 overflows to inf within the first step, so y's corrector difference turns
# nan (inf - inf) while x's still converges: the residual must stay nan.
NAN_IN_Y = FieldDef.parse(["-x", "y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y"
                                 "*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y*y - y"])
KERNEL_CASES = {  # alpha, field, params, x0, t_end, dt
    "cubic": (0.6, CUBIC, (), (2.0,), 10.0, 0.01),
    "fig2_assembled": (0.6, catalog.get("fig2").fld.assembled(), (), (0.5, -0.3), 10.0, 0.01),
    "stiff_capped": (0.3, CUBIC, (), (2.0,), 50.0, 0.05),
    "overflow_escape": (0.5, FieldDef.parse(["x*x*x*x*x*x*x*x"]), (), (2.0,), 5.0, 0.01),
    "complex_mid_solve": (0.5, FieldDef.parse(["-1 - x^0.5"]), (), (0.5,), 2.0, 0.1),
    # g' raises ZeroDivisionError at x0 = 0: the kept J starts as 0.
    "jacobian_fails_at_x0": (0.6, FieldDef.parse(["1 - x^0.5"]), (), (0.0,), 10.0, 0.01),
    "nan_in_one_component": (0.5, NAN_IN_Y, (), (1.0, 3.0), 1.0, 0.01),
    # J's diagonal is structurally zero: elimination fills in the (1, 1) pivot.
    "rotation_zero_diagonal": (0.7, FieldDef.parse(["y", "-x"]), (), (1.0, 0.0), 2.0, 0.01),
    # Not triangular, with parameters: every component reads every coordinate.
    "lorenz_3d_params": (0.95, FieldDef.parse(["sigma*(y - x)", "x*(rho - z) - y",
                                               "x*y - 2.5*z"], ("sigma", "rho")),
                         (10.0, 28.0), (1.0, 1.0, 1.0), 2.0, 0.01),
}


class TestFloatKernel:
    @staticmethod
    def assert_identical(traj, ref):
        assert np.array_equal(traj.states, ref.states)
        assert traj.escape_index == ref.escape_index
        assert traj.escape_sign == ref.escape_sign
        assert traj.meta.corrector_iterations == ref.meta.corrector_iterations
        assert traj.meta.max_residual == ref.meta.max_residual
        assert traj.meta.field_evals == ref.meta.field_evals
        assert traj.meta.jacobian_evals == ref.meta.jacobian_evals
        assert traj.meta.unconverged_steps == ref.meta.unconverged_steps
        assert traj.meta.newton_iterations == ref.meta.newton_iterations

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_numpy_reference(self, case):
        alpha, fld, params, x0, t_end, dt = KERNEL_CASES[case]
        traj = solve_pece(CaputoProblem(alpha, fld, params, x0, t_end, dt))
        forcing = np.tile(np.asarray(x0, dtype=float), (len(traj.times), 1))
        self.assert_identical(traj, _reference_pece_loop(alpha, fld, params, forcing, dt))

    def test_jacobian_patterns(self):
        # Entries that diff folds to 0 are structural zeros: fig2's J is lower
        # triangular (forward substitution), while Lorenz has entries above
        # the diagonal, so its kernel case runs the elimination with back
        # substitution against the dense oracle.
        patterns = {case: caputo_solver._jacobian(KERNEL_CASES[case][1])[0]
                    for case in ("cubic", "fig2_assembled", "lorenz_3d_params")}
        assert patterns == {
            "cubic": ((True,),),
            "fig2_assembled": ((True, False), (True, True)),
            "lorenz_3d_params": ((True, True, False), (True, True, True), (True, True, True)),
        }

    def test_oracle_elimination_solves(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 5):
            A = np.eye(d) - 0.3 * rng.standard_normal((d, d))
            r = rng.standard_normal(d)
            np.testing.assert_allclose(_eliminate(A, r), np.linalg.solve(A, r),
                                       rtol=1e-12, atol=1e-12)

    def test_forced_solve_matches_numpy_reference(self):
        grid = 0.005 * np.arange(401)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None])
        traj = solve_svie(f, CUBIC, (), 0.6, 2.0, 0.005)
        ref = _reference_pece_loop(0.6, CUBIC, (), f.at(traj.times), 0.005)
        self.assert_identical(traj, ref)


def _leaf_case(n_nodes, x0=(2.0,), fld=CUBIC, alpha=0.6, dt=0.01):
    return (alpha, fld, (), x0, (n_nodes - 1) * dt, dt)


# Solves on both sides of a sub-block and of a leaf boundary, and over several
# leaves, whose older history the FFT blocks carry.
SPLIT_CASES = {
    "one_short_of_a_sub_block": _leaf_case(SUB - 1),
    "one_sub_block": _leaf_case(SUB),
    "one_past_a_sub_block": _leaf_case(SUB + 1),
    "three_sub_blocks_and_five": _leaf_case(3 * SUB + 5),
    "one_short_of_a_leaf": _leaf_case(LEAF - 1),
    "one_leaf": _leaf_case(LEAF),
    "one_past_a_leaf": _leaf_case(LEAF + 1),
    "two_leaves_and_a_node": _leaf_case(2 * LEAF + 1),
    "n_2e4": _leaf_case(20_001),
    "fig2_assembled": _leaf_case(4 * LEAF + 3, (0.5, -0.3),
                                 catalog.get("fig2").fld.assembled()),
    # Dissipative in 3-D, with J entries above the diagonal whose elimination
    # fills in: the FFT blocks carry each component's row of the g history.
    "dissipative_3d_two_leaves_and_a_node": _leaf_case(
        2 * LEAF + 1, (1.0, -0.5, 0.5),
        FieldDef.parse(["1 - x + 0.5*y", "-2*y + z - y^3", "x - z - z^3"])),
    # x' = x^2 from 0.1 at alpha = 0.9 blows up in the second leaf, at step 1051.
    "escape_in_second_leaf": _leaf_case(3001, (0.1,), FieldDef.parse(["x*x"]), 0.9),
}


class TestLeafSplit:
    @staticmethod
    def assert_matches(traj, ref):
        if len(traj.times) <= LEAF:  # one leaf: the direct sums alone
            assert np.array_equal(traj.states, ref.states)
        else:
            np.testing.assert_allclose(traj.states, ref.states, rtol=1e-12, atol=0.0)
        assert traj.escape_index == ref.escape_index
        assert traj.escape_sign == ref.escape_sign
        assert traj.meta.steps == ref.meta.steps
        assert traj.meta.field_evals == ref.meta.field_evals
        assert traj.meta.jacobian_evals == ref.meta.jacobian_evals
        assert traj.meta.unconverged_steps == ref.meta.unconverged_steps
        assert traj.meta.newton_iterations == ref.meta.newton_iterations

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_matches_direct_sums(self, case):
        alpha, fld, params, x0, t_end, dt = SPLIT_CASES[case]
        traj = solve_pece(CaputoProblem(alpha, fld, params, x0, t_end, dt))
        forcing = np.tile(np.asarray(x0, dtype=float), (len(traj.times), 1))
        self.assert_matches(traj, _reference_pece_loop(alpha, fld, params, forcing, dt))

    def test_escape_in_second_leaf(self):
        traj = solve_pece(CaputoProblem(*SPLIT_CASES["escape_in_second_leaf"]))
        assert traj.escape_index == 1051 and traj.escape_sign == +1

    def test_forced_solve_in_one_leaf(self):
        grid = 0.01 * np.arange(3 * SUB + 5)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None])
        traj = solve_svie(f, CUBIC, (), 0.6, grid[-1], 0.01)
        assert len(traj.times) == len(grid)
        self.assert_matches(traj, _reference_pece_loop(0.6, CUBIC, (), f.at(traj.times), 0.01))

    def test_forced_solve_over_several_leaves(self):
        grid = 0.005 * np.arange(4001)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None])
        traj = solve_svie(f, CUBIC, (), 0.6, 20.0, 0.005)
        self.assert_matches(traj, _reference_pece_loop(0.6, CUBIC, (), f.at(traj.times), 0.005))


SQUARE = FieldDef.parse(["x*x"])


def _square_solve(x0, n_nodes, dt=0.01):
    return solve_pece(CaputoProblem(0.9, SQUARE, (), (x0,), (n_nodes - 1) * dt, dt))


def _seed_escaping_at(node, x0s):
    """The middle x0 of the longest run of the scan x0s from which
    x' = x^2 (alpha = 0.9, dt = 0.01) escapes at node."""
    runs = [[]]
    for x0 in x0s:
        if _square_solve(x0, node + SUB).escape_index == node:
            runs[-1].append(x0)
        elif runs[-1]:
            runs.append([])
    run = max(runs, key=len)
    assert run, f"no x0 of the scan escapes at node {node}"
    return run[len(run) // 2]


# Escapes at each body t of a later sub-block, and at the first node of leaf 1:
# the node, and the scan of x0 that holds a seed for it.
ESCAPE_NODES = {**{f"body_{t}": (5 * SUB + t, np.geomspace(2.3, 1.6, 150)) for t in range(SUB)},
                "leaf_start": (LEAF, np.geomspace(0.103, 0.102, 50))}


class TestSubBlockKernel:
    @staticmethod
    def kernel_calls(kernel, problem):
        """The solve of problem, and the calls that kernel made during it, by
        name: into numpy (ndarray methods and numpy's Python functions), and
        into builtins (every other C function or method, and float)."""
        numpy_calls, builtin_calls = collections.Counter(), collections.Counter()

        # float is a type, whose calls the profiler does not report.  The solve
        # runs a copy of kernel that finds this wrapper under float's name, so
        # that each of its calls is a call event.
        def counted_float(x):
            return float(x)

        probe = types.FunctionType(kernel.__code__,
                                   {**kernel.__globals__, "float": counted_float})

        def profile(frame, event, arg):
            if event == "c_call" and frame.f_code is kernel.__code__:
                if isinstance(getattr(arg, "__self__", None), np.ndarray):
                    numpy_calls[arg.__name__] += 1
                else:
                    builtin_calls[arg.__name__] += 1
            elif (event == "call" and frame.f_back is not None
                  and frame.f_back.f_code is kernel.__code__):
                if frame.f_code is counted_float.__code__:
                    builtin_calls["float"] += 1
                elif (f"{os.sep}numpy{os.sep}" in frame.f_code.co_filename
                      and not frame.f_code.co_name.endswith("_dispatcher")):
                    numpy_calls[frame.f_code.co_name] += 1

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(caputo_solver, "_corrector", lambda pattern: probe)
            sys.setprofile(profile)
            try:
                traj = solve_pece(problem)
            finally:
                sys.setprofile(None)
        return traj, numpy_calls, builtin_calls

    def test_lorenz_kernel_has_no_numpy_call_per_step(self):
        alpha, fld, params, x0, _, dt = KERNEL_CASES["lorenz_3d_params"]
        kernel = caputo_solver._corrector(caputo_solver._jacobian(fld)[0])
        lag_weights = {v for v in kernel.__code__.co_varnames if re.fullmatch(r"w\d+", v)}
        assert lag_weights == {f"w{lag}" for lag in range(1, SUB)}
        seen = []
        for n_nodes in (SUB + 1, 1000):
            problem = CaputoProblem(alpha, fld, params, x0, (n_nodes - 1) * dt, dt)
            traj, calls, _ = self.kernel_calls(kernel, problem)
            assert traj.meta.unconverged_steps == 0 and traj.escape_index is None
            later_sub_blocks = -(-n_nodes // SUB) - 1  # all but the leaf's first
            assert calls["correlate"] == 3 * later_sub_blocks
            seen.append((later_sub_blocks, calls))
        # 991 more steps add only each later sub-block's correlations and
        # their tolist(), one per component.
        (few, calls_few), (many, calls_many) = seen
        extra = 3 * (many - few)
        assert calls_many - calls_few == collections.Counter(correlate=extra, tolist=extra)
        assert not calls_few - calls_many

    def test_lorenz_kernel_calls_no_builtin_but_float(self):
        # float() of each evaluated component of g and entry of J is the only
        # builtin a step calls: no abs() for the residual or the escape test.
        alpha, fld, params, x0, _, dt = KERNEL_CASES["lorenz_3d_params"]
        pattern = caputo_solver._jacobian(fld)[0]
        kernel = caputo_solver._corrector(pattern)
        problem = CaputoProblem(alpha, fld, params, x0, 999 * dt, dt)
        traj, _, builtin_calls = self.kernel_calls(kernel, problem)
        meta = traj.meta
        assert meta.unconverged_steps == 0 and traj.escape_index is None
        assert "abs" not in builtin_calls
        nnz = sum(map(sum, pattern))
        # The solver evaluates g at node 0 before the kernel runs.
        budget = 3 * (meta.field_evals - 1) + nnz * meta.jacobian_evals
        assert builtin_calls == collections.Counter(float=budget)

    def test_stores_go_through_memoryviews(self, monkeypatch):
        # Every state and g value that the kernel writes goes as a float
        # into a flat memoryview of doubles, built once per solve and
        # released when it ends.
        alpha, fld, params, x0, _, dt = KERNEL_CASES["lorenz_3d_params"]
        problem = CaputoProblem(alpha, fld, params, x0, 2 * LEAF * dt, dt)
        kernel = caputo_solver._corrector(caputo_solver._jacobian(fld)[0])

        class Recorder:
            def __init__(self, view):
                self.view, self.stores = view, 0

            def __getitem__(self, k):
                return self.view[k]

            def __setitem__(self, k, v):
                assert type(v) is float
                self.view[k] = v
                self.stores += 1

        calls = []

        def recorded(fns, jac, p, W, fvals, xb, views, *rest):
            assert [(type(v), v.format, v.ndim, v.contiguous, v.readonly) for v in views] == [
                (memoryview, "d", 1, True, False)] * 4
            recorders = [Recorder(v) for v in views]
            calls.append((views, recorders))
            return kernel(fns, jac, p, W, fvals, xb, tuple(recorders), *rest)

        monkeypatch.setattr(caputo_solver, "_corrector", lambda pattern: recorded)
        traj = solve_pece(problem)
        assert len(calls) == 3 and all(views is calls[0][0] for views, _ in calls)
        steps = traj.meta.steps
        assert steps == 2 * LEAF and traj.escape_index is None
        assert [sum(r[k].stores for _, r in calls) for k in range(4)] == [3 * steps] + [steps] * 3
        with pytest.raises(ValueError, match="released"):
            calls[0][0][0].format
        monkeypatch.undo()
        TestFloatKernel.assert_identical(traj, solve_pece(problem))

    def test_field_failure_inside_a_newton_iterate(self):
        # A step that ends the solve where g fails at a Newton iterate, not at
        # its chord start, in the middle of a later sub-block: the steps
        # before it count their chord starts, and the failing step counts by
        # its evaluations alone.  exp overflows on the way to a blow-up.
        fld, alpha, dt = FieldDef.parse(["exp(x)"]), 0.6, 0.01

        def failing_step_evals(meta):
            return meta.field_evals - 1 - meta.newton_iterations - meta.unconverged_steps

        def fails_inside_newton(x0):
            traj = solve_pece(CaputoProblem(alpha, fld, (), (x0,), 400 * dt, dt))
            m = traj.escape_index
            return (m is not None and traj.escape_sign == 0 and m >= SUB
                    and 0 < m % SUB < SUB - 1
                    and 2 <= failing_step_evals(traj.meta) <= CORRECTOR_MAX_ITER)

        x0 = next((x0 for x0 in np.geomspace(2.3, 0.5, 600).tolist() if fails_inside_newton(x0)),
                  None)
        assert x0 is not None, "no seed of the scan fails inside a Newton iterate"
        traj = solve_pece(CaputoProblem(alpha, fld, (), (x0,), 400 * dt, dt))
        ref = _reference_pece_loop(alpha, fld, (), np.full((401, 1), x0), dt)
        assert failing_step_evals(ref.meta) >= 2
        assert traj.meta == ref.meta
        TestFloatKernel.assert_identical(traj, ref)

    @pytest.mark.parametrize("case", ESCAPE_NODES)
    def test_escape_at_every_sub_block_position(self, case):
        # Each body of a sub-block is its own generated code: an escape in
        # each, found from x' = x^2 by a scan, ends the solve as the oracle's.
        node, x0s = ESCAPE_NODES[case]
        x0 = _seed_escaping_at(node, x0s)
        traj = _square_solve(x0, node + SUB)
        assert traj.escape_index == node and traj.escape_sign == +1
        ref = _reference_pece_loop(0.9, SQUARE, (), np.full((node + SUB, 1), x0), 0.01)
        if node < LEAF:
            TestFloatKernel.assert_identical(traj, ref)
            return
        # An FFT block rounds the history of leaf 1's nodes otherwise than the
        # direct sum: the escaping step's residual, a difference of terms near
        # 1e14, moves in its last digits.
        assert np.array_equal(traj.states, ref.states)
        assert traj.meta.corrector_iterations == ref.meta.corrector_iterations
        TestLeafSplit.assert_matches(traj, ref)  # the escape and every count
        assert traj.meta.max_residual == pytest.approx(ref.meta.max_residual, rel=1e-9)

    def test_every_body_keeps_its_explicit_step(self, monkeypatch):
        # Below a negative tolerance no step converges, so each body of the
        # solve's sub-blocks, the last one short, falls back to its explicit
        # step through one call of _explicit_step.  Each step evaluates g
        # CORRECTOR_MAX_ITER + 1 times, the last at its explicit step, after
        # node 0's evaluation.  Where that evaluation fails, at steps 1 .. SUB + 1
        # across the first sub-block boundary, the solve escapes there.
        monkeypatch.setattr(caputo_solver, "CORRECTOR_TOL", -1.0)
        monkeypatch.setitem(_newton.__globals__, "CORRECTOR_TOL", -1.0)
        alpha, _, params, x0, t_end, dt = _leaf_case(3 * SUB + 5)
        fld = FieldDef.parse(["x - x^3"])  # its own lambdas, poisoned below
        fns = fld.compiled()
        g, g_calls, failing = fns[0], [0], [None]

        def poisoned(s, p):
            g_calls[0] += 1
            if g_calls[0] == failing[0]:
                raise OverflowError("poisoned")
            return g(s, p)

        fns[0] = poisoned
        explicit_step, seen = caputo_solver._explicit_step, []

        def counted(*args):
            seen.append(g_calls[0])  # g's calls before the explicit step's
            return explicit_step(*args)

        monkeypatch.setattr(caputo_solver, "_explicit_step", counted)
        per_step = CORRECTOR_MAX_ITER + 1
        forcing = np.full((3 * SUB + 5, 1), x0[0])
        for step in (None, *range(1, SUB + 2)):
            failing[0] = step and 1 + per_step * step
            g_calls[0] = 0
            seen.clear()
            traj = solve_pece(CaputoProblem(alpha, fld, params, x0, t_end, dt))
            steps = step or 3 * SUB + 4
            assert seen == [per_step * s for s in range(1, steps + 1)]
            assert traj.meta.steps == steps
            assert traj.meta.unconverged_steps == (step - 1 if step else steps)
            assert traj.escape_index == step and traj.escape_sign == 0
            g_calls[0] = 0
            TestFloatKernel.assert_identical(
                traj, _reference_pece_loop(alpha, fld, params, forcing, dt))

    @pytest.mark.parametrize("case", ["fig2_assembled", "rotation_zero_diagonal",
                                      "lorenz_3d_params"])
    def test_every_body_resets_its_kept_jacobian(self, case):
        # Where every entry of J fails, the leaf starts with J* = 0 and each
        # step's Newton loop stops at its first evaluation of J, so that every
        # step keeps its explicit step and sets J* = 0 again: the factors of
        # I - w*0, also where the elimination fills in or substitutes back.
        # The next chord start is then the explicit step, which the oracle
        # takes as its start, and whose residual is the step's max_residual.
        alpha, shared, params, x0, _, dt = KERNEL_CASES[case]
        fld = FieldDef(shared.dimension, shared.components, shared.params)  # own lambdas

        def failing(s, p):
            raise ZeroDivisionError("poisoned")

        for i in range(fld.dimension):
            fns = fld.derivative(i).compiled()
            fns[:] = [failing] * len(fns)
        n_nodes = 3 * SUB + 5
        traj = solve_pece(CaputoProblem(alpha, fld, params, x0, (n_nodes - 1) * dt, dt))
        steps = n_nodes - 1
        assert traj.escape_index is None and traj.meta.unconverged_steps == steps
        assert traj.meta.field_evals == 1 + 2 * steps
        assert traj.meta.jacobian_evals == 1 + steps
        forcing = np.tile(np.asarray(x0, dtype=float), (n_nodes, 1))
        TestFloatKernel.assert_identical(
            traj, _reference_pece_loop(alpha, fld, params, forcing, dt))


class TestSolverStats:
    @staticmethod
    def counted(expressions, params=()):
        """A field whose compiled components, and those of its derivative
        fields, count their calls: calls[0] for g, calls[1] for J."""
        fld = FieldDef.parse(expressions, params)
        calls = [0, 0]
        for cell, f in [(0, fld), *((1, fld.derivative(i)) for i in range(fld.dimension))]:
            fns = f.compiled()
            for i, fn in enumerate(list(fns)):
                def component(s, p, fn=fn, cell=cell):
                    calls[cell] += 1
                    return fn(s, p)
                fns[i] = component
        return fld, calls

    def test_converging_solve(self):
        # g is linear, so the chord start with J, kept from the leaf's start,
        # solves each step's equation: per step one evaluation of g, at the root.
        fld, calls = self.counted(["-x"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (1.0,), 5.0, 0.01))
        assert traj.meta.steps == 500
        assert traj.meta.unconverged_steps == 0
        assert traj.meta.max_residual <= CORRECTOR_TOL
        assert traj.meta.corrector_iterations == 1
        assert traj.meta.field_evals == calls[0] == 1 + 500
        assert traj.meta.jacobian_evals == calls[1] == 1
        assert traj.meta.newton_iterations == 500

    def test_kept_jacobian_takes_one_evaluation_per_step(self):
        # J is evaluated once per leaf, at its start, and not carried over.
        meta = solve_pece(CaputoProblem(0.5, LINEAR, (), (1.0,), 30.0, 0.01)).meta
        assert meta.steps == 3000 and -(-3001 // LEAF) == 3
        assert (meta.field_evals, meta.jacobian_evals, meta.newton_iterations) == (3001, 3, 3000)
        # On the cubic the chord start meets CORRECTOR_TOL on most steps, and
        # J is renewed only where it does not.
        meta = solve_pece(CaputoProblem(0.6, CUBIC, (), (2.0,), 1000.0, 0.01)).meta
        assert meta.steps == 100_000 and meta.unconverged_steps == 0
        assert meta.max_residual <= CORRECTOR_TOL
        assert meta.field_evals / meta.steps <= 1.1
        assert meta.jacobian_evals / meta.steps <= 0.1

    def test_small_states_scale_with_the_initial_value(self):
        # x' = -x is linear, so the solve from 1e-20 is 1e-20 times the solve
        # from 1.  Every residual there is below the absolute CORRECTOR_TOL, so
        # without the rule of one Newton update each start would be accepted
        # unchanged.
        tiny = solve_pece(CaputoProblem(0.6, LINEAR, (), (1e-20,), 10.0, 0.01))
        unit = solve_pece(CaputoProblem(0.6, LINEAR, (), (1.0,), 10.0, 0.01))
        np.testing.assert_allclose(tiny.states, 1e-20 * unit.states, rtol=1e-13, atol=0.0)
        assert tiny.meta.unconverged_steps == 0

    def test_stiff_solve_converges_on_every_step(self):
        # At alpha = 0.3, dt = 0.05 from x0 = 2, w*|g'| reaches about 2.5, where
        # the fixed point diverged on every step (see test_fixed_point_record).
        fld, calls = self.counted(["x - x^3"])
        traj = solve_pece(CaputoProblem(0.3, fld, (), (2.0,), 50.0, 0.05))
        assert traj.escape_index is None
        assert traj.meta.steps == 1000
        assert traj.meta.unconverged_steps == 0
        assert traj.meta.max_residual <= CORRECTOR_TOL
        assert traj.meta.corrector_iterations < CORRECTOR_MAX_ITER
        assert traj.meta.field_evals == calls[0]
        assert traj.meta.jacobian_evals == calls[1]
        # every step evaluates g after its chord start and after each
        # evaluation of J but the one at the leaf's start
        assert traj.meta.field_evals == 1 + 1000 + traj.meta.jacobian_evals - 1
        assert traj.meta.field_evals / traj.meta.steps <= 5.0

    # Saddle draws at dt = 0.05 where x = b + w*(gamma - x^2) loses its real
    # root on the way to -infinity: Newton cannot converge there, and the
    # escape comes from the explicit step that the step keeps.
    NO_ROOT = [(-0.8090, 0.4566, 0.4460), (-0.8277, 0.8789, -0.3492),
               (0.7443, 0.4987, -1.2946), (-0.9858, 0.7625, -0.1200)]

    @pytest.mark.parametrize("gamma, alpha, x0", NO_ROOT)
    def test_steps_without_a_root_keep_the_predictor_and_escape(self, gamma, alpha, x0):
        fld, calls = self.counted(["gamma - x^2"], ("gamma",))
        traj = solve_pece(CaputoProblem(alpha, fld, (gamma,), (x0,), 50.0, 0.05))
        assert traj.escape_index is not None and traj.escape_sign == -1
        assert 0 < traj.meta.unconverged_steps < traj.meta.steps == traj.escape_index
        assert traj.meta.corrector_iterations == CORRECTOR_MAX_ITER
        assert traj.meta.field_evals == calls[0]
        assert traj.meta.jacobian_evals == calls[1]

    def test_field_evals_count_whole_fields(self):
        fld, calls = self.counted(["y - x", "-x - y"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (1.0, 0.0), 1.0, 0.01))
        assert calls[0] == 2 * traj.meta.field_evals
        assert calls[1] == 4 * traj.meta.jacobian_evals  # J has no zero entry

    def test_unconverged_steps_keep_the_explicit_step(self, monkeypatch):
        # Below a negative tolerance no step converges, so every step keeps
        # the explicit step x(m) = b + w*g(x(m-1)).  For g = lam x, with
        # c = dt^alpha / Gamma(alpha) and g_k = g(x_k):
        #   x1 = x0 + c (far[1] + near[1]) g0 = x0 (1 + lam dt^alpha / Gamma(alpha + 1)),
        #   x2 = x0 + c (far[2] g0 + (near[2] + far[1] + near[1]) g1).
        alpha, dt, lam, x0 = 0.5, 0.1, -1.0, 1.0
        monkeypatch.setattr(caputo_solver, "CORRECTOR_TOL", -1.0)
        fld = FieldDef.parse(["lam*x"], ("lam",))
        traj = solve_pece(CaputoProblem(alpha, fld, (lam,), (x0,), 2 * dt, dt))
        assert traj.meta.unconverged_steps == 2
        x1, x2 = traj.scalar()[1:]
        assert x1 == pytest.approx(x0 * (1.0 + lam * dt**alpha / math.gamma(alpha + 1.0)),
                                   rel=1e-14)
        c = dt**alpha / math.gamma(alpha)
        far, near = _weights(alpha, 2)
        g0, g1 = lam * x0, lam * x1
        expect = x0 + c * (far[2] * g0 + (near[2] + far[1] + near[1]) * g1)
        assert x2 == pytest.approx(expect, rel=1e-14)

    def test_corrector_limits_are_read_at_call_time(self, monkeypatch):
        fld, calls = self.counted(["x - x^3"])
        stiff = CaputoProblem(0.3, fld, (), (2.0,), 50.0, 0.05)
        solve_pece(stiff)  # the corrector for this pattern exists before the patch
        calls[:] = [0, 0]
        monkeypatch.setattr(caputo_solver, "CORRECTOR_MAX_ITER", 1)
        monkeypatch.setattr(caputo_solver, "CORRECTOR_TOL", -1.0)
        traj = solve_pece(stiff)
        # One iteration takes no Newton step and no step meets a negative
        # tolerance: every step keeps its explicit step and evaluates g there a
        # second time, and J is evaluated only at the leaf's start.
        assert traj.meta.corrector_iterations == 1
        assert traj.meta.unconverged_steps == 1000
        assert traj.meta.field_evals == calls[0] == 1 + 1000 * 2
        assert traj.meta.jacobian_evals == calls[1] == 1
        monkeypatch.setattr(caputo_solver, "CORRECTOR_MAX_ITER", 10)
        monkeypatch.setattr(caputo_solver, "CORRECTOR_TOL", 1e-3)
        traj = solve_pece(CaputoProblem(0.5, fld, (), (0.5,), 1.0, 0.01))
        assert traj.meta.unconverged_steps == 0
        assert 1e-12 < traj.meta.max_residual <= 1e-3

    def test_escaped_solve_stops_counting_at_the_escape(self):
        fld, calls = self.counted(["-1 - x^0.5"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (0.5,), 2.0, 0.1))
        assert traj.meta.steps == traj.escape_index == 1
        # g and J at the start, then g at the chord start, which fails
        assert traj.meta.field_evals == calls[0] == 2
        assert traj.meta.jacobian_evals == calls[1] == 1
        assert traj.meta.unconverged_steps == 0

    def test_a_nan_iterate_does_not_outlive_its_step(self):
        # One evaluation of g returns nan, so that step's next Newton iterate
        # and J there are nan: the step keeps its explicit step and drops J*,
        # and the steps after it converge again.
        fld = FieldDef.parse(["x - x^3"])
        fns = fld.compiled()
        g, calls = fns[0], [0]

        def poisoned(s, p):
            calls[0] += 1
            return math.nan if calls[0] == 100 else g(s, p)

        fns[0] = poisoned
        traj = solve_pece(CaputoProblem(0.6, fld, (), (2.0,), 10.0, 0.01))
        assert traj.escape_index is None
        assert traj.meta.unconverged_steps == 1
        assert traj.meta.corrector_iterations == CORRECTOR_MAX_ITER  # the nan step's
        calls[0] = 0
        TestFloatKernel.assert_identical(
            traj, _reference_pece_loop(0.6, fld, (), np.full((1001, 1), 2.0), 0.01))

    def test_jacobian_failing_at_the_start_keeps_the_explicit_start(self):
        # g' = -0.5 x^-0.5 raises ZeroDivisionError at x0 = 0, so the leaf's
        # kept J is 0 and its first step starts from the explicit step.
        fld = FieldDef.parse(["1 - x^0.5"])
        traj = solve_pece(CaputoProblem(0.6, fld, (), (0.0,), 10.0, 0.01))
        assert traj.escape_index is None and traj.meta.unconverged_steps == 0
        # the endpoint of the solve that started from 2*x(m-1) - x(m-2)
        assert traj.endpoint()[0] == pytest.approx(0.7809184519844313, abs=1e-9)

    def test_fixed_point_record(self):
        # The fixed-point corrector that Newton's method replaced: where it
        # contracts, both solve the same equations; on the stiff start of the
        # cubic it stopped at the iteration cap on every step.
        alpha, dt = 0.5, 0.01
        forcing = np.full((501, 1), 1.0)
        newton = _reference_pece_loop(alpha, LINEAR, (), forcing, dt)
        fixed = _reference_pece_loop(alpha, LINEAR, (), forcing, dt, _fixed_point)
        assert fixed.meta.unconverged_steps == newton.meta.unconverged_steps == 0
        np.testing.assert_allclose(fixed.states, newton.states, rtol=0.0, atol=1e-12)
        forcing = np.full((1001, 1), 2.0)
        fixed = _reference_pece_loop(0.3, CUBIC, (), forcing, 0.05, _fixed_point)
        assert fixed.meta.unconverged_steps == 1000
        assert fixed.meta.max_residual > 1.0
        newton = _reference_pece_loop(0.3, CUBIC, (), forcing, 0.05)
        assert newton.meta.unconverged_steps == 0
