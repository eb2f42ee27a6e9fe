"""Fractional Adams predictor-corrector solver: exactness, accuracy, order."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracdyn import CaputoProblem, FieldDef, catalog, convergence_order, solve_pece, solve_svie
from fracdyn import scalar_analysis as sa
from fracdyn.caputo_solver import (
    CORRECTOR_MAX_ITER,
    CORRECTOR_TOL,
    ESCAPE_THRESHOLD,
    EXACT_ORDER,
    LEAF,
    SolverMeta,
    Trajectory,
    _weights,
)
from fracdyn.field_expr import eval_field
from fracdyn.function_space_semigroup import SampledFunction, apply_T
from fracdyn.mittag_leffler import ml

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
        # rect = int_{k-1}^{k} u^(a-1) du, far/near its split for g linear on
        # the step; 50 digits leave ~39 after the cancellation at k = 2e5.
        n = 200_000
        rect, far, near = _weights(alpha, n)
        assert rect[0] == far[0] == near[0] == 0.0
        offsets = sorted({*range(1, 40), *np.geomspace(40, n, 60).astype(int).tolist()})
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            for k in offsets:
                k_ = mpmath.mpf(k)
                r = (k_**a - (k_ - 1) ** a) / a
                p = (k_ ** (a + 1) - (k_ - 1) ** (a + 1)) / (a + 1)
                for got, want in ((rect[k], r), (far[k], p - (k_ - 1) * r),
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


@pytest.mark.parametrize("entry", SOLVE_ENTRY_POINTS)
@pytest.mark.parametrize("alpha, t_end, dt", BAD_SOLVES)
def test_bad_order_or_grid_is_rejected(entry, alpha, t_end, dt):
    with pytest.raises(ValueError, match=r"alpha must be in|need 0 < dt <= t_end|budget"):
        SOLVE_ENTRY_POINTS[entry](alpha, t_end, dt)


class TestForcedEquation:
    def test_constant_forcing_matches_initial_value_solve(self):
        f = SampledFunction.constant([1.0], 1.0, 0.01)
        by_ivp = solve_pece(CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, 0.01))
        by_svie = solve_svie(f, LINEAR, (), 0.5, 1.0, 0.01)
        assert np.array_equal(by_ivp.states, by_svie.states)

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


class TestConvergenceOrder:
    def test_linear_order_exceeds_floor(self):
        p = CaputoProblem(0.5, LINEAR, (), (1.0,), 1.0, 0.02)
        slope = convergence_order(p, levels=4)
        assert slope != EXACT_ORDER
        assert slope >= 1.2

    def test_exact_sentinel_for_trivial_field(self):
        p = CaputoProblem(0.5, FieldDef.parse(["0"]), (), (2.0,), 1.0, 0.1)
        assert convergence_order(p, levels=3) == EXACT_ORDER


class TestEscape:
    def test_negative_escape_is_marked(self):
        # gamma - x^2 from below the lower steady state runs to -infinity
        p = CaputoProblem(0.5, SADDLE, (0.25,), (-1.0,), 50.0, 0.01)
        traj = solve_pece(p)
        assert traj.escape_index is not None
        assert traj.escape_sign == -1
        assert np.all(np.isfinite(traj.states))
        assert traj.states.shape[0] == len(traj.times)
        # endpoint() reports the state at escape, not the padded tail
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
        # the iteration cap, not the residual target, binds on coarse grids
        assert math.isfinite(traj.meta.max_residual)
        assert traj.meta.max_residual < 1e-2

    def test_multidimensional_states(self):
        rot = FieldDef.parse(["y - x", "-x - y"])
        traj = solve_pece(CaputoProblem(0.5, rot, (), (1.0, 0.0), 5.0, 0.01))
        assert traj.states.shape == (501, 2)
        assert np.all(np.isfinite(traj.states))
        # contraction: the field is linear with spectrum -1 +- i
        assert np.linalg.norm(traj.states[-1]) < 0.5


def _reference_pece_loop(alpha, fld, params, forcing, dt):
    """The corrector on length-d numpy arrays, with both history sums taken
    directly over every earlier node at every step, O(N^2).

    Kept as the reference: bit-identical to the solver within one leaf, and
    the direct sum that the solver's FFT blocks must reproduce beyond it.
    """
    N, d = forcing.shape[0] - 1, forcing.shape[1]
    rect, far, near = _weights(alpha, max(N, 1))
    scale = dt**alpha / math.gamma(alpha)
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
        meta.field_evals += 1
        xs = x.tolist()
        return np.asarray([fn(xs, params) for fn in eval_fns], dtype=float)

    eval_field(fld, states[0], params)
    fvals[0] = evaluate(states[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
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
                meta.unconverged_steps += not residual <= CORRECTOR_TOL
                escaped = not np.max(np.abs(x)) <= ESCAPE_THRESHOLD
            except (ArithmeticError, ValueError, TypeError):
                escaped = True
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
    "nan_in_one_component": (0.5, NAN_IN_Y, (), (1.0, 3.0), 1.0, 0.01),
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
        assert traj.meta.unconverged_steps == ref.meta.unconverged_steps

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_numpy_reference(self, case):
        alpha, fld, params, x0, t_end, dt = KERNEL_CASES[case]
        traj = solve_pece(CaputoProblem(alpha, fld, params, x0, t_end, dt))
        forcing = np.tile(np.asarray(x0, dtype=float), (len(traj.times), 1))
        self.assert_identical(traj, _reference_pece_loop(alpha, fld, params, forcing, dt))

    def test_forced_solve_matches_numpy_reference(self):
        grid = 0.005 * np.arange(401)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None])
        traj = solve_svie(f, CUBIC, (), 0.6, 2.0, 0.005)
        ref = _reference_pece_loop(0.6, CUBIC, (), f.at(traj.times), 0.005)
        self.assert_identical(traj, ref)


def _leaf_case(n_nodes, x0=(2.0,), fld=CUBIC, alpha=0.6, dt=0.01):
    return (alpha, fld, (), x0, (n_nodes - 1) * dt, dt)


# Solves on both sides of a leaf boundary, and over several leaves, whose
# older history the FFT blocks carry.
SPLIT_CASES = {
    "one_short_of_a_leaf": _leaf_case(LEAF - 1),
    "one_leaf": _leaf_case(LEAF),
    "one_past_a_leaf": _leaf_case(LEAF + 1),
    "two_leaves_and_a_node": _leaf_case(2 * LEAF + 1),
    "n_2e4": _leaf_case(20_001),
    "fig2_assembled": _leaf_case(4 * LEAF + 3, (0.5, -0.3),
                                 catalog.get("fig2").fld.assembled()),
    # x' = x^2 from 0.1 at alpha = 0.9 blows up in the second leaf, at step 1046.
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
        assert traj.meta.unconverged_steps == ref.meta.unconverged_steps

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_matches_direct_sums(self, case):
        alpha, fld, params, x0, t_end, dt = SPLIT_CASES[case]
        traj = solve_pece(CaputoProblem(alpha, fld, params, x0, t_end, dt))
        forcing = np.tile(np.asarray(x0, dtype=float), (len(traj.times), 1))
        self.assert_matches(traj, _reference_pece_loop(alpha, fld, params, forcing, dt))

    def test_escape_in_second_leaf(self):
        traj = solve_pece(CaputoProblem(*SPLIT_CASES["escape_in_second_leaf"]))
        assert traj.escape_index == 1046 and traj.escape_sign == +1

    def test_forced_solve_over_several_leaves(self):
        grid = 0.005 * np.arange(4001)
        f = SampledFunction(grid, (1.0 + 0.5 * np.sin(3.0 * grid))[:, None])
        traj = solve_svie(f, CUBIC, (), 0.6, 20.0, 0.005)
        self.assert_matches(traj, _reference_pece_loop(0.6, CUBIC, (), f.at(traj.times), 0.005))


class TestSolverStats:
    @staticmethod
    def counted(expressions):
        """A field whose compiled components count their calls."""
        fld = FieldDef.parse(expressions)
        calls = [0]
        fns = fld.compiled()
        for i, fn in enumerate(list(fns)):
            def component(s, p, fn=fn):
                calls[0] += 1
                return fn(s, p)
            fns[i] = component
        return fld, calls

    def test_converging_solve(self):
        fld, calls = self.counted(["-x"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (1.0,), 5.0, 0.01))
        assert traj.meta.steps == 500
        assert traj.meta.unconverged_steps == 0
        assert traj.meta.max_residual <= CORRECTOR_TOL
        assert traj.meta.field_evals == calls[0]
        # the initial evaluation, then per step the iterations and the final one
        assert 2 * 500 + 1 <= traj.meta.field_evals <= (CORRECTOR_MAX_ITER + 1) * 500 + 1

    def test_stiff_solve_counts_every_capped_step(self):
        # At alpha = 0.3, dt = 0.05 from x0 = 2 the fixed point does not contract
        # on any step, so every step stops at the iteration cap.
        fld, calls = self.counted(["x - x^3"])
        traj = solve_pece(CaputoProblem(0.3, fld, (), (2.0,), 50.0, 0.05))
        assert traj.escape_index is None
        assert traj.meta.steps == traj.meta.unconverged_steps == 1000
        assert traj.meta.corrector_iterations == CORRECTOR_MAX_ITER
        assert traj.meta.max_residual > CORRECTOR_TOL
        assert traj.meta.field_evals == calls[0] == 1 + 1000 * (CORRECTOR_MAX_ITER + 1)

    def test_field_evals_count_whole_fields(self):
        fld, calls = self.counted(["y - x", "-x - y"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (1.0, 0.0), 1.0, 0.01))
        assert calls[0] == 2 * traj.meta.field_evals

    def test_escaped_solve_stops_counting_at_the_escape(self):
        fld, calls = self.counted(["-1 - x^0.5"])
        traj = solve_pece(CaputoProblem(0.5, fld, (), (0.5,), 2.0, 0.1))
        assert traj.meta.steps == traj.escape_index == 1
        # the start, then the first corrector evaluation, which fails
        assert traj.meta.field_evals == calls[0] == 2
        assert traj.meta.unconverged_steps == 0
