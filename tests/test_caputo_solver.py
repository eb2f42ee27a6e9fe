"""Fractional Adams predictor-corrector solver: exactness, accuracy, order."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracdyn import CaputoProblem, FieldDef, convergence_order, solve_pece, solve_svie
from fracdyn.caputo_solver import EXACT_ORDER, _weights
from fracdyn.function_space_semigroup import SampledFunction
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
