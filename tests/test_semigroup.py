"""Function-space semigroup operators, the compact-convergence metric, and
numerical defects."""

import math
import warnings

import numpy as np
import pytest

from fracdyn import FieldDef, solve_svie
from fracdyn.caputo_solver import CORRECTOR_TOL
from fracdyn.field_expr import eval_points
from fracdyn.function_space_semigroup import (
    RhoParams,
    SampledFunction,
    apply_T,
    rho,
    semigroup_defect,
    state_space_defect,
)
from fracdyn.mittag_leffler import ml

LINEAR = FieldDef.parse(["-x"])
CUBIC = FieldDef.parse(["x - x^3"])
ZERO = FieldDef.parse(["0"])
ROT = FieldDef.parse(["y - x", "-x - y^3"])


def dense_memory(tau, f, fld, alpha, dt, theta_max):
    """Memory tail of T_tau f from the (n_out x m) product-trapezoid matrix."""
    m, n_out = int(round(tau / dt)), int(round(theta_max / dt))
    traj = solve_svie(f, fld, (), alpha, m * dt, dt)
    gvals = eval_points(fld, traj.states, ())
    u_l = m * dt + dt * np.arange(1, n_out + 1)[:, None] - traj.times[None, :-1]
    u_r = u_l - dt
    ua_l, ua_r = u_l**alpha, u_r**alpha
    i0 = (ua_l - ua_r) / alpha
    i1 = (u_l * i0 - (u_l * ua_l - u_r * ua_r) / (alpha + 1.0)) / dt
    return ((i0 - i1) @ gvals[:-1] + i1 @ gvals[1:]) / math.gamma(alpha)


class TestSampledFunction:
    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.1, 0.3]), np.zeros(3))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.1]), np.array([1.0, math.nan]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.1]), np.zeros(3))

    @pytest.mark.parametrize("grid", [
        0.5 * np.arange(51) + 0.1,  # shifted
        np.array([1.0, 2.0, 3.0]),  # starts at a step
        np.array([-1.0, 0.0, 1.0]),
        np.array([]),
        np.array([0.0, -1.0, -2.0]),  # decreasing
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, math.inf]),
        np.array([0.0, math.nan]),
    ])
    def test_grid_must_run_from_zero_by_a_positive_step(self, grid):
        with pytest.raises(ValueError, match="run from 0"):
            SampledFunction(grid, np.zeros(len(grid)))

    def test_single_point_grid(self):
        assert SampledFunction(np.array([0.0]), np.array([5.0])).horizon == 0.0

    def test_coverage(self):
        f = SampledFunction.constant([1.0], 1.0, 0.1)
        f.check_covers(1.0)
        f.check_covers(1.0 + 1e-13)
        with pytest.raises(ValueError, match=r"samples cover \[0, 1\.0\] but \[0, 1\.01\]"):
            f.check_covers(1.01)

    @pytest.mark.parametrize("theta_max, dt", [
        (20.0, 0.0), (20.0, -0.05), (20.0, math.nan), (20.0, math.inf), (math.inf, math.inf),
        (20.0, 1e-9),  # 2e10 steps: rejected before any array is built
    ])
    def test_constant_rejects_bad_step(self, theta_max, dt):
        with pytest.raises(ValueError, match="need 0 < dt <= t_end|budget"):
            SampledFunction.constant([1.0], theta_max, dt)

    def test_constant_factory_and_interpolation(self):
        f = SampledFunction.constant([2.0], 1.0, 0.25)
        assert f.horizon == 1.0
        assert f.dimension == 1
        assert np.all(f.at([0.0, 0.4, 1.0, 5.0]) == 2.0)  # flat extension


class TestRho:
    def test_identical_functions_have_zero_distance(self):
        f = SampledFunction.constant([1.0], 25.0, 0.5)
        assert rho(f, f) == 0.0

    def test_symmetry(self):
        grid = 0.5 * np.arange(51)
        f = SampledFunction(grid, np.sin(grid))
        h = SampledFunction(grid, np.cos(grid))
        assert rho(f, h) == rho(h, f)

    def test_constant_offset_closed_form(self):
        # |f-h| = c everywhere: rho = sum 2^-n c/(1+c) = (1 - 2^-20) c/(1+c)
        f = SampledFunction.constant([0.0], 25.0, 0.5)
        h = SampledFunction.constant([0.5], 25.0, 0.5)
        expect = (1.0 - 2.0**-20) * 0.5 / 1.5
        assert rho(f, h) == pytest.approx(expect, rel=1e-12)

    def test_bounded_by_one(self):
        f = SampledFunction.constant([0.0], 25.0, 0.5)
        h = SampledFunction.constant([1.0e9], 25.0, 0.5)
        assert rho(f, h) < 1.0

    def test_different_grids_rejected(self):
        f = SampledFunction.constant([0.0], 25.0, 0.5)
        for h in (SampledFunction.constant([0.0], 25.0, 0.25),   # finer
                  SampledFunction.constant([0.0], 30.0, 0.5)):   # longer
            with pytest.raises(ValueError, match="one grid"):
                rho(f, h)

    def test_short_horizon_rejected(self):
        f = SampledFunction.constant([0.0], 5.0, 0.5)
        with pytest.raises(ValueError):
            rho(f, f)
        assert rho(f, f, RhoParams(n_max=5)) == 0.0

    def test_rho_params_validation(self):
        with pytest.raises(ValueError):
            RhoParams(n_max=0)


class TestApplyT:
    def test_tau_zero_is_identity(self):
        f = SampledFunction.constant([0.7], 25.0, 0.05)
        g = apply_T(0.0, f, CUBIC, (), 0.5, 0.05, theta_max=20.0)
        assert np.array_equal(g.values, f.values[: len(g.values)])

    def test_zero_field_is_pure_shift(self):
        grid = 0.05 * np.arange(501)
        f = SampledFunction(grid, np.sin(grid))
        g = apply_T(5.0, f, ZERO, (), 0.5, 0.05, theta_max=10.0)
        assert np.max(np.abs(g.values[:, 0] - np.sin(5.0 + g.theta_grid))) < 1e-12

    def test_linear_field_endpoint_matches_mittag_leffler(self):
        # (T_tau f)(0) for constant f = f0 and g = -x is E_a(-tau^a) f0
        alpha, tau, f0 = 0.6, 2.0, 1.5
        f = SampledFunction.constant([f0], 25.0, 0.01)
        g = apply_T(tau, f, LINEAR, (), alpha, 0.01, theta_max=1.0)
        expect = ml(alpha, 1.0, -(tau**alpha)) * f0
        assert g.values[0, 0] == pytest.approx(expect, abs=1e-3)

    @pytest.mark.parametrize("fld, f0, tau, alpha", [
        (CUBIC, [0.5], 3.0, 0.6),
        (CUBIC, [1.5], 0.05, 0.3),  # m = 1: one step of memory
        (ROT, [1.0, -0.5], 2.0, 0.4),
        (ROT, [0.2, 0.7], 0.05, 0.8),
    ])
    def test_memory_tail_matches_dense_matrix(self, fld, f0, tau, alpha):
        dt, theta = 0.05, 4.0
        f = SampledFunction.constant(f0, tau + theta + 1.0, dt)
        g = apply_T(tau, f, fld, (), alpha, dt, theta_max=theta)
        tail = g.values[1:] - f.at(tau + g.theta_grid[1:])
        ref = dense_memory(tau, f, fld, alpha, dt, theta)
        assert np.max(np.abs(tail - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_off_grid_tau_warns(self):
        f = SampledFunction.constant([1.0], 25.0, 0.05)
        with pytest.warns(UserWarning, match="snapped"):
            apply_T(0.52, f, LINEAR, (), 0.5, 0.05, theta_max=1.0)

    def test_short_tail_is_refused(self):
        # f covers [0, tau] but not [0, tau + theta_max].
        f = SampledFunction.constant([1.0], 1.0, 0.05)
        with pytest.raises(ValueError, match=r"but \[0, 1\.5\] is needed"):
            apply_T(0.5, f, LINEAR, (), 0.5, 0.05, theta_max=1.0)

    def test_forcing_short_of_tau_is_refused_without_warning(self):
        f = SampledFunction.constant([1.0], 3.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would escape pytest.raises
            with pytest.raises(ValueError, match=r"samples cover \[0, 3\.0\] but \[0, 7\.0"):
                apply_T(5.0, f, CUBIC, (), 0.5, 0.1, theta_max=2.0)

    def test_negative_tau_rejected(self):
        f = SampledFunction.constant([1.0], 25.0, 0.05)
        with pytest.raises(ValueError):
            apply_T(-1.0, f, LINEAR, (), 0.5, 0.05)


class TestSemigroupDefect:
    # tau1 = tau2 = 0.25 so tau, dt and the metric grid stay aligned
    def test_defect_is_within_the_corrector_tolerance(self):
        # On the solver grid the discrete T_tau compose exactly: the defect is
        # what the corrector leaves of its equations.
        for fld, f0 in ((LINEAR, 1.0), (CUBIC, 0.5)):
            for dt in (0.05, 0.025):
                fd = SampledFunction.constant([f0], 25.0, dt)
                assert semigroup_defect(0.25, 0.25, fd, fld, (), 0.5, dt) <= CORRECTOR_TOL

    def test_equilibrium_forcing_has_zero_defect(self):
        # f = 1 is a steady state of x - x^3: both orders reproduce f exactly
        f = SampledFunction.constant([1.0], 25.0, 0.05)
        assert semigroup_defect(0.25, 0.25, f, CUBIC, (), 0.5, 0.05) == 0.0


class TestStateSpaceDefect:
    def test_positive_for_fractional_orders(self):
        for alpha in (0.3, 0.5, 0.8):
            assert state_space_defect(alpha, 1.0, 1.0) > 0.01

    def test_vanishes_in_the_classical_limit(self):
        # alpha -> 1 recovers exp, where the flow property is exact
        assert state_space_defect(0.999999, 1.0, 1.0) < 1e-5

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            state_space_defect(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            state_space_defect(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            state_space_defect(0.5, 1.0, 1.0, lam=0.0)
