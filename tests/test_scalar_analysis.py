"""Scalar steady-state analysis: zero sets, envelopes, limits, heteroclinics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import CaputoProblem, FieldDef, solve_pece
from fracdyn import scalar_analysis as sa
from fracdyn.field_expr import FieldEvalError, eval_points
from fracdyn.mittag_leffler import MLDomainError, ml_decay

from oracles import reference_scan

LINEAR = FieldDef.parse(["-x"])
CUBIC = FieldDef.parse(["x - x^3"])
SHIFTED_CUBIC = FieldDef.parse(["(x-2) - (x-2)^3"])  # zeros 1, 2, 3, none on the (-5, 8) grid
SADDLE = FieldDef.parse(["gamma - x^2"], ("gamma",))
# Fields of one parameter c whose zeros move off the scan grid with c.
SHIFTED_FIELDS = [FieldDef.parse([src], ("c",)) for src in (
    "(x-c) - (x-c)^3", "x^5 - 3*x + c", "x - c*1e-200 - x^3", "exp(x) - 2 - c",
    "sin(3*x) - c/3", "tanh(x - c) + 0.1*x", "abs(x - c) - 0.5", "2^x - 3 - c",
)]


class TestDissipativity:
    def test_cubic_certificate(self):
        cert = sa.check_h1(CUBIC, 1.0, 1.0)
        assert cert.worst_margin >= 0.0
        assert cert.radius() == pytest.approx(1.0)

    def test_expanding_field_fails(self):
        grow = FieldDef.parse(["x"])  # x*g(x) = x^2 beats a - b x^2
        with pytest.raises(sa.DissipativityError) as exc:
            sa.check_h1(grow, 1.0, 1.0)
        assert abs(exc.value.witness) > 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sa.check_h1(CUBIC, -1.0, 1.0)


def count_evaluations(monkeypatch):
    """A one-item list counting the eval_points calls scalar_analysis makes from here on."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return eval_points(*args, **kwargs)

    monkeypatch.setattr(sa, "eval_points", counted)
    return calls


class TestZeroSets:
    def test_cubic_zeros_and_derivatives(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        assert np.allclose(zs.zeros, (-1.0, 0.0, 1.0), atol=1e-9)
        assert np.allclose(zs.derivs, (-2.0, 1.0, -2.0), atol=1e-5)
        assert zs.stable() == (zs.zeros[0], zs.zeros[2])

    def test_saddle_zeros_move_with_gamma(self):
        with pytest.warns(UserWarning, match="even number"):  # zeros -2 and 2
            zs = sa.find_zeros(SADDLE, (-5.0, 5.0), params=(4.0,))
        assert np.allclose(zs.zeros, (-2.0, 2.0), atol=1e-9)

    def test_exact_grid_zero_is_found(self):
        # scan grid over (-5, 5) with even resolution hits 0.0 exactly
        zs = sa.find_zeros(LINEAR, (-5.0, 5.0))
        assert zs.zeros == (0.0,)

    @pytest.mark.parametrize("interval", [
        (5.0001, -5.0003),  # reversed: bisection never ran
        (1.0, 1.0),         # zero width: 2001 copies of the zero 1.0
        (math.nan, 5.0),
        (-math.inf, 5.0),
        (-1e308, 1e308),    # finite ends, but hi - lo overflows (not numpy's warning)
    ])
    def test_bad_scan_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="scan interval"):
            sa.scan_zeros(CUBIC, interval)

    def test_zero_at_zero_off_the_grid_is_cheap(self, monkeypatch):
        # The (-5, 5.1) grid misses 0, so 0 becomes a grid point: bisecting a
        # cell toward 0 through the doubles took 1067 evaluations.
        calls = count_evaluations(monkeypatch)
        zs = sa.scan_zeros(CUBIC, (-5.0, 5.1))
        assert zs.zeros[1] == 0.0 and len(zs) == 3
        assert zs.zeros == pytest.approx((-1.0, 0.0, 1.0), abs=1e-15)
        assert calls[0] <= 64

    @given(fld=st.sampled_from(SHIFTED_FIELDS), c=st.floats(-2.0, 2.0),
           lo=st.floats(-6.0, 4.0), width=st.floats(0.5, 10.0))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_scan_matches_the_array_bisection(self, fld, c, lo, width):
        # The bisection on floats gives the zero set, to the bit, that
        # bisecting every cell at once on arrays gives.
        interval = (lo, lo + width)
        assert repr(sa.scan_zeros(fld, interval, (c,))) == repr(
            reference_scan(fld, interval, (c,)))

    @pytest.mark.parametrize("source", ["1/(x - 0.0012345)", "(x - 0.0012345)^(-1)"])
    def test_a_pole_is_a_field_error_in_both(self, source, monkeypatch):
        # The bisection closes on the pole, off the grid, and evaluates g there:
        # a float division by 0 raises, a power of 0 is inf.  Either fails the
        # scan before g' is evaluated, after the grid's one array evaluation.
        pole = FieldDef.parse([source])
        for scan in (reference_scan, sa.scan_zeros):
            with pytest.raises(FieldEvalError) as exc:
                scan(pole, (-5.0, 5.0))
            assert exc.value.component == 0
        calls = count_evaluations(monkeypatch)
        with pytest.raises(FieldEvalError):
            sa.scan_zeros(pole, (-5.0, 5.0))
        assert calls[0] == 1

    def test_one_row_is_two_array_evaluations(self, monkeypatch):
        # The grid and g' at the zeros; the zeros +-1 lie off the grid.
        calls = count_evaluations(monkeypatch)
        zs = sa.find_zeros(FieldDef.parse(["x*(1 - x^2)"]), (-3.0, 3.0))
        assert zs.zeros == (-1.0, 0.0, 1.0)
        assert calls[0] == 2

    def test_degenerate_flags_each_zero_below_the_floor(self):
        zs = sa.ZeroSet((-1.0, 0.0, 1.0), (-2.0, sa.H2_DERIVATIVE_FLOOR / 2, sa.H2_DERIVATIVE_FLOOR))
        assert zs.degenerate() == (False, True, False)

    def test_zeros_are_located_to_the_double(self):
        # Each zero is exact, or g changes sign between it and a neighbouring double.
        fld = FieldDef.parse(["(x-c) - (x-c)^3"], ("c",))
        rng = np.random.default_rng(20)
        for c in rng.uniform(-3.5, 6.5, 25):
            g = lambda x: eval_points(fld, np.reshape(x, (-1, 1)), (c,))[:, 0]
            zeros = np.array(sa.find_zeros(fld, (-5.0, 8.0), (c,)).zeros)
            assert len(zeros) == 3
            gz = g(zeros)
            down, up = g(np.nextafter(zeros, -np.inf)), g(np.nextafter(zeros, np.inf))
            exact = gz == 0.0
            changes = ((gz < 0.0) != (down < 0.0)) | ((gz < 0.0) != (up < 0.0))
            assert np.all(exact | changes), (c, zeros)

    def test_degenerate_zero_rejected(self):
        flat = FieldDef.parse(["x^3"])  # g'(0) = 0
        with pytest.raises(sa.DegenerateZeroError):
            sa.find_zeros(flat, (-2.0, 2.0))

    def test_even_count_warns(self):
        logistic = FieldDef.parse(["x*(1 - x)"])
        with pytest.warns(UserWarning, match="even number"):
            sa.find_zeros(logistic, (-0.5, 1.5))

    def test_attractor_interval(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        iv = sa.attractor_interval(zs)
        assert (iv.lo, iv.hi) == (zs.zeros[0], zs.zeros[-1])
        assert iv.distance(0.3) == 0.0
        assert iv.distance(1.5) == pytest.approx(0.5, abs=1e-9)


class TestDecayRate:
    def test_linear_rate_is_half_slope(self):
        # g = -x, x* = 0: gamma = |g'(0)|/2 everywhere in the basin
        assert sa.gamma_rate_constant(LINEAR, 0.0, 0.7) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_seed_at_steady_state(self):
        assert sa.gamma_rate_constant(CUBIC, 1.0, 1.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_cubic_closed_form(self):
        # f(w) = g(1+w) = -w (1+w) (2+w); on [zeta, 0) the sampled slope
        # f(w)/|w| = (1+w)(2+w) is minimized at w = zeta = eta - 1.
        for eta in (0.3, 0.5, 0.8):
            w = eta - 1.0
            expect = min(1.0, (1.0 + w) * (2.0 + w))
            got = sa.gamma_rate_constant(CUBIC, 1.0, eta)
            assert got == pytest.approx(expect, rel=1e-3)

    def test_mirrored_seed_above_state(self):
        # approach from the right of x* = 1
        got = sa.gamma_rate_constant(CUBIC, 1.0, 1.5)
        assert 0.0 < got <= 1.0 + 1e-9

    def test_unstable_state_rejected(self):
        with pytest.raises(sa.DegenerateBasinError):
            sa.gamma_rate_constant(CUBIC, 0.0, 0.2)

    def test_seed_beyond_adjacent_zero_rejected(self):
        with pytest.raises(sa.DegenerateBasinError):
            sa.gamma_rate_constant(CUBIC, 1.0, -0.5)


def pointwise_report(traj, dist, rate, d0, upper):
    """Reference envelope report built one grid point at a time."""
    sign = 1.0 if upper else -1.0
    worst = 0.0 if upper else math.inf
    first_bad = None
    for i, t in enumerate(traj.times):
        bound = (ml_decay(traj.alpha, rate, float(t)) if t > 0 else 1.0) * d0
        lhs = dist(float(traj.scalar()[i]))
        allowed = bound * (1.0 + sign * sa.ENVELOPE_SLACK)
        ratio = lhs / allowed if allowed > 0 else math.inf
        worst = max(worst, ratio) if upper else min(worst, ratio)
        if sign * (lhs - allowed) > 0 and first_bad is None:
            first_bad = i
    return sa.EnvelopeReport(first_bad is None, worst, first_bad, sa.ENVELOPE_SLACK)


class TestEnvelopes:
    def _cubic_traj(self, alpha=0.6, eta=0.5, t_end=30.0, dt=0.002):
        return solve_pece(CaputoProblem(alpha, CUBIC, (), (eta,), t_end, dt))

    def test_envelope_holds_with_correct_rate(self):
        gamma = sa.gamma_rate_constant(CUBIC, 1.0, 0.5)
        report = sa.envelope_check(self._cubic_traj(), 1.0, gamma)
        assert report.holds
        assert report.worst_ratio <= 1.0

    def test_envelope_fails_with_inflated_rate(self):
        gamma = 10.0 * sa.gamma_rate_constant(CUBIC, 1.0, 0.5)
        report = sa.envelope_check(self._cubic_traj(), 1.0, gamma)
        assert not report.holds
        assert report.first_violation_index is not None
        assert report.worst_ratio > 1.0

    def test_lower_bound_with_lipschitz_constant(self):
        traj = self._cubic_traj()
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        L = sa.default_lipschitz_bound(CUBIC, 0.5, zs)
        assert 2.0 <= L <= 3.0  # max |1 - 3x^2| over the inflated hull [-1.1, 1.1]
        report = sa.lower_bound_check(traj, zs, L)
        assert report.holds

    def test_lower_bound_fails_with_tiny_constant(self):
        # an absurdly small L predicts near-zero decay, which the actual
        # trajectory undercuts almost immediately
        traj = self._cubic_traj()
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        report = sa.lower_bound_check(traj, zs, 1e-6)
        assert not report.holds

    def test_envelope_definition_matches_decay_profile(self):
        traj = self._cubic_traj(t_end=5.0, dt=0.01)
        gamma = sa.gamma_rate_constant(CUBIC, 1.0, 0.5)
        i = len(traj.times) // 2
        t = float(traj.times[i])
        bound = ml_decay(0.6, gamma, t) * 0.5 * (1.0 + sa.ENVELOPE_SLACK)
        assert abs(traj.scalar()[i] - 1.0) <= bound
        # the array form is the scalar form pointwise, and exactly 1 at t = 0
        profile = ml_decay(0.6, gamma, traj.times)
        pointwise = np.array([ml_decay(0.6, gamma, float(s)) for s in traj.times])
        assert profile[0] == 1.0 and pointwise[0] == 1.0
        assert np.max(np.abs(profile - pointwise)) <= 1e-15
        for bad in ([0.0, -1.0], [0.0, np.nan], [1.0, np.inf]):
            with pytest.raises(MLDomainError):
                ml_decay(0.6, gamma, np.array(bad))
        # both checks equal their per-point definitions, passing and failing
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        for rate, holds in ((gamma, True), (10.0 * gamma, False)):
            self._assert_same_report(
                sa.envelope_check(traj, 1.0, rate),
                pointwise_report(traj, lambda x: abs(x - 1.0), rate, 0.5, upper=True),
                holds,
            )
        for L, holds in ((sa.default_lipschitz_bound(CUBIC, 0.5, zs), True), (1e-6, False)):
            self._assert_same_report(
                sa.lower_bound_check(traj, zs, L),
                pointwise_report(traj, zs.distance, L, zs.distance(0.5), upper=False),
                holds,
            )

    @staticmethod
    def _assert_same_report(got, expect, holds):
        assert got.holds is expect.holds is holds
        assert got.first_violation_index == expect.first_violation_index
        assert got.worst_ratio == pytest.approx(expect.worst_ratio, rel=1e-12)


class TestLimits:
    def test_classification_table(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        # Past 2^53 a seed's distances to the zeros tie; it goes to the nearer end.
        cases = [(-2.5, -1.0), (-0.3, -1.0), (0.4, 1.0), (1.0, 1.0),
                 (2.2, 1.0), (0.0, 0.0), (9e15, 1.0), (1e16, 1.0), (-1e16, -1.0),
                 (1e300, 1.0), (-1e300, -1.0)]
        for eta, expect in cases:
            assert sa.classify_limit(CUBIC, zs, eta) == pytest.approx(
                expect, abs=1e-9
            )

    def test_classification_matches_solver(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        for eta in (-1.7, 0.6):
            pred = sa.classify_limit(CUBIC, zs, eta)
            traj = solve_pece(CaputoProblem(0.6, CUBIC, (), (eta,), 800.0, 0.05))
            assert traj.scalar()[-1] == pytest.approx(pred, abs=0.05)

    def test_clipped_zero_set_logistic(self):
        # zeros {0, 1}: seeds in (0, 1) flow right, above 1 flow back down
        logistic = FieldDef.parse(["x*(1 - x)"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zs = sa.find_zeros(logistic, (-0.5, 1.5))
        assert sa.classify_limit(logistic, zs, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert sa.classify_limit(logistic, zs, 1.4) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("fld, scan, zeros", [
        (CUBIC, (-5.0, 5.0), (-1.0, 0.0, 1.0)),
        (SHIFTED_CUBIC, (-5.0, 8.0), (1.0, 2.0, 3.0)),
    ], ids=["cubic", "shifted_cubic"])
    def test_a_seed_on_a_zero_stays_there(self, fld, scan, zeros):
        # g is exactly 0 at each zero, and a bisection to the double finds it.
        zs = sa.find_zeros(fld, scan)
        assert zs.zeros == zeros
        for z in zs.zeros:
            assert eval_points(fld, np.array([[z]]))[0, 0] == 0.0
            assert sa.classify_limit(None, zs, z) == z

    def test_flow_lookup(self):
        # The cubic's source is 0 on both open intervals; the targets are -1 and 1.
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        for eta in (-3.0, *zs.zeros, -0.5, 0.25, 0.999, 7.0, *np.nextafter(zs.zeros, 9.0),
                    *np.nextafter(zs.zeros, -9.0)):
            expected = None if eta in zs.zeros or abs(eta) > 1.0 else (0.0, math.copysign(1.0, eta))
            assert zs.flow(eta) == expected, eta
        for eta in (math.nan, math.inf):
            with pytest.raises(ValueError):
                zs.flow(eta)
        for eta in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sa.classify_limit(CUBIC, zs, eta)

    def test_rate_fit_requires_data(self):
        traj = solve_pece(CaputoProblem(0.5, LINEAR, (), (0.0,), 1.0, 0.01))
        with pytest.raises(sa.InsufficientDataError):
            sa.rate_fit(traj, 0.0)  # identically at the steady state


def count_solves(monkeypatch):
    """The t_end of every solve that scalar_analysis makes from here on."""
    horizons = []
    solve = sa.solve_pece

    def counted(p):
        horizons.append(p.t_end)
        return solve(p)

    monkeypatch.setattr(sa, "solve_pece", counted)
    return horizons


class TestBackwardExtension:
    def test_round_trip_identity(self):
        # zeta = x(-T, eta) must satisfy x(T, zeta) = eta
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        eta, T, dt = 0.5, 4.0, 0.01
        zeta = sa.backward_extend(CUBIC, 0.6, eta, T, dt, tol=1e-10, zs=zs)
        traj = solve_pece(CaputoProblem(0.6, CUBIC, (), (zeta,), T, dt))
        assert traj.scalar()[-1] == pytest.approx(eta, abs=1e-6)

    def test_preimage_moves_toward_source(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        z1 = sa.backward_extend(CUBIC, 0.6, 0.5, 2.0, 0.01, zs=zs)
        z2 = sa.backward_extend(CUBIC, 0.6, 0.5, 6.0, 0.01, zs=zs)
        assert 0.0 < z2 < z1 < 0.5

    def test_zero_is_its_own_preimage(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        assert sa.backward_extend(CUBIC, 0.6, 1.0, 5.0, 0.01, zs=zs) == 1.0

    def test_outside_zero_hull_rejected(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        with pytest.raises(sa.BracketFailureError):
            sa.backward_extend(CUBIC, 0.6, 2.0, 5.0, 0.01, zs=zs)

    def test_preimage_closer_than_doubles_names_the_source_end(self):
        # eta = 2.5 sits halfway between the zeros 2 and 3, but at horizon 50
        # the solution from the double next to the source zero 2 is already
        # past it: the preimage lies closer to 2 than doubles resolve.
        fld = FieldDef.parse(["(x-2) - (x-2)^3"])
        zs = sa.find_zeros(fld, (-5.0, 5.0))
        assert zs.zeros == (1.0, 2.0, 3.0)
        with pytest.raises(sa.BracketFailureError,
                           match=r"from 2\.0000000000000004, the double next to the zero 2\.0, "
                                 r"is already at 2\.95\d*, past eta=2\.5; the preimage lies "
                                 r"closer to that zero than doubles resolve"):
            sa.backward_extend(fld, 0.6, 2.5, 50.0, 0.01, zs=zs)
        zeta = sa.backward_extend(fld, 0.6, 2.5, 12.5, 0.01, zs=zs)
        assert zeta == pytest.approx(2.0000015750, abs=1e-10)

    def test_preimage_lies_between_source_and_eta(self):
        # Solutions never cross, so the preimage lies strictly between the
        # source 0 and eta on both open intervals, and its forward end meets tol.
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        rng = np.random.default_rng(23)
        for sign in (1.0, -1.0):
            for _ in range(3):
                alpha, t_back = rng.uniform(0.3, 0.9), rng.uniform(1.0, 8.0)
                eta = sign * rng.uniform(0.1, 0.9)
                zeta = sa.backward_extend(CUBIC, alpha, eta, t_back, 0.05, zs=zs)
                assert 0.0 < zeta / eta < 1.0, (alpha, t_back, eta, zeta)
                traj = solve_pece(CaputoProblem(alpha, CUBIC, (), (zeta,), t_back, 0.05))
                assert abs(traj.scalar()[-1] - eta) <= 1e-8

    def test_solve_counts(self, monkeypatch):
        # The search in log distance from the source, seeded by the Mittag-Leffler
        # linearisation, takes a handful of solves per preimage. Bisecting in
        # zeta took 93 here, and 239 backward solves for the orbit.
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        horizons = count_solves(monkeypatch)
        sa.backward_extend(CUBIC, 0.6, 0.5, 50.0, 0.01, zs=zs)
        assert len(horizons) <= 10
        horizons.clear()
        orbit = sa.heteroclinic_orbit(CUBIC, 0.6, zs, 0.5, 50.0, 100.0, 0.01)
        assert horizons.count(100.0) == 1  # the forward solve
        assert len(horizons) - 1 <= 60
        assert sum(orbit.solves) == len(horizons) - 1
        assert len(orbit.solves) == len(set(horizons)) - 1  # one count per horizon

    @pytest.mark.parametrize("eta", [0.5, -0.5])
    @pytest.mark.parametrize("t_back", [2.0, 4.0, 12.5, 25.0, 50.0])
    def test_few_solves_at_every_horizon(self, monkeypatch, eta, t_back):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        horizons = count_solves(monkeypatch)
        zeta = sa.backward_extend(CUBIC, 0.6, eta, t_back, 0.01, zs=zs)
        assert 0.0 < zeta / eta < 1.0
        assert len(horizons) <= 10

    @pytest.mark.parametrize("t_back", [20.0, 25.0, 40.0, 50.0])
    def test_unresolvable_horizon_fails_fast_and_names_its_estimate(self, monkeypatch, t_back):
        # ulp(2) E_0.6(T^0.6) reaches tol = 1e-8 at T* = 16.4 on the shifted
        # cubic; 12.5 resolves, and every horizon past T* raises within 10 solves.
        zs = sa.find_zeros(SHIFTED_CUBIC, (-5.0, 8.0))
        horizons = count_solves(monkeypatch)
        assert sa.backward_extend(SHIFTED_CUBIC, 0.6, 2.5, 12.5, 0.01, zs=zs) == pytest.approx(
            2.0000015750, abs=1e-10)
        assert len(horizons) <= 10
        horizons.clear()
        with pytest.raises(sa.BracketFailureError,
                           match=r"; the linearisation at 2\.0 puts the resolvable horizon "
                                 r"at T\*=16\.4$"):
            sa.backward_extend(SHIFTED_CUBIC, 0.6, 2.5, t_back, 0.01, zs=zs)
        assert len(horizons) <= 10

    def test_seed_where_the_series_runs_out(self):
        # At alpha = 0.01, E_alpha(700^alpha) fits a double but its series needs
        # more terms than it may take: the seed falls back to the asymptotic.
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        zeta = sa.backward_extend(CUBIC, 0.01, 0.5, 700.0, 1.0, zs=zs)
        traj = solve_pece(CaputoProblem(0.01, CUBIC, (), (zeta,), 700.0, 1.0))
        assert abs(traj.scalar()[-1] - 0.5) <= 1e-8

    def test_orbit_times_are_the_horizons_solved(self, monkeypatch):
        # At t_back = 5, dt = 0.01 the horizons t_back / 2^k for k >= 3 are not
        # whole steps: the labels must be the grids' ends, round(500 / 2^k) * dt.
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        solved = []
        solve = sa.solve_pece

        def counted(p):
            traj = solve(p)
            solved.append((p.t_end, float(traj.times[-1])))
            return traj

        monkeypatch.setattr(sa, "solve_pece", counted)
        orbit = sa.heteroclinic_orbit(CUBIC, 0.6, zs, 0.5, 5.0, 1.0, 0.01)
        backward = solved[:-1]  # the last solve is the forward one
        assert all(t_end == end for t_end, end in backward)
        labels = sorted(-orbit.times[orbit.times < 0.0])
        assert labels == sorted({end for _, end in backward})
        assert labels == [0.08, 0.16, 0.31, 0.62, 1.25, 2.5, 5.0]

    def test_bracket_closing_on_adjacent_doubles_raises(self):
        # At horizon 25 the preimage of 2.5 lies between two adjacent doubles,
        # neither of whose solutions ends within tol of 2.5; at 40 the double
        # next to the source zero 2.0 is already past it.
        zs = sa.find_zeros(SHIFTED_CUBIC, (-5.0, 8.0))
        with pytest.raises(sa.BracketFailureError,
                           match=r"horizon 25\.0: the bracket closed on the adjacent "
                                 r"doubles 2\.0000000000058\d* and 2\.0000000000058\d*,"):
            sa.backward_extend(SHIFTED_CUBIC, 0.6, 2.5, 25.0, 0.01, zs=zs)
        with pytest.raises(sa.BracketFailureError,
                           match=r"no sign change at horizon 40\.0: .* the zero 2\.0,"):
            sa.backward_extend(SHIFTED_CUBIC, 0.6, 2.5, 40.0, 0.01, zs=zs)


class TestHeteroclinic:
    def test_cubic_orbit_joins_unstable_to_stable(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        orbit = sa.heteroclinic_orbit(CUBIC, 0.6, zs, 0.5, 20.0, 60.0, 0.01)
        assert orbit.source == 0.0
        assert orbit.target == 1.0
        assert orbit.values[0] == pytest.approx(0.0, abs=1e-2)
        assert orbit.values[-1] == pytest.approx(1.0, abs=1e-2)
        assert np.all(np.diff(orbit.times) > 0.0)
        assert np.all(np.diff(orbit.values) > 0.0)
        # monotone connection inside the interval
        assert np.all(orbit.values > -1e-12)
        assert np.all(orbit.values < 1.0 + 1e-12)

    def test_negative_interval_reverses_orientation(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        orbit = sa.heteroclinic_orbit(CUBIC, 0.6, zs, -0.5, 20.0, 60.0, 0.01)
        assert orbit.source == 0.0
        assert orbit.target == -1.0

    def test_failure_names_the_longest_resolved_horizon(self):
        # Shortest first: 0.625 .. 10 resolve, and the bracket closes at 20.
        zs = sa.find_zeros(SHIFTED_CUBIC, (-5.0, 8.0))
        with pytest.raises(sa.BracketFailureError,
                           match=r"^no preimage within tol=1e-08 at horizon 20\.0: the bracket "
                                 r"closed on the adjacent doubles 2\.0000000008710415 and "
                                 r"2\.000000000871042, .*; the longest horizon resolved is 10\.0$"):
            sa.heteroclinic_orbit(SHIFTED_CUBIC, 0.6, zs, 2.5, 40.0, 10.0, 0.01)

    def test_eta_outside_interval_rejected(self):
        zs = sa.find_zeros(CUBIC, (-5.0, 5.0))
        with pytest.raises(ValueError, match="adjacent zeros"):  # on a zero
            sa.heteroclinic_orbit(CUBIC, 0.6, zs, 1.0, 10.0, 10.0, 0.01)
        with pytest.raises(ValueError, match="adjacent zeros"):  # outside the attractor
            sa.heteroclinic_orbit(CUBIC, 0.6, zs, 2.0, 10.0, 10.0, 0.01)
