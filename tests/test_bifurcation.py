"""Parameter sweeps, bifurcation classification and divergence detection."""

import math

import numpy as np
import pytest

from fracdyn import FieldDef
from fracdyn import bifurcation as bif
from fracdyn.catalog import get

SADDLE = get("saddle").fld
PITCHFORK = get("pitchfork").fld


class TestSweep:
    def test_saddle_zero_counts(self):
        diag = bif.sweep(SADDLE, (-1.0, 1.0), 201)
        counts = diag.counts()
        assert counts[0] == 0  # gamma = -1
        assert counts[-1] == 2  # gamma = +1
        # gamma = 0 sits on the grid and is flagged degenerate
        i0 = int(np.argmin(np.abs(diag.gammas)))
        assert diag.gammas[i0] == 0.0
        assert len(diag.points[i0]) == 1 and diag.points[i0][0].degenerate

    def test_saddle_branches_are_sqrt(self):
        diag = bif.sweep(SADDLE, (-1.0, 1.0), 201)
        for gam, pts in zip(diag.gammas, diag.points):
            if gam <= 0 or len(pts) != 2:
                continue
            zeros = sorted(p.zero for p in pts)
            assert zeros[0] == pytest.approx(-math.sqrt(gam), abs=1e-9)
            assert zeros[1] == pytest.approx(math.sqrt(gam), abs=1e-9)
            assert pts[0].stable != pts[1].stable

    def test_pitchfork_zero_counts(self):
        diag = bif.sweep(PITCHFORK, (-1.0, 1.0), 201)
        assert diag.counts()[0] == 1
        assert diag.counts()[-1] == 3

    def test_gamma_free_family_sweeps_unchanged(self):
        diag = bif.sweep(FieldDef.parse(["-x"]), (-1.0, 1.0), 11)
        assert all(c == 1 for c in diag.counts())

    def test_too_few_gammas_rejected(self):
        with pytest.raises(ValueError):
            bif.sweep(SADDLE, (-1.0, 1.0), 2)


class TestClassification:
    def test_saddle_node_label(self):
        assert bif.classify(bif.sweep(SADDLE, (-1.0, 1.0), 201)) == "saddle-node"

    def test_pitchfork_label(self):
        assert bif.classify(bif.sweep(PITCHFORK, (-1.0, 1.0), 201)) == "pitchfork"

    def test_no_transition_label(self):
        assert bif.classify(bif.sweep(FieldDef.parse(["-x"]), (-1.0, 1.0), 11)) == "none"
        shifted = FieldDef.parse(["gamma - 2 - x^2"], ("gamma",))
        # transition outside the window: zero count is 0 throughout
        assert bif.classify(bif.sweep(shifted, (-1.0, 1.0), 51)) == "none"

    @pytest.mark.parametrize("gamma_range", [(-0.7459, 0.4889), (-0.3946, 0.805)])
    @pytest.mark.parametrize("family,label", [
        (SADDLE, "saddle-node"), (PITCHFORK, "pitchfork"),
    ], ids=["saddle", "pitchfork"])
    def test_fold_between_grid_values(self, family, label, gamma_range):
        # gamma = 0 is not on these grids; the fold is fitted inside the
        # transition cell together with the amplitude exponent
        diag = bif.sweep(family, gamma_range, 201)
        assert 0.0 not in diag.gammas
        assert bif.classify(diag) == label

    def test_wrong_exponent_is_rejected(self):
        # gamma - x^4 jumps 0 -> 2 but the branch amplitude grows like
        # gamma^(1/4), outside the square-root window
        quartic = FieldDef.parse(["gamma - x^4"], ("gamma",))
        diag = bif.sweep(quartic, (-1.0, 1.0), 201)
        assert bif.classify(diag) == "none"


class TestDivergence:
    @pytest.mark.parametrize("gamma,x0,expect", [
        (-0.5, 0.0, True),   # no steady states: everything runs to -infinity
        (0.25, 0.0, False),  # seed above the unstable branch converges
        (0.25, -1.0, True),  # seed below the unstable branch -sqrt(gamma)
    ])
    def test_saddle_family_cases(self, gamma, x0, expect):
        assert bif.divergence_check(SADDLE, gamma, 0.5, x0, 50.0) is expect

    def test_field_failure_is_not_divergence(self):
        # x^0.5 turns complex once the state goes negative (about -0.109);
        # the solve stops there, but the state never ran off to -infinity
        family = FieldDef.parse(["gamma - x^0.5"], ("gamma",))
        assert bif.divergence_check(family, -1.0, 0.5, 0.5, 2.0, dt=0.1) is False

    def test_apriori_bound_dominates_before_escape(self):
        # for g = gamma - x^2, g <= gamma, so x(t) <= eta + gamma t^a/Gamma(1+a)
        gamma, alpha, eta = 0.25, 0.5, 0.0
        from fracdyn import CaputoProblem, solve_pece

        traj = solve_pece(CaputoProblem(alpha, SADDLE, (gamma,), (eta,), 20.0, 0.01))
        bounds = [bif.apriori_upper_bound(eta, gamma, alpha, float(t))
                  for t in traj.times]
        assert np.all(traj.scalar() <= np.asarray(bounds) + 1e-12)
