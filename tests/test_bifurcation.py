"""Parameter sweeps, bifurcation classification and divergence detection."""

import math

import numpy as np
import pytest

from fracdyn import FieldDef
from fracdyn import bifurcation as bif
from fracdyn import field_expr
from fracdyn import scalar_analysis as sa
from fracdyn.catalog import get
from fracdyn.field_expr import FieldEvalError, eval_points

from oracles import reference_scan

SADDLE = get("saddle").fld
PITCHFORK = get("pitchfork").fld


def _reference_sweep(family, gamma_range, n_gammas, base_params=(), gamma_param="gamma"):
    """sweep as a loop over the parameter values, one reference scan each."""
    gi = family.params.index(gamma_param) if gamma_param in family.params else None
    gammas = np.linspace(gamma_range[0], gamma_range[1], n_gammas)
    per_gamma = []
    for gam in gammas:
        params = list(base_params) if base_params else [0.0] * len(family.params)
        if gi is not None:
            params[gi] = float(gam)
        per_gamma.append(reference_scan(family, bif.SCAN_INTERVAL, tuple(params)))
    return bif.BifurcationDiagram(gammas, tuple(per_gamma))


class TestSweep:
    def test_saddle_zero_counts(self):
        diag = bif.sweep(SADDLE, (-1.0, 1.0), 201)
        counts = diag.counts()
        assert counts[0] == 0  # gamma = -1
        assert counts[-1] == 2  # gamma = +1
        # gamma = 0 sits on the grid and is flagged degenerate
        i0 = int(np.argmin(np.abs(diag.gammas)))
        assert diag.gammas[i0] == 0.0
        assert diag.zero_sets[i0].degenerate() == (True,)

    def test_saddle_branches_are_sqrt(self):
        diag = bif.sweep(SADDLE, (-1.0, 1.0), 201)
        for gam, zs in zip(diag.gammas, diag.zero_sets):
            if gam <= 0 or len(zs) != 2:
                continue
            assert zs.zeros[0] == pytest.approx(-math.sqrt(gam), abs=1e-9)
            assert zs.zeros[1] == pytest.approx(math.sqrt(gam), abs=1e-9)
            assert (zs.derivs[0] < 0) != (zs.derivs[1] < 0)

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

    @pytest.mark.parametrize("family", [SADDLE, PITCHFORK], ids=["saddle", "pitchfork"])
    @pytest.mark.parametrize("gamma_range", [(1.0, -1.0), (0.5, 0.5), (math.nan, 1.0)])
    def test_empty_or_descending_range_rejected(self, family, gamma_range):
        # A descending grid would be classified "none" instead of the family's label.
        with pytest.raises(ValueError, match="ascending"):
            bif.sweep(family, gamma_range, 11)

    @pytest.mark.parametrize("family,gamma_range,base_params", [
        (SADDLE, (-1.0, 1.0), ()),  # gamma = 0 on the grid
        (PITCHFORK, (-1.0, 1.0), ()),
        (SADDLE, (-0.8011, 0.8011), ()),
        (PITCHFORK, (-0.8011, 0.8011), ()),
        (FieldDef.parse(["gamma - x^4"], ("gamma",)), (-1.0, 1.0), ()),
        (FieldDef.parse(["-x"]), (-1.0, 1.0), ()),  # no gamma at all
        # gamma is the second parameter; b comes from base_params
        (FieldDef.parse(["gamma*x - b*x^3"], ("b", "gamma")), (-1.0, 1.0), (2.0, 0.0)),
    ], ids=["saddle", "pitchfork", "saddle-0.8011", "pitchfork-0.8011", "quartic",
            "gamma-free", "base-params"])
    def test_batched_sweep_equals_the_loop(self, family, gamma_range, base_params):
        diag = bif.sweep(family, gamma_range, 201, base_params=base_params)
        ref = _reference_sweep(family, gamma_range, 201, base_params=base_params)
        assert repr(diag) == repr(ref)  # zeros, derivatives and their signs
        if family is SADDLE:
            assert sa.ZeroSet((), ()) in diag.zero_sets  # gamma < 0: no zeros

    def test_complex_family_raises(self):
        # x^0.5 is complex on the negative half of the scan interval
        family = FieldDef.parse(["gamma - x^0.5"], ("gamma",))
        with pytest.raises(FieldEvalError):
            bif.sweep(family, (-1.0, 1.0), 11)

    def test_sweep_makes_a_bounded_number_of_evaluations(self, monkeypatch):
        # One grid per parameter value and one derivative evaluation for all
        # values together. The bisection evaluates g on floats, through the
        # grid's compiled component, and makes no array evaluation.
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return eval_points(*args, **kwargs)

        monkeypatch.setattr(sa, "eval_points", counted)
        monkeypatch.setattr(field_expr, "eval_points", counted)
        diag = bif.sweep(PITCHFORK, (-1.0, 1.0), 201)
        assert diag.counts()[-1] == 3
        assert calls[0] == 201 + 1

    def test_derivative_at_the_zeros_is_one_evaluation(self, monkeypatch):
        # g' at every zero of every parameter value comes from one call, in
        # find_zeros as in a sweep.
        fields = []

        def recorded(f, *args, **kwargs):
            fields.append(f)
            return eval_points(f, *args, **kwargs)

        monkeypatch.setattr(sa, "eval_points", recorded)
        sa.find_zeros(get("cubic").fld, (-5.0, 5.0))
        assert sum(f is get("cubic").fld.derivative(0) for f in fields) == 1
        fields.clear()
        diag = bif.sweep(PITCHFORK, (-1.0, 1.0), 201)
        assert sum(diag.counts()) > 201
        assert sum(f is PITCHFORK.derivative(0) for f in fields) == 1


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

    @pytest.mark.parametrize("gamma_range", [(-1.0, 1.0), (-0.4889, 0.7459)])
    @pytest.mark.parametrize("source,label", [
        ("gamma + x^2", "saddle-node"), ("-gamma - x^2", "saddle-node"),
        ("gamma*x + x^3", "pitchfork"), ("-gamma*x - x^3", "pitchfork"),
    ])
    def test_a_falling_count_is_labelled_as_its_mirror(self, source, label, gamma_range):
        # The zero count falls as gamma rises; gamma -> -gamma makes it rise.
        diag = bif.sweep(FieldDef.parse([source], ("gamma",)), gamma_range, 201)
        assert diag.counts()[0] > diag.counts()[-1]
        assert bif.classify(diag) == label
        mirror = bif.BifurcationDiagram(-diag.gammas[::-1], diag.zero_sets[::-1])
        assert bif.classify(mirror) == label

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
        bounds = eta + gamma * traj.times**alpha / math.gamma(1.0 + alpha)
        assert np.all(traj.scalar() <= bounds + 1e-12)
