"""Parameter sweeps, bifurcation classification and divergence detection."""

import functools
import math

import numpy as np
import pytest

from fracdyn import FieldDef
from fracdyn import bifurcation as bif
from fracdyn import field_expr
from fracdyn import scalar_analysis as sa
from fracdyn.catalog import get
from fracdyn.field_expr import FieldEvalError, eval_points, eval_rows

from oracles import reference_scan

SADDLE = get("saddle").fld
PITCHFORK = get("pitchfork").fld
# (x - c)-shifted catalog families: the fold is at gamma = 0, x = c
SHIFTED_SADDLE = FieldDef.parse(["gamma - (x - c)^2"], ("gamma", "c"))
SHIFTED_PITCHFORK = FieldDef.parse(["gamma*(x - c) - (x - c)^3"], ("gamma", "c"))
SHIFTS = (0.3, -0.7, 1 / 3)
SPECTATOR = FieldDef.parse(["gamma - (x - 0.3)^2 + 0.2*x^3"], ("gamma",))  # and a far zero
# saddles whose derivatives read sign (from abs) and log (from 2^x); the fold
# of the second solves 2x = 0.1*log(2)*2^x, a contraction from x = 0
KINKED = FieldDef.parse(["gamma - x^2 + 0.1*abs(x + 2)"], ("gamma",))
EXPONENTIAL = FieldDef.parse(["gamma - x^2 + 0.1*2^x"], ("gamma",))
X_EXP = functools.reduce(lambda x, _: 0.05 * math.log(2.0) * 2.0**x, range(40), 0.0)


def _reference_sweep(family, gamma_range, n_gammas, base_params=(), gamma_param="gamma"):
    """sweep as a loop over the parameter values, one reference scan each."""
    gi = family.params.index(gamma_param) if gamma_param in family.params else None
    gammas = np.linspace(gamma_range[0], gamma_range[1], n_gammas)
    base = tuple(map(float, base_params)) if base_params else (0.0,) * len(family.params)
    per_gamma = []
    for gam in gammas:
        params = list(base)
        if gi is not None:
            params[gi] = float(gam)
        per_gamma.append(reference_scan(family, bif.SCAN_INTERVAL, tuple(params)))
    return bif.BifurcationDiagram(gammas, tuple(per_gamma), family, base)


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
    @pytest.mark.parametrize("gamma_range", [(1.0, -1.0), (0.5, 0.5), (math.nan, 1.0),
                                             (-math.inf, 1.0), (-1e308, 1e308)])
    def test_empty_or_descending_range_rejected(self, family, gamma_range):
        # A descending grid would be classified "none" instead of the family's
        # label; a range with an infinite end or width, whose np.linspace is
        # not finite, would blame the field.  Each is refused before g is evaluated.
        lo, hi = gamma_range
        with pytest.raises(ValueError, match="ascending") as exc:
            bif.sweep(family, gamma_range, 11)
        assert str(exc.value).endswith(f"got {lo}:{hi}")

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
        # The 201 grids in blocks of 8 rows (eval_rows), then one eval_points
        # call per pass of the bisection of all rows' cells together and one
        # for g' at every zero.  The 49 passes close the cells at +-0.1
        # (gamma = 0.01), 0.005 wide, on doubles 2^-56 apart: 0.005 / 2^-56
        # ~ 2^48.4.
        calls = {"eval_points": 0, "eval_rows": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name, fn in (("eval_points", eval_points), ("eval_rows", eval_rows)):
            monkeypatch.setattr(sa, name, counted(name, fn))
            monkeypatch.setattr(field_expr, name, counted(name, fn))
        diag = bif.sweep(PITCHFORK, (-1.0, 1.0), 201)
        assert diag.counts()[-1] == 3
        assert calls == {"eval_rows": 26, "eval_points": 49 + 1}

    def test_derivative_at_the_zeros_is_one_evaluation(self, monkeypatch):
        # g' at every zero of every parameter value comes from one call, in
        # find_zeros as in a sweep.
        fields = []

        def recorded(f, *args, **kwargs):
            fields.append(f)
            return eval_points(f, *args, **kwargs)

        monkeypatch.setattr(sa, "eval_points", recorded)
        cubic = FieldDef.parse(["x - x^3"])  # no scan kept yet
        sa.find_zeros(cubic, (-5.0, 5.0))
        assert sum(f is cubic.derivative(0) for f in fields) == 1
        fields.clear()
        sa.find_zeros(cubic, (-5.0, 5.0))  # the kept scan: nothing is evaluated
        assert fields == []
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
    @pytest.mark.parametrize("family,c,label", [
        (SADDLE, 0.0, "saddle-node"), (PITCHFORK, 0.0, "pitchfork"),
        *[(fam, c, label) for c in SHIFTS
          for fam, label in ((SHIFTED_SADDLE, "saddle-node"), (SHIFTED_PITCHFORK, "pitchfork"))],
    ], ids=["saddle", "pitchfork",
            *[f"{name}-{c:.4g}" for c in SHIFTS for name in ("saddle", "pitchfork")]])
    def test_fold_between_grid_values(self, family, c, label, gamma_range):
        # gamma = 0 is not on these grids; Newton finds the fold (0, c) inside
        # the transition cell
        diag = bif.sweep(family, gamma_range, 201, base_params=(0.0, c) if c else ())
        assert 0.0 not in diag.gammas
        assert bif.classify(diag) == label
        gam, x = bif.fold(diag)
        assert abs(gam) < 1e-12 and abs(x - c) < 1e-12

    @pytest.mark.parametrize("family,base,grid,label,fold", [
        # beside a far zero: 1 -> 3 zeros
        (SPECTATOR, (), (-1.0, 1.0, 201), "saddle-node", (-17 / 2700, 1 / 3)),
        # the middle grid value rounds to the fold, where the scan misses the
        # double zero: the fold lies on the edge of the transition cell
        (SPECTATOR, (), (-17 / 2700 - 0.5, -17 / 2700 + 0.5, 201), "saddle-node",
         (-17 / 2700, 1 / 3)),
        # the imperfect pitchfork
        (FieldDef.parse(["gamma*x - x^3 + 0.1"], ("gamma",)), (), (-1.0, 1.0, 201),
         "saddle-node", (3 * 0.05 ** (2 / 3), -(0.05 ** (1 / 3)))),
        (KINKED, (), (-1.0, 1.0, 201), "saddle-node", (-0.2025, 0.05)),
        (EXPONENTIAL, (), (-1.0, 1.0, 201), "saddle-node", (X_EXP**2 - 0.1 * 2.0**X_EXP, X_EXP)),
        *[(fam, (0.0, c), (-1.0, 1.0, 201), label, (0.0, c)) for c in SHIFTS
          for fam, label in ((SHIFTED_SADDLE, "saddle-node"), (SHIFTED_PITCHFORK, "pitchfork"))],
        # the scan finds the three zeros near x = 0.3 only from the row after
        # gamma = 8.2e-6: the count changes a cell after the fold
        (SHIFTED_PITCHFORK, (0.0, 0.3), (-0.32724353981496745, 0.12799283533210815, 282),
         "pitchfork", (0.0, 0.3)),
    ], ids=["spectator", "spectator-centred", "imperfect", "abs", "2^x",
            *[f"{name}-{c:.4g}" for c in SHIFTS for name in ("saddle", "pitchfork")],
            "pitchfork-0.3-late-count"])
    def test_fold_from_the_normal_form(self, family, base, grid, label, fold):
        diag = bif.sweep(family, grid[:2], grid[2], base_params=base)
        assert bif.classify(diag) == label
        assert bif.fold(diag) == pytest.approx(fold, rel=0, abs=1e-12)
        assert bif.fold(diag) is bif.fold(diag)  # solved once and kept

    @pytest.mark.parametrize("gamma_range", [(-1.0, 1.0), (-0.4889, 0.7459)])
    @pytest.mark.parametrize("source,label", [
        ("gamma + x^2", "saddle-node"), ("-gamma - x^2", "saddle-node"),
        ("gamma*x + x^3", "pitchfork"), ("-gamma*x - x^3", "pitchfork"),
    ])
    def test_a_falling_count_is_labelled_as_its_mirror(self, source, label, gamma_range):
        # The zero count falls as gamma rises; the family of -gamma, swept over
        # the mirrored range, is the same diagram with the count rising.
        diag = bif.sweep(FieldDef.parse([source], ("gamma",)), gamma_range, 201)
        mirror = bif.sweep(FieldDef.parse([source.replace("gamma", "(-gamma)")], ("gamma",)),
                           (-gamma_range[1], -gamma_range[0]), 201)
        assert diag.counts()[0] > diag.counts()[-1]
        assert mirror.counts()[0] < mirror.counts()[-1]
        assert bif.classify(diag) == bif.classify(mirror) == label
        assert bif.fold(diag) == bif.fold(mirror) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_wrong_exponent_is_rejected(self):
        # gamma - x^4 jumps 0 -> 2, but g_xx = 0 at its fold (0, 0): no
        # saddle-node; gamma*x - x^5 keeps its middle zero, but g_xxx = 0 there
        for source in ("gamma - x^4", "gamma*x - x^5"):
            diag = bif.sweep(FieldDef.parse([source], ("gamma",)), (-1.0, 1.0), 201)
            assert bif.classify(diag) == "none"

    @pytest.mark.parametrize("source,gamma_range", [
        # finite everywhere, but g_x = -1.5*(x^2)^(-0.25)*x is 0 * inf at x = 0,
        # where Newton starts between the zeros +-gamma^(2/3)
        ("gamma - (x^2)^0.75", (-0.7459, 0.4889)),
        # 1.2*gamma*x - x^3, but 1/gamma divides by 0 at the fold gamma = 0 (an
        # array row takes 1/0 as inf)
        ("gamma*x - x^3 + 0.1*(x + x)/(1/gamma)", (-1.0, 1.0)),
    ], ids=["nan", "raises"])
    def test_a_field_failing_at_the_fold_is_none(self, source, gamma_range):
        diag = bif.sweep(FieldDef.parse([source], ("gamma",)), gamma_range, 201)
        assert abs(diag.counts()[-1] - diag.counts()[0]) == 2
        assert bif.fold(diag) is None
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
