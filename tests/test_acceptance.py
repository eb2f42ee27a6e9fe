"""Acceptance battery: every check registered in `fracdyn.verification.SUITES`,
one test each, with ids like `scalar/envelope_check`.

The claims and their thresholds live in the registry only; this file adds
the time budgets.  `pytest tests/test_acceptance.py -v -s` prints one line
per check; `-k paper` runs the paper-scale suite (a few minutes), and
`-k "not paper"` the quick suites that `fracdyn verify` runs (about 30 s).
"""

import functools

import pytest

from fracdyn import caputo_solver
from fracdyn.verification import SUITES, run_check, run_checks

CHECKS = [(suite, name) for suite, checks in SUITES.items() for name in checks]
SUITE_OF = {name: suite for suite, name in CHECKS}

# Seconds.  A budget shared by several checks bounds their sum; checks not
# named here have none.
BUDGETS = {
    ("attractor_cubic",): 1.0,
    ("ml_exp_identity", "ml_cosh_identity", "ml_erfc_identity"): 1.0,
    ("state_space_defect",): 1.0,
    ("envelope_check",): 60.0,
    ("solver_order_linear",): 60.0,
    ("rate_fit_cubic_0.3",): 120.0,
    ("rate_fit_cubic_0.5",): 120.0,
    ("rate_fit_cubic_0.7",): 120.0,
    ("bifurcation_labels", "divergence_cases"): 120.0,
    ("semigroup_refinement",): 120.0,
    ("heteroclinic_round_trip",): 120.0,
    ("order_preservation_100_pairs",): 300.0,
    ("product_attractor_fig2", "componentwise_limits_25_seeds"): 300.0,
}


@functools.cache
def result(name):
    return run_check(SUITE_OF[name], name)


def test_budgets_name_registered_checks():
    assert {name for group in BUDGETS for name in group} <= set(SUITE_OF)


def assert_claim(name):
    """The check passes, and every budget it shares stays unspent."""
    res = result(name)
    print(f"{SUITE_OF[name]}/{name}: {res.status.upper()} in {res.seconds:.2f}s ({res.details})")
    assert res.passed, res.details
    for group, budget in BUDGETS.items():
        if name in group:
            spent = sum(result(n).seconds for n in group)
            assert spent < budget, f"{' + '.join(group)} took {spent:.1f}s (budget {budget:g}s)"


@pytest.mark.parametrize("suite,name", CHECKS, ids=[f"{s}/{n}" for s, n in CHECKS])
def test_claim(suite, name):
    assert_claim(name)


# The numbered acceptance criteria that are registered checks of the quick
# suites, by their long-standing names.  Results are cached, so each check
# still runs once per session.


def test_05_solver_convergence_order():
    assert_claim("solver_order_linear")


def test_06_mittag_leffler_identities():
    for name in ("ml_exp_identity", "ml_cosh_identity", "ml_erfc_identity"):
        assert_claim(name)


def test_07_state_space_is_not_a_semigroup():
    assert_claim("state_space_defect")


def test_10_bifurcation_sweeps_and_divergence():
    for name in ("bifurcation_labels", "divergence_cases"):
        assert_claim(name)


def test_every_quick_solve_meets_the_corrector_tolerance(monkeypatch):
    """Every solve of the quick suites that does not escape solves its
    corrector equation to CORRECTOR_TOL on every step."""
    trajectories = []
    original = caputo_solver._pece_loop

    def recording(*args):
        trajectories.append(original(*args))
        return trajectories[-1]

    monkeypatch.setattr(caputo_solver, "_pece_loop", recording)
    run_checks()
    bounded = [t.meta for t in trajectories if t.escape_index is None]
    assert len(bounded) > 50
    assert sum(m.unconverged_steps for m in bounded) == 0
    assert max(m.max_residual for m in bounded) <= caputo_solver.CORRECTOR_TOL
