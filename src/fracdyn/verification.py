"""The one battery for the package's claims, behind `fracdyn verify`.

Each check returns (passed, margin, details), where the margin says how far
inside its threshold the measurement landed (negative means failure).
`SUITES` maps each suite to its named checks; `run_check` runs one and times
it.  The six quick suites run by default; the `paper` suite holds the
paper-scale runs (long horizons, many seeds).  `tests/test_acceptance.py`
runs every registered check.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import bifurcation as bif
from . import catalog
from . import scalar_analysis as sa
from .caputo_solver import CORRECTOR_TOL, EXACT_ORDER, CaputoProblem, convergence_order, solve_pece
from .function_space_semigroup import semigroup_defects, state_space_defect
from .mittag_leffler import ml
from .triangular_systems import product_attractor, validate_triangular

__all__ = ["CheckResult", "run_check", "run_checks", "SUITES", "FAULTS"]

FAULTS = ("inflate-gamma",)

FIG2_BOX = [(-3.0, 3.0), (-3.0, 3.0)]


@dataclass
class CheckResult:
    check: str
    status: str  # "pass" | "fail"
    margin: float
    details: str
    seconds: float

    @property
    def passed(self):
        return self.status == "pass"

    def to_record(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Mittag-Leffler suite


def check_ml_exp():
    errs = [
        abs(ml(1.0, 1.0, z) - math.exp(z)) / math.exp(z)
        for z in np.linspace(-10, 10, 41)
    ]
    worst = max(errs)
    return (worst <= 1e-10, 1e-10 - worst,
            f"max relative error vs exp on [-10,10]: {worst:.3e}")


def check_ml_cosh():
    errs = [
        abs(ml(2.0, 1.0, z) - math.cosh(math.sqrt(z))) / math.cosh(math.sqrt(z))
        for z in np.linspace(0, 10, 21)
    ]
    worst = max(errs)
    return (worst <= 1e-10, 1e-10 - worst,
            f"max relative error vs cosh(sqrt(z)) on [0,10]: {worst:.3e}")


def check_ml_erfc():
    ref = math.exp(1.0) * math.erfc(1.0)
    err = abs(ml(0.5, 1.0, -1.0) - ref) / ref
    return err <= 1e-8, 1e-8 - err, f"relative error vs exp(1)*erfc(1): {err:.3e}"


def check_ml_monotone():
    ts = np.linspace(0.0, 50.0, 200)
    exact = np.exp(-ts)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        vals = np.array([ml(alpha, 1.0, -t) for t in ts])
        # E_1(-t) = e^-t sinks below the evaluator's ~1e-17 absolute error
        # near t = 38: its sign is asserted only where it exceeds 1e-14, and
        # its distance to exp everywhere.  E_alpha(-50) >= 4.4e-3 for alpha < 1.
        sure = exact > 1e-14 if alpha == 1.0 else slice(None)
        if np.min(vals[sure]) <= 0 or np.any(np.diff(vals) > 1e-14):
            return False, -1.0, f"positivity/monotonicity broken for alpha={alpha}"
    err = float(np.max(np.abs(vals - exact)))  # the alpha = 1 row
    return (err <= 1e-14, 1e-14 - err,
            "E_alpha(-t) positive and non-increasing on [0,50], "
            f"|E_1(-t) - exp(-t)| <= {err:.2e}")


# ---------------------------------------------------------------------------
# Solver suite


def _scalar_problem(name, alpha, eta, t_end, dt):
    entry = catalog.get(name)
    return CaputoProblem(alpha, entry.fld, entry.default_params, (eta,), t_end, dt)


def check_solver_order():
    slope = convergence_order(_scalar_problem("linear", 0.5, 1.0, 1.0, 0.02))
    ok = slope != EXACT_ORDER and slope >= 1.2
    return (ok, (slope if ok else 0.0) - 1.2,
            f"empirical order {slope} (theory 1+alpha=1.5, need >= 1.2)")


def _order_check(pairs, dt):
    """Solve each (field, alpha, lo, hi) pair to t = 10; the pair must stay
    strictly ordered up to the first escape of either solution."""
    worst_gap = math.inf
    for name, alpha, lo, hi in pairs:
        t1 = solve_pece(_scalar_problem(name, alpha, lo, 10.0, dt))
        t2 = solve_pece(_scalar_problem(name, alpha, hi, 10.0, dt))
        stop = min(
            t1.escape_index if t1.escape_index is not None else len(t1.times),
            t2.escape_index if t2.escape_index is not None else len(t2.times),
        )
        gap = float(np.min(t2.scalar()[:stop] - t1.scalar()[:stop]))
        worst_gap = min(worst_gap, gap)
        if gap <= 0:
            return (False, gap, f"order broken for {name}, alpha={alpha:.3f}, "
                                f"etas ({lo:.4f}, {hi:.4f})")
    return True, worst_gap, f"{len(pairs)} random pairs stayed ordered (min gap {worst_gap:.3e})"


def check_order_preservation():
    rng = np.random.default_rng(42)
    specs = [("linear", -2.5, 2.5), ("cubic", -2.5, 2.5),
             ("pitchfork", -2.5, 2.5), ("saddle", -0.9, 2.5)]
    pairs = []
    for _ in range(20):
        name, lo, hi = specs[rng.integers(len(specs))]
        alpha = float(rng.uniform(0.2, 0.9))
        e1 = float(rng.uniform(lo, hi))
        e2 = float(rng.uniform(lo, hi))
        if abs(e1 - e2) < 1e-3:
            e2 = e1 + 1e-3
        pairs.append((name, alpha, min(e1, e2), max(e1, e2)))
    return _order_check(pairs, 0.01)


def check_cauchy_refinement():
    ends = []
    for dt in (0.02, 0.01, 0.005):
        ends.append(float(solve_pece(_scalar_problem("cubic", 0.5, 2.0, 5.0, dt)).scalar()[-1]))
    d1 = abs(ends[0] - ends[1])
    d2 = abs(ends[1] - ends[2])
    ratio = d1 / d2 if d2 > 0 else math.inf
    return (ratio >= 2.0, ratio - 2.0,
            f"endpoint change shrank by factor {ratio:.2f} per halving")


def check_absorbing_bound():
    entry = catalog.get("cubic")
    a, b = entry.dissipativity
    bound = 1.0 + a / b + 0.1
    traj = solve_pece(_scalar_problem("cubic", 0.5, 2.5, 50.0, 0.01))
    tail = traj.scalar()[traj.times >= 25.0]
    worst = float(np.max(tail**2))
    return (worst <= bound, bound - worst,
            f"max |x|^2 after t_end/2 is {worst:.4f} (bound {bound})")


# ---------------------------------------------------------------------------
# Scalar asymptotics suite


def check_attractor_cubic():
    entry = catalog.get("cubic")
    zs = sa.find_zeros(entry.fld, entry.scan_interval)
    iv = sa.attractor_interval(zs)
    err = max(abs(iv.lo + 1.0), abs(iv.hi - 1.0))
    return (err <= 1e-9, 1e-9 - err,
            f"interval [{iv.lo:.12f}, {iv.hi:.12f}], endpoint error {err:.2e}")


def check_envelope_cubic(fault=None):
    entry = catalog.get("cubic")
    gamma = sa.gamma_rate_constant(entry.fld, 1.0, 0.5)
    if fault == "inflate-gamma":
        gamma *= 10.0
    traj = solve_pece(_scalar_problem("cubic", 0.6, 0.5, 30.0, 0.002))
    rep = sa.envelope_check(traj, 1.0, gamma)
    return (rep.holds and rep.slack == 1e-3, 1.0 - rep.worst_ratio,
            f"gamma={gamma:.4f}, slack {rep.slack:g}, worst envelope ratio "
            f"{rep.worst_ratio:.4f}"
            + ("" if rep.holds else f", first violation at index {rep.first_violation_index}"))


def check_rate(name, alpha, eta, t_end, x_star):
    """The t^-alpha decay: log-log slope of |x(t) - x_star| within 0.1 of -alpha."""
    traj = solve_pece(_scalar_problem(name, alpha, eta, t_end, 0.05))
    slope = sa.rate_fit(traj, x_star)
    err = abs(slope + alpha)
    return err <= 0.1, 0.1 - err, f"fitted slope {slope:.4f} (expected {-alpha} +- 0.1)"


def check_classify_vs_solver():
    entry = catalog.get("cubic")
    zs = sa.find_zeros(entry.fld, entry.scan_interval)
    worst = 0.0
    for eta in (-2.5, -0.3, 0.4, 2.2):
        pred = sa.classify_limit(entry.fld, zs, eta)
        traj = solve_pece(_scalar_problem("cubic", 0.6, eta, 2000.0, 0.1))
        err = abs(float(traj.scalar()[-1]) - pred)
        worst = max(worst, err)
    return (worst < 0.05, 0.05 - worst,
            f"max |endpoint - prediction| = {worst:.4f} over 4 seeds")


# ---------------------------------------------------------------------------
# Triangular suite


def check_product_attractor():
    box = product_attractor(catalog.get("fig2").fld, FIG2_BOX)
    err = max(
        max(abs(iv.lo + 1.0), abs(iv.hi - 1.0)) for iv in box.intervals
    )
    return (err <= 1e-9, 1e-9 - err,
            f"box {[(iv.lo, iv.hi) for iv in box.intervals]}, error {err:.2e}")


def check_componentwise_limits(seeds, t_end):
    """fig2 solves at alpha = 0.6, dt = 0.05 end within 0.05 of the predicted limits."""
    entry = catalog.get("fig2")
    fld = entry.fld.assembled()
    report = validate_triangular(entry.fld, FIG2_BOX)
    worst = 0.0
    for x0 in seeds:
        pred = report.limits(x0)
        traj = solve_pece(CaputoProblem(0.6, fld, (), x0, t_end, 0.05))
        worst = max(worst, float(np.max(np.abs(traj.endpoint() - np.asarray(pred)))))
    return (worst < 0.05, 0.05 - worst,
            f"max endpoint deviation {worst:.4f} over {len(seeds)} seeds")


def _fig2_seeds(n, seed):
    rng = np.random.default_rng(seed)
    seeds = []
    while len(seeds) < n:
        # seeds stay within the dt = 0.05 stability range of the cubic factors
        x0 = tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        # and clear of the unstable separatrices
        if all(min(abs(c - z) for z in (-1.0, 0.0, 1.0)) >= 0.01 for c in x0):
            seeds.append(x0)
    return seeds


# ---------------------------------------------------------------------------
# Bifurcation suite


def check_bifurcation_labels():
    d1 = bif.sweep(catalog.get("saddle").fld, (-1.0, 1.0), 201)
    d2 = bif.sweep(catalog.get("pitchfork").fld, (-1.0, 1.0), 201)
    l1, l2 = bif.classify(d1), bif.classify(d2)
    c1 = (d1.counts()[0], d1.counts()[-1])
    c2 = (d2.counts()[0], d2.counts()[-1])
    ok = l1 == "saddle-node" and l2 == "pitchfork" and c1 == (0, 2) and c2 == (1, 3)
    return (ok, 1.0 if ok else -1.0,
            f"saddle family {c1[0]} -> {c1[1]} zeros, {l1!r}; "
            f"pitchfork family {c2[0]} -> {c2[1]} zeros, {l2!r}")


def check_divergence_cases():
    saddle = catalog.get("saddle").fld
    cases = [(-0.5, 0.0, True), (0.25, 0.0, False), (0.25, -1.0, True)]
    for gam, x0, expect in cases:
        got = bif.divergence_check(saddle, gam, 0.5, x0, 50.0)
        if got is not expect:
            return False, -1.0, f"gamma={gam}, x0={x0}: expected {expect}, got {got}"
    return True, 1.0, "all three saddle-family divergence cases match"


# ---------------------------------------------------------------------------
# Semigroup suite


def check_state_space_defect():
    worst = min(state_space_defect(alpha, 1.0, 1.0, 1.0) for alpha in (0.3, 0.5, 0.8))
    return (worst > 0.01, worst - 0.01,
            f"min defect over alpha in (0.3,0.5,0.8): {worst:.4f}")


def _defects(name, f0, dt_levels):
    """Semigroup defects of T_0.5 T_0.5 at alpha = 0.5 from the constant f0,
    at dt = 0.05 and its halvings; dt divides tau so the shifts stay on the grid."""
    return semigroup_defects(0.5, 0.5, [f0], catalog.get(name).fld, (), 0.5, 0.05, dt_levels)


def _tolerance_check(defects):
    """On the solver grid the discrete T_tau compose exactly, so each defect
    is what the corrector leaves of its equations: at most CORRECTOR_TOL."""
    worst = max(defects)
    return (worst <= CORRECTOR_TOL, CORRECTOR_TOL - worst,
            "defects " + " -> ".join(f"{d:.3e}" for d in defects)
            + f" (need <= {CORRECTOR_TOL:g})")


def check_semigroup_defect():
    return _tolerance_check(_defects("linear", 1.0, 2))


# ---------------------------------------------------------------------------
# Paper-scale suite


def check_order_preservation_paper():
    rng = np.random.default_rng(20260823)
    pairs = []
    for i in range(100):
        alpha = float(rng.uniform(0.2, 0.9))
        lo = float(rng.uniform(-1.5, 1.5 - 1e-3))
        pairs.append((("linear", "cubic", "pitchfork")[i % 3], alpha, lo,
                      lo + float(rng.uniform(1e-3, 1.0))))
    # dt = 0.002 keeps the first corrector step order-faithful down to
    # alpha near 0.2, where the kernel weight dt^alpha is large
    return _order_check(pairs, 0.002)


def check_semigroup_refinement():
    results = [_tolerance_check(_defects(name, f0, 3))
               for name, f0 in (("linear", 1.0), ("cubic", 0.5))]
    return (all(ok for ok, _, _ in results), min(m for _, m, _ in results),
            "linear: " + results[0][2] + "; cubic: " + results[1][2])


def check_heteroclinic_round_trip():
    entry = catalog.get("cubic")
    zs = sa.find_zeros(entry.fld, entry.scan_interval)
    alpha, eta, dt = 0.6, 0.5, 0.01
    zeta = sa.backward_extend(entry.fld, alpha, eta, 50.0, dt, tol=1e-8, zs=zs)
    fwd = solve_pece(_scalar_problem("cubic", alpha, eta, 60.0, dt))
    rt = solve_pece(_scalar_problem("cubic", alpha, zeta, 50.0, dt))
    margins = (1e-2 - abs(zeta), 1e-2 - abs(float(fwd.scalar()[-1]) - 1.0),
               1e-6 - abs(float(rt.scalar()[-1]) - eta))
    return (min(margins) >= 0, min(margins),
            f"0 <- {eta} -> 1: preimage {zeta:.3e}, forward end "
            f"{float(fwd.scalar()[-1]):.6f}, round trip {float(rt.scalar()[-1]):.9f}")


# ---------------------------------------------------------------------------
# Registry


SUITES = {
    "ml": {
        "ml_exp_identity": check_ml_exp,
        "ml_cosh_identity": check_ml_cosh,
        "ml_erfc_identity": check_ml_erfc,
        "ml_monotone_decay": check_ml_monotone,
    },
    "solver": {
        "solver_order_linear": check_solver_order,
        "order_preservation": check_order_preservation,
        "cauchy_refinement": check_cauchy_refinement,
        "absorbing_bound": check_absorbing_bound,
    },
    "scalar": {
        "attractor_cubic": check_attractor_cubic,
        "envelope_check": check_envelope_cubic,
        "rate_fit_linear": partial(check_rate, "linear", 0.5, 1.0, 1000.0, 0.0),
        "classify_vs_solver": check_classify_vs_solver,
    },
    "triangular": {
        "product_attractor_fig2": check_product_attractor,
        "componentwise_limits_fig2": partial(
            check_componentwise_limits,
            [(0.5, 0.5), (-0.4, 1.5), (1.8, -0.6), (-1.2, -1.7)], 500.0),
    },
    "bifurcation": {
        "bifurcation_labels": check_bifurcation_labels,
        "divergence_cases": check_divergence_cases,
    },
    "semigroup": {
        "state_space_defect": check_state_space_defect,
        "semigroup_defect": check_semigroup_defect,
    },
    "paper": {
        **{f"rate_fit_cubic_{alpha}": partial(check_rate, "cubic", alpha, 2.0, 1.0e4, 1.0)
           for alpha in (0.3, 0.5, 0.7)},
        "order_preservation_100_pairs": check_order_preservation_paper,
        "semigroup_refinement": check_semigroup_refinement,
        "componentwise_limits_25_seeds": partial(
            check_componentwise_limits, _fig2_seeds(25, 271828), 1.0e3),
        "heteroclinic_round_trip": check_heteroclinic_round_trip,
    },
}


def run_check(suite, name, fault=None):
    """Run and time one registered check; only envelope_check takes a fault."""
    check = SUITES[suite][name]
    t0 = time.perf_counter()
    ok, margin, details = check(fault=fault) if check is check_envelope_cubic else check()
    return CheckResult(name, "pass" if ok else "fail", float(margin), details,
                       time.perf_counter() - t0)


def run_checks(suite=None, fault=None):
    """Run one suite, or the six quick ones (everything but `paper`)."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault '{fault}'; available: {', '.join(FAULTS)}")
    if suite is not None and suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'; available: {', '.join(SUITES)}")
    suites = [suite] if suite else [s for s in SUITES if s != "paper"]
    return [run_check(s, name, fault) for s in suites for name in SUITES[s]]
