"""Scalar Caputo FDE asymptotics: steady states, attractor interval,
Mittag-Leffler decay envelopes, limit classification, convergence-rate
fitting, backward time extension and heteroclinic orbits.

Everything here works on one-dimensional fields g: R -> R satisfying the
dissipativity bound g(x)*x <= a - b*x^2 (H1) and hyperbolicity of every
zero, g'(x*) != 0 (H2).  Under those, the interval spanned by the zero set
attracts all bounded sets, pointwise convergence toward the nearest stable
zero is bounded above by E_alpha(-gamma t^alpha) with an explicitly
constructible gamma, and the long-time rate is t^(-alpha).
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .caputo_solver import CaputoProblem, Trajectory, check_grid, check_solve, solve_pece
from .field_expr import FieldDef, FieldEvalError, eval_points
from .mittag_leffler import LOG_DOUBLE_MAX, MLConvergenceError, ml, ml_decay

__all__ = [
    "DissipativityCertificate",
    "DissipativityError",
    "ZeroSet",
    "AttractorInterval",
    "HeteroclinicOrbit",
    "EnvelopeReport",
    "DegenerateZeroError",
    "DegenerateBasinError",
    "BracketFailureError",
    "InsufficientDataError",
    "check_h1",
    "find_zeros",
    "attractor_interval",
    "gamma_rate_constant",
    "envelope_check",
    "classify_limit",
    "rate_fit",
    "backward_extend",
    "heteroclinic_orbit",
    "lower_bound_check",
    "default_lipschitz_bound",
]

H2_DERIVATIVE_FLOOR = 1e-6
ENVELOPE_SLACK = 1e-3
SCAN_RESOLUTION = 2000  # cells of the zero scan's uniform grid
SAMPLES = 2000  # points of a sampled bound: H1 on an interval or a box, g' on a hull
GAMMA_GRID_POINTS = 1000  # points of each grid gamma_rate_constant samples its slope on


class DissipativityError(ValueError):
    """The sampled dissipativity bound failed; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateZeroError(ValueError):
    """A zero with |g'| below the hyperbolicity floor (H2 violation)."""

    def __init__(self, message, zero=None):
        super().__init__(message)
        self.zero = zero


class DegenerateBasinError(ValueError):
    """Seed at or beyond an adjacent zero; no one-sided decay constant exists."""


class BracketFailureError(RuntimeError):
    """Backward extension found no preimage within tol at this horizon."""


class InsufficientDataError(ValueError):
    """Too few usable points for a rate fit."""


@dataclass(frozen=True)
class DissipativityCertificate:
    a: float
    b: float
    scan_interval: tuple
    worst_margin: float

    def radius(self):
        """Zeros are confined to +-sqrt(a/b); see the attractor bound."""
        return math.sqrt(self.a / self.b)


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple  # sorted ascending
    derivs: tuple  # g' at each zero

    def __len__(self):
        return len(self.zeros)

    def stable(self):
        return tuple(z for z, d in zip(self.zeros, self.derivs) if d < 0)

    def degenerate(self):
        """Per zero, whether |g'| < H2_DERIVATIVE_FLOOR: hyperbolicity (H2) fails there."""
        return tuple(abs(d) < H2_DERIVATIVE_FLOOR for d in self.derivs)

    def distance(self, x):
        """Euclidean distance from x (a scalar or an array) to the zero set."""
        return np.min(np.abs(np.subtract.outer(x, self.zeros)), axis=-1)

    def flow(self, eta):
        """(source, target), the zeros the solution from eta runs from and to;
        None on a zero or outside the attractor, ValueError if eta is not finite.

        No two solutions of a scalar Caputo FDE intersect (Cong & Tuan) and the
        zeros are constant solutions, so a solution keeps its order and runs from
        one adjacent zero toward the other: up when g' > 0 at the lower one.
        """
        if not math.isfinite(eta):
            raise ValueError(f"eta must be finite, got {eta}")
        j = int(np.searchsorted(self.zeros, eta)) - 1  # zeros[j] < eta <= zeros[j+1]
        if not (0 <= j < len(self.zeros) - 1 and eta != self.zeros[j + 1]):
            return None
        lo, hi = self.zeros[j], self.zeros[j + 1]
        return (lo, hi) if self.derivs[j] > 0 else (hi, lo)


@dataclass(frozen=True)
class AttractorInterval:
    lo: float
    hi: float

    def distance(self, x):
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return 0.0


@dataclass(frozen=True)
class HeteroclinicOrbit:
    source: float
    target: float
    seed: float
    times: np.ndarray  # ascending, spanning [-T_back, T_fwd]
    values: np.ndarray
    solves: tuple  # forward solves of each backward horizon, shortest first


@dataclass(frozen=True)
class EnvelopeReport:
    holds: bool
    worst_ratio: float
    first_violation_index: int | None
    slack: float


def _scalar_fn(fld: FieldDef, params=()):
    """g on a 1-D array of points."""
    if fld.dimension != 1:
        raise ValueError(f"scalar analysis needs d=1, got d={fld.dimension}")
    return lambda xs: eval_points(fld, np.reshape(xs, (-1, 1)), params)[:, 0]


# ---------------------------------------------------------------------------
# Hypothesis checks


def certify_h1(fld, a, b, points, region, params=()):
    """Sampled <x, g(x)> <= a - b |x|^2 at every row of points (n, d).

    The witness of a failure is the worst point: a float for d = 1, else a
    tuple.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"need a, b > 0, got a={a}, b={b}")
    g = eval_points(fld, points, params)
    margins = a - b * np.sum(points * points, axis=1) - np.sum(g * points, axis=1)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    if worst < 0.0:
        x = points[k]
        witness = float(x[0]) if len(x) == 1 else tuple(x.tolist())
        raise DissipativityError(
            f"dissipativity fails at x={witness} (margin {worst:.3g})", witness=witness
        )
    return DissipativityCertificate(a, b, region, worst)


def check_h1(fld, a, b, scan_interval=(-10.0, 10.0), params=()):
    """Sample the bound g(x)*x <= a - b*x^2 at SAMPLES points of the scan interval.

    A failure outside the interval is not detectable here; a passing
    certificate is 'inconclusive beyond scan' by construction.
    """
    xs = np.linspace(scan_interval[0], scan_interval[1], SAMPLES)
    return certify_h1(fld, a, b, xs[:, None], tuple(scan_interval), params)


def _scan_grid(scan_interval):
    start, stop = (float(v) for v in scan_interval)
    if not (math.isfinite(stop - start) and start < stop):
        raise ValueError(f"scan interval needs lo < hi and a finite hi - lo, got {start}:{stop}")
    xs = np.linspace(start, stop, SCAN_RESOLUTION + 1)
    # 0.0 on the grid: bisecting toward it would run through the doubles crowding there.
    i = int(np.searchsorted(xs, 0.0))
    if 0 < i < len(xs) and xs[i] != 0.0:
        xs = np.insert(xs, i, 0.0)
    return xs


def _grid_brackets(g, xs):
    """Exact zeros of g on the grid xs, and its sign-change cells as (lo, hi, g(lo))."""
    vals = g(xs)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    return xs[vals == 0.0].tolist(), zip(xs[cells].tolist(), xs[cells + 1].tolist(),
                                         vals[cells].tolist())


def _bisect(fn, p, cells):
    """Zeros of g = fn((x,), p) in the sign-change cells (lo, hi, g(lo)), bisected
    to the double one cell at a time on floats.

    A cell is halved at 0.5 * (lo + hi), keeping the half where g changes sign,
    until g vanishes at the midpoint or no double lies between its ends; its zero
    is then that midpoint.  fn is the compiled_arrays() component that evaluated
    the grid, so each value is the one eval_points gives at that point, and a
    midpoint where g is complex, not finite or raises is FieldEvalError(component=0).
    """
    zeros = []
    with np.errstate(all="ignore"):
        for lo, hi, flo in cells:
            neg, mid = flo < 0.0, 0.5 * (lo + hi)
            while lo < mid < hi:
                try:
                    fmid = fn((mid,), p)
                except ArithmeticError:  # float division by 0, overflow in **
                    fmid = math.nan
                if isinstance(fmid, complex) or not math.isfinite(fmid):
                    raise FieldEvalError("complex or non-finite value in component 0",
                                         component=0)
                if fmid == 0.0:
                    lo = hi = mid
                elif (fmid < 0.0) == neg:
                    lo = mid
                else:
                    hi = mid
                mid = 0.5 * (lo + hi)
            zeros.append(mid)
    return zeros


def scan_zeros(fld, scan_interval, params=()) -> ZeroSet:
    """Bracketing scan + bisection: the ZeroSet of g, without H2 checks."""
    return scan_zero_sets(fld, scan_interval, [params])[0]


def scan_zero_sets(fld, scan_interval, param_sets):
    """scan_zeros for every row of param_sets (k, n_params): a tuple of k ZeroSets.

    Each row's grid is one eval_points call, and its sign-change cells are
    bisected on floats with that row's parameters (see _bisect).  g' at the
    zeros of all rows comes from one evaluation, each point carrying its row's
    parameters as per-point arrays (see eval_points).
    """
    xs = _scan_grid(scan_interval)
    param_sets = np.asarray(param_sets, dtype=float)
    fn = fld.compiled_arrays()[0]
    zeros = []
    for p in map(tuple, param_sets.tolist()):
        exact, cells = _grid_brackets(_scalar_fn(fld, p), xs)
        zeros.append(sorted(exact + _bisect(fn, p, cells)))
    zero_params = np.repeat(param_sets, [len(z) for z in zeros], axis=0)
    derivs = iter(_scalar_fn(fld.derivative(0), tuple(zero_params.T))(
        [z for row in zeros for z in row]).tolist())
    return tuple(ZeroSet(tuple(z), tuple(islice(derivs, len(z)))) for z in zeros)


def find_zeros(fld, scan_interval, params=()) -> ZeroSet:
    """Locate the zero set and the derivative at each zero.

    Raises DegenerateZeroError when |g'| at a zero is below H2_DERIVATIVE_FLOOR
    (H2 violation); warns when the count comes out even, which usually means
    the scan interval is too small.
    """
    zs = scan_zeros(fld, scan_interval, params)
    for z, d, flat in zip(zs.zeros, zs.derivs, zs.degenerate()):
        if flat:
            raise DegenerateZeroError(
                f"zero at x={z:.9g} has |g'|={abs(d):.3g} < {H2_DERIVATIVE_FLOOR} "
                "(non-degeneracy fails)",
                zero=z,
            )
    if zs.zeros and len(zs) % 2 == 0:
        warnings.warn(
            f"found an even number of zeros ({len(zs)}); "
            "the scan interval may clip the zero set",
            stacklevel=_caller_outside_package(),
        )
    return zs


def _caller_outside_package():
    """The stacklevel at which a warning raised by this function's caller
    names the first frame outside the fracdyn package, however many of the
    package's own calls lie between it and that frame."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def attractor_interval(zs: ZeroSet) -> AttractorInterval:
    """The global attractor [min zeros, max zeros]."""
    if not zs.zeros:
        raise ValueError("empty zero set has no attractor interval")
    return AttractorInterval(zs.zeros[0], zs.zeros[-1])


# ---------------------------------------------------------------------------
# Decay envelopes


def gamma_rate_constant(fld, x_star, eta, params=()):
    """Explicit positive decay constant for the envelope toward x_star.

    Shift coordinates so the stable zero sits at 0 and the seed below it,
    then take the minimum of |f'(0)|/2 and f(w)/|w| on a grid from the seed
    up to 0, left out, where f(w)/|w| tends to |f'(0)|. DegenerateBasinError
    when f <= 0 on the grid: the seed lies at or beyond an adjacent zero.
    """
    g = _scalar_fn(fld, params)
    fprime0 = float(_scalar_fn(fld.derivative(0), params)(x_star)[0])
    if fprime0 >= 0.0:
        raise DegenerateBasinError(
            f"x_star={x_star} is not a stable zero (g'={fprime0:.3g})"
        )
    zeta = eta - x_star
    half_slope = abs(fprime0) / 2.0
    if zeta == 0.0:
        return half_slope

    # f in shifted coordinates, mirrored so the seed is always below zero.
    sign = 1.0 if zeta < 0.0 else -1.0
    f = lambda w: sign * g(x_star + sign * w)
    ws = np.linspace(-abs(zeta), 0.0, GAMMA_GRID_POINTS, endpoint=False)
    fw = f(ws)
    if np.any(fw <= 0.0):
        raise DegenerateBasinError(
            f"field changes sign between eta={eta} and x_star={x_star}; "
            "seed lies at or beyond an adjacent zero"
        )
    return float(min(half_slope, np.min(fw / np.abs(ws))))


def _envelope_report(lhs, allowed, upper) -> EnvelopeReport:
    # The ratio is inf wherever the bound vanishes (a seed on the zero).
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(allowed > 0.0, lhs / allowed, math.inf)
    bad = np.flatnonzero(lhs > allowed if upper else lhs < allowed)
    first_bad = int(bad[0]) if bad.size else None
    worst = float(ratio.max() if upper else ratio.min())
    return EnvelopeReport(first_bad is None, worst, first_bad, ENVELOPE_SLACK)


def envelope_check(traj: Trajectory, x_star, gamma_rate) -> EnvelopeReport:
    """Verify |x(t) - x_star| <= E_alpha(-gamma t^alpha) |eta - x_star| (1+slack),
    eta = x(0)."""
    x = traj.scalar()
    d0 = abs(float(x[0]) - x_star)
    allowed = ml_decay(traj.alpha, gamma_rate, traj.times) * d0 * (1.0 + ENVELOPE_SLACK)
    return _envelope_report(np.abs(x - x_star), allowed, upper=True)


def lower_bound_check(traj: Trajectory, zs: ZeroSet, L) -> EnvelopeReport:
    """Verify d(x(t), N(g)) >= E_alpha(-L t^alpha) d(eta, N(g)) (1 - slack)."""
    if L <= 0:
        raise ValueError(f"need L > 0, got {L}")
    x = traj.scalar()
    d0 = zs.distance(float(x[0]))
    allowed = ml_decay(traj.alpha, L, traj.times) * d0 * (1.0 - ENVELOPE_SLACK)
    return _envelope_report(zs.distance(x), allowed, upper=False)


def default_lipschitz_bound(fld, eta, zs: ZeroSet, params=()):
    """max |g'| over the convex hull of {eta} and the attractor, inflated 10%."""
    lo = min(eta, zs.zeros[0])
    hi = max(eta, zs.zeros[-1])
    mid = 0.5 * (lo + hi)
    half = 0.55 * (hi - lo)  # 10% inflation
    if half == 0.0:
        half = 0.1
    xs = np.linspace(mid - half, mid + half, SAMPLES)
    return float(np.max(np.abs(_scalar_fn(fld.derivative(0), params)(xs))))


# ---------------------------------------------------------------------------
# Limits and rates


def classify_limit(fld, zs: ZeroSet, eta, params=()):
    """Predicted limit of x(t, eta) by pure interval arithmetic on the zeros.

    Inside the attractor every seed converges to the stable zero bounding
    its interval; seeds outside converge to the nearest endpoint.
    """
    del fld, params  # signs are implied by the derivative pattern at the zeros
    zeros = zs.zeros
    if not zeros:
        raise ValueError("empty zero set")
    ends = zs.flow(eta)  # None on a zero (eta itself) or outside the attractor (an end)
    return ends[1] if ends else min(max(eta, zeros[0]), zeros[-1])


def rate_fit(traj: Trajectory, x_star):
    """Least-squares slope of log|x(t) - x_star| vs log t on [t_end/100, t_end]."""
    t = np.asarray(traj.times, dtype=float)
    dist = np.abs(traj.scalar() - x_star)
    t_end = t[-1]
    mask = (t >= t_end / 100.0) & (dist > 1e-12)
    if int(mask.sum()) < 20:
        raise InsufficientDataError(
            f"only {int(mask.sum())} usable points in the fit window"
        )
    slope = np.polyfit(np.log(t[mask]), np.log(dist[mask]), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Backward extension and heteroclinics


def _preimage(fld, params, alpha, eta, t_back, dt, tol, source, lam, far):
    """(zeta, solves): a zeta between source and far whose solution ends within
    tol of eta at t_back, found in `solves` forward solves.

    The search runs in u = log|zeta - source|, in which the forward end grows.
    Near a source with lam = g'(source) > 0 the solution is about
    source + E_alpha(lam t^alpha)(zeta - source), which seeds u.  The step from
    the seed doubles until the end crosses eta, between the double next to the
    source and far; far's solution ends past eta, so far is never solved.  The
    Illinois method (Dowell & Jarratt 1971, BIT 11:168) then closes the
    bracket, by its midpoint in u where a candidate leaves it or is nan, and by
    its midpoint in zeta where u no longer parts the doubles.
    """
    sign = 1.0 if far > source else -1.0
    near = float(np.nextafter(source, far))
    u_min, u_max = math.log(abs(near - source)), math.log(abs(far - source))
    # E_alpha(lam t^alpha) ~ exp(rate t) / alpha, rate = lam^(1/alpha); 0 without a slope.
    rate = (math.exp(min(math.log(lam) / alpha, LOG_DOUBLE_MAX))
            if lam >= H2_DERIVATIVE_FLOOR else 0.0)
    if rate > 0.0:
        log_e = rate * t_back - math.log(alpha)
        if log_e < LOG_DOUBLE_MAX:
            with contextlib.suppress(MLConvergenceError):  # the series' terms run out near 0
                log_e = math.log(ml(alpha, 1.0, (rate * t_back) ** alpha))
        seed = math.log(abs(eta - source)) - log_e
    else:
        seed = 0.5 * (u_min + u_max)
    solves = 0

    def zeta(u):
        return near if u <= u_min else far if u >= u_max else source + sign * math.exp(u)

    def x_end(z):
        nonlocal solves
        solves += 1
        return float(solve_pece(CaputoProblem(alpha, fld, tuple(params), (z,), t_back,
                                              dt)).scalar()[-1])

    def failure(what):
        # T*: the horizon at which ulp(source) E_alpha(lam T^alpha) reaches tol.
        t_star = (max(0.0, math.log(alpha * tol) - u_min) / rate if rate > 0.0 else math.inf)
        return BracketFailureError(
            f"{what}; the linearisation at {source} puts the resolvable horizon at "
            f"T*={t_star:.3g}")

    lo = hi = None  # (u, zeta, end): the end short of eta, and past it (far's is nan)
    # The first step, 0.5, covers the seed's error on the cubics: it is 0.31-0.34 in u.
    u, step = min(max(seed, u_min), u_max), 0.5
    while lo is None or hi is None:
        z = zeta(u)
        x = math.nan if z == far else x_end(z)
        if abs(x - eta) <= tol:
            return z, solves
        if sign * (x - eta) < 0.0:
            lo, u = (u, z, x), min(u + step, u_max)
        elif z == near:
            raise failure(
                f"no sign change at horizon {t_back}: the solution from {near}, the "
                f"double next to the zero {source}, is already at {x}, past "
                f"eta={eta}; the preimage lies closer to that zero than doubles resolve")
        else:
            hi, u = (u, z, x), max(u - step, u_min)
        step *= 2.0
    fa, fb, side = sign * (lo[2] - eta), sign * (hi[2] - eta), 0
    while True:
        (ua, za, xa), (ub, zb, xb) = lo, hi
        u = ub - fb * (ub - ua) / (fb - fa)
        if not ua < u < ub:  # nan while far is unsolved
            u = 0.5 * (ua + ub)
        z = zeta(u)
        if not min(za, zb) < z < max(za, zb):
            z = 0.5 * (za + zb)
            if z == za or z == zb:
                raise failure(
                    f"no preimage within tol={tol} at horizon {t_back}: the bracket closed "
                    f"on the adjacent doubles {za} and {zb}, whose solutions end "
                    f"{xa - eta:.3g} and {xb - eta:.3g} off eta={eta}")
            u = math.log(abs(z - source))
        x = x_end(z)
        if abs(x - eta) <= tol:
            return z, solves
        f = sign * (x - eta)
        if f < 0.0:  # Illinois: halve the value at an end kept twice in a row
            lo, fa, fb, side = (u, z, x), f, fb * (0.5 if side < 0 else 1.0), -1
        else:
            hi, fb, fa, side = (u, z, x), f, fa * (0.5 if side > 0 else 1.0), 1


def backward_extend(fld, alpha, eta, t_back, dt, tol=1e-8, params=(), *, zs):
    """Value zeta with x(t_back, zeta) = eta, i.e. x(-t_back, eta).

    eta's own solution runs on toward the target (ZeroSet.flow), so the
    preimage lies between the source and eta.  It is searched in the log
    distance from the source, seeded by the Mittag-Leffler linearisation
    there with g' from zs (see _preimage): 6 solves on the cubic at horizons
    2 to 50, where bisection in zeta took up to 93.
    BracketFailureError when eta is not strictly between adjacent zeros, when
    the double next to the source has already passed eta, or when the
    bracket closes on adjacent doubles with no zeta within tol of it; the
    last two name the linearisation's resolvable horizon T*.
    """
    if eta in zs.zeros:
        return eta
    ends = zs.flow(eta)
    if ends is None:
        raise BracketFailureError(
            f"eta={eta} is not strictly between adjacent zeros; backward "
            "solutions leave every compact set there"
        )
    lam = zs.derivs[zs.zeros.index(ends[0])]
    return _preimage(fld, params, alpha, eta, t_back, dt, tol, ends[0], lam, eta)[0]


def heteroclinic_orbit(fld, alpha, zs: ZeroSet, eta, t_back, t_fwd, dt,
                       params=()) -> HeteroclinicOrbit:
    """Numerical heteroclinic orbit through eta.

    The orbit runs from the source zero (t -> -inf) to the target (see
    ZeroSet.flow).  Horizons go shortest first: the solution from the
    preimage at h/2 is past eta at h, so it bounds the search for the
    preimage at h (see backward_extend); `solves` counts each horizon's
    forward solves.  ValueError when eta lies on a zero or outside the attractor, or when a
    horizon breaks the grid rules (the error names t_back or t_fwd).
    BracketFailureError names the longest horizon resolved before the failing one.
    """
    steps = check_solve(alpha, t_back, dt, names=("dt", "t_back"))
    check_grid(t_fwd, dt, names=("dt", "t_fwd"))
    ends = zs.flow(eta)
    if ends is None:
        raise ValueError(f"eta={eta} is not strictly between adjacent zeros of {zs.zeros}")
    # round(steps / 2^k) steps, k = 6 .. 0, those >= 1: each time label is a horizon solved.
    horizons = [round(steps / 2**k) * dt for k in range(6, -1, -1) if steps >= 2**k]
    lam = zs.derivs[zs.zeros.index(ends[0])]
    back, solves = [eta], []  # horizon 0 maps eta to itself
    for resolved, h in zip([0.0, *horizons], horizons):
        try:
            zeta, n = _preimage(fld, params, alpha, eta, h, dt, 1e-8, ends[0], lam, back[-1])
        except BracketFailureError as e:
            raise BracketFailureError(f"{e}; the longest horizon resolved is {resolved}") from None
        back.append(zeta)
        solves.append(n)
    fwd = solve_pece(CaputoProblem(alpha, fld, tuple(params), (eta,), t_fwd, dt))
    times = np.concatenate([-np.asarray(horizons[::-1]), fwd.times])
    values = np.concatenate([back[:0:-1], fwd.scalar()])
    return HeteroclinicOrbit(*ends, eta, times, values, tuple(solves))
