"""Two-parameter Mittag-Leffler evaluation on the real line.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta) generalizes the
exponential and governs the decay envelopes of Caputo fractional dynamics.
Positive arguments are summed from the defining series, with Gamma values from
the standard library's `math`.  Negative ones invert the Laplace transform
s^(alpha-beta) / (s^alpha - z) at t = 1 by the trapezoidal rule on Garrappa's
optimal parabolic contour (SIAM J. Numer. Anal. 53 (2015) 1350), plus the
residues of poles right of the contour; one rule serves an array, and sums
half of its conjugate-paired nodes in real arithmetic (Weideman & Trefethen 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MLQuery",
    "MLDomainError",
    "MLOverflowError",
    "MLConvergenceError",
    "ml_eval",
    "ml",
    "ml_decay",
]

SERIES_RELATIVE_CUTOFF = 1e-16
# Small alpha needs a long tail before Gamma(alpha k + beta) wins over z^k.
SERIES_MAX_TERMS = 50_000
LOG_DOUBLE_MAX = 709.0

# The contour rule targets an absolute error of 1e-15, loosened tenfold (up to
# 1e-2) while it would need more than CONTOUR_MAX_NODES nodes per side, as for
# beta well above alpha + 1.  The round-off unit bounds how far right it reaches.
CONTOUR_LOG_TOL = math.log(1e-15)
CONTOUR_MAX_NODES = 200
# Placing the contour right of a branch point of strength p takes about 0.4 p
# refinements; past p ~ 240 the powers overflow, and p = inf never settles.
CONTOUR_MAX_REFINEMENTS = 200
LOG_EPS = math.log(np.finfo(float).eps)
# z values per block of the contour rule: its (128, N + 1) float temporaries stay
# below glibc's mmap threshold (128 KiB) for N <= 126 and are reused from the heap.
Z_BLOCK = 128
# Past |z| = Z_FAR the nodes s^alpha vanish beside z in rounding and the rule's
# sum is c / |z|: it is taken at -Z_FAR, where z^2 still fits, and scaled.
Z_FAR = 1e150


class MLDomainError(ValueError):
    """Argument outside the supported parameter domain."""


class MLOverflowError(OverflowError):
    """Result does not fit in double precision."""


class MLConvergenceError(RuntimeError):
    """No evaluation path produced a converged value (e.g. beta far above alpha + 1)."""


@dataclass(frozen=True)
class MLQuery:
    """Validated argument triple for E_{alpha,beta}(z)."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise MLDomainError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise MLDomainError(f"beta must be finite and > 0, got {self.beta}")
        if not math.isfinite(self.z):
            raise MLDomainError(f"z must be finite, got {self.z}")


def _series(alpha: float, beta: float, z: float) -> float:
    # Kahan-compensated Taylor sum of the definition for z > 0, terms built in
    # log space so intermediate powers cannot overflow before the terms decay.
    total = 0.0
    comp = 0.0
    log_z = math.log(z)
    for k in range(SERIES_MAX_TERMS):
        try:
            log_term = k * log_z - math.lgamma(alpha * k + beta)
        except OverflowError:  # log Gamma beyond double range: this and later terms are 0
            return total
        term = math.exp(log_term) if log_term <= LOG_DOUBLE_MAX else math.inf
        y = term - comp
        t = total + y
        if not math.isfinite(t):  # a term, or the sum of terms that each fit
            raise MLOverflowError(
                f"series for E_({alpha},{beta})({z}) overflows double precision"
            )
        comp = (t - total) - y
        total = t
        if term < SERIES_RELATIVE_CUTOFF * max(total, 1e-300) and k > 2:
            return total
    raise MLConvergenceError(
        f"series for E_({alpha},{beta})({z}) did not converge in "
        f"{SERIES_MAX_TERMS} terms"
    )


# Garrappa's parameter selection at t = 1.  phi = (Re s* + |s*|) / 2 is the mu
# at which the parabola s = mu (1 + iu)^2 passes through a singularity s*; p and
# q are the strengths of the singularities left and right of a region.  Each
# helper returns (N, mu, h), nodes u = h k for |k| <= N, or N = inf if none do.


def _unbounded_region(phi, p, log_tol):
    """Contour right of every singularity, the rightmost at phi with strength p."""
    sq_phi = math.sqrt(phi)
    phibar = 1.01 * phi if phi > 0.0 else 0.01
    sq_phibar = math.sqrt(phibar)
    for _ in range(CONTOUR_MAX_REFINEMENTS):
        log_ratio = log_tol / phibar
        n = math.ceil(phibar / math.pi
                      * (1.0 - 1.5 * log_ratio + math.sqrt(1.0 - 2.0 * log_ratio)))
        a = math.pi * n / phibar
        sq_mu = sq_phibar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        fbar = ((sq_phibar - sq_phi) / sq_mu) ** -p
        if p < 1e-14 or 1.0 < fbar < 10.0:
            break
        sq_phibar = 5.0 ** (-1.0 / p) * sq_mu + sq_phi
        phibar = sq_phibar**2
    else:
        return math.inf, 0.0, 0.0
    mu = sq_mu**2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_tol - LOG_EPS
    if mu > threshold:
        # Pull the contour back so exp(s) stays inside the round-off budget.
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu
        phibar = (q + sq_phi) ** 2
        if phibar >= threshold:
            return math.inf, 0.0, 0.0
        w = math.sqrt(LOG_EPS / (LOG_EPS - log_tol))
        u = math.sqrt(-phibar / LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        h = w / n
    return n, mu, h


def _bounded_region(phi, p, log_tol):
    """Contour between the origin (strength p) and two poles at phi (strength 1)."""
    f_max = math.exp(log_tol - LOG_EPS)
    sq1 = min(math.sqrt(phi), 2.0 * math.sqrt(log_tol - LOG_EPS))
    sq0 = 0.0
    if p < 1e-14:
        fbar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        sq1 = 2.0 * sq1 / (2.0 + 1.0 / fbar)
    else:
        f_min = 1.01 * sq1 / sq1 ** max(p, 1.0)
        if f_min >= f_max:
            return math.inf, 0.0, 0.0
        f_min = max(f_min, 1.5)
        fbar = f_min + f_min / f_max * (f_max - f_min)
        fp = fbar ** (-1.0 / p)
        fq = 1.0 / fbar
        w = -phi / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        sq0 = fp * sq1 / den
        sq1 = (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_tol -= math.log(fbar)
    w = -sq1**2 / log_tol
    mu = (((1.0 + w) * sq0 + sq1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sq1 - sq0) / ((1.0 + w) * sq0 + sq1)
    n = math.ceil(math.sqrt(1.0 - log_tol / mu) / h)
    return n, mu, h


@lru_cache(maxsize=1024)
def _cheapest_rule(p0, phi):
    """(N, mu, h, poles_right) of the admissible region with the fewest nodes.

    p0 is the strength of the branch point at the origin; phi places the pole
    pair, or is 0 when no pole lies off the branch cut.
    """
    for loosening in range(14):  # targets 1e-15, 1e-14, ..., 1e-2
        log_tol = CONTOUR_LOG_TOL + loosening * math.log(10.0)
        # Past phi = log_tol - LOG_EPS only the region left of the poles is
        # admissible; _unbounded_region then returns N = inf by itself.
        try:
            regions = [(*_bounded_region(phi, p0, log_tol), True)] if phi else []
            regions.append((*_unbounded_region(phi, 1.0 if phi else p0, log_tol), False))
        except (OverflowError, ZeroDivisionError) as exc:  # p0 so large that powers leave range
            raise MLConvergenceError(
                f"contour parameters leave double range (p0={p0}, phi={phi})") from exc
        best = min(regions, key=lambda r: r[0])
        if best[0] <= CONTOUR_MAX_NODES:
            return best
    raise MLConvergenceError(f"no contour rule meets a 1e-2 target (p0={p0}, phi={phi})")


def _trapezoid(alpha, beta, z, n, mu, h):
    """(1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds on s = mu (1 + iu)^2.

    For real z the term at node u = -hk is minus the conjugate of that at hk, so
    the rule is (h / 2 pi) sum_{k=0..n} c_k Im(w_k / (s_k^alpha - z)), c_0 = 1,
    c_k = 2, with w = e^s s^(alpha-beta) ds/du = p + iq and s^alpha - z = A + iB:
    Im = (qA - pB) / (A^2 + B^2).  Each block of Z_BLOCK z sums along its rows.
    """
    v = 1.0 + np.arange(n + 1) * (1j * h)
    s = mu * v**2
    log_s = np.log(s)
    weight = np.exp(s + (alpha - beta) * log_s) * ((2j * mu * h / math.pi) * v)
    weight[0] *= 0.5
    s_alpha = np.exp(alpha * log_s)
    q, pb, im2 = weight.imag, weight.real * s_alpha.imag, s_alpha.imag**2
    zc = np.maximum(z, -Z_FAR)
    out = zc / z
    for i in range(0, z.shape[0], Z_BLOCK):
        a = s_alpha.real - zc[i : i + Z_BLOCK, None]
        out[i : i + Z_BLOCK] *= ((q * a - pb) / (a * a + im2)).sum(axis=1)
    return out


def _contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for an array of z < 0."""
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))
    if alpha <= 1.0:
        # No pole of 1/(s^alpha - z) lies off the branch cut (at alpha = 1 it
        # sits on it), so one parameter set serves every z.
        out = _trapezoid(alpha, beta, z, *_cheapest_rule(p0, 0.0)[:3])
    else:
        out = np.empty(z.shape)
        for i, zi in enumerate(z):
            # Conjugate poles |z|^(1/alpha) e^(+-i pi/alpha), residues e^s s^(1-beta) / alpha
            pole = abs(zi) ** (1.0 / alpha) * np.exp(1j * math.pi / alpha)
            phi = 0.5 * (pole.real + abs(pole))
            n, mu, h, poles_right = _cheapest_rule(p0, phi if phi > 1e-15 else 0.0)
            out[i] = _trapezoid(alpha, beta, z[i : i + 1], n, mu, h)[0]
            if poles_right:
                out[i] += 2.0 / alpha * (np.exp(pole) * pole ** (1.0 - beta)).real
    if not np.isfinite(out).all():
        raise MLConvergenceError(f"contour for E_({alpha},{beta}) is not finite")
    return out


def ml_eval(q: MLQuery) -> float:
    """Evaluate E_{alpha,beta}(z) for a validated query."""
    alpha, beta, z = q.alpha, q.beta, q.z
    if z == 0.0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:  # beta > 171.6: 1 / Gamma(beta) underflows
            return 0.0
    if z > 0.0:
        return _series(alpha, beta, z)
    return float(_contour(alpha, beta, np.array([z]))[0])


def ml(alpha: float, beta: float, z: float) -> float:
    """Convenience wrapper around ml_eval."""
    return ml_eval(MLQuery(alpha, beta, z))


def ml_decay(alpha: float, gamma_rate: float, t):
    """The decay profile E_alpha(-gamma_rate * t^alpha), in (0, 1] for t >= 0.

    `t` may be a scalar or an array; the result is a float or an array of
    the same shape, and exactly 1.0 wherever t = 0.
    """
    if not 0.0 < alpha < 1.0:
        raise MLDomainError(f"ml_decay requires alpha in (0, 1), got {alpha}")
    if not gamma_rate > 0.0:
        raise MLDomainError(f"ml_decay requires gamma > 0, got {gamma_rate}")
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        z = -gamma_rate * t**alpha  # nan for t < 0
    if not np.isfinite(z).all():
        raise MLDomainError(f"ml_decay requires finite t >= 0, got {t[~np.isfinite(z)][0]}")
    out = np.ones(z.shape)
    neg = z < 0.0
    out[neg] = _contour(alpha, 1.0, z[neg])
    return float(out) if out.ndim == 0 else out
