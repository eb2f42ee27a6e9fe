"""Mittag-Leffler evaluation against closed identities and frozen oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracdyn import mittag_leffler
from fracdyn.mittag_leffler import (
    BLOCK_ELEMENTS,
    Z_FAR,
    MLConvergenceError,
    MLDomainError,
    MLOverflowError,
    MLQuery,
    _contour,
    ml,
    ml_decay,
    ml_eval,
)


def erfc_cf(x, n_terms=50):
    """erfc via the Laplace continued fraction, valid for x > 0:

    erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 2/2/(x + 3/2/(x + ...))))
    """
    tail = 0.0
    for k in range(n_terms, 0, -1):
        tail = (k / 2.0) / (x + tail)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + tail)


def ml_series_200(alpha, beta, z):
    """Direct 200-term reference sum of the definition (small arguments)."""
    total = 0.0
    zk = 1.0
    for k in range(200):
        if alpha * k + beta > 170.0:
            break  # remaining terms are below double-precision resolution
        total += zk / math.gamma(alpha * k + beta)
        zk *= z
    return total


def ml_quadrature_mp(alpha, x):
    """E_alpha(-x) for 0 < alpha < 1, x > 0, by 30-digit quadrature of

    sin(alpha pi)/(alpha pi) int_0^inf exp(-(x u)^(1/alpha)) / (u^2 + 2u cos(alpha pi) + 1) du.
    """
    with mpmath.workdps(30):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        c = mpmath.cos(a * mpmath.pi)
        f = lambda u: mpmath.exp(-((x * u) ** (1 / a))) / (u * u + 2 * u * c + 1)
        # for small alpha the exponential factor drops like a step at u = 1/x
        nodes = sorted({mpmath.mpf(0), 1 / x, mpmath.mpf(1)}) + [mpmath.inf]
        return float(mpmath.sin(a * mpmath.pi) / (a * mpmath.pi) * mpmath.quad(f, nodes))


def ml_series_mp(alpha, beta, z):
    """The defining series summed with enough digits to absorb its cancellation."""
    digits = int(abs(z) ** (1.0 / alpha) / 2.3) + 30  # largest term ~ exp(|z|^(1/alpha))
    with mpmath.workdps(digits):
        a, b, zm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = zm**k / mpmath.gamma(a * k + b)
            total += term
            if abs(term) < mpmath.mpf(10) ** -digits and k > 3:
                return float(total)
            k += 1


def full_trapezoid(alpha, beta, z, n, mu, h):
    """The contour rule on all 2n + 1 nodes, by complex division, for every z at once."""
    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    weight = np.exp(s + (alpha - beta) * log_s) * (2.0 * mu * (1j - u))
    s_alpha = np.exp(alpha * log_s)
    terms = weight / (s_alpha - z[:, None])
    return (h / (2j * np.pi) * terms.sum(axis=1)).real


# Frozen high-precision sums of the defining series (adaptive-precision
# arithmetic, 40 significant digits, rounded to double).
ORACLE = [
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.5, 1.0, -4.0, 0.13699945762506138),
    (0.3, 1.0, -2.0, 0.29023222616787536),
    (0.3, 1.0, -8.0, 0.089493095818620721),
    (0.7, 1.5, -3.0, 0.26285663395082209),
    (0.6, 1.0, -12.0, 0.038643078839373575),
    (0.9, 1.0, -7.0, 0.020553253921495637),
    (0.4, 2.0, -6.0, 0.15990945773175255),
    (0.5, 0.5, -2.0, 0.053398230926744797),
    (1.5, 1.0, -2.0, 0.029430685602826471),
    (0.8, 1.0, -30.0, 0.0075758607992192084),
]


class TestClosedForms:
    def test_exp_identity(self):
        for z in np.linspace(-10.0, 10.0, 41):
            assert ml(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-10)

    def test_cosh_identity(self):
        for z in np.linspace(0.0, 10.0, 21):
            expect = math.cosh(math.sqrt(z))
            assert ml(2.0, 1.0, float(z)) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [-1e6, -1e20, -1e30, -1e40])
    def test_cos_identity_far_out(self, z):
        # E_2(z) = cos(sqrt(-z)): the residue's pole lies on the imaginary axis,
        # so e^pole stays on the unit circle however large |z| is.
        assert abs(ml(2.0, 1.0, z) - math.cos(math.sqrt(-z))) <= 1e-12

    def test_beta_two_identity(self):
        # E_{1,2}(z) = (e^z - 1)/z
        for z in (-6.0, -2.0, -0.5, 0.5, 3.0, 8.0):
            assert ml(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-10)

    def test_erfc_identity(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x); continued-fraction oracle is itself
        # cross-checked against a direct series sum and the stdlib.
        cf = erfc_cf(1.0)
        # the 50-term fraction carries ~8 correct digits at x=1
        assert cf == pytest.approx(math.erfc(1.0), rel=1e-7)
        assert ml(0.5, 1.0, -1.0) == pytest.approx(math.e * cf, rel=1e-7)
        assert ml(0.5, 1.0, -1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-8)

    def test_erfc_cf_vs_series(self):
        # the two independent oracles agree where the plain series is stable
        assert ml_series_200(0.5, 1.0, -1.0) == pytest.approx(
            math.e * erfc_cf(1.0), rel=1e-7
        )

    def test_zero_argument(self):
        assert ml(0.5, 1.0, 0.0) == 1.0
        assert ml(0.3, 2.0, 0.0) == pytest.approx(1.0 / math.gamma(2.0), rel=1e-14)
        assert ml(0.5, 171.5, 0.0) == pytest.approx(1.0 / math.gamma(171.5), rel=1e-14)
        assert ml(0.5, 172.0, 0.0) == 0.0
        assert ml(0.5, 300.0, 0.0) == 0.0

    def test_small_argument_series_reference(self):
        for alpha in (0.3, 0.6, 0.9):
            for z in (-0.8, -0.2, 0.4, 1.7):
                assert ml(alpha, 1.0, z) == pytest.approx(
                    ml_series_200(alpha, 1.0, z), rel=1e-12
                )


class TestFrozenOracles:
    @pytest.mark.parametrize("alpha,beta,z,expect", ORACLE)
    def test_oracle_values(self, alpha, beta, z, expect):
        assert ml(alpha, beta, z) == pytest.approx(expect, rel=1e-8)


class TestContourAccuracy:
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.99, 1.0])
    def test_against_quadrature(self, alpha):
        for z in (-1000.0, -180.0, -35.0, -6.0, -1.0, -0.2, -1e-3, 0.0):
            if z == 0.0:
                expect = 1.0
            elif alpha == 1.0:
                expect = math.exp(z)
            else:
                expect = ml_quadrature_mp(alpha, -z)
            assert abs(ml(alpha, 1.0, z) - expect) <= 1e-12, z

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.75, 2.0])
    def test_poles_against_series(self, alpha):
        for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
            for z in (-60.0, -25.0, -7.0, -1.5, -0.3, -1e-3):
                assert abs(ml(alpha, beta, z) - ml_series_mp(alpha, beta, z)) <= 1e-12, (beta, z)

    @pytest.mark.parametrize("alpha, beta", [(0.3, 1.0), (0.97, 1.0), (0.6, 2.5), (1.5, 1.0)])
    def test_blocks_of_z_match_single_points(self, alpha, beta):
        # One full block of the rule's rows and one of a single value; alpha > 1
        # takes its rule per z, over as many z.
        def rule(beta):
            return mittag_leffler._cheapest_rule(max(0.0, 2.0 * (beta - alpha - 1.0)), 0.0)[:3]

        def rows(beta):
            return BLOCK_ELEMENTS // (rule(beta)[0] + 1)

        z = -np.geomspace(1e-3, 1e3, rows(beta) + 1)
        one_by_one = [ml_eval(MLQuery(alpha, beta, float(zi))) for zi in z]
        assert np.array_equal(_contour(alpha, beta, z), one_by_one)
        if alpha < 1.0:
            t = np.linspace(0.0, 50.0, rows(1.0) + 1)
            assert np.array_equal(ml_decay(alpha, 1.0, t),
                                  [ml_decay(alpha, 1.0, ti) for ti in t])
        # The kept node arrays are shared by every call of the rule: read-only.
        nodes = mittag_leffler._nodes(alpha, beta, *rule(beta))
        assert mittag_leffler._nodes(alpha, beta, *rule(beta)) is nodes
        for a in nodes:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.97, 1.0, 1.1, 1.5, 1.9])
    def test_half_nodes_match_the_full_complex_rule(self, alpha, monkeypatch):
        # beta = 1, alpha and 2.5; the cases alpha > 1 add pole residues to both.
        z = -np.geomspace(1e-3, 1e3, 129)
        for beta in (1.0, alpha, 2.5):
            half = _contour(alpha, beta, z)
            with monkeypatch.context() as m:
                m.setattr(mittag_leffler, "_trapezoid", full_trapezoid)
                full = _contour(alpha, beta, z)
            assert np.max(np.abs(half - full)) <= 2e-15, beta

    @pytest.mark.parametrize("alpha, beta",
                             [(0.3, 1.0), (0.6, 1.0), (0.97, 1.0), (0.6, 2.5), (1.5, 1.0)])
    def test_far_arguments_keep_their_relative_accuracy(self, alpha, beta):
        # The sum is scaled from -Z_FAR, where squaring z would overflow.
        z = -np.array([1e100, Z_FAR, 1e160, 1e200, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _contour(alpha, beta, z)
        # E_(alpha,beta)(z) ~ -1 / (z Gamma(beta - alpha)) as z -> -inf
        assert np.allclose(got * -z * math.gamma(beta - alpha), 1.0, rtol=1e-13, atol=0)

    def test_beta_against_series(self):
        for alpha in (0.5, 0.8, 1.0):
            for beta in (0.5, 1.5, 2.0, 3.0, 6.0):
                for z in (-8.0, -1.0, -0.1):
                    assert abs(ml(alpha, beta, z) - ml_series_mp(alpha, beta, z)) <= 1e-12


class TestAsymptotics:
    def test_algebraic_plateau(self):
        # t^alpha E_alpha(-gamma t^alpha) -> 1/(gamma Gamma(1-alpha))
        alpha, rate = 0.4, 2.0
        limit = 0.3357524862210367  # 1/(2 Gamma(0.6))
        t = 1.0e8
        val = t**alpha * ml_decay(alpha, rate, t)
        assert val == pytest.approx(limit, rel=1e-3)

    def test_monotone_decay_profile(self):
        for alpha in (0.3, 0.5, 0.8):
            vals = [ml_decay(alpha, 1.0, t) for t in np.linspace(0.0, 80.0, 400)]
            assert vals[0] == 1.0
            assert all(v > 0.0 for v in vals)
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-14)

    def test_monotone_in_argument(self):
        for alpha in (0.25, 0.5, 0.75):
            zs = np.linspace(-60.0, 0.0, 240)
            vals = [ml(alpha, 1.0, float(z)) for z in zs]
            assert np.all(np.diff(vals) > 0.0)

    def test_regime_boundaries_are_continuous(self):
        # values on both sides of each edge must agree; z = 0 switches from
        # the contour to the series
        for alpha in (0.3, 0.5, 0.9):
            z_big = max(10.0, 10.0 * 5.0**alpha)
            edges = [(-(e * (1.0 + 1e-9)), -(e * (1.0 - 1e-9))) for e in (5.0, z_big)]
            for lo, hi in edges + [(-1e-9, 1e-9)]:
                assert ml(alpha, 1.0, lo) == pytest.approx(ml(alpha, 1.0, hi), rel=1e-7)


class TestValidation:
    def test_alpha_domain(self):
        with pytest.raises(MLDomainError):
            MLQuery(0.0, 1.0, 1.0)
        with pytest.raises(MLDomainError):
            MLQuery(2.5, 1.0, 1.0)
        with pytest.raises(MLDomainError):
            MLQuery(-0.5, 1.0, 1.0)

    def test_beta_domain(self):
        with pytest.raises(MLDomainError):
            MLQuery(0.5, 0.0, 1.0)
        with pytest.raises(MLDomainError):
            MLQuery(0.5, -1.0, 1.0)
        with pytest.raises(MLDomainError):
            MLQuery(0.5, math.inf, -1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 200.0), (0.5, 1e300), (0.5, 1e308), (1.5, 1e3)])
    def test_contour_out_of_range_for_large_beta(self, alpha, beta):
        with pytest.raises(MLConvergenceError):
            ml(alpha, beta, -1.0)

    def test_series_vanishes_for_huge_beta(self):
        assert ml(0.5, 1e306, 1.0) == 0.0

    def test_nonfinite_argument(self):
        with pytest.raises(MLDomainError):
            MLQuery(0.5, 1.0, math.nan)
        with pytest.raises(MLDomainError):
            MLQuery(0.5, 1.0, math.inf)

    def test_overflow_reported_for_huge_results(self):
        # E_0.1(5) ~ exp(5^10) does not fit in a double
        with pytest.raises(MLOverflowError):
            ml(0.1, 1.0, 5.0)

    def test_overflow_of_the_sum_when_every_term_fits(self):
        # Near z = 26.6 every term of E_0.5 fits in a double (the largest is
        # ~1e306), but their sum leaves the double range just above it.
        assert 3.8e307 < ml(0.5, 1.0, 26.6) < 4.0e307
        with pytest.raises(MLOverflowError):
            ml(0.5, 1.0, 26.64)

    def test_ml_decay_domains(self):
        with pytest.raises(MLDomainError):
            ml_decay(1.0, 1.0, 1.0)
        with pytest.raises(MLDomainError):
            ml_decay(0.5, 0.0, 1.0)
        with pytest.raises(MLDomainError):
            ml_decay(0.5, 1.0, -1.0)

    def test_query_object_evaluates(self):
        q = MLQuery(0.5, 1.0, -1.0)
        assert ml_eval(q) == ml(0.5, 1.0, -1.0)

    def test_convergence_error_is_exported(self):
        assert issubclass(MLConvergenceError, RuntimeError)
