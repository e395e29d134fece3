"""Special-function kernel tests.

Expected values are frozen from independent oracles: mpmath at 30
digits for erfc/K_nu/Q, and closed forms where they exist.  K_nu itself
comes from scipy.special.kv where a test needs it at many points.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from mrrlink.errors import InvalidOrderError
from mrrlink.specfun import (
    MeijerGSpec,
    log_erfc,
    meijer_g,
    meijer_g_sum,
    q_function,
)

# mpmath 30-dps oracle values
Q_AT_1 = 0.15865525393145705
ERFC_AT_1 = 0.15729920705028513
LOG_ERFC_AT_30 = -903.97411711064386
K1_AT_2 = 0.13986588181652243
K_HALF_AT_1 = 0.46106850444789456


def mpmath_meijer(spec: MeijerGSpec, z: float) -> float:
    """The same G-function from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.meijerg([spec.a_params[:spec.n], spec.a_params[spec.n:]],
                                    [spec.b_params[:spec.m], spec.b_params[spec.m:]], z))


class TestQFunction:
    def test_symmetry_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_underflows_gracefully(self):
        assert q_function(40.0) < 1e-300

    def test_oracle_value(self):
        assert q_function(1.0) == pytest.approx(Q_AT_1, rel=1e-13)

    @given(st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_complement(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)


class TestErf:
    """log_erfc, the erfc kernel of the weak BER series (two branches at 0)."""

    def test_erf_odd_at_zero(self):
        # erf(0) = 0 from either side: both branches give log erfc = 0
        assert log_erfc(0.0) == 0.0
        assert log_erfc(-1e-300) == pytest.approx(0.0, abs=1e-15)

    def test_erfc_at_zero(self):
        assert math.exp(log_erfc(0.0)) == 1.0

    def test_erfc_oracle(self):
        assert math.exp(log_erfc(1.0)) == pytest.approx(ERFC_AT_1, rel=1e-13)
        # erfc(30) underflows; its logarithm does not
        assert log_erfc(30.0) == pytest.approx(LOG_ERFC_AT_30, rel=1e-13)

    @given(st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_sum_identity(self, x):
        # erf odd <=> erfc(x) + erfc(-x) = 2
        assert math.exp(log_erfc(x)) + math.exp(log_erfc(-x)) == pytest.approx(2.0, abs=1e-12)


def bessel_g(nu, x):
    """2 K_nu(x) from the Meijer-G evaluator: G^{2,0}_{0,2}(x^2/4 | nu/2, -nu/2)."""
    return meijer_g(MeijerGSpec(2, 0, (), (nu / 2, -nu / 2)), x * x / 4)


class TestBesselK:
    """The Bessel-K case of the Meijer-G evaluator."""

    def test_half_order_closed_form(self):
        assert bessel_g(0.5, 1.0) == pytest.approx(2 * math.sqrt(math.pi / 2) / math.e, rel=1e-10)
        assert bessel_g(0.5, 1.0) == pytest.approx(2 * K_HALF_AT_1, rel=1e-10)

    def test_oracle_value(self):
        assert bessel_g(1.0, 2.0) == pytest.approx(2 * K1_AT_2, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.3])
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.0, 20.0])
    def test_even_in_order(self, nu, x):
        assert bessel_g(-nu, x) == pytest.approx(2 * sp.kv(nu, x), rel=1e-8)

    def test_decreasing_in_x(self):
        vals = [bessel_g(1.3, x) for x in np.linspace(0.2, 10, 40)]
        assert np.all(np.diff(vals) < 0)

    def test_domain_error(self):
        spec = MeijerGSpec(2, 0, (), (0.5, -0.5))
        with pytest.raises(ValueError):
            meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, -2.0)


def _series_bessel_k(nu, x, terms=60):
    """Independent oracle: K_nu from the ascending I_nu series, nu non-integer."""
    from scipy.special import gamma as G

    def besseli(v, z):
        return sum((z / 2) ** (2 * k + v) / (math.factorial(k) * G(v + k + 1))
                   for k in range(terms))

    return math.pi / 2 * (besseli(-nu, x) - besseli(nu, x)) / math.sin(math.pi * nu)


def test_bessel_series_oracle():
    for nu in (0.3, 0.5, 1.4):
        for x in (0.5, 2.0, 5.0):
            assert bessel_g(nu, x) == pytest.approx(2 * _series_bessel_k(nu, x), rel=1e-8)


class TestMeijerG:
    @pytest.mark.parametrize("lo,hi,p,s", [
        (1.0, 3.0, 1, 0.5),
        (1.0, 1.0 + 1e-6, 1, 2.0),
        (0.5, 2.0, 2, 1.5),
        (2.0, 2.0 + 1e-9, 2, 0.3),
    ])
    def test_interval_term_is_pole_cancelled_difference(self, lo, hi, p, s):
        # G^{1,0}_{0,1}(z|0) = e^{-z}; with b = 0 and a = 1 added it is
        # E1(z), so Delta <e^{-x^p s}> = E1(lo^p s) - E1(hi^p s)
        spec = MeijerGSpec(1, 0, (), (0.0,))
        got = meijer_g_sum(spec, (p * math.log(hi / lo),), (lo,), (hi,), p, s)
        with mpmath.workdps(40):
            want = float(mpmath.e1(mpmath.mpf(lo) ** p * s) - mpmath.e1(mpmath.mpf(hi) ** p * s))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_exponential_identity(self):
        spec = MeijerGSpec(1, 0, (), (0.0,))
        assert meijer_g(spec, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10, abs=0)
        for z in np.geomspace(1e-3, 400, 14):
            assert meijer_g(spec, float(z)) == pytest.approx(math.exp(-z), rel=1e-8, abs=0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.3])
    def test_bessel_identity(self, nu):
        spec = MeijerGSpec(2, 0, (), (nu / 2, -nu / 2))
        for x in np.geomspace(0.1, 20, 9):
            want = 2.0 * sp.kv(nu, float(x))
            assert meijer_g(spec, float(x * x / 4)) == pytest.approx(want, rel=1e-8, abs=0)

    def test_bessel_identity_example(self):
        spec = MeijerGSpec(2, 0, (), (0.5, -0.5))
        assert meijer_g(spec, 1.0) == pytest.approx(2 * K1_AT_2, rel=1e-10, abs=0)

    def test_q_identity(self):
        spec = MeijerGSpec(2, 0, (1.0,), (0.0, 0.5))
        assert meijer_g(spec, 0.5) == pytest.approx(2 * math.sqrt(math.pi) * Q_AT_1,
                                                    rel=1e-10, abs=0)
        for x in np.geomspace(0.05, 20, 11):  # z = x^2/2 up to 200
            want = 2 * math.sqrt(math.pi) * float(q_function(x))
            assert meijer_g(spec, float(x * x / 2)) == pytest.approx(want, rel=1e-8, abs=0)

    def test_repeated_parameters_against_mpmath(self):
        # strong-turbulence channel kernel: alpha-1 and beta-1 each appear twice
        alpha, beta, K = 4.1, 2.0, 16.0
        spec = MeijerGSpec(6, 0, (K, 1.0),
                           (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1))
        for z in (0.5, 5.0, 80.0):
            assert meijer_g(spec, z) == pytest.approx(mpmath_meijer(spec, z), rel=1e-10, abs=0)

    def test_cdf_kernel_integral_relation(self):
        # h G^{6,1}_{3,7}(h) must equal the integral of G^{6,0}_{2,6} up to h
        from scipy.integrate import quad

        alpha, beta, K = 4.557, 2.536, 19.75
        pdf = MeijerGSpec(6, 0, (K, 1.0),
                          (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1))
        cdf = MeijerGSpec(6, 1, (0.0, K, 1.0),
                          (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1, -1.0))
        for h in (0.3, 2.0, 30.0):
            want, _ = quad(lambda x: meijer_g(pdf, x), 0, h, limit=300)
            got = h * meijer_g(cdf, h)
            assert got == pytest.approx(want, rel=1e-7, abs=0)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(2, 0, (), (0.0,))          # m > q
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(0, 2, (0.0,), (1.0,))      # n > p
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(1, 1, (2.0,), (0.0,))      # a - b = 2: coincident poles

    def test_domain(self):
        spec = MeijerGSpec(1, 0, (), (0.0,))
        with pytest.raises(ValueError):
            meijer_g(spec, 0.0)
        with pytest.raises(ValueError):
            meijer_g(spec, -1.0)


def test_non_decaying_contour_rejected():
    from mrrlink.errors import NonConvergentError

    # m + n <= (p + q)/2: the vertical-contour integrand does not decay
    spec = MeijerGSpec(0, 1, (0.5,), (0.0,))
    with pytest.raises(NonConvergentError):
        meijer_g(spec, 2.0)


def test_rounding_level_total_refused():
    from mrrlink.errors import NonConvergentError

    # e^{-400} on the bucket-centre contour: the normalised total (-1.1e-13)
    # is below its own error estimate's tolerance, not a value
    with pytest.raises(NonConvergentError):
        meijer_g_sum(MeijerGSpec(1, 0, (), (0.0,)), (1,), (1,), (1,), 1, 400.0)
