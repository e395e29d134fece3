"""Weak-turbulence closed-form statistics tests.

The quadrature oracles here are written against the density expressions
directly (log-substituted integrands), independent of the closed-form
code paths they check.  The Gauss-Hermite fallback is checked against
30-digit mpmath quadrature of the same pointing-averaged integral.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from mrrlink.channel import LinkConfig, turbulence_stats
from mrrlink.errors import DegenerateDistributionError, RegimeMismatchError
from mrrlink.mrr import mrr_moments
from mrrlink.specfun import q_function
from mrrlink.weak import (
    _ber_weak_gauss_hermite,
    ber_weak,
    cdf_h_weak,
    pdf_h_weak,
    weak_constants,
)
from oracles import ber_weak_quadrature

DEG = math.pi / 180.0


def make_constants(sigma_o_deg=2.0, P_t=0.1, sigma_e=100e-6, theta_div=0.4e-3,
                   Z=1000.0, cn2=5e-15):
    cfg = LinkConfig(Z=Z, theta_div=theta_div, sigma_theta_e=sigma_e,
                     sigma_theta_o=sigma_o_deg * DEG, cn2_0=cn2, P_t=P_t)
    stats = turbulence_stats(cfg)
    return weak_constants(cfg, mrr_moments(cfg.sigma_theta_o), stats), cfg


@pytest.fixture(scope="module")
def k2():
    return make_constants(2.0)[0]


class TestConstants:
    def test_pointing_exponent(self):
        k, _ = make_constants(theta_div=0.4e-3, Z=1000.0, sigma_e=100e-6)
        assert k.K == pytest.approx(16.0, rel=1e-12)

    def test_degenerate_flagged(self):
        cfg = LinkConfig(sigma_theta_o=0.0, cn2_0=5e-15)
        stats = turbulence_stats(cfg)
        zero_spread = type(stats)(0.0, 0.0, stats.alpha, stats.beta, stats.regime)
        with pytest.raises(DegenerateDistributionError):
            weak_constants(cfg, (1.0, 0.0), zero_spread)

    def test_regime_mismatch(self):
        cfg = LinkConfig(cn2_0=1e-13)
        stats = turbulence_stats(cfg)
        with pytest.raises(RegimeMismatchError):
            weak_constants(cfg, (0.9, 0.05), stats)

    def test_cross_checked_arithmetic(self):
        # spreadsheet-style recomputation from first principles
        cfg = LinkConfig(theta_div=0.4e-3, Z=1000.0, sigma_theta_e=100e-6,
                         sigma_theta_o=2 * DEG, cn2_0=5e-15)
        stats = turbulence_stats(cfg)
        k = weak_constants(cfg, mrr_moments(cfg.sigma_theta_o), stats)
        mu, sd = 0.93, 0.035
        sL2 = stats.sigma_R2 / 4.0
        C1 = math.log(1 + sd ** 2 / mu ** 2) + 8 * sL2
        C2 = math.log(math.sqrt(mu ** 2 + sd ** 2) / mu ** 2) + 4 * sL2
        h_c = 0.7 * 0.7 * (2 * 0.08 ** 2 / (1000.0 ** 2 * (0.4e-3) ** 2))
        C3 = math.pi * 0.4 ** 2 / (2 * 1e-4 * h_c)
        assert k.C1 == pytest.approx(C1, rel=1e-12)
        assert k.C2 == pytest.approx(C2, rel=1e-12)
        assert k.C3 == pytest.approx(C3, rel=1e-12)
        assert k.C5 == pytest.approx(math.log(C3) + C1 * 16 + C2, rel=1e-12)


class TestChannelDensity:
    def test_nonnegative_and_vanishing(self, k2):
        hs = np.geomspace(1e-9, 1.0, 200)
        vals = pdf_h_weak(hs, k2)
        assert np.all(vals >= 0)
        assert pdf_h_weak(1.0, k2) < 1e-12

    def test_normalization(self, k2):
        # integrate over ln h to keep the power-law head resolved
        val, _ = quad(lambda y: pdf_h_weak(math.exp(y), k2) * math.exp(y),
                      -40.0, 0.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_cdf_limits(self, k2):
        assert cdf_h_weak(1e-30, k2) == pytest.approx(0.0, abs=1e-12)
        assert cdf_h_weak(10.0, k2) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_is_integral_of_pdf(self, k2):
        for h in np.geomspace(3e-6, 3e-4, 20):
            want, _ = quad(lambda y: pdf_h_weak(math.exp(y), k2) * math.exp(y),
                           -40.0, math.log(h), limit=400)
            assert cdf_h_weak(h, k2) == pytest.approx(want, abs=1e-6)

    def test_cdf_monotone(self, k2):
        hs = np.geomspace(1e-8, 1e-2, 1000)
        vals = cdf_h_weak(hs, k2)
        assert np.all(np.diff(vals) >= -1e-12)


def _mp_cdf(k, h):
    """40-digit mpmath of the CDF's closed form, (C4/K) e^{-K C5} [e^{K(ln h
    + C5)} Q((ln h + C5)/sqrt(C1)) + e^{K^2 C1/2} Q((K C1 - ln h - C5)/
    sqrt(C1))], with C4 and C5 derived from k's C1, C2, C3 and K."""
    with mpmath.workdps(40):
        C1, C2, C3, K = (mpmath.mpf(v) for v in (k.C1, k.C2, k.C3, k.K))
        log_C4 = mpmath.log(K) + K * mpmath.log(C3) + (C1 * K ** 2 + 2 * K * C2) / 2
        C5 = mpmath.log(C3) + C1 * K + C2
        lh, sq = mpmath.log(mpmath.mpf(h)), mpmath.sqrt(C1)

        def q(x):
            return mpmath.erfc(x / mpmath.sqrt(2)) / 2

        return (mpmath.exp(log_C4 - mpmath.log(K) - K * C5)
                * (mpmath.exp(K * (lh + C5)) * q((lh + C5) / sq)
                   + mpmath.exp(K ** 2 * C1 / 2) * q((K * C1 - lh - C5) / sq)))


class TestCdfAgainstMpmath:
    """The prefactor of the CDF's second Q term is exactly 1; formed from
    log_C4 and C5 (about 210 for fig7, 4.4e6 at K = 3500) it carried their
    rounding, 4e-14 relative at fig7 and a 1.9e-9 shortfall at saturation."""

    @pytest.mark.parametrize("deg", [2.0, 8.0])
    def test_fig7_abscissae(self, deg):
        from mrrlink.experiments import _constants_for
        from mrrlink.recipes import build_recipe

        spec = next(s for s in build_recipe("fig7") if s.label == f"sigma_o={deg:g}deg")
        k, _ = _constants_for(spec.base, spec.regime)
        for h in (1e-5, 2.745e-5, 1e-4):
            want = _mp_cdf(k, h)
            assert abs(cdf_h_weak(h, k) - want) <= 1e-14 * want, (h, float(want))

    def test_saturates_at_one_at_large_k(self):
        # link 14 of test_analytic_invariants: K = 3500.85, log_C4 = 4.4e6
        cfg = LinkConfig(Z=2113.31239516587, theta_div=0.0016456256558922508,
                         sigma_theta_e=2.781275912266677e-05,
                         sigma_theta_o=0.17702488161967464, cn2_0=3.844839612497749e-15)
        k = weak_constants(cfg, mrr_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
        assert k.K == pytest.approx(3500.854, rel=1e-6)
        assert cdf_h_weak(1e6, k) == 1.0
        assert cdf_h_weak(1e2, k) == 1.0


class TestSnrStatistics:
    def test_change_of_variables_identity(self, k2):
        for g in np.geomspace(1e-4, 1e4, 25):
            want = cdf_h_weak(math.sqrt(g / k2.upsilon_1), k2)
            assert k2.cdf_snr(g) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_pdf_normalization(self, k2):
        val, _ = quad(lambda y: k2.pdf_snr(math.exp(y)) * math.exp(y),
                      -60.0, math.log(k2.upsilon_1), limit=500)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_pdf_is_cdf_derivative(self, k2):
        for g in np.geomspace(1e-3, 1e3, 12):
            dg = g * 1e-5
            fd = (k2.cdf_snr(g + dg) - k2.cdf_snr(g - dg)) / (2 * dg)
            assert k2.pdf_snr(g) == pytest.approx(fd, rel=1e-5, abs=1e-14)


class TestOutage:
    def test_zero_threshold(self, k2):
        assert k2.outage(0.0) == 0.0

    def test_decreasing_in_power(self):
        outs = []
        for p_dbm in np.linspace(0, 30, 7):
            k, cfg = make_constants(2.0, P_t=10 ** (p_dbm / 10) / 1000)
            outs.append(k.outage(cfg.gamma_th))
        assert all(b < a for a, b in zip(outs, outs[1:]))

    def test_matches_cdf(self, k2):
        gth = 10 ** 0.5
        assert k2.outage(gth) == k2.cdf_snr(gth)


def _ber_oracle(k) -> float:
    """Independent quadrature of the OOK error integral E[Q(sqrt(SNR))]."""
    ln_knee = math.log(k.upsilon_1) - 2.0 * k.C5

    def f(y):
        g = math.exp(y)
        return float(q_function(math.sqrt(g))) * float(k.pdf_snr(g)) * g

    total = 0.0
    cuts = [-90.0, -30.0, -5.0, math.log(40.0), max(math.log(80.0), ln_knee + 12.0)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, _ = quad(f, a, b, epsabs=1e-300, epsrel=1e-11, limit=600)
        total += v
    return total


class TestBer:
    def test_range(self, k2):
        assert 0.0 < ber_weak(k2) <= 0.5

    def test_converged_series_matches_quadrature(self):
        # with the truncation opened up, the closed form is exact
        for p_dbm in (0.0, 10.0, 20.0, 30.0):
            k, _ = make_constants(2.0, P_t=10 ** (p_dbm / 10) / 1000, theta_div=0.3e-3)
            got = ber_weak(k, M=60, gamma_max=40.0)
            want = _ber_oracle(k)
            assert got == pytest.approx(want, rel=5e-3), f"at {p_dbm} dBm"

    def test_stated_truncation_matches_at_low_snr(self):
        # at low power the integral mass sits below gamma_max = 4 and the
        # stated defaults agree with quadrature
        k, _ = make_constants(2.0, P_t=1e-3, theta_div=0.3e-3)
        assert ber_weak(k, M=20, gamma_max=4.0) == pytest.approx(_ber_oracle(k), rel=0.05)

    def test_stated_truncation_drops_tail_at_high_snr(self):
        # documented limitation: the (20, 4) truncation discards the
        # gamma > 4 contribution, which dominates at high SNR
        k, _ = make_constants(2.0, P_t=1.0, theta_div=0.3e-3)
        assert ber_weak(k, M=20, gamma_max=4.0) < 0.7 * _ber_oracle(k)

    def test_monotone_decreasing_in_power(self):
        vals = [ber_weak(make_constants(2.0, P_t=10 ** (p / 10) / 1000)[0],
                         M=60, gamma_max=40.0)
                for p in np.linspace(0, 30, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_tracking_jitter(self):
        vals = [ber_weak(make_constants(2.0, sigma_e=se)[0], M=60, gamma_max=40.0)
                for se in (50e-6, 100e-6, 200e-6, 400e-6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fallback_tags_result(self, k2, monkeypatch):
        import mrrlink.weak as weak_mod
        monkeypatch.setattr(weak_mod, "_MAX_LOG", float("-inf"))
        val, method = ber_weak(k2, with_method=True)
        assert method == "gauss-hermite-fallback"
        assert val == pytest.approx(_ber_oracle(k2), rel=1e-12)   # measured 2.4e-14

    def test_extreme_pointing_exponent_falls_back_cleanly(self):
        # K = 64: the constants' linear-domain prefactor overflows; at
        # 20 dBm the log-space series still holds and must deliver the
        # right answer (the 40 dBm fallback: TestGaussHermiteFallback)
        k, _ = make_constants(2.0, sigma_e=50e-6)
        assert k.K == pytest.approx(64.0)
        val, method = ber_weak(k, M=60, gamma_max=40.0, with_method=True)
        assert val == pytest.approx(_ber_oracle(k), rel=1e-3)

    def test_series_tagged_normally(self, k2):
        _, method = ber_weak(k2, with_method=True)
        assert method == "series"


def _ber_mpmath(k) -> float:
    """30-digit mpmath.quad of E_Y[g(b)], the pointing-averaged error
    probability g(b) = Q(b) + 2^{K/2-1} b^{-K} gamma((K+1)/2, b^2/2)/sqrt(pi)
    over ln b = ln sqrt(upsilon_1) - C2 - ln C3 + sqrt(C1) Z.

    mpmath's tolerance is absolute, so the integrand is divided by its
    largest panel-point value before integrating; unscaled, a 1e-28 BER
    comes out about 1e-6 off.
    """
    with mpmath.workdps(30):
        K, s = mpmath.mpf(k.K), mpmath.sqrt(mpmath.mpf(k.C1))
        lb0 = (mpmath.log(mpmath.mpf(k.upsilon_1)) / 2 - mpmath.mpf(k.C2)
               - mpmath.log(mpmath.mpf(k.C3)))

        def f(z):
            b = mpmath.exp(lb0 + s * z)
            t2 = (2 ** (K / 2 - 1) * b ** -K * mpmath.gammainc((K + 1) / 2, 0, b * b / 2)
                  / mpmath.sqrt(mpmath.pi))
            return (mpmath.erfc(b / mpmath.sqrt(2)) / 2 + t2) * mpmath.npdf(z)

        panels = mpmath.linspace(-48, 16, 33)
        peak = max(f(z) for z in panels)
        return float(mpmath.quad(lambda z: f(z) / peak, panels) * peak)


class TestGaussHermiteFallback:
    """The fallback BER, E_Y[g(b)] as a Gauss-Hermite sum."""

    # (sigma_o deg, sigma_e, theta_div, Cn2, dBm, series falls back at (60, 40))
    RECIPE_RANGE = {
        "K2.25-0dBm": (2.0, 200e-6, 0.3e-3, 5e-15, 0.0, False),
        "K9-15dBm": (6.0, 100e-6, 0.3e-3, 5e-15, 15.0, False),
        "fig11-K9-30dBm": (2.0, 100e-6, 0.3e-3, 5e-15, 30.0, True),
        "fig12-K16-30dBm": (5.0, 100e-6, 0.4e-3, 5e-15, 30.0, True),
        "K16-Cn2-1e-14-20dBm": (5.0, 100e-6, 0.4e-3, 1e-14, 20.0, False),
    }

    @pytest.mark.parametrize("case", RECIPE_RANGE.values(), ids=RECIPE_RANGE.keys())
    def test_matches_mpmath_over_recipe_range(self, case):
        so, se, td, cn2, p_dbm, falls_back = case
        k, _ = make_constants(so, P_t=10 ** (p_dbm / 10) / 1000, sigma_e=se,
                              theta_div=td, cn2=cn2)
        _, method = ber_weak(k, M=60, gamma_max=40.0, with_method=True)
        assert (method == "gauss-hermite-fallback") == falls_back
        assert _ber_weak_gauss_hermite(k) == pytest.approx(_ber_mpmath(k), rel=1e-9, abs=0)

    def test_k64_corner_no_worse_than_quadrature(self):
        # K = 64 at 40 dBm: the integrand's mode sits near z = -10, far
        # from the rule's centre; the quadrature is ~6e-6 off there
        k, _ = make_constants(1.0, P_t=10.0, sigma_e=50e-6)
        assert k.K == pytest.approx(64.0)
        val, method = ber_weak(k, M=60, gamma_max=40.0, with_method=True)
        assert method == "gauss-hermite-fallback"
        want = _ber_mpmath(k)
        assert abs(val / want - 1) <= abs(ber_weak_quadrature(k) / want - 1)
        # measured 5.9e-13; nodes left centred on z = 0 give 6e-11
        assert val == pytest.approx(want, rel=1e-11, abs=0)

    def test_fallback_never_integrates_numerically(self, monkeypatch):
        import mrrlink.weak as weak_mod

        def refuse(*args, **kw):
            raise AssertionError("scipy.integrate.quad called")

        assert not hasattr(weak_mod, "quad")
        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        k, _ = make_constants(2.0, P_t=1.0, theta_div=0.3e-3)
        val, method = ber_weak(k, M=60, gamma_max=40.0, with_method=True)
        assert method == "gauss-hermite-fallback"
        assert 0.0 < val < 1e-13
