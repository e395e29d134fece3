"""Strong-turbulence closed-form statistics tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mrrlink.channel import LinkConfig, SquareLawModel, turbulence_stats
from mrrlink.errors import NonPositiveBreakpointError, RegimeMismatchError
from mrrlink.mrr import SectorModel, sector_table
from mrrlink.specfun import q_function
from mrrlink.strong import (
    ber_strong,
    cdf_h_strong,
    cdf_h_strong_simple,
    pdf_h_strong,
    pdf_h_strong_simple,
    strong_constants,
)

DEG = math.pi / 180.0


def make_constants(sigma_o_deg=6.0, P_t=0.1, sigma_e=100e-6, theta_div=0.4e-3,
                   Z=1000.0, cn2=5e-14, A_r=1e-4):
    cfg = LinkConfig(Z=Z, theta_div=theta_div, sigma_theta_e=sigma_e,
                     sigma_theta_o=sigma_o_deg * DEG, cn2_0=cn2, P_t=P_t, A_r=A_r)
    stats = turbulence_stats(cfg, regime="strong")
    sectors = sector_table(cfg.sigma_theta_o)
    return strong_constants(cfg, stats, sectors), cfg


@pytest.fixture(scope="module")
def k6():
    return make_constants(6.0)[0]


def _h_support(k):
    h_top = k.sectors.V[-1] * 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2)
    return h_top


class TestConstants:
    def test_breakpoint_ratio(self, k6):
        # Bn''/Bn' = V_{n+1}/V_n sector by sector: the ratio of the ends of
        # each scale-free interval [1/V_{n+1}, 1/V_n]
        from mrrlink.strong import _terms

        want = k6.sectors.V[1:] / k6.sectors.V[:-1]
        _, lo, hi = _terms(k6.sectors, 1)
        assert np.allclose(hi / lo, want, rtol=1e-12)

    def test_cross_checked_arithmetic(self, k6):
        from scipy.special import gammaln

        a, b, K = k6.alpha, k6.beta, k6.K
        scale = math.pi * k6.w_z ** 2 * a ** 2 * b ** 2 / (2 * k6.A_r * k6.h_c)
        B_s = K * scale / math.exp(2 * (gammaln(a) + gammaln(b)))
        assert k6.B_s == pytest.approx(B_s, rel=1e-12)
        assert k6.scale == pytest.approx(scale, rel=1e-12)

    def test_regime_mismatch(self):
        cfg = LinkConfig(cn2_0=5e-15, sigma_theta_o=6 * DEG)
        stats = turbulence_stats(cfg)
        with pytest.raises(RegimeMismatchError):
            strong_constants(cfg, stats, sector_table(cfg.sigma_theta_o))

    def test_low_mean_rejected(self):
        cfg = LinkConfig(cn2_0=5e-14, sigma_theta_o=6 * DEG)
        stats = turbulence_stats(cfg, regime="strong")
        bad = SectorModel(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(NonPositiveBreakpointError):
            strong_constants(cfg, stats, bad)


class TestChannelDensity:
    def test_normalization(self, k6):
        top = _h_support(k6)
        val, _ = quad(lambda y: pdf_h_strong(math.exp(y), k6) * math.exp(y),
                      math.log(top * 1e-7), math.log(top * 30), limit=120)
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_nonnegative_on_log_grid(self, k6):
        top = _h_support(k6)
        hs = np.geomspace(top * 1e-5, top * 5, 60)
        vals = pdf_h_strong(hs, k6)
        assert np.all(vals >= -1e-10)

    def test_cdf_limits(self, k6):
        top = _h_support(k6)
        assert cdf_h_strong(top * 1e-9, k6) == pytest.approx(0.0, abs=1e-6)
        assert cdf_h_strong(top * 50, k6) == pytest.approx(1.0, abs=5e-3)

    def test_cdf_is_integral_of_pdf(self, k6):
        top = _h_support(k6)
        for h in np.geomspace(top * 0.01, top * 2, 8):
            want, _ = quad(lambda y: pdf_h_strong(math.exp(y), k6) * math.exp(y),
                           math.log(top * 1e-7), math.log(h), limit=80)
            assert cdf_h_strong(h, k6) == pytest.approx(want, abs=1e-4)

    def test_cdf_monotone(self, k6):
        top = _h_support(k6)
        vals = cdf_h_strong(np.geomspace(top * 1e-4, top * 10, 40), k6)
        assert np.all(np.diff(vals) >= -1e-9)


class TestSnrStatistics:
    def test_substitution_identity(self, k6):
        for g in np.geomspace(1e-2, 1e5, 10):
            want = cdf_h_strong(math.sqrt(g / k6.upsilon_1), k6)
            assert k6.cdf_snr(g) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_pdf_cdf_consistency(self, k6):
        for g in np.geomspace(1.0, 1e4, 6):
            dg = g * 2e-4
            fd = (k6.cdf_snr(g + dg) - k6.cdf_snr(g - dg)) / (2 * dg)
            assert k6.pdf_snr(g) == pytest.approx(fd, rel=1e-3, abs=1e-12)


class TestSimplifiedForms:
    def test_single_sector_limit(self):
        # with one sector squeezed against 1, the sector sum converges to
        # the simplified (reflection -> 1) forms
        cfg = LinkConfig(cn2_0=5e-14, sigma_theta_o=1 * DEG)
        stats = turbulence_stats(cfg, regime="strong")
        delta = 1e-3
        sectors = SectorModel(np.array([1.0 - delta, 1.0]), np.array([1.0 / delta]))
        k = strong_constants(cfg, stats, sectors)
        top = _h_support(k)
        for h in np.geomspace(top * 0.05, top * 0.9, 6):
            full = pdf_h_strong(h, k)
            simple = pdf_h_strong_simple(h, k)
            assert full == pytest.approx(simple, rel=0.01)

    def test_simple_cdf_normalizes(self):
        k, _ = make_constants(1.0)
        top = _h_support(k)
        assert cdf_h_strong_simple(top * 50, k) == pytest.approx(1.0, abs=5e-3)
        val, _ = quad(lambda y: pdf_h_strong_simple(math.exp(y), k) * math.exp(y),
                      math.log(top * 1e-7), math.log(top * 30), limit=100)
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_snr_simple_substitution(self):
        # the square-law map carries the simplified forms like any model's
        k, _ = make_constants(1.0)

        class Simple(SquareLawModel):
            upsilon_1 = k.upsilon_1

            def pdf_h(self, h):
                return pdf_h_strong_simple(h, k)

            def cdf_h(self, h):
                return cdf_h_strong_simple(h, k)

        simple = Simple()
        for g in np.geomspace(1.0, 1e4, 5):
            want = cdf_h_strong_simple(math.sqrt(g / k.upsilon_1), k)
            assert simple.cdf_snr(g) == pytest.approx(want, rel=1e-10, abs=1e-300)
        g = 100.0
        dg = g * 2e-4
        fd = (simple.cdf_snr(g + dg) - simple.cdf_snr(g - dg)) / (2 * dg)
        assert simple.pdf_snr(g) == pytest.approx(fd, rel=1e-3)


class TestOutage:
    def test_zero_threshold(self, k6):
        assert k6.outage(0.0) == 0.0

    def test_increases_with_turbulence(self):
        outs = []
        for cn2 in (1e-14, 5e-14, 1e-13):
            k, cfg = make_constants(6.0, cn2=cn2, P_t=0.3)
            outs.append(k.outage(cfg.gamma_th))
        assert outs[0] < outs[1] < outs[2]

    def test_decreases_with_aperture(self):
        outs = []
        for ar in (0.5e-4, 1e-4, 2e-4, 4e-4):
            k, cfg = make_constants(6.0, A_r=ar, P_t=0.3)
            outs.append(k.outage(cfg.gamma_th))
        assert all(b < a for a, b in zip(outs, outs[1:]))


def _ber_oracle_strong(k) -> float:
    """Quadrature of Q(sqrt(upsilon_1) h) against a dense density grid."""
    top = _h_support(k)
    h = np.exp(np.linspace(math.log(top * 3e-6), math.log(top * 30), 500))
    f = pdf_h_strong(h, k)
    return float(np.trapezoid(q_function(np.sqrt(k.upsilon_1) * h) * f, h))


class TestBer:
    def test_matches_quadrature(self):
        for p_dbm in (10.0, 20.0, 30.0):
            k, _ = make_constants(6.0, P_t=10 ** (p_dbm / 10) / 1000)
            got = ber_strong(k)
            want = _ber_oracle_strong(k)
            assert got == pytest.approx(want, rel=0.10), f"at {p_dbm} dBm"
        assert got == pytest.approx(want, rel=0.01)  # far tighter in practice

    def test_range_and_monotonicity(self):
        vals = []
        for p_dbm in np.linspace(0, 30, 6):
            k, _ = make_constants(6.0, P_t=10 ** (p_dbm / 10) / 1000)
            v = ber_strong(k)
            assert 0.0 < v <= 0.5
            vals.append(v)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_closed_form_tagged(self, k6):
        _, method = ber_strong(k6, with_method=True)
        assert method == "closed-form"


class TestSectorRefinement:
    def test_l1_across_jitter_grid_and_n16_refinement(self):
        # sector-sum density tracks the simulated channel across the
        # jitter range; doubling the sector count never worsens the fit
        from mrrlink.montecarlo import SimPlan, draw_channel
        from mrrlink.mrr import fit_sector_model, sample_hmrr

        def l1_for(deg, n_sectors, n_mc=400_000):
            cfg = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=90e-6,
                             sigma_theta_o=deg * DEG, cn2_0=5e-14)
            stats = turbulence_stats(cfg, regime="strong")
            hm = sample_hmrr(cfg.sigma_theta_o, 1_000_000, seed=int(deg))
            k = strong_constants(cfg, stats, fit_sector_model(hm, n_sectors))
            h = draw_channel(SimPlan(cfg, n_samples=n_mc, seed=int(100 + deg),
                                     stats=stats))
            edges = np.linspace(0.0, float(h.max()) * 1.001, 61)
            counts, _ = np.histogram(h, bins=edges)
            emp = counts / len(h) / np.diff(edges)
            F = np.asarray(cdf_h_strong(edges, k))
            F[0] = 0.0
            ana = np.diff(F) / np.diff(edges)
            return float(np.sum(np.abs(emp - ana) * np.diff(edges)) + max(0.0, 1 - F[-1]))

        l1_8 = {deg: l1_for(deg, 8) for deg in (1.0, 6.0, 11.0)}
        assert all(v <= 0.07 for v in l1_8.values()), l1_8
        l1_16 = l1_for(6.0, 16)
        # refinement: more sectors cannot fit worse (MC noise allowance)
        assert l1_16 <= l1_8[6.0] + 0.01


class TestEqualShapeParameters:
    def test_alpha_equals_beta_collapses_pairwise(self):
        # equal Gamma-Gamma shapes make four kernel parameters coincide;
        # the contour path must still agree with mpmath at 30 digits
        import mpmath

        from mrrlink.specfun import MeijerGSpec, meijer_g

        a = b = 3.0
        K = 16.0
        spec = MeijerGSpec(6, 0, (K, 1.0), (0.0, a - 1, b - 1, K - 1, a - 1, b - 1))
        for z in (0.3, 4.0, 60.0):
            with mpmath.workdps(30):
                want = float(mpmath.meijerg([[], list(spec.a_params)],
                                            [list(spec.b_params), []], z))
            assert meijer_g(spec, z) == pytest.approx(want, rel=1e-10)


class TestFallback:
    def test_ber_falls_back_when_contour_fails(self, k6, monkeypatch):
        import mrrlink.strong as strong_mod
        from mrrlink.specfun import meijer_g_sum as real

        def boom(spec, weights, lo, hi, p, s, pole=None):
            if spec.m == 8:  # only the error-rate kernel fails; densities stay up
                return np.full(np.shape(s), np.nan), {0: "forced"}
            return real(spec, weights, lo, hi, p, s, pole=pole)

        monkeypatch.setattr(strong_mod, "meijer_g_sum", boom)
        val, method = ber_strong(k6, with_method=True)
        assert method == "quadrature-fallback"
        assert 0.0 < val <= 0.5
