"""Link-geometry, turbulence and loss tests.

Derived expectations are frozen from mpmath quadrature at 30 digits and
fine-grid Riemann sums (see values marked 'oracle').
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

from mrrlink import channel
from mrrlink.channel import (
    LinkConfig,
    Regime,
    SquareLawModel,
    beamwidth,
    beer_lambert,
    cn2_profile,
    geometric_loss_gs,
    gg_params,
    h_constant,
    pointing_exponent,
    pointing_loss_approx,
    rytov_variance,
    turbulence_stats,
    upsilon_1,
)
from mrrlink.errors import DegenerateGeometryError

# mpmath 30-dps oracles
CN2_AT_100 = 3.93138129767296e-15        # cn2_profile(100, 1e-14, 27)
RYTOV_TABLE_CFG = 0.10646449599051222    # lambda=1550nm Z=1000 hg=2 hu=102 cn2=5e-15 V=27
TRIANGLE_4CM2_W01 = 0.0250775128712      # fine-grid Riemann sum, d=0


def cfg(**kw) -> LinkConfig:
    return LinkConfig(**kw)


def equilateral_aperture(area: float):
    """Vertices of an equilateral triangle of given area, centroid at the
    origin, one vertex on +y."""
    side = math.sqrt(4.0 * area / math.sqrt(3.0))
    low = -side / (2.0 * math.sqrt(3.0))
    return np.array([[0.0, side / math.sqrt(3.0)], [-side / 2.0, low], [side / 2.0, low]])


def pointing_loss_exact(c: LinkConfig, d_px: float, d_py: float) -> float:
    """Oracle for the plane-wave pointing loss: the Gaussian beam power
    collected by the displaced equilateral aperture of area A_r, by 2-D
    adaptive quadrature of the beam profile over the triangle."""
    w_z = beamwidth(c)
    tri = equilateral_aperture(c.A_r)

    def x_limits(y):
        # x-extent of the (convex) triangle at height y
        xs = [x0 + (y - y0) * (x1 - x0) / (y1 - y0)
              for (x0, y0), (x1, y1) in zip(tri, np.roll(tri, -1, axis=0))
              if (y0 - y) * (y1 - y) <= 0 and y0 != y1]
        return min(xs), max(xs)

    def f(x, y):
        return 2.0 / (math.pi * w_z ** 2) * math.exp(
            -2.0 * ((x - d_px) ** 2 + (y - d_py) ** 2) / w_z ** 2)

    val, err = dblquad(f, tri[:, 1].min(), tri[:, 1].max(),
                       lambda y: x_limits(y)[0], lambda y: x_limits(y)[1],
                       epsabs=1e-10, epsrel=1e-9)
    assert err <= max(1e-8, 1e-6 * abs(val))
    return val


class UniformChannel(SquareLawModel):
    """A channel uniform on (0, 1), carried through the square-law map."""

    def __init__(self, c: LinkConfig):
        self.upsilon_1 = upsilon_1(c)

    def pdf_h(self, h):
        return np.where((h > 0) & (h < 1), 1.0, 0.0)

    def cdf_h(self, h):
        return np.clip(h, 0.0, 1.0)


class TestCn2Profile:
    def test_ground_value(self):
        # wind term vanishes at Z_h = 0 through the (1e-5 Z_h)^10 factor
        assert cn2_profile(0.0, 1e-14, 27.0) == pytest.approx(1e-14 + 2.7e-16, rel=1e-12)

    def test_decays_aloft(self):
        assert cn2_profile(1e6, 1e-14, 27.0) < 1e-60

    def test_oracle_value(self):
        assert cn2_profile(100.0, 1e-14, 27.0) == pytest.approx(CN2_AT_100, rel=1e-12)


class TestRytov:
    def test_zero_profile(self):
        # kill all three terms: cn2_0 = 0 and evaluate above the wind bump
        c = cfg(cn2_0=0.0, Z_hg=60000.0, Z_hu=60100.0)
        assert rytov_variance(c) < 1e-12

    def test_prefactor_scaling_in_Z(self):
        c1 = cfg(Z=1000.0)
        c2 = cfg(Z=2000.0)
        assert rytov_variance(c2) / rytov_variance(c1) == pytest.approx(2 ** (11 / 6), rel=1e-9)

    def test_oracle_value(self):
        c = cfg(wavelength=1550e-9, Z=1000.0, Z_hg=2.0, Z_hu=102.0, cn2_0=5e-15, wind_v=27.0)
        assert rytov_variance(c) == pytest.approx(RYTOV_TABLE_CFG, rel=1e-8)

    def test_increasing_in_Z(self):
        vals = [rytov_variance(cfg(Z=z)) for z in np.linspace(500, 1500, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degenerate_geometry(self):
        # construction rejects equal heights, so force the state past
        # validation to exercise the quadrature guard itself
        c = cfg()
        object.__setattr__(c, "Z_hu", c.Z_hg)
        with pytest.raises(DegenerateGeometryError):
            rytov_variance(c)

    def test_degenerate_geometry_with_warm_cache(self):
        # the guard runs before the memo lookup, so a cached integral for
        # the same heights (even the zero-length one) cannot bypass it
        c = cfg()
        rytov_variance(c)
        channel._path_integral(c.Z_hg, c.Z_hg, c.cn2_0, c.wind_v)
        object.__setattr__(c, "Z_hu", c.Z_hg)
        with pytest.raises(DegenerateGeometryError):
            rytov_variance(c)

    def test_degenerate_rejected_at_construction(self):
        with pytest.raises(ValueError):
            cfg(Z_hg=5.0, Z_hu=5.0)


# spread of link lengths, ground strengths, winds and node heights (0-20 km)
RYTOV_CONFIGS = [
    dict(Z=500.0, Z_hg=0.0, Z_hu=50.0, cn2_0=1e-16, wind_v=5.0),
    dict(Z=1000.0, Z_hg=2.0, Z_hu=102.0, cn2_0=5e-15, wind_v=27.0),
    dict(Z=3000.0, Z_hg=2.0, Z_hu=302.0, cn2_0=1e-13, wind_v=60.0),
    dict(Z=1500.0, Z_hg=10.0, Z_hu=1000.0, cn2_0=1e-14, wind_v=21.0),
    dict(Z=2000.0, Z_hg=0.0, Z_hu=20000.0, cn2_0=1.7e-14, wind_v=21.0),
    dict(Z=2500.0, Z_hg=5000.0, Z_hu=15000.0, cn2_0=1e-13, wind_v=60.0),
    dict(Z=800.0, Z_hg=100.0, Z_hu=200.0, cn2_0=3e-16, wind_v=10.0),
    dict(Z=1200.0, Z_hg=0.5, Z_hu=12000.0, cn2_0=1e-15, wind_v=40.0),
    dict(Z=3000.0, Z_hg=19000.0, Z_hu=20000.0, cn2_0=1e-16, wind_v=5.0),
    dict(Z=700.0, Z_hg=1.0, Z_hu=8000.0, cn2_0=7e-14, wind_v=33.0),
    dict(Z=1800.0, Z_hg=300.0, Z_hu=3000.0, cn2_0=4e-14, wind_v=15.0),
    dict(Z=2200.0, Z_hg=0.0, Z_hu=2200.0, cn2_0=6e-15, wind_v=50.0),
]


def rytov_mpmath(c: LinkConfig) -> mpmath.mpf:
    """Rytov variance by 30-digit tanh-sinh quadrature of the same
    integrand, with the height interval split at eighths."""
    with mpmath.workdps(30):
        hg, hu = mpmath.mpf(c.Z_hg), mpmath.mpf(c.Z_hu)
        hd = hu - hg

        def integrand(z):
            x = z - hg
            cn2 = (mpmath.mpf(0.00594) * (mpmath.mpf(c.wind_v) / 27) ** 2
                   * (mpmath.mpf(1e-5) * z) ** 10 * mpmath.exp(-z / 1000)
                   + mpmath.mpf(2.7e-16) * mpmath.exp(-z / 1500)
                   + mpmath.mpf(c.cn2_0) * mpmath.exp(-z / 100))
            return cn2 * (1 - x / hd) ** (mpmath.mpf(5) / 6) * x ** (mpmath.mpf(5) / 6)

        val = mpmath.quad(integrand, [hg + hd * i / 8 for i in range(9)])
        pref = (9 * (2 * mpmath.pi / mpmath.mpf(c.wavelength)) ** (mpmath.mpf(7) / 6)
                * (mpmath.mpf(c.Z) / hd) ** (mpmath.mpf(11) / 6))
        return pref * val


class TestRytovMemo:
    @staticmethod
    def uncached(c: LinkConfig) -> float:
        Z_hd = c.Z_hu - c.Z_hg
        pref = 9.0 * (2.0 * math.pi / c.wavelength) ** (7.0 / 6.0) * (c.Z / Z_hd) ** (11.0 / 6.0)
        return pref * channel._path_integral.__wrapped__(c.Z_hg, c.Z_hu, c.cn2_0, c.wind_v)

    @pytest.mark.parametrize("kw", RYTOV_CONFIGS[:6])
    def test_equals_uncached_integral(self, kw):
        c = cfg(**kw)
        rytov_variance(c)                  # warm
        assert rytov_variance(c) == self.uncached(c)

    def test_z_sweep_at_fixed_heights_integrates_once(self):
        channel._path_integral.cache_clear()
        for z in np.linspace(500.0, 3000.0, 7):
            c = cfg(Z=float(z), wavelength=850e-9 if z > 2000 else 1550e-9)
            assert rytov_variance(c) == self.uncached(c)
        info = channel._path_integral.cache_info()
        assert (info.misses, info.hits) == (1, 6)

    @pytest.mark.parametrize("kw", RYTOV_CONFIGS)
    def test_mpmath_oracle(self, kw):
        c = cfg(**kw)
        assert rytov_variance(c) == pytest.approx(float(rytov_mpmath(c)), rel=1e-10, abs=0)


class TestGGParams:
    def test_small_rytov_diverges(self):
        a, b = gg_params(1e-8)
        assert a > 1e6 and b > 1e6

    def test_oracle_at_one(self):
        a, b = gg_params(1.0)
        assert a == pytest.approx(4.393859025, abs=1e-6)
        assert b == pytest.approx(2.56363198, abs=1e-6)

    def test_alpha_at_least_beta(self):
        for s in np.geomspace(0.01, 30, 40):
            a, b = gg_params(float(s))
            assert a >= b > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            gg_params(0.0)


class TestLosses:
    def test_beer_lambert_lossless(self):
        assert beer_lambert(cfg(h_l=None, zeta=0.0)) == 1.0

    def test_beer_lambert_direct_mode(self):
        assert beer_lambert(cfg(h_l=0.7)) == 0.7

    def test_beer_lambert_exponential(self):
        assert beer_lambert(cfg(h_l=None, zeta=1e-3, Z=1000.0)) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_passes_identical(self):
        c = cfg(h_l=None, zeta=2e-4)
        assert beer_lambert(c) == beer_lambert(c)

    @pytest.mark.parametrize("theta,z,want", [(0.4e-3, 1000.0, 0.4), (2e-3, 500.0, 1.0),
                                              (0.1e-3, 1500.0, 0.15)])
    def test_beamwidth(self, theta, z, want):
        assert beamwidth(cfg(theta_div=theta, Z=z)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r_g,z,theta,want", [
        (0.08, 1000.0, 0.4e-3, 0.08),
        (0.08, 500.0, 2e-3, 0.0128),
    ])
    def test_geometric_loss(self, r_g, z, theta, want):
        assert geometric_loss_gs(cfg(r_g=r_g, Z=z, theta_div=theta)) == pytest.approx(want, rel=1e-12)

    def test_quartering_with_divergence(self):
        c1, c2 = cfg(theta_div=0.4e-3), cfg(theta_div=0.8e-3)
        assert geometric_loss_gs(c2) == pytest.approx(geometric_loss_gs(c1) / 4, rel=1e-12)


class TestPointing:
    def test_center_value(self):
        c = cfg(A_r=1e-4, theta_div=0.4e-3, Z=1000.0)
        assert pointing_loss_approx(c, 0.0, 0.0) == pytest.approx(2e-4 / (math.pi * 0.16), rel=1e-12)

    def test_two_sigma_attenuation(self):
        c = cfg(theta_div=0.4e-3, Z=1000.0)
        w = beamwidth(c)
        ratio = pointing_loss_approx(c, w, 0.0) / pointing_loss_approx(c, 0.0, 0.0)
        assert ratio == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_bounded_by_center(self):
        c = cfg()
        amax = pointing_loss_approx(c, 0.0, 0.0)
        for d in np.linspace(0, 2, 15):
            v = pointing_loss_approx(c, d, -d / 2)
            assert 0 < v <= amax

    def test_scalar_in_float_out(self):
        c = cfg()
        for d in (0.05, np.array(0.05)):
            got = pointing_loss_approx(c, d, -0.03)
            assert type(got) is float
            assert got == pointing_loss_approx(c, np.array([0.05]), np.array([-0.03]))[0]

    def test_displacements_not_written(self):
        c = cfg()
        dx, dy = np.linspace(-0.2, 0.2, 7), np.linspace(0.1, -0.1, 7)
        kept = dx.copy(), dy.copy()
        got = pointing_loss_approx(c, dx, dy)
        assert np.array_equal(dx, kept[0]) and np.array_equal(dy, kept[1])
        assert np.array_equal(got, [pointing_loss_approx(c, x, y) for x, y in zip(*kept)])

    def test_exact_matches_disc_closed_form_small_aperture(self):
        # disc of equal area, radius << w_z: closed form 1 - exp(-2 rho^2 / w^2)
        c = cfg(A_r=1e-4, theta_div=0.4e-3, Z=1000.0)
        rho2 = c.A_r / math.pi
        disc = 1.0 - math.exp(-2.0 * rho2 / beamwidth(c) ** 2)
        approx = pointing_loss_approx(c, 0.0, 0.0)
        assert approx == pytest.approx(disc, rel=1e-3)

    def test_exact_oracle_equilateral(self):
        with pytest.warns(UserWarning):  # deliberately outside the plane-wave regime
            c = cfg(A_r=4e-4, theta_div=0.1e-3, Z=1000.0)  # w_z = 0.1
        got = pointing_loss_exact(c, 0.0, 0.0)
        assert got == pytest.approx(TRIANGLE_4CM2_W01, rel=1e-5)

    def test_exact_to_approx_plane_wave_limit(self):
        c = cfg(A_r=1e-6, theta_div=0.4e-3, Z=1000.0)  # A_r = 1e-6 << w^2
        exact = pointing_loss_exact(c, 0.05, -0.03)
        approx = pointing_loss_approx(c, 0.05, -0.03)
        assert exact == pytest.approx(approx, rel=1e-2)

    def test_aperture_area(self):
        tri = equilateral_aperture(4e-4)
        x, y = tri[:, 0], tri[:, 1]
        area = 0.5 * abs(x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1]))
        assert area == pytest.approx(4e-4, rel=1e-12)

    def test_plane_wave_warning(self):
        with pytest.warns(UserWarning):
            cfg(A_r=4e-4, theta_div=0.1e-3, Z=1000.0)

    def test_exponent(self):
        # K = w_z^2 / (Z^2 sigma_e^2) = 0.4^2 / (1000^2 (100e-6)^2)
        c = cfg(theta_div=0.4e-3, Z=1000.0, sigma_theta_e=100e-6)
        assert pointing_exponent(c) == pytest.approx(16.0, rel=1e-12)

    def test_exponent_needs_tracking_jitter(self):
        with pytest.raises(ValueError, match="sigma_theta_e > 0"):
            pointing_exponent(cfg(sigma_theta_e=0.0))


class TestSnr:
    """The square-law map gamma = upsilon_1 h^2 of SquareLawModel."""

    def test_zero_channel(self):
        m = UniformChannel(cfg())
        assert m.pdf_snr(0.0) == 0.0 and isinstance(m.pdf_snr(0.0), float)
        assert m.cdf_snr(0.0) == 0.0
        assert m.outage(0.0) == 0.0

    def test_unit_channel_is_upsilon1(self):
        c = cfg()
        m = UniformChannel(c)
        assert m.cdf_snr(upsilon_1(c)) == 1.0
        assert m.cdf_snr(upsilon_1(c) / 4.0) == pytest.approx(0.5, rel=1e-14)

    def test_table_style_arithmetic(self):
        # sigma_n2 read as 10^-1.1 mA^2
        c = cfg(P_t=0.1, R_pd=0.8, sigma_n2=10 ** -1.1 * 1e-6)
        assert upsilon_1(c) == pytest.approx(161142.45271, rel=1e-9)

    def test_monotone_in_h_and_power(self):
        # uniform h: f_gamma(gamma) = 1 / (2 sqrt(upsilon_1 gamma)) on (0, upsilon_1)
        c = cfg()
        m = UniformChannel(c)
        g = np.linspace(0.01, 0.99, 20) * upsilon_1(c)
        assert np.allclose(m.pdf_snr(g), 0.5 / np.sqrt(upsilon_1(c) * g), rtol=1e-14)
        outages = [UniformChannel(cfg(P_t=p)).outage(10.0) for p in np.linspace(0.01, 1.0, 10)]
        assert all(b < a for a, b in zip(outages, outages[1:]))

    def test_negative_h_rejected(self):
        m = UniformChannel(cfg())
        assert np.array_equal(m.pdf_snr(np.array([-1.0, np.nan, 0.0])), np.zeros(3))
        with pytest.raises(ValueError):
            m.outage(-1e-3)


class TestRegime:
    def test_sigma_r2_rule(self):
        weak = turbulence_stats(cfg(cn2_0=5e-15))
        assert weak.regime is Regime.WEAK_TO_MODERATE
        strong = turbulence_stats(cfg(cn2_0=1e-13))
        assert strong.regime is Regime.MODERATE_TO_STRONG

    def test_override(self):
        st = turbulence_stats(cfg(cn2_0=1e-14), regime="strong")
        assert st.regime is Regime.MODERATE_TO_STRONG
        assert st.sigma_L2 == pytest.approx(st.sigma_R2 / 4)

    def test_exclusive_loss_inputs(self):
        with pytest.raises(ValueError):
            LinkConfig(zeta=1e-4, h_l=0.7)
        with pytest.raises(ValueError):
            LinkConfig(zeta=None, h_l=None)


def test_h_constant_composition():
    c = cfg(h_l=0.7, r_g=0.08, Z=1000.0, theta_div=0.4e-3)
    assert h_constant(c) == pytest.approx(0.7 * 0.7 * 0.08, rel=1e-12)
