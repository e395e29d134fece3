"""Retroreflector scattering-model tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mrrlink.errors import InsufficientSamplesError, NonPositiveBreakpointError
from mrrlink.mrr import (
    _MOM_MU,
    _MOM_SD,
    SectorModel,
    fit_sector_model,
    lognormal_hmrr_pdf,
    mrr_moments,
    sample_hmrr,
    sector_table,
)
from mrrlink.montecarlo import BLOCK, _mirror_factor, hmrr_from_normals, tilt_normals
from oracles import model_moments

DEG = math.pi / 180.0


class TestComponent:
    """The mirror factor the samplers run, `montecarlo._mirror_factor`."""

    def test_perfect_alignment(self):
        assert _mirror_factor(0.0) == 1.0

    def test_quarter_pi(self):
        assert _mirror_factor(math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_negative_angle_symmetric(self):
        # -1 degree loses exactly as much as +1 degree
        assert _mirror_factor(-0.0175) == pytest.approx(1.0 - math.tan(0.0175), rel=1e-12)
        assert _mirror_factor(-0.0175) == _mirror_factor(0.0175)

    def test_clamped_at_zero(self):
        assert _mirror_factor(1.2) == 0.0

    @pytest.mark.parametrize("theta", [-0.3, np.array(-0.3)], ids=["float", "0-d"])
    def test_scalar_in_float_out(self, theta):
        got = _mirror_factor(theta)
        assert type(got) is float and got == pytest.approx(1.0 - math.tan(0.3), rel=1e-15)
        assert theta == -0.3   # the 0-d input is not written

    def test_array_input_not_written(self):
        theta = np.array([[-0.3, 0.1, 2.0]])
        kept = theta.copy()
        want = [[_mirror_factor(t * 0.5) for t in kept[0]]]
        assert np.array_equal(_mirror_factor(theta, 0.5), want)
        assert np.array_equal(theta, kept)


class TestSampling:
    def test_no_jitter(self):
        assert np.all(sample_hmrr(0.0, 100, seed=3) == 1.0)

    def test_support(self):
        s = sample_hmrr(8 * DEG, 200_000, seed=1)
        assert np.all((s >= 0.0) & (s <= 1.0))

    @pytest.mark.parametrize("deg", [20.0, 30.0])
    def test_support_past_right_angle_tilts(self, deg):
        # at these jitters some tilts pass pi/2, where tan turns negative
        s = sample_hmrr(deg * DEG, 1_000_000, seed=0)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_deterministic(self):
        a = sample_hmrr(3 * DEG, 150_000, seed=42)
        b = sample_hmrr(3 * DEG, 150_000, seed=42)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        # extending the run must not change earlier samples
        a = sample_hmrr(3 * DEG, 70_000, seed=7)
        b = sample_hmrr(3 * DEG, 200_000, seed=7)
        assert np.array_equal(a, b[:70_000])

    def test_composition_across_block_boundary(self):
        # the public sampler is the shared-normals path, one jitter at a time
        z = tilt_normals(BLOCK + 1_000, seed=5)
        assert z.shape == (BLOCK + 1_000, 3)
        for sigma in (0.0, 0.1, 8 * DEG):
            assert np.array_equal(sample_hmrr(sigma, BLOCK + 1_000, seed=5),
                                  hmrr_from_normals(sigma, z))

    def test_normals_not_written(self):
        # mc-tables and fig13 scale one set of tilt normals to every jitter
        z = tilt_normals(BLOCK + 1_000, seed=5)
        kept = z.copy()
        first = hmrr_from_normals(8 * DEG, z)
        assert np.array_equal(z, kept)
        assert np.array_equal(hmrr_from_normals(8 * DEG, z), first)

    def test_one_degree_row(self):
        # published-table row at 1 deg; the model reproduces this row
        s = sample_hmrr(1 * DEG, 2_000_000, seed=11)
        assert s.mean() == pytest.approx(0.96, abs=0.005)
        assert s.std() == pytest.approx(0.0178, abs=0.002)

    def test_matches_exact_moments(self):
        # sampler agrees with the quadrature moments of the same model
        for deg in (2.0, 5.0, 9.0):
            mu_q, sd_q = model_moments(deg * DEG)
            s = sample_hmrr(deg * DEG, 1_000_000, seed=5)
            assert s.mean() == pytest.approx(mu_q, abs=4 * s.std() / 1000)
            assert s.std() == pytest.approx(sd_q, abs=2e-3)


class TestMoments:
    def test_table_rows_verbatim(self):
        assert mrr_moments(1 * DEG) == (0.96, 0.0178)
        assert mrr_moments(5 * DEG) == (0.83, 0.083)

    def test_tabulated_row_beats_interpolation(self):
        # the table carries every integer degree, so 2 deg is exact, not
        # the 1/3-degree average a coarser table would interpolate to
        assert mrr_moments(2 * DEG) == (0.93, 0.035)

    def test_interpolated_row(self):
        mu, sd = mrr_moments(2.5 * DEG)
        assert mu == pytest.approx((0.93 + 0.89) / 2, abs=1e-12)
        assert sd == pytest.approx((0.035 + 0.052) / 2, abs=1e-12)

    def test_zero_convention(self):
        assert mrr_moments(0.0) == (1.0, 0.0)

    def test_out_of_range_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            mu, sd = mrr_moments(12 * DEG)
        assert (mu, sd) == (0.62, 0.158)
        with pytest.warns(UserWarning):
            assert mrr_moments(0.5 * DEG) == (0.96, 0.0178)
        with pytest.raises(ValueError, match="NaN"):   # no row to clamp to
            mrr_moments(math.nan)

    def test_monotone_columns(self):
        assert np.all(np.diff(_MOM_MU) < 0)
        assert np.all(np.diff(_MOM_SD) > 0)


class TestLognormalPdf:
    @pytest.mark.parametrize("mu,sd", [(0.83, 0.083), (0.96, 0.0178), (0.5, 0.2)])
    def test_moment_matching_exact(self, mu, sd):
        pts = [max(mu - 6 * sd, 1e-9), mu, mu + 6 * sd]
        kw = dict(limit=400, points=pts)
        total, _ = quad(lambda h: lognormal_hmrr_pdf(h, mu, sd), 1e-12, 10, **kw)
        mean, _ = quad(lambda h: h * lognormal_hmrr_pdf(h, mu, sd), 1e-12, 10, **kw)
        var, _ = quad(lambda h: (h - mu) ** 2 * lognormal_hmrr_pdf(h, mu, sd), 1e-12, 10, **kw)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(mu, abs=1e-6)
        assert var == pytest.approx(sd ** 2, abs=1e-6)

    @pytest.mark.parametrize("mu,sd", [(0.0, 0.1), (0.8, 0.0), (0.8, -0.1)])
    def test_nonpositive_moments_rejected(self, mu, sd):
        with pytest.raises(ValueError):
            lognormal_hmrr_pdf(0.9, mu, sd)

    def test_zero_below_support(self):
        assert lognormal_hmrr_pdf(0.0, 0.8, 0.1) == 0.0
        assert lognormal_hmrr_pdf(-1.0, 0.8, 0.1) == 0.0

    def test_histogram_agreement_degrades_with_jitter(self):
        # The log-normal stand-in tracks the sampled density only loosely
        # in isolation (measured L1 0.15 at 1 deg rising to 0.24 at 10 deg;
        # the composed channel agrees far better, see acceptance suite).
        # Assert the monotone degradation and the measured envelope.
        l1s = []
        for deg in (1.0, 5.0, 8.0, 10.0):
            s = sample_hmrr(deg * DEG, 500_000, seed=9)
            mu, sd = float(s.mean()), float(s.std())
            counts, edges = np.histogram(s, bins=40)
            dens = counts / len(s) / np.diff(edges)
            centers = 0.5 * (edges[:-1] + edges[1:])
            l1s.append(float(np.sum(np.abs(dens - lognormal_hmrr_pdf(centers, mu, sd))
                                    * np.diff(edges))))
        assert all(b > a for a, b in zip(l1s, l1s[1:]))
        assert l1s[0] < 0.2 and l1s[-2] < 0.25


class TestSectorModel:
    def test_flat_density(self):
        # uniform on [0.5, 1]: mean 0.75 puts the window at [0.5, 1], density 2
        rng = np.random.Generator(np.random.Philox(2))
        s = 0.5 + 0.5 * rng.random(200_000)
        model = fit_sector_model(s, 4)
        assert np.allclose(model.V, [0.5, 0.625, 0.75, 0.875, 1.0], atol=2e-3)
        assert np.allclose(model.B, 2.0, atol=0.04)

    def test_mass_normalized(self):
        s = sample_hmrr(5 * DEG, 300_000, seed=4)
        model = fit_sector_model(s, 8)
        mass = float(np.sum(model.B * np.diff(model.V)))
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            fit_sector_model(np.ones(100), 8)

    def test_negative_window_rejected(self):
        s = np.clip(np.random.default_rng(0).normal(0.3, 0.1, 20_000), 0, 1)
        with pytest.raises(NonPositiveBreakpointError):
            fit_sector_model(s, 8)   # sample mean < 0.5

    @pytest.mark.parametrize("V,B", [([0.5, 0.75, 1.0], [math.nan, 3.0]),
                                     ([0.5, math.nan, 1.0], [1.0, 3.0]),
                                     ([0.5, 0.75, 1.0], [math.inf, 3.0])])
    def test_non_finite_rejected(self, V, B):
        with pytest.raises(ValueError, match="finite"):
            SectorModel(np.array(V), np.array(B))


class TestSectorTable:
    def test_verbatim_column_shape(self):
        model = sector_table(1 * DEG)
        printed = np.array([2.63, 5.74, 10.37, 15.2, 17.8, 14.7, 7.05, 1.26])
        # renormalized: same shape up to one global factor
        ratio = model.B / printed
        assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_interpolated_column_is_midpoint(self):
        m1 = sector_table(1 * DEG)
        m3 = sector_table(3 * DEG)
        m2 = sector_table(2 * DEG)
        b1 = np.array([2.63, 5.74, 10.37, 15.2, 17.8, 14.7, 7.05, 1.26])
        b3 = np.array([0.85, 1.99, 3.73, 5.49, 6.19, 4.99, 2.45, 0.40])
        mid = (b1 + b3) / 2
        ratio = m2.B / mid
        assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_integrates_to_one(self):
        for deg in (1.0, 5.0, 11.0):
            model = sector_table(deg * DEG)
            assert float(np.sum(model.B * np.diff(model.V))) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sector_table(0.5 * DEG)
        with pytest.raises(ValueError):
            sector_table(11.5 * DEG)
        with pytest.raises(ValueError):
            sector_table(math.nan)

    def test_shared_model_is_read_only(self):
        # one model per jitter serves every caller, so no caller may change it
        model = sector_table(2 * DEG)
        assert sector_table(2 * DEG) is model
        for arr in (model.V, model.B):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
