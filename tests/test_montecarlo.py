"""Monte-Carlo engine tests: determinism, composition, agreement."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

import mrrlink.montecarlo as montecarlo
from mrrlink.channel import (
    LinkConfig,
    Regime,
    TurbulenceStats,
    beamwidth,
    geometric_loss_gs,
    turbulence_stats,
    upsilon_1,
)
from mrrlink.montecarlo import (
    BLOCK,
    FadingModel,
    SimPlan,
    draw_channel,
    empirical_cdf,
    empirical_pdf,
    mc_ber,
    mc_outage,
)
from mrrlink.mrr import hmrr_from_normals, sample_hmrr, tilt_normals
from mrrlink.weak import weak_constants
from mrrlink.mrr import model_moments

DEG = math.pi / 180.0


def weak_cfg(**kw) -> LinkConfig:
    base = dict(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                sigma_theta_o=2 * DEG, cn2_0=5e-15)
    base.update(kw)
    return LinkConfig(**base)


def strong_cfg() -> LinkConfig:
    """Cn2 = 1e-13: Rytov variance ~2, so the engine draws Gamma-Gamma fading."""
    return weak_cfg(cn2_0=1e-13)


def snr_samples(plan: SimPlan) -> np.ndarray:
    """The plan's SNR samples, gamma = upsilon_1 h^2."""
    h = draw_channel(plan)
    return upsilon_1(plan.cfg) * h * h


class TestDeterminism:
    def test_identical_reruns(self):
        plan = SimPlan(weak_cfg(), n_samples=200_000, seed=123)
        assert np.array_equal(draw_channel(plan), draw_channel(plan))

    def test_prefix_stability(self):
        cfg = weak_cfg()
        a = draw_channel(SimPlan(cfg, n_samples=80_000, seed=5))
        b = draw_channel(SimPlan(cfg, n_samples=3 * BLOCK, seed=5))
        assert np.array_equal(a, b[:80_000])

    def test_seed_changes_stream(self):
        cfg = weak_cfg()
        a = draw_channel(SimPlan(cfg, n_samples=10_000, seed=1))
        b = draw_channel(SimPlan(cfg, n_samples=10_000, seed=2))
        assert not np.array_equal(a, b)

    def test_geometry_shared_across_fading_models(self, monkeypatch):
        # same seed => same pointing/orientation draws: h divided by its
        # fading product is the same under either fading model, while the
        # fading itself differs
        fading = []
        original = montecarlo._fading_pair

        def recording(*args):
            out = original(*args)
            fading.append(out)
            return out

        monkeypatch.setattr(montecarlo, "_fading_pair", recording)
        cfg = weak_cfg()
        n = BLOCK + 1_000
        plan_ln = SimPlan(cfg, n_samples=n, seed=3, fading=FadingModel.LOG_NORMAL)
        plan_gg = SimPlan(cfg, n_samples=n, seed=3, fading=FadingModel.GAMMA_GAMMA,
                          stats=turbulence_stats(cfg, regime="strong"))
        h_ln = draw_channel(plan_ln)
        f_ln = np.concatenate(fading)
        fading.clear()
        h_gg = draw_channel(plan_gg)
        f_gg = np.concatenate(fading)
        assert len(f_ln) == len(f_gg) == n
        assert not np.any(f_ln == f_gg)
        assert not np.any(f_gg[:1_000] == f_gg[BLOCK:])  # each block has its own fading
        np.testing.assert_allclose(h_gg / f_gg, h_ln / f_ln, rtol=1e-15, atol=0)

    def test_gg_identical_reruns(self):
        plan = SimPlan(strong_cfg(), n_samples=200_000, seed=123)
        assert plan.resolved().fading is FadingModel.GAMMA_GAMMA
        assert np.array_equal(draw_channel(plan), draw_channel(plan))

    @pytest.mark.parametrize("cfg", [weak_cfg(), strong_cfg()], ids=["lognormal", "gammagamma"])
    def test_snr_blocks_are_upsilon_h_h(self, cfg):
        # the SNR the estimators read is formed from draw_channel's h, bit
        # for bit the gamma blocks of sample_channel
        plan = SimPlan(cfg, n_samples=BLOCK + 1_000, seed=5)
        h = draw_channel(plan)
        gamma = np.concatenate([g for _, g in montecarlo.sample_channel(plan)])
        assert np.array_equal(upsilon_1(cfg) * h * h, gamma)

    def test_gg_prefix_stability(self):
        cfg = strong_cfg()
        a = draw_channel(SimPlan(cfg, n_samples=80_000, seed=5))
        b = draw_channel(SimPlan(cfg, n_samples=3 * BLOCK, seed=5))
        assert np.array_equal(a, b[:80_000])


class TestSharedPass:
    """Plans that share seed and n_samples draw in one stream pass, each h
    bit for bit its plan's own draw."""

    N = BLOCK + 1_000

    def plans(self):
        strong = strong_cfg()
        return [SimPlan(weak_cfg(), self.N, seed=5),
                SimPlan(weak_cfg(sigma_theta_o=8 * DEG, sigma_theta_e=90e-6), self.N, seed=5),
                SimPlan(strong, self.N, seed=5),
                SimPlan(strong.with_(sigma_theta_o=6 * DEG), self.N, seed=5)]

    def test_each_array_is_its_plans_own_draw(self, block_rows):
        plans = self.plans()
        shared = draw_channel(*plans)
        assert block_rows == [BLOCK, 1_000]   # one pass for all four
        assert shared.shape == (len(plans), self.N)
        for plan, h in zip(plans, shared):
            assert np.array_equal(h, draw_channel(plan))

    def test_shared_normals_not_written(self, monkeypatch):
        # the normals of a block serve every plan of the pass; each plan's h
        # and gamma are those of a pass of its own.  The pass refills one
        # buffer block by block, so each block is checked at its yield.
        drawn = []
        original = montecarlo.block_normals

        def recording(*args):
            out = original(*args)
            drawn.append((out, out.copy()))
            return out

        monkeypatch.setattr(montecarlo, "block_normals", recording)
        plans = self.plans()
        blocks = []
        for shared in montecarlo.sample_channel(*plans):
            z, kept = drawn[-1]
            assert np.array_equal(z, kept)
            blocks.append(shared)
        assert len(drawn) == len(blocks) == 2
        monkeypatch.undo()
        for i, plan in enumerate(plans):
            own = list(montecarlo.sample_channel(plan))
            for shared, (h, gamma) in zip(blocks, own):
                assert np.array_equal(shared[i], h)
                assert np.array_equal(shared[len(plans) + i], gamma)

    def test_fading_drawn_once_per_model_and_parameters(self, monkeypatch):
        drawn = []
        original = montecarlo._fading_pair

        def recording(plan, z, block):
            drawn.append(plan.fading)
            return original(plan, z, block)

        monkeypatch.setattr(montecarlo, "_fading_pair", recording)
        draw_channel(*self.plans())
        assert drawn == [FadingModel.LOG_NORMAL, FadingModel.GAMMA_GAMMA] * 2   # per block

    def test_snr_blocks_follow_the_h_blocks(self):
        plans = self.plans()[:2]
        hs = draw_channel(*plans)
        blocks = list(montecarlo.sample_channel(*plans))
        assert all(len(b) == 4 for b in blocks)
        for i, (plan, h) in enumerate(zip(plans, hs)):
            assert np.array_equal(np.concatenate([b[i] for b in blocks]), h)
            gamma = np.concatenate([b[2 + i] for b in blocks])
            assert np.array_equal(gamma, upsilon_1(plan.cfg) * h * h)

    @pytest.mark.parametrize("other", [dict(seed=6), dict(n_samples=1_000)])
    def test_plans_must_share_seed_and_samples(self, other):
        plan = SimPlan(weak_cfg(), self.N, seed=5)
        with pytest.raises(ValueError, match="share seed and n_samples"):
            draw_channel(plan, SimPlan(**{**vars(plan), **other}))


class TestRowsDrawn:
    """A run of n samples asks the block generators for exactly n rows of
    normals, the last block included."""

    N = BLOCK + 1_000

    def test_sample_hmrr(self, block_rows):
        assert len(sample_hmrr(0.1, self.N, seed=5)) == self.N
        assert block_rows == [BLOCK, 1_000]

    @pytest.mark.parametrize("cfg", [weak_cfg(), strong_cfg()], ids=["lognormal", "gammagamma"])
    def test_draw_channel(self, block_rows, cfg):
        assert len(draw_channel(SimPlan(cfg, n_samples=self.N, seed=5))) == self.N
        assert block_rows == [BLOCK, 1_000]


class TestStreamContract:
    """Stream contract v3: per (seed, block) a channel row is six standard
    normals from the block's Philox stream (tilts 0-2, tracking 3-4,
    log-normal fading 5) and a tilt row three; the log-normal pair is one
    normal of doubled variance.  KS tests run at p = 0.001."""

    N = BLOCK + 1_000

    @staticmethod
    def recorded(monkeypatch, fn, *args):
        """The value of fn(*args) and a copy of every block of normals it drew."""
        drawn = []
        original = montecarlo.block_normals

        def recording(*a):
            out = original(*a)
            drawn.append(out.copy())
            return out

        monkeypatch.setattr(montecarlo, "block_normals", recording)
        value = fn(*args)
        monkeypatch.undo()
        return value, np.concatenate(drawn)

    def test_channel_columns_are_standard_normal(self, monkeypatch):
        _, z = self.recorded(monkeypatch, draw_channel, SimPlan(weak_cfg(), self.N, seed=31))
        assert z.shape == (self.N, 6)
        for col in z.T:
            assert stats.kstest(col, "norm").pvalue > 1e-3

    def test_tilt_columns_are_standard_normal(self):
        z = tilt_normals(self.N, seed=31)
        for col in z.T:
            assert stats.kstest(col, "norm").pvalue > 1e-3

    def test_lognormal_pair_has_doubled_variance(self, monkeypatch):
        plan = SimPlan(weak_cfg(), self.N, seed=31, fading=FadingModel.LOG_NORMAL).resolved()
        fading = []
        original = montecarlo._fading_pair

        def recording(*args):
            fading.append(original(*args))
            return fading[-1]

        monkeypatch.setattr(montecarlo, "_fading_pair", recording)
        draw_channel(plan)
        s_l2 = plan.stats.sigma_L2
        assert s_l2 > 0
        x = np.log(np.concatenate(fading))
        assert len(x) == self.N
        assert stats.kstest(x, "norm", args=(-4 * s_l2, math.sqrt(8 * s_l2))).pvalue > 1e-3

    @pytest.mark.parametrize("cols", [3, 6])
    @pytest.mark.parametrize("rows", [1, 1_000, BLOCK - 1])
    def test_partial_block_is_a_prefix_of_the_full_block(self, cols, rows):
        full = montecarlo.block_normals(9, 1, np.empty((BLOCK, cols)))
        part = montecarlo.block_normals(9, 1, np.empty((rows, cols)))
        assert np.array_equal(part, full[:rows])

    def test_fading_models_share_geometry_bit_for_bit(self, monkeypatch):
        cfg = weak_cfg()
        ln = SimPlan(cfg, self.N, seed=3, fading=FadingModel.LOG_NORMAL)
        gg = SimPlan(cfg, self.N, seed=3, fading=FadingModel.GAMMA_GAMMA,
                     stats=turbulence_stats(cfg, regime="strong"))
        _, z_ln = self.recorded(monkeypatch, draw_channel, ln)
        _, z_gg = self.recorded(monkeypatch, draw_channel, gg)
        assert np.array_equal(z_ln[:, :5], z_gg[:, :5])   # tilts and tracking

    def test_tilt_rows_are_the_keys_first_normals(self):
        # a tilt row reads three normals of the same key a channel row reads six of
        z = tilt_normals(2, seed=4)
        head = montecarlo.block_normals(4, 0, np.empty((1, 6)))
        assert np.array_equal(z.ravel(), head.ravel())


class TestWorkingSet:
    """Peak traced allocation of one warm call at two blocks: the block's
    six normals are drawn into one buffer that every block refills, and a
    tilt draw writes straight into its output."""

    @staticmethod
    def peak_mb(fn, *args) -> float:
        fn(*args)   # warm: imports and caches are not the working set
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_lognormal_draw_channel(self):
        plan = SimPlan(weak_cfg(), 2 * BLOCK, seed=3, fading=FadingModel.LOG_NORMAL)
        assert self.peak_mb(draw_channel, plan) < 10.0   # the output is 1 MB of it

    def test_tilt_normals(self):
        assert self.peak_mb(tilt_normals, 2 * BLOCK) < 5.0   # the output is 3.1 MB of it


class TestPinnedStreams:
    """sha256 of streams the Monte-Carlo kernel must not move (numpy 2.4,
    x86-64 Linux); each draw crosses a block boundary.  Recorded with
    stream contract v3 (`TestStreamContract`)."""

    @staticmethod
    def digest(*arrays) -> str:
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    def test_lognormal_channel(self):
        plan = SimPlan(weak_cfg(), n_samples=BLOCK + 1_000, seed=5,
                       fading=FadingModel.LOG_NORMAL)
        h = draw_channel(plan)
        assert self.digest(h, upsilon_1(plan.cfg) * h * h) == (
            "712b5e771bb2886e54ca8dd5af6da393eb18df8c7e1677cba1d087c7a63caa44")

    def test_sample_hmrr(self):
        assert self.digest(sample_hmrr(0.1, BLOCK + 1_000, seed=5)) == (
            "f1d5c8322b73622445500151ea3e0f04e0a43e4eefddfc7ba1ce68cfe42ef846")

    def test_gammagamma_channel(self):
        plan = SimPlan(strong_cfg(), n_samples=BLOCK + 1_000, seed=5)
        assert plan.resolved().fading is FadingModel.GAMMA_GAMMA
        h = draw_channel(plan)
        assert self.digest(h, upsilon_1(plan.cfg) * h * h) == (
            "1b9d1f340cf1c6af5f0ca8e0e8f0570ba54d95a5b46f926802ceb810f54374a0")

    def test_shared_pass(self):
        # two orientation jitters, one log-normal fading key
        n = BLOCK + 1_000
        plans = (SimPlan(weak_cfg(), n, seed=5),
                 SimPlan(weak_cfg(sigma_theta_o=8 * DEG), n, seed=5))
        assert self.digest(draw_channel(*plans)) == (
            "a5005084bfedc83941dfd7a5aa2816e3da85246230ccf4ea1e9ef34f2f86d91b")

    def test_hmrr_jitter_grid(self):
        z = tilt_normals(BLOCK + 1_000, seed=5)
        assert self.digest(hmrr_from_normals(0.05, z), hmrr_from_normals(0.1, z)) == (
            "34a780f5ee3d209fa48716a4ec2b874abe3dfa74ea19d454cf43c5b7e13dd1ac")


def gg_moment(a: float, b: float, k: float) -> float:
    """E[X^k] of the two-pass Gamma-Gamma product X (unit-mean factors)."""
    lg = (sp.gammaln(a + k) - sp.gammaln(a) - k * math.log(a)
          + sp.gammaln(b + k) - sp.gammaln(b) - k * math.log(b))
    return math.exp(2.0 * lg)


class TestGammaGammaSampler:
    """Moments of `_fading_pair`'s Gamma-Gamma product over 16 blocks
    (~1e6 samples), each within 4 exact standard errors.  The second case
    has beta < 1, where Marsaglia-Tsang boosts the shape by one."""

    @pytest.fixture(params=[(3.99, 1.71), (2.4, 0.62)], ids=["strong", "small-shape"])
    def draws(self, request):
        a, b = request.param
        plan = SimPlan(weak_cfg(), seed=11, fading=FadingModel.GAMMA_GAMMA,
                       stats=TurbulenceStats(1.0, 0.25, a, b, Regime.MODERATE_TO_STRONG))
        z = np.empty(BLOCK)   # the log-normal column; Gamma-Gamma reads its length
        return a, b, np.concatenate([montecarlo._fading_pair(plan, z, blk) for blk in range(16)])

    def test_mean(self, draws):
        a, b, x = draws
        se = math.sqrt((gg_moment(a, b, 2) - 1.0) / len(x))
        assert abs(x.mean() - 1.0) <= 4 * se

    def test_second_moment(self, draws):
        a, b, x = draws
        m2 = ((1 + 1 / a) * (1 + 1 / b)) ** 2
        assert m2 == pytest.approx(gg_moment(a, b, 2), rel=1e-12)
        se = math.sqrt((gg_moment(a, b, 4) - m2 * m2) / len(x))
        assert abs((x * x).mean() - m2) <= 4 * se

    def test_log_mean(self, draws):
        a, b, x = draws
        want = 2 * (sp.digamma(a) - math.log(a) + sp.digamma(b) - math.log(b))
        se = math.sqrt(2 * (sp.polygamma(1, a) + sp.polygamma(1, b)) / len(x))
        assert abs(np.log(x).mean() - want) <= 4 * se


class TestComposition:
    def test_deterministic_limit(self):
        # zero spread everywhere: h = h_pg * 2 A_r / (pi w_z^2) exactly
        cfg = weak_cfg(sigma_theta_e=0.0, sigma_theta_o=0.0, h_l=1.0)
        plan = SimPlan(cfg, n_samples=1000, seed=0, fading=FadingModel.LOG_NORMAL,
                       stats=TurbulenceStats(0.0, 0.0, math.inf, math.inf,
                                             Regime.WEAK_TO_MODERATE))
        h = draw_channel(plan)
        g = upsilon_1(cfg) * h * h
        want = geometric_loss_gs(cfg) * 2 * cfg.A_r / (math.pi * beamwidth(cfg) ** 2)
        assert np.allclose(h, want, rtol=1e-12)
        assert np.allclose(g, upsilon_1(cfg) * want ** 2, rtol=1e-12)

    def test_lognormal_fading_unit_mean(self):
        cfg = weak_cfg(sigma_theta_e=0.0, sigma_theta_o=0.0, h_l=1.0)
        plan = SimPlan(cfg, n_samples=1_000_000, seed=7, fading=FadingModel.LOG_NORMAL)
        h = draw_channel(plan)
        const = geometric_loss_gs(cfg) * 2 * cfg.A_r / (math.pi * beamwidth(cfg) ** 2)
        # h / const is the two-pass fading product, mean 1 per pass
        assert h.mean() / const == pytest.approx(1.0, abs=0.01)

    def test_gg_fading_unit_mean(self):
        cfg = weak_cfg(sigma_theta_e=0.0, sigma_theta_o=0.0, h_l=1.0, cn2_0=5e-14)
        plan = SimPlan(cfg, n_samples=1_000_000, seed=8,
                       fading=FadingModel.GAMMA_GAMMA,
                       stats=turbulence_stats(cfg, regime="strong"))
        h = draw_channel(plan)
        const = geometric_loss_gs(cfg) * 2 * cfg.A_r / (math.pi * beamwidth(cfg) ** 2)
        assert h.mean() / const == pytest.approx(1.0, abs=0.015)

    def test_reflection_factor_at_most_one_past_right_angle_tilts(self):
        # same seed, same geometry and fading draws: h(30 deg) / h(0 deg) is
        # the reflection factor; tilts past pi/2 once pushed it above 1
        cfg = weak_cfg(sigma_theta_o=30 * DEG)
        h30 = draw_channel(SimPlan(cfg, n_samples=200_000, seed=0))
        h0 = draw_channel(SimPlan(cfg.with_(sigma_theta_o=0.0), n_samples=200_000, seed=0))
        assert np.all(h30 <= h0 * (1 + 1e-12))


class TestEmpirical:
    def test_single_value(self):
        dens, edges = empirical_pdf(np.full(1000, 3.3), bins=10)
        assert len(edges) == len(dens) + 1
        assert (dens > 0).sum() == 1
        assert float(np.sum(dens * np.diff(edges))) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_flat(self):
        rng = np.random.default_rng(4)
        s = rng.random(400_000)
        dens, _ = empirical_pdf(s, bins=20)
        assert np.allclose(dens, 1.0, atol=0.03)

    def test_density_integrates_to_one(self):
        s = np.random.default_rng(5).normal(size=10_000)
        dens, edges = empirical_pdf(s, bins=37)
        assert float(np.sum(dens * np.diff(edges))) == pytest.approx(1.0, rel=1e-12)

    def test_reflection_histogram_shape(self):
        # jitter at 5 deg: mode above 0.8, support within [0.2, 1]
        s = sample_hmrr(5 * DEG, 500_000, seed=2)
        dens, edges = empirical_pdf(s, bins=50)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mode = centers[np.argmax(dens)]
        assert mode > 0.8
        assert s.min() >= 0.2 and s.max() <= 1.0

    def test_sorted_pdf_is_the_histogram_bit_for_bit(self):
        # samples on interior edges, on the last edge (counted) and outside
        # the edges (dropped), across more than numpy's 65,536-sample block
        rng = np.random.default_rng(6)
        edges = np.linspace(0.0, 2.0, 81)
        s = np.concatenate([rng.gamma(2.0, 0.4, 70_000), edges[[0, 3, 40, 80, 80]],
                            [-0.5, 2.5, 9.0]])
        rng.shuffle(s)
        want, _ = empirical_pdf(s, bins=edges)
        assert np.array_equal(montecarlo.sorted_pdf(np.sort(s), edges), want)

    def test_sorted_cdf_is_the_ecdf(self):
        s = np.random.default_rng(7).normal(size=1_000)
        x = np.linspace(-3.0, 3.0, 25)
        assert np.array_equal(montecarlo.sorted_cdf(np.sort(s), x), empirical_cdf(s, x))

    def test_ecdf(self):
        F = empirical_cdf([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert np.allclose(F, [1 / 3, 2 / 3, 1.0])
        # right-continuous: the jump belongs to the sample value itself
        assert np.allclose(empirical_cdf([3.0, 1.0, 2.0], [0.5, 1.5, 9.0]), [0.0, 1 / 3, 1.0])


class TestEstimates:
    def test_outage_trivial_thresholds(self):
        g = snr_samples(SimPlan(weak_cfg(), n_samples=20_000, seed=1))
        assert mc_outage(g, 0.0).value == 0.0
        assert mc_outage(g, math.inf).value == 1.0

    def test_ber_limits(self):
        cfg = weak_cfg(P_t=1e-9)   # vanishing power: gamma ~ 0, Q(0) = 1/2
        g = snr_samples(SimPlan(cfg, n_samples=20_000, seed=1))
        assert mc_ber(g).value == pytest.approx(0.5, abs=1e-3)
        cfg = weak_cfg(P_t=1.0, sigma_n2=1e-30)  # huge SNR: errors vanish
        g = snr_samples(SimPlan(cfg, n_samples=20_000, seed=1))
        assert mc_ber(g).value < 1e-12

    def test_outage_against_weak_cdf(self):
        cfg = weak_cfg(P_t=0.02)
        g = snr_samples(SimPlan(cfg, n_samples=1_000_000, seed=31))
        est = mc_outage(g, cfg.gamma_th)
        k = weak_constants(cfg, model_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
        want = float(k.cdf_snr(cfg.gamma_th))
        assert est.ci_low * 0.97 <= want <= est.ci_high * 1.03

    def test_snr_ecdf_against_weak_cdf(self):
        cfg = weak_cfg()
        plan = SimPlan(cfg, n_samples=1_000_000, seed=17)
        g = snr_samples(plan)
        k = weak_constants(cfg, model_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
        xs = np.sort(g)[:: 500]
        ecdf = empirical_cdf(g, xs)
        ks = float(np.abs(np.asarray(k.cdf_snr(xs)) - ecdf).max())
        assert ks <= 0.02


class TestStrongAgreement:
    def test_outage_against_strong_cdf(self):
        # heavy-turbulence configuration: simulated outage brackets the
        # sector-sum closed form wherever the outage resolves
        from mrrlink.mrr import fit_sector_model, sample_hmrr
        from mrrlink.strong import strong_constants

        cfg = weak_cfg(cn2_0=1e-13, sigma_theta_o=6 * DEG, P_t=0.1)
        stats = turbulence_stats(cfg, regime="strong")
        hm = sample_hmrr(cfg.sigma_theta_o, 1_000_000, seed=21)
        k = strong_constants(cfg, stats, fit_sector_model(hm, 8))
        g = snr_samples(SimPlan(cfg, n_samples=1_000_000, seed=22, stats=stats))
        est = mc_outage(g, cfg.gamma_th)
        assert est.value >= 1e-4
        want = k.outage(cfg.gamma_th)
        assert est.ci_low * 0.9 <= want <= est.ci_high * 1.1
