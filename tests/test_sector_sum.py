"""The strong-regime sector sums, evaluated as one Mellin-Barnes integral
per argument (`specfun.meijer_g_sum`), against mpmath, against the
per-point sum of scalar Meijer-G evaluations, and for the work they do;
and a heatmap's strong cells as one batch of such integrals."""

import math

import mpmath
import numpy as np
import pytest

from mrrlink import specfun, strong
from mrrlink.channel import LinkConfig, Regime
from mrrlink.experiments import _constants_for, _design_metric, apply_axis, heatmap
from mrrlink.recipes import build_recipe
from mrrlink.specfun import MeijerGSpec, meijer_g_cached


def _b_shapes(k):
    return (k.alpha - 1.0, k.beta - 1.0, k.K - 1.0, k.alpha - 1.0, k.beta - 1.0)


def _pdf_spec(k):
    return MeijerGSpec(6, 0, (k.K, 1.0), (0.0, *_b_shapes(k)))


def _cdf_spec(k):
    return MeijerGSpec(6, 1, (0.0, k.K, 1.0), (0.0, *_b_shapes(k), -1.0))


def _sector_scales(k):
    """The per-sector argument scales B_n' = scale/V_n and B_n'' = scale/V_{n-1}."""
    return zip(k.sectors.B, k.scale / k.sectors.V[1:], k.scale / k.sectors.V[:-1])


def _ber_spec_pref(k):
    a, b, K = k.alpha, k.beta, k.K
    spec = MeijerGSpec(10, 2, (0.5, 0.0, (K + 1.0) / 2.0, 1.0),
                       (0.0, (a - 1) / 2, (a - 1) / 2, a / 2, a / 2,
                        (b - 1) / 2, (b - 1) / 2, b / 2, b / 2, (K - 1) / 2, -0.5))
    pref = (k.B_s * 2.0 ** (2.0 * a + 2.0 * b - 10.5)
            / (math.pi ** 2.5 * math.sqrt(k.upsilon_1)))
    return spec, pref


# -- reference: sum_n B_n [G(arg(B_n')) - G(arg(B_n''))], one scalar G per term

def _per_point_sum(k, spec, arg) -> float:
    total = 0.0
    for bn, c1, c2 in _sector_scales(k):
        total += bn * (meijer_g_cached(spec.m, spec.n, spec.a_params, spec.b_params, arg(c1))
                       - meijer_g_cached(spec.m, spec.n, spec.a_params, spec.b_params, arg(c2)))
    return total


def _ref_pdf(k, h):
    return k.B_s * _per_point_sum(k, _pdf_spec(k), lambda c: c * h)


def _ref_cdf(k, h):
    return min(1.0, max(0.0, k.B_s * h * _per_point_sum(k, _cdf_spec(k), lambda c: c * h)))


def _ref_ber(k):
    spec, pref = _ber_spec_pref(k)
    return pref * _per_point_sum(k, spec, lambda c: c * c / (128.0 * k.upsilon_1))


# -- oracle: the same sums in mpmath at 30 digits

def _mp_sum(k, spec, p, s) -> float:
    with mpmath.workdps(30):
        a = [list(spec.a_params[:spec.n]), list(spec.a_params[spec.n:])]
        b = [list(spec.b_params[:spec.m]), list(spec.b_params[spec.m:])]

        def g(scale):
            return mpmath.meijerg(a, b, mpmath.mpf(scale) ** p * mpmath.mpf(s))

        return mpmath.fsum(mpmath.mpf(bn) * (g(c1) - g(c2))
                           for bn, c1, c2 in _sector_scales(k))


def _mp_pdf(k, h):
    return float(k.B_s * _mp_sum(k, _pdf_spec(k), 1, h))


def _mp_cdf(k, h):
    return float(k.B_s * h * _mp_sum(k, _cdf_spec(k), 1, h))


def _mp_ber(k):
    spec, pref = _ber_spec_pref(k)
    return float(pref * _mp_sum(k, spec, 2, 1.0 / (128.0 * k.upsilon_1)))


# -- cases

def _fig9_cfg(cn2=1e-14, theta_div=None, p_t=1.0):
    spec = build_recipe("fig9")[0]
    cfg = apply_axis(spec.base, "Pt", p_t).with_(cn2_0=cn2)
    return cfg if theta_div is None else cfg.with_(theta_div=theta_div)


def _strong(cfg):
    return _constants_for(cfg, "strong")[0]


def _outage_h(k, cfg):
    return math.sqrt(cfg.gamma_th / k.upsilon_1)


def _grid80_case():
    """The benchmark's `strong.pdf_grid80` probe: fig8's 2 deg curve on a
    fixed 80-point grid over 20 times the deterministic peak gain."""
    spec = build_recipe("fig8")[0]
    k = _strong(spec.base)
    top = 20.0 * 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2)
    edges = np.linspace(0.0, top, 81)
    return k, 0.5 * (edges[:-1] + edges[1:])


@pytest.fixture(scope="module")
def grid80():
    return _grid80_case()


@pytest.fixture(scope="module")
def k6():
    """test_strong's k6: 6 deg orientation jitter at Cn2 5e-14 and 0.1 W."""
    return _strong(LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                              sigma_theta_o=6.0 * math.pi / 180.0, cn2_0=5e-14, P_t=0.1,
                              A_r=1e-4))


class TestAgainstMpmath:
    """Cn2 1e-14, 5e-14 and 1e-13 span the recipes' Gamma-Gamma shapes;
    theta_div 0.1, 0.4 and 2 mrad give K = 1, 16 and 400, the strong
    optimizer's bracket and fig9; fig8 has K = 19.8."""

    def test_fig9_outage(self):
        # the per-point sum is 2.3e-10 off here
        cfg = _fig9_cfg()
        k = _strong(cfg)
        want = _mp_cdf(k, _outage_h(k, cfg))
        assert want == pytest.approx(1.460160357452659e-05, rel=1e-13, abs=0)
        assert k.outage(cfg.gamma_th) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.fixture(scope="class")
    def near_cancel(self):
        """fig9's link at Cn2 1e-14, theta_div 0.2264 mrad and 1 W, where the
        sector sums are 1e-8 of their largest term and a total of separately
        rounded sector terms is 1e-8 to 1e-6 off."""
        cfg = _fig9_cfg(1e-14, 0.2264e-3, 1.0)
        return cfg, _strong(cfg)

    def test_near_cancel_outage(self, near_cancel):
        cfg, k = near_cancel
        want = _mp_cdf(k, _outage_h(k, cfg))
        assert k.outage(cfg.gamma_th) == pytest.approx(want, rel=1e-12, abs=0)

    def test_near_cancel_ber(self, near_cancel):
        _, k = near_cancel
        assert strong.ber_strong(k) == pytest.approx(_mp_ber(k), rel=1e-12, abs=0)

    @pytest.mark.parametrize("h", [1.5e-7, 5e-7])
    def test_near_cancel_pdf_lower_tail(self, near_cancel, h):
        _, k = near_cancel
        assert strong.pdf_h_strong(h, k) == pytest.approx(_mp_pdf(k, h), rel=1e-12, abs=0)

    @pytest.mark.parametrize("cn2,theta_div", [(5e-14, 0.1e-3), (1e-13, 2e-3)])
    def test_cdf(self, cn2, theta_div):
        cfg = _fig9_cfg(cn2, theta_div)
        k = _strong(cfg)
        h = _outage_h(k, cfg)
        assert strong.cdf_h_strong(h, k) == pytest.approx(_mp_cdf(k, h), rel=1e-10, abs=0)

    @pytest.mark.parametrize("cn2,theta_div", [(1e-14, 0.4e-3), (5e-14, 2e-3), (1e-13, 0.1e-3)])
    def test_ber(self, cn2, theta_div):
        k = _strong(_fig9_cfg(cn2, theta_div))
        assert strong.ber_strong(k) == pytest.approx(_mp_ber(k), rel=1e-10, abs=0)

    def test_fig8_pdf(self):
        for spec in build_recipe("fig8"):
            k = _strong(spec.base)
            top = 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2)
            hs = (top * 0.05, top * 3) if spec.label.startswith("sigma_o=2") else (top * 0.5,)
            for h in hs:
                assert strong.pdf_h_strong(h, k) == pytest.approx(_mp_pdf(k, h), rel=1e-10, abs=0)


class TestAgainstPerPointSum:
    def test_grid80_pdf_and_cdf(self, grid80):
        k, h = grid80
        np.testing.assert_allclose(strong.pdf_h_strong(h, k),
                                   [_ref_pdf(k, x) for x in h], rtol=1e-9, atol=0)
        np.testing.assert_allclose(strong.cdf_h_strong(h, k),
                                   [_ref_cdf(k, x) for x in h], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("recipe", ["fig9", "fig10"])
    def test_outage_grids(self, recipe):
        for spec in build_recipe(recipe):
            for p_t in spec.grid:
                cfg = apply_axis(spec.base, spec.sweep_axis, p_t)
                k = _strong(cfg)
                want = _ref_cdf(k, _outage_h(k, cfg))
                got = k.outage(cfg.gamma_th)
                assert got == pytest.approx(want, rel=1e-9, abs=0), (spec.label, p_t)

    def test_k6_ber(self, k6):
        assert strong.ber_strong(k6) == pytest.approx(_ref_ber(k6), rel=1e-9, abs=0)


class TestArrayContract:
    @pytest.mark.parametrize("fn", [strong.pdf_h_strong, strong.cdf_h_strong,
                                    strong.pdf_h_strong_simple, strong.cdf_h_strong_simple])
    def test_array_equals_elementwise_scalars(self, grid80, fn):
        k, h = grid80
        whole = fn(h, k)
        single = [fn(float(x), k) for x in h]
        assert all(type(v) is float for v in single)
        assert np.array_equal(whole, single)

    @pytest.mark.parametrize("fn", [strong.pdf_h_strong, strong.cdf_h_strong,
                                    strong.pdf_h_strong_simple, strong.cdf_h_strong_simple])
    def test_nonpositive_and_shape(self, grid80, fn):
        k, h = grid80
        assert fn(0.0, k) == 0.0 and fn(-1.0, k) == 0.0
        out = fn(np.array([-h[3], 0.0, h[3], np.nan]), k)
        assert out[0] == out[1] == out[3] == 0.0
        assert out[2] == fn(h[3], k) > 0.0

    def test_cdf_clipped(self, grid80):
        k, h = grid80
        v = strong.cdf_h_strong(np.concatenate([h, h[-1] * np.geomspace(2, 1e3, 5)]), k)
        assert np.all((v >= 0.0) & (v <= 1.0))


class TestWork:
    """Deterministic work guard: loggamma-sum evaluations, not time."""

    @pytest.fixture
    def chi_calls(self, monkeypatch):
        specfun._meijer_cached.cache_clear()
        calls = [0]
        real = specfun._chi_log

        def counting(t, spec):
            calls[0] += 1
            return real(t, spec)

        monkeypatch.setattr(specfun, "_chi_log", counting)
        return calls

    def test_grid80_pdf(self, grid80, chi_calls):
        k, h = grid80
        strong.pdf_h_strong(h, k)
        assert chi_calls[0] <= 40  # per-point sum: 15,001; minimize_scalar abscissa: 118

    def test_scalar_cdf(self, grid80, chi_calls):
        k, h = grid80
        strong.cdf_h_strong(h[10], k)
        assert chi_calls[0] <= 8  # per-point sum: 136; minimize_scalar abscissa: 14

    def test_scalar_ber(self, grid80, chi_calls):
        k, _ = grid80
        strong.ber_strong(k)
        assert chi_calls[0] <= 8  # per-point sum: 123; minimize_scalar abscissa: 15


# -- the strong cells of a heatmap as one batch (`strong.metric_batch`)

_MAP_CFG = LinkConfig(cn2_0=1e-13)   # the benchmark's heatmap-strong link
_MAP_SE = np.linspace(50e-6, 400e-6, 8)
_MAP_WZ = np.linspace(0.1, 2.0, 20)


def _map_cell(i, j):
    cfg = apply_axis(_MAP_CFG, "w_z", float(_MAP_WZ[j])).with_(sigma_theta_e=float(_MAP_SE[i]))
    k, stats = _constants_for(cfg, None)
    assert stats.regime is Regime.MODERATE_TO_STRONG
    return cfg, k


@pytest.fixture(scope="module")
def strong_maps():
    return {metric: heatmap(_MAP_CFG, _MAP_SE, _MAP_WZ, metric=metric)
            for metric in ("outage", "ber")}


class TestHeatmapBatch:
    """One Mellin-Barnes batch for every strong cell: each cell is one row
    at its own argument and pointing pair, over the shared sector intervals."""

    @pytest.mark.parametrize("metric", ["outage", "ber"])
    def test_every_cell_matches_standalone(self, strong_maps, metric):
        mat, errors = strong_maps[metric]
        assert errors == []
        want = [[_design_metric(_map_cell(i, j)[0], metric, None) for j in range(len(_MAP_WZ))]
                for i in range(len(_MAP_SE))]
        np.testing.assert_allclose(mat, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("i,j", [(7, 0), (1, 4), (2, 9)])
    def test_outage_against_mpmath(self, strong_maps, i, j):
        # (7, 0) is the w_z = 0.1 m column at 400 urad: K = 0.0625 < 1 puts
        # the pointing pole K - 1 left of 0
        cfg, k = _map_cell(i, j)
        want = _mp_cdf(k, _outage_h(k, cfg))
        assert strong_maps["outage"][0][i, j] == pytest.approx(want, rel=1e-10, abs=0)

    def test_ber_against_mpmath_below_unit_k(self, strong_maps):
        _, k = _map_cell(7, 0)
        assert k.K == pytest.approx(0.0625)
        assert strong_maps["ber"][0][7, 0] == pytest.approx(_mp_ber(k), rel=1e-10, abs=0)

    @pytest.mark.parametrize("metric", ["outage", "ber"])
    def test_one_integration_per_ln_bucket(self, monkeypatch, metric):
        calls = []
        real = specfun._mb_sum
        monkeypatch.setattr(specfun, "_mb_sum",
                            lambda *a, **kw: calls.append(len(a[6])) or real(*a, **kw))
        mat, errors = heatmap(_MAP_CFG, _MAP_SE, _MAP_WZ, metric=metric)
        assert errors == [] and np.isfinite(mat).all()
        buckets = set()
        for i in range(len(_MAP_SE)):
            for j in range(len(_MAP_WZ)):
                cfg, k = _map_cell(i, j)
                s = (_outage_h(k, cfg) * k.scale if metric == "outage"
                     else k.scale ** 2 / (128.0 * k.upsilon_1))
                buckets.add(math.floor(math.log(s)))
        assert len(calls) == len(buckets) < mat.size
        assert sum(calls) == mat.size

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("metric", ["outage", "ber"])
    def test_failing_row_leaves_the_others(self, strong_maps, monkeypatch, metric):
        # the row of cell (6, 10) integrates to nan; its bucket's other rows
        # and every other bucket are untouched.  K goes with w_z / sigma_e,
        # 11/7 of the grid steps here, which no other cell has.
        _, k = _map_cell(6, 10)
        bad_pole = k.K - 1.0 if metric == "outage" else (k.K - 1.0) / 2.0
        real = specfun._pole_factor
        monkeypatch.setattr(specfun, "_pole_factor", lambda pole, c, t: np.where(
            pole == bad_pole, np.nan, real(pole, c, t)))
        mat, errors = heatmap(_MAP_CFG, _MAP_SE, _MAP_WZ, metric=metric)
        want, _ = strong_maps[metric]
        others = np.ones(mat.shape, dtype=bool)
        others[6, 10] = False
        assert np.array_equal(mat[others], want[others])
        if metric == "outage":
            assert np.isnan(mat[6, 10])
            assert errors == [f"sigma_e={_MAP_SE[6] * 1e6:g}urad w_z={_MAP_WZ[10]:g}m: analytic "
                              "outage failed: Mellin-Barnes integral returned non-finite value"]
        else:   # the BER row takes ber_strong's quadrature fallback
            assert errors == []
            assert mat[6, 10] == strong._ber_strong_quadrature(k)

    def test_failed_batch_evaluates_each_cell(self, monkeypatch):
        import mrrlink.experiments as experiments
        from mrrlink.errors import NonConvergentError

        def failing(*args):
            raise NonConvergentError("injected")

        se, wz = _MAP_SE[::3], _MAP_WZ[::7]
        monkeypatch.setattr(experiments, "metric_batch", failing)
        mat, errors = heatmap(_MAP_CFG, se, wz)
        assert errors == []
        want = [[_design_metric(apply_axis(_MAP_CFG, "w_z", float(w))
                                .with_(sigma_theta_e=float(s)), "outage", None) for w in wz]
                for s in se]
        assert np.array_equal(mat, want)

    def test_models_must_share_the_channel(self):
        k1 = _map_cell(0, 0)[1]
        k2 = _strong(_MAP_CFG.with_(cn2_0=5e-14))
        with pytest.raises(ValueError, match="share alpha, beta"):
            strong.metric_batch([k1, k2], "outage", _MAP_CFG.gamma_th)
