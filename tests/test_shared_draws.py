"""Draw-once Monte-Carlo and batched outage: a transmit-power curve draws
its channel once, curves that share (seed, n_samples) share one stream
pass, a jitter grid draws its tilt normals once, and a transmit-power
curve evaluates its analytic outage in one call.  The outputs are the
bytes of one draw and one evaluation per grid point and per jitter;
`TestPinnedOutputs` pins them."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import mrrlink.experiments as experiments
import mrrlink.montecarlo as montecarlo
import mrrlink.strong as strong
from mrrlink.channel import LinkConfig, turbulence_stats, upsilon_1
from mrrlink.cli import main
from mrrlink.errors import NonConvergentError
from mrrlink.experiments import (
    ExperimentSpec,
    apply_axis,
    run_experiment,
    run_experiments,
    write_outputs,
)
from mrrlink.montecarlo import BLOCK, SimPlan, draw_channel, mc_ber, mc_outage
from mrrlink.recipes import build_fig13_rows, build_recipe

DEG = math.pi / 180.0
N = BLOCK + 5_000
PT_GRID = tuple(10 ** (p / 10) / 1000 for p in (0.0, 10.0, 20.0, 30.0))


def base_cfg(**kw) -> LinkConfig:
    d = dict(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
             sigma_theta_o=5 * DEG, cn2_0=5e-15)
    d.update(kw)
    return LinkConfig(**d)


# Cn2 = 1e-13 puts the Rytov variance near 2: Gamma-Gamma fading
FADINGS = pytest.mark.parametrize("cfg,regime", [(base_cfg(), "weak"),
                                                 (base_cfg(cn2_0=1e-13), "strong")],
                                  ids=["lognormal", "gammagamma"])


def digest(*blobs) -> str:
    return hashlib.sha256(b"".join(blobs)).hexdigest()


@pytest.fixture
def passes(monkeypatch):
    """The config of each `montecarlo.sample_channel` pass made (its first plan's)."""
    cfgs = []
    original = montecarlo.sample_channel

    def counting(plan, *more, **kw):
        cfgs.append(plan.cfg)
        return original(plan, *more, **kw)

    monkeypatch.setattr(montecarlo, "sample_channel", counting)
    return cfgs


class TestChannelDrawPerCurve:
    @FADINGS
    def test_pt_sweep_draws_once(self, passes, cfg, regime):
        spec = ExperimentSpec(cfg, "Pt", PT_GRID, metrics=("outage", "ber"),
                              engines=("montecarlo",), regime=regime, n_samples=N, seed=7)
        res = run_experiment(spec)
        assert len(passes) == 1
        assert passes[0].P_t == PT_GRID[0]
        assert [r["sweep_value"] for r in res.rows] == [v for v in PT_GRID for _ in range(2)]

    def test_jitter_sweep_draws_per_point(self, passes):
        grid = tuple(d * DEG for d in (2.0, 5.0, 8.0))
        spec = ExperimentSpec(base_cfg(), "sigma_theta_o", grid, metrics=("outage",),
                              engines=("montecarlo",), regime="weak", n_samples=N, seed=7)
        run_experiment(spec)
        assert [c.sigma_theta_o for c in passes] == list(grid)

    def test_point_with_shared_draw_makes_no_pass(self, passes):
        # what each pool task runs when --workers > 1
        spec = ExperimentSpec(base_cfg(), "Pt", PT_GRID, metrics=("outage",),
                              engines=("montecarlo",), regime="weak", n_samples=1_000)
        h = draw_channel(experiments._curve_plan(spec))
        assert len(passes) == 1
        rows, _, _ = experiments._grid_point_rows(spec, PT_GRID[2], h)
        assert len(passes) == 1 and len(rows) == 1

    @FADINGS
    def test_rows_equal_per_point_draw(self, cfg, regime, monkeypatch):
        snr = []   # the gamma array each point hands to the estimators
        original = experiments.mc_ber
        monkeypatch.setattr(experiments, "mc_ber", lambda g: snr.append(g) or original(g))
        spec = ExperimentSpec(cfg, "Pt", PT_GRID, metrics=("outage", "ber"),
                              engines=("montecarlo",), regime=regime, n_samples=N, seed=7)
        rows = run_experiment(spec).rows
        for i, pt in enumerate(PT_GRID):
            point = apply_axis(cfg, "Pt", pt)
            h = draw_channel(SimPlan(point, n_samples=N, seed=7,
                                     stats=turbulence_stats(point, regime=regime)))
            gamma = upsilon_1(point) * h * h
            assert np.array_equal(snr[i], gamma)   # bit for bit, not just the CSV digits
            outage, ber = rows[2 * i:2 * i + 2]
            assert outage["metric"] == "outage" and ber["metric"] == "ber"
            want = mc_outage(gamma, point.gamma_th)
            assert (outage["value"], outage["ci_low"], outage["ci_high"]) == want[:3]
            want = mc_ber(gamma)
            assert (ber["value"], ber["ci_low"], ber["ci_high"]) == want[:3]


class TestOnePassPerRecipe:
    def test_fig8_draws_its_two_curves_in_one_pass(self, block_rows, tmp_path, capsys):
        out = tmp_path / "fig8.csv"
        assert main(["recipe", "fig8", "--samples", "70000", "--out", str(out)]) == 0
        assert block_rows == [BLOCK, 70_000 - BLOCK]   # not twice

    def test_curves_share_a_pass_only_with_seed_and_samples(self, passes):
        def curve(seed, n, deg):
            return ExperimentSpec(base_cfg(sigma_theta_o=deg * DEG), "Pt", PT_GRID[:2],
                                  metrics=("outage", "ber"), engines=("montecarlo",),
                                  regime="weak", n_samples=n, seed=seed)

        specs = [curve(7, N, 2.0), curve(8, N, 2.0), curve(7, N, 8.0), curve(7, 1_000, 5.0)]
        results = run_experiments(specs)
        assert [c.sigma_theta_o for c in passes] == [2.0 * DEG, 2.0 * DEG, 5.0 * DEG]
        passes.clear()
        for spec, res in zip(specs, results):   # the rows of each curve drawn alone
            assert res.rows == run_experiment(spec).rows
        assert len(passes) == len(specs)

    def test_failed_group_draw_is_recorded_at_every_point(self, monkeypatch):
        # fig7's two curves share one draw; when it raises, each of their
        # points records it once and keeps the rows of an analytic-only run
        calls = []

        def failing(*plans):
            calls.append(len(plans))
            raise ValueError("injected")

        specs = [dataclasses.replace(s, n_samples=1_000) for s in build_recipe("fig7")]
        want = [res.rows for res in run_experiments(
            [dataclasses.replace(s, engines=("analytic",)) for s in specs])]
        monkeypatch.setattr(experiments, "draw_channel", failing)
        results = run_experiments(specs)
        assert calls == [2]
        for spec, res, rows in zip(specs, results, want):
            assert res.errors == [f"Pt={v:g}: montecarlo channel failed: injected"
                                  for v in spec.grid]
            assert res.rows == rows and res.flags == []

    def test_curves_draw_just_before_they_are_evaluated(self, monkeypatch):
        # a group draws in one call before its first curve, and so does a
        # lone curve, so no h waits while curves that do not share it run
        events = []
        original = experiments._grid_point_rows

        def point(spec, value, *rest):
            events.append(("point", spec.seed))
            return original(spec, value, *rest)

        def curve(seed):
            return ExperimentSpec(base_cfg(), "Pt", PT_GRID[:1], metrics=("outage",),
                                  engines=("montecarlo",), regime="weak",
                                  n_samples=1_000, seed=seed)

        monkeypatch.setattr(experiments, "_grid_point_rows", point)
        monkeypatch.setattr(experiments, "draw_channel", lambda *plans: events.append(
            ("draw", [p.seed for p in plans])) or draw_channel(*plans))
        run_experiments([curve(1), curve(2), curve(1)])
        assert events == [("draw", [1, 1]), ("point", 1), ("draw", [2]), ("point", 2),
                          ("point", 1)]

    def test_fig9_curve_evaluates_outage_in_one_call(self, monkeypatch):
        orders = []
        real = strong.meijer_g_sum

        def recording(spec, weights, lo, hi, p, s, pole=None):
            orders.append((spec.m, spec.n, np.size(s)))
            return real(spec, weights, lo, hi, p, s, pole=pole)

        monkeypatch.setattr(strong, "meijer_g_sum", recording)
        spec = build_recipe("fig9")[0]
        res = run_experiment(spec)
        assert not res.errors and len(res.rows) == len(spec.grid)
        assert orders == [(4, 1, len(spec.grid))]   # the CDF order, every P_t at once

    def test_failed_batch_falls_back_to_points(self, monkeypatch):
        spec = build_recipe("fig9")[0]
        want = run_experiment(spec).rows
        calls = []
        real = strong.meijer_g_sum

        def failing(spec_, weights, lo, hi, p, s, pole=None):
            calls.append(np.size(s))
            if np.size(s) > 1 or len(calls) == 4:   # the curve's call, then its third point
                raise NonConvergentError("injected")
            return real(spec_, weights, lo, hi, p, s, pole=pole)

        monkeypatch.setattr(strong, "meijer_g_sum", failing)
        res = run_experiment(spec)
        assert calls == [len(spec.grid)] + [1] * len(spec.grid)
        assert res.errors == [f"Pt={spec.grid[2]:g}: analytic outage failed: injected"]
        assert res.rows == want[:2] + want[3:]


class TestFig13:
    def test_draws_tilt_normals_once(self, block_rows):
        rows = build_fig13_rows(seed=7, n_samples=N)
        assert block_rows == [BLOCK, 5_000]   # three jitters, one draw
        assert len(rows) == 3 * 2 * 60

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            build_fig13_rows(seed=0, n_samples=n)


class TestPinnedOutputs:
    """sha256 of outputs recorded with one channel draw per grid point and
    one tilt draw per jitter (numpy 2.4, x86-64 Linux); each draw crosses a
    block boundary.  The recipe and `run` digests (CSV then sidecar) were
    recorded with one stream pass per curve and one outage evaluation per
    grid point.  Sharing the draws and the outage call must not move a byte."""

    @pytest.mark.parametrize("cfg,regime,want", [
        # weak re-recorded with the weak CDF's second Q term standing alone:
        # six analytic cdf_snr rows near saturation moved by 3e-14, e.g.
        # 0.9998897228534999 -> ...5298 (mpmath ...52987), which prints
        # 0.999889722853 instead of ...854
        (base_cfg(), "weak", "19ba9f4d7b9b52555cbff5121dc18f82a54169826dcbb9ea94e58dc461480096"),
        (base_cfg(cn2_0=1e-13), "strong",
         "7dc33b8c7427d834d577c9466a7cb1346366a5685b72a8c48d2f21d34db2990d"),
        # 2.5 deg lies between rows of both reflection tables: interpolated values
        (base_cfg(sigma_theta_o=2.5 * DEG), "weak",
         "70a79a4c6f6faf57f0021bc71c9083e665a073c5b7556c52071a0ced6a5505e5"),
        (base_cfg(sigma_theta_o=2.5 * DEG, cn2_0=1e-13), "strong",
         "db37f57a62a2a564dc569ab1636a7b008401c98e30f50be6218e923ee48a7164"),
    ], ids=["weak", "strong", "weak-2.5deg", "strong-2.5deg"])
    def test_pt_sweep_csv(self, tmp_path, cfg, regime, want):
        grid = tuple(10 ** (p / 10) / 1000 for p in (0.0, 15.0, 30.0))
        spec = ExperimentSpec(cfg, "Pt", grid, metrics=("outage", "ber", "pdf_h", "cdf_snr"),
                              engines=("analytic", "montecarlo"), regime=regime,
                              n_samples=N, seed=7, bins=20)
        res = run_experiment(spec)
        assert not res.errors
        path = tmp_path / "sweep.csv"
        write_outputs(res.rows, str(path), {})
        assert digest(path.read_bytes()) == want

    def test_mc_tables(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["mc-tables", "--samples", "70000", "--seed", "7", "--out", str(out)]) == 0
        assert digest((tmp_path / "tables_moments.csv").read_bytes(),
                      (tmp_path / "tables_sectors.csv").read_bytes()) == (
            "b887c5e1ca67a771f99655a9a37e9ef768e53c7ebc20185f5be83fa027f5fd49")

    def test_fig13(self, tmp_path, capsys):
        out = tmp_path / "fig13.csv"
        assert main(["recipe", "fig13", "--samples", "65537", "--seed", "7",
                     "--out", str(out)]) == 0
        assert digest(out.read_bytes()) == (
            "462c529e012750f74a3e3d83fb65e12393e1ac0af12d4450c9ba9b3689a0d5a3")

    @pytest.mark.parametrize("argv,code,want", [
        # fig7 re-recorded with the weak CDF's second Q term standing alone:
        # eight analytic cdf_h/cdf_snr rows moved by up to 4.5e-14, each now
        # within 7e-15 of 40-digit mpmath; e.g. the 2 deg cdf_h at h =
        # 2.745e-5 went 0.9581931715704612 -> ...5014 (mpmath ...50156)
        (["recipe", "fig7", "--samples", "70000", "--seed", "7"], 2,
         "2220e44a1e47ec68d3dbcc0e292af8d0c52f64dfffb5bcbb74c969f890e98e50"),
        # fig8 re-recorded with the pointing exponent as a pole: two cells
        # on a 12-digit rounding boundary moved, each within 4e-15 of 30-digit
        # mpmath before and after.  The 2 deg analytic pdf_h at h = 2.9849e-6
        # went 77214.81490224967 -> ...5015 (mpmath ...4985), which prints
        # 77214.8149023 instead of ...022; the 8 deg cdf_h at h = 2.7127e-4
        # went 0.9999208819024988 -> ...5002 (mpmath ...4998), which prints
        # 0.999920881903 instead of ...902
        (["recipe", "fig8", "--samples", "70000", "--seed", "7"], 0,
         "4263ce0e26dfd88f9eeef720dc8feb0e399baf9d3ede5b5956966ee64eb2f129"),
        (["recipe", "fig8", "--samples", "70000", "--seed", "7", "--workers", "2"], 0,
         "4263ce0e26dfd88f9eeef720dc8feb0e399baf9d3ede5b5956966ee64eb2f129"),
        (["recipe", "fig9"], 0,
         "3077b93e04eaef23ff503b7f21c1cd80cd86ecec5ab9ffd3e9ffb7e758175d6b"),
        (["recipe", "fig10"], 0,
         "1368231c110bf7fb085cad30eb727d1a6bbef10fe63d48e34b10cc2519af418f"),
    ], ids=["fig7", "fig8", "fig8-workers2", "fig9", "fig10"])
    def test_recipe(self, tmp_path, capsys, argv, code, want):
        out = tmp_path / "recipe.csv"
        assert main([*argv, "--out", str(out)]) == code
        assert digest(out.read_bytes(), (tmp_path / "recipe.csv.json").read_bytes()) == want

    def test_strong_pt_run(self, tmp_path, capsys):
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("Z = 1000 m\nw_z = 40 cm\nsigma_theta_o = 5 deg\n"
                       "sigma_theta_e = 100 urad\nCn2 = 1e-13\nsweep = Pt\n"
                       "grid = 0:30:6 dBm\nmetrics = outage, ber\n"
                       "engines = analytic, montecarlo\nregime = strong\n"
                       "samples = 70000\nseed = 7\n")
        out = tmp_path / "run.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert digest(out.read_bytes(), (tmp_path / "run.csv.json").read_bytes()) == (
            "6e0f7701d5997b91be2fee3dfa4cab736e0101421e2c225bbb225eb6b12b7e9b")
