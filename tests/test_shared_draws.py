"""Draw-once Monte-Carlo and batched outage: a transmit-power curve draws
its channel once, a curve on any other axis draws its grid points in one
stream pass, curves that share (seed, n_samples) share that pass, a
jitter grid draws its tilt normals once, and a curve evaluates
each analytic outage or BER in one call.  The outputs are the
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


@pytest.fixture
def mb_orders(monkeypatch):
    """(m, n, number of arguments) of each strong `meijer_g_sum` call made."""
    orders = []
    real = strong.meijer_g_sum

    def recording(spec, weights, lo, hi, p, s, pole=None):
        orders.append((spec.m, spec.n, np.size(s)))
        return real(spec, weights, lo, hi, p, s, pole=pole)

    monkeypatch.setattr(strong, "meijer_g_sum", recording)
    return orders


class TestChannelDrawPerCurve:
    @FADINGS
    def test_pt_sweep_draws_once(self, passes, cfg, regime):
        spec = ExperimentSpec(cfg, "Pt", PT_GRID, metrics=("outage", "ber"),
                              engines=("montecarlo",), regime=regime, n_samples=N, seed=7)
        res = run_experiment(spec)
        assert len(passes) == 1
        assert passes[0].P_t == PT_GRID[0]
        assert [r["sweep_value"] for r in res.rows] == [v for v in PT_GRID for _ in range(2)]

    def test_jitter_sweep_draws_in_one_pass(self, passes, monkeypatch):
        # the orientation jitter moves h: each grid point has a plan of its
        # own, and the curve draws them all in one pass
        drawn = []
        monkeypatch.setattr(experiments, "draw_channel",
                            lambda *plans: drawn.append(plans) or draw_channel(*plans))
        grid = tuple(d * DEG for d in (2.0, 5.0, 8.0))
        spec = ExperimentSpec(base_cfg(), "sigma_theta_o", grid, metrics=("outage",),
                              engines=("montecarlo",), regime="weak", n_samples=N, seed=7)
        run_experiment(spec)
        assert len(passes) == 1
        assert [[p.cfg.sigma_theta_o for p in plans] for plans in drawn] == [list(grid)]

    def test_point_with_shared_draw_makes_no_pass(self, passes):
        # a grid point given its curve's h draws nothing itself
        spec = ExperimentSpec(base_cfg(), "Pt", PT_GRID, metrics=("outage",),
                              engines=("montecarlo",), regime="weak", n_samples=1_000)
        plans = experiments._curve_plan(
            spec, [experiments._point_model(spec, v) for v in PT_GRID])
        assert all(p is plans[0] for p in plans)
        h = draw_channel(plans[0])
        assert len(passes) == 1
        rows, _, _ = experiments._grid_point_rows(spec, PT_GRID[2], h,
                                                  experiments._point_model(spec, PT_GRID[2]), {})
        assert len(passes) == 1 and len(rows) == 1

    @pytest.mark.parametrize("cfg,regime,axis", [
        (cfg, regime, axis) for axis in ("Pt", "sigma_theta_o", "Cn2")
        for cfg, regime in ((base_cfg(), "weak"), (base_cfg(cn2_0=1e-13), "strong"))
    ], ids=["lognormal", "gammagamma", "lognormal-sigma_o", "gammagamma-sigma_o",
            "lognormal-Cn2", "gammagamma-Cn2"])
    def test_rows_equal_per_point_draw(self, cfg, regime, axis, monkeypatch):
        # sigma_o moves the mirror tilts of each point, Cn2 its fading
        snr = []   # the gamma array each point hands to the estimators
        original = experiments.mc_ber
        monkeypatch.setattr(experiments, "mc_ber", lambda g: snr.append(g) or original(g))
        grid = {"Pt": PT_GRID, "sigma_theta_o": tuple(d * DEG for d in (2.0, 5.0, 8.0)),
                "Cn2": (cfg.cn2_0 / 2, cfg.cn2_0, 2 * cfg.cn2_0)}[axis]
        spec = ExperimentSpec(cfg, axis, grid, metrics=("outage", "ber"),
                              engines=("montecarlo",), regime=regime, n_samples=N, seed=7)
        rows = run_experiment(spec).rows
        for i, value in enumerate(grid):
            point = apply_axis(cfg, axis, value)
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

    def test_strong_jitter_curve_evaluates_each_metric_in_one_call(self, mb_orders):
        # the tracking jitter moves K alone, so the grid points share alpha,
        # beta and the sectors: one Mellin-Barnes call per metric, each point
        # within the quadrature tolerance of its standalone value
        cfg = base_cfg(sigma_theta_o=6 * DEG, cn2_0=1e-13)   # the mc-oracle run's link
        grid = tuple(np.linspace(50e-6, 400e-6, 8))
        spec = ExperimentSpec(cfg, "sigma_theta_e", grid, metrics=("outage", "ber"),
                              engines=("analytic",))
        res = run_experiment(spec)
        assert not res.errors and len(res.rows) == 2 * len(grid)
        assert mb_orders == [(4, 1, len(grid)), (8, 2, len(grid))]
        for row in res.rows:
            point = apply_axis(cfg, "sigma_theta_e", row["sweep_value"])
            want = experiments._design_metric(point, row["metric"], None)
            assert row["value"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_strong_pt_run_evaluates_its_ber_in_one_call(self, mb_orders, tmp_path, capsys):
        # the benchmark's Gamma-Gamma run: its outage and its BER are one
        # call each over the whole P_t grid
        cfg = tmp_path / "gammagamma.cfg"
        cfg.write_text("Z = 1000 m\nw_z = 40 cm\nsigma_theta_o = 6 deg\n"
                       "sigma_theta_e = 100 urad\nCn2 = 1e-13\nsweep = Pt\n"
                       "grid = 0:30:4 dBm\nmetrics = outage, ber\n"
                       "engines = analytic, montecarlo\nsamples = 2000\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "run.csv")]) in (0, 2)
        assert mb_orders == [(4, 1, 4), (8, 2, 4)]

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
    """sha256 of outputs (numpy 2.4, x86-64 Linux); each draw crosses a
    block boundary.  The Monte-Carlo digests were recorded with stream
    contract v3, one channel draw per grid point and one tilt draw per
    jitter, and the recipe and `run` digests (CSV then sidecar) with one
    stream pass per curve and one outage evaluation per grid point.  Sharing
    the draws and the outage call must not move a byte."""

    @pytest.mark.parametrize("cfg,regime,want", [
        (base_cfg(), "weak", "9d87ed1f634c6a2fc4a8395d89a3f677af11e4807312528ad62141bb525a1958"),
        (base_cfg(cn2_0=1e-13), "strong",
         "40891bf2ad415f285d70277982d7f814423e6a8a06336053c1188f4ea44a7889"),
        # 2.5 deg lies between rows of both reflection tables: interpolated values
        (base_cfg(sigma_theta_o=2.5 * DEG), "weak",
         "572ba083d8532dd9db01ac0a82e1f07af3af9115f41064f5c349aa524365ac0a"),
        (base_cfg(sigma_theta_o=2.5 * DEG, cn2_0=1e-13), "strong",
         "4b1bd942be824c2dd3f0e4ae33d3a49fd70d4561ec6bd5915249c0c4a2c9293f"),
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
            "6dd56af037e6b489b66adc4ea5b9eeae48433133fed81a23eac85e9ead305fe5")

    def test_fig13(self, tmp_path, capsys):
        out = tmp_path / "fig13.csv"
        assert main(["recipe", "fig13", "--samples", "65537", "--seed", "7",
                     "--out", str(out)]) == 0
        assert digest(out.read_bytes()) == (
            "fa3cf971cab4a41caa30b8562a4672482f6d1a42c9604c2607c7c46724e6cf10")

    @pytest.mark.parametrize("argv,code,want", [
        (["recipe", "fig7", "--samples", "70000", "--seed", "7"], 2,
         "235f6c3b7108b151cbd2438d1e7436101fde043d56e2829854b57e483c137fd7"),
        (["recipe", "fig8", "--samples", "70000", "--seed", "7"], 0,
         "f18aed4e4400891c13950a1332402baaa8e4d2442a586650302e474082f10d3a"),
        (["recipe", "fig8", "--samples", "70000", "--seed", "7", "--workers", "2"], 0,
         "f18aed4e4400891c13950a1332402baaa8e4d2442a586650302e474082f10d3a"),
        (["recipe", "fig9"], 0,
         "3077b93e04eaef23ff503b7f21c1cd80cd86ecec5ab9ffd3e9ffb7e758175d6b"),
        (["recipe", "fig10"], 0,
         "1368231c110bf7fb085cad30eb727d1a6bbef10fe63d48e34b10cc2519af418f"),
    ], ids=["fig7", "fig8", "fig8-workers2", "fig9", "fig10"])
    def test_recipe(self, tmp_path, capsys, argv, code, want):
        out = tmp_path / "recipe.csv"
        assert main([*argv, "--out", str(out)]) == code
        assert digest(out.read_bytes(), (tmp_path / "recipe.csv.json").read_bytes()) == want

    @pytest.mark.parametrize("cfg,axis,grid,regime,want", [
        (base_cfg(), "sigma_theta_o", tuple(d * DEG for d in (2.0, 5.0, 8.0)), "weak",
         "ff9e703427df1b0df55f0435381e8f319ba00d7f3759b7a6724d6627a1622a11"),
        # sigma_e = 0 has no closed form: an analytic error, Monte-Carlo rows kept
        (base_cfg(cn2_0=1e-13), "sigma_theta_e", (0.0, 100e-6, 300e-6), "strong",
         "4a06589f94de98b88b5639a684f4a352a6a25bcb455f9f9eb9e64a53eb5c2920"),
        # Cn2 moves alpha and beta, so each point has fading of its own
        (base_cfg(), "Cn2", (5e-14, 1e-13, 3e-13), "strong",
         "9cb84dfc6fcdae7f2faf68424f3af74301bd0c7cbe1b6e15330b0e792ba48cc2"),
    ], ids=["lognormal-sigma_o", "gammagamma-sigma_e", "strong-Cn2"])
    def test_mc_sweep_csv(self, tmp_path, cfg, axis, grid, regime, want):
        # axes other than P_t move h: every grid point has a draw of its own
        spec = ExperimentSpec(cfg, axis, grid, metrics=("outage", "ber", "pdf_h", "cdf_snr"),
                              engines=("analytic", "montecarlo"), regime=regime,
                              n_samples=N, seed=7, bins=20)
        res = run_experiment(spec)
        path = tmp_path / "sweep.csv"
        write_outputs(res.rows, str(path), {"flags": res.flags, "errors": res.errors})
        assert digest(path.read_bytes(), (tmp_path / "sweep.csv.json").read_bytes()) == want

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
            "6cfc95dadd11e95ea7810f5737c1c7ddbd2eee632857ce288353b9c72ece6dd4")
