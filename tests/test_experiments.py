"""Experiment runner, optimizer, heatmap and CLI round-trip tests."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mrrlink import channel, mrr
from mrrlink.channel import LinkConfig
from mrrlink.experiments import (
    ExperimentSpec,
    apply_axis,
    golden_section,
    heatmap,
    optimize_divergence,
    run_experiment,
    spec_meta,
    write_outputs,
)
from mrrlink.montecarlo import BLOCK

DEG = math.pi / 180.0


def base_cfg(**kw) -> LinkConfig:
    d = dict(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
             sigma_theta_o=5 * DEG, cn2_0=5e-15)
    d.update(kw)
    return LinkConfig(**d)


@pytest.fixture
def sector_builds():
    """Builds of the strong model's sector table, counted from a cleared memo on."""
    mrr.sector_table.cache_clear()
    return lambda: mrr.sector_table.cache_info().misses


@pytest.fixture
def path_integrations(monkeypatch):
    """Calls of the Rytov path quadrature, counted from a cleared memo on."""
    channel._path_integral.cache_clear()
    calls = []
    quad = channel.quad
    monkeypatch.setattr(channel, "quad", lambda *a, **kw: calls.append(a[1:3]) or quad(*a, **kw))
    return calls


class TestSpecValidation:
    def test_empty_engines_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_cfg(), "Pt", (0.1,), engines=())

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_cfg(), "Pt", (0.1,), metrics=("capacity",))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_cfg(), "Pt", (0.2, 0.1))

    def test_axis_application(self):
        cfg = apply_axis(base_cfg(), "w_z", 0.8)
        assert cfg.theta_div == pytest.approx(0.8e-3)
        cfg = apply_axis(base_cfg(), "Cn2", 1e-13)
        assert cfg.cn2_0 == 1e-13


class TestRunExperiment:
    def test_analytic_outage_sweep(self):
        spec = ExperimentSpec(base_cfg(), "Pt",
                              tuple(10 ** (p / 10) / 1000 for p in (0, 10, 20, 30)),
                              metrics=("outage",), engines=("analytic",), regime="weak")
        res = run_experiment(spec)
        vals = [r["value"] for r in res.rows]
        assert len(vals) == 4
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_both_engines_agree_and_rows_paired(self):
        spec = ExperimentSpec(base_cfg(P_t=0.02), "Pt", (0.02,),
                              metrics=("outage",), engines=("analytic", "montecarlo"),
                              regime="weak", n_samples=200_000, seed=5)
        res = run_experiment(spec)
        engines = {r["engine"] for r in res.rows}
        assert engines == {"analytic", "montecarlo"}

    def test_error_recorded_run_continues(self):
        # sigma_theta_o far outside the sector table: strong constants fail
        spec = ExperimentSpec(base_cfg(sigma_theta_o=0.2 * DEG, cn2_0=1e-13), "Pt",
                              (0.05, 0.1), metrics=("outage",), engines=("analytic",),
                              regime="strong")
        res = run_experiment(spec)
        assert len(res.errors) == 2
        assert res.rows == []

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(base_cfg(), "Pt", (0.1,), regime="medium")

    @pytest.mark.parametrize("field", ["n_samples", "bins"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError):
            ExperimentSpec(base_cfg(), "Pt", (0.1,), **{field: 0})

    def test_mc_fading_follows_spec_regime(self, monkeypatch):
        # Cn2 = 5e-14 is just below Rytov variance 1, where the automatic
        # rule picks log-normal fading; a strong-regime sweep must draw
        # Gamma-Gamma fading, as its analytic side assumes.  One draw
        # feeds every Monte-Carlo metric of the grid point.
        import mrrlink.experiments as experiments
        import mrrlink.montecarlo as montecarlo
        from mrrlink.channel import turbulence_stats
        from mrrlink.montecarlo import FadingModel, SimPlan, draw_channel

        cfg = base_cfg(sigma_theta_o=2 * DEG, sigma_theta_e=90e-6, cn2_0=5e-14)
        assert turbulence_stats(cfg).sigma_R2 < 1.0
        drawn = []
        passes = []
        sample_channel = montecarlo.sample_channel

        def recording(plan):
            drawn.append(draw_channel(plan))
            return drawn[-1]

        def counting(plan, *more, **kw):
            passes.append(plan)
            return sample_channel(plan, *more, **kw)

        monkeypatch.setattr(experiments, "draw_channel", recording)
        monkeypatch.setattr(montecarlo, "sample_channel", counting)
        spec = ExperimentSpec(cfg, "Pt", (cfg.P_t,), metrics=("outage", "ber", "cdf_h"),
                              engines=("montecarlo",), regime="strong",
                              n_samples=20_000, seed=3)
        res = run_experiment(spec)
        assert len(drawn) == 1 and len(passes) == 1
        assert {r["metric"] for r in res.rows} == {"outage", "ber", "cdf_h"}
        monkeypatch.undo()
        want = draw_channel(SimPlan(cfg, n_samples=20_000, seed=3,
                                    fading=FadingModel.GAMMA_GAMMA))
        assert np.array_equal(drawn[0], want)

    def test_distribution_failure_recorded_sweep_continues(self, monkeypatch):
        import mrrlink.weak as weak
        from mrrlink.channel import upsilon_1
        from mrrlink.errors import NonConvergentError

        grid = (0.01, 0.1, 1.0)
        bad = upsilon_1(apply_axis(base_cfg(), "Pt", grid[1]))
        real = weak.pdf_h_weak

        def failing(h, k):
            if k.upsilon_1 == bad:
                raise NonConvergentError("injected")
            return real(h, k)

        monkeypatch.setattr(weak, "pdf_h_weak", failing)
        spec = ExperimentSpec(base_cfg(), "Pt", grid, metrics=("pdf_h", "outage"),
                              engines=("analytic",), regime="weak", bins=10)
        res = run_experiment(spec)
        assert len(res.errors) == 1
        assert "Pt=0.1" in res.errors[0] and "pdf_h" in res.errors[0]
        pdf_points = {r["sweep_value"] for r in res.rows if r["metric"] == "pdf_h"}
        assert pdf_points == {grid[0], grid[2]}
        assert [r["sweep_value"] for r in res.rows if r["metric"] == "outage"] == list(grid)

    def test_strong_density_failure_recorded_per_point(self, monkeypatch):
        import mrrlink.strong as strong
        from mrrlink.errors import NonConvergentError

        real = strong.meijer_g_sum

        def failing(spec, weights, lo, hi, p, s, pole=None):
            if (spec.m, spec.n) == (4, 0):  # the density's order only
                raise NonConvergentError("injected")
            return real(spec, weights, lo, hi, p, s, pole=pole)

        monkeypatch.setattr(strong, "meijer_g_sum", failing)
        grid = (0.01, 0.1, 1.0)
        spec = ExperimentSpec(base_cfg(cn2_0=5e-14), "Pt", grid,
                              metrics=("pdf_h", "cdf_h", "outage"),
                              engines=("analytic",), regime="strong", bins=10)
        res = run_experiment(spec)
        assert len(res.errors) == len(grid)
        for value, error in zip(grid, res.errors):
            assert f"Pt={value:g}" in error and "pdf_h" in error and "injected" in error
        assert not [r for r in res.rows if r["metric"] == "pdf_h"]
        assert [r["sweep_value"] for r in res.rows if r["metric"] == "outage"] == list(grid)
        assert len([r for r in res.rows if r["metric"] == "cdf_h"]) == 10 * len(grid)

    def test_point_evaluates_its_statistics_once(self, monkeypatch):
        # 12 deg lies outside the strong model's sector table: the constants
        # fail after the statistics, and the Monte-Carlo engine still runs
        # from those same statistics
        import mrrlink.experiments as experiments

        calls = []
        real = experiments.turbulence_stats
        monkeypatch.setattr(experiments, "turbulence_stats",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        grid = (90e-6, 100e-6)
        spec = ExperimentSpec(base_cfg(sigma_theta_o=12 * DEG, cn2_0=5e-14), "sigma_theta_e",
                              grid, metrics=("outage",), engines=("analytic", "montecarlo"),
                              regime="strong", n_samples=20_000)
        res = run_experiment(spec)
        assert len(calls) == len(grid)
        assert [e.split(" failed: ")[0] for e in res.errors] == [
            f"sigma_theta_e={v:g}: analytic constants" for v in grid]
        assert all("sector table range" in e for e in res.errors)
        assert [(r["sweep_value"], r["engine"]) for r in res.rows] == [
            (v, "montecarlo") for v in grid]

    @pytest.mark.parametrize("regime,cn2", [("weak", 5e-15), ("strong", 5e-14)])
    def test_zero_tracking_jitter_recorded_mc_rows_kept(self, regime, cn2):
        spec = ExperimentSpec(base_cfg(cn2_0=cn2), "sigma_theta_e", (0.0, 100e-6),
                              metrics=("outage",), engines=("analytic", "montecarlo"),
                              regime=regime, n_samples=20_000)
        res = run_experiment(spec)
        assert len(res.errors) == 1
        assert "sigma_theta_e=0" in res.errors[0] and "sigma_theta_e > 0" in res.errors[0]
        points = {(r["sweep_value"], r["engine"]) for r in res.rows}
        assert points == {(0.0, "montecarlo"), (100e-6, "analytic"), (100e-6, "montecarlo")}

    def run_per_worker_count(self, tmp_path, text):
        """The CSV and sidecar bytes of `mrrlink run` on config `text` with
        --workers 1 and 2."""
        from mrrlink.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        outs = {}
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.csv"
            assert main(["run", str(cfg), "--workers", workers, "--out", str(path)]) == 0
            outs[workers] = path.read_bytes(), Path(f"{path}.json").read_bytes()
        return outs

    def test_csv_deterministic_across_workers(self, tmp_path, capsys):
        outs = self.run_per_worker_count(tmp_path, (
            "Z = 1000 m\ntheta_div = 0.4 mrad\nsigma_theta_e = 100 urad\n"
            "sigma_theta_o = 5 deg\nCn2 = 5e-15\nsweep = Pt\ngrid = 0, 15, 30 dBm\n"
            "metrics = outage, ber\nengines = analytic, montecarlo\nregime = weak\n"
            "samples = 60000\nseed = 7\n"))
        assert outs["1"] == outs["2"]

    def test_strong_csv_deterministic_across_workers(self, tmp_path, capsys):
        # Gamma-Gamma fading draws from its own per-block substream
        outs = self.run_per_worker_count(tmp_path, (
            "Z = 1000 m\ntheta_div = 0.4 mrad\nsigma_theta_e = 100 urad\n"
            "sigma_theta_o = 5 deg\nCn2 = 1e-13\nsweep = Pt\ngrid = 0, 15, 30 dBm\n"
            "metrics = outage, ber\nengines = analytic, montecarlo\nregime = strong\n"
            f"samples = {BLOCK + 5_000}\nseed = 7\n"))
        assert outs["1"] == outs["2"]

    def test_sidecar_written(self, tmp_path):
        path = tmp_path / "run.csv"
        spec = ExperimentSpec(base_cfg(), "Pt", (0.1,), metrics=("outage",),
                              engines=("analytic",), regime="weak")
        write_outputs(run_experiment(spec).rows, str(path), {"curves": [spec_meta(spec)]})
        meta = json.loads((tmp_path / "run.csv.json").read_text())
        assert meta["curves"][0]["sweep_axis"] == "Pt"
        assert "version" in meta and "base_config" in meta["curves"][0]


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = golden_section(lambda x: (x - 2.0) ** 2, 1.0, 5.0, 1e-8)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_asymmetric(self):
        x, _ = golden_section(lambda x: abs(x - 0.3) + 0.1 * x, 0.0, 1.0, 1e-9)
        assert x == pytest.approx(0.3, abs=1e-6)


class TestOptimizer:
    def test_interior_optimum_found(self):
        res = optimize_divergence(base_cfg(P_t=0.1), objective="outage", regime="weak")
        assert res.interior
        assert 0.1e-3 < res.theta_opt < 2e-3
        # bracket endpoints must be worse
        from mrrlink.experiments import _constants_for
        for edge in (0.12e-3, 1.9e-3):
            cfg = base_cfg(P_t=0.1).with_(theta_div=edge)
            k, _ = _constants_for(cfg, "weak")
            assert k.outage(cfg.gamma_th) > res.value

    def test_optimum_shifts_with_link_length(self):
        thetas = {}
        for z in (800.0, 1400.0):
            cfg = base_cfg(Z=z, Z_hu=z / 10 + 2, P_t=0.1)
            thetas[z] = optimize_divergence(cfg, regime="weak").theta_opt
        assert thetas[800.0] != pytest.approx(thetas[1400.0], rel=1e-3)

    def test_monotone_objective_reports_edge(self):
        # a bracket entirely past the optimum: outage rises with theta
        res = optimize_divergence(base_cfg(P_t=0.1), objective="outage",
                                  bracket=(1.2e-3, 2e-3), regime="weak")
        assert not res.interior
        assert res.theta_opt in (1.2e-3, 2e-3)
        assert "monotone" in res.message

    def test_small_jitter_pushes_theta_down(self):
        loose = optimize_divergence(base_cfg(sigma_theta_e=200e-6), regime="weak")
        tight = optimize_divergence(base_cfg(sigma_theta_e=50e-6), regime="weak")
        assert tight.theta_opt < loose.theta_opt

    def test_zero_tracking_jitter_rejected(self):
        with pytest.raises(ValueError, match="sigma_theta_e > 0"):
            optimize_divergence(base_cfg(sigma_theta_e=0.0), regime="weak")

    def test_search_integrates_the_turbulence_path_once(self, path_integrations):
        optimize_divergence(base_cfg(P_t=0.1), objective="ber")
        assert len(path_integrations) == 1

    def test_strong_search_builds_the_sector_table_once(self, sector_builds):
        # the sectors depend on sigma_o alone, which the search leaves fixed
        res = optimize_divergence(base_cfg(cn2_0=1e-13, P_t=0.1), objective="ber")
        assert math.isfinite(res.value)
        assert sector_builds() == 1


class TestHeatmap:
    def test_dimensions_and_compositionality(self):
        from mrrlink.experiments import _constants_for

        cfg = base_cfg(P_t=10 ** 2.5 / 1000)
        se = np.linspace(50e-6, 400e-6, 3)
        wz = np.linspace(0.2, 1.2, 4)
        mat, errors = heatmap(cfg, se, wz, metric="outage", regime="weak")
        assert mat.shape == (3, 4) and errors == []
        c = cfg.with_(sigma_theta_e=float(se[1]), theta_div=float(wz[2]) / cfg.Z)
        k, _ = _constants_for(c, "weak")
        assert mat[1, 2] == pytest.approx(k.outage(c.gamma_th), rel=1e-12)

    def test_ridge_monotone_in_jitter(self):
        cfg = base_cfg(P_t=10 ** 2.5 / 1000)
        se = np.linspace(50e-6, 400e-6, 5)
        wz = np.linspace(0.1, 2.0, 16)
        mat, _ = heatmap(cfg, se, wz, metric="outage", regime="weak")
        argmins = wz[np.argmin(mat, axis=1)]
        assert all(b >= a - 1e-12 for a, b in zip(argmins, argmins[1:]))

    def test_zero_tracking_jitter_rejected(self):
        with pytest.raises(ValueError, match="sigma_theta_e > 0"):
            heatmap(base_cfg(), [0.0, 100e-6], [0.4], regime="weak")

    def test_failed_cell_is_nan_and_recorded(self):
        # the Gamma-Gamma parameters overflow at this wind speed
        cfg = base_cfg(wind_v=1e150)
        mat, errors = heatmap(cfg, [50e-6, 100e-6], [0.4], regime="strong")
        assert np.isnan(mat).all()
        assert [e.split(":")[0] for e in errors] == ["sigma_e=50urad w_z=0.4m",
                                                     "sigma_e=100urad w_z=0.4m"]
        assert all("analytic outage failed" in e for e in errors)

    def test_map_integrates_the_turbulence_path_once(self, path_integrations):
        # jitter and beamwidth leave the Rytov path integral unchanged
        heatmap(base_cfg(P_t=10 ** 2.5 / 1000), np.linspace(50e-6, 400e-6, 8),
                np.linspace(0.1, 2.0, 20))
        assert len(path_integrations) == 1

    @pytest.mark.parametrize("metric", ["outage", "ber"])
    def test_strong_map_builds_the_sector_table_once(self, sector_builds, metric):
        # 3 x 4 strong cells at one sigma_o: one table, and a cell equals its
        # standalone value from a freshly built table
        from mrrlink.experiments import _design_metric

        cfg = LinkConfig(cn2_0=1e-13)
        se, wz = np.linspace(50e-6, 400e-6, 3), np.linspace(0.1, 2.0, 4)
        mat, errors = heatmap(cfg, se, wz, metric=metric)
        assert errors == [] and np.isfinite(mat).all()
        assert sector_builds() == 1
        mrr.sector_table.cache_clear()
        c = apply_axis(cfg, "w_z", float(wz[3])).with_(sigma_theta_e=float(se[1]))
        assert mat[1, 3] == pytest.approx(_design_metric(c, metric, None), rel=1e-10)

    def test_cell_equals_cold_standalone_metric(self):
        from mrrlink.experiments import _design_metric

        cfg = base_cfg(P_t=10 ** 2.5 / 1000)
        se, wz = np.linspace(50e-6, 400e-6, 3), np.linspace(0.2, 1.2, 4)
        mat, _ = heatmap(cfg, se, wz, metric="ber")
        channel._path_integral.cache_clear()
        c = cfg.with_(sigma_theta_e=float(se[2]), theta_div=float(wz[1]) / cfg.Z)
        assert mat[2, 1] == _design_metric(c, "ber", None)


class TestCli:
    def test_run_sidecar_records_bins(self, tmp_path, capsys):
        from mrrlink.cli import main

        spec = tmp_path / "sweep.cfg"
        spec.write_text("sweep = Pt\ngrid = 20 dBm\nmetrics = cdf_h\nengines = analytic\n"
                        "regime = weak\nbins = 40\n")
        out = tmp_path / "out.csv"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 40
        meta = json.loads((tmp_path / "out.csv.json").read_text())
        assert meta["curves"][0]["bins"] == 40

    def test_run_roundtrip(self, tmp_path, capsys):
        from mrrlink.cli import main

        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "# outage sweep\nZ = 1000\ntheta_div = 0.4 mrad\nsigma_theta_o = 5 deg\n"
            "sweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\nengines = analytic\n"
            "regime = weak\n"
        )
        out = tmp_path / "out.csv"
        rc = main(["run", str(spec), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_axis,")
        assert len(lines) == 4
        assert (tmp_path / "out.csv.json").exists()

    def test_seed_zero_overrides_config_seed(self, tmp_path, capsys):
        from mrrlink.cli import main

        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "sweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\nengines = analytic\n"
            "regime = weak\nseed = 5\n"
        )
        for argv, seed in (([], 5), (["--seed", "0"], 0), (["--seed", "2"], 2)):
            out = tmp_path / f"out{seed}.csv"
            assert main(["run", str(spec), "--out", str(out), *argv]) == 0
            meta = json.loads((tmp_path / f"out{seed}.csv.json").read_text())
            assert meta["curves"][0]["seed"] == seed

    def test_recipe_listing(self, capsys):
        from mrrlink.cli import main

        assert main(["recipe", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig9" in names and "fig15" in names

    @pytest.mark.parametrize("argv,outputs,code", [
        (["optimize", "--set", "Pt=20 dBm"], ("",), 0),
        (["heatmap", "--sigma-e-points", "2", "--w-z-points", "2"], ("",), 0),
        (["mc-tables", "--samples", "10000"], ("_moments.csv", "_sectors.csv"), 0),
        (["recipe", "fig13", "--samples", "20000"], ("", ".json"), 0),
        (["recipe", "fig15"], ("", ".json"), 0),
        (["recipe", "fig7", "--samples", "20000"], ("", ".json"), 2),
        (["run", "sigma_o.cfg"], ("", ".json"), 2),
    ], ids=["optimize", "heatmap", "mc-tables", "fig13", "fig15", "fig7", "run-sigma_o"])
    def test_worker_count_is_accepted_and_changes_nothing(self, argv, outputs, code, tmp_path,
                                                          capsys):
        # every command takes --workers, so one command line form serves all;
        # every command computes in one process whatever its value
        from mrrlink.cli import main

        (tmp_path / "sigma_o.cfg").write_text(
            "sweep = sigma_theta_o\ngrid = 2, 5, 8 deg\nmetrics = outage, ber, cdf_h\n"
            "engines = analytic, montecarlo\nsamples = 20000\n")
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        files = {}
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            assert main([*argv, "--workers", workers, "--out", str(out)]) == code
            files[workers] = [Path(f"{out}{suffix}").read_bytes() for suffix in outputs]
        assert files["1"] == files["3"]

    def test_optimize_command(self, capsys):
        from mrrlink.cli import main

        rc = main(["optimize", "--objective", "outage", "--regime", "weak",
                   "--set", "Pt=20 dBm", "--set", "sigma_theta_o=5 deg"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.1 <= out["theta_opt_mrad"] <= 2.0

    def test_mc_tables_command(self, tmp_path, block_rows, capsys):
        import mrrlink.cli as cli

        rc = cli.main(["mc-tables", "--samples", "50000", "--out",
                       str(tmp_path / "tables")])
        assert rc == 0
        text = (tmp_path / "tables_moments.csv").read_text().splitlines()
        assert text[0] == "sigma_deg,mu,sd"
        assert len(text) == 12
        sectors = (tmp_path / "tables_sectors.csv").read_text().splitlines()
        assert sectors[0] == "sigma_deg," + ",".join(f"B{i}" for i in range(1, 9))
        assert [row.split(",")[0] for row in sectors[1:]] == ["1", "3", "5", "7", "9", "11"]
        assert block_rows == [50_000]   # one tilt draw serves all 11 jitters and the sector rows

    @pytest.mark.parametrize("argv", [
        ["recipe", "fig7", "--samples", "0"],
        ["recipe", "fig13", "--samples", "-3"],
        ["mc-tables", "--samples", "0"],
        ["run", "unread.cfg", "--samples", "0"],
        ["optimize", "--samples", "0"],
        ["heatmap", "--samples", "0"],
        ["mc-tables", "--samples", "5000"],   # below the sector fit's floor
        ["recipe", "fig13", "--samples", "1"],   # one sample has no SD to fit
    ])
    def test_samples_below_one_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        from mrrlink.cli import main

        monkeypatch.chdir(tmp_path)   # where mc-tables writes without --out
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["samples", "bins"])
    def test_config_count_below_one_fails_before_sweep(self, tmp_path, monkeypatch, key,
                                                       capsys):
        import mrrlink.experiments as experiments
        from mrrlink.cli import main

        monkeypatch.setattr(experiments, "_grid_point_rows", None)   # must not be reached
        spec = tmp_path / "sweep.cfg"
        spec.write_text("sweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\n"
                        f"engines = analytic\nregime = weak\n{key} = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec), "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {spec}: line 6: " in err and ">= 1" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [["recipe"], ["recipe", "nosuch"]])
    def test_recipe_name_missing_or_unknown_is_usage_error(self, argv, capsys):
        from mrrlink.cli import main
        from mrrlink.recipes import recipe_names

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in recipe_names())

    def test_set_overrides_config_file(self, tmp_path, capsys):
        from mrrlink.cli import main

        spec = tmp_path / "sweep.cfg"
        spec.write_text("Z = 1000 m\nzeta = 1e-4\nsweep = Pt\ngrid = 0:30:2 dBm\n"
                        "metrics = outage\nengines = analytic\nregime = weak\n")
        out = tmp_path / "out.csv"
        assert main(["run", str(spec), "--out", str(out),
                     "--set", "Z=500 m", "--set", "h_l=0.9", "--set", "w_z=20 cm"]) == 0
        base = json.loads((tmp_path / "out.csv.json").read_text())["curves"][0]["base_config"]
        assert base["Z"] == 500.0
        assert base["theta_div"] == pytest.approx(0.2 / 500.0)
        assert base["h_l"] == 0.9 and base["zeta"] is None

    def test_fig13_rejects_link_overrides(self, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["recipe", "fig13", "--samples", "10000", "--set", "Z=500 m"])
        assert exc.value.code == 2
        assert "fig13 reads no link parameter" in capsys.readouterr().err

    def test_fig13_sidecar_records_sample_count(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "fig13.csv"
        assert main(["recipe", "fig13", "--samples", "10000", "--seed", "3",
                     "--workers", "1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "fig13.csv.json").read_text())
        assert (meta["recipe"], meta["seed"], meta["n_samples"]) == ("fig13", 3, 10_000)

    def test_recipe_sidecar_describes_every_curve(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "fig9.csv"
        assert main(["recipe", "fig9", "--seed", "4", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "fig9.csv.json").read_text())
        curves = meta["curves"]
        assert [c["base_config"]["cn2_0"] for c in curves] == [1e-14, 5e-14, 1e-13]
        assert [c["label"] for c in curves] == ["Cn2=1e-14", "Cn2=5e-14", "Cn2=1e-13"]
        assert all(c["sweep_axis"] == "Pt" and len(c["grid"]) == 16 and c["seed"] == 4
                   and c["regime"] == "strong" for c in curves)
        # no single curve's setup stands in for the whole file
        assert "base_config" not in meta and "label" not in meta
        assert meta["flags"] == [] and meta["errors"] == []

    @pytest.mark.parametrize("bracket", [("2", "1"), ("0", "1"), ("1", "1"), ("0.1", "inf"),
                                         ("nan", "1"), ("0.1", "nan")])
    def test_bad_optimizer_bracket_is_usage_error(self, bracket, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--bracket", *bracket])
        assert exc.value.code == 2
        assert "--bracket needs 0 < LO_MRAD < HI_MRAD" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        from mrrlink.cli import main

        spec = tmp_path / "bad.cfg"
        spec.write_text("foo = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec)])
        assert exc.value.code == 2
        assert f"error: {spec}: line 1: unknown key 'foo'" in capsys.readouterr().err


class TestCliInput:
    @staticmethod
    def usage_error(argv, tmp_path, capsys) -> str:
        """Run `argv`; assert it is a usage error that wrote nothing; return stderr."""
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("out*"))
        return capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--set", "foo=1"],
        ["optimize", "--set", "sigma_theta_e=-1 urad"],
        ["recipe", "fig9", "--set", "h_l=2"],
        ["heatmap", "--set", "Z=abc"],
        ["optimize", "--set", "seed=3"],
        ["optimize", "--set", "sigma_theta_o=nan"],
        ["optimize", "--set", "Z=nan"],
        ["heatmap", "--set", "Cn2=nan"],
        ["optimize", "--set", "Pt=inf dBm"],
        ["heatmap", "--set", "wind_v=-inf"],
        ["optimize", "--set", "Z=1e400"],
        ["recipe", "fig9", "--set", "lambda=-1"],        # a wavelength <= 0
        ["optimize", "--set", "lambda=0"],
        ["recipe", "fig11", "--set", "theta_div=1e300"],  # w_z^2 overflows
        ["recipe", "fig8", "--set", "theta_div=1e-300"],  # w_z^2 underflows
        ["heatmap", "--set", "Pt=1e-300"],                # upsilon_1 underflows
        ["optimize", "--set", "R_pd=1e200"],              # upsilon_1 overflows
    ])
    def test_bad_set_is_usage_error(self, argv, tmp_path, capsys):
        err = self.usage_error(argv, tmp_path, capsys)
        assert f"--set {argv[-1]!r}" in err

    @pytest.mark.parametrize("pair,key", [
        ("Pt=4000 dBm", "Pt"),        # 10^400 W: the dBm conversion overflows
        ("Z=1e308 km", "Z"),          # scales to inf m
        ("zeta=1e308", "zeta"),       # per-pass loss exp(-Z zeta) underflows to 0
        ("zeta=-1e-3", "zeta"),       # a per-pass gain
        ("wind_v=1e308", "wind_v"),   # the Cn2 profile's wind term overflows
    ])
    def test_out_of_range_set_is_usage_error(self, pair, key, tmp_path, capsys):
        err = self.usage_error(["heatmap", "--sigma-e-points", "1", "--w-z-points", "1",
                                "--set", pair], tmp_path, capsys)
        assert key in err.split(f"--set {pair!r}: ", 1)[1]

    @pytest.mark.parametrize("argv", [
        ["heatmap", "--set", "sigma_theta_e=200 urad"],
        ["heatmap", "--set", "theta_div=1 mrad"],
        ["heatmap", "--set", "w_z=1 m"],
        ["optimize", "--set", "theta_div=1 mrad"],
        ["optimize", "--set", "w_z=30 cm"],
        ["recipe", "fig9", "--set", "Z=900 m"],
        ["recipe", "fig15", "--set", "w_z=1 m"],
    ])
    def test_overwritten_set_is_usage_error(self, argv, tmp_path, capsys):
        err = self.usage_error(argv, tmp_path, capsys)
        assert f"--set {argv[-1]!r} has no effect" in err

    def test_run_set_of_sweep_axis_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("sweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\n"
                        "engines = analytic\nregime = weak\n")
        err = self.usage_error(["run", str(spec), "--set", "Pt=20 dBm"], tmp_path, capsys)
        assert "has no effect: the config's sweep sets P_t" in err

    @pytest.mark.parametrize("line,sweep,grid", [
        ("Pt = 20 dBm", "Pt", "0:30:3 dBm"),
        ("theta_div = 1 mrad", "w_z", "0.2:1:3 m"),
        ("w_z = 40 cm", "theta_div", "0.2:1:3 mrad"),
    ])
    def test_run_config_line_the_sweep_overwrites_is_config_error(self, line, sweep, grid,
                                                                 tmp_path, capsys):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(f"Z = 1000 m\n{line}\nsweep = {sweep}\ngrid = {grid}\n"
                        "metrics = outage\nengines = analytic\nregime = weak\n")
        err = self.usage_error(["run", str(spec)], tmp_path, capsys)
        assert f"error: {spec}: line 2: " in err
        assert "has no effect: the config's sweep sets" in err

    @pytest.mark.parametrize("line,match", [
        ("metrics = outage, foo", "metrics must be"),
        ("engines = analytic, exact", "engines must be"),
        ("regime = medium", "regime must be"),
        ("sweep = foo", "sweep axis must be"),
        ("grid = 3, 2, 1", "sorted ascending"),
    ])
    def test_bad_run_config_value_names_its_line(self, line, match, tmp_path, capsys):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("sweep = Pt\ngrid = 1, 2, 3\nmetrics = outage\n"
                        f"engines = analytic\nregime = weak\n{line}\n")
        err = self.usage_error(["run", str(spec)], tmp_path, capsys)
        assert f"error: {spec}: line 6: " in err
        assert match in err

    def test_run_sidecar_is_a_one_curve_recipe_sidecar(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "out.csv"
        spec = tmp_path / "sweep.cfg"   # the config's `out` stands in for --out
        spec.write_text(f"Z = 900 m\nsweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\n"
                        f"engines = analytic\nregime = weak\nlabel = demo\nout = {out}\n")
        assert main(["run", str(spec)]) == 0
        meta = json.loads((tmp_path / "out.csv.json").read_text())
        assert sorted(meta) == ["curves", "errors", "flags", "recipe", "version"]
        assert meta["recipe"] is None and len(meta["curves"]) == 1
        curve = meta["curves"][0]
        assert (curve["sweep_axis"], curve["label"], curve["base_config"]["Z"]) == \
            ("Pt", "demo", 900.0)
        assert curve["grid"] == pytest.approx([1e-3, 10 ** 1.5 / 1000, 1.0])
        # --out wins over the config's `out`
        assert main(["run", str(spec), "--out", str(tmp_path / "flag.csv")]) == 0
        assert (tmp_path / "flag.csv.json").exists()

    def test_recipe_refuses_only_what_it_fixes(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "fig9.csv"
        assert main(["recipe", "fig9", "--set", "sigma_n2=2e-13", "--out", str(out)]) == 0
        curves = json.loads((tmp_path / "fig9.csv.json").read_text())["curves"]
        assert [c["base_config"]["sigma_n2"] for c in curves] == [2e-13] * 3
        err = self.usage_error(["recipe", "fig9", "--set", "Cn2=1e-14"], tmp_path, capsys)
        assert "recipe fig9 sets cn2_0" in err

    def test_invalid_config_link_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("h_l = 2\nsweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\n"
                        "engines = analytic\nregime = weak\n")
        err = self.usage_error(["run", str(spec)], tmp_path, capsys)
        assert f"{spec}: per-pass loss h_l must lie in (0, 1]" in err

    def test_missing_spec_file_is_usage_error(self, tmp_path, capsys):
        err = self.usage_error(["run", str(tmp_path / "missing.cfg")], tmp_path, capsys)
        assert "cannot read" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_worker_count_below_one_is_usage_error(self, count, tmp_path, capsys):
        err = self.usage_error(["recipe", "fig9", "--workers", count], tmp_path, capsys)
        assert "--workers" in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--samples", "10"],
        ["heatmap", "--sigma-e-points", "1", "--w-z-points", "1", "--samples", "10"],
        ["mc-tables", "--samples", "10000", "--set", "Z=500 m"],
        ["recipe", "fig9", "--paper-scale"],
    ])
    def test_flag_the_command_ignores_is_usage_error(self, argv, tmp_path, capsys):
        err = self.usage_error(argv, tmp_path, capsys)
        assert "unrecognized arguments" in err


class TestCliHeatmap:
    def test_heatmap_command_writes_matrix(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "map.csv"
        rc = main(["heatmap", "--sigma-e", "100", "200", "--sigma-e-points", "2",
                   "--w-z", "0.2", "0.8", "--w-z-points", "3", "--regime", "weak",
                   "--set", "Pt=25 dBm", "--set", "sigma_theta_o=5 deg",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3                      # header + 2 jitter rows
        assert len(lines[1].split(",")) == 4        # jitter value + 3 beamwidths

    @pytest.mark.parametrize("flag", ["--sigma-e-points", "--w-z-points"])
    def test_point_count_below_one_is_usage_error(self, flag, tmp_path, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["heatmap", flag, "0", "--out", str(tmp_path / "map.csv")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("flag,span", [("--sigma-e", ("0", "400")),
                                           ("--w-z", ("0", "2")), ("--w-z", ("-1", "2")),
                                           ("--sigma-e", ("nan", "400")),
                                           ("--sigma-e", ("50", "inf")),
                                           ("--w-z", ("0.1", "inf")), ("--w-z", ("0.1", "nan"))])
    def test_non_positive_range_is_usage_error(self, flag, span, tmp_path, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["heatmap", flag, *span, "--out", str(tmp_path / "map.csv")])
        assert exc.value.code == 2
        assert f"{flag} needs positive LO and HI" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("command", ["optimize", "heatmap"])
    def test_zero_tracking_jitter_is_usage_error(self, command, tmp_path, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main([command, "--set", "sigma_theta_e=0 urad", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "tracking jitter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliModelFailure:
    """A link the models cannot evaluate fails per cell in `heatmap`, and
    as one error line with exit status 1 in `optimize`."""

    @pytest.mark.parametrize("pair,failure", [
        ("wind_v=1e150", "Numerical result out of range"),   # OverflowError in gg_params
        ("Cn2=1e300", "non-finite value"),                  # NonConvergentError
    ])
    def test_failed_cell_is_nan_and_named(self, pair, failure, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "map.csv"
        assert main(["heatmap", "--sigma-e-points", "1", "--w-z-points", "1",
                     "--set", pair, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "50,nan"
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "sigma_e=50urad w_z=0.1m: analytic outage failed" in errors[0]
        assert failure in errors[0]

    def test_sector_range_cell_is_nan_and_named(self, tmp_path, capsys):
        # 12 deg lies outside the strong model's sector table (1-11 deg)
        from mrrlink.cli import main

        out = tmp_path / "map.csv"
        assert main(["heatmap", "--regime", "strong", "--set", "sigma_theta_o=12 deg",
                     "--sigma-e-points", "2", "--w-z-points", "3", "--out", str(out)]) == 0
        assert [line.split(",")[1:] for line in out.read_text().splitlines()[1:]] == (
            [["nan"] * 3] * 2)
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert [e.split(": analytic")[0] for e in errors] == [
            f"error: sigma_e={se:g}urad w_z={wz:g}m" for se in (50, 400) for wz in (0.1, 1.05, 2)]
        assert all(e.endswith("analytic outage failed: sigma_theta_o=12.00 deg outside "
                              "the sector table range [1, 11] deg") for e in errors)

    def test_sector_range_optimize_exits_1_and_writes_nothing(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "opt.json"
        assert main(["optimize", "--regime", "strong", "--set", "sigma_theta_o=12 deg",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: optimize outage failed: sigma_theta_o=12.00 deg outside "
                          "the sector table range [1, 11] deg"]
        assert not out.exists()

    def test_optimize_failure_exits_1_and_writes_nothing(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "opt.json"
        assert main(["optimize", "--set", "Cn2=1e300", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: optimize outage failed: "
                          "Mellin-Barnes integral returned non-finite value"]
        assert not out.exists()

    def test_sweep_records_failed_constants_per_point(self, tmp_path, capsys):
        from mrrlink.cli import main

        out = tmp_path / "fig9.csv"
        assert main(["recipe", "fig9", "--set", "wind_v=1e150", "--out", str(out)]) == 0
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 3 * 16                  # every point of the three curves
        assert all("analytic constants failed" in e for e in errors)
        assert out.read_text().splitlines() == [
            "sweep_axis,sweep_value,label,metric,engine,x,value,ci_low,ci_high,flag"]

    def test_mc_recipe_records_failed_statistics_per_point(self, tmp_path, capsys):
        # the Gamma-Gamma parameters overflow: fig7's shared draw cannot be
        # planned, and each curve's point evaluates its statistics once for
        # both engines and records their failure once
        from mrrlink.cli import main

        out = tmp_path / "fig7.csv"
        assert main(["recipe", "fig7", "--samples", "20000", "--set", "wind_v=1e150",
                     "--out", str(out)]) == 0
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert [e.split(" failed: ")[0] for e in errors] == [
            f"error: [sigma_o={deg}deg] Pt=0.1: analytic constants" for deg in (2, 8)]
        assert all("Numerical result out of range" in e for e in errors)
        assert out.read_text().splitlines() == [
            "sweep_axis,sweep_value,label,metric,engine,x,value,ci_low,ci_high,flag"]
        assert len(json.loads(Path(f"{out}.json").read_text())["errors"]) == 2

    def test_snr_density_where_upsilon_gamma_underflows(self, tmp_path, capsys):
        # upsilon_1 ~ 1e-202 and gamma ~ 1e-213: their product underflows,
        # but f_h(sqrt(gamma/upsilon_1)) / (2 sqrt(upsilon_1) sqrt(gamma)) is
        # finite; here evaluated in logs
        from mrrlink.cli import main
        from mrrlink.experiments import _constants_for
        from mrrlink.recipes import build_recipe

        out = tmp_path / "fig7.csv"
        assert main(["recipe", "fig7", "--samples", "2000", "--set", "sigma_n2=1e200",
                     "--out", str(out)]) == 2   # 2: the Monte-Carlo KS flags
        assert json.loads(Path(f"{out}.json").read_text())["errors"] == []
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        rows = [r for r in rows if r[3:5] == ["pdf_snr", "analytic"]]
        assert len(rows) == 160
        for spec in build_recipe("fig7", LinkConfig().with_(sigma_n2=1e200)):
            k, _ = _constants_for(apply_axis(spec.base, "Pt", spec.grid[0]), spec.regime)
            assert k.upsilon_1 < 1e-200
            mine = [r for r in rows if r[2] == spec.label]
            assert len(mine) == 80
            for row in mine:
                g, value = float(row[5]), float(row[6])
                assert math.isfinite(value) and value > 0
                want = math.exp(math.log(float(k.pdf_h(math.sqrt(g / k.upsilon_1))))
                                - math.log(2.0) - 0.5 * math.log(k.upsilon_1) - 0.5 * math.log(g))
                assert value == pytest.approx(want, rel=1e-9)   # 12 printed digits

    def test_mc_sweep_records_failed_statistics_per_point(self, tmp_path, capsys):
        # an orientation-jitter sweep draws per point, in the point's own guard
        from mrrlink.cli import main

        cfg = tmp_path / "jitter.cfg"
        cfg.write_text("sweep = sigma_theta_o\ngrid = 2, 5, 8 deg\nmetrics = outage, cdf_h\n"
                       "engines = montecarlo\nsamples = 20000\n")
        out = tmp_path / "jitter.csv"
        assert main(["run", str(cfg), "--set", "wind_v=1e150", "--out", str(out)]) == 0
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert [e.split(" failed: ")[0] for e in errors] == [
            f"error: sigma_theta_o={deg * DEG:g}: montecarlo channel" for deg in (2, 5, 8)]
        assert all("Numerical result out of range" in e for e in errors)
        assert len(out.read_text().splitlines()) == 1
