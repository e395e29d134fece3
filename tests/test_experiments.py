"""Experiment runner, optimizer, heatmap and CLI round-trip tests."""

import json
import math

import numpy as np
import pytest

from mrrlink.channel import LinkConfig
from mrrlink.experiments import (
    ExperimentSpec,
    apply_axis,
    golden_section,
    heatmap,
    optimize_divergence,
    run_experiment,
)

DEG = math.pi / 180.0


def base_cfg(**kw) -> LinkConfig:
    d = dict(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
             sigma_theta_o=5 * DEG, cn2_0=5e-15)
    d.update(kw)
    return LinkConfig(**d)


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

        def counting(plan):
            passes.append(plan)
            return sample_channel(plan)

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
        assert np.array_equal(drawn[0][0], want[0])
        assert np.array_equal(drawn[0][1], want[1])

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

        def failing(spec, weights, scales, p, s):
            if (spec.m, spec.n) == (6, 0):  # the density's order only
                raise NonConvergentError("injected")
            return real(spec, weights, scales, p, s)

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

    def test_csv_deterministic_across_workers(self, tmp_path):
        grid = tuple(10 ** (p / 10) / 1000 for p in (0.0, 15.0, 30.0))
        outs = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.csv"
            spec = ExperimentSpec(base_cfg(), "Pt", grid, metrics=("outage", "ber"),
                                  engines=("analytic", "montecarlo"), regime="weak",
                                  n_samples=60_000, seed=7, output_path=str(path))
            run_experiment(spec, workers=workers)
            outs[workers] = path.read_bytes()
        assert outs[1] == outs[2]

    def test_sidecar_written(self, tmp_path):
        path = tmp_path / "run.csv"
        spec = ExperimentSpec(base_cfg(), "Pt", (0.1,), metrics=("outage",),
                              engines=("analytic",), regime="weak",
                              output_path=str(path))
        run_experiment(spec)
        meta = json.loads((tmp_path / "run.csv.json").read_text())
        assert meta["sweep_axis"] == "Pt"
        assert "version" in meta and "base_config" in meta


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


class TestHeatmap:
    def test_dimensions_and_compositionality(self):
        from mrrlink.experiments import _constants_for

        cfg = base_cfg(P_t=10 ** 2.5 / 1000)
        se = np.linspace(50e-6, 400e-6, 3)
        wz = np.linspace(0.2, 1.2, 4)
        mat = heatmap(cfg, se, wz, metric="outage", regime="weak")
        assert mat.shape == (3, 4)
        c = cfg.with_(sigma_theta_e=float(se[1]), theta_div=float(wz[2]) / cfg.Z)
        k, _ = _constants_for(c, "weak")
        assert mat[1, 2] == pytest.approx(k.outage(c.gamma_th), rel=1e-12)

    def test_ridge_monotone_in_jitter(self):
        cfg = base_cfg(P_t=10 ** 2.5 / 1000)
        se = np.linspace(50e-6, 400e-6, 5)
        wz = np.linspace(0.1, 2.0, 16)
        mat = heatmap(cfg, se, wz, metric="outage", regime="weak")
        argmins = wz[np.argmin(mat, axis=1)]
        assert all(b >= a - 1e-12 for a, b in zip(argmins, argmins[1:]))


class TestCli:
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
            assert json.loads((tmp_path / f"out{seed}.csv.json").read_text())["seed"] == seed

    def test_recipe_listing(self, capsys):
        from mrrlink.cli import main

        assert main(["recipe", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig9" in names and "fig15" in names

    def test_optimize_command(self, capsys):
        from mrrlink.cli import main

        rc = main(["optimize", "--objective", "outage", "--regime", "weak",
                   "--set", "Pt=20 dBm", "--set", "sigma_theta_o=5 deg"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.1 <= out["theta_opt_mrad"] <= 2.0

    def test_mc_tables_command(self, tmp_path, capsys):
        from mrrlink.cli import main

        rc = main(["mc-tables", "--samples", "50000", "--out",
                   str(tmp_path / "tables")])
        assert rc == 0
        text = (tmp_path / "tables_moments.csv").read_text().splitlines()
        assert text[0] == "sigma_deg,mu,sd"
        assert len(text) == 12

    @pytest.mark.parametrize("argv", [
        ["recipe", "fig7", "--samples", "0"],
        ["recipe", "fig13", "--samples", "-3"],
        ["mc-tables", "--samples", "0"],
        ["run", "unread.cfg", "--samples", "0"],
        ["optimize", "--samples", "0"],
        ["heatmap", "--samples", "0"],
    ])
    def test_samples_below_one_is_usage_error(self, argv, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["samples", "bins"])
    def test_config_count_below_one_fails_before_sweep(self, tmp_path, monkeypatch, key):
        import mrrlink.experiments as experiments
        from mrrlink.cli import main

        monkeypatch.setattr(experiments, "_grid_point_rows", None)   # must not be reached
        spec = tmp_path / "sweep.cfg"
        spec.write_text("sweep = Pt\ngrid = 0:30:3 dBm\nmetrics = outage\n"
                        f"engines = analytic\nregime = weak\n{key} = 0\n")
        with pytest.raises(ValueError, match=">= 1"):
            main(["run", str(spec), "--out", str(tmp_path / "out.csv")])

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
        base = json.loads((tmp_path / "out.csv.json").read_text())["base_config"]
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

    @pytest.mark.parametrize("bracket", [("2", "1"), ("0", "1"), ("1", "1")])
    def test_bad_optimizer_bracket_is_usage_error(self, bracket, capsys):
        from mrrlink.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--bracket", *bracket])
        assert exc.value.code == 2
        assert "--bracket needs 0 < LO_MRAD < HI_MRAD" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path):
        from mrrlink.cli import main
        from mrrlink.errors import UnknownKeyError

        spec = tmp_path / "bad.cfg"
        spec.write_text("foo = 1\n")
        with pytest.raises(UnknownKeyError):
            main(["run", str(spec)])


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
