"""Draw-once Monte-Carlo: a transmit-power curve draws its channel once,
and a jitter grid draws its tilt normals once.  The outputs are the bytes
of one draw per grid point and per jitter; `TestPinnedOutputs` pins them."""

import hashlib
import math

import numpy as np
import pytest

import mrrlink.experiments as experiments
import mrrlink.montecarlo as montecarlo
from mrrlink.channel import LinkConfig, turbulence_stats, upsilon_1
from mrrlink.cli import main
from mrrlink.experiments import ExperimentSpec, apply_axis, run_experiment, write_outputs
from mrrlink.montecarlo import BLOCK, SimPlan, draw_channel, mc_ber, mc_outage
from mrrlink.recipes import build_fig13_rows

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
    """The configs of the `montecarlo.sample_channel` passes made."""
    cfgs = []
    original = montecarlo.sample_channel

    def counting(plan):
        cfgs.append(plan.cfg)
        return original(plan)

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
        h = experiments._curve_channel(spec)
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
    block boundary.  Sharing the draws must not move a byte."""

    @pytest.mark.parametrize("cfg,regime,want", [
        (base_cfg(), "weak", "6cdaed638ee0664d882c2c8bf1c464dd7ada8de373b0176b9b22812771cb7ead"),
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
