"""Experiment-config parser tests."""

import math

import pytest

from mrrlink.config import parse_config, require_experiment_keys
from mrrlink.errors import MissingRequiredError, UnitMismatchError, UnknownKeyError


class TestUnits:
    def test_milliradians(self):
        raw = parse_config("theta_div = 0.4 mrad")
        assert raw.link["theta_div"] == pytest.approx(4e-4, rel=1e-12)

    def test_dbm_power(self):
        raw = parse_config("Pt = 20 dBm")
        assert raw.link["P_t"] == pytest.approx(0.1, rel=1e-12)

    def test_degrees(self):
        raw = parse_config("sigma_theta_o = 5 deg")
        assert raw.link["sigma_theta_o"] == pytest.approx(math.radians(5), rel=1e-12)

    def test_microradians_and_cm(self):
        raw = parse_config("sigma_theta_e = 100 urad\nr_g = 8 cm")
        assert raw.link["sigma_theta_e"] == pytest.approx(1e-4)
        assert raw.link["r_g"] == pytest.approx(0.08)

    def test_area(self):
        raw = parse_config("A_r = 1 cm2")
        assert raw.link["A_r"] == pytest.approx(1e-4)

    def test_wavelength_nm(self):
        raw = parse_config("lambda = 1550 nm")
        assert raw.link["wavelength"] == pytest.approx(1550e-9)

    def test_gamma_threshold_db(self):
        raw = parse_config("gamma_th = 5 dB")
        assert raw.link["gamma_th"] == pytest.approx(10 ** 0.5)

    def test_bare_si(self):
        raw = parse_config("Z = 1200")
        assert raw.link["Z"] == 1200.0


class TestErrors:
    def test_unknown_key_with_line(self):
        with pytest.raises(UnknownKeyError) as e:
            parse_config("Z = 1000\nfoo = 1\n")
        assert e.value.line == 2

    def test_unit_mismatch(self):
        with pytest.raises(UnitMismatchError):
            parse_config("Pt = 0.4 mrad")
        with pytest.raises(UnitMismatchError):
            parse_config("theta_div = 0.4 dBm")

    @pytest.mark.parametrize("line", ["sigma_theta_o = nan deg", "Z = inf", "Cn2 = -inf",
                                      "Z = 1e400", "grid = nan, 1", "grid = 0:30:inf"])
    def test_non_finite_number_names_its_line(self, line):
        with pytest.raises(UnitMismatchError, match="not finite") as e:
            parse_config(f"sweep = Pt\n{line}\n")
        assert e.value.line == 2

    def test_missing_value(self):
        with pytest.raises(MissingRequiredError) as e:
            parse_config("Z =")
        assert e.value.line == 1

    def test_missing_required_experiment_keys(self):
        raw = parse_config("sweep = Pt\ngrid = 0:30:4\nmetrics = outage")
        with pytest.raises(MissingRequiredError):
            require_experiment_keys(raw)

    def test_cn2_takes_one_key(self):
        assert parse_config("Cn2 = 1e-14").link == {"cn2_0": 1e-14}
        with pytest.raises(UnknownKeyError):
            parse_config("cn2_0 = 1e-14")

    def test_comments_and_blank_lines(self):
        raw = parse_config("# a comment\n\nZ = 900  # trailing\n")
        assert raw.link["Z"] == 900.0


class TestGrid:
    def test_range_syntax(self):
        raw = parse_config("grid = 0:30:4")
        assert raw.experiment["grid"] == (0.0, 10.0, 20.0, 30.0)

    def test_list_syntax(self):
        raw = parse_config("grid = 1e-14, 5e-14, 1e-13")
        assert raw.experiment["grid"] == (1e-14, 5e-14, 1e-13)

    def test_units_apply_to_grid(self):
        raw = parse_config("sweep = theta_div\ngrid = 0.1:2:3 mrad")
        assert raw.experiment["grid"] == pytest.approx((1e-4, 1.05e-3, 2e-3))

    def test_unit_must_fit_sweep_axis(self):
        with pytest.raises(UnitMismatchError) as e:
            parse_config("sweep = Pt\ngrid = 1:30:3 mrad")
        assert e.value.line == 2 and "power" in str(e.value)
        with pytest.raises(UnitMismatchError) as e:
            parse_config("grid = 0.1:2:3 mrad\nmetrics = outage")
        assert e.value.line == 1

    def test_log_spacing(self):
        raw = parse_config("grid = 1:100:3 log")
        assert raw.experiment["grid"] == pytest.approx((1.0, 10.0, 100.0))


class TestBuildLinkConfig:
    def test_full_round_trip(self):
        raw = parse_config(
            "Z = 1000\ntheta_div = 0.4 mrad\nPt = 20 dBm\nsigma_theta_o = 2 deg\n"
            "sweep = Pt\ngrid = 0:30:4 \nmetrics = outage\nengines = analytic"
        )
        cfg = raw.build_link_config()
        assert cfg.P_t == pytest.approx(0.1)
        assert cfg.theta_div == pytest.approx(4e-4)
        require_experiment_keys(raw)

    def test_w_z_sets_divergence(self):
        raw = parse_config("Z = 1000\nw_z = 40 cm")
        cfg = raw.build_link_config()
        assert cfg.theta_div == pytest.approx(0.4e-3)

    def test_zeta_replaces_direct_loss(self):
        raw = parse_config("zeta = 3.5e-4")
        cfg = raw.build_link_config()
        assert cfg.h_l is None and cfg.zeta == pytest.approx(3.5e-4)

    def test_zeta_and_h_l_exclusive(self):
        with pytest.raises(ValueError):
            parse_config("zeta = 3.5e-4\nh_l = 0.8").build_link_config()

    def test_later_layer_replaces_attenuation(self):
        cfg = parse_config("zeta = 3.5e-4").build_link_config()
        cfg = parse_config("h_l=0.9").build_link_config(cfg)
        assert cfg.h_l == 0.9 and cfg.zeta is None

    def test_cli_overrides(self):
        vals = parse_config("Pt=20 dBm\nsigma_theta_e=200 urad").link
        assert vals["P_t"] == pytest.approx(0.1)
        assert vals["sigma_theta_e"] == pytest.approx(2e-4)
