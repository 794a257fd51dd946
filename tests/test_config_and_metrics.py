import math
from dataclasses import fields

import numpy as np
import pytest

from eqfcascade.config import ConfigError, ScenarioConfig, apply_overrides, read_config, write_config
from eqfcascade.geom import exp_so3
from eqfcascade.metrics import (
    SERIES_COLUMNS,
    euler_errors,
    euler_zyx,
    metric_names,
    summarize,
    time_to_threshold,
    wrap_deg,
    write_batch_csv,
    write_series_csv,
)

D2R = math.pi / 180.0


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(
            seed=7,
            duration_s=5.0,
            star_rate_hz=2.0,
            update_iterations=5,
            gyro_noise_std=0.0,
            omega_target_range_dps=(1.0, 2.0),
            attitude_init_max_deg=45.0,
            input_mode="biased_passthrough",
        )
        path = tmp_path / "scenario.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_every_field_parses_from_hand_written_text(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(
            "seed = 11\n"
            "duration_s = 7.5\n"
            "gyro_rate_hz = 200\n"
            "star_rate_hz = 2\n"
            "feature_rate_hz = 20\n"
            "update_iterations = 4\n"
            "state_gain = 0.5\n"
            "output_gain = 0.2\n"
            "sigma0 = 2\n"
            "gyro_noise_std = 0.02\n"
            "direction_noise_std = 0.03\n"
            "omega_target_range_dps = 1 2\n"
            "chaser_rate_range_dps = 0.25   1.5\n"
            "gyro_bias_range_dps = 0 1\n"
            "attitude_init_max_deg = 30\n"
            "input_mode = biased_passthrough\n"
            "ref_dir_1 = 0 0 1\n"
            "ref_dir_2 = 1 1 0  # not unit length\n"
        )
        cfg = read_config(path)
        assert cfg == ScenarioConfig(
            seed=11,
            duration_s=7.5,
            gyro_rate_hz=200.0,
            star_rate_hz=2.0,
            feature_rate_hz=20.0,
            update_iterations=4,
            state_gain=0.5,
            output_gain=0.2,
            sigma0=2.0,
            gyro_noise_std=0.02,
            direction_noise_std=0.03,
            omega_target_range_dps=(1.0, 2.0),
            chaser_rate_range_dps=(0.25, 1.5),
            gyro_bias_range_dps=(0.0, 1.0),
            attitude_init_max_deg=30.0,
            input_mode="biased_passthrough",
            ref_dir_1=(0.0, 0.0, 1.0),
            ref_dir_2=(1.0, 1.0, 0.0),
        )
        default = ScenarioConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(ScenarioConfig))
        assert type(cfg.seed) is int and type(cfg.update_iterations) is int

        path.write_text("attitude_init_max_deg = none\n")
        assert read_config(path).attitude_init_max_deg is None
        path.write_text("seed = 1\nref_dir_1 = 1 0\n")
        with pytest.raises(ConfigError, match="line 2: field 'ref_dir_1' expects three numbers"):
            read_config(path)
        path.write_text("gyro_bias_range_dps = 1\n")
        with pytest.raises(ConfigError, match="line 1: field 'gyro_bias_range_dps' expects two numbers"):
            read_config(path)

    def test_missing_fields_use_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("seed = 3\nstar_rate_hz = 4.0\n")
        cfg = read_config(path)
        assert cfg.seed == 3
        assert cfg.star_rate_hz == 4.0
        assert cfg.duration_s == ScenarioConfig().duration_s

    def test_parse_error_reports_line_and_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 3\nstar_rate_hz = fast\n")
        with pytest.raises(ConfigError, match="line 2.*star_rate_hz"):
            read_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigError, match="line 1.*unknown"):
            read_config(path)

    def test_rate_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divide"):
            ScenarioConfig(star_rate_hz=3.0)

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("gyro_noise_std", math.nan, "nan"),
            ("gyro_rate_hz", math.inf, "inf"),
            ("star_rate_hz", 1e-320, "1e-320"),
            ("feature_rate_hz", 1e12, "1e12"),
            ("seed", -1, "-1"),
            ("output_gain", -1.0, "-1"),
            ("sigma0", math.nan, "nan"),
            ("attitude_init_max_deg", math.inf, "inf"),
            ("ref_dir_1", (0.0, math.nan, 1.0), "0 nan 1"),
            ("duration_s", 1e307, "1e307"),
            ("duration_s", 0.004, "0.004"),
            ("duration_s", 0.015, "0.015"),
            ("gyro_noise_std", 1e200, "1e200"),
            ("direction_noise_std", 1e300, "1e300"),
        ],
    )
    def test_non_finite_and_out_of_range_values_rejected(self, tmp_path, field, value, text):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{field} = {text}\n")
        with pytest.raises(ConfigError, match=field):
            read_config(path)

    @pytest.mark.parametrize(
        "gyro, direction",
        [
            (1e150, 1e-150),  # stage 1's M scale overflows to inf
            (1e-160, 1e150),  # and underflows to 0
            (1e-200, 0.01),  # the gyro density underflows to 0
            (0.01, 1e-200),  # the star density underflows to 0
        ],
    )
    def test_noise_levels_outside_the_stage1_gain_range_rejected(self, tmp_path, gyro, direction):
        with pytest.raises(ConfigError, match="gyro_noise_std and direction_noise_std"):
            ScenarioConfig(gyro_noise_std=gyro, direction_noise_std=direction)
        path = tmp_path / "bad.cfg"
        path.write_text(f"gyro_noise_std = {gyro!r}\ndirection_noise_std = {direction!r}\n")
        with pytest.raises(ConfigError, match="gyro_noise_std and direction_noise_std"):
            read_config(path)

    def test_reference_directions_checked_as_unit_vectors(self):
        # orthogonal however short
        cfg = ScenarioConfig(ref_dir_1=(1e-3, 0.0, 0.0), ref_dir_2=(0.0, 1e-3, 0.0))
        np.testing.assert_array_equal(cfg.ref_dirs(), np.eye(3)[:2])
        # 5e-4 rad apart however long, which TruthWorld rejects too
        with pytest.raises(ConfigError, match="collinear"):
            ScenarioConfig(ref_dir_1=(1000.0, 0.0, 0.0), ref_dir_2=(1000.0, 0.5, 0.0))
        for field in ("ref_dir_1", "ref_dir_2"):
            with pytest.raises(ConfigError, match=field):
                ScenarioConfig(**{field: (0.0, 0.0, 0.0)})

    def test_mode_validated(self):
        with pytest.raises(ConfigError, match="input_mode"):
            ScenarioConfig(input_mode="other")

    def test_overrides(self):
        cfg = apply_overrides(ScenarioConfig(), seed=9, star_rate_hz=None)
        assert cfg.seed == 9
        assert cfg.star_rate_hz == ScenarioConfig().star_rate_hz


class TestStageGains:
    def test_stage1_state_gain_from_noise_model(self):
        # output_gain * (0.01^2 / 100 Hz) / (0.01^2 / 3 / 1 Hz) at the defaults
        gains = ScenarioConfig().stage1_gains()
        np.testing.assert_allclose(gains.M, 3e-3 * np.eye(6), rtol=1e-12)
        np.testing.assert_array_equal(gains.N, 0.1 * np.eye(9))

    def test_stage1_state_gain_scales_with_star_rate(self):
        base = ScenarioConfig().stage1_gains().M
        fast = ScenarioConfig(star_rate_hz=100.0).stage1_gains().M
        np.testing.assert_allclose(fast, 100.0 * base, rtol=1e-12)
        np.testing.assert_allclose(fast, 0.3 * np.eye(6), rtol=1e-12)

    def test_stage2_gains_unchanged(self):
        cfg = ScenarioConfig(state_gain=2.0)
        gains = cfg.stage2_gains()
        np.testing.assert_array_equal(gains.M, 2.0 * np.eye(6))
        np.testing.assert_array_equal(gains.N, cfg.output_gain * np.eye(6))

    @pytest.mark.parametrize(
        "noise",
        [
            dict(gyro_noise_std=0.0),
            dict(direction_noise_std=0.0),
            dict(gyro_noise_std=0.0, direction_noise_std=0.0),
        ],
    )
    def test_noiseless_stage1_falls_back_to_state_gain(self, noise):
        gains = ScenarioConfig(state_gain=2.0, **noise).stage1_gains()
        np.testing.assert_array_equal(gains.M, 2.0 * np.eye(6))


class TestEulerErrors:
    def test_identical_rotations(self):
        r = exp_so3(np.array([0.3, -0.2, 0.5]))
        np.testing.assert_allclose(euler_errors(r, r), np.zeros(3), atol=1e-12)

    def test_small_yaw_offset(self):
        r = exp_so3(np.array([0.2, -0.3, 0.1]))
        r_hat = r @ exp_so3(np.array([0.0, 0.0, -1.0 * D2R]))
        err = euler_errors(r, r_hat)
        # a body-axis offset of 1 deg about z maps mostly to yaw at small tilt
        assert abs(err[2]) > 0.8
        assert np.max(np.abs(err)) < 1.5

    def test_wrap_at_180(self):
        r_true = exp_so3(np.array([0.0, 0.0, 179.0 * D2R]))
        r_hat = exp_so3(np.array([0.0, 0.0, -179.0 * D2R]))
        err = euler_errors(r_true, r_hat)
        assert abs(abs(err[2]) - 2.0) < 1e-9

    def test_wrap_deg_examples(self):
        assert abs(wrap_deg(np.array([358.0]))[0] + 2.0) < 1e-12
        assert abs(wrap_deg(np.array([-190.0]))[0] - 170.0) < 1e-12

    def test_euler_zyx_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            angles = rng.uniform(-math.pi, math.pi, size=3) * np.array([1.0, 0.45, 1.0])
            roll, pitch, yaw = angles
            r = (
                exp_so3(np.array([0, 0, yaw]))
                @ exp_so3(np.array([0, pitch, 0]))
                @ exp_so3(np.array([roll, 0, 0]))
            )
            np.testing.assert_allclose(euler_zyx(r), [roll, pitch, yaw], atol=1e-10)

    def test_gimbal_flag_falls_back_to_total_angle(self):
        r_true = exp_so3(np.array([0.0, math.pi / 2, 0.0]))
        err = euler_errors(r_true, np.eye(3))
        np.testing.assert_allclose(err, 90.0 * np.ones(3), atol=1e-6)


class TestTimeToThreshold:
    def test_always_below(self):
        t = np.arange(5.0)
        assert time_to_threshold(t, np.full(5, 0.1), 1.0) == 0.0

    def test_never_below(self):
        t = np.arange(5.0)
        assert time_to_threshold(t, np.full(5, 2.0), 1.0) == math.inf

    def test_sustained_crossing(self):
        # dips below at 1.0 s, re-exceeds at 2.0 s, below for good from 3.0 s
        t = np.arange(0.0, 5.0, 1.0)
        err = np.array([5.0, 0.5, 1.5, 0.2, 0.1])
        assert time_to_threshold(t, err, 1.0) == 3.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            time_to_threshold(np.array([]), np.array([]), 1.0)


class TestCsv:
    def test_series_csv_schema(self, tmp_path):
        series = np.zeros((4, len(SERIES_COLUMNS)))
        series[:, 0] = np.arange(4) * 0.01
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 5

    def test_series_csv_exact_bytes(self, tmp_path):
        # %.9g text, CRLF line ends, and nan, inf, -0 and subnormals as
        # Python formats them
        series = np.array(
            [
                [0.0, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1 / 3, -1e-5,
                 0.1, 2.5, 1e16, 123456789.0, 1234567891.0, 1e300, -2.0, 15.0],
                0.01 * np.arange(17),
            ]
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        expected = (
            ",".join(SERIES_COLUMNS) + "\r\n"
            "0,nan,inf,-inf,-0,4.94065646e-324,1e-310,0.333333333,-1e-05,"
            "0.1,2.5,1e+16,123456789,1.23456789e+09,1e+300,-2,15\r\n"
            "0,0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12,0.13,0.14,0.15,0.16\r\n"
        )
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("rows", [0, 1, 1501])
    def test_series_csv_is_the_text_of_savetxt(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        series = rng.normal(size=(rows, len(SERIES_COLUMNS))) * 10.0 ** rng.integers(-12, 12, size=(rows, len(SERIES_COLUMNS)))
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, -1e-300, 5e-324]
        series.ravel()[rng.choice(series.size, size=min(series.size, 200), replace=False)] = np.resize(specials, min(series.size, 200))
        write_series_csv(tmp_path / "series.csv", series)
        with open(tmp_path / "savetxt.csv", "w", encoding="utf-8", newline="") as fh:
            np.savetxt(fh, series, fmt="%.9g", delimiter=",", newline="\r\n", header=",".join(SERIES_COLUMNS), comments="")
        assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_batch_csv_rows(self, tmp_path):
        from eqfcascade.config import ScenarioConfig
        from eqfcascade.harness import run_single

        cfg = ScenarioConfig(seed=5, duration_s=1.0, gyro_noise_std=0.0, direction_noise_std=0.0)
        runs = [run_single(cfg, run_index=i) for i in range(3)]
        summary = summarize(runs)
        path = tmp_path / "batch.csv"
        write_batch_csv(path, summary)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "run",
            "diverged",
            "t1deg_chaser_roll",
            "t1deg_chaser_pitch",
            "t1deg_chaser_yaw",
            "mean_chaser_deg_roll",
            "mean_chaser_deg_pitch",
            "mean_chaser_deg_yaw",
            "min_chaser_deg_roll",
            "min_chaser_deg_pitch",
            "min_chaser_deg_yaw",
            "t1deg_rel_roll",
            "t1deg_rel_pitch",
            "t1deg_rel_yaw",
            "mean_rel_deg_roll",
            "mean_rel_deg_pitch",
            "mean_rel_deg_yaw",
            "min_rel_deg_roll",
            "min_rel_deg_pitch",
            "min_rel_deg_yaw",
            "bias_mean_dps",
            "bias_mean_rel_pct",
            "bias_min_dps",
            "bias_min_rel_pct",
            "omega_mean_dps",
            "omega_mean_rel_pct",
            "omega_min_dps",
            "omega_min_rel_pct",
        ]
        assert len(lines) == 1 + 3 + 1  # header + runs + aggregate
        assert lines[-1].startswith("aggregate,")
        assert len(lines[1].split(",")) == 2 + len(metric_names())


def test_summarize_excludes_diverged_runs():
    from eqfcascade.metrics import failed_metrics
    from eqfcascade.config import ScenarioConfig
    from eqfcascade.harness import run_single

    good = run_single(ScenarioConfig(seed=2, duration_s=1.0))
    bad = failed_metrics(run_index=1)
    summary = summarize([good, bad])
    assert summary.n_failed == 1
    assert math.isfinite(summary.aggregate["omega_mean_dps"])
