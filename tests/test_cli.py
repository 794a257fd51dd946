import csv

import pytest

from eqfcascade.cli import main
from eqfcascade.config import read_config


def test_run_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run",
            "--seed", "4",
            "--duration", "2",
            "--emit-series",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "run_metrics.csv").exists()
    assert (out_dir / "run_0000_series.csv").exists()
    assert (out_dir / "scenario_used.cfg").exists()
    assert "gyro bias mean err" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text("seed = 1\nduration_s = 2.0\nstar_rate_hz = 2.0\n")
    out_dir = tmp_path / "out"
    rc = main(
        ["run", "--config", str(cfg_path), "--seed", "9", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    used = read_config(out_dir / "scenario_used.cfg")
    assert used.seed == 9  # flag wins
    assert used.star_rate_hz == 2.0  # file value kept


def test_batch_subcommand(tmp_path):
    out_dir = tmp_path / "out"
    rc = main(
        ["batch", "--runs", "3", "--seed", "2", "--duration", "2", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    with open(out_dir / "batch_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 + 1
    assert rows[-1][0] == "aggregate"


def test_compare_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        ["compare", "--runs", "2", "--seed", "3", "--duration", "2", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    for tag in ("unbiased", "biased", "fast_rate"):
        assert (out_dir / f"batch_{tag}.csv").exists()
    with open(out_dir / "compare_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["unbiased", "biased", "fast_rate"]
    out = capsys.readouterr().out
    assert "bias feedthrough effect" in out


def test_run_writes_the_one_run_batch_csv(tmp_path):
    args = ["--seed", "6", "--duration", "2"]
    assert main(["run", *args, "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["batch", "--runs", "1", *args, "--out-dir", str(tmp_path / "batch")]) == 0
    run_csv = (tmp_path / "run" / "run_metrics.csv").read_bytes()
    assert run_csv == (tmp_path / "batch" / "batch_summary.csv").read_bytes()


@pytest.mark.parametrize("argv", [["run", "--workers", "2"], ["compare", "--emit-series"]])
def test_flags_only_where_they_act(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--runs", "0"],
        ["batch", "--workers", "0"],
        ["compare", "--runs", "-1"],
        ["compare", "--workers", "0"],
        ["batch", "--runs", "two"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--duration", "0"], "duration_s"),
        (["batch", "--runs", "2", "--gyro-noise", "-1"], "gyro_noise_std"),
        (["compare", "--runs", "1", "--star-rate", "3"], "star_rate_hz"),
        (["run", "--gyro-noise", "1e200", "--duration", "1"], "gyro_noise_std"),
        (["run", "--duration", "0.015"], "duration_s"),
        # an angle bound past 180 deg once ended in a traceback
        (["run", "--attitude-init-max", "1e160", "--duration", "1"], "attitude_init_max_deg"),
    ],
)
def test_invalid_scenario_is_one_line_usage_error(argv, field, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err and "Traceback" not in err
    assert not out_dir.exists()


def test_duration_without_a_gyro_tick_is_usage_error(tmp_path, capsys):
    # 0.004 s at 100 Hz rounds to 0 ticks: there is no run to report
    out_dir = tmp_path / "out"
    assert main(["run", "--duration", "0.004", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duration_s" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, field",
    [
        ("seed = 1\nupdate_iterations = 0\n", "update_iterations"),
        # a rate range may reach half a turn per gyro tick, 18000 deg/s at
        # 100 Hz; these once ended in a traceback (1e200) or completed with
        # an overflow warning (1e156)
        ("omega_target_range_dps = 1e200 1e200\nduration_s = 1\n", "omega_target_range_dps"),
        ("chaser_rate_range_dps = 1e200 1e200\nduration_s = 1\n", "chaser_rate_range_dps"),
        ("omega_target_range_dps = 1e156 1e156\nduration_s = 1\n", "omega_target_range_dps"),
        # a reference direction whose length overflows once warned
        ("ref_dir_1 = 1e300 0 0\nduration_s = 1\n", "ref_dir_1"),
        # a repeated key once kept its last value silently
        ("seed = 1\nduration_s = 1\nseed = 2\n", "line 3: field 'seed'"),
    ],
    ids=["update_iterations_0", "omega_target_1e200", "chaser_rate_1e200", "omega_target_1e156", "ref_dir_1e300", "seed_twice"],
)
def test_invalid_config_file_is_one_line_usage_error(text, field, tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_config_file_is_one_line_usage_error(kind, tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    if kind == "directory":
        cfg_path.mkdir()
    elif kind == "binary":
        cfg_path.write_bytes(bytes(range(128, 256)))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg_path) in err and "Traceback" not in err
    assert not out_dir.exists()
