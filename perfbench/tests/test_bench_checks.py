"""The benchmark's output checks and its refusal to run without the program."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads
from eqfcascade import config, harness, metrics

BENCH_DIR = Path(__file__).resolve().parents[1]
SHORT = replace(config.ScenarioConfig(seed=5), duration_s=2.0)
MC = workloads.Workload("short", SHORT, runs_per_op=2, min_ops=1)


def test_check_batch_accepts_a_clean_batch():
    summary = harness.run_batch(SHORT, 2)
    res = workloads.check_batch(MC, SHORT, summary)
    assert res.failed == 0
    assert len(res.runs) == 2
    assert set(res.runs[0]) == {
        "chaser_att_err_deg",
        "bias_err_pct",
        "rel_att_err_deg",
        "omega_err_dps",
        "t1deg_chaser_s",
        "t1deg_rel_s",
    }


def test_check_batch_counts_diverged_and_nonfinite_runs():
    summary = harness.run_batch(SHORT, 2)
    bad = replace(summary.runs[1], omega_mean_dps=math.nan)
    res = workloads.check_batch(MC, SHORT, metrics.summarize([summary.runs[0], bad]))
    assert res.failed == 1
    diverged = metrics.failed_metrics(1)
    res = workloads.check_batch(MC, SHORT, metrics.summarize([summary.runs[0], diverged]))
    assert res.failed == 1


def test_check_batch_rejects_an_inconsistent_aggregate():
    summary = harness.run_batch(SHORT, 2)
    aggregate = dict(summary.aggregate, omega_mean_dps=summary.aggregate["omega_mean_dps"] * 1.01)
    res = workloads.check_batch(MC, SHORT, replace(summary, aggregate=aggregate))
    assert res.failed == 2


def test_mismatched_runs_sees_one_ulp():
    a = harness.run_batch(SHORT, 2)
    b = harness.run_batch(SHORT, 2, workers=2)
    assert workloads.mismatched_runs(a, b) == 0
    nudged = replace(b.runs[0], bias_mean_dps=np.nextafter(b.runs[0].bias_mean_dps, np.inf))
    assert workloads.mismatched_runs(a, replace(b, runs=[nudged, b.runs[1]])) == 1


def test_check_cli_run_reads_the_three_outputs(tmp_path):
    wl = workloads.WORKLOADS["single_series"]
    cfg = wl.scenario(3, 0)
    rc = workloads.run_op(wl, cfg, tmp_path)
    res = workloads.check_cli_run(cfg, rc, tmp_path)
    assert res.failed == 0 and len(res.runs) == 1
    # a truncated series file fails the check
    series = tmp_path / "run_0000_series.csv"
    series.write_text("".join(series.read_text().splitlines(keepends=True)[:-1]))
    assert workloads.check_cli_run(cfg, rc, tmp_path).failed == 1


def test_midmean_drops_the_outer_quarters():
    assert workloads.midmean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0]) == 3.5
    assert workloads.midmean([1.0, 2.0, 3.0, math.inf]) == 2.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mc_lowrate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        assert "metrics" not in parsed
