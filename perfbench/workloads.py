"""Workload definitions, operations and output checks.

An operation is what one timed step runs: a `harness.run_batch` of
`runs_per_op` Monte Carlo runs for the mc_* workloads, and one in-process
`cli.main(["run", "--emit-series", ...])` for single_series. Every run of an
operation is checked; a run that raises, diverges, has non-finite window
metrics or fails a check counts as failed.

Inputs come from the master seed only: operation i uses
ScenarioConfig.seed = master_seed * SEED_STRIDE + i, so the same master seed
gives the same scenarios and noise.

Names are looked up on the program's modules at call time (`harness.run_batch`,
`cli.main`) so that the tracer's wrappers, when installed, see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from eqfcascade import cli, config, harness, metrics

SEED_STRIDE = 10_000
WARMUP_DURATION_S = 1.0  # one star and ten feature updates at the default rates
SERIES_ROWS = 1501  # 15 s at 100 Hz plus the t = 0 row
WINDOW_FIELDS = (
    "mean_chaser_deg",
    "min_chaser_deg",
    "bias_mean_dps",
    "bias_mean_rel_pct",
    "bias_min_dps",
    "bias_min_rel_pct",
    "mean_rel_deg",
    "min_rel_deg",
    "omega_mean_dps",
    "omega_mean_rel_pct",
    "omega_min_dps",
    "omega_min_rel_pct",
)
AXES = ("roll", "pitch", "yaw")


@dataclass(frozen=True)
class Workload:
    name: str
    base: config.ScenarioConfig
    runs_per_op: int
    min_ops: int  # always completed; the accuracy metrics cover these ops
    via_cli: bool = False
    repro_workers: int = 0  # redo operation 0 on this many workers and compare

    def scenario(self, master_seed: int, op_index: int) -> config.ScenarioConfig:
        return replace(self.base, seed=master_seed * SEED_STRIDE + op_index)


_PAPER = config.ScenarioConfig()
_FAST = replace(_PAPER, star_rate_hz=100.0, feature_rate_hz=100.0, update_iterations=1)

# min_ops gives each workload 32 accuracy runs: with fewer, the Monte Carlo
# spread of the accuracy metrics between master seeds nears their bound
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_lowrate", _PAPER, runs_per_op=8, min_ops=4, repro_workers=2),
        Workload("mc_fastrate", _FAST, runs_per_op=8, min_ops=4),
        Workload("single_series", _PAPER, runs_per_op=1, min_ops=32, via_cli=True),
    )
}


@dataclass
class OpResult:
    """Per-run values of one operation and the number of runs that failed."""

    runs: list[dict[str, float]]
    failed: int
    summary: metrics.BatchSummary | None = None


# -- running ------------------------------------------------------------------


def run_op(wl: Workload, cfg: config.ScenarioConfig, out_dir: Path, workers: int = 1):
    """The timed part of one operation: the CLI exit code or the batch summary."""
    if wl.via_cli:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", "--emit-series", "--seed", str(cfg.seed), "--out-dir", str(out_dir)])
    return harness.run_batch(cfg, wl.runs_per_op, workers=workers)


def warm_up(wl: Workload, master_seed: int, out_dir: Path) -> None:
    """One short operation of the workload's own kind, before any timing."""
    cfg = replace(wl.scenario(master_seed, 0), duration_s=WARMUP_DURATION_S)
    if wl.via_cli:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--emit-series", "--seed", str(cfg.seed), "--duration", str(cfg.duration_s), "--out-dir", str(out_dir)])
    else:
        harness.run_batch(cfg, 1)
    shutil.rmtree(out_dir, ignore_errors=True)


# -- checking -----------------------------------------------------------------


def flat_values(m: metrics.RunMetrics) -> dict[str, float]:
    """A run's metrics under the column names of the program's CSVs."""
    out = {}
    for f in fields(m):
        value = getattr(m, f.name)
        if f.name in ("run_index", "diverged", "series"):
            continue
        if np.ndim(value) == 1:
            out.update({f"{f.name}_{a}": float(v) for a, v in zip(AXES, value)})
        else:
            out[f.name] = float(value)
    return out


def run_values(flat: dict[str, float]) -> dict[str, float]:
    """The per-run accuracy values the end-to-end metrics are built from."""

    def axes_mean(base: str) -> float:
        return float(np.mean([flat[f"{base}_{a}"] for a in AXES]))

    return {
        "chaser_att_err_deg": axes_mean("mean_chaser_deg"),
        "bias_err_pct": flat["bias_mean_rel_pct"],
        "rel_att_err_deg": axes_mean("mean_rel_deg"),
        "omega_err_dps": flat["omega_mean_dps"],
        "t1deg_chaser_s": axes_mean("t1deg_chaser"),
        "t1deg_rel_s": axes_mean("t1deg_rel"),
    }


def midmean(values: list[float]) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    Per-run errors have heavy tails (Euler-angle errors near gimbal lock,
    runs slow to converge, time-to-threshold of inf), and the times step
    with the 1 Hz star updates; this estimator is robust to the first and
    smoother than the median on the second.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    middle = xs[cut : len(xs) - cut]
    return math.fsum(middle) / len(middle)


def _window_finite(m: metrics.RunMetrics) -> bool:
    return all(np.all(np.isfinite(np.asarray(getattr(m, f), dtype=float))) for f in WINDOW_FIELDS)


def _aggregate_consistent(summary: metrics.BatchSummary) -> bool:
    """The batch aggregate is the mean over non-diverged runs, with the
    time-to-threshold columns averaged over their finite entries."""
    ok = [flat_values(m) for m in summary.runs if not m.diverged]
    if summary.n_failed != len(summary.runs) - len(ok):
        return False
    for name, value in summary.aggregate.items():
        col = np.array([v[name] for v in ok])
        if name.startswith("t1deg"):
            col = col[np.isfinite(col)]
        if not _close(value, float(np.mean(col)) if col.size else math.nan):
            return False
    return True


def _close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def check_batch(wl: Workload, cfg: config.ScenarioConfig, summary: metrics.BatchSummary) -> OpResult:
    """Every run present in order, non-diverged, with finite window metrics;
    the aggregate consistent with the runs."""
    runs, failed = [], 0
    if [m.run_index for m in summary.runs] != list(range(wl.runs_per_op)):
        return OpResult([], wl.runs_per_op, summary)
    for m in summary.runs:
        if m.diverged or not _window_finite(m):
            failed += 1
        else:
            runs.append(run_values(flat_values(m)))
    if not _aggregate_consistent(summary):
        failed = wl.runs_per_op
    return OpResult(runs, failed, summary)


def check_cli_run(cfg: config.ScenarioConfig, rc: int, out_dir: Path) -> OpResult:
    """The run's three output files exist and agree with each other.

    run_metrics.csv holds one non-diverged run with finite window metrics;
    the series CSV has one finite row per tick and all columns; its window
    means reproduce run_metrics.csv; scenario_used.cfg reads back as the
    scenario that was run.
    """
    fail = OpResult([], 1)
    if rc != 0:
        return fail
    try:
        with open(out_dir / "run_metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, row = rows[0], rows[1]
        values = dict(zip(header[2:], (float(v) for v in row[2:])))
        series = np.loadtxt(out_dir / "run_0000_series.csv", delimiter=",", skiprows=1, ndmin=2)
        used = config.read_config(out_dir / "scenario_used.cfg")
    except (OSError, IndexError, ValueError):
        return fail
    window_names = [n for n in metrics.metric_names() if not n.startswith("t1deg")]
    if (
        row[0] != "0"
        or row[1] != "0"
        or len(rows) != 3
        or not all(math.isfinite(values.get(n, math.nan)) for n in window_names)
        or series.shape != (SERIES_ROWS, len(metrics.SERIES_COLUMNS))
        or not np.all(np.isfinite(series))
        or used != cfg
    ):
        return fail
    t = series[:, 0]
    lo, hi = metrics.WINDOW
    win = series[(t >= lo) & (t <= hi)]
    for axis, suffix in enumerate(AXES):
        for col, name in ((2 + axis, f"mean_chaser_deg_{suffix}"), (7 + axis, f"mean_rel_deg_{suffix}")):
            # the CSVs round to 9 significant digits
            if not math.isclose(float(np.mean(win[:, col])), values[name], rel_tol=1e-6):
                return fail
    return OpResult([run_values(values)], 0)


def mismatched_runs(a: metrics.BatchSummary, b: metrics.BatchSummary) -> int:
    """Runs whose metrics differ in any bit between two batches of the same
    scenario; at least one if the aggregates differ."""
    mismatched = sum(
        ra.diverged != rb.diverged or _bits(flat_values(ra)) != _bits(flat_values(rb))
        for ra, rb in zip(a.runs, b.runs)
    ) + abs(len(a.runs) - len(b.runs))
    if _bits(a.aggregate) != _bits(b.aggregate):
        mismatched = max(mismatched, 1)
    return mismatched


def _bits(values: dict[str, float]) -> tuple[list[str], bytes]:
    return list(values), np.array(list(values.values()), dtype=float).tobytes()
