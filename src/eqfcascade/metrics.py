"""Error metrics, per-run summaries and CSV persistence.

Means and minima are taken over the post-convergence window
10 s <= t <= 15 s (clipped to the run length), while the
time-to-threshold statistic scans the whole run and uses the sustained
reading: the first instant after which the error never exceeds the
threshold again. Attitude errors are reported per axis in ZYX (yaw, pitch,
roll) Euler angles, differenced with wrapping to (-180, 180] degrees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .geom import rotation_angle

RAD2DEG = 180.0 / math.pi
WINDOW = (10.0, 15.0)
GIMBAL_TOL = 1e-6  # radians from +/- 90 deg pitch

SERIES_COLUMNS = (
    "t",
    "err_att_chaser_deg",
    "err_roll_c",
    "err_pitch_c",
    "err_yaw_c",
    "err_bias_dps",
    "err_att_rel_deg",
    "err_roll",
    "err_pitch",
    "err_yaw",
    "err_omega_dps",
    "V1",
    "V2",
    "E_A_norm",
    "E_a_norm",
    "E_Q_norm",
    "E_q_norm",
)


def euler_zyx(rot: np.ndarray) -> np.ndarray:
    """(roll, pitch, yaw) radians of rot = Rz(yaw) Ry(pitch) Rx(roll); one
    row per rotation for a stack (n, 3, 3)."""
    rot = np.asarray(rot, dtype=float)
    pitch = -np.arcsin(np.clip(rot[..., 2, 0], -1.0, 1.0))
    roll = np.arctan2(rot[..., 2, 1], rot[..., 2, 2])
    yaw = np.arctan2(rot[..., 1, 0], rot[..., 0, 0])
    return np.stack([roll, pitch, yaw], axis=-1)


def wrap_deg(x: np.ndarray) -> np.ndarray:
    """Wrap angle differences to (-180, 180] degrees."""
    return -((-np.asarray(x) + 180.0) % 360.0 - 180.0)


def euler_errors(rot_true: np.ndarray, rot_hat: np.ndarray) -> np.ndarray:
    """Per-axis (roll, pitch, yaw) attitude errors in degrees; one row per
    rotation pair for stacks.

    Within GIMBAL_TOL of +/-90 deg pitch the per-axis decomposition is
    ambiguous; the total rotation angle is then reported on all three axes.
    """
    rot_true = np.asarray(rot_true, dtype=float)
    rot_hat = np.asarray(rot_hat, dtype=float)
    e_true = euler_zyx(rot_true)
    e_hat = euler_zyx(rot_hat)
    pitch_to_90 = np.minimum(np.abs(np.abs(e_true[..., 1]) - math.pi / 2), np.abs(np.abs(e_hat[..., 1]) - math.pi / 2))
    gimbal = pitch_to_90 < GIMBAL_TOL
    out = wrap_deg((e_true - e_hat) * RAD2DEG)
    if np.any(gimbal):
        out[gimbal] = (rotation_angle(rot_true[gimbal], rot_hat[gimbal]) * RAD2DEG)[..., None]
    return out


def time_to_threshold(t: np.ndarray, err: np.ndarray, threshold: float) -> float:
    """First time after which err stays below threshold; inf if it never does."""
    t = np.asarray(t, dtype=float)
    err = np.asarray(err, dtype=float)
    if t.size == 0:
        raise ValueError("empty series")
    above = np.flatnonzero(err >= threshold)
    if above.size == 0:
        return float(t[0])
    if above[-1] == t.size - 1:
        return math.inf
    return float(t[above[-1] + 1])


@dataclass(frozen=True)
class RunMetrics:
    """Summary statistics of one simulation run (angles deg, rates deg/s).
    The array (roll, pitch, yaw) and float fields are the CSV metric
    columns, in field order."""

    run_index: int
    diverged: bool
    t1deg_chaser: np.ndarray
    mean_chaser_deg: np.ndarray
    min_chaser_deg: np.ndarray
    t1deg_rel: np.ndarray
    mean_rel_deg: np.ndarray
    min_rel_deg: np.ndarray
    bias_mean_dps: float
    bias_mean_rel_pct: float
    bias_min_dps: float
    bias_min_rel_pct: float
    omega_mean_dps: float
    omega_mean_rel_pct: float
    omega_min_dps: float
    omega_min_rel_pct: float
    series: np.ndarray | None = None


_METRIC_FIELDS = {
    name: hint for name, hint in get_type_hints(RunMetrics).items() if hint is np.ndarray or hint is float
}
_AXIS_SUFFIXES = ("roll", "pitch", "yaw")


def metric_names() -> list[str]:
    names = []
    for name, hint in _METRIC_FIELDS.items():
        names.extend([f"{name}_{s}" for s in _AXIS_SUFFIXES] if hint is np.ndarray else [name])
    return names


def _metric_values(m: RunMetrics) -> list[float]:
    return [float(v) for name in _METRIC_FIELDS for v in np.ravel(getattr(m, name))]


def failed_metrics(run_index: int) -> RunMetrics:
    nan = {name: np.full(3, np.nan) if hint is np.ndarray else math.nan for name, hint in _METRIC_FIELDS.items()}
    return RunMetrics(run_index=run_index, diverged=True, **nan)


@dataclass(frozen=True)
class BatchSummary:
    """Per-run metrics plus across-run means (diverged runs excluded)."""

    runs: list[RunMetrics]
    n_failed: int
    aggregate: dict[str, float]


def summarize(runs: list[RunMetrics]) -> BatchSummary:
    """Aggregate means exclude diverged runs; time-to-threshold columns
    additionally average only the runs that ever reached the threshold
    (per-run infinities stay visible in the per-run records)."""
    ok = [m for m in runs if not m.diverged]
    names = metric_names()
    if ok:
        table = np.array([_metric_values(m) for m in ok])
        aggregate = {}
        for i, name in enumerate(names):
            col = table[:, i]
            if name.startswith("t1deg"):
                col = col[np.isfinite(col)]
            aggregate[name] = float(np.mean(col)) if col.size else math.nan
    else:
        aggregate = {name: math.nan for name in names}
    return BatchSummary(runs=list(runs), n_failed=len(runs) - len(ok), aggregate=aggregate)


_CHUNK = 256  # series rows read as floats at a time: 0.1 MB at 17 columns


def write_series_csv(path, series: np.ndarray) -> None:
    """SERIES_COLUMNS header, then one row per tick in %.9g, CRLF line ends:
    np.savetxt's text, one % format a row (one over many rows grows its text
    by realloc, which fragments glibc's malloc heap over repeated writes)."""
    row = ",".join(["%.9g"] * series.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\r\n")
        for lo in range(0, len(series), _CHUNK):
            fh.writelines(row % tuple(r) for r in series[lo : lo + _CHUNK].tolist())


def write_batch_csv(path, summary: BatchSummary) -> None:
    """One row per run plus a final aggregate row over non-diverged runs."""
    names = metric_names()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "diverged", *names])
        for m in summary.runs:
            writer.writerow(
                [m.run_index, int(m.diverged), *[f"{v:.9g}" for v in _metric_values(m)]]
            )
        writer.writerow(
            ["aggregate", summary.n_failed, *[f"{summary.aggregate[n]:.9g}" for n in names]]
        )
