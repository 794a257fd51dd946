"""Monte Carlo experiment runner: scenario generation, tick scheduling,
metric extraction and batch aggregation.

Runs are deterministic: run i of a batch draws everything from the stream
seeded by (master seed, i), and run_single uses index 0, so a one-run
batch reproduces the single run bit for bit. Scenario quantities are drawn
in a fixed order before any measurement noise, so batches with different
rates or input modes see identical worlds on the same seeds.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import cascade, metrics
from .config import ScenarioConfig
from .filter_base import NumericalFailure, recover_state
from .geom import StageState, exp_so3, random_rotation, random_unit_vector
from .metrics import RAD2DEG, BatchSummary, RunMetrics, euler_errors, time_to_threshold
from .models import MeasurementBundle, TruthWorld, measure_features, measure_gyro, measure_star_tracker, propagate_truth, relative_state

DEG2RAD = math.pi / 180.0


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run of a batch."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, run_index)))


def _bounded_rotation(max_deg: float, rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(0.0, max_deg) * DEG2RAD
    return exp_so3(angle * random_unit_vector(rng))


def _random_rate(range_dps: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    mag = rng.uniform(range_dps[0], range_dps[1]) * DEG2RAD
    return mag * random_unit_vector(rng)


def sample_world(cfg: ScenarioConfig, rng: np.random.Generator) -> TruthWorld:
    """Draw a scenario; attitudes first, then the three rate vectors."""
    if cfg.attitude_init_max_deg is None:
        att_chaser = random_rotation(rng)
        att_target = random_rotation(rng)
    else:
        att_chaser = _bounded_rotation(cfg.attitude_init_max_deg, rng)
        rel = _bounded_rotation(cfg.attitude_init_max_deg, rng)
        att_target = att_chaser @ rel.T
    return TruthWorld(
        att_target=att_target,
        att_chaser=att_chaser,
        omega_target=_random_rate(cfg.omega_target_range_dps, rng),
        omega_chaser=_random_rate(cfg.chaser_rate_range_dps, rng),
        gyro_bias=_random_rate(cfg.gyro_bias_range_dps, rng),
        ref_dirs=cfg.ref_dirs(),
    )


_EYE3 = np.eye(3)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def _record_row(t: float, cs: cascade.CascadeState, world: TruthWorld) -> np.ndarray:
    st1 = recover_state(cs.s1.X)
    st2 = recover_state(cs.s2.X)
    rel = relative_state(world)
    e1 = cascade.group_error(StageState(world.att_chaser, world.gyro_bias), cs.s1.X)
    e2 = cascade.group_error(rel, cs.s2.X)
    # the local rotation error norm equals the estimate-vs-truth geodesic angle
    eps1 = cascade.local_error_of(e1)
    eps2 = cascade.local_error_of(e2)
    ec = euler_errors(world.att_chaser, st1.rot)
    er = euler_errors(rel.rot, st2.rot)
    return np.array(
        [
            t,
            _norm(eps1.rot) * RAD2DEG,
            abs(ec[0]),
            abs(ec[1]),
            abs(ec[2]),
            _norm(st1.vec - world.gyro_bias) * RAD2DEG,
            _norm(eps2.rot) * RAD2DEG,
            abs(er[0]),
            abs(er[1]),
            abs(er[2]),
            _norm(st2.vec - rel.vec) * RAD2DEG,
            cascade.lyapunov_value(eps1, cs.s1.Sigma),
            cascade.lyapunov_value(eps2, cs.s2.Sigma),
            float(np.linalg.norm(e1.rot - _EYE3)),
            _norm(e1.vec),
            float(np.linalg.norm(e2.rot - _EYE3)),
            _norm(e2.vec),
        ]
    )


def _window_metrics(run_index: int, series: np.ndarray, world: TruthWorld) -> RunMetrics:
    t = series[:, 0]
    lo, hi = metrics.WINDOW
    win = series[(t >= lo) & (t <= hi)]
    if win.shape[0] == 0:
        win = series  # short runs fall back to the full series
    # relative errors are undefined for zero-magnitude truth vectors
    bias_norm = float(np.linalg.norm(world.gyro_bias)) * RAD2DEG or math.nan
    omega_norm = float(np.linalg.norm(world.omega_target)) * RAD2DEG or math.nan
    chaser_axes = slice(2, 5)
    rel_axes = slice(7, 10)
    bias_mean = float(np.mean(win[:, 5]))
    bias_min = float(np.min(win[:, 5]))
    omega_mean = float(np.mean(win[:, 10]))
    omega_min = float(np.min(win[:, 10]))
    return RunMetrics(
        run_index=run_index,
        diverged=False,
        t1deg_chaser=np.array(
            [time_to_threshold(t, series[:, 2 + i], 1.0) for i in range(3)]
        ),
        mean_chaser_deg=win[:, chaser_axes].mean(axis=0),
        min_chaser_deg=win[:, chaser_axes].min(axis=0),
        bias_mean_dps=bias_mean,
        bias_mean_rel_pct=100.0 * bias_mean / bias_norm,
        bias_min_dps=bias_min,
        bias_min_rel_pct=100.0 * bias_min / bias_norm,
        t1deg_rel=np.array([time_to_threshold(t, series[:, 7 + i], 1.0) for i in range(3)]),
        mean_rel_deg=win[:, rel_axes].mean(axis=0),
        min_rel_deg=win[:, rel_axes].min(axis=0),
        omega_mean_dps=omega_mean,
        omega_mean_rel_pct=100.0 * omega_mean / omega_norm,
        omega_min_dps=omega_min,
        omega_min_rel_pct=100.0 * omega_min / omega_norm,
    )


def run_single(cfg: ScenarioConfig, run_index: int = 0, keep_series: bool = False) -> RunMetrics:
    """Simulate one scenario and summarize it; numerical failures are
    recorded as a diverged run, never raised."""
    rng = run_rng(cfg.seed, run_index)
    world = sample_world(cfg, rng)
    sensors = cfg.sensors()
    gains1 = cfg.stage1_gains()
    gains2 = cfg.stage2_gains()
    ref_dirs = cfg.ref_dirs()
    subtract = cfg.input_mode == "unbiased_cascade"
    star_period = 1.0 / sensors.star_rate
    feature_period = 1.0 / sensors.feature_rate
    dt = 1.0 / sensors.gyro_rate
    n_steps = cfg.steps_per_run()
    star_every = cfg.star_every()
    feature_every = cfg.feature_every()

    cs = cascade.initial_state(gains1, gains2)
    series = np.empty((n_steps + 1, len(metrics.SERIES_COLUMNS)))
    series[0] = _record_row(0.0, cs, world)
    diverged = False
    n_rows = 1
    # overflow inside a diverging filter is an expected, handled outcome
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            gyro = measure_gyro(world, sensors.gyro_noise_std, rng)
            world = propagate_truth(world, dt)
            star = (
                measure_star_tracker(world, sensors.direction_noise_std, rng)
                if k % star_every == 0
                else None
            )
            features = (
                measure_features(world, sensors.direction_noise_std, rng)
                if k % feature_every == 0
                else None
            )
            bundle = MeasurementBundle(k * dt, gyro, star, features)
            try:
                cs = cascade.step(
                    cs, bundle, gains1, gains2, ref_dirs, star_period, feature_period, subtract
                )
                row = _record_row(k * dt, cs, world)
            except (NumericalFailure, np.linalg.LinAlgError, ValueError):
                # a ValueError here can only come from non-finite estimates
                # hitting the trig/solve guards; timestamps are monotone by
                # construction
                diverged = True
                break
            if not np.all(np.isfinite(row)):
                diverged = True
                break
            series[k] = row
            n_rows = k + 1

    series = series[:n_rows]
    if diverged:
        return metrics.failed_metrics(run_index, series if keep_series else None)
    out = _window_metrics(run_index, series, world)
    if keep_series:
        out = replace(out, series=series)
    return out


def _batch_worker(payload: tuple[ScenarioConfig, int, bool]) -> RunMetrics:
    cfg, run_index, keep_series = payload
    return run_single(cfg, run_index=run_index, keep_series=keep_series)


def run_batch(
    cfg: ScenarioConfig, n_runs: int, keep_series: bool = False, workers: int = 1
) -> BatchSummary:
    """n independent runs with per-run seeds derived from the master seed.

    Runs own their RNG streams and share no state, so they may fan out
    across processes; aggregation follows run order, making the result
    independent of worker count and completion order.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    payloads = [(cfg, i, keep_series) for i in range(n_runs)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_batch_worker, payloads, chunksize=max(1, n_runs // (4 * workers))))
    else:
        runs = [_batch_worker(p) for p in payloads]
    return metrics.summarize(runs)
