"""Monte Carlo experiment runner: scenario generation, tick scheduling,
metric extraction and batch aggregation.

Runs are deterministic: run i of a batch draws everything from the stream
seeded by (master seed, i), and run_single uses index 0, so a one-run
batch reproduces the single run bit for bit. Scenario quantities are drawn
in a fixed order before any measurement noise, so batches with different
rates or input modes see identical worlds on the same seeds.

run_single keeps only the filter in its tick loops, one pass per stage:
stage 1 over every tick, then stage 2 over the ticks before stage 1's
failing one, on the gyro less stage 1's bias estimates. Truth and
measurements are whole-run stacks drawn first; the diagnostic series is
computed from the stored filter states last. A run has diverged if and
only if a filter step raised NumericalFailure (an update left a Riccati
state not finite and positive definite, or a correction sub-step's system
was singular); its series then covers only the ticks before the earlier
failing one. V is NaN on a singular Riccati row; the diagnostics decide nothing.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import cascade, metrics
from .config import ScenarioConfig
from .filter_base import NumericalFailure, initial_estimate, recover_state
from .geom import GroupElement, StageState, exp_so3, random_rotation, random_unit_vector
from .metrics import RAD2DEG, BatchSummary, RunMetrics, euler_errors, time_to_threshold
from .models import TruthWorld, relative_state, sensor_streams, truth_trajectory

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


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.vecdot(v, v))


def _lyapunov_rows(eps: cascade.ErrorVector, sigma: np.ndarray) -> np.ndarray:
    """V per row; NaN on each row whose Riccati state is singular."""
    try:
        return cascade.lyapunov_value(eps, sigma)
    except np.linalg.LinAlgError:
        # the batched solve names no row; slogdet's zero sign marks exactly
        # the rows it fails on (det would also read 0 when it underflows)
        singular = np.linalg.slogdet(sigma).sign == 0
        return cascade.lyapunov_value(eps, np.where(singular[:, None, None], np.nan, sigma))


def _stage_columns(truth: StageState, x: GroupElement, sigma: np.ndarray):
    """One stage's series columns, row by row over the ticks: the errors
    (geodesic angle, per-axis Euler angles in deg, vector state in deg/s),
    V, and the norms of the group error's two parts."""
    st = recover_state(x)
    e = cascade.group_error(truth, x)
    # the local rotation error norm equals the estimate-vs-truth geodesic angle
    eps = cascade.local_error_of(e)
    errors = (
        _norm(eps.rot) * RAD2DEG,
        *np.abs(euler_errors(truth.rot, st.rot)).T,
        _norm(st.vec - truth.vec) * RAD2DEG,
    )
    norms = (_norm((e.rot - _EYE3).reshape(-1, 9)), _norm(e.vec))
    return errors, _lyapunov_rows(eps, sigma), norms


def _series(dt: float, n: int, truths: tuple[StageState, StageState], rot: np.ndarray, vec: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """All SERIES_COLUMNS, one row for each of the first n ticks.

    truths holds each stage's true state per tick; rot, vec and sigma stack
    each stage's group state and Riccati state over the ticks, shapes
    (2, m, 3, 3), (2, m, 3) and (2, m, 6, 6) for m >= n.
    """
    (err1, v1, norms1), (err2, v2, norms2) = (
        _stage_columns(StageState(truth.rot[:n], truth.vec[:n]), GroupElement(rot[i, :n], vec[i, :n]), sigma[i, :n])
        for i, truth in enumerate(truths)
    )
    t = dt * np.arange(n)
    return np.column_stack([t, *err1, *err2, v1, v2, *norms1, *norms2])


def _pass(tick, dts: list, inputs: np.ndarray, every: int, measured: np.ndarray, out, gains, *params) -> int:
    """Run one stage's tick over ticks 1..len(inputs) from the initial estimate
    of its gains, storing its states at rows 0.. of out = (rot, vec, sigma);
    the rows stored, which is the failing tick on NumericalFailure."""
    rot, vec, sigma = out
    est = initial_estimate(gains)
    rot[0], vec[0], sigma[0] = est.X.rot, est.X.vec, est.Sigma
    for k in range(1, len(inputs) + 1):
        y = measured[k // every - 1] if k % every == 0 else None
        try:
            est = tick(est, dts[k - 1], inputs[k - 1], y, gains, *params)
        except NumericalFailure:
            return k
        rot[k], vec[k], sigma[k] = est.X.rot, est.X.vec, est.Sigma
    return len(inputs) + 1


def _window_metrics(run_index: int, series: np.ndarray, world: TruthWorld) -> RunMetrics:
    t = series[:, 0]
    lo, hi = metrics.WINDOW
    win = series[(t >= lo) & (t <= hi)]
    if win.shape[0] == 0:
        win = series  # short runs fall back to the full series
    values = {}
    # each stage's three per-axis attitude error columns
    for name, col in (("chaser", 2), ("rel", 7)):
        values[f"t1deg_{name}"] = np.array([time_to_threshold(t, series[:, col + i], 1.0) for i in range(3)])
        values[f"mean_{name}_deg"] = win[:, col : col + 3].mean(axis=0)
        values[f"min_{name}_deg"] = win[:, col : col + 3].min(axis=0)
    # relative errors are undefined for zero-magnitude truth vectors
    for name, col, truth in (("bias", 5, world.gyro_bias), ("omega", 10, world.omega_target)):
        truth_norm = float(np.linalg.norm(truth)) * RAD2DEG or math.nan
        for stat, reduce in (("mean", np.mean), ("min", np.min)):
            value = float(reduce(win[:, col]))
            values[f"{name}_{stat}_dps"] = value
            values[f"{name}_{stat}_rel_pct"] = 100.0 * value / truth_norm
    return RunMetrics(run_index=run_index, diverged=False, **values)


def run_single(cfg: ScenarioConfig, run_index: int = 0, keep_series: bool = False) -> RunMetrics:
    """Simulate one scenario and summarize it.

    The run has diverged if and only if a filter step raised
    NumericalFailure; its series then holds the rows before the earlier
    of the two stages' failing ticks. Any other error is raised.
    """
    rng = run_rng(cfg.seed, run_index)
    world = sample_world(cfg, rng)
    sensors = cfg.sensors()
    gains1, gains2 = cfg.stage1_gains(), cfg.stage2_gains()
    dt = 1.0 / sensors.gyro_rate
    n_steps = cfg.steps_per_run()

    truth = truth_trajectory(world, dt, n_steps)
    rel = relative_state(truth)
    streams = sensor_streams(truth, rel.rot, sensors, cfg.star_every(), cfg.feature_every(), rng)
    rot = np.full((2, n_steps + 1, 3, 3), np.nan)
    vec = np.full((2, n_steps + 1, 3), np.nan)
    sigma = np.full((2, n_steps + 1, 6, 6), np.nan)
    # tick k advances by k dt - (k - 1) dt, as cascade.step does between bundle times
    dts = np.diff(dt * np.arange(n_steps + 1)).tolist()
    # overflow inside a diverging filter, and the non-finite diagnostics it
    # leads to, are expected, handled outcomes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n1 = _pass(
            cascade.stage1_tick, dts, streams.gyro, cfg.star_every(), streams.star,
            (rot[0], vec[0], sigma[0]), gains1, 1.0 / sensors.star_rate,
        )
        rate = streams.gyro[: n1 - 1]
        if cfg.input_mode == "unbiased_cascade":
            rate = rate - recover_state(GroupElement(rot[0, 1:n1], vec[0, 1:n1])).vec
        n_rows = _pass(
            cascade.stage2_tick, dts, rate, cfg.feature_every(), streams.features,
            (rot[1], vec[1], sigma[1]), gains2, world.ref_dirs, 1.0 / sensors.feature_rate,
        )
        # the constant bias as a per-tick view, so that both stages slice alike
        bias = np.broadcast_to(truth.gyro_bias, rel.vec.shape)
        series = _series(dt, n_rows, (StageState(truth.att_chaser, bias), rel), rot, vec, sigma)
        out = metrics.failed_metrics(run_index) if n_rows <= n_steps else _window_metrics(run_index, series, world)
    return replace(out, series=series) if keep_series else out


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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, n_runs)  # a pool of more workers than runs would fork idle ones
    args = ([cfg] * n_runs, range(n_runs), [keep_series] * n_runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run_single, *args, chunksize=max(1, n_runs // (4 * workers))))
    else:
        runs = list(map(run_single, *args))
    return metrics.summarize(runs)
