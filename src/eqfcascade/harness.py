"""Monte Carlo experiment runner: scenario generation, tick scheduling,
metric extraction and batch aggregation.

Runs are deterministic: run i of a batch draws everything from the stream
seeded by (master seed, i), and run_single uses index 0, so a one-run
batch reproduces the single run bit for bit. Scenario quantities are drawn
in a fixed order before any measurement noise, so batches with different
rates or input modes see identical worlds on the same seeds.

The engine keeps only the filter in its tick loops, one pass per stage
(_lockstep), each allocating and returning its own states: stage 1 over
every tick, then stage 2 over the ticks before stage 1's failing one, on
the gyro less stage 1's bias estimates, which with stage 1's failing
ticks is all stage 2 sees of stage 1. A pass advances its lanes in
lockstep: the states carry a leading lane axis, () for one run and (R,)
for R runs; a tick with a measurement is one call of the stage's tick
function for all of them, on their FilterEstimate, and the ticks between
two are one call of its predict span, on bare arrays. _run_lanes runs one lane group: it composes the two passes
and hands each run its two stages' states. run_batch alone cuts a batch
into contiguous lane groups, run in turn or on a worker pool; run_single
is a lane group of one, run at shape (). Each run's world is drawn once,
and truth and measurements are whole-run stacks made first: a lane
group's stage truths and noiseless streams are each built once, lane-major
(R, ticks, ...) like the states, and each run's noise is added on its
lane. The diagnostic series is computed last, a run and a stage at a
time, from the stored filter states and the run's stage-truth lanes. The
Riccati stacks, and the V columns they feed, are stored and formed only
when the series is kept. A run has diverged if and only if a filter
step raised NumericalFailure (an update left a Riccati state not finite
and positive definite; the failure names the lanes); its series then
covers only the ticks before the earlier failing one. V is NaN on a
singular Riccati row; the diagnostics decide nothing.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import cascade, metrics, stage1, stage2
from .config import ScenarioConfig
from .filter_base import FilterEstimate, NumericalFailure, initial_estimate, recover_state
from .geom import GroupElement, StageState, exp_so3, random_rotation, random_unit_vector
from .metrics import RAD2DEG, BatchSummary, RunMetrics, euler_errors, time_to_threshold
from .models import SensorStreams, TruthWorld, add_sensor_noise, noiseless_streams, stage_truths, truth_trajectory

DEG2RAD = math.pi / 180.0
LANES = 50  # runs advanced together at most; their stacks and stage truths take 0.55 MB a run, 1.4 MB with the series


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


def _stage_columns(truth: StageState, x: GroupElement, sigma: np.ndarray | None):
    """One stage's series columns, row by row over the ticks: the errors
    (geodesic angle, per-axis Euler angles in deg, vector state in deg/s),
    V (NaN without sigma), and the norms of the group error's two parts."""
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
    return errors, np.full(len(e.vec), np.nan) if sigma is None else cascade.lyapunov_value(eps, sigma), norms


def _series(dt: float, n: int, truths: tuple[StageState, StageState], states) -> np.ndarray:
    """All SERIES_COLUMNS, one row for each of the first n ticks.

    truths holds each stage's true state per tick, states each stage's
    (rot, vec, sigma): its group state and Riccati state over the ticks,
    shapes (m, 3, 3), (m, 3) and (m, 6, 6) for m >= n. Without sigma that
    stage's V column is NaN.
    """
    (err1, v1, norms1), (err2, v2, norms2) = (
        _stage_columns(StageState(truth.rot[:n], truth.vec[:n]), GroupElement(rot[:n], vec[:n]), None if sigma is None else sigma[:n])
        for truth, (rot, vec, sigma) in zip(truths, states)
    )
    t = dt * np.arange(n)
    return np.column_stack([t, *err1, *err2, v1, v2, *norms1, *norms2])


def _take(est: FilterEstimate, lanes) -> FilterEstimate:
    return FilterEstimate(GroupElement(est.X.rot[lanes], est.X.vec[lanes]), est.Sigma[lanes])


def _lockstep(tick, span, dt: float, inputs: np.ndarray, every: int, measured: np.ndarray, ends, keep_sigma: bool, gains, *params):
    """Run one stage from the initial estimate of its gains over ticks 1..
    of each lane (leading shape () for one run, (R,) for R runs in
    lockstep), each tick dt long; inputs (..., n, 3) holds each tick's input,
    measured (..., n_meas, k, 3) every `every`-th tick's measurement. Each
    such tick is one call of the stage's tick, and the ticks up to the next
    one, or to a lane's stop, one call of its predict span, which writes their
    states. A lane stops before its tick `ends`, or at a tick that raised
    NumericalFailure. Returns the states (rot, vec, sigma), (..., n + 1, ...)
    stacks holding each lane's at rows 0.. it reached and NaN after, sigma
    None unless kept, and `ends` lowered to each lane's failing tick.
    A lane's result does not depend on the lanes beside it, so a tick that
    raises NumericalFailure (a predict never does) drops the lanes it names
    and is redone on the others. Any other error propagates.
    """
    lead, n = inputs.shape[:-2], inputs.shape[-2]
    rot = np.full((*lead, n + 1, 3, 3), np.nan)
    vec = np.full((*lead, n + 1, 3), np.nan)
    sigma = np.full((*lead, n + 1, 6, 6), np.nan) if keep_sigma else None
    # tick k advances by k dt - (k - 1) dt, as cascade.step does between bundle times
    dts = np.diff(dt * np.arange(n + 1)).tolist()
    ends = np.array(ends)
    flat, live = ends.reshape(-1), np.arange(ends.size)
    at = (slice(None),) * ends.ndim  # where the live lanes are in the states
    est = initial_estimate(gains)
    if at:  # a copy for each lane
        est = _take(_take(est, np.newaxis), np.zeros_like(live))
    k, stop = 0, int(flat.min())
    while True:
        if k >= stop:  # the lanes that end before tick k leave
            keep = flat[live] > k
            if not keep.any():
                return (rot, vec, sigma), ends
            est, live = _take(est, keep), live[keep]
            at, stop = (live,), int(flat[live].min())
        if k % every:
            end = min(k - k % every + every, stop)
            x = span(est.X.rot, est.X.vec, est.Sigma, inputs[(*at, slice(k - 1, end - 1))], dts[k - 1 : end - 1], gains,
                     (rot, vec, sigma), at, k)
            est, k = FilterEstimate(GroupElement(*x[:2]), x[2]), end
            continue
        if k:
            try:
                est = tick(est, dts[k - 1], inputs[(*at, k - 1)], measured[(*at, k // every - 1)], gains, *params)
            except NumericalFailure as exc:
                flat[live[exc.lanes]] = stop = k
                continue
        row = (*at, k)
        rot[row], vec[row] = est.X.rot, est.X.vec
        if sigma is not None:
            sigma[row] = est.Sigma
        k += 1


def _window_metrics(run_index: int, series: np.ndarray, gyro_bias: np.ndarray, omega_target: np.ndarray) -> RunMetrics:
    t = series[:, 0]
    lo, hi = metrics.WINDOW
    win = series[(t >= lo) & (t <= hi)]
    if win.shape[0] == 0:
        win = series  # short runs fall back to the full series
    values, at = {}, metrics.SERIES_COLUMNS.index
    # each stage's three per-axis attitude error columns, roll first
    for name, col in (("chaser", at("err_roll_c")), ("rel", at("err_roll"))):
        values[f"t1deg_{name}"] = np.array([time_to_threshold(t, series[:, col + i], 1.0) for i in range(3)])
        values[f"mean_{name}_deg"] = win[:, col : col + 3].mean(axis=0)
        values[f"min_{name}_deg"] = win[:, col : col + 3].min(axis=0)
    # relative errors are undefined for zero-magnitude truth vectors
    for name, col, truth in (("bias", at("err_bias_dps"), gyro_bias), ("omega", at("err_omega_dps"), omega_target)):
        truth_norm = float(np.linalg.norm(truth)) * RAD2DEG or math.nan
        for stat, reduce in (("mean", np.mean), ("min", np.min)):
            value = float(reduce(win[:, col]))
            values[f"{name}_{stat}_dps"] = value
            values[f"{name}_{stat}_rel_pct"] = 100.0 * value / truth_norm
    return RunMetrics(run_index=run_index, diverged=False, **values)


def run_single(cfg: ScenarioConfig, run_index: int = 0, keep_series: bool = False, *, lane=None) -> RunMetrics:
    """Simulate one scenario and summarize it.

    The run has diverged if and only if a filter step raised
    NumericalFailure; its series then holds the rows before the earlier
    of the two stages' failing ticks. Any other error is raised.

    Without lane the run is a lane group of one (_run_lanes). lane holds
    the run's part of its lane group: its lanes of the stage truths'
    attitudes over the ticks (truth_trajectory), its world's gyro bias and
    target rate, each stage's (rot, vec, sigma) from its pass (_lockstep),
    and the rows both passes reached; only the diagnostics and metrics are
    left.
    """
    if lane is None:
        return _run_lanes(cfg, range(run_index, run_index + 1), keep_series)[0]
    chaser, rel, bias, omega_target, states, n_rows = lane
    # the non-finite diagnostics of a diverging filter are expected too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        truths = stage_truths(chaser, rel, bias, omega_target)
        series = _series(1.0 / cfg.gyro_rate_hz, int(n_rows), truths, states)
        diverged = n_rows <= cfg.steps_per_run()
        out = metrics.failed_metrics(run_index) if diverged else _window_metrics(run_index, series, bias, omega_target)
    return replace(out, series=series) if keep_series else out


def _run_lanes(cfg: ScenarioConfig, indices: range, keep_series: bool) -> list[RunMetrics]:
    """The runs `indices`, one lane group, advanced in lockstep, then each
    one's diagnostics and metrics by run_single, in run order. Each run's
    world is drawn once from its generator; the group's stage truths and
    noiseless streams are built once, lane-major, and each run's noise from
    its generator is added on its lane."""
    n, dt, star_every, feature_every = cfg.steps_per_run(), 1.0 / cfg.gyro_rate_hz, cfg.star_every(), cfg.feature_every()
    rngs = [run_rng(cfg.seed, i) for i in indices]
    world = TruthWorld.stack([sample_world(cfg, rng) for rng in rngs])
    chaser, rel = truth_trajectory(world, dt, n)
    streams = noiseless_streams(world, chaser, rel, star_every, feature_every)
    noise = cfg.gyro_noise_std, cfg.direction_noise_std
    for j, rng in enumerate(rngs):
        add_sensor_noise(SensorStreams(streams.gyro[j], streams.star[j], streams.features[j]), *noise, star_every, feature_every, rng)
    # one run goes at shape (), the kernel's one-lane path on floats
    lanes = 0 if len(indices) == 1 else slice(None)
    gyro, star, features = streams.gyro[lanes], streams.star[lanes], streams.features[lanes]
    lead = gyro.shape[:-2]
    # overflow inside a diverging filter is an expected, handled outcome
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states1, ends = _lockstep(cascade.stage1_tick, stage1.predict_span, dt, gyro, star_every, star, np.full(lead, n + 1), keep_series,
                                  cfg.stage1_gains(), 1.0 / cfg.star_rate_hz)
        if cfg.input_mode == "unbiased_cascade":
            # in place, a lane at a time: stage 1 has read the gyro for the last time
            rot1, vec1, _ = states1
            for j in np.ndindex(lead):
                gyro[j] -= recover_state(GroupElement(rot1[j][1:], vec1[j][1:])).vec
        states2, ends = _lockstep(cascade.stage2_tick, stage2.predict_span, dt, gyro, feature_every, features, ends, keep_series,
                                  cfg.stage2_gains(), cfg.ref_dirs(), 1.0 / cfg.feature_rate_hz)
    del streams, gyro, star, features
    return [
        run_single(cfg, i, keep_series, lane=(chaser[j], rel[j], world.gyro_bias[j], world.omega_target[j],
                                              [(r[at], v[at], None if s is None else s[at]) for r, v, s in (states1, states2)], ends[at]))
        for j, (i, at) in enumerate(zip(indices, np.ndindex(lead)))
    ]


def run_batch(
    cfg: ScenarioConfig, n_runs: int, keep_series: bool = False, workers: int = 1
) -> BatchSummary:
    """n independent runs with per-run seeds derived from the master seed.

    Runs own their RNG streams and share no state, so they may be advanced
    in lockstep: the batch is cut into contiguous lane groups of
    min(LANES, ceil(n_runs / workers)) runs, run in turn or on the workers.
    A run's result does not depend on its group, and aggregation follows
    run order, making the result independent of worker count.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = min(LANES, -(-n_runs // workers))  # 8 runs on 3 workers: 3 + 3 + 2; 55 on 1: 50 + 5
    groups = [range(lo, min(lo + size, n_runs)) for lo in range(0, n_runs, size)]
    workers = min(workers, len(groups))  # a pool of more workers than groups would fork idle ones
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_lanes, [cfg] * len(groups), groups, [keep_series] * len(groups)))
    else:
        done = [_run_lanes(cfg, group, keep_series) for group in groups]
    return metrics.summarize([m for runs in done for m in runs])
