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
the gyro less stage 1's bias estimates, which with stage 1's failing ticks
is all stage 2 sees of stage 1 (a run that failed in stage 1 leaves stage
2's pass at tick 0 when no series is kept). A pass advances its lanes in
lockstep, their states bare arrays with a leading lane axis, () for one run
and (R,) for R runs, and is the only loop over the ticks: at a measurement
tick one update step, then the tick's row written, then one predict step to
the next tick. _run_lanes runs one lane group: it composes the two passes
and hands each run its two stages' states.
run_batch alone cuts a batch into contiguous lane groups, run in turn or
on a worker pool; run_single is a lane group of one, run at shape (). Each
run's world is drawn once, and truth and measurements are whole-run stacks
made first: a lane group's stage truths and noiseless streams are each
built once, lane-major (R, ticks, ...) like the states, and each run's
noise is added on its lane. The diagnostics come last, a run and a stage
at a time, from the stored filter states and the run's stage-truth lanes:
the per-axis Euler and vector-state errors the metrics read; the Riccati
stacks and the geodesic, V and norm columns only for a kept series. A run
has diverged if and only if an update raised NumericalFailure (it left a
Riccati state not finite and positive definite; the failure names the
lanes); its series then covers only the ticks before the earlier failing
one, and without its series it forms no column. V is NaN on a singular
Riccati row; the diagnostics decide nothing.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import cascade, metrics, stage1, stage2
from .config import ScenarioConfig
from .filter_base import NumericalFailure, initial_estimate, recover_state
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


def _stage_columns(truth: StageState, x: GroupElement, sigma: np.ndarray | None) -> tuple:
    """One stage's columns, row by row over the ticks: the per-axis Euler
    attitude errors (n, 3) and the vector-state error, in deg and deg/s,
    which the metrics read; then, only given sigma (the series is kept), the
    geodesic angle error, V and the norms of the group error's two parts."""
    st = recover_state(x)
    read = np.abs(euler_errors(truth.rot, st.rot)), _norm(st.vec - truth.vec) * RAD2DEG
    if sigma is None:
        return read
    e = cascade.group_error(truth, x)
    # the local rotation error norm equals the estimate-vs-truth geodesic angle
    eps = cascade.local_error_of(e)
    return *read, _norm(eps.rot) * RAD2DEG, cascade.lyapunov_value(eps, sigma), _norm((e.rot - _EYE3).reshape(-1, 9)), _norm(e.vec)


def _series(t: np.ndarray, stage1: tuple, stage2: tuple) -> np.ndarray:
    """All SERIES_COLUMNS, in their order, from t and each stage's kept _stage_columns."""
    (euler1, bias, att1, v1, *norms1), (euler2, omega, att2, v2, *norms2) = stage1, stage2
    return np.column_stack([t, att1, *euler1.T, bias, att2, *euler2.T, omega, v1, v2, *norms1, *norms2])


def _lockstep(step, constants, update, dt: float, inputs: np.ndarray, every: int, measured: np.ndarray, ends, keep_sigma: bool,
              gains, *params):
    """Run one stage from the initial estimate of its gains over ticks 1..
    of each lane (leading shape () for one run, (R,) for R runs in
    lockstep), each tick dt long; inputs (..., n, 3) holds each tick's input,
    measured (..., n_meas, k, 3) every `every`-th tick's measurement. Tick k
    + 1 is one call step(rot, vec, sigma, input, M, dt, *constants(vec)) on
    the live lanes' bare states at tick k, constants formed anew only where
    vec changes: after an update and when lanes leave. At a measurement tick
    one call update(rot, vec, sigma, measurement, *params), returning the
    bare states, comes first. A lane stops before its tick `ends`, or at a
    tick whose update raised NumericalFailure.
    Returns the states (rot, vec, sigma), (..., n + 1, ...) stacks holding
    each lane's at rows 0.. it reached and NaN after, sigma None unless
    kept, and `ends` lowered to each lane's failing tick. A lane's result
    does not depend on the lanes beside it, so an update that raises
    NumericalFailure (a predict never does) drops the lanes it names and is
    redone on the others. Any other error propagates.
    """
    lead, n = inputs.shape[:-2], inputs.shape[-2]
    stacks = rots, vecs, sigmas = (np.full((*lead, n + 1, 3, 3), np.nan), np.full((*lead, n + 1, 3), np.nan),
                                   np.full((*lead, n + 1, 6, 6), np.nan) if keep_sigma else None)
    # tick k advances by k dt - (k - 1) dt, as cascade.step does between bundle times
    dts = np.diff(dt * np.arange(n + 1)).tolist()
    ends = np.array(ends)
    flat, live = ends.reshape(-1), np.arange(ends.size)
    at = (slice(None),) * ends.ndim  # where the live lanes are in the states
    est = initial_estimate(gains)  # a copy for each lane, in C order: the kernel's bits depend on the layout
    rot, vec, sigma = (np.broadcast_to(a, (*lead, *a.shape)).copy() for a in (est.X.rot, est.X.vec, est.Sigma))
    m, consts = gains.M, constants(vec)
    k, stop = 0, int(flat.min())
    while True:
        if k >= stop:  # the lanes that end at tick k leave
            keep = flat[live] > k
            if not keep.any():
                return stacks, ends
            rot, vec, sigma, live = rot[keep], vec[keep], sigma[keep], live[keep]
            at, stop, consts = (live,), int(flat[live].min()), constants(vec)
        if k and not k % every:
            try:
                rot, vec, sigma = update(rot, vec, sigma, measured[(*at, k // every - 1)], *params)
            except NumericalFailure as exc:
                flat[live[exc.lanes]] = stop = k
                continue
            consts = constants(vec)
        row = (*at, k)
        rots[row], vecs[row] = rot, vec
        if sigmas is not None:
            sigmas[row] = sigma
        if k == n:
            return stacks, ends
        (rot, vec, sigma), k = step(rot, vec, sigma, inputs[row], m, dts[k], *consts), k + 1


def _window_metrics(run_index: int, gyro_bias: np.ndarray, omega_target: np.ndarray, t: np.ndarray, *stages: tuple) -> RunMetrics:
    lo, hi = metrics.WINDOW
    win = (t >= lo) & (t <= hi)
    if not win.any():
        win = slice(None)  # short runs fall back to the full series
    values = {}
    # each stage's per-axis attitude errors, roll first, and its vector-state error
    for (euler, err, *_), att, vec, truth in zip(stages, ("chaser", "rel"), ("bias", "omega"), (gyro_bias, omega_target)):
        values[f"t1deg_{att}"] = np.array([time_to_threshold(t, axis, 1.0) for axis in euler.T])
        values[f"mean_{att}_deg"] = euler[win].mean(axis=0)
        values[f"min_{att}_deg"] = euler[win].min(axis=0)
        # relative errors are undefined for zero-magnitude truth vectors
        truth_norm = float(np.linalg.norm(truth)) * RAD2DEG or math.nan
        for stat, reduce in (("mean", np.mean), ("min", np.min)):
            value = float(reduce(err[win]))
            values[f"{vec}_{stat}_dps"] = value
            values[f"{vec}_{stat}_rel_pct"] = 100.0 * value / truth_norm
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
    and the rows both passes reached, read first: a diverged run without
    its series forms no column. What is left is the metrics, the columns
    they read over the rows reached, and the others for a kept series only.
    """
    if lane is None:
        return _run_lanes(cfg, range(run_index, run_index + 1), keep_series)[0]
    chaser, rel, bias, omega_target, states, n_rows = lane
    n, diverged = int(n_rows), n_rows <= cfg.steps_per_run()
    if diverged and not keep_series:
        return metrics.failed_metrics(run_index)
    t = 1.0 / cfg.gyro_rate_hz * np.arange(n)
    # the non-finite diagnostics of a diverging filter are expected too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stages = [_stage_columns(truth, GroupElement(rot[:n], vec[:n]), None if sigma is None else sigma[:n])
                  for truth, (rot, vec, sigma) in zip(stage_truths(chaser[:n], rel[:n], bias, omega_target), states)]
        out = metrics.failed_metrics(run_index) if diverged else _window_metrics(run_index, bias, omega_target, t, *stages)
    return replace(out, series=_series(t, *stages)) if keep_series else out


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
        gains = cfg.stage1_gains()
        states1, ends = _lockstep(stage1.predict_step, stage1.predict_constants, stage1.update_step, dt, gyro, star_every, star,
                                  np.full(lead, n + 1), keep_series, gains, gains, 1.0 / cfg.star_rate_hz)
        if not keep_series:  # run_single reads no state of a diverged run, so those that failed in stage 1 leave stage 2's pass at tick 0
            ends = np.where(ends <= n, 0, ends)
        if cfg.input_mode == "unbiased_cascade":
            # in place: stage 1 has read the gyro for the last time
            rot1, vec1, _ = states1
            gyro -= recover_state(GroupElement(rot1[..., 1:, :, :], vec1[..., 1:, :])).vec
        gains = cfg.stage2_gains()
        states2, ends = _lockstep(stage2.predict_step, stage2.predict_constants, stage2.update_step, dt, gyro, feature_every, features,
                                  ends, keep_series, gains, cfg.ref_dirs(), gains, 1.0 / cfg.feature_rate_hz)
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
