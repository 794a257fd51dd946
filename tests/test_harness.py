import math

import numpy as np
import pytest

from eqfcascade import cascade, harness, stage1, stage2
from eqfcascade.config import ScenarioConfig
from eqfcascade.filter_base import FilterEstimate, NumericalFailure, initial_estimate
from eqfcascade.geom import GroupElement
from eqfcascade.harness import run_batch, run_rng, run_single, sample_world
from eqfcascade.metrics import SERIES_COLUMNS, _metric_values, metric_names
from eqfcascade.models import MeasurementBundle, TruthWorld, add_sensor_noise, noiseless_streams, truth_trajectory


class TestScenarioSampling:
    def test_haar_mode_by_default(self):
        w = sample_world(ScenarioConfig(seed=0), run_rng(0, 0))
        assert w.att_chaser.shape == (3, 3)

    def test_bounded_attitude_mode(self):
        from eqfcascade.geom import rotation_angle
        from eqfcascade.models import relative_state

        cfg = ScenarioConfig(seed=0, attitude_init_max_deg=30.0)
        for i in range(20):
            w = sample_world(cfg, run_rng(0, i))
            assert rotation_angle(np.eye(3), w.att_chaser) <= math.radians(30.0) + 1e-12
            assert rotation_angle(np.eye(3), relative_state(w).rot) <= math.radians(30.0) + 1e-12

    def test_magnitude_ranges_respected(self):
        cfg = ScenarioConfig(seed=1)
        for i in range(20):
            w = sample_world(cfg, run_rng(1, i))
            for vec, (lo, hi) in (
                (w.omega_target, cfg.omega_target_range_dps),
                (w.omega_chaser, cfg.chaser_rate_range_dps),
                (w.gyro_bias, cfg.gyro_bias_range_dps),
            ):
                mag = np.linalg.norm(vec) / math.radians(1.0)
                assert lo - 1e-9 <= mag <= hi + 1e-9

    def test_identical_worlds_across_variant_configs(self):
        # scenario draws precede measurement noise, so rate or mode changes
        # keep the per-seed worlds identical
        a = sample_world(ScenarioConfig(seed=3), run_rng(3, 5))
        b = sample_world(
            ScenarioConfig(seed=3, star_rate_hz=100.0, feature_rate_hz=100.0,
                           update_iterations=1, input_mode="biased_passthrough"),
            run_rng(3, 5),
        )
        np.testing.assert_array_equal(a.att_chaser, b.att_chaser)
        np.testing.assert_array_equal(a.gyro_bias, b.gyro_bias)


class TestDeterminism:
    def test_same_seed_identical_metrics(self):
        cfg = ScenarioConfig(seed=11, duration_s=2.0)
        a = run_single(cfg, keep_series=True)
        b = run_single(cfg, keep_series=True)
        np.testing.assert_array_equal(a.series, b.series)
        assert a.bias_mean_dps == b.bias_mean_dps

    def test_batch_first_run_equals_single(self):
        cfg = ScenarioConfig(seed=12, duration_s=2.0)
        single = run_single(cfg)
        batch = run_batch(cfg, 1)
        assert batch.runs[0].omega_mean_dps == single.omega_mean_dps
        np.testing.assert_array_equal(batch.runs[0].mean_chaser_deg, single.mean_chaser_deg)

    @pytest.mark.parametrize("n_runs, workers", [(0, 1), (1, 0)])
    def test_batch_needs_a_run_and_a_worker(self, n_runs, workers):
        with pytest.raises(ValueError, match="must be >= 1"):
            run_batch(ScenarioConfig(seed=0, duration_s=0.1), n_runs, workers=workers)

    def test_parallel_equals_sequential(self):
        # every metric and the kept series cross the process pool bit for bit
        cfg = ScenarioConfig(seed=13, duration_s=1.0)
        seq = run_batch(cfg, 4, keep_series=True, workers=1)
        par = run_batch(cfg, 4, keep_series=True, workers=2)
        assert [m.run_index for m in par.runs] == [0, 1, 2, 3]
        for a, b in zip(seq.runs, par.runs):
            np.testing.assert_array_equal(_metric_values(a), _metric_values(b))
            assert a.series is not None and a.series.tobytes() == b.series.tobytes()
        assert list(par.aggregate) == metric_names()
        np.testing.assert_array_equal(list(seq.aggregate.values()), list(par.aggregate.values()))

    def test_pool_never_has_more_workers_than_runs(self, monkeypatch):
        # a fake pool records the size asked for and maps in this process,
        # so no worker process is started
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = ScenarioConfig(seed=13, duration_s=1.0)
        capped = run_batch(cfg, 2, keep_series=True, workers=3)
        assert asked == [2]
        seq = run_batch(cfg, 2, keep_series=True, workers=1)
        for a, b in zip(seq.runs, capped.runs, strict=True):
            assert np.array(_metric_values(a)).tobytes() == np.array(_metric_values(b)).tobytes()
            assert a.series.tobytes() == b.series.tobytes()
        run_batch(cfg, 1, workers=2)
        assert asked == [2]


class TestRunSingle:
    def test_perfect_information_run(self):
        # truth equals the filter initialization and nothing moves or
        # corrupts the measurements, so errors stay at rounding level
        cfg = ScenarioConfig(
            seed=0,
            duration_s=2.0,
            gyro_noise_std=0.0,
            direction_noise_std=0.0,
            omega_target_range_dps=(0.0, 0.0),
            gyro_bias_range_dps=(0.0, 0.0),
            chaser_rate_range_dps=(1.0, 1.0),
            attitude_init_max_deg=0.0,
        )
        m = run_single(cfg)
        assert np.max(m.mean_chaser_deg) < 1e-3
        assert np.max(m.mean_rel_deg) < 1e-3
        assert m.bias_mean_dps < 1e-3
        assert m.omega_mean_dps < 1e-3

    def test_representative_scenario_omega_band(self):
        # magnitudes pinned near the reference run: bias 1.25 deg/s and
        # target rate 2.09 deg/s
        cfg = ScenarioConfig(
            seed=42,
            omega_target_range_dps=(2.09, 2.09),
            chaser_rate_range_dps=(2.0, 2.0),
            gyro_bias_range_dps=(1.25, 1.25),
        )
        m = run_single(cfg)
        assert not m.diverged
        assert 0.05 <= m.omega_mean_dps <= 0.6

    def test_series_shape_and_columns(self):
        cfg = ScenarioConfig(seed=1, duration_s=1.0)
        m = run_single(cfg, keep_series=True)
        assert m.series.shape == (101, len(SERIES_COLUMNS))
        np.testing.assert_allclose(m.series[:, 0], np.arange(101) * 0.01, atol=1e-12)

    def test_divergent_configuration_flagged_not_raised(self):
        # a single non-iterated correction spanning a 1 s interval is
        # unstable; the run must report divergence instead of raising
        cfg = ScenarioConfig(seed=3, update_iterations=1)
        m = run_single(cfg)
        assert m.diverged
        assert math.isnan(m.omega_mean_dps)

    def test_window_statistics_use_10_to_15s(self):
        cfg = ScenarioConfig(seed=9)
        m = run_single(cfg, keep_series=True)
        t = m.series[:, 0]
        win = m.series[(t >= 10.0) & (t <= 15.0)]
        np.testing.assert_allclose(m.mean_chaser_deg, win[:, 2:5].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(m.bias_mean_dps, win[:, 5].mean(), atol=1e-12)

    def test_divergence_ticks_at_seed_2026(self, monkeypatch):
        # a series ends before the tick whose filter step raised
        # NumericalFailure: runs 0-3 in a stage-1 update, and run 8 with
        # sigma0 = 100 in a stage-2 update; the rows before it keep their
        # values, and only V can be non-finite there. A pass calls its
        # stage's update step at its measurement ticks only, so a stage's
        # c-th call is at tick c * every
        calls, failures, every = {}, [], {}

        def recording(stage):
            update = stage.update_step

            def recording_update(*args):
                calls[stage] = calls.get(stage, 0) + 1
                try:
                    return update(*args)
                except NumericalFailure as exc:
                    failures.append((calls[stage] * every[stage], str(exc)))
                    raise

            monkeypatch.setattr(stage, "update_step", recording_update)

        recording(stage1)
        recording(stage2)
        cases = [({}, i, rows, "stage-1") for i, rows in enumerate((400, 200, 500, 500))]
        cases.append(({"sigma0": 100.0}, 8, 50, "stage-2"))
        kept = [i for i, name in enumerate(SERIES_COLUMNS) if name not in ("V1", "V2")]
        for overrides, i, rows, stage in cases:
            cfg = ScenarioConfig(seed=2026, update_iterations=1, **overrides)
            every.update({stage1: cfg.star_every(), stage2: cfg.feature_every()})
            calls.clear()
            failures.clear()
            m = run_single(cfg, i, keep_series=True)
            assert m.diverged and m.series.shape == (rows, len(SERIES_COLUMNS))
            # stage 1's pass covers every tick, so it may fail again past the
            # series' end (run 8's at tick 200); one failure ends the series
            ending = [failure for failure in failures if failure[0] <= rows]
            assert len(ending) == 1 and ending[0][0] == rows and stage in ending[0][1]
            assert m.series.shape[0] <= 500
            assert np.all(np.isfinite(m.series[:, kept]))
            assert run_single(cfg, i).diverged

    def test_singular_riccati_row_is_a_value_not_a_verdict(self, monkeypatch):
        # a stored stage-1 Riccati state of zero at one tick, while the
        # filter itself carries on with its true state, leaves V1 NaN on
        # that row only and changes nothing else; the tick is the star fix
        # at tick 100, and the predict step after it starts from the true state
        cfg = ScenarioConfig(seed=5, duration_s=2.0)
        ref = run_single(cfg, keep_series=True)
        tick, update, predict_step, calls, true_state = 100, stage1.update_step, stage1.predict_step, [], {}

        def update_with_singular_row(*args):
            calls.append(None)
            rot, vec, sigma = update(*args)
            if len(calls) * cfg.star_every() != tick:
                return rot, vec, sigma
            true_state["s1"] = rot, vec, sigma
            return rot, vec, np.zeros((6, 6))

        def step_from_true_state(rot, vec, sigma, *args):
            if "s1" in true_state:
                rot, vec, sigma = true_state.pop("s1")
            return predict_step(rot, vec, sigma, *args)

        monkeypatch.setattr(stage1, "update_step", update_with_singular_row)
        monkeypatch.setattr(stage1, "predict_step", step_from_true_state)
        m = run_single(cfg, keep_series=True)
        v1 = SERIES_COLUMNS.index("V1")
        assert not m.diverged and m.series.shape == ref.series.shape == (cfg.steps_per_run() + 1, len(SERIES_COLUMNS))
        assert np.flatnonzero(np.isnan(m.series[:, v1])).tolist() == [tick]
        patched = m.series.copy()
        patched[tick, v1] = ref.series[tick, v1]
        assert patched.tobytes() == ref.series.tobytes()
        assert np.array(_metric_values(m)).tobytes() == np.array(_metric_values(ref)).tobytes()

    def test_diagnostics_see_only_the_rows_before_the_failing_tick(self, monkeypatch):
        # run 0 fails in its update at tick 400; no diagnostic is computed
        # for that tick or any later one: with the series kept each stage's
        # Euler errors are formed on the 400 rows before it, and without
        # the series the diverged run forms none at all
        real_euler_errors, rows = harness.euler_errors, []

        def recording_euler_errors(rot_true, rot_hat):
            rows.append((len(rot_true), len(rot_hat)))
            return real_euler_errors(rot_true, rot_hat)

        monkeypatch.setattr(harness, "euler_errors", recording_euler_errors)
        cfg = ScenarioConfig(seed=2026, update_iterations=1)
        for keep_series, want in ((True, [(400, 400), (400, 400)]), (False, [])):
            rows.clear()
            m = run_single(cfg, 0, keep_series=keep_series)
            assert m.diverged and rows == want
        assert m.series is None

    @pytest.mark.parametrize("stage", [stage1, stage2], ids=["stage1_tick", "stage2_tick"])
    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
    def test_value_error_inside_step_is_raised_not_diverged(self, monkeypatch, error, stage):
        # only numerical failure counts as divergence; a programming error
        # in either stage's update step must surface
        def broken_update(*args, **kwargs):
            raise error("not a numerical failure")

        monkeypatch.setattr(stage, "update_step", broken_update)
        with pytest.raises(error, match="not a numerical failure"):
            run_single(ScenarioConfig(seed=0, duration_s=1.0))


def _step_loop_series(cfg: ScenarioConfig, run_index: int) -> np.ndarray:
    """run_single's series with both stages advanced together, one
    cascade.step per tick on a MeasurementBundle of the run's sensor streams,
    up to the tick whose step raised NumericalFailure; the diagnostics are
    run_single's own, handed the step loop's states as the run's lane."""
    return run_single(cfg, run_index, True, lane=_step_loop(cfg, run_index)).series


def _step_loop(cfg: ScenarioConfig, run_index: int):
    """_step_loop_series' lane for run_single: the truth attitude stacks,
    the world's gyro bias and target rate, each stage's (rot, vec, sigma)
    stacks over the ticks it reached, and the number of those rows."""
    rng = run_rng(cfg.seed, run_index)
    world = sample_world(cfg, rng)
    sensors = cfg.sensors()
    gains1, gains2 = cfg.stage1_gains(), cfg.stage2_gains()
    dt, star_every, feature_every = 1.0 / sensors.gyro_rate, cfg.star_every(), cfg.feature_every()
    truth = truth_trajectory(world, dt, cfg.steps_per_run())
    noise = sensors.gyro_noise_std, sensors.direction_noise_std
    streams = add_sensor_noise(noiseless_streams(world, *truth, star_every, feature_every), *noise, star_every, feature_every, rng)
    states = [cascade.initial_state(gains1, gains2)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, cfg.steps_per_run() + 1):
            star = streams.star[k // star_every - 1] if k % star_every == 0 else None
            features = streams.features[k // feature_every - 1] if k % feature_every == 0 else None
            bundle = MeasurementBundle(k * dt, streams.gyro[k - 1], star, features)
            try:
                states.append(
                    cascade.step(
                        states[-1], bundle, gains1, gains2, world.ref_dirs, 1.0 / sensors.star_rate,
                        1.0 / sensors.feature_rate, cfg.input_mode == "unbiased_cascade",
                    )
                )
            except NumericalFailure:
                break
    stage_states = [
        (np.array([est.X.rot for est in stage]), np.array([est.X.vec for est in stage]), np.array([est.Sigma for est in stage]))
        for stage in ([cs.s1 for cs in states], [cs.s2 for cs in states])
    ]
    return *truth, world.gyro_bias, world.omega_target, stage_states, len(states)


@pytest.mark.parametrize(
    "overrides, run_index, rows",
    [
        ({}, 0, 1501),
        ({"star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1}, 0, 1501),
        ({"input_mode": "biased_passthrough"}, 0, 1501),
        ({"update_iterations": 1}, 0, 400),  # stage 1 fails at tick 400
        ({"update_iterations": 1, "sigma0": 100.0}, 8, 50),  # stage 2 fails at tick 50
    ],
    ids=["default", "fast_rate", "biased", "stage1_fails", "stage2_fails"],
)
def test_two_pass_run_equals_the_step_loop(overrides, run_index, rows):
    # each stage's pass over the whole run, stage 2 on stage 1's bias
    # stream, gives the series of the per-tick cascade, bit for bit
    cfg = ScenarioConfig(seed=2026, **overrides)
    m = run_single(cfg, run_index, keep_series=True)
    ref = _step_loop_series(cfg, run_index)
    assert m.series.shape == ref.shape == (rows, len(SERIES_COLUMNS))
    assert m.series.tobytes() == ref.tobytes()
    assert m.diverged == (rows <= cfg.steps_per_run())


@pytest.mark.parametrize(
    "overrides, run_index, rows",
    [
        ({"duration_s": 1.55}, 0, 156),  # both stages end on predict-only ticks
        ({"update_iterations": 1, "sigma0": 100.0}, 8, 50),  # stage 2 fails at tick 50
    ],
    ids=["tail_1p55s", "stage2_fails"],
)
def test_riccati_rows_between_measurements_equal_the_step_loop(monkeypatch, overrides, run_index, rows):
    # the passes' stored states, the Riccati stacks among them, on the
    # predict-only ticks and on the measurement ticks alike
    passes, real_lockstep = [], harness._lockstep
    monkeypatch.setattr(harness, "_lockstep", lambda *args: passes.append(real_lockstep(*args)) or passes[-1])
    cfg = ScenarioConfig(seed=2026, **overrides)
    run_single(cfg, run_index, keep_series=True)
    ref = _step_loop(cfg, run_index)[4]
    assert len(ref[0][0]) == rows
    for ((rot, vec, sigma), _), want in zip(passes, ref):
        for got, ref_stack in zip((rot, vec, sigma), want):
            assert got[:rows].tobytes() == ref_stack.tobytes()


def _run_bits(m) -> bytes:
    """A run's series and metric vector, as bytes."""
    return m.series.tobytes() + np.array(_metric_values(m)).tobytes()


class TestLanes:
    """run_batch advances its runs together, as the lanes of one pass per
    stage; each run's result is its run_single result, bit for bit."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1}],
        ids=["default", "100Hz"],
    )
    def test_batch_equals_single_runs(self, overrides):
        cfg = ScenarioConfig(seed=2026, **overrides)
        batch = run_batch(cfg, 8, keep_series=True)
        assert [m.run_index for m in batch.runs] == list(range(8))
        for i, m in enumerate(batch.runs):
            assert not m.diverged and m.series.shape == (1501, len(SERIES_COLUMNS))
            assert _run_bits(m) == _run_bits(run_single(cfg, i, keep_series=True))

    @pytest.mark.parametrize(
        "overrides, n_runs, failed",
        [
            ({}, 8, []),
            ({"star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1}, 8, []),
            ({"update_iterations": 1}, 8, list(range(8))),  # stage 1 fails, run 0 at tick 400
            ({"update_iterations": 1, "sigma0": 100.0}, 9, list(range(9))),  # run 8 fails in stage 2, at tick 50
            # lanes stop in both stages, between feature ticks too, around run 4
            ({"star_rate_hz": 4.0, "update_iterations": 1, "sigma0": 10.0}, 12, [0, 1, 2, 3, *range(5, 12)]),
            ({}, 1, []),  # one run, at shape ()
        ],
        ids=["default", "fast_it1", "it1", "it1_sigma100", "star4hz_it1_sigma10", "one_run"],
    )
    def test_a_batch_without_series_equals_one_with(self, monkeypatch, overrides, n_runs, failed):
        # without the series only the columns the metrics read are formed:
        # no group error and no V, the Euler errors of both stages for a
        # completed run and none for a diverged one, and every metric and
        # verdict keeps its bits
        calls = {"group_error": 0, "lyapunov_value": 0, "euler_errors": 0}
        for module, name in ((cascade, "group_error"), (cascade, "lyapunov_value"), (harness, "euler_errors")):
            def counting(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        cfg = ScenarioConfig(seed=2026, **overrides)
        bare = run_batch(cfg, n_runs).runs
        assert calls == {"group_error": 0, "lyapunov_value": 0, "euler_errors": 2 * (n_runs - len(failed))}
        calls.update(dict.fromkeys(calls, 0))
        kept = run_batch(cfg, n_runs, keep_series=True).runs
        assert calls == dict.fromkeys(calls, 2 * n_runs)
        assert [m.run_index for m in bare if m.diverged] == failed
        for m, ref in zip(bare, kept, strict=True):
            assert m.series is None and m.diverged == ref.diverged
            assert np.array(_metric_values(m)).tobytes() == np.array(_metric_values(ref)).tobytes()

    def test_runs_that_fail_in_stage_1_make_no_stage_2_step_without_series(self, monkeypatch):
        # every run fails in a stage-1 update; without the series nothing
        # reads a diverged run's stage-2 states, so stage 2's pass leaves
        # each lane at tick 0 and calls neither its update step nor its
        # predict step, and every run is still flagged diverged
        calls = []
        for stage in (stage1, stage2):
            for name in ("predict_step", "update_step"):
                monkeypatch.setattr(stage, name, lambda *args, real=getattr(stage, name), tag=(stage, name): calls.append(tag) or real(*args))
        batch = run_batch(ScenarioConfig(seed=2026, update_iterations=1), 8)
        assert all(m.diverged for m in batch.runs)
        assert set(calls) == {(stage1, "predict_step"), (stage1, "update_step")}

    def test_worker_counts_and_lane_groups_agree(self, monkeypatch):
        cfg = ScenarioConfig(seed=2026, duration_s=2.0)
        ref = [_run_bits(m) for m in run_batch(cfg, 8, keep_series=True).runs]
        for workers in (2, 3):
            assert [_run_bits(m) for m in run_batch(cfg, 8, keep_series=True, workers=workers).runs] == ref
        # and in lockstep groups of at most 3 lanes
        monkeypatch.setattr(harness, "LANES", 3)
        assert [_run_bits(m) for m in run_batch(cfg, 8, keep_series=True).runs] == ref

        # the shards are contiguous, ⌈8 / 3⌉ = 3 runs a group: 3 + 3 + 2
        import concurrent.futures

        shards = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables):
                shards.extend(iterables[1])
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "LANES", 50)
        assert [_run_bits(m) for m in run_batch(cfg, 8, keep_series=True, workers=3).runs] == ref
        assert [list(shard) for shard in shards] == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_the_pool_maps_the_lane_groups_of_run_batch(self, monkeypatch):
        # run_batch alone forms the lane groups, min(LANES, ⌈7 / 2⌉) = 3 runs
        # each, and the pool maps them as they are: no worker shard is cut
        # by LANES again
        import concurrent.futures

        sizes, groups = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables):
                groups.extend(list(group) for group in iterables[1])
                return map(fn, *iterables)

        cfg = ScenarioConfig(seed=2026, duration_s=2.0)
        ref = [_run_bits(m) for m in run_batch(cfg, 7, keep_series=True).runs]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "LANES", 3)
        assert [_run_bits(m) for m in run_batch(cfg, 7, keep_series=True, workers=2).runs] == ref
        assert sizes == [2]
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]

    @pytest.mark.parametrize(
        "iterations, rows",
        [
            (1, [400, 200, 500, 500, 400, 400, 400, 300]),  # every lane fails in a stage-1 update
            (5, [1501, 1000, 1100, 900, 1000, 1501, 1501, 900]),  # lanes 0, 5 and 6 complete
        ],
    )
    def test_failing_lanes_leave_and_the_others_carry_on(self, iterations, rows):
        cfg = ScenarioConfig(seed=2026, update_iterations=iterations)
        batch = run_batch(cfg, 8, keep_series=True)
        assert [len(m.series) for m in batch.runs] == rows
        assert [m.diverged for m in batch.runs] == [n <= cfg.steps_per_run() for n in rows]
        for i, m in enumerate(batch.runs):
            assert _run_bits(m) == _run_bits(run_single(cfg, i, keep_series=True))

    def test_one_lane_fails_in_stage_2(self, monkeypatch):
        # with sigma0 = 100, lane 8 fails in its stage-2 update at tick 50,
        # while its stage-1 pass carries on to tick 200
        passes, real_lockstep = [], harness._lockstep
        monkeypatch.setattr(harness, "_lockstep", lambda *args: passes.append(real_lockstep(*args)) or passes[-1])
        cfg = ScenarioConfig(seed=2026, update_iterations=1, sigma0=100.0)
        batch = run_batch(cfg, 9, keep_series=True)
        ((_, stage1_ends), (_, stage2_ends)), lane = passes, 8
        assert stage1_ends[lane] == 200 and stage2_ends[lane] == 50
        assert batch.runs[lane].diverged and len(batch.runs[lane].series) == 50
        for i, m in enumerate(batch.runs):
            assert len(m.series) == min(stage1_ends[i], stage2_ends[i])
            assert _run_bits(m) == _run_bits(run_single(cfg, i, keep_series=True))

    @pytest.mark.parametrize(
        "sigma0, n_runs, failed",
        [
            (1.0, 8, [(0, j, tick) for j, tick in enumerate([400, 200, 500, 500, 400, 400, 400, 300])]),  # stage-1 updates
            (100.0, 9, [(1, 8, 50)]),  # lane 8's stage-2 update
        ],
        ids=["stage1_fails", "stage2_fails"],
    )
    def test_failing_lanes_are_nan_from_their_failing_tick_on(self, monkeypatch, sigma0, n_runs, failed):
        # in the pass where a lane's update fails, each of its stacks is NaN
        # from the failing tick on, as from the end that a pass is given
        passes, real_lockstep = [], harness._lockstep
        monkeypatch.setattr(harness, "_lockstep", lambda *args: passes.append(real_lockstep(*args)) or passes[-1])
        cfg = ScenarioConfig(seed=2026, update_iterations=1, sigma0=sigma0)
        run_batch(cfg, n_runs, keep_series=True)
        given = [np.full(n_runs, cfg.steps_per_run() + 1), passes[0][1]]
        for stage, lane, tick in failed:
            assert passes[stage][1][lane] == tick < given[stage][lane]
        for states, ends in passes:
            for stack in states:
                for j, end in enumerate(ends):
                    assert np.isnan(stack[j, end:]).all()

    @pytest.mark.parametrize("stage", [stage1, stage2], ids=["stage1", "stage2"])
    @pytest.mark.parametrize("ends", [14, [14] * 4, [14, 7, 14, 14]], ids=["one", "all", "live"])
    def test_the_rows_between_measurements_are_the_per_tick_predicts(self, stage, ends):
        # a pass over 13 ticks with a measurement every 4th: from each
        # measurement tick's row (the initial estimate at tick 0), the rows up
        # to the next one, and the states that its update step is handed, are the
        # chain of per-tick predict calls on those ticks' inputs and lengths,
        # bit for bit; each measurement tick's row is its update's result; the
        # one-tick interval after tick 12 writes row 13 alone; and no row from
        # a lane's end on is touched, the lane that leaves at tick 7 ("live")
        # leaving its neighbours to go on without it
        rng, cfg, n, every, dt = np.random.default_rng(7), ScenarioConfig(seed=2026), 13, 4, 0.01
        ends = np.array(ends)
        if stage is stage1:
            gains, k_dirs = cfg.stage1_gains(), 3
            params = gains, 1.0 / cfg.star_rate_hz
        else:
            gains, k_dirs = cfg.stage2_gains(), 2
            params = cfg.ref_dirs(), gains, 1.0 / cfg.feature_rate_hz
        inputs = rng.normal(size=ends.shape + (n, 3))
        measured = rng.normal(size=ends.shape + (n // every, k_dirs, 3))
        dts, updates = np.diff(dt * np.arange(n + 1)).tolist(), []

        def recording_update(*args):
            updates.append((args[:3], stage.update_step(*args)))
            return updates[-1][1]

        stacks, got_ends = harness._lockstep(stage.predict_step, stage.predict_constants, recording_update, dt, inputs, every, measured,
                                             ends, True, gains, *params)
        assert got_ends.tolist() == ends.tolist() and len(updates) == n // every

        def lanes(t):  # the lanes that reach tick t, as an index into the stacks
            return () if ends.ndim == 0 else (np.flatnonzero(ends > t),)

        def same(states, t):  # states equal to the stacks' rows of tick t
            return [a.tobytes() for a in states] == [stack[(*lanes(t), t)].tobytes() for stack in stacks]

        init = initial_estimate(gains)
        assert same([np.broadcast_to(a, ends.shape + a.shape) for a in (init.X.rot, init.X.vec, init.Sigma)], 0)
        for k in range(0, n, every):
            at = lanes(k)
            est = FilterEstimate(GroupElement(stacks[0][(*at, k)], stacks[1][(*at, k)]), stacks[2][(*at, k)])
            for t in range(k + 1, min(k + every, n) + 1):
                est = stage.predict(est, inputs[(*at, t - 1)], gains, dts[t - 1])
                still = () if ends.ndim == 0 else (ends[at] > t,)  # those of the chain's lanes that reach tick t
                states = est.X.rot[still], est.X.vec[still], est.Sigma[still]
                if t % every:
                    assert same(states, t)
                else:
                    predicted, corrected = updates[t // every - 1]
                    assert [a.tobytes() for a in states] == [a.tobytes() for a in predicted]
                    assert same(corrected, t)
        for stack in stacks:
            for j in np.ndindex(ends.shape):
                assert np.isfinite(stack[j][: min(ends[j], n + 1)]).all() and np.isnan(stack[j][ends[j] :]).all()

    @pytest.mark.parametrize(
        "overrides, n_runs, keep_series",
        [
            ({}, 1, False),
            ({}, 8, False),
            ({"update_iterations": 1, "sigma0": 100.0}, 9, True),
            ({"star_rate_hz": 4.0, "update_iterations": 1, "sigma0": 10.0}, 12, False),
        ],
        ids=["one", "group8", "stage2_leaves", "stage1_failed_leave_stage2"],
    )
    def test_the_states_handed_to_the_kernel_are_in_c_order(self, monkeypatch, overrides, n_runs, keep_series):
        # the kernel's bits depend on the states' memory layout as well as
        # their values (an order-'K' copy of the initial states, lane axis
        # innermost, changes 4 of 8 lanes), so every state that a pass hands
        # to a predict step or an update step is C-contiguous, also once
        # lanes have left: with sigma0 = 100 and the series kept, lane 8 of 9
        # leaves in stage 2; without the series, the 11 runs of 12 that fail
        # in stage 1 leave stage 2's pass at tick 0
        seen = []
        for stage in (stage1, stage2):
            for name in ("predict_step", "update_step"):
                monkeypatch.setattr(stage, name, lambda *args, real=getattr(stage, name), name=name: seen.append((name, args[:3]))
                                    or real(*args))
        batch = run_batch(ScenarioConfig(seed=2026, **overrides), n_runs, keep_series=keep_series)
        assert {name for name, _ in seen} == {"predict_step", "update_step"}
        assert {a.shape[:-2] for _, (a, _, _) in seen} >= ({()} if n_runs == 1 else {(n_runs,)})
        if n_runs > 8:
            assert batch.runs[8].diverged and any(a.ndim == 3 and len(a) < n_runs for _, (a, _, _) in seen)
        assert all(a.flags.c_contiguous for _, states in seen for a in states)

    def test_lanes_that_stop_between_measurements_equal_their_one_lane_passes(self):
        # stage 2's pass with lanes leaving at ticks 37 and 55, inside its
        # 10-tick feature intervals, beside a lane that runs to the end: the
        # pass drops each lane where it leaves, each lane equals its
        # one-lane pass bit for bit, and a lane's rows before its end are
        # those of its pass to the end, NaN after
        cfg = ScenarioConfig(seed=2026, duration_s=1.0)
        n, dt, every = cfg.steps_per_run(), 1.0 / cfg.gyro_rate_hz, cfg.feature_every()
        world = TruthWorld.stack([sample_world(cfg, run_rng(cfg.seed, i)) for i in range(3)])
        streams = noiseless_streams(world, *truth_trajectory(world, dt, n), cfg.star_every(), every)
        ends = np.array([37, 55, n + 1])
        gains = cfg.stage2_gains()
        args = gains, cfg.ref_dirs(), gains, 1.0 / cfg.feature_rate_hz

        def stage2_pass(gyro, features, ends):
            return harness._lockstep(stage2.predict_step, stage2.predict_constants, stage2.update_step, dt, gyro, every, features, ends,
                                     True, *args)

        states, got_ends = stage2_pass(streams.gyro, streams.features, ends)
        assert got_ends.tolist() == ends.tolist()
        for j, end in enumerate(ends):
            alone, alone_end = stage2_pass(streams.gyro[j], streams.features[j], end)
            full, _ = stage2_pass(streams.gyro[j], streams.features[j], n + 1)
            assert alone_end == end
            for lanes, one, whole in zip(states, alone, full):
                assert lanes[j].tobytes() == one.tobytes()
                assert one[:end].tobytes() == whole[:end].tobytes() and np.isnan(one[end:]).all()

    def test_value_error_inside_a_lane_tick_propagates(self, monkeypatch):
        # a programming error in the update step over all lanes is raised from run_batch
        def broken_update(*args):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(stage2, "update_step", broken_update)
        with pytest.raises(ValueError, match="not a numerical failure"):
            run_batch(ScenarioConfig(seed=0, duration_s=1.0), 3)

    @pytest.mark.parametrize("sigma0, n_runs", [(1.0, 8), (100.0, 9)], ids=["stage1_fails", "stage2_fails_too"])
    def test_a_failing_tick_is_called_once_more_and_never_per_lane(self, monkeypatch, sigma0, n_runs):
        # the failure names its lanes: each pass calls its update step once per
        # measurement tick it advances, and once more per tick that fails,
        # always on the stack (with the series kept, stage 2's pass runs each
        # lane up to its stage-1 end, and with sigma0 = 100 lane 8 fails in its
        # stage-2 update at tick 50)
        passes, real_lockstep, ndims = [], harness._lockstep, []
        monkeypatch.setattr(harness, "_lockstep", lambda *args: passes.append(real_lockstep(*args)) or passes[-1])
        for stage in (stage1, stage2):
            monkeypatch.setattr(stage, "update_step", lambda *args, update=stage.update_step: ndims.append(args[2].ndim) or update(*args))
        cfg = ScenarioConfig(seed=2026, update_iterations=1, sigma0=sigma0)
        run_batch(cfg, n_runs, keep_series=True)
        (_, ends1), (_, ends2) = passes
        failing = len(set(ends1[ends1 <= cfg.steps_per_run()])) + len(set(ends2[ends2 < ends1]))
        assert failing > 2 and set(ndims) == {3}
        # the update step is called at the measurement ticks only
        advanced = (ends1.max() - 1) // cfg.star_every() + (ends2.max() - 1) // cfg.feature_every()
        assert len(ndims) == advanced + failing

    def test_run_single_is_called_once_per_run_in_order(self, monkeypatch):
        # each run's diagnostics and metrics come from one run_single call,
        # given its lane; a single run is a lane group of one
        calls, real_single = [], harness.run_single

        def recording(cfg, run_index, keep_series=False, **lane):
            if lane:
                calls.append(run_index)
            return real_single(cfg, run_index, keep_series, **lane)

        monkeypatch.setattr(harness, "run_single", recording)
        cfg = ScenarioConfig(seed=3, duration_s=1.0)
        run_batch(cfg, 4)
        run_batch(cfg, 1)
        harness.run_single(cfg, 2)
        assert calls == [0, 1, 2, 3, 0, 2]

    @pytest.mark.parametrize(
        "n_runs, duration_s, worlds, truths",
        [(8, 15.0, 8, 1), (55, 2.0, 55, 2), (None, 15.0, 1, 1)],  # 55 runs: lane groups of 50 + 5
        ids=["batch8", "batch55", "single"],
    )
    def test_each_run_draws_its_world_once_and_a_lane_group_builds_its_truth_once(
        self, monkeypatch, n_runs, duration_s, worlds, truths
    ):
        counts = {"sample_world": 0, "truth_trajectory": 0, "noiseless_streams": 0}
        for name in counts:
            real = getattr(harness, name)

            def counted(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(harness, name, counted)
        cfg = ScenarioConfig(seed=5, duration_s=duration_s)
        if n_runs is None:
            run_single(cfg)
        else:
            run_batch(cfg, n_runs)
        assert counts == {"sample_world": worlds, "truth_trajectory": truths, "noiseless_streams": truths}
