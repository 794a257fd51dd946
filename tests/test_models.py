import math
from dataclasses import replace

import numpy as np
import pytest

from eqfcascade.geom import ORTHO_TOL, exp_so3, is_rotation, random_rotation, random_unit_vector, wedge
from eqfcascade.models import (
    STAR_DIRS,
    MeasurementBundle,
    SensorConfig,
    TruthWorld,
    add_sensor_noise,
    measure_features,
    measure_gyro,
    measure_star_tracker,
    noiseless_streams,
    observed_directions,
    perturb_direction,
    propagate_truth,
    relative_state,
    stage_truths,
    truth_trajectory,
)
from oracles import rk4_matrix_ode, rotate_about_random_axis

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def make_world(rng=None, omega_t=None, omega_c=None, bias=None, att_t=None, att_c=None):
    rng = rng or np.random.default_rng(0)
    return TruthWorld(
        att_target=np.eye(3) if att_t is None else att_t,
        att_chaser=np.eye(3) if att_c is None else att_c,
        omega_target=np.zeros(3) if omega_t is None else np.asarray(omega_t, float),
        omega_chaser=np.zeros(3) if omega_c is None else np.asarray(omega_c, float),
        gyro_bias=np.zeros(3) if bias is None else np.asarray(bias, float),
        ref_dirs=(E1.copy(), E2.copy()),
    )


def random_world(seed):
    rng = np.random.default_rng(seed)
    return make_world(
        omega_t=0.05 * rng.normal(size=3),
        omega_c=0.05 * rng.normal(size=3),
        bias=0.02 * rng.normal(size=3),
        att_t=random_rotation(rng),
        att_c=random_rotation(rng),
    )


class TestTruthWorld:
    def test_rejects_collinear_reference_directions(self):
        with pytest.raises(ValueError, match="collinear"):
            TruthWorld(np.eye(3), np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), (E1, E1))

    def test_rejects_invalid_rotation(self):
        with pytest.raises(ValueError, match="rotation"):
            TruthWorld(2 * np.eye(3), np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), (E1, E2))


class TestSensorConfig:
    def test_defaults_valid(self):
        cfg = SensorConfig()
        assert cfg.gyro_rate == 100.0


class TestPropagation:
    def test_zero_rates_leave_world_unchanged(self):
        w = make_world()
        w2 = propagate_truth(w, 0.5)
        np.testing.assert_array_equal(w2.att_target, w.att_target)
        np.testing.assert_array_equal(w2.att_chaser, w.att_chaser)

    def test_quarter_turn(self):
        w = make_world(omega_c=[0.0, 0.0, math.pi / 2])
        w2 = propagate_truth(w, 1.0)
        np.testing.assert_allclose(
            w2.att_chaser, w.att_chaser @ exp_so3(np.array([0, 0, math.pi / 2])), atol=1e-15
        )

    def test_constants_preserved(self):
        w = random_world(1)
        w2 = propagate_truth(w, 0.3)
        np.testing.assert_array_equal(w2.omega_target, w.omega_target)
        np.testing.assert_array_equal(w2.omega_chaser, w.omega_chaser)
        np.testing.assert_array_equal(w2.gyro_bias, w.gyro_bias)

    def test_stepwise_equals_single_step(self):
        # constant rates make the exponential flow exact, so any partition
        # of the interval lands on the same attitudes
        w = random_world(2)
        w_single = propagate_truth(w, 1.0)
        w_multi = w
        for _ in range(40):
            w_multi = propagate_truth(w_multi, 0.025)
        np.testing.assert_allclose(w_multi.att_chaser, w_single.att_chaser, atol=1e-9)
        np.testing.assert_allclose(w_multi.att_target, w_single.att_target, atol=1e-9)

    def test_relative_attitude_matches_rk4_oracle(self):
        # independently integrate the relative kinematics
        # dR/dt = R (u - omega)^ with omega = R^T omega_target
        w = random_world(3)
        u = w.omega_chaser
        omega_t_chaser_frame = lambda r: r.T @ w.omega_target

        def f(r):
            return r @ wedge(u - omega_t_chaser_frame(r))

        r_oracle = rk4_matrix_ode(f, relative_state(w).rot, t_end=1.0, dt=1e-4)
        r_flow = relative_state(propagate_truth(w, 1.0)).rot
        np.testing.assert_allclose(r_flow, r_oracle, atol=1e-6)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            propagate_truth(make_world(), 0.0)

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("dt, n_steps", [(1.0, 15), (0.1, 40), (0.01, 150)])
    def test_trajectory_rows_equal_iterated_propagation(self, seed, dt, n_steps):
        # the harness reads the truth from these stacks in place of stepping
        # propagate_truth every tick, so the rows must match it bit for bit
        w = random_world(seed)
        chaser, rel_rot = truth_trajectory(w, dt, n_steps)
        assert chaser.shape == rel_rot.shape == (n_steps + 1, 3, 3)
        truth1, rel = stage_truths(chaser, rel_rot, w.gyro_bias, w.omega_target)
        step = w
        for k in range(n_steps + 1):
            np.testing.assert_array_equal(truth1.rot[k], step.att_chaser)
            np.testing.assert_array_equal(truth1.vec[k], step.gyro_bias)
            rel_k = relative_state(step)
            np.testing.assert_array_equal(rel.rot[k], rel_k.rot)
            np.testing.assert_array_equal(rel.vec[k], rel_k.vec)
            step = propagate_truth(step, dt)

    @pytest.mark.parametrize("n_lanes", [1, 5])
    def test_lane_stacked_trajectory_equals_each_runs_own(self, n_lanes):
        # the harness builds a lane group's stage truths and noiseless
        # streams in one call each, and hands each run its lanes, so every
        # lane must be the run's own one-lane build bit for bit; reference
        # directions that are not basis rows make each feature direction a
        # sum of products
        ref_dirs = np.array([[2.0, 0.3, -0.5], [0.4, 1.5, 0.7]])
        ref_dirs /= np.linalg.norm(ref_dirs, axis=1, keepdims=True)
        worlds = [replace(random_world(seed), ref_dirs=ref_dirs) for seed in range(6, 6 + n_lanes)]
        world = TruthWorld.stack(worlds)
        chaser, rel = truth_trajectory(world, 0.01, 150)
        assert chaser.shape == rel.shape == (n_lanes, 151, 3, 3)
        streams = noiseless_streams(world, chaser, rel, 7, 3)
        for j, w in enumerate(worlds):
            own = truth_trajectory(w, 0.01, 150)
            lanes = stage_truths(chaser[j], rel[j], world.gyro_bias[j], world.omega_target[j])
            for lane, mine in zip(lanes, stage_truths(*own, w.gyro_bias, w.omega_target)):
                assert lane.rot.tobytes() == mine.rot.tobytes()
                assert lane.vec.tobytes() == mine.vec.tobytes()
            own_streams = noiseless_streams(w, *own, 7, 3)
            for name in ("gyro", "star", "features"):
                assert getattr(streams, name)[j].tobytes() == getattr(own_streams, name).tobytes()

    @pytest.mark.parametrize("rate", ["half_turn", "random"])
    def test_trajectory_rows_stay_rotations(self, rate):
        # the rows are not checked when built: a tick's exp_so3 at the rate
        # bound (half a turn a tick) or at any rate, repeated over a 15 s
        # run at 100 Hz, keeps them rotations within ORTHO_TOL
        rng = np.random.default_rng(31)
        dt, lanes = 0.01, 4
        rates = rng.normal(size=(lanes, 2, 3))
        if rate == "half_turn":
            rates *= math.pi / dt / np.linalg.norm(rates, axis=-1, keepdims=True)
        worlds = [
            make_world(omega_t=t, omega_c=c, att_t=random_rotation(rng), att_c=random_rotation(rng)) for t, c in rates
        ]
        chaser, rel = truth_trajectory(TruthWorld.stack(worlds), dt, 1500)
        assert is_rotation(chaser, ORTHO_TOL)
        assert is_rotation(rel, ORTHO_TOL)

    def test_lane_stacked_world_checks_every_lane(self):
        stack = TruthWorld.stack([random_world(6), random_world(7)])
        bad = stack.att_chaser.copy()
        bad[1] *= 2.0
        with pytest.raises(ValueError, match="rotation"):
            replace(stack, att_chaser=bad)


class TestRelativeState:
    def test_equal_attitudes_give_identity(self):
        rng = np.random.default_rng(4)
        att = random_rotation(rng)
        w = make_world(att_t=att, att_c=att)
        np.testing.assert_allclose(relative_state(w).rot, np.eye(3), atol=1e-14)

    def test_zero_target_rate(self):
        w = make_world(att_t=random_rotation(np.random.default_rng(5)))
        np.testing.assert_array_equal(relative_state(w).vec, np.zeros(3))

    def test_omega_rate_matches_finite_difference(self):
        # d(omega)/dt should equal omega x u
        w = random_world(6)
        dt = 1e-5
        omega0 = relative_state(w).vec
        omega1 = relative_state(propagate_truth(w, dt)).vec
        fd = (omega1 - omega0) / dt
        expected = np.cross(omega0, w.omega_chaser)
        np.testing.assert_allclose(fd, expected, atol=1e-6)


class TestMeasureGyro:
    def test_noiseless_unbiased(self):
        w = make_world(omega_c=[0.1, -0.2, 0.3])
        np.testing.assert_array_equal(
            measure_gyro(w, 0.0, np.random.default_rng(0)), w.omega_chaser
        )

    def test_noiseless_biased(self):
        w = make_world(omega_c=[0.1, -0.2, 0.3], bias=[0.01, 0.02, -0.01])
        np.testing.assert_allclose(
            measure_gyro(w, 0.0, np.random.default_rng(0)), w.omega_chaser + w.gyro_bias
        )

    def test_sample_mean_converges(self):
        w = make_world(omega_c=[0.1, -0.2, 0.3], bias=[0.01, 0.02, -0.01])
        rng = np.random.default_rng(7)
        sigma = 0.01
        n = 100_000
        acc = np.zeros(3)
        for _ in range(n):
            acc += measure_gyro(w, sigma, rng)
        bound = 4.0 * sigma / math.sqrt(n)
        np.testing.assert_allclose(acc / n, w.omega_chaser + w.gyro_bias, atol=bound)


class TestPerturbDirection:
    def test_zero_sigma_unchanged(self):
        v = random_unit_vector(np.random.default_rng(8))
        np.testing.assert_array_equal(perturb_direction(v, 0.0, np.random.default_rng(9)), v)

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            v = random_unit_vector(rng)
            out = perturb_direction(v, 0.05, rng)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_mean_angle_matches_generative_model(self):
        # oracle: direct vectorized simulation of the stated noise model
        sigma = 0.01
        v = np.array([0.0, 0.0, 1.0])
        oracle_draws = rotate_about_random_axis(v, sigma, np.random.default_rng(11))(300_000)
        oracle_angles = np.arccos(np.clip(oracle_draws @ v, -1, 1))
        rng = np.random.default_rng(12)
        n = 30_000
        angles = np.empty(n)
        for i in range(n):
            out = perturb_direction(v, sigma, rng)
            angles[i] = math.acos(min(1.0, max(-1.0, float(out @ v))))
        mc_err = 4.0 * (np.std(oracle_angles) / math.sqrt(n) + np.std(oracle_angles) / math.sqrt(oracle_angles.size))
        assert abs(angles.mean() - oracle_angles.mean()) < mc_err


class TestStarTracker:
    def test_identity_attitude_noiseless(self):
        y = measure_star_tracker(make_world(), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(y[0], E1)
        np.testing.assert_array_equal(y[1], E2)
        np.testing.assert_array_equal(y[2], E3)

    def test_quarter_turn_rows(self):
        # y_i = R_C^T e_i is row i of R_C
        r = exp_so3(np.array([0, 0, math.pi / 2]))
        w = make_world(att_c=r)
        y = measure_star_tracker(w, 0.0, np.random.default_rng(0))
        for i in range(3):
            np.testing.assert_allclose(y[i], r[i, :], atol=1e-15)

    def test_noise_angle_rms_matches_quadrature(self):
        # with the axis uniform on the sphere the tangential displacement
        # satisfies E[angle^2] = sigma^2 E[sin^2 beta]; evaluate the beta
        # integral by quadrature as an independent reference
        sigma = 0.01
        beta = np.linspace(0.0, math.pi, 20001)
        e_sin2 = np.trapezoid(np.sin(beta) ** 2 * np.sin(beta) / 2.0, beta)
        expected_rms = sigma * math.sqrt(e_sin2)
        w = make_world(att_c=random_rotation(np.random.default_rng(13)))
        clean = measure_star_tracker(w, 0.0, np.random.default_rng(0))
        rng = np.random.default_rng(14)
        sq = []
        for _ in range(10_000):
            noisy = measure_star_tracker(w, sigma, rng)
            for i in range(3):
                sq.append(math.acos(min(1.0, max(-1.0, float(noisy[i] @ clean[i])))) ** 2)
        rms = math.sqrt(np.mean(sq))
        assert abs(rms - expected_rms) / expected_rms < 0.05


class TestObservedDirections:
    def test_noiseless_is_transposed_product(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rot = random_rotation(rng)
            dirs = (random_unit_vector(rng), random_unit_vector(rng), random_unit_vector(rng))
            y = observed_directions(rot, dirs, 0.0, rng)
            # exact against the documented row form; rot.T @ d is the same
            # value, but BLAS kernels may round the two products differently,
            # so it is held to a few ulps of the unit-length rows
            np.testing.assert_array_equal(y, np.array(dirs) @ rot)
            for yi, d in zip(y, dirs):
                np.testing.assert_allclose(yi, rot.T @ d, rtol=0, atol=4 * np.finfo(float).eps)


class TestFeatures:
    def test_identity_noiseless(self):
        y = measure_features(make_world(), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(y[0], E1)
        np.testing.assert_array_equal(y[1], E2)

    def test_angles_preserved(self):
        w = random_world(15)
        y = measure_features(w, 0.0, np.random.default_rng(0))
        dot_ring = float(w.ref_dirs[0] @ w.ref_dirs[1])
        assert abs(float(y[0] @ y[1]) - dot_ring) < 1e-12

    def test_angle_between_features_matches_reference(self):
        w = random_world(16)
        y = measure_features(w, 0.0, np.random.default_rng(0))
        a_ref = math.acos(float(w.ref_dirs[0] @ w.ref_dirs[1]))
        a_meas = math.acos(float(np.clip(y[0] @ y[1], -1, 1)))
        assert abs(a_ref - a_meas) < 1e-12


def test_measurement_bundle_defaults():
    b = MeasurementBundle(0.5, np.zeros(3))
    assert b.star is None and b.features is None


class StubNormals:
    """Serves a fixed sequence of normals in order, as Generator.normal does."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def normal(self, size=None):
        k = 1 if size is None else size
        out = self.values[self.used : self.used + k].copy()
        assert len(out) == k, "stub ran out of normals"
        self.used += k
        return float(out[0]) if size is None else out


def per_tick_streams(world, chaser, rel, sensors, star_every, feature_every, rng):
    """The reference: each tick's measurements drawn by the per-tick functions, in tick order."""
    gyro, star, features = [], [], []
    for k in range(1, len(chaser)):
        gyro.append(measure_gyro(world, sensors.gyro_noise_std, rng))
        if k % star_every == 0:
            star.append(observed_directions(chaser[k], STAR_DIRS, sensors.direction_noise_std, rng))
        if k % feature_every == 0:
            features.append(observed_directions(rel[k], world.ref_dirs, sensors.direction_noise_std, rng))
    return [np.array(rows).reshape(-1, *shape) for rows, shape in ((gyro, (3,)), (star, (3, 3)), (features, (2, 3)))]


def assert_streams_equal_reference(world, truth, sensors, star_every, feature_every, make_rng):
    rng_a, rng_b = make_rng(), make_rng()
    clean = noiseless_streams(world, *truth, star_every, feature_every)
    noise = sensors.gyro_noise_std, sensors.direction_noise_std
    streams = add_sensor_noise(clean, *noise, star_every, feature_every, rng_a)
    expected = per_tick_streams(world, *truth, sensors, star_every, feature_every, rng_b)
    for got, want in zip((streams.gyro, streams.star, streams.features), expected):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # both consumed the same normals: the next draw agrees
    assert rng_a.normal() == rng_b.normal()


class TestSensorStreams:
    @pytest.mark.parametrize(
        "rates", [(100.0, 1.0, 10.0), (100.0, 100.0, 100.0), (100.0, 20.0, 25.0)], ids=["default", "100Hz", "20_25Hz"]
    )
    @pytest.mark.parametrize("gyro_std, dir_std", [(0.01, 0.01), (0.0, 0.01), (0.01, 0.0), (0.0, 0.0)])
    def test_streams_equal_per_tick_draws_bit_for_bit(self, rates, gyro_std, dir_std):
        gyro_rate, star_rate, feature_rate = rates
        sensors = SensorConfig(gyro_std, dir_std, gyro_rate, star_rate, feature_rate)
        w = random_world(20)
        w = replace(w, ref_dirs=np.array(w.ref_dirs))
        truth = truth_trajectory(w, 1.0 / gyro_rate, 250)
        every = round(gyro_rate / star_rate), round(gyro_rate / feature_rate)
        assert_streams_equal_reference(w, truth, sensors, *every, lambda: np.random.default_rng(21))

    def test_rejected_axis_draws_keep_the_stream_order(self):
        # gyro 3 normals a tick, star every 2nd tick (3 x 4), features every
        # 3rd (2 x 4): tick 2's first star axis sits at offset 6. Reject it
        # twice (0, then a norm of 1e-13 <= 1e-12), so that the axis is
        # 12..14 and the angle 15; tick 3 then starts at 3 + 3 + 18 = 24, and
        # its second feature axis sits at 24 + 3 + 4 = 31.
        values = np.random.default_rng(22).normal(size=400)
        values[6:9] = 0.0
        values[9:12] = (1e-13, 0.0, 0.0)
        values[31:34] = 0.0
        sensors = SensorConfig(0.01, 0.01, 100.0, 50.0, 100.0 / 3.0)
        w = random_world(23)
        w = replace(w, ref_dirs=np.array(w.ref_dirs))
        truth = truth_trajectory(w, 0.01, 12)
        assert_streams_equal_reference(w, truth, sensors, 2, 3, lambda: StubNormals(values))
