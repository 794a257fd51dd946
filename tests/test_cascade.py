import numpy as np
import pytest

from eqfcascade import cascade, stage1, stage2
from eqfcascade.filter_base import FilterEstimate, FilterGains
from eqfcascade.geom import (
    GroupElement,
    StageState,
    exp_so3,
    identity_element,
    random_rotation,
    random_unit_vector,
    rotation_angle,
    wedge,
)
from eqfcascade.models import MeasurementBundle, TruthWorld, measure_features, measure_gyro, measure_star_tracker, propagate_truth, relative_state

REF_DIRS = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
D2R = np.pi / 180.0


def default_gains():
    return FilterGains.identity_scaled(9), FilterGains.identity_scaled(6)


def make_world(rng, att_err_deg=30.0, bias_dps=1.25, omega_dps=2.0, u_dps=2.0):
    att_chaser = exp_so3(att_err_deg * D2R * random_unit_vector(rng))
    rel = exp_so3(att_err_deg * D2R * random_unit_vector(rng))
    return TruthWorld(
        att_target=att_chaser @ rel.T,
        att_chaser=att_chaser,
        omega_target=omega_dps * D2R * random_unit_vector(rng),
        omega_chaser=u_dps * D2R * random_unit_vector(rng),
        gyro_bias=bias_dps * D2R * random_unit_vector(rng),
        ref_dirs=REF_DIRS,
    )


def error_norms(cs, world):
    e1 = cascade.local_error(StageState(world.att_chaser, world.gyro_bias), cs.s1.X)
    e2 = cascade.local_error(relative_state(world), cs.s2.X)
    return np.linalg.norm([e1.rot, e1.vec, e2.rot, e2.vec], axis=1)


def run_noiseless(world, seconds, gains1, gains2, subtract_bias=True, checkpoint_s=None):
    cs = cascade.initial_state(gains1, gains2)
    rng = np.random.default_rng(0)
    dt = 0.01
    checkpoint = None
    for k in range(1, int(seconds * 100) + 1):
        gyro = measure_gyro(world, 0.0, rng)
        world = propagate_truth(world, dt)
        star = measure_star_tracker(world, 0.0, rng) if k % 100 == 0 else None
        feats = measure_features(world, 0.0, rng) if k % 10 == 0 else None
        bundle = MeasurementBundle(k * dt, gyro, star, feats)
        cs = cascade.step(cs, bundle, gains1, gains2, REF_DIRS, 1.0, 0.1, subtract_bias)
        if checkpoint_s is not None and k == int(checkpoint_s * 100):
            checkpoint = error_norms(cs, world)
    return cs, world, checkpoint


class TestStep:
    def test_prediction_only_tick(self):
        gains1, gains2 = default_gains()
        cs = cascade.initial_state(gains1, gains2)
        world = make_world(np.random.default_rng(0))
        gyro = measure_gyro(world, 0.0, np.random.default_rng(0))
        out = cascade.step(cs, MeasurementBundle(0.01, gyro), gains1, gains2, REF_DIRS, 1.0, 0.1)
        assert out.t == 0.01
        # no updates ran: Riccati matrices grew by the propagation terms only
        assert np.trace(out.s1.Sigma) > np.trace(cs.s1.Sigma)
        assert np.trace(out.s2.Sigma) > np.trace(cs.s2.Sigma)

    def test_exact_bias_cancellation(self):
        # when the stage-1 estimate carries the true bias, stage 2 is fed
        # exactly the true chaser rate
        rng = np.random.default_rng(1)
        world = make_world(rng)
        gains1, gains2 = default_gains()
        x1 = GroupElement(world.att_chaser, -(world.att_chaser @ world.gyro_bias))
        fresh = cascade.initial_state(gains1, gains2)
        cs = cascade.CascadeState(FilterEstimate(x1, np.eye(6)), fresh.s2, 0.0)
        gyro = measure_gyro(world, 0.0, rng)  # u + b, no noise
        out = cascade.step(cs, MeasurementBundle(0.01, gyro), gains1, gains2, REF_DIRS, 1.0, 0.1)
        manual = stage2.predict(cs.s2, world.omega_chaser, gains2, 0.01)
        np.testing.assert_allclose(out.s2.X.rot, manual.X.rot, atol=1e-9)
        np.testing.assert_allclose(out.s2.X.vec, manual.X.vec, atol=1e-12)

    def test_rejects_non_monotone_timestamp(self):
        gains1, gains2 = default_gains()
        fresh = cascade.initial_state(gains1, gains2)
        cs = cascade.CascadeState(fresh.s1, fresh.s2, t=1.0)
        with pytest.raises(ValueError, match="non-monotone"):
            cascade.step(cs, MeasurementBundle(0.5, np.zeros(3)), gains1, gains2, REF_DIRS, 1.0, 0.1)

    def test_full_noiseless_run_converges(self):
        gains1, gains2 = default_gains()
        world = make_world(np.random.default_rng(2), att_err_deg=25.0)
        initial = error_norms(cascade.initial_state(gains1, gains2), world)
        cs, world_end, at_10s = run_noiseless(world, 15.0, gains1, gains2, checkpoint_s=10.0)
        # transient decay: every error norm under 10 % of its start by 10 s
        assert np.all(at_10s <= 0.1 * initial)
        assert np.all(error_norms(cs, world_end) < 1e-3)


class TestLocalError:
    def test_zero_for_exact_estimate(self):
        rng = np.random.default_rng(3)
        state = StageState(random_rotation(rng), rng.normal(size=3))
        x = GroupElement(state.rot, -(state.rot @ state.vec))
        eps = cascade.local_error(state, x)
        assert np.linalg.norm(eps.rot) < 1e-12 and np.linalg.norm(eps.vec) < 1e-12

    def test_identity_estimate_against_vector_truth(self):
        a = np.array([0.1, -0.2, 0.3])
        # truth (I, -a) corresponds to the group element (I, a)
        eps = cascade.local_error(StageState(np.eye(3), -a), identity_element())
        np.testing.assert_allclose(eps.rot, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(eps.vec, -a, atol=1e-15)

    def test_rot_norm_equals_geodesic_angle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = StageState(random_rotation(rng), rng.normal(size=3))
            x_rot = random_rotation(rng)
            x = GroupElement(x_rot, -(x_rot @ state.vec))  # equal vector parts
            eps = cascade.local_error(state, x)
            assert abs(np.linalg.norm(eps.rot) - rotation_angle(x_rot, state.rot)) < 1e-9

    def test_bias_error_transport_identity(self):
        # the vector part satisfies b - b_hat = A_hat^T eps_vec
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = StageState(random_rotation(rng), rng.normal(size=3))
            x = GroupElement(random_rotation(rng), rng.normal(size=3))
            eps = cascade.local_error(state, x)
            recovered = stage1.recover_state(x)
            np.testing.assert_allclose(
                state.vec - recovered.vec, x.rot.T @ eps.vec, atol=1e-10
            )


class TestGamma:
    def test_zero_bias_error(self):
        out = cascade.gamma_term(np.eye(3), np.eye(3), np.array([0.1, 0.2, 0.3]), np.zeros(3))
        np.testing.assert_array_equal(out.rot, np.zeros(3))
        np.testing.assert_array_equal(out.vec, np.zeros(3))

    def test_zero_vector_estimate(self):
        rng = np.random.default_rng(6)
        out = cascade.gamma_term(
            random_rotation(rng), random_rotation(rng), np.zeros(3), rng.normal(size=3)
        )
        np.testing.assert_allclose(out.vec, np.zeros(3), atol=1e-15)

    def test_hand_evaluated_case(self):
        eps_b = np.array([1.0, 0.0, 0.0])
        q_hat = np.array([0.0, 0.0, 1.0])
        out = cascade.gamma_term(np.eye(3), np.eye(3), q_hat, eps_b)
        np.testing.assert_allclose(out.rot, eps_b, atol=1e-15)
        np.testing.assert_allclose(wedge(out.rot), wedge(eps_b), atol=1e-15)
        np.testing.assert_allclose(out.vec, np.array([0.0, 1.0, 0.0]), atol=1e-15)


class TestLyapunov:
    def test_zero_error(self):
        eps = cascade.ErrorVector(np.zeros(3), np.zeros(3))
        assert cascade.lyapunov_value(eps, np.eye(6)) == 0.0

    def test_identity_sigma(self):
        eps = cascade.ErrorVector(np.array([0.1, 0.0, 0.0]), np.zeros(3))
        assert abs(cascade.lyapunov_value(eps, np.eye(6)) - 0.01) < 1e-15

    def test_singular_sigma_reads_nan(self):
        # on its own, and as one row of a stack, which leaves the others
        eps = cascade.ErrorVector(np.array([0.1, 0.0, 0.0]), np.zeros(3))
        assert np.isnan(cascade.lyapunov_value(eps, np.zeros((6, 6))))
        rows = cascade.ErrorVector(np.tile(eps.rot, (3, 1)), np.zeros((3, 3)))
        values = cascade.lyapunov_value(rows, np.stack([np.eye(6), np.zeros((6, 6)), np.eye(6)]))
        assert np.isnan(values[1]) and values[0] == values[2] == cascade.lyapunov_value(eps, np.eye(6))

    def test_positive_for_nonzero_error(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            eps = cascade.ErrorVector(rng.normal(size=3), rng.normal(size=3))
            m = rng.normal(size=(6, 6))
            sigma = m @ m.T + 0.1 * np.eye(6)
            assert cascade.lyapunov_value(eps, sigma) > 0.0


def test_bias_cancellation_identity_every_tick():
    # the stage-2 input error equals the bias estimation error exactly
    rng = np.random.default_rng(8)
    world = make_world(rng)
    gains1, gains2 = default_gains()
    cs = cascade.initial_state(gains1, gains2)
    dt = 0.01
    for k in range(1, 200):
        gyro = measure_gyro(world, 0.0, rng)
        world = propagate_truth(world, dt)
        star = measure_star_tracker(world, 0.0, rng) if k % 100 == 0 else None
        cs = cascade.step(cs, MeasurementBundle(k * dt, gyro, star), gains1, gains2, REF_DIRS, 1.0, 0.1)
        bias_hat = stage1.recover_state(cs.s1.X).vec
        rate_fed = gyro - bias_hat
        np.testing.assert_allclose(
            np.linalg.norm(rate_fed - world.omega_chaser),
            np.linalg.norm(world.gyro_bias - bias_hat),
            atol=1e-12,
        )
