import math

import numpy as np
import pytest

from eqfcascade import filter_base, stage1
from eqfcascade.cascade import local_error
from eqfcascade.filter_base import ORIGIN, FilterEstimate, FilterGains, initial_estimate
from eqfcascade.geom import (
    GroupElement,
    StageState,
    exp_so3,
    group_compose,
    random_rotation,
    random_unit_vector,
    rotation_angle,
    wedge,
)
from oracles import (
    fd_jacobian,
    fd_lift_flow,
    fd_pushforward,
    random_group_element,
    random_stage_state,
    state_from_error,
)


def f_sys(xi: StageState, gyro: np.ndarray) -> np.ndarray:
    # biased attitude kinematics in body coordinates: the bias is constant
    return np.concatenate([gyro - xi.vec, np.zeros(3)])


def gains(iterations=20):
    return FilterGains.identity_scaled(9, update_iterations=iterations)


class TestActions:
    def test_state_action_identity(self):
        rng = np.random.default_rng(0)
        xi = random_stage_state(rng)
        out = stage1.state_action(GroupElement(np.eye(3), np.zeros(3)), xi)
        np.testing.assert_allclose(out.rot, xi.rot, atol=1e-15)
        np.testing.assert_allclose(out.vec, xi.vec, atol=1e-15)

    def test_state_action_translation_part(self):
        g = GroupElement(np.eye(3), np.array([0.1, 0.2, 0.3]))
        xi = StageState(np.eye(3), np.array([1.0, 1.0, 1.0]))
        out = stage1.state_action(g, xi)
        np.testing.assert_allclose(out.vec, xi.vec - g.vec, atol=1e-15)

    def test_input_action_translation(self):
        g = GroupElement(np.eye(3), np.array([0.1, 0.2, 0.3]))
        u = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(stage1.input_action(g, u), u - g.vec, atol=1e-15)

    def test_action_compatibility(self):
        # right-action axiom: acting by g1 then g2 equals acting by g1 * g2
        rng = np.random.default_rng(1)
        for _ in range(100):
            g1, g2 = random_group_element(rng), random_group_element(rng)
            xi = random_stage_state(rng)
            via_two = stage1.state_action(g2, stage1.state_action(g1, xi))
            via_one = stage1.state_action(group_compose(g1, g2), xi)
            np.testing.assert_allclose(via_two.rot, via_one.rot, atol=1e-12)
            np.testing.assert_allclose(via_two.vec, via_one.vec, atol=1e-12)
            u = rng.normal(size=3)
            np.testing.assert_allclose(
                stage1.input_action(g2, stage1.input_action(g1, u)),
                stage1.input_action(group_compose(g1, g2), u),
                atol=1e-12,
            )
            y = tuple(random_unit_vector(rng) for _ in range(3))
            two = stage1.output_action(g2, stage1.output_action(g1, y))
            one = stage1.output_action(group_compose(g1, g2), y)
            for a, b in zip(two, one):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_equivariance_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_group_element(rng)
            xi = random_stage_state(rng)
            lhs = stage1.output_map(stage1.state_action(g, xi))
            rhs = stage1.output_action(g, stage1.output_map(xi))
            for a, b in zip(lhs, rhs):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_map_is_rows_of_attitude(self):
        # y_i = R^T e_i, computed as a product, is row i of R bit for bit
        rng = np.random.default_rng(21)
        for _ in range(50):
            xi = StageState(random_rotation(rng), rng.normal(size=3))
            y = stage1.output_map(xi)
            for i in range(3):
                np.testing.assert_array_equal(y[i], xi.rot[i])

    def test_system_equivariance_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_group_element(rng, vec_scale=0.1)
            xi = random_stage_state(rng, vec_scale=0.1)
            u = 0.2 * rng.normal(size=3)
            pushed = fd_pushforward(stage1.state_action, g, xi, f_sys(xi, u))
            direct = f_sys(stage1.state_action(g, xi), stage1.input_action(g, u))
            np.testing.assert_allclose(pushed, direct, atol=1e-6)


class TestLiftAndRecovery:
    def test_lift_zero_when_bias_equals_input(self):
        u = np.array([0.1, -0.2, 0.3])
        lam = stage1.lift(StageState(np.eye(3), u), u)
        np.testing.assert_allclose(lam.rot, np.zeros(3), atol=1e-15)

    def test_lift_zero_input(self):
        b = np.array([0.1, -0.2, 0.3])
        lam = stage1.lift(StageState(np.eye(3), b), np.zeros(3))
        np.testing.assert_allclose(lam.rot, -b, atol=1e-15)
        np.testing.assert_allclose(lam.vec, np.zeros(3), atol=1e-15)

    def test_lift_projects_to_system_flow(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = random_stage_state(rng, vec_scale=0.1)
            u = 0.2 * rng.normal(size=3)
            lam = stage1.lift(xi, u)
            flowed = fd_lift_flow(stage1.state_action, np.concatenate([lam.rot, lam.vec]), xi)
            np.testing.assert_allclose(flowed, f_sys(xi, u), atol=1e-6)

    def test_recover_examples(self):
        out = stage1.recover_state(GroupElement(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(out.rot, np.eye(3))
        np.testing.assert_array_equal(out.vec, np.zeros(3))
        a = np.array([0.3, -0.1, 0.2])
        out = stage1.recover_state(GroupElement(np.eye(3), a))
        np.testing.assert_allclose(out.vec, -a, atol=1e-15)

    def test_recover_equals_action_on_origin(self):
        rng = np.random.default_rng(5)
        x = random_group_element(rng)
        via_action = stage1.state_action(x, ORIGIN)
        via_recover = stage1.recover_state(x)
        np.testing.assert_array_equal(via_recover.rot, via_action.rot)
        np.testing.assert_array_equal(via_recover.vec, via_action.vec)


def _eps_flow_rate(x_hat: GroupElement, gyro: np.ndarray, eps: np.ndarray, dt: float) -> np.ndarray:
    """Local error rate from flowing truth and (correction-free) filter."""
    xi = state_from_error(eps, x_hat, stage1.recover_state)
    xi2 = StageState(xi.rot @ exp_so3((gyro - xi.vec) * dt), xi.vec)
    lam = stage1.lift(stage1.recover_state(x_hat), gyro)
    x2 = GroupElement(
        x_hat.rot @ exp_so3(lam.rot * dt), x_hat.vec + dt * (x_hat.rot @ lam.vec)
    )
    eps2 = local_error(xi2, x2).stacked()
    return (eps2 - eps) / dt


class TestLinearization:
    def test_a_matrix_trivial_blocks(self):
        a = stage1.a_matrix(GroupElement(np.eye(3), np.zeros(3)), np.zeros(3))
        np.testing.assert_array_equal(a[0:3, 3:6], -np.eye(3))
        np.testing.assert_array_equal(a[3:6, 3:6], np.zeros((3, 3)))
        a = stage1.a_matrix(GroupElement(np.eye(3), np.zeros(3)), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(a[3:6, 3:6], np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), atol=1e-15)

    def test_a_matrix_matches_error_flow_jacobian(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x_hat = random_group_element(rng, vec_scale=0.05)
            gyro = 0.2 * rng.normal(size=3)
            jac = fd_jacobian(lambda e: _eps_flow_rate(x_hat, gyro, e, dt=1e-5), 6, 6)
            np.testing.assert_allclose(jac, stage1.a_matrix(x_hat, gyro), atol=1e-5)

    def test_c_matrix_trivial_cases(self):
        basis = tuple(np.eye(3)[:, i] for i in range(3))
        c = stage1.c_matrix(basis, basis, np.eye(3))
        for i in range(3):
            np.testing.assert_allclose(
                c[3 * i : 3 * i + 3, 0:3],
                np.array([[0, -basis[i][2], basis[i][1]],
                          [basis[i][2], 0, -basis[i][0]],
                          [-basis[i][1], basis[i][0], 0]]),
                atol=1e-15,
            )
        np.testing.assert_array_equal(c[:, 3:6], np.zeros((9, 3)))
        opposite = tuple(-v for v in basis)
        np.testing.assert_array_equal(stage1.c_matrix(basis, opposite, np.eye(3)), np.zeros((9, 6)))

    def test_c_matrix_matches_residual_jacobian(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x_hat = random_group_element(rng, vec_scale=0.05)
            y_hat = stage1.output_map(stage1.recover_state(x_hat))

            def residual(eps):
                y = stage1.output_map(state_from_error(eps, x_hat, stage1.recover_state))
                return np.concatenate(y) - np.concatenate(y_hat)

            jac = fd_jacobian(residual, 6, 9)
            np.testing.assert_allclose(jac, stage1.c_matrix(y_hat, y_hat, x_hat.rot), atol=1e-5)


class TestPredict:
    def test_closed_form_flow_with_exact_bias(self):
        rng = np.random.default_rng(8)
        att0 = random_rotation(rng)
        bias = 0.02 * rng.normal(size=3)
        gyro = 0.05 * rng.normal(size=3) + bias
        est = FilterEstimate(GroupElement(att0, -(att0 @ bias)), np.eye(6))
        g = gains()
        for _ in range(100):
            est = stage1.predict(est, gyro, g, 0.01)
        recovered = stage1.recover_state(est.X)
        np.testing.assert_allclose(recovered.rot, att0 @ exp_so3(gyro - bias), atol=1e-6)
        # the exact-rotation / Euler-vector splitting drifts the recovered
        # bias by O(dt) per unit time, so only near-preservation holds
        np.testing.assert_allclose(recovered.vec, bias, atol=1e-5)

    def test_zero_lift_keeps_state(self):
        # gyro equal to the recovered bias freezes the group state
        rng = np.random.default_rng(9)
        x = random_group_element(rng, vec_scale=0.05)
        gyro = stage1.recover_state(x).vec
        est = FilterEstimate(x, np.eye(6))
        out = stage1.predict(est, gyro, gains(), 0.01)
        np.testing.assert_allclose(out.X.rot, x.rot, atol=1e-12)
        np.testing.assert_allclose(out.X.vec, x.vec, atol=1e-12)
        assert np.trace(out.Sigma) > np.trace(est.Sigma)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            stage1.predict(initial_estimate(gains()), np.zeros(3), gains(), 0.0)

    @pytest.mark.parametrize("lanes", [(), (8,)])
    def test_predict_is_the_kernel_on_the_lift_and_rate_bit_for_bit(self, lanes):
        # predict's step on bare arrays, which the stage pass takes every
        # tick, gives the kernel's predict on the model's lift and A-matrix
        # rate vector
        rng = np.random.default_rng(len(lanes))
        n, g = lanes[0] if lanes else 1, gains()
        for _ in range(5):
            rot = np.stack([random_rotation(rng) for _ in range(n)]).reshape(lanes + (3, 3))
            m = rng.normal(size=lanes + (6, 6))
            est = FilterEstimate(GroupElement(rot, rng.normal(size=lanes + (3,))), m @ m.mT + np.eye(6))
            gyro, dt = rng.normal(size=lanes + (3,)), rng.uniform(1e-3, 0.1)
            got = stage1.predict(est, gyro, g, dt)
            lam, w = stage1.lift(stage1.recover_state(est.X), gyro), stage1.a_rate(est.X.rot, est.X.vec, gyro)
            want = filter_base.predict_step(est.X.rot, est.X.vec, est.Sigma, lam.rot, lam.vec, wedge(w), g.M, dt)
            for a, b in zip((got.X.rot, got.X.vec, got.Sigma), want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_sigma_growth_rate(self):
        est = initial_estimate(gains())
        out = stage1.predict(est, np.zeros(3), gains(), 0.01)
        # at the identity estimate: Sigma + dt (A Sigma + Sigma A^T + M)
        a = stage1.a_matrix(est.X, np.zeros(3))
        expected = est.Sigma + 0.01 * (a @ est.Sigma + est.Sigma @ a.T + np.eye(6))
        np.testing.assert_allclose(out.Sigma, 0.5 * (expected + expected.T), atol=1e-14)


class TestUpdate:
    def test_zero_innovation_keeps_state_contracts_sigma(self):
        rng = np.random.default_rng(10)
        x = random_group_element(rng, vec_scale=0.05)
        est = FilterEstimate(x, np.eye(6))
        y = stage1.output_map(stage1.recover_state(x))
        out = stage1.update(est, y, gains(), 1.0)
        np.testing.assert_array_equal(out.X.rot, x.rot)
        np.testing.assert_array_equal(out.X.vec, x.vec)
        assert np.trace(out.Sigma) < np.trace(est.Sigma)

    def test_single_iteration_reduces_residual(self):
        rng = np.random.default_rng(11)
        truth = random_stage_state(rng, vec_scale=0.02)
        y = stage1.output_map(truth)
        x = GroupElement(truth.rot @ exp_so3(0.05 * random_unit_vector(rng)), -(truth.rot @ truth.vec))
        est = FilterEstimate(x, np.eye(6))

        def resid_norm(e):
            y_hat = stage1.output_map(stage1.recover_state(e.X))
            return np.linalg.norm(np.concatenate(y) - np.concatenate(y_hat))

        out = stage1.update(est, y, gains(iterations=1), 0.01)
        assert resid_norm(out) < resid_norm(est)

    def test_fixed_point_convergence_from_20_degrees(self):
        rng = np.random.default_rng(12)
        truth = StageState(random_rotation(rng), 0.02 * rng.normal(size=3))
        y = stage1.output_map(truth)
        att0 = truth.rot @ exp_so3(math.radians(20.0) * random_unit_vector(rng))
        est = FilterEstimate(GroupElement(att0, np.zeros(3)), np.eye(6))
        g = gains(iterations=1)
        for i in range(50):
            est = stage1.update(est, y, g, 0.05)
            if rotation_angle(stage1.recover_state(est.X).rot, truth.rot) < 1e-3:
                break
        assert rotation_angle(stage1.recover_state(est.X).rot, truth.rot) < 1e-3

    def test_dt_must_be_positive(self):
        est = initial_estimate(gains())
        y = stage1.output_map(stage1.recover_state(est.X))
        with pytest.raises(ValueError):
            stage1.update(est, y, gains(), 0.0)


def test_gains_reject_non_spd():
    with pytest.raises(ValueError, match="positive definite"):
        FilterGains(M=-np.eye(6), N=np.eye(9), Sigma0=np.eye(6))
    with pytest.raises(ValueError, match="update_iterations"):
        FilterGains(M=np.eye(6), N=np.eye(9), Sigma0=np.eye(6), update_iterations=0)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
def test_gains_reject_update_iterations_that_are_not_integers(n):
    # range() in the update would raise a TypeError at the first measurement
    with pytest.raises(ValueError, match="update_iterations must be an integer"):
        FilterGains.identity_scaled(9, update_iterations=n)


def test_gains_take_numpy_integer_update_iterations():
    assert FilterGains.identity_scaled(9, update_iterations=np.int64(3)).update_iterations == 3
