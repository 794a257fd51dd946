import math

import numpy as np
import pytest

from eqfcascade import filter_base, stage2
from eqfcascade.cascade import local_error
from eqfcascade.filter_base import ORIGIN, FilterEstimate, FilterGains, NumericalFailure, initial_estimate
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
from eqfcascade.models import TruthWorld, propagate_truth, relative_state
from oracles import (
    fd_jacobian,
    fd_lift_flow,
    fd_pushforward,
    random_group_element,
    random_stage_state,
    state_from_error,
)

REF_DIRS = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def f_sys(xi: StageState, inp: stage2.ExtendedInput) -> np.ndarray:
    """Extended relative-motion dynamics in body coordinates.

    Restricting v = w = 0 gives the physical system: the attitude rate is
    u - omega and the angular-velocity rate is omega x u.
    """
    rot_rate = inp.u - xi.vec + inp.v
    vec_rate = np.cross(xi.vec, inp.u) - np.cross(inp.u, inp.w)
    return np.concatenate([rot_rate, vec_rate])


def random_input(rng, virtual=False):
    scale = 0.2
    return stage2.ExtendedInput(
        scale * rng.normal(size=3),
        scale * rng.normal(size=3) if virtual else np.zeros(3),
        scale * rng.normal(size=3) if virtual else np.zeros(3),
    )


def gains(iterations=20):
    return FilterGains.identity_scaled(6, update_iterations=iterations)


class TestActions:
    def test_state_action_identity(self):
        rng = np.random.default_rng(0)
        xi = random_stage_state(rng)
        out = stage2.state_action(GroupElement(np.eye(3), np.zeros(3)), xi)
        np.testing.assert_allclose(out.rot, xi.rot, atol=1e-15)
        np.testing.assert_allclose(out.vec, xi.vec, atol=1e-15)

    def test_state_action_translation(self):
        g = GroupElement(np.eye(3), np.array([0.1, -0.1, 0.2]))
        xi = StageState(np.eye(3), np.array([0.3, 0.3, 0.3]))
        np.testing.assert_allclose(stage2.state_action(g, xi).vec, xi.vec - g.vec, atol=1e-15)

    def test_input_action_identity_and_translation(self):
        inp = stage2.ExtendedInput(np.array([1.0, 2.0, 3.0]))
        out = stage2.input_action(GroupElement(np.eye(3), np.zeros(3)), inp)
        np.testing.assert_array_equal(out.u, inp.u)
        np.testing.assert_array_equal(out.v, np.zeros(3))
        np.testing.assert_array_equal(out.w, np.zeros(3))
        q = np.array([0.1, 0.2, 0.3])
        out = stage2.input_action(GroupElement(np.eye(3), q), inp)
        np.testing.assert_allclose(out.u, inp.u, atol=1e-15)
        np.testing.assert_allclose(out.v, -q, atol=1e-15)
        np.testing.assert_allclose(out.w, q, atol=1e-15)

    def test_action_compatibility_with_virtual_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g1, g2 = random_group_element(rng), random_group_element(rng)
            xi = random_stage_state(rng)
            via_two = stage2.state_action(g2, stage2.state_action(g1, xi))
            via_one = stage2.state_action(group_compose(g1, g2), xi)
            np.testing.assert_allclose(via_two.rot, via_one.rot, atol=1e-12)
            np.testing.assert_allclose(via_two.vec, via_one.vec, atol=1e-12)
            inp = random_input(rng, virtual=True)
            two = stage2.input_action(g2, stage2.input_action(g1, inp))
            one = stage2.input_action(group_compose(g1, g2), inp)
            for a, b in zip((two.u, two.v, two.w), (one.u, one.v, one.w)):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_action_and_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_group_element(rng)
            xi = random_stage_state(rng)
            lhs = stage2.output_map(stage2.state_action(g, xi), REF_DIRS)
            rhs = stage2.output_action(g, stage2.output_map(xi, REF_DIRS))
            for a, b in zip(lhs, rhs):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_system_equivariance_including_virtual_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_group_element(rng, vec_scale=0.1)
            xi = random_stage_state(rng, vec_scale=0.1)
            inp = random_input(rng, virtual=True)
            pushed = fd_pushforward(stage2.state_action, g, xi, f_sys(xi, inp))
            direct = f_sys(stage2.state_action(g, xi), stage2.input_action(g, inp))
            np.testing.assert_allclose(pushed, direct, atol=1e-6)


class TestLift:
    def test_zero_when_input_matches_rate(self):
        u = np.array([0.1, -0.2, 0.3])
        lam = stage2.lift(StageState(np.eye(3), u), stage2.ExtendedInput(u))
        np.testing.assert_allclose(lam.rot, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(lam.vec, np.zeros(3), atol=1e-15)

    def test_zero_virtual_inputs(self):
        u = np.array([0.2, 0.0, -0.1])
        omega = np.array([0.05, 0.05, 0.0])
        lam = stage2.lift(StageState(np.eye(3), omega), stage2.ExtendedInput(u))
        np.testing.assert_allclose(lam.rot, u - omega, atol=1e-15)
        np.testing.assert_allclose(lam.vec, np.zeros(3), atol=1e-15)

    def test_lift_projects_to_system_flow(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = random_stage_state(rng, vec_scale=0.1)
            inp = random_input(rng, virtual=True)
            lam = stage2.lift(xi, inp)
            flowed = fd_lift_flow(stage2.state_action, np.concatenate([lam.rot, lam.vec]), xi)
            np.testing.assert_allclose(flowed, f_sys(xi, inp), atol=1e-6)

    def test_recover_examples(self):
        np.testing.assert_array_equal(
            stage2.recover_state(GroupElement(np.eye(3), np.zeros(3))).vec, np.zeros(3)
        )
        q = np.array([0.1, 0.2, -0.3])
        np.testing.assert_allclose(
            stage2.recover_state(GroupElement(np.eye(3), q)).vec, -q, atol=1e-15
        )
        rng = np.random.default_rng(5)
        x = random_group_element(rng)
        via_action = stage2.state_action(x, ORIGIN)
        via_recover = stage2.recover_state(x)
        np.testing.assert_array_equal(via_recover.rot, via_action.rot)
        np.testing.assert_array_equal(via_recover.vec, via_action.vec)


def _eps_flow_rate(x_hat, inp_u, eps, dt):
    xi = state_from_error(eps, x_hat, stage2.recover_state)
    # exact relative-motion flow via the truth propagator
    world = TruthWorld(
        att_target=np.eye(3),
        att_chaser=xi.rot,
        omega_target=xi.rot @ xi.vec,
        omega_chaser=inp_u,
        gyro_bias=np.zeros(3),
        ref_dirs=REF_DIRS,
    )
    xi2 = relative_state(propagate_truth(world, dt))
    lam = stage2.lift(stage2.recover_state(x_hat), stage2.ExtendedInput(inp_u))
    x2 = GroupElement(x_hat.rot @ exp_so3(lam.rot * dt), x_hat.vec + dt * (x_hat.rot @ lam.vec))
    eps2 = local_error(xi2, x2).stacked()
    return (eps2 - eps) / dt


class TestLinearization:
    def test_a_matrix_trivial(self):
        a = stage2.a_matrix(GroupElement(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(a[0:3, 3:6], -np.eye(3))
        np.testing.assert_array_equal(a[3:6, 3:6], np.zeros((3, 3)))
        a = stage2.a_matrix(GroupElement(np.eye(3), np.array([0.0, 0.0, 1.0])))
        np.testing.assert_allclose(a[3:6, 3:6], np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), atol=1e-15)

    def test_a_matrix_matches_error_flow_jacobian(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x_hat = random_group_element(rng, vec_scale=0.05)
            u = 0.2 * rng.normal(size=3)
            jac = fd_jacobian(lambda e: _eps_flow_rate(x_hat, u, e, dt=1e-5), 6, 6)
            np.testing.assert_allclose(jac, stage2.a_matrix(x_hat), atol=1e-5)

    def test_c_matrix_trivial(self):
        y = REF_DIRS
        c = stage2.c_matrix(y, y, np.eye(3))
        for i in range(2):
            v = y[i]
            np.testing.assert_allclose(
                c[3 * i : 3 * i + 3, 0:3],
                np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]]),
                atol=1e-15,
            )
        np.testing.assert_array_equal(c[:, 3:6], np.zeros((6, 3)))
        opposite = tuple(-v for v in y)
        np.testing.assert_array_equal(stage2.c_matrix(y, opposite, np.eye(3)), np.zeros((6, 6)))

    def test_c_matrix_matches_residual_jacobian(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x_hat = random_group_element(rng, vec_scale=0.05)
            y_hat = stage2.output_map(stage2.recover_state(x_hat), REF_DIRS)

            def residual(eps):
                xi = state_from_error(eps, x_hat, stage2.recover_state)
                y = stage2.output_map(xi, REF_DIRS)
                return np.concatenate(y) - np.concatenate(y_hat)

            jac = fd_jacobian(residual, 6, 6)
            np.testing.assert_allclose(jac, stage2.c_matrix(y_hat, y_hat, x_hat.rot), atol=1e-5)


class TestPredict:
    def test_zero_rotation_lift_when_input_matches_rate(self):
        rng = np.random.default_rng(8)
        x = random_group_element(rng, vec_scale=0.05)
        u = stage2.recover_state(x).vec
        out = stage2.predict(FilterEstimate(x, np.eye(6)), u, gains(), 0.01)
        np.testing.assert_allclose(out.X.rot, x.rot, atol=1e-12)
        np.testing.assert_allclose(out.X.vec, x.vec, atol=1e-12)

    def test_tracks_truth_flow_from_exact_initialization(self):
        # the one-evaluation-per-step exponential splitting has an O(dt)
        # floor scaling with |omega x u|; 1e-5 over 1 s needs rates below
        # roughly 1.5 deg/s at the 100 Hz prediction rate
        rng = np.random.default_rng(9)
        world = TruthWorld(
            att_target=random_rotation(rng),
            att_chaser=random_rotation(rng),
            omega_target=0.015 * rng.normal(size=3),
            omega_chaser=0.015 * rng.normal(size=3),
            gyro_bias=np.zeros(3),
            ref_dirs=REF_DIRS,
        )
        rel = relative_state(world)
        est = FilterEstimate(GroupElement(rel.rot, -(rel.rot @ rel.vec)), np.eye(6))
        g = gains()
        for _ in range(100):
            est = stage2.predict(est, world.omega_chaser, g, 0.01)
        world_end = propagate_truth(world, 1.0)
        rel_end = relative_state(world_end)
        recovered = stage2.recover_state(est.X)
        assert rotation_angle(recovered.rot, rel_end.rot) < 1e-5
        np.testing.assert_allclose(recovered.vec, rel_end.vec, atol=1e-5)

    @pytest.mark.parametrize("lanes", [(), (8,)])
    def test_production_predict_equals_the_general_lift_bit_for_bit(self, lanes):
        # predict hands the kernel no vector part for the zero virtual inputs;
        # the general lift at the default inputs and on explicit zero arrays
        # must give the same bits, from the initial estimate and from random ones
        rng = np.random.default_rng(len(lanes))
        n, g = lanes[0] if lanes else 1, gains()
        origin = GroupElement(np.zeros(lanes + (3, 3)) + np.eye(3), np.zeros(lanes + (3,)))  # initial_estimate's
        estimates = [FilterEstimate(origin, np.zeros(lanes + (6, 6)) + g.Sigma0)]
        for _ in range(5):
            rot = np.stack([random_rotation(rng) for _ in range(n)]).reshape(lanes + (3, 3))
            m = rng.normal(size=lanes + (6, 6))
            estimates.append(FilterEstimate(GroupElement(rot, rng.normal(size=lanes + (3,))), m @ m.mT + np.eye(6)))
        zeros = np.zeros(lanes + (3,))
        for est in estimates:
            rate, dt = rng.normal(size=lanes + (3,)), rng.uniform(1e-3, 0.1)
            got = stage2.predict(est, rate, g, dt)
            for inp in (stage2.ExtendedInput(rate), stage2.ExtendedInput(rate, zeros, zeros)):
                lam = stage2.lift(stage2.recover_state(est.X), inp)
                want = filter_base.predict_step(est.X.rot, est.X.vec, est.Sigma, lam.rot, lam.vec, wedge(est.X.vec), g.M, dt)
                for a, b in zip((got.X.rot, got.X.vec, got.Sigma), want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            stage2.predict(initial_estimate(gains()), np.zeros(3), gains(), -0.1)


class TestUpdate:
    def test_zero_innovation_keeps_state_contracts_sigma(self):
        rng = np.random.default_rng(10)
        x = random_group_element(rng, vec_scale=0.05)
        est = FilterEstimate(x, np.eye(6))
        y = stage2.output_map(stage2.recover_state(x), REF_DIRS)
        out = stage2.update(est, y, REF_DIRS, gains(), 0.1)
        np.testing.assert_array_equal(out.X.rot, x.rot)
        np.testing.assert_array_equal(out.X.vec, x.vec)
        assert np.trace(out.Sigma) < np.trace(est.Sigma)

    def test_antipodal_output_changes_nothing(self):
        # y = -y_hat zeroes the output matrix, so neither the state nor the
        # Riccati matrix moves
        rng = np.random.default_rng(11)
        x = random_group_element(rng, vec_scale=0.05)
        est = FilterEstimate(x, np.eye(6))
        y_hat = stage2.output_map(stage2.recover_state(x), REF_DIRS)
        y = tuple(-v for v in y_hat)
        out = stage2.update(est, y, REF_DIRS, gains(), 0.1)
        np.testing.assert_array_equal(out.X.rot, x.rot)
        np.testing.assert_array_equal(out.X.vec, x.vec)
        np.testing.assert_allclose(out.Sigma, est.Sigma, atol=1e-15)

    @pytest.mark.parametrize("entry", [(0, 0), (4, 4)])
    def test_non_finite_riccati_state_fails_naming_the_stage(self, entry):
        rng = np.random.default_rng(13)
        x = random_group_element(rng, vec_scale=0.05)
        sigma = np.eye(6)
        sigma[entry] = np.inf
        y = stage2.output_map(random_stage_state(rng), REF_DIRS)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericalFailure, match="stage-2"):
            stage2.update(FilterEstimate(x, sigma), y, REF_DIRS, gains(), 0.1)

    def test_fixed_point_convergence_from_20_degrees(self):
        rng = np.random.default_rng(12)
        truth = StageState(random_rotation(rng), np.zeros(3))
        y = stage2.output_map(truth, REF_DIRS)
        att0 = truth.rot @ exp_so3(math.radians(20.0) * random_unit_vector(rng))
        est = FilterEstimate(GroupElement(att0, np.zeros(3)), np.eye(6))
        g = gains()
        for _ in range(50):
            est = stage2.update(est, y, REF_DIRS, g, 1.0)
            if rotation_angle(stage2.recover_state(est.X).rot, truth.rot) < 1e-3:
                break
        assert rotation_angle(stage2.recover_state(est.X).rot, truth.rot) < 1e-3
