"""First filter stage: chaser attitude and gyro bias from gyro + star tracker.

The state manifold is SO(3) x R^3 with points (attitude, bias). The group
element (A, a) acts on the right by

    state:  (R, b)  ->  (R A, A^T (b - a))
    input:  ubar    ->  A^T (ubar - a)
    output: y_i     ->  A^T y_i

which makes the biased-gyro attitude kinematics equivariant. The filter
lives on the group; the manifold estimate is the action of the group state
on the origin (I, 0), i.e. attitude A_hat and bias -A_hat^T a_hat.
"""

from __future__ import annotations

import numpy as np

from . import filter_base
# the shared state action, output action and output matrix are part of this stage's model
from .filter_base import ORIGIN, FilterEstimate, FilterGains, c_matrix, output_action, recover_state, state_action  # noqa: F401
from .geom import AlgebraElement, GroupElement, StageState, cross3, wedge
from .models import STAR_DIRS


def input_action(g: GroupElement, gyro: np.ndarray) -> np.ndarray:
    return g.rot.T @ (gyro - g.vec)


def lift(xi: StageState, gyro: np.ndarray) -> AlgebraElement:
    """Algebra element whose group flow projects to the state flow."""
    return AlgebraElement(gyro - xi.vec, cross3(xi.vec, gyro))


def output_map(xi: StageState) -> np.ndarray:
    """Star-tracker model: the inertial basis directions in body coordinates, (3, 3)."""
    return filter_base.output_map(xi, STAR_DIRS)


def a_rate(rot: np.ndarray, vec: np.ndarray, gyro: np.ndarray) -> np.ndarray:
    """Rate vector w = rot gyro + vec of the error-flow matrix at the group state (rot, vec); row by row for stacks."""
    return np.matvec(rot, gyro) + vec


def a_matrix(x: GroupElement, gyro: np.ndarray) -> np.ndarray:
    """Linearized error-flow matrix at zero error, filter_base.a_matrix(a_rate(x.rot, x.vec, gyro))."""
    return filter_base.a_matrix(a_rate(x.rot, x.vec, gyro))


def predict(est: FilterEstimate, gyro: np.ndarray, gains: FilterGains, dt: float) -> FilterEstimate:
    """Propagate the group state along the lift and the Riccati state by Euler (predict_step)."""
    rot, vec, sigma = predict_step(est.X.rot, est.X.vec, est.Sigma, gyro, gains.M, dt)
    return FilterEstimate(GroupElement(rot, vec), sigma)


def predict_constants(vec) -> tuple:
    """predict_step's arguments after dt that hold while X.vec does: none."""
    return ()


def predict_step(rot, vec, sigma, gyro, m, dt):
    """predict on the bare states (rot, vec, sigma), given the state gain M; the lift is
    lift(recover_state(X), gyro), recover_state's bias being X.rot^T (ORIGIN.vec - X.vec)."""
    bias = np.matvec(rot.mT, ORIGIN.vec - vec)
    return filter_base.predict_arrays(rot, vec, sigma, gyro - bias, cross3(bias, gyro), wedge(a_rate(rot, vec, gyro)), m, dt)


def update(est: FilterEstimate, y: np.ndarray, gains: FilterGains, dt_update: float) -> FilterEstimate:
    """Apply one star-tracker measurement, iterated over the update interval."""
    return filter_base.update(est, y, STAR_DIRS, gains, dt_update, "stage-1 update")


def update_step(rot, vec, sigma, y, gains, dt_update):
    """update on the bare states (rot, vec, sigma) and the measurement array y."""
    return filter_base.update_arrays(rot, vec, sigma, y, STAR_DIRS, gains, dt_update, "stage-1 update")
