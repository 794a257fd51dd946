"""Second filter stage: relative attitude and target angular velocity from
the (bias-corrected) chaser rate and two body-fixed feature directions.

The state manifold is SO(3) x R^3 with points (relative attitude, target
rate in the chaser frame). Equivariance of the rate dynamics needs two
virtual inputs v and w alongside the physical input u. Only the tests use
them off zero, through ExtendedInput, input_action and lift, to exercise
the symmetry; predict runs the physical system. The group element (Q, q)
acts on the right by

    state:  (R, omega)  ->  (R Q, Q^T (omega - q))
    input:  (u, v, w)   ->  (Q^T u, Q^T (v - q), Q^T (w + q))
    output: y_i         ->  Q^T y_i

With (v, w) the extended dynamics are

    R_dot     = R (u - omega + v)^
    omega_dot = omega x u - u x w

which restrict to the physical system at v = w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import filter_base
# the shared state action, output action and output matrix are part of this stage's model
from .filter_base import FilterEstimate, FilterGains, c_matrix, output_action, recover_state, state_action  # noqa: F401
from .geom import AlgebraElement, GroupElement, StageState, cross3, wedge


@dataclass(frozen=True)
class ExtendedInput:
    """Physical rate input plus the two virtual inputs (zero by default)."""

    u: np.ndarray
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    w: np.ndarray = field(default_factory=lambda: np.zeros(3))


def input_action(g: GroupElement, inp: ExtendedInput) -> ExtendedInput:
    qt = g.rot.T
    return ExtendedInput(qt @ inp.u, qt @ (inp.v - g.vec), qt @ (inp.w + g.vec))


def lift(xi: StageState, inp: ExtendedInput) -> AlgebraElement:
    """(u - omega + v, u x w + omega x v)."""
    return AlgebraElement(inp.u - xi.vec + inp.v, cross3(inp.u, inp.w) + cross3(xi.vec, inp.v))


def output_map(xi: StageState, ref_dirs: np.ndarray) -> np.ndarray:
    """Feature model: the target-fixed reference directions (rows) in body coordinates."""
    return filter_base.output_map(xi, ref_dirs)


def a_matrix(x: GroupElement) -> np.ndarray:
    """Linearized error-flow matrix at zero error, with w = X.vec."""
    return filter_base.a_matrix(x.vec)


def predict(est: FilterEstimate, rate: np.ndarray, gains: FilterGains, dt: float) -> FilterEstimate:
    """Propagate with the physical input: the lift at v = w = 0 is
    (u - omega, 0), handed to the kernel as (u - omega, None), which leaves
    X.vec as it is. The error-flow matrix is a_matrix(est.X), passed as its
    block wedge(X.vec). One predict_step."""
    vec = est.X.vec
    rot, _, sigma = predict_step(est.X.rot, vec, est.Sigma, rate, gains.M, dt, *predict_constants(vec))
    return FilterEstimate(GroupElement(rot, vec), sigma)


def predict_constants(vec) -> tuple:
    """predict_step's arguments after dt, which hold while X.vec does: 0.0 - X.vec, recover_state's
    ORIGIN.vec - X.vec (-X.vec would turn a +0.0 into -0.0), and wedge(X.vec)."""
    return 0.0 - vec, wedge(vec)


def predict_step(rot, vec, sigma, rate, m, dt, neg_vec, w_hat):
    """predict on the bare states (rot, vec, sigma), given the state gain M and
    predict_constants(vec); the returned vec is vec."""
    return filter_base.predict_arrays(rot, vec, sigma, rate - np.matvec(rot.mT, neg_vec), None, w_hat, m, dt)


def update(
    est: FilterEstimate,
    y: np.ndarray,
    ref_dirs: np.ndarray,
    gains: FilterGains,
    dt_update: float,
) -> FilterEstimate:
    """Apply one feature measurement, iterated over the update interval."""
    return filter_base.update(est, y, ref_dirs, gains, dt_update, "stage-2 update")


def update_step(rot, vec, sigma, y, ref_dirs, gains, dt_update):
    """update on the bare states (rot, vec, sigma) and the arrays y and ref_dirs."""
    return filter_base.update_arrays(rot, vec, sigma, y, ref_dirs, gains, dt_update, "stage-2 update")
