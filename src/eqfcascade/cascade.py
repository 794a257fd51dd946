"""Wiring of the two filter stages plus the truth-referenced error maps.

The cascade is one-way: `step` advances each stage by one tick (predict,
then its iterated update when a measurement is due), and stage 2 reads
stage 1 only through the bias estimate after stage 1's tick, subtracted
from the gyro for its rate input. It is the per-tick reference that the
harness's stage passes reproduce bit for bit.
Truth is only ever read by the error maps, never by the estimation path;
they take one state or a whole run's stacked states, as the harness
diagnostics do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# np.linalg.solve's LAPACK gufunc, as filter_base calls it
from numpy.linalg import _umath_linalg

from . import stage1, stage2
from .filter_base import FilterEstimate, FilterGains, initial_estimate, recover_state
from .geom import (
    AlgebraElement,
    cross3,
    GroupElement,
    StageState,
    group_compose,
    group_inverse,
    log_so3,
)
from .models import MeasurementBundle


@dataclass(frozen=True)
class CascadeState:
    s1: FilterEstimate
    s2: FilterEstimate
    t: float


@dataclass(frozen=True)
class ErrorVector:
    """State error in local coordinates at the origin: rotation part in
    radians, vector part in rad/s. The fields and `stacked()` also hold
    (n, 3) stacks."""

    rot: np.ndarray
    vec: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.rot, self.vec], axis=-1)


def initial_state(gains1: FilterGains, gains2: FilterGains) -> CascadeState:
    return CascadeState(initial_estimate(gains1), initial_estimate(gains2), 0.0)


def step(
    cs: CascadeState,
    bundle: MeasurementBundle,
    gains1: FilterGains,
    gains2: FilterGains,
    ref_dirs: np.ndarray,
    star_period: float,
    feature_period: float,
    subtract_bias: bool = True,
) -> CascadeState:
    """Process one measurement bundle and advance the cascade to bundle.t."""
    if bundle.t < cs.t:
        raise ValueError(f"non-monotone timestamp: {bundle.t} < {cs.t}")
    dt = bundle.t - cs.t
    s1 = stage1.predict(cs.s1, bundle.gyro, gains1, dt) if dt > 0 else cs.s1
    s1 = s1 if bundle.star is None else stage1.update(s1, bundle.star, gains1, star_period)
    rate = bundle.gyro - recover_state(s1.X).vec if subtract_bias else bundle.gyro
    s2 = stage2.predict(cs.s2, rate, gains2, dt) if dt > 0 else cs.s2
    s2 = s2 if bundle.features is None else stage2.update(s2, bundle.features, ref_dirs, gains2, feature_period)
    return CascadeState(s1, s2, bundle.t)


def _group_element_of(state: StageState) -> GroupElement:
    # the unique group element mapping the origin to the given manifold point
    return GroupElement(state.rot, -np.matvec(state.rot, state.vec))


def group_error(state_true: StageState, x_hat: GroupElement) -> GroupElement:
    """Error on the group, X_true composed with the inverse estimate."""
    return group_compose(_group_element_of(state_true), group_inverse(x_hat))


def local_error_of(e: GroupElement) -> ErrorVector:
    """Local coordinates of a group error: rotation log of the manifold
    error and its vector part."""
    return ErrorVector(log_so3(e.rot), -np.matvec(e.rot.mT, e.vec))


def local_error(state_true: StageState, x_hat: GroupElement) -> ErrorVector:
    return local_error_of(group_error(state_true, x_hat))


def gamma_term(
    att1_hat: np.ndarray,
    att2_hat: np.ndarray,
    vec2_hat: np.ndarray,
    bias_error: np.ndarray,
) -> AlgebraElement:
    """Perturbation injected into the stage-2 error flow by residual
    stage-1 bias error; vanishes with the bias error."""
    carried = att2_hat @ (att1_hat.T @ bias_error)
    return AlgebraElement(carried, cross3(vec2_hat, carried))


def lyapunov_value(eps: ErrorVector, sigma: np.ndarray) -> float | np.ndarray:
    """Quadratic error measure weighted by the inverse Riccati state; one
    value per row for stacked errors and Riccati states, NaN on each row
    whose Riccati state is singular (LAPACK writes NaN there)."""
    e = eps.stacked()
    with np.errstate(invalid="ignore"):
        x = _umath_linalg.solve(sigma, e[..., None], signature="dd->d")[..., 0]
    return np.vecdot(e, x)
