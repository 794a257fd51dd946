"""The EqF kernel shared by both filter stages: estimate/gain containers,
the state action and origin, the output model and A-matrix form, the
Riccati steps, and one predict (on estimates, or on bare arrays for the
stages' steps) and one update that take a stage's lift, A-matrix rate
vector and known directions as arguments.

Both stages keep a group element (attitude estimate plus a transported
3-vector) and a 6x6 Riccati matrix, act on their SO(3) x R^3 state
manifold in the same way, and measure known directions d as y = R^T d
(stage 1 the inertial basis, stage 2 the target reference directions).
Prediction integrates the lifted dynamics with the exponential map on the
rotation part and explicit Euler on the vector and Riccati parts.
Corrections are integrated over the measurement interval in
`update_iterations` equal sub-steps, re-linearizing at every sub-step.

The kernel takes one run's states, or R runs' as stacks with a leading lane
axis ((R, 3, 3), (R, 3), (R, 6, 6); inputs and measurements likewise), and
gives each lane the one-run result bit for bit. A single gain or vector,
and up to geom._SHORT_STACK gains, take a float path inside the same
functions, as exp_so3 does. LAPACK writes NaN over each lane whose solve or
Cholesky factorization fails, and update's NumericalFailure names those
lanes. Only update re-projects the attitude onto SO(3), once a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# np.linalg.solve's and np.linalg.cholesky's LAPACK gufuncs, private: a numpy that moves them fails this import
from numpy.linalg import _umath_linalg

from .geom import _SHORT_STACK, _WEDGE, AlgebraElement, GroupElement, StageState, _exp_so3_entries, cross3, exp_so3, identity_element, renormalize_rotation, wedge

ORIGIN = StageState(np.eye(3), np.zeros(3))
_EYE3 = np.eye(3)
# half the wedge map as a matrix, exactly: 0.5 wedge(x).ravel() == x @ _HALF_WEDGE
_HALF_WEDGE = 0.5 * _WEDGE


class NumericalFailure(Exception):
    """An update left the Riccati state not finite and positive definite in
    the lanes `lanes`, indices into the stack's lanes ([0] for one run's)."""

    def __init__(self, message: str, lanes: np.ndarray):
        super().__init__(message)
        self.lanes = lanes


@dataclass(frozen=True)
class FilterGains:
    """Constant tuning matrices: state gain M (6x6), output gain N
    (9x9 for stage 1, 6x6 for stage 2), initial Riccati state Sigma0 (6x6),
    and the number of correction sub-steps per measurement."""

    M: np.ndarray
    N: np.ndarray
    Sigma0: np.ndarray
    update_iterations: int = 20

    def __post_init__(self):
        if self.update_iterations < 1:
            raise ValueError("update_iterations must be >= 1")
        for name, mat in (("M", self.M), ("N", self.N), ("Sigma0", self.Sigma0)):
            if not _is_spd(np.asarray(mat)):
                raise ValueError(f"gain matrix {name} must be symmetric positive definite")

    @cached_property
    def n_inv(self) -> np.ndarray:
        """N^-1, derived once per gains object."""
        return np.linalg.inv(self.N)

    @classmethod
    def identity_scaled(
        cls,
        output_dim: int,
        state_gain: float = 1.0,
        output_gain: float = 0.1,
        sigma0: float = 1.0,
        update_iterations: int = 20,
    ) -> "FilterGains":
        return cls(
            M=state_gain * np.eye(6),
            N=output_gain * np.eye(output_dim),
            Sigma0=sigma0 * np.eye(6),
            update_iterations=update_iterations,
        )


@dataclass(frozen=True)
class FilterEstimate:
    """Group state estimate and its 6x6 Riccati matrix."""

    X: GroupElement
    Sigma: np.ndarray


def initial_estimate(gains: FilterGains) -> FilterEstimate:
    return FilterEstimate(identity_element(), np.array(gains.Sigma0, dtype=float))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.mT)


def _is_spd(m: np.ndarray) -> bool:
    if not np.isfinite(m).all() or np.abs(m - m.T).max() > 1e-9 * (1 + np.abs(m).max()):
        return False
    try:
        np.linalg.cholesky(symmetrize(m))
        return True
    except np.linalg.LinAlgError:
        return False


def require_spd(sigma: np.ndarray, where: str) -> None:
    """_is_spd's verdict, lane by lane, on an exactly symmetric sigma, which
    riccati_correct returns: its symmetry test passes and its symmetrize
    changes no bit, so only the finiteness test and the Cholesky
    factorization are left. LAPACK writes NaN over the factor of each lane
    it fails on; the lanes are told apart only when one has failed."""
    factor = _umath_linalg.cholesky_lo(sigma, signature="d->d")
    if np.isfinite(sigma).all() and np.isfinite(factor).all():
        return
    ok = np.isfinite(sigma).all(axis=(-2, -1)) & np.isfinite(factor).all(axis=(-2, -1))
    raise NumericalFailure(f"Riccati state not positive definite after {where}", np.flatnonzero(~ok))


def riccati_predict(sigma: np.ndarray, w_hat: np.ndarray, m: np.ndarray, dt: float) -> np.ndarray:
    """Euler step of the propagation part, Sigma + (A Sigma + Sigma A^T + M) dt,
    for A = a_matrix(w), given its block w_hat = wedge(w).

    A Sigma is built by blocks, [-Sigma[3:]; w_hat Sigma[3:]], in one
    buffer, and the sum X + X^T + M is exactly symmetric when Sigma and M are.
    """
    lower, a_sigma = sigma[..., 3:, :], np.empty_like(sigma)
    np.negative(lower, out=a_sigma[..., :3, :])
    np.matmul(w_hat, lower, out=a_sigma[..., 3:, :])
    return sigma + dt * (a_sigma + a_sigma.mT + m)


def riccati_correct(sigma: np.ndarray, info: np.ndarray, tau: float) -> np.ndarray:
    """Contraction sub-step of the Riccati flow with the measurement held.

    Integrates d(Sigma)/dt = -Sigma C^T N^-1 C Sigma exactly over tau (C
    frozen), i.e. Sigma <- Sigma - Sigma C^T (N/tau + C Sigma C^T)^-1 C Sigma.
    Agrees with the Euler decrement to O(tau^2) but cannot overshoot, so
    Sigma stays positive definite for any sub-step length.

    C is non-zero only in its attitude columns, so only the 3x3 information
    matrix info = Ca^T N^-1 Ca of the attitude block Ca enters, and by the
    push-through identity the update is
    Sigma[:, :3] (I + tau info Sigma[:3, :3])^-1 tau info Sigma[:3, :].

    A singular system leaves its lane NaN and no other lane changed. For a
    positive definite S = Sigma[:3, :3] and the positive semidefinite info,
    I + tau info S is similar to I + tau S^1/2 info S^1/2, whose eigenvalues
    are all >= 1: a singular system means Sigma had already lost positive
    definiteness, and require_spd rejects that lane in the same update.
    """
    left = sigma[..., :3]
    tau_info = tau * info
    k = _umath_linalg.solve(_EYE3 + tau_info @ left[..., :3, :], tau_info, signature="dd->d")
    # the result is exactly symmetric, which require_spd relies on
    return symmetrize(sigma - left @ k @ sigma[..., :3, :])


def apply_correction(x: GroupElement, gain: np.ndarray, tau: float) -> GroupElement:
    """Integrate the left correction (Delta X, Delta x.vec + s) over tau.

    The state-action differential at the origin sends an algebra element
    (w, s) to the tangent vector (w, -s), so the tangent-space gain is the
    algebra element Delta = (w, s) = (gain[:3], -gain[3:]).

    The vector part, x.vec + tau * (cross3(gain[:3], x.vec) - gain[3:]), row
    by row for (R, 6) gains, is formed from floats lane by lane in that order
    for up to _SHORT_STACK gains; float64 array operations round alike.
    """
    if gain.size > 6 * _SHORT_STACK:
        w = gain[..., :3]
        return GroupElement(exp_so3(w * tau) @ x.rot, x.vec + tau * (cross3(w, x.vec) - gain[..., 3:]))
    single = gain.ndim == 1
    lanes = ((gain.tolist(), x.vec.tolist()),) if single else zip(gain.tolist(), x.vec.tolist())
    rot, vec = [], []
    for (w0, w1, w2, s0, s1, s2), (v0, v1, v2) in lanes:
        rot += _exp_so3_entries(w0 * tau, w1 * tau, w2 * tau)
        vec += (
            v0 + tau * ((w1 * v2 - w2 * v1) - s0),
            v1 + tau * ((w2 * v0 - w0 * v2) - s1),
            v2 + tau * ((w0 * v1 - w1 * v0) - s2),
        )
    vec = np.array(vec)  # a single gain's vector needs no reshape
    return GroupElement(np.array(rot).reshape(x.rot.shape) @ x.rot, vec if single else vec.reshape(x.vec.shape))


def state_action(g: GroupElement, xi: StageState) -> StageState:
    """Right action of the group on a stage's state manifold:
    (R, x) -> (R A, A^T (x - a)) for g = (A, a)."""
    return StageState(xi.rot @ g.rot, np.matvec(g.rot.mT, xi.vec - g.vec))


def recover_state(x: GroupElement) -> StageState:
    """Manifold estimate: the group state acting on the origin,
    state_action(x, ORIGIN). The origin's attitude is I, so the attitude is
    x.rot itself; single states and (n, 3, 3)/(n, 3) stacks alike."""
    return StageState(x.rot, np.matvec(x.rot.mT, ORIGIN.vec - x.vec))


def output_map(xi: StageState, dirs: np.ndarray) -> np.ndarray:
    """Known-direction output model y_i = R^T d_i, row i of (k, 3) dirs @ R."""
    return dirs @ xi.rot


def output_action(g: GroupElement, y: np.ndarray) -> np.ndarray:
    """Right action of the group on the outputs, y_i -> A^T y_i, row-wise."""
    return y @ g.rot


def a_matrix(w: np.ndarray) -> np.ndarray:
    """Linearized error-flow matrix at zero error, [[0, -I], [0, wedge(w)]]."""
    a = np.zeros((6, 6))
    a[0:3, 3:6] = -np.eye(3)
    a[3:6, 3:6] = wedge(w)
    return a


def c_block(y: np.ndarray, y_hat: np.ndarray, rot_hat: np.ndarray) -> np.ndarray:
    """Attitude block of the output matrix, 3k x 3, for k measured and
    predicted directions given as the rows of y and y_hat: block i is
    0.5 wedge(y_i + y_hat_i) rot_hat^T."""
    # row i of the (k, 9) product is 0.5 wedge(y_i + y_hat_i), row-major
    half = np.add(y, y_hat) @ _HALF_WEDGE
    return half.reshape(half.shape[:-2] + (-1, 3)) @ rot_hat.mT


def c_matrix(y, y_hat, rot_hat: np.ndarray) -> np.ndarray:
    """Linearized output matrix for k measured directions, 3k x 6; only
    the attitude block (c_block) is non-zero."""
    c = np.zeros((3 * len(y), 6))
    c[:, 0:3] = c_block(y, y_hat, rot_hat)
    return c


def predict(est: FilterEstimate, lam: AlgebraElement, w: np.ndarray, gains: FilterGains, dt: float) -> FilterEstimate:
    """Propagate the group state along the lift lam and the Riccati state
    with the error-flow matrix a_matrix(w), both by Euler; a lift whose vector
    part is None leaves the group's vector part unchanged. Attitude drift past
    ORTHO_TOL is projected at the next update, not here (renormalize_rotation)."""
    rot, vec, sigma = predict_arrays(est.X.rot, est.X.vec, est.Sigma, lam.rot, lam.vec, wedge(w), gains.M, dt)
    return FilterEstimate(GroupElement(rot, vec), sigma)


def predict_arrays(rot, vec, sigma, lam_rot, lam_vec, w_hat, m, dt):
    """predict on the bare states (rot, vec, sigma), given w_hat = wedge(w) and M; vec stays for a lam_vec of None."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    vec = vec if lam_vec is None else vec + dt * np.matvec(rot, lam_vec)
    return rot @ exp_so3(dt * lam_rot), vec, riccati_predict(sigma, w_hat, m, dt)


def update(est: FilterEstimate, y, dirs, gains: FilterGains, dt_update: float, where: str) -> FilterEstimate:
    """Apply one measurement y of the directions dirs ((k, 3) rows), iterated over the update interval.

    The correction is integrated in update_iterations equal sub-steps tau
    with the measurement held fixed; the predicted directions, the output
    matrix and the Riccati contraction are recomputed at every sub-step.
    Only the attitude block Ca of the output matrix is non-zero, so the
    gain is Sigma[:, :3] Ca^T N^-1 r for the residual r and the
    contraction needs the 3x3 information Ca^T N^-1 Ca alone. `where`
    names the stage in the error raised, for the lanes whose Riccati state
    is not finite and positive definite after the last sub-step.
    """
    if dt_update <= 0:
        raise ValueError("dt_update must be positive")
    tau = dt_update / gains.update_iterations
    x, sigma = est.X, est.Sigma
    y, dirs = np.asarray(y), np.asarray(dirs)
    n_inv, residual = gains.n_inv, y.shape[:-2] + (-1,)  # the residual's shape: one row per lane
    # a failed LAPACK call's NaN, and what it reaches, stays in its lane
    with np.errstate(invalid="ignore"):
        for _ in range(gains.update_iterations):
            # the state estimate recover_state(x) has the attitude x.rot
            y_hat = output_map(x, dirs)
            ca = c_block(y, y_hat, x.rot)
            ca_t_ninv = ca.mT @ n_inv
            gain = np.matvec(sigma[..., :3], np.matvec(ca_t_ninv, (y - y_hat).reshape(residual)))
            x = apply_correction(x, gain, tau)
            sigma = riccati_correct(sigma, ca_t_ninv @ ca, tau)
        require_spd(sigma, where)
    return FilterEstimate(GroupElement(renormalize_rotation(x.rot), x.vec), sigma)
