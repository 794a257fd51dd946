"""SO(3)/SE(3) primitives shared by the whole filter stack.

Rotations are plain 3x3 numpy arrays and 3-vectors are shape-(3,) arrays.
The symmetry group is SE(3) used abstractly as (rotation, vector) pairs
with product (A1, a1) * (A2, a2) = (A1 A2, A1 a2 + a1); the vector slot
transports bias / angular-velocity states rather than a position.

All functions are pure; randomness enters only through an explicit
numpy Generator argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, starmap

import numpy as np

SMALL_ANGLE = 1e-4  # below this, Taylor series replace sin/cos ratios
SKEW_TOL = 1e-6  # max Frobenius norm of the symmetric part accepted by vee
PI_BRANCH = 1e-6  # log switches to axis extraction within this of pi
ORTHO_TOL = 1e-9  # rotation validity / renormalization threshold
MIN_DRAW_NORM = 1e-12  # random_unit_vector redraws a normal triple of at most this norm

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False
_NEXT_AFTER, _AFTER_NEXT = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])
# _exp_so3_rows' columns: a scalar's three copies, the pairs ij = 01, 02, 12
# with the k of each pair's a x_k term, the diagonal's jk = 12, 02, 01, and
# the matrix entries, row-major, in the columns (diagonal, pairs - a x_k,
# pairs + a x_k)
_COPIES = np.zeros(3, dtype=np.intp)
_PAIR_I, _PAIR_J, _PAIR_K = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([2, 1, 0])
_DIAG_J, _DIAG_K = np.array([1, 0, 0]), np.array([2, 2, 1])
_LAYOUT = np.array([0, 3, 7, 6, 1, 5, 4, 8, 2])
# the most rows exp_so3 and apply_correction read as floats; us a call at
# 8 / 12 / 16 / 20 / 24 / 32 rows, float loop against array path, best of
# 2 x 9 x 2000, generic rows (the array path with one small-angle row):
#   exp_so3:           8 12 16 19 23 31 against 17 18 18 18 19 20 (24 25 25 26 26 26)
#   apply_correction: 16 24 29 36 42 56 against 27 28 28 29 30 32 (34 35 35 36 37 39)
_SHORT_STACK = 16


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, read as floats, or row by row of
    broadcasting (..., 3) stacks (numpy.cross has heavy overhead here)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim > 1 or b.ndim > 1:
        # component i is a[i + 1] b[i + 2] - a[i + 2] b[i + 1]: the six products at once, then their halves' difference
        products = a.take(_NEXT_AFTER, -1) * b.take(_AFTER_NEXT, -1)
        return products[..., :3] - products[..., 3:]
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def wedge(x: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of x, so that wedge(x) @ y == cross(x, y); the
    (..., 3, 3) stack of them for a stack (..., 3), as one product with the
    0 / +-1 map _WEDGE: a finite row equals the single-vector call in value,
    a zero's sign aside, and a non-finite component gives NaN at _WEDGE's zeros."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        return (x @ _WEDGE).reshape(x.shape + (3,))
    x0, x1, x2 = x.tolist()
    return np.array([[0.0, -x2, x1], [x2, 0.0, -x0], [-x1, x0, 0.0]])


_WEDGE = np.stack([wedge(e).ravel() for e in _EYE3])  # wedge(x).ravel() == x @ _WEDGE


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of wedge. Rejects matrices that are not skew-symmetric."""
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + m.T)
    if np.linalg.norm(sym) > SKEW_TOL:
        raise ValueError(
            f"vee: input is not skew-symmetric (symmetric part norm "
            f"{np.linalg.norm(sym):.3e} > {SKEW_TOL:.0e})"
        )
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def exp_so3(x: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(wedge(x)) by the Rodrigues formula; all NaN when
    x is not finite, so a diverged filter state stays a value and not an
    error. For a stack (..., 3) of vectors, the (..., 3, 3) stack of their
    rotations, each row equal to the single-vector call bit for bit.

    A single vector and any stack of at most _SHORT_STACK rows are built
    from their components as Python floats, into one array per call; a
    longer stack takes the same operations as (..., 3)-wide array ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(_exp_so3_entries(*x.tolist())).reshape(3, 3)
    if x.size > 3 * _SHORT_STACK:
        return _exp_so3_rows(x)
    rows = starmap(_exp_so3_entries, x.reshape(-1, 3).tolist())
    return np.fromiter(chain.from_iterable(rows), float, 3 * x.size).reshape(x.shape + (3,))


def _exp_so3_entries(x0: float, x1: float, x2: float) -> tuple:
    # the nine entries of exp_so3(x), row-major, with
    # wedge(x)^2 = x x^T - |x|^2 I; nine NaNs when the angle is not finite
    sq0, sq1, sq2 = x0 * x0, x1 * x1, x2 * x2
    angle = math.sqrt(sq0 + sq1 + sq2)
    if angle < SMALL_ANGLE:
        a = 1.0 - angle * angle / 6.0
        b = 0.5 - angle * angle / 24.0
    elif angle < math.inf:
        a = math.sin(angle) / angle
        b = (1.0 - math.cos(angle)) / (angle * angle)
    else:
        return (math.nan,) * 9
    b01, b02, b12 = b * x0 * x1, b * x0 * x2, b * x1 * x2
    a0, a1, a2 = a * x0, a * x1, a * x2
    return (
        1.0 - b * (sq1 + sq2), b01 - a2, b02 + a1,
        b01 + a2, 1.0 - b * (sq0 + sq2), b12 - a0,
        b02 - a1, b12 + a0, 1.0 - b * (sq0 + sq1),
    )


def _exp_so3_rows(x: np.ndarray) -> np.ndarray:
    # _exp_so3_entries' float operations, entry for entry, as (..., 3)-wide
    # ones, for the stacks longer than _SHORT_STACK rows, where the float loop
    # loses; np.sin and np.cos must round as math.sin and math.cos do
    # (tests/test_geom.py); the small-angle and non-finite rows are patched
    # in only when present
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = x * x
        angle = np.sqrt(sq.sum(axis=-1, keepdims=True))
        sq_angle = angle * angle
        a, b = np.sin(angle) / angle, (1.0 - np.cos(angle)) / sq_angle
        # NaN fails both tests; an empty stack passes them
        if not (angle.min(initial=math.inf) >= SMALL_ANGLE and angle.max(initial=0.0) < math.inf):
            small, finite = angle < SMALL_ANGLE, angle < math.inf
            a, b = np.where(small, 1.0 - sq_angle / 6.0, a), np.where(small, 0.5 - sq_angle / 24.0, b)
            a, b = np.where(finite, a, math.nan), np.where(finite, b, math.nan)
        a, b = a.take(_COPIES, -1), b.take(_COPIES, -1)
        pairs = (b * x).take(_PAIR_I, -1) * x.take(_PAIR_J, -1)  # b x_i x_j
        terms = a * x.take(_PAIR_K, -1)
        diagonal = 1.0 - b * (sq.take(_DIAG_J, -1) + sq.take(_DIAG_K, -1))
    # each temporary goes once used, so that a long stack (a run's sensor
    # noise) peaks at about 24 floats a row
    del a, b, sq, angle, sq_angle
    entries = np.concatenate((diagonal, pairs - terms, pairs + terms), axis=-1)
    del pairs, terms, diagonal
    return entries.take(_LAYOUT, -1).reshape(x.shape + (3,))


def log_so3(r: np.ndarray) -> np.ndarray:
    """Rotation vector with norm <= pi such that exp_so3 inverts it; for a
    stack (n, 3, 3) of rotations, the (n, 3) rows of their rotation vectors.

    Near angle pi the skew part of r carries almost no signal, so the axis
    is recovered from the symmetric part instead; the axis sign follows the
    skew part while it is above rounding noise and otherwise is fixed by
    making the largest-magnitude component positive.
    """
    r = np.asarray(r, dtype=float)
    rs = r.reshape(-1, 3, 3)
    trace = rs[:, 0, 0] + rs[:, 1, 1] + rs[:, 2, 2]
    cos_angle = np.clip(0.5 * (trace - 1.0), -1.0, 1.0)
    skew_vec = 0.5 * np.stack(
        [rs[:, 2, 1] - rs[:, 1, 2], rs[:, 0, 2] - rs[:, 2, 0], rs[:, 1, 0] - rs[:, 0, 1]], axis=-1
    )  # == sin(angle) * axis
    sin_angle = np.sqrt(np.vecdot(skew_vec, skew_vec))
    # atan2 stays well conditioned where acos(trace) loses digits near pi
    angle = np.arctan2(sin_angle, cos_angle)
    small = angle < SMALL_ANGLE
    near_pi = angle > math.pi - PI_BRANCH
    rest = ~(small | near_pi)
    out = np.empty_like(skew_vec)
    out[small] = skew_vec[small] * (1.0 + angle[small] * angle[small] / 6.0)[:, None]
    out[rest] = skew_vec[rest] * (angle[rest] / sin_angle[rest])[:, None]
    if np.any(near_pi):
        out[near_pi] = _log_pi_branch(rs[near_pi], cos_angle[near_pi], skew_vec[near_pi])
    return out.reshape(r.shape[:-1])


def _log_pi_branch(r: np.ndarray, cos_angle: np.ndarray, skew_vec: np.ndarray) -> np.ndarray:
    # (r + r^T)/2 = cos(t) I + (1 - cos t) n n^T with 1 - cos t ~ 2 here
    nnt = (0.5 * (r + r.mT) - cos_angle[:, None, None] * _EYE3) / (1.0 - cos_angle)[:, None, None]
    rows = np.arange(len(r))
    k = np.argmax(np.diagonal(nnt, axis1=1, axis2=2), axis=1)
    axis = nnt[rows, :, k] / np.sqrt(nnt[rows, k, k])[:, None]
    axis = axis / np.sqrt(np.vecdot(axis, axis))[:, None]
    s = np.sqrt(np.vecdot(skew_vec, skew_vec))
    angle = math.pi - np.arcsin(np.where(s < 1.0, s, 1.0))
    j = np.argmax(np.abs(axis), axis=1)
    flip = np.where(s > 1e-12, np.vecdot(axis, skew_vec) < 0.0, axis[rows, j] < 0.0)
    return angle[:, None] * np.where(flip[:, None], -axis, axis)


def is_rotation(r: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True when r is a rotation, or a stack (..., 3, 3) of rotations."""
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-2:] != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r.mT @ r - _EYE3)) > tol:
        return False
    det = (
        r[..., 0, 0] * (r[..., 1, 1] * r[..., 2, 2] - r[..., 1, 2] * r[..., 2, 1])
        - r[..., 0, 1] * (r[..., 1, 0] * r[..., 2, 2] - r[..., 1, 2] * r[..., 2, 0])
        + r[..., 0, 2] * (r[..., 1, 0] * r[..., 2, 1] - r[..., 1, 1] * r[..., 2, 0])
    )
    return bool(np.all(np.abs(det - 1.0) <= tol))


def require_rotation(r: np.ndarray) -> None:
    if not is_rotation(r):
        raise ValueError("matrix is not a valid rotation (orthonormal, det +1)")


def project_so3(m: np.ndarray) -> np.ndarray:
    """Closest rotation to m in the Frobenius sense (polar projection)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def renormalize_rotation(r: np.ndarray) -> np.ndarray:
    """Re-project onto SO(3) once orthonormality drift exceeds ORTHO_TOL; row by row for a stack.

    filter_base.update is the one caller, once per measurement: drift grows
    1e-16 to 1.3e-15 a rotation product, and 15 s runs at seed 2026 read at
    most 2.1e-14. Drift that predicts push past ORTHO_TOL is projected at the next update.
    """
    drift = np.abs(r.mT @ r - _EYE3)
    if r.ndim == 2:
        return project_so3(r) if drift.max() > ORTHO_TOL else r
    # fmax passes over NaN, so a non-finite row leaves its drifted neighbours projected
    return np.array([renormalize_rotation(m) for m in r]) if np.fmax.reduce(drift, None, initial=0.0) > ORTHO_TOL else r


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation sampled uniformly w.r.t. the Haar measure on SO(3).

    Uses the normalized-4D-Gaussian quaternion construction.
    """
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Direction sampled uniformly on the 2-sphere."""
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > MIN_DRAW_NORM:
            return v / n


def rotation_angle(r1: np.ndarray, r2: np.ndarray) -> float | np.ndarray:
    """Geodesic distance between two rotations, in [0, pi] radians; row by
    row for stacks."""
    v = log_so3(np.asarray(r1).mT @ np.asarray(r2))
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class GroupElement:
    """A rotation and a 3-vector.

    The same pair serves as an element of the symmetry group, as a
    Lie-algebra element in coordinates (so(3) part and vector part), and as
    a point on a stage's state manifold. On the manifold the vector slot is
    the gyro bias for stage 1 and the target angular velocity (chaser
    frame) for stage 2, both in rad/s. rot and vec may also be stacks,
    (n, 3, 3) and (n, 3), of one pair per tick; the group operations, the
    state action and the error maps then work row by row.
    """

    rot: np.ndarray
    vec: np.ndarray


AlgebraElement = GroupElement
StageState = GroupElement


def identity_element() -> GroupElement:
    return GroupElement(np.eye(3), np.zeros(3))


def group_compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(g1.rot @ g2.rot, np.matvec(g1.rot, g2.vec) + g1.vec)


def group_inverse(g: GroupElement) -> GroupElement:
    rt = g.rot.mT
    return GroupElement(rt, -np.matvec(rt, g.vec))
