"""Property tests of the stacked diagnostics: the log, the Euler errors and
the Lyapunov values of a stack equal the one-row results bit for bit,
including rows on the gimbal-lock, near-pi and small-angle branches."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfcascade.cascade import ErrorVector, lyapunov_value
from eqfcascade.geom import PI_BRANCH, SMALL_ANGLE, exp_so3, log_so3, random_rotation, random_unit_vector, rotation_angle
from eqfcascade.metrics import GIMBAL_TOL, RAD2DEG, euler_errors, euler_zyx

KINDS = ("generic", "gimbal", "near_pi", "tiny")


def zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    cr, sr, cp, sp, cy, sy = (f(a) for a in (roll, pitch, yaw) for f in (math.cos, math.sin))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def rotation_of_kind(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A rotation on one branch: pitch within 1e-7 of +/-90 deg, angle
    within 1e-7 of pi, angle below SMALL_ANGLE, or Haar-random."""
    if kind == "gimbal":
        pitch = math.copysign(math.pi / 2, rng.normal()) + rng.uniform(-1e-7, 1e-7)
        return zyx(rng.uniform(-math.pi, math.pi), pitch, rng.uniform(-math.pi, math.pi))
    if kind == "near_pi":
        # distances down to 0, and axes along a coordinate axis half the time
        axis = random_unit_vector(rng) if rng.uniform() < 0.5 else np.eye(3)[rng.integers(3)]
        return exp_so3((math.pi - 10.0 ** rng.uniform(-17.0, -7.0)) * axis)
    if kind == "tiny":
        return exp_so3(10.0 ** rng.uniform(-12.0, math.log10(SMALL_ANGLE)) * random_unit_vector(rng))
    return random_rotation(rng)


stacks = st.tuples(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_stacked_log_equals_rows(case):
    kinds, seed = case
    rng = np.random.default_rng(seed)
    r = np.stack([rotation_of_kind(k, rng) for k in kinds])
    stacked = log_so3(r)
    assert stacked.shape == (len(kinds), 3)
    for i, kind in enumerate(kinds):
        row = log_so3(r[i])
        np.testing.assert_array_equal(stacked[i], row)
        assert np.linalg.norm(row) <= math.pi + 1e-15  # pi times a unit axis, rounded
        np.testing.assert_allclose(exp_so3(row), r[i], atol=1e-9)
        if kind == "near_pi":
            assert np.linalg.norm(row) > math.pi - PI_BRANCH
            skew = 0.5 * np.array([r[i, 2, 1] - r[i, 1, 2], r[i, 0, 2] - r[i, 2, 0], r[i, 1, 0] - r[i, 0, 1]])
            if np.linalg.norm(skew) <= 1e-12:
                # the sign is fixed by making the largest component positive
                assert row[np.argmax(np.abs(row))] > 0.0


@settings(max_examples=60, deadline=None)
@given(stacks, st.integers(0, 2**32 - 1))
def test_stacked_euler_errors_equal_rows(case, hat_seed):
    kinds, seed = case
    rng = np.random.default_rng(seed)
    hat_rng = np.random.default_rng(hat_seed)
    r_true = np.stack([rotation_of_kind(k, rng) for k in kinds])
    # estimates on every branch too, some close to the truth
    r_hat = np.stack([r @ rotation_of_kind(hat_rng.choice(KINDS), hat_rng) for r in r_true])
    stacked = euler_errors(r_true, r_hat)
    np.testing.assert_array_equal(euler_zyx(r_true), np.stack([euler_zyx(r) for r in r_true]))
    for i, kind in enumerate(kinds):
        row = euler_errors(r_true[i], r_hat[i])
        np.testing.assert_array_equal(stacked[i], row)
        if kind == "gimbal":
            assert abs(abs(euler_zyx(r_true[i])[1]) - math.pi / 2) < GIMBAL_TOL
            np.testing.assert_array_equal(row, np.full(3, rotation_angle(r_true[i], r_hat[i]) * RAD2DEG))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_stacked_lyapunov_equals_rows(n, seed):
    rng = np.random.default_rng(seed)
    eps = ErrorVector(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    m = rng.normal(size=(n, 6, 6))
    sigma = m @ m.mT + 10.0 ** rng.uniform(-6.0, 1.0, size=(n, 1, 1)) * np.eye(6)
    stacked = lyapunov_value(eps, sigma)
    for i in range(n):
        assert stacked[i] == lyapunov_value(ErrorVector(eps.rot[i], eps.vec[i]), sigma[i])
