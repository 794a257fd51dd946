"""Property tests of the shared Riccati steps: the exact contraction, its
push-through form on the attitude block, and the block-form predict; and
the (k, 3) direction format from the sensors to the update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfcascade.filter_base import (
    ORIGIN,
    FilterEstimate,
    FilterGains,
    NumericalFailure,
    _is_spd,
    a_matrix,
    apply_correction,
    c_block,
    c_matrix,
    output_action,
    output_map,
    recover_state,
    require_spd,
    riccati_correct,
    riccati_predict,
    state_action,
    update,
)
from eqfcascade.geom import GroupElement, cross3, exp_so3, random_rotation, random_unit_vector, wedge
from eqfcascade.models import STAR_DIRS, TruthWorld, measure_features, measure_star_tracker, observed_directions
from oracles import rk4_matrix_ode

# the oracle integrates on doubling intervals of RK4_STEPS steps each, the
# first ending at FIRST_SPAN (or tau), which resolves the ~1/t decay of the
# observed block from t = 0 to tau = 1e3 at an error far below RTOL
FIRST_SPAN = 1e-3
RK4_STEPS = 40
RTOL = 1e-7


def random_spd(rng, dim, lo, hi):
    """Symmetric matrix with eigenvalues drawn log-uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def information(c, n):
    """C^T N^-1 C restricted to the attitude block, the only non-zero one."""
    ca = c[:, :3]
    return ca.T @ np.linalg.solve(n, ca)


def riccati_flow(sigma, c, n, tau):
    """d(Sigma)/dt = -Sigma C^T N^-1 C Sigma over tau by RK4."""
    info = c.T @ np.linalg.solve(n, c)

    def f(s):
        return -s @ info @ s

    t, span = 0.0, min(tau, FIRST_SPAN)
    while t < tau:
        sigma = rk4_matrix_ode(f, sigma, t_end=span, dt=span / RK4_STEPS)
        t += span
        span = min(t, tau - t)
    return sigma


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    log_tau=st.floats(-4.0, 3.0),
)
def test_riccati_correct_is_the_exact_contraction(seed, k, log_tau):
    rng = np.random.default_rng(seed)
    tau = 10.0**log_tau
    sigma = random_spd(rng, 6, 1e-2, 10.0)
    n = random_spd(rng, 3 * k, 1e-2, 1.0)
    y = [random_unit_vector(rng) for _ in range(k)]
    y_hat = [random_unit_vector(rng) for _ in range(k)]
    c = c_matrix(y, y_hat, random_rotation(rng))
    assert c.shape == (3 * k, 6)

    out = riccati_correct(sigma, information(c, n), tau, "test")

    scale = np.max(np.abs(sigma))
    np.testing.assert_array_equal(out, out.T)
    assert np.min(np.linalg.eigvalsh(out)) > 0.0
    assert np.min(np.linalg.eigvalsh(sigma - out)) > -1e-12 * scale
    np.testing.assert_allclose(out, riccati_flow(sigma, c, n, tau), rtol=0.0, atol=RTOL * scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    log_tau=st.floats(-4.0, 3.0),
)
def test_push_through_contraction_equals_the_full_form(seed, k, log_tau):
    # N is a general SPD matrix, not a multiple of the identity
    rng = np.random.default_rng(seed)
    tau = 10.0**log_tau
    sigma = random_spd(rng, 6, 1e-2, 10.0)
    n = random_spd(rng, 3 * k, 1e-2, 1.0)
    y = [random_unit_vector(rng) for _ in range(k)]
    y_hat = [random_unit_vector(rng) for _ in range(k)]
    rot = random_rotation(rng)
    c = c_matrix(y, y_hat, rot)
    np.testing.assert_array_equal(c[:, :3], c_block(np.array(y), np.array(y_hat), rot))
    assert not np.any(c[:, 3:])

    out = riccati_correct(sigma, information(c, n), tau, "test")

    cs = c @ sigma
    full = sigma - cs.T @ np.linalg.solve(cs @ c.T + n / tau, cs)
    np.testing.assert_allclose(out, full, rtol=0.0, atol=1e-10 * np.max(np.abs(sigma)))


def test_singular_contraction_names_the_stage():
    # I + tau info Sigma[:3, :3] is exactly singular here
    sigma = np.eye(6)
    info = -np.eye(3)
    with pytest.raises(NumericalFailure, match="singular in stage-1 update"):
        riccati_correct(sigma, info, 1.0, "stage-1 update")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-4.0, 0.0))
def test_block_predict_equals_the_full_form(seed, log_dt):
    rng = np.random.default_rng(seed)
    dt = 10.0**log_dt
    sigma = random_spd(rng, 6, 1e-3, 10.0)
    m = random_spd(rng, 6, 1e-3, 1.0)
    w = rng.normal(scale=0.1, size=3)
    a = a_matrix(w)

    out = riccati_predict(sigma, w, m, dt)

    np.testing.assert_array_equal(out, out.T)
    full = sigma + dt * (a @ sigma + sigma @ a.T + m)
    np.testing.assert_allclose(out, full, rtol=0.0, atol=1e-14 * np.max(np.abs(full)))


def test_directions_are_k_by_3_arrays_and_update_accepts_tuples():
    rng = np.random.default_rng(33)
    ref_dirs = np.array([random_unit_vector(rng), random_unit_vector(rng)])
    world = TruthWorld(random_rotation(rng), random_rotation(rng), *rng.normal(size=(3, 3)), ref_dirs)
    x = GroupElement(random_rotation(rng), rng.normal(size=3))
    dirs = np.array([random_unit_vector(rng) for _ in range(4)])
    for k, y in (
        (4, observed_directions(random_rotation(rng), dirs, 0.01, rng)),
        (3, measure_star_tracker(world, 0.01, rng)),
        (2, measure_features(world, 0.01, rng)),
        (4, output_map(recover_state(x), dirs)),
        (4, output_action(x, dirs)),
    ):
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == (k, 3)

    # the update reads tuples of 3-vectors as the same rows, bit for bit
    est = FilterEstimate(x, np.eye(6))
    for stage_dirs in (STAR_DIRS, ref_dirs):
        gains = FilterGains.identity_scaled(3 * len(stage_dirs))
        y = observed_directions(random_rotation(rng), stage_dirs, 0.01, rng)
        rows = update(est, y, stage_dirs, gains, 0.1, "test")
        tuples = update(est, tuple(y), tuple(stage_dirs), gains, 0.1, "test")
        np.testing.assert_array_equal(rows.X.rot, tuples.X.rot)
        np.testing.assert_array_equal(rows.X.vec, tuples.X.vec)
        np.testing.assert_array_equal(rows.Sigma, tuples.Sigma)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["spd", "spd_1e300", "rank5", "negative_eigenvalue", "nan", "inf", "-inf"]),
)
def test_require_spd_gives_the_full_check_verdict_on_symmetric_matrices(seed, kind):
    # require_spd skips _is_spd's symmetry test and symmetrize, so both must
    # agree on every exactly symmetric matrix
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    eig = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=6))
    if kind == "spd_1e300":
        eig *= 1e300
    elif kind == "rank5":
        eig[rng.integers(6)] = 0.0
    elif kind == "negative_eigenvalue":
        eig[rng.integers(6)] *= -1.0
    m = (q * eig) @ q.T
    m = m + m.T
    if kind in ("nan", "inf", "-inf"):
        i, j = rng.integers(6, size=2)
        m[i, j] = m[j, i] = float(kind)
    assert m.tobytes() == m.T.copy().tobytes()

    if _is_spd(m):
        require_spd(m, "test")
    else:
        with pytest.raises(NumericalFailure, match="after test"):
            require_spd(m, "test")
    if kind in ("spd", "spd_1e300"):
        assert _is_spd(m)
    elif kind in ("nan", "inf", "-inf"):
        assert not _is_spd(m)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_tau=st.floats(-4.0, 3.0))
def test_riccati_correct_output_is_exactly_symmetric(seed, log_tau):
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, 6, 1e-2, 10.0)
    ca = rng.normal(size=(9, 3))
    out = riccati_correct(sigma, ca.T @ ca, 10.0**log_tau, "test")
    assert out.tobytes() == out.T.copy().tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-4.0, 0.0), n=st.sampled_from([None, 1, 5]))
def test_kernel_steps_equal_their_reference_forms_bit_for_bit(seed, log_dt, n):
    rng = np.random.default_rng(seed)
    dt = 10.0**log_dt
    # recover_state on a single state and on (n, 3, 3)/(n, 3) stacks
    if n is None:
        x = GroupElement(random_rotation(rng), rng.normal(size=3))
    else:
        x = GroupElement(np.array([random_rotation(rng) for _ in range(n)]), rng.normal(size=(n, 3)))
    got, ref = recover_state(x), state_action(x, ORIGIN)
    np.testing.assert_array_equal(got.rot, ref.rot)
    np.testing.assert_array_equal(got.vec, ref.vec)

    x = GroupElement(random_rotation(rng), rng.normal(size=3))
    gain = rng.normal(size=6)
    got = apply_correction(x, gain, dt)
    ref = GroupElement(exp_so3(gain[:3] * dt) @ x.rot, x.vec + dt * (cross3(gain[:3], x.vec) - gain[3:]))
    np.testing.assert_array_equal(got.rot, ref.rot)
    np.testing.assert_array_equal(got.vec, ref.vec)

    sigma = random_spd(rng, 6, 1e-3, 10.0)
    m = random_spd(rng, 6, 1e-3, 1.0)
    w = rng.normal(scale=0.1, size=3)
    a = np.concatenate((-sigma[3:], wedge(w) @ sigma[3:]))
    np.testing.assert_array_equal(riccati_predict(sigma, w, m, dt), sigma + dt * (a + a.T + m))
