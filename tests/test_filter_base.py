"""Property tests of the shared Riccati steps: the exact contraction, its
push-through form on the attitude block, and the block-form predict; the
predict of a lift without a vector part; the (k, 3) direction format
from the sensors to the update; the direct LAPACK calls; and where the
attitude is re-projected onto SO(3)."""

import importlib
import sys

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
    _umath_linalg,
    a_matrix,
    apply_correction,
    c_block,
    c_matrix,
    output_action,
    output_map,
    predict_step,
    recover_state,
    require_spd,
    riccati_correct,
    riccati_predict,
    state_action,
    symmetrize,
    update_step,
)
from eqfcascade.geom import (
    ORTHO_TOL,
    SMALL_ANGLE,
    GroupElement,
    _exp_so3_rows,
    cross3,
    exp_so3,
    is_rotation,
    random_rotation,
    random_unit_vector,
    renormalize_rotation,
    wedge,
)
from eqfcascade import filter_base, geom, stage1, stage2
from eqfcascade.cascade import ErrorVector, lyapunov_value
from eqfcascade.config import ScenarioConfig
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

    out = riccati_correct(sigma, information(c, n), tau)

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

    out = riccati_correct(sigma, information(c, n), tau)

    cs = c @ sigma
    full = sigma - cs.T @ np.linalg.solve(cs @ c.T + n / tau, cs)
    np.testing.assert_allclose(out, full, rtol=0.0, atol=1e-10 * np.max(np.abs(sigma)))


def test_singular_contraction_names_the_stage():
    # at the identity with a noiseless star fix, N = I/8 and one sub-step of
    # length 1, info = 16 I, and I + tau info Sigma[:3, :3] is exactly
    # singular for Sigma[:3, :3] = -I/16: the contraction reads NaN, and the
    # update that meets it fails naming its stage
    sigma = np.diag([-1 / 16] * 3 + [1.0] * 3)
    with np.errstate(invalid="ignore"):
        assert np.isnan(riccati_correct(sigma, 16.0 * np.eye(3), 1.0)).all()
    gains = FilterGains.identity_scaled(9, output_gain=0.125, update_iterations=1)
    est = FilterEstimate(GroupElement(np.eye(3), np.zeros(3)), sigma)
    with pytest.raises(NumericalFailure, match="^Riccati state not positive definite after stage-1 update$") as failure:
        stage1.update(est, STAR_DIRS, gains, 1.0)
    assert failure.value.lanes.tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-4.0, 0.0))
def test_block_predict_equals_the_full_form(seed, log_dt):
    rng = np.random.default_rng(seed)
    dt = 10.0**log_dt
    sigma = random_spd(rng, 6, 1e-3, 10.0)
    m = random_spd(rng, 6, 1e-3, 1.0)
    w = rng.normal(scale=0.1, size=3)
    a = a_matrix(w)

    out = riccati_predict(sigma, wedge(w), m, dt)

    np.testing.assert_array_equal(out, out.T)
    full = sigma + dt * (a @ sigma + sigma @ a.T + m)
    np.testing.assert_allclose(out, full, rtol=0.0, atol=1e-14 * np.max(np.abs(full)))


@pytest.mark.parametrize("lanes", [(), (8,)])
def test_a_lift_without_vector_part_leaves_the_vector_part_as_it_is(lanes):
    rng = np.random.default_rng(len(lanes))
    n = lanes[0] if lanes else 1
    vec = rng.normal(size=lanes + (3,))
    vec[..., 0] = -0.0  # a sum with a zero vector part would make it +0
    x = GroupElement(np.stack([random_rotation(rng) for _ in range(n)]).reshape(lanes + (3, 3)), vec)
    sigma = np.stack([random_spd(rng, 6, 1e-3, 10.0) for _ in range(n)]).reshape(lanes + (6, 6))
    rot_rate, w_hat = rng.normal(size=lanes + (3,)), wedge(rng.normal(size=lanes + (3,)))
    m = FilterGains.identity_scaled(6).M
    got = predict_step(x.rot, vec, sigma, rot_rate, None, w_hat, m, 0.01)
    zero = predict_step(x.rot, vec, sigma, rot_rate, np.zeros(lanes + (3,)), w_hat, m, 0.01)
    assert got[1].tobytes() == vec.tobytes()
    assert got[0].tobytes() == zero[0].tobytes() and got[2].tobytes() == zero[2].tobytes()


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

    # the stages' updates read tuples of 3-vectors as the same rows, bit for bit
    est = FilterEstimate(x, np.eye(6))
    for stage, stage_dirs in ((stage1, STAR_DIRS), (stage2, ref_dirs)):
        gains = FilterGains.identity_scaled(3 * len(stage_dirs))
        y = observed_directions(random_rotation(rng), stage_dirs, 0.01, rng)
        dirs_arg, dirs_tuple = ((), ()) if stage is stage1 else ((stage_dirs,), (tuple(stage_dirs),))
        rows = stage.update(est, y, *dirs_arg, gains, 0.1)
        tuples = stage.update(est, tuple(y), *dirs_tuple, gains, 0.1)
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
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="after test"):
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
    out = riccati_correct(sigma, ca.T @ ca, 10.0**log_tau)
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
    got = GroupElement(*apply_correction(x.rot, x.vec, gain, dt))
    ref = GroupElement(exp_so3(gain[:3] * dt) @ x.rot, x.vec + dt * (cross3(gain[:3], x.vec) - gain[3:]))
    np.testing.assert_array_equal(got.rot, ref.rot)
    np.testing.assert_array_equal(got.vec, ref.vec)

    sigma = random_spd(rng, 6, 1e-3, 10.0)
    m = random_spd(rng, 6, 1e-3, 1.0)
    w = rng.normal(scale=0.1, size=3)
    a = np.concatenate((-sigma[3:], wedge(w) @ sigma[3:]))
    np.testing.assert_array_equal(riccati_predict(sigma, wedge(w), m, dt), sigma + dt * (a + a.T + m))


def _correction_stack(rng, n, tau):
    """n states and gains: a generic lane, a lane whose correction turns by
    less than SMALL_ANGLE over tau, and a lane of NaN gains, then generic ones."""
    x = GroupElement(np.stack([random_rotation(rng) for _ in range(n)]), rng.normal(size=(n, 3)))
    gain = rng.normal(size=(n, 6))
    if n > 1:
        gain[1, :3] = random_unit_vector(rng) * SMALL_ANGLE * rng.uniform(0.0, 1.0) / tau
    if n > 2:
        gain[2] = np.nan
    return x, gain


@pytest.mark.parametrize("n", [1, 2, 8, filter_base._SHORT_STACK])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_short_correction_stacks_equal_the_array_expressions_bit_for_bit(n, seed):
    # the float loop, against the array path that longer stacks take
    rng = np.random.default_rng(seed)
    tau = 0.05
    x, gain = _correction_stack(rng, n, tau)
    w = gain[:, :3]
    ref = GroupElement(_exp_so3_rows(w * tau) @ x.rot, x.vec + tau * (cross3(w, x.vec) - gain[:, 3:]))
    with np.errstate(invalid="ignore"):
        got = GroupElement(*apply_correction(x.rot, x.vec, gain, tau))
    assert got.rot.shape == (n, 3, 3) and got.vec.shape == (n, 3)
    assert got.rot.tobytes() == ref.rot.tobytes() and got.vec.tobytes() == ref.vec.tobytes()
    if n > 2:
        assert np.isnan(got.rot[2]).all() and np.isnan(got.vec[2]).all()


@pytest.mark.parametrize("n", [None, 1, 8, filter_base._SHORT_STACK, filter_base._SHORT_STACK + 1])
def test_corrections_read_as_floats_up_to_the_short_stack(n, monkeypatch):
    # one float Rodrigues call a lane up to _SHORT_STACK lanes, none past it
    rng = np.random.default_rng(4)
    x, gain = _correction_stack(rng, 1 if n is None else n, 0.05)
    if n is None:
        x, gain = _lane(x, 0), gain[0]
    calls, entries = [], filter_base._exp_so3_entries

    def counting(*row):
        calls.append(row)
        return entries(*row)

    monkeypatch.setattr(filter_base, "_exp_so3_entries", counting)
    monkeypatch.setattr(geom, "_exp_so3_entries", counting)
    with np.errstate(invalid="ignore"):
        apply_correction(x.rot, x.vec, gain, 0.05)
    assert len(calls) == (1 if n is None else n if n <= filter_base._SHORT_STACK else 0)


def test_half_wedge_is_half_the_wedge_map_bit_for_bit():
    assert filter_base._HALF_WEDGE.tobytes() == (0.5 * geom._WEDGE).tobytes()


# the kinds of lane in a stack: a generic one, a correction below
# SMALL_ANGLE, a correction within 1e-8 of pi, and a rotation whose
# orthonormality drift needs re-projection
LANE_KINDS = ("generic", "small", "near_pi", "drifted")


def _lane(a, i):
    """Lane i of stacked bare states (rot, vec, sigma) or of a stacked group element."""
    if isinstance(a, tuple):
        return tuple(part[i] for part in a)
    return GroupElement(a.rot[i], a.vec[i])


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, GroupElement):
        return a.rot.tobytes() == b.rot.tobytes() and a.vec.tobytes() == b.vec.tobytes()
    return a.tobytes() == b.tobytes()


def _failing_alone(call, lanes) -> list[int]:
    """The lanes i whose one-lane call(i) raises NumericalFailure."""
    failing = []
    for i in lanes:
        try:
            call(i)
        except NumericalFailure:
            failing.append(i)
    return failing


def _lane_stack(kinds, rng, k):
    """States, Riccati matrices, correction gains and measurements for one
    lane of each kind."""
    rot = np.stack([random_rotation(rng) for _ in kinds])
    angles = np.array([{"small": SMALL_ANGLE * rng.uniform(0.0, 1.0), "near_pi": np.pi - 1e-8}.get(
        kind, rng.uniform(0.0, np.pi)) for kind in kinds])
    for i, kind in enumerate(kinds):
        if kind == "drifted":
            sym = rng.normal(size=(3, 3))
            rot[i] = rot[i] @ (np.eye(3) + 1e-7 * (sym + sym.T))
    assert all((np.abs(r.T @ r - np.eye(3)).max() > 1e-9) == (kind == "drifted") for r, kind in zip(rot, kinds))
    x = GroupElement(rot, rng.normal(size=(len(kinds), 3)))
    sigma = np.stack([random_spd(rng, 6, 1e-2, 10.0) for _ in kinds])
    axes = np.stack([random_unit_vector(rng) for _ in kinds])
    gain = np.concatenate([angles[:, None] * axes, rng.normal(size=(len(kinds), 3))], axis=1)
    dirs = np.stack([random_unit_vector(rng) for _ in range(k)])
    y = np.stack([observed_directions(random_rotation(rng), dirs, 0.01, rng) for _ in kinds])
    return x, sigma, gain, dirs, y


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(LANE_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    log_tau=st.floats(-3.0, 0.0),
)
def test_kernel_on_lane_stacks_equals_the_per_lane_calls(kinds, seed, k, log_tau):
    # every kernel step on an (R, ...) stack gives each lane the result of
    # the one-lane call at shape (), bit for bit
    rng = np.random.default_rng(seed)
    tau = 10.0**log_tau
    x, sigma, gain, dirs, y = _lane_stack(kinds, rng, k)
    lanes = range(len(kinds))
    gains = FilterGains(random_spd(rng, 6, 1e-3, 1.0), random_spd(rng, 3 * k, 1e-2, 1.0), np.eye(6), int(rng.integers(1, 5)))
    state = (x.rot, x.vec, sigma)

    # unit-time corrections, so that each lane turns by its own angle
    out = GroupElement(*apply_correction(x.rot, x.vec, gain, 1.0))
    assert all(_same(_lane(out, i), GroupElement(*apply_correction(x.rot[i], x.vec[i], gain[i], 1.0))) for i in lanes)

    out = renormalize_rotation(x.rot)
    assert all(_same(out[i], renormalize_rotation(x.rot[i])) for i in lanes)
    for i, kind in enumerate(kinds):
        assert (out[i].tobytes() == x.rot[i].tobytes()) == (kind != "drifted")

    ca = rng.normal(size=(len(kinds), 3 * k, 3))
    info = ca.mT @ ca
    out = riccati_correct(sigma, info, tau)
    assert all(_same(out[i], riccati_correct(sigma[i], info[i], tau)) for i in lanes)

    lam = GroupElement(rng.normal(size=(len(kinds), 3)), rng.normal(size=(len(kinds), 3)))
    w = rng.normal(size=(len(kinds), 3))
    out = predict_step(*state, lam.rot, lam.vec, wedge(w), gains.M, tau)
    assert all(_same(_lane(out, i), predict_step(*_lane(state, i), lam.rot[i], lam.vec[i], wedge(w[i]), gains.M, tau)) for i in lanes)

    # shared known directions, as stage 1's, and one set per lane; a failed
    # LAPACK call reads NaN in its lane
    with np.errstate(invalid="ignore"):
        for lane_dirs in (dirs, np.broadcast_to(dirs, y.shape)):
            try:
                out = update_step(*state, y, lane_dirs, gains, tau, "test")
            except NumericalFailure as exc:
                # then the lanes it names are the ones that fail alone
                assert exc.lanes.tolist() == _failing_alone(lambda i: update_step(*_lane(state, i), y[i], dirs, gains, tau, "test"), lanes)
                continue
            assert all(_same(_lane(out, i), update_step(*_lane(state, i), y[i], dirs, gains, tau, "test")) for i in lanes)


@settings(max_examples=20, deadline=None)
@given(n_lanes=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_one_failing_lane_fails_the_stack_and_only_itself(n_lanes, seed):
    # a singular correction system in one lane reads NaN there and leaves
    # every other lane its one-lane result; a non-finite Riccati state in one
    # lane fails the update on the stack, which names that lane alone, the
    # one lane whose one-lane call raises
    rng = np.random.default_rng(seed)
    bad = int(rng.integers(n_lanes))
    x, sigma, _, dirs, y = _lane_stack(["generic"] * n_lanes, rng, 3)
    info = np.stack([ca.T @ ca for ca in rng.normal(size=(n_lanes, 9, 3))])
    sigma_singular, info_singular = sigma.copy(), info.copy()
    # I + tau info Sigma[:3, :3] is exactly singular here
    sigma_singular[bad], info_singular[bad] = np.eye(6), -np.eye(3)
    with np.errstate(invalid="ignore"):
        out = riccati_correct(sigma_singular, info_singular, 1.0)
    assert np.isnan(out[bad]).all()
    assert all(_same(out[i], riccati_correct(sigma[i], info[i], 1.0)) for i in range(n_lanes) if i != bad)

    sigma_nan = sigma.copy()
    sigma_nan[bad, 4, 4] = np.nan
    state, gains = (x.rot, x.vec, sigma_nan), FilterGains.identity_scaled(9, update_iterations=3)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="not positive definite after test") as failure:
        update_step(*state, y, dirs, gains, 0.1, "test")
    with np.errstate(invalid="ignore"):
        alone = _failing_alone(lambda i: update_step(*_lane(state, i), y[i], dirs, gains, 0.1, "test"), range(n_lanes))
    assert failure.value.lanes.tolist() == alone == [bad]


def _failing_lanes_update():
    """Eight identity lanes, two of which (a, b) fail in one stage-1 update
    of three sub-steps: the estimate, the measurements, the gains and (a, b)."""
    rng = np.random.default_rng(5)
    a, b = 2, 6
    sigma = np.stack([random_spd(rng, 6, 1e-2, 10.0) for _ in range(8)])
    sigma[a], sigma[b] = np.diag([-1 / 32] * 3 + [1.0] * 3), np.diag([1.0] * 5 + [-1.0])
    est = FilterEstimate(GroupElement(np.tile(np.eye(3), (8, 1, 1)), np.zeros((8, 3))), sigma)
    gains = FilterGains.identity_scaled(9, output_gain=0.125, update_iterations=3)
    return est, np.tile(STAR_DIRS, (8, 1, 1)), gains, [a, b]


def test_an_update_names_every_failing_lane_at_once(monkeypatch):
    # zero residuals leave every lane at the identity, so with N = I/8 and
    # tau = 1 the information is 16 I at each sub-step. Lane a's attitude
    # block goes -I/32 -> -I/16, exactly, and its system is singular at
    # sub-step 2 of 3; lane b's vector block is not positive definite and
    # its systems are regular. One failure after the last sub-step names both.
    est, y, gains, (a, b) = _failing_lanes_update()
    nan_lanes, correct = [], filter_base.riccati_correct

    def recording(*args):
        out = correct(*args)
        nan_lanes.append(np.flatnonzero(np.isnan(out).all(axis=(1, 2))).tolist())
        return out

    monkeypatch.setattr(filter_base, "riccati_correct", recording)
    with pytest.raises(NumericalFailure, match="^Riccati state not positive definite after stage-1 update$") as failure:
        stage1.update(est, y, gains, 3.0)
    assert nan_lanes == [[], [a], [a]]
    assert failure.value.lanes.tolist() == [a, b]


def test_an_update_step_names_the_same_failing_lanes():
    # the bare-array update step leaves the error state to its caller, as a
    # stage pass does
    est, y, gains, lanes = _failing_lanes_update()
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="^Riccati state not positive definite after stage-1 update$") as failure:
        stage1.update_step(est.X.rot, est.X.vec, est.Sigma, y, gains, 3.0)
    assert failure.value.lanes.tolist() == lanes


@pytest.mark.parametrize("stage", [stage1, stage2], ids=["stage1", "stage2"])
@pytest.mark.parametrize("lanes", [(), (1,), (8,), (20,)], ids=["one", "lanes1", "lanes8", "lanes20"])
def test_update_step_equals_update_bit_for_bit(stage, lanes):
    # the bare-array update and predict steps that a stage pass calls, on one
    # run's states and on stacks whose corrections take the float path (up to
    # _SHORT_STACK lanes) or the array path (20 lanes), drifted lanes among
    # them, return the arrays of the stage's update and predict on estimates
    n, k = lanes[0] if lanes else 1, 3 if stage is stage1 else 2
    rng = np.random.default_rng(n)
    x, sigma, _, dirs, y = _lane_stack([LANE_KINDS[i % len(LANE_KINDS)] for i in range(n)], rng, k)
    states = (x.rot, x.vec, sigma) if lanes else (x.rot[0], x.vec[0], sigma[0])
    y = y if lanes else y[0]
    cfg = ScenarioConfig(seed=2026)
    if stage is stage1:
        params = cfg.stage1_gains(), 1.0 / cfg.star_rate_hz
    else:
        params = dirs, cfg.stage2_gains(), 1.0 / cfg.feature_rate_hz
    est = FilterEstimate(GroupElement(*states[:2]), states[2])
    want = stage.update(est, y, *params)
    got = stage.update_step(*states, y, *params)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (want.X.rot, want.X.vec, want.Sigma)]
    assert want.X.rot.shape == lanes + (3, 3)

    rate, gains, dt = rng.normal(size=lanes + (3,)), params[-2], 1.0 / cfg.gyro_rate_hz
    want = stage.predict(est, rate, gains, dt)
    got = stage.predict_step(*states, rate, gains.M, dt, *stage.predict_constants(states[1]))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (want.X.rot, want.X.vec, want.Sigma)]
    assert want.X.rot.shape == lanes + (3, 3)


def test_renormalize_projects_drifted_lanes_beside_a_non_finite_one():
    # the stack's one drift reduction passes over NaN, so a lane holding NaN
    # neither hides its drifted neighbours nor is projected itself
    rng = np.random.default_rng(9)
    x, *_ = _lane_stack(["drifted", "generic", "drifted"], rng, 2)
    rot = x.rot.copy()
    rot[1, 0, 0] = np.nan
    out = renormalize_rotation(rot)
    assert all(_same(out[i], renormalize_rotation(rot[i])) for i in range(3))
    assert out[0].tobytes() != rot[0].tobytes() and out[1].tobytes() == rot[1].tobytes()


def test_the_gufuncs_are_the_ones_np_linalg_calls():
    # numpy keeps them private: a release that moves them fails the kernel's
    # import at once, and one that swaps them fails the identity check
    assert _umath_linalg.solve is np.linalg._linalg._umath_linalg.solve
    assert _umath_linalg.cholesky_lo is np.linalg._linalg._umath_linalg.cholesky_lo


def test_a_numpy_without_umath_linalg_fails_the_kernel_import(monkeypatch):
    monkeypatch.delattr(np.linalg, "_umath_linalg")
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    monkeypatch.delitem(sys.modules, "eqfcascade.filter_base")
    with pytest.raises(ImportError, match="_umath_linalg"):
        importlib.import_module("eqfcascade.filter_base")


@pytest.mark.parametrize("lanes", [(), (8,), (50,)])
def test_direct_lapack_calls_equal_np_linalg_bit_for_bit(lanes):
    rng = np.random.default_rng(len(lanes))
    n = lanes[0] if lanes else 1
    sigma = np.stack([random_spd(rng, 6, 1e-3, 10.0) for _ in range(n)]).reshape(lanes + (6, 6))
    a, b = rng.normal(size=lanes + (3, 3)), rng.normal(size=lanes + (3, 3))
    solved = _umath_linalg.solve(a, b, signature="dd->d")
    assert solved.tobytes() == np.linalg.solve(a, b).tobytes()
    factor = _umath_linalg.cholesky_lo(sigma, signature="d->d")
    assert factor.tobytes() == np.linalg.cholesky(sigma).tobytes()
    # and the contraction equals its np.linalg.solve form
    info = rng.normal(size=lanes + (9, 3))
    info = info.mT @ info
    tau_info = 0.1 * info
    k = np.linalg.solve(np.eye(3) + tau_info @ sigma[..., :3, :3], tau_info)
    ref = symmetrize(sigma - sigma[..., :3] @ k @ sigma[..., :3, :])
    assert riccati_correct(sigma, info, 0.1).tobytes() == ref.tobytes()
    # and V equals its np.linalg.solve form
    eps = ErrorVector(rng.normal(size=lanes + (3,)), rng.normal(size=lanes + (3,)))
    e = eps.stacked()
    assert lyapunov_value(eps, sigma).tobytes() == np.vecdot(e, np.linalg.solve(sigma, e[..., None])[..., 0]).tobytes()


@pytest.mark.parametrize("lanes", [(), (8,)])
def test_a_failing_lane_is_named(lanes):
    rng = np.random.default_rng(3)
    n = lanes[0] if lanes else 1
    bad = (n - 1,) if lanes else ()
    sigma = np.stack([random_spd(rng, 6, 1e-2, 10.0) for _ in range(n)]).reshape(lanes + (6, 6))
    info = np.broadcast_to(np.eye(3), lanes + (3, 3)).copy()
    # I + tau info Sigma[:3, :3] is exactly singular in the bad lane, which
    # reads NaN, and the Riccati check names it
    sigma_singular, info_singular = sigma.copy(), info.copy()
    sigma_singular[bad], info_singular[bad] = np.eye(6), -np.eye(3)
    with np.errstate(invalid="ignore"):
        out = riccati_correct(sigma_singular, info_singular, 1.0)
    assert np.isnan(out[bad]).all() and np.isfinite(np.delete(out.reshape(-1, 6, 6), n - 1, axis=0)).all()
    # finite and symmetric, with one negative eigenvalue in the bad lane
    sigma_indefinite = sigma.copy()
    sigma_indefinite[bad] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    message = "^Riccati state not positive definite after test$"
    for failing in (out, sigma_indefinite):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match=message) as failure:
            require_spd(failing, "test")
        assert failure.value.lanes.tolist() == [n - 1]
    require_spd(sigma, "test")


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", [(4, 1), (3, 3)], ids=["off_diagonal", "diagonal"])
def test_require_spd_names_the_lanes_that_the_full_check_rejects(value, entry):
    # the factor's finiteness alone decides: a non-finite entry of a
    # symmetric Sigma (one lane), a negative eigenvalue (another) and SPD
    # lanes around them, each lane judged as _is_spd judges it alone
    rng = np.random.default_rng(8)
    sigma = np.stack([random_spd(rng, 6, 1e-2, 10.0) for _ in range(8)])
    sigma[2][entry], sigma[2][entry[::-1]] = value, value
    # lane 5: a rank-one downdate past zero along Sigma's first column leaves it indefinite
    sigma[5] = symmetrize(sigma[5] - 20.0 * np.outer(sigma[5][0], sigma[5][0]) / sigma[5][0, 0])
    assert sigma.tobytes() == sigma.mT.copy().tobytes()
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as failure:
        require_spd(sigma, "test")
    assert failure.value.lanes.tolist() == [j for j in range(8) if not _is_spd(sigma[j])] == [2, 5]


@pytest.mark.parametrize("lanes", [(), (3,)])
def test_predict_leaves_a_drifted_attitude_to_the_next_update(lanes):
    rng = np.random.default_rng(11)
    x, sigma, _, dirs, y = _lane_stack(["drifted", "generic", "drifted"], rng, 3)
    if not lanes:
        x, sigma, y = _lane(x, 0), sigma[0], y[0]
    dt, omega = 0.01, rng.normal(size=lanes + (3,))
    out = predict_step(x.rot, x.vec, sigma, omega, None, wedge(np.zeros(lanes + (3,))), FilterGains.identity_scaled(9).M, dt)
    assert out[0].tobytes() == (x.rot @ exp_so3(dt * omega)).tobytes()
    assert np.abs(out[0].mT @ out[0] - np.eye(3)).max() > 1e-8
    corrected = update_step(*out, y, dirs, FilterGains.identity_scaled(9, update_iterations=2), 0.1, "test")
    assert is_rotation(corrected[0], 1e-14)


@pytest.mark.parametrize("lanes", [(), (8,)])
def test_ten_thousand_predicts_stay_orthonormal_at_the_half_turn_limit(lanes):
    # at the fastest rate a scenario allows, half a turn per gyro tick, and
    # below it; the worst of 20 seeds read 1.3e-11 against the bound 2e-10
    cfg = ScenarioConfig()
    dt = 1.0 / cfg.gyro_rate_hz
    rng = np.random.default_rng(5)
    n = lanes[0] if lanes else 1
    angle = np.radians(180.0 * cfg.gyro_rate_hz) * dt * np.concatenate([[1.0], rng.uniform(0.0, 1.0, n - 1)])
    omega = (angle[:, None] * np.stack([random_unit_vector(rng) for _ in range(n)]) / dt).reshape(lanes + (3,))
    x = GroupElement(np.stack([random_rotation(rng) for _ in range(n)]).reshape(lanes + (3, 3)), np.zeros(lanes + (3,)))
    rot, vec, sigma = x.rot, x.vec, np.broadcast_to(np.eye(6), lanes + (6, 6))
    w_hat, m = wedge(np.zeros(lanes + (3,))), FilterGains.identity_scaled(9).M
    for _ in range(10_000):
        rot, vec, sigma = predict_step(rot, vec, sigma, omega, None, w_hat, m, dt)
    assert np.abs(rot.mT @ rot - np.eye(3)).max() < 2e-10
    assert is_rotation(rot, ORTHO_TOL)
