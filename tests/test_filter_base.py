"""Property tests of the shared Riccati correction step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfcascade.filter_base import c_matrix, riccati_correct
from eqfcascade.geom import random_rotation, random_unit_vector
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

    out = riccati_correct(sigma, c, n, tau)

    scale = np.max(np.abs(sigma))
    np.testing.assert_array_equal(out, out.T)
    assert np.min(np.linalg.eigvalsh(out)) > 0.0
    assert np.min(np.linalg.eigvalsh(sigma - out)) > -1e-12 * scale
    np.testing.assert_allclose(out, riccati_flow(sigma, c, n, tau), rtol=0.0, atol=RTOL * scale)
