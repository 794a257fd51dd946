import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from eqfcascade import geom
from eqfcascade.geom import (
    SMALL_ANGLE,
    GroupElement,
    exp_so3,
    group_compose,
    group_inverse,
    identity_element,
    is_rotation,
    log_so3,
    project_so3,
    random_rotation,
    random_unit_vector,
    rotation_angle,
    vee,
    wedge,
)


T = geom._SHORT_STACK  # the most rows exp_so3 builds from floats


def rot_z(deg):
    return exp_so3(np.array([0.0, 0.0, math.radians(deg)]))


class TestWedgeVee:
    def test_wedge_matches_definition(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        np.testing.assert_allclose(wedge(np.array([1.0, 2.0, 3.0])), expected)

    def test_wedge_zero(self):
        np.testing.assert_array_equal(wedge(np.zeros(3)), np.zeros((3, 3)))

    def test_wedge_is_cross_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(wedge(x) @ y, np.cross(x, y), atol=1e-14)

    @pytest.mark.parametrize("shape", [(1,), (8,), (4, 5)])
    def test_stacked_wedge_equals_the_single_calls_in_value(self, shape):
        # entries are exact either way; only a zero's sign may differ
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape + (3,))
        x[rng.uniform(size=x.shape) < 0.2] = 0.0
        x.reshape(-1, 3)[0] = [-1.0, -2.0, -3.0]
        stack = wedge(x)
        assert stack.shape == shape + (3, 3)
        for row, xi in zip(stack.reshape(-1, 3, 3), x.reshape(-1, 3)):
            np.testing.assert_array_equal(row, wedge(xi))
        # wedge(x) @ y == cross3(x, y): integer components make every product
        # and sum exact, whatever order the product takes them in
        x, y = rng.integers(-1000, 1000, size=(2,) + shape + (3,)).astype(float)
        np.testing.assert_array_equal(np.matvec(wedge(x), y), geom.cross3(x, y))
        x, y = rng.normal(size=(2,) + shape + (3,))
        np.testing.assert_allclose(np.matvec(wedge(x), y), geom.cross3(x, y), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(1,), (8,), (4, 5)])
    def test_stacked_cross3_equals_the_per_row_float_path_bit_for_bit(self, shape):
        # the six products at once and their halves' difference round as the
        # float path's, and a signed zero, an inf or a NaN comes out alike
        rng = np.random.default_rng(len(shape))
        values = np.array([0.0, -0.0, 1.5, -2.25, 3.0, 1e308, -1e-310, np.inf, -np.inf, np.nan])
        a, b = rng.choice(values, size=(2,) + shape + (3,))
        a.reshape(-1, 3)[0], b.reshape(-1, 3)[0] = rng.normal(size=3), rng.normal(size=3)
        with np.errstate(invalid="ignore", over="ignore"):
            for x, y in ((a, b), (a.reshape(-1, 3)[0], b), (a, b.reshape(-1, 3)[0])):
                got = geom.cross3(x, y)
                rows = np.broadcast_arrays(x, y)
                want = np.array([geom.cross3(xi, yi) for xi, yi in zip(rows[0].reshape(-1, 3), rows[1].reshape(-1, 3))])
                assert got.shape == shape + (3,) and got.tobytes() == want.tobytes()

    def test_wedge_map_is_built_from_the_single_calls(self):
        assert geom._WEDGE.tobytes() == np.stack([wedge(e).ravel() for e in np.eye(3)]).tobytes()
        assert wedge(np.zeros((0, 3))).shape == (0, 3, 3)

    def test_vee_example(self):
        m = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        np.testing.assert_allclose(vee(m), [1.0, 2.0, 3.0])

    def test_vee_zero(self):
        np.testing.assert_array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_roundtrips(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=3)
            np.testing.assert_allclose(vee(wedge(x)), x, atol=1e-15)
            m = wedge(rng.normal(size=3))
            np.testing.assert_allclose(wedge(vee(m)), m, atol=1e-14)

    def test_vee_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            vee(np.eye(3))


class TestExpLog:
    def test_exp_zero(self):
        np.testing.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))

    def test_exp_quarter_turn_x(self):
        r = exp_so3(np.array([math.pi / 2, 0, 0]))
        expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(r, expected, atol=1e-15)

    def test_log_identity(self):
        np.testing.assert_array_equal(log_so3(np.eye(3)), np.zeros(3))

    def test_log_small_z_rotation(self):
        np.testing.assert_allclose(log_so3(rot_z(math.degrees(0.3))), [0, 0, 0.3], atol=1e-12)

    def test_log_at_pi(self):
        r = exp_so3(np.array([math.pi, 0, 0]))
        assert abs(np.trace(r) + 1.0) < 1e-12
        out = log_so3(r)
        assert abs(np.linalg.norm(out) - math.pi) < 1e-9
        np.testing.assert_allclose(np.abs(out), [math.pi, 0, 0], atol=1e-9)
        np.testing.assert_allclose(exp_so3(out), r, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-9, 1e-5, 0.5, 2.0, 3.0])
    def test_roundtrip_random(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = random_unit_vector(rng) * min(scale * rng.uniform(0.5, 1.0), math.pi - 1e-6)
            np.testing.assert_allclose(log_so3(exp_so3(x)), x, atol=1e-9)

    def test_roundtrip_near_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            x = random_unit_vector(rng) * (math.pi - 10 ** rng.uniform(-8, -1))
            np.testing.assert_allclose(log_so3(exp_so3(x)), x, atol=1e-7)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        angle=st.one_of(
            st.floats(0.0, 1e-4, exclude_max=True),
            st.floats(1e-4, math.pi),
            st.floats(1e-16, 1e-7).map(lambda gap: math.pi - gap),
        ),
    )
    def test_exp_matches_matrix_exponential(self, seed, angle):
        x = angle * random_unit_vector(np.random.default_rng(seed))
        np.testing.assert_allclose(exp_so3(x), expm(wedge(x)), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_exp_of_non_finite_input_is_all_nan(self, bad):
        assert np.all(np.isnan(exp_so3(np.array([0.1, bad, -0.2]))))

    def test_exp_output_is_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert is_rotation(exp_so3(rng.normal(size=3) * 2.0))


class TestExpStack:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_single_calls_bit_for_bit(self, seed):
        # Haar-random axes at generic angles, angles just either side of
        # SMALL_ANGLE and within 1e-7 of pi, the zero vector, and non-finite
        # rows; np.sin/np.cos must round as math.sin/math.cos do for this
        rng = np.random.default_rng(seed)
        angles = np.concatenate(
            [
                rng.uniform(0.0, math.pi, 8),
                SMALL_ANGLE * (1.0 - rng.uniform(0.0, 1e-9, 4)),
                SMALL_ANGLE * (1.0 + rng.uniform(0.0, 1e-9, 4)),
                [SMALL_ANGLE, math.pi],
                math.pi + rng.uniform(-1e-7, 1e-7, 8),
            ]
        )
        axes = np.array([random_unit_vector(rng) for _ in angles])
        x = np.concatenate([angles[:, None] * axes, np.zeros((1, 3))])
        bad = np.array([[math.nan, 0.1, 0.2], [0.1, math.inf, 0.0], [-math.inf, 0.0, 0.0], [math.nan] * 3])
        x = np.concatenate([x, bad])[rng.permutation(len(x) + len(bad))]
        stack = exp_so3(x)
        assert stack.shape == (len(x), 3, 3)
        for row, xi in zip(stack, x):
            assert row.tobytes() == exp_so3(xi).tobytes()
        assert np.all(np.isnan(stack[~np.all(np.isfinite(x), axis=1)]))
        # any number of leading axes
        assert exp_so3(x.reshape(len(x), 1, 3)).tobytes() == stack.tobytes()
        # the float loop of a short stack
        assert exp_so3(x[:T]).tobytes() == stack[:T].tobytes()

    def test_empty_stack(self):
        assert exp_so3(np.zeros((0, 3))).shape == (0, 3, 3)

    @staticmethod
    def _rows_match(x):
        stack = exp_so3(x)
        assert stack.shape == x.shape + (3,)
        for row, xi in zip(stack, x):
            assert row.tobytes() == exp_so3(xi).tobytes()
        return stack

    @staticmethod
    def _generic(rng, n):
        # angles well inside [SMALL_ANGLE, pi]: _exp_so3_rows' fast branch
        return rng.uniform(0.01, math.pi, (n, 1)) * np.array([random_unit_vector(rng) for _ in range(n)])

    @pytest.mark.parametrize("n", [1, 2, 8, T, T + 1, 50])
    def test_signed_zero_components(self, n):
        # each component's sign bit reaches the products it enters, so a
        # zero's sign must survive as the single-vector call leaves it
        rng = np.random.default_rng(n)
        x = self._generic(rng, n)
        x[rng.uniform(size=x.shape) < 0.5] = 0.0
        x = np.copysign(x, rng.choice([-1.0, 1.0], size=x.shape))
        x[0] = [-0.0, 0.0, -0.0]
        self._rows_match(x)

    @pytest.mark.parametrize("n", [1, 2, 8, T, T + 1, 50])
    def test_finite_rows_whose_squares_overflow(self, n):
        rng = np.random.default_rng(n)
        x = self._generic(rng, n)
        x[rng.permutation(n)[: max(1, n // 2)], rng.integers(0, 3)] = 1e160 * rng.choice([-1.0, 1.0])
        overflowing = np.abs(x).max(axis=1) > 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = self._rows_match(x)
        assert np.all(np.isnan(stack[overflowing]))
        assert np.all(np.isfinite(stack[~overflowing]))

    @pytest.mark.parametrize("n", [T + 1, 50])
    def test_stack_without_small_or_non_finite_rows_takes_the_fast_branch(self, n, monkeypatch):
        x = self._generic(np.random.default_rng(n), n)
        expected = [exp_so3(xi).tobytes() for xi in x]
        # the small-angle and non-finite patches are _exp_so3_rows' only
        # np.where calls; a stack of at most T rows makes none, so it would
        # pass vacuously and is not run
        monkeypatch.setattr(np, "where", None)
        assert [row.tobytes() for row in exp_so3(x)] == expected

    @pytest.mark.parametrize("n", [1, 2, 8, T, T + 1, 50])
    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [SMALL_ANGLE / 2, 0.0, 0.0], [0.0, math.nan, 0.1], [math.inf, 0.0, 0.0]])
    def test_stack_with_exactly_one_small_or_non_finite_row(self, n, row):
        rng = np.random.default_rng(n)
        x = self._generic(rng, n)
        at = rng.integers(0, n)
        x[at] = row
        stack = self._rows_match(x)
        assert np.all(np.isfinite(np.delete(stack, at, axis=0)))

    def test_stacks_of_at_most_t_rows_take_the_float_loop(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = self._generic(rng, T + 1)
        x[1] = [SMALL_ANGLE / 2, 0.0, 0.0]
        expected = np.array([exp_so3(xi) for xi in x])

        def wide(x):
            raise AssertionError("wide path")

        monkeypatch.setattr(geom, "_exp_so3_rows", wide)
        assert exp_so3(x[:T]).tobytes() == expected[:T].tobytes()
        pairs = exp_so3(x[:T].reshape(T // 2, 2, 3))
        assert pairs.shape == (T // 2, 2, 3, 3)
        assert pairs.tobytes() == expected[:T].tobytes()
        with pytest.raises(AssertionError, match="wide path"):
            exp_so3(x)


class TestGroupOps:
    def test_identity(self):
        rng = np.random.default_rng(6)
        g = GroupElement(random_rotation(rng), rng.normal(size=3))
        out = group_compose(g, identity_element())
        np.testing.assert_allclose(out.rot, g.rot, atol=1e-15)
        np.testing.assert_allclose(out.vec, g.vec, atol=1e-15)

    def test_hand_evaluated_product(self):
        g1 = GroupElement(rot_z(90), np.array([1.0, 0.0, 0.0]))
        g2 = GroupElement(np.eye(3), np.array([0.0, 1.0, 0.0]))
        out = group_compose(g1, g2)
        np.testing.assert_allclose(out.rot, rot_z(90), atol=1e-15)
        np.testing.assert_allclose(out.vec, np.zeros(3), atol=1e-15)

    def test_inverse_examples(self):
        out = group_inverse(GroupElement(np.eye(3), np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.vec, [-1.0, -2.0, -3.0])
        ident = group_inverse(identity_element())
        np.testing.assert_array_equal(ident.rot, np.eye(3))
        np.testing.assert_array_equal(ident.vec, np.zeros(3))

    def test_group_axioms_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = GroupElement(random_rotation(rng), rng.normal(size=3))
            h = GroupElement(random_rotation(rng), rng.normal(size=3))
            k = GroupElement(random_rotation(rng), rng.normal(size=3))
            gi = group_inverse(g)
            prod = group_compose(g, gi)
            np.testing.assert_allclose(prod.rot, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(prod.vec, np.zeros(3), atol=1e-12)
            left = group_compose(group_compose(g, h), k)
            right = group_compose(g, group_compose(h, k))
            np.testing.assert_allclose(left.rot, right.rot, atol=1e-12)
            np.testing.assert_allclose(left.vec, right.vec, atol=1e-12)


class TestRandomRotation:
    def test_deterministic_given_seed(self):
        a = random_rotation(np.random.default_rng(42))
        b = random_rotation(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_always_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = random_rotation(rng)
            assert is_rotation(r)
            np.testing.assert_allclose(np.linalg.norm(r, axis=0), 1.0, atol=1e-12)

    def test_haar_mean_is_zero(self):
        # entries of a Haar rotation have mean 0 and variance 1/3, so the
        # sample mean over n draws stays within 3/sqrt(3 n) at 3 sigma
        rng = np.random.default_rng(9)
        n = 100_000
        acc = np.zeros((3, 3))
        for _ in range(n):
            acc += random_rotation(rng)
        bound = 3.0 / math.sqrt(3.0 * n)
        assert np.max(np.abs(acc / n)) < bound


class TestRotationAngle:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(10)
        r = random_rotation(rng)
        assert rotation_angle(r, r) < 1e-12

    def test_known_angle(self):
        assert abs(rotation_angle(np.eye(3), exp_so3(np.array([0.5, 0, 0]))) - 0.5) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_angle(r1, r2) - rotation_angle(r2, r1)) < 1e-10


def test_project_so3_restores_drifted_matrix():
    rng = np.random.default_rng(12)
    r = random_rotation(rng)
    drifted = r + 1e-6 * rng.normal(size=(3, 3))
    fixed = project_so3(drifted)
    assert is_rotation(fixed)
    assert rotation_angle(r, fixed) < 1e-5
