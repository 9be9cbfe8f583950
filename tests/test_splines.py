import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentgam.errors import OutOfDomainError
from rentgam.splines import (
    bspline_basis,
    difference_penalty,
    interaction_constraint_transform,
    make_knots,
    sum_to_zero_transform,
    tensor_basis,
    tensor_penalty,
)


def cox_de_boor(x, t, j, d):
    """Textbook recursive definition, one basis function at a time."""
    if d == 0:
        return 1.0 if t[j] <= x < t[j + 1] else 0.0
    left = (x - t[j]) / (t[j + d] - t[j]) * cox_de_boor(x, t, j, d - 1)
    right = (t[j + d + 1] - x) / (t[j + d + 1] - t[j + 1]) * cox_de_boor(
        x, t, j + 1, d - 1
    )
    return left + right


def dense_bspline_basis(x, kv):
    """The dense Cox-de Boor recurrence over every knot interval: the
    oracle of the banded evaluation in ``bspline_basis``."""
    x = np.asarray(x, dtype=float).ravel()
    t = kv.knots
    b = ((x[:, None] >= t[None, :-1]) & (x[:, None] < t[None, 1:])).astype(float)
    at_hi = x == kv.hi
    if at_hi.any():
        b[at_hi, :] = 0.0
        b[at_hi, kv.degree + kv.segments - 1] = 1.0
    for d in range(1, kv.degree + 1):
        left = (x[:, None] - t[None, : -d - 1]) / (t[d:-1] - t[: -d - 1])
        right = (t[None, d + 1 :] - x[:, None]) / (t[d + 1 :] - t[1:-d])
        b = left * b[:, :-1] + right * b[:, 1:]
    return b


class TestKnots:
    def test_layout(self):
        kv = make_knots(0.0, 1.0, segments=4, degree=3)
        assert kv.dimension == 7
        # 5 boundary-to-boundary knots plus 3 padding knots per side
        assert len(kv.knots) == 11
        assert np.allclose(np.diff(kv.knots), 0.25)
        assert kv.knots[3] == 0.0 and kv.knots[7] == 1.0

    def test_degenerate_domain(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_knots(2.0, 2.0, segments=4)
        with pytest.raises(ValueError):
            make_knots(0.0, 1.0, segments=0)
        with pytest.raises(ValueError):
            make_knots(0.0, 1.0, segments=4, degree=0)


class TestBasis:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_recursive_definition(self, degree):
        kv = make_knots(-1.0, 3.0, segments=6, degree=degree)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 3.0, size=20)
        x = x[x < 3.0]
        b = bspline_basis(x, kv)
        expected = np.array(
            [
                [cox_de_boor(xi, kv.knots, j, degree) for j in range(kv.dimension)]
                for xi in x
            ]
        )
        assert np.max(np.abs(b - expected)) < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_partition_of_unity(self, degree):
        kv = make_knots(0.0, 10.0, segments=7, degree=degree)
        x = np.linspace(0.0, 10.0, 1000)
        b = bspline_basis(x, kv)
        assert np.max(np.abs(b.sum(axis=1) - 1.0)) < 1e-10

    def test_shape_and_nonnegativity(self):
        kv = make_knots(0.0, 1.0, segments=10, degree=3)
        x = np.linspace(0.0, 1.0, 57)
        b = bspline_basis(x, kv)
        assert b.shape == (57, 13)
        assert (b >= 0.0).all()
        # cubic splines have at most degree+1 live functions per row
        assert ((b > 0).sum(axis=1) <= 4).all()

    def test_out_of_domain_names_value(self):
        kv = make_knots(0.0, 1.0, segments=4)
        with pytest.raises(OutOfDomainError, match="1.5"):
            bspline_basis(np.array([0.5, 1.5]), kv)
        with pytest.raises(OutOfDomainError):
            bspline_basis(np.array([np.nan]), kv)

    @pytest.mark.parametrize("bad, shown", [(-9.0, "-9.0"), (np.nan, "nan")])
    def test_out_of_domain_message_shows_plain_floats(self, bad, shown):
        # numpy 2's repr of a numpy float reads np.float64(-9.0)
        kv = make_knots(np.float64(0.0), np.float64(1.0), segments=4)
        with pytest.raises(OutOfDomainError) as info:
            bspline_basis(np.array([0.5, bad]), kv)
        assert str(info.value) == f"value {shown} outside basis domain [0.0, 1.0]"

    def test_linear_precision(self):
        # coefficients at the knot averages reproduce f(x) = x exactly
        kv = make_knots(0.0, 1.0, segments=5, degree=3)
        greville = np.array(
            [kv.knots[j + 1 : j + 4].mean() for j in range(kv.dimension)]
        )
        x = np.linspace(0.0, 1.0, 200)
        assert np.max(np.abs(bspline_basis(x, kv) @ greville - x)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.floats(-50, 50),
        width=st.floats(0.1, 100),
        segments=st.integers(1, 12),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_of_unity_property(self, lo, width, segments, degree, seed):
        kv = make_knots(lo, lo + width, segments=segments, degree=degree)
        x = np.random.default_rng(seed).uniform(lo, lo + width, size=40)
        b = bspline_basis(x, kv)
        assert np.max(np.abs(b.sum(axis=1) - 1.0)) < 1e-9


class TestBandedBasis:
    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        segments=st.integers(1, 20),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_dense_recurrence(self, lo, width, segments, degree, seed):
        kv = make_knots(lo, lo + width, segments=segments, degree=degree)
        inner = kv.knots[degree : degree + segments + 1]  # lo, knots, hi
        x = np.concatenate([
            np.random.default_rng(seed).uniform(kv.lo, kv.hi, size=30),
            inner, [kv.lo, kv.hi], np.nextafter(inner[1:], -np.inf),
        ])
        b = bspline_basis(x, kv)
        assert b.shape == (x.size, kv.dimension)
        assert np.array_equal(b, dense_bspline_basis(x, kv))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_out_of_domain_raises_like_the_dense_path(self, degree):
        kv = make_knots(-1.0, 2.0, segments=5, degree=degree)
        for bad in (np.nextafter(-1.0, -np.inf), np.nextafter(2.0, np.inf),
                    np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfDomainError, match="outside basis domain"):
                bspline_basis(np.array([0.0, bad]), kv)

    def test_empty_input(self):
        kv = make_knots(0.0, 1.0, segments=4)
        assert bspline_basis(np.array([]), kv).shape == (0, kv.dimension)


class TestPenalty:
    def test_hand_quadratic_form(self):
        # second differences of (0,0,1,0,0) are (1,-2,1): form = 6
        pen = difference_penalty(5, order=2)
        c = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert c @ pen @ c == pytest.approx(6.0, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_null_space_is_low_order_polynomials(self, order):
        dim = 10
        pen = difference_penalty(dim, order=order)
        idx = np.arange(dim, dtype=float)
        scale = np.abs(pen).max()
        for p in range(order):
            form = idx**p @ pen @ idx**p
            assert abs(form) < 1e-12 * scale * (dim**p) ** 2
        # the next polynomial degree is penalized
        form = idx**order @ pen @ idx**order
        assert form > 1e-6

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="exceed"):
            difference_penalty(2, order=2)
        with pytest.raises(ValueError):
            difference_penalty(5, order=0)


class TestTensor:
    def test_matches_brute_force_two_way(self):
        rng = np.random.default_rng(3)
        b1 = rng.normal(size=(20, 4))
        b2 = rng.normal(size=(20, 3))
        got = tensor_basis([b1, b2])
        expected = np.zeros((20, 12))
        for r in range(20):
            col = 0
            for i in range(4):
                for j in range(3):
                    expected[r, col] = b1[r, i] * b2[r, j]
                    col += 1
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_matches_brute_force_three_way(self):
        rng = np.random.default_rng(4)
        b1 = rng.normal(size=(15, 3))
        b2 = rng.normal(size=(15, 2))
        b3 = rng.normal(size=(15, 4))
        got = tensor_basis([b1, b2, b3])
        expected = np.zeros((15, 24))
        for r in range(15):
            col = 0
            for i in range(3):
                for j in range(2):
                    for k in range(4):
                        expected[r, col] = b1[r, i] * b2[r, j] * b3[r, k]
                        col += 1
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_partition_of_unity_carries_over(self):
        kv1 = make_knots(0.0, 1.0, segments=4)
        kv2 = make_knots(-2.0, 2.0, segments=5)
        x = np.random.default_rng(0).uniform(0, 1, size=30)
        y = np.random.default_rng(1).uniform(-2, 2, size=30)
        t = tensor_basis([bspline_basis(x, kv1), bspline_basis(y, kv2)])
        assert np.max(np.abs(t.sum(axis=1) - 1.0)) < 1e-10

    def test_mismatched_rows(self):
        with pytest.raises(ValueError, match="row count"):
            tensor_basis([np.ones((3, 2)), np.ones((4, 2))])
        with pytest.raises(ValueError):
            tensor_basis([np.ones((3, 2))])

    @pytest.mark.parametrize("widths", [(4, 3), (3, 2, 4)])
    def test_out_fills_its_column_slice(self, widths):
        rng = np.random.default_rng(6)
        margins = [rng.normal(size=(12, w)) for w in widths]
        total = int(np.prod(widths))
        x = np.full((12, total + 5), np.nan)
        got = tensor_basis(margins, out=x[:, 2 : 2 + total])
        assert np.shares_memory(got, x)
        assert np.array_equal(x[:, 2 : 2 + total], tensor_basis(margins))
        assert np.isnan(x[:, :2]).all() and np.isnan(x[:, 2 + total :]).all()

    def test_tensor_basis_shape(self):
        kv1 = make_knots(0.0, 1.0, segments=4)
        kv2 = make_knots(0.0, 1.0, segments=5)
        x = np.linspace(0, 1, 9)
        m = tensor_basis([bspline_basis(x, kv1), bspline_basis(x, kv2)])
        assert m.shape == (9, kv1.dimension * kv2.dimension)


class TestTensorPenalty:
    def test_direction_form_equals_slice_sums(self):
        # penalty in one direction = sum of univariate forms over slices
        d1, d2 = 5, 4
        p1 = difference_penalty(d1, 2)
        p2 = difference_penalty(d2, 2)
        lifted = tensor_penalty([p1, p2], (d1, d2))
        rng = np.random.default_rng(11)
        theta = rng.normal(size=d1 * d2)
        arr = theta.reshape(d1, d2)
        form0 = sum(arr[:, j] @ p1 @ arr[:, j] for j in range(d2))
        form1 = sum(arr[i, :] @ p2 @ arr[i, :] for i in range(d1))
        assert theta @ lifted[0] @ theta == pytest.approx(form0, rel=1e-12)
        assert theta @ lifted[1] @ theta == pytest.approx(form1, rel=1e-12)

    def test_dimension_mismatch(self):
        p = difference_penalty(4, 2)
        with pytest.raises(ValueError, match="dimension"):
            tensor_penalty([p, p], (4, 5))


class TestConstraints:
    def test_sum_to_zero(self):
        kv = make_knots(0.0, 1.0, segments=6)
        b = bspline_basis(np.random.default_rng(5).uniform(0, 1, 80), kv)
        tr = sum_to_zero_transform(b.sum(axis=0))
        assert tr.z.shape[1] == kv.dimension - 1
        assert np.max(np.abs(b.sum(axis=0) @ tr.z)) < 1e-10
        assert np.max(np.abs(tr.z.T @ tr.z - np.eye(tr.z.shape[1]))) < 1e-12
        constrained = tr.apply(b)
        assert np.max(np.abs(constrained.sum(axis=0))) < 1e-9

    def test_sum_to_zero_rejects_degenerate(self):
        with pytest.raises(ValueError, match="zero"):
            sum_to_zero_transform(np.zeros(3))
        with pytest.raises(ValueError, match="columns"):
            sum_to_zero_transform(np.ones(1))

    def test_interaction_two_by_two(self):
        tr = interaction_constraint_transform((2, 2))
        assert tr.z.shape[1] == 1
        z = tr.z.ravel()
        expected = np.array([0.5, -0.5, -0.5, 0.5])
        assert np.allclose(z, expected) or np.allclose(z, -expected)

    def test_interaction_properties(self):
        dims = (3, 4)
        tr = interaction_constraint_transform(dims)
        assert tr.z.shape[1] == 2 * 3
        assert np.max(np.abs(tr.z.T @ tr.z - np.eye(6))) < 1e-12
        # every coefficient the transform can produce has zero slice sums
        theta = np.random.default_rng(8).normal(size=6)
        arr = (tr.z @ theta).reshape(dims)
        assert np.max(np.abs(arr.sum(axis=0))) < 1e-12
        assert np.max(np.abs(arr.sum(axis=1))) < 1e-12

    def test_interaction_three_way_slice_sums(self):
        dims = (3, 2, 4)
        tr = interaction_constraint_transform(dims)
        assert tr.z.shape[1] == 2 * 1 * 3
        theta = np.random.default_rng(9).normal(size=tr.z.shape[1])
        arr = (tr.z @ theta).reshape(dims)
        for axis in range(3):
            assert np.max(np.abs(arr.sum(axis=axis))) < 1e-12

    def test_interaction_rejects_degenerate(self):
        with pytest.raises(ValueError, match="dimension 1"):
            interaction_constraint_transform((1, 4))
        with pytest.raises(ValueError, match="two margins"):
            interaction_constraint_transform((5,))
