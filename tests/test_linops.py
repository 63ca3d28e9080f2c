import math

import numpy as np
import pytest

from proxsplit.linops import (
    CountingOp,
    GaussianBlurOp,
    GradientOp,
    HaarOp,
    IdentityOp,
    MatrixOp,
    gaussian_kernel,
    op_norm_estimate,
)

def _adjoint_identity(op, rng, n_pairs=100, rel=1e-9):
    for _ in range(n_pairs):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.adjoint(y)))
        scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
        assert abs(lhs - rhs) <= rel * scale


class TestOperatorContract:
    """What every shipped operator promises the solvers."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: MatrixOp(rng.standard_normal((7, 5))),
            lambda rng: IdentityOp(6),
            lambda rng: GradientOp((6, 9)),
            lambda rng: HaarOp((2, 6), levels=1),
            lambda rng: HaarOp((8, 12), levels=2),
            lambda rng: HaarOp((16, 8), levels=3),
            lambda rng: HaarOp((16, 48), levels=4),
            lambda rng: GaussianBlurOp((12, 10)),
        ],
        ids=["matrix", "identity", "gradient-6x9", "haar1-2x6", "haar2-8x12", "haar3-16x8", "haar4-16x48", "blur"],
    )
    def test_adjoint_shape_and_input_untouched(self, make, rng):
        op = make(rng)
        _adjoint_identity(op, rng)
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        x_before, y_before = x.copy(), y.copy()
        lx = op.apply(x)
        lty = op.adjoint(y)
        assert lx.shape == (op.out_dim,)
        assert lty.shape == (op.in_dim,)
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)

    def test_haar_coefficient_layout(self):
        out = HaarOp((2, 2), levels=1).apply(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert np.abs(out - [3.0, -1.0, -2.0, 0.0]).max() <= 1e-15


class TestGradient:
    def test_constant_image(self):
        out = GradientOp((5, 7)).apply(np.full((5, 7), 3.14))
        assert not out.any()

    def test_two_by_two(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        p, q = GradientOp((2, 2)).apply(x).reshape(2, 2, 2)
        assert np.array_equal(p, [[2.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(q, [[1.0, 0.0], [1.0, 0.0]])

    def test_adjoint_zero(self):
        out = GradientOp((4, 4)).adjoint(np.zeros(32))
        assert not out.any()

    def test_operator_form(self, rng):
        op = GradientOp((8, 6))
        assert op.in_dim == 48 and op.out_dim == 96
        _adjoint_identity(op, rng)

    def test_composition_norm_bound(self, rng):
        # gradient of the adjoint output stays below bound^2 = 8 times input
        op = GradientOp((8, 8))
        for _ in range(50):
            y = rng.standard_normal(op.out_dim)
            z = op.apply(op.adjoint(y))
            assert np.linalg.norm(z) <= 8.0 * np.linalg.norm(y) * (1 + 1e-12)


class TestHaar:
    def test_constant_image_single_coarse_coefficient(self):
        c = HaarOp((16, 16), levels=4).apply(np.ones(256))
        grid = c.reshape(16, 16)
        assert grid[0, 0] == pytest.approx(16.0, abs=1e-12)
        rest = grid.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_parseval(self, rng):
        op = HaarOp((32, 32))
        for _ in range(20):
            x = rng.standard_normal(op.in_dim)
            c = op.apply(x)
            assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_round_trip(self, rng):
        op = HaarOp((16, 48))
        for _ in range(20):
            x = rng.standard_normal(op.in_dim)
            back = op.adjoint(op.apply(x))
            assert np.abs(back - x).max() <= 1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            HaarOp((12, 16))
        with pytest.raises(ValueError):
            HaarOp((16, 20))

    def test_operator_adjoint(self, rng):
        op = HaarOp((16, 16))
        _adjoint_identity(op, rng)

    def test_declared_bound_configurable(self):
        op = HaarOp((16, 16), norm_bound=2.0 ** -8)
        assert op.norm_bound == 2.0 ** -8
        assert HaarOp((16, 16)).norm_bound == 1.0


class TestBlur:
    def test_kernel_normalized(self):
        k = gaussian_kernel(9, 4.0)
        assert k.sum() == pytest.approx(1.0, abs=1e-14)
        assert k.shape == (9,)
        assert np.array_equal(k, k[::-1])

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            gaussian_kernel(8, 4.0)
        with pytest.raises(ValueError):
            GaussianBlurOp((16, 16), kernel_size=4)

    def test_constant_preserved(self):
        op = GaussianBlurOp((16, 16))
        out = op.apply(np.full(256, 0.37))
        assert np.allclose(out, 0.37, atol=1e-13)

    def test_self_adjoint(self, rng):
        op = GaussianBlurOp((16, 16))
        for _ in range(100):
            x = rng.standard_normal(256)
            y = rng.standard_normal(256)
            lhs = float(np.dot(op.apply(x), y))
            rhs = float(np.dot(x, op.apply(y)))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1.0)

    def test_norm_estimate_near_one(self):
        op = GaussianBlurOp((32, 32))
        est = op_norm_estimate(op, iters=50, seed=0)
        assert 0.9 < est <= 1.0 + 1e-6


class TestMatrixAndIdentity:
    def test_matrix_adjoint(self, rng):
        op = MatrixOp(rng.standard_normal((7, 5)))
        _adjoint_identity(op, rng)

    def test_identity_norm(self):
        op = IdentityOp(6)
        assert op_norm_estimate(op, iters=1, seed=0) == pytest.approx(1.0, abs=1e-12)

    def test_declared_bound_is_spectral_norm(self, rng):
        a = rng.standard_normal((6, 4))
        op = MatrixOp(a)
        assert op.norm_bound == pytest.approx(np.linalg.norm(a, 2))


class TestNormEstimate:
    def test_diagonal(self):
        op = MatrixOp(np.diag([1.0, 2.0, 3.0]))
        assert op_norm_estimate(op, iters=200, seed=1) == pytest.approx(3.0, abs=1e-9)

    def test_zero_operator(self):
        op = MatrixOp(np.zeros((3, 3)), norm_bound=0.0)
        assert op_norm_estimate(op, iters=5, seed=0) == 0.0

    def test_monotone_in_iters(self, rng):
        op = MatrixOp(rng.standard_normal((10, 10)))
        vals = [op_norm_estimate(op, iters=k, seed=5) for k in (1, 2, 5, 10, 30)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-15
        assert vals[-1] <= op.norm_bound * (1 + 1e-6)

    def test_gradient_norm_on_64(self):
        op = GradientOp((64, 64))
        est = op_norm_estimate(op, iters=300, seed=0)
        assert 2.7 < est <= math.sqrt(8.0) * (1 + 1e-9)

    def test_estimate_below_declared_bound_for_shipped_ops(self, rng):
        ops = [
            GradientOp((16, 16)),
            HaarOp((16, 16)),
            GaussianBlurOp((16, 16)),
            IdentityOp(8),
            MatrixOp(rng.standard_normal((5, 9))),
        ]
        for op in ops:
            est = op_norm_estimate(op, iters=100, seed=2)
            assert est <= op.norm_bound * (1 + 1e-6)


class TestCountingOp:
    def test_counts(self):
        op = CountingOp(IdentityOp(3))
        x = np.ones(3)
        op.apply(x)
        op.apply(x)
        op.adjoint(x)
        assert (op.n_apply, op.n_adjoint) == (2, 1)
        op.reset()
        assert (op.n_apply, op.n_adjoint) == (0, 0)
