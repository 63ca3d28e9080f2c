import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit.prox import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    L21Norm,
    LineIndicator,
    PointIndicator,
    ProxFn,
    TiltedFn,
    WeightedL1,
    distance_to_set,
    prox,
    prox_conjugate,
)
from proxsplit.prox import _MEMBERSHIP_ATOL as ATOL

RNG = np.random.default_rng(42)


def _kind_zoo(dim=4):
    """One instance of every function kind on a common dimension."""
    n_pairs = dim // 2
    return [
        BoxIndicator(np.full(dim, -1.0), np.full(dim, 2.0)),
        BallIndicator(RNG.standard_normal(dim), 1.5),
        LineIndicator(RNG.standard_normal(dim), RNG.standard_normal(dim)),
        PointIndicator(),
        WeightedL1(0.7, shift=RNG.standard_normal(dim)),
        EuclideanNorm(),
        L21Norm(0.9, n_pairs),
        TiltedFn(WeightedL1(1.2), RNG.standard_normal(dim)),
    ]


class TestProxExamples:
    def test_ball_radial(self):
        f = BallIndicator((5.0, 0.0), 2.0)
        assert np.allclose(prox(f, 1.0, [0.0, 0.0]), [3.0, 0.0])

    def test_box_clamp(self):
        f = BoxIndicator([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(prox(f, 1.0, [-1.0, 0.5]), [0.0, 0.5])

    def test_weighted_l1_soft_threshold_vs_moreau_oracle(self):
        f = WeightedL1(1.0)
        x = np.array([2.0, -0.5])
        got = prox(f, 1.0, x)
        assert np.allclose(got, [1.0, 0.0])
        # independent oracle: x - gamma * P_[-1,1](x / gamma)
        oracle = x - 1.0 * np.clip(x / 1.0, -1.0, 1.0)
        assert np.allclose(got, oracle, atol=1e-14)

    def test_line_vertical_drop(self):
        f = LineIndicator((1.0, 6.0), (1.0, 0.0))
        assert np.allclose(prox(f, 1.0, [-1.0, 3.0]), [-1.0, 6.0])

    def test_indicator_prox_gamma_independent(self):
        x = RNG.standard_normal(3)
        f = BallIndicator(np.zeros(3), 0.5)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox(f, gamma, x), prox(f, 1.0, x))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            prox(EuclideanNorm(), 0.0, [1.0])
        with pytest.raises(ValueError):
            prox_conjugate(EuclideanNorm(), -1.0, [1.0])


class TestConjugateProx:
    def test_norm_conjugate_is_unit_ball_projection(self):
        f = EuclideanNorm()
        got = prox_conjugate(f, 1.0, [3.0, 0.0])
        assert np.allclose(got, [1.0, 0.0])
        # oracle: direct projection onto the unit ball
        x = RNG.standard_normal(5) * 3.0
        ball = BallIndicator(np.zeros(5), 1.0)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox_conjugate(f, gamma, x), ball.prox(x), atol=1e-12)

    def test_point_indicator_conjugate_is_identity(self):
        f = PointIndicator()
        x = RNG.standard_normal(4)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox_conjugate(f, gamma, x), x, atol=1e-14)

    def test_moreau_identity_all_kinds(self):
        # prox of gamma*f at x plus gamma times the prox of (1/gamma)*f* at
        # x/gamma reconstructs x; the conjugate side goes through
        # prox_conjugate so both code paths are exercised.
        for f in _kind_zoo():
            for gamma in (0.1, 1.0, 10.0):
                for _ in range(100):
                    x = RNG.standard_normal(4) * RNG.uniform(0.5, 5.0)
                    conj_part = prox_conjugate(f, 1.0 / gamma, x / gamma)
                    assert np.allclose(prox(f, gamma, x) + gamma * conj_part, x, atol=1e-10)


class TestFirmNonexpansiveness:
    def test_inner_product_bound(self):
        for f in _kind_zoo():
            for _ in range(30):
                gamma = float(RNG.uniform(0.2, 5.0))
                x = RNG.standard_normal(4) * 2.0
                y = RNG.standard_normal(4) * 2.0
                px = prox(f, gamma, x)
                py = prox(f, gamma, y)
                lhs = float(np.dot(px - py, px - py))
                rhs = float(np.dot(px - py, x - y))
                assert lhs <= rhs + 1e-10

    def test_nonexpansive(self):
        for f in _kind_zoo():
            gamma = 1.3
            x = RNG.standard_normal(4)
            y = RNG.standard_normal(4)
            assert np.linalg.norm(prox(f, gamma, x) - prox(f, gamma, y)) <= np.linalg.norm(x - y) + 1e-12


class TestProjections:
    def test_idempotent(self):
        indicators = [
            BoxIndicator([-0.5, -0.5], [0.5, 0.5]),
            BallIndicator([1.0, 2.0], 0.7),
            LineIndicator([0.0, 1.0], [2.0, 1.0]),
            PointIndicator(),
        ]
        eps = np.finfo(float).eps
        for f in indicators:
            for _ in range(20):
                x = RNG.standard_normal(2) * 4.0
                once = prox(f, 1.0, x)
                twice = prox(f, 1.0, once)
                # equal up to representation: boundary points may move by ulps
                tol = 4 * eps * (1.0 + np.abs(once).max())
                assert np.abs(once - twice).max() <= tol

    def test_pixel_discs(self):
        # L21Norm's conjugate prox projects each (p, q) pair onto the disc of
        # radius weight, whatever gamma
        f = L21Norm(1.0, 3)
        for gamma in (0.1, 1.0, 10.0):
            pq = f.conjugate_prox([0.0, 3.0, 0.3, 0.0, 4.0, 0.2], gamma)
            assert np.allclose(pq, [0.0, 0.6, 0.3, 0.0, 0.8, 0.2])
            # idempotent, including on the boundary
            assert np.array_equal(f.conjugate_prox(pq, gamma), pq)
        boundary = np.array([3.0, 4.0])
        assert np.array_equal(L21Norm(5.0, 1).conjugate_prox(boundary, 1.0), boundary)

    def test_pixel_discs_shape_mismatch(self):
        with pytest.raises(ValueError, match="expected dim 4"):
            L21Norm(1.0, 2).conjugate_prox([1.0, 2.0, 1.0], 1.0)


_DUAL_BALLS = ("l1", "norm", "l21")
_ALL_CLOSED_FORMS = _DUAL_BALLS + ("l1-shift", "point-origin", "point")
_ENTRY = st.floats(-50.0, 50.0)
# Relative offsets from the dual-ball boundary, down to a few ulps.
_EDGE_OFFSET = st.sampled_from([0.0, 4e-16, -4e-16, 1e-12, -1e-12, 1e-6, -1e-6])


def _vector(draw, dim, elements=_ENTRY):
    return np.array(draw(st.lists(elements, min_size=dim, max_size=dim)))


@st.composite
def _conjugate_cases(draw, kinds):
    """(f, x, gamma) for a function with a closed-form conjugate prox; with
    ``on_edge`` x is moved onto or next to the boundary of the dual ball."""
    kind = draw(st.sampled_from(kinds))
    n_pairs = draw(st.integers(1, 4))
    dim = 2 * n_pairs
    x = _vector(draw, dim)
    gamma = draw(st.floats(0.05, 20.0))
    on_edge = draw(st.booleans())
    radius = draw(st.floats(0.01, 10.0))

    def edge(r):
        return r * (1.0 + draw(_EDGE_OFFSET))

    if kind in ("l1", "l1-shift"):
        shift = _vector(draw, dim, st.floats(-10.0, 10.0)) if kind == "l1-shift" else 0.0
        f = WeightedL1(radius, shift=shift)
        if on_edge:
            # the clip argument x - gamma * shift sits at +-weight
            signs = np.where(_vector(draw, dim, st.booleans()), 1.0, -1.0)
            x = gamma * f.shift + signs * edge(radius)
    elif kind == "norm":
        f = EuclideanNorm()
        n = np.linalg.norm(x)
        # rescaling a near-zero vector would overflow to inf
        if on_edge and n > 1e-6:
            x = x * (edge(1.0) / n)
    elif kind == "l21":
        f = L21Norm(radius, n_pairs)
        r = np.hypot(x[:n_pairs], x[n_pairs:])
        if on_edge and np.all(r > 1e-6):
            x = x * np.tile(edge(radius) / r, 2)
    elif kind == "point-origin":
        f = PointIndicator(draw(st.sampled_from([None, np.zeros(dim)])))
    else:
        point = _vector(draw, dim)
        f = PointIndicator(point if np.any(point) else np.ones(dim))
    return f, x, gamma


class TestClosedFormConjugates:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_conjugate_cases(_ALL_CLOSED_FORMS))
    def test_matches_moreau_route(self, case):
        f, x, gamma = case
        got = f.conjugate_prox(x, gamma)
        ref = ProxFn.conjugate_prox(f, x, gamma)
        assert got.shape == x.shape
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(x).max())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_conjugate_cases(_DUAL_BALLS))
    def test_dual_ball_projections_idempotent(self, case):
        f, x, gamma = case
        once = f.conjugate_prox(x, gamma)
        twice = f.conjugate_prox(once, gamma)
        # equal up to representation: boundary points may move by ulps
        tol = 4 * np.finfo(float).eps * (1.0 + np.abs(once).max())
        assert np.abs(once - twice).max() <= tol


class TestDistance:
    def test_inside_is_zero(self):
        f = BoxIndicator([0.0], [1.0])
        assert distance_to_set(f, [0.5]) == 0.0

    def test_ball_distance(self):
        f = BallIndicator([5.0, 0.0], 2.0)
        assert distance_to_set(f, [0.0, 0.0]) == pytest.approx(3.0, abs=1e-12)

    def test_square_corner(self):
        f = BoxIndicator([-0.5, -0.5], [0.5, 0.5])
        assert distance_to_set(f, [2.0, 2.0]) == pytest.approx(1.5 * math.sqrt(2.0), abs=1e-12)

    def test_rejects_non_indicator(self):
        with pytest.raises(ValueError):
            distance_to_set(EuclideanNorm(), [1.0])

    def test_lipschitz(self):
        f = BallIndicator(RNG.standard_normal(3), 1.0)
        for _ in range(100):
            x = RNG.standard_normal(3) * 5.0
            y = RNG.standard_normal(3) * 5.0
            dd = abs(distance_to_set(f, x) - distance_to_set(f, y))
            assert dd <= np.linalg.norm(x - y) + 1e-12


class TestEvaluation:
    def test_indicator_values(self):
        f = BoxIndicator([0.0, 0.0], [1.0, 1.0])
        assert f([0.3, 0.9]) == 0.0
        assert f([1.5, 0.5]) == math.inf

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 1.0), (np.zeros(3), np.ones(3)), ([0.0, -1.0, 2.0], [1.0, 0.0, 3.0])],
        ids=["scalar", "per-component", "per-component-distinct"],
    )
    def test_box_membership_edges(self, lo, hi):
        f = BoxIndicator(lo, hi)
        lo, hi = np.broadcast_to(lo, 3), np.broadcast_to(hi, 3)
        assert f(0.5 * (lo + hi)) == 0.0
        # a point up to ATOL outside a bound still counts as inside
        for edge in (lo - 0.5 * ATOL, lo - ATOL, hi + 0.5 * ATOL, hi + ATOL):
            assert f(edge) == 0.0
        for i in range(3):
            for value in (lo[i] - 1e-9, hi[i] + 1e-9, np.nan):
                x = 0.5 * (lo + hi)
                x[i] = value
                assert f(x) == math.inf

    def test_box_nan_anywhere_is_outside(self):
        for f in (BoxIndicator(0.0, 1.0), BoxIndicator(np.zeros((8, 8)), np.ones((8, 8)))):
            for i in range(64):
                x = np.full((8, 8), 0.5)
                x.flat[i] = np.nan
                assert f(x) == math.inf
        assert BoxIndicator(-np.inf, np.inf)([0.0, np.nan]) == math.inf
        assert BoxIndicator(-np.inf, np.inf)([-np.inf, np.inf]) == 0.0

    def test_norm_values(self):
        assert EuclideanNorm()([3.0, 4.0]) == pytest.approx(5.0)
        assert WeightedL1(2.0, shift=[1.0, 0.0])([2.0, -3.0]) == pytest.approx(8.0)
        assert L21Norm(2.0, 2)([3.0, 0.0, 4.0, 1.0]) == pytest.approx(2 * (5.0 + 1.0))

    def test_tilt(self):
        f = TiltedFn(WeightedL1(1.0), [1.0, -1.0])
        assert f([2.0, 2.0]) == pytest.approx(4.0 + 0.0)
