import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from proxsplit.prox import _norm

EPS = np.finfo(float).eps


def _kind_zoo(rng, dim=4):
    """One instance of every function kind on a common dimension, with the
    centres, bases, directions, shifts and tilts drawn from ``rng``."""
    n_pairs = dim // 2
    return [
        BoxIndicator(np.full(dim, -1.0), np.full(dim, 2.0)),
        BallIndicator(rng.standard_normal(dim), 1.5),
        LineIndicator(rng.standard_normal(dim), rng.standard_normal(dim)),
        PointIndicator(),
        WeightedL1(0.7, shift=rng.standard_normal(dim)),
        EuclideanNorm(),
        L21Norm(0.9, n_pairs),
        TiltedFn(WeightedL1(1.2), rng.standard_normal(dim)),
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

    def test_indicator_prox_gamma_independent(self, rng):
        x = rng.standard_normal(3)
        f = BallIndicator(np.zeros(3), 0.5)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox(f, gamma, x), prox(f, 1.0, x))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            prox(EuclideanNorm(), 0.0, [1.0])
        with pytest.raises(ValueError):
            prox_conjugate(EuclideanNorm(), -1.0, [1.0])


class TestConjugateProx:
    def test_norm_conjugate_is_unit_ball_projection(self, rng):
        f = EuclideanNorm()
        got = prox_conjugate(f, 1.0, [3.0, 0.0])
        assert np.allclose(got, [1.0, 0.0])
        # oracle: direct projection onto the unit ball
        x = rng.standard_normal(5) * 3.0
        ball = BallIndicator(np.zeros(5), 1.0)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox_conjugate(f, gamma, x), ball.prox(x), atol=1e-12)

    def test_point_indicator_conjugate_is_identity(self, rng):
        f = PointIndicator()
        x = rng.standard_normal(4)
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(prox_conjugate(f, gamma, x), x, atol=1e-14)

    def test_moreau_identity_all_kinds(self, rng):
        # prox of gamma*f at x plus gamma times the prox of (1/gamma)*f* at
        # x/gamma reconstructs x; the conjugate side goes through
        # prox_conjugate so both code paths are exercised.
        for f in _kind_zoo(rng):
            for gamma in (0.1, 1.0, 10.0):
                for _ in range(100):
                    x = rng.standard_normal(4) * rng.uniform(0.5, 5.0)
                    conj_part = prox_conjugate(f, 1.0 / gamma, x / gamma)
                    assert np.allclose(prox(f, gamma, x) + gamma * conj_part, x, atol=1e-10)


class TestFirmNonexpansiveness:
    def test_inner_product_bound(self, rng):
        for f in _kind_zoo(rng):
            for _ in range(30):
                gamma = float(rng.uniform(0.2, 5.0))
                x = rng.standard_normal(4) * 2.0
                y = rng.standard_normal(4) * 2.0
                px = prox(f, gamma, x)
                py = prox(f, gamma, y)
                lhs = float(np.dot(px - py, px - py))
                rhs = float(np.dot(px - py, x - y))
                assert lhs <= rhs + 1e-10

    def test_nonexpansive(self, rng):
        for f in _kind_zoo(rng):
            gamma = 1.3
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert np.linalg.norm(prox(f, gamma, x) - prox(f, gamma, y)) <= np.linalg.norm(x - y) + 1e-12


class TestProjections:
    def test_idempotent(self, rng):
        indicators = [
            BoxIndicator([-0.5, -0.5], [0.5, 0.5]),
            BallIndicator([1.0, 2.0], 0.7),
            LineIndicator([0.0, 1.0], [2.0, 1.0]),
            PointIndicator(),
        ]
        eps = np.finfo(float).eps
        for f in indicators:
            for _ in range(20):
                x = rng.standard_normal(2) * 4.0
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

    @pytest.mark.parametrize(
        "base, direction",
        [((0.0, 0.0), (np.inf, 0.0)), ((0.0, 0.0), (np.nan, 1.0)), ((-np.inf, 0.0), (1.0, 0.0)), ((0.0, np.nan), (0.0, 1.0))],
    )
    def test_line_rejects_a_non_finite_base_or_direction(self, base, direction):
        """Such a line projected every point to NaN, with numpy warnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="base and direction must be finite"):
                LineIndicator(base, direction)


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
    @settings(max_examples=300)
    @given(_conjugate_cases(_ALL_CLOSED_FORMS))
    def test_matches_moreau_route(self, case):
        f, x, gamma = case
        got = f.conjugate_prox(x, gamma)
        ref = ProxFn.conjugate_prox(f, x, gamma)
        assert got.shape == x.shape
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(x).max())

    @settings(max_examples=200)
    @given(_conjugate_cases(_DUAL_BALLS))
    def test_dual_ball_projections_idempotent(self, case):
        f, x, gamma = case
        once = f.conjugate_prox(x, gamma)
        twice = f.conjugate_prox(once, gamma)
        # equal up to representation: boundary points may move by ulps
        tol = 4 * np.finfo(float).eps * (1.0 + np.abs(once).max())
        assert np.abs(once - twice).max() <= tol


_GAMMA = st.floats(0.05, 20.0)
_POINT4 = st.lists(_ENTRY, min_size=4, max_size=4).map(np.array)


@st.composite
def _moreau_route_fn(draw):
    """(f, scale) for a function without a closed-form conjugate prox (box,
    ball, line, tilted) on random geometry in R^4; ``scale`` bounds the
    magnitudes of its data."""
    kind = draw(st.sampled_from(["box", "ball", "line", "tilted"]))
    a = draw(_POINT4)
    if kind == "box":
        widths = np.abs(draw(_POINT4))
        return BoxIndicator(a, a + widths), float(np.abs(a + widths).max())
    if kind == "ball":
        return BallIndicator(a, draw(st.floats(0.01, 20.0))), float(np.abs(a).max()) + 20.0
    if kind == "line":
        direction = draw(_POINT4.filter(lambda d: np.abs(d).max() > 1e-3))
        return LineIndicator(a, direction), float(np.abs(a).max())
    base = draw(st.sampled_from([WeightedL1(0.8), EuclideanNorm(), BoxIndicator(-1.0, 1.0)]))
    return TiltedFn(base, a), float(np.abs(a).max())


class TestProxProperties:
    """Properties every prox must have, on random inputs. They guard the
    small-vector arithmetic of ``prox.py``: the norm helper and ``clip``."""

    @settings(max_examples=500)
    @given(st.integers(0, 7), st.integers(0, 2**32 - 1), st.booleans(), _GAMMA, _POINT4, _POINT4)
    def test_firmly_nonexpansive(self, kind, seed, conjugate, gamma, x, y):
        # ||Px - Py||^2 <= <Px - Py, x - y> holds exactly in real arithmetic;
        # in floating point each side carries a rounding error of a few ulps
        # of (|x| + |y|)^2, which the tolerance bounds with a factor 16.
        f = _kind_zoo(np.random.default_rng(seed))[kind]
        resolvent = f.conjugate_prox if conjugate else f.prox
        d = resolvent(x, gamma) - resolvent(y, gamma)
        tol = 16 * EPS * (1.0 + np.abs(x).sum() + np.abs(y).sum()) ** 2
        assert d.dot(d) <= d.dot(x - y) + tol

    @settings(max_examples=500)
    @given(_moreau_route_fn(), _GAMMA, _POINT4)
    def test_moreau_identity_moreau_route(self, case, gamma, x):
        # x = prox_{gamma f}(x) + gamma * prox_{f*/gamma}(x / gamma); the
        # conjugate side goes through the generic Moreau route, which
        # evaluates prox at x and gamma up to rounding, so the residual is
        # a few ulps of the largest magnitude in play (the tilted prox moves
        # by gamma * tilt).
        f, scale = case
        p = prox(f, gamma, x)
        recon = p + gamma * prox_conjugate(f, 1.0 / gamma, x / gamma)
        tol = 64 * EPS * (1.0 + np.abs(x).max() + np.abs(p).max() + gamma * scale)
        assert np.abs(recon - x).max() <= tol


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _norm_case(u, want=None):
    """``u`` and the norm it must have, numpy's unless ``want`` is given."""
    return pytest.param(
        u, np.linalg.norm(u) if want is None else want, id=repr(u.tolist()).replace(" ", "")
    )


class TestSmallVectorPaths:
    """The norm helper and ``clip`` method give numpy's bits exactly, except
    where the dot of a vector with itself underflows and numpy's norm with it."""

    @pytest.mark.parametrize(
        "u, want",
        [
            _norm_case(np.array([3.0, 4.0])),
            _norm_case(np.array([0.1, -0.2, 0.3])),
            _norm_case(np.arange(12.0).reshape(3, 4) * 0.1),
            # memory order differs from row order, and so does the rounding
            _norm_case(np.asfortranarray(np.geomspace(1e-3, 1e3, 600).reshape(20, 30))),
            _norm_case(np.geomspace(1e-3, 1e3, 600).reshape(20, 30).T),
            _norm_case((np.arange(10.0) * 0.7)[::3]),
            _norm_case(np.zeros(3)),
            _norm_case(np.zeros((2, 2))),
            _norm_case(np.array([-0.0, -0.0])),
            # the dot underflows, and numpy's norms of these two are 0.0 and
            # 9.99994e-161; the helper gives the true norms, as math.hypot does
            _norm_case(np.array([5e-324, -5e-324]), want=5e-324),
            _norm_case(np.array([1e-160, 3e-170, 2.5e-308]), want=1e-160),
            _norm_case(np.array([np.inf, 1.0])),
            _norm_case(np.array([-np.inf, np.inf])),
            _norm_case(np.array([np.nan, 1.0])),
            _norm_case(np.array([np.inf, np.nan])),
        ],
    )
    def test_norm_is_numpy_norm(self, u, want):
        assert _bits(_norm(u)) == _bits(want)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0.0, 1.0),
            (0.0, 0.0),
            (-np.inf, np.inf),
            (0.0, np.inf),
            (-np.inf, 0.0),
            ([0.0, -1.0, 0.0, -np.inf, 2.0, 0.0], [1.0, 0.0, 0.0, 0.0, np.inf, np.inf]),
        ],
        ids=["scalar", "point", "unbounded", "lower", "upper", "per-component"],
    )
    def test_box_prox_is_numpy_clip(self, lo, hi):
        f = BoxIndicator(lo, hi)
        for x in ([-0.0, 0.0, -1.0, 0.5, 2.0, np.nan], [np.inf, -np.inf, -0.0, 1e-320, -1e300, 1.0]):
            x = np.array(x)
            assert _bits(f.prox(x)) == _bits(np.clip(x, f.lo, f.hi))

    def test_l1_conjugate_prox_is_numpy_clip(self):
        x = np.array([-0.0, 0.0, -3.0, 0.7, 3.0, np.nan, np.inf, -np.inf])
        assert _bits(WeightedL1(2.0).conjugate_prox(x, 0.5)) == _bits(np.clip(x, -2.0, 2.0))
        shift = np.linspace(-1.0, 1.0, x.size)
        got = WeightedL1(2.0, shift=shift).conjugate_prox(x, 0.5)
        assert _bits(got) == _bits(np.clip(x - 0.5 * shift, -2.0, 2.0))

    def test_zero_and_nan_norms_do_not_raise(self):
        # The norm helper returns a Python float, which raises on division
        # by zero: each division by a norm must stay behind its guard, and a
        # NaN norm must flow through as NaN, as with numpy's float.
        zero, nan = np.zeros(3), np.full(3, np.nan)
        center = np.array([1.0, -2.0, 0.5])
        ball = BallIndicator(center, 0.5)
        with np.errstate(all="raise"):
            assert _bits(EuclideanNorm().prox(zero, 1.0)) == _bits(zero)
            assert _bits(EuclideanNorm().conjugate_prox(zero, 1.0)) == _bits(zero)
            assert _bits(ball.prox(center)) == _bits(center)
            assert _bits(EuclideanNorm().prox(nan, 1.0)) == _bits(nan)
            assert _bits(EuclideanNorm().conjugate_prox(nan, 1.0)) == _bits(nan)
            assert _bits(ball.prox(nan)) == _bits(nan)
            assert math.isnan(distance_to_set(ball, nan))
            assert EuclideanNorm()(zero) == 0.0 and math.isnan(EuclideanNorm()(nan))


_HUGE = st.floats(-1e300, 1e300)
_TINY = st.one_of(st.floats(1e-300, 1e-150), st.floats(-1e-150, -1e-300))


class TestNormsDoNotOverflow:
    """Past about 1.3e154 the dot of a vector with itself overflows, and below
    about 1.5e-154 it underflows; the norms that read it stay finite and
    nonzero, and the projections keep their direction. ``math.hypot`` is the
    overflow- and underflow-free reference."""

    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
        st.floats(1e-3, 1e300),
        st.lists(_HUGE, min_size=d, max_size=d),
    )))
    @example(([5.0, 0.0], 2.0, [1e160, 0.0]))
    def test_ball_projection_lands_on_the_ray(self, case):
        center, radius, x = (np.array(a) for a in case)
        u = x - center
        dist = math.hypot(*u)
        if dist <= radius:
            return
        with np.errstate(over="ignore"):  # the dot overflows before the norm is rescaled
            p = BallIndicator(center, radius).prox(x)
        assert math.hypot(*(p - center)) == pytest.approx(radius, rel=1e-9)
        np.testing.assert_allclose(p - center, radius / dist * u, rtol=1e-9, atol=1e-9 * radius)

    @settings(max_examples=300)
    @given(st.lists(_HUGE, min_size=1, max_size=6))
    @example([1e200, 1.0])
    @example([1e160, 0.0])
    def test_euclidean_norm_is_finite(self, x):
        x = np.array(x)
        with np.errstate(over="ignore"):
            n = EuclideanNorm()(x)
            q = EuclideanNorm().conjugate_prox(x, 1.0)
        assert math.isfinite(n)
        assert n == pytest.approx(math.hypot(*x), rel=1e-12)
        if n > 1.0:
            np.testing.assert_allclose(q, x / math.hypot(*x), rtol=1e-12, atol=1e-15)

    @settings(max_examples=300)
    @given(st.lists(_TINY, min_size=1, max_size=6))
    @example([5e-324, -5e-324])
    @example([1e-160, 3e-170, 2.5e-308])
    @example([3e-170, 4e-170])
    def test_tiny_norms_are_not_zero(self, x):
        x = np.array(x)
        n = EuclideanNorm()(x)
        assert n > 0.0
        assert n == pytest.approx(math.hypot(*x), rel=1e-12)
        # The block soft threshold at a fiftieth of the norm keeps 0.98 of x.
        np.testing.assert_allclose(EuclideanNorm().prox(x, n / 50), 0.98 * x, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", [1e160, 1e-200, 3.0])
    def test_line_projection_ignores_the_direction_length(self, scale):
        """A direction far from unit length spans the same line: (3, 4)
        projects to (3, 0) on the horizontal axis through the origin."""
        with np.errstate(over="ignore"):
            line = LineIndicator((0.0, 0.0), (scale, 0.0))
        np.testing.assert_array_equal(line.prox(np.array([3.0, 4.0])), [3.0, 0.0])
        assert line(np.array([-7.0, 0.0])) == 0.0


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

    def test_lipschitz(self, rng):
        f = BallIndicator(rng.standard_normal(3), 1.0)
        for _ in range(100):
            x = rng.standard_normal(3) * 5.0
            y = rng.standard_normal(3) * 5.0
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

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 1.0), (-np.inf, np.inf), (-2.0, -2.0), (np.zeros(3), np.ones(3)), (-1.0, [0.0, 1.0, 2.0]), (np.zeros(0), np.zeros(0))],
        ids=["scalar", "scalar-unbounded", "scalar-degenerate", "vector", "mixed", "vector-empty"],
    )
    def test_box_membership_matches_the_componentwise_test(self, lo, hi):
        """The scalar bounds' test on the extremes agrees with testing every
        component against the bounds widened by ATOL."""
        f = BoxIndicator(lo, hi)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        lo_in, hi_in = lo - ATOL, hi + ATOL
        mid = np.clip(0.5, lo, hi)
        shape = np.broadcast_shapes(lo.shape, hi.shape, (3,)) if lo.size else (0,)
        at = [np.broadcast_to(lo_in, shape), np.broadcast_to(hi_in, shape)]
        beyond = [np.nextafter(a, direction) for a, direction in zip(at, (-np.inf, np.inf))]
        inputs = at + beyond + [np.zeros(shape) + v for v in (np.nan, np.inf, -np.inf, mid)]
        inputs += [np.where(np.arange(shape[0]) == 1, v, mid) for v in (np.nan, np.inf, -np.inf)]
        if lo.ndim == 0 and hi.ndim == 0:
            inputs += [np.zeros(0), np.zeros((0, 4)), np.full((2, 2), mid), np.float64(lo_in)]
        for x in inputs:
            reference = 0.0 if np.all(x >= lo_in) and np.all(x <= hi_in) else math.inf
            assert f(x) == reference, x

    def test_norm_values(self):
        assert EuclideanNorm()([3.0, 4.0]) == pytest.approx(5.0)
        assert WeightedL1(2.0, shift=[1.0, 0.0])([2.0, -3.0]) == pytest.approx(8.0)
        assert L21Norm(2.0, 2)([3.0, 0.0, 4.0, 1.0]) == pytest.approx(2 * (5.0 + 1.0))

    def test_tilt(self):
        f = TiltedFn(WeightedL1(1.0), [1.0, -1.0])
        assert f([2.0, 2.0]) == pytest.approx(4.0 + 0.0)
