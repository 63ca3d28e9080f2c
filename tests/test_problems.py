import math

import numpy as np
import pytest

from proxsplit.core import StepConfig
from proxsplit.linops import GradientOp
from proxsplit.problems import (
    PAPER_WAVELET_NORM_BOUND,
    HeronSpec,
    box_from_center,
    deblur_build,
    deblur_objective,
    deblur_step_config,
    heron1,
    heron2,
    heron3,
    heron_build,
    heron_objective,
    isnr,
    make_deblur_spec,
    synthetic_image,
)
from proxsplit.prox import BallIndicator, BoxIndicator, L21Norm, LineIndicator, prox_conjugate
from proxsplit.solvers import BUDGETS, run, validate_steps, weighted_bound_sum

class TestHeronGeometry:
    def test_example1_layout(self):
        h = heron1()
        assert h.dim == 2 and len(h.obstacles) == 8
        prob = heron_build(h)
        assert prob.m == 8 and prob.dim == 2
        assert prob.norm_bounds == (1.0,) * 8

    def test_example2_layout(self):
        h = heron2()
        assert h.dim == 3 and len(h.obstacles) == 5

    def test_example3_layout(self):
        h = heron3()
        assert h.dim == 2 and len(h.obstacles) == 5

    def test_objective_at_published_solutions(self):
        assert heron_objective(heron1(), [3.392688, -1.190188]) == pytest.approx(
            53.043627, abs=1e-5
        )
        assert heron_objective(heron2(), [-0.92531, 1.62907, 0.07883]) == pytest.approx(
            22.23480, abs=1e-4
        )
        assert heron_objective(heron3(), [-1.094773, 6.0]) == pytest.approx(
            42.882115, abs=1e-5
        )

    def test_objective_zero_inside_all_obstacles(self):
        from proxsplit.prox import BallIndicator

        from proxsplit.problems import HeronSpec

        spec = HeronSpec(
            constraint=BallIndicator([0.0, 0.0], 5.0),
            obstacles=(BallIndicator([0.0, 0.0], 1.0), BallIndicator([0.1, 0.0], 2.0)),
            dim=2,
        )
        assert heron_objective(spec, [0.05, 0.0]) == 0.0

    def test_objective_midpoint_convexity(self, rng):
        h = heron1()
        for _ in range(100):
            x = rng.standard_normal(2) * 8.0
            y = rng.standard_normal(2) * 8.0
            mid = heron_objective(h, 0.5 * (x + y))
            assert mid <= 0.5 * heron_objective(h, x) + 0.5 * heron_objective(h, y) + 1e-12

    def test_box_from_center(self):
        b = box_from_center([2.0, -1.0], 1.0)
        assert np.allclose(b.prox(np.array([5.0, -5.0]), 1.0), [2.5, -1.5])

    def test_sets_must_lie_in_dim(self):
        square = box_from_center([0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="constraint is not a set in dimension 2"):
            HeronSpec(constraint=BallIndicator([0.0, 0.0, 0.0], 1.0), obstacles=(square,), dim=2)
        with pytest.raises(ValueError, match="obstacle 1 is not a set in dimension 2"):
            HeronSpec(
                constraint=LineIndicator([0.0, 0.0], [1.0, 0.0]),
                obstacles=(square, box_from_center([0.0, 0.0, 0.0], 1.0)),
                dim=2,
            )
        # bounds given as scalars describe a box in any dimension
        HeronSpec(constraint=BoxIndicator(-1.0, 1.0), obstacles=(square,), dim=2)

    def test_converged_primal_feasible(self):
        # the logged primal comes out of the constraint projection
        from proxsplit.prox import distance_to_set

        cases = [
            (heron1(), dict(tau=0.24, sigma=0.5, lam=1.8), [5.0, 2.0]),
            (heron2(), dict(tau=0.99, sigma=0.4, lam=1.8), [0.0, 2.0, 0.0]),
            (heron3(), dict(tau=3.99, sigma=0.1, lam=1.7), [-1.0, 6.0]),
        ]
        for spec, p, x0 in cases:
            prob = heron_build(spec)
            cfg = StepConfig(
                tau=p["tau"], sigmas=(p["sigma"],) * prob.m,
                lambda_schedule=p["lam"], max_iters=60,
            )
            log = run(prob, cfg, variant="dr1", n_iters=60, x0=np.array(x0))
            assert distance_to_set(spec.constraint, log.final.primal) <= 1e-9


def _tv(image) -> float:
    """Isotropic total variation: the unit-weight l21 norm of the gradient."""
    return L21Norm(1.0, image.size)(GradientOp(image.shape).apply(image))


class TestTV:
    def test_constant_zero(self):
        assert _tv(np.full((6, 9), 0.4)) == 0.0

    def test_hand_value(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert _tv(x) == pytest.approx(math.sqrt(5.0) + 3.0, abs=1e-12)


class TestDeblurObjective:
    def test_degenerate_case(self):
        dspec = make_deblur_spec(clean=np.full((16, 16), 0.5), noise_std=0.0)
        # constant image: blur preserves it, TV = 0, residual = 0
        val = deblur_objective(dspec, dspec.observed)
        expected = dspec.alpha2 * np.abs(dspec.wavelet.apply(dspec.observed.ravel())).sum()
        assert val == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_sentinel(self):
        dspec = make_deblur_spec(shape=(16, 16))
        x = dspec.observed.copy()
        x[0, 0] = 1.5
        assert deblur_objective(dspec, x) == math.inf

    def test_conjugate_proxes_match_closed_forms(self, rng):
        dspec = make_deblur_spec(shape=(16, 16))
        prob = deblur_build(dspec)
        b = dspec.observed.ravel()
        npix = b.size
        for sigma in (0.05, 1.0, 3.0):
            p = rng.standard_normal(npix) * 2.0
            # data-fit term: clip(p - sigma * b) onto [-1, 1]
            got = prob.terms[0].res_b_conj(sigma, p)
            assert np.allclose(got, np.clip(p - sigma * b, -1.0, 1.0), atol=1e-12)
            # wavelet term: clip onto [-alpha2, alpha2]
            got = prob.terms[1].res_b_conj(sigma, p)
            assert np.allclose(got, np.clip(p, -dspec.alpha2, dspec.alpha2), atol=1e-12)
            # TV term: per-pixel disc projection with radius alpha1
            pq = rng.standard_normal(2 * npix) * 0.01
            got = prob.terms[2].res_b_conj(sigma, pq)
            p_, q_ = pq[:npix], pq[npix:]
            scale = np.minimum(1.0, dspec.alpha1 / np.sqrt(p_ * p_ + q_ * q_))
            assert np.allclose(got, np.concatenate([p_ * scale, q_ * scale]), atol=1e-12)

    def test_paper_parameter_arithmetic(self):
        # with the published wavelet bound, the published tau formulas pass
        # their budgets
        dspec = make_deblur_spec(shape=(16, 16), wavelet_norm_bound=PAPER_WAVELET_NORM_BOUND)
        prob = deblur_build(dspec)
        s1, s2, s3 = 1.0, 1.0, 0.05
        tau = 4.0 / (s1 + s2 * 2.0 ** -16 + 8 * s3) - 0.01
        cfg = StepConfig(tau=tau, sigmas=(s1, s2, s3), lambda_schedule=1.5, max_iters=5)
        validate_steps(prob, cfg, "dr1")
        assert weighted_bound_sum(prob, cfg) == pytest.approx(4.0 - 0.01 * (s1 + s2 * 2.0 ** -16 + 8 * s3))
        s1, s2, s3 = 1.0, 0.05, 0.05
        tau = 1.0 / (s1 + s2 * 2.0 ** -16 + 8 * s3) - 0.01
        cfg = StepConfig(tau=tau, sigmas=(s1, s2, s3), lambda_schedule=1.6, max_iters=5)
        validate_steps(prob, cfg, "dr2-reduced")

    @pytest.mark.parametrize("variant", sorted(BUDGETS))
    def test_step_config_within_its_budget(self, variant):
        prob = deblur_build(make_deblur_spec(shape=(16, 16)))
        validate_steps(prob, deblur_step_config(prob, variant), variant)

    def test_builder_shapes(self):
        dspec = make_deblur_spec(shape=(16, 16))
        prob = deblur_build(dspec)
        assert prob.m == 3
        assert prob.block_signature == (256, 256, 512)
        assert all(t.d_is_zero for t in prob.terms)


class TestIsnr:
    def test_zero_at_observation(self, rng):
        clean = rng.random((8, 8))
        observed = clean + 0.1
        assert isnr(clean, observed, observed) == pytest.approx(0.0, abs=1e-12)

    def test_halving_error_adds_six_db(self):
        clean = np.zeros(10)
        observed = np.ones(10)
        current = 0.5 * np.ones(10)
        assert isnr(clean, observed, current) == pytest.approx(10 * math.log10(4.0), abs=1e-12)

    def test_exact_recovery_sentinel(self, rng):
        clean = rng.random(5)
        assert isnr(clean, clean + 1.0, clean) == math.inf


class TestSyntheticScene:
    def test_range_and_shape(self):
        img = synthetic_image((64, 64))
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.std() > 0.1  # genuinely structured

    def test_observation_seeded(self):
        a = make_deblur_spec(shape=(16, 16), noise_seed=7)
        b = make_deblur_spec(shape=(16, 16), noise_seed=7)
        c = make_deblur_spec(shape=(16, 16), noise_seed=8)
        assert np.array_equal(a.observed, b.observed)
        assert not np.array_equal(a.observed, c.observed)

    def test_negative_noise_seed_named(self):
        with pytest.raises(ValueError, match="noise_seed must be nonnegative, got -1"):
            make_deblur_spec(shape=(16, 16), noise_seed=-1)


class TestDeblurRuns:
    def test_objective_decreases_and_isnr_improves(self):
        dspec = make_deblur_spec(shape=(32, 32))
        prob = deblur_build(dspec)
        cfg = deblur_step_config(prob, "dr1", max_iters=60)
        log = run(
            prob,
            cfg,
            variant="dr1",
            log_objective=lambda x: deblur_objective(dspec, x),
            n_iters=60,
            log_stride=59,
            x0=dspec.observed.ravel(),
        )
        assert log.final.objective < log.rows[0].objective
        assert isnr(dspec.clean, dspec.observed, log.final.primal) > 0.0

    def test_feasible_primal(self):
        dspec = make_deblur_spec(shape=(16, 16))
        prob = deblur_build(dspec)
        cfg = deblur_step_config(prob, "dr2-reduced", max_iters=20)
        log = run(prob, cfg, variant="dr2-reduced", n_iters=20, x0=dspec.observed.ravel())
        assert log.final.primal.min() >= 0.0
        assert log.final.primal.max() <= 1.0
