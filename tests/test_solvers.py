import dataclasses
import itertools
import math
import re
import traceback
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxsplit
from proxsplit.core import ErrorSchedule, StepConfig, StepSizeError, make_power_error_schedule
from proxsplit.linops import IdentityOp, LinOp, MatrixOp
from proxsplit.problems import (
    HERON_SETUPS,
    PAPER_WAVELET_NORM_BOUND,
    deblur_build,
    deblur_step_config,
    heron1,
    heron2,
    heron_build,
    heron_objective,
    heron_step_config,
    make_deblur_spec,
)
from proxsplit.prox import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    PointIndicator,
    WeightedL1,
)
from proxsplit.solvers import (
    VARIANTS,
    DivergenceError,
    ProblemSpec,
    Term,
    _adjoint_sum,
    _stacks,
    _update_norm,
    dr1_step,
    dr2_step,
    make_prox_problem,
    metric_apply_dr1,
    metric_rho_dr1,
    preflight,
    resolved_variant,
    run,
    validate_steps,
    vnorm_dr1,
)


def _point_norm_problem(dim=2):
    """f = indicator of the origin, one norm coupling through the identity."""
    f = BoxIndicator(np.zeros(dim), np.zeros(dim))
    return make_prox_problem(
        f, np.zeros(dim), [(IdentityOp(dim), EuclideanNorm(), None, np.zeros(dim))]
    )


def _per_term(stacks) -> tuple:
    """The per-term blocks of a state's group stacks: their rows, in term order."""
    return tuple(row for stack in stacks for row in stack)


def _block_dot(a, b) -> float:
    """The product-space inner product of two duals laid out as ``State.v``: the sum of the per-term ones."""
    return sum(float(np.dot(u, w)) for u, w in zip(_per_term(a), _per_term(b), strict=True))


def _assert_same_blocks(a, b):
    assert all(u.tobytes() == w.tobytes() for u, w in zip(a, b, strict=True))


def _assert_same_runs(spec_a, spec_b, cfg, variant, x0=None):
    """Exact runs of the two specs agree bit for bit: every logged row's
    primal and residual and the final row's duals, and, stepped by hand from
    the same start, the dual resolvent outputs of every sweep."""
    logs = [run(p, cfg, variant=variant, x0=x0) for p in (spec_a, spec_b)]
    for a, b in zip(*logs, strict=True):
        assert a.n == b.n
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.step_residual.hex() == b.step_residual.hex()
    _assert_same_blocks(logs[0].final.duals, logs[1].final.duals)
    step = VARIANTS[variant].step
    a, b = (preflight(p, cfg, variant, x0=x0) for p in (spec_a, spec_b))
    for _ in range(cfg.max_iters):
        a, b = step(spec_a, cfg, None, a), step(spec_b, cfg, None, b)
        _assert_same_blocks(_per_term(a.duals), _per_term(b.duals))


class TestProblemSpec:
    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            ProblemSpec(res_a=lambda x, t: x, z=np.zeros(2), terms=())

    def test_rejects_dim_mismatch(self):
        term = Term(
            L=IdentityOp(3),
            res_b_conj=lambda y, s: y,
            res_d_conj=lambda y, s: y,
            res_d=lambda y, g: y,
            r=np.zeros(3),
        )
        with pytest.raises(ValueError, match="z dim 2"):
            ProblemSpec(res_a=lambda x, t: x, z=np.zeros(2), terms=(term,))
        other = dataclasses.replace(term, L=IdentityOp(2), r=None)
        with pytest.raises(ValueError, match="term 1: L.in_dim 2"):
            ProblemSpec(res_a=lambda x, t: x, z=None, terms=(term, other))
        with pytest.raises(ValueError, match="r dim 3"):
            ProblemSpec(res_a=lambda x, t: x, z=None, terms=(dataclasses.replace(other, r=np.zeros(3)),))

    def test_rejects_zero_operator(self):
        term = Term(
            L=MatrixOp(np.zeros((2, 2)), norm_bound=0.0),
            res_b_conj=lambda y, s: y,
            res_d_conj=lambda y, s: y,
            res_d=lambda y, g: y,
            r=np.zeros(2),
        )
        with pytest.raises(ValueError):
            ProblemSpec(res_a=lambda x, t: x, z=np.zeros(2), terms=(term,))

    def test_prox_terms_hold_the_bound_methods(self):
        f, g, l = BallIndicator((0.0, 0.0), 1.0), EuclideanNorm(), BoxIndicator(-np.ones(2), np.ones(2))
        spec = make_prox_problem(f, np.zeros(2), [(IdentityOp(2), g, l, None)])
        (term,) = spec.terms
        assert spec.res_a == f.prox
        assert term.res_b_conj == g.conjugate_prox
        assert term.res_d_conj == l.conjugate_prox
        assert term.res_d == l.prox

    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    def test_raw_spec_in_resolvent_order_reproduces_heron1(self, variant):
        h = heron1()
        norm = EuclideanNorm()
        raw = ProblemSpec(
            res_a=lambda x, tau: h.constraint.prox(x, tau),
            z=np.zeros(2),
            terms=[
                Term(
                    L=IdentityOp(2),
                    res_b_conj=lambda y, s: norm.conjugate_prox(y, s),
                    res_d_conj=lambda y, s, o=o: o.conjugate_prox(y, s),
                    res_d=lambda y, g, o=o: o.prox(y, g),
                    r=np.zeros(2),
                )
                for o in h.obstacles
            ],
        )
        built = heron_build(h)
        cfg = heron_step_config("heron1", built, variant, max_iters=60)
        _assert_same_runs(built, raw, cfg, variant, x0=(5.0, -2.0))

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_list_shift_runs_as_the_same_array(self, variant):
        f = BoxIndicator(-np.ones(2), np.ones(2))
        terms = [(IdentityOp(2), EuclideanNorm(), None, None), (MatrixOp(0.5 * np.eye(2)), WeightedL1(0.8), None, None)]
        base = make_prox_problem(f, np.zeros(2), terms)
        first, second = base.terms
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=20)
        listed, array = (
            dataclasses.replace(base, terms=(dataclasses.replace(first, r=r), second))
            for r in ([1.0, 2.0], np.array([1.0, 2.0]))
        )
        _assert_same_runs(listed, array, cfg, variant)


class TestValidateSteps:
    def test_paper_parameter_sets(self):
        prob = heron_build(heron1())
        ok1 = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=10)
        validate_steps(prob, ok1, "dr1")  # 0.96 < 4
        ok2 = StepConfig(tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=1.8, max_iters=10)
        validate_steps(prob, ok2, "dr2")  # 0.192 < 0.25

    def test_boundary_is_rejected(self):
        # exactly at the boundary is rejected, strictly inside accepted
        prob = heron_build(heron1())
        kw = dict(sigmas=(0.5,) * 8, lambda_schedule=1.0, max_iters=5)
        validate_steps(prob, StepConfig(tau=0.24, **kw), "dr1")  # 0.96 < 4
        cfg = StepConfig(tau=1.0, **kw)
        with pytest.raises(StepSizeError) as err:
            validate_steps(prob, cfg, "dr1")  # 4.0 exactly
        assert err.value.total == pytest.approx(4.0)
        assert err.value.budget == 4.0
        with pytest.raises(StepSizeError):
            validate_steps(prob, StepConfig(tau=1.001, **kw), "dr1")  # 4.004

    def test_a_budget_sum_past_the_largest_float_is_taken_with_tau_inside(self):
        """tau * sum(sigma_i) overflows for huge sigmas, though each
        tau * sigma_i is about 1e-12; the sum of those is checked instead."""
        prob = heron_build(heron1())
        cfg = StepConfig(tau=1e-320, sigmas=(1e308,) * 8, lambda_schedule=1.0, max_iters=5)
        total = validate_steps(prob, cfg, "dr1")
        assert total == 7.999910937461466e-12  # eight subnormal-rounded tau * sigma_i, not 8e-12 exactly
        assert np.all(np.isfinite(preflight(prob, cfg, "dr1").x))
        assert all(0.0 < g < math.inf for g in preflight(prob, cfg, "dr2").gammas)

    def test_a_budget_sum_past_the_largest_float_can_still_be_too_large(self):
        prob = heron_build(heron1())
        cfg = StepConfig(tau=1e-300, sigmas=(1e308,) * 8, lambda_schedule=1.0, max_iters=5)
        for check in (lambda: validate_steps(prob, cfg, "dr1"), lambda: preflight(prob, cfg, "dr1")):
            with pytest.raises(StepSizeError, match=r"= 800000000, required < 4 \(dr1\)$") as err:
                check()
            assert math.isfinite(err.value.total)

    def test_variant_budgets_differ(self):
        prob = _point_norm_problem()
        cfg = StepConfig(tau=0.9, sigmas=(1.0,), lambda_schedule=1.0, max_iters=5)
        validate_steps(prob, cfg, "dr1")
        validate_steps(prob, cfg, "dr2-reduced")  # 0.9 < 1
        with pytest.raises(StepSizeError):
            validate_steps(prob, cfg, "dr2")  # 0.9 >= 0.25

    def test_reduced_requires_reduction(self):
        prob = heron_build(heron1())  # obstacles occupy the parallel-sum slots
        cfg = StepConfig(tau=0.1, sigmas=(0.1,) * 8, lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError):
            validate_steps(prob, cfg, "dr2-reduced")

    def test_sigma_count_checked(self):
        prob = heron_build(heron1())
        cfg = StepConfig(tau=0.1, sigmas=(0.1,) * 7, lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError):
            validate_steps(prob, cfg, "dr1")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda prob, cfg: validate_steps(prob, cfg, "dr1"),
            lambda prob, cfg: preflight(prob, cfg, "dr2"),
            metric_rho_dr1,
        ],
        ids=["validate_steps", "preflight", "metric_rho_dr1"],
    )
    def test_every_budget_sum_names_a_wrong_sigma_count(self, entry):
        """Each reader of the budget's sum names the count, where a bare zip
        over the sigmas and the terms failed with Python's own message."""
        prob = heron_build(heron1())
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError, match=r"^expected 8 sigmas, got 1$"):
            entry(prob, cfg)

    def test_unknown_variant(self):
        prob = _point_norm_problem()
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError):
            validate_steps(prob, cfg, "dr3")


class TestVariants:
    @pytest.mark.parametrize(
        "entry", ["validate_steps", "preflight", "heron_step_config", "deblur_step_config"]
    )
    def test_unknown_variant_has_one_message(self, entry):
        prob = _point_norm_problem()
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        calls = {
            "validate_steps": lambda: validate_steps(prob, cfg, "dr3"),
            "preflight": lambda: preflight(prob, cfg, "dr3"),
            "heron_step_config": lambda: heron_step_config("heron1", prob, "dr3"),
            "deblur_step_config": lambda: deblur_step_config(prob, "dr3"),
        }
        with pytest.raises(ValueError) as err:
            calls[entry]()
        assert str(err.value) == "unknown variant 'dr3'; expected one of ['dr1', 'dr2', 'dr2-reduced']"

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_record_fields_match_behaviour(self, name):
        rec = VARIANTS[name]
        prob = _point_norm_problem()  # one identity term, sigma 1: the budget sum is tau
        kw = dict(sigmas=(1.0,), lambda_schedule=1.0, max_iters=5)
        validate_steps(prob, StepConfig(tau=math.nextafter(rec.budget, 0.0), **kw), name)
        with pytest.raises(StepSizeError):
            validate_steps(prob, StepConfig(tau=rec.budget, **kw), name)
        assert (preflight(prob, StepConfig(tau=0.1, **kw), name).y is None) == (not rec.carries_y)

        heron = heron_build(heron1())  # obstacles occupy the parallel-sum slots
        cfg = heron_step_config("heron1", heron, name)
        try:
            validate_steps(heron, cfg, name)
            refused = False
        except ValueError as err:
            refused = "zero-point reduction" in str(err)
        assert refused == rec.reduced
        assert (cfg.tau, cfg.sigmas[0], cfg.lam(0)) == HERON_SETUPS["heron1"][2][rec.published]

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_dr2_runs_reduced_only_where_every_slot_is_reduced(self, name):
        reduced = make_prox_problem(BoxIndicator(-1.0, 1.0), None, [(IdentityOp(2), EuclideanNorm(), None, None)] * 2)
        mixed = make_prox_problem(
            BoxIndicator(-1.0, 1.0),
            None,
            [(IdentityOp(2), EuclideanNorm(), None, None), (IdentityOp(2), EuclideanNorm(), BallIndicator((0, 0), 1), None)],
        )
        assert resolved_variant(name, reduced) == ("dr2-reduced" if name == "dr2" else name)
        assert resolved_variant(name, mixed) == name
        assert resolved_variant(name, heron_build(heron1())) == name


class TestStartBlocks:
    """``preflight``, and so ``run``, checks every start block of heron1's eight terms."""

    MISMATCH = "does not match the problem dimensions"
    NOT_1D = "expected a 1-D vector"
    BAD_BLOCKS = {
        "wrong_length": ([np.zeros(2)] * 7 + [np.zeros(3)], MISMATCH),
        "seven_blocks": ([np.zeros(2)] * 7, MISMATCH),
        "nine_blocks": ([np.zeros(2)] * 9, MISMATCH),
        "two_d_block": ([np.zeros(2)] * 7 + [np.zeros((1, 2))], NOT_1D),
        "scalar_blocks": ([0.0] * 8, NOT_1D),
    }

    def _setup(self):
        prob = heron_build(heron1())
        return prob, heron_step_config("heron1", prob, "dr2", max_iters=5)

    @pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
    @pytest.mark.parametrize("which", ["v0", "y0"])
    def test_a_bad_start_block_is_rejected(self, which, case):
        prob, cfg = self._setup()
        blocks, message = self.BAD_BLOCKS[case]
        with pytest.raises(ValueError, match=message):
            preflight(prob, cfg, "dr2", **{which: blocks})
        with pytest.raises(ValueError, match=message):
            run(prob, cfg, variant="dr2", **{which: blocks})

    @pytest.mark.parametrize("which", ["v0", "y0"])
    def test_rows_of_an_array_or_a_generator_are_blocks(self, which):
        prob, cfg = self._setup()
        rows = np.arange(16.0).reshape(8, 2)
        for start in (rows, (row for row in rows)):
            state = preflight(prob, cfg, "dr2", **{which: start})
            blocks = _per_term(getattr(state, which[0]))
            assert len(blocks) == 8
            assert all(np.array_equal(b, row) for b, row in zip(blocks, rows, strict=True))
            state = dr2_step(prob, cfg, None, state)
            assert all(type(blocks) is tuple for blocks in (state.v, state.y, state.duals))

    @pytest.mark.parametrize("x0, message", [(np.zeros(3), MISMATCH), (np.zeros((1, 2)), NOT_1D)], ids=["length", "two_d"])
    def test_a_bad_primal_start_is_rejected(self, x0, message):
        prob, cfg = self._setup()
        with pytest.raises(ValueError, match=message):
            preflight(prob, cfg, "dr2", x0=x0)


class TestGammaWeights:
    def test_formula(self):
        prob = heron_build(heron1())
        cfg = StepConfig(tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=1.8, max_iters=5)
        g = preflight(prob, cfg, "dr2").gammas
        # sigma_i^{-1} * tau * sum_j sigma_j * 1^2 = 10 * 0.24 * 0.8
        assert g == pytest.approx((1.92,) * 8)


class TestFixedPoints:
    def test_dr1_fixed_point_invariant(self):
        # analytic fixed point of the two-pass map for the point/norm problem:
        # with x = tau*v/(tau*sigma - 2) and ||v - (sigma/2) x|| <= 1 nothing moves
        prob = _point_norm_problem(2)
        tau, sigma = 1.0, 0.5
        cfg = StepConfig(tau=tau, sigmas=(sigma,), lambda_schedule=1.3, max_iters=5)
        v = np.array([0.5, 0.0])
        x = tau * v / (tau * sigma - 2.0)
        state = preflight(prob, cfg, "dr1", x0=x, v0=(v,))
        new = dr1_step(prob, cfg, None, state)
        assert np.abs(new.x - x).max() <= 1e-12
        assert np.abs(_per_term(new.v)[0] - v).max() <= 1e-12
        assert new.residual <= 1e-12

    def test_dr2_fixed_point_invariant(self):
        prob = _point_norm_problem(2)
        cfg = StepConfig(tau=0.2, sigmas=(0.5,), lambda_schedule=1.3, max_iters=5)
        v = (np.array([0.5, 0.0]),)
        state = preflight(prob, cfg, "dr2", v0=v)
        new = dr2_step(prob, cfg, None, state)
        assert np.abs(new.x).max() <= 1e-12
        assert np.abs(_per_term(new.v)[0] - v[0]).max() <= 1e-12
        assert new.residual <= 1e-12


def _counted(op):
    """``op`` with its apply and adjoint wrapped in mocks that count calls."""
    op.apply = Mock(wraps=op.apply)
    op.adjoint = Mock(wraps=op.adjoint)
    return op


class TestOperatorAccounting:
    def _counting_problem(self, dim=2):
        ops = [_counted(IdentityOp(dim)) for _ in range(3)]
        f = BallIndicator(np.zeros(dim), 1.0)
        terms = [(op, EuclideanNorm(), BoxIndicator(-np.ones(dim), np.ones(dim)), np.zeros(dim)) for op in ops]
        return make_prox_problem(f, np.zeros(dim), terms), ops

    def test_dr1_two_evaluations_each(self):
        prob, ops = self._counting_problem()
        cfg = StepConfig(tau=0.2, sigmas=(0.3,) * 3, lambda_schedule=1.5, max_iters=10)
        state = preflight(prob, cfg, "dr1")
        for _ in range(7):
            state = dr1_step(prob, cfg, None, state)
        for op in ops:
            assert op.apply.call_count == 2 * 7
            assert op.adjoint.call_count == 2 * 7

    def test_dr2_one_evaluation_each(self):
        prob, ops = self._counting_problem()
        cfg = StepConfig(tau=0.2, sigmas=(0.2,) * 3, lambda_schedule=1.5, max_iters=10)
        state = preflight(prob, cfg, "dr2")
        for _ in range(7):
            state = dr2_step(prob, cfg, None, state)
        for op in ops:
            assert op.apply.call_count == 7
            assert op.adjoint.call_count == 7


class TestReducedScheme:
    def _reduced_problem(self, dim=3):
        f = BoxIndicator(-np.ones(dim), np.ones(dim))
        terms = [
            (IdentityOp(dim), EuclideanNorm(), None, np.zeros(dim)),
            (MatrixOp(0.5 * np.eye(dim)), WeightedL1(0.8), None, np.zeros(dim)),
        ]
        return make_prox_problem(f, 0.1 * np.ones(dim), terms)

    def test_bit_for_bit_match_on_shared_budget(self):
        prob = self._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=101)
        validate_steps(prob, cfg, "dr2")
        x0 = np.array([0.9, -0.4, 0.2])
        full = preflight(prob, cfg, "dr2", x0=x0)
        red = preflight(prob, cfg, "dr2-reduced", x0=x0)
        assert full.y is not None and red.y is None
        for _ in range(100):
            full = dr2_step(prob, cfg, None, full)
            red = dr2_step(prob, cfg, None, red)
            assert np.array_equal(full.x, red.x)
            for a, b in zip(full.v, red.v):
                assert np.array_equal(a, b)
            assert full.residual == red.residual

    def test_inexact_full_scheme_carries_errors_in_y(self):
        # the reduced sweep holds y at zero; the full one adds the d errors to
        # its y-resolvent's zero output, so the two part once errors enter
        prob = self._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=1)
        errs = make_power_error_schedule(1.0, 2.0, (prob.dim, prob.block_signature), seed=0)
        full = dr2_step(prob, cfg, errs, preflight(prob, cfg, "dr2", x0=np.array([0.9, -0.4, 0.2])))
        assert any(np.any(block != 0.0) for block in full.y)

    def test_reduced_accepts_larger_budget(self):
        prob = self._reduced_problem()
        cfg = StepConfig(tau=0.72, sigmas=(1.0, 1.0), lambda_schedule=1.0, max_iters=5)
        # tau * (1 + 0.25) = 0.9
        validate_steps(prob, cfg, "dr2-reduced")
        with pytest.raises(StepSizeError):
            validate_steps(prob, cfg, "dr2")

    def test_reduced_rejects_non_reduced_spec(self):
        prob = heron_build(heron1())
        cfg = StepConfig(tau=0.02, sigmas=(0.1,) * 8, lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError, match="zero-point reduction"):
            preflight(prob, cfg, "dr2-reduced")

    @pytest.mark.parametrize("variant", ["dr1", "dr2-reduced"])
    def test_y0_rejected_without_y_block(self, variant):
        # only dr2 carries a y block; a start for it must not be dropped silently
        prob = self._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=5)
        y0 = [np.ones(3), np.ones(3)]
        preflight(prob, cfg, "dr2", y0=y0)
        with pytest.raises(ValueError, match="y0"):
            preflight(prob, cfg, variant, y0=y0)
        with pytest.raises(ValueError, match="y0"):
            run(prob, cfg, variant=variant, n_iters=2, y0=y0)

    def test_reduced_fixed_point(self):
        prob = self._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=2001)
        state = preflight(prob, cfg, "dr2-reduced", x0=np.zeros(3))
        for _ in range(2000):
            state = dr2_step(prob, cfg, None, state)
        again = dr2_step(prob, cfg, None, state)
        assert np.abs(again.x - state.x).max() <= 1e-11


class _Negate(LinOp):
    """x -> -x: turns +0.0 into -0.0, so a skipped -0.0 shift shows in the bits."""

    def __init__(self, dim):
        super().__init__(dim, dim, 1.0)

    def apply(self, x):
        return -np.asarray(x, dtype=float)

    adjoint = apply


class _Identity(LinOp):
    """The identity map, but not an ``IdentityOp``: a group of these adds its adjoints one by one."""

    def __init__(self, dim):
        super().__init__(dim, dim, 1.0)

    def apply(self, x):
        return np.asarray(x, dtype=float)

    adjoint = apply


def _or_zeros(shift, dim):
    """An absent tilt or shift as the zeros the reference formulas subtract."""
    return np.zeros(dim) if shift is None else shift


def _reference_adjoint_sum(spec, blocks):
    acc = np.zeros(spec.dim)
    for term, block in zip(spec.terms, blocks):
        acc += term.L.adjoint(block)
    return acc


def _reference_dr1(spec, cfg, state):
    """The two-pass sweep with every shift subtracted and the adjoint sums
    started from zeros."""
    tau, lam, x, v = cfg.tau, cfg.lam(state.n), state.x, _per_term(state.v)
    p1 = spec.res_a(x - 0.5 * tau * _reference_adjoint_sum(spec, v) + tau * _or_zeros(spec.z, spec.dim), tau)
    w1 = 2.0 * p1 - x
    p2s = [
        t.res_b_conj(v[i] + 0.5 * s * t.L.apply(w1) - s * _or_zeros(t.r, t.L.out_dim), s)
        for i, (t, s) in enumerate(zip(spec.terms, cfg.sigmas))
    ]
    w2s = [2.0 * p2 - v[i] for i, p2 in enumerate(p2s)]
    z1 = w1 - 0.5 * tau * _reference_adjoint_sum(spec, w2s)
    u = 2.0 * z1 - w1
    res_sq = float((z1 - p1).dot(z1 - p1))
    v_new = []
    for i, (t, s) in enumerate(zip(spec.terms, cfg.sigmas)):
        z2 = t.res_d_conj(w2s[i] + 0.5 * s * t.L.apply(u), s)
        v_new.append(v[i] + lam * (z2 - p2s[i]))
        res_sq += float((z2 - p2s[i]).dot(z2 - p2s[i]))
    return x + lam * (z1 - p1), v_new, None, p1, p2s, lam * math.sqrt(res_sq)


def _reference_dr2(spec, cfg, state):
    """The single-pass sweep (the reduced one without y) with every shift
    subtracted and the adjoint sum started from zeros."""
    tau, lam, x, v = cfg.tau, cfg.lam(state.n), state.x, _per_term(state.v)
    y = None if state.y is None else _per_term(state.y)
    p1 = spec.res_a(x - tau * (_reference_adjoint_sum(spec, v) - _or_zeros(spec.z, spec.dim)), tau)
    u = 2.0 * p1 - x
    res_sq = float((p1 - x).dot(p1 - x))
    y_new = None if y is None else []
    v_new, p3s = [], []
    for i, (t, s) in enumerate(zip(spec.terms, cfg.sigmas)):
        target = t.L.apply(u)
        if y is not None:
            g = state.gammas[i]
            p2 = t.res_d(y[i] + g * v[i], g)
            y_new.append(y[i] + lam * (p2 - y[i]))
            res_sq += float((p2 - y[i]).dot(p2 - y[i]))
            target = target - (2.0 * p2 - y[i])
        p3 = t.res_b_conj(v[i] + s * (target - _or_zeros(t.r, t.L.out_dim)), s)
        v_new.append(v[i] + lam * (p3 - v[i]))
        p3s.append(p3)
        res_sq += float((p3 - v[i]).dot(p3 - v[i]))
    return x + lam * (p1 - x), v_new, y_new, p1, p3s, lam * math.sqrt(res_sq)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestShifts:
    """The sweeps on nonzero, -0.0, all-+0.0 and absent shifts, bit for bit
    against the sweep formulas that subtract every shift, zeros for an
    absent one."""

    SHIFTS = {
        "nonzero": ([0.3, -1.2, 0.0, 2.0], [-0.5, 0.25, 1.0, -0.0], [0.2, -0.1, 0.4, 0.0]),
        "negative-zero": ([-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0]),
        "positive-zero": ([0.0] * 4, [0.0] * 4, [0.0] * 4),
        "absent": (None, None, None),
    }

    def _problem(self, shifts, reduced):
        r0, r1, z = (None if a is None else np.array(a) for a in self.SHIFTS[shifts])
        a = np.array([[0.5, 0.1, 0.0, -0.2], [0.0, -0.4, 0.3, 0.0], [0.2, 0.0, 0.0, 0.5], [0.0, 0.0, -0.3, 0.1]])
        terms = [
            (_Negate(4), WeightedL1(0.7), None if reduced else EuclideanNorm(), r0),
            (MatrixOp(a), EuclideanNorm(), None if reduced else WeightedL1(0.4), r1),
        ]
        return make_prox_problem(BoxIndicator(-1.0, 1.0), z, terms)

    @pytest.mark.parametrize("shifts", list(SHIFTS))
    @pytest.mark.parametrize(
        "variant, step, reference",
        [("dr1", dr1_step, _reference_dr1), ("dr2", dr2_step, _reference_dr2), ("dr2-reduced", dr2_step, _reference_dr2)],
        ids=["dr1", "dr2", "dr2-reduced"],
    )
    def test_sweeps_match_the_subtracting_formulas(self, shifts, variant, step, reference):
        prob = self._problem(shifts, reduced=variant != "dr2")
        cfg = StepConfig(tau=0.2, sigmas=(0.5, 0.5), lambda_schedule=1.5, max_iters=10)
        # signed zeros in the start let a skipped -0.0 shift change a sign bit
        x0 = np.array([-0.0, 0.0, 0.3, -0.2])
        v0 = [np.array([-0.0, -0.0, 0.1, 0.0]), np.array([0.0, -0.0, -0.3, -0.0])]
        y0 = [np.array([-0.0, 0.2, 0.0, -0.1]), np.array([0.1, -0.0, 0.0, 0.0])] if variant == "dr2" else None
        state = preflight(prob, cfg, variant, x0=x0, v0=v0, y0=y0)
        for _ in range(4):
            x, v, y, p1, duals, residual = reference(prob, cfg, state)
            state = step(prob, cfg, None, state)
            assert _same_bits(state.x, x) and _same_bits(state.p1, p1)
            assert all(_same_bits(a, b) for a, b in zip(_per_term(state.v), v, strict=True))
            assert all(_same_bits(a, b) for a, b in zip(_per_term(state.duals), duals, strict=True))
            assert (state.y is None) == (y is None)
            if y is not None:
                assert all(_same_bits(a, b) for a, b in zip(_per_term(state.y), y, strict=True))
            assert state.residual == residual

    @pytest.mark.parametrize(
        "variant, tau, sigma, sweeps", [("dr1", 1.5, 1.5, 1000), ("dr2", 1.0, 0.2, 3000)], ids=["dr1", "dr2"]
    )
    def test_a_slot_at_a_point_is_the_shift_moved_by_it(self, variant, tau, sigma, sweeps):
        """With l_i the indicator of {p}, the slot is g_i(L_i x - r_i - p): the
        zero-point reduction with the shift r_i + p has the same minimizer.
        The slot at p is written with its own resolvents: the conjugate prox
        y - gamma * p and the constant prox p."""
        rng = np.random.default_rng(1)
        ops = [MatrixOp(0.5 * rng.standard_normal((3, 3))) for _ in range(2)]
        gs = [EuclideanNorm(), WeightedL1(0.5)]
        points = [np.array([0.3, -0.2, 0.1]), np.array([-0.4, 0.0, 0.5])]
        shifts = [np.array([0.1, 0.2, -0.3]), None]
        f, z = BallIndicator(np.zeros(3), 2.0), np.array([0.2, -0.1, 0.3])
        moved = make_prox_problem(
            f, z, [(L, g, None, p if r is None else r + p) for L, g, p, r in zip(ops, gs, points, shifts)]
        )
        at_points = ProblemSpec(
            res_a=f.prox,
            z=z,
            terms=tuple(
                Term(
                    L=L,
                    res_b_conj=g.conjugate_prox,
                    res_d_conj=lambda y, gamma, p=p: y - gamma * p,
                    res_d=lambda y, gamma, p=p: np.broadcast_to(p, y.shape).copy(),
                    r=r,
                )
                for L, g, p, r in zip(ops, gs, points, shifts)
            ),
        )
        cfg = StepConfig(tau=tau, sigmas=(sigma, sigma), lambda_schedule=1.5, max_iters=sweeps)
        ends = [run(prob, cfg, variant=variant, n_iters=sweeps).final.primal for prob in (moved, at_points)]
        np.testing.assert_allclose(ends[0], ends[1], rtol=0.0, atol=1e-9)

    def test_bundled_problems_build_no_shifts(self):
        # the benchmark workloads run these builders: no tilt or shift is subtracted
        for prob in (heron_build(heron1()), deblur_build(make_deblur_spec(shape=(16, 16)))):
            assert prob.z is None
            assert all(t.r is None for t in prob.terms)


class TestGroupedSweeps:
    """Terms that share one operator object are swept as one stacked group,
    bit for bit as the same terms each with an operator of its own."""

    @staticmethod
    def _own_operators(prob, own):
        """``prob`` with each term's operator replaced by ``own(term.L)``, a distinct object."""
        return dataclasses.replace(prob, terms=[dataclasses.replace(t, L=own(t.L)) for t in prob.terms])

    @staticmethod
    def _assert_same_trajectories(grouped, per_term, cfg, variant, errs=None, objective=None, x0=None, v0=None):
        """Every log row (n, primal, objective, residual), the final duals and,
        stepped by hand from the same start, the final x, v and y agree bit for bit."""
        logs = [
            run(p, cfg, errs, variant=variant, log_objective=objective, x0=x0, v0=v0) for p in (grouped, per_term)
        ]
        assert len(logs[0]) == len(logs[1]) == cfg.max_iters
        for a, b in zip(*logs, strict=True):
            assert a.n == b.n
            assert _same_bits(a.primal, b.primal)
            assert _same_bits(np.float64(a.step_residual), np.float64(b.step_residual))
            assert (a.objective is None) == (b.objective is None)
            if a.objective is not None:
                assert _same_bits(np.float64(a.objective), np.float64(b.objective))
        assert all(_same_bits(u, w) for u, w in zip(logs[0].final.duals, logs[1].final.duals, strict=True))
        step = VARIANTS[variant].step
        a, b = (preflight(p, cfg, variant, x0=x0, v0=v0) for p in (grouped, per_term))
        with np.errstate(over="ignore"):  # as in run, where an overflowing square is rescaled
            for _ in range(cfg.max_iters):
                a, b = step(grouped, cfg, errs, a), step(per_term, cfg, errs, b)
        assert _same_bits(a.x, b.x)
        assert all(_same_bits(u, w) for u, w in zip(_per_term(a.v), _per_term(b.v), strict=True))
        assert (a.y is None) == (b.y is None)
        if a.y is not None:
            assert all(_same_bits(u, w) for u, w in zip(_per_term(a.y), _per_term(b.y), strict=True))
        return logs[0]

    @pytest.mark.parametrize("inexact", [False, True], ids=["exact", "inexact"])
    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    @pytest.mark.parametrize("name", list(HERON_SETUPS))
    def test_heron_sweeps_as_the_per_term_terms(self, name, variant, inexact):
        build, x0, _ = HERON_SETUPS[name]
        spec = build()
        grouped = heron_build(spec)
        assert [(g.lo, g.hi) for g in grouped._groups] == [(0, grouped.m)]
        per_term = self._own_operators(grouped, lambda L: IdentityOp(L.in_dim))
        assert len(per_term._groups) == per_term.m
        cfg = heron_step_config(name, grouped, variant, max_iters=60)
        dims = (grouped.dim, grouped.block_signature)
        errs = make_power_error_schedule(1.0, 2.0, dims, seed=0) if inexact else None
        objective = lambda x: heron_objective(spec, x)
        self._assert_same_trajectories(grouped, per_term, cfg, variant, errs, objective, x0=np.array(x0))

    @staticmethod
    def _matrix_problem(reduced):
        """Terms 0-2 share one MatrixOp, term 3 has its own and term 4 reuses
        term 0's, which is not consecutive: groups [0, 3), [3, 4), [4, 5).
        In the first group, term 0 has no shift, term 1 a nonzero one and
        term 2 one of signed zeros; term 3 has a nonzero shift, and there is
        a tilt."""
        rng = np.random.default_rng(3)
        shared = MatrixOp(0.4 * rng.standard_normal((3, 4)))
        own = MatrixOp(0.4 * rng.standard_normal((3, 4)))
        slots = [EuclideanNorm(), WeightedL1(0.3), EuclideanNorm(), WeightedL1(0.2), EuclideanNorm()]
        shifts = [None, np.array([0.3, -0.2, 0.1]), np.array([-0.0, 0.0, -0.0]), np.array([-0.1, 0.0, 0.2]), None]
        gs = [EuclideanNorm(), WeightedL1(0.5), WeightedL1(0.7), EuclideanNorm(), WeightedL1(0.4)]
        terms = [
            (L, g, None if reduced else l, r)
            for L, g, l, r in zip((shared, shared, shared, own, shared), gs, slots, shifts)
        ]
        return make_prox_problem(BoxIndicator(-1.0, 1.0), np.array([0.1, -0.3, 0.0, 0.2]), terms)

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_matrix_groups_sweep_as_the_per_term_terms(self, variant):
        grouped = self._matrix_problem(reduced=variant == "dr2-reduced")
        assert [(g.lo, g.hi) for g in grouped._groups] == [(0, 3), (3, 4), (4, 5)]
        per_term = self._own_operators(grouped, lambda L: MatrixOp(L.a, norm_bound=L.norm_bound))
        assert len(per_term._groups) == 5
        tau = 0.2 if variant == "dr1" else 0.04  # inside each budget
        cfg = StepConfig(tau=tau, sigmas=(0.5, 0.2, 0.4, 0.3, 0.25), lambda_schedule=1.6, max_iters=40)
        x0 = np.array([-0.0, 0.0, 0.3, -0.2])
        v0 = [
            np.array([-0.0, 0.1, 0.0]),
            np.array([0.2, -0.0, -0.1]),
            np.zeros(3),
            np.array([0.0, -0.0, 0.05]),
            np.array([0.1, 0.0, -0.0]),
        ]
        self._assert_same_trajectories(grouped, per_term, cfg, variant, x0=x0, v0=v0)

    def test_identity_groups_sum_their_adjoints_as_the_loop(self):
        """One reduction from 0.0 over an identity group's rows has the bits of
        adding the rows one by one, signed zeros included; a group after the
        first adds its rows to the sum in order."""
        dim = 2
        ident = IdentityOp(dim)
        lone = MatrixOp(np.array([[0.5, -0.0], [0.0, 1.0]]))
        # added in term order, the second entries give 0.6000000000000001, not 0.6
        blocks = [np.array([-0.0, 0.1]), np.array([-0.0, 0.2]), np.array([-0.0, 0.3])]
        for ops in ([ident] * 3, [lone, ident, ident]):
            grouped = make_prox_problem(
                BallIndicator(np.zeros(dim), 1.0), None, [(L, EuclideanNorm(), None, None) for L in ops]
            )
            per_term = self._own_operators(grouped, lambda L: L if L is lone else _Identity(dim))
            sums = [_adjoint_sum(p, _stacks(p, blocks)) for p in (grouped, per_term)]
            assert _same_bits(*sums)
            assert sums[0][1] == 0.6000000000000001

    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    def test_the_state_holds_one_stack_per_group(self, variant):
        """heron1's eight terms are one group: its start and a sweep's v, y and
        duals are one (8, 2) array each, whose rows are the blocks of the same
        terms with operators of their own; a run's final duals are eight
        1-D blocks."""
        build, x0, _ = HERON_SETUPS["heron1"]
        grouped = heron_build(build())
        per_term = self._own_operators(grouped, lambda L: IdentityOp(L.in_dim))
        cfg = heron_step_config("heron1", grouped, variant, max_iters=5)
        v0 = np.arange(16.0).reshape(8, 2) / 16.0
        a, b = (preflight(p, cfg, variant, x0=np.array(x0), v0=v0) for p in (grouped, per_term))
        assert _same_bits(a.v[0], v0)
        step = VARIANTS[variant].step
        for _ in range(2):
            for name in ("v", "y", "duals"):
                stacks, reference = getattr(a, name), getattr(b, name)
                if stacks is not None:
                    assert len(stacks) == 1 and stacks[0].shape == (8, 2)
                    assert [r.shape for r in reference] == [(1, 2)] * 8
                    assert all(_same_bits(u, w) for u, w in zip(stacks[0], _per_term(reference), strict=True))
            a, b = step(grouped, cfg, None, a), step(per_term, cfg, None, b)
        duals = run(grouped, cfg, variant=variant, x0=np.array(x0)).final.duals
        assert len(duals) == 8 and all(d.shape == (2,) for d in duals)

    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    def test_an_overflowing_row_inside_a_group_is_rescaled_in_place(self, variant):
        """A start row of 1e200 inside heron1's one group: its move's square
        overflows, so the residual is the rescaled norm, as per term."""
        build, x0, _ = HERON_SETUPS["heron1"]
        grouped = heron_build(build())
        per_term = self._own_operators(grouped, lambda L: IdentityOp(L.in_dim))
        cfg = heron_step_config("heron1", grouped, variant, max_iters=5)
        v0 = np.zeros((grouped.m, grouped.dim))
        v0[3] = 1e200
        log = self._assert_same_trajectories(grouped, per_term, cfg, variant, x0=np.array(x0), v0=v0)
        assert 1e199 < log.rows[0].step_residual < math.inf


class TestSubgradientMembership:
    def test_one_dimensional_piecewise_linear(self):
        # minimize |x| + 2|x - 1| - 0.5 x; the minimizer is x = 1 and
        # 0 must lie in sign(x) + 2*sign(x-1) - 0.5 there
        f = WeightedL1(1.0)
        g = WeightedL1(2.0, shift=np.array([1.0]))
        z = np.array([0.5])
        prob = make_prox_problem(f, z, [(IdentityOp(1), g, None, np.zeros(1))])
        cfg = StepConfig(tau=0.7, sigmas=(1.0,), lambda_schedule=1.5, max_iters=4000)
        log = run(prob, cfg, variant="dr1", n_iters=4000, x0=np.array([3.0]))
        xbar = float(log.final.primal[0])
        assert xbar == pytest.approx(1.0, abs=1e-6)
        # interval oracle for the subdifferential sum at the solution
        tol = 1e-6
        df = (-1.0, 1.0) if abs(xbar) <= tol else (math.copysign(1, xbar),) * 2
        dg = (-2.0, 2.0) if abs(xbar - 1.0) <= tol else (math.copysign(2, xbar - 1.0),) * 2
        lo = df[0] + dg[0] - 0.5
        hi = df[1] + dg[1] - 0.5
        assert lo - tol <= 0.0 <= hi + tol


class TestDifferentialOracle:
    """The two algorithms solve the same primal-dual pair, so on small seeded
    problems every variant that applies reaches the same objective.

    f is the box [-1, 1]^d; each of 2-3 terms is ||.|| through a random
    d x d matrix with a shift, in parallel sum with a ball's indicator or,
    for ``dr2-reduced`` to apply too, with none.
    """

    @staticmethod
    def _problem(seed, balls):
        rng = np.random.default_rng(seed)
        d, m = (int(k) for k in rng.integers(2, 4, size=2))
        box = BoxIndicator(-np.ones(d), np.ones(d))
        terms = []
        for _ in range(m):
            a, r = rng.standard_normal((d, d)), rng.standard_normal(d)
            ball = BallIndicator(rng.standard_normal(d), float(rng.uniform(0.2, 1.0))) if balls else None
            terms.append((MatrixOp(a), EuclideanNorm(), ball, r))

        def objective(x):
            # g_i inf-convolved with the ball's indicator is the distance to the ball
            total = box(x)
            for op, _, ball, r in terms:
                u = op.apply(x) - r
                total += np.linalg.norm(u) if ball is None else max(np.linalg.norm(u - ball.center) - ball.radius, 0.0)
            return total

        return make_prox_problem(box, None, terms), objective

    @pytest.mark.parametrize("balls", [True, False], ids=["balls", "reduced"])
    @pytest.mark.parametrize("seed", range(10))
    def test_variants_reach_the_same_objective(self, seed, balls):
        prob, objective = self._problem(seed, balls)
        variants = ["dr1", "dr2"] if balls else ["dr1", "dr2", "dr2-reduced"]
        values = []
        for variant in variants:
            # sigma = 1 and tau at 0.9 of the variant's budget
            tau = 0.9 * VARIANTS[variant].budget / sum(b ** 2 for b in prob.norm_bounds)
            cfg = StepConfig(tau=tau, sigmas=(1.0,) * prob.m, lambda_schedule=1.5, max_iters=4000)
            log = run(prob, cfg, variant=variant, residual_tol=1e-10)
            values.append(objective(log.final.primal))
        assert all(math.isfinite(value) for value in values)
        assert max(values) - min(values) <= 1e-8 * max(1.0, abs(values[0])), dict(zip(variants, values))


_WRONG_OUTPUTS = {"scalar": 0.0, "length3": np.zeros(3), "row": np.zeros((1, 2))}


class _KeepFirst(LinOp):
    """(a, b) -> (a, 0), its own adjoint: a second coordinate never reaches x."""

    def __init__(self):
        super().__init__(2, 2, 1.0)

    def apply(self, x):
        return np.array([x[0], 0.0])

    adjoint = apply


class TestRunSemantics:
    def _setup(self):
        h = heron1()
        prob = heron_build(h)
        cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=50)
        return h, prob, cfg

    def test_row_count_matches_iters(self):
        _, prob, cfg = self._setup()
        log = run(prob, cfg, variant="dr1", n_iters=37, x0=np.array([5.0, 2.0]))
        assert [r.n for r in log] == list(range(37))

    def test_zero_iters_probe_row(self):
        _, prob, cfg = self._setup()
        log = run(prob, cfg, variant="dr1", n_iters=0, x0=np.array([5.0, 2.0]))
        assert len(log) == 1 and log.final.n == 0

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_zero_iters_is_one_sweep(self, variant):
        # a problem every variant runs: each parallel-sum slot is reduced
        prob = TestReducedScheme()._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=5)
        logs = [
            run(
                prob,
                cfg,
                variant=variant,
                log_objective=lambda x: float(np.abs(x).sum()),
                n_iters=n,
                x0=np.array([0.9, -0.4, 0.2]),
            )
            for n in (0, 1)
        ]
        (probe,), (first,) = (log.rows for log in logs)
        assert probe.n == first.n == 0
        assert np.array_equal(probe.primal, first.primal)
        assert all(np.array_equal(a, b) for a, b in zip(probe.duals, first.duals, strict=True))
        assert probe.step_residual == first.step_residual
        assert probe.objective == first.objective

    def test_stride_keeps_last(self):
        _, prob, cfg = self._setup()
        log = run(prob, cfg, variant="dr1", n_iters=25, log_stride=10, x0=np.array([5.0, 2.0]))
        assert [r.n for r in log] == [0, 10, 20, 24]

    def test_nonfinite_tol_never_stops(self):
        _, prob, cfg = self._setup()
        for tol in (math.inf, -math.inf, math.nan):
            log = run(prob, cfg, variant="dr1", n_iters=12, residual_tol=tol, x0=np.array([5.0, 2.0]))
            assert len(log) == 12

    def test_relaxation_checked_beyond_max_iters(self):
        # a run longer than max_iters must not use an unchecked lambda (this
        # one ran to a residual of 6e7 unnoticed)
        _, prob, _ = self._setup()
        cfg = StepConfig(
            tau=0.24,
            sigmas=(0.1,) * 8,
            lambda_schedule=lambda n: 1.8 if n < 5 else 5.0,
            max_iters=5,
        )
        for variant in ("dr1", "dr2"):
            with pytest.raises(ValueError, match=r"n=5: 5\.0"):
                run(prob, cfg, variant=variant, n_iters=20, x0=np.array([5.0, 2.0]))
        assert len(run(prob, cfg, variant="dr1", n_iters=5, x0=np.array([5.0, 2.0]))) == 5

    def test_schedule_is_called_only_for_the_run_sweeps(self):
        # construction calls no schedule; run checks each of its 3 sweeps'
        # relaxations once in preflight and reads each once in its sweep
        _, prob, _ = self._setup()
        schedule = Mock(return_value=1.8)
        cfg = StepConfig(tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=schedule, max_iters=400)
        assert schedule.call_count == 0
        run(prob, cfg, variant="dr1", n_iters=3, x0=np.array([5.0, 2.0]))
        assert schedule.call_count == 6

    def test_relaxation_bad_after_the_last_sweep_is_not_checked(self):
        _, base, _ = self._setup()
        prob = dataclasses.replace(base, res_a=Mock(wraps=base.res_a))
        cfg = StepConfig(
            tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=lambda n: 1.8 if n < 3 else 2.5, max_iters=400
        )
        assert len(run(prob, cfg, variant="dr1", n_iters=3, x0=np.array([5.0, 2.0]))) == 3
        prob.res_a.reset_mock()
        with pytest.raises(ValueError, match=r"relaxation out of \(0, 2\) at n=3: 2\.5"):
            run(prob, cfg, variant="dr1", n_iters=4, x0=np.array([5.0, 2.0]))
        assert prob.res_a.call_count == 0

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_a_negative_n_iters_is_refused_before_the_first_sweep(self, variant):
        base = TestReducedScheme()._reduced_problem()
        prob = dataclasses.replace(base, res_a=Mock(wraps=base.res_a))
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=5)
        with pytest.raises(ValueError, match="^n_iters must be nonnegative$"):
            run(prob, cfg, variant=variant, n_iters=-1)
        assert prob.res_a.call_count == 0

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 20])
    def test_an_n_iters_override_is_preflight_of_that_length(self, n):
        """``run(n_iters=n)`` checks the relaxation at the sweeps that
        ``preflight`` checks for a config of ``max(n, 1)`` sweeps."""
        _, prob, _ = self._setup()
        cfg = StepConfig(
            tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=lambda k: 1.8 if k < 5 else 2.5, max_iters=400
        )

        def refused(call) -> bool:
            try:
                call()
            except ValueError as exc:
                assert str(exc) == "relaxation out of (0, 2) at n=5: 2.5"
                return True
            return False

        by_run = refused(lambda: run(prob, cfg, variant="dr1", n_iters=n))
        by_preflight = refused(lambda: preflight(prob, dataclasses.replace(cfg, max_iters=max(n, 1)), "dr1"))
        assert by_run == by_preflight == (n > 5)

    def test_residual_tol_stops_early(self):
        _, prob, cfg = self._setup()
        log = run(prob, cfg, variant="dr1", n_iters=10_000, residual_tol=1e-9, x0=np.array([5.0, 2.0]))
        assert log.final.n < 10_000 - 1
        assert log.final.step_residual < 1e-9

    def test_objective_column(self):
        h, prob, cfg = self._setup()
        log = run(
            prob,
            cfg,
            variant="dr1",
            log_objective=lambda x: heron_objective(h, x),
            n_iters=5,
            x0=np.array([5.0, 2.0]),
        )
        for row in log:
            assert row.objective == pytest.approx(heron_objective(h, row.primal), abs=1e-12)

    def test_divergence_abort_names_quantity(self):
        # a resolvent that emits NaN on the first evaluation
        bad = ProblemSpec(
            res_a=lambda x, t: np.full_like(x, np.nan),
            z=np.zeros(2),
            terms=(
                Term(
                    L=IdentityOp(2),
                    res_b_conj=lambda y, s: y,
                    res_d_conj=lambda y, s: y,
                    res_d=lambda y, g: np.zeros_like(y),
                    r=np.zeros(2),
                    d_is_zero=True,
                ),
            ),
        )
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant="dr1", n_iters=5)
        assert "p1" in str(err.value)

    @staticmethod
    def _clipped(ops) -> ProblemSpec:
        """One term per operator of ``ops``, every resolvent a clip to [-1, 1]."""
        clip = lambda y, s: np.clip(y, -1.0, 1.0)
        terms = (Term(L=L, res_b_conj=clip, res_d_conj=clip, res_d=clip, r=np.zeros(2)) for L in ops)
        return ProblemSpec(res_a=clip, z=np.zeros(2), terms=terms)

    def test_nonfinite_start_named_at_first_step(self):
        # L^* ignores the second dual coordinate and every resolvent clips,
        # so the first update norm is finite while v keeps the infinity
        bad = self._clipped([_KeepFirst()])
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant="dr1", n_iters=5, v0=[np.array([0.0, np.inf])])
        assert (err.value.quantity, err.value.iteration) == ("v, term 0", 0)

    @pytest.mark.parametrize("variant, which", [("dr1", "v0"), ("dr2", "v0"), ("dr2", "y0")])
    def test_a_nonfinite_start_row_is_named_by_its_term(self, variant, which):
        """Terms 0-2 share one operator, which ignores the second coordinate,
        and term 3 has its own: an infinity in term 2's start block, a row of
        the first group's stack, is named by its term."""
        shared = _KeepFirst()
        bad = self._clipped([shared, shared, shared, _KeepFirst()])
        assert [(g.lo, g.hi) for g in bad._groups] == [(0, 3), (3, 4)]
        cfg = StepConfig(tau=0.1, sigmas=(0.1,) * 4, lambda_schedule=1.0, max_iters=5)
        start = [np.zeros(2), np.zeros(2), np.array([0.0, np.inf]), np.zeros(2)]
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant=variant, n_iters=5, **{which: start})
        assert (err.value.quantity, err.value.iteration) == (f"{which[0]}, term 2", 0)

    def test_divergence_in_y_names_quantity(self):
        # only the extra dual block of the single-pass scheme goes non-finite
        bad = ProblemSpec(
            res_a=lambda x, t: x,
            z=np.zeros(2),
            terms=(
                Term(
                    L=IdentityOp(2),
                    res_b_conj=lambda y, s: np.zeros_like(y),
                    res_d_conj=lambda y, s: y,
                    res_d=lambda y, g: np.full_like(y, np.nan),
                    r=np.zeros(2),
                ),
            ),
        )
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant="dr2", n_iters=5)
        assert err.value.quantity == "y, term 0"
        assert err.value.iteration == 0

    @pytest.mark.parametrize(
        "variant, field, name, wrong",
        [
            pytest.param(variant, field, name, _WRONG_OUTPUTS[kind], id=f"{variant}-{field}-{kind}")
            for variant, field, name, kinds in [
                ("dr1", "res_a", "p1", _WRONG_OUTPUTS),
                ("dr1", "res_b_conj", "dual resolvent output, term 3", _WRONG_OUTPUTS),
                ("dr1", "res_d_conj", "second-pass dual resolvent output, term 3", _WRONG_OUTPUTS),
                ("dr2", "res_a", "p1", _WRONG_OUTPUTS),
                ("dr2", "res_b_conj", "dual resolvent output, term 3", _WRONG_OUTPUTS),
                ("dr2", "res_d", "y resolvent output, term 3", _WRONG_OUTPUTS),
                ("dr1", "errs.a", "error vector a", ["length3"]),
                ("dr1", "errs.b", "error vector b, term 0", ["scalar"]),
                ("dr1", "errs.d", "error vector d, term 0", ["row"]),
                ("dr2", "errs.a", "error vector a", ["length3"]),
                ("dr2", "errs.b", "error vector b, term 0", ["scalar"]),
                ("dr2", "errs.d", "error vector d, term 0", ["row"]),
            ]
            for kind in kinds
        ],
    )
    def test_a_wrong_shaped_resolvent_output_is_named(self, variant, field, name, wrong):
        # on heron1's 2-vectors a scalar broadcasts through a sweep; one from
        # res_d_conj, res_d or the schedule's b would end the run on a wrong
        # point without error
        prob = heron_build(heron1())
        cfg = heron_step_config("heron1", prob, variant, max_iters=5)
        out = lambda *key: wrong
        bad, errs = prob, None
        if field.startswith("errs."):
            zero = lambda *key: np.zeros(2)
            errs = dataclasses.replace(ErrorSchedule(a=zero, b=zero, d=zero), **{field.removeprefix("errs."): out})
        elif field == "res_a":
            bad = dataclasses.replace(prob, res_a=out)
        else:
            terms = list(prob.terms)
            terms[3] = dataclasses.replace(terms[3], **{field: out})
            bad = dataclasses.replace(prob, terms=tuple(terms))
        message = f"{name} has shape {np.shape(wrong)}, not its block's (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(bad, cfg, errs=errs, variant=variant)

    @staticmethod
    def _late_setup(problem, variant):
        """The problem, step configuration, checked term and block length of a
        late wrong-shape case: heron1's 8-row group, or two terms with distinct
        MatrixOps, each a one-row group."""
        if problem == "heron1":
            prob = heron_build(heron1())
            return prob, heron_step_config("heron1", prob, variant, max_iters=10), 3, 2
        rng = np.random.default_rng(4)
        terms = [(MatrixOp(0.5 * rng.standard_normal((3, 3))), g, None, None) for g in (EuclideanNorm(), WeightedL1(0.5))]
        prob = make_prox_problem(BallIndicator(np.zeros(3), 2.0), None, terms)
        return prob, StepConfig(tau=0.2, sigmas=(0.5, 0.5), lambda_schedule=1.5, max_iters=10), 1, 3

    @staticmethod
    def _from_call(call, right, wrong):
        """``right`` up to call ``call``, then ``wrong`` from that call on."""
        calls = itertools.count(1)
        return lambda *args: wrong(*args) if next(calls) >= call else right(*args)

    def _replaced(self, prob, field, term, out):
        """``prob`` and an error schedule (None for exact) in which ``field`` of
        term ``term`` is ``out`` of what it was; the schedule is otherwise zeros."""
        if field.startswith("errs."):
            zero = lambda *key: np.zeros(prob.block_signature[0] if key[:-1] else prob.dim)
            bad = out(zero)
            replaced = {field.removeprefix("errs."): lambda i, n: bad(i, n) if i == term else zero(i, n)}
            return prob, dataclasses.replace(ErrorSchedule(a=zero, b=zero, d=zero), **replaced)
        terms = list(prob.terms)
        terms[term] = dataclasses.replace(terms[term], **{field: out(getattr(terms[term], field))})
        return dataclasses.replace(prob, terms=tuple(terms)), None

    @pytest.mark.parametrize("call", [1, 3])
    @pytest.mark.parametrize(
        "problem, variant, field, name",
        [
            ("heron1", "dr1", "res_b_conj", "dual resolvent output"),
            ("heron1", "dr1", "errs.d", "error vector d"),
            ("heron1", "dr2", "res_d", "y resolvent output"),
            ("matrix", "dr1", "res_d_conj", "second-pass dual resolvent output"),
            ("matrix", "dr1", "errs.b", "error vector b"),
            ("matrix", "dr2-reduced", "res_b_conj", "dual resolvent output"),
            ("matrix", "dr2-reduced", "errs.b", "error vector b"),
        ],
    )
    def test_a_wrong_shape_from_a_later_call_is_named(self, problem, variant, field, name, call):
        # a 0-d output from the 3rd call used to end a dr2-reduced run silently
        # and a dr1 run on numpy's broadcast error, and to break heron's stack
        prob, cfg, term, dim = self._late_setup(problem, variant)
        bad, errs = self._replaced(prob, field, term, lambda right: self._from_call(call, right, lambda *a: np.float64(0.0)))
        message = f"{name}, term {term} has shape (), not its block's ({dim},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(bad, cfg, errs=errs, variant=variant)

    @pytest.mark.parametrize(
        "problem, variant, field",
        [
            ("heron1", "dr1", "res_b_conj"),
            ("matrix", "dr1", "res_b_conj"),
            ("matrix", "dr1", "errs.d"),
            ("matrix", "dr2-reduced", "res_b_conj"),
        ],
    )
    def test_a_right_length_list_output_runs_as_its_array(self, problem, variant, field):
        # a one-row group used to fail on its list from the first call, while heron's group stacked it
        prob, cfg, term, _ = self._late_setup(problem, variant)
        as_list = lambda right: (lambda *args: right(*args).tolist())
        listed, errs = self._replaced(prob, field, term, as_list)
        same, plain_errs = self._replaced(prob, field, term, lambda right: right)
        for a, b in zip(run(listed, cfg, errs=errs, variant=variant), run(same, cfg, errs=plain_errs, variant=variant), strict=True):
            assert _same_bits(a.primal, b.primal) and a.step_residual == b.step_residual

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_an_infinite_resolvent_output_is_named(self, variant):
        # inf - inf on the way to the check yields NaN; run keeps numpy's
        # invalid-value warning quiet, under the suite's error::RuntimeWarning filter
        bad = dataclasses.replace(_point_norm_problem(2), res_a=lambda x, t: np.full_like(x, np.inf))
        cfg = StepConfig(tau=0.2, sigmas=(0.5,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant=variant)
        assert (err.value.quantity, err.value.iteration) == ("p1", 0)

    def test_overflowing_residual_names_residual(self):
        # every block stays finite, but the squared update norm 2 * 1e400 is not
        zero = lambda y, s: np.zeros_like(y)
        bad = ProblemSpec(
            res_a=lambda x, t: np.full_like(x, 1e200),
            z=np.zeros(2),
            terms=(Term(L=IdentityOp(2), res_b_conj=zero, res_d_conj=zero, res_d=zero, r=np.zeros(2)),),
        )
        cfg = StepConfig(tau=0.1, sigmas=(0.1,), lambda_schedule=1.0, max_iters=5)
        # no np.errstate here: run silences the overflow itself, and the
        # suite's error::RuntimeWarning filter checks that it stays quiet
        with pytest.raises(DivergenceError) as err:
            run(bad, cfg, variant="dr1", n_iters=5)
        assert (err.value.quantity, err.value.iteration) == ("residual", 0)

    def test_under_declared_deblur_run_stops_at_its_first_infinite_residual(self):
        # The published wavelet bound 2^-8 against a true norm of 1 breaks the
        # dr1 budget; the update norm overflows at sweep 342 while every block
        # is still finite, and the first non-finite block comes only at 686.
        d = make_deblur_spec(shape=(32, 32), wavelet_norm_bound=PAPER_WAVELET_NORM_BOUND)
        prob = deblur_build(d)
        cfg = deblur_step_config(prob, "dr1", max_iters=1000)
        with pytest.raises(DivergenceError) as err:
            run(prob, cfg, variant="dr1", x0=d.observed.ravel())
        assert (err.value.quantity, err.value.iteration) == ("residual", 342)


class TestLogRows:
    """Every logged row keeps its primal; only the final row keeps the duals."""

    RUN_ENDS = {
        "residual_tol": dict(n_iters=10_000, residual_tol=1e-6, log_stride=7),
        "n_iters": dict(n_iters=23, log_stride=5),
        "zero_iters": dict(n_iters=0),
    }

    @pytest.mark.parametrize("end", list(RUN_ENDS))
    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_only_the_final_row_holds_duals(self, variant, end):
        prob = TestReducedScheme()._reduced_problem()
        cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=50)
        x0 = np.array([0.9, -0.4, 0.2])
        log = run(prob, cfg, variant=variant, x0=x0, **self.RUN_ENDS[end])
        last = {"residual_tol": log.final.n, "n_iters": 22, "zero_iters": 0}[end]
        stride = self.RUN_ENDS[end].get("log_stride", 1)
        assert [row.n for row in log] == [k for k in range(last) if k % stride == 0] + [last]
        if end == "residual_tol":
            assert 0 < last < 10_000 - 1 and last % 7 != 0 and log.final.step_residual < 1e-6
        assert all(row.duals is None for row in log.rows[:-1])
        state = preflight(prob, cfg, variant, x0=x0)
        for _ in range(last + 1):
            state = VARIANTS[variant].step(prob, cfg, None, state)
        assert log.final.primal.tobytes() == state.p1.tobytes()
        assert log.final.step_residual == state.residual
        _assert_same_blocks(log.final.duals, state.duals)

    def test_a_long_log_keeps_one_set_of_dual_blocks(self):
        d = make_deblur_spec(shape=(64, 64))
        prob = deblur_build(d)
        cfg = deblur_step_config(prob, "dr1", max_iters=40)
        x0 = d.observed.ravel()
        run(prob, cfg, variant="dr1", n_iters=1, x0=x0)  # what a first sweep loads or caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = run(prob, cfg, variant="dr1", log_stride=1, x0=x0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == 40
        duals = sum(block.nbytes for block in log.final.duals)
        # each row that also kept its duals would retain 4 primals more
        assert duals == 4 * x0.nbytes
        assert retained <= len(log) * x0.nbytes + duals + 64 * 1024


def _track_sweeps(monkeypatch, variant):
    """Make ``run`` sweep through a spy; returns, per sweep, the names of the
    tracked arrays still live as it starts. Tracked are the start blocks
    (``start``) and each sweep's ``p1`` and dual blocks (``p1 k``, ``duals k``)."""
    refs, alive = {}, []
    real = VARIANTS[variant].step

    def step(spec, cfg, errs, state):
        alive.append({name.rsplit(" ", 1)[0] for name, ref in refs.items() if ref() is not None})
        if state.n == 0:
            blocks = (state.x, *state.v, *(state.y if state.y is not None else ()))
            refs.update((f"start {i}", weakref.ref(b)) for i, b in enumerate(blocks))
        new = real(spec, cfg, errs, state)
        refs[f"p1 {state.n} 0"] = weakref.ref(new.p1)
        refs.update((f"duals {state.n} {i}", weakref.ref(b)) for i, b in enumerate(new.duals))
        return new

    monkeypatch.setitem(VARIANTS, variant, VARIANTS[variant]._replace(step=step))
    return alive


class TestSweepMemory:
    """What a sweep allocates and writes to, and what a run keeps live."""

    @pytest.fixture(scope="class")
    def deblur16(self):
        d = make_deblur_spec(shape=(16, 16))
        return deblur_build(d), d.observed.ravel()

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_start_blocks_are_not_live_after_the_first_sweep(self, monkeypatch, deblur16, variant):
        prob, _ = deblur16
        cfg = deblur_step_config(prob, variant, max_iters=4)
        alive = _track_sweeps(monkeypatch, variant)
        run(prob, cfg, variant=variant)  # without x0 and v0, run builds every start block
        assert len(alive) == 4
        assert not any("start" in names for names in alive[1:])

    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_run_drops_each_sweeps_records_before_the_next(self, monkeypatch, deblur16, variant):
        prob, _ = deblur16
        cfg = deblur_step_config(prob, variant, max_iters=6)
        alive = _track_sweeps(monkeypatch, variant)
        log = run(prob, cfg, variant=variant, log_stride=4)
        assert [row.n for row in log] == [0, 4, 5]
        # only the logged rows keep their p1: no earlier sweep's duals are live
        assert alive == [set(), {"p1 0"}, {"p1 0"}, {"p1 0"}, {"p1 0"}, {"p1 0", "p1 4"}]

    @pytest.mark.parametrize("variant, bound", [("dr1", 17), ("dr2-reduced", 15)])
    def test_a_sweep_peaks_below_its_bound(self, variant, bound):
        d = make_deblur_spec(shape=(64, 64))
        prob = deblur_build(d)
        cfg = deblur_step_config(prob, variant, max_iters=10)
        step = VARIANTS[variant].step
        state = preflight(prob, cfg, variant, x0=d.observed.ravel())
        for _ in range(3):
            state = step(prob, cfg, None, state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = step(prob, cfg, None, state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        primal = state.x.nbytes
        # the new state alone holds 10 primals: x, p1 and the 4 primals each of v and duals
        assert sum(b.nbytes for b in (new.x, new.p1, *new.v, *new.duals)) == 10 * primal
        assert peak <= bound * primal

    @staticmethod
    def _returning_problem(reduced, shared):
        """Maps that return their argument: the big ball's prox (f), IdentityOp,
        EuclideanNorm's conjugate prox inside its ball and the origin
        PointIndicator's; shifts and a tilt too. With ``shared``, terms 0 and 1
        share one IdentityOp, so they are one group whose resolvents return
        rows of the sweep's stacked argument."""
        dim = 3
        first = IdentityOp(dim)
        terms = [
            (first, EuclideanNorm(), None if reduced else EuclideanNorm(), np.array([0.1, -0.2, 0.05])),
            (first if shared else IdentityOp(dim), PointIndicator(), None if reduced else WeightedL1(0.5), None),
            (MatrixOp(0.5 * np.eye(dim)), WeightedL1(0.3), None if reduced else PointIndicator(), np.array([0.0, 0.2, -0.1])),
        ]
        return make_prox_problem(BallIndicator(np.zeros(dim), 10.0), np.array([0.05, 0.0, -0.1]), terms)

    @staticmethod
    def _spy_returns(prob, returned):
        """prob with each resolvent adding its name to ``returned`` whenever it returns its argument."""

        def spy(name, res):
            def wrapped(arg, gamma):
                out = res(arg, gamma)
                if out is arg:
                    returned.add(name)
                return out

            return wrapped

        terms = [
            dataclasses.replace(t, **{k: spy(f"{k} {i}", getattr(t, k)) for k in ("res_b_conj", "res_d_conj", "res_d")})
            for i, t in enumerate(prob.terms)
        ]
        return dataclasses.replace(prob, res_a=spy("res_a", prob.res_a), terms=terms)

    def _check_writes(self, variant, inexact, shared):
        returned = set()
        base = self._returning_problem(reduced=variant == "dr2-reduced", shared=shared)
        assert len(base._groups) == (2 if shared else 3)
        prob = self._spy_returns(base, returned)
        cfg = StepConfig(tau=0.1, sigmas=(0.1,) * 3, lambda_schedule=1.5, max_iters=10)
        errs = make_power_error_schedule(1e-3, 2.0, (prob.dim, prob.block_signature), seed=1) if inexact else None
        step = VARIANTS[variant].step
        v0 = [np.array([0.1, -0.1, 0.2]), np.array([-0.2, 0.1, 0.0]), np.array([0.05, 0.1, -0.1])]
        y0 = [0.5 * b for b in v0] if variant == "dr2" else None
        state = preflight(prob, cfg, variant, x0=np.array([0.3, -0.2, 0.1]), v0=v0, y0=y0)
        state = step(prob, cfg, errs, state)
        for _ in range(3):
            y = state.y if state.y is not None else ()
            arrays = [state.x, *state.v, *y, state.p1, *state.duals, prob.z, *(t.r for t in prob.terms if t.r is not None)]
            before = [a.tobytes() for a in arrays]
            state = step(prob, cfg, errs, state)
            assert [a.tobytes() for a in arrays] == before
        assert {"res_a", "res_b_conj 0", "res_b_conj 1"} <= returned

    @pytest.mark.parametrize("inexact", [False, True], ids=["exact", "inexact"])
    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_a_sweep_writes_only_into_arrays_it_allocated(self, variant, inexact):
        self._check_writes(variant, inexact, shared=False)

    @pytest.mark.parametrize("inexact", [False, True], ids=["exact", "inexact"])
    @pytest.mark.parametrize("variant", ["dr1", "dr2", "dr2-reduced"])
    def test_a_grouped_sweep_writes_only_into_arrays_it_allocated(self, variant, inexact):
        # terms 0 and 1 are one group: their resolvents return rows of the sweep's stacked argument
        self._check_writes(variant, inexact, shared=True)


class TestHugeUpdates:
    def test_update_norm_rescales_only_an_overflowing_sum(self):
        sqs = [0.25, 3.0, 1e-300, 7.5]
        total = 0.0
        for s in sqs:
            total += s
        assert _update_norm(sqs, {}).hex() == math.sqrt(total).hex()
        # every square finite, their sum not
        assert _update_norm([1e308, 1e308, 4.0], {}) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
        # a block whose own square overflowed counts with its norm, kept at its position
        assert _update_norm([4.0, math.inf, 9.0], {1: 1e160}) == pytest.approx(1e160, rel=1e-15)
        assert _update_norm([4.0, math.inf], {1: math.inf}) == math.inf
        assert math.isnan(_update_norm([math.nan, math.inf], {1: 1e160}))

    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    @pytest.mark.parametrize("make", [heron1, heron2], ids=["heron1", "heron2"])
    def test_a_huge_start_runs_with_finite_residuals(self, make, variant):
        # From a 1e160 entry the sum of squares of the first updates overflows;
        # the update norm does not, and the run goes on.
        prob = heron_build(make())
        cfg = heron_step_config(make.__name__, prob, variant, max_iters=400)
        x0 = np.zeros(prob.dim)
        x0[0] = 1e160
        with np.errstate(over="ignore"):
            log = run(prob, cfg, variant=variant, x0=x0)
            first = VARIANTS[variant].step(prob, cfg, None, preflight(prob, cfg, variant, x0=x0))
        assert len(log) == 400
        assert all(math.isfinite(row.step_residual) and np.all(np.isfinite(row.primal)) for row in log)
        # the first residual is the norm of the first relaxed update; v and y start at zero
        moved = [first.x - x0, *_per_term(first.v), *_per_term(first.y or ())]
        assert log.rows[0].step_residual == pytest.approx(math.hypot(*np.concatenate(moved)), rel=1e-12)
        assert log.rows[0].step_residual > 1e159

    @pytest.mark.parametrize("variant", ["dr1", "dr2"])
    @pytest.mark.parametrize("make", [heron1, heron2], ids=["heron1", "heron2"])
    def test_a_huge_start_runs_without_warnings(self, make, variant):
        # run silences numpy's overflow warnings itself; its rows are those of
        # the same run under the caller's own np.errstate
        prob = heron_build(make())
        cfg = heron_step_config(make.__name__, prob, variant, max_iters=400)
        x0 = np.zeros(prob.dim)
        x0[0] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = run(prob, cfg, variant=variant, x0=x0)
        with np.errstate(over="ignore"):
            wrapped = run(prob, cfg, variant=variant, x0=x0)
        assert len(log) == len(wrapped) == 400
        for row, other in zip(log, wrapped):
            assert row.n == other.n
            assert row.primal.tobytes() == other.primal.tobytes()
            assert row.step_residual.hex() == other.step_residual.hex()
        _assert_same_blocks(log.final.duals, wrapped.final.duals)


PACKAGE = Path(proxsplit.__file__).parent
# What a fuzzed run may get wrong: each case has the one it is named after,
# and may draw a second.
_FAULTS = ["variant", "tau", "sigmas", "lambda", "x0", "v0", "y0", "resolvent", "errs", "log_stride"]
_ODD_STEPS = [math.nan, math.inf, 0.0, -1.0, 1e-320, 1e300]


@st.composite
def _fuzz_spec(draw):
    """heron1, or a seeded spec of 1-2 ``MatrixOp`` terms in 1-3 dimensions."""
    if draw(st.booleans()):
        return heron_build(heron1())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    f = draw(st.sampled_from([BallIndicator(np.zeros(dim), 1.0), BoxIndicator(-1.0, 1.0), WeightedL1(0.5)]))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        out = draw(st.integers(1, 3))
        g = draw(st.sampled_from([EuclideanNorm(), WeightedL1(0.7, shift=rng.standard_normal(out)), BoxIndicator(-1.0, 1.0)]))
        l = draw(st.sampled_from([None, None, EuclideanNorm(), BallIndicator(np.zeros(out), 0.5)]))
        r = rng.standard_normal(out) if draw(st.booleans()) else None
        terms.append((MatrixOp(rng.standard_normal((out, dim))), g, l, r))
    return make_prox_problem(f, rng.standard_normal(dim) if draw(st.booleans()) else None, terms)


@st.composite
def _fuzz_start(draw, dims, faulty: bool):
    """None, or one seeded vector per entry of ``dims``, perhaps huge; a
    faulty start has a non-finite entry, a block too short, one block too
    many or a 2-D block."""
    kinds = ["nan", "inf", "short", "extra", "2d"] if faulty else ["none", "finite", "huge"]
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.standard_normal(d) for d in dims]
    i = draw(st.integers(0, len(dims) - 1))
    if kind in ("nan", "inf", "huge"):
        blocks[i][draw(st.integers(0, dims[i] - 1))] = {"nan": math.nan, "inf": -math.inf, "huge": 1e300}[kind]
    elif kind == "short":
        blocks[i] = blocks[i][:-1]
    elif kind == "extra":
        blocks.append(np.zeros(1))
    elif kind == "2d":
        blocks[i] = blocks[i][None]
    return blocks


def _fuzz_resolvent(res, how: str, first: int):
    """``res`` with a non-finite output from its call ``first`` on, or a
    mis-shaped output at every call."""
    calls = itertools.count()

    def out(arg, weight):
        p = res(arg, weight)
        if how in ("nan", "inf"):
            return p if next(calls) < first else np.full(np.shape(p), float(how))
        return {"scalar": 0.0, "short": p[:-1], "2d": p[None]}[how]

    return out


class TestRunFuzz:
    """Whatever start, steps, error schedule and resolvent outputs ``run`` is
    given, it returns a log of finite rows or raises a ValueError (a
    StepSizeError is one) or a DivergenceError from a ``raise`` of the
    package: never numpy's own error, another exception or a warning."""

    @pytest.mark.parametrize("fault", ["none", *_FAULTS])
    @settings(max_examples=40)
    @given(data=st.data(), spec=_fuzz_spec(), more=st.sets(st.sampled_from(_FAULTS), max_size=1))
    def test_a_run_ends_in_a_log_or_a_named_error(self, fault, data, spec, more):
        draw = data.draw
        faults = more | {fault}
        reduced = all(t.d_is_zero for t in spec.terms)
        variant = draw(st.sampled_from(sorted(VARIANTS) if reduced or "variant" in faults else ["dr1", "dr2"]))
        if "resolvent" in faults:
            broken = draw(st.sampled_from(["nan", "inf", "scalar", "short", "2d"])), draw(st.integers(0, 3))
            where = draw(st.sampled_from(["res_a", "res_b_conj", "res_d_conj", "res_d"]))
            if where == "res_a":
                spec = dataclasses.replace(spec, res_a=_fuzz_resolvent(spec.res_a, *broken))
            else:
                i = draw(st.integers(0, spec.m - 1))
                term = dataclasses.replace(spec.terms[i], **{where: _fuzz_resolvent(getattr(spec.terms[i], where), *broken)})
                spec = dataclasses.replace(spec, terms=spec.terms[:i] + (term,) + spec.terms[i + 1 :])
        sigmas = draw(st.lists(st.floats(0.1, 1.0), min_size=spec.m, max_size=spec.m))
        # a fraction of the variant's budget, or beyond it
        share = draw(st.sampled_from([1.0, 2.0]) if "tau" in faults else st.floats(0.05, 0.99))
        tau = share * VARIANTS[variant].budget / sum(s * b**2 for s, b in zip(sigmas, spec.norm_bounds))
        if "tau" in faults and draw(st.booleans()):
            tau = draw(st.sampled_from(_ODD_STEPS))
        if "sigmas" in faults:
            sigmas[draw(st.integers(0, spec.m - 1))] = draw(st.sampled_from(_ODD_STEPS))
            sigmas += [0.5] * draw(st.integers(0, 1))
        lam = draw(st.floats(0.1, 1.9))
        if "lambda" in faults:
            bad, turn = draw(st.sampled_from([math.nan, 0.0, 2.0, -1.0])), draw(st.integers(0, 4))
            lam = draw(st.sampled_from([bad, lambda n: 1.5 if n < turn else bad]))
        errs = None
        if "errs" in faults:
            kind = draw(st.sampled_from(["nan", "short", "huge"]))
            if kind == "huge":
                errs = make_power_error_schedule(1e200, 2.0, (spec.dim, spec.block_signature), 0)
            else:
                a = np.full(spec.dim, math.nan) if kind == "nan" else np.zeros(spec.dim - 1)
                sig = spec.block_signature
                errs = ErrorSchedule(a=lambda n: a, b=lambda i, n: np.zeros(sig[i]), d=lambda i, n: np.zeros(sig[i]))
        elif draw(st.booleans()):
            errs = make_power_error_schedule(draw(st.sampled_from([1e-3, 1.0])), 2.0, (spec.dim, spec.block_signature), 0)
        x0 = draw(_fuzz_start((spec.dim,), "x0" in faults))
        starts = dict(
            x0=None if x0 is None else x0[0] if len(x0) == 1 else np.concatenate(x0),
            v0=draw(_fuzz_start(spec.block_signature, "v0" in faults)),
            y0=draw(_fuzz_start(spec.block_signature, "y0" in faults)) if variant == "dr2" or "y0" in faults else None,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = StepConfig(tau=tau, sigmas=sigmas, lambda_schedule=lam, max_iters=4)
                log = run(
                    spec,
                    cfg,
                    errs,
                    variant=variant,
                    n_iters=draw(st.integers(0, 4)),
                    log_stride=0 if "log_stride" in faults else draw(st.integers(1, 2)),
                    residual_tol=draw(st.sampled_from([None, math.nan, 1e-3])),
                    **starts,
                )
            except (ValueError, DivergenceError) as err:
                raised = traceback.extract_tb(err.__traceback__)[-1]
                assert Path(raised.filename).parent == PACKAGE and raised.line.startswith("raise "), repr(err)
                return
        assert len(log) >= 1
        for row in log:
            assert row.primal.shape == (spec.dim,) and np.all(np.isfinite(row.primal))
            assert math.isfinite(row.step_residual)
        assert tuple(b.shape[0] for b in log.final.duals) == spec.block_signature
        assert all(np.all(np.isfinite(b)) for b in log.final.duals)


class TestMetric:
    def _setup(self):
        prob = heron_build(heron1())
        cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=5)
        return prob, cfg

    def test_zero_vector(self):
        prob, cfg = self._setup()
        assert vnorm_dr1(prob, cfg, np.zeros(2), (np.zeros((8, 2)),)) == 0.0

    def test_self_adjoint(self, rng):
        prob, cfg = self._setup()
        for _ in range(50):
            x1, v1 = rng.standard_normal(2), (rng.standard_normal((8, 2)),)
            x2, v2 = rng.standard_normal(2), (rng.standard_normal((8, 2)),)
            m1x, m1v = metric_apply_dr1(prob, cfg, x1, v1)
            m2x, m2v = metric_apply_dr1(prob, cfg, x2, v2)
            lhs = float(np.dot(x1, m2x)) + _block_dot(v1, m2v)
            rhs = float(np.dot(x2, m1x)) + _block_dot(v2, m1v)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_rho_is_refused_outside_the_dr1_budget(self):
        """tau = 3 with sigma = 0.5 on heron1's eight unit bounds sums to 12,
        past dr1's budget of 4, where (1 - sqrt(12) / 2) * 2 read -0.244 as a
        strong-positivity constant; inside the budget rho keeps its bits."""
        prob, cfg = self._setup()
        assert metric_rho_dr1(prob, cfg) == 1.0202041028867288  # (1 - sqrt(0.96) / 2) * min(1 / 0.24, 1 / 0.5)
        with pytest.raises(StepSizeError, match=r"= 12, required < 4 \(dr1\)$"):
            metric_rho_dr1(prob, dataclasses.replace(cfg, tau=3.0))

    def test_strong_positivity(self, rng):
        prob, cfg = self._setup()
        rho = metric_rho_dr1(prob, cfg)
        assert rho > 0.0
        for _ in range(1000):
            x = rng.standard_normal(2) * 3.0
            v = (rng.standard_normal((8, 2)) * 3.0,)
            sq = vnorm_dr1(prob, cfg, x, v) ** 2
            norm_sq = float(np.dot(x, x)) + _block_dot(v, v)
            assert sq >= rho * norm_sq - 1e-10 * (1 + norm_sq)
