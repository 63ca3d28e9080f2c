import math

import numpy as np
import pytest

from proxsplit.core import (
    IterateLog,
    LogRow,
    StepConfig,
    StepSizeError,
    make_power_error_schedule,
)
from proxsplit.problems import heron1, heron_build
from proxsplit.solvers import preflight, run, validate_steps


class TestStepConfig:
    def test_budget_strictness(self):
        # construction does not check the budget; validate_steps rejects
        # exactly at the boundary and beyond, and accepts strictly inside
        prob = heron_build(heron1())
        kw = dict(sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=10)
        validate_steps(prob, StepConfig(tau=0.24, **kw), "dr1")  # 0.96 < 4
        for tau in (1.0, 1.001):  # 4.0 exactly, 4.004
            cfg = StepConfig(tau=tau, **kw)
            with pytest.raises(StepSizeError):
                validate_steps(prob, cfg, "dr1")

    def test_positivity(self):
        with pytest.raises(ValueError):
            StepConfig(tau=0.0, sigmas=(1.0,), lambda_schedule=1.0, max_iters=5)
        with pytest.raises(ValueError):
            StepConfig(tau=1.0, sigmas=(0.0,), lambda_schedule=1.0, max_iters=5)

    @pytest.mark.parametrize(
        "tau, sigmas, message",
        [
            (math.nan, (1.0,), "tau must be strictly positive"),
            (1.0, (0.5, math.nan), "every sigma must be strictly positive"),
        ],
        ids=["tau", "sigma"],
    )
    def test_nan_step_is_refused_where_it_is_built(self, tau, sigmas, message):
        # a NaN passes a "<= 0" test; the budget check would refuse it only later
        with pytest.raises(ValueError, match=f"^{message}$"):
            StepConfig(tau=tau, sigmas=sigmas, lambda_schedule=1.0, max_iters=5)

    def test_relaxation_range(self):
        # construction takes any relaxation; preflight, and so run, rejects
        # one outside (0, 2) before the first sweep
        prob = heron_build(heron1())
        for schedule in (2.0, lambda n: 1.0 if n < 3 else 2.5):
            cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=schedule, max_iters=5)
            with pytest.raises(ValueError):
                preflight(prob, cfg, "dr1")
            with pytest.raises(ValueError):
                run(prob, cfg, variant="dr1", n_iters=5)
        cfg = StepConfig(tau=1.0, sigmas=(1.0,), lambda_schedule=lambda n: 1.0 + 0.5 / (n + 1), max_iters=5)
        assert cfg.lam(0) == 1.5

    def test_scalar_sigma_promoted(self):
        cfg = StepConfig(tau=1.0, sigmas=0.5, lambda_schedule=1.0, max_iters=2)
        assert cfg.sigmas == (0.5,)


class TestErrorSchedule:
    def test_zero_magnitude_is_exact(self):
        # an exact run has no schedule
        assert make_power_error_schedule(0.0, 2.0, (3, (2, 2)), seed=1) is None

    def test_rejects_nonsummable(self):
        with pytest.raises(ValueError):
            make_power_error_schedule(1.0, 1.0, (3, (2,)), seed=0)
        with pytest.raises(ValueError):
            make_power_error_schedule(1.0, 0.5, (3, (2,)), seed=0)

    def test_rejects_negative_seed(self):
        for c in (0.0, 1.0):
            with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
                make_power_error_schedule(c, 2.0, (3, (2,)), seed=-1)

    def test_norm_law(self):
        sched = make_power_error_schedule(1.0, 2.0, (4, (2, 3)), seed=3)
        assert np.linalg.norm(sched.a(3)) == pytest.approx(1.0 / 16.0, abs=1e-14)
        assert np.linalg.norm(sched.b(1, 0)) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(sched.d(0, 9)) == pytest.approx(0.01, abs=1e-14)
        assert sched.b(0, 5).shape == (2,)
        assert sched.b(1, 5).shape == (3,)

    def test_deterministic_per_seed(self):
        s1 = make_power_error_schedule(0.5, 2.0, (4, (2,)), seed=11)
        s2 = make_power_error_schedule(0.5, 2.0, (4, (2,)), seed=11)
        s3 = make_power_error_schedule(0.5, 2.0, (4, (2,)), seed=12)
        assert np.array_equal(s1.a(7), s2.a(7))
        assert np.array_equal(s1.b(0, 7), s2.b(0, 7))
        assert not np.array_equal(s1.a(7), s3.a(7))

    def test_partial_sum_bound(self):
        # generated norms over 1e4 steps stay below the closed-form series
        # limit pi^2/6 for the quadratic decay exponent
        sched = make_power_error_schedule(1.0, 2.0, (2, (2,)), seed=0)
        total = sum(np.linalg.norm(sched.a(n)) for n in range(10_000))
        assert total <= math.pi ** 2 / 6.0 + 1e-9
        assert total == pytest.approx(sum(1.0 / (n + 1.0) ** 2 for n in range(10_000)), abs=1e-10)


class TestIterateLog:
    def test_strictly_increasing(self):
        log = IterateLog()
        row = lambda n: LogRow(n, np.zeros(2), (np.zeros(2),), None, 0.0)
        log.append(row(0))
        log.append(row(2))
        with pytest.raises(ValueError):
            log.append(row(2))
        with pytest.raises(ValueError):
            log.append(row(1))
        assert log.final.n == 2
        assert len(log) == 2
