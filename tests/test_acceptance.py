"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""
import math
import time

import numpy as np
import pytest

from proxsplit.core import StepConfig, make_power_error_schedule
from proxsplit.linops import (
    GaussianBlurOp,
    GradientOp,
    HaarOp,
    IdentityOp,
    MatrixOp,
    op_norm_estimate,
)
from proxsplit.problems import (
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
)
from proxsplit.prox import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    L21Norm,
    LineIndicator,
    PointIndicator,
    WeightedL1,
)
from proxsplit.solvers import (
    dr1_step,
    dr2_step,
    make_prox_problem,
    preflight,
    run,
    vnorm_dr1,
)
from test_solvers import _counted


def _report(k: int, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {k:2d}: {'PASS' if ok else 'FAIL'} {detail}")


def _heron_setup(which: int):
    spec = {1: heron1, 2: heron2, 3: heron3}[which]()
    return spec, heron_build(spec), (lambda x, s=spec: heron_objective(s, x))


def _row(log, n):
    return next(r for r in log if r.n == n)


def test_criterion_1_heron1_golden():
    t0 = time.perf_counter()
    spec, prob, obj = _heron_setup(1)
    cfg1 = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=51)
    log1 = run(prob, cfg1, variant="dr1", log_objective=obj, n_iters=51, x0=np.array([5.0, 2.0]))
    r50 = _row(log1, 50)
    err_p = np.abs(r50.primal - np.array([3.392688, -1.190188])).max()
    err_v = abs(r50.objective - 53.043627)

    # The published iterate table certifies its own start through the k=0 row
    # (projection of the start and matching objective value), which places it
    # at (5, -2); the k=10 comparison therefore runs from there.
    cfg2 = StepConfig(tau=0.24, sigmas=(0.1,) * 8, lambda_schedule=1.8, max_iters=11)
    log2 = run(prob, cfg2, variant="dr2", log_objective=obj, n_iters=11, x0=np.array([5.0, -2.0]))
    r10 = _row(log2, 10)
    err2_p = np.abs(r10.primal - np.array([3.441673, -1.253641])).max()
    err2_v = abs(r10.objective - 53.046054)
    elapsed = time.perf_counter() - t0

    ok = err_p <= 1e-5 and err_v <= 1e-5 and err2_p <= 1e-5 and err2_v <= 1e-5 and elapsed < 1.0
    _report(1, ok, f"dr1 k=50 err {err_p:.2e}/{err_v:.2e}, dr2 k=10 err {err2_p:.2e}/{err2_v:.2e}, {elapsed:.2f}s")
    assert err_p <= 1e-5 and err_v <= 1e-5
    assert err2_p <= 1e-5 and err2_v <= 1e-5
    assert elapsed < 1.0


def test_criterion_2_heron2_golden():
    spec, prob, obj = _heron_setup(2)
    x0 = np.array([0.0, 2.0, 0.0])
    target = np.array([-0.92531, 1.62907, 0.07883])

    cfg1 = StepConfig(tau=0.99, sigmas=(0.4,) * 5, lambda_schedule=1.8, max_iters=51)
    log1 = run(prob, cfg1, variant="dr1", log_objective=obj, n_iters=51, x0=x0)
    r50 = _row(log1, 50)
    err1_p = np.abs(r50.primal - target).max()
    err1_v = abs(r50.objective - 22.23480)

    cfg2 = StepConfig(tau=0.59, sigmas=(0.05,) * 5, lambda_schedule=1.8, max_iters=51)
    log2 = run(prob, cfg2, variant="dr2", log_objective=obj, n_iters=51, x0=x0)
    s50 = _row(log2, 50)
    err2_p = np.abs(s50.primal - target).max()
    err2_v = abs(s50.objective - 22.23480)

    ok = max(err1_p, err1_v, err2_p, err2_v) <= 1e-4
    _report(2, ok, f"dr1 err {err1_p:.2e}/{err1_v:.2e}, dr2 err {err2_p:.2e}/{err2_v:.2e}")
    assert err1_p <= 1e-4 and err1_v <= 1e-4
    assert err2_p <= 1e-4 and err2_v <= 1e-4


def test_criterion_3_heron3_golden():
    spec, prob, obj = _heron_setup(3)
    x0 = np.array([-1.0, 6.0])
    target = np.array([-1.094773, 6.0])

    cfg1 = StepConfig(tau=3.99, sigmas=(0.1,) * 5, lambda_schedule=1.7, max_iters=51)
    log1 = run(prob, cfg1, variant="dr1", log_objective=obj, n_iters=51, x0=x0)
    r50 = _row(log1, 50)
    err1 = max(np.abs(r50.primal - target).max(), abs(r50.objective - 42.882115))

    cfg2 = StepConfig(tau=0.49, sigmas=(0.1,) * 5, lambda_schedule=1.7, max_iters=51)
    log2 = run(prob, cfg2, variant="dr2", log_objective=obj, n_iters=51, x0=x0)
    s50 = _row(log2, 50)
    err2 = max(np.abs(s50.primal - target).max(), abs(s50.objective - 42.882115))

    ok = max(err1, err2) <= 1e-5
    _report(3, ok, f"dr1 err {err1:.2e}, dr2 err {err2:.2e}")
    assert err1 <= 1e-5 and err2 <= 1e-5


def test_criterion_4_moreau_identity_suite(rng):
    dim = 4
    kinds = [
        BoxIndicator(np.full(dim, -1.0), np.full(dim, 1.5)),
        BallIndicator(rng.standard_normal(dim), 2.0),
        LineIndicator(rng.standard_normal(dim), rng.standard_normal(dim)),
        PointIndicator(),
        WeightedL1(1.3, shift=rng.standard_normal(dim)),
        EuclideanNorm(),
        L21Norm(0.6, dim // 2),
    ]
    worst = 0.0
    for f in kinds:
        for _ in range(100):
            gamma = float(rng.uniform(0.05, 20.0))
            x = rng.standard_normal(dim) * float(rng.uniform(0.5, 5.0))
            recon = f.prox(x, gamma) + gamma * f.conjugate_prox(x / gamma, 1.0 / gamma)
            worst = max(worst, float(np.abs(recon - x).max()))
    ok = worst < 1e-10
    _report(4, ok, f"{len(kinds)} kinds, worst reconstruction residual {worst:.2e}")
    assert worst < 1e-10


def test_criterion_5_adjoint_suite(rng):
    ops = {
        "gradient": GradientOp((16, 16)),
        "haar": HaarOp((16, 16)),
        "blur": GaussianBlurOp((16, 16)),
        "matrix": MatrixOp(rng.standard_normal((11, 7))),
    }
    worst = 0.0
    for name, op in ops.items():
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            lhs = float(np.dot(op.apply(x), y))
            rhs = float(np.dot(x, op.adjoint(y)))
            rel = abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y) + 1.0)
            worst = max(worst, rel)
    # Haar round trip and energy preservation
    worst_rt = 0.0
    worst_energy = 0.0
    haar = HaarOp((32, 32))
    for _ in range(20):
        x = rng.standard_normal(32 * 32)
        c = haar.apply(x)
        worst_rt = max(worst_rt, float(np.abs(haar.adjoint(c) - x).max()))
        worst_energy = max(worst_energy, abs(np.linalg.norm(c) - np.linalg.norm(x)))
    ok = worst <= 1e-9 and worst_rt <= 1e-12 and worst_energy <= 1e-12
    _report(5, ok, f"worst adjoint rel {worst:.2e}, round-trip {worst_rt:.2e}, energy {worst_energy:.2e}")
    assert worst <= 1e-9
    assert worst_rt <= 1e-12 and worst_energy <= 1e-12


def test_criterion_6_norm_bounds(rng):
    shipped = [
        GradientOp((16, 16)),
        HaarOp((16, 16)),
        GaussianBlurOp((16, 16)),
        IdentityOp(9),
        MatrixOp(rng.standard_normal((6, 10))),
    ]
    ok_dom = True
    for op in shipped:
        est = op_norm_estimate(op, iters=150, seed=3)
        ok_dom = ok_dom and est <= op.norm_bound * (1 + 1e-6)
    est64 = op_norm_estimate(GradientOp((64, 64)), iters=300, seed=0)
    ok_grad = 2.7 < est64 <= math.sqrt(8.0)
    _report(6, ok_dom and ok_grad, f"gradient 64x64 estimate {est64:.7f} (bound {math.sqrt(8.0):.7f})")
    assert ok_dom
    assert ok_grad


def test_criterion_7_fejer_monotonicity():
    spec, prob, _ = _heron_setup(1)
    cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=10_000)
    x0 = np.array([5.0, 2.0])

    state = preflight(prob, cfg, "dr1", x0=x0)
    for _ in range(10_000):
        state = dr1_step(prob, cfg, None, state)
    x_lim, v_lim = state.x, state.v

    def dist(state):
        dv = [b - b_lim for b, b_lim in zip(state.v, v_lim, strict=True)]
        return vnorm_dr1(prob, cfg, state.x - x_lim, dv)

    state = preflight(prob, cfg, "dr1", x0=x0)
    dists = []
    for _ in range(500):
        dists.append(dist(state))
        state = dr1_step(prob, cfg, None, state)
    dists.append(dist(state))
    increments = [b - a for a, b in zip(dists, dists[1:])]
    worst = max(increments)
    ok = worst <= 1e-9
    _report(7, ok, f"max per-step V-distance increase over 500 steps: {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_8_residual_decay():
    configs = {
        (1, "dr1"): dict(tau=0.24, sigma=0.5, lam=1.8),
        (1, "dr2"): dict(tau=0.24, sigma=0.1, lam=1.8),
        (2, "dr1"): dict(tau=0.99, sigma=0.4, lam=1.8),
        (2, "dr2"): dict(tau=0.59, sigma=0.05, lam=1.8),
        (3, "dr1"): dict(tau=3.99, sigma=0.1, lam=1.7),
        (3, "dr2"): dict(tau=0.49, sigma=0.1, lam=1.7),
    }
    starts = {1: [5.0, 2.0], 2: [0.0, 2.0, 0.0], 3: [-1.0, 6.0]}
    results = {}
    for (which, variant), c in configs.items():
        spec, prob, _ = _heron_setup(which)
        cfg = StepConfig(
            tau=c["tau"], sigmas=(c["sigma"],) * prob.m, lambda_schedule=c["lam"],
            max_iters=10_000,
        )
        log = run(
            prob, cfg, variant=variant, n_iters=10_000, residual_tol=1e-8,
            log_stride=10_000, x0=np.array(starts[which]),
        )
        results[(which, variant)] = (log.final.n, log.final.step_residual)
    ok = all(res < 1e-8 for _, res in results.values())
    detail = ", ".join(f"ex{w}/{v}: n={n}" for (w, v), (n, _) in results.items())
    _report(8, ok, detail)
    for (which, variant), (n, res) in results.items():
        assert res < 1e-8, f"example {which} {variant}: residual {res} at n={n}"
        assert n < 10_000


def test_criterion_9_inexactness_robustness():
    spec, prob, _ = _heron_setup(1)
    cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=5000)
    x0 = np.array([5.0, 2.0])
    exact = run(prob, cfg, variant="dr1", n_iters=5000, log_stride=5000, x0=x0)
    errs = make_power_error_schedule(0.1, 2.0, (prob.dim, prob.block_signature), seed=17)
    noisy = run(prob, cfg, variant="dr1", errs=errs, n_iters=5000, log_stride=5000, x0=x0)
    gap = float(np.abs(exact.final.primal - noisy.final.primal).max())
    ok = gap <= 1e-4
    _report(9, ok, f"primal gap between exact and perturbed runs: {gap:.2e}")
    assert gap <= 1e-4


def test_criterion_10_operator_call_accounting():
    dim = 3
    n_steps = 9
    counters1 = [_counted(IdentityOp(dim)) for _ in range(4)]
    terms = [
        (op, EuclideanNorm(), BoxIndicator(-np.ones(dim), np.ones(dim)), np.zeros(dim))
        for op in counters1
    ]
    prob = make_prox_problem(BallIndicator(np.zeros(dim), 1.0), np.zeros(dim), terms)
    cfg = StepConfig(tau=0.2, sigmas=(0.2,) * 4, lambda_schedule=1.5, max_iters=n_steps)
    state = preflight(prob, cfg, "dr1")
    for _ in range(n_steps):
        state = dr1_step(prob, cfg, None, state)
    ok1 = all(op.apply.call_count == 2 * n_steps and op.adjoint.call_count == 2 * n_steps for op in counters1)

    counters2 = [_counted(IdentityOp(dim)) for _ in range(4)]
    terms = [
        (op, EuclideanNorm(), BoxIndicator(-np.ones(dim), np.ones(dim)), np.zeros(dim))
        for op in counters2
    ]
    prob = make_prox_problem(BallIndicator(np.zeros(dim), 1.0), np.zeros(dim), terms)
    state = preflight(prob, cfg, "dr2")
    for _ in range(n_steps):
        state = dr2_step(prob, cfg, None, state)
    ok2 = all(op.apply.call_count == n_steps and op.adjoint.call_count == n_steps for op in counters2)

    _report(10, ok1 and ok2, f"{n_steps} sweeps: two-pass 2/2 per term, single-pass 1/1 per term")
    assert ok1 and ok2


def test_criterion_11_deblurring_properties():
    t0 = time.perf_counter()
    dspec = make_deblur_spec(shape=(64, 64))
    prob = deblur_build(dspec)
    obj = lambda x: deblur_objective(dspec, x)
    finals = {}
    first_obj = None
    isnrs = {}
    for variant in ("dr1", "dr2-reduced"):
        cfg = deblur_step_config(prob, variant, max_iters=200)
        log = run(
            prob, cfg, variant=variant, log_objective=obj, n_iters=200,
            log_stride=199, x0=dspec.observed.ravel(),
        )
        first_obj = log.rows[0].objective
        finals[variant] = log.final.objective
        isnrs[variant] = isnr(dspec.clean, dspec.observed, log.final.primal)
        assert log.final.objective < first_obj
        assert isnrs[variant] > 0.0
    rel_gap = abs(finals["dr1"] - finals["dr2-reduced"]) / abs(finals["dr1"])
    elapsed = time.perf_counter() - t0
    ok = rel_gap <= 0.01 and elapsed < 60.0
    _report(
        11,
        ok,
        f"objectives {finals['dr1']:.4f}/{finals['dr2-reduced']:.4f} (gap {rel_gap:.2%}), "
        f"isnr {isnrs['dr1']:.1f}/{isnrs['dr2-reduced']:.1f} dB, {elapsed:.1f}s",
    )
    assert rel_gap <= 0.01
    assert elapsed < 60.0


def test_criterion_12_reduced_scheme_equivalence():
    dim = 3
    f = BoxIndicator(-np.ones(dim), np.ones(dim))
    terms = [
        (IdentityOp(dim), EuclideanNorm(), None, np.zeros(dim)),
        (MatrixOp(0.5 * np.eye(dim)), WeightedL1(0.8), None, np.zeros(dim)),
    ]
    prob = make_prox_problem(f, 0.1 * np.ones(dim), terms)
    cfg = StepConfig(tau=0.15, sigmas=(0.5, 0.5), lambda_schedule=1.7, max_iters=100)
    x0 = np.array([0.9, -0.4, 0.2])
    full = preflight(prob, cfg, "dr2", x0=x0)
    red = preflight(prob, cfg, "dr2-reduced", x0=x0)
    identical = True
    for _ in range(100):
        full = dr2_step(prob, cfg, None, full)
        red = dr2_step(prob, cfg, None, red)
        identical = identical and np.array_equal(full.x, red.x)
        identical = identical and all(
            np.array_equal(a, b) for a, b in zip(full.v, red.v)
        )
        identical = identical and full.residual == red.residual
    _report(12, identical, "100 sweeps bit-identical on a shared-budget config")
    assert identical
