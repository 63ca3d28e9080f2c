"""A known-answer oracle for the paper's monotone inclusions.

Find x in R^4 with

    z in A x + sum_i L_i^T (B_i [] D_i)(L_i x - r_i),

where B [] D = (B^-1 + D^-1)^-1 is the parallel sum (Combettes and Pesquet,
Set-Valued Var. Anal. 20, 2012). Every operator A, B_i and D_i is linear,
P + S with P positive definite and S skew, so it is monotone but not the
subdifferential of a function, and the sweeps reach it only through the
resolvents (I + gamma M)^-1 built here by hand. Its zero solves the linear
system (A + sum_i L_i^T M_i L_i) x = z + sum_i L_i^T M_i r_i with
M_i = B_i [] D_i; a reduced slot has D_i = N_{0}, so M_i = B_i, its
conjugate resolvent is the identity and its resolvent the zero map.
"""
import numpy as np
import pytest

from proxsplit.core import StepConfig
from proxsplit.linops import MatrixOp
from proxsplit.solvers import DR1, DR2, DR2_REDUCED, VARIANTS, ProblemSpec, Term, run

DIM = 4
OUT_DIMS = (3, 5)
SEEDS = range(10)
RESIDUAL_TOL = 1e-13
MAX_ITERS = 5000
# The worst relative error over the 50 runs below was 8.6e-12 (dr2; numpy
# 2.4.6, x86-64), and the longest run took 1291 sweeps; the bounds leave a
# margin of about ten and four for other platforms.
REL_TOL = 1e-10


def _monotone(rng, n: int) -> np.ndarray:
    """P + S: P symmetric positive definite, S skew."""
    g, k = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return g @ g.T / n + 0.5 * np.eye(n) + (k - k.T) / 2


def _resolvent(m: np.ndarray, inverse: bool = False):
    """``res(x, gamma)``: (I + gamma M)^-1 x, or with ``inverse`` that of
    gamma M^-1, which is M (M + gamma I)^-1; one matrix per weight."""
    eye, cache = np.eye(len(m)), {}

    def res(x, gamma):
        if gamma not in cache:
            cache[gamma] = m @ np.linalg.inv(m + gamma * eye) if inverse else np.linalg.inv(eye + gamma * m)
        return cache[gamma] @ x

    return res


def _problem(seed: int, reduced: tuple):
    """The inclusion of seed ``seed``, whose slot i is the zero-point reduction
    where ``reduced[i]``; returns its spec and its zero."""
    rng = np.random.default_rng(seed)
    a, z = _monotone(rng, DIM), rng.standard_normal(DIM)
    lhs, rhs = a.copy(), z.copy()
    terms = []
    for n, red in zip(OUT_DIMS, reduced):
        L, r = rng.standard_normal((n, DIM)), rng.standard_normal(n)
        b, d = _monotone(rng, n), _monotone(rng, n)
        m = b if red else np.linalg.inv(np.linalg.inv(b) + np.linalg.inv(d))
        lhs += L.T @ m @ L
        rhs += L.T @ m @ r
        if red:
            res_d_conj, res_d = (lambda y, s: y), (lambda y, g: np.zeros_like(y))
        else:
            res_d_conj, res_d = _resolvent(d, inverse=True), _resolvent(d)
        terms.append(Term(MatrixOp(L), _resolvent(b, inverse=True), res_d_conj, res_d, r=r, d_is_zero=red))
    return ProblemSpec(res_a=_resolvent(a), z=z, terms=terms), np.linalg.solve(lhs, rhs)


@pytest.mark.parametrize(
    "variant, reduced",
    [
        (DR1, (False, False)),
        (DR2, (False, False)),
        (DR1, (True, False)),
        (DR2, (True, False)),
        (DR2_REDUCED, (True, True)),
    ],
    ids=["dr1", "dr2", "dr1-one-reduced", "dr2-one-reduced", "dr2-reduced"],
)
def test_each_variant_reaches_the_known_zero(variant, reduced):
    for seed in SEEDS:
        spec, zero = _problem(seed, reduced)
        sigmas = (1.0,) * spec.m
        tau = 0.9 * VARIANTS[variant].budget / sum(s * b**2 for s, b in zip(sigmas, spec.norm_bounds))
        cfg = StepConfig(tau=tau, sigmas=sigmas, lambda_schedule=1.0, max_iters=MAX_ITERS)
        final = run(spec, cfg, variant=variant, residual_tol=RESIDUAL_TOL).final
        assert final.step_residual < RESIDUAL_TOL, f"seed {seed}: no convergence in {MAX_ITERS} sweeps"
        error = np.linalg.norm(final.primal - zero) / np.linalg.norm(zero)
        assert error <= REL_TOL, f"seed {seed}: relative error {error:.3g}"
