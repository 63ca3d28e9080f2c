"""Primal-dual Douglas-Rachford iterations in resolvent-generic form.

Two sweeps are provided. :func:`dr1_step` evaluates each linear term and its
adjoint twice per sweep and accesses the resolvents of the primal operator
and of the inverses of both dual operators. :func:`dr2_step` evaluates each
linear term and its adjoint only once, at the price of an extra dual block
``y``. When every parallel-sum slot is the zero-point reduction, ``y`` stays
at zero: the reduced variant is :func:`dr2_step` on a :class:`State` without
``y``, and admits a larger step-size budget.

Every variant iterates one :class:`State`. Its :class:`Variant` record in
:data:`VARIANTS` holds what sets it apart; :func:`validate_steps` alone checks
its budget. Both sweeps tolerate summable additive errors after each resolvent
evaluation. Every resolvent map is called as ``res(x, gamma)``, the order of
the ``ProxFn`` methods, which :func:`make_prox_problem` stores as they are.

An absent tilt ``z`` or shift ``r_i`` is None, and the sweeps subtract every
one that is an array.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BlockVector,
    ErrorSchedule,
    IterateLog,
    LogRow,
    StepConfig,
    StepSizeError,
    as_vector,
)
from .linops import LinOp
from .prox import PointIndicator, ProxFn, _norm

__all__ = [
    "DR1",
    "DR2",
    "DR2_REDUCED",
    "Variant",
    "VARIANTS",
    "Term",
    "ProblemSpec",
    "State",
    "DivergenceError",
    "make_prox_problem",
    "validate_steps",
    "weighted_bound_sum",
    "gamma_weights",
    "dr1_step",
    "dr2_step",
    "preflight",
    "run",
    "metric_apply_dr1",
    "vnorm_dr1",
    "metric_rho_dr1",
]

DR1 = "dr1"
DR2 = "dr2"
DR2_REDUCED = "dr2-reduced"

ResolventMap = Callable[[np.ndarray, float], np.ndarray]

# The largest residual whose square is finite; see _check_state and run.
_SQRT_MAX = math.sqrt(sys.float_info.max)


class DivergenceError(FloatingPointError):
    """A non-finite value appeared in an iterate, or the residual outgrew ``_SQRT_MAX``.

    Given the finite ``value`` of ``quantity`` past that limit, the message
    names both; otherwise it names a non-finite value.
    """

    def __init__(self, quantity: str, iteration: int, value: float = math.nan):
        self.quantity = quantity
        self.iteration = int(iteration)
        if math.isfinite(value):
            message = (
                f"{quantity} {value:.3g} at iteration {iteration} exceeds {_SQRT_MAX:.3g}, "
                "the largest with a finite square"
            )
        else:
            message = f"non-finite value in {quantity} at iteration {iteration}"
        super().__init__(message)


@dataclass(frozen=True)
class Term:
    """One composite term: linear map, dual resolvents, shift, reduction flag.

    ``res_b_conj(y, sigma)`` is the resolvent of sigma * B_i^{-1},
    ``res_d_conj(y, sigma)`` the resolvent of sigma * D_i^{-1} and
    ``res_d(y, gamma)`` the resolvent of gamma * D_i. ``d_is_zero`` marks the
    zero-point reduction of the parallel-sum slot. ``r`` is None when the
    term has no shift, and is otherwise stored as a 1-D float vector.
    """

    L: LinOp
    res_b_conj: ResolventMap
    res_d_conj: ResolventMap
    res_d: ResolventMap
    r: Optional[np.ndarray] = None
    d_is_zero: bool = False

    def __post_init__(self):
        if self.r is not None:
            object.__setattr__(self, "r", as_vector(self.r))


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem template: primal resolvent ``res_a(x, tau)``, tilt, terms.

    ``z`` is None when the problem has no tilt, and is otherwise stored as a
    1-D float vector; the primal dimension is that of the first term's domain.
    """

    res_a: ResolventMap
    z: Optional[np.ndarray]
    terms: tuple

    def __post_init__(self):
        if self.z is not None:
            object.__setattr__(self, "z", as_vector(self.z))
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise ValueError("at least one composite term is required")
        if self.z is not None and self.z.shape[0] != self.dim:
            raise ValueError(f"z dim {self.z.shape[0]} != primal dim {self.dim}")
        for i, t in enumerate(self.terms):
            if t.L.in_dim != self.dim:
                raise ValueError(f"term {i}: L.in_dim {t.L.in_dim} != primal dim {self.dim}")
            if t.r is not None and t.L.out_dim != t.r.shape[0]:
                raise ValueError(f"term {i}: L.out_dim {t.L.out_dim} != r dim {t.r.shape[0]}")
            if t.L.norm_bound <= 0.0:
                raise ValueError(f"term {i}: operator must be nonzero (norm_bound > 0)")

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return self.terms[0].L.in_dim

    @property
    def block_signature(self) -> tuple:
        return tuple(t.L.out_dim for t in self.terms)

    @property
    def norm_bounds(self) -> tuple:
        return tuple(t.L.norm_bound for t in self.terms)


def make_prox_problem(f: ProxFn, z, terms: Sequence) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from prox-capable functions.

    ``terms`` is a sequence of tuples ``(L, g, l, r)``; passing ``l = None``
    selects the zero-point reduction of the parallel-sum slot, whose
    conjugate resolvent is the identity and whose primal resolvent is the
    zero map. The tilt ``z`` and each shift ``r`` may be None for none.
    """
    built = []
    for L, g, l, r in terms:
        if l is None:
            l = PointIndicator()
        built.append(
            Term(
                L=L,
                res_b_conj=g.conjugate_prox,
                res_d_conj=l.conjugate_prox,
                res_d=l.prox,
                r=r,
                d_is_zero=isinstance(l, PointIndicator) and l.is_origin,
            )
        )
    return ProblemSpec(
        res_a=f.prox,
        z=z,
        terms=tuple(built),
    )


def _sigma_bound_sum(spec: ProblemSpec, sigmas) -> float:
    """sum_i sigma_i * bound_i**2 over the declared norm bounds: the one spelling of the budget's sum."""
    return sum(s * b ** 2 for s, b in zip(sigmas, spec.norm_bounds, strict=True))


def weighted_bound_sum(spec: ProblemSpec, cfg: StepConfig) -> float:
    """tau * sum_i sigma_i * bound_i**2 over the declared norm bounds."""
    return cfg.tau * _sigma_bound_sum(spec, cfg.sigmas)


def validate_steps(spec: ProblemSpec, cfg: StepConfig, variant: str = DR1) -> None:
    """Check the strict step-size budget of the chosen variant.

    This is the one place the budget is checked, and it trusts the declared
    norm bounds; ``proxsplit norms`` compares them with power-iteration
    estimates. Raises :class:`StepSizeError` carrying the computed sum and
    the budget on violation.
    """
    budget = _variant(variant, spec).budget
    if len(cfg.sigmas) != spec.m:
        raise ValueError(f"expected {spec.m} sigmas, got {len(cfg.sigmas)}")
    total = weighted_bound_sum(spec, cfg)
    if not total < budget:
        raise StepSizeError(total, budget, detail=variant)


def gamma_weights(spec: ProblemSpec, cfg: StepConfig) -> tuple:
    """Per-term resolvent weights sigma_i^{-1} * tau * sum_j sigma_j ||L_j||^2."""
    total = weighted_bound_sum(spec, cfg)
    return tuple(total / s for s in cfg.sigmas)


def _as_block(value, signature) -> BlockVector:
    if value is None:
        return BlockVector.zeros(signature)
    if isinstance(value, BlockVector):
        return value
    return BlockVector(value)


@dataclass(frozen=True)
class State:
    """Iterate of any variant, plus the records of the step that produced it.

    ``x`` is the primal iterate and ``v`` the dual block. ``y`` is the extra
    dual block of the single-pass scheme and ``gammas`` its per-term
    resolvent weights; both exist only for ``dr2`` and are None for ``dr1``
    and for ``dr2-reduced``, which is ``dr2`` with ``y`` held at zero.
    ``p1``, ``duals`` and ``residual`` describe the step that produced this
    state: the primal resolvent output, the dual resolvent outputs
    (first-pass ones for ``dr1``) and the relaxed update norm in the product
    space.
    """

    x: np.ndarray
    v: BlockVector
    y: Optional[BlockVector] = None
    gammas: Optional[tuple] = None
    n: int = 0
    p1: Optional[np.ndarray] = None
    duals: Optional[BlockVector] = None
    residual: Optional[float] = None

    @classmethod
    def initial(cls, spec: ProblemSpec, cfg: StepConfig, variant: str = DR1, x0=None, v0=None, y0=None) -> "State":
        """Starting state of ``variant``; ``y0`` is read by ``dr2`` only.

        Raises ValueError for an unknown variant, for ``dr2-reduced`` when
        some parallel-sum slot is not the zero-point reduction, when ``y0`` is
        given to a variant without a ``y`` block, or when a starting block
        does not match the problem dimensions.
        """
        carries_y = _variant(variant, spec).carries_y
        if y0 is not None and not carries_y:
            raise ValueError(f"y0 is read by dr2 only, not by {variant}")
        sig = spec.block_signature
        x = np.zeros(spec.dim) if x0 is None else as_vector(x0)
        v = _as_block(v0, sig)
        y = _as_block(y0, sig) if carries_y else None
        if x.shape[0] != spec.dim or v.signature != sig or (y is not None and y.signature != sig):
            raise ValueError("starting point does not match the problem dimensions")
        gammas = gamma_weights(spec, cfg) if y is not None else None
        return cls(x=x, v=v, y=y, gammas=gammas)


def _adjoint_sum(spec: ProblemSpec, blocks) -> np.ndarray:
    """sum_i L_i^* blocks[i], accumulated in ascending term order.

    The first adjoint plus 0.0 has the bits of that adjoint added into
    zeros, and it is a fresh array: ``IdentityOp.adjoint`` returns its
    argument, a block of the state, which the sum must not write to.
    """
    (first, block), *rest = zip(spec.terms, blocks, strict=True)
    acc = first.L.adjoint(block) + 0.0
    for term, block in rest:
        acc += term.L.adjoint(block)
    return acc


def _sq(u, big: list) -> float:
    """``u . u``; when that overflows, the norm of ``u``, which ``prox._norm``
    rescales, is also appended to ``big``."""
    s = float(u.dot(u))
    if s == math.inf:
        big.append(_norm(u))
    return s


def _update_norm(sqs: list, big: list) -> float:
    """The square root of the sum of the block squares ``sqs``, added in order.

    Only when that sum overflows is the norm rescaled: it is then the
    ``math.hypot`` of the roots of the finite squares and of the norms in
    ``big`` of the blocks whose squares overflowed. A NaN square stays NaN.
    """
    total = 0.0
    for s in sqs:
        total += s
    if total != math.inf:
        return math.sqrt(total)
    return math.hypot(*(math.sqrt(s) for s in sqs if s < math.inf), *big)


def dr1_step(spec: ProblemSpec, cfg: StepConfig, errs: Optional[ErrorSchedule], state: State) -> State:
    """One sweep of the two-pass scheme (two evaluations of each L_i and L_i*).

    Error vectors, when scheduled, are added right after the corresponding
    resolvent evaluations. Like :func:`dr2_step`, it writes only into arrays
    it allocated itself, never into a state block or into what an operator or
    a resolvent returned, which may be its argument; each in-place operation
    is the one the plain formula makes, so the sweep keeps its bits.
    """
    n = state.n
    tau = cfg.tau
    lam = cfg.lam(n)
    x, v = state.x, state.v

    arg = _adjoint_sum(spec, v)
    arg *= 0.5 * tau
    np.subtract(x, arg, out=arg)
    # without a tilt, 0.0 is still added: it turns -0.0 into +0.0 as a zero tilt does
    arg += 0.0 if spec.z is None else tau * spec.z
    p1 = spec.res_a(arg, tau)
    del arg
    if errs is not None:
        p1 = p1 + errs.a(n)
    w1 = 2.0 * p1
    w1 -= x

    p2s, w2s = [], []
    for i, term in enumerate(spec.terms):
        s = cfg.sigmas[i]
        arg = (0.5 * s) * term.L.apply(w1)
        arg += v[i]
        if term.r is not None:
            arg -= s * term.r
        p2 = term.res_b_conj(arg, s)
        del arg
        if errs is not None:
            p2 = p2 + errs.b(i, n)
        p2s.append(p2)
        w2 = 2.0 * p2
        w2 -= v[i]
        w2s.append(w2)
    del w2

    z1 = _adjoint_sum(spec, w2s)
    z1 *= 0.5 * tau
    np.subtract(w1, z1, out=z1)
    dx = z1 - p1
    u = z1  # 2 * z1 - w1, built in the buffer of z1
    u *= 2.0
    u -= w1
    del z1, w1

    big = []
    sqs = [_sq(dx, big)]
    x_new = dx  # x + lam * dx, built in the buffer of dx
    x_new *= lam
    x_new += x
    del dx
    v_new = []
    for i, term in enumerate(spec.terms):
        s = cfg.sigmas[i]
        arg = (0.5 * s) * term.L.apply(u)
        arg += w2s[i]
        w2s[i] = None
        z2 = term.res_d_conj(arg, s)
        del arg
        if errs is not None:
            z2 = z2 + errs.d(i, n)
        dv = z2 - p2s[i]
        del z2
        sqs.append(_sq(dv, big))
        dv *= lam
        dv += v[i]
        v_new.append(dv)
    residual = lam * _update_norm(sqs, big)

    return State(
        x=x_new,
        v=BlockVector(v_new),
        n=n + 1,
        p1=p1,
        duals=BlockVector(p2s),
        residual=residual,
    )


def dr2_step(spec: ProblemSpec, cfg: StepConfig, errs: Optional[ErrorSchedule], state: State) -> State:
    """One sweep of the single-pass scheme (one evaluation of each L_i and L_i*).

    A state without ``y`` runs the reduced scheme: the ``y`` block and its
    resolvent are skipped, which is the full sweep with ``y`` held at zero.
    It writes only into arrays it allocated itself, as :func:`dr1_step` does.
    """
    n = state.n
    tau = cfg.tau
    lam = cfg.lam(n)
    x, y, v = state.x, state.y, state.v

    arg = _adjoint_sum(spec, v)
    if spec.z is not None:
        arg -= spec.z
    arg *= tau
    np.subtract(x, arg, out=arg)
    p1 = spec.res_a(arg, tau)
    del arg
    if errs is not None:
        p1 = p1 + errs.a(n)
    dx = p1 - x
    u = 2.0 * p1
    u -= x

    big = []
    sqs = [_sq(dx, big)]
    x_new = dx  # x + lam * dx, built in the buffer of dx
    x_new *= lam
    x_new += x
    del dx
    y_new = None if y is None else []
    v_new, p3s = [], []
    for i, term in enumerate(spec.terms):
        s = cfg.sigmas[i]
        target = term.L.apply(u)
        # None while target is the operator's output, which may be u itself;
        # then the buffer of the sweep's own that target is built in
        out = None
        if y is not None:
            g = state.gammas[i]
            arg = g * v[i]
            arg += y[i]
            p2 = term.res_d(arg, g)
            del arg
            if errs is not None:
                p2 = p2 + errs.d(i, n)
            dy = p2 - y[i]
            sqs.append(_sq(dy, big))
            dy *= lam
            dy += y[i]
            y_new.append(dy)
            out = 2.0 * p2
            del p2
            out -= y[i]
            target = np.subtract(target, out, out=out)
        if term.r is not None:
            target = out = np.subtract(target, term.r, out=out)
        arg = np.multiply(target, s, out=out)
        del target, out
        arg += v[i]
        p3 = term.res_b_conj(arg, s)
        del arg
        if errs is not None:
            p3 = p3 + errs.b(i, n)
        p3s.append(p3)
        dv = p3 - v[i]
        sqs.append(_sq(dv, big))
        dv *= lam
        dv += v[i]
        v_new.append(dv)
    residual = lam * _update_norm(sqs, big)

    return State(
        x=x_new,
        v=BlockVector(v_new),
        y=None if y is None else BlockVector(y_new),
        gammas=state.gammas,
        n=n + 1,
        p1=p1,
        duals=BlockVector(p3s),
        residual=residual,
    )


# What sets a scheme apart: its sweep, its strict bound on tau * sum_i sigma_i *
# ||L_i||^2, whether it iterates the extra dual block y, whether every slot must
# be the zero-point reduction, and the column of the published steps it reads.
Variant = namedtuple("Variant", "step budget carries_y reduced published")

VARIANTS = {
    DR1: Variant(dr1_step, 4.0, False, False, DR1),
    DR2: Variant(dr2_step, 0.25, True, False, DR2),
    DR2_REDUCED: Variant(dr2_step, 1.0, False, True, DR2),
}


def _variant(name: str, spec: Optional[ProblemSpec] = None) -> Variant:
    """The record of variant ``name``; given ``spec``, also check that it applies to it."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    if spec is not None and VARIANTS[name].reduced and not all(t.d_is_zero for t in spec.terms):
        raise ValueError("reduced scheme requires the zero-point reduction in every term")
    return VARIANTS[name]


def _check_state(state: State, k: int, limit: float) -> None:
    """Raise DivergenceError naming the first non-finite quantity of step k.

    A residual below ``_SQRT_MAX`` bounds every relaxed change of a block far
    below the spacing of floats near the largest one, so when it holds and
    the blocks it changed were finite, every new block is finite and nothing
    is scanned. The first step is always scanned, since the starting point
    may hold non-finite values. When every block is finite but the residual
    is not below ``limit``, the update norm diverged and the residual is
    named: ``run`` sets the limit at ``_SQRT_MAX``, where the residual's
    square stops being finite, unless the start itself was that large.
    """
    if k > 0 and state.residual < _SQRT_MAX:
        return
    if not np.all(np.isfinite(state.p1)):
        raise DivergenceError("p1", k)
    for i, block in enumerate(state.duals):
        if not np.all(np.isfinite(block)):
            raise DivergenceError(f"dual resolvent output, term {i}", k)
    if not np.all(np.isfinite(state.x)):
        raise DivergenceError("x", k)
    for name, blocks in (("v", state.v), ("y", state.y if state.y is not None else ())):
        for i, block in enumerate(blocks):
            if not np.all(np.isfinite(block)):
                raise DivergenceError(f"{name}, term {i}", k)
    if not state.residual < limit:
        raise DivergenceError("residual", k, state.residual)


def preflight(
    spec: ProblemSpec, cfg: StepConfig, variant: str, n_iters: int, log_stride: int = 1, x0=None, v0=None, y0=None
) -> State:
    """The checks :func:`run` makes before its first sweep; returns the start.

    Checks the step-size budget, ``n_iters``, ``log_stride``, the starting
    point and the relaxation, raising :class:`StepSizeError` or ValueError.
    The relaxations a run uses depend on its length, so this is where they
    are checked to lie in (0, 2), as :func:`validate_steps` checks the
    budget: a constant once, a schedule at each of the run's sweeps.
    """
    validate_steps(spec, cfg, variant)
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if log_stride < 1:
        raise ValueError("log_stride must be at least 1")
    for n in range(max(n_iters, 1)) if callable(cfg.lambda_schedule) else (0,):
        lam = cfg.lam(n)
        if not 0.0 < lam < 2.0:
            raise ValueError(f"relaxation out of (0, 2) at n={n}: {lam}")
    return State.initial(spec, cfg, variant, x0, v0, y0)


def run(
    spec: ProblemSpec,
    cfg: StepConfig,
    errs: Optional[ErrorSchedule] = None,
    variant: str = DR1,
    log_objective: Optional[Callable[[np.ndarray], float]] = None,
    n_iters: Optional[int] = None,
    residual_tol: Optional[float] = None,
    log_stride: int = 1,
    x0=None,
    v0=None,
    y0=None,
) -> IterateLog:
    """Drive one of the splitting iterations and collect an iterate log.

    Row ``k`` records the step taken from state ``k``: ``n``, the primal
    resolvent output, the objective at the primal point (when an evaluator is
    given) and the relaxed update norm. The final row also holds the dual
    resolvent outputs; every other row's ``duals`` is None, so a long log
    keeps one set of dual blocks. Between sweeps only the iterate is kept,
    so a sweep's ``p1`` outlives it only in a logged row.
    Rows are kept every ``log_stride`` steps plus the final one. ``n_iters`` overrides
    ``cfg.max_iters``; ``n_iters = 0`` runs one sweep, as ``n_iters = 1``
    does, so row 0 is the step from the start. ``errs=None`` is the exact
    run. Before the first sweep, :func:`preflight` checks the budget, the
    relaxation at every iteration the run may take and the starting point.
    A finite ``residual_tol`` stops the run once the update norm drops below
    it (a non-finite tolerance never stops). Non-finite iterates abort with
    a :class:`DivergenceError` naming the first offending quantity.
    """
    n_iters = cfg.max_iters if n_iters is None else int(n_iters)
    state = preflight(spec, cfg, variant, n_iters, log_stride, x0, v0, y0)
    step = VARIANTS[variant].step
    log = IterateLog()
    # A dot that overflows is rescaled (the residual, prox._norm) or caught by
    # _check_state; numpy's warning on the way says nothing more.
    with np.errstate(over="ignore"):
        # From a start whose blocks have finite squares, a residual whose square
        # is not finite means divergence; a start beyond that may take updates
        # as large.
        starts = (state.x, *state.v, *(state.y if state.y is not None else ()))
        limit = math.inf if any(b.dot(b) == math.inf for b in starts) else _SQRT_MAX
        del starts  # so that the start blocks go with the first sweep's input
        sweeps = max(n_iters, 1)
        for k in range(sweeps):
            state = step(spec, cfg, errs, state)
            _check_state(state, k, limit)
            last = k == sweeps - 1 or (
                residual_tol is not None
                and math.isfinite(residual_tol)
                and state.residual < residual_tol
            )
            if k % log_stride == 0 or last:
                obj = float(log_objective(state.p1)) if log_objective is not None else None
                # the last row alone keeps the dual blocks
                duals = state.duals if last else None
                log.append(LogRow(n=k, primal=state.p1, duals=duals, objective=obj, step_residual=state.residual))
            if last:
                break
            # only the iterate goes on: this sweep's records are dropped before the next
            state = State(x=state.x, v=state.v, y=state.y, gammas=state.gammas, n=state.n)
    return log


def metric_apply_dr1(spec: ProblemSpec, cfg: StepConfig, x, v: BlockVector):
    """Apply the self-adjoint metric operator of the two-pass scheme."""
    x = as_vector(x)
    out_x = x / cfg.tau - 0.5 * _adjoint_sum(spec, v)
    out_v = [v[i] / cfg.sigmas[i] - 0.5 * term.L.apply(x) for i, term in enumerate(spec.terms)]
    return out_x, BlockVector(out_v)


def vnorm_dr1(spec: ProblemSpec, cfg: StepConfig, x, v: BlockVector) -> float:
    """Norm induced by the two-pass scheme's metric operator."""
    mx, mv = metric_apply_dr1(spec, cfg, x, v)
    q = float(np.dot(as_vector(x), mx)) + v.dot(mv)
    return math.sqrt(max(q, 0.0))


def metric_rho_dr1(spec: ProblemSpec, cfg: StepConfig) -> float:
    """Strong-positivity constant of the two-pass scheme's metric operator."""
    total = weighted_bound_sum(spec, cfg)
    return (1.0 - 0.5 * math.sqrt(total)) * min(1.0 / cfg.tau, *(1.0 / s for s in cfg.sigmas))
