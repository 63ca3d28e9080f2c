"""Primal-dual Douglas-Rachford iterations in resolvent-generic form.

Two sweeps are provided. :func:`dr1_step` evaluates each linear term and its
adjoint twice per sweep and accesses the resolvents of the primal operator
and of the inverses of both dual operators. :func:`dr2_step` evaluates each
linear term and its adjoint only once, at the price of an extra dual block
``y``. When every parallel-sum slot is the zero-point reduction, ``y`` stays
at zero: the reduced variant is :func:`dr2_step` on a :class:`State` without
``y``, and admits a larger step-size budget.

Both sweeps take the terms in groups: a group is a maximal run of consecutive
terms whose ``L`` is one object, as the location problems' identity terms are.
A group's dual blocks, and each block-sized intermediate, are the rows of one
2-D array, so its operator is applied once per pass and the scaling, the
shifts, the sums and the relaxed updates run on the whole array; its
resolvents and error vectors are still called once per term, on the rows. A
term with an operator of its own is a group of one, whose array is a view of
its block. Every sweep checks each stack of resolvent outputs or error vectors
against the shape of the stack it stands for, and a ValueError names the first
output not of its block's shape: a scalar, say, could broadcast through a sweep.

Every variant iterates one :class:`State`. Its :class:`Variant` record in
:data:`VARIANTS` holds what sets it apart; :func:`validate_steps` alone checks
its budget. Both sweeps tolerate summable additive errors after each resolvent
evaluation. Every resolvent map is called as ``res(x, gamma)``, the order of
the ``ProxFn`` methods, which :func:`make_prox_problem` stores as they are.

An absent tilt ``z`` or shift ``r_i`` is None. The sweeps subtract a tilt
that is an array, and a group's shifts as one array in which a term without a
shift is a row of +0.0, which leaves every float as it is.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ErrorSchedule,
    IterateLog,
    LogRow,
    StepConfig,
    StepSizeError,
    _norm,
    as_vector,
)
from .linops import IdentityOp, LinOp
from .prox import PointIndicator, ProxFn

__all__ = [
    "DR1",
    "DR2",
    "DR2_REDUCED",
    "Variant",
    "VARIANTS",
    "resolved_variant",
    "Term",
    "ProblemSpec",
    "State",
    "DivergenceError",
    "make_prox_problem",
    "validate_steps",
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

    @cached_property
    def _groups(self) -> tuple:
        """The :class:`_Group` of each maximal run of consecutive terms whose ``L`` is one object."""
        starts = [i for i, t in enumerate(self.terms) if i == 0 or t.L is not self.terms[i - 1].L]
        groups = []
        for lo, hi in zip(starts, [*starts[1:], self.m]):
            terms = self.terms[lo:hi]
            shifted = any(t.r is not None for t in terms)
            r = np.array([np.zeros(t.L.out_dim) if t.r is None else t.r for t in terms]) if shifted else None
            resolvents = zip(*((t.res_b_conj, t.res_d_conj, t.res_d) for t in terms))
            groups.append(_Group(lo, hi, terms[0].L, r, *resolvents))
        return tuple(groups)


# The terms lo..hi-1 of a problem, which share the operator L: their shifts as
# the rows of one array (+0.0 for a term without one), or None when no term has
# one, and the terms' resolvents.
_Group = namedtuple("_Group", "lo hi L r res_b_conj res_d_conj res_d")


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
                d_is_zero=isinstance(l, PointIndicator),
            )
        )
    return ProblemSpec(
        res_a=f.prox,
        z=z,
        terms=tuple(built),
    )


def _sigma_bound_sum(spec: ProblemSpec, sigmas) -> float:
    """sum_i sigma_i * bound_i**2 over the declared norm bounds: the one spelling of the budget's sum.

    Raises ValueError unless there is one sigma per term."""
    if len(sigmas) != spec.m:
        raise ValueError(f"expected {spec.m} sigmas, got {len(sigmas)}")
    return sum(s * b ** 2 for s, b in zip(sigmas, spec.norm_bounds))


def validate_steps(spec: ProblemSpec, cfg: StepConfig, variant: str = DR1) -> float:
    """Check the strict step-size budget of the chosen variant; returns the checked sum.

    The sum is tau * sum_i sigma_i * bound_i**2 over the declared norm bounds,
    or sum_i (tau * sigma_i) * bound_i**2 where that product is not finite, as
    for a tiny tau with huge sigmas. This is the one place the sum is computed
    and the budget checked; it trusts the declared norm bounds, which
    ``proxsplit norms`` compares with power-iteration estimates. Raises
    :class:`StepSizeError` carrying the sum and the budget on violation.
    """
    budget = _variant(variant, spec).budget
    total = cfg.tau * _sigma_bound_sum(spec, cfg.sigmas)
    if not math.isfinite(total):
        total = _sigma_bound_sum(spec, [cfg.tau * s for s in cfg.sigmas])
    if not total < budget:
        raise StepSizeError(total, budget, detail=variant)
    return total


def _as_block(value, signature) -> tuple:
    """A start's dual block: one 1-D vector per item of ``value``, so the rows
    of a 2-D array are blocks too; zeros of ``signature`` for None."""
    if value is None:
        return tuple(np.zeros(d) for d in signature)
    return tuple(map(as_vector, value))


@dataclass(frozen=True)
class State:
    """Iterate of any variant, plus the records of the step that produced it.

    ``x`` is the primal iterate and ``v`` the dual block, a tuple of one 1-D
    array per term, as ``y`` and ``duals`` are. ``y`` is the extra dual block
    of the single-pass scheme and ``gammas`` its per-term resolvent weights;
    both exist only for ``dr2`` and are None for ``dr1`` and for
    ``dr2-reduced``, which is ``dr2`` with ``y`` held at zero.
    ``p1``, ``duals`` and ``residual`` describe the step that produced this
    state: the primal resolvent output, the dual resolvent outputs
    (first-pass ones for ``dr1``) and the relaxed update norm in the product
    space. :func:`preflight` builds a run's start.
    """

    x: np.ndarray
    v: tuple
    y: Optional[tuple] = None
    gammas: Optional[tuple] = None
    n: int = 0
    p1: Optional[np.ndarray] = None
    duals: Optional[tuple] = None
    residual: Optional[float] = None


def _stack(rows) -> np.ndarray:
    """The 2-D array whose rows are the 1-D ``rows``: a view of a lone row, a copy of several."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _rows(stack) -> tuple:
    """The rows of a 2-D array, as views; a lone row is indexed, which is cheaper than iterating."""
    return (stack[0],) if len(stack) == 1 else tuple(stack)


def _stacks(spec: ProblemSpec, blocks) -> list:
    """The per-term ``blocks`` stacked per group of ``spec``."""
    return [_stack(blocks[g.lo : g.hi]) for g in spec._groups]


def _adjoint_sum(spec: ProblemSpec, stacks) -> np.ndarray:
    """sum_i L_i^* of the rows of each group's stack, accumulated in ascending term order.

    An identity's adjoint maps a whole stack, row by row, in one call, and a
    first such group is summed by one reduction from 0.0, with the bits of
    the loop. The first adjoint plus 0.0 has the bits of that adjoint added
    into zeros, and it is a fresh array: ``IdentityOp.adjoint`` returns its
    argument, a block of the state, which the sum must not write to. Each
    other adjoint is dropped once added, so only one is live at a time.
    """
    acc = None
    for g, stack in zip(spec._groups, stacks, strict=True):
        if type(g.L) is IdentityOp:
            rows = g.L.adjoint(stack)
            if acc is None:
                acc = np.add.reduce(rows, axis=0, initial=0.0)
            else:
                for row in _rows(rows):
                    acc += row
            continue
        for row in _rows(stack):
            if acc is None:
                acc = g.L.adjoint(row) + 0.0
            else:
                acc += g.L.adjoint(row)
    return acc


def _factor(weights, g: _Group):
    """Group ``g``'s per-term ``weights`` as a column, or for a lone row its
    weight, a Python float: numpy then scales an operator's unnamed output in
    that output's own buffer, where a column product would allocate another."""
    return weights[g.lo] if g.hi - g.lo == 1 else np.array(weights[g.lo : g.hi])[:, None]


def _shaped(out, shape: tuple, name: str) -> np.ndarray:
    """``out``, an array of ``shape``; a right-shaped ``out`` that is not an
    array, a list say, as one. Otherwise a ValueError names it."""
    if getattr(out, "shape", None) == shape:
        return out
    if np.shape(out) != shape:
        raise ValueError(f"{name} has shape {np.shape(out)}, not its block's {shape}")
    return np.array(out)


def _checked(rows: list, shape: tuple, g: _Group, name: str) -> np.ndarray:
    """The stack of group ``g``'s ``rows``, which must be of ``shape``.

    One comparison checks the stack; only when it fails, or the rows do not
    stack, are the rows walked, and the first not of its block's shape is
    named as ``name`` of its term."""
    try:
        stack = _stack(rows)
        if stack.shape == shape:
            return stack
    except (TypeError, ValueError):  # a lone non-array; rows of unequal shapes
        pass
    return np.array([_shaped(row, shape[1:], f"{name}, term {i}") for i, row in enumerate(rows, g.lo)])


def _resolved(g: _Group, res, weights, arg, name: str) -> np.ndarray:
    """The stacked ``res[j](arg[j], weights[j])`` of group ``g``'s rows, checked as ``name``."""
    return _checked([r(a, w) for r, a, w in zip(res, _rows(arg), weights)], arg.shape, g, name)


def _errors(err, g: _Group, n: int, shape: tuple, name: str) -> np.ndarray:
    """The stacked error vectors ``err(i, n)`` of the terms of group ``g``, checked as ``name``."""
    return _checked([err(i, n) for i in range(g.lo, g.hi)], shape, g, name)


def _relax(base, lam: float, new, old, sqs: list, big: dict, at: slice) -> np.ndarray:
    """``base + lam * (new - old)`` row by row, built in the buffer of the move ``new - old``.

    The rows' squares go to the positions ``at`` of ``sqs``; a row whose
    square overflows also puts its norm, which ``core._norm`` rescales, into
    ``big`` at its position.
    """
    d = new - old
    sq = np.vecdot(d, d).tolist()
    sqs[at] = sq
    if math.inf in sq:
        for pos, row, s in zip(range(len(sqs))[at], d, sq):
            if s == math.inf:
                big[pos] = _norm(row)
    d *= lam
    d += base
    return d


def _update_norm(sqs: list, big: dict) -> float:
    """The square root of the sum of the block squares ``sqs``, added in order.

    Only when that sum overflows is the norm rescaled: it is then the
    ``math.hypot`` of the roots of the finite squares and of the norms in
    ``big``, taken in block order, of the blocks whose squares overflowed. A
    NaN square stays NaN.
    """
    total = 0.0
    for s in sqs:
        total += s
    if total != math.inf:
        return math.sqrt(total)
    return math.hypot(*(math.sqrt(s) for s in sqs if s < math.inf), *(big[pos] for pos in sorted(big)))


def dr1_step(spec: ProblemSpec, cfg: StepConfig, errs: Optional[ErrorSchedule], state: State) -> State:
    """One sweep of the two-pass scheme (two evaluations of each L_i and L_i*).

    Error vectors, when scheduled, are added right after the corresponding
    resolvent evaluations. Like :func:`dr2_step`, it writes only into arrays
    it allocated itself, never into a state block or into what an operator or
    a resolvent returned, which may be its argument; each in-place operation
    is the one the plain formula makes, so the sweep keeps its bits. A group
    of terms sharing one operator applies it once per pass.
    """
    n = state.n
    tau = cfg.tau
    lam = cfg.lam(n)
    x, v = state.x, _stacks(spec, state.v)
    sigmas = cfg.sigmas
    halves = [0.5 * s for s in sigmas]

    arg = _adjoint_sum(spec, v)
    arg *= 0.5 * tau
    np.subtract(x, arg, out=arg)
    # without a tilt, 0.0 is still added: it turns -0.0 into +0.0 as a zero tilt does
    arg += 0.0 if spec.z is None else tau * spec.z
    p1 = _shaped(spec.res_a(arg, tau), arg.shape, "p1")
    del arg
    if errs is not None:
        p1 = p1 + _shaped(errs.a(n), p1.shape, "error vector a")
    w1 = 2.0 * p1
    w1 -= x

    p2s, w2s, duals = [], [], []
    for g, vg in zip(spec._groups, v):
        arg = (_factor(halves, g) * g.L.apply(w1)).reshape(g.hi - g.lo, -1)
        arg += vg
        if g.r is not None:
            arg -= _factor(sigmas, g) * g.r
        p2 = _resolved(g, g.res_b_conj, sigmas[g.lo : g.hi], arg, "dual resolvent output")
        del arg
        if errs is not None:
            p2 = p2 + _errors(errs.b, g, n, p2.shape, "error vector b")
        p2s.append(p2)
        duals += _rows(p2)
        w2 = 2.0 * p2
        w2 -= vg
        w2s.append(w2)
    del w2

    z1 = _adjoint_sum(spec, w2s)
    z1 *= 0.5 * tau
    np.subtract(w1, z1, out=z1)
    # the squares of x, then of v_0 ... v_{m-1}
    sqs, big = [0.0] * (1 + spec.m), {}
    x_new = _relax(x[None], lam, z1[None], p1[None], sqs, big, slice(0, 1))[0]
    u = z1  # 2 * z1 - w1, built in the buffer of z1
    u *= 2.0
    u -= w1
    del z1, w1

    v_new = []
    for k, g in enumerate(spec._groups):
        arg = (_factor(halves, g) * g.L.apply(u)).reshape(g.hi - g.lo, -1)
        arg += w2s[k]
        w2s[k] = None
        z2 = _resolved(g, g.res_d_conj, sigmas[g.lo : g.hi], arg, "second-pass dual resolvent output")
        del arg
        if errs is not None:
            z2 = z2 + _errors(errs.d, g, n, z2.shape, "error vector d")
        v_new += _rows(_relax(v[k], lam, z2, p2s[k], sqs, big, slice(1 + g.lo, 1 + g.hi)))
        del z2

    return State(
        x=x_new,
        v=tuple(v_new),
        n=n + 1,
        p1=p1,
        duals=tuple(duals),
        residual=lam * _update_norm(sqs, big),
    )


def dr2_step(spec: ProblemSpec, cfg: StepConfig, errs: Optional[ErrorSchedule], state: State) -> State:
    """One sweep of the single-pass scheme (one evaluation of each L_i and L_i*).

    A state without ``y`` runs the reduced scheme: the ``y`` block and its
    resolvent are skipped, which is the full sweep with ``y`` held at zero.
    It writes only into arrays it allocated itself, as :func:`dr1_step` does,
    and applies the operator of a group of terms once.
    """
    n = state.n
    tau = cfg.tau
    lam = cfg.lam(n)
    x, v = state.x, _stacks(spec, state.v)
    y = None if state.y is None else _stacks(spec, state.y)
    sigmas, gammas = cfg.sigmas, state.gammas

    arg = _adjoint_sum(spec, v)
    if spec.z is not None:
        arg -= spec.z
    arg *= tau
    np.subtract(x, arg, out=arg)
    p1 = _shaped(spec.res_a(arg, tau), arg.shape, "p1")
    del arg
    if errs is not None:
        p1 = p1 + _shaped(errs.a(n), p1.shape, "error vector a")
    # the squares of x, then of y_i (if carried) and v_i for each term in turn
    width = 1 if y is None else 2
    sqs, big = [0.0] * (1 + width * spec.m), {}
    x_new = _relax(x[None], lam, p1[None], x[None], sqs, big, slice(0, 1))[0]
    u = 2.0 * p1
    u -= x

    y_new = None if y is None else []
    v_new, duals = [], []
    for k, g in enumerate(spec._groups):
        target = g.L.apply(u)
        if y is not None:
            arg = _factor(gammas, g) * v[k]
            arg += y[k]
            p2 = _resolved(g, g.res_d, gammas[g.lo : g.hi], arg, "y resolvent output")
            del arg
            if errs is not None:
                p2 = p2 + _errors(errs.d, g, n, p2.shape, "error vector d")
            at = slice(width * g.lo + 1, width * g.hi + 1, width)
            y_new += _rows(_relax(y[k], lam, p2, y[k], sqs, big, at))
            target = target - (2.0 * p2 - y[k])
            del p2
        if g.r is not None:
            target = target - g.r
        arg = (target * _factor(sigmas, g)).reshape(g.hi - g.lo, -1)
        del target
        arg += v[k]
        p3 = _resolved(g, g.res_b_conj, sigmas[g.lo : g.hi], arg, "dual resolvent output")
        del arg
        if errs is not None:
            p3 = p3 + _errors(errs.b, g, n, p3.shape, "error vector b")
        duals += _rows(p3)
        at = slice(width * (g.lo + 1), width * (g.hi + 1), width)
        v_new += _rows(_relax(v[k], lam, p3, v[k], sqs, big, at))

    return State(
        x=x_new,
        v=tuple(v_new),
        y=None if y is None else tuple(y_new),
        gammas=gammas,
        n=n + 1,
        p1=p1,
        duals=tuple(duals),
        residual=lam * _update_norm(sqs, big),
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


def _fully_reduced(spec: ProblemSpec) -> bool:
    """Whether every parallel-sum slot of ``spec`` is the zero-point reduction."""
    return all(t.d_is_zero for t in spec.terms)


def _variant(name: str, spec: Optional[ProblemSpec] = None) -> Variant:
    """The record of variant ``name``; given ``spec``, also check that it applies to it."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    if spec is not None and VARIANTS[name].reduced and not _fully_reduced(spec):
        raise ValueError("reduced scheme requires the zero-point reduction in every term")
    return VARIANTS[name]


def resolved_variant(name: str, spec: ProblemSpec) -> str:
    """The variant that runs as ``name`` on ``spec``: ``dr2`` on a problem whose
    every slot is the zero-point reduction runs as ``dr2-reduced``, the same
    sweep with ``y`` held at zero and the larger budget; any other is ``name``."""
    if name == DR2 and _fully_reduced(spec):
        return DR2_REDUCED
    return name


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
    spec: ProblemSpec, cfg: StepConfig, variant: str, log_stride: int = 1, x0=None, v0=None, y0=None
) -> State:
    """The checks :func:`run` makes before its first sweep; returns the start it builds.

    Checks the step-size budget, ``log_stride``, the relaxation and the
    starting point (``y0`` is read by ``dr2`` only), raising
    :class:`StepSizeError` or ValueError. The relaxations a run uses depend
    on its length, ``cfg.max_iters`` sweeps, so this is where they are
    checked to lie in (0, 2), as :func:`validate_steps` checks the budget:
    a constant once, a schedule at each of the run's sweeps.
    """
    total = validate_steps(spec, cfg, variant)
    if log_stride < 1:
        raise ValueError("log_stride must be at least 1")
    for n in range(cfg.max_iters) if callable(cfg.lambda_schedule) else (0,):
        lam = cfg.lam(n)
        if not 0.0 < lam < 2.0:
            raise ValueError(f"relaxation out of (0, 2) at n={n}: {lam}")
    carries_y = VARIANTS[variant].carries_y
    if y0 is not None and not carries_y:
        raise ValueError(f"y0 is read by dr2 only, not by {variant}")
    sig = spec.block_signature
    x = np.zeros(spec.dim) if x0 is None else as_vector(x0)
    v = _as_block(v0, sig)
    y = _as_block(y0, sig) if carries_y else None
    if x.shape[0] != spec.dim or any(
        tuple(b.shape[0] for b in blocks) != sig for blocks in (v, y) if blocks is not None
    ):
        raise ValueError("starting point does not match the problem dimensions")
    if y is None:
        return State(x=x, v=v)
    # the per-term resolvent weights sigma_i^{-1} * tau * sum_j sigma_j ||L_j||^2
    return State(x=x, v=v, y=y, gammas=tuple(total / s for s in cfg.sigmas))


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
    ``cfg.max_iters`` for this call; ``n_iters = 0`` runs one sweep, as 1 does,
    so row 0 is the step from the start. ``errs=None`` is the exact
    run. Before the first sweep, :func:`preflight` checks the budget, the
    relaxation at every iteration the run may take and the starting point.
    A finite ``residual_tol`` stops the run once the update norm drops below
    it (a non-finite tolerance never stops). Every sweep raises a ValueError
    naming any resolvent output or error vector not of its block's shape. Non-finite
    iterates abort with a :class:`DivergenceError` naming the first offending quantity.
    """
    if n_iters is not None:
        n_iters = int(n_iters)
        if n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        cfg = replace(cfg, max_iters=max(n_iters, 1))
    state = preflight(spec, cfg, variant, log_stride, x0, v0, y0)
    step = VARIANTS[variant].step
    tol = residual_tol if residual_tol is not None and math.isfinite(residual_tol) else -math.inf
    log = IterateLog()
    # A dot that overflows is rescaled (the residual, core._norm) or caught by
    # _check_state, as is every non-finite value; numpy's warnings on the way
    # say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        # From a start whose blocks have finite squares, a residual whose square
        # is not finite means divergence; a start beyond that may take updates
        # as large.
        starts = (state.x, *state.v, *(state.y if state.y is not None else ()))
        limit = math.inf if any(b.dot(b) == math.inf for b in starts) else _SQRT_MAX
        del starts  # so that the start blocks go with the first sweep's input
        for k in range(cfg.max_iters):
            state = step(spec, cfg, errs, state)
            _check_state(state, k, limit)
            last = k == cfg.max_iters - 1 or state.residual < tol
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


def metric_apply_dr1(spec: ProblemSpec, cfg: StepConfig, x, v):
    """Apply the self-adjoint metric operator of the two-pass scheme; ``v`` and
    the dual part returned hold one block per term."""
    x = as_vector(x)
    out_x = x / cfg.tau - 0.5 * _adjoint_sum(spec, _stacks(spec, v))
    out_v = [v[i] / cfg.sigmas[i] - 0.5 * term.L.apply(x) for i, term in enumerate(spec.terms)]
    return out_x, tuple(out_v)


def vnorm_dr1(spec: ProblemSpec, cfg: StepConfig, x, v) -> float:
    """Norm induced by the two-pass scheme's metric operator."""
    mx, mv = metric_apply_dr1(spec, cfg, x, v)
    q = float(np.dot(as_vector(x), mx)) + float(sum(np.dot(a, b) for a, b in zip(v, mv, strict=True)))
    return math.sqrt(max(q, 0.0))


def metric_rho_dr1(spec: ProblemSpec, cfg: StepConfig) -> float:
    """Strong-positivity constant of the two-pass scheme's metric operator, which
    is positive inside the ``dr1`` budget; outside it, :func:`validate_steps` raises."""
    total = validate_steps(spec, cfg, DR1)
    return (1.0 - 0.5 * math.sqrt(total)) * min(1.0 / cfg.tau, *(1.0 / s for s in cfg.sigmas))
