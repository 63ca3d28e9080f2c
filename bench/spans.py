"""Span recording around proxsplit's public objects, from outside the package.

The benchmark never edits the package. For a traced pass it wraps each
term's operator in :class:`TracedOp`, each resolvent, error-schedule callable
and objective in a timing callable, and swaps module attributes that the
package looks up at call time (see :func:`patched`). Every wrapped call
becomes one span ``[name, context, parent, start_ns, end_ns]``; spans stay in
memory until the pass ends. A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter_ns

from proxsplit.linops import GaussianBlurOp, GradientOp, HaarOp, IdentityOp, LinOp

NAME, CTX, PARENT, START, END = range(5)

OP_NAMES = {GaussianBlurOp: "blur", HaarOp: "haar", GradientOp: "grad", IdentityOp: "identity"}

# The deblurring model's conjugate prox of each term, named after the term's
# operator: l1 data fit through the blur, wavelet l1, TV through the gradient.
PROX_ROLES = {"blur": "fit", "haar": "wavelet", "grad": "tv"}


def op_name(op: LinOp) -> str:
    return OP_NAMES.get(type(op), type(op).__name__.lower())


def computed_cost(name: str, op: LinOp) -> tuple:
    """Floating-point operations and bytes moved by one call, from array sizes.

    Bytes count one read of each pass's input and one write of its output;
    cache misses and temporaries are ignored. Apply and adjoint cost the same
    in this model. The identity returns its input as is.
    """
    n = op.in_dim
    if name == "blur":  # two separable passes of a k-tap correlation
        k = op.kernel.size
        return 2 * n * (2 * k - 1), 8 * 2 * 2 * n
    if name == "haar":  # a copy, then per level two split passes and a copy back
        sizes = [n // 4**j for j in range(op.levels)]
        return sum(4 * m for m in sizes), 8 * (2 * n + sum(6 * m for m in sizes))
    if name == "grad":  # two difference fields of n pixels each
        return 2 * n, 8 * 3 * n
    return 0, 0


class Tracer:
    """Records one span per wrapped call; ``ctx`` labels the spans (the variant)."""

    def __init__(self):
        self.spans = []
        self.ctx = ""
        self.ops = {}  # operator name -> one operator of that kind seen in a traced problem
        self._open = -1

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self.ctx, self._open, 0, 0]
        parent = self._open
        self._open = len(self.spans)
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter_ns()
            self._open = parent

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def take(self) -> list:
        """Hand over the finished spans and start an empty list."""
        if self._open != -1:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


class TracedOp(LinOp):
    """Operator wrapper that records a span per apply/adjoint and counts them."""

    def __init__(self, inner: LinOp, tracer: Tracer):
        super().__init__(inner.in_dim, inner.out_dim, inner.norm_bound)
        self.inner = inner
        self.tracer = tracer
        name = op_name(inner)
        tracer.ops.setdefault(name, inner)
        self._apply_name = f"linops.{name}.apply"
        self._adjoint_name = f"linops.{name}.adjoint"
        self.n_apply = 0
        self.n_adjoint = 0

    def apply(self, x):
        self.n_apply += 1
        return self.tracer.call(self._apply_name, self.inner.apply, x)

    def adjoint(self, y):
        self.n_adjoint += 1
        return self.tracer.call(self._adjoint_name, self.inner.adjoint, y)


def trace_problem(problem, tracer: Tracer):
    """Copy of a ProblemSpec whose operators and resolvents record spans.

    Terms are rebuilt with ``dataclasses.replace``, so ``d_is_zero`` and the
    shift carry over and the reduced scheme still validates.
    """
    terms = []
    for term in problem.terms:
        role = PROX_ROLES.get(op_name(term.L))
        b_name = "prox.res_b_conj" + (f".{role}" if role else "")
        terms.append(
            dataclasses.replace(
                term,
                L=TracedOp(term.L, tracer),
                res_b_conj=tracer.wrap(b_name, term.res_b_conj),
                res_d_conj=tracer.wrap("prox.res_d_conj", term.res_d_conj),
                res_d=tracer.wrap("prox.res_d", term.res_d),
            )
        )
    return dataclasses.replace(problem, res_a=tracer.wrap("prox.res_a", problem.res_a), terms=tuple(terms))


def trace_errors(errs, tracer: Tracer):
    """Copy of an ErrorSchedule whose callables record spans; ``is_exact`` is kept."""
    return dataclasses.replace(
        errs,
        a=tracer.wrap("core.errors.a", errs.a),
        b=tracer.wrap("core.errors.b", errs.b),
        d=tracer.wrap("core.errors.d", errs.d),
    )


@contextlib.contextmanager
def patched(*replacements):
    """Set ``(module, attribute, value)`` triples for the block, then restore."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def self_times(spans) -> list:
    """Self time in ns of each span: its duration minus its direct children's."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


class Profile:
    """Per (context, span name) totals over every traced pass: count, inclusive ns, self ns."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)

    def add(self, spans) -> None:
        for s, own in zip(spans, self_times(spans)):
            key = (s[CTX], s[NAME])
            self.count[key] += 1
            self.total_ns[key] += s[END] - s[START]
            self.self_ns[key] += own

    def sum(self, table, match, ctx=None) -> int:
        """Sum ``table`` over span names accepted by ``match``, optionally for one context."""
        return sum(v for (c, name), v in table.items() if match(name) and (ctx is None or c == ctx))

    def names(self) -> set:
        return {name for _, name in self.count}
