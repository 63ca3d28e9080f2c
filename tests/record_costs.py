"""Record the countable costs of one warm sweep in ``tests/costs.json``.

Run from the repository root:

    PYTHONPATH=src python tests/record_costs.py

For each trajectory of ``record_bits.TRAJECTORIES`` (heron1-3 under dr1/dr2
and the 64x64 deblurring scene under dr1/dr2-reduced, each exact and with
the error schedule ``c = 1``), after ``WARM_SWEEPS`` sweeps from the
trajectory's start, it records:

- ``linops``: the calls of each operator's ``apply`` and ``adjoint`` in one
  sweep, keyed by the operator's class;
- ``resolvents``: the calls of each resolvent kind in one sweep (``res_a``,
  ``res_b_conj``, ``res_d_conj``, ``res_d``);
- ``errors``: the error-vector draws in one sweep (``a``, ``b``, ``d``);
- ``objective``: the operator calls and set projections (``prox``) that one
  logged row's objective makes;
- ``peak_bytes``: the ``tracemalloc`` peak of one sweep of the unwrapped
  problem, allocations made before it excluded.

Unlike a time, none of these spreads between runs, so a change to the
sweeps can be held to them exactly. ``tests/test_costs.py`` recomputes every
entry and compares it with the file. Each entry is taken on a fresh build of
its trajectory, whose operators and functions are counted in place, so the
runs that ``tests/bits.json`` digests are never wrapped. The byte peaks
count Python objects too, so they depend on what the process ran before:
they are taken in a fresh process, which ``python tests/record_costs.py -``
is (it prints the record instead of writing it). They also belong to one
Python and numpy version and platform, which the file records next to them;
re-record only on purpose, and say why.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import record_bits
from proxsplit.core import ErrorSchedule
from proxsplit.problems import DeblurSpec
from proxsplit.solvers import VARIANTS, preflight

COSTS = Path(__file__).resolve().parent / "costs.json"

WARM_SWEEPS = 3

_RESOLVENT_KINDS = ("res_b_conj", "res_d_conj", "res_d")


def _counting(fn, key: str, counts: Counter):
    """``fn``, adding one to ``counts[key]`` at each call."""

    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


def _count_methods(obj, names, counts: Counter) -> None:
    """Count the calls of the methods ``names`` of ``obj`` under ``Class.name``, in place."""
    for name in names:
        setattr(obj, name, _counting(getattr(obj, name), f"{type(obj).__name__}.{name}", counts))


def _objective_functions(spec) -> tuple:
    """The functions the objective of experiment ``spec`` evaluates."""
    if isinstance(spec, DeblurSpec):
        f, terms = spec._model
        return (f, *(g for _, g in terms))
    return spec.obstacles


def sweep_peak(step, problem, cfg, errs, state) -> int:
    """The ``tracemalloc`` peak, in bytes, of one sweep from ``state``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(problem, cfg, errs, state)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def costs(name: str) -> dict:
    """The ledger entry of trajectory ``name``."""
    variant, problem, cfg, errs, objective, x0, spec = record_bits.setup(name)
    step = VARIANTS[variant].step
    state = preflight(problem, cfg, variant, x0=x0)
    for _ in range(WARM_SWEEPS):
        state = step(problem, cfg, errs, state)
    peak = sweep_peak(step, problem, cfg, errs, state)

    linops, resolvents, draws = Counter(), Counter(), Counter()
    for op in {id(t.L): t.L for t in problem.terms}.values():
        _count_methods(op, ("apply", "adjoint"), linops)
    terms = [
        dataclasses.replace(t, **{k: _counting(getattr(t, k), k, resolvents) for k in _RESOLVENT_KINDS})
        for t in problem.terms
    ]
    counted = dataclasses.replace(problem, res_a=_counting(problem.res_a, "res_a", resolvents), terms=terms)
    if errs is not None:
        errs = ErrorSchedule(**{k: _counting(getattr(errs, k), k, draws) for k in ("a", "b", "d")})
    new = step(counted, cfg, errs, state)
    sweep = {"linops": dict(linops), "resolvents": dict(resolvents), "errors": dict(draws)}

    linops.clear()
    for fn in _objective_functions(spec):
        _count_methods(fn, ("prox",), linops)
    objective(new.p1)
    return {**sweep, "objective": dict(linops), "peak_bytes": peak}


def environment() -> dict:
    return {**record_bits.environment(), "python": sys.version.split()[0]}


def record() -> dict:
    return {
        "environment": environment(),
        "costs": {name: costs(name) for name in record_bits.TRAJECTORIES},
    }


def dumps(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["-"]:
        sys.stdout.write(dumps(record()))
    else:
        COSTS.write_text(dumps(record()))
        print(f"wrote {COSTS}", file=sys.stderr)
