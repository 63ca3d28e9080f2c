#!/usr/bin/env python3
"""proxsplit benchmark: one workload per invocation, end to end or traced.

    python3 bench/run_bench.py --workload heron --seed 1 --seconds 30 --trace 0

Workloads: heron, deblur256, deblur64-cli (see bench/NOTES.md for why each).
``--workload all`` runs the three in turn, each in a child process of its
own, and prefixes the metric names on its JSON line with the workload.

A run sets the workload up several times (``setup_s``), runs a fixed number
of whole passes of it, about ``--seconds`` seconds' worth at the defining
commit, and checks every run's output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. A table
(name, unit, value, median, sample count, tail percentile) goes to standard
output, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the pinned
environment, goes to ``.bench_out/`` in the checkout; a traced run also
writes the spans of its last traced pass there.
"""
import os

# Pin every thread pool to one thread before numpy loads. PROXSPLIT_THREADS=1
# is the package's own default for its per-term pool.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "PROXSPLIT_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PACKAGE_FOUND = (SRC / "proxsplit" / "__init__.py").is_file()
if PACKAGE_FOUND:
    sys.path.insert(0, str(SRC))
    from spans import Profile, Tracer, computed_cost
    from workloads import WORKLOADS

END_TO_END = [
    ("setup_s", "s"),
    ("dr1.ms_per_iter", "ms"),
    ("dr2.ms_per_iter", "ms"),
    ("dr1.solve_s", "s"),
    ("dr2.solve_s", "s"),
    ("dr1.iters", "count"),
    ("dr2.iters", "count"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Reported by every workload. Metrics that exist only where their layer runs
# (per-operator kernels, error injection, the CLI) are in the table and the
# result file, but not in this list.
PER_LAYER = [
    ("linops.apply_ms", "ms"),
    ("linops.adjoint_ms", "ms"),
    ("linops.calls_per_iter", "count"),
    ("dr1.linops.calls_per_iter", "count"),
    ("dr2.linops.calls_per_iter", "count"),
    ("linops.busy_share", "ratio"),
    ("prox.res_a_ms", "ms"),
    ("prox.res_b_conj_ms", "ms"),
    ("prox.res_d_conj_ms", "ms"),
    ("prox.calls_per_iter", "count"),
    ("prox.busy_share", "ratio"),
    ("solvers.self_ms_per_iter", "ms"),
    ("dr1.solvers.self_ms_per_iter", "ms"),
    ("dr2.solvers.self_ms_per_iter", "ms"),
    ("solvers.validate_ms", "ms"),
    ("core.stepconfig_ms", "ms"),
    ("problems.objective_ms_per_row", "ms"),
    ("problems.objective_rows", "count"),
    ("problems.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

LABELS = ("dr1", "dr2")
# Fewest passes a run makes, whatever --seconds is.
MIN_PASSES = 3
# Whole set-ups timed per run. They are spread evenly between the passes, so
# that the samples cover the whole run like the passes do instead of sitting
# in one moment of the machine's load.
SETUP_SAMPLES = 200
# A run stops starting passes after this long, so that it ends within three
# minutes even on a commit several times slower than the defining one.
DEADLINE_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def summarize(value, samples) -> dict:
    """A reported value with the median of its per-pass samples, their count,
    and the highest of p99/p95/p90 that has ten samples beyond it."""
    out = {"value": value, "median": statistics.median(samples), "n": len(samples), "tail": None}
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            out["tail"] = (f"p{p}", statistics.quantiles(samples, n=100)[p - 1])
            break
    return out


def pass_values(p) -> dict:
    """End-to-end figures of one pass as it ran."""
    return figures(p.run_s, [(s, s.solve_s) for s in p.solves])


def figures(run_s: float, solve_times) -> dict:
    """End-to-end figures from a pass time and (solve, seconds) pairs."""
    values = {"run_s": run_s}
    for label in LABELS:
        timed = [(s, t) for s, t in solve_times if s.label == label]
        sweeps = sum(s.sweeps for s, _ in timed)
        seconds = sum(t for _, t in timed)
        values[f"{label}.solve_s"] = seconds
        values[f"{label}.iters"] = sweeps
        values[f"{label}.ms_per_iter"] = 1e3 * seconds / sweeps
    return values


def segment_best(passes) -> tuple:
    """Fastest time of every segment over the passes, and one pass as the model.

    Every pass is cut into the same segments (see ``workloads.Clock``): one
    per sweep, plus set-up, the edges of each solve and, on the CLI, one per
    CSV row written. Passes cut into a different number of segments than most
    are left out.
    """
    length = Counter(len(p.marks) for p in passes).most_common(1)[0][0]
    aligned = [p for p in passes if len(p.marks) == length]
    best = [min(p.marks[i + 1] - p.marks[i] for p in aligned) for i in range(length - 1)]
    return best, aligned[0]


def best_figures(passes) -> tuple:
    """End-to-end figures, and ms per sweep of each config, from the fastest segments."""
    best, model = segment_best(passes)
    solve_times = [(s, sum(best[s.first_mark : s.last_mark])) for s in model.solves]
    per_config = {s.config: 1e3 * t / s.sweeps for s, t in solve_times}
    return figures(sum(best), solve_times), per_config


def n_passes(workload, seconds: float) -> int:
    """Untraced passes per run: fixed by the benchmark, not by the commit's speed."""
    return max(MIN_PASSES, round(seconds / workload.nominal_pass_s))


def layer_metrics(profile, ops: dict, sweeps: dict, n_passes: int, overhead_pct: float) -> dict:
    """Per-layer figures from the spans of the traced passes.

    ``ops`` maps an operator name to one operator of that kind; ``sweeps``
    maps a variant label to the sweeps run in traced passes. Self times are
    span durations minus their children, so the layers' self times add up to
    the run's wall time. The PER_LAYER metrics come first, then those that
    exist only where their layer runs.
    """
    total, count, own = profile.total_ns, profile.count, profile.self_ns
    all_sweeps = sum(sweeps.values())

    def is_layer(prefix):
        return lambda name: name.startswith(prefix)

    def per_call_ms(match, table=total):
        calls = profile.sum(count, match)
        return profile.sum(table, match) / 1e6 / calls if calls else 0.0

    def exact(name):
        return lambda n: n == name

    run_ns = profile.sum(total, exact("solvers.run"))
    is_apply = lambda n: n.startswith("linops.") and n.endswith(".apply")
    is_adjoint = lambda n: n.startswith("linops.") and n.endswith(".adjoint")
    is_prox = is_layer("prox.")
    m = {
        "linops.apply_ms": per_call_ms(is_apply),
        "linops.adjoint_ms": per_call_ms(is_adjoint),
        "linops.calls_per_iter": profile.sum(count, is_layer("linops.")) / all_sweeps,
    }
    for label in LABELS:
        m[f"{label}.linops.calls_per_iter"] = profile.sum(count, is_layer("linops."), label) / sweeps[label]
    m["linops.busy_share"] = profile.sum(total, is_layer("linops.")) / run_ns
    m["prox.res_a_ms"] = per_call_ms(exact("prox.res_a"))
    m["prox.res_b_conj_ms"] = per_call_ms(is_layer("prox.res_b_conj"))
    m["prox.res_d_conj_ms"] = per_call_ms(exact("prox.res_d_conj"))
    m["prox.calls_per_iter"] = profile.sum(count, is_prox) / all_sweeps
    m["prox.busy_share"] = profile.sum(total, is_prox) / run_ns
    m["solvers.self_ms_per_iter"] = profile.sum(own, exact("solvers.run")) / 1e6 / all_sweeps
    for label in LABELS:
        m[f"{label}.solvers.self_ms_per_iter"] = profile.sum(own, exact("solvers.run"), label) / 1e6 / sweeps[label]
    m["solvers.validate_ms"] = per_call_ms(exact("solvers.validate"))
    m["core.stepconfig_ms"] = per_call_ms(exact("core.stepconfig"))
    m["problems.objective_ms_per_row"] = per_call_ms(exact("problems.objective"))
    m["problems.objective_rows"] = profile.sum(count, exact("problems.objective")) / n_passes
    builds = profile.sum(count, exact("problems.build.problem"))
    m["problems.build_ms"] = profile.sum(total, is_layer("problems.build.")) / 1e6 / builds
    m["trace.overhead_pct"] = overhead_pct

    # Present only where the layer runs.
    extra = {}
    names = profile.names()
    for op_name, op in sorted(ops.items()):
        flops, nbytes = computed_cost(op_name, op)
        for kind in ("apply", "adjoint"):
            extra[f"linops.{op_name}.{kind}_ms"] = per_call_ms(exact(f"linops.{op_name}.{kind}"))
        extra[f"linops.{op_name}.flops_per_call_computed"] = flops
        extra[f"linops.{op_name}.bytes_per_call_computed"] = nbytes
    for name in sorted(n for n in names if n.startswith("prox.res_b_conj.")):
        extra[f"{name}_ms"] = per_call_ms(exact(name))
    if "prox.res_d" in names:
        extra["prox.res_d_ms"] = per_call_ms(exact("prox.res_d"))
    is_err = is_layer("core.errors.")
    extra["core.errors_ms_per_iter"] = profile.sum(total, is_err) / 1e6 / all_sweeps
    extra["core.errors.calls_per_iter"] = profile.sum(count, is_err) / all_sweeps
    for name in ("cli.load_config", "cli.build_run"):
        if name in names:
            extra[f"{name}_ms"] = per_call_ms(exact(name), own)
    if "cli.main" in names:
        extra["cli.emit_ms"] = per_call_ms(exact("cli.main"), own)
    return {**m, **extra}


def environment(args, workload_name: str) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "proxsplit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """The checked-out commit when the checkout is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def time_setup(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


@dataclass
class Outcome:
    workload: object
    setup_samples: list = field(default_factory=list)
    plain: list = field(default_factory=list)  # (Pass, every run passed its check)
    traced: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    profile: object = None
    tracer: object = None
    last_spans: list = field(default_factory=list)


def run_workload(args, workload_name: str, workdir: Path) -> Outcome:
    workload = WORKLOADS[workload_name](args.seed, workdir)
    workload.warm_up()
    out = Outcome(workload, profile=Profile(), tracer=Tracer())
    passes = n_passes(workload, args.seconds)
    if args.trace:  # an untraced and a traced pass per round, in about the same time
        passes = max(MIN_PASSES, (passes + 1) // 2)
    setups = math.ceil(SETUP_SAMPLES / passes)
    deadline = perf_counter() + DEADLINE_S
    for _ in range(passes):
        for tracer in (None, out.tracer) if args.trace else (None,):
            p = workload.execute(tracer)
            ok = True
            for s in p.solves:
                out.attempted += 1
                why = workload.check(s)
                if why:
                    ok = False
                    out.failures.append(f"{s.config}: {why}")
                s.log = s.context = None
            if tracer is None:
                out.plain.append((p, ok))
                out.setup_samples += [time_setup(workload) for _ in range(setups)]
                continue
            spans = tracer.take()
            out.traced.append((p, ok))
            if ok:
                out.profile.add(spans)
                out.last_spans = spans
        if perf_counter() > deadline:
            break
    return out


def end_to_end_metrics(out: Outcome) -> tuple:
    """End-to-end metrics and ms per sweep of each config; empty if no pass passed its checks."""
    passes = [p for p, ok in out.plain if ok]
    if not passes:
        return {}, {}
    best, per_config = best_figures(passes)
    rows = [pass_values(p) for p in passes]
    metrics = {"setup_s": summarize(statistics.median(out.setup_samples), out.setup_samples)}
    for name, _ in END_TO_END[1:-1]:
        metrics[name] = summarize(best[name], [r[name] for r in rows])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = summarize(peak_mb, [peak_mb])
    return metrics, per_config


def traced_metrics(out: Outcome) -> dict:
    plain = [p.run_s for p, ok in out.plain if ok]
    traced = [p for p, ok in out.traced if ok]
    if not plain or not traced:
        return {}
    overhead = 100.0 * (statistics.median(p.run_s for p in traced) / statistics.median(plain) - 1.0)
    sweeps = {label: sum(s.sweeps for p in traced for s in p.solves if s.label == label) for label in LABELS}
    values = layer_metrics(out.profile, out.tracer.ops, sweeps, len(traced), overhead)
    return {name: {"value": v, "median": None, "n": len(traced), "tail": None} for name, v in values.items()}


def bench_one(args, workload_name: str) -> dict:
    """Run one workload, print its table, save its result file, return its JSON line."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR))
    try:
        out = run_workload(args, workload_name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = dict(PER_LAYER if args.trace else END_TO_END)
    metrics, per_config = (traced_metrics(out), {}) if args.trace else end_to_end_metrics(out)
    units = {name: listed.get(name) or _unit_of(name) for name in metrics}
    failed = len(out.failures)
    env = environment(args, workload_name)

    print(f"proxsplit benchmark: workload {workload_name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    print(f"{'metric':<44} {'unit':<6} {'value':>14} {'median':>14} {'n':>5}  tail")
    for name, s in metrics.items():
        tail = f"{s['tail'][0]}={s['tail'][1]:.6g}" if s["tail"] else "-"
        median = "-" if s["median"] is None else f"{s['median']:.6g}"
        print(f"{name:<44} {units[name]:<6} {s['value']:>14.6g} {median:>14} {s['n']:>5}  {tail}")
    ratio = failed / out.attempted if out.attempted else 1.0
    print(f"{'failed_ratio':<44} {'ratio':<6} {ratio:>14.6g} {'-':>14} {out.attempted:>5}  ({failed} of {out.attempted} runs failed)")
    for line in out.failures[:20]:
        print(f"FAILED {line}")

    tag = f"{workload_name}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env,
        "residual_tol": out.workload.residual_tol,
        "metrics": {name: dict(s, unit=units[name]) for name, s in metrics.items()},
        "failed_ratio": ratio,
        "attempted": out.attempted,
        "failures": out.failures,
        "setup_samples_s": out.setup_samples,
        "passes": [pass_values(p) for p, ok in out.plain if ok],
        "ms_per_iter_by_config": per_config,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    if out.last_spans:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(out.last_spans))

    reported = {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in listed.items() if name in metrics}
    correct = failed == 0 and len(reported) == len(listed)
    return {"correct": correct, "attempted": out.attempted, "failed": failed, "metrics": reported}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE_FOUND:
        print(f"error: no proxsplit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected all or one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload != "all":
        print(json.dumps(bench_one(args, args.workload)))
        return 0
    # Every workload in turn, each in a child process so that its peak memory
    # is its own; metric names get the workload as prefix.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        *table, last = child.stdout.splitlines() or [""]
        print("\n".join(table))
        if child.returncode != 0:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode
        line = json.loads(last)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
        print()
    print(json.dumps(combined))
    return 0


def _unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_iter"):
        return "ms"
    if name.endswith("_computed"):
        return "bytes" if "bytes" in name else "flop"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
