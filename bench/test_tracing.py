"""Checks of the benchmark's own tracing and output checks.

    python3 -m pytest bench/test_tracing.py -q

Tracing must not change results, its counts must match the operator-call
accounting (per term and sweep, dr1 makes two applies and two adjoints, dr2
one of each), and the self times inside a run must add up to the run's wall
time.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import proxsplit.solvers as solvers  # noqa: E402
from proxsplit.core import StepConfig  # noqa: E402
from proxsplit.problems import (  # noqa: E402
    deblur_build,
    deblur_step_config,
    heron1,
    heron_build,
    make_deblur_spec,
)
from run_bench import END_TO_END, MIN_PASSES, PER_LAYER, layer_metrics, n_passes, segment_best  # noqa: E402
from spans import END, NAME, PARENT, START, Profile, TracedOp, Tracer, self_times, trace_problem  # noqa: E402
from workloads import HERON_RUNS, Deblur64Cli, Deblur256, Heron, Pass, Solve  # noqa: E402


def _heron1(variant):
    problem = heron_build(heron1())
    sigma = 0.5 if variant == "dr1" else 0.1
    cfg = StepConfig(tau=0.24, sigmas=(sigma,) * problem.m, lambda_schedule=1.8, max_iters=40)
    return problem, cfg, np.array([5.0, -2.0])


def _deblur64(variant):
    problem = deblur_build(make_deblur_spec(shape=(64, 64), noise_seed=3))
    return problem, deblur_step_config(problem, variant, max_iters=40), None


CASES = [
    (_heron1, "dr1"),
    (_heron1, "dr2"),
    (_deblur64, "dr1"),
    (_deblur64, "dr2-reduced"),
]


@pytest.mark.parametrize("build,variant", CASES)
def test_traced_run_is_bit_identical(build, variant):
    problem, cfg, x0 = build(variant)
    plain = solvers.run(problem, cfg, variant=variant, x0=x0).final
    traced = solvers.run(trace_problem(problem, Tracer()), cfg, variant=variant, x0=x0).final
    assert np.array_equal(plain.primal, traced.primal)
    assert all(np.array_equal(a, b) for a, b in zip(plain.duals, traced.duals))
    assert plain.step_residual == traced.step_residual


@pytest.mark.parametrize("build,variant", CASES)
def test_call_counts_match_operator_accounting(build, variant):
    problem, cfg, x0 = build(variant)
    tracer = Tracer()
    traced = trace_problem(problem, tracer)
    sweeps = 17
    solvers.run(traced, cfg, variant=variant, x0=x0, n_iters=sweeps)
    per_sweep = 2 if variant == "dr1" else 1
    for term in traced.terms:
        assert isinstance(term.L, TracedOp)
        assert (term.L.n_apply, term.L.n_adjoint) == (per_sweep * sweeps, per_sweep * sweeps)
    applies = sum(1 for s in tracer.spans if s[NAME].startswith("linops.") and s[NAME].endswith(".apply"))
    assert applies == per_sweep * sweeps * problem.m


def _traced_heron_pass(tmp_path, seed=0):
    tracer = Tracer()
    workload = Heron(seed, tmp_path)
    p = workload.execute(tracer)
    return workload, p, tracer


def test_layer_self_times_add_up_to_run_wall_time(tmp_path):
    _, p, tracer = _traced_heron_pass(tmp_path)
    spans = tracer.take()
    own = self_times(spans)
    runs = [i for i, s in enumerate(spans) if s[NAME] == "solvers.run"]
    assert len(runs) == len(p.solves)
    subtree = {i: i for i in runs}
    for i, s in enumerate(spans):
        if i not in subtree and s[PARENT] in subtree:
            subtree[i] = subtree[s[PARENT]]
    for run_idx, solve in zip(runs, p.solves):
        members = [i for i, root in subtree.items() if root == run_idx]
        wall = spans[run_idx][END] - spans[run_idx][START]
        assert sum(own[i] for i in members) == wall
        # the span sits inside the runner's own timer around the same call
        assert wall / 1e9 <= solve.solve_s <= wall / 1e9 * 1.01 + 1e-4


def test_traced_metrics_cover_per_layer_list_and_count_exactly(tmp_path):
    workload, p, tracer = _traced_heron_pass(tmp_path)
    profile = Profile()
    profile.add(tracer.take())
    sweeps = {label: sum(s.sweeps for s in p.solves if s.label == label) for label in ("dr1", "dr2")}
    metrics = layer_metrics(profile, tracer.ops, sweeps, 1, 0.0)
    assert list(metrics)[: len(PER_LAYER)] == [name for name, _ in PER_LAYER]
    terms = {"heron1": 8, "heron2": 5, "heron3": 5}
    for label, per_term in (("dr1", 4), ("dr2", 2)):
        calls = sum(per_term * terms[s.config.split("/")[0]] * s.sweeps for s in p.solves if s.label == label)
        assert metrics[f"{label}.linops.calls_per_iter"] == calls / sweeps[label]
    assert metrics["problems.objective_rows"] == sum(sweeps.values())
    assert all(workload.check(s) == "" for s in p.solves)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_heron_ignores_the_seed(tmp_path):
    first = Heron(0, tmp_path).execute()
    second = Heron(12345, tmp_path).execute()
    assert [s.sweeps for s in first.solves] == [s.sweeps for s in second.solves]


def test_heron_check_rejects_wrong_output(tmp_path):
    workload = Heron(0, tmp_path)
    p = workload.execute()
    by_config = {s.config: s for s in p.solves}
    swapped = by_config["heron3/dr1"]
    wrong = Solve(config="heron1/dr1", label="dr1", sweeps=swapped.sweeps, log=swapped.log,
                  context=HERON_RUNS[("heron1", "dr1")])
    assert "differs from the published" in workload.check(wrong)
    short = solvers.run(*_heron1("dr1")[:2], variant="dr1", x0=np.array([5.0, -2.0]), n_iters=5)
    unfinished = Solve(config="heron1/dr1", label="dr1", sweeps=5, log=short, context=HERON_RUNS[("heron1", "dr1")])
    assert workload.check(unfinished).startswith("stopped at 5 sweeps")


def test_cli_tracing_keeps_artifacts_and_sees_error_injection(tmp_path):
    workload = Deblur64Cli(4, tmp_path)
    plain = workload.execute()
    csv_plain = {label: Path(cfg["output_csv"]).read_bytes() for label, _, cfg in workload.configs}
    tracer = Tracer()
    traced = workload.execute(tracer)
    for label, _, cfg in workload.configs:
        assert Path(cfg["output_csv"]).read_bytes() == csv_plain[label]
    assert all(workload.check(s) == "" for s in plain.solves + traced.solves)
    names = {s[NAME] for s in tracer.spans}
    assert {"cli.main", "cli.load_config", "cli.build_run", "solvers.run", "core.errors.a"} <= names


def test_cli_check_rejects_a_wrong_final_isnr(tmp_path):
    workload = Deblur64Cli(4, tmp_path)
    solve = workload.execute().solves[0]
    assert workload.check(solve) == ""
    csv = Path(solve.context["output_csv"])
    header, *rows = csv.read_text().splitlines()
    cells = rows[-1].split(",")
    column = header.split(",").index("isnr")
    cells[column] = repr(float(cells[column]) + 1e-3)
    csv.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n")
    assert workload.check(solve).startswith("final isnr")


@pytest.mark.parametrize("workload", [Heron, Deblur256, Deblur64Cli])
def test_pass_count_depends_only_on_the_run_length(workload):
    assert n_passes(workload, 30) == round(30 / workload.nominal_pass_s)
    assert n_passes(workload, 1e-3) == MIN_PASSES


@pytest.mark.parametrize("workload_cls", [Heron, Deblur64Cli])
def test_every_sweep_is_its_own_segment(workload_cls, tmp_path):
    workload = workload_cls(0, tmp_path)
    first, second = workload.execute(), workload.execute()
    assert len(first.marks) == len(second.marks)
    assert all(a < b for a, b in zip(first.marks, first.marks[1:]))
    for s in first.solves:
        assert s.last_mark - s.first_mark == s.sweeps + 1
    if workload_cls is Deblur64Cli:  # and one segment per CSV row
        rows = sum(s.sweeps for s in first.solves)
        assert len(first.marks) == 2 + sum(s.sweeps + 2 for s in first.solves) + rows


def test_segment_best_takes_each_segments_fastest_pass():
    slow_then_fast = Pass(marks=[0.0, 3.0, 4.0], solves=[])
    fast_then_slow = Pass(marks=[10.0, 11.0, 14.0], solves=[])
    other_shape = Pass(marks=[0.0, 0.1], solves=[])
    best, model = segment_best([slow_then_fast, fast_then_slow, other_shape])
    assert best == [1.0, 1.0]
    assert model is slow_then_fast
