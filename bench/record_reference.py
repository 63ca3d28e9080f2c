#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's output checks use.

    python3 bench/record_reference.py

Runs one untraced pass of the deblur256 and deblur64-cli workloads for each
of the seeds 0-31 and writes bench/reference.json afresh: per workload, seed
and variant, the sweeps to tolerance, the final objective, the final ISNR and
the final residual. Re-record only when a workload's inputs change, never to
make a failing check pass.
"""
import json
import sys
import tempfile
from pathlib import Path

import run_bench  # noqa: F401  (pins the thread pools and puts src/ on the path first)
from workloads import REFERENCE_PATH, RECORDED_SEEDS, Deblur64Cli, Deblur256


def record(workload_cls, workdir: Path) -> dict:
    section = {"residual_tol": workload_cls.residual_tol, "size": workload_cls.size, "seeds": {}}
    for seed in RECORDED_SEEDS:
        workload = workload_cls(seed, workdir)
        entry = {}
        for s in workload.execute().solves:
            if s.error:
                raise SystemExit(f"{workload.name} seed {seed} {s.config}: {s.error}")
            entry[s.label] = dict(workload.final_values(s), iters=s.sweeps)
        section["seeds"][str(seed)] = entry
        print(workload.name, seed, json.dumps(entry), flush=True)
    return section


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        reference = {cls.name: record(cls, Path(tmp)) for cls in (Deblur256, Deblur64Cli)}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
