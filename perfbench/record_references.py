"""Rewrite references.json: the aggregates each study writes at the reference seeds.

    python3 perfbench/record_references.py

Run from the root of a checkout whose outputs are known to be right, and only
when a change is meant to move the numbers; say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    env = run.program_env()
    work = run.WORK_DIR / "references"
    references = {}
    try:
        for workload in run.WORKLOADS.values():
            if workload.reference in references:
                continue
            by_seed = {}
            for seed in run.REFERENCE_SEEDS:
                out_dir = work / f"{workload.reference}-{seed}"
                out_dir.parent.mkdir(parents=True, exist_ok=True)
                inv = run.run_cli(workload, seed, out_dir, env,
                                  time.perf_counter() + run.HARD_LIMIT_S)
                if inv.problems:
                    print(f"error: {workload.reference} seed {seed}: {inv.problems}",
                          file=sys.stderr)
                    return 1
                by_seed[str(seed)] = inv.aggregates
            references[workload.reference] = by_seed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
