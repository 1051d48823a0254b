"""Benchmark of the pce_transfer study CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI invocation is a fresh `python3 -m pce_transfer repro-...` process,
closed loop, one at a time, with the checkout's src/ on PYTHONPATH.  No BLAS
or OpenMP thread variable is set: the program's own threading is part of what
is measured.  The first invocation of a run uses a reference seed (the
study default for even N, a held-out seed for odd N) and must reproduce the
aggregates stored in references.json; the rest use seed N and must agree
with each other.  Each invocation follows PROBES_PER_STEP set-up probes; the
steps repeat until the next would end past S seconds (at least
MIN_INVOCATIONS run).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced invocations and reports its per-layer metrics.
The last line of stdout is the JSON result; earlier lines are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import layers
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    n_trials: int
    workers: int
    reference: str


# n_trials sets the run length: about 1.5-3 s per serial invocation on 2 CPUs.
# Shifts, sizes, degrees, objective and noise are the shipped ones.
WORKLOADS = {
    "ishigami": Workload("repro-ishigami", "ishigami", 2, 1, "ishigami"),
    "subsurface": Workload("repro-subsurface-synthetic", "subsurface-synthetic",
                           2, 1, "subsurface"),
    # Checked against the serial references: the pool must not change results.
    "subsurface-pool": Workload("repro-subsurface-synthetic", "subsurface-synthetic",
                                2, 2, "subsurface"),
}

# scenarios.DEFAULT_SEED, and one seed held out from writing the benchmark.
REFERENCE_SEEDS = (20240810, 7)
MIN_INVOCATIONS = 3
# One probe's wall time spreads by about 0.17 IQR/median within a run, so
# more than one per step is needed for a steady median.
PROBES_PER_STEP = 2
# Every run must end within 180 s; an invocation still running at this point
# is killed and counted as failed.
HARD_LIMIT_S = 150.0


@dataclass
class Invocation:
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    records: int = 0
    failed_records: int = 0
    aggregates: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(workload: Workload, seed: int, out_dir: Path, env: dict,
            deadline: float, trace_dir: Path | None = None) -> Invocation:
    """One CLI invocation, timed from spawn to reap.

    os.wait4 returns the usage of the process and of every descendant it
    waited for, so cpu_s covers pool workers and peak_rss_mb is the largest
    resident set among them.
    """
    args = [workload.command, "--out", str(out_dir), "--seed", str(seed),
            "--workers", str(workload.workers), "--set", f"n_trials={workload.n_trials}"]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "pce_transfer", *args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), "trace", str(trace_dir), *args]
    err_path = out_dir.with_suffix(".stderr")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - start, 1.0), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM: leave no invocation behind
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(seed=seed, traced=trace_dir is not None, wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0,
                     returncode=proc.returncode)
    if inv.returncode != 0:
        tail = err_path.read_text()[-400:].strip()
        inv.problems.append(f"exit code {inv.returncode}: {tail}")
        return inv
    try:
        inv.aggregates = check.read_aggregates(out_dir)
        inv.records, inv.failed_records = check.count_records(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        inv.problems.append(f"unreadable output: {exc}")
    return inv


def verify(inv: Invocation, references: dict, baseline: dict | None):
    """Append to inv.problems every way its aggregates are wrong."""
    if inv.returncode != 0 or inv.problems:
        return
    default = references[str(REFERENCE_SEEDS[0])]
    if inv.records != check.expected_records(default):
        inv.problems.append(
            f"{inv.records} records written, {check.expected_records(default)} expected")
    shape = check.shape_errors(inv.aggregates, default)
    if shape:
        inv.problems += shape
    elif str(inv.seed) in references:
        inv.problems += check.compare(inv.aggregates, references[str(inv.seed)])
    elif baseline is not None:
        inv.problems += [f"seed {inv.seed} not reproducible: {p}"
                         for p in check.compare(inv.aggregates, baseline)]


def probe(cfg: dict, env: dict, extra: tuple = ()) -> tuple[float, dict]:
    """Wall time of a fresh interpreter importing the CLI and resolving cfg."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(cfg), *extra],
                         env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return wall, json.loads(out.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            started: float) -> tuple[dict, dict]:
    """Run one benchmark run; returns (metrics by name, summary for people)."""
    workload = WORKLOADS[name]
    references = json.loads(REFERENCES.read_text())[workload.reference]
    env = program_env()
    cfg = {"scenario": workload.scenario, "n_trials": workload.n_trials, "seed": seed}
    _, warm = probe(cfg, env, ("--env",))  # also fills the bytecode cache

    # Set-up probes precede every invocation, so set-up is sampled over the
    # same minutes as the invocations it is subtracted from.
    deadline = started + HARD_LIMIT_S
    probes: list[tuple[float, dict]] = []
    invocations: list[Invocation] = []
    baseline = None
    loop_start = time.perf_counter()
    while True:
        probes += [probe(cfg, env) for _ in range(PROBES_PER_STEP)]
        k = len(invocations)
        run_seed = REFERENCE_SEEDS[seed % 2] if k == 0 else seed
        traced = trace and k % 2 == 1
        out_dir = work / f"out{k}"
        trace_dir = work / f"trace{k}" if traced else None
        inv = run_cli(workload, run_seed, out_dir, env, deadline, trace_dir)
        verify(inv, references, baseline)
        if run_seed == seed and baseline is None and not inv.problems:
            baseline = inv.aggregates
        shutil.rmtree(out_dir, ignore_errors=True)
        invocations.append(inv)
        elapsed = time.perf_counter() - loop_start
        typical = elapsed / len(invocations)
        if len(invocations) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            break
        if time.perf_counter() + typical > deadline:
            break
    setup_s = statistics.median(wall for wall, _ in probes)

    attempted = len(invocations)
    failed = sum(bool(i.problems) for i in invocations)
    untraced = [i for i in invocations if not i.traced]
    summary = {
        "workload": name, "seed": seed, "reference_seed": REFERENCE_SEEDS[seed % 2],
        "invocations": len(invocations), "probes": len(probes),
        "env": warm.get("env"),
        "problems": [p for i in invocations for p in i.problems],
        "wall_s_quartiles": quartiles([i.wall_s for i in untraced]),
        "attempted": attempted, "failed": failed,
        "failed_trial_records": sum(i.failed_records for i in invocations),
    }
    if not trace:
        metrics = {
            "wall_s": statistics.median(i.wall_s for i in untraced),
            "setup_s": setup_s,
            "records_per_s": statistics.median(
                i.records / max(i.wall_s - setup_s, 1e-9) for i in untraced),
            "cpu_s": statistics.median(i.cpu_s for i in untraced),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
            "ok_share": 1.0 - failed / attempted,
        }
        return metrics, summary

    traced_ks = [k for k, inv in enumerate(invocations) if inv.traced]
    if not traced_ks:
        raise RuntimeError("the run ended before a traced invocation")
    traced_runs = [invocations[k] for k in traced_ks]
    metrics = median_metrics([layers.layer_metrics(*tracer.load_trace(work / f"trace{k}"))
                              for k in traced_ks])
    metrics["cli.import_s"] = statistics.median(p["import_s"] for _, p in probes)
    metrics["scenarios.resolve_ms"] = statistics.median(p["resolve_ms"] for _, p in probes)
    out = subprocess.run([sys.executable, str(HERE / "tracer.py"), "replay",
                          str(work / f"trace{traced_ks[0]}")],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(deadline - time.perf_counter(), 1.0))
    if out.returncode != 0:
        raise RuntimeError(f"objective replay failed: {out.stderr.strip()[-400:]}")
    replayed = json.loads(out.stdout.splitlines()[-1])
    for objective in tracer.REPLAY_OBJECTIVES:
        metrics[f"transfer.optimize_beta.{objective}.ms_per_call"] = \
            replayed[f"{objective}.ms_per_call"]
    summary["replay"] = replayed
    # The share of DS scans that underflow to all zeros reads 0 on every
    # listed workload, so it is printed here rather than listed as a metric.
    summary["transfer.ds.scan_all_zero_share"] = replayed["DS.all_zero_share"]
    summary["traced_wall_s_quartiles"] = quartiles([i.wall_s for i in traced_runs])
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Exit through the finally blocks below, which stop the running
    # invocation and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "pce_transfer" / "cli.py").is_file():
        print(f"error: no pce_transfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, summary = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work, started)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    for key, value in summary.items():
        print(f"{key}: {json.dumps(value)}")
    for m in wanted:
        print(f"{m['name']}: {metrics[m['name']]!r} {m['unit']}")
    listed = {m["name"] for m in wanted}
    print(f"not in BENCHMARK.json: {json.dumps({k: v for k, v in metrics.items() if k not in listed})}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
