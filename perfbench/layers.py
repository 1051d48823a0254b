"""Per-layer metrics computed from the spans and counters of one traced run.

"Per rec" divides by the trial x degree records that harness.run_trial
produced; only spans inside a run_trial call (those carrying a trial id)
count toward per-record and per-trial figures, so fits made outside the
trials (such as a band export) do not inflate them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def pushforward_cost(m: int, p: int) -> tuple[int, int]:
    """Computed bytes and flops of one dense pushforward at m points, p terms.

    Bytes count the m x m float64 output covariance (8 m^2).  Flops count
    B = A L (2 m p^2) and B B^T (2 m^2 p).
    """
    return 8 * m * m, 2 * m * p * p + 2 * m * m * p


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap each other (pool workers run concurrently under one
    run_shift span) or spill past the parent; both are clipped by taking the
    union of child intervals inside the parent's interval.
    """
    by_id = {tuple(s["id"]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None and tuple(s["parent"]) in by_id:
            children[tuple(s["parent"])].append(s)
    out = {}
    for key, s in by_id.items():
        lo, hi = s["start"], s["end"]
        covered = [(max(c["start"], lo), min(c["end"], hi)) for c in children[key]]
        covered = [(a, b) for a, b in covered if b > a]
        out[key] = (hi - lo) - _union_length(covered)
    return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced CLI invocation, keyed by metric name."""
    in_trial = defaultdict(list)
    every = defaultdict(list)
    for s in spans:
        every[s["name"]].append(s)
        if s["trial"] is not None:
            in_trial[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    trials = in_trial["harness.run_trial"]
    n_trials = max(len(trials), 1)
    records = sum(s.get("records", 0) for s in trials)
    per_rec = max(records, 1)

    def ms_per_rec(name):
        return 1e3 * sum(dur(s) for s in in_trial[name]) / per_rec

    def ms_per_trial(name):
        return 1e3 * sum(dur(s) for s in in_trial[name]) / n_trials

    out = {"harness.records": float(records)}
    for name in ("predict.pushforward", "predict.lpfp", "predict.rmse",
                 "basis.vandermonde", "basis.total_order", "gaussian.likelihood",
                 "gaussian.fuse", "transfer.optimize_beta",
                 "transfer.tempered_posterior"):
        out[f"{name}.ms_per_rec"] = ms_per_rec(name)

    costs = [pushforward_cost(s["m"], s["p"]) for s in in_trial["predict.pushforward"]]
    if costs:
        out["predict.pushforward.bytes_per_call"] = statistics.fmean(c[0] for c in costs)
        out["predict.pushforward.flops_per_call"] = statistics.fmean(c[1] for c in costs)
    else:
        out["predict.pushforward.bytes_per_call"] = 0.0
        out["predict.pushforward.flops_per_call"] = 0.0

    vdm = in_trial["basis.vandermonde"]
    out["basis.vandermonde.calls_per_rec"] = len(vdm) / per_rec
    out["basis.vandermonde.rows_per_rec"] = sum(s["rows"] for s in vdm) / per_rec
    out["gaussian.fuse.calls_per_rec"] = len(in_trial["gaussian.fuse"]) / per_rec
    out["gaussian.dist_constructions_per_rec"] = (
        counts.get("gaussian.dist_constructions", 0) / per_rec
    )

    out["models.evaluate.ms_per_trial"] = ms_per_trial("models.evaluate")
    out["harness.trial_data.ms_per_trial"] = ms_per_trial("harness.trial_data")
    own = self_times(spans)
    out["harness.run_trial.self_ms_per_trial"] = (
        1e3 * sum(own[tuple(s["id"])] for s in trials) / n_trials
    )
    trial_ms = [1e3 * dur(s) for s in trials] or [0.0]
    out["harness.run_trial.ms_p50"] = statistics.median(trial_ms)
    out["harness.run_trial.ms_p99"] = _percentile(trial_ms, 99)

    shifts = [dur(s) for s in every["harness.run_shift"]] or [0.0]
    out["harness.run_shift.s_p50"] = statistics.median(shifts)
    shift_total = sum(shifts)
    out["harness.pool.speedup"] = (
        sum(dur(s) for s in trials) / shift_total if shift_total > 0 else 0.0
    )

    writes = every["cli.write_csv"]
    out["cli.write_csv.ms_total"] = 1e3 * sum(dur(s) for s in writes)
    out["cli.write_csv.bytes"] = float(sum(s["bytes"] for s in writes))

    failed = sum(s.get("failed", 0) for s in trials)
    out["harness.records_ok_share"] = 1.0 - failed / per_rec
    fits = in_trial["gaussian.likelihood"]
    out["gaussian.likelihood.ok_share"] = (
        1.0 - sum("error" in s for s in fits) / len(fits) if fits else 1.0
    )

    # CPU time the tracer adds: every span's wrapper cost, plus writing them
    # out.  Pool workers' spans count too, so this can exceed the wall time
    # it adds.
    out["trace.overhead_s"] = (counts.get("trace.span_cost_s", 0.0) * len(spans)
                               + counts.get("trace.flush_s", 0.0))
    return out
