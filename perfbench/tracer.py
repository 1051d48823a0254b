"""Span tracer that runs the pce_transfer CLI with its layers timed from outside.

The package is not edited.  `install` replaces the names that the modules
import from each other (harness -> gaussian/predict/transfer, transfer ->
gaussian.fuse, gaussian/predict -> basis.vandermonde, cli -> harness) with
timing wrappers, so spans follow the real call graph.  Spans are kept in
memory and written out once: by the main process when the CLI returns, and by
a forked pool worker each time its outermost span closes (pool workers leave
through os._exit, so nothing later would run).

    python3 perfbench/tracer.py trace OUT_DIR CLI_ARGS...   # traced CLI run
    python3 perfbench/tracer.py replay OUT_DIR              # objective replay

A span record is a JSON object with name, start, end (perf_counter seconds,
which is CLOCK_MONOTONIC and so comparable across processes on Linux), id and
parent as [pid, index], trial (set inside harness.run_trial), error (the
exception's type name, if the call raised) and optional per-call facts (rows,
m, p, records, failed, bytes).  The tracer's own cost is kept with the
counters: trace.flush_s, the time spent writing spans out, and
trace.span_cost_s, what one wrapped call adds to a call, measured in the main
process after the CLI returns.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

REPLAY_OBJECTIVES = ("EDF", "KLD", "ME", "DS")


class Tracer:
    """In-memory span and counter store for one process (reset after fork)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._reset(None)

    def _reset(self, fork_parent):
        self.pid = os.getpid()
        self.started = 0
        self.spans: list[dict] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.problems: list[tuple] = []
        self.trial: str | None = None
        self.fork_parent = fork_parent

    def _own(self):
        # A forked pool worker inherits the parent's buffers; start clean and
        # hang its top-level spans under the span that was open at the fork.
        if os.getpid() != self.pid:
            parent = self.stack[-1] if self.stack else self.fork_parent
            self._reset(parent)

    def count_in_trial(self, name: str):
        self._own()
        if self.trial is not None:
            self.counts[name] += 1

    def wrap(self, name: str, fn, facts=None, trial_of=None):
        """Return fn wrapped in a span; facts(args, result) adds per-call fields."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._own()
            span_id = [tracer.pid, tracer.started]
            tracer.started += 1
            parent = tracer.stack[-1] if tracer.stack else tracer.fork_parent
            saved_trial = tracer.trial
            if trial_of is not None:
                tracer.trial = trial_of(args)
            record = {"name": name, "id": span_id, "parent": parent,
                      "trial": tracer.trial}
            tracer.stack.append(span_id)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                record["end"] = time.perf_counter()
                if facts is not None:
                    record.update(facts(args, result))
                return result
            except Exception as exc:
                record["end"] = time.perf_counter()
                record["error"] = type(exc).__name__
                raise
            finally:
                tracer.stack.pop()
                tracer.trial = saved_trial
                tracer.spans.append(record)
                if not tracer.stack and tracer.pid != tracer.main_pid:
                    tracer.flush()

        return wrapper

    def flush(self):
        """Append this process's spans, counts and captured problems to disk."""
        start = time.perf_counter()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if self.problems:
            with open(self.out_dir / f"problems_{self.pid}.pkl", "ab") as fh:
                pickle.dump(self.problems, fh)
        with open(self.out_dir / f"spans_{self.pid}.jsonl", "a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            self.counts["trace.flush_s"] += time.perf_counter() - start
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans, self.problems, self.counts = [], [], Counter()


def span_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a no-op call, best of `repeats` batches."""

    def noop(*_args):
        return None

    def batch(fn) -> float:
        start = time.perf_counter()
        for i in range(calls):
            fn(None, i)
        return time.perf_counter() - start

    scratch = Tracer(Path(os.devnull))  # never flushed
    wrapped = scratch.wrap("noop", noop)
    bare = min(batch(noop) for _ in range(repeats))
    traced = min(batch(wrapped) for _ in range(repeats))
    return max(traced - bare, 0.0) / calls


def install(tracer: Tracer):
    """Wrap the cross-module names of pce_transfer; returns nothing."""
    from pce_transfer import cli, gaussian, harness, predict, transfer
    from pce_transfer.basis import BasisSpec
    from pce_transfer.gaussian import GaussianDist
    from pce_transfer.models import GenerativeModel

    def patch(module, attr, name, **kw):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    def trial_id(args):
        cfg, trial = args[0], args[1]
        return f"{cfg.shift_axis}:{cfg.shift}:{trial}"

    def rows(args, _result):
        return {"rows": len(args[1])}

    def pushforward_shape(args, result):
        return {"m": int(result.mean.shape[0]), "p": int(args[0].dim)}

    def trial_records(_args, result):
        return {"records": len(result),
                "failed": sum(not record.ok for record in result.values())}

    def csv_bytes(args, _result):
        return {"bytes": os.path.getsize(args[0])}

    def capture_problem(args, _result):
        prob = args[0]
        if tracer.trial is not None:
            tracer.problems.append((tracer.trial, prob.source.dim,
                                    prob.source.mean, prob.source.cov,
                                    prob.target.mean, prob.target.cov))
        return {}

    patch(harness, "run_trial", "harness.run_trial", trial_of=trial_id,
          facts=trial_records)
    patch(harness, "trial_data", "harness.trial_data")
    patch(harness, "likelihood", "gaussian.likelihood")
    patch(harness, "optimize_beta", "transfer.optimize_beta", facts=capture_problem)
    patch(harness, "tempered_posterior", "transfer.tempered_posterior")
    patch(harness, "pushforward", "predict.pushforward", facts=pushforward_shape)
    patch(harness, "lpfp", "predict.lpfp")
    patch(harness, "rmse", "predict.rmse")
    patch(gaussian, "vandermonde", "basis.vandermonde", facts=rows)
    patch(predict, "vandermonde", "basis.vandermonde", facts=rows)
    patch(transfer, "fuse", "gaussian.fuse")
    patch(cli, "run_shift", "harness.run_shift")
    patch(cli, "write_csv", "cli.write_csv", facts=csv_bytes)

    total_order = BasisSpec.__dict__["total_order"].__func__
    BasisSpec.total_order = classmethod(tracer.wrap("basis.total_order", total_order))
    GenerativeModel.evaluate = tracer.wrap("models.evaluate", GenerativeModel.evaluate)

    post_init = GaussianDist.__post_init__

    def counted_post_init(self):
        tracer.count_in_trial("gaussian.dist_constructions")
        post_init(self)

    GaussianDist.__post_init__ = counted_post_init


def trace_cli(out_dir: Path, argv: list[str]) -> int:
    from pce_transfer import cli

    tracer = Tracer(out_dir)
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.counts["trace.span_cost_s"] = span_cost()
        tracer.flush()


def load_trace(out_dir: Path) -> tuple[list[dict], Counter]:
    """Every span and the summed counters written under out_dir."""
    spans, counts = [], Counter()
    for path in sorted(Path(out_dir).glob("spans_*.jsonl")):
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                if "counts" in record:
                    counts.update(record["counts"])
                else:
                    spans.append(record)
    return spans, counts


def replay(out_dir: Path) -> dict:
    """Re-run captured transfer problems under every objective.

    Reports the mean optimize_beta time per call for each objective and the
    share of DS scans whose returned values are all exactly 0.0.
    """
    import numpy as np

    from pce_transfer.gaussian import GaussianDist
    from pce_transfer.transfer import TransferProblem, optimize_beta

    captured = []
    for path in sorted(Path(out_dir).glob("problems_*.pkl")):
        with open(path, "rb") as fh:
            while True:
                try:
                    captured.extend(pickle.load(fh))
                except EOFError:
                    break
    if not captured:
        raise SystemExit("no transfer problems were captured")
    captured.sort(key=lambda item: (item[0], item[1]))
    pairs = [(GaussianDist(s_mean, s_cov), GaussianDist(t_mean, t_cov))
             for _, _, s_mean, s_cov, t_mean, t_cov in captured]
    out = {"problems": len(pairs)}
    for objective in REPLAY_OBJECTIVES:
        elapsed, all_zero = 0.0, 0
        for source, target in pairs:
            prob = TransferProblem(source, target, objective)
            start = time.perf_counter()
            result = optimize_beta(prob)
            elapsed += time.perf_counter() - start
            all_zero += bool(np.all(result.values == 0.0))
        out[f"{objective}.ms_per_call"] = 1e3 * elapsed / len(pairs)
        out[f"{objective}.all_zero_share"] = all_zero / len(pairs)
    return out


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "trace":
        return trace_cli(Path(argv[1]), argv[2:])
    if len(argv) == 2 and argv[0] == "replay":
        print(json.dumps(replay(Path(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
