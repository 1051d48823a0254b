"""Correctness check of one CLI run's outputs against stored reference aggregates.

A run's aggregates are the numeric rows of every aggregate_d*.csv under its
output directory, keyed by path relative to it (the '# config' comment line
is checked for presence only).  Values must agree within RTOL relative plus
ATOL absolute: room for last-bit changes from reordered floating-point work,
far below any change in what the studies compute.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9


def read_aggregates(out_dir: Path) -> dict:
    """{relative path: {"columns": [...], "rows": [[float, ...], ...]}}."""
    out = {}
    for path in sorted(Path(out_dir).rglob("aggregate_d*.csv")):
        with open(path, newline="") as fh:
            if not fh.readline().startswith("# config "):
                raise ValueError(f"{path} lacks its '# config' line")
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [[float(cell) for cell in row] for row in reader]
        out[path.relative_to(out_dir).as_posix()] = {"columns": columns, "rows": rows}
    return out


def count_records(out_dir: Path) -> tuple[int, int]:
    """(records, failed records) over every trials_d*.csv under out_dir."""
    total = failed = 0
    for path in Path(out_dir).rglob("trials_d*.csv"):
        with open(path, newline="") as fh:
            fh.readline()
            reader = csv.DictReader(fh)
            for row in reader:
                total += 1
                failed += row["status"] != "ok"
    return total, failed


def expected_records(reference: dict) -> int:
    """Trial x degree records a run must write, from the n_trials column."""
    total = 0
    for table in reference.values():
        col = table["columns"].index("n_trials")
        total += sum(int(row[col]) for row in table["rows"])
    return total


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare(actual: dict, reference: dict, rtol: float = RTOL,
            atol: float = ATOL) -> list[str]:
    """Every value on which two aggregate sets disagree; empty means they match.

    Both sets must have passed shape_errors against the same reference, so
    they hold the same files, columns and rows.
    """
    problems = []
    for name, want in sorted(reference.items()):
        for i, (row, ref_row) in enumerate(zip(actual[name]["rows"], want["rows"])):
            for col, a, b in zip(want["columns"], row, ref_row):
                if not _close(a, b, rtol, atol):
                    problems.append(f"{name} row {i} {col}: {a!r} != {b!r}")
    return problems


def shape_errors(actual: dict, reference: dict) -> list[str]:
    """Checks that hold for any seed: same files, columns, shifts and trial
    counts (and so rows) as the reference, and only finite values.

    Failed trials are allowed: a draw whose design is too ill-conditioned to
    fit becomes a failed record by design, and aggregates exclude it.  Whether
    a seed has such draws is a property of the seed, so only the reference
    comparison pins n_failed down.
    """
    problems = []
    if sorted(actual) != sorted(reference):
        return [f"files {sorted(actual)} != reference {sorted(reference)}"]
    for name, want in reference.items():
        got = actual[name]
        if got["columns"] != want["columns"]:
            problems.append(f"{name}: columns {got['columns']} != {want['columns']}")
            continue
        fixed = [want["columns"].index(c) for c in ("shift", "n_trials")]
        if [[r[i] for i in fixed] for r in got["rows"]] != \
                [[r[i] for i in fixed] for r in want["rows"]]:
            problems.append(f"{name}: shift or n_trials columns differ")
        for i, row in enumerate(got["rows"]):
            if not all(math.isfinite(v) for v in row):
                problems.append(f"{name} row {i}: non-finite value")
    return problems
