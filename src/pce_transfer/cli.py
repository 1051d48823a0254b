"""Command-line interface: fit, transfer, and one reproduction command per study.

Configuration is a single JSON file; every key can also be set or overridden
on the command line with repeatable --set key=value flags (values are parsed
as JSON when possible).  Unknown keys are rejected.  Every output file embeds
the fully resolved configuration: JSON outputs carry a "config" field and CSV
outputs start with a single '# config {...}' comment line.  Result files
never contain timestamps, so identical configurations produce byte-identical
outputs.

Exit codes, which `main` alone picks, by exception type: 0 success, 1 a failed
run (CalibrationError, NumericError, OSError, MemoryError, or a sweep shift in
which every trial failed), 2 bad input (any ValueError, UsageError and
DomainError included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import io
import json
import sys
from pathlib import Path

import numpy as np

from .basis import BasisSpec, n_pce
from .errors import CalibrationError, NumericError, finite_real, integer
from .gaussian import (
    DEFAULT_COND_CEILING,
    GaussianDist,
    check_noise_var,
    check_sample_count,
    factorize,
)
from .harness import (
    AGGREGATE_CSV_COLUMNS,
    BAND_CSV_COLUMNS,
    TRIAL_CSV_COLUMNS,
    TrialRecord,
    aggregate_records,
    pfp_bands,
    run_shift,
)
from .scenarios import STUDIES
from .transfer import DEFAULT_BETA_FLOOR, DEFAULT_SCAN_POINTS, TransferProblem, optimize_beta

REPRO_COMMANDS = {f"repro-{name}": name for name in STUDIES}

# The ExperimentConfig fields a sweep may override; it validates them.
EXPERIMENT_KEYS = ("n_trials", "seed", "objective", "degrees", "noise_sd",
                   "likelihood_noise_sd", "lpfp_noise_var", "n_source", "n_target",
                   "n_val", "sampler")
SWEEP_KEYS = {*EXPERIMENT_KEYS, "shifts", "sweep_param", "bands"}


class UsageError(ValueError):
    """Configuration or input-schema problem; like every ValueError, exit code 2."""


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def read_input(path: str, kind: str) -> str:
    """The text of a user-supplied input file; one that cannot be read is a usage error."""
    try:
        with open(str(path), newline="") as fh:  # str: a number would open a file descriptor
            return fh.read()
    except FileNotFoundError as exc:
        raise UsageError(f"{kind} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, binary data
        raise UsageError(f"{kind} cannot be read: {path} ({type(exc).__name__})") from exc


def read_json_object(path: str, kind: str) -> dict:
    try:
        payload = json.loads(read_input(path, kind))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"{kind} {path} must hold a JSON object")
    return payload


def load_config(path: str | None, overrides: list[str], allowed: set[str]) -> dict:
    cfg = {} if path is None else read_json_object(path, "config file")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key.strip()] = value
    unknown = set(cfg) - allowed
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    return cfg


def canonical_config_line(cfg: dict) -> str:
    return "# config " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def write_text(path: Path, text: str):
    """Write path whole: the text goes to a sibling temporary file that then replaces it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    partial.write_text(text, newline="")
    partial.replace(path)


def write_csv(path: Path, columns, rows, cfg: dict):
    buffer = io.StringIO(newline="")
    buffer.write(canonical_config_line(cfg) + "\n")
    csv.writer(buffer).writerows([columns, *rows])
    write_text(path, buffer.getvalue())


def write_json(path: Path, payload: dict):
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_trial_csv(path: Path, config_line: str, n_trials: int) -> list[TrialRecord] | None:
    """The records of a whole shard written under config_line, or None.

    A shard is whole when it ends with a full line and holds trials
    0 .. n_trials - 1, in order, each with every column.  None, for a shard
    that is absent, stale or not whole, has its shift recomputed.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
        head, _, body = text.partition("\n")
        header, *rows = csv.reader(io.StringIO(body, newline=""))
        if (head != config_line or not text.endswith("\n") or header != list(TRIAL_CSV_COLUMNS)
                or [row[:1] for row in rows] != [[str(t)] for t in range(n_trials)]):
            return None
        return [TrialRecord.from_csv_row(row) for row in rows]
    except (FileNotFoundError, ValueError, csv.Error):  # ValueError: bad bytes, cells or rows
        return None


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def load_dataset(path: str, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV of n input columns plus one output column.

    The first row is a header, and skipped, when none of its cells is a
    number; every other row must hold dimension + 1 finite numbers.
    """
    rows = list(csv.reader(io.StringIO(read_input(path, "dataset"), newline="")))
    if not rows:
        raise UsageError(f"dataset {path} is empty")

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0 if any(map(is_number, rows[0])) else 1
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        if len(row) != dimension + 1:
            raise UsageError(
                f"dataset {path} row {i}: expected {dimension + 1} columns, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise UsageError(f"dataset {path} row {i}: non-numeric cell ({exc})") from exc
        if not np.all(np.isfinite(values)):
            raise UsageError(f"dataset {path} row {i}: non-finite cell in {row}")
        data.append(values)
    if not data:
        raise UsageError(f"dataset {path} contains no data rows")
    arr = np.asarray(data)
    return arr[:, :dimension], arr[:, dimension]


def cmd_fit(cfg: dict, out_dir: Path) -> int:
    n_terms = n_pce(*(integer(key, cfg[key], low=0) for key in ("dimension", "degree")))
    X, Y = load_dataset(cfg["dataset"], cfg["dimension"])
    check_sample_count(len(Y), n_terms)  # before the index set, which can take seconds
    spec = BasisSpec.from_config(cfg)
    noise_var = cfg.get("noise_var")
    check_noise_var(noise_var)  # exit 2, before an ill-conditioned design can exit 1
    factors = factorize(spec, X, cfg.get("cond_ceiling", DEFAULT_COND_CEILING),
                        cfg.get("jitter", 0.0))
    dist, report = factors.fit(Y, noise_var)
    write_json(out_dir / "posterior.json", {"config": cfg, "basis": spec.to_config(),
                                            "posterior": dist.to_record(), "report": report})
    return 0


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def load_posterior_artifact(path: str) -> GaussianDist:
    payload = read_json_object(path, "posterior artifact")
    try:
        return GaussianDist.from_record(payload["posterior"])
    except (KeyError, TypeError, ValueError, NumericError) as exc:
        raise UsageError(f"posterior artifact {path}: bad 'posterior' record {exc!r}") from exc


def cmd_transfer(cfg: dict, out_dir: Path) -> int:
    source = load_posterior_artifact(cfg["source"])
    target = load_posterior_artifact(cfg["target"])
    prob = TransferProblem(source, target, cfg["objective"])
    result = optimize_beta(prob, scan_points=cfg.get("scan_points", DEFAULT_SCAN_POINTS),
                           beta_floor=cfg.get("beta_floor", DEFAULT_BETA_FLOOR))
    write_json(out_dir / "beta_result.json",
               {"config": cfg, "objective": prob.objective, **result.to_record()})
    return 0


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def build_scenarios(cfg: dict) -> tuple[list[tuple[str, object, tuple]], dict]:
    """Check every study key of cfg; return its study's sweeps as (tag, config, shifts)
    and its bands as label -> shift, empty when bands are off."""
    name = cfg.get("scenario")
    if not isinstance(name, str) or name not in STUDIES:
        raise UsageError(f"scenario must be one of {list(STUDIES)}, got {name!r}")
    _, sweeps, targets = STUDIES[name]
    if "sweep_param" in cfg:
        param, tags = cfg["sweep_param"], [tag for tag, _, _ in sweeps]
        if len(tags) < 2:
            raise UsageError(f"sweep_param applies to a study of several sweeps, not {name!r}")
        if param not in tags:
            raise UsageError(f"sweep_param must be one of {tags}, got {param!r}")
        sweeps = [sweep for sweep in sweeps if sweep[0] == param]
    shifts = cfg.get("shifts")
    if shifts is not None and not (isinstance(shifts, list) and shifts
                                   and all(map(finite_real, shifts))):
        raise UsageError(f"shifts must be a non-empty list of finite numbers, got {shifts!r}")
    wanted = cfg.get("bands", bool(targets))
    if type(wanted) is not bool or (wanted and not targets):
        raise UsageError(f"bands must be false, or true for a study with bands, got {wanted!r}")
    overrides = {key: cfg[key] for key in EXPERIMENT_KEYS if key in cfg}
    resolved = [(tag, dataclasses.replace(exp_cfg, **overrides),
                 tuple(map(float, shifts or default_shifts)))
                for tag, exp_cfg, default_shifts in sweeps]
    for _, exp_cfg, sweep_shifts in resolved:
        for shift in sweep_shifts:
            exp_cfg.with_shift(shift)  # checks the shifted boxes against the model
    return resolved, targets if wanted else {}


def run_sweep_command(cfg: dict, out_dir: Path, workers: int, force: bool) -> int:
    sweeps, bands = build_scenarios(cfg)
    # One pool serves every sweep.  It forks all its workers at the first
    # map, so workers beyond the largest sweep's trials would idle.  The fork
    # comes before this process has run any trial algebra, which keeps the
    # workers' resident sets small.
    workers = min(workers, max(exp_cfg.n_trials for _, exp_cfg, _ in sweeps))
    if workers == 1:
        return run_sweeps(cfg, sweeps, bands, out_dir, force, pool=None, pool_broke=())
    # Imported here: a serial run never loads the pool or multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return run_sweeps(cfg, sweeps, bands, out_dir, force, pool=pool,
                          pool_broke=BrokenProcessPool)


def run_sweeps(cfg: dict, sweeps: list, bands: dict, out_dir: Path, force: bool,
               pool, pool_broke) -> int:
    """Run or resume every sweep; write shards, tables, bands and summary.

    A sweep's shifts whose shards are missing, stale or not whole (all of
    them under force) go to one `run_shift`, and each gets its shards.
    bands maps each band label to its shift.  pool goes to every `run_shift`;
    pool_broke is the exception it raises when a worker dies, or () for no
    pool, which an except clause never matches.  Such a sweep ends the
    command with exit 1, and the shards of the sweeps before it stay, so a
    rerun resumes from them.  A shift whose trials all failed, or a band that
    cannot be fitted, is reported once every other output is written: exit 1.
    """
    summary: dict = {"config": cfg, "sweeps": {}}
    failures = []
    for tag, exp_cfg, shifts in sweeps:
        name = tag or "default"
        sweep_dir = out_dir / tag
        resolved = {**cfg, "resolved_experiment": exp_cfg.to_dict(), "shifts": list(shifts)}
        config_line = canonical_config_line(resolved)

        shard_paths = [{d: sweep_dir / "shards" / f"shift_{idx:03d}_d{d}.csv"
                        for d in exp_cfg.degrees} for idx in range(len(shifts))]
        per_shift = [{d: None if force else read_trial_csv(p, config_line, exp_cfg.n_trials)
                      for d, p in paths.items()} for paths in shard_paths]
        stale = [idx for idx, by_degree in enumerate(per_shift) if None in by_degree.values()]
        if stale:
            try:
                computed = run_shift(exp_cfg, [shifts[idx] for idx in stale], pool=pool)
            except pool_broke as exc:
                print(f"error: a worker process died in sweep {name}: {exc}", file=sys.stderr)
                return 1
            for idx, by_degree in zip(stale, computed):
                per_shift[idx] = by_degree
                for d, recs in by_degree.items():
                    write_csv(shard_paths[idx][d], TRIAL_CSV_COLUMNS,
                              [r.as_csv_row() for r in recs], resolved)
        for shift, by_degree in zip(shifts, per_shift):
            for d, recs in by_degree.items():
                if not any(r.ok for r in recs):
                    failures.append(f"every trial failed in sweep {name}, "
                                    f"shift {shift}, degree {d}")

        sweep_summary: dict = {"degrees": {}}
        for d in exp_cfg.degrees:
            write_csv(sweep_dir / f"trials_d{d}.csv", TRIAL_CSV_COLUMNS,
                      [r.as_csv_row() for recs in per_shift for r in recs[d]], resolved)
            aggregates = [aggregate_records(shift, recs[d])
                          for shift, recs in zip(shifts, per_shift)]
            write_csv(sweep_dir / f"aggregate_d{d}.csv", AGGREGATE_CSV_COLUMNS,
                      [[row[c] for c in AGGREGATE_CSV_COLUMNS] for row in aggregates],
                      resolved)
            sweep_summary["degrees"][str(d)] = {
                col: [row[col] for row in aggregates] for col in AGGREGATE_CSV_COLUMNS
            }

        for label, band_shift in bands.items():
            for d in exp_cfg.degrees:
                try:
                    rows = pfp_bands(exp_cfg, band_shift, d)
                except (CalibrationError, NumericError) as exc:
                    failures.append(f"band {label} failed in sweep {name}, "
                                    f"shift {band_shift}, degree {d}: {exc}")
                    continue
                write_csv(sweep_dir / f"bands_{label}_d{d}.csv", BAND_CSV_COLUMNS, rows,
                          resolved)

        summary["sweeps"][name] = sweep_summary
    write_json(out_dir / "summary.json", summary)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# The commands that read files: each one's function, required keys and optional keys.
FILE_COMMANDS = {
    "fit": (cmd_fit, ("dataset", "dimension", "degree", "lower", "upper"),
            ("noise_var", "cond_ceiling", "jitter")),
    "transfer": (cmd_transfer, ("source", "target", "objective"), ("scan_points", "beta_floor")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pce-transfer",
        description="Polynomial-chaos surrogates with tempered knowledge transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("fit", "fit a coefficient likelihood to a CSV dataset"),
        ("transfer", "optimize the tempering exponent between two posteriors"),
        *((command, STUDIES[study].description) for command, study in REPRO_COMMANDS.items()),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; value parsed as JSON)")
        if name in FILE_COMMANDS:
            continue
        p.add_argument("--workers", type=int, default=1,
                       help="processes that run the trials (default 1: this one)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--force", action="store_true",
                       help="recompute shifts whose shard files already exist")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("runs") / args.command
    try:
        if args.command in FILE_COMMANDS:
            run, required, optional = FILE_COMMANDS[args.command]
            cfg = load_config(args.config, args.set, {*required, *optional})
            for key in required:
                if key not in cfg:
                    raise UsageError(f"{args.command} config requires {key!r}")
            return run(cfg, out_dir)
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config, args.set, SWEEP_KEYS)
        cfg["scenario"] = REPRO_COMMANDS[args.command]
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run_sweep_command(cfg, out_dir, workers=args.workers, force=args.force)
    except ValueError as exc:  # bad input, UsageError and DomainError among it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, NumericError, OSError, MemoryError) as exc:  # a run that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    code = main()
    gc.freeze()  # the collection the interpreter runs at exit skips frozen objects
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
