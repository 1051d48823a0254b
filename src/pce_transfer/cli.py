"""Command-line interface: fit, transfer, sweep, and reproduction commands.

Configuration is a single JSON file; every key can also be set or overridden
on the command line with repeatable --set key=value flags (values are parsed
as JSON when possible).  Unknown keys are rejected.  Every output file embeds
the fully resolved configuration: JSON outputs carry a "config" field and CSV
outputs start with a single '# config {...}' comment line.  Result files
never contain timestamps, so identical configurations produce byte-identical
outputs.

Exit codes: 0 success, 1 numeric or calibration failure (including a sweep
shift in which every trial failed), 2 usage/schema error.
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

from .basis import BasisSpec, n_pce, to_reference
from .errors import CalibrationError, DomainError, NumericError, finite_real, integer
from .gaussian import (
    DEFAULT_COND_CEILING,
    CalibrationTask,
    GaussianDist,
    check_fit_settings,
    check_sample_count,
    likelihood_with_report,
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
from .transfer import (
    DEFAULT_BETA_FLOOR,
    DEFAULT_SCAN_POINTS,
    TransferProblem,
    optimize_beta,
)

REPRO_COMMANDS = {f"repro-{name}": name for name in STUDIES}

# The ExperimentConfig fields a sweep may override; it validates them.
EXPERIMENT_KEYS = ("n_trials", "seed", "objective", "degrees", "noise_sd",
                   "likelihood_noise_sd", "lpfp_noise_var", "n_source", "n_target",
                   "n_val", "sampler")
SWEEP_KEYS = {*EXPERIMENT_KEYS, "scenario", "shifts", "sweep_param", "bands"}


class UsageError(Exception):
    """Configuration or input-schema problem; maps to exit code 2."""


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
                or [row[:1] for row in rows] != [[str(t)] for t in range(n_trials)]
                or any(len(row) != len(header) for row in rows)):
            return None
        return [TrialRecord(int(trial), *map(float, scores), status=status)
                for trial, *scores, status in rows]
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
    try:
        n_terms = n_pce(*(integer(key, cfg[key], low=0) for key in ("dimension", "degree")))
        X, Y = load_dataset(cfg["dataset"], cfg["dimension"])
        check_sample_count(len(Y), n_terms)  # before the index set, which can take seconds
        spec = BasisSpec.from_config(cfg)
        to_reference(spec.box, X)  # a point outside lower/upper raises DomainError
        task = CalibrationTask(spec, X, Y, cfg.get("noise_var"))
        cond_ceiling = cfg.get("cond_ceiling", DEFAULT_COND_CEILING)
        jitter = cfg.get("jitter", 0.0)
        check_fit_settings(cond_ceiling, jitter)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid fit config: {exc}") from exc
    dist, report = likelihood_with_report(task, cond_ceiling=cond_ceiling, jitter=jitter)
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
    if source.dim != target.dim:
        raise UsageError(f"artifact dimensions differ: source {source.dim}, target {target.dim}")
    try:
        prob = TransferProblem(source, target, str(cfg["objective"]))
        scan_points = integer("scan_points", cfg.get("scan_points", DEFAULT_SCAN_POINTS), low=2)
        beta_floor = cfg.get("beta_floor", DEFAULT_BETA_FLOOR)
        if not (finite_real(beta_floor) and 0.0 < beta_floor < 1.0):
            raise ValueError(f"beta_floor must lie in (0, 1), got {beta_floor!r}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = optimize_beta(prob, scan_points=scan_points, beta_floor=beta_floor)
    write_json(out_dir / "beta_result.json",
               {"config": cfg, "objective": prob.objective, **result.to_record()})
    return 0


# ---------------------------------------------------------------------------
# sweep / repro
# ---------------------------------------------------------------------------

def build_scenarios(cfg: dict) -> list[tuple[str, object, tuple]]:
    """Resolve the scenario name plus overrides into (tag, config, shifts)."""
    name = cfg.get("scenario")
    if not isinstance(name, str) or name not in STUDIES:
        raise UsageError(f"scenario must be one of {list(STUDIES)}, got {name!r}")
    scenarios = STUDIES[name].sweeps
    if "sweep_param" in cfg:
        param, tags = cfg["sweep_param"], [tag for tag, _, _ in scenarios]
        if len(tags) < 2:
            raise UsageError(f"sweep_param applies to a study of several sweeps, not {name!r}")
        if param != "both" and param not in tags:
            raise UsageError(f"sweep_param must be one of {tags} or 'both', got {param!r}")
        scenarios = [sweep for sweep in scenarios if param in ("both", sweep[0])]
    shifts = cfg.get("shifts")
    if shifts is not None and not (isinstance(shifts, list) and shifts
                                   and all(map(finite_real, shifts))):
        raise UsageError(f"shifts must be a non-empty list of finite numbers, got {shifts!r}")
    overrides = {key: cfg[key] for key in EXPERIMENT_KEYS if key in cfg}
    try:
        resolved = [(tag, dataclasses.replace(exp_cfg, **overrides),
                     tuple(map(float, shifts or default_shifts)))
                    for tag, exp_cfg, default_shifts in scenarios]
        for _, exp_cfg, sweep_shifts in resolved:
            for shift in sweep_shifts:
                exp_cfg.with_shift(shift)  # checks the shifted boxes against the model
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return resolved


def run_sweep_command(cfg: dict, out_dir: Path, workers: int, force: bool) -> int:
    scenarios = build_scenarios(cfg)
    targets = STUDIES[cfg["scenario"]].band_targets
    wanted = cfg.get("bands", bool(targets))
    if type(wanted) is not bool or (wanted and not targets):
        raise UsageError(f"bands must be false, or true for a study with bands, got {wanted!r}")
    bands = targets if wanted else {}
    # One pool serves every shift of every sweep.  It forks all its workers at
    # the first map, so workers beyond the largest shift's trials would idle.
    # The fork comes before this process has run any trial algebra, which
    # keeps the workers' resident sets small.
    workers = min(workers, max(exp_cfg.n_trials for _, exp_cfg, _ in scenarios))
    if workers == 1:
        return run_sweeps(cfg, scenarios, bands, out_dir, force, pool=None, pool_broke=())
    # Imported here: a serial run never loads the pool or multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return run_sweeps(cfg, scenarios, bands, out_dir, force, pool=pool,
                          pool_broke=BrokenProcessPool)


def run_sweeps(cfg: dict, scenarios: list, bands: dict, out_dir: Path, force: bool,
               pool, pool_broke) -> int:
    """Run or resume every shift of every sweep; write shards, tables, bands and summary.

    bands maps each band label to its shift.  pool goes to every `run_shift`;
    pool_broke is the exception it raises when a worker dies, or () for no
    pool, which an except clause never matches.  Such a shift ends the
    command with exit 1, and the shards of the shifts before it stay, so a
    rerun resumes from them.  A shift whose trials all failed, or a band that
    cannot be fitted, is reported once every other output is written: exit 1.
    """
    summary: dict = {"config": cfg, "sweeps": {}}
    failures = []
    for tag, exp_cfg, shifts in scenarios:
        sweep_dir = out_dir / tag if tag else out_dir
        resolved = dict(cfg)
        resolved["resolved_experiment"] = exp_cfg.to_dict()
        resolved["shifts"] = list(shifts)
        config_line = canonical_config_line(resolved)

        records_by_degree = {d: [] for d in exp_cfg.degrees}
        aggregates_by_degree = {d: [] for d in exp_cfg.degrees}
        for idx, shift in enumerate(shifts):
            shard_paths = {
                d: sweep_dir / "shards" / f"shift_{idx:03d}_d{d}.csv"
                for d in exp_cfg.degrees
            }
            by_degree = {} if force else {
                d: read_trial_csv(p, config_line, exp_cfg.n_trials)
                for d, p in shard_paths.items()
            }
            if not by_degree or None in by_degree.values():
                try:
                    by_degree = run_shift(exp_cfg, shift, pool=pool)
                except pool_broke as exc:
                    print(f"error: a worker process died in sweep {tag or 'default'}, "
                          f"shift {shift}: {exc}", file=sys.stderr)
                    return 1
                for d, recs in by_degree.items():
                    write_csv(shard_paths[d], TRIAL_CSV_COLUMNS,
                              [r.as_csv_row() for r in recs], resolved)
            for d, recs in by_degree.items():
                records_by_degree[d].extend(recs)
                aggregates_by_degree[d].append(aggregate_records(shift, recs))
                if not any(r.ok for r in recs):
                    failures.append(f"every trial failed in sweep {tag or 'default'}, "
                                    f"shift {shift}, degree {d}")

        sweep_summary: dict = {"degrees": {}}
        for d in exp_cfg.degrees:
            write_csv(sweep_dir / f"trials_d{d}.csv", TRIAL_CSV_COLUMNS,
                      [r.as_csv_row() for r in records_by_degree[d]], resolved)
            aggregates = aggregates_by_degree[d]
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
                    failures.append(f"band {label} failed in sweep {tag or 'default'}, "
                                    f"shift {band_shift}, degree {d}: {exc}")
                    continue
                write_csv(sweep_dir / f"bands_{label}_d{d}.csv", BAND_CSV_COLUMNS, rows,
                          resolved)

        summary["sweeps"][tag or "default"] = sweep_summary
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
        ("sweep", "run a configured shift sweep"),
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
        scenario = REPRO_COMMANDS.get(args.command, cfg.get("scenario"))  # sweep: as set
        if cfg.get("scenario", scenario) != scenario:
            raise UsageError(f"{args.command} fixes scenario={scenario!r}; drop the override")
        cfg["scenario"] = scenario
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run_sweep_command(cfg, out_dir, workers=args.workers, force=args.force)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, CalibrationError, NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    code = main()
    gc.freeze()  # the collection the interpreter runs at exit skips frozen objects
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
