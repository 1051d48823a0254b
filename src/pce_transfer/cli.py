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
import json
import sys
from pathlib import Path

import numpy as np

from .basis import BasisSpec
from .errors import CalibrationError, DomainError, NumericError
from .gaussian import (
    DEFAULT_COND_CEILING,
    CalibrationTask,
    GaussianDist,
    check_fit_settings,
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
from .scenarios import (
    CUBIC_BAND_TARGETS,
    SUBSURFACE_SWEEPS,
    cubic_scenario,
    ishigami_scenario,
    subsurface_scenario,
)
from .transfer import (
    DEFAULT_BETA_FLOOR,
    DEFAULT_SCAN_POINTS,
    TransferProblem,
    optimize_beta,
)

REPRO_COMMANDS = {
    "repro-cubic": "cubic",
    "repro-ishigami": "ishigami",
    "repro-subsurface-synthetic": "subsurface-synthetic",
}

FIT_KEYS = {"dataset", "dimension", "degree", "lower", "upper", "noise_var",
            "cond_ceiling", "jitter"}
TRANSFER_KEYS = {"source", "target", "objective", "scan_points", "beta_floor"}
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

def load_config(path: str | None, overrides: list[str], allowed: set[str]) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
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
        raise UsageError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return cfg


def canonical_config_line(cfg: dict) -> str:
    return "# config " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, columns, rows, cfg: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(canonical_config_line(cfg) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_trial_csv(path: Path, config_line: str) -> list[TrialRecord] | None:
    """Records of a trial CSV written under config_line.

    None when the file is absent or was written under another configuration,
    so a stale shard is recomputed rather than reused.
    """
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\n") != config_line:
            return None
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRIAL_CSV_COLUMNS:
            raise UsageError(f"{path} has unexpected columns {header}")
        return [TrialRecord(int(row[0]), *map(float, row[1:9]), status=row[9])
                for row in reader]


def write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def load_dataset(path: str, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV of n input columns plus one output column.

    A single leading header row of non-numeric cells is tolerated; every
    other row must hold dimension + 1 finite numbers.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError as exc:
        raise UsageError(f"dataset not found: {path}") from exc
    if not rows:
        raise UsageError(f"dataset {path} is empty")

    def parse(row):
        return [float(cell) for cell in row]

    start = 0
    try:
        parse(rows[0])
    except ValueError:
        start = 1
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        if len(row) != dimension + 1:
            raise UsageError(
                f"dataset {path} row {i}: expected {dimension + 1} columns, got {len(row)}"
            )
        try:
            values = parse(row)
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
    for key in ("dataset", "dimension", "degree", "lower", "upper"):
        if key not in cfg:
            raise UsageError(f"fit config requires {key!r}")
    try:
        spec = BasisSpec.from_config(cfg)
        X, Y = load_dataset(cfg["dataset"], spec.box.dimension)
        task = CalibrationTask(spec, X, Y, cfg.get("noise_var"))
        cond_ceiling = float(cfg.get("cond_ceiling", DEFAULT_COND_CEILING))
        jitter = float(cfg.get("jitter", 0.0))
        check_fit_settings(cond_ceiling, jitter)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid fit config: {exc}") from exc
    dist, report = likelihood_with_report(task, cond_ceiling=cond_ceiling, jitter=jitter)
    write_json(out_dir / "posterior.json", {
        "config": cfg,
        "basis": spec.to_config(),
        "posterior": dist.to_record(),
        "report": report,
    })
    return 0


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def load_posterior_artifact(path: str) -> GaussianDist:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"posterior artifact not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"posterior artifact {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "posterior" not in payload:
        raise UsageError(f"posterior artifact {path} lacks a 'posterior' record")
    try:
        return GaussianDist.from_record(payload["posterior"])
    except (KeyError, TypeError, ValueError, NumericError) as exc:
        raise UsageError(f"posterior artifact {path}: bad 'posterior' record {exc!r}") from exc


def cmd_transfer(cfg: dict, out_dir: Path) -> int:
    for key in ("source", "target", "objective"):
        if key not in cfg:
            raise UsageError(f"transfer config requires {key!r}")
    scan_points = cfg.get("scan_points", DEFAULT_SCAN_POINTS)
    if type(scan_points) is not int or scan_points < 2:
        raise UsageError(f"scan_points must be an integer >= 2, got {scan_points!r}")
    beta_floor = cfg.get("beta_floor", DEFAULT_BETA_FLOOR)
    if type(beta_floor) not in (int, float) or not 0.0 < beta_floor < 1.0:
        raise UsageError(f"beta_floor must lie in (0, 1), got {beta_floor!r}")
    source = load_posterior_artifact(cfg["source"])
    target = load_posterior_artifact(cfg["target"])
    if source.dim != target.dim:
        raise UsageError(
            f"artifact dimensions differ: source {source.dim}, target {target.dim}"
        )
    try:
        prob = TransferProblem(source, target, str(cfg["objective"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = optimize_beta(prob, scan_points=scan_points, beta_floor=beta_floor)
    write_json(out_dir / "beta_result.json", {
        "config": cfg,
        "objective": prob.objective,
        **result.to_record(),
    })
    return 0


# ---------------------------------------------------------------------------
# sweep / repro
# ---------------------------------------------------------------------------

def build_scenarios(cfg: dict) -> list[tuple[str, object, tuple]]:
    """Resolve the scenario name plus overrides into (tag, config, shifts)."""
    name = cfg.get("scenario")
    if name == "cubic":
        scenarios = [("", *cubic_scenario())]
    elif name == "ishigami":
        scenarios = [("", *ishigami_scenario())]
    elif name == "subsurface-synthetic":
        param = cfg.get("sweep_param", "both")
        if param not in ("both", *SUBSURFACE_SWEEPS):
            raise UsageError(f"sweep_param must be 'z2', 'R3', or 'both', got {param!r}")
        params = tuple(SUBSURFACE_SWEEPS) if param == "both" else (param,)
        scenarios = [(p, *subsurface_scenario(p)) for p in params]
    else:
        raise UsageError("scenario must be one of 'cubic', 'ishigami', 'subsurface-synthetic'")
    if "sweep_param" in cfg and name != "subsurface-synthetic":
        raise UsageError("sweep_param applies to the subsurface-synthetic scenario only")
    shifts = cfg.get("shifts")
    if shifts is not None and not (isinstance(shifts, list) and shifts and all(
            type(s) in (int, float) and abs(s) <= sys.float_info.max for s in shifts)):
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
    bands = cfg.get("bands", cfg["scenario"] == "cubic")
    if type(bands) is not bool or (bands and cfg["scenario"] != "cubic"):
        raise UsageError(f"bands must be false, or true for the 1-D cubic scenario; got {bands!r}")
    summary: dict = {"config": cfg, "sweeps": {}}
    all_failed = []
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
                d: read_trial_csv(p, config_line) for d, p in shard_paths.items()
            }
            if not by_degree or None in by_degree.values():
                by_degree = run_shift(exp_cfg, shift, workers=workers)
                for d, recs in by_degree.items():
                    write_csv(shard_paths[d], TRIAL_CSV_COLUMNS,
                              [r.as_csv_row() for r in recs], resolved)
            for d, recs in by_degree.items():
                records_by_degree[d].extend(recs)
                aggregates_by_degree[d].append(aggregate_records(shift, recs))
                if not any(r.ok for r in recs):
                    all_failed.append(f"sweep {tag or 'default'}, shift {shift}, degree {d}")

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

        if bands:
            for label, band_shift in CUBIC_BAND_TARGETS.items():
                by_degree = pfp_bands(exp_cfg, band_shift)
                for d, rows in by_degree.items():
                    write_csv(sweep_dir / f"bands_{label}_d{d}.csv",
                              BAND_CSV_COLUMNS, rows, resolved)

        summary["sweeps"][tag or "default"] = sweep_summary
    write_json(out_dir / "summary.json", summary)
    for where in all_failed:
        print(f"error: every trial failed in {where}", file=sys.stderr)
    return 1 if all_failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

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
        ("repro-cubic", "cubic-truth domain-adaptation study"),
        ("repro-ishigami", "task-adaptation study on the shifted Ishigami response"),
        ("repro-subsurface-synthetic", "synthetic subsurface domain-adaptation study"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; value parsed as JSON)")
        p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--force", action="store_true",
                       help="recompute shifts whose shard files already exist")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("runs") / args.command
    try:
        if args.command == "fit":
            cfg = load_config(args.config, args.set, FIT_KEYS)
            return cmd_fit(cfg, out_dir)
        if args.command == "transfer":
            cfg = load_config(args.config, args.set, TRANSFER_KEYS)
            return cmd_transfer(cfg, out_dir)
        cfg = load_config(args.config, args.set, SWEEP_KEYS)
        if args.command in REPRO_COMMANDS:
            scenario = REPRO_COMMANDS[args.command]
            if cfg.get("scenario", scenario) != scenario:
                raise UsageError(
                    f"{args.command} fixes scenario={scenario!r}; drop the override"
                )
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
