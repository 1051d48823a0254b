"""Ensemble experiment harness: sampling, trials, sweeps, and band exports.

A trial samples source/target/validation data, builds both likelihoods on the
affine frame of the box encompassing the source and target domains, optimizes
the tempering exponent, and scores beta* against no transfer (beta = 0) and
full transfer (beta = 1) on held-out validation data.  `run_shift` runs every
trial of one sweep at the given shifts, trial-major: one task runs one trial
at every shift, in this process or on a pool of worker processes the caller
opens, and `aggregate_records` summarizes each shift's records.
`ExperimentConfig` checks every study setting once, through the shared
checks in `errors`; a failure inside a trial stays in that trial's records.

Every trial, band export included, runs one pipeline: `trial_data` reads
the trial's `trial_draws` and evaluates the target model, and each degree
takes the basis, the source likelihood and the target design's factors
(`_shared_fits`), fits the target outputs and builds the transfer problem.
A model-param shift changes only the target model, so a trial of such a
sweep keeps, in a dict that lives as long as its task, the draws and each
degree's `_shared_fits` and validation `Design`.  Under a fixed noise
variance it also keeps each degree's first solved problem, whose
whitened-frame SVD `with_target` reuses, and the `mode_terms` read off it,
so a later shift predicts through products with vectors alone; an estimated
noise variance moves the target covariance, so those are built per shift.
A target-box shift moves every draw, so its trials keep nothing.  Only
computed values are kept, and they are pure, so a record is that of its
trial run alone.

Determinism: every random draw derives from a stable 64-bit hash of
(master seed, trial index, role tag), so records are a pure function of the
configuration and any subset of trials can be recomputed independently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .basis import BasisSpec, DomainBox, n_pce
from .errors import CalibrationError, NumericError, finite_real, integer
from .gaussian import DesignFactors, GaussianDist, factorize, likelihood
from .models import GenerativeModel
from .predict import Design, PfpPrediction, lpfp, pushforward, rmse
from .transfer import OBJECTIVES, TransferProblem, optimize_beta, tempered_posterior

SAMPLERS = ("uniform", "latin-hypercube")

# Each per-record quantity that `aggregate_records` summarizes over a shift's
# successful trials, as (column stem, value of one record), in column order.
AGGREGATED = (("beta_star", lambda r: r.beta_star),
              ("dlpfp_vs_b0", lambda r: r.lpfp_bstar - r.lpfp_b0),
              ("dlpfp_vs_b1", lambda r: r.lpfp_bstar - r.lpfp_b1),
              ("rmse_b0", lambda r: r.rmse_b0),
              ("rmse_bstar", lambda r: r.rmse_bstar),
              ("rmse_b1", lambda r: r.rmse_b1))
AGGREGATE_CSV_COLUMNS = ("shift", "n_trials", "n_failed",
                         *(f"{stem}_{stat}" for stem, _ in AGGREGATED for stat in ("mean", "sd")))

BAND_CSV_COLUMNS = ("x", "mean", "lo", "hi", "beta_mode")
BAND_GRID_POINTS = 121  # evenly spaced band points over the encompassing interval


def derive_seed(master_seed: int, trial: int, role: str) -> int:
    """Stable 64-bit mix of (master seed, trial index, role tag)."""
    digest = hashlib.blake2b(
        f"{master_seed}|{trial}|{role}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def sample(box: DomainBox, n: int, sampler: str, seed: int) -> np.ndarray:
    """Draw n points inside the box, shape (n, dim), reproducibly from seed.

    latin-hypercube: per dimension, one point per equal-width stratum,
    uniformly placed within it and permuted across dimensions.
    uniform: i.i.d. uniform over the box.
    """
    n = integer("sample count", n, low=1)
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; choose from {SAMPLERS}")
    rng = np.random.default_rng(seed)
    dim = box.dimension
    if sampler == "uniform":
        unit = rng.uniform(size=(n, dim))
    else:
        unit = np.empty((n, dim))
        for j in range(dim):
            strata = rng.permutation(n)
            unit[:, j] = (strata + rng.uniform(size=n)) / n
    return box.lower + unit * box.width


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a sweep, including how shifts apply.

    shift_mode "target-box" translates the target box along shift_axis by the
    shift value (domain adaptation); "model-param" offsets one parameter of
    the generative model for the target task only (task adaptation).
    """

    model: GenerativeModel
    source_box: DomainBox
    target_box: DomainBox
    degrees: tuple[int, ...]
    n_source: int
    n_target: int
    n_val: int
    n_trials: int
    noise_sd: float
    sampler: str
    objective: str
    seed: int
    shift_mode: str = "target-box"
    shift_axis: int = 0
    shift_param: str = "theta"
    shift: float = 0.0
    lpfp_noise_var: float = 0.0
    likelihood_noise_sd: float | None = None

    def __post_init__(self):
        for name, low in (("n_source", 1), ("n_target", 1), ("n_val", 1), ("n_trials", 1),
                          ("seed", None), ("shift_axis", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low=low))
        if not isinstance(self.degrees, (list, tuple)) or not self.degrees:
            raise ValueError(f"degrees must be a non-empty list, got {self.degrees!r}")
        object.__setattr__(self, "degrees",
                           tuple(integer("every degree", d, low=0) for d in self.degrees))
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError(f"degrees must not repeat, got {list(self.degrees)}")
        for name in ("noise_sd", "lpfp_noise_var"):
            value = getattr(self, name)
            if not finite_real(value) or value < 0:
                raise ValueError(f"{name} must be a non-negative number, got {value!r}")
        sd = self.likelihood_noise_sd
        if sd is not None and not (finite_real(sd) and sd > 0):
            raise ValueError(f"likelihood_noise_sd must be a positive number or null, got {sd!r}")
        try:
            var = self.noise_var()
        except OverflowError:  # the assumed sd squared exceeds the largest double
            var = float("inf")
        if var is not None and not (finite_real(var) and var > 0):
            raise ValueError("likelihood_noise_sd, or noise_sd when it is null, must square "
                             f"to a positive finite variance, got {var!r}")
        if not isinstance(self.objective, str) or self.objective.upper() not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; choose from {SAMPLERS}")
        if self.shift_mode not in ("target-box", "model-param"):
            raise ValueError(f"unknown shift_mode {self.shift_mode!r}")
        dim, params = self.model.dimension, list(self.model.parameters)
        if (self.source_box.dimension, self.target_box.dimension) != (dim, dim):
            raise ValueError(f"source_box and target_box must both have dimension {dim}, "
                             f"as the {self.model.name} model does")
        if self.shift_axis >= dim:
            raise ValueError(f"shift_axis must be below dimension {dim}, got {self.shift_axis}")
        if self.shift_mode == "model-param" and self.shift_param not in params:
            raise ValueError(f"shift_param must be one of {params}, got {self.shift_param!r}")
        domain, box = self.model.domain, self.reference_box()
        if domain is not None and (np.any(box.lower < domain.lower)
                                   or np.any(box.upper > domain.upper)):
            raise ValueError(
                f"source and target boxes span {box.lower.tolist()}..{box.upper.tolist()}, outside "
                f"the {self.model.name} domain {domain.lower.tolist()}..{domain.upper.tolist()}"
            )
        for d in self.degrees:
            for name in ("n_source", "n_target"):
                if getattr(self, name) < n_pce(dim, d):
                    raise ValueError(
                        f"{name}={getattr(self, name)} is under-determined for "
                        f"degree {d} ({n_pce(dim, d)} coefficients)"
                    )

    def with_shift(self, shift: float) -> "ExperimentConfig":
        """Resolve one sweep point: the target box or task moved by shift from the template's."""
        box = self.target_box
        if self.shift_mode == "target-box":
            box = box.translate(float(shift) - self.shift, axis=self.shift_axis)
        return replace(self, shift=float(shift), target_box=box)

    def target_model(self) -> GenerativeModel:
        if self.shift_mode == "model-param":
            base = float(self.model.parameters[self.shift_param])
            return self.model.with_parameters(**{self.shift_param: base + self.shift})
        return self.model

    def reference_box(self) -> DomainBox:
        return self.source_box.encompass(self.target_box)

    def noise_var(self) -> float | None:
        """Observation-noise variance assumed by the likelihood algebra.

        likelihood_noise_sd decouples the assumed noise scale from the
        injected one: it acts as a per-task trust level on the fitted
        coefficients and may deliberately dominate the injected noise.
        Falls back to noise_sd; None with noise_sd = 0 means estimate from
        residuals per task.
        """
        sd = self.likelihood_noise_sd if self.likelihood_noise_sd is not None else self.noise_sd
        return sd**2 if sd > 0 else None

    def to_dict(self) -> dict:
        """Every field as JSON-ready values; the model is its name and parameters."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("source_box", "target_box"):
            out[name] = {"lower": out[name].lower.tolist(), "upper": out[name].upper.tolist()}
        out.update(model=self.model.name, model_parameters=dict(self.model.parameters),
                   degrees=list(self.degrees))
        return out


@dataclass(frozen=True)
class TrialRecord:
    """Scores of one ensemble realization at beta in {0, beta*, 1}."""

    trial: int
    shift: float
    beta_star: float
    lpfp_b0: float
    lpfp_bstar: float
    lpfp_b1: float
    rmse_b0: float
    rmse_bstar: float
    rmse_b1: float
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_csv_row(self) -> list:
        return [getattr(self, c) for c in TRIAL_CSV_COLUMNS]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "TrialRecord":
        """The record of one CSV row; a row of the wrong length or a bad cell raises ValueError."""
        if len(row) != len(TRIAL_CSV_COLUMNS):
            raise ValueError(f"a trial row has {len(TRIAL_CSV_COLUMNS)} columns, got {len(row)}")
        trial, *scores, status = row
        return cls(int(trial), *map(float, scores), status=status)


TRIAL_CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class TrialData:
    """The sampled datasets of one trial, shared across surrogate degrees."""

    X_source: np.ndarray
    y_source: np.ndarray
    X_target: np.ndarray
    y_target: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray


@dataclass(frozen=True)
class TrialDraws:
    """The draws of one trial that no model-param shift changes.

    Every point set, the source outputs with their injected noise, and the
    target's injected noise, already scaled by noise_sd (None without noise).
    """

    X_source: np.ndarray
    y_source: np.ndarray
    X_target: np.ndarray
    X_val: np.ndarray
    target_noise: np.ndarray | None


def trial_draws(cfg: ExperimentConfig, trial: int) -> TrialDraws:
    """Sample every point set of one trial and evaluate the source model on its points.

    A non-finite source output raises NumericError; an overflowing injected
    noise is left to `trial_data`, which checks both training outputs.
    """
    X_s = sample(cfg.source_box, cfg.n_source, cfg.sampler,
                 derive_seed(cfg.seed, trial, "source-points"))
    X_t = sample(cfg.target_box, cfg.n_target, cfg.sampler,
                 derive_seed(cfg.seed, trial, "target-points"))
    X_v = sample(cfg.target_box, cfg.n_val, cfg.sampler,
                 derive_seed(cfg.seed, trial, "validation-points"))
    y_s = cfg.model.evaluate(X_s)
    target_noise = None
    if cfg.noise_sd > 0:
        rng_s = np.random.default_rng(derive_seed(cfg.seed, trial, "source-noise"))
        rng_t = np.random.default_rng(derive_seed(cfg.seed, trial, "target-noise"))
        y_s = y_s + cfg.noise_sd * rng_s.standard_normal(cfg.n_source)
        target_noise = cfg.noise_sd * rng_t.standard_normal(cfg.n_target)
    return TrialDraws(X_s, y_s, X_t, X_v, target_noise)


def _recall(shared: dict | None, key, compute):
    """shared[key], set to compute() on first use; with no store (None), compute().

    A computation that raises is not kept, so it runs again at the next use.
    """
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def trial_data(cfg: ExperimentConfig, trial: int, shared: dict | None = None) -> TrialData:
    """One trial's datasets: its `trial_draws`, kept in shared if given, and target outputs.

    cfg's target model gives the outputs.  Target outputs carry the drawn
    noise of sd cfg.noise_sd; validation outputs are noise-free truth.  A
    non-finite output raises NumericError.
    """
    draws = _recall(shared, "draws", partial(trial_draws, cfg, trial))
    target_model = cfg.target_model()
    y_t = target_model.evaluate(draws.X_target)
    y_v = target_model.evaluate(draws.X_val)
    if draws.target_noise is not None:
        y_t = y_t + draws.target_noise
        if not (np.all(np.isfinite(draws.y_source)) and np.all(np.isfinite(y_t))):
            raise NumericError("the injected noise overflowed a training output")
    return TrialData(draws.X_source, draws.y_source, draws.X_target, y_t, draws.X_val, y_v)


def _failed_record(trial: int, shift: float, reason: str) -> TrialRecord:
    scores = dict.fromkeys(TRIAL_CSV_COLUMNS[2:-1], float("nan"))
    return TrialRecord(trial, shift, status=f"failed: {reason}", **scores)


def mode_terms(prob: TransferProblem, design: Design, noise_var: float = 0.0) -> tuple:
    """The terms of `mode_predictions` that the target mean does not move.

    They are the design, G = A F of the whitened frame, G * G, the beta = 0
    marginal variances (the `pushforward` of the target, plus noise_var) and
    noise_var, which every marginal variance adds.  Every target of the same
    covariance under the same frame SVD shares them.
    """
    b0_var = pushforward(tempered_posterior(prob, 0.0), design, noise_var=noise_var).marginal_var
    G = design.matrix @ prob.frame.F
    return design, G, G * G, b0_var, noise_var


def mode_predictions(prob: TransferProblem, beta_star: float,
                     terms: tuple) -> dict[str, PfpPrediction]:
    """Predictions at beta = 0 ("b0"), beta* ("bstar") and 1 ("b1"), in that order.

    terms, `mode_terms` of prob's covariances, leave only products with
    vectors: the b0 mean A m_t, as `pushforward` forms it, and at beta* and 1
    mean G z and variances (G * G) v off the whitened frame, so no posterior
    is formed; beta* = 0 shares b0.
    """
    design, G, G2, b0_var, noise_var = terms
    preds = {"b0": PfpPrediction(design.matrix @ prob.target.mean, b0_var)}
    for tag, beta in (("bstar", beta_star), ("b1", 1.0)):
        z, var = prob.frame.whitened(beta)
        preds[tag] = preds["b0"] if beta == 0.0 else PfpPrediction(G @ z, G2 @ var + noise_var)
    return preds


def _shared_fits(cfg: ExperimentConfig, data: TrialData,
                 degree: int) -> tuple[BasisSpec, GaussianDist, DesignFactors]:
    """A trial's basis, source likelihood and target design factors at one degree.

    Both fits are `factorize` then `DesignFactors.fit`: the source's as one
    `likelihood` call, the target's stopped before `fit`, so that each shift
    fits only its own outputs.
    """
    spec = BasisSpec.total_order(cfg.reference_box(), degree)
    source_lik = likelihood(spec, data.X_source, data.y_source, cfg.noise_var())
    return spec, source_lik, factorize(spec, data.X_target)


def _predict_modes(cfg: ExperimentConfig, data: TrialData, degree: int, points: np.ndarray,
                   shared: dict | None = None) -> tuple[float, dict[str, PfpPrediction]]:
    """Fit both tasks at one degree, optimize beta, and return beta* and `mode_predictions`.

    shared, a model-param trial's store, keeps the degree's `_shared_fits`
    and the `Design` at points.  Under a fixed noise variance it also keeps
    the problem first solved, whose frame SVD `with_target` reuses, and its
    `mode_terms`, so a later shift fits only the target outputs and forms
    only products with vectors.  An estimated noise variance moves the
    target covariance, so then the frame and the terms are built anew.
    """
    noise_var = cfg.noise_var()
    spec, source_lik, factors = _recall(shared, degree, partial(_shared_fits, cfg, data, degree))
    target_lik = factors.fit(data.y_target, noise_var)[0]
    fixed = None if noise_var is None else shared
    solved = None if fixed is None else fixed.get(("problem", degree))
    prob = (TransferProblem(source_lik, target_lik, cfg.objective) if solved is None
            else solved.with_target(target_lik))
    beta_star = optimize_beta(prob).beta_star
    if fixed is not None:
        fixed.setdefault(("problem", degree), prob)
    design = _recall(shared, ("design", degree), partial(Design, spec, points))
    terms = _recall(fixed, ("terms", degree),
                    partial(mode_terms, prob, design, cfg.lpfp_noise_var))
    return beta_star, mode_predictions(prob, beta_star, terms)


def run_trial(cfg: ExperimentConfig, trial: int,
              shared: dict | None = None) -> dict[int, TrialRecord]:
    """One ensemble realization at cfg's shift, for every configured degree.

    shared is the dict in which a model-param trial keeps what its shifts
    share (see `run_shift`), or None to keep nothing; the records are the
    same either way.  Calibration and numeric failures, a non-finite model
    output among them, become failed records rather than aborting the sweep.
    """
    try:
        data = trial_data(cfg, trial, shared)
    except NumericError as exc:
        return {d: _failed_record(trial, cfg.shift, str(exc)) for d in cfg.degrees}
    records: dict[int, TrialRecord] = {}
    for degree in cfg.degrees:
        try:
            beta_star, preds = _predict_modes(cfg, data, degree, data.X_val, shared)
            scores = {}
            for tag, pred in preds.items():
                scores[f"lpfp_{tag}"] = lpfp(pred, data.y_val)
                scores[f"rmse_{tag}"] = rmse(pred, data.y_val)
            records[degree] = TrialRecord(trial, cfg.shift, beta_star, **scores)
        except (CalibrationError, NumericError) as exc:
            records[degree] = _failed_record(trial, cfg.shift, str(exc))
    return records


def _trial_at_shifts(cfgs: list[ExperimentConfig], trial: int) -> list[dict[int, TrialRecord]]:
    """`run_trial` of one trial at each config; a model-param trial's shifts share one store."""
    shared: dict = {}
    return [run_trial(cfg, trial, shared if cfg.shift_mode == "model-param" else None)
            for cfg in cfgs]


def run_shift(cfg_template: ExperimentConfig, shifts,
              pool=None) -> list[dict[int, list[TrialRecord]]]:
    """Every trial of one sweep at each of shifts: per shift, records by degree in trial order.

    One task runs one trial at all the shifts.  pool, an executor such as a
    `concurrent.futures.ProcessPoolExecutor`, spreads the tasks over its
    workers; without one they run in this process.  Records depend neither
    on the process that computes them nor on the other shifts given.
    """
    cfgs = [cfg_template.with_shift(shift) for shift in shifts]
    trials = range(cfg_template.n_trials)
    # About eight tasks per sweep: a round trip per trial outweighs a short trial.
    run = map if pool is None else partial(pool.map, chunksize=max(1, len(trials) // 8))
    per_trial = list(run(partial(_trial_at_shifts, cfgs), trials))
    return [{d: [per_trial[t][i][d] for t in trials] for d in cfg.degrees}
            for i, cfg in enumerate(cfgs)]


def aggregate_records(shift: float, records: list[TrialRecord]) -> dict:
    """Mean/sd of each `AGGREGATED` quantity over one shift; failed trials are excluded."""
    ok = [r for r in records if r.ok]
    row = {"shift": shift, "n_trials": len(records), "n_failed": len(records) - len(ok)}
    for stem, value in AGGREGATED:
        arr = np.asarray([value(r) for r in ok] or [np.nan], dtype=float)  # none ok: NaN
        row[f"{stem}_mean"], row[f"{stem}_sd"] = float(arr.mean()), float(arr.std())
    return row


def pfp_bands(cfg_template: ExperimentConfig, shift: float, degree: int) -> list[tuple]:
    """Plot-ready mean +/- 2 sd bands of one degree over the encompassing interval.

    Trial 0 represents the shift; rows are (x, mean, lo, hi, beta_mode)
    with beta_mode in {b0, bstar, b1}.  One-dimensional scenarios only.
    """
    cfg = cfg_template.with_shift(shift)
    if cfg.model.dimension != 1:
        raise ValueError("band export is defined for one-dimensional inputs")
    ref_box = cfg.reference_box()
    grid = np.linspace(ref_box.lower[0], ref_box.upper[0], BAND_GRID_POINTS)
    _, preds = _predict_modes(cfg, trial_data(cfg, 0), degree, grid)
    rows = []
    for tag, pred in preds.items():
        sd = np.sqrt(np.maximum(pred.marginal_var, 0.0))
        rows.extend((float(x), float(m), float(m - 2 * s), float(m + 2 * s), tag)
                    for x, m, s in zip(grid, pred.mean, sd))
    return rows
