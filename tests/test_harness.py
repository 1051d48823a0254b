"""Tests for sampling, trials, shifts, aggregates, and band exports."""

import collections
import concurrent.futures
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce_transfer.basis import BasisSpec, DomainBox
from pce_transfer.errors import CalibrationError, DomainError, NumericError
from pce_transfer.gaussian import GaussianDist, likelihood
from pce_transfer.harness import (
    AGGREGATE_CSV_COLUMNS,
    BAND_GRID_POINTS,
    ExperimentConfig,
    TrialData,
    TrialRecord,
    _failed_record,
    aggregate_records,
    derive_seed,
    mode_predictions,
    mode_terms,
    pfp_bands,
    run_shift,
    run_trial,
    sample,
    trial_draws,
)
from pce_transfer.models import GenerativeModel, cubic_model, cubic_truth
from pce_transfer.predict import Design, lpfp, pushforward, rmse
from pce_transfer.scenarios import cubic_scenario, ishigami_scenario, subsurface_scenario
from pce_transfer.transfer import TransferProblem, optimize_beta, tempered_posterior


def small_cubic_cfg(**overrides):
    cfg, _ = cubic_scenario()
    base = dict(n_trials=3, degrees=(3,), n_val=30)
    base.update(overrides)
    return dataclasses.replace(cfg, **base)


def gappy_fn(pts):
    """The cubic truth with a gap: NaN above x = 0.29, inside the cubic source box."""
    return np.where(pts[:, 0] > 0.29, np.nan, cubic_truth(pts[:, 0]))


def small_ishigami_cfg(**overrides):
    cfg, _ = ishigami_scenario()
    base = dict(n_trials=2, n_val=40)
    base.update(overrides)
    return dataclasses.replace(cfg, **base)


def record_bits(records):
    """Each record's columns with every float as its exact hex text, NaN and -0.0 included."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in r.as_csv_row())
            for r in records]


# The reference trial pipeline: every draw and fit from scratch, at one shift
# alone, each task fitted by its own `likelihood(spec, X, Y, noise_var)` call.

def reference_data(cfg, trial):
    """One trial's datasets from its draws and cfg's target model."""
    draws = trial_draws(cfg, trial)
    model = cfg.target_model()
    y_t = model.evaluate(draws.X_target)
    if draws.target_noise is not None:
        y_t = y_t + draws.target_noise
    return TrialData(draws.X_source, draws.y_source, draws.X_target, y_t, draws.X_val,
                     model.evaluate(draws.X_val))


def reference_problem(cfg, data, degree):
    """The transfer problem of one trial at one degree, and its validation design."""
    spec = BasisSpec.total_order(cfg.reference_box(), degree)
    nv = cfg.noise_var()
    src = likelihood(spec, data.X_source, data.y_source, nv)
    tgt = likelihood(spec, data.X_target, data.y_target, nv)
    return TransferProblem(src, tgt, cfg.objective), Design(spec, data.X_val)


def reference_records(cfg, trial):
    """The records run_trial(cfg, trial) must give, by degree."""
    try:
        data = reference_data(cfg, trial)
    except NumericError as exc:
        return {d: _failed_record(trial, cfg.shift, str(exc)) for d in cfg.degrees}
    records = {}
    for degree in cfg.degrees:
        try:
            prob, design = reference_problem(cfg, data, degree)
            beta_star = optimize_beta(prob).beta_star
            preds = mode_predictions(prob, beta_star,
                                     mode_terms(prob, design, cfg.lpfp_noise_var))
            scores = {}
            for tag, pred in preds.items():
                scores[f"lpfp_{tag}"] = lpfp(pred, data.y_val)
                scores[f"rmse_{tag}"] = rmse(pred, data.y_val)
            records[degree] = TrialRecord(trial, cfg.shift, beta_star, **scores)
        except (CalibrationError, NumericError) as exc:
            records[degree] = _failed_record(trial, cfg.shift, str(exc))
    return records


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, 3, "source-points") == derive_seed(7, 3, "source-points")

    def test_distinct_roles_and_trials(self):
        seeds = {
            derive_seed(7, t, role)
            for t in range(5)
            for role in ("source-points", "target-points", "validation-points")
        }
        assert len(seeds) == 15

    def test_known_value_is_frozen(self):
        # Guards the on-disk reproducibility contract: changing the mix
        # changes every shipped result.
        assert derive_seed(0, 0, "source-points") == 15500790435019491532


class TestSample:
    BOX = DomainBox(np.array([2.0, -1.0]), np.array([4.0, 3.0]))

    def test_same_seed_same_draws(self):
        a = sample(self.BOX, 20, "latin-hypercube", 123)
        b = sample(self.BOX, 20, "latin-hypercube", 123)
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_lhs_projection_property(self, seed, n):
        pts = sample(self.BOX, n, "latin-hypercube", seed)
        for j in range(2):
            unit = (pts[:, j] - self.BOX.lower[j]) / self.BOX.width[j]
            strata = np.floor(unit * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_uniform_mean_approaches_midpoint(self):
        pts = sample(self.BOX, 100_000, "uniform", 99)
        mid = 0.5 * (self.BOX.lower + self.BOX.upper)
        np.testing.assert_allclose(pts.mean(axis=0), mid, rtol=0.01)

    def test_all_points_inside_box(self):
        for sampler in ("uniform", "latin-hypercube"):
            pts = sample(self.BOX, 50, sampler, 1)
            assert np.all(pts >= self.BOX.lower) and np.all(pts <= self.BOX.upper)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            sample(self.BOX, 5, "sobol", 0)

    @pytest.mark.parametrize("n", [2.5, True, 0, -3, "4"])
    def test_count_that_is_not_a_positive_integer_rejected(self, n):
        with pytest.raises(ValueError, match="sample count must be an integer >= 1"):
            sample(self.BOX, n, "uniform", 0)


class TestExperimentConfig:
    def test_under_determined_degree_rejected(self):
        with pytest.raises(ValueError, match="under-determined"):
            small_cubic_cfg(n_target=3)  # degree 3 needs 4 coefficients

    def test_under_determined_source_rejected(self):
        with pytest.raises(ValueError, match="n_source=3 is under-determined"):
            small_cubic_cfg(n_source=3)

    def test_shift_translates_target_box(self):
        cfg = small_cubic_cfg().with_shift(1.5)
        assert cfg.shift == 1.5
        np.testing.assert_allclose(cfg.target_box.lower, [1.35])
        np.testing.assert_allclose(cfg.target_box.upper, [1.75])

    @pytest.mark.parametrize("scenario", [cubic_scenario, ishigami_scenario])
    def test_shift_is_absolute_from_the_template(self, scenario):
        template = scenario()[0]
        once, twice = template.with_shift(1.0), template.with_shift(1.0).with_shift(1.0)
        assert twice.shift == once.shift == 1.0
        np.testing.assert_array_equal(twice.target_box.lower, once.target_box.lower)
        np.testing.assert_array_equal(twice.target_box.upper, once.target_box.upper)
        assert twice.target_model().parameters == once.target_model().parameters
        back = once.with_shift(0.0)
        np.testing.assert_allclose(back.target_box.lower, template.target_box.lower)
        assert back.target_model().parameters == template.target_model().parameters

    def test_shift_outside_the_model_domain_rejected(self):
        cfg, shifts = subsurface_scenario("z2")
        cfg.with_shift(max(shifts))
        with pytest.raises(ValueError, match="outside the subsurface-synthetic domain"):
            cfg.with_shift(5.0)

    def test_configs_with_rebuilt_boxes_compare_by_value(self):
        cfg = ishigami_scenario()[0]
        box = cfg.target_box
        rebuilt = dataclasses.replace(cfg, target_box=DomainBox(box.lower.copy(), box.upper.copy()))
        assert rebuilt == cfg and rebuilt.target_box is not box
        assert dataclasses.replace(cfg, target_box=box.translate(0.5, axis=1)) != cfg

    def test_model_param_shift_changes_target_model_only(self):
        cfg = dataclasses.replace(ishigami_scenario()[0], n_trials=1)
        shifted = cfg.with_shift(0.75)
        assert shifted.model.parameters["theta"] == 0.0
        assert shifted.target_model().parameters["theta"] == 0.75

    def test_reference_box_encompasses_both(self):
        cfg = small_cubic_cfg().with_shift(2.0)
        ref = cfg.reference_box()
        assert ref.lower[0] == -0.2
        assert ref.upper[0] == pytest.approx(2.25)

    def test_config_dict_round_trips_values(self):
        cfg = small_cubic_cfg()
        d = cfg.to_dict()
        assert d["model"] == "cubic"
        assert d["degrees"] == [3]
        assert d["likelihood_noise_sd"] == cfg.likelihood_noise_sd

    def test_config_dict_covers_every_field(self):
        d = small_cubic_cfg().to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(ExperimentConfig)} | {
            "model_parameters"}
        assert d["source_box"] == {"lower": [-0.2], "upper": [0.3]}
        json.dumps(d)

    def test_numpy_integers_become_python_ints(self):
        cfg = small_cubic_cfg(n_trials=np.int64(2), seed=np.int32(0), n_val=np.uint8(7),
                              degrees=[np.int64(1), 3], shift_axis=np.int64(0))
        assert (cfg.n_trials, cfg.seed, cfg.n_val, cfg.degrees) == (2, 0, 7, (1, 3))
        assert all(type(v) is int for v in (cfg.n_trials, cfg.seed, cfg.n_val, *cfg.degrees,
                                            cfg.shift_axis))
        json.dumps(cfg.to_dict())

    def test_seed_zero_and_negative_seeds_accepted(self):
        assert small_cubic_cfg(seed=0).seed == 0
        assert small_cubic_cfg(seed=-3).seed == -3

    @pytest.mark.parametrize("name", ["n_trials", "n_val", "n_source", "n_target", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "3", None, [2]])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_cubic_cfg(**{name: value})

    @pytest.mark.parametrize("name", ["n_trials", "n_val"])
    def test_zero_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            small_cubic_cfg(**{name: 0})

    @pytest.mark.parametrize("degrees", [3, "3", None, [], (), [1.0], [True], [-1], [1, 3, 1]])
    def test_malformed_degrees_rejected(self, degrees):
        with pytest.raises(ValueError, match="degree"):
            small_cubic_cfg(degrees=degrees)

    def test_degree_list_stored_as_tuple(self):
        assert small_cubic_cfg(degrees=[1, 3]).degrees == (1, 3)

    @pytest.mark.parametrize("objective", ["FOO", "", 1, None])
    def test_unknown_objective_rejected(self, objective):
        with pytest.raises(ValueError, match="unknown objective"):
            small_cubic_cfg(objective=objective)

    @pytest.mark.parametrize("name,value", [
        ("noise_sd", -0.1), ("noise_sd", "x"), ("noise_sd", float("nan")), ("noise_sd", True),
        ("lpfp_noise_var", -1.0), ("lpfp_noise_var", float("inf")),
        ("likelihood_noise_sd", 0.0), ("likelihood_noise_sd", "x"),
        ("likelihood_noise_sd", 1e-200), ("likelihood_noise_sd", 1e200),
        ("sampler", "sobol"),
    ])
    def test_malformed_noise_and_sampler_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_cubic_cfg(**{name: value})

    @pytest.mark.parametrize("name", ["source_box", "target_box"])
    def test_box_of_another_dimension_rejected(self, name):
        box = DomainBox(np.array([-0.2, 0.0]), np.array([0.3, 1.0]))
        with pytest.raises(ValueError, match="source_box and target_box must both have "
                                             "dimension 1"):
            small_cubic_cfg(**{name: box})

    @pytest.mark.parametrize("axis,message", [
        (1, "shift_axis must be below dimension 1"), (3, "shift_axis must be below dimension 1"),
        (-1, "shift_axis must be a non-negative integer"),
        (True, "shift_axis must be a non-negative integer"),
        (0.0, "shift_axis must be a non-negative integer"),
    ])
    def test_shift_axis_outside_the_model_rejected(self, axis, message):
        with pytest.raises(ValueError, match=message):
            small_cubic_cfg(shift_axis=axis)

    def test_shift_axis_within_the_model_accepted(self):
        cfg = dataclasses.replace(subsurface_scenario("z2")[0], shift_axis=np.int64(4))
        assert cfg.shift_axis == 4

    @pytest.mark.parametrize("param", ["phi", "", ["theta"], None])
    def test_model_param_shift_of_an_unknown_parameter_rejected(self, param):
        cfg = ishigami_scenario()[0]
        with pytest.raises(ValueError, match=r"shift_param must be one of \['theta'\]"):
            dataclasses.replace(cfg, shift_param=param)

    def test_model_param_shift_of_a_model_without_parameters_rejected(self):
        with pytest.raises(ValueError, match=r"shift_param must be one of \[\]"):
            small_cubic_cfg(shift_mode="model-param")


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_cubic_cfg()
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 0)
        assert a == b

    def test_coincident_domains_transfer_fully(self):
        cfg = small_cubic_cfg(n_trials=10)
        records = [run_trial(cfg, t)[3] for t in range(10)]
        mean_beta = np.mean([r.beta_star for r in records])
        assert mean_beta >= 0.9

    def test_noise_free_in_span_fit_is_exact(self):
        cfg = small_cubic_cfg(noise_sd=0.0, likelihood_noise_sd=1e-6,
                              lpfp_noise_var=0.0)
        rec = run_trial(cfg, 0)[3]
        assert rec.rmse_bstar <= rec.rmse_b0 + 1e-10
        assert rec.rmse_bstar <= 1e-8

    def test_failed_calibration_recorded_not_raised(self):
        # Degree 3 with 4 points clumped on ~0.2% of the encompassing frame
        # is hopelessly ill-conditioned; the trial must record the failure
        # instead of raising.
        cfg = small_cubic_cfg().with_shift(200.0)  # reference box ~[-0.2, 200]
        rec = run_trial(cfg, 0)[3]
        assert not rec.ok
        assert "condition number" in rec.status
        assert np.isnan(rec.beta_star)

    def test_overflowing_injected_noise_fails_its_trial(self):
        # Noise of sd 1e308 overflows training outputs to infinity.  The trial
        # records that failure; the fit's ValueError must not escape it.
        cfg = small_cubic_cfg(noise_sd=1e308, degrees=(1, 3))
        with np.errstate(over="ignore"):
            records = run_trial(cfg, 0)
        assert [r.status for r in records.values()] == [
            "failed: the injected noise overflowed a training output"] * 2

    def test_model_failure_fails_its_trial_at_every_degree(self):
        # Source points above x = 0.29 hit the gap in trials 2 and 5 only; a
        # failing trial must not abort the shift or touch the other trials.
        cfg = small_cubic_cfg(model=GenerativeModel("gappy", 1, gappy_fn), n_trials=6,
                              degrees=(1, 3))
        [by_degree] = run_shift(cfg, [0.0])
        for records in by_degree.values():
            assert [r.status for r in records] == [
                "ok", "ok", "failed: model gappy produced non-finite output", "ok", "ok",
                "failed: model gappy produced non-finite output"]
            assert np.isnan(records[2].beta_star)

    @pytest.mark.parametrize("cfg,shifts", [
        (small_cubic_cfg(), (0.0,)),
        (small_ishigami_cfg(), (0.0, 0.5)),
        (small_ishigami_cfg(likelihood_noise_sd=None, noise_sd=0.0, degrees=(2, 3)), (0.0, 0.5)),
    ], ids=["target-box", "later-shift", "estimated-noise"])
    def test_lpfp_matches_predict_module(self, cfg, shifts):
        # Cross-module consistency: every column of the reference pipeline, bit for bit,
        # for a model-param trial also at a shift after the first of its sweep.
        for shift, by_degree in zip(shifts, run_shift(cfg, shifts)):
            for trial in range(cfg.n_trials):
                got = record_bits(by_degree[d][trial] for d in cfg.degrees)
                assert got == record_bits(reference_records(cfg.with_shift(shift), trial).values())
                assert all(r[-1] == "ok" for r in got)


def scenario_problem(cfg, degree):
    """The transfer problem and validation design of trial 0 of a shipped study."""
    return reference_problem(cfg, reference_data(cfg, 0), degree)


class TestModePredictions:
    @pytest.mark.parametrize("scenario,degree,p", [
        (cubic_scenario, 1, 2), (ishigami_scenario, 3, 10), (subsurface_scenario, 3, 56),
    ])
    def test_frame_predictions_match_pushforward(self, scenario, degree, p):
        cfg = scenario()[0].with_shift(scenario()[1][1])
        prob, design = scenario_problem(cfg, degree)
        assert prob.source.dim == p
        # beta* is 1 at two of these shifts, so an interior beta runs too.
        for beta_star in (optimize_beta(prob).beta_star, 0.3):
            preds = mode_predictions(prob, beta_star, mode_terms(prob, design, noise_var=0.01))
            for tag, beta in (("bstar", beta_star), ("b1", 1.0)):
                oracle = pushforward(tempered_posterior(prob, beta), design, noise_var=0.01)
                np.testing.assert_allclose(preds[tag].mean, oracle.mean, rtol=1e-10,
                                           atol=1e-10 * np.abs(oracle.mean).max())
                np.testing.assert_allclose(preds[tag].marginal_var, oracle.marginal_var,
                                           rtol=1e-10)
            b0 = pushforward(prob.target, design, noise_var=0.01)
            np.testing.assert_array_equal(preds["b0"].mean, b0.mean)
            np.testing.assert_array_equal(preds["b0"].marginal_var, b0.marginal_var)

    def test_beta_star_zero_shares_the_b0_prediction(self):
        cfg = cubic_scenario()[0]
        prob, design = scenario_problem(cfg, 3)
        far = GaussianDist(prob.target.mean + 100.0, 1e-4 * prob.target.cov)
        prob = TransferProblem(far, prob.target, "EDF")
        beta_star = optimize_beta(prob).beta_star
        assert beta_star == 0.0
        preds = mode_predictions(prob, beta_star, mode_terms(prob, design))
        assert preds["bstar"] is preds["b0"]
        assert list(preds) == ["b0", "bstar", "b1"]

    @pytest.mark.parametrize("beta_star", [1.5, -1.0, float("nan")])
    def test_beta_star_outside_0_1_rejected(self, beta_star):
        prob, design = scenario_problem(cubic_scenario()[0], 3)
        with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
            mode_predictions(prob, beta_star, mode_terms(prob, design))

    @pytest.mark.parametrize("noise_var", [-1.0, float("nan"), float("inf"), True])
    def test_bad_noise_var_rejected(self, noise_var):
        prob, design = scenario_problem(cubic_scenario()[0], 3)
        with pytest.raises(ValueError, match="noise_var must be a non-negative finite number"):
            mode_predictions(prob, 0.5, mode_terms(prob, design, noise_var=noise_var))


class TestTrialIndependenceAndSweep:
    def test_trial_records_independent_of_subset(self):
        cfg = small_cubic_cfg(n_trials=5)
        full = [run_trial(cfg, t)[3] for t in range(5)]
        subset = [run_trial(cfg, t)[3] for t in (1, 3)]
        assert subset == [full[1], full[3]]

    def test_single_trial_aggregate_is_identity(self):
        cfg = small_cubic_cfg(n_trials=1)
        records = run_shift(cfg, [0.0])[0][3]
        assert len(records) == 1
        rec = records[0]
        agg = aggregate_records(0.0, records)
        assert agg["beta_star_mean"] == rec.beta_star
        assert agg["beta_star_sd"] == 0.0
        assert agg["rmse_bstar_mean"] == rec.rmse_bstar
        assert agg["dlpfp_vs_b0_mean"] == rec.lpfp_bstar - rec.lpfp_b0
        assert agg["n_failed"] == 0

    def test_sweep_is_reproducible(self):
        cfg = small_cubic_cfg(n_trials=2)
        first, second = run_shift(cfg, [0.0, 1.0]), run_shift(cfg, [0.0, 1.0])
        assert first == second
        for shift, a, b in zip((0.0, 1.0), first, second):
            assert aggregate_records(shift, a[3]) == aggregate_records(shift, b[3])

    def test_parallel_workers_match_serial(self):
        cfg = small_cubic_cfg(n_trials=4)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            parallel = run_shift(cfg, [0.5], pool=pool)
        assert parallel == run_shift(cfg, [0.5])

    def test_pool_gets_the_trials_in_about_eight_tasks(self):
        # One round trip per trial outweighed the short cubic and Ishigami
        # trials; a sweep of two trials still sends one trial per task.
        chunks = []

        class RecordingPool:
            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        cfg = small_cubic_cfg(degrees=(1,), n_val=5)
        for n_trials in (2, 16, 17):
            run_shift(dataclasses.replace(cfg, n_trials=n_trials), [0.0], pool=RecordingPool())
        assert chunks == [1, 2, 2]

    def test_aggregate_row_holds_the_csv_columns_in_order(self):
        records = run_shift(small_cubic_cfg(n_trials=2), [0.0])[0][3]
        assert tuple(aggregate_records(0.0, records)) == AGGREGATE_CSV_COLUMNS
        failed = aggregate_records(0.0, [_failed_record(0, 0.0, "synthetic")])
        assert tuple(failed) == AGGREGATE_CSV_COLUMNS
        assert all(np.isnan(failed[c]) for c in AGGREGATE_CSV_COLUMNS[3:])

    def test_aggregate_excludes_failed_trials(self):
        ok = TrialRecord(0, 0.0, 1.0, -1.0, -0.5, -0.2, 0.3, 0.2, 0.1)
        bad = _failed_record(1, 0.0, "synthetic")
        agg = aggregate_records(0.0, [ok, bad])
        assert agg["n_trials"] == 2
        assert agg["n_failed"] == 1
        assert agg["beta_star_mean"] == 1.0

    def test_csv_row_round_trips_through_its_text(self):
        import csv
        import io

        records = [TrialRecord(0, 0.1, 1 / 3, -1e-300, -0.5, 2e300, 0.3, 0.2, 0.1),
                   _failed_record(1, 0.1, "synthetic, with a comma")]
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows(r.as_csv_row() for r in records)
        rows = list(csv.reader(io.StringIO(buffer.getvalue(), newline="")))
        again = [TrialRecord.from_csv_row(row) for row in rows]
        assert [r.as_csv_row() for r in again[:1]] == [records[0].as_csv_row()]
        assert again[1].status == records[1].status and np.isnan(again[1].beta_star)
        with pytest.raises(ValueError):
            TrialRecord.from_csv_row(["0.5", *rows[0][1:]])
        for cut_or_long in (["0", "0.1", "1"], [*rows[0], "ok"]):
            with pytest.raises(ValueError, match="a trial row has 10 columns"):
                TrialRecord.from_csv_row(cut_or_long)


class TestBands:
    def test_bands_are_finite_for_every_target_placement(self):
        from pce_transfer.scenarios import CUBIC_BAND_TARGETS

        cfg = small_cubic_cfg(degrees=(1, 3))
        for label, shift in CUBIC_BAND_TARGETS.items():
            for degree in cfg.degrees:
                rows = pfp_bands(cfg, shift, degree)
                arr = np.array([r[:4] for r in rows], dtype=float)
                assert np.all(np.isfinite(arr)), (label, degree)
                modes = {r[4] for r in rows}
                assert modes == {"b0", "bstar", "b1"}

    def test_band_rows_cover_grid(self):
        cfg = small_cubic_cfg()
        rows = pfp_bands(cfg, 0.0, 3)
        assert len(rows) == 3 * BAND_GRID_POINTS == 3 * 121
        grid = np.linspace(-0.2, 0.3, BAND_GRID_POINTS)
        for tag in ("b0", "bstar", "b1"):
            assert [r[0] for r in rows if r[4] == tag] == grid.tolist()

    def test_rows_of_a_degree_do_not_depend_on_the_configured_degrees(self):
        rows = pfp_bands(small_cubic_cfg(degrees=(1, 2, 3)), 0.4, 2)
        assert rows == pfp_bands(small_cubic_cfg(degrees=(2,)), 0.4, 2)

    def test_multidimensional_scenario_rejected(self):
        cfg = dataclasses.replace(ishigami_scenario()[0], n_trials=1)
        with pytest.raises(ValueError):
            pfp_bands(cfg, 0.0, 3)


def spiky_ishigami_fn(pts, theta=0.0):
    """The Ishigami response, NaN everywhere at theta = 0.5 and finite elsewhere."""
    out = np.sin(pts[:, 0] - theta) + pts[:, 1] ** 4 * np.sin(pts[:, 0])
    return out + (np.nan if theta == 0.5 else 0.0)


def nan_at_theta_0_fn(pts, theta=0.0):
    """A sine response, NaN everywhere at theta = 0 and finite elsewhere."""
    return np.sin(pts[:, 0] - theta) + (np.nan if theta == 0.0 else 0.0)


class TestTrialMajorSweep:
    """run_shift runs each trial at all its shifts; records match the reference bit for bit."""

    SHIFTS = (0.0, 0.5, 1.0)

    @staticmethod
    def bits(per_shift):
        return [{d: record_bits(records) for d, records in by_degree.items()}
                for by_degree in per_shift]

    @staticmethod
    def reference(cfg, shifts):
        """run_shift's records by the reference pipeline: each trial alone at each shift."""
        out = []
        for shift in shifts:
            per_trial = [reference_records(cfg.with_shift(shift), t) for t in range(cfg.n_trials)]
            out.append({d: record_bits(records[d] for records in per_trial) for d in cfg.degrees})
        return out

    @staticmethod
    def stores(monkeypatch):
        """The store that each run_trial call receives, in call order."""
        from pce_transfer import harness

        seen = []

        def spy(cfg, trial, shared=None):
            seen.append(shared)
            return run_trial(cfg, trial, shared)

        monkeypatch.setattr(harness, "run_trial", spy)
        return seen

    @pytest.mark.parametrize("overrides", [
        {},
        {"degrees": (2, 3)},
        {"likelihood_noise_sd": None, "noise_sd": 0.0, "degrees": (2, 3)},
    ], ids=["known-noise", "two-degrees", "estimated-noise"])
    def test_any_subset_and_order_of_shifts_gives_the_reference_records(self, overrides):
        cfg = small_ishigami_cfg(**overrides)
        expected = dict(zip(self.SHIFTS, self.reference(cfg, self.SHIFTS)))
        assert all(r[-1] == "ok" for recs in expected[0.5].values() for r in recs)
        for shifts in (self.SHIFTS, self.SHIFTS[::-1], (0.5,), (1.0, 0.0),
                       (0.5, 0.0, 1.0, 0.0, 0.5)):
            assert self.bits(run_shift(cfg, shifts)) == [expected[s] for s in shifts], shifts

    def test_a_model_param_trial_fits_its_shared_work_once(self, monkeypatch):
        from pce_transfer import harness

        cfg = small_ishigami_cfg(n_trials=1)
        calls = []
        for name in ("trial_draws", "likelihood", "factorize"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        stores = self.stores(monkeypatch)
        run_shift(cfg, self.SHIFTS)
        assert calls == ["trial_draws", "likelihood", "factorize"]
        assert len(stores) == 3 and all(store is stores[0] for store in stores)
        assert "frame" in vars(stores[0][("problem", 3)])

    @pytest.mark.parametrize("overrides,pushforwards", [
        ({}, 1),
        ({"likelihood_noise_sd": None, "noise_sd": 0.0}, len(SHIFTS)),
    ], ids=["known-noise", "estimated-noise"])
    def test_a_model_param_trial_builds_its_validation_design_once(self, monkeypatch,
                                                                  overrides, pushforwards):
        # The design depends on the basis and the validation points alone.
        # The beta = 0 pushforward also reads the target covariance, which
        # only an estimated noise variance moves from shift to shift.
        from pce_transfer import harness

        cfg = small_ishigami_cfg(degrees=(2, 3), **overrides)
        trial, calls = [None], collections.Counter()

        def spy(cfg, t, shared=None):
            trial[0] = t
            return run_trial(cfg, t, shared)

        def counted(name, basis_of):
            real = getattr(harness, name)

            def call(*args, **kwargs):
                calls[name, trial[0], basis_of(*args).degree] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(harness, name, call)

        monkeypatch.setattr(harness, "run_trial", spy)
        counted("Design", lambda spec, points: spec)
        counted("pushforward", lambda posterior, design: design.basis)
        run_shift(cfg, self.SHIFTS)
        assert calls == {(name, t, d): count for t in range(cfg.n_trials) for d in cfg.degrees
                         for name, count in (("Design", 1), ("pushforward", pushforwards))}

    def test_estimated_noise_keeps_no_problem(self, monkeypatch):
        # An estimated noise variance moves the target covariance, so the
        # frame and the prediction terms read off it are built anew at every
        # shift; the fits and validation designs it does not touch stay.
        cfg = small_ishigami_cfg(n_trials=1, likelihood_noise_sd=None, noise_sd=0.0,
                                 degrees=(2, 3))
        stores = self.stores(monkeypatch)
        run_shift(cfg, self.SHIFTS)
        assert set(stores[0]) == {"draws", 2, 3, ("design", 2), ("design", 3)}
        assert not {("problem", 2), ("problem", 3), ("terms", 2), ("terms", 3)} & set(stores[0])

    def test_target_box_trials_keep_nothing(self, monkeypatch):
        stores = self.stores(monkeypatch)
        cfg = small_cubic_cfg(n_trials=2)
        assert self.bits(run_shift(cfg, (0.0, 0.5))) == self.reference(cfg, (0.0, 0.5))
        assert stores == [None] * 4

    def test_non_finite_target_at_one_shift_fails_that_shift_only(self):
        model = GenerativeModel("spiky", 2, spiky_ishigami_fn, {"theta": 0.0})
        cfg = small_ishigami_cfg(model=model)
        shifts = self.SHIFTS + self.SHIFTS[::-1]
        got = self.bits(run_shift(cfg, shifts))
        assert got == self.reference(cfg, shifts)
        for shift, by_degree in zip(shifts, got):
            statuses = {r[-1] for r in by_degree[3]}
            assert statuses == ({"failed: model spiky produced non-finite output"}
                                if shift == 0.5 else {"ok"})

    def test_non_finite_source_fails_every_shift_alike(self, monkeypatch):
        # The source model keeps theta = 0, where this response is NaN; every
        # target model of the sweep is finite.  The failed draws are never
        # kept, so each shift draws again and fails with the same message.
        model = GenerativeModel("nan-at-0", 2, nan_at_theta_0_fn, {"theta": 0.0})
        cfg = small_ishigami_cfg(model=model)
        stores = self.stores(monkeypatch)
        got = self.bits(run_shift(cfg, (0.5, 1.0)))
        assert got == self.reference(cfg, (0.5, 1.0))
        assert {r[-1] for by_degree in got for r in by_degree[3]} == {
            "failed: model nan-at-0 produced non-finite output"}
        assert stores == [{}] * 4

    def test_ill_conditioned_target_design_fails_every_shift_alike(self, monkeypatch):
        tiny = DomainBox(np.array([0.0, 0.0]), np.array([1e-3, 1e-3]))
        cfg = small_ishigami_cfg(target_box=tiny)
        stores = self.stores(monkeypatch)
        got = self.bits(run_shift(cfg, self.SHIFTS))
        assert got == self.reference(cfg, self.SHIFTS)
        for trial in range(cfg.n_trials):  # each trial's message, the same at every shift
            messages = {by_degree[3][trial][-1] for by_degree in got}
            assert len(messages) == 1
            assert messages.pop().startswith("failed: normal equations condition number")
        assert all(set(store) == {"draws"} for store in stores)

    def test_a_two_worker_pool_gives_the_serial_records(self):
        cfg = small_ishigami_cfg(n_trials=4, degrees=(2, 3))
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            got = self.bits(run_shift(cfg, self.SHIFTS, pool=pool))
        assert got == self.reference(cfg, self.SHIFTS)
