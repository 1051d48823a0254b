"""Tests for sampling, trials, shifts, aggregates, and band exports."""

import concurrent.futures
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce_transfer.basis import BasisSpec, DomainBox
from pce_transfer.gaussian import CalibrationTask, GaussianDist, likelihood
from pce_transfer.harness import (
    AGGREGATE_CSV_COLUMNS,
    BAND_GRID_POINTS,
    ExperimentConfig,
    aggregate_records,
    derive_seed,
    mode_predictions,
    pfp_bands,
    run_shift,
    run_trial,
    sample,
    trial_data,
)
from pce_transfer.models import GenerativeModel, cubic_model, cubic_truth
from pce_transfer.predict import Design, lpfp, pushforward
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

    def test_shift_outside_the_model_domain_rejected(self):
        cfg, shifts = subsurface_scenario("z2")
        cfg.with_shift(max(shifts))
        with pytest.raises(ValueError, match="outside the subsurface-synthetic domain"):
            cfg.with_shift(5.0)

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

    def test_model_failure_fails_its_trial_at_every_degree(self):
        # Source points above x = 0.29 hit the gap in trials 2 and 5 only; a
        # failing trial must not abort the shift or touch the other trials.
        cfg = small_cubic_cfg(model=GenerativeModel("gappy", 1, gappy_fn), n_trials=6,
                              degrees=(1, 3))
        by_degree = run_shift(cfg, 0.0)
        for records in by_degree.values():
            assert [r.status for r in records] == [
                "ok", "ok", "failed: model gappy produced non-finite output", "ok", "ok",
                "failed: model gappy produced non-finite output"]
            assert np.isnan(records[2].beta_star)

    def test_lpfp_matches_predict_module(self):
        # Cross-module consistency: recompute the beta* pipeline by hand.
        cfg = small_cubic_cfg()
        rec = run_trial(cfg, 1)[3]
        data = trial_data(cfg, 1)
        spec = BasisSpec.total_order(cfg.reference_box(), 3)
        nv = cfg.noise_var()
        src = likelihood(CalibrationTask(spec, data.X_source, data.y_source, nv))
        tgt = likelihood(CalibrationTask(spec, data.X_target, data.y_target, nv))
        prob = TransferProblem(src, tgt, cfg.objective)
        res = optimize_beta(prob)
        pred = pushforward(res.tempered_posterior, Design(spec, data.X_val),
                           noise_var=cfg.lpfp_noise_var)
        assert rec.beta_star == res.beta_star
        assert rec.lpfp_bstar == lpfp(pred, data.y_val)


def scenario_problem(cfg, degree, trial=0):
    """The transfer problem and validation design of one trial of a shipped study."""
    data = trial_data(cfg, trial)
    spec = BasisSpec.total_order(cfg.reference_box(), degree)
    nv = cfg.noise_var()
    src = likelihood(CalibrationTask(spec, data.X_source, data.y_source, nv))
    tgt = likelihood(CalibrationTask(spec, data.X_target, data.y_target, nv))
    return TransferProblem(src, tgt, cfg.objective), Design(spec, data.X_val)


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
            preds = mode_predictions(prob, beta_star, design, noise_var=0.01)
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
        preds = mode_predictions(prob, beta_star, design)
        assert preds["bstar"] is preds["b0"]
        assert list(preds) == ["b0", "bstar", "b1"]


class TestTrialIndependenceAndSweep:
    def test_trial_records_independent_of_subset(self):
        cfg = small_cubic_cfg(n_trials=5)
        full = [run_trial(cfg, t)[3] for t in range(5)]
        subset = [run_trial(cfg, t)[3] for t in (1, 3)]
        assert subset == [full[1], full[3]]

    def test_single_trial_aggregate_is_identity(self):
        cfg = small_cubic_cfg(n_trials=1)
        records = run_shift(cfg, 0.0)[3]
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
        for shift in (0.0, 1.0):
            first = run_shift(cfg, shift)
            second = run_shift(cfg, shift)
            assert first == second
            assert aggregate_records(shift, first[3]) == aggregate_records(shift, second[3])

    def test_parallel_workers_match_serial(self):
        cfg = small_cubic_cfg(n_trials=4)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            parallel = run_shift(cfg, 0.5, pool=pool)
        assert parallel == run_shift(cfg, 0.5)

    def test_pool_gets_the_trials_in_about_eight_tasks(self):
        # One round trip per trial outweighed the short cubic and Ishigami
        # trials; a shift of two trials still sends one trial per task.
        chunks = []

        class RecordingPool:
            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        cfg = small_cubic_cfg(degrees=(1,), n_val=5)
        for n_trials in (2, 16, 17):
            run_shift(dataclasses.replace(cfg, n_trials=n_trials), 0.0, pool=RecordingPool())
        assert chunks == [1, 2, 2]

    def test_aggregate_row_holds_the_csv_columns_in_order(self):
        from pce_transfer.harness import _failed_record

        records = run_shift(small_cubic_cfg(n_trials=2), 0.0)[3]
        assert tuple(aggregate_records(0.0, records)) == AGGREGATE_CSV_COLUMNS
        failed = aggregate_records(0.0, [_failed_record(0, 0.0, "synthetic")])
        assert tuple(failed) == AGGREGATE_CSV_COLUMNS
        assert all(np.isnan(failed[c]) for c in AGGREGATE_CSV_COLUMNS[3:])

    def test_aggregate_excludes_failed_trials(self):
        from pce_transfer.harness import TrialRecord, _failed_record

        ok = TrialRecord(0, 0.0, 1.0, -1.0, -0.5, -0.2, 0.3, 0.2, 0.1)
        bad = _failed_record(1, 0.0, "synthetic")
        agg = aggregate_records(0.0, [ok, bad])
        assert agg["n_trials"] == 2
        assert agg["n_failed"] == 1
        assert agg["beta_star_mean"] == 1.0


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
