"""Tests for the generative truth models."""

import numpy as np
import pytest

from pce_transfer.basis import DomainBox
from pce_transfer.errors import DomainError
from pce_transfer.models import (
    SUBSURFACE_ENVELOPE,
    GenerativeModel,
    cubic_model,
    cubic_truth,
    ishigami,
    ishigami_model,
    subsurface_model,
    synthetic_subsurface,
)


class TestCubicTruth:
    def test_zero_at_origin(self):
        assert cubic_truth(0.0) == 0.0

    def test_nontrivial_root(self):
        # (1/3) x^3 = 2.25 x at x^2 = 6.75.
        assert cubic_truth(np.sqrt(6.75)) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_three(self):
        assert cubic_truth(3.0) == pytest.approx(0.675, rel=1e-15)

    def test_vectorized(self):
        x = np.array([0.0, 3.0])
        np.testing.assert_allclose(cubic_truth(x), [0.0, 0.675], atol=1e-15)


class TestIshigami:
    def test_origin(self):
        assert ishigami(0.0, 0.0, 0.0) == 0.0

    def test_peak_without_shift(self):
        assert ishigami(np.pi / 2, 1.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_peak_with_quarter_turn_shift(self):
        assert ishigami(np.pi / 2, 1.0, np.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_shift_moves_first_argument_only(self):
        rng = np.random.default_rng(0)
        x, y, theta = rng.uniform(-1, 1, 3)
        assert ishigami(x, y, theta) == pytest.approx(
            np.sin(x - theta) + y**4 * np.sin(x), rel=1e-15
        )


class TestSyntheticSubsurface:
    def center(self):
        return 0.5 * (SUBSURFACE_ENVELOPE.lower + SUBSURFACE_ENVELOPE.upper)

    def test_deterministic(self):
        x = self.center()
        assert synthetic_subsurface(x) == synthetic_subsurface(x)

    def test_continuity_under_tiny_perturbation(self):
        x = self.center()
        for j in range(5):
            dx = np.zeros(5)
            dx[j] = 1e-8
            assert abs(synthetic_subsurface(x + dx) - synthetic_subsurface(x)) < 1e-4

    def test_out_of_envelope_rejected(self):
        x = self.center()
        x[2] = 5.0  # R3 below the contrast background
        with pytest.raises(DomainError):
            synthetic_subsurface(x)

    def test_third_layer_influence_fades_with_depth(self):
        shallow = np.array([2.0, 5.0, 8.0, -1.5, 1.5])
        deep = np.array([2.0, 5.0, 8.0, -1.5, 5.5])
        bump = np.array([0.0, 0.0, 10.0, 0.0, 0.0])
        effect_shallow = synthetic_subsurface(shallow + bump) - synthetic_subsurface(shallow)
        effect_deep = synthetic_subsurface(deep + bump) - synthetic_subsurface(deep)
        assert effect_shallow > 10 * effect_deep

    def test_batch_evaluation(self):
        X = np.vstack([self.center(), self.center()])
        out = synthetic_subsurface(X)
        assert out.shape == (2,)
        assert out[0] == out[1]


class TestGenerativeModel:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            cubic_model().evaluate(np.zeros((3, 2)))

    @pytest.mark.parametrize("dimension", [True, -2, 0, 1.5, "1"])
    def test_bad_dimension_rejected_at_construction(self, dimension):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            GenerativeModel("z", dimension, lambda pts: pts[:, 0])

    def test_numpy_integer_dimension_stored_as_int(self):
        model = GenerativeModel("z", np.int64(2), lambda pts: pts[:, 0])
        assert type(model.dimension) is int

    def test_non_callable_fn_rejected(self):
        with pytest.raises(ValueError, match="fn must be callable"):
            GenerativeModel("z", 1, "x**2")

    def test_domain_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="domain has dimension 5"):
            GenerativeModel("z", 2, lambda pts: pts[:, 0], domain=SUBSURFACE_ENVELOPE)
        box = DomainBox(np.zeros(2), np.ones(2))
        assert GenerativeModel("z", 2, lambda pts: pts[:, 0], domain=box).domain is box

    def test_parameter_override_is_functional(self):
        base = ishigami_model(theta=0.0)
        shifted = base.with_parameters(theta=1.0)
        assert base.parameters["theta"] == 0.0
        assert shifted.parameters["theta"] == 1.0
        x = np.array([[0.3, -0.4]])
        assert base.evaluate(x)[0] != shifted.evaluate(x)[0]

    def test_subsurface_model_wraps_function(self):
        x = np.array([[2.0, 5.0, 8.0, -1.5, 1.5]])
        assert subsurface_model().evaluate(x)[0] == synthetic_subsurface(x)[0]
