"""Tests for the orthonormal Legendre basis machinery."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legval

from pce_transfer.basis import (
    BasisSpec,
    DomainBox,
    as_points,
    legendre_orthonormal,
    n_pce,
    to_reference,
    vandermonde,
)
from pce_transfer.errors import DomainError
from pce_transfer.gaussian import CalibrationTask
from pce_transfer.models import cubic_model, ishigami_model
from pce_transfer.predict import Design


def classical_legendre(k: int, x):
    """Independent oracle: unnormalized P_k via numpy's Legendre series."""
    c = np.zeros(k + 1)
    c[k] = 1.0
    return legval(x, c)


class TestNPce:
    def test_small_cases(self):
        assert n_pce(1, 3) == 4
        assert n_pce(5, 3) == 56
        assert n_pce(2, 3) == 10

    def test_matches_math_comb_up_to_20(self):
        for n in range(1, 21):
            for d in range(0, 21):
                assert n_pce(n, d) == math.comb(n + d, d)

    def test_degree_zero(self):
        assert n_pce(7, 0) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            n_pce(0, 3)
        with pytest.raises(ValueError):
            n_pce(2, -1)

    def test_overflow_is_explicit(self):
        with pytest.raises(ValueError, match="exceeds the representable range"):
            n_pce(60, 60)

    @pytest.mark.parametrize("n,d", [(10**6, 10**6), (2, 10**9)])
    def test_huge_basis_is_rejected_without_the_full_product(self, n, d):
        # math.comb(2 * 10**6, 10**6) alone takes tens of seconds.
        with pytest.raises(ValueError, match="exceeds the representable range"):
            n_pce(n, d)

    def test_huge_dimension_at_degree_one(self):
        assert n_pce(10**9, 1) == 10**9 + 1


class TestDomainBox:
    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            DomainBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_encompass(self):
        a = DomainBox(np.array([-0.2]), np.array([0.3]))
        b = DomainBox(np.array([0.8]), np.array([1.2]))
        both = a.encompass(b)
        assert both.lower[0] == -0.2 and both.upper[0] == 1.2

    def test_translate_single_axis(self):
        box = DomainBox(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        moved = box.translate(0.5, axis=1)
        np.testing.assert_allclose(moved.lower, [0.0, 1.5])
        np.testing.assert_allclose(moved.upper, [1.0, 2.5])


class TestToReference:
    BOX = DomainBox(np.array([-0.2]), np.array([0.3]))

    def test_endpoints_exact(self):
        np.testing.assert_array_equal(to_reference(self.BOX, np.array([-0.2, 0.3])),
                                      [[-1.0], [1.0]])

    def test_midpoint(self):
        assert to_reference(self.BOX, np.array([0.05]))[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_always_returns_one_row_per_point(self):
        box = DomainBox(np.zeros(3), np.ones(3))
        assert to_reference(box, [0.1, 0.2, 0.3]).shape == (1, 3)
        assert to_reference(box, [[0.1, 0.2, 0.3]] * 4).shape == (4, 3)
        assert to_reference(self.BOX, [0.1, 0.2, 0.3]).shape == (3, 1)

    def test_outside_raises(self):
        with pytest.raises(DomainError):
            to_reference(self.BOX, np.array([0.31]))
        with pytest.raises(DomainError):
            to_reference(self.BOX, np.array([-0.21]))

    def test_tiny_overstep_is_tolerated(self):
        xi = to_reference(self.BOX, np.array([0.3 + 1e-14]))
        assert xi[0, 0] == 1.0

    @given(
        lo=st.floats(-10, 10),
        width=st.floats(0.1, 20),
        t=st.floats(0, 1),
    )
    def test_round_trip_identity(self, lo, width, t):
        box = DomainBox(np.array([lo]), np.array([lo + width]))
        x = np.array([lo + t * width])
        back = box.lower + 0.5 * (to_reference(box, x)[0] + 1.0) * box.width
        np.testing.assert_allclose(back, x, atol=1e-14 * max(1.0, abs(lo) + width))


def unit_basis(n: int, degree: int) -> BasisSpec:
    return BasisSpec(DomainBox(np.zeros(n), np.ones(n)), degree)


class TestBasisIndices:
    def test_graded_lexicographic_order(self):
        idx = unit_basis(2, 2).indices
        expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert [tuple(row) for row in idx] == expected

    @given(n=st.integers(1, 6), d=st.integers(0, 6))
    def test_cardinality_matches_n_pce(self, n, d):
        spec = unit_basis(n, d)
        assert spec.indices.shape == (n_pce(n, d), n)
        assert spec.n_terms == n_pce(n, d)

    @given(n=st.integers(1, 5), d=st.integers(0, 5))
    def test_truncation_and_uniqueness(self, n, d):
        idx = unit_basis(n, d).indices
        assert np.all(idx >= 0)
        assert np.all(idx.sum(axis=1) <= d)
        assert len({tuple(r) for r in idx}) == len(idx)

    def test_equal_pairs_share_one_read_only_set(self):
        first = unit_basis(3, 2).indices
        box_b = DomainBox(-np.ones(3), 2.0 * np.ones(3))
        assert unit_basis(3, 2).indices is first
        assert BasisSpec.total_order(box_b, 2).indices is first
        assert BasisSpec(box_b, 2).indices is first
        assert unit_basis(3, 3).indices is not first
        with pytest.raises(ValueError):
            first[0, 0] = 1

    @pytest.mark.parametrize("degree", [1.5, 2.0, True, "3", -1, None])
    def test_degree_must_be_a_non_negative_integer(self, degree):
        box = DomainBox(np.zeros(2), np.ones(2))
        for build in (BasisSpec, BasisSpec.total_order):
            with pytest.raises(ValueError, match="degree must be a non-negative integer"):
                build(box, degree)

    def test_numpy_integer_degree_becomes_a_python_int(self):
        spec = unit_basis(2, np.int64(2))
        assert type(spec.degree) is int and spec.n_terms == 6


class TestPointSetRule:
    """Every function that takes points reads a 1-d array as consecutive points."""

    BOX = DomainBox(np.array([0.0]), np.array([1.0]))

    def test_as_points(self):
        assert as_points([0.1, 0.2, 0.3], 1).shape == (3, 1)
        assert as_points([0.1, 0.2, 0.3, 0.4], 2).tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert as_points(np.zeros((0, 2)), 2).shape == (0, 2)
        assert as_points(np.array([1, 2]), 2).dtype == float
        for dimension in (0, -2, True, 1.0):  # GenerativeModel does not check its dimension
            with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
                as_points(np.zeros(3), dimension)

    def test_a_one_d_point_list_gives_the_same_rows_everywhere(self):
        flat = np.array([0.1, 0.2, 0.3])
        column = flat.reshape(-1, 1)
        spec = BasisSpec(self.BOX, 2)
        np.testing.assert_array_equal(to_reference(self.BOX, flat),
                                      to_reference(self.BOX, column))
        expected = vandermonde(spec, column)
        assert expected.shape == (3, 3)
        np.testing.assert_array_equal(vandermonde(spec, flat), expected)
        np.testing.assert_array_equal(Design(spec, flat).matrix, expected)
        np.testing.assert_array_equal(CalibrationTask(spec, flat, np.zeros(3)).X, column)
        np.testing.assert_array_equal(cubic_model().evaluate(flat),
                                      cubic_model().evaluate(column))

    @pytest.mark.parametrize("X", [np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2)),
                                   np.float64(0.5)])
    def test_a_wrong_width_raises_value_error_everywhere(self, X):
        box = DomainBox(np.zeros(2), np.ones(2))
        spec = BasisSpec(box, 1)
        sites = [lambda: as_points(X, 2), lambda: to_reference(box, X),
                 lambda: vandermonde(spec, X), lambda: Design(spec, X),
                 lambda: CalibrationTask(spec, X, np.zeros(3)),
                 lambda: ishigami_model().evaluate(X)]
        for site in sites:
            with pytest.raises(ValueError, match="expected 2-dimensional points"):
                site()


class TestUnivariateLegendre:
    def test_endpoint_values(self):
        # psi_k(1) = sqrt(2k+1), a consequence of P_k(1) = 1.
        table = legendre_orthonormal(10, np.array([1.0]))
        np.testing.assert_allclose(table[0], np.sqrt(2.0 * np.arange(11) + 1.0), rtol=1e-12)

    def test_orthonormality_under_probability_weight(self):
        # Gauss-Legendre quadrature of psi_k psi_j / 2 must be delta_kj.
        nodes, weights = leggauss(40)
        table = legendre_orthonormal(6, nodes)
        gram = (table * (0.5 * weights)[:, None]).T @ table
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-10)

    def test_matches_classical_polynomials(self):
        xi = np.linspace(-1, 1, 7)
        table = legendre_orthonormal(5, xi)
        for k in range(6):
            np.testing.assert_allclose(
                table[:, k], np.sqrt(2 * k + 1) * classical_legendre(k, xi), rtol=1e-12
            )


class TestEvalBasis:
    def test_constant_component_is_one(self):
        spec = BasisSpec.total_order(DomainBox(np.array([-2.0, 1.0]), np.array([3.0, 4.0])), 3)
        vals = vandermonde(spec, np.array([[0.7, 2.2]]))[0]
        assert vals[0] == 1.0

    def test_degree_one_at_right_endpoint(self):
        # Frozen from the quadrature normalization oracle: psi_1(1) = sqrt(3).
        spec = BasisSpec.total_order(DomainBox(np.array([-1.0]), np.array([1.0])), 3)
        vals = vandermonde(spec, np.array([[1.0]]))[0]
        assert vals[1] == pytest.approx(1.7320508075688772, rel=1e-12)

    def test_degree_two_at_half(self):
        # Frozen from the quadrature normalization oracle:
        # psi_2(0.5) = sqrt(5) * (3*0.25 - 1)/2 = -0.27950849718747384.
        spec = BasisSpec.total_order(DomainBox(np.array([-1.0]), np.array([1.0])), 2)
        vals = vandermonde(spec, np.array([[0.5]]))[0]
        assert vals[2] == pytest.approx(-0.27950849718747384, rel=1e-12)

    def test_multivariate_product_structure(self):
        spec = BasisSpec.total_order(DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 3)
        x = np.array([0.3, -0.6])
        vals = vandermonde(spec, x.reshape(1, -1))[0]
        t0 = legendre_orthonormal(3, np.array([x[0]]))[0]
        t1 = legendre_orthonormal(3, np.array([x[1]]))[0]
        for row, expect in zip(spec.indices, vals):
            assert expect == pytest.approx(t0[row[0]] * t1[row[1]], rel=1e-12)


class TestVandermonde:
    def test_single_point_degree_zero(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 0)
        A = vandermonde(spec, np.array([[0.4]]))
        np.testing.assert_array_equal(A, [[1.0]])

    def test_identical_points_give_identical_rows(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0, 0.0]), np.array([1.0, 2.0])), 2)
        A = vandermonde(spec, np.array([[0.3, 1.1], [0.3, 1.1]]))
        np.testing.assert_array_equal(A[0], A[1])

    def test_monte_carlo_gram_is_identity(self):
        # (1/N) A^T A -> I for uniform samples; N = 1e6, tolerance 5e-3.
        rng = np.random.default_rng(20240817)
        spec = BasisSpec.total_order(DomainBox(np.array([-1.0, 0.0]), np.array([2.0, 5.0])), 3)
        X = rng.uniform(spec.box.lower, spec.box.upper, size=(1_000_000, 2))
        A = vandermonde(spec, X)
        gram = A.T @ A / len(A)
        np.testing.assert_allclose(gram, np.eye(spec.n_terms), atol=5e-3)

    @pytest.mark.parametrize("lower,upper,degree", [
        ([-1.0], [1.0], 7), ([-2.0, 1.0], [3.0, 4.0], 4), ([0.0, -1.0, 5.0], [1.0, 2.0, 9.0], 5),
    ])
    def test_matches_legval_products(self, lower, upper, degree):
        # Each column is a product over dimensions of sqrt(2k+1) P_k, here
        # from numpy's Legendre series evaluation instead of the recurrence.
        rng = np.random.default_rng(degree)
        spec = BasisSpec.total_order(DomainBox(np.array(lower), np.array(upper)), degree)
        X = rng.uniform(spec.box.lower, spec.box.upper, size=(200, spec.box.dimension))
        xi = to_reference(spec.box, X)
        expected = np.ones((len(X), spec.n_terms))
        for col, row in enumerate(spec.indices):
            for j, k in enumerate(row):
                expected[:, col] *= np.sqrt(2 * k + 1) * classical_legendre(k, xi[:, j])
        np.testing.assert_allclose(vandermonde(spec, X), expected, rtol=1e-12, atol=1e-12)

    def test_out_of_box_point_propagates(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 1)
        with pytest.raises(DomainError):
            vandermonde(spec, np.array([[1.5]]))


class TestBasisSpecConfig:
    def test_round_trip(self):
        spec = BasisSpec.total_order(DomainBox(np.array([-0.2, 1.0]), np.array([0.3, 2.0])), 3)
        again = BasisSpec.from_config(spec.to_config())
        assert again.n_terms == spec.n_terms
        np.testing.assert_array_equal(again.box.lower, spec.box.lower)
        np.testing.assert_array_equal(again.indices, spec.indices)

    @pytest.mark.parametrize("key,value", [
        ("degree", 1.5), ("degree", 2.0), ("degree", True), ("degree", "3"), ("degree", -1),
        ("dimension", 1.0), ("dimension", "1"),
    ])
    def test_non_integer_settings_rejected(self, key, value):
        cfg = {"dimension": 1, "degree": 3, "lower": [-0.2], "upper": [0.3], key: value}
        with pytest.raises(ValueError, match=f"{key} must be a non-negative integer"):
            BasisSpec.from_config(cfg)

    def test_numpy_integer_settings_accepted(self):
        cfg = {"dimension": np.int64(1), "degree": np.int32(2), "lower": [0.0], "upper": [1.0]}
        assert BasisSpec.from_config(cfg).n_terms == 3
