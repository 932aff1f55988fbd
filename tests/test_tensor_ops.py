"""Tests for the dense-tensor arithmetic substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convnorm import (
    complex_gap_kernel,
    fold,
    frobenius,
    frobenius_inner,
    matrix_spectral_norm,
    multilinear_form,
    partial_contraction,
    unfold,
)
from helpers import gram_eig_norm, multilinear_loop, partial_loop

GAP_DISPLAY = np.array(
    [[2, 0, 0, -2, 0, -2, -2, 0], [0, -2, -2, 0, -2, 0, 0, 2]], dtype=float
)
GAP_WITNESS = np.array([(1 + 1j) / 2, (-1 + 1j) / 2])


class TestMultilinearForm:
    def test_identity_matrix(self):
        e1 = np.array([1.0, 0.0])
        assert multilinear_form(np.eye(2), [e1, e1]) == 1.0 + 0j

    def test_gap_kernel_witness_has_modulus_four(self):
        k = complex_gap_kernel()
        value = multilinear_form(k, [GAP_WITNESS] * 4)
        assert abs(abs(value) - 4.0) < 1e-12

    def test_matches_nested_loops(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2, 2))
        us = []
        for n in a.shape:
            v = rng.standard_normal(n)
            us.append(v / np.linalg.norm(v))
        assert abs(multilinear_form(a, us) - multilinear_loop(a, us)) < 1e-13

    def test_matches_nested_loops_complex(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3, 2, 2))
        us = [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            for n in a.shape
        ]
        assert abs(multilinear_form(a, us) - multilinear_loop(a, us)) < 1e-13

    def test_linear_in_each_argument(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3, 4))
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in a.shape]
        for axis in range(a.ndim):
            x = rng.standard_normal(a.shape[axis]) + 1j * rng.standard_normal(a.shape[axis])
            y = rng.standard_normal(a.shape[axis]) + 1j * rng.standard_normal(a.shape[axis])
            alpha, beta = 0.7 - 0.2j, -1.3 + 0.4j
            combined = list(us)
            combined[axis] = alpha * x + beta * y
            with_x, with_y = list(us), list(us)
            with_x[axis] = x
            with_y[axis] = y
            lhs = multilinear_form(a, combined)
            rhs = alpha * multilinear_form(a, with_x) + beta * multilinear_form(a, with_y)
            assert abs(lhs - rhs) < 1e-12

    def test_bounded_by_frobenius_for_unit_vectors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((3, 2, 4))
            us = []
            for n in a.shape:
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                us.append(v / np.linalg.norm(v))
            assert abs(multilinear_form(a, us)) <= frobenius(a) + 1e-12

    def test_dimension_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            multilinear_form(np.eye(2), [np.ones(2), np.ones(3)])


class TestPartialContraction:
    def test_identity_picks_column(self):
        e2 = np.array([0.0, 1.0])
        v = partial_contraction(np.eye(2), [None, e2], hole=0)
        np.testing.assert_allclose(v, [0.0, 1.0])

    def test_filling_hole_reproduces_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3, 4))
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in a.shape]
        for hole in range(a.ndim):
            v = partial_contraction(a, us, hole)
            filled = complex(np.sum(v * us[hole]))
            assert abs(filled - multilinear_form(a, us)) < 1e-13

    def test_matches_nested_loops(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in a.shape]
        v = partial_contraction(a, us, hole=1)
        np.testing.assert_allclose(v, partial_loop(a, us, 1), atol=1e-13)

    def test_bad_hole(self):
        with pytest.raises(ValueError, match="hole"):
            partial_contraction(np.eye(2), [None, np.ones(2)], hole=5)


class TestUnfold:
    def test_matrix_identity_unfolding(self):
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(unfold(m, [0], [1]), m)

    def test_matrix_transpose_unfolding(self):
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(unfold(m, [1], [0]), m.T)

    def test_gap_kernel_display_mapping(self):
        # The row-major reshape(2, 8) display equals the column-major
        # unfolding with the column group reversed.
        k = complex_gap_kernel()
        np.testing.assert_array_equal(k.reshape(2, 8), GAP_DISPLAY)
        np.testing.assert_array_equal(unfold(k, [0], [3, 2, 1]), GAP_DISPLAY)
        # Column order within the group is a column permutation only: the
        # canonical-order unfolding has the same column multiset.
        canonical = unfold(k, [0], [1, 2, 3])
        assert sorted(map(tuple, canonical.T)) == sorted(map(tuple, GAP_DISPLAY.T))

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 3, 4, 2))
        for rows, cols in ([0], [1, 2, 3]), ([2, 0], [3, 1]), ([3, 1, 0], [2]):
            m = unfold(a, rows, cols)
            np.testing.assert_array_equal(fold(m, rows, cols, a.shape), a)

    def test_invalid_axis_partition(self):
        with pytest.raises(ValueError, match="partition"):
            unfold(np.zeros((2, 2)), [0], [0])


class TestMatrixSpectralNorm:
    def test_diagonal(self):
        assert abs(matrix_spectral_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-12

    def test_gap_unfolding_norm_is_four(self):
        assert abs(matrix_spectral_norm(GAP_DISPLAY) - 4.0) < 1e-10

    def test_random_vs_gram_eigendecomposition(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((5, 7))
        assert abs(matrix_spectral_norm(m, seed=1) - gram_eig_norm(m)) < 1e-9

    def test_complex_matrix(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert abs(matrix_spectral_norm(m, seed=1) - gram_eig_norm(m)) < 1e-9

    def test_transpose_invariance(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            m = rng.standard_normal((4, 6))
            a = matrix_spectral_norm(m, seed=trial)
            b = matrix_spectral_norm(m.T, seed=trial)
            assert abs(a - b) < 1e-9 * max(a, 1.0)

    def test_submatrix_never_larger(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            m = rng.standard_normal((6, 8))
            rows = rng.choice(6, size=int(rng.integers(1, 6)), replace=False)
            cols = rng.choice(8, size=int(rng.integers(1, 8)), replace=False)
            sub = m[np.ix_(rows, cols)]
            assert matrix_spectral_norm(sub, seed=trial) <= gram_eig_norm(m) + 1e-9

    def test_zero_matrix(self):
        assert matrix_spectral_norm(np.zeros((3, 4))) == 0.0
        assert matrix_spectral_norm(np.zeros((2, 3), dtype=complex)) == 0.0


def _sandwich_kernel_4() -> np.ndarray:
    """Kernel 4 of the acceptance suite's sandwich cases (shape 3x1x5x3)."""
    rng = np.random.default_rng(20260810)
    for _ in range(5):
        shape = tuple(int(rng.integers(1, hi)) for hi in (5, 5, 6, 6))
        kernel = rng.standard_normal(shape)
    return kernel


class TestExhaustedKrylovSpace:
    """Matrices whose Krylov space runs out within a few Lanczos steps."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thin_and_rank_one_matrices(self, seed):
        rng = np.random.default_rng(90 + seed)
        matrices = [
            rng.standard_normal((1, 45)),
            rng.standard_normal((45, 1)),
            np.outer(rng.standard_normal(6), rng.standard_normal(9)),
            np.outer(rng.standard_normal(6) + 1j * rng.standard_normal(6), rng.standard_normal(9)),
        ]
        for m in matrices:
            exact = np.linalg.norm(m, 2)
            assert abs(matrix_spectral_norm(m, seed=seed) - exact) <= 1e-12 * exact

    def test_row_unfolding_of_sandwich_kernel(self):
        kernel = _sandwich_kernel_4()
        assert kernel.shape == (3, 1, 5, 3)
        m = unfold(kernel, [1], [0, 2, 3])
        assert m.shape == (1, 45)
        exact = np.linalg.norm(m, 2)
        for seed in range(4):
            assert abs(matrix_spectral_norm(m, seed=seed) - exact) <= 1e-12 * exact

    @settings(derandomize=True, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        complex_entries=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_rounding_of_the_norm(self, rows, cols, complex_entries, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols))
        if complex_entries:
            m = m + 1j * rng.standard_normal((rows, cols))
        exact = np.linalg.norm(m, 2)
        value = matrix_spectral_norm(m)
        assert exact * (1 - 1e-10) <= value <= exact * (1 + 1e-12)


class TestFrobenius:
    def test_zero_tensor_raises_norm_zero(self):
        assert frobenius(np.zeros((2, 2, 2))) == 0.0

    def test_gap_kernel_value(self):
        assert abs(frobenius(complex_gap_kernel()) - np.sqrt(32.0)) < 1e-12

    def test_inner_product_consistency(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4, 2))
        assert abs(frobenius_inner(a, a) - frobenius(a) ** 2) < 1e-13 * frobenius(a) ** 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            frobenius_inner(np.ones((2, 2)), np.ones((2, 3)))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            frobenius(bad)
