"""Tests for the dense-tensor arithmetic substrate."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convnorm import (
    ConvConfig,
    HopmConfig,
    circular_exact_norm,
    complex_gap_kernel,
    conv_operator,
    f4_bound,
    frobenius,
    matrix_spectral_norm,
    power_method,
    ratio_loss,
    regularizer_gradient,
    singular_value_gradient,
    strided_kernel_transform,
    tn_bound,
)
from convnorm.hopm import Rank1Factors
from convnorm.oracle import dense_jacobian_norm
from convnorm.tensor_ops import _lanczos_norm
from helpers import (
    count_calls,
    gram_eig_norm,
    lanczos_every_step,
    matrix_handle,
    multilinear_einsum,
    multilinear_loop,
    partial_contraction,
    partial_loop,
    unfold,
)

GAP_DISPLAY = np.array(
    [[2, 0, 0, -2, 0, -2, -2, 0], [0, -2, -2, 0, -2, 0, 0, 2]], dtype=float
)
GAP_WITNESS = np.array([(1 + 1j) / 2, (-1 + 1j) / 2])


def _value(k, us) -> float:
    """|[[k; us]]| as ``singular_value_gradient`` reads it: the value is
    homogeneous of degree 1 in k, so by Euler's identity <grad, k> is the
    value itself."""
    return float(np.sum(singular_value_gradient(k, Rank1Factors(tuple(us))) * k))


class TestMultilinearForm:
    """The form [[A; u1..ud]], as the sigma gradient reads it, against the
    nested-loop and einsum references."""

    def test_identity_matrix(self):
        e1 = np.array([1.0, 0.0])
        assert _value(np.eye(2), [e1, e1]) == 1.0

    def test_gap_kernel_witness_has_modulus_four(self):
        assert abs(_value(complex_gap_kernel(), [GAP_WITNESS] * 4) - 4.0) < 1e-12

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_references_agree(self, kind):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 2, 2))
        us = [rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0)
              for n in a.shape]
        us = [u / np.linalg.norm(u) for u in us]
        assert abs(multilinear_einsum(a, us) - multilinear_loop(a, us)) < 1e-13
        assert abs(_value(a, us) - abs(multilinear_loop(a, us))) < 1e-13

    @settings(derandomize=True, deadline=None)
    @given(
        ndim=st.integers(2, 5),
        complex_factors=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_euler_identity(self, ndim, complex_factors, seed, data):
        shape = data.draw(st.tuples(*[st.integers(1, 4)] * ndim), label="shape")
        rng = np.random.default_rng(seed)
        k = rng.standard_normal(shape)
        us = []
        for n in shape:
            v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_factors else 0)
            us.append(v / np.linalg.norm(v))
        value = abs(multilinear_einsum(k, us))
        # Both sides round to about 1e-16 * ||k||, which a value far below the
        # kernel's norm cannot resolve to 1e-13 of itself.
        assume(value >= 1e-3 * np.linalg.norm(k))
        assert abs(_value(k, us) - value) <= 1e-13 * value
        assert value <= frobenius(k) * (1 + 1e-12)  # unit factors

    def test_dimension_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            singular_value_gradient(np.eye(2), Rank1Factors((np.ones(2), np.ones(3))))


class TestPartialContraction:
    """The tests' reference contraction, behind ``sequential_hopm``."""

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
            assert abs(filled - multilinear_einsum(a, us)) < 1e-13

    def test_matches_nested_loops(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in a.shape]
        v = partial_contraction(a, us, hole=1)
        np.testing.assert_allclose(v, partial_loop(a, us, 1), atol=1e-13)


def _f4_unfoldings(monkeypatch, k) -> list[np.ndarray]:
    """The matrices ``f4_bound`` hands ``matrix_spectral_norm``, in order."""
    calls = count_calls(monkeypatch, matrix_spectral_norm)
    f4_bound(k)
    return [args[0] for args in calls]


class TestUnfold:
    """Unfoldings permute the axes to (rows, cols) and reshape row-major: F4's,
    and the reference ``unfold`` the suite checks them with."""

    def test_matrix_unfoldings(self):
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(unfold(m, [0], [1]), m)
        np.testing.assert_array_equal(unfold(m, [1], [0]), m.T)

    def test_gap_kernel_display_mapping(self, monkeypatch):
        # The row-major reshape(2, 8) display is the (out|rest) unfolding itself.
        k = complex_gap_kernel()
        np.testing.assert_array_equal(k.reshape(2, 8), GAP_DISPLAY)
        np.testing.assert_array_equal(unfold(k, [0], [1, 2, 3]), GAP_DISPLAY)
        np.testing.assert_array_equal(_f4_unfoldings(monkeypatch, k)[2], GAP_DISPLAY)

    def test_round_trip_is_identity(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 3, 4, 2))
        f4_groups = [([0, 2], [1, 3]), ([0, 3], [1, 2]), ([0], [1, 2, 3]), ([1], [0, 2, 3])]
        cases = [(*group, m) for group, m in zip(f4_groups, _f4_unfoldings(monkeypatch, a))]
        for rows, cols in ([2, 0], [3, 1]), ([3, 1, 0], [2]):
            cases.append((rows, cols, unfold(a, rows, cols)))
        for rows, cols, m in cases:
            perm = rows + cols
            permuted = m.reshape([a.shape[i] for i in perm])
            np.testing.assert_array_equal(permuted.transpose(np.argsort(perm)), a)


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

    @pytest.mark.parametrize("j", [-1000, -900, -500, 500, 900, 1000])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_extreme_magnitudes_scale(self, kind, j):
        # A matrix whose first product has its peak outside [2**-250, 2**250)
        # runs on a copy scaled by an exact power of two.  Unscaled, the
        # sums of squares overflowed at 2**900 and read 0 at 2**-900; the
        # complex 7 x 5 matrix also exhausts its Krylov space at step 5,
        # where beta = 2**-1000 * (rounding noise) is subnormal.
        rng = np.random.default_rng(14)
        m = rng.standard_normal((7, 5))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((7, 5))
        base = matrix_spectral_norm(m)
        assert abs(matrix_spectral_norm(2.0**j * m) / 2.0**j - base) <= 1e-13 * base

    def test_products_that_underflow_to_zero(self):
        # Every product of the smallest subnormal with a unit vector's entry
        # rounds to 0 or 2**-1074, so unscaled the loop read 4 spacings for
        # a norm of 3.
        assert matrix_spectral_norm(np.full((3, 3), 2.0**-1074)) == 3 * 2.0**-1074

    @pytest.mark.parametrize("m", [
        np.full((3, 3), 1.7e308),
        np.random.default_rng(0).standard_normal((8, 8)) * 4e307,
        np.array([[1.7e308, 1.0e308], [0.0, 1.0e308]]),
    ], ids=["vector-norm", "bidiagonal-norm", "vector-entry"])
    def test_norm_beyond_the_float_range_raises(self, m):
        # Norms of about 5e308, 1.9e308 and 2e308.  They raised OverflowError
        # from a vector's norm, returned inf from B_j's norm, and divided by
        # an Inf norm once a vector's entry overflowed.
        with pytest.raises(ValueError, match="the norm overflows the float range"):
            matrix_spectral_norm(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "-inf", "complex-nan"])
    def test_non_finite_rejected(self, bad):
        # It warned "invalid value" and then raised LinAlgError.
        m = np.array([[bad, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            matrix_spectral_norm(m)

    @pytest.mark.parametrize("m", [np.ones(3), np.zeros((0, 3))], ids=["1-D", "empty"])
    def test_not_a_nonempty_matrix_rejected(self, m):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a nonempty matrix, got shape {m.shape}")):
            matrix_spectral_norm(m)


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


class TestLanczosCap:
    """The loop's ``cap``: stop once the estimate exceeds it (f4_bound's exit)."""

    @staticmethod
    def _slow_matrix():
        """A 120x100 matrix whose singular values fill [0.9, 1], so the loop
        needs more than 24 steps, and a unit start vector."""
        rng = np.random.default_rng(83)
        q1, _ = np.linalg.qr(rng.standard_normal((120, 120)))
        q2, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        m = q1[:, :100] @ np.diag(np.linspace(1.0, 0.9, 100)) @ q2.T
        v = rng.standard_normal(100)
        return m, v / np.linalg.norm(v)

    def test_stops_at_first_tested_step_above_cap(self):
        m, v = self._slow_matrix()
        forward, adjoint = (lambda x: m @ x), (lambda y: m.T @ y)
        uncapped = _lanczos_norm(forward, adjoint, v, 300, 1e-12)
        assert uncapped[2] and uncapped[1] > 36
        # sigma_max(B_j) for j = 1..steps: the reference at a negative tol
        # never converges, so it returns the estimate after exactly j steps.
        estimates = [lanczos_every_step(forward, adjoint, v, j, -1.0)[0]
                     for j in range(1, uncapped[1] + 1)]
        tested = [j for j in range(1, uncapped[1]) if j <= 24 or j % 4 == 0]
        dense = np.linalg.norm(m, 2)
        stops = set()
        for j in (1, 2, 10, 24, 25, 26, 27, 29):
            cap = estimates[j - 1]
            expected = next(t for t in tested if estimates[t - 1] > cap)
            stops.add(expected)
            assert _lanczos_norm(forward, adjoint, v, 300, 1e-12, cap) == (
                estimates[expected - 1], expected, False
            )
            assert estimates[expected - 1] <= dense * (1 + 1e-12)
        assert {28, 32} <= stops  # past step 24 the cap is tested every 4th step

    def test_cap_not_exceeded_changes_nothing(self):
        m, v = self._slow_matrix()
        forward, adjoint = (lambda x: m @ x), (lambda y: m.T @ y)
        uncapped = _lanczos_norm(forward, adjoint, v, 300, 1e-12)
        for cap in (math.inf, 2 * uncapped[0], uncapped[0]):
            assert _lanczos_norm(forward, adjoint, v, 300, 1e-12, cap) == uncapped
        # An exhausted Krylov space returns before the cap is tested.
        e1 = np.array([1.0, 0.0])
        for a, exact in ((np.diag([2.0, 0.0]), 2.0), (np.zeros((2, 2)), 0.0)):
            for cap in (math.inf, -1.0):
                assert _lanczos_norm(
                    lambda x: a @ x, lambda y: a.T @ y, e1, 300, 1e-12, cap
                ) == (exact, 1, True)

    def test_callers_without_a_cap_run_the_uncapped_loop(self):
        m, _ = self._slow_matrix()
        for seed in (0, 5):
            start = np.random.default_rng(seed).standard_normal(100)
            start /= np.linalg.norm(start)
            sigma, steps, converged = _lanczos_norm(
                lambda x: m @ x, lambda y: m.T @ y, start, 300, 1e-12
            )
            assert matrix_spectral_norm(m, seed=seed) == sigma
            assert matrix_spectral_norm(m, seed=seed, cap=math.inf) == sigma
            result = power_method(matrix_handle(m), iters=300, tol=1e-12, seed=seed)
            assert (result.norm, result.iterations, result.converged) == (sigma, steps, converged)
        # A finite cap below the norm returns the first estimate above it.
        assert matrix_spectral_norm(m, cap=0.5) > 0.5


class TestMagnitudeRule:
    """Every entry point scales extreme input by an exact power of two
    (``tensor_ops._scale_exponent``) and leaves ordinary input as it is, so
    a kernel scaled by 2**j gets its values scaled by 2**j, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        shape=st.tuples(*(st.integers(1, 3),) * 4),
        seed=st.integers(0, 2**16),
        j=st.integers(-900, 900),
        padding=st.sampled_from(["zero", "circular"]),
        stride=st.integers(1, 2),
    )
    def test_scaled_kernel_scales_every_value_exactly(self, shape, seed, j, padding, stride):
        k = np.random.default_rng(seed).standard_normal(shape)
        config = HopmConfig(restarts=3, seed=1)
        conv = ConvConfig(4, padding, stride)

        def values(kernel):
            return {
                "tn_bound.lower": tn_bound(kernel, config).lower,
                "f4_bound": f4_bound(kernel),
                "power_method": power_method(conv_operator(kernel, conv)).norm,
                "dense_jacobian_norm": dense_jacobian_norm(kernel, conv),
                "circular_exact_norm": circular_exact_norm(kernel, ConvConfig(4, "circular", stride)),
                "frobenius": frobenius(kernel),
            }

        scaled = np.ldexp(k, j)
        assert values(scaled) == {name: math.ldexp(v, j) for name, v in values(k).items()}
        assert ratio_loss(scaled, config) == ratio_loss(k, config)
        np.testing.assert_array_equal(regularizer_gradient("ratio", scaled, config),
                                      np.ldexp(regularizer_gradient("ratio", k, config), -j))


class TestFrobenius:
    def test_zero_tensor_raises_norm_zero(self):
        assert frobenius(np.zeros((2, 2, 2))) == 0.0

    def test_gap_kernel_value(self):
        assert abs(frobenius(complex_gap_kernel()) - np.sqrt(32.0)) < 1e-12

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            frobenius(bad)

    @pytest.mark.parametrize("entry", [1e307, 1e-320, 2.0**-1074])
    def test_near_the_float_limits(self, entry):
        # It overflowed to inf at 1e307, and read 0 for subnormal entries,
        # whose squares underflow.  Scaled by 2**-e, 36 equal entries give
        # 6 times the entry, to rounding (exactly for the subnormal ones).
        value = frobenius(np.full((2, 2, 3, 3), entry))
        assert value == 6 * entry if entry < 1.0 else math.isclose(value, 6 * entry, rel_tol=1e-15)

    def test_beyond_the_float_range_raises(self):
        with pytest.raises(ValueError, match="the norm overflows the float range"):
            frobenius(np.full((2, 2, 3, 3), 1.7e308))


@pytest.mark.parametrize("call", [
    lambda v: HopmConfig(n_iters=v),
    lambda v: HopmConfig(restarts=v),
    lambda v: HopmConfig(seed=v),
    lambda v: ConvConfig(input_size=v),
    lambda v: ConvConfig(input_size=8, stride=v),
    lambda v: power_method(matrix_handle(2 * np.eye(3)), iters=v),
    lambda v: matrix_spectral_norm(2 * np.eye(3), iters=v),
    lambda v: strided_kernel_transform(np.ones((1, 1, 3, 3)), v),
    lambda v: f4_bound(np.ones((1, 1, 3, 3)), seed=v),
], ids=["HopmConfig.n_iters", "HopmConfig.restarts", "HopmConfig.seed",
        "ConvConfig.input_size", "ConvConfig.stride", "power_method.iters",
        "matrix_spectral_norm.iters", "strided_kernel_transform.stride", "f4_bound.seed"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_an_integer(call, value):
    # bool is a numbers.Integral, so True once passed as a count of 1.
    with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
        call(value)


@pytest.mark.parametrize("call, message", [
    (lambda: ConvConfig(input_size=0), "input_size must be positive"),
    (lambda: ConvConfig(input_size=8, stride=0), "stride must be positive"),
    (lambda: strided_kernel_transform(np.ones((1, 1, 3, 3)), 0), "stride must be positive"),
], ids=["ConvConfig.input_size", "ConvConfig.stride", "strided_kernel_transform.stride"])
def test_zero_is_not_positive(call, message):
    with pytest.raises(ValueError, match=message):
        call()
