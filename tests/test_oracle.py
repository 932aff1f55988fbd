"""Tests for the dense Jacobian builder, matrix-free operator, and references."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convnorm import (
    ConvConfig,
    HopmConfig,
    build_dense_jacobian,
    circular_exact_norm,
    complex_gap_kernel,
    conv_operator,
    delta_kernel,
    hopm,
    matrix_spectral_norm,
    power_method,
)
import convnorm.tensor_ops
from convnorm.oracle import dense_jacobian_norm
from helpers import (
    dense_jacobian_loop,
    dense_norm,
    lanczos_every_step,
    matrix_handle,
    matrix_spectral_norm_loop,
    power_method_loop,
    unfold,
    vec,
)


class TestDenseJacobian:
    def test_one_dimensional_displays(self):
        # Row p holds tap t of the kernel at column p + t - k//2 ('.' is 0):
        # centered padding puts k//2 taps before the output position, one
        # more than after when k is even.
        displays = {
            (2, "zero"): ["1...", "01..", ".01.", "..01"],
            (2, "circular"): ["1..0", "01..", ".01.", "..01"],
            (3, "zero"): ["12..", "012.", ".012", "..01"],
            (3, "circular"): ["12.0", "012.", ".012", "2.01"],
            (4, "zero"): ["23...", "123..", "0123.", ".0123", "..012"],
            (4, "circular"): ["23.01", "123.0", "0123.", ".0123", "3.012"],
        }
        rng = np.random.default_rng(60)
        for (size, padding), rows in displays.items():
            k = rng.standard_normal((1, 1, size))
            t = build_dense_jacobian(k, ConvConfig(input_size=len(rows), padding=padding))
            expected = [[0.0 if c == "." else k[0, 0, int(c)] for c in row] for row in rows]
            np.testing.assert_array_equal(t, expected, err_msg=f"k = {size}, {padding}")

    def test_delta_kernel_gives_identity(self):
        k = delta_kernel((1, 1, 3, 3))
        for padding in ("zero", "circular"):
            t = build_dense_jacobian(k, ConvConfig(input_size=5, padding=padding))
            np.testing.assert_allclose(t, np.eye(25))

    def test_circulant_blocks_are_cyclic_shifts(self):
        rng = np.random.default_rng(61)
        k = rng.standard_normal((2, 3, 3, 3))
        n = 6
        config = ConvConfig(input_size=n, padding="circular")
        t = build_dense_jacobian(k, config)
        # Block form (a, b, c_out, i, j, c_in): shifting the output position by
        # one shifts the input pattern by one, cyclically, on both levels.
        blocks = t.reshape(n, n, 2, n, n, 3)
        rolled = np.roll(np.roll(blocks, 1, axis=0), 1, axis=3)
        np.testing.assert_allclose(blocks, np.roll(np.roll(rolled, 1, axis=1), 1, axis=4))

    def test_entry_cap(self):
        # (2 * 64**2)**2 = 67M entries, over the 40M cap: refused before allocating.
        k = np.ones((2, 2, 1, 1))
        with pytest.raises(ValueError, match="67108864 entries .cap 40000000.; use conv_operator"):
            build_dense_jacobian(k, ConvConfig(input_size=64))

    def test_strided_rows_are_subsampled_stride1_rows(self):
        rng = np.random.default_rng(62)
        k = rng.standard_normal((2, 3, 3, 3))
        n, s, c_out = 8, 2, 2
        t1 = build_dense_jacobian(k, ConvConfig(input_size=n, stride=1))
        ts = build_dense_jacobian(k, ConvConfig(input_size=n, stride=s))
        rows = [
            c + c_out * (b * s + n * a * s)
            for a in range(n // s)
            for b in range(n // s)
            for c in range(c_out)
        ]
        np.testing.assert_allclose(ts, t1[rows])

    @pytest.mark.parametrize("j", [-1000, -700, 700, 1000])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_norm_at_extreme_magnitudes(self, padding, stride, j):
        # The Gram squares the entries: unscaled, 2**-700 * k read 0 and
        # 2**700 * k overflowed.  Scaling by a power of two is exact, so the
        # norm scales exactly too.
        k = np.random.default_rng(0).standard_normal((2, 3, 3, 3))
        config = ConvConfig(4, padding, stride)
        base = dense_jacobian_norm(k, config)
        assert base > 0.0
        assert dense_jacobian_norm(2.0**j * k, config) == math.ldexp(base, j)

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    def test_dense_norm_beyond_the_float_range_raises(self, padding):
        # It raised OverflowError from math.ldexp.
        with pytest.raises(ValueError, match="the norm overflows the float range"):
            dense_jacobian_norm(np.full((2, 2, 3, 3), 1.5e308), ConvConfig(4, padding))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        d=st.integers(1, 3),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.integers(1, 3),
        padding=st.sampled_from(["zero", "circular"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_loop_reference_property(self, d, channels, stride, padding, seed, data):
        # Kernel sizes 1-4 per axis (odd, even, unequal), strides up to 3,
        # n down to one stride for zero padding and to the kernel size for
        # circular padding: the same matrix, bit for bit.
        spatial = tuple(data.draw(st.integers(1, 4), label=f"k{axis}") for axis in range(d))
        smallest = -(-max(spatial) // stride) if padding == "circular" else 1
        n = stride * data.draw(st.integers(smallest, smallest + 3), label="n / stride")
        k = np.random.default_rng(seed).standard_normal(channels + spatial)
        config = ConvConfig(input_size=n, padding=padding, stride=stride)
        assert np.array_equal(build_dense_jacobian(k, config), dense_jacobian_loop(k, config))


class TestConvOperator:
    def test_delta_input_reproduces_kernel_slice(self):
        rng = np.random.default_rng(63)
        k = rng.standard_normal((2, 3, 3, 3))
        config = ConvConfig(input_size=8, padding="zero")
        op = conv_operator(k, config)
        x = np.zeros(op.input_shape)
        x[1, 4, 4] = 1.0
        y = op.forward(x)
        # Output at (4+dk, 4+dl) sees tap (center - (dk, dl)) of input channel 1.
        for dk in (-1, 0, 1):
            for dl in (-1, 0, 1):
                assert y[0, 4 + dk, 4 + dl] == k[0, 1, 1 - dk, 1 - dl]

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_dense_jacobian(self, padding, stride):
        rng = np.random.default_rng(64)
        k = rng.standard_normal((2, 3, 3, 3))
        config = ConvConfig(input_size=8, padding=padding, stride=stride)
        t = build_dense_jacobian(k, config)
        op = conv_operator(k, config)
        for _ in range(5):
            x = rng.standard_normal(op.input_shape)
            assert np.linalg.norm(t @ vec(x) - vec(op.forward(x))) <= 1e-12 * np.linalg.norm(x)

    def test_complex_vector_rejected(self):
        # Cutting it to its real part would apply T to a different vector.
        op = conv_operator(np.random.default_rng(66).standard_normal((2, 2, 3, 3)),
                           ConvConfig(input_size=4))
        x, y = np.ones(op.input_shape), np.ones(op.output_shape)
        with pytest.raises(ValueError, match="input must be real, got a complex array"):
            op.forward(x + 1j * x)
        with pytest.raises(ValueError, match="cotangent must be real, got a complex array"):
            op.adjoint(y + 1j * y)

    def test_wrongly_shaped_vector_rejected(self):
        op = conv_operator(np.ones((2, 3, 3, 3)), ConvConfig(input_size=4, stride=2))
        with pytest.raises(ValueError, match=re.escape(
                "expected input shape (3, 4, 4), got (3, 2, 2)")):
            op.forward(np.ones((3, 2, 2)))
        with pytest.raises(ValueError, match=re.escape(
                "expected output shape (2, 2, 2), got (2, 4, 4)")):
            op.adjoint(np.ones((2, 4, 4)))

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    def test_adjoint_dot_test(self, padding):
        rng = np.random.default_rng(65)
        k = rng.standard_normal((3, 2, 3, 4))
        config = ConvConfig(input_size=8, padding=padding, stride=2)
        op = conv_operator(k, config)
        for _ in range(100):
            x = rng.standard_normal(op.input_shape)
            y = rng.standard_normal(op.output_shape)
            lhs = np.sum(y * op.forward(x))
            rhs = np.sum(op.adjoint(y) * x)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        d=st.integers(1, 3),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.integers(1, 3),
        padding=st.sampled_from(["zero", "circular"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_dense_jacobian_property(self, d, channels, stride, padding, seed, data):
        # Kernel sizes 1-4 per axis (odd, even, unequal), every stride up to
        # 3: forward and adjoint against the dense Jacobian and its
        # transpose, plus the dot test.  The centered padding puts k//2 in
        # {0, 1, 2} taps before, so the polyphase adjoint meets every phase.
        spatial = tuple(data.draw(st.integers(1, 4), label=f"k{axis}") for axis in range(d))
        smallest = -(-max(spatial) // stride) if padding == "circular" else 1
        n = stride * data.draw(st.integers(smallest, max(smallest, {1: 12, 2: 8, 3: 5}[d] // stride)),
                               label="n / stride")
        rng = np.random.default_rng(seed)
        k = rng.standard_normal(channels + spatial)
        config = ConvConfig(input_size=n, padding=padding, stride=stride)
        t = build_dense_jacobian(k, config)
        op = conv_operator(k, config)
        x = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        scale = np.linalg.norm(k) * max(np.linalg.norm(x), np.linalg.norm(y))
        forward, adjoint = op.forward(x), op.adjoint(y)
        assert forward.shape == op.output_shape and adjoint.shape == op.input_shape
        assert np.linalg.norm(t @ vec(x) - vec(forward)) <= 1e-12 * scale
        assert np.linalg.norm(t.T @ vec(y) - vec(adjoint)) <= 1e-12 * scale
        assert abs(np.sum(y * forward) - np.sum(adjoint * x)) <= 1e-12 * scale * np.linalg.norm(y)

    def test_one_dimensional_and_three_dimensional(self):
        rng = np.random.default_rng(66)
        for shape, n in (((2, 2, 3), 10), ((2, 2, 3, 3, 3), 5)):
            k = rng.standard_normal(shape)
            config = ConvConfig(input_size=n, padding="circular")
            t = build_dense_jacobian(k, config)
            op = conv_operator(k, config)
            x = rng.standard_normal(op.input_shape)
            assert np.linalg.norm(t @ vec(x) - vec(op.forward(x))) <= 1e-11


class TestPowerMethod:
    def test_identity_operator(self):
        k = delta_kernel((1, 1, 3, 3))
        op = conv_operator(k, ConvConfig(input_size=6, padding="circular"))
        assert abs(power_method(op, seed=1).norm - 1.0) < 1e-12

    @pytest.mark.parametrize("seed, message", [(1.5, "must be an integer, got 1.5"),
                                               (-1, "must be >= 0, got -1")])
    def test_bad_seed_rejected(self, seed, message):
        op = conv_operator(np.ones((2, 2, 3, 3)), ConvConfig(input_size=8))
        with pytest.raises(ValueError, match=f"seed {message}"):
            power_method(op, seed=seed)
        with pytest.raises(ValueError, match=f"seed {message}"):
            matrix_spectral_norm(np.ones((3, 3)), seed=seed)

    def test_matches_dense_svd(self):
        # A tight tolerance pins the value to the dense SVD; the near-degenerate
        # case at default settings is test_near_degenerate_converges_at_defaults.
        k = np.random.default_rng(61).standard_normal((2, 2, 3, 3))
        for padding in ("zero", "circular"):
            config = ConvConfig(input_size=8, padding=padding)
            op = conv_operator(k, config)
            exact = dense_norm(build_dense_jacobian(k, config))
            value = power_method(op, iters=3000, tol=1e-14, seed=2).norm
            assert abs(value - exact) < 1e-8 * exact

    def test_matches_circular_exact(self):
        rng = np.random.default_rng(61)
        k = rng.standard_normal((2, 2, 3, 3))
        config = ConvConfig(input_size=8, padding="circular")
        op = conv_operator(k, config)
        value = power_method(op, iters=3000, tol=1e-14, seed=3).norm
        assert abs(value - circular_exact_norm(k, ConvConfig(8, "circular"))) < 1e-6

    def test_matrix_handle(self):
        rng = np.random.default_rng(69)
        m = rng.standard_normal((5, 7))
        value = power_method(matrix_handle(m), iters=2000, tol=1e-14, seed=1).norm
        assert abs(value - dense_norm(m)) < 1e-9

    def test_zero_operator(self):
        assert power_method(matrix_handle(np.zeros((3, 4))), seed=0).norm == 0.0

    @pytest.mark.parametrize("m", [np.eye(3), np.diag([1, 5j])], ids=["real", "complex"])
    def test_matrix_rejected(self, m):
        with pytest.raises(ValueError, match=(
                "power_method takes a LinearOperatorHandle; use matrix_spectral_norm for a matrix")):
            power_method(m)

    @pytest.mark.parametrize("norm,operand", [
        (power_method, matrix_handle(np.eye(3))),
        (matrix_spectral_norm, np.eye(3)),
    ], ids=["power_method", "matrix_spectral_norm"])
    @pytest.mark.parametrize("kwargs,message", [
        ({"iters": 0}, "iters must be >= 1"),
        ({"tol": -1e-3}, "tol must be >= 0"),
        ({"tol": float("nan")}, "tol must be >= 0, got nan"),
        ({"iters": 2.5}, "iters must be an integer, got 2.5"),
    ])
    def test_bad_settings_rejected(self, norm, operand, kwargs, message):
        with pytest.raises(ValueError, match=message):
            norm(operand, **kwargs)

    def test_monotone_estimates_never_overshoot(self):
        rng = np.random.default_rng(70)
        m = rng.standard_normal((6, 6))
        exact = dense_norm(m)
        for iters in (1, 2, 5, 20):
            value = power_method(matrix_handle(m), iters=iters, tol=0.0, seed=4).norm
            assert value <= exact + 1e-12

    @pytest.mark.parametrize("j", [-1000, -900, -500, 500, 900, 1000])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_extreme_magnitudes_scale(self, padding, stride, j):
        # An operator whose first product has its peak outside
        # [2**-250, 2**250) is applied to vectors scaled by an exact power of
        # two.  Unscaled, 2**-900 * k read 0 and 2**900 * k raised LinAlgError.
        k = np.random.default_rng(0).standard_normal((4, 4, 3, 3))
        config = ConvConfig(8, padding, stride)
        base = power_method(conv_operator(k, config)).norm
        scaled = power_method(conv_operator(2.0**j * k, config)).norm
        assert abs(scaled / 2.0**j - base) <= 1e-13 * base

    @pytest.mark.parametrize("j", [-1070, -1072])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_subnormal_products_do_not_over_report(self, padding, stride, j):
        # The taps are subnormal, so products with unit vectors kept a few
        # bits and the norm came out 1.1 to 295 times too large.  The
        # reference is the same (already rounded) kernel scaled up exactly;
        # a sigma this small is subnormal, so the bound allows 4 spacings.
        kq = np.ldexp(np.random.default_rng(0).standard_normal((4, 4, 3, 3)), j)
        config = ConvConfig(8, padding, stride)
        value = power_method(conv_operator(kq, config)).norm
        ref = np.ldexp(power_method(conv_operator(np.ldexp(kq, -j), config)).norm, j)
        assert abs(value - ref) <= 1e-12 * ref + 4 * 2.0**-1074

    def test_near_degenerate_converges_at_defaults(self):
        # The power iteration stopped at its 500-step cap here, 2.1e-4 low.
        k = np.random.default_rng(79).standard_normal((2, 3, 3, 3))
        config = ConvConfig(8, "zero")
        exact = dense_norm(build_dense_jacobian(k, config))
        result = power_method(conv_operator(k, config))
        assert result.converged
        assert abs(result.norm - exact) <= 1e-9 * exact


class TestSpectralDensity:
    """The symbol's largest norm on a 64 x 64 grid is the circular-exact norm at n = 64."""

    def test_norm_bounded_by_tn_upper(self):
        rng = np.random.default_rng(73)
        k = rng.standard_normal((2, 2, 3, 3))
        upper = np.sqrt(9.0) * hopm(k, HopmConfig(restarts=10, seed=5)).sigma
        assert circular_exact_norm(k, ConvConfig(64, "circular")) <= upper * (1 + 1e-6)


class TestCircularExactNorm:
    def test_gap_kernel_attains_upper_bound(self):
        value = circular_exact_norm(complex_gap_kernel(), ConvConfig(4, "circular"))
        assert abs(value - 8.0) < 1e-8

    def test_delta_kernel(self):
        for n in (3, 5, 8):
            value = circular_exact_norm(delta_kernel((1, 1, 3, 3)), ConvConfig(n, "circular"))
            assert abs(value - 1.0) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(74)
        k = rng.standard_normal((2, 2, 3, 3))
        config = ConvConfig(input_size=8, padding="circular")
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, config) - exact) < 1e-8 * exact

    def test_grid_refinement_monotonicity(self):
        rng = np.random.default_rng(75)
        k = rng.standard_normal((2, 2, 3, 3))
        for n, m in ((4, 8), (4, 12), (8, 16)):
            coarse = circular_exact_norm(k, ConvConfig(n, "circular"))
            assert coarse <= circular_exact_norm(k, ConvConfig(m, "circular")) + 1e-10

    def test_rejects_small_input(self):
        with pytest.raises(ValueError, match=re.escape(
                "circular padding needs input_size >= max kernel size (5), got 3")):
            circular_exact_norm(np.ones((1, 1, 5, 5)), ConvConfig(3, "circular"))

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize(
        "shape,seed", [((2, 3, 3, 3), 1), ((3, 2, 2, 3), 2), ((1, 4, 3, 1), 3)]
    )
    def test_odd_sizes_match_dense_oracle(self, shape, seed, n):
        # The symbol grid is 2*pi*j/n; a grid shifted by pi coincides with
        # it only for even n.
        k = np.random.default_rng(seed).standard_normal(shape)
        config = ConvConfig(n, "circular")
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, config) - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("shape,n", [
        ((3, 2, 3), 3), ((2, 3, 4), 7), ((1, 3, 2), 8),
        ((2, 3, 3, 3, 3), 3), ((3, 2, 2, 3, 1), 4), ((2, 2, 3, 2, 3), 5),
    ], ids=["1-d-n3", "1-d-n7", "1-d-n8", "3-d-n3", "3-d-n4", "3-d-n5"])
    def test_any_spatial_rank_matches_dense_oracle(self, shape, n):
        k = np.random.default_rng(sum(shape) + n).standard_normal(shape)
        config = ConvConfig(n, "circular")
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, config) - exact) <= 1e-12 * exact

    @settings(derandomize=True, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 3)] * 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_dense_oracle_property(self, dims, seed, data):
        n = data.draw(st.integers(max(dims[2:]), 7), label="n")
        k = np.random.default_rng(seed).standard_normal(dims)
        config = ConvConfig(n, "circular")
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, config) - exact) <= 1e-10 * exact

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        d=st.integers(1, 3),
        stride=st.integers(1, 3),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_strided_norm_is_regrouped_kernel_norm(self, d, stride, channels, seed, data):
        # At stride s circular_exact_norm evaluates the regrouped kernel at
        # size n / s; the reference is the strided Jacobian itself.
        spatial = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d), label="spatial")
        largest_n = {1: 12, 2: 8, 3: 6}[d]  # keeps the dense Jacobian small
        m = data.draw(st.integers(-(-max(spatial) // stride), largest_n // stride), label="n / s")
        n = m * stride
        k = np.random.default_rng(seed).standard_normal((*channels, *spatial))
        config = ConvConfig(n, "circular", stride=stride)
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, config) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("j", [-1000, -700, 700, 1000])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_extreme_magnitudes_scale_exactly(self, stride, j):
        k = np.random.default_rng(0).standard_normal((2, 3, 3, 3))
        config = ConvConfig(4, "circular", stride)
        base = circular_exact_norm(k, config)
        assert base > 0.0
        assert circular_exact_norm(2.0**j * k, config) == math.ldexp(base, j)

    @pytest.mark.parametrize("value", [1e307, 1.5e308])
    def test_norm_beyond_the_float_range_raises(self, value):
        # The norm of the 1e307 kernel is 18e307: it returned inf.  The
        # 1.5e308 kernel's symbol overflowed: numpy warned, then LAPACK
        # raised LinAlgError.
        with pytest.raises(ValueError, match="the norm overflows the float range"):
            circular_exact_norm(np.full((2, 2, 3, 3), value), ConvConfig(4, "circular"))

    def test_rejects_zero_padding(self):
        with pytest.raises(ValueError, match=re.escape(
                "circular_exact_norm needs circular padding, got 'zero'")):
            circular_exact_norm(np.ones((2, 2, 3, 3)), ConvConfig(8))

    def test_memory_does_not_grow_with_n(self):
        # The whole symbol stack took 35 MB at n = 128 and 140 MB at n = 256;
        # chunks of grid points keep the peak at the chunk's size.
        k = np.random.default_rng(80).standard_normal((16, 16, 3, 3))
        peaks = []
        for n in (128, 256):
            tracemalloc.start()
            try:
                circular_exact_norm(k, ConvConfig(n, "circular"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


# Each id names one setting of the shared loop; "tol0" runs the listed step
# counts with the relative-change stop switched off.
LOOP_SETTINGS = {
    "defaults": [{}],
    "iters1": [{"iters": 1}],
    "tol0": [{"iters": iters, "tol": 0.0} for iters in (1, 2, 3, 5, 10, 20, 40)],
    "seed7": [{"seed": 7, "tol": 1e-6}],
}


def _assert_no_worse_than_power_loop(new, old, exact, kwargs):
    """One step of either loop is ||A x||, so ``iters=1`` agrees bit for bit;
    otherwise the Lanczos value is at least the power loop's and at most the
    norm, up to rounding."""
    if kwargs.get("iters") == 1:
        assert new == old
    else:
        assert old - 1e-13 * exact <= new <= exact * (1 + 1e-13)


class TestSharedPowerLoop:
    """The shared Lanczos loop against the two power loops it replaced."""

    @pytest.mark.parametrize("settings_list", LOOP_SETTINGS.values(), ids=LOOP_SETTINGS.keys())
    def test_matrix_spectral_norm(self, settings_list):
        rng = np.random.default_rng(78)
        matrices = [
            rng.standard_normal((5, 7)),
            rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)),
            unfold(rng.standard_normal((3, 4, 3, 2)), [0, 2], [1, 3]),
            np.zeros((3, 4)),
            np.zeros((2, 3), dtype=complex),
        ]
        for m in matrices:
            for kwargs in settings_list:
                _assert_no_worse_than_power_loop(
                    matrix_spectral_norm(m, **kwargs),
                    matrix_spectral_norm_loop(m, **kwargs),
                    dense_norm(m),
                    kwargs,
                )

    @pytest.mark.parametrize("settings_list", LOOP_SETTINGS.values(), ids=LOOP_SETTINGS.keys())
    def test_power_method(self, settings_list):
        rng = np.random.default_rng(79)
        k = rng.standard_normal((2, 3, 3, 3))
        configs = [ConvConfig(8, "zero", stride=2), ConvConfig(6, "circular")]
        cases = [(matrix_handle(m), dense_norm(m))
                 for m in (rng.standard_normal((5, 7)), np.zeros((3, 4)))]
        cases += [
            (conv_operator(k, c), dense_norm(build_dense_jacobian(k, c))) for c in configs
        ]
        for op, exact in cases:
            for kwargs in settings_list:
                new = power_method(op, **kwargs)
                old = power_method_loop(op, **kwargs)
                if kwargs.get("iters") == 1:
                    assert new == old
                _assert_no_worse_than_power_loop(new.norm, old.norm, exact, kwargs)


class TestNormCheckSchedule:
    """The shared loop takes sigma_max(B_j) at every step only up to step 24,
    then every 4th step and at the last, against the loop that took it at
    every step: on the same operator and start vector it stops within 3 steps
    after the reference, never before, and never reports less.  At tol 0 the
    stopping test compares rounding noise, which need not stay at 0 once it
    was: there only "never before" holds, and "never less" up to rounding."""

    TOLS = [1e-6, 1e-10, 1e-12, 0.0]

    @staticmethod
    def _assert_no_earlier_no_lower(new, steps, ref, tol):
        ref_sigma, ref_steps, ref_converged = ref
        assert ref_steps <= steps
        if tol > 0:
            assert steps <= ref_steps + 3
            assert new >= ref_sigma
        else:
            assert new >= ref_sigma * (1 - 4 * np.finfo(float).eps)
        if not ref_converged:  # ran to the cap: the same B_j
            assert (new, steps) == (ref_sigma, ref_steps)

    @pytest.mark.parametrize("tol", TOLS)
    def test_power_method(self, tol):
        rng = np.random.default_rng(80)
        cases = [
            ((4, 4, 3, 3), ConvConfig(8, "zero")),
            ((8, 8, 3, 3), ConvConfig(16, "zero")),
            ((8, 8, 3, 3), ConvConfig(16, "zero", stride=2)),
            ((4, 6, 3, 2), ConvConfig(12, "circular")),
            ((6, 6, 5, 5), ConvConfig(12, "zero", stride=3)),
        ]
        longest = 0
        for shape, config in cases:
            op = conv_operator(rng.standard_normal(shape), config)
            for iters, seed in ((500, 3), (27, 4), (30, 5)):
                start = np.random.default_rng(seed).standard_normal(op.input_shape)
                ref = lanczos_every_step(
                    op.forward, op.adjoint, start / np.linalg.norm(start), iters, tol
                )
                result = power_method(op, iters=iters, tol=tol, seed=seed)
                self._assert_no_earlier_no_lower(result.norm, result.iterations, ref, tol)
                assert result.converged == ref[2]
                longest = max(longest, ref[1])
        assert longest > 24  # the schedule was exercised

    @pytest.mark.parametrize("tol", TOLS)
    def test_matrix_spectral_norm(self, tol, monkeypatch):
        steps = []
        loop = convnorm.tensor_ops._lanczos_norm

        def recording(*args):
            result = loop(*args)
            steps.append(result[1])
            return result

        monkeypatch.setattr(convnorm.tensor_ops, "_lanczos_norm", recording)
        rng = np.random.default_rng(81)
        # A spectrum packed into [0.9, 1] needs more than 24 steps at every tol.
        q1, _ = np.linalg.qr(rng.standard_normal((120, 120)))
        q2, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        matrices = [
            q1[:, :100] @ np.diag(np.linspace(1.0, 0.9, 100)) @ q2.T,
            rng.standard_normal((150, 120)) + 1j * rng.standard_normal((150, 120)),
            unfold(rng.standard_normal((64, 64, 3, 3)), [0, 2], [1, 3]),
            unfold(rng.standard_normal((16, 16, 3, 3)), [0], [1, 2, 3]),
        ]
        longest = 0
        for m in matrices:
            for iters, seed in ((300, 0), (27, 1)):
                start_rng = np.random.default_rng(seed)
                n = m.shape[1]
                start = start_rng.standard_normal(n)
                if np.iscomplexobj(m):
                    start = start + 1j * start_rng.standard_normal(n)
                m_h = m.conj().T
                ref = lanczos_every_step(
                    lambda x: m @ x, lambda y: m_h @ y, start / np.linalg.norm(start), iters, tol
                )
                value = matrix_spectral_norm(m, iters=iters, tol=tol, seed=seed)
                self._assert_no_earlier_no_lower(value, steps.pop(), ref, tol)
                longest = max(longest, ref[1])
        assert longest > 24


class TestSymbolSupBounds:
    """Grid sup of the symbol dominates both paddings' Jacobian norms.

    The sup over the 64 x 64 grid 2*pi*j/64 is the circular-exact norm at n = 64.
    """

    def test_dominates_jacobian_norms(self):
        rng = np.random.default_rng(76)
        for trial in range(3):
            k = rng.standard_normal((2, 2, 3, 3))
            sup = circular_exact_norm(k, ConvConfig(64, "circular"))
            for padding in ("zero", "circular"):
                config = ConvConfig(input_size=10, padding=padding)
                oracle = dense_norm(build_dense_jacobian(k, config))
                assert oracle <= sup * (1 + 1e-6)

    def test_first_unfolding_lower_bounds_jacobian(self):
        rng = np.random.default_rng(77)
        for trial in range(5):
            k = rng.standard_normal((2, 3, 3, 3))
            lower = dense_norm(unfold(k, [0], [1, 2, 3]))
            for padding in ("zero", "circular"):
                config = ConvConfig(input_size=10, padding=padding)
                oracle = dense_norm(build_dense_jacobian(k, config))
                assert lower <= oracle + 1e-8
