"""Tests for the dense Jacobian builder, matrix-free operator, and references."""

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
    spectral_density,
    unfold,
)
from helpers import dense_norm, matrix_spectral_norm_loop, power_method_loop, vec


class TestDenseJacobian:
    def test_one_dimensional_displays(self):
        rng = np.random.default_rng(60)
        k = rng.standard_normal((1, 1, 3))
        k0, k1, k2 = k[0, 0]
        zero = build_dense_jacobian(k, ConvConfig(input_size=4, padding="zero", offsets=((1, 1),)))
        circ = build_dense_jacobian(k, ConvConfig(input_size=4, padding="circular", offsets=((1, 1),)))
        np.testing.assert_allclose(
            zero,
            [[k1, k2, 0, 0], [k0, k1, k2, 0], [0, k0, k1, k2], [0, 0, k0, k1]],
        )
        np.testing.assert_allclose(
            circ,
            [[k1, k2, 0, k0], [k0, k1, k2, 0], [0, k0, k1, k2], [k2, 0, k0, k1]],
        )

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
        k = np.ones((1, 1, 1, 1))
        with pytest.raises(ValueError, match="conv_operator"):
            build_dense_jacobian(k, ConvConfig(input_size=64), max_entries=100)

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
        assert abs(value - circular_exact_norm(k, 8)) < 1e-6

    def test_accepts_dense_matrix(self):
        rng = np.random.default_rng(69)
        m = rng.standard_normal((5, 7))
        assert abs(power_method(m, iters=2000, tol=1e-14, seed=1).norm - dense_norm(m)) < 1e-9

    def test_zero_operator(self):
        assert power_method(np.zeros((3, 4)), seed=0).norm == 0.0

    def test_monotone_estimates_never_overshoot(self):
        rng = np.random.default_rng(70)
        m = rng.standard_normal((6, 6))
        exact = dense_norm(m)
        for iters in (1, 2, 5, 20):
            assert power_method(m, iters=iters, tol=0.0, seed=4).norm <= exact + 1e-12

    def test_near_degenerate_converges_at_defaults(self):
        # The power iteration stopped at its 500-step cap here, 2.1e-4 low.
        k = np.random.default_rng(79).standard_normal((2, 3, 3, 3))
        config = ConvConfig(8, "zero")
        exact = dense_norm(build_dense_jacobian(k, config))
        result = power_method(conv_operator(k, config))
        assert result.converged
        assert abs(result.norm - exact) <= 1e-9 * exact


class TestSpectralDensity:
    def test_zero_angles_give_tap_sum(self):
        rng = np.random.default_rng(71)
        k = rng.standard_normal((2, 3, 3, 5))
        f = spectral_density(k, 0.0, 0.0)
        np.testing.assert_allclose(f, k.sum(axis=(2, 3)), atol=1e-13)

    def test_pointwise_kernel_constant_in_tau(self):
        rng = np.random.default_rng(72)
        k = rng.standard_normal((3, 2, 1, 1))
        for tau in ((0.3, -1.2), (2.0, 0.1)):
            np.testing.assert_allclose(spectral_density(k, *tau), k[:, :, 0, 0], atol=1e-14)

    def test_norm_bounded_by_tn_upper(self):
        rng = np.random.default_rng(73)
        k = rng.standard_normal((2, 2, 3, 3))
        upper = np.sqrt(9.0) * hopm(k, HopmConfig(restarts=10, seed=5)).sigma
        taus = rng.uniform(-np.pi, np.pi, size=(1000, 2))
        worst = max(dense_norm(spectral_density(k, t1, t2)) for t1, t2 in taus)
        assert worst <= upper * (1 + 1e-6)


class TestCircularExactNorm:
    def test_gap_kernel_attains_upper_bound(self):
        assert abs(circular_exact_norm(complex_gap_kernel(), 4) - 8.0) < 1e-8

    def test_delta_kernel(self):
        for n in (3, 5, 8):
            assert abs(circular_exact_norm(delta_kernel((1, 1, 3, 3)), n) - 1.0) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(74)
        k = rng.standard_normal((2, 2, 3, 3))
        config = ConvConfig(input_size=8, padding="circular")
        exact = dense_norm(build_dense_jacobian(k, config))
        assert abs(circular_exact_norm(k, 8) - exact) < 1e-8 * exact

    def test_grid_refinement_monotonicity(self):
        rng = np.random.default_rng(75)
        k = rng.standard_normal((2, 2, 3, 3))
        for n, m in ((4, 8), (4, 12), (8, 16)):
            assert circular_exact_norm(k, n) <= circular_exact_norm(k, m) + 1e-10

    def test_rejects_small_input(self):
        with pytest.raises(ValueError, match="n >= max kernel size"):
            circular_exact_norm(np.ones((1, 1, 5, 5)), 3)

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize(
        "shape,seed", [((2, 3, 3, 3), 1), ((3, 2, 2, 3), 2), ((1, 4, 3, 1), 3)]
    )
    def test_odd_sizes_match_dense_oracle(self, shape, seed, n):
        # The symbol grid is 2*pi*j/n; a grid shifted by pi coincides with
        # it only for even n.
        k = np.random.default_rng(seed).standard_normal(shape)
        exact = dense_norm(build_dense_jacobian(k, ConvConfig(n, "circular")))
        assert abs(circular_exact_norm(k, n) - exact) <= 1e-10 * exact

    @settings(derandomize=True, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 3)] * 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_dense_oracle_property(self, dims, seed, data):
        n = data.draw(st.integers(max(dims[2:]), 7), label="n")
        k = np.random.default_rng(seed).standard_normal(dims)
        exact = dense_norm(build_dense_jacobian(k, ConvConfig(n, "circular")))
        assert abs(circular_exact_norm(k, n) - exact) <= 1e-10 * exact


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
        cases = [(m, dense_norm(m)) for m in (rng.standard_normal((5, 7)), np.zeros((3, 4)))]
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


class TestSymbolSupBounds:
    """Grid sup of the symbol dominates both paddings' Jacobian norms."""

    def _grid_sup(self, k, grid=64):
        taus = -np.pi + 2 * np.pi * np.arange(grid) / grid
        return max(
            dense_norm(spectral_density(k, t1, t2)) for t1 in taus for t2 in taus
        )

    def test_dominates_jacobian_norms(self):
        rng = np.random.default_rng(76)
        for trial in range(3):
            k = rng.standard_normal((2, 2, 3, 3))
            sup = self._grid_sup(k)
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
