"""Tests for the F4 bound, strided transform/bound, d-dim bound, public API."""

import math

import numpy as np
import pytest

import convnorm
from convnorm import (
    ConvConfig,
    HopmConfig,
    build_dense_jacobian,
    complex_gap_kernel,
    f4_bound,
    hopm,
    make_bound_report,
    matrix_spectral_norm,
    strided_kernel_transform,
    tn_bound,
    unfold,
)
from helpers import dense_norm

# f4_bound's four unfoldings, (out,h|in,w), (out,w|in,h), (out|rest), (in|rest).
F4_GROUPS = (([0, 2], [1, 3]), ([0, 3], [1, 2]), ([0], [1, 2, 3]), ([1], [0, 2, 3]))


def _symmetric_spatial_kernel() -> np.ndarray:
    """K[:, :, p, q] == K[:, :, q, p]: the two square unfoldings are equal."""
    a = np.random.default_rng(64).standard_normal((5, 4, 3, 3))
    return a + a.transpose(0, 1, 3, 2)


# (kernel, seed) pairs for the early-exit checks.
F4_CASES = {
    "stride-2 Q": (
        strided_kernel_transform(np.random.default_rng(60).standard_normal((8, 6, 3, 3)), 2), 3,
    ),
    "5x5": (np.random.default_rng(61).standard_normal((6, 8, 5, 5)), 1),
    "1x1": (np.random.default_rng(62).standard_normal((7, 5, 1, 1)), 2),
    "gap kernel": (complex_gap_kernel(), 4),
    "zero": (np.zeros((3, 4, 3, 3)), 0),
    "square unfoldings tie": (_symmetric_spatial_kernel(), 5),
    "16x16x3x3": (np.random.default_rng(63).standard_normal((16, 16, 3, 3)), 0),
}


def _uncapped_norms(k, seed):
    return [matrix_spectral_norm(unfold(k, rows, cols), iters=300, tol=1e-12, seed=seed)
            for rows, cols in F4_GROUPS]


class TestF4Bound:
    def test_pointwise_kernel_reduces_to_matrix_norm(self):
        rng = np.random.default_rng(40)
        k = rng.standard_normal((3, 5, 1, 1))
        expected = matrix_spectral_norm(k[:, :, 0, 0], iters=2000, tol=1e-14, seed=1)
        assert abs(f4_bound(k) - expected) < 1e-9 * expected

    def test_gap_kernel_value(self):
        assert abs(f4_bound(complex_gap_kernel()) - 8.0) < 1e-9

    def test_transpose_consistency(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            k = rng.standard_normal((3, 2, 3, 4))
            a = f4_bound(k, seed=trial)
            b = f4_bound(k.transpose(1, 0, 2, 3), seed=trial)
            assert abs(a - b) < 1e-9 * a

    @pytest.mark.parametrize("case", list(F4_CASES))
    def test_early_exit_keeps_the_minimum_bit_for_bit(self, case):
        k, seed = F4_CASES[case]
        norms = _uncapped_norms(k, seed)
        assert f4_bound(k, seed) == math.sqrt(k.shape[2] * k.shape[3]) * min(norms)
        if case == "square unfoldings tie":
            assert norms[0] == norms[1]

    def test_unfoldings_after_the_minimum_run_fewer_steps(self, monkeypatch):
        k, seed = F4_CASES["16x16x3x3"]
        loop = convnorm.tensor_ops._lanczos_norm
        matvecs = []

        def counting(forward, *args):
            matvecs.append(0)

            def counted(x):
                matvecs[-1] += 1
                return forward(x)

            return loop(counted, *args)

        monkeypatch.setattr(convnorm.tensor_ops, "_lanczos_norm", counting)
        norms = _uncapped_norms(k, seed)
        uncapped, matvecs[:] = matvecs[:], []
        f4_bound(k, seed)
        first_min = norms.index(min(norms))
        assert first_min < 3  # some unfolding comes after the minimum
        assert matvecs[: first_min + 1] == uncapped[: first_min + 1]
        for capped, full in zip(matvecs[first_min + 1:], uncapped[first_min + 1:]):
            assert capped < full

    def test_tn_never_exceeds_f4(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            k = rng.standard_normal((2, 3, 3, 2))
            tn = tn_bound(k, HopmConfig(seed=trial)).upper
            assert tn <= f4_bound(k) + 1e-9


class TestStridedKernelTransform:
    def test_stride_one_returns_kernel(self):
        rng = np.random.default_rng(43)
        k = rng.standard_normal((2, 2, 3, 3))
        np.testing.assert_array_equal(strided_kernel_transform(k, 1), k)

    def test_two_by_two_hand_formula(self):
        rng = np.random.default_rng(44)
        k = rng.standard_normal((1, 1, 2, 2))
        q = strided_kernel_transform(k, 2)
        assert q.shape == (1, 4, 1, 1)
        for a in range(2):
            for b in range(2):
                assert q[0, 2 * (a % 2) + (b % 2), 0, 0] == k[0, 0, a, b]

    def test_frobenius_preserved(self):
        rng = np.random.default_rng(45)
        for s in (1, 2, 3, 4):
            k = rng.standard_normal((2, 3, 5, 4))
            q = strided_kernel_transform(k, s)
            assert abs(np.linalg.norm(q) - np.linalg.norm(k)) < 1e-12
            assert q.shape == (2, 3 * s * s, -(-5 // s), -(-4 // s))


class TestStridedBound:
    def test_stride_one_matches_tn_bound_bitwise(self):
        rng = np.random.default_rng(46)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(seed=11)
        a = tn_bound(k, config)
        b = tn_bound(strided_kernel_transform(k, 1), config)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_sandwich_against_dense_oracle(self):
        rng = np.random.default_rng(47)
        for s in (2, 4):
            k = rng.standard_normal((2, 2, 3, 3))
            config = ConvConfig(input_size=8, padding="zero", stride=s)
            oracle = dense_norm(build_dense_jacobian(k, config))
            bound = tn_bound(strided_kernel_transform(k, s), HopmConfig(restarts=10, seed=3))
            assert bound.lower <= oracle + 1e-8
            assert oracle <= bound.upper * (1 + 1e-6)


class TestDdimBound:
    def test_two_spatial_axes_match_tn_bound_bitwise(self):
        rng = np.random.default_rng(48)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(seed=13)
        bound = tn_bound(k, config)
        sigma = hopm(k, config).sigma
        assert (bound.lower, bound.upper) == (sigma, math.sqrt(3 * 3) * sigma)

    @pytest.mark.parametrize(
        "shape,n",
        [((2, 2, 3), 16), ((2, 2, 3, 3, 3), 6)],
    )
    def test_sandwich_against_dense_oracle(self, shape, n):
        rng = np.random.default_rng(49)
        k = rng.standard_normal(shape)
        for padding in ("zero", "circular"):
            config = ConvConfig(input_size=n, padding=padding)
            oracle = dense_norm(build_dense_jacobian(k, config))
            bound = tn_bound(k, HopmConfig(restarts=10, seed=5))
            assert bound.lower <= oracle + 1e-8
            assert oracle <= bound.upper * (1 + 1e-6)


class TestConvConfig:
    def test_rejects_unknown_padding(self):
        with pytest.raises(ValueError, match="padding"):
            ConvConfig(input_size=8, padding="reflect")

    def test_offsets_must_match_kernel(self):
        config = ConvConfig(input_size=8, offsets=((1, 1), (2, 0)))
        with pytest.raises(ValueError, match="spatial axis 1"):
            config.validate_for((2, 2, 3, 4))

    def test_flat_offsets_rejected(self):
        config = ConvConfig(input_size=8, offsets=(1, 1, 0, 2))
        with pytest.raises(ValueError, match="offsets for 2 spatial axes, got 4"):
            config.validate_for((2, 2, 3, 3))

    @pytest.mark.parametrize("offsets", [(1, 1), ((1, 1), 2), ((1, 1), (0, 1, 1))],
                             ids=["flat-pair", "mixed", "triple"])
    def test_offsets_entries_must_be_pairs(self, offsets):
        config = ConvConfig(input_size=8, offsets=offsets)
        with pytest.raises(ValueError, match=r"offsets must be a \(before, after\) pair"):
            config.validate_for((2, 2, 3, 3))

    def test_stride_must_divide_input(self):
        with pytest.raises(ValueError, match="divide"):
            ConvConfig(input_size=9, stride=2).validate_for((1, 1, 3, 3))

    def test_circular_needs_room_for_kernel(self):
        with pytest.raises(ValueError, match="circular"):
            ConvConfig(input_size=4, padding="circular").validate_for((1, 1, 5, 5))


class TestBoundReport:
    def test_invariants_on_random_kernels(self):
        rng = np.random.default_rng(50)
        for trial in range(5):
            k = rng.standard_normal((3, 2, 3, 3))
            report = make_bound_report(k, hopm_config=HopmConfig(seed=trial))
            assert report.tn.lower <= report.tn.upper
            assert report.tn.upper <= report.f4_upper + 1e-9
            assert report.ratios() == {}

    @pytest.mark.parametrize("stride", [2, 4])
    def test_strided_report_compares_bounds_on_q(self, stride):
        rng = np.random.default_rng(52)
        for trial in range(3):
            k = rng.standard_normal((4, 3, 3, 3))
            report = make_bound_report(k, stride=stride, hopm_config=HopmConfig(seed=trial),
                                       f4_seed=trial)
            q = strided_kernel_transform(k, stride)
            assert report.f4_upper == f4_bound(q, seed=trial)
            assert report.tn.upper <= report.f4_upper + 1e-9

    def test_ratios_with_oracle(self):
        rng = np.random.default_rng(51)
        k = rng.standard_normal((2, 2, 3, 3))
        report = make_bound_report(k, hopm_config=HopmConfig(seed=1))
        report.oracle_norm = dense_norm(
            build_dense_jacobian(k, ConvConfig(input_size=8))
        )
        ratios = report.ratios()
        assert ratios["tn_over_oracle"] >= 1.0 - 1e-9
        assert ratios["f4_over_oracle"] >= ratios["tn_over_oracle"] - 1e-12


class TestPublicApi:
    def test_all_is_pinned(self):
        assert sorted(convnorm.__all__) == [
            "BoundReport", "ConvConfig", "HopmConfig", "LinearOperatorHandle",
            "Rank1Factors", "SigmaEstimate", "TnBound",
            "build_dense_jacobian", "centered_offsets",
            "circular_exact_norm", "complex_gap_kernel", "conv_operator",
            "delta_kernel", "f4_bound", "frobenius", "gaussian_kernel", "hopm",
            "make_bound_report", "matrix_spectral_norm", "multilinear_form",
            "ocnn_loss", "partial_contraction", "power_method", "ratio_loss",
            "read_kernel", "regularizer_gradient", "self_gram_kernel",
            "singular_value_gradient", "strided_kernel_transform", "tn_bound",
            "tn_gradient", "twonorm_loss", "unfold", "uniform_kernel",
            "write_kernel",
        ]
        for name in convnorm.__all__:
            assert hasattr(convnorm, name), name
        # perfbench's ladder workload calls this alias; dropping it breaks the benchmark.
        assert convnorm.tn_bound_ddim is convnorm.tn_bound
        # perfbench's train workload reads twonorm_loss(...).sigma; likewise.
        two = convnorm.twonorm_loss(np.ones((1, 1, 2, 2)))
        assert two.sigma == two.lower
