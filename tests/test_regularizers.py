"""Tests for the self-gram kernel and the regularizers."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convnorm import (
    ConvConfig,
    HopmConfig,
    Rank1Factors,
    build_dense_jacobian,
    delta_kernel,
    frobenius,
    hopm,
    ocnn_loss,
    ratio_loss,
    regularizer_gradient,
    self_gram_kernel,
    tn_bound,
    tn_gradient,
    twonorm_loss,
)
from convnorm import regularizers
from convnorm.regularizers import _gram_chain, _gram_residual, _self_gram
from convnorm.tensor_ops import _Memo, as_dense_tensor
from helpers import (
    REFERENCE_SHAPES,
    count_calls,
    dense_norm,
    fd_gradient,
    gram_chain_loop,
    rel_err_max,
    self_gram_loop,
    shape_id,
)

# The package binds the function ``hopm`` over its module's name.
HOPM = importlib.import_module("convnorm.hopm")

# Kernels with one, two and three spatial axes, each with a circular input
# size n >= 2k - 1 on every axis, so the self-gram kernel's taps never
# collide under the wrap.
DENSE_CASES = [((2, 2, 3, 3), 8), ((3, 2, 4), 7), ((2, 2, 2, 3, 2), 5)]
DENSE_IDS = [shape_id(shape) for shape, _ in DENSE_CASES]
OTHER_RANKS = [shape for shape, _ in DENSE_CASES if len(shape) != 4]
OTHER_RANK_IDS = [shape_id(shape) for shape in OTHER_RANKS]


def _circular_jacobian(k, n) -> np.ndarray:
    return build_dense_jacobian(k, ConvConfig(input_size=n, padding="circular"))


class TestSelfGramKernel:
    def test_delta_kernel_maps_to_wider_delta(self):
        k = delta_kernel((1, 1, 3, 3))
        expected = np.zeros((1, 1, 5, 5))
        expected[0, 0, 2, 2] = 1.0
        np.testing.assert_allclose(self_gram_kernel(k), expected)

    @pytest.mark.parametrize("shape, n", DENSE_CASES, ids=DENSE_IDS)
    def test_generates_dense_gram_matrix(self, shape, n):
        k = np.random.default_rng(80).standard_normal(shape)
        t = _circular_jacobian(k, n)
        np.testing.assert_allclose(t.T @ t, _circular_jacobian(self_gram_kernel(k), n),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", OTHER_RANKS, ids=OTHER_RANK_IDS)
    def test_chain_rule_matches_central_differences(self, shape):
        rng = np.random.default_rng(101)
        k = rng.standard_normal(shape)
        weights = rng.standard_normal(self_gram_kernel(k).shape)
        numeric = fd_gradient(lambda kk: float(np.sum(weights * self_gram_kernel(kk))), k)
        assert rel_err_max(_gram_chain(k, weights), numeric) <= 1e-8

    def test_center_diagonal_is_channel_energy(self):
        rng = np.random.default_rng(81)
        k = rng.standard_normal((3, 2, 3, 4))
        sg = self_gram_kernel(k)
        h, w = k.shape[2:]
        assert sg.shape == (2, 2, 2 * h - 1, 2 * w - 1)
        center = (h - 1, w - 1)
        for a in range(2):
            energy = float(np.sum(k[:, a] ** 2))
            assert abs(sg[(a, a) + center] - energy) < 1e-12

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=shape_id)
    def test_matches_offset_loop(self, shape):
        k = np.random.default_rng(93).standard_normal(shape)
        assert rel_err_max(self_gram_loop(k), self_gram_kernel(k)) <= 1e-13

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=shape_id)
    def test_chain_rule_matches_offset_loop(self, shape):
        rng = np.random.default_rng(94)
        k = rng.standard_normal(shape)
        c_in, h, w = shape[1:]
        weights = rng.standard_normal((c_in, c_in, 2 * h - 1, 2 * w - 1))
        assert rel_err_max(gram_chain_loop(k, weights), _gram_chain(k, weights)) <= 1e-13

    # c_out, c_in in [1, 4] and h, w in [1, 5]: h = 1 or w = 1 leaves one
    # of the two fold stages a single slice-add.
    @settings(derandomize=True, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fold_and_gather_match_offset_loops_property(self, dims, seed):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal(dims)
        c_in, h, w = dims[1:]
        weights = rng.standard_normal((c_in, c_in, 2 * h - 1, 2 * w - 1))
        assert rel_err_max(self_gram_loop(k), self_gram_kernel(k)) <= 1e-13
        assert rel_err_max(gram_chain_loop(k, weights), _gram_chain(k, weights)) <= 1e-13

    def test_transpose_flip_symmetry(self):
        rng = np.random.default_rng(82)
        g = self_gram_kernel(rng.standard_normal((2, 3, 4, 3)))
        flipped = g.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        np.testing.assert_allclose(g, flipped, atol=1e-12)


@pytest.mark.parametrize("call", [
    ocnn_loss,
    twonorm_loss,
    lambda k: regularizer_gradient("ocnn", k),
    lambda k: regularizer_gradient("2norm", k),
], ids=["ocnn_loss", "twonorm_loss", "ocnn_gradient", "2norm_gradient"])
def test_overflowing_gram_residual_names_itself(call):
    # km.T @ km overflows: numpy warned (an error in this suite), and the
    # residual's Infs were then blamed on the input as "tensor contains
    # non-finite entries".
    with pytest.raises(ValueError, match="the self-gram kernel overflows the float range"):
        call(np.full((2, 2, 3, 3), 1e200))


class TestOcnnLoss:
    def test_orthogonal_pointwise_kernel(self):
        rng = np.random.default_rng(83)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        k = q.reshape(4, 4, 1, 1)
        assert ocnn_loss(k) < 1e-12

    def test_delta_kernel(self):
        assert ocnn_loss(delta_kernel((2, 2, 3, 3))) == 0.0

    @pytest.mark.parametrize("shape, n", DENSE_CASES, ids=DENSE_IDS)
    def test_matches_dense_gram_distance(self, shape, n):
        k = np.random.default_rng(84).standard_normal(shape)
        t = _circular_jacobian(k, n)
        dense = np.linalg.norm(t.T @ t - np.eye(t.shape[1]), "fro")
        # T^T T - I repeats each entry of the kernel residual once per pixel.
        pixels = n ** (len(shape) - 2)
        assert abs(ocnn_loss(k) - dense / math.sqrt(pixels)) < 1e-10 * max(dense, 1.0)


class TestTwonormLoss:
    def test_delta_kernel(self):
        result = twonorm_loss(delta_kernel((2, 2, 3, 3)), HopmConfig(seed=1))
        assert result.lower == 0.0

    @pytest.mark.parametrize("shape, n", DENSE_CASES, ids=DENSE_IDS)
    def test_certified_chain_against_dense_oracle(self, shape, n):
        k = np.random.default_rng(85).standard_normal(shape)
        t = _circular_jacobian(k, n)
        dense = dense_norm(t.T @ t - np.eye(t.shape[1]))
        result = twonorm_loss(k, HopmConfig(restarts=10, seed=2))
        assert result.lower <= dense + 1e-8
        assert dense <= result.upper * (1 + 1e-9)

    def test_zero_kernel_leaves_identity(self):
        result = twonorm_loss(np.zeros((2, 2, 3, 3)), HopmConfig(seed=3))
        assert abs(result.lower - 1.0) < 1e-10

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3, 2, 3, 2)], ids=shape_id)
    def test_is_rank1_value_of_residual_bitwise(self, shape):
        k = np.random.default_rng(89).standard_normal(shape)
        config = HopmConfig(seed=4)
        c_in, h, w = shape[1:]
        identity = np.zeros((c_in, c_in, 2 * h - 1, 2 * w - 1))
        identity[range(c_in), range(c_in), h - 1, w - 1] = 1.0
        residual = self_gram_kernel(k) - identity
        sigma = hopm(residual, config).sigma
        result = twonorm_loss(k, config)
        assert result.lower == sigma
        assert result.upper == math.sqrt(residual.shape[2] * residual.shape[3]) * sigma


class TestRatioLoss:
    def test_pointwise_identity_kernel(self):
        c = 4
        k = np.eye(c).reshape(c, c, 1, 1)
        value = ratio_loss(k, HopmConfig(n_iters=500, tol=1e-14, seed=1))
        assert abs(value - 1.0 / np.sqrt(c)) < 1e-9

    def test_rank_one_kernel_attains_maximum(self):
        rng = np.random.default_rng(86)
        vecs = [rng.standard_normal(n) for n in (2, 3, 3, 4)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        k = 2.5 * np.einsum("a,b,c,d->abcd", *vecs)
        value = ratio_loss(k, HopmConfig(seed=2))
        assert abs(value - np.sqrt(12.0)) < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(87)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(seed=3)
        assert abs(ratio_loss(4.2 * k, config) - ratio_loss(k, config)) < 1e-10

    def test_never_exceeds_sqrt_spatial(self):
        rng = np.random.default_rng(88)
        for trial in range(5):
            k = rng.standard_normal((2, 3, 3, 4))
            assert ratio_loss(k, HopmConfig(seed=trial)) <= np.sqrt(12.0) + 1e-9

    @pytest.mark.parametrize("call", [ratio_loss, lambda k: regularizer_gradient("ratio", k)],
                             ids=["ratio_loss", "regularizer_gradient"])
    def test_zero_kernel_rejected(self, call):
        with pytest.raises(ValueError, match="ratio undefined for a zero kernel"):
            call(np.zeros((2, 2, 3, 3)))

    def test_loss_and_gradient_share_one_ratio_rule(self, monkeypatch):
        k = np.random.default_rng(91).standard_normal((2, 3, 3, 3))
        parts = count_calls(monkeypatch, regularizers._ratio_parts)
        ratio_loss(k, HopmConfig(seed=1))
        assert len(parts) == 1
        regularizer_gradient("ratio", k, HopmConfig(seed=1))
        assert len(parts) == 2

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3, 2, 3, 2), *OTHER_RANKS], ids=shape_id)
    def test_is_tn_over_frobenius_bitwise(self, shape):
        k = np.random.default_rng(90).standard_normal(shape)
        config = HopmConfig(seed=5)
        sigma = hopm(k, config).sigma
        assert ratio_loss(k, config) == math.sqrt(math.prod(shape[2:])) * sigma / frobenius(k)

    @pytest.mark.parametrize("j", [-1000, -600, 600, 1000])
    def test_scale_free_near_the_float_limits(self, j):
        # Below 2**-500 ||K||_F underflowed to 0 ("ratio undefined for a zero
        # kernel"); above 2**500 it overflowed.  Both are taken on the kernel
        # scaled by 2**-e, and the gradient is scaled back.
        k = np.random.default_rng(0).standard_normal((4, 4, 3, 3))
        config = HopmConfig(seed=1)
        scaled = np.ldexp(k, j)
        assert ratio_loss(scaled, config) == ratio_loss(k, config)
        np.testing.assert_array_equal(np.ldexp(regularizer_gradient("ratio", scaled, config), j),
                                      regularizer_gradient("ratio", k, config))

    def test_equal_entries_at_the_top_of_the_float_range(self):
        # sigma = ||K||_F = 6e307: ||K||_F overflowed, and so did 3 * sigma.
        value = ratio_loss(np.full((2, 2, 3, 3), 1e307))
        assert abs(value - 3.0) <= math.ulp(3.0)


class TestRegularizerGradients:
    @staticmethod
    def _fd_error(which, k, seed):
        """Analytic gradient against central differences of the loss; sigma
        losses re-solve each perturbed kernel warm-started from the base
        factors."""
        if which == "ocnn":
            grad = regularizer_gradient("ocnn", k)
            return rel_err_max(grad, fd_gradient(ocnn_loss, k, step=1e-5))
        config = HopmConfig(n_iters=400, tol=1e-13, restarts=8, seed=seed)
        grad = regularizer_gradient(which, k, config)
        if which == "ratio":
            base, loss = hopm(k, config).factors, ratio_loss
        else:
            base = twonorm_loss(k, config).estimate.factors

            def loss(kk, cfg):
                return twonorm_loss(kk, cfg).lower
        warm = HopmConfig(n_iters=400, tol=1e-14, restarts=1, seed=seed, warm_start=base)
        numeric = fd_gradient(lambda kk: loss(kk, warm), k, step=1e-5)
        return rel_err_max(grad, numeric)

    def test_ocnn_matches_finite_differences(self):
        k = np.random.default_rng(89).standard_normal((2, 2, 3, 3))
        assert self._fd_error("ocnn", k, None) <= 1e-6

    def test_ratio_matches_finite_differences(self):
        k = np.random.default_rng(90).standard_normal((2, 2, 3, 3))
        assert self._fd_error("ratio", k, 4) <= 1e-6

    def test_twonorm_matches_finite_differences(self):
        k = np.random.default_rng(91).standard_normal((2, 2, 3, 3))
        assert self._fd_error("2norm", k, 5) <= 1e-6

    # A square 2x2x3x3 kernel cannot tell c_out from c_in or h from w, so a
    # chain rule that swaps them passes there; these shapes catch it.
    @pytest.mark.parametrize("shape", [(2, 3, 3, 2), (2, 2, 1, 3)], ids=shape_id)
    @pytest.mark.parametrize("which", ["ocnn", "ratio", "2norm"])
    def test_non_square_kernels_match_finite_differences(self, which, shape):
        k = np.random.default_rng(95).standard_normal(shape)
        assert self._fd_error(which, k, 6) <= 1e-6

    @pytest.mark.parametrize("shape", OTHER_RANKS, ids=OTHER_RANK_IDS)
    @pytest.mark.parametrize("which", ["ocnn", "ratio", "2norm"])
    def test_other_spatial_ranks_match_finite_differences(self, which, shape):
        k = np.random.default_rng(103).standard_normal(shape)
        assert self._fd_error(which, k, 7) <= 1e-6

    @pytest.mark.parametrize("shape", [(3, 2, 3, 2), *OTHER_RANKS], ids=shape_id)
    def test_tn_gradient_is_tn_gradient_of_the_solve_bitwise(self, shape):
        k = np.random.default_rng(104).standard_normal(shape)
        config = HopmConfig(seed=8)
        expected = tn_gradient(k, hopm(k, config).factors)
        np.testing.assert_array_equal(regularizer_gradient("tn", k, config), expected)

    def test_ratio_gradient_is_quotient_rule_bitwise(self):
        k = np.random.default_rng(93).standard_normal((3, 2, 3, 2))
        config = HopmConfig(seed=7)
        est = hopm(k, config)
        fro = frobenius(k)
        ratio = math.sqrt(3 * 2) * est.sigma / fro
        expected = tn_gradient(k, est.factors) / fro - ratio * k / fro**2
        np.testing.assert_array_equal(regularizer_gradient("ratio", k, config), expected)

    def test_ratio_gradient_orthogonal_to_kernel(self):
        rng = np.random.default_rng(92)
        vecs = [rng.standard_normal(n) for n in (2, 2, 3, 3)]
        k = np.einsum("a,b,c,d->abcd", *vecs)
        grad = regularizer_gradient("ratio", k, HopmConfig(seed=6))
        assert abs(np.sum(grad * k)) <= 1e-10 * np.linalg.norm(k)

    def test_ocnn_gradient_zero_at_delta(self):
        grad = regularizer_gradient("ocnn", delta_kernel((2, 2, 3, 3)))
        assert np.linalg.norm(grad) <= 1e-10

    def test_twonorm_gradient_undefined_at_delta(self):
        with pytest.raises(ValueError, match="undefined"):
            regularizer_gradient("2norm", delta_kernel((2, 2, 3, 3)), HopmConfig(seed=1))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown regularizer"):
            regularizer_gradient("nope", np.ones((1, 1, 1, 1)))

    # No regularizer checks the kernel itself: it is scanned only by the
    # callees that use it (hopm, frobenius, singular_value_gradient or
    # self_gram_kernel), and the gram residual by those that take it.
    @pytest.mark.parametrize("which, scans", [("tn", 2), ("ratio", 3), ("ocnn", 2), ("2norm", 3)])
    def test_scans_per_call(self, which, scans, monkeypatch):
        k = np.random.default_rng(96).standard_normal((3, 2, 3, 3))
        counted = count_calls(monkeypatch, as_dense_tensor)
        regularizer_gradient(which, k, HopmConfig(restarts=2, n_iters=5))
        assert len(counted) == scans

    def test_ratio_loss_scans_twice(self, monkeypatch):
        k = np.random.default_rng(97).standard_normal((3, 2, 3, 3))
        counted = count_calls(monkeypatch, as_dense_tensor)
        ratio_loss(k, HopmConfig(restarts=2, n_iters=5))
        assert len(counted) == 2


def _training_step(k, warm):
    """One step of a training loop that logs all four regularizers and takes
    their gradients, each sigma warm-started with three sweeps (the call
    sequence of perfbench's ``train`` step).  Returns the losses, the
    gradients and the next step's warm starts."""
    cfg = HopmConfig(restarts=1, n_iters=3, seed=7, warm_start=warm[0])
    cfg2 = HopmConfig(restarts=1, n_iters=3, seed=7, warm_start=warm[1])
    tn = tn_bound(k, cfg)
    losses = [tn.upper, ratio_loss(k, cfg), ocnn_loss(k)]
    two = twonorm_loss(k, cfg2)
    losses.append(two.lower)
    grads = [regularizer_gradient(which, k, config)
             for which, config in (("tn", cfg), ("ratio", cfg), ("ocnn", None), ("2norm", cfg2))]
    return losses, grads, (tn.estimate.factors, two.estimate.factors)


def _training_run(steps=3):
    """Cold solves on the initial kernel, then ``steps`` descent steps on
    ``ocnn``; yields each step's losses and gradients."""
    k = np.random.default_rng(98).standard_normal((4, 3, 3, 3)) / 6
    warm = (hopm(k, HopmConfig(seed=1)).factors,
            twonorm_loss(k, HopmConfig(seed=2)).estimate.factors)
    for _ in range(steps):
        losses, grads, warm = _training_step(k, warm)
        yield losses, grads
        k = k - 0.01 * grads[2]


class TestRememberedResults:
    """A training step solves its kernel and its gram residual once each and
    builds the residual once, with every number unchanged."""

    def test_one_solve_per_tensor_and_one_self_gram_per_step(self, monkeypatch):
        solves = count_calls(monkeypatch, HOPM._solve)
        grams = count_calls(monkeypatch, _self_gram)
        per_step = []
        for _ in _training_run():
            per_step.append((len(solves), len(grams)))
            solves.clear()
            grams.clear()
        # The initial cold solves made one of each; step 0's kernel is the
        # initial one, so its residual is the one already built.
        assert per_step == [(2 + 2, 1), (2, 1), (2, 1)]

    def test_results_are_bitwise_those_of_fresh_solves(self, monkeypatch):
        remembered = list(_training_run())
        monkeypatch.setattr(_Memo, "get", lambda self, key, arr, compute: compute(arr))
        for (losses, grads), (fresh_losses, fresh_grads) in zip(remembered, _training_run()):
            assert losses == fresh_losses
            for g, fresh in zip(grads, fresh_grads):
                assert g.tobytes() == fresh.tobytes()

    def test_residual_is_read_only_and_follows_the_kernel(self):
        k = np.random.default_rng(99).standard_normal((3, 2, 3, 3))
        first = _gram_residual(k)
        assert not first.flags.writeable
        assert _gram_residual(k.copy()) is first
        k[1, 0, 2, 2] += 0.5
        second = _gram_residual(k)
        expected = self_gram_kernel(k)
        expected[(0, 1), (0, 1), 2, 2] -= 1.0
        assert np.array_equal(second, expected)

    def test_non_finite_kernel_rejected_after_a_hit(self):
        k = np.random.default_rng(100).standard_normal((3, 2, 3, 3))
        ocnn_loss(k), ocnn_loss(k)
        k[0, 1, 1, 1] = np.inf
        with pytest.raises(ValueError, match="kernel contains non-finite entries"):
            ocnn_loss(k)

    @pytest.mark.parametrize("which, scans", [("ocnn", 2), ("2norm", 3)])
    def test_a_hit_scans_as_a_miss_does(self, which, scans, monkeypatch):
        k = np.random.default_rng(101).standard_normal((3, 2, 3, 3))
        warm = Rank1Factors(tuple(np.ones(n) for n in (2, 2, 5, 5)))  # the residual's shape
        config = HopmConfig(restarts=1, warm_start=warm)
        counted = count_calls(monkeypatch, as_dense_tensor)
        for _ in range(2):
            regularizer_gradient(which, k, config)
            assert len(counted) == scans
            counted.clear()
