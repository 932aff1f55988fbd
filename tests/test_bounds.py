"""Tests for the F4 bound, strided transform/bound, d-dim bound, public API."""

import ast
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convnorm
from convnorm import (
    ConvConfig,
    HopmConfig,
    Rank1Factors,
    build_dense_jacobian,
    circular_exact_norm,
    complex_gap_kernel,
    conv_operator,
    delta_kernel,
    f4_bound,
    hopm,
    make_bound_report,
    matrix_spectral_norm,
    ocnn_loss,
    ratio_loss,
    regularizer_gradient,
    self_gram_kernel,
    singular_value_gradient,
    strided_kernel_transform,
    tn_bound,
    tn_gradient,
    twonorm_loss,
    write_kernel,
)
from convnorm.tensor_ops import as_dense_tensor
from helpers import count_calls, dense_norm, unfold

# f4_bound's four unfoldings, (out,h|in,w), (out,w|in,h), (out|rest), (in|rest).
F4_GROUPS = (([0, 2], [1, 3]), ([0, 3], [1, 2]), ([0], [1, 2, 3]), ([1], [0, 2, 3]))
# Its eight at three spatial axes: (out,A|in,rest) for A of size 1, then 2,
# then (out|rest) and (in|rest).
GROUPS_3D = [
    ([0, 2], [1, 3, 4]), ([0, 3], [1, 2, 4]), ([0, 4], [1, 2, 3]),
    ([0, 2, 3], [1, 4]), ([0, 2, 4], [1, 3]), ([0, 3, 4], [1, 2]),
    ([0], [1, 2, 3, 4]), ([1], [0, 2, 3, 4]),
]


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

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            f4_bound(np.ones((2, 2, 3, 3)), seed=1.5)

    def test_bound_beyond_the_float_range_raises(self):
        # Every unfolding norm is 6e307, finite; times 3 it returned inf.
        with pytest.raises(ValueError, match="the F4 bound overflows the float range"):
            f4_bound(np.full((2, 2, 3, 3), 1e307))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            f4_bound(np.ones((2, 2, 3, 3)), seed=-1)

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

    @pytest.mark.parametrize("j", [-900, -500, 500, 900])
    @pytest.mark.parametrize("case", ["5x5", "16x16x3x3"])
    def test_extreme_magnitudes_scale(self, case, j):
        # Outside the safe range each Lanczos vector is normed scaled by an
        # exact power of two; unscaled, 2**900 * k overflowed and 2**-900 * k
        # read 0.
        k, seed = F4_CASES[case]
        base = f4_bound(k, seed)
        assert abs(f4_bound(2.0**j * k, seed) / 2.0**j - base) <= 1e-13 * base

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

    @pytest.mark.parametrize("stride", [1.5, 2.7, 2.0])
    def test_non_integer_stride_rejected(self, stride):
        k = np.random.default_rng(47).standard_normal((2, 2, 3, 3))
        with pytest.raises(ValueError, match=f"stride must be an integer, got {stride}"):
            strided_kernel_transform(k, stride)
        np.testing.assert_array_equal(strided_kernel_transform(k, np.int64(2)),
                                      strided_kernel_transform(k, 2))


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


def _assert_dense_below_tn_below_f4(k, n, padding, stride, seed=0):
    """On the stride-s Jacobian at input size n: dense <= TN <= F, both bounds
    computed on the regrouped kernel as ``make_bound_report`` does."""
    report = make_bound_report(k, stride=stride, hopm_config=HopmConfig(restarts=10, seed=seed))
    dense = dense_norm(build_dense_jacobian(k, ConvConfig(n, padding, stride)))
    assert dense <= report.tn.upper * (1 + 1e-6)
    assert report.tn.upper <= report.f4_upper + 1e-9


class TestAnySpatialRank:
    """F4, strides and the report take kernels with any number of spatial axes."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("shape,n", [((3, 2, 3), 8), ((2, 3, 2, 3, 3), 4)],
                             ids=["1-d", "3-d"])
    def test_dense_below_tn_below_f4(self, shape, n, padding, stride):
        k = np.random.default_rng(54).standard_normal(shape)
        _assert_dense_below_tn_below_f4(k, n, padding, stride)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        d=st.integers(1, 3),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.integers(1, 2),
        padding=st.sampled_from(["zero", "circular"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_dense_below_tn_below_f4_property(self, d, channels, stride, padding, seed, data):
        spatial = data.draw(st.tuples(*[st.integers(1, 3)] * d), label="spatial")
        n = {1: 6, 2: 6, 3: 4}[d]  # divisible by the stride, at least every kernel size
        k = np.random.default_rng(seed).standard_normal(channels + spatial)
        _assert_dense_below_tn_below_f4(k, n, padding, stride, seed=seed)

    @staticmethod
    def _assert_unfoldings(calls, k, groups):
        calls.clear()
        f4_bound(k)
        assert len(calls) == len(groups)
        for (m, *_), (rows, cols) in zip(calls, groups):
            np.testing.assert_array_equal(m, unfold(k, rows, cols))

    def test_unfoldings_at_two_spatial_axes_are_f4(self, monkeypatch):
        calls = count_calls(monkeypatch, matrix_spectral_norm)
        k = np.random.default_rng(55).standard_normal((2, 3, 3, 2))
        self._assert_unfoldings(calls, k, F4_GROUPS)

    def test_unfoldings_at_one_and_three_spatial_axes(self, monkeypatch):
        calls = count_calls(monkeypatch, matrix_spectral_norm)
        k = np.random.default_rng(56).standard_normal((2, 3, 2))
        self._assert_unfoldings(calls, k, [([0], [1, 2]), ([1], [0, 2])])
        k = np.random.default_rng(57).standard_normal((2, 3, 2, 2, 2))
        self._assert_unfoldings(calls, k, GROUPS_3D)

    def test_out_rest_unfolding_is_a_view_of_the_kernel(self, monkeypatch):
        # It was a column-major copy, like every other unfolding.
        k = np.random.default_rng(54).standard_normal((4, 3, 3, 2))
        calls = count_calls(monkeypatch, matrix_spectral_norm)
        f4_bound(k)
        shared = [np.shares_memory(m, k) for m, *_ in calls]
        assert shared == [False, False, True, False]

    def test_f4_is_the_scaled_minimum_unfolding_norm(self):
        k = np.random.default_rng(58).standard_normal((2, 3, 3, 2, 2))
        norms = [dense_norm(unfold(k, rows, cols)) for rows, cols in GROUPS_3D]
        assert abs(f4_bound(k) - math.sqrt(3 * 2 * 2) * min(norms)) <= 1e-9 * f4_bound(k)

    @pytest.mark.parametrize("shape", [(2, 3, 5), (2, 3, 3, 4, 2)], ids=["1-d", "3-d"])
    def test_strided_transform_folds_each_axis(self, shape):
        # Q[c, d*s^D + cell index, r...] = K[c, d, s*r + offset...], cell
        # index row-major over the per-axis offsets, zero past the kernel.
        k = np.random.default_rng(59).standard_normal(shape)
        s, spatial = 2, shape[2:]
        q = strided_kernel_transform(k, s)
        cells = s ** len(spatial)
        assert q.shape == (shape[0], shape[1] * cells) + tuple(-(-m // s) for m in spatial)
        for c_in in range(shape[1]):
            for cell, offsets in enumerate(np.ndindex(*(s,) * len(spatial))):
                for r in np.ndindex(*q.shape[2:]):
                    tap = tuple(s * i + o for i, o in zip(r, offsets))
                    inside = all(t < m for t, m in zip(tap, spatial))
                    expected = k[(slice(None), c_in) + tap] if inside else 0.0
                    np.testing.assert_array_equal(q[(slice(None), c_in * cells + cell) + r],
                                                  expected)


class TestConvConfig:
    def test_rejects_unknown_padding(self):
        with pytest.raises(ValueError, match="padding"):
            ConvConfig(input_size=8, padding="reflect")

    def test_stride_must_divide_input(self):
        with pytest.raises(ValueError, match="divide"):
            ConvConfig(input_size=9, stride=2).validate_for((1, 1, 3, 3))

    @pytest.mark.parametrize("field, value", [("stride", 1.5), ("input_size", 8.5),
                                              ("input_size", 8.0)])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            ConvConfig(**{"input_size": 8, field: value})
        config = ConvConfig(input_size=np.int64(8), stride=np.int32(2))
        assert config.validate_for((1, 1, 3, 3)) == ((1, 1), (1, 1))

    def test_circular_needs_room_for_kernel(self):
        with pytest.raises(ValueError, match="circular"):
            ConvConfig(input_size=4, padding="circular").validate_for((1, 1, 5, 5))

    @pytest.mark.parametrize("call", [
        tn_bound,
        lambda k: tn_gradient(k, Rank1Factors((np.ones(2), np.ones(2)))),
        lambda k: ConvConfig(input_size=8).validate_for(k.shape),
        lambda k: delta_kernel(k.shape),
        f4_bound,
        lambda k: strided_kernel_transform(k, 2),
        lambda k: circular_exact_norm(k, ConvConfig(8, "circular")),
        self_gram_kernel,
        ocnn_loss,
        twonorm_loss,
        ratio_loss,
        lambda k: regularizer_gradient("tn", k),
        lambda k: regularizer_gradient("ratio", k),
        lambda k: regularizer_gradient("ocnn", k),
        lambda k: regularizer_gradient("2norm", k),
    ], ids=["tn_bound", "tn_gradient", "validate_for", "delta_kernel", "f4_bound",
            "strided_kernel_transform", "circular_exact_norm", "self_gram_kernel",
            "ocnn_loss", "twonorm_loss", "ratio_loss", "regularizer_gradient-tn",
            "regularizer_gradient-ratio", "regularizer_gradient-ocnn",
            "regularizer_gradient-2norm"])
    def test_one_spatial_axis_message(self, call, monkeypatch):
        solves = count_calls(monkeypatch, hopm)
        message = "expected a kernel with at least one spatial axis, got shape (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(np.ones((2, 2)))
        assert solves == []


class TestBoundReport:
    def test_non_integer_stride_rejected_before_any_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, hopm)
        with pytest.raises(ValueError, match="stride must be an integer, got 1.5"):
            make_bound_report(np.ones((2, 2, 3, 3)), stride=1.5)
        assert solves == []

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

    @pytest.mark.parametrize("stride", [1, 2])
    def test_scans_its_kernel_at_most_three_times(self, stride, monkeypatch):
        # One scan each in strided_kernel_transform, hopm and f4_bound.
        k = np.random.default_rng(53).standard_normal((3, 2, 3, 3))
        scans = count_calls(monkeypatch, as_dense_tensor)
        make_bound_report(k, stride=stride, hopm_config=HopmConfig(restarts=2, n_iters=5))
        assert len(scans) <= 3


def _basis_factors(k) -> Rank1Factors:
    """The first basis vector on every axis of ``k``."""
    return Rank1Factors(tuple(np.eye(n, 1, dtype=np.complex128).ravel() for n in k.shape))


class TestPublicApi:
    def test_all_is_pinned(self):
        assert sorted(convnorm.__all__) == [
            "BoundReport", "ConvConfig", "HopmConfig", "LinearOperatorHandle",
            "Rank1Factors", "SigmaEstimate", "TnBound",
            "build_dense_jacobian", "circular_exact_norm", "complex_gap_kernel", "conv_operator",
            "delta_kernel", "f4_bound", "frobenius", "gaussian_kernel", "hopm",
            "make_bound_report", "matrix_spectral_norm", "ocnn_loss",
            "power_method", "ratio_loss", "read_kernel", "regularizer_gradient",
            "self_gram_kernel", "singular_value_gradient", "strided_kernel_transform",
            "tn_bound", "tn_gradient", "twonorm_loss", "uniform_kernel", "write_kernel",
        ]
        for name in convnorm.__all__:
            assert hasattr(convnorm, name), name
        # The sigma gradient and F4 read the kernel through their own row-major
        # views; no form or unfolding helper is left in any namespace.
        assert convnorm.tensor_ops.__all__ == [
            "as_dense_tensor", "matrix_spectral_norm", "frobenius",
        ]
        for module in (convnorm, convnorm.tensor_ops, convnorm.hopm, convnorm.bounds):
            for name in ("partial_contraction", "multilinear_form", "unfold",
                         "_multilinear_form", "_unfold"):
                assert not hasattr(module, name), (module.__name__, name)
        # The engine has one, complex, mode: no field switches it to real vectors.
        assert [f.name for f in dataclasses.fields(convnorm.HopmConfig)] == [
            "n_iters", "tol", "restarts", "seed", "warm_start",
        ]
        # One Jacobian per (input size, padding, stride): the padding is always
        # centered, and no field picks another layout.
        assert convnorm.ConvConfig is convnorm.oracle.ConvConfig
        assert [f.name for f in dataclasses.fields(convnorm.ConvConfig)] == [
            "input_size", "padding", "stride",
        ]
        with pytest.raises(TypeError, match="offsets"):
            convnorm.ConvConfig(8, offsets=((1, 1),))
        # perfbench's ladder workload calls this alias; dropping it breaks the benchmark.
        assert convnorm.tn_bound_ddim is convnorm.tn_bound
        # perfbench's train workload reads twonorm_loss(...).sigma; likewise.
        two = convnorm.twonorm_loss(np.ones((1, 1, 2, 2)))
        assert two.sigma == two.lower

    def test_benchmark_calls_exist(self):
        # perfbench/workloads.py runs the benchmark's workloads through the
        # package; a name it takes that the package lost would fail only
        # there.  Read it as source, without importing it, and look up every
        # attribute it takes from ``import convnorm as ...`` or
        # ``from convnorm import ...``.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "workloads.py")) as fh:
            tree = ast.parse(fh.read())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, convnorm) for a in node.names
                             if a.name == "convnorm")
            elif isinstance(node, ast.ImportFrom) and node.module == "convnorm":
                for a in node.names:  # a name, or a submodule such as cli
                    bound[a.asname or a.name] = (getattr(convnorm, a.name, None)
                                                 or importlib.import_module(f"convnorm.{a.name}"))
        taken = [(bound[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in bound]
        assert (convnorm, "hopm") in taken and (convnorm.cli, "main") in taken
        for owner, name in taken:
            assert hasattr(owner, name), (owner.__name__, name)
        # The train workload reads twonorm_loss(...).sigma, a TnBound field.
        assert hasattr(convnorm.TnBound, "sigma")

    def test_runtime_needs_only_numpy(self):
        # numpy is the one runtime dependency.  Other packages may be
        # installed next to it, so an import of one would pass every other
        # test; this run lists the top-level packages that importing
        # convnorm and its CLI loads, leaving out the standard library and
        # what the interpreter loaded at startup.
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import convnorm, convnorm.cli\n"
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert json.loads(run.stdout) == ["convnorm", "numpy"]

    @pytest.mark.parametrize("entry", ["nan", "inf", "empty axis", "complex"])
    @pytest.mark.parametrize("call", [
        hopm,
        tn_bound,
        lambda k: tn_gradient(k, _basis_factors(k)),
        f4_bound,
        lambda k: strided_kernel_transform(k, 2),
        make_bound_report,
        self_gram_kernel,
        lambda k: circular_exact_norm(k, ConvConfig(8, "circular")),
        lambda k: conv_operator(k, ConvConfig(8)),
        lambda k: build_dense_jacobian(k, ConvConfig(8)),
        ocnn_loss,
        twonorm_loss,
        ratio_loss,
        lambda k: regularizer_gradient("tn", k),
        lambda k: regularizer_gradient("ratio", k),
        lambda k: regularizer_gradient("ocnn", k),
        lambda k: regularizer_gradient("2norm", k),
        lambda k: singular_value_gradient(k, _basis_factors(k)),
        lambda k: write_kernel(os.devnull, k),
    ], ids=["hopm", "tn_bound", "tn_gradient", "f4_bound", "strided_kernel_transform",
            "make_bound_report", "self_gram_kernel", "circular_exact_norm", "conv_operator",
            "build_dense_jacobian", "ocnn_loss", "twonorm_loss", "ratio_loss",
            "regularizer_gradient-tn", "regularizer_gradient-ratio",
            "regularizer_gradient-ocnn", "regularizer_gradient-2norm",
            "singular_value_gradient", "write_kernel"])
    def test_kernel_entry_points_reject_bad_kernels(self, call, entry):
        if entry == "empty axis":
            k, message = np.ones((2, 0, 3, 3)), "kernel must be nonempty"
        elif entry == "complex":
            # Not cut to its real part: that would bound a different kernel.
            k = np.full((2, 2, 3, 3), 1.0 + 1.0j)
            message = "kernel must be real, got a complex array"
        else:
            k, message = np.ones((2, 2, 3, 3)), "kernel contains non-finite entries"
            k[1, 0, 2, 1] = float(entry)
        with pytest.raises(ValueError, match=message):
            call(k)
