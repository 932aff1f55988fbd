"""Tests for the higher-order power method, the sandwich, and its gradient."""

import numpy as np
import pytest

from convnorm import (
    HopmConfig,
    Rank1Factors,
    complex_gap_kernel,
    hopm,
    matrix_spectral_norm,
    multilinear_form,
    singular_value_gradient,
    tn_bound,
    tn_gradient,
)
from convnorm.bounds import strided_kernel_transform
from convnorm.tensor_ops import as_dense_tensor
from helpers import (
    P_IM,
    P_REAL,
    REFERENCE_SHAPES,
    count_calls,
    fd_gradient,
    multistart_rank1,
    rel_err_max,
    sequential_hopm,
    shape_id,
    singular_value_gradient_signs,
)

P_REAL_DISPLAY = np.array([[1, 0, 0, -1, 0, -1, -1, 0], [0, -1, -1, 0, -1, 0, 0, 1]], float)
P_IM_DISPLAY = np.array([[0, 1, 1, 0, 1, 0, 0, -1], [1, 0, 0, -1, 0, -1, -1, 0]], float)


class TestHopm:
    def test_single_entry_tensor(self):
        k = np.zeros((2, 2, 2, 2))
        k[0, 0, 0, 0] = 5.0
        est = hopm(k, HopmConfig(seed=1))
        assert abs(est.sigma - 5.0) < 1e-10

    def test_gap_kernel_complex_value(self):
        est = hopm(complex_gap_kernel(), HopmConfig(seed=2))
        assert abs(est.sigma - 4.0) < 1e-8
        assert est.converged
        # The maximizers put each factor on (1, +-i)/sqrt(2) up to phase,
        # with a consistent sign across all four axes.
        signs = set()
        for f in est.factors.factors:
            assert abs(abs(f[0]) - 1 / np.sqrt(2)) < 1e-7
            ratio = f[1] / f[0]
            assert abs(abs(ratio) - 1.0) < 1e-7
            signs.add(round(np.sign(ratio.imag)))
        assert len(signs) == 1

    def test_gap_kernel_real_restricted_value(self):
        est = hopm(complex_gap_kernel(), HopmConfig(seed=2, real_restricted=True))
        assert abs(est.sigma - 2.0) < 1e-8
        for f in est.factors.factors:
            assert np.max(np.abs(f.imag)) == 0.0

    def test_matches_multistart_ascent_oracle(self):
        rng = np.random.default_rng(21)
        k = rng.standard_normal((2, 2, 3, 3))
        oracle = multistart_rank1(k, n_starts=2048, iters=400, seed=5)
        est = hopm(k, HopmConfig(n_iters=400, tol=1e-13, restarts=10, seed=6))
        assert abs(est.sigma - oracle) < 1e-6 * oracle

    def test_zero_tensor(self):
        est = hopm(np.zeros((2, 3, 2)), HopmConfig(seed=0))
        assert est.sigma == 0.0
        assert est.converged
        for f in est.factors.factors:
            assert abs(np.linalg.norm(f) - 1.0) < 1e-12

    def test_objective_monotone_per_sweep(self):
        rng = np.random.default_rng(22)
        for trial in range(5):
            k = rng.standard_normal((3, 2, 4, 2))
            est = hopm(k, HopmConfig(n_iters=60, tol=0.0, restarts=1, seed=trial))
            hist = np.array(est.objective_history)
            assert np.all(np.diff(hist) >= -1e-12 * hist[-1])

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(23)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(seed=77)
        a, b = hopm(k, config), hopm(k, config)
        assert a.sigma == b.sigma
        assert a.iterations_used == b.iterations_used
        for fa, fb in zip(a.factors.factors, b.factors.factors):
            assert np.array_equal(fa, fb)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(24)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(seed=9)
        base = hopm(k, config).sigma
        scaled = hopm(3.7 * k, config).sigma
        assert abs(scaled - 3.7 * base) < 1e-10 * scaled

    def test_complex_dominates_real(self):
        rng = np.random.default_rng(25)
        for trial in range(5):
            k = rng.standard_normal((2, 2, 2, 2))
            c = hopm(k, HopmConfig(seed=trial)).sigma
            r = hopm(k, HopmConfig(seed=trial, real_restricted=True)).sigma
            assert c >= r - 1e-9

    def test_phase_invariance_of_value(self):
        rng = np.random.default_rng(26)
        k = rng.standard_normal((2, 2, 3, 3))
        est = hopm(k, HopmConfig(seed=4))
        phases = np.exp(1j * np.array([0.4, -1.1, 2.2, 0.9]))
        rephased = [p * f for p, f in zip(phases, est.factors.factors)]
        assert abs(abs(multilinear_form(k, rephased)) - est.sigma) < 1e-10

    def test_warm_start_converges_immediately(self):
        rng = np.random.default_rng(27)
        k = rng.standard_normal((2, 2, 3, 3))
        base = hopm(k, HopmConfig(seed=3, n_iters=300, tol=1e-13))
        warm = hopm(k, HopmConfig(seed=99, restarts=1, warm_start=base.factors))
        assert warm.iterations_used <= 3
        assert abs(warm.sigma - base.sigma) < 1e-9

    def test_factors_validate(self):
        rng = np.random.default_rng(28)
        k = rng.standard_normal((2, 2, 3, 3))
        est = hopm(k, HopmConfig(seed=1))
        for f in est.factors.factors:
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-10
        value = abs(multilinear_form(k, est.factors.factors))
        assert abs(value - est.sigma) <= 1e-13 * est.sigma

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="n_iters"):
            HopmConfig(n_iters=0)
        with pytest.raises(ValueError, match="restarts"):
            HopmConfig(restarts=0)
        for tol in (-1e-3, float("nan")):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                HopmConfig(tol=tol)

    def test_warm_start_factors_checked(self):
        k = np.ones((2, 3, 2))
        bad = {"expected 3 vectors": (np.ones(2), np.ones(3)),
               "axis 1: vector of length 2": (np.ones(2), np.ones(2), np.ones(2))}
        for message, factors in bad.items():
            with pytest.raises(ValueError, match=message):
                hopm(k, HopmConfig(warm_start=Rank1Factors(factors)))


def _single_entry_kernel():
    k = np.zeros((2, 2, 2, 2))
    k[0, 0, 0, 0] = 5.0
    return k


_E1 = np.array([0.0, 1.0])
_MIXED = np.array([0.6, 0.8j])

# (kernel, config kwargs) pairs; every warm start is restart 0 of a batch.
EQUIVALENCE_CASES = {
    "2-axis": (np.random.default_rng(40).standard_normal((5, 4)), {}),
    "3-axis": (np.random.default_rng(41).standard_normal((4, 3, 5)), {}),
    "4-axis": (np.random.default_rng(42).standard_normal((3, 4, 3, 3)), {}),
    "5-axis": (np.random.default_rng(43).standard_normal((2, 3, 2, 3, 2)), {}),
    "stride-2 Q": (
        strided_kernel_transform(np.random.default_rng(44).standard_normal((3, 2, 5, 5)), 2),
        {},
    ),
    "real-restricted": (
        np.random.default_rng(45).standard_normal((3, 4, 3, 3)), {"real_restricted": True},
    ),
    "warm start": (
        np.random.default_rng(46).standard_normal((3, 4, 3, 3)),
        {"warm_start": tuple(np.full(n, 1.0 + 0.5j) for n in (3, 4, 3, 3)), "restarts": 3},
    ),
    # The shape of a training step's call: one warm-started restart, three sweeps.
    "one warm restart, three sweeps": (
        np.random.default_rng(47).standard_normal((6, 5, 3, 3)),
        {"warm_start": tuple(np.full(n, 1.0 - 0.25j) for n in (6, 5, 3, 3)),
         "restarts": 1, "n_iters": 3},
    ),
    # c_in * S = 144 > c_out = 4: the remainder is wider than axis 0.
    "wide kernel": (np.random.default_rng(48).standard_normal((4, 16, 3, 3)), {}),
    # Axis 0's first contraction is zero (u1 misses the support), later ones are not.
    "zero contraction, recovers": (
        _single_entry_kernel(),
        {"warm_start": (_MIXED, _E1, _MIXED, _MIXED), "restarts": 3},
    ),
    # Every contraction of restart 0 is zero, so it keeps its start and reads 0.
    "zero contraction, stuck": (
        _single_entry_kernel(),
        {"warm_start": (_E1, _E1, _MIXED, _MIXED), "restarts": 3},
    ),
}


class TestBatchedEngine:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_matches_sequential_oracle(self, case):
        k, kwargs = EQUIVALENCE_CASES[case]
        kwargs = {"seed": 8, "restarts": 4, **kwargs}
        ref = sequential_hopm(k, **kwargs)
        if kwargs.get("warm_start") is not None:
            kwargs["warm_start"] = Rank1Factors(kwargs["warm_start"])
        est = hopm(k, HopmConfig(**kwargs))
        assert len(est.restart_sigmas) == len(ref)
        for r, (sigma, _, sweeps, converged, _) in enumerate(ref):
            assert abs(est.restart_sigmas[r] - sigma) <= 1e-12 * max(sigma, 1e-300)
            assert est.restart_sweeps[r] == sweeps
            assert est.restart_converged[r] == converged
        # Restarts that reach the same optimum tie up to rounding, so the
        # winner is checked as a restart whose reference value is maximal.
        best = est.restart_sigmas.index(est.sigma)
        sigma, factors, sweeps, converged, history = ref[best]
        assert sigma >= (1.0 - 1e-12) * max(t[0] for t in ref)
        assert est.iterations_used == sweeps
        assert est.converged == converged
        np.testing.assert_allclose(est.objective_history, history, rtol=1e-12, atol=0.0)
        for f, g in zip(est.factors.factors, factors):
            np.testing.assert_allclose(f, g, rtol=0.0, atol=1e-10)
        if kwargs.get("real_restricted"):
            for f in est.factors.factors:
                assert np.max(np.abs(f.imag)) == 0.0
        if case == "zero contraction, stuck":
            assert est.restart_sigmas[0] == 0.0 and est.restart_converged[0]
        # The value is the last sweep's, bit for bit, and the form's modulus
        # at the returned factors up to rounding.
        assert est.sigma == est.objective_history[-1]
        assert abs(abs(multilinear_form(k, est.factors.factors)) - est.sigma) <= 1e-13 * est.sigma

    def test_exact_ties_keep_earliest_restart(self):
        # Real unit scalars are exactly +-1, so every restart reads exactly 3
        # and only its sign tells the restarts apart.
        k = np.array([[3.0]])
        ref = sequential_hopm(k, restarts=4, seed=0, real_restricted=True)
        assert {t[1][0][0].real for t in ref} == {1.0, -1.0}
        est = hopm(k, HopmConfig(restarts=4, seed=0, real_restricted=True))
        assert est.restart_sigmas == (3.0,) * 4
        for f, g in zip(est.factors.factors, ref[0][1]):
            assert np.array_equal(f, g)

    def test_per_restart_record(self):
        rng = np.random.default_rng(47)
        k = rng.standard_normal((3, 3, 2, 2))
        est = hopm(k, HopmConfig(seed=5, restarts=6, n_iters=30))
        assert len(est.restart_sigmas) == len(est.restart_sweeps) == 6
        assert len(est.restart_converged) == 6
        best = est.restart_sigmas.index(max(est.restart_sigmas))
        assert est.sigma == est.restart_sigmas[best]
        assert est.iterations_used == est.restart_sweeps[best]
        assert est.converged == est.restart_converged[best]
        assert len(est.objective_history) == est.iterations_used
        assert est.restarts_used == 6
        for converged, sweeps in zip(est.restart_converged, est.restart_sweeps):
            # the stopping test compares two sweeps; otherwise the cap stops it
            assert 2 <= sweeps <= 30 if converged else sweeps == 30
        zero = hopm(np.zeros((2, 2, 2)))
        assert zero.restart_sigmas == zero.restart_sweeps == zero.restart_converged == ()
        assert zero.iterations_used == zero.restarts_used == 0


class TestTnBound:
    def test_exact_for_pointwise_kernels(self):
        rng = np.random.default_rng(30)
        k = rng.standard_normal((4, 4, 1, 1))
        bound = tn_bound(k, HopmConfig(n_iters=1000, tol=1e-14, restarts=4, seed=2))
        assert bound.upper == bound.lower
        matrix = matrix_spectral_norm(k[:, :, 0, 0], iters=2000, tol=1e-14, seed=3)
        assert abs(bound.upper - matrix) < 1e-9 * matrix

    def test_gap_kernel_upper_is_eight(self):
        bound = tn_bound(complex_gap_kernel(), HopmConfig(seed=1))
        assert abs(bound.upper - 8.0) < 1e-7
        assert abs(bound.lower - 4.0) < 1e-8

    def test_ends_derive_from_estimate_and_scale(self):
        k = np.random.default_rng(36).standard_normal((2, 3, 2, 3, 2))
        bound = tn_bound(k, HopmConfig(seed=6))
        assert bound.scale == np.sqrt(12.0)
        assert bound.lower == bound.estimate.sigma
        assert bound.upper == bound.scale * bound.estimate.sigma

    def test_rejects_kernel_without_spatial_axis(self):
        with pytest.raises(ValueError, match="spatial axis"):
            tn_bound(np.ones((2, 2)))


class TestTnGradient:
    def test_rank_one_kernel_closed_form(self):
        e_c = np.array([1.0, 0.0])
        e_s = np.array([0.0, 1.0, 0.0])
        k = 5.0 * np.einsum("a,b,c,d->abcd", e_c, e_c, e_s, e_s)
        est = hopm(k, HopmConfig(seed=5))
        grad = tn_gradient(k, est.factors)
        expected = 3.0 * np.einsum("a,b,c,d->abcd", e_c, e_c, e_s, e_s)
        np.testing.assert_allclose(grad, expected, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        k = rng.standard_normal((2, 2, 3, 3))
        config = HopmConfig(n_iters=400, tol=1e-13, restarts=8, seed=7)
        est = hopm(k, config)
        grad = tn_gradient(k, est.factors)
        warm = HopmConfig(n_iters=400, tol=1e-14, restarts=1, seed=7, warm_start=est.factors)
        numeric = fd_gradient(lambda kk: tn_bound(kk, warm).upper, k, step=1e-5)
        mask = np.abs(grad) > 1e-8
        rel = np.max(np.abs(numeric[mask] - grad[mask]) / np.abs(grad[mask]))
        assert rel <= 1e-5

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 3, 2, 3, 2)], ids=shape_id)
    def test_matches_finite_differences_any_spatial_rank(self, shape):
        rng = np.random.default_rng(34)
        k = rng.standard_normal(shape)
        est = hopm(k, HopmConfig(n_iters=400, tol=1e-13, restarts=8, seed=7))
        grad = tn_gradient(k, est.factors)
        warm = HopmConfig(n_iters=400, tol=1e-14, restarts=1, seed=7, warm_start=est.factors)
        numeric = fd_gradient(lambda kk: tn_bound(kk, warm).upper, k, step=1e-5)
        assert rel_err_max(grad, numeric) <= 1e-6

    def test_sigma_gradient_of_a_matrix_is_the_singular_pair(self):
        # For a matrix, d sigma / d M = u v^T at the top singular pair; the
        # factors converge like the square root of the value, hence atol.
        m = np.random.default_rng(35).standard_normal((4, 3))
        left, _, right_h = np.linalg.svd(m)
        est = hopm(m, HopmConfig(n_iters=1000, tol=1e-15, seed=2))
        grad = singular_value_gradient(m, est.factors)
        np.testing.assert_allclose(grad, np.outer(left[:, 0], right_h[0]), atol=1e-7)

    def test_value_is_read_at_the_factors(self):
        # Unit factors that did not come from hopm: the gradient must be that
        # of |[[k; u]]| at these factors, whatever value a solve reported.
        rng = np.random.default_rng(37)
        k = rng.standard_normal((3, 4, 2, 3))
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in k.shape]
        us = tuple(u / np.linalg.norm(u) for u in us)
        grad = singular_value_gradient(k, Rank1Factors(us))
        numeric = fd_gradient(lambda kk: abs(multilinear_form(kk, us)), k, step=1e-5)
        assert rel_err_max(grad, numeric) <= 1e-8

    def test_scans_its_kernel_once(self, monkeypatch):
        k = np.random.default_rng(38).standard_normal((3, 2, 3, 3))
        factors = hopm(k, HopmConfig(restarts=2, seed=1)).factors
        expected = singular_value_gradient(k, factors)
        scans = count_calls(monkeypatch, as_dense_tensor)
        np.testing.assert_array_equal(singular_value_gradient(k, factors), expected)
        assert len(scans) == 1

    def test_shape_errors(self):
        factors = Rank1Factors(tuple(np.ones(n) / np.sqrt(n) for n in (2, 2, 3)))
        with pytest.raises(ValueError, match="expected 4 vectors"):
            singular_value_gradient(np.ones((2, 2, 3, 3)), factors)
        with pytest.raises(ValueError, match="spatial axis"):
            tn_gradient(np.ones((2, 2)), Rank1Factors((np.ones(2), np.ones(2))))

    def test_sign_tensor_displays(self):
        np.testing.assert_array_equal(P_REAL.reshape(2, 8), P_REAL_DISPLAY)
        np.testing.assert_array_equal(P_IM.reshape(2, 8), P_IM_DISPLAY)

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=shape_id)
    def test_closed_form_matches_sign_tensor_reference(self, shape):
        rng = np.random.default_rng(33)
        k = rng.standard_normal(shape)
        us = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in shape]
        us = [u / np.linalg.norm(u) for u in us]
        factors = Rank1Factors(tuple(us))
        grad = singular_value_gradient(k, factors)
        assert rel_err_max(singular_value_gradient_signs(k, factors), grad) <= 1e-13

    def test_gradient_phase_invariant(self):
        rng = np.random.default_rng(32)
        k = rng.standard_normal((2, 2, 3, 3))
        est = hopm(k, HopmConfig(seed=3))
        grad = tn_gradient(k, est.factors)
        phases = np.exp(1j * np.array([0.3, -0.8, 1.9, -2.4]))
        rephased = Rank1Factors(tuple(p * f for p, f in zip(phases, est.factors.factors)))
        np.testing.assert_allclose(tn_gradient(k, rephased), grad, atol=1e-10)

    def test_zero_sigma_raises(self):
        factors = Rank1Factors(tuple(np.ones(2, complex) / np.sqrt(2) for _ in range(4)))
        with pytest.raises(ValueError, match="undefined at zero norm"):
            tn_gradient(np.zeros((2, 2, 2, 2)), factors)
