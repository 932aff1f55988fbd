"""Tests for the higher-order power method, the sandwich, and its gradient."""

import dataclasses
import importlib
import sys
import threading

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from convnorm import (
    HopmConfig,
    Rank1Factors,
    complex_gap_kernel,
    hopm,
    matrix_spectral_norm,
    ratio_loss,
    regularizer_gradient,
    singular_value_gradient,
    tn_bound,
    tn_gradient,
    twonorm_loss,
)
from convnorm.bounds import strided_kernel_transform
from convnorm.tensor_ops import as_dense_tensor
from helpers import (
    P_IM,
    P_REAL,
    REFERENCE_SHAPES,
    count_calls,
    fd_gradient,
    multilinear_einsum,
    multistart_rank1,
    rel_err_max,
    sequential_hopm,
    shape_id,
    singular_value_gradient_signs,
)

# The package binds the function ``hopm`` over its module's name.
HOPM = importlib.import_module("convnorm.hopm")

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
        # Over real vectors (the reference HOPM; the library has no real
        # mode) the best value is only half the complex one.
        ref = sequential_hopm(complex_gap_kernel(), seed=2, real_restricted=True)
        sigma, factors = max(ref, key=lambda t: t[0])[:2]
        assert abs(sigma - 2.0) < 1e-8
        for f in factors:
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
            config = HopmConfig(n_iters=60, tol=0.0, restarts=1, seed=trial)
            est = hopm(k, config)
            steps = np.diff(est.objective_history)
            # The first s entries of a cold solve come from float32 sweeps, so
            # a step that touches one of them carries float32 rounding.
            s = len(_float32_start(k, config)[1])
            assert np.all(steps[:s] >= -1e-6 * est.sigma)
            assert np.all(steps[s:] >= -1e-12 * est.sigma)
            # A warm-started solve runs in float64 from its first sweep.
            vs = np.random.default_rng(100 + trial).standard_normal((2, sum(k.shape)))
            warm = Rank1Factors(tuple(np.split(vs[0] + 1j * vs[1], np.cumsum(k.shape)[:-1])))
            est = hopm(k, HopmConfig(**{**vars(config), "warm_start": warm}))
            steps = np.diff(est.objective_history)
            assert np.all(steps >= -1e-12 * est.sigma)

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
            r = max(t[0] for t in sequential_hopm(k, seed=trial, real_restricted=True))
            assert c >= r - 1e-9

    def test_phase_invariance_of_value(self):
        rng = np.random.default_rng(26)
        k = rng.standard_normal((2, 2, 3, 3))
        est = hopm(k, HopmConfig(seed=4))
        phases = np.exp(1j * np.array([0.4, -1.1, 2.2, 0.9]))
        rephased = [p * f for p, f in zip(phases, est.factors.factors)]
        assert abs(abs(multilinear_einsum(k, rephased)) - est.sigma) < 1e-10

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
        value = abs(multilinear_einsum(k, est.factors.factors))
        assert abs(value - est.sigma) <= 1e-13 * est.sigma

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="n_iters"):
            HopmConfig(n_iters=0)
        with pytest.raises(ValueError, match="restarts"):
            HopmConfig(restarts=0)
        for tol in (-1e-3, float("nan")):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                HopmConfig(tol=tol)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            HopmConfig(seed=-1)

    @pytest.mark.parametrize("field", ["n_iters", "restarts", "seed"])
    def test_non_integer_budget_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            HopmConfig(**{field: 2.5})
        k = np.random.default_rng(39).standard_normal((2, 2, 3))
        config = HopmConfig(**{field: np.int64(2)})
        assert hopm(k, config).sigma == hopm(k, HopmConfig(**{field: 2})).sigma

    def test_warm_start_factors_checked(self):
        k = np.ones((2, 3, 2))
        bad = {"expected 3 vectors": (np.ones(2), np.ones(3)),
               "axis 1: vector of length 2": (np.ones(2), np.ones(2), np.ones(2))}
        for message, factors in bad.items():
            with pytest.raises(ValueError, match=message):
                hopm(k, HopmConfig(warm_start=Rank1Factors(factors)))

    # A zero or non-finite warm vector has no unit direction.  Scaled anyway,
    # it started restart 0 at NaN; with every axis bad, that restart won the
    # argmax and the bound came out NaN.  The first bad axis is named.
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("axes", [(2,), (0, 1, 2, 3)])
    def test_warm_start_must_be_nonzero_and_finite(self, bad, axes):
        k = np.random.default_rng(29).standard_normal((2, 3, 3, 3))
        factors = [np.full(n, bad if axis in axes else 1.0, dtype=complex)
                   for axis, n in enumerate(k.shape)]
        with pytest.raises(ValueError,
                           match=f"warm_start axis {axes[0]}: vector must be nonzero and finite"):
            tn_bound(k, HopmConfig(warm_start=Rank1Factors(tuple(factors))))

    @pytest.mark.parametrize("warm", [False, True])
    def test_factors_are_read_only(self, warm):
        k = np.random.default_rng(30).standard_normal((3, 2, 3, 3))
        cold = hopm(k, HopmConfig(seed=4))
        est = hopm(k, HopmConfig(restarts=1, warm_start=cold.factors)) if warm else cold
        for f in est.factors.factors:
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0
        # Read-only factors still seed a warm start.
        again = hopm(k, HopmConfig(restarts=1, n_iters=3, warm_start=est.factors))
        assert abs(again.sigma - cold.sigma) <= 1e-9 * cold.sigma

    def test_zero_tensor_factors_are_read_only(self):
        for f in hopm(np.zeros((2, 3, 2))).factors.factors:
            assert not f.flags.writeable


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


def _float32_start(k, config):
    """The float32 start of a cold ``hopm(k, config)``: the factors it hands
    to the float64 sweeps and its ``(sweeps, restarts)`` values."""
    us = HOPM._starting_points(k.shape, config, [])
    rows = HOPM._run_stages(k.shape, HOPM._stages(k, config, [])[:1], us)[0]
    return us, np.array(rows)


class TestBatchedEngine:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_matches_sequential_oracle(self, case):
        k, kwargs = EQUIVALENCE_CASES[case]
        kwargs = {"seed": 8, "restarts": 4, **kwargs}
        if kwargs.get("warm_start") is not None:
            # A warm-started solve runs in float64 from its first sweep.
            ref = sequential_hopm(k, **kwargs)
            screened = np.empty((0, kwargs["restarts"]))
            kwargs["warm_start"] = Rank1Factors(kwargs["warm_start"])
        else:
            # A cold solve starts in float32; its float64 sweeps are checked
            # one restart at a time from the factors the float32 sweeps hand
            # over, with the budget that remains.
            us, screened = _float32_start(k, HopmConfig(**kwargs))
            left = HopmConfig(**kwargs).n_iters - len(screened)
            assert len(screened) >= 1 and left >= 2
            ref = [sequential_hopm(k, n_iters=left, restarts=1, warm_start=[u[r] for u in us])[0]
                   for r in range(kwargs["restarts"])]
        est = hopm(k, HopmConfig(**kwargs))
        s = len(screened)
        assert len(est.restart_sigmas) == len(ref)
        for r, (sigma, _, sweeps, converged, _) in enumerate(ref):
            assert abs(est.restart_sigmas[r] - sigma) <= 1e-12 * max(sigma, 1e-300)
            assert est.restart_sweeps[r] == s + sweeps
            assert est.restart_converged[r] == converged
        # Restarts that reach the same optimum tie up to rounding, so the
        # winner is checked as a restart whose reference value is maximal.
        best = est.restart_sigmas.index(est.sigma)
        sigma, factors, sweeps, converged, history = ref[best]
        assert sigma >= (1.0 - 1e-12) * max(t[0] for t in ref)
        assert est.iterations_used == s + sweeps
        assert est.converged == converged
        assert est.objective_history[:s] == tuple(screened[:, best])
        np.testing.assert_allclose(est.objective_history[s:], history, rtol=1e-12, atol=0.0)
        for f, g in zip(est.factors.factors, factors):
            np.testing.assert_allclose(f, g, rtol=0.0, atol=1e-10)
        if case == "zero contraction, stuck":
            assert est.restart_sigmas[0] == 0.0 and est.restart_converged[0]
        # The value is the last sweep's, bit for bit, and the form's modulus
        # at the returned factors up to rounding.
        assert est.sigma == est.objective_history[-1]
        assert abs(abs(multilinear_einsum(k, est.factors.factors)) - est.sigma) <= 1e-13 * est.sigma

    def test_exact_ties_keep_earliest_restart(self, monkeypatch):
        # Starts of +-1 make every restart read exactly 3, and only the signs
        # tell the restarts apart: the sweeps take the start (u0, u1) to
        # (u1, u1), so restart 0 alone ends on (-1, -1), every later one on (1, 1).
        k = np.array([[3.0]])
        starts = [np.ones((4, 1), dtype=complex),
                  np.array([[-1.0], [1.0], [1.0], [1.0]], dtype=complex)]
        ref = [sequential_hopm(k, restarts=1, warm_start=[s[r] for s in starts])[0]
               for r in range(4)]
        assert {t[1][0][0].real for t in ref} == {1.0, -1.0}
        monkeypatch.setattr(HOPM, "_starting_points", lambda *_: [s.copy() for s in starts])
        est = hopm(k, HopmConfig(restarts=4))
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

    def test_huge_budget_that_converges_early(self):
        # The record grows with the sweeps run, not with the budget.
        k = np.random.default_rng(60).standard_normal((4, 4, 3, 3))
        est = hopm(k, HopmConfig(n_iters=10**12, tol=1e-6))
        assert est.converged and all(est.restart_converged)
        assert est.restart_sweeps == (24, 37, 22, 30, 77, 34, 42, 36, 22, 22)


def _sweep_dtypes(monkeypatch) -> list:
    """Wrap the engine's sweep; returns a list that gets the factors' dtype
    of every sweep."""
    dtypes = []
    sweep = HOPM._sweep

    def recorded(k0, shape, us, scripts):
        dtypes.append(us[0].dtype)
        return sweep(k0, shape, us, scripts)

    monkeypatch.setattr(HOPM, "_sweep", recorded)
    return dtypes


# The shapes the quality and scale tests run on: 4-axis, 5x5, 3-D, wide,
# a 2-axis matrix and the shape of a regrouped stride-2 kernel.
PRECISION_SHAPES = [
    (8, 8, 3, 3), (6, 4, 5, 5), (3, 4, 2, 3, 2), (4, 16, 3, 3), (9, 7), (3, 12, 2, 2),
]


class TestPrecision:
    """A cold solve of more than two sweeps starts in float32 and finishes
    in float64; warm-started and shorter solves run in float64 throughout."""

    def test_cold_solve_switches_once(self, monkeypatch):
        k = np.random.default_rng(50).standard_normal((6, 5, 3, 3))
        dtypes = _sweep_dtypes(monkeypatch)
        est = hopm(k, HopmConfig(seed=3))
        s = dtypes.count(np.complex64)
        assert s >= 1
        assert dtypes == [np.complex64] * s + [np.complex128] * (len(dtypes) - s)
        assert len(dtypes) == max(est.restart_sweeps)
        # Every reported value comes from a float64 sweep, at the factors.
        for f in est.factors.factors:
            assert f.dtype == np.complex128
        assert abs(abs(multilinear_einsum(k, est.factors.factors)) - est.sigma) <= 1e-13 * est.sigma

    @pytest.mark.parametrize("n_iters", [1, 2])
    def test_short_cold_solves_never_switch(self, n_iters, monkeypatch):
        k = np.random.default_rng(51).standard_normal((6, 5, 3, 3))
        dtypes = _sweep_dtypes(monkeypatch)
        hopm(k, HopmConfig(n_iters=n_iters, seed=3))
        assert dtypes == [np.complex128] * n_iters
        # Three sweeps: one in float32, then the two the stopping test needs.
        dtypes.clear()
        est = hopm(k, HopmConfig(n_iters=3, tol=1.0, seed=3))
        assert dtypes == [np.complex64, np.complex128, np.complex128]
        assert all(est.restart_converged) and est.restart_sweeps == (3,) * 10

    def test_warm_starts_stay_in_float64(self, monkeypatch):
        k = np.random.default_rng(52).standard_normal((6, 5, 3, 3))
        cold = hopm(k, HopmConfig(seed=3))
        dtypes = _sweep_dtypes(monkeypatch)
        est = hopm(k, HopmConfig(restarts=4, n_iters=50, warm_start=cold.factors))
        assert len(dtypes) == max(est.restart_sweeps)
        assert set(dtypes) == {np.dtype(np.complex128)}

    def test_training_steps_stay_in_float64(self, monkeypatch):
        # A training loop's calls: one cold solve per tensor, then every step
        # warm-started from the step before, as the train workload runs them.
        k = np.random.default_rng(53).standard_normal((8, 8, 3, 3)) / np.sqrt(72)
        warm = {"tn": hopm(k).factors, "2norm": twonorm_loss(k).estimate.factors}
        dtypes = _sweep_dtypes(monkeypatch)
        for _ in range(3):
            cfg = HopmConfig(restarts=1, n_iters=3, warm_start=warm["tn"])
            cfg2 = HopmConfig(restarts=1, n_iters=3, warm_start=warm["2norm"])
            tn, two = tn_bound(k, cfg), twonorm_loss(k, cfg2)
            ratio_loss(k, cfg)
            for which, config in (("tn", cfg), ("ratio", cfg), ("2norm", cfg2)):
                regularizer_gradient(which, k, config)
            warm = {"tn": tn.estimate.factors, "2norm": two.estimate.factors}
            k = k - 2e-3 * regularizer_gradient("ocnn", k)
        assert len(dtypes) >= 3 * 2
        assert set(dtypes) == {np.dtype(np.complex128)}

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=2, max_size=5).map(tuple),
        n_iters=st.integers(1, 8),
        restarts=st.integers(1, 4),
        tol=st.sampled_from([0.0, 1e-10, 1.0]),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stage_boundaries(self, shape, n_iters, restarts, tol, warm, seed):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal(shape)
        start = None
        if warm:
            start = Rank1Factors(tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                                       for n in shape))
        HOPM._SOLVES.clear()
        with pytest.MonkeyPatch.context() as mp:
            dtypes = _sweep_dtypes(mp)
            est = hopm(k, HopmConfig(n_iters=n_iters, restarts=restarts, tol=tol,
                                     seed=seed % 1000, warm_start=start))
        s = dtypes.count(np.complex64)
        if warm or n_iters <= 2:
            assert s == 0
        else:
            assert 1 <= s <= n_iters - 2
        assert est.sigma == est.objective_history[-1]
        best = est.restart_sigmas.index(est.sigma)
        assert est.iterations_used == est.restart_sweeps[best]
        assert len(dtypes) == max(est.restart_sweeps)
        for sweeps, converged in zip(est.restart_sweeps, est.restart_converged):
            assert sweeps <= n_iters
            if converged:
                assert sweeps - s >= 2  # two float64 sweeps
        assert abs(abs(multilinear_einsum(k, est.factors.factors)) - est.sigma) <= 1e-13 * est.sigma

    @pytest.mark.parametrize("shape", PRECISION_SHAPES, ids=shape_id)
    def test_winner_matches_the_float64_reference(self, shape):
        for seed in range(3):
            k = np.random.default_rng([54, seed]).standard_normal(shape)
            est = hopm(k, HopmConfig(seed=seed))
            ref = max(t[0] for t in sequential_hopm(k, seed=seed))
            assert abs(est.sigma - ref) <= 1e-7 * ref

    @settings(derandomize=True, deadline=None, max_examples=24)
    @given(
        shape=st.sampled_from(PRECISION_SHAPES),
        j=st.sampled_from([-900, -500, 500, 900]),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extreme_magnitudes_scale_exactly(self, shape, j, warm, seed):
        k = np.random.default_rng(seed).standard_normal(shape)
        config = HopmConfig(seed=seed % 1000)
        if warm:
            config = HopmConfig(restarts=2, n_iters=20, warm_start=hopm(k, config).factors)
        base, scaled = hopm(k, config), hopm(2.0**j * k, config)
        assert scaled.sigma == 2.0**j * base.sigma
        assert scaled.objective_history == tuple(2.0**j * x for x in base.objective_history)
        assert scaled.restart_sigmas == tuple(2.0**j * x for x in base.restart_sigmas)
        assert scaled.restart_sweeps == base.restart_sweeps
        for f, g in zip(scaled.factors.factors, base.factors.factors):
            assert f.tobytes() == g.tobytes()


def _estimates_equal(a, b) -> bool:
    """Whether two estimates hold the same numbers, bit for bit."""
    return (a.sigma == b.sigma and a.converged == b.converged
            and a.objective_history == b.objective_history
            and a.restart_sigmas == b.restart_sigmas
            and a.restart_sweeps == b.restart_sweeps
            and all(fa.tobytes() == fb.tobytes()
                    for fa, fb in zip(a.factors.factors, b.factors.factors)))


class TestRememberedSolves:
    """A warm-started hopm call that repeats one of the last two is answered
    with the estimate already made; nothing else is remembered."""

    @pytest.fixture
    def warm_config(self):
        k = np.random.default_rng(33).standard_normal((3, 4, 3, 3))
        cold = hopm(k, HopmConfig(seed=2))
        return k, HopmConfig(restarts=1, n_iters=3, seed=5, warm_start=cold.factors)

    def test_repeat_returns_the_same_estimate(self, warm_config, monkeypatch):
        k, config = warm_config
        solves = count_calls(monkeypatch, HOPM._solve)
        first = hopm(k, config)
        assert hopm(k.copy(), config) is first
        assert len(solves) == 1

    def test_hit_is_bitwise_a_fresh_solve(self, warm_config):
        k, config = warm_config
        hopm(k, config)
        hit = hopm(k, config)
        HOPM._SOLVES.clear()
        assert _estimates_equal(hit, hopm(k, config))

    def test_two_tensors_alternate_without_a_solve(self, warm_config, monkeypatch):
        k, config = warm_config
        other = k[::-1].copy()
        hopm(k, config), hopm(other, config)
        solves = count_calls(monkeypatch, HOPM._solve)
        for _ in range(3):
            hopm(k, config), hopm(other, config)
        assert solves == []

    def test_kernel_changed_in_place_is_solved_again(self, warm_config, monkeypatch):
        k, config = warm_config
        solves = count_calls(monkeypatch, HOPM._solve)
        first = hopm(k, config)
        k[0, 0, 0, 0] += 1e-3
        second = hopm(k, config)
        assert len(solves) == 2
        assert second.sigma != first.sigma

    def test_sign_of_zero_counts(self, monkeypatch):
        k = np.random.default_rng(34).standard_normal((2, 3, 3))
        k[0, 0, 0] = 0.0
        config = HopmConfig(restarts=1, warm_start=hopm(k).factors)
        solves = count_calls(monkeypatch, HOPM._solve)
        hopm(k, config)
        k[0, 0, 0] = -0.0
        hopm(k, config)
        assert len(solves) == 2

    CONFIG_CHANGES = [
        {"n_iters": 4}, {"tol": 1e-9}, {"seed": 6}, {"restarts": 2}, "warm_start",
    ]

    def test_config_changes_cover_every_field(self):
        changed = {name for c in self.CONFIG_CHANGES for name in ([c] if isinstance(c, str) else c)}
        assert changed == {f.name for f in dataclasses.fields(HopmConfig)}

    @pytest.mark.parametrize("change", CONFIG_CHANGES)
    def test_any_config_change_is_solved_again(self, warm_config, change, monkeypatch):
        k, config = warm_config
        if change == "warm_start":
            factors = config.warm_start.factors
            change = {"warm_start": Rank1Factors((factors[0] * 1j, *factors[1:]))}
        hopm(k, config)
        solves = count_calls(monkeypatch, HOPM._solve)
        hopm(k, HopmConfig(**{**vars(config), **change}))
        assert len(solves) == 1

    def test_cold_solve_is_not_remembered(self):
        k = np.random.default_rng(35).standard_normal((3, 2, 3, 3))
        hopm(k, HopmConfig(seed=1))
        tn_bound(k)
        assert HOPM._SOLVES.entries == ()

    def test_non_finite_kernel_rejected_after_a_hit(self, warm_config):
        k, config = warm_config
        hopm(k, config), hopm(k, config)
        bad = k.copy()
        bad[1, 1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="kernel contains non-finite entries"):
            hopm(bad, config)

    def test_threads_sharing_the_memo_get_fresh_results(self):
        rng = np.random.default_rng(36)
        kernels = [rng.standard_normal((3, 4, 3, 3)) for _ in range(3)]
        config = HopmConfig(restarts=1, n_iters=3, warm_start=hopm(kernels[0]).factors)
        fresh = []
        for k in kernels:
            HOPM._SOLVES.clear()
            fresh.append(hopm(k, config))
        wrong = []

        def worker(offset):
            for i in range(60):
                j = (i + offset) % 3
                if not _estimates_equal(hopm(kernels[j], config), fresh[j]):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_bad_warm_start_rejected_after_a_hit(self, warm_config):
        k, config = warm_config
        hopm(k, config)
        factors = config.warm_start.factors
        zeroed = Rank1Factors((0 * factors[0], *factors[1:]))
        bad = HopmConfig(**{**vars(config), "warm_start": zeroed})
        with pytest.raises(ValueError, match="warm_start axis 0"):
            hopm(k, bad)


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

    @pytest.mark.parametrize("warm", [False, True])
    def test_value_beyond_the_float_range_raises(self, warm):
        # sigma is 6 * 1.7e308: it warned of an overflow in ldexp and
        # returned lower = inf, which bounds nothing.
        k = np.full((2, 2, 3, 3), 1.7e308)
        config = HopmConfig()
        if warm:
            config = HopmConfig(warm_start=hopm(k / 2.0**10, config).factors)
        with pytest.raises(ValueError, match="the rank-1 value overflows the float range"):
            tn_bound(k, config)

    def test_upper_beyond_the_float_range_raises(self):
        # lower is 6e307, upper 3 * 6e307: it returned inf.
        bound = tn_bound(np.full((2, 2, 3, 3), 1e307))
        assert abs(bound.lower - 6e307) <= 1e-12 * 6e307
        with pytest.raises(ValueError, match="the TN upper bound overflows the float range"):
            bound.upper


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
        numeric = fd_gradient(lambda kk: abs(multilinear_einsum(kk, us)), k, step=1e-5)
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
