"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (pytest's own FAILED line marks a failed criterion).  Each test
also enforces its wall-clock budget, so regressions in the fast paths fail
loudly here.
"""

import time

import numpy as np

from convnorm import (
    ConvConfig,
    HopmConfig,
    build_dense_jacobian,
    circular_exact_norm,
    complex_gap_kernel,
    conv_operator,
    f4_bound,
    hopm,
    ocnn_loss,
    power_method,
    ratio_loss,
    regularizer_gradient,
    self_gram_kernel,
    strided_kernel_transform,
    tn_bound,
    twonorm_loss,
)
from convnorm.cli import bench_bound_times, finite_difference_gradient, max_relative_error
from helpers import dense_norm


def _passed(name: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s, budget {limit:.0f}s"
    print(f"PASS {name} [{elapsed:.1f}s < {limit:.0f}s] {detail}")


def test_criterion_1_gap_kernel_exact_values():
    started = time.perf_counter()
    k = complex_gap_kernel()
    complex_sigma = hopm(k, HopmConfig(seed=1)).sigma
    real_sigma = hopm(k, HopmConfig(seed=1, real_restricted=True)).sigma
    upper = tn_bound(k, HopmConfig(seed=1)).upper
    circular = circular_exact_norm(k, 4)
    assert abs(complex_sigma - 4.0) <= 1e-8
    assert abs(real_sigma - 2.0) <= 1e-8
    assert abs(upper - 8.0) <= 1e-7
    assert abs(circular - 8.0) <= 1e-8
    _passed(
        "criterion 1 (deterministic gap kernel)", started, 1.0,
        f"sigma_C={complex_sigma:.9f} sigma_R={real_sigma:.9f} "
        f"TN={upper:.9f} circular(4)={circular:.9f}",
    )


def test_criterion_2_pointwise_kernels_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(50):
        c = int(rng.integers(1, 9))
        k = rng.standard_normal((c, c, 1, 1))
        bound = tn_bound(k, HopmConfig(n_iters=2000, tol=1e-13, restarts=4, seed=case))
        oracle = dense_norm(build_dense_jacobian(k, ConvConfig(input_size=8)))
        worst = max(worst, abs(bound.upper - oracle) / oracle)
    assert worst <= 1e-7, f"worst relative gap {worst:.2e}"
    _passed("criterion 2 (1x1 exactness, 50 kernels)", started, 10.0,
            f"worst |TN - oracle|/oracle = {worst:.2e}")


def _sandwich_cases():
    rng = np.random.default_rng(20260810)
    for index in range(50):
        shape = (
            int(rng.integers(1, 5)), int(rng.integers(1, 5)),
            int(rng.integers(1, 6)), int(rng.integers(1, 6)),
        )
        kernel = rng.standard_normal(shape)
        first, second = (2, 4) if index % 2 == 0 else (4, 2)
        for padding, stride in (
            ("zero", 1), ("circular", 1), ("zero", first), ("circular", second),
        ):
            yield index, kernel, padding, stride


def test_criterion_3_sandwich_suite():
    started = time.perf_counter()
    cases = 0
    for index, kernel, padding, stride in _sandwich_cases():
        config = ConvConfig(input_size=12, padding=padding, stride=stride)
        oracle = dense_norm(build_dense_jacobian(kernel, config))
        hopm_config = HopmConfig(n_iters=150, tol=1e-11, restarts=10, seed=1000 + index)
        bound = tn_bound(strided_kernel_transform(kernel, stride), hopm_config)
        assert bound.lower <= oracle + 1e-8, (
            f"case {index} {padding} s={stride}: lower {bound.lower} > oracle {oracle}"
        )
        assert oracle <= bound.upper * (1 + 1e-6), (
            f"case {index} {padding} s={stride}: oracle {oracle} > upper {bound.upper}"
        )
        cases += 1
    assert cases == 200
    _passed("criterion 3 (sandwich suite)", started, 120.0, f"{cases} cases")


def test_criterion_4_tn_never_exceeds_f4():
    started = time.perf_counter()
    checked = 0
    seen = set()
    for index, kernel, _, _ in _sandwich_cases():
        if index in seen:
            continue
        seen.add(index)
        tn = tn_bound(kernel, HopmConfig(n_iters=150, tol=1e-11, restarts=10,
                                         seed=1000 + index)).upper
        f4 = f4_bound(kernel, seed=index)
        assert tn <= f4 + 1e-9, f"kernel {index}: TN {tn} > F4 {f4}"
        checked += 1
    assert checked == 50
    _passed("criterion 4 (TN <= F4)", started, 60.0, f"{checked} kernels")


def test_criterion_5_ratio_bands_at_desk_scale():
    started = time.perf_counter()
    bands = {
        3: {"tn": (1.00, 1.15), "f4": (1.4, 1.9)},
        5: {"f4": (1.9, 2.4)},
        7: {"tn": (1.05, 1.25), "f4": (2.3, 2.9)},
    }
    details = []
    for k_size, expectations in bands.items():
        tn_ratios, f4_ratios = [], []
        for seed in range(10):
            rng = np.random.default_rng(5000 + 97 * k_size + seed)
            kernel = rng.standard_normal((64, 64, k_size, k_size))
            op = conv_operator(kernel, ConvConfig(input_size=32, padding="zero"))
            oracle = power_method(op, iters=400, tol=1e-5, seed=seed).norm
            tn = tn_bound(kernel, HopmConfig(n_iters=120, tol=1e-9, restarts=5,
                                             seed=seed)).upper
            f4 = f4_bound(kernel, seed=seed)
            tn_ratios.append(tn / oracle)
            f4_ratios.append(f4 / oracle)
        tn_mean, f4_mean = float(np.mean(tn_ratios)), float(np.mean(f4_ratios))
        details.append(f"k={k_size}: TN/or {tn_mean:.3f} F4/or {f4_mean:.3f}")
        if "tn" in expectations:
            lo, hi = expectations["tn"]
            assert lo <= tn_mean <= hi, f"k={k_size}: TN ratio {tn_mean:.3f} outside [{lo}, {hi}]"
        lo, hi = expectations["f4"]
        assert lo <= f4_mean <= hi, f"k={k_size}: F4 ratio {f4_mean:.3f} outside [{lo}, {hi}]"
    _passed("criterion 5 (desk-scale ratio bands)", started, 300.0, "; ".join(details))


def test_criterion_6_stride_bands():
    started = time.perf_counter()
    ratios_s2, ratios_s4 = [], []
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        kernel = rng.standard_normal((64, 64, 3, 3))

        op2 = conv_operator(kernel, ConvConfig(input_size=32, stride=2))
        oracle2 = power_method(op2, iters=800, tol=1e-6, seed=seed).norm
        tn2 = tn_bound(strided_kernel_transform(kernel, 2),
                       HopmConfig(n_iters=150, tol=1e-10, restarts=5, seed=seed)).upper
        ratios_s2.append(tn2 / oracle2)

        op4 = conv_operator(kernel, ConvConfig(input_size=32, stride=4))
        oracle4 = power_method(op4, iters=2500, tol=1e-10, seed=seed).norm
        tn4 = tn_bound(strided_kernel_transform(kernel, 4),
                       HopmConfig(n_iters=2500, tol=1e-9, restarts=1, seed=seed)).upper
        ratios_s4.append(tn4 / oracle4)
    mean2, mean4 = float(np.mean(ratios_s2)), float(np.mean(ratios_s4))
    assert 1.1 <= mean2 <= 1.35, f"stride-2 ratio {mean2:.4f} outside [1.1, 1.35]"
    assert abs(mean4 - 1.0) <= 1e-4, f"stride-4 ratio {mean4:.8f} not 1.0 +- 1e-4"
    _passed("criterion 6 (stride bands)", started, 120.0,
            f"s=2 ratio {mean2:.3f}; s=4 ratio {mean4:.7f}")


def test_criterion_7_gradients_match_finite_differences():
    started = time.perf_counter()
    worst = {"tn": 0.0, "ocnn": 0.0, "ratio": 0.0, "2norm": 0.0}
    for case in range(20):
        rng = np.random.default_rng(7000 + case)
        kernel = rng.standard_normal((2, 2, 3, 3))
        # Converge once with restarts, then hold that branch for both the
        # analytic gradient and every finite-difference sample; slow ALS
        # landscapes otherwise leave the envelope gradient short of 1e-4.
        base_config = HopmConfig(n_iters=2000, tol=1e-14, restarts=8, seed=case)
        factors = hopm(kernel, base_config).factors
        gram_factors = twonorm_loss(kernel, base_config).estimate.factors
        warm = HopmConfig(n_iters=500, tol=1e-14, restarts=1, seed=case,
                          warm_start=factors)
        gram_warm = HopmConfig(n_iters=500, tol=1e-14, restarts=1, seed=case,
                               warm_start=gram_factors)
        pairs = {
            "tn": (warm, lambda kk: tn_bound(kk, warm).upper),
            "ocnn": (None, ocnn_loss),
            "ratio": (warm, lambda kk: ratio_loss(kk, warm)),
            "2norm": (gram_warm, lambda kk: twonorm_loss(kk, gram_warm).lower),
        }
        for which, (config, loss) in pairs.items():
            analytic = regularizer_gradient(which, kernel, config)
            numeric = finite_difference_gradient(loss, kernel, 1e-5)
            err = max_relative_error(analytic, numeric)
            worst[which] = max(worst[which], err)
            assert err <= 1e-4, f"{which} gradient, case {case}: rel err {err:.2e}"
    _passed("criterion 7 (gradient checks, 20 kernels x 4 losses)", started, 60.0,
            " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_8_d_dimensional_sandwich():
    started = time.perf_counter()
    cases = 0
    for d, n in ((1, 16), (3, 6)):
        for case in range(20):
            rng = np.random.default_rng(8000 + 100 * d + case)
            if d == 1:
                shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 6)))
            else:
                shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)), 3, 3, 3)
            kernel = rng.standard_normal(shape)
            padding = "zero" if case % 2 == 0 else "circular"
            config = ConvConfig(input_size=n, padding=padding)
            oracle = dense_norm(build_dense_jacobian(kernel, config))
            bound = tn_bound(kernel, HopmConfig(n_iters=150, tol=1e-11,
                                                restarts=10, seed=case))
            assert bound.lower <= oracle + 1e-8, f"d={d} case {case} ({padding})"
            assert oracle <= bound.upper * (1 + 1e-6), f"d={d} case {case} ({padding})"
            cases += 1
    assert cases == 40
    _passed("criterion 8 (d-dimensional sandwich)", started, 120.0, f"{cases} cases")


def test_criterion_9_self_gram_identity_and_chain():
    started = time.perf_counter()
    for case in range(20):
        rng = np.random.default_rng(9000 + case)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                 int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        kernel = rng.standard_normal(shape)
        n = 8  # >= 2*max(h, w) - 1 for every drawn shape
        config = ConvConfig(input_size=n, padding="circular")
        t = build_dense_jacobian(kernel, config)
        gram_jacobian = build_dense_jacobian(self_gram_kernel(kernel), config)
        assert np.max(np.abs(t.T @ t - gram_jacobian)) <= 1e-10, f"case {case}"

        result = twonorm_loss(kernel, HopmConfig(n_iters=200, tol=1e-12,
                                                 restarts=10, seed=case))
        dense = dense_norm(t.T @ t - np.eye(t.shape[1]))
        assert result.lower <= dense + 1e-8, f"case {case}: sigma above dense norm"
        assert dense <= result.upper * (1 + 1e-9), f"case {case}: chain broken"
    _passed("criterion 9 (self-gram identity + certified chain)", started, 60.0,
            "20 kernels")


def test_criterion_10_resolution_independence():
    started = time.perf_counter()
    kernel = np.random.default_rng(1010).standard_normal((64, 64, 3, 3))
    rows = bench_bound_times(kernel, ns=(16, 32, 64), repeat=8, seed=0)
    tn_times = [r["time_tn_ms"] for r in rows]
    f4_times = [r["time_f4_ms"] for r in rows]
    power_times = {r["n"]: r["time_power_ms"] for r in rows}
    tn_spread = (max(tn_times) - min(tn_times)) / min(tn_times)
    f4_spread = (max(f4_times) - min(f4_times)) / min(f4_times)
    power_growth = power_times[64] / power_times[16]
    assert tn_spread < 0.20, f"TN time spread {tn_spread:.2%} across n"
    assert f4_spread < 0.20, f"F4 time spread {f4_spread:.2%} across n"
    assert power_growth >= 4.0, f"power method grew only {power_growth:.1f}x from n=16 to n=64"
    _passed("criterion 10 (resolution independence)", started, 120.0,
            f"TN spread {tn_spread:.1%}, F4 spread {f4_spread:.1%}, "
            f"power x{power_growth:.1f}")
