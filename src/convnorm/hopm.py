"""Complex higher-order power method for the tensor spectral norm.

The spectral norm of a real tensor K, taken over *complex* unit vectors, is
the value of its best complex rank-1 approximation.  Alternating normalized
contraction sweeps (one conjugated update per axis, in axis order, each
using the newest factors) increase the objective |[[K; u1..ud]]|
monotonically, and random restarts guard against local optima.  Any
feasible unit tuple certifies a lower bound on the norm, so the returned
sigma is a valid lower bound even before convergence.

All restarts run in one batched engine.  Each axis keeps an
``(restarts, n_axis)`` complex factor matrix, and a sweep updates every
restart that has not yet met its own stopping test (the live mask).  The
kernel is validated once per call and read through one zero-copy view
``K0 = K.reshape(c_out, c_in * S)``, S the product of the spatial sizes,
twice per sweep, each time as one real matmul against stacked (Re, Im)
rows: ``(u1 x P) @ K0.T`` for axis 0, with P the spatial outer product,
and ``u0 @ K0`` for the rest, whose small ``(restarts, c_in, S)`` remainder
yields axis 1 and then each spatial axis.  Neither a complex nor a
transposed copy of the kernel is ever made.

Over complex vectors, ``sqrt(k_1 * ... * k_d) * sigma`` of a
(c_out, c_in, k_1, ..., k_d) kernel upper-bounds the spectral norm of the
convolution Jacobian for zero and circular padding at stride 1, and
``tn_bound`` computes exactly that for every d >= 1; a strided convolution
is bounded through its regrouped stride-1 kernel Q.  Restricting the
iteration to real vectors can strictly undershoot that (see the tests for a
2x2x2x2 kernel whose complex value 4 doubles its best real value 2), which
is why complex mode is the default and the only mode used by the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import _as_4d_kernel, as_dense_tensor, multilinear_form

# The engine does not use partial_contraction; it stays bound here because
# code outside the package reaches it as convnorm.hopm.partial_contraction.
from .tensor_ops import partial_contraction  # noqa: F401

__all__ = [
    "HopmConfig",
    "Rank1Factors",
    "SigmaEstimate",
    "TnBound",
    "hopm",
    "tn_bound",
    "tn_gradient",
    "singular_value_gradient",
]


@dataclass(frozen=True)
class Rank1Factors:
    """A feasible point of the rank-1 problem: unit vectors and their value."""

    sigma: float
    factors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class HopmConfig:
    """Iteration budget and restart policy for :func:`hopm`.

    ``warm_start`` seeds restart 0 with previously converged factors (useful
    when a kernel drifts slowly, e.g. across training steps); every other
    restart draws fresh complex Gaussian unit vectors.  ``real_restricted``
    keeps the iteration over real vectors; it exists to expose the gap
    between real and complex rank-1 values and must not be used for bounds.
    """

    n_iters: int = 100
    tol: float = 1e-10
    restarts: int = 10
    seed: int = 0
    warm_start: Rank1Factors | None = None
    real_restricted: bool = False

    def __post_init__(self):
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True)
class SigmaEstimate:
    """Best value over restarts plus convergence diagnostics.

    ``iterations_used``, ``converged`` and ``objective_history`` belong to
    the winning restart; ``restart_sigmas``, ``restart_sweeps`` and
    ``restart_converged`` hold every restart's final value, sweep count and
    convergence, in restart order (empty for the zero-tensor short circuit).
    """

    sigma: float
    factors: Rank1Factors
    iterations_used: int
    restarts_used: int
    converged: bool
    objective_history: tuple[float, ...] = field(default=(), repr=False)
    restart_sigmas: tuple[float, ...] = field(default=(), repr=False)
    restart_sweeps: tuple[int, ...] = field(default=(), repr=False)
    restart_converged: tuple[bool, ...] = field(default=(), repr=False)


def _unit_vectors(rng: np.random.Generator, shape, real: bool) -> list[np.ndarray]:
    us = []
    for n in shape:
        v = rng.standard_normal(n).astype(np.float64)
        if not real:
            v = v + 1j * rng.standard_normal(n)
        us.append(np.asarray(v, dtype=np.complex128) / np.linalg.norm(v))
    return us


def _starting_points(shape: tuple[int, ...], config: HopmConfig) -> list[np.ndarray]:
    """One ``(restarts, n_axis)`` complex factor matrix per axis.

    Restart 0 takes the warm start when one is given (drawing nothing);
    every other restart draws from one seeded stream in restart order, made
    only when some restart draws from it.
    """
    us = [np.empty((config.restarts, n), dtype=np.complex128) for n in shape]
    rng = None
    for restart in range(config.restarts):
        if restart == 0 and config.warm_start is not None:
            ws = config.warm_start
            if len(ws.factors) != len(shape):
                raise ValueError("warm start factor count does not match kernel axes")
            row = []
            for axis, f in enumerate(ws.factors):
                v = np.asarray(f, dtype=np.complex128)
                if v.shape != (shape[axis],):
                    raise ValueError(
                        f"warm start factor for axis {axis} has length "
                        f"{v.shape} but the axis has size {shape[axis]}"
                    )
                row.append(v / np.linalg.norm(v))
        else:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            row = _unit_vectors(rng, shape, config.real_restricted)
        for u, v in zip(us, row):
            u[restart] = v
    return us


def _update(u: np.ndarray, v: np.ndarray, sigma: np.ndarray) -> None:
    """Set ``u[r] = conj(v[r]) / |v[r]|`` and ``sigma[r] = |v[r]|`` for every
    restart whose contraction ``v[r]`` is nonzero; a zero contraction keeps
    the previous vector."""
    nv = np.linalg.norm(v, axis=1)
    ok = nv > 0.0
    np.divide(np.conj(v), nv[:, None], out=u, where=ok[:, None])
    np.copyto(sigma, nv, where=ok)


def _spatial_scripts(n_spatial: int) -> list[tuple[str, list[int]]]:
    """For each spatial axis, the einsum script contracting the spatial
    remainder ``w[r, ...]`` with every other spatial factor, and the indices
    of those other axes."""
    letters = "abcdefghijklmnopq"[:n_spatial]
    scripts = []
    for axis, letter in enumerate(letters):
        others = [j for j in range(n_spatial) if j != axis]
        operands = ",".join([f"r{letters}"] + [f"r{letters[j]}" for j in others])
        scripts.append((f"{operands}->r{letter}", others))
    return scripts


def _sweep(
    k0: np.ndarray,
    shape: tuple[int, ...],
    us: list[np.ndarray],
    scripts: list[tuple[str, list[int]]],
) -> np.ndarray:
    """One alternating sweep for a batch of restarts, updating ``us`` in place.

    ``k0`` is the kernel viewed as ``(c_out, c_in * S)`` with the spatial
    axes flattened row-major into S.  The kernel is read twice, both times
    as a real matmul against stacked (Re, Im) rows: once for axis 0 and once
    to contract axis 0 away, leaving a small ``(R, c_in, S)`` complex
    remainder from which axis 1 and the spatial axes are updated, the
    latter by ``scripts`` from :func:`_spatial_scripts`.  Returns each
    restart's sweep value: the norm of its last nonzero update.
    """
    r = us[0].shape[0]
    spatial = shape[2:]
    sigma = np.zeros(r)
    # p[r, s]: outer product of the spatial factors, flattened like k0's columns.
    p = np.ones((r, 1), dtype=np.complex128)
    for f in us[2:]:
        p = (p[:, :, None] * f[:, None, :]).reshape(r, -1)

    z = (us[1][:, :, None] * p[:, None, :]).reshape(r, -1)
    y = np.concatenate([z.real, z.imag]) @ k0.T
    _update(us[0], y[:r] + 1j * y[r:], sigma)

    x = np.concatenate([us[0].real, us[0].imag]) @ k0
    xc = (x[:r] + 1j * x[r:]).reshape(r, shape[1], -1)
    _update(us[1], np.einsum("rjs,rs->rj", xc, p), sigma)
    if not spatial:
        return sigma

    w = np.einsum("rjs,rj->rs", xc, us[1]).reshape((r,) + spatial)
    for axis, (script, others) in enumerate(scripts):
        v = np.einsum(script, w, *(us[2 + j] for j in others))
        _update(us[2 + axis], v, sigma)
    return sigma


def hopm(k, config: HopmConfig | None = None) -> SigmaEstimate:
    """Best rank-1 value of ``k`` over complex unit vectors, with restarts.

    All restarts advance together; each stops on its own test
    ``|sigma_t - sigma_{t-1}| <= tol * sigma_t`` or after ``n_iters``
    sweeps.  Each restart's final value is ``|[[k; factors]]|``.  Returns the
    strictly largest sigma across restarts (ties keep the earliest restart)
    with that restart's history, sweeps and convergence; every restart's
    value, sweeps and convergence are kept in ``restart_*``.  The result is
    deterministic for a fixed ``(k, config)`` including the seed.  A zero
    tensor short-circuits to sigma 0 with arbitrary unit factors.
    """
    if config is None:
        config = HopmConfig()
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim < 2:
        raise ValueError(f"kernel must have at least 2 axes, got {arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"kernel has an empty axis: shape {arr.shape}")

    if not arr.any():
        factors = tuple(
            np.eye(n, 1, dtype=np.complex128).ravel() for n in arr.shape
        )
        return SigmaEstimate(
            sigma=0.0,
            factors=Rank1Factors(0.0, factors),
            iterations_used=0,
            restarts_used=0,
            converged=True,
        )

    us = _starting_points(arr.shape, config)
    k0 = arr.reshape(arr.shape[0], -1)  # a view: the kernel is never copied
    n = config.restarts
    histories: list[list[float]] = [[] for _ in range(n)]
    converged = np.zeros(n, dtype=bool)
    sigma_prev = np.full(n, -1.0)
    live = np.arange(n)
    scripts = _spatial_scripts(arr.ndim - 2)
    # cur holds the live restarts' factors in live order; it starts as us
    # itself and is compacted only on a sweep where some restart stops.
    cur = us
    for _ in range(config.n_iters):
        sigma_t = _sweep(k0, arr.shape, cur, scripts)
        for restart, s in zip(live, sigma_t.tolist()):
            histories[restart].append(s)
        prev = sigma_prev[live]
        done = (prev >= 0.0) & (
            np.abs(sigma_t - prev) <= config.tol * np.maximum(sigma_t, 1e-300)
        )
        converged[live[done]] = True
        sigma_prev[live] = sigma_t
        if done.any():
            for u, c in zip(us, cur):
                u[live] = c
            cur = [c[~done] for c in cur]
        live = live[~done]
        if live.size == 0:
            break
    for u, c in zip(us, cur):
        u[live] = c

    sigmas = [abs(multilinear_form(arr, [u[r] for u in us])) for r in range(n)]
    best = int(np.argmax(sigmas))  # first maximum: ties keep the earliest restart
    sigma = float(sigmas[best])
    return SigmaEstimate(
        sigma=sigma,
        factors=Rank1Factors(sigma, tuple(u[best].copy() for u in us)),
        iterations_used=len(histories[best]),
        restarts_used=n,
        converged=bool(converged[best]),
        objective_history=tuple(histories[best]),
        restart_sigmas=tuple(float(s) for s in sigmas),
        restart_sweeps=tuple(len(h) for h in histories),
        restart_converged=tuple(bool(c) for c in converged),
    )


@dataclass(frozen=True)
class TnBound:
    """Sandwich for the convolution Jacobian norm: lower <= ||T||_2 <= upper."""

    lower: float
    upper: float
    estimate: SigmaEstimate


def tn_bound(k, config: HopmConfig | None = None) -> TnBound:
    """Tensor-norm sandwich for a kernel (c_out, c_in, k_1, ..., k_d), d >= 1.

    ``lower`` is the rank-1 value itself (valid for any feasible point);
    ``upper`` multiplies it by sqrt(k_1 * ... * k_d).  Both are exact when
    every spatial size is 1.  A stride-s convolution is bounded by the same
    call on its regrouped stride-1 kernel,
    ``tn_bound(strided_kernel_transform(k, s))``.  The witness factors
    travel with the estimate.
    """
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim < 3:
        raise ValueError(
            f"expected a kernel with at least one spatial axis, got shape {arr.shape}"
        )
    est = hopm(arr, config)
    upper = math.sqrt(math.prod(arr.shape[2:])) * est.sigma
    return TnBound(lower=est.sigma, upper=upper, estimate=est)


def singular_value_gradient(k, factors: Rank1Factors) -> np.ndarray:
    """Gradient of the rank-1 value of a 4-axis tensor, factors held fixed.

    With z = [[k; u1..u4]] and O = u1 x u2 x u3 x u4 the value is |z|, whose
    gradient is (Re z * Re O + Im z * Im O) / sigma = Re(conj(z) * O) / sigma:
    a real rank-2 tensor built from two outer products.  Raises when sigma
    is zero (the norm is not differentiable there).
    """
    arr = _as_4d_kernel(k)
    if len(factors.factors) != 4:
        raise ValueError("expected factors for 4 axes")
    if factors.sigma == 0.0:
        raise ValueError("gradient undefined at zero norm")
    vs = []
    for axis, f in enumerate(factors.factors):
        v = np.asarray(f, dtype=np.complex128)
        if v.shape != (arr.shape[axis],):
            raise ValueError(
                f"axis {axis}: factor length {v.shape} does not match "
                f"kernel dimension {arr.shape[axis]}"
            )
        vs.append(v)
    z = multilinear_form(arr, vs)
    head = np.conj(z) / factors.sigma * vs[0]
    tail = np.einsum("b,c,d->bcd", *vs[1:]).ravel()
    grad = np.outer(head.real, tail.real) - np.outer(head.imag, tail.imag)
    return grad.reshape(arr.shape)


def tn_gradient(k, factors: Rank1Factors) -> np.ndarray:
    """Gradient of the upper bound sqrt(h*w)*sigma with respect to the kernel."""
    arr = _as_4d_kernel(k)
    h, w = arr.shape[2], arr.shape[3]
    return math.sqrt(h * w) * singular_value_gradient(arr, factors)
