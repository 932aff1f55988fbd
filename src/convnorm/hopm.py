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
twice per sweep, each time as one real matmul.  Axis 0 is
``K0 @ (u1 x P)``, P the spatial outer product, with the restarts' (Re, Im)
parts interleaved as columns, so that both the operand and the product are
float views of complex arrays; the rest is ``u0 @ K0`` against stacked
(Re, Im) rows, whose complex result is written as the real and imaginary
parts of one array.  Two batched matmuls of the small
``(restarts, c_in, S)`` remainder yield axis 1 and contract it away, and
einsums over the spatial remainder yield each spatial axis; each update's
norms are one einsum over the float view of its contraction.  Neither a
complex nor a transposed copy of the kernel is ever made.  A sweep's last
update sets u_d = conj(v) / |v|, so [[K; u1..ud]] = |v|: each restart's
value comes from its last sweep, without contracting the kernel again.

One solve has one record, :class:`SigmaEstimate`: the value, the winning
unit vectors (:class:`Rank1Factors`, which carry no value of their own) and
the per-restart diagnostics.  :class:`TnBound` holds that record and the
spatial scale, and derives both ends of the sandwich from them.

Over complex vectors, ``sqrt(k_1 * ... * k_d) * sigma`` of a
(c_out, c_in, k_1, ..., k_d) kernel upper-bounds the spectral norm of the
convolution Jacobian for zero and circular padding at stride 1, and
``tn_bound`` computes exactly that for every d >= 1, and ``tn_gradient``
differentiates it; a strided convolution is bounded through its regrouped
stride-1 kernel Q.  Restricting the iteration to real vectors can strictly
undershoot that (see the tests for a 2x2x2x2 kernel whose complex value 4
doubles its best real value 2), which is why complex mode is the default
and the only mode used by the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .tensor_ops import _check_vectors, _integer, _multilinear_form, _spatial_shape, as_dense_tensor

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
    """A feasible point of the rank-1 problem: one unit vector per axis.

    Its value |[[K; factors]]| is not stored: it depends on the tensor, and
    the value that goes with a solve is :attr:`SigmaEstimate.sigma`.
    """

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
        _integer(self.n_iters, "n_iters")
        _integer(self.restarts, "restarts")
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.tol >= 0:  # also rejects NaN
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class SigmaEstimate:
    """The record of one rank-1 solve: the best value over restarts, its
    factors and convergence diagnostics.

    ``converged`` and ``objective_history`` belong to the winning restart;
    ``restart_sigmas``, ``restart_sweeps`` and ``restart_converged`` hold
    every restart's final value, sweep count and convergence, in restart
    order (empty for the zero-tensor short circuit).
    """

    sigma: float
    factors: Rank1Factors
    converged: bool
    objective_history: tuple[float, ...] = field(default=(), repr=False)
    restart_sigmas: tuple[float, ...] = field(default=(), repr=False)
    restart_sweeps: tuple[int, ...] = field(default=(), repr=False)
    restart_converged: tuple[bool, ...] = field(default=(), repr=False)

    @property
    def iterations_used(self) -> int:
        """Sweeps of the winning restart."""
        return len(self.objective_history)

    @property
    def restarts_used(self) -> int:
        """Restarts run (0 for the zero-tensor short circuit)."""
        return len(self.restart_sigmas)


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
    ws = config.warm_start
    rows = [] if ws is None else [[v / np.linalg.norm(v) for v in _check_vectors(shape, ws.factors)]]
    if len(rows) < config.restarts:
        rng = np.random.default_rng(config.seed)
        rows += [_unit_vectors(rng, shape, config.real_restricted)
                 for _ in range(config.restarts - len(rows))]
    return [np.array(axis, dtype=np.complex128) for axis in zip(*rows)]


def _update(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Set ``u[r] = conj(v[r]) / |v[r]|`` for every restart whose contraction
    ``v[r]`` is nonzero (a zero contraction keeps the previous vector), and
    return every ``|v[r]|``.  ``v``'s rows must be contiguous: its norms are
    one einsum over its float view."""
    vf = v.view(np.float64)
    nv = np.sqrt(np.einsum("ij,ij->i", vf, vf))
    np.divide(np.conj(v), nv[:, None], out=u, where=(nv > 0.0)[:, None])
    return nv


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
    as a real matmul: once for axis 0, and once against stacked (Re, Im)
    rows to contract axis 0 away, leaving a small ``(R, c_in, S)`` complex
    remainder.  Two batched matmuls of that remainder update axis 1 and
    contract it away, and ``scripts`` from :func:`_spatial_scripts` update
    the spatial axes.  Returns each restart's value at the factors the sweep
    leaves, the norm of its last contraction: once one update is nonzero the
    form is positive, so every later one is nonzero too.
    """
    r = us[0].shape[0]
    # p[r, s]: outer product of the spatial factors, flattened like k0's columns.
    # With one spatial axis p is us[2] itself, read only before it is updated.
    p = us[2] if len(us) > 2 else np.ones((r, 1), dtype=np.complex128)
    for f in us[3:]:
        p = (p[:, :, None] * f[:, None, :]).reshape(r, -1)

    # z[j, s, r] = u1[r, j] p[r, s], restarts last: its float view is the
    # (c_in * S, 2R) matrix of interleaved (Re, Im) columns, so the complex
    # view of k0 @ z is the axis-0 contraction, transposed.
    z = np.multiply(us[1].T[:, None, :], p.T[None, :, :], order="C")
    y = (k0 @ z.view(np.float64).reshape(k0.shape[1], -1)).view(np.complex128)
    _update(us[0], np.ascontiguousarray(y.T))

    x = np.concatenate([us[0].real, us[0].imag]) @ k0
    xc = np.empty((r, x.shape[1]), dtype=np.complex128)
    xc.real, xc.imag = x[:r], x[r:]
    x = xc.reshape(r, shape[1], -1)
    sigma = _update(us[1], np.matmul(x, p[:, :, None])[:, :, 0])

    w = np.matmul(us[1][:, None, :], x).reshape((r,) + shape[2:])
    for axis, (script, others) in enumerate(scripts):
        v = np.einsum(script, w, *(us[2 + j] for j in others))
        sigma = _update(us[2 + axis], v)
    return sigma


def hopm(k, config: HopmConfig | None = None) -> SigmaEstimate:
    """Best rank-1 value of ``k`` over complex unit vectors, with restarts.

    All restarts advance together; each stops on its own test
    ``|sigma_t - sigma_{t-1}| <= tol * sigma_t`` or after ``n_iters``
    sweeps.  Each restart's final value is its last sweep's, which is
    ``|[[k; factors]]|`` at the factors it returns.  Returns the
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

    if not arr.any():
        factors = tuple(np.eye(n, 1, dtype=np.complex128).ravel() for n in arr.shape)
        return SigmaEstimate(sigma=0.0, factors=Rank1Factors(factors), converged=True)

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

    best = int(np.argmax(sigma_prev))  # first maximum: ties keep the earliest restart
    return SigmaEstimate(
        sigma=float(sigma_prev[best]),
        factors=Rank1Factors(tuple(u[best].copy() for u in us)),
        converged=bool(converged[best]),
        objective_history=tuple(histories[best]),
        restart_sigmas=tuple(sigma_prev.tolist()),
        restart_sweeps=tuple(len(h) for h in histories),
        restart_converged=tuple(bool(c) for c in converged),
    )


@dataclass(frozen=True)
class TnBound:
    """Sandwich for the convolution Jacobian norm: lower <= ||T||_2 <= upper.

    Holds the rank-1 solve and the scale sqrt(k_1 * ... * k_d) of the
    kernel's spatial sizes; ``lower`` is the solve's value and ``upper`` is
    that value times the scale.
    """

    estimate: SigmaEstimate
    scale: float

    @property
    def lower(self) -> float:
        return self.estimate.sigma

    @property
    def upper(self) -> float:
        return self.scale * self.estimate.sigma

    # The ``train`` workload in perfbench/workloads.py still reads
    # twonorm_loss(...).sigma; the alias goes once it reads ``lower``.
    @property
    def sigma(self) -> float:
        return self.lower


def tn_bound(k, config: HopmConfig | None = None) -> TnBound:
    """Tensor-norm sandwich for a kernel (c_out, c_in, k_1, ..., k_d), d >= 1.

    ``lower`` is the rank-1 value itself (valid for any feasible point);
    ``upper`` multiplies it by sqrt(k_1 * ... * k_d).  Both are exact when
    every spatial size is 1.  A stride-s convolution is bounded by the same
    call on its regrouped stride-1 kernel,
    ``tn_bound(strided_kernel_transform(k, s))``.  The witness factors
    travel with the estimate.
    """
    scale = math.sqrt(math.prod(_spatial_shape(np.shape(k))))
    return TnBound(estimate=hopm(k, config), scale=scale)


def singular_value_gradient(k, factors: Rank1Factors) -> np.ndarray:
    """Gradient of the rank-1 value of a tensor with d >= 2 axes, factors held
    fixed.

    With z = [[k; u1..ud]] and O = u1 x ... x ud the value is sigma = |z|,
    whose gradient is (Re z * Re O + Im z * Im O) / sigma
    = Re(conj(z) * O) / sigma: a real rank-2 tensor built from two outer
    products of the head conj(z) * u1 / sigma and the tail u2 x ... x ud.
    The value is the one at ``factors``, read from z.  Raises when it is
    zero (the norm is not differentiable there).
    """
    arr = as_dense_tensor(k, "kernel")
    vs = _check_vectors(arr.shape, factors.factors)
    z = _multilinear_form(arr, vs)
    sigma = abs(z)
    if sigma == 0.0:
        raise ValueError("gradient undefined at zero norm")
    head = np.conj(z) / sigma * vs[0]
    tail = reduce(np.multiply.outer, vs[1:]).ravel()
    grad = np.outer(head.real, tail.real) - np.outer(head.imag, tail.imag)
    return grad.reshape(arr.shape)


def tn_gradient(k, factors: Rank1Factors) -> np.ndarray:
    """Gradient of ``tn_bound``'s upper bound sqrt(k_1 * ... * k_d) * sigma
    with respect to a (c_out, c_in, k_1, ..., k_d) kernel, d >= 1."""
    scale = math.sqrt(math.prod(_spatial_shape(np.shape(k))))
    return scale * singular_value_gradient(k, factors)
