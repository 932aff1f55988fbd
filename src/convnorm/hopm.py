"""Complex higher-order power method for the tensor spectral norm.

The spectral norm of a real tensor K, taken over *complex* unit vectors, is
the value of its best complex rank-1 approximation.  Alternating normalized
contraction sweeps (one conjugated update per axis, in axis order, each
using the newest factors) increase the objective |[[K; u1..ud]]|
monotonically, and random restarts guard against local optima.  Any
feasible unit tuple certifies a lower bound on the norm, so the returned
sigma is a valid lower bound even before convergence.  The multilinear form
``[[K; u1, ..., ud]] = sum K[i1..id] u1[i1] ... ud[id]`` contracts one
vector per axis *without* conjugating anything; conjugation, where the
method needs it, is applied explicitly.

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

A solve runs a short list of stages over one sweep loop.  Each stage holds
the kernel viewed as ``(c_out, rest)`` and scaled by an exact power of two,
whose dtype sets the precision of its sweeps (float32 with complex64
factors, or float64 with complex128), a tolerance, a stop rule and the
sweep count at which it ends.  Every sweep counts against ``n_iters``, and
the stopping test ``|sigma_t - sigma_{t-1}| <= tol * sigma_t`` starts
afresh in each stage.  A cold solve (no warm start) of more than two
sweeps starts with a float32 batch stage, its kernel scaled into [0.5, 1)
and its tolerance ``max(tol, 1e-6)``: it stops no restart, and ends for the
whole batch after the first sweep where some restart passes the test or
when two sweeps of the budget remain.  Every solve ends with a float64
stage that stops each restart at ``tol`` or after ``n_iters`` sweeps, on
the kernel scaled by the magnitude rule of ``tensor_ops._scale_exponent``
(so an ordinary kernel is not copied).  So ``converged`` needs two float64
sweeps, and every value reported (sigma, the factors and
``restart_sigmas``) comes from a float64 sweep.  The kernel's binary
exponent is taken once per solve, and values are scaled back by it; a
value beyond the float range raises ValueError.

A warm-started solve is remembered: :func:`hopm` keeps its last two
warm-started results, each with a private copy of its tensor and its
config, and answers a call that repeats one of them bit for bit with the
same record.  A training step that logs a loss and takes its gradient
thus solves each tensor once.  Cold solves, the one-shot certifications,
are never kept.

One solve has one record, :class:`SigmaEstimate`: the value, the winning
unit vectors (:class:`Rank1Factors`, which carry no value of their own) and
the per-restart diagnostics.  :class:`TnBound` holds that record and the
spatial scale, and derives both ends of the sandwich from them.

Over complex vectors, ``sqrt(k_1 * ... * k_d) * sigma`` of a
(c_out, c_in, k_1, ..., k_d) kernel upper-bounds the spectral norm of the
convolution Jacobian for zero and circular padding at stride 1, and
``tn_bound`` computes exactly that for every d >= 1, and ``tn_gradient``
differentiates it, reading the kernel through the same view K0 as two real
GEMMs; a strided convolution is bounded through its regrouped stride-1
kernel Q.  The engine is complex only: the best rank-1 value over
real vectors can strictly undershoot sigma (``complex_gap_kernel``'s complex
value 4 doubles its best real value 2), so it bounds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from .tensor_ops import (
    _binary_exponent,
    _check_vectors,
    _finite,
    _integer,
    _Memo,
    _scale_exponent,
    _seed,
    _spatial_shape,
    as_dense_tensor,
)

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
    restart draws fresh complex Gaussian unit vectors.  Every solve runs
    over complex vectors (see the module docstring).
    """

    n_iters: int = 100
    tol: float = 1e-10
    restarts: int = 10
    seed: int = 0
    warm_start: Rank1Factors | None = None

    def __post_init__(self):
        _integer(self.n_iters, "n_iters")
        _integer(self.restarts, "restarts")
        _seed(self.seed)
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
    order (empty for the zero-tensor short circuit).  ``objective_history``
    has one value per sweep, of every stage (see the module docstring):
    the entries of a float32 stage carry float32 rounding (about 1e-7
    relative, so they may dip below an earlier entry); every later entry,
    and every other value here, is float64.  The factor arrays of an
    estimate from :func:`hopm` are read-only, so an estimate that
    :func:`hopm` returns again for a repeated call cannot be altered
    through one of its callers.
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


def _warm_vectors(shape: tuple[int, ...], warm_start: Rank1Factors | None) -> list[np.ndarray]:
    """The warm start's vectors, one per axis of its axis's length, each
    nonzero and finite; none without a warm start."""
    if warm_start is None:
        return []
    vs = _check_vectors(shape, warm_start.factors)
    for axis, v in enumerate(vs):
        if not (np.all(np.isfinite(v)) and v.any()):
            raise ValueError(f"warm_start axis {axis}: vector must be nonzero and finite")
    return vs


def _starting_points(
    shape: tuple[int, ...], config: HopmConfig, warm: list[np.ndarray]
) -> list[np.ndarray]:
    """One ``(restarts, n_axis)`` complex factor matrix per axis.

    Restart 0 takes the checked warm vectors ``warm`` when there are any
    (drawing nothing); every other restart draws from one seeded stream in
    restart order, made only when some restart draws from it, a real
    Gaussian and then an imaginary one per axis.  Every vector is scaled to
    unit length.
    """
    rows = [warm] if warm else []
    if len(rows) < config.restarts:
        rng = np.random.default_rng(config.seed)
        rows += [[rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in shape]
                 for _ in range(config.restarts - len(rows))]
    return [np.array([v / np.linalg.norm(v) for v in axis], dtype=np.complex128)
            for axis in zip(*rows)]


def _update(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Set ``u[r] = conj(v[r]) / |v[r]|`` for every restart whose contraction
    ``v[r]`` is nonzero (a zero contraction keeps the previous vector), and
    return every ``|v[r]|``.  ``v``'s rows must be contiguous: its norms are
    one einsum over its float view.  Both arrays are complex128, or both
    complex64."""
    vf = v.view(v.real.dtype)
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
    form is positive, so every later one is nonzero too.  Every view takes
    its dtype from the arrays, so the same sweep runs in double precision
    (a float64 kernel, complex128 factors) and in single (float32,
    complex64).
    """
    r = us[0].shape[0]
    # p[r, s]: outer product of the spatial factors, flattened like k0's columns.
    # With one spatial axis p is us[2] itself, read only before it is updated.
    p = us[2] if len(us) > 2 else np.ones((r, 1), dtype=us[0].dtype)
    for f in us[3:]:
        p = (p[:, :, None] * f[:, None, :]).reshape(r, -1)

    # z[j, s, r] = u1[r, j] p[r, s], restarts last: its float view is the
    # (c_in * S, 2R) matrix of interleaved (Re, Im) columns, so the complex
    # view of k0 @ z is the axis-0 contraction, transposed.
    z = np.multiply(us[1].T[:, None, :], p.T[None, :, :], order="C")
    y = (k0 @ z.view(k0.dtype).reshape(k0.shape[1], -1)).view(z.dtype)
    _update(us[0], np.ascontiguousarray(y.T))

    x = np.concatenate([us[0].real, us[0].imag]) @ k0
    xc = np.empty((r, x.shape[1]), dtype=us[0].dtype)
    xc.real, xc.imag = x[:r], x[r:]
    x = xc.reshape(r, shape[1], -1)
    sigma = _update(us[1], np.matmul(x, p[:, :, None])[:, :, 0])

    w = np.matmul(us[1][:, None, :], x).reshape((r,) + shape[2:])
    for axis, (script, others) in enumerate(scripts):
        v = np.einsum(script, w, *(us[2 + j] for j in others))
        sigma = _update(us[2 + axis], v)
    return sigma


def _read_only(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


# The last two warm-started solves: a training step alternates between a
# kernel and its gram residual, so one entry would miss every time.
_SOLVES = _Memo(2)


def hopm(k, config: HopmConfig | None = None) -> SigmaEstimate:
    """Best rank-1 value of ``k`` over complex unit vectors, with restarts.

    All restarts advance together through the stages of the module
    docstring; each stops on its own test
    ``|sigma_t - sigma_{t-1}| <= tol * sigma_t`` between two float64 sweeps
    or after ``n_iters`` sweeps, counted over all stages.  Each restart's
    final value is its last sweep's, which is ``|[[k; factors]]|`` at the
    factors it returns.  Returns the
    strictly largest sigma across restarts (ties keep the earliest restart)
    with that restart's history, sweeps and convergence; every restart's
    value, sweeps and convergence are kept in ``restart_*``.  The result is
    deterministic for a fixed ``(k, config)`` including the seed.  A zero
    tensor short-circuits to sigma 0 with arbitrary unit factors.  The
    returned factor arrays are read-only.

    Every vector of a warm start must be nonzero and finite.  A
    warm-started call whose tensor and config are bit for bit those of one
    of the last two warm-started calls returns that call's estimate, after
    the same checks; training steps repeat such calls (a loss and its
    gradient).  A call without a warm start is always solved afresh and
    remembers nothing.
    """
    if config is None:
        config = HopmConfig()
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim < 2:
        raise ValueError(f"kernel must have at least 2 axes, got {arr.ndim}")

    if not arr.any():
        factors = tuple(_read_only(np.eye(n, 1, dtype=np.complex128).ravel()) for n in arr.shape)
        return SigmaEstimate(sigma=0.0, factors=Rank1Factors(factors), converged=True)

    warm = _warm_vectors(arr.shape, config.warm_start)
    if not warm:
        return _solve(arr, config, warm)
    key = tuple(getattr(config, f.name) for f in fields(config) if f.name != "warm_start")
    key += tuple((v.dtype.str, v.shape, v.tobytes()) for v in warm)
    return _SOLVES.get(key, arr, lambda a: _solve(a, config, warm))


def _stages(arr: np.ndarray, config: HopmConfig, warm: list[np.ndarray]) -> list[tuple]:
    """The stages of a solve of ``arr`` from the warm vectors ``warm``, as
    the module docstring describes them: ``(k0, e, tol, batch, end)``, the
    kernel view ``k0`` scaled by 2**-e, the tolerance, whether it is a batch
    stage, and the count of the solve's sweeps at which it ends."""
    e = _binary_exponent(arr)
    e64 = _scale_exponent(e)
    k = np.ldexp(arr, -e64) if e64 else arr
    k0 = k.reshape(k.shape[0], -1)  # a view: an ordinary kernel is not copied
    last = (k0, e64, config.tol, False, config.n_iters)
    if warm or config.n_iters <= 2:
        return [last]
    # Scaling by a power of two is exact, so the copy is the kernel scaled
    # by 2**-e rounded once to float32.
    k32 = np.empty(k0.shape, dtype=np.float32)
    np.multiply(k0, 2.0 ** (e64 - e), out=k32, casting="same_kind")
    # A float32 value cannot resolve a relative change below about 1e-6.
    return [(k32, e, max(config.tol, 1e-6), True, config.n_iters - 2), last]


@np.errstate(over="ignore")  # a value beyond the float range raises below
def _run_stages(shape: tuple[int, ...], stages: list[tuple], us: list[np.ndarray]):
    """Sweep the restarts of ``us`` through ``stages``, leaving their final
    factors in ``us``.  Returns one row per sweep of every restart's latest
    value at the kernel's scale, each restart's sweeps and convergence, and
    its last value at its last stage's scale.  A final value beyond the
    float range raises ValueError."""
    n = us[0].shape[0]
    scripts = _spatial_scripts(len(shape) - 2)
    rows: list[np.ndarray] = []
    last = np.zeros(n)
    sweeps = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    # cur holds the live restarts' factors in live order, in the stage's
    # precision; it is us itself until a cast or a compaction copies it.
    live, cur = np.arange(n), us
    for k0, e, tol, batch, end in stages:
        cur = [c.astype(np.promote_types(k0.dtype, np.complex64), copy=False) for c in cur]
        prev = np.full(live.size, -1.0)
        while len(rows) < end and live.size:
            sigma = _sweep(k0, shape, cur, scripts).astype(np.float64, copy=False)
            last[live] = sigma
            sweeps[live] += 1
            rows.append(np.ldexp(last, e))
            done = (prev >= 0.0) & (np.abs(sigma - prev) <= tol * np.maximum(sigma, 1e-300))
            prev = sigma
            if not done.any():
                continue
            if batch:
                break
            converged[live[done]] = True
            for u, c in zip(us, cur):
                u[live[done]] = c[done]
            cur, live, prev = [c[~done] for c in cur], live[~done], prev[~done]
    for u, c in zip(us, cur):
        u[live] = c
    _finite(float(rows[-1].max()), "the rank-1 value")
    return rows, sweeps, converged, last


def _solve(arr: np.ndarray, config: HopmConfig, warm: list[np.ndarray]) -> SigmaEstimate:
    """:func:`hopm` of a checked, nonzero tensor from checked warm vectors."""
    us = _starting_points(arr.shape, config, warm)
    stages = _stages(arr, config, warm)
    rows, sweeps, converged, last = _run_stages(arr.shape, stages, us)
    best = int(np.argmax(last))  # first maximum: ties keep the earliest restart
    # A batch stage stops no restart, so every restart ends in the last
    # stage, scaled by its exponent e.
    sigmas = np.ldexp(last, stages[-1][1])
    return SigmaEstimate(
        sigma=float(sigmas[best]),
        factors=Rank1Factors(tuple(_read_only(u[best].copy()) for u in us)),
        converged=bool(converged[best]),
        objective_history=tuple(np.array(rows)[: sweeps[best], best].tolist()),
        restart_sigmas=tuple(sigmas.tolist()),
        restart_sweeps=tuple(sweeps.tolist()),
        restart_converged=tuple(converged.tolist()),
    )


@dataclass(frozen=True)
class TnBound:
    """Sandwich for the convolution Jacobian norm: lower <= ||T||_2 <= upper.

    Holds the rank-1 solve and the scale sqrt(k_1 * ... * k_d) of the
    kernel's spatial sizes; ``lower`` is the solve's value and ``upper`` is
    that value times the scale (ValueError when beyond the float range).
    """

    estimate: SigmaEstimate
    scale: float

    @property
    def lower(self) -> float:
        return self.estimate.sigma

    @property
    def upper(self) -> float:
        return _finite(self.scale * self.estimate.sigma, "the TN upper bound")

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
    = Re(conj(z) * O) / sigma = Re(head x t): the head conj(z) * u1 / sigma
    times the tail t = u2 x ... x ud.  Both are read from the view
    ``K0 = k.reshape(c_out, rest)`` against T = [Re t, Im t], t flattened
    row-major like K0's columns: z = u1 . (K0 @ T) is one real GEMM, and the
    gradient ``[Re head, -Im head] @ T^T`` another.  The value is the one at
    ``factors``, read from z.  Raises when it is zero (the norm is not
    differentiable there).
    """
    arr = as_dense_tensor(k, "kernel")
    vs = _check_vectors(arr.shape, factors.factors)
    tail = reduce(np.multiply.outer, vs[1:]).ravel()
    t = np.stack([tail.real, tail.imag], axis=1)
    kt = arr.reshape(arr.shape[0], -1) @ t
    z = complex(vs[0] @ (kt[:, 0] + 1j * kt[:, 1]))
    sigma = abs(z)
    if sigma == 0.0:
        raise ValueError("gradient undefined at zero norm")
    head = np.conj(z) / sigma * vs[0]
    grad = np.stack([head.real, -head.imag], axis=1) @ t.T
    return grad.reshape(arr.shape)


def tn_gradient(k, factors: Rank1Factors) -> np.ndarray:
    """Gradient of ``tn_bound``'s upper bound sqrt(k_1 * ... * k_d) * sigma
    with respect to a (c_out, c_in, k_1, ..., k_d) kernel, d >= 1."""
    scale = math.sqrt(math.prod(_spatial_shape(np.shape(k))))
    return scale * singular_value_gradient(k, factors)
