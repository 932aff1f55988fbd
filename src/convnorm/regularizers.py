"""Orthogonality and spectral-norm regularizers on convolution kernels.

For circular padding the Gram matrix T^T T of a convolution Jacobian is
itself the Jacobian of a convolution; its generating kernel is the full
cross-correlation of the kernel with itself over the output-channel axis
(``self_gram_kernel``).  Orthogonality penalties then become kernel-level
quantities, independent of the input resolution:

* ``ocnn_loss``   -- Frobenius distance of the self-gram kernel from the
  identity kernel (every Jacobian singular value near 1 on average).
* ``twonorm_loss`` -- rank-1 value of (self-gram - identity); penalizes the
  single worst singular-value deviation, with a certified upper bound
  sqrt((2h-1)(2w-1)) * sigma on ||T^T T - I||_2.
* ``ratio_loss``  -- sqrt(h*w)*sigma / ||K||_F; scale-free, minimized when
  the singular values are flat.

Gradients are closed-form: the quadratic self-gram map is differentiated by
a correlation chain rule, the sigma terms by holding the maximizing vectors
fixed (their variation contributes nothing at an optimum).

Cost: the self-gram kernel and its chain rule each run h*w BLAS matmuls, one
per kernel tap, against that tap's window of the zero-padded kernel viewed
as a ``(c_out, c_in*(2h-1)*(2w-1))`` matrix; the chain rule first folds the
cotangent and its transpose-flip into one symmetrized weight tensor.  Only
one window is materialized at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hopm import HopmConfig, SigmaEstimate, hopm, singular_value_gradient, tn_bound, tn_gradient
from .tensor_ops import as_dense_tensor, frobenius

__all__ = [
    "SelfGramKernel",
    "TwoNormResult",
    "self_gram_kernel",
    "identity_gram_target",
    "ocnn_loss",
    "twonorm_loss",
    "ratio_loss",
    "regularizer_gradient",
]

REGULARIZERS = ("tn", "ocnn", "ratio", "2norm")


@dataclass(frozen=True)
class SelfGramKernel:
    """Generating kernel of T^T T: shape (c_in, c_in, 2h-1, 2w-1)."""

    tensor: np.ndarray
    center: tuple[int, int]


def _tap_windows(k: np.ndarray):
    """Yield ``(p, q, window)`` for every tap (p, q) of a 4-axis kernel.

    ``window`` is the ``(c_out, c_in*(2h-1)*(2w-1))`` matrix with entry
    ``[c, (b, u, v)] = K[c, b, p+u-(h-1), q+v-(w-1)]`` (zero out of range):
    the kernel as seen from tap (p, q) at every self-gram offset (u, v).
    """
    c_out, _, h, w = k.shape
    padded = np.pad(k, ((0, 0), (0, 0), (h - 1, h - 1), (w - 1, w - 1)))
    for p in range(h):
        for q in range(w):
            window = padded[:, :, p : p + 2 * h - 1, q : q + 2 * w - 1]
            yield p, q, window.reshape(c_out, -1)


def self_gram_kernel(k) -> SelfGramKernel:
    """Full self cross-correlation over output channels.

    G[a, b, u, v] = sum_{c,p,q} K[c,a,p,q] * K[c,b,p+u-(h-1),q+v-(w-1)],
    out-of-range taps contributing zero.  Satisfies the transpose-flip
    symmetry G[a,b,u,v] = G[b,a,2h-2-u,2w-2-v].
    """
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    _, c_in, h, w = arr.shape
    gram = np.zeros((c_in, c_in * (2 * h - 1) * (2 * w - 1)))
    for p, q, window in _tap_windows(arr):
        gram += arr[:, :, p, q].T @ window
    return SelfGramKernel(
        tensor=gram.reshape(c_in, c_in, 2 * h - 1, 2 * w - 1), center=(h - 1, w - 1)
    )


def identity_gram_target(c_in: int, h: int, w: int) -> np.ndarray:
    """Kernel generating the identity map: delta at (a, a, h-1, w-1)."""
    e = np.zeros((c_in, c_in, 2 * h - 1, 2 * w - 1))
    e[np.arange(c_in), np.arange(c_in), h - 1, w - 1] = 1.0
    return e


def _gram_residual(k) -> np.ndarray:
    arr = as_dense_tensor(k, "kernel")
    gram = self_gram_kernel(arr).tensor
    return gram - identity_gram_target(arr.shape[1], arr.shape[2], arr.shape[3])


def ocnn_loss(k) -> float:
    """Frobenius distance of the self-gram kernel from the identity kernel."""
    return frobenius(_gram_residual(k))


@dataclass(frozen=True)
class TwoNormResult:
    """Rank-1 value of the gram residual plus its certified matrix bound."""

    sigma: float
    certified_upper: float
    estimate: SigmaEstimate


def twonorm_loss(k, config: HopmConfig | None = None) -> TwoNormResult:
    """Rank-1 value of (self-gram - identity).

    ``sigma`` lower-bounds ||T^T T - I||_2 for the circular Jacobian T, and
    ``certified_upper = sqrt((2h-1)(2w-1)) * sigma`` upper-bounds it.
    """
    bound = tn_bound(_gram_residual(k), config)
    return TwoNormResult(bound.lower, bound.upper, bound.estimate)


def ratio_loss(k, config: HopmConfig | None = None) -> float:
    """sqrt(h*w) * sigma / ||K||_F; scale-invariant, at most sqrt(h*w)."""
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    fro = frobenius(arr)
    if fro == 0.0:
        raise ValueError("ratio undefined for a zero kernel")
    return tn_bound(arr, config).upper / fro


def _gram_chain(k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pull a cotangent on the self-gram kernel back to the kernel.

    For G(K) the self-gram map, returns d<W, G(K)>/dK.  The two appearances
    of K contribute a correlation with W and one with its transpose-flip;
    both read the same tap windows, so they are summed into one weight
    tensor first.
    """
    c_in = k.shape[1]
    sym = weights + weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    sym_t = sym.reshape(c_in, -1).T
    grad = np.empty_like(k)
    for p, q, window in _tap_windows(k):
        grad[:, :, p, q] = window @ sym_t
    return grad


def regularizer_gradient(which: str, k, config: HopmConfig | None = None) -> np.ndarray:
    """Analytic gradient of one of the regularizers with respect to the kernel.

    ``tn``    gradient of sqrt(h*w)*sigma(K);
    ``ratio`` quotient rule on tn and ||K||_F;
    ``ocnn``  chain rule through the quadratic self-gram map (zero at the
              exact minimum, where the norm is not differentiable);
    ``2norm`` sigma gradient on the gram residual chained through the same
              quadratic map.
    All returned in real arithmetic.  Raises at zero-sigma points, where the
    respective loss is not differentiable.
    """
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    if which == "tn":
        est = hopm(arr, config)
        return tn_gradient(arr, est.factors)
    if which == "ratio":
        fro = frobenius(arr)
        if fro == 0.0:
            raise ValueError("ratio undefined for a zero kernel")
        tn = tn_bound(arr, config)
        ratio = tn.upper / fro
        return tn_gradient(arr, tn.estimate.factors) / fro - ratio * arr / fro**2
    if which == "ocnn":
        residual = _gram_residual(arr)
        norm = frobenius(residual)
        if norm == 0.0:
            return np.zeros_like(arr)  # exact minimum; 0 is the subgradient
        return _gram_chain(arr, residual / norm)
    if which == "2norm":
        residual = _gram_residual(arr)
        est = hopm(residual, config)
        if est.sigma == 0.0:
            raise ValueError("gradient undefined at zero norm")
        return _gram_chain(arr, singular_value_gradient(residual, est.factors))
    raise ValueError(f"unknown regularizer {which!r}; expected one of {REGULARIZERS}")
