"""Orthogonality and spectral-norm regularizers on convolution kernels.

For circular padding the Gram matrix T^T T of a convolution Jacobian is
itself the Jacobian of a convolution; its generating kernel is the full
cross-correlation of the kernel with itself over the output-channel axis
(``self_gram_kernel``).  Orthogonality penalties then become kernel-level
quantities, independent of the input resolution:

* ``ocnn_loss``   -- Frobenius distance of the self-gram kernel from the
  identity kernel (every Jacobian singular value near 1 on average).
* ``twonorm_loss`` -- the TN bound of (self-gram - identity): its rank-1
  value sigma penalizes the single worst singular-value deviation, and its
  upper end sqrt((2h-1)(2w-1)) * sigma is a certified bound on
  ||T^T T - I||_2.
* ``ratio_loss``  -- sqrt(h*w)*sigma / ||K||_F; scale-free, minimized when
  the singular values are flat.

Gradients are closed-form: the quadratic self-gram map is differentiated by
a correlation chain rule, the sigma terms by holding the maximizing vectors
fixed (their variation contributes nothing at an optimum).

Cost: the self-gram kernel is one dense GEMM, the Gram matrix
``M = km.T @ km`` of the channel-last kernel matrix
``km = K.transpose(0, 2, 3, 1).reshape(c_out, h*w*c_in)``, whose tap-pair
blocks are then summed by offset in long contiguous slice-adds: h for the
row offsets, w for the column offsets.  M is formed one kernel row at a
time, so it is never held whole: the temporaries are one
``(h*w*c_in, w*c_in)`` slab and the ``(2h-1, w*c_in, w*c_in)`` row-offset
sums.  The chain rule is the adjoint: the symmetrized cotangent is gathered
into M's layout and multiplied by ``km``, again one kernel row at a time.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hopm import HopmConfig, TnBound, hopm, singular_value_gradient, tn_bound, tn_gradient
from .tensor_ops import as_dense_tensor, frobenius

__all__ = [
    "self_gram_kernel",
    "identity_gram_target",
    "ocnn_loss",
    "twonorm_loss",
    "ratio_loss",
    "regularizer_gradient",
]

REGULARIZERS = ("tn", "ocnn", "ratio", "2norm")


def _as_4d_kernel(k) -> np.ndarray:
    """:func:`as_dense_tensor` for the (c_out, c_in, h, w) kernel of the self-gram fold."""
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    return arr


def self_gram_kernel(k) -> np.ndarray:
    """Full self cross-correlation over output channels: the generating
    kernel of T^T T, of shape (c_in, c_in, 2h-1, 2w-1).

    G[a, b, u, v] = sum_{c,p,q} K[c,a,p,q] * K[c,b,p+u-(h-1),q+v-(w-1)],
    out-of-range taps contributing zero, so the zero offset sits at the
    centre (h-1, w-1).  Satisfies the transpose-flip
    symmetry G[a,b,u,v] = G[b,a,2h-2-u,2w-2-v].  Computed by the channel-Gram
    fold described in the module docstring.
    """
    arr = _as_4d_kernel(k)
    c_out, c_in, h, w = arr.shape
    km = arr.transpose(0, 2, 3, 1).reshape(c_out, -1)
    span = w * c_in
    # Row p's slab km.T @ km[:, p-block] is [(p', q', b), (q, a)]; its p'
    # block lands on row offset u = p'-p+h-1 of rows[u, (q', b), (q, a)].
    rows = np.zeros((2 * h - 1, span, span))
    for p in range(h):
        rows[h - 1 - p : 2 * h - 1 - p] += (km.T @ km[:, p * span : (p + 1) * span]).reshape(
            h, span, span
        )
    rows = rows.reshape(2 * h - 1, w, c_in, w, c_in)
    folded = np.zeros((2 * h - 1, 2 * w - 1, c_in, c_in))  # [u, v, b, a]
    for q in range(w):
        folded[:, w - 1 - q : 2 * w - 1 - q] += rows[:, :, :, q, :]
    del rows  # freed before the transpose copy, which bounds the peak memory
    return np.ascontiguousarray(folded.transpose(3, 2, 0, 1))


def identity_gram_target(c_in: int, h: int, w: int) -> np.ndarray:
    """Kernel generating the identity map: delta at (a, a, h-1, w-1)."""
    e = np.zeros((c_in, c_in, 2 * h - 1, 2 * w - 1))
    e[np.arange(c_in), np.arange(c_in), h - 1, w - 1] = 1.0
    return e


def _gram_residual(k) -> np.ndarray:
    gram = self_gram_kernel(k)
    c_in, _, h2, w2 = gram.shape  # (c_in, c_in, 2h-1, 2w-1): the centre is (h-1, w-1)
    gram[np.arange(c_in), np.arange(c_in), h2 // 2, w2 // 2] -= 1.0
    return gram


def ocnn_loss(k) -> float:
    """Frobenius distance of the self-gram kernel from the identity kernel."""
    return frobenius(_gram_residual(k))


def twonorm_loss(k, config: HopmConfig | None = None) -> TnBound:
    """The TN bound of (self-gram - identity).

    Its ``lower``, the rank-1 value sigma, lower-bounds ||T^T T - I||_2 for
    the circular Jacobian T, and ``upper = sqrt((2h-1)(2w-1)) * sigma``
    upper-bounds it.
    """
    return tn_bound(_gram_residual(k), config)


def _ratio_parts(arr: np.ndarray, config: HopmConfig | None) -> tuple[TnBound, float]:
    """The TN bound and the Frobenius norm of a kernel, the ratio's two parts."""
    fro = frobenius(arr)
    if fro == 0.0:
        raise ValueError("ratio undefined for a zero kernel")
    return tn_bound(arr, config), fro


def ratio_loss(k, config: HopmConfig | None = None) -> float:
    """sqrt(h*w) * sigma / ||K||_F; scale-invariant, at most sqrt(h*w)."""
    tn, fro = _ratio_parts(_as_4d_kernel(k), config)
    return tn.upper / fro


def _gram_chain(k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pull a cotangent on the self-gram kernel back to the kernel.

    For G(K) the self-gram map, returns d<W, G(K)>/dK.  The two appearances
    of K contribute a correlation with W and one with its transpose-flip,
    summed first into one weight tensor ``sym``.  The pullback is the
    adjoint of the fold in :func:`self_gram_kernel`: ``sym`` is gathered into the
    channel Gram's layout, ``Ms[(p, q, a), (p', q', b)] =
    sym[a, b, p'-p+h-1, q'-q+w-1]`` (a symmetric matrix), and the gradient
    of the channel-last kernel matrix is ``km @ Ms``, one kernel row of Ms
    at a time.
    """
    c_out, c_in, h, w = k.shape
    sym = weights + weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    km = k.transpose(0, 2, 3, 1).reshape(c_out, -1)
    # win[a, p, q, b, p', q'] = sym[a, b, p'-p+h-1, q'-q+w-1]
    win = sliding_window_view(sym.transpose(0, 2, 3, 1), (h, w), axis=(1, 2))[:, ::-1, ::-1]
    grad = np.empty((c_out, h, w * c_in))
    for p in range(h):
        grad[:, p] = km @ win[:, p].transpose(1, 0, 3, 4, 2).reshape(w * c_in, -1).T
    return np.ascontiguousarray(grad.reshape(c_out, h, w, c_in).transpose(0, 3, 1, 2))


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
    arr = _as_4d_kernel(k)
    if which == "tn":
        est = hopm(arr, config)
        return tn_gradient(arr, est.factors)
    if which == "ratio":
        tn, fro = _ratio_parts(arr, config)
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
        factors = hopm(residual, config).factors
        return _gram_chain(arr, singular_value_gradient(residual, factors))
    raise ValueError(f"unknown regularizer {which!r}; expected one of {REGULARIZERS}")
