"""Orthogonality and spectral-norm regularizers on convolution kernels.

For circular padding the Gram matrix T^T T of a convolution Jacobian is
itself the Jacobian of a convolution; its generating kernel is the full
cross-correlation of the kernel with itself over the output-channel axis
(``self_gram_kernel``).  Orthogonality penalties then become kernel-level
quantities, independent of the input resolution.  For a kernel
(c_out, c_in, k_1, ..., k_d), d >= 1:

* ``ocnn_loss``   -- Frobenius distance of the self-gram kernel from the
  identity kernel (every Jacobian singular value near 1 on average).
* ``twonorm_loss`` -- the TN bound of (self-gram - identity): its rank-1
  value sigma penalizes the single worst singular-value deviation, and its
  upper end sqrt((2k_1-1)...(2k_d-1)) * sigma is a certified bound on
  ||T^T T - I||_2.
* ``ratio_loss``  -- sqrt(k_1...k_d)*sigma / ||K||_F; scale-free, minimized
  when the singular values are flat.

Gradients are closed-form: the quadratic self-gram map is differentiated by
a correlation chain rule, the sigma terms by holding the maximizing vectors
fixed (their variation contributes nothing at an optimum).

Cost: the self-gram kernel is one dense GEMM, the Gram matrix
``M = km.T @ km`` of the channel-last kernel matrix
``km = np.moveaxis(K, 1, -1).reshape(c_out, -1)``, whose tap-pair blocks
are then summed by offset in long contiguous slice-adds: k_1 for the
offsets on the first spatial axis, then k_j for each further axis j, each
axis folded into a fresh offset buffer.  M is formed one kernel row (one
index on the first spatial axis) at a time, so it is never held whole.  The
chain rule is the adjoint: the symmetrized cotangent is gathered into M's
layout and multiplied by ``km``, again one kernel row at a time.

Reuse: the gram residual (self-gram minus identity) of the last kernel is
kept with a private copy of that kernel, read-only, and returned again for
a kernel bit for bit equal to it, after the same checks; a training step
needs it for ``ocnn_loss``, ``twonorm_loss`` and two gradients.  The sigma
terms rely on :func:`hopm` remembering its last two warm-started solves, so
a step that warm-starts each solve solves the kernel and its residual once
each.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hopm import HopmConfig, TnBound, hopm, singular_value_gradient, tn_bound, tn_gradient
from .tensor_ops import _Memo, _real, _scale_exponent, _spatial_shape, as_dense_tensor, frobenius

__all__ = [
    "self_gram_kernel",
    "ocnn_loss",
    "twonorm_loss",
    "ratio_loss",
    "regularizer_gradient",
]

REGULARIZERS = ("tn", "ocnn", "ratio", "2norm")


def self_gram_kernel(k) -> np.ndarray:
    """Full self cross-correlation over output channels: the generating
    kernel of T^T T, of shape (c_in, c_in, 2k_1-1, ..., 2k_d-1).

    G[a, b, u] = sum_{c,p} K[c,a,p] * K[c,b,p+u-(k-1)] over spatial index
    tuples p and offsets u, out-of-range taps contributing zero, so the zero
    offset sits at the centre (k_1-1, ..., k_d-1).  Satisfies the
    transpose-flip symmetry G[a,b,u] = G[b,a,2k-2-u].  Computed by the
    channel-Gram fold described in the module docstring.
    """
    return _self_gram(_checked_kernel(k))


def _checked_kernel(k) -> np.ndarray:
    """``k`` as a dense float64 kernel with at least one spatial axis."""
    arr = as_dense_tensor(k, "kernel")
    _spatial_shape(arr.shape)
    return arr


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def _self_gram(arr: np.ndarray) -> np.ndarray:
    """:func:`self_gram_kernel` of a checked kernel; ValueError if it overflows."""
    spatial = arr.shape[2:]
    c_out, c_in, h = arr.shape[:3]
    km = arr.transpose(0, *range(2, arr.ndim), 1).reshape(c_out, -1)
    span = km.shape[1] // h
    # Row p's slab km.T @ km[:, p-block] is [(p', rest'), (rest)]; its p'
    # block lands on offset u = p'-p+h-1 of gram[u, (rest'), (rest)].
    gram = np.zeros((2 * h - 1, span, span))
    for p in range(h):
        gram[h - 1 - p : 2 * h - 1 - p] += (km.T @ km[:, p * span : (p + 1) * span]).reshape(
            h, span, span
        )
    # Fold axis j: gram[..., (q', rest'), (q, rest)] -> folded[..., q'-q+k_j-1, rest', rest].
    for kj in spatial[1:]:
        span //= kj
        gram = gram.reshape(-1, kj, span, kj, span)
        folded = np.zeros((len(gram), 2 * kj - 1, span, span))
        for q in range(kj):
            folded[:, kj - 1 - q : 2 * kj - 1 - q] += gram[:, :, :, q, :]
        gram = folded  # frees the previous buffer before the next fold or the final copy
    if not np.isfinite(gram).all():
        raise ValueError("the self-gram kernel overflows the float range")
    gram = gram.reshape(*(2 * s - 1 for s in spatial), c_in, c_in)  # [u, b, a]
    return np.ascontiguousarray(gram.transpose(-1, -2, *range(len(spatial))))


# The last kernel's gram residual: a training step builds it for two losses
# and two gradients.
_RESIDUALS = _Memo(1)


def _gram_residual(k) -> np.ndarray:
    """The self-gram kernel minus the identity kernel (1 at (a, a, centre)),
    read-only.  A kernel bit for bit equal to the last one, after the same
    checks, gets the residual already built."""
    return _RESIDUALS.get((), _checked_kernel(k), _build_residual)


def _build_residual(arr: np.ndarray) -> np.ndarray:
    gram = _self_gram(arr)
    diagonal = (np.arange(len(gram)),) * 2
    gram[diagonal + tuple(s // 2 for s in gram.shape[2:])] -= 1.0
    gram.setflags(write=False)
    return gram


def ocnn_loss(k) -> float:
    """Frobenius distance of the self-gram kernel from the identity kernel."""
    return frobenius(_gram_residual(k))


def twonorm_loss(k, config: HopmConfig | None = None) -> TnBound:
    """The TN bound of (self-gram - identity).

    Its ``lower``, the rank-1 value sigma, lower-bounds ||T^T T - I||_2 for
    the circular Jacobian T, and ``upper = sqrt((2k_1-1)...(2k_d-1)) * sigma``
    upper-bounds it.
    """
    return tn_bound(_gram_residual(k), config)


def _ratio_parts(k, config: HopmConfig | None) -> tuple[float, TnBound, float, int]:
    """The ratio sqrt(k_1...k_d) * sigma / ||K||_F of a kernel, its TN bound,
    2**-e ||K||_F and e, which ``tensor_ops._scale_exponent`` takes from
    ||K||_F: the ratio is formed from sigma and ||K||_F scaled by 2**-e."""
    tn = tn_bound(k, config)
    fro = frobenius(k)
    if fro == 0.0:
        raise ValueError("ratio undefined for a zero kernel")
    e = _scale_exponent(math.frexp(fro)[1])
    fro = math.ldexp(fro, -e)
    return tn.scale * math.ldexp(tn.lower, -e) / fro, tn, fro, e


def ratio_loss(k, config: HopmConfig | None = None) -> float:
    """sqrt(k_1...k_d) * sigma / ||K||_F; scale-invariant, at most sqrt(k_1...k_d)."""
    return _ratio_parts(k, config)[0]


def _gram_chain(k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pull a cotangent on the self-gram kernel back to the kernel.

    For G(K) the self-gram map, returns d<W, G(K)>/dK.  The two appearances
    of K contribute a correlation with W and one with its transpose-flip,
    summed first into one weight tensor ``sym``.  The pullback is the
    adjoint of the fold in :func:`self_gram_kernel`: ``sym`` is gathered
    into the channel Gram's layout, ``Ms[(p, a), (p', b)] =
    sym[a, b, p'-p+k-1]`` over spatial index tuples p, p' (a symmetric
    matrix), and the gradient of the channel-last kernel matrix is
    ``km @ Ms``, one kernel row of Ms at a time.
    """
    c_out, c_in, h = k.shape[:3]
    spatial, d = k.shape[2:], k.ndim - 2
    channel_last, taps = (0, *range(2, d + 2), 1), tuple(range(1, d + 1))
    km = k.transpose(channel_last).reshape(c_out, -1)
    span = km.shape[1] // h
    flip = (slice(None, None, -1),) * d
    sym = weights + weights.swapaxes(0, 1)[(..., *flip)]
    # win[a, p, b, p'] = sym[a, b, p'-p+k-1]
    win = sliding_window_view(sym.transpose(channel_last), spatial, taps)[(slice(None), *flip)]
    # win[:, p] is [a, p_2..p_d, b, p'], gathered as [(p_2..p_d, a), (p', b)]
    order = (*range(1, d), 0, *range(d + 1, 2 * d + 1), d)
    grad = np.empty((c_out, h, span))
    for p in range(h):
        grad[:, p] = km @ win[:, p].transpose(order).reshape(span, -1).T
    return np.ascontiguousarray(grad.reshape(c_out, *spatial, c_in).transpose(0, -1, *taps))


def regularizer_gradient(which: str, k, config: HopmConfig | None = None) -> np.ndarray:
    """Analytic gradient of one of the regularizers with respect to the kernel.

    ``tn``    gradient of sqrt(k_1...k_d)*sigma(K);
    ``ratio`` quotient rule on tn and ||K||_F;
    ``ocnn``  chain rule through the quadratic self-gram map (zero at the
              exact minimum, where the norm is not differentiable);
    ``2norm`` sigma gradient on the gram residual chained through the same
              quadratic map.
    All returned in real arithmetic.  Raises at zero-sigma points, where the
    respective loss is not differentiable.
    """
    arr = _real(k, "kernel")  # checked further by each branch's first callee
    if which == "tn":
        return tn_gradient(arr, tn_bound(arr, config).estimate.factors)
    if which == "ratio":
        ratio, tn, fro, e = _ratio_parts(arr, config)
        # The quotient rule on K and ||K||_F scaled by 2**-e, scaled back.
        scaled = np.ldexp(arr, -e) if e else arr
        grad = tn_gradient(arr, tn.estimate.factors) / fro - ratio * scaled / fro**2
        return np.ldexp(grad, -e, out=grad) if e else grad
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
