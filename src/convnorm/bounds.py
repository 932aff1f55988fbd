"""Jacobian-norm bounds: the unfolding bound and strides.

The tensor-norm sandwich of :func:`convnorm.hopm.tn_bound` covers kernels
with any number of spatial axes.  This module adds what real architectures
need around it:

* ``f4_bound`` -- the classic competitor: sqrt(k_1 * ... * k_d) times the
  minimum spectral norm over 2^d kernel unfoldings (F4's four at d = 2).
  The tensor norm never exceeds the norm of any unfolding, so the TN upper
  bound is never worse.  An unfolding stops early once it cannot be the
  minimum.
* ``strided_kernel_transform`` -- a stride-s convolution equals a stride-1
  convolution with a zero-padded, regrouped kernel Q, so
  ``tn_bound(strided_kernel_transform(k, s))`` bounds the stride-s Jacobian
  with the reduced spatial sizes under the square root.
* ``make_bound_report`` -- the TN bound and F4 for one kernel, both computed
  on Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hopm import HopmConfig, TnBound, tn_bound
from .tensor_ops import (
    _finite,
    _integer,
    _seed,
    _spatial_shape,
    as_dense_tensor,
    matrix_spectral_norm,
)

__all__ = [
    "BoundReport",
    "f4_bound",
    "strided_kernel_transform",
    "make_bound_report",
]


def f4_bound(k, seed: int = 0) -> float:
    """sqrt(k_1 * ... * k_d) times the minimum spectral norm over 2^d unfoldings.

    The unfoldings pair (out,A|in,rest) for each nonempty proper subset A of
    the spatial axes, in ``itertools.combinations`` order, then (out|rest)
    and (in|rest): at d = 2, F4's (out,h|in,w), (out,w|in,h), (out|rest),
    (in|rest).  Each upper-bounds the tensor norm, so this always dominates
    the TN bound.  Each norm is a :func:`matrix_spectral_norm` of at most 300
    steps at relative tolerance 1e-12, started from ``seed``, a nonnegative
    integer.  An unfolding is the kernel with its axes permuted to the row
    group then the column group, reshaped row-major: (out|rest) is a view of
    the kernel, and each other unfolding is one copy.

    Only the minimum matters, so each norm is capped at the smallest one
    already finished: a Lanczos estimate never decreases, so once it passes
    that value the unfolding cannot be the minimum and its loop stops.  The
    result is bit for bit the minimum of the uncapped norms.  The kernel is
    checked once, and each unfolding is freed before the next is built.  A
    kernel of extreme magnitude is taken as it is: the Lanczos loop rescales
    any vector whose norm would overflow or underflow (see
    ``tensor_ops._unit``); a bound beyond the float range raises ValueError.
    """
    arr = as_dense_tensor(k, "kernel")
    spatial = _spatial_shape(arr.shape)
    _seed(seed)
    axes = range(2, arr.ndim)
    groups = [([0, *a], [1, *(i for i in axes if i not in a)])
              for size in range(1, len(spatial)) for a in itertools.combinations(axes, size)]
    groups += [([0], [1, *axes]), ([1], [0, *axes])]
    smallest = math.inf
    for rows, cols in groups:
        smallest = min(smallest, matrix_spectral_norm(
            arr.transpose(rows + cols).reshape(math.prod(arr.shape[i] for i in rows), -1),
            iters=300, tol=1e-12, seed=seed, cap=smallest,
        ))
    return _finite(math.sqrt(math.prod(spatial)) * smallest, "the F4 bound")


def strided_kernel_transform(k, stride: int) -> np.ndarray:
    """Regroup a (c_out, c_in, k_1, ..., k_d) kernel so stride-s becomes stride-1.

    Spatial axes are zero-padded at the end up to multiples of ``stride``,
    then each s x ... x s cell of taps is folded into the channel axis; at
    d = 2, K[c, e, a, b] lands at Q[c, e*s^2 + s*(a % s) + (b % s), a // s, b // s].
    The result has shape (c_out, c_in*s^d, ceil(k_1/s), ..., ceil(k_d/s)) and
    the same Frobenius norm (the map is a permutation of entries plus zeros).
    """
    arr = as_dense_tensor(k, "kernel")
    spatial = _spatial_shape(arr.shape)
    s = _integer(stride, "stride")
    if s < 1:
        raise ValueError("stride must be positive")
    if s == 1:
        return arr
    pads = [-n % s for n in spatial]
    if any(pads):
        arr = np.pad(arr, ((0, 0), (0, 0), *((0, p) for p in pads)))
    reduced = [m // s for m in arr.shape[2:]]
    d = len(spatial)
    # (c_out, c_in, r_1, s, ..., r_d, s) -> (c_out, c_in, s, ..., s, r_1, ..., r_d)
    q = arr.reshape(*arr.shape[:2], *(x for r in reduced for x in (r, s)))
    q = q.transpose(0, 1, *range(3, 2 * d + 2, 2), *range(2, 2 * d + 2, 2))
    return np.ascontiguousarray(q.reshape(arr.shape[0], arr.shape[1] * s**d, *reduced))


@dataclass
class BoundReport:
    """All bound values for one kernel.

    ``tn`` is the TN bound with its rank-1 solve, which carries the lower
    end, the upper end and the solve's diagnostics.  Raw values only; ratios
    are derived on demand so stored reports never accumulate rounding.
    ``oracle_norm`` stays None unless a reference was requested.
    """

    kernel_shape: tuple[int, ...]
    tn: TnBound
    f4_upper: float
    oracle_norm: float | None = None

    def ratios(self) -> dict:
        out = {}
        if self.oracle_norm:
            out["tn_over_oracle"] = self.tn.upper / self.oracle_norm
            out["f4_over_oracle"] = self.f4_upper / self.oracle_norm
        return out


def make_bound_report(
    k,
    stride: int = 1,
    hopm_config: HopmConfig | None = None,
    f4_seed: int = 0,
) -> BoundReport:
    """Compute the TN bound and F4 for one kernel (oracle column left for the
    caller).

    Both bounds are computed on the same operator: the stride-1 kernel Q of
    :func:`strided_kernel_transform`, which is the kernel itself at stride 1.
    Neither depends on the padding or the input size.
    """
    q = strided_kernel_transform(k, stride)
    return BoundReport(
        kernel_shape=tuple(np.shape(k)),
        tn=tn_bound(q, hopm_config),
        f4_upper=f4_bound(q, seed=f4_seed),
    )
