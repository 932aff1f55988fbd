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
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hopm import HopmConfig, TnBound, tn_bound
from .tensor_ops import _integer, _spatial_shape, _unfold, as_dense_tensor, matrix_spectral_norm

__all__ = [
    "ConvConfig",
    "BoundReport",
    "f4_bound",
    "strided_kernel_transform",
    "centered_offsets",
    "make_bound_report",
]


def centered_offsets(spatial_shape: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Size-preserving (before, after) padding per spatial axis: k//2, k-1-k//2."""
    return tuple((k // 2, k - 1 - k // 2) for k in spatial_shape)


def _offsets_for(offsets, spatial: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Centered offsets for ``None``; else ``offsets`` checked as one
    nonnegative (before, after) pair per spatial axis, with before + after + 1
    the kernel size on that axis."""
    if offsets is None:
        return centered_offsets(spatial)
    items = list(offsets)
    if len(items) != len(spatial):
        raise ValueError(f"expected offsets for {len(spatial)} spatial axes, got {len(items)}")
    out = []
    for axis, (pair, k) in enumerate(zip(items, spatial)):
        if np.ndim(pair) != 1 or len(pair) != 2:
            raise ValueError(
                f"spatial axis {axis}: offsets must be a (before, after) pair, got {pair!r}"
            )
        lo, hi = int(pair[0]), int(pair[1])
        if lo < 0 or hi < 0:
            raise ValueError(f"spatial axis {axis}: offsets must be nonnegative")
        if lo + hi + 1 != k:
            raise ValueError(
                f"spatial axis {axis}: offsets {(lo, hi)} imply kernel size "
                f"{lo + hi + 1}, kernel has {k}"
            )
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class ConvConfig:
    """Fixes which Jacobian is meant: padding mode, offsets, stride, input size.

    ``offsets`` holds one (before, after) pair per spatial axis with
    before + after + 1 equal to the kernel size on that axis; ``None`` means
    centered (size-preserving) padding.  The stride is uniform across
    spatial axes and must divide the input size; circular padding additionally
    requires the input size to be at least the largest kernel size, because
    a kernel wrapping onto itself has no unambiguous block-circulant form.
    """

    input_size: int
    padding: str = "zero"
    stride: int = 1
    offsets: tuple | None = None

    def __post_init__(self):
        if self.padding not in ("zero", "circular"):
            raise ValueError(f"padding must be 'zero' or 'circular', got {self.padding!r}")
        _integer(self.input_size, "input_size")
        _integer(self.stride, "stride")
        if self.input_size < 1:
            raise ValueError("input_size must be positive")
        if self.stride < 1:
            raise ValueError("stride must be positive")

    def validate_for(self, kernel_shape: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Full consistency check of this config against a kernel shape;
        returns the (before, after) offsets per spatial axis."""
        spatial = _spatial_shape(kernel_shape)
        pairs = _offsets_for(self.offsets, spatial)
        if self.padding == "circular" and self.input_size < max(spatial):
            raise ValueError(
                f"circular padding needs input_size >= max kernel size "
                f"({max(spatial)}), got {self.input_size}"
            )
        if self.input_size % self.stride != 0:
            raise ValueError(f"stride {self.stride} must divide input_size {self.input_size}")
        return pairs


def f4_bound(k, seed: int = 0) -> float:
    """sqrt(k_1 * ... * k_d) times the minimum spectral norm over 2^d unfoldings.

    The unfoldings pair (out,A|in,rest) for each nonempty proper subset A of
    the spatial axes, in ``itertools.combinations`` order, then (out|rest)
    and (in|rest): at d = 2, F4's (out,h|in,w), (out,w|in,h), (out|rest),
    (in|rest).  Each upper-bounds the tensor norm, so this always dominates
    the TN bound.  Each norm is a :func:`matrix_spectral_norm` of at most 300
    steps at relative tolerance 1e-12, started from ``seed``.

    Only the minimum matters, so each norm is capped at the smallest one
    already finished: a Lanczos estimate never decreases, so once it passes
    that value the unfolding cannot be the minimum and its loop stops.  The
    result is bit for bit the minimum of the uncapped norms.  The kernel is
    checked once, and each unfolding is freed before the next is built.
    """
    arr = as_dense_tensor(k, "kernel")
    spatial = _spatial_shape(arr.shape)
    axes = range(2, arr.ndim)
    groups = [([0, *a], [1, *(i for i in axes if i not in a)])
              for size in range(1, len(spatial)) for a in itertools.combinations(axes, size)]
    groups += [([0], [1, *axes]), ([1], [0, *axes])]
    smallest = math.inf
    for rows, cols in groups:
        smallest = min(smallest, matrix_spectral_norm(
            _unfold(arr, rows, cols), iters=300, tol=1e-12, seed=seed, cap=smallest
        ))
    return math.sqrt(math.prod(spatial)) * smallest


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
    """All bound values for one kernel, plus timings.

    ``tn`` is the TN bound with its rank-1 solve, which carries the lower
    end, the upper end and the solve's diagnostics.  Raw values only; ratios
    are derived on demand so stored reports never accumulate rounding.
    ``oracle_norm`` stays None unless a reference was requested.
    """

    kernel_shape: tuple[int, ...]
    tn: TnBound
    f4_upper: float
    oracle_norm: float | None = None
    timings_ms: dict = field(default_factory=dict)

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
    t0 = time.perf_counter()
    q = strided_kernel_transform(k, stride)
    tn = tn_bound(q, hopm_config)
    t1 = time.perf_counter()
    f4 = f4_bound(q, seed=f4_seed)
    t2 = time.perf_counter()
    return BoundReport(
        kernel_shape=tuple(np.shape(k)),
        tn=tn,
        f4_upper=f4,
        timings_ms={"tn": (t1 - t0) * 1e3, "f4": (t2 - t1) * 1e3},
    )
