"""Ground truth for the bounds: dense Jacobians and matrix-free references.

A convolution is a linear map, so its Jacobian can be materialized as an
explicit matrix (doubly block Toeplitz for zero padding, doubly block
circulant for circular padding, every s-th output row-block kept for stride
s) or applied matrix-free.  The dense builder (and ``dense_jacobian_norm`` on
it) is the source of truth at small sizes; the matrix-free operator plus
Golub-Kahan-Lanczos scales to real input resolutions; and for circular
padding the norm is exact in closed form: the largest singular value of the
kernel's symbol over the grid 2*pi*j/n, built a bounded chunk of grid points
at a time, a third, independent route.  Each takes the kernel and one
:class:`ConvConfig`, which fixes the input size, padding and stride.

Vectorization order is fixed throughout: channel varies fastest, then the
last spatial axis, then earlier ones (flat index
``c + C * (x_d + n * x_{d-1} + ...)``).  Singular values do not depend on
this choice, but cross-checking matrices entrywise does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import strided_kernel_transform
from .tensor_ops import (_binary_exponent, _finite, _integer, _lanczos_norm, _real, _seed,
                         _spatial_shape, as_dense_tensor)

__all__ = [
    "ConvConfig",
    "LinearOperatorHandle",
    "PowerMethodResult",
    "build_dense_jacobian",
    "conv_operator",
    "power_method",
    "circular_exact_norm",
    "dense_jacobian_norm",
]

DENSE_ENTRY_CAP = 40_000_000
# Byte budget of one chunk of circular_exact_norm's phase and symbol matrices.
SYMBOL_CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class ConvConfig:
    """Fixes which Jacobian is meant: input size, padding mode, stride.

    The padding is centered on every spatial axis: an axis of kernel size k
    pads k//2 positions before and k - 1 - k//2 after, so an even kernel pads
    one position more before than after.  The stride is uniform across
    spatial axes and must divide the input size; circular padding
    additionally requires the input size to be at least the largest kernel
    size, because a kernel wrapping onto itself has no unambiguous
    block-circulant form.
    """

    input_size: int
    padding: str = "zero"
    stride: int = 1

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
        returns the centered (before, after) padding per spatial axis."""
        spatial = _spatial_shape(kernel_shape)
        if self.padding == "circular" and self.input_size < max(spatial):
            raise ValueError(
                f"circular padding needs input_size >= max kernel size "
                f"({max(spatial)}), got {self.input_size}"
            )
        if self.input_size % self.stride != 0:
            raise ValueError(f"stride {self.stride} must divide input_size {self.input_size}")
        return tuple((k // 2, k - 1 - k // 2) for k in spatial)


class LinearOperatorHandle:
    """Matrix-free forward/adjoint pair for the Jacobian ``vec(Y) = T vec(X)``.

    ``forward`` maps an input array of ``input_shape`` to ``output_shape``;
    ``adjoint`` maps back.  Both take real arrays only and raise for a
    complex one.  The pair must satisfy the dot test
    <y, T x> == <T^T y, x>, which the suite asserts on random vectors.
    """

    def __init__(self, input_shape, output_shape, forward, adjoint):
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self._forward = forward
        self._adjoint = adjoint

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _real(x, "input")
        if x.shape != self.input_shape:
            raise ValueError(f"expected input shape {self.input_shape}, got {x.shape}")
        return self._forward(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = _real(y, "cotangent")
        if y.shape != self.output_shape:
            raise ValueError(f"expected output shape {self.output_shape}, got {y.shape}")
        return self._adjoint(y)


def _conv_geometry(k: np.ndarray, config: ConvConfig):
    c_out, c_in = k.shape[0], k.shape[1]
    spatial = tuple(k.shape[2:])
    pads = config.validate_for(k.shape)
    n = config.input_size
    s = config.stride
    n_out = n // s
    return c_out, c_in, spatial, pads, n, s, n_out


def build_dense_jacobian(k, config: ConvConfig) -> np.ndarray:
    """Materialize the Jacobian matrix of the configured convolution.

    Block (output position p, input position q) holds the kernel tap
    K[:, :, q - s*p + k//2] (k//2 per spatial axis of kernel size k) where
    it exists; circular padding wraps the input index instead of dropping
    it.  One indexed assignment per tap t writes K[:, :, t] into all its
    blocks of an array laid out (p..., c_out, q..., c_in), whose reshape is
    the channel-fastest matrix.  Refuses to allocate more than
    ``DENSE_ENTRY_CAP`` entries -- use :func:`conv_operator` past that.
    """
    arr = as_dense_tensor(k, "kernel")
    c_out, c_in, spatial, pads, n, s, n_out = _conv_geometry(arr, config)
    d = len(spatial)
    rows = c_out * n_out**d
    cols = c_in * n**d
    if rows * cols > DENSE_ENTRY_CAP:
        raise ValueError(
            f"dense Jacobian would have {rows * cols} entries "
            f"(cap {DENSE_ENTRY_CAP}); use conv_operator for a matrix-free norm"
        )
    circular = config.padding == "circular"
    p = np.arange(n_out)
    reads = []  # per axis and tap t: the p that read an input q = s*p + t - lo, and those q
    for axis, (ksz, (lo, _)) in enumerate(zip(spatial, pads)):
        mesh = (1,) * axis + (-1,) + (1,) * (d - 1 - axis)  # that axis of an open mesh
        q = s * p + np.arange(ksz)[:, None] - lo
        keep = circular | ((q >= 0) & (q < n))
        reads.append([(p[ok].reshape(mesh), (qt[ok] % n).reshape(mesh))
                      for qt, ok in zip(q, keep)])
    blocks = np.zeros((n_out,) * d + (c_out,) + (n,) * d + (c_in,))
    for tap, axis_reads in zip(itertools.product(*map(range, spatial)), itertools.product(*reads)):
        outs, ins = zip(*axis_reads)
        blocks[outs + (slice(None),) + ins + (slice(None),)] = arr[(..., *tap)]
    return blocks.reshape(rows, cols)


def _pad(a: np.ndarray, widths, circular: bool) -> np.ndarray:
    """Pad every axis but the first (channels) by (before, after) pairs, with
    zeros or, for circular padding, with wrapped slices.

    A wrap margin is never wider than its axis: circular padding needs the
    input at least as large as the kernel, and the adjoint's margins are
    at most the output size.
    """
    core = a.shape[1:]
    out = np.zeros((a.shape[0],) + tuple(m + lo + hi for m, (lo, hi) in zip(core, widths)))
    out[(slice(None),) + tuple(slice(lo, lo + m) for m, (lo, _) in zip(core, widths))] = a
    if circular:
        # Axis by axis, each copy spanning the margins of the axes before,
        # so the corners come out right.
        for axis, (m, (lo, hi)) in enumerate(zip(core, widths), start=1):
            lead = (slice(None),) * axis
            out[lead + (slice(0, lo),)] = out[lead + (slice(m, m + lo),)]
            out[lead + (slice(lo + m, lo + m + hi),)] = out[lead + (slice(lo, lo + hi),)]
    return out


class _Correlation:
    """Cross-correlation of a padded field with a kernel matrix at a step.

    ``kmat`` is (c_out, c * prod(window)), channel slowest, and a field is a
    fresh C-contiguous array of shape (c,) + ``padded``.  Output position p
    (of ``out_shape``) reads the window of the field that starts at
    ``starts + step * p``.  The view of all windows -- what
    ``sliding_window_view(field, window)[..., ::step]`` gives, laid out
    (c, window..., positions...) -- has fixed strides, so it is set up here
    once; a call copies it once into (c * taps, positions) columns and makes
    one GEMM.
    """

    def __init__(self, kmat, padded, window, step, starts, out_shape):
        self.kmat = kmat
        self.out_shape = (kmat.shape[0],) + tuple(out_shape)
        item = np.dtype(np.float64).itemsize
        strides = [item * math.prod(padded[axis + 1 :]) for axis in range(len(padded))]
        self.view = dict(
            shape=(kmat.shape[1] // math.prod(window),) + tuple(window) + tuple(out_shape),
            strides=(item * math.prod(padded),) + tuple(strides) + tuple(step * st for st in strides),
            offset=sum(i * st for i, st in zip(starts, strides)),
        )

    def __call__(self, field: np.ndarray) -> np.ndarray:
        cols = np.ndarray(buffer=field, dtype=np.float64, **self.view)
        return (self.kmat @ cols.reshape(self.kmat.shape[1], -1)).reshape(self.out_shape)


def conv_operator(k, config: ConvConfig) -> LinearOperatorHandle:
    """Matrix-free realization of the same Jacobian, on one correlation primitive.

    Forward pads the input once (zeros, or wrap slices for circular padding)
    and correlates it with the kernel at step s: one sliding-window view,
    copied once into columns, and one GEMM.  The adjoint is the same
    primitive on the cotangent with the flipped, channel-swapped kernel.  At
    stride s it runs once per polyphase sub-kernel K[:, :, r_1::s, r_2::s,
    ...], each filling every s-th input position, so no work is spent on the
    zeros a strided transpose would insert.  For circular padding the
    cotangent is padded by wrapping, so no margin has to be folded back.
    Agrees with the dense builder column by column (asserted in the tests).
    """
    arr = as_dense_tensor(k, "kernel")
    c_out, c_in, spatial, pads, n, s, n_out = _conv_geometry(arr, config)
    d = len(spatial)
    circular = config.padding == "circular"
    out_grid = (n_out,) * d
    padded = tuple(n + ksz - 1 for ksz in spatial)
    forward_corr = _Correlation(arr.reshape(c_out, -1), padded, spatial, s, (0,) * d, out_grid)

    # Adjoint polyphase plan, per axis.  Input position q = s*a + phi takes
    # the taps t = s*j + r, r = (phi + lo) % s, against the cotangent at
    # a + (phi + lo) // s - j: a stride-1 correlation of the cotangent with
    # the flipped sub-kernel of those taps, whose window for a starts at
    # a + first, first = (phi + lo) // s - (taps - 1).  A phase with no taps
    # (s > kernel size) leaves its positions 0.
    axis_phases = []
    for ksz, (lo, _) in zip(spatial, pads):
        phases = []
        for phi in range(s):
            r, shift = (phi + lo) % s, (phi + lo) // s
            taps = len(range(r, ksz, s))
            if taps:
                phases.append((phi, r, taps, shift - taps + 1))
        axis_phases.append(phases)
    # The cotangent is padded once, wide enough for every phase's windows.
    adj_widths = tuple(
        (max(0, -min(first for *_, first in phases)),
         max(0, max(first + taps - 1 for _, _, taps, first in phases)))
        for phases in axis_phases
    )
    adj_padded = tuple(n_out + lo + hi for lo, hi in adj_widths)
    plan = []
    for combo in itertools.product(*axis_phases):
        phis, rs, window, firsts = zip(*combo)
        sub = arr[(slice(None), slice(None)) + tuple(slice(r, None, s) for r in rs)]
        flipped = sub[(slice(None), slice(None)) + (slice(None, None, -1),) * d]
        kadj = np.ascontiguousarray(flipped.transpose((1, 0) + tuple(range(2, d + 2))))
        starts = tuple(lo + first for (lo, _), first in zip(adj_widths, firsts))
        corr = _Correlation(kadj.reshape(c_in, -1), adj_padded, window, 1, starts, out_grid)
        plan.append(((slice(None),) + tuple(slice(phi, None, s) for phi in phis), corr))

    def forward(x: np.ndarray) -> np.ndarray:
        return forward_corr(_pad(x, pads, circular))

    def adjoint(y: np.ndarray) -> np.ndarray:
        ypad = _pad(y, adj_widths, circular)
        if s == 1:
            return plan[0][1](ypad)
        x = np.zeros((c_in,) + (n,) * d)
        for write, corr in plan:
            x[write] = corr(ypad)
        return x

    return LinearOperatorHandle(
        input_shape=(c_in,) + (n,) * d,
        output_shape=(c_out,) + out_grid,
        forward=forward,
        adjoint=adjoint,
    )


@dataclass(frozen=True)
class PowerMethodResult:
    norm: float
    iterations: int
    converged: bool


def power_method(op, iters: int = 500, tol: float = 1e-10, seed: int = 0) -> PowerMethodResult:
    """Matrix-free ||T|| by Golub-Kahan-Lanczos bidiagonalization.

    Each step applies T and T^T once.  The estimate is monotone
    nondecreasing and never above the norm, so an early stop only
    under-reports it.  Stops when the estimate changes by at most ``tol``
    relative between consecutive steps (tested at every step up to step 24,
    then at every 4th), when the Krylov space is exhausted, or after
    ``iters`` steps.  ``converged`` says the estimate stopped moving by
    ``tol``, not that it is within ``tol`` of the norm: with the default
    tol 1e-10 a converged estimate can still sit far further below it
    (5.7e-7 relative, after 48 steps, for a 16x16x5x5 Gaussian kernel at
    n = 32).  Takes a handle; a matrix's norm is
    :func:`~convnorm.tensor_ops.matrix_spectral_norm`.  Deterministic per
    seed; a zero operator returns 0.  An operator whose products with unit
    vectors are subnormal (a kernel below about 2**-1030) is applied to
    vectors scaled by an exact power of two, so it is not over-reported;
    its norm is then subnormal too, and accurate only to the subnormal
    spacing 2**-1074.
    """
    if not isinstance(op, LinearOperatorHandle):
        raise ValueError(
            "power_method takes a LinearOperatorHandle; use matrix_spectral_norm for a matrix"
        )
    rng = np.random.default_rng(_seed(seed))
    x = rng.standard_normal(op.input_shape)
    sigma, steps, converged = _lanczos_norm(
        op.forward, op.adjoint, x / np.linalg.norm(x), iters, tol
    )
    return PowerMethodResult(norm=sigma, iterations=steps, converged=converged)


def dense_jacobian_norm(k, config: ConvConfig) -> float:
    """||T||_2 of the dense Jacobian as the square root of the top eigenvalue
    of the smaller Gram matrix, T^T T or T T^T, clamped at 0 against rounding.

    One symmetric eigensolve of the Gram costs well under the SVD that
    ``np.linalg.norm(T, 2)`` runs, and agrees with it to rounding.  T is
    freed before the eigensolve copies the Gram, so the peak memory stays
    that of the SVD.  The Gram squares the entries, so T is built from the
    kernel scaled by the exact power of two 2**-e that brings its largest
    entry into [0.5, 1), and the norm is scaled back by 2**e: a kernel of
    any magnitude neither underflows nor overflows the Gram; a norm beyond
    the float range raises ValueError.
    """
    arr = as_dense_tensor(k, "kernel")
    e = _binary_exponent(arr)
    t = build_dense_jacobian(np.ldexp(arr, -e), config)
    gram = t.T @ t if t.shape[1] <= t.shape[0] else t @ t.T
    del t
    top = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    with np.errstate(over="ignore"):
        return _finite(float(np.ldexp(top, e)), "the norm")


def circular_exact_norm(k, config: ConvConfig) -> float:
    """Exact Jacobian norm of the circular convolution ``config`` describes.

    The d-dimensional DFT block-diagonalizes the block-circulant Jacobian:
    at stride 1 its singular values are those of the c_out x c_in symbol
    F(tau) = sum_p K[:, :, p] e^{-i<p, tau>} on the grid tau = 2*pi*j/n, up
    to a unit-modulus phase per grid point (set by the centered padding).
    So the norm is the largest singular value over the grid, exact for
    every n >= the kernel size.  The kernel is real, so F(-tau) is the
    conjugate of F(tau): the half grid whose last index runs over
    0..n // 2 covers every singular value.  At stride s the Jacobian is the
    stride-1 one of ``strided_kernel_transform(k, s)`` at size n / s.

    The symbol is built ``SYMBOL_CHUNK_BYTES`` at a time: for a chunk of
    grid points, one phase matrix exp(-2*pi*i ((j . p) mod n) / n) of shape
    (points, taps) times the (taps, c_out * c_in) kernel matrix, then one
    batched SVD without vectors.  So the memory does not grow with n.  The
    kernel is scaled as in :func:`dense_jacobian_norm`, so no symbol
    overflows.  Only circular padding has this form; anything else raises.
    """
    arr = as_dense_tensor(k, "kernel")
    if config.padding != "circular":
        raise ValueError(f"circular_exact_norm needs circular padding, got {config.padding!r}")
    config.validate_for(arr.shape)
    e = _binary_exponent(arr)
    q = strided_kernel_transform(np.ldexp(arr, -e), config.stride)
    n = config.input_size // config.stride
    c_out, c_in, *spatial = q.shape
    d = len(spatial)
    taps = np.indices(spatial).reshape(d, -1).T
    # Complex once, so that no chunk's GEMM casts the kernel matrix again.
    kmat = q.transpose(*range(2, d + 2), 0, 1).reshape(len(taps), -1).astype(np.complex128)
    half = (n,) * (d - 1) + (n // 2 + 1,)
    points = math.prod(half)
    chunk = max(1, SYMBOL_CHUNK_BYTES // (16 * (len(taps) + c_out * c_in)))
    top = 0.0
    for start in range(0, points, chunk):
        j = np.stack(np.unravel_index(np.arange(start, min(start + chunk, points)), half), axis=1)
        phase = np.exp(-2j * np.pi * ((j @ taps.T) % n) / n)
        singular = np.linalg.svd((phase @ kmat).reshape(-1, c_out, c_in), compute_uv=False)
        top = max(top, float(singular[:, 0].max()))
    with np.errstate(over="ignore"):
        return _finite(float(np.ldexp(top, e)), "the norm")
