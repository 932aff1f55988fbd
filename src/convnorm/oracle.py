"""Ground truth for the bounds: dense Jacobians and matrix-free references.

A convolution is a linear map, so its Jacobian can be materialized as an
explicit matrix (doubly block Toeplitz for zero padding, doubly block
circulant for circular padding, every s-th output row-block kept for stride
s) or applied matrix-free.  The dense builder is the source of truth at
small sizes; the matrix-free operator plus Golub-Kahan-Lanczos scales to
real input resolutions; and for circular padding the norm is exact in closed
form: the largest singular value of the spectral density matrix over the
grid 2*pi*j/n, read off one FFT of the kernel, a third, independent route.

Vectorization order is fixed throughout: channel varies fastest, then the
last spatial axis, then earlier ones (flat index
``c + C * (x_d + n * x_{d-1} + ...)``).  Singular values do not depend on
this choice, but cross-checking matrices entrywise does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import ConvConfig
from .tensor_ops import _lanczos_norm, as_dense_tensor

__all__ = [
    "LinearOperatorHandle",
    "PowerMethodResult",
    "build_dense_jacobian",
    "conv_operator",
    "power_method",
    "circular_exact_norm",
]

DENSE_ENTRY_CAP = 40_000_000


class LinearOperatorHandle:
    """Matrix-free forward/adjoint pair for the Jacobian ``vec(Y) = T vec(X)``.

    ``forward`` maps an input array of ``input_shape`` to ``output_shape``;
    ``adjoint`` maps back.  The pair must satisfy the dot test
    <y, T x> == <T^T y, x>, which the suite asserts on random vectors.
    """

    def __init__(self, input_shape, output_shape, forward, adjoint):
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self._forward = forward
        self._adjoint = adjoint

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.input_shape:
            raise ValueError(f"expected input shape {self.input_shape}, got {x.shape}")
        return self._forward(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.output_shape:
            raise ValueError(f"expected output shape {self.output_shape}, got {y.shape}")
        return self._adjoint(y)


def _conv_geometry(k: np.ndarray, config: ConvConfig):
    c_out, c_in = k.shape[0], k.shape[1]
    spatial = tuple(k.shape[2:])
    offsets = config.validate_for(k.shape)
    n = config.input_size
    s = config.stride
    n_out = n // s
    return c_out, c_in, spatial, offsets, n, s, n_out


def build_dense_jacobian(k, config: ConvConfig, max_entries: int = DENSE_ENTRY_CAP) -> np.ndarray:
    """Materialize the Jacobian matrix of the configured convolution.

    Block (output position p, input position q) holds the kernel tap
    K[:, :, q - s*p + offsets] where it exists; circular padding wraps the
    input index instead of dropping it.  Refuses to allocate more than
    ``max_entries`` entries -- use :func:`conv_operator` past that.
    """
    arr = as_dense_tensor(k, "kernel")
    c_out, c_in, spatial, offsets, n, s, n_out = _conv_geometry(arr, config)
    d = len(spatial)
    rows = c_out * n_out**d
    cols = c_in * n**d
    if rows * cols > max_entries:
        raise ValueError(
            f"dense Jacobian would have {rows * cols} entries "
            f"(cap {max_entries}); use conv_operator for a matrix-free norm"
        )
    circular = config.padding == "circular"
    lows = [lo for lo, _ in offsets]

    blocks = np.zeros((c_out,) + (n_out,) * d + (c_in,) + (n,) * d)
    out_range = [range(n_out)] * d
    tap_range = [range(ksz) for ksz in spatial]
    for out_pos in itertools.product(*out_range):
        for tap in itertools.product(*tap_range):
            in_pos = []
            ok = True
            for axis in range(d):
                i = out_pos[axis] * s + tap[axis] - lows[axis]
                if circular:
                    i %= n
                elif not 0 <= i < n:
                    ok = False
                    break
                in_pos.append(i)
            if not ok:
                continue
            index = (slice(None),) + out_pos + (slice(None),) + tuple(in_pos)
            blocks[index] = arr[(slice(None), slice(None)) + tap]

    # channel-fastest vectorization on both sides
    perm = tuple(range(1, d + 1)) + (0,) + tuple(range(d + 2, 2 * d + 2)) + (d + 1,)
    return np.ascontiguousarray(blocks.transpose(perm).reshape(rows, cols))


def conv_operator(k, config: ConvConfig) -> LinearOperatorHandle:
    """Matrix-free realization of the same Jacobian.

    Forward gathers shifted input windows and applies one kernel matmul;
    adjoint applies the transposed matmul and scatters back, folding wrapped
    margins for circular padding.  Agrees with the dense builder column by
    column (asserted in the tests).
    """
    arr = as_dense_tensor(k, "kernel")
    c_out, c_in, spatial, offsets, n, s, n_out = _conv_geometry(arr, config)
    d = len(spatial)
    circular = config.padding == "circular"
    pad_widths = ((0, 0),) + tuple(offsets)
    kmat = arr.reshape(c_out, -1)  # (c_out, c_in * prod(spatial))
    taps = list(itertools.product(*[range(ksz) for ksz in spatial]))

    def _tap_slices(tap):
        return (slice(None),) + tuple(
            slice(t, t + s * n_out, s) for t in tap
        )

    def forward(x: np.ndarray) -> np.ndarray:
        mode = "wrap" if circular else "constant"
        xpad = np.pad(x, pad_widths, mode=mode)
        patches = np.empty((c_in,) + spatial + (n_out,) * d)
        for tap in taps:
            patches[(slice(None),) + tap] = xpad[_tap_slices(tap)]
        y = kmat @ patches.reshape(c_in * int(np.prod(spatial)), n_out**d)
        return y.reshape((c_out,) + (n_out,) * d)

    def adjoint(y: np.ndarray) -> np.ndarray:
        g = kmat.T @ y.reshape(c_out, n_out**d)
        g = g.reshape((c_in,) + spatial + (n_out,) * d)
        padded_shape = (c_in,) + tuple(n + lo + hi for lo, hi in offsets)
        buf = np.zeros(padded_shape)
        for tap in taps:
            buf[_tap_slices(tap)] += g[(slice(None),) + tap]
        if not circular:
            core = (slice(None),) + tuple(slice(lo, lo + n) for lo, _ in offsets)
            return np.ascontiguousarray(buf[core])
        for axis in range(d):
            lo = offsets[axis][0]
            size = buf.shape[axis + 1]
            idx = (np.arange(size) - lo) % n
            folded_shape = list(buf.shape)
            folded_shape[axis + 1] = n
            folded = np.zeros(folded_shape)
            np.add.at(folded, (slice(None),) * (axis + 1) + (idx,), buf)
            buf = folded
        return buf

    return LinearOperatorHandle(
        input_shape=(c_in,) + (n,) * d,
        output_shape=(c_out,) + (n_out,) * d,
        forward=forward,
        adjoint=adjoint,
    )


@dataclass(frozen=True)
class PowerMethodResult:
    norm: float
    iterations: int
    converged: bool


def _as_operator(op) -> LinearOperatorHandle:
    if isinstance(op, LinearOperatorHandle):
        return op
    mat = np.asarray(op, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a LinearOperatorHandle or a 2-d matrix")
    return LinearOperatorHandle(
        input_shape=(mat.shape[1],),
        output_shape=(mat.shape[0],),
        forward=lambda x: mat @ x,
        adjoint=lambda y: mat.T @ y,
    )


def power_method(op, iters: int = 500, tol: float = 1e-10, seed: int = 0) -> PowerMethodResult:
    """Matrix-free ||T|| by Golub-Kahan-Lanczos bidiagonalization.

    Each step applies T and T^T once.  The estimate is monotone
    nondecreasing and never above the norm, so an early stop only
    under-reports it.  Stops when the estimate changes by at most ``tol``
    relative, when the Krylov space is exhausted, or after ``iters`` steps.
    Accepts a handle or a dense matrix.  Deterministic per seed; a zero
    operator returns 0.
    """
    handle = _as_operator(op)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(handle.input_shape)
    sigma, steps, converged = _lanczos_norm(
        handle.forward, handle.adjoint, x / np.linalg.norm(x), iters, tol
    )
    return PowerMethodResult(norm=sigma, iterations=steps, converged=converged)


def circular_exact_norm(k, n: int) -> float:
    """Exact Jacobian norm of the circular, stride-1 convolution at size n.

    The 2-D DFT block-diagonalizes the block-circulant Jacobian: its singular
    values are those of the symbol on the grid tau_j = 2*pi*j/n, which is the
    DFT of the kernel zero-padded to n x n up to a unit-modulus phase per grid
    point (set by the offsets) and the sign of tau.  So the norm is the
    largest singular value over one FFT's stack of c_out x c_in symbol
    matrices, exact for every n >= the kernel size.  The kernel is real, so
    the symbol at -tau is the conjugate of the one at tau, with the same
    singular values: the half grid of a real FFT covers them all.
    """
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    c_out, c_in, h, w = arr.shape
    if n < max(h, w):
        raise ValueError(
            f"circular evaluation needs n >= max kernel size ({max(h, w)}), got {n}"
        )
    # Spatial axes first, so the (n, n//2 + 1, c_out, c_in) result reshapes
    # as a view.
    symbol = np.fft.rfft2(arr.transpose(2, 3, 0, 1), s=(n, n), axes=(0, 1))
    singular = np.linalg.svd(symbol.reshape(-1, c_out, c_in), compute_uv=False)
    return float(singular[:, 0].max())
