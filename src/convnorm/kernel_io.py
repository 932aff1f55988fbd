"""Kernel file formats and built-in kernel generators.

Two interchange formats, both framework-free:

* KTEN binary: header ``magic "KTEN" | u32 version=1 | u32 dtype tag (1 =
  little-endian float64) | u32 ndim | ndim x u64 dims``, followed by the
  payload as row-major little-endian float64.  Round trips are bit exact.
* JSON: ``{"shape": [positive ints], "data": [floats]}`` with row-major data.

Files are sniffed by magic bytes, so either format can be passed anywhere a
kernel path is accepted.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .tensor_ops import as_dense_tensor

__all__ = [
    "KernelFormatError",
    "read_kernel",
    "write_kernel",
    "gaussian_kernel",
    "uniform_kernel",
    "delta_kernel",
    "complex_gap_kernel",
]

MAGIC = b"KTEN"
VERSION = 1
DTYPE_F64_LE = 1
_HEADER = struct.Struct("<4sIII")


class KernelFormatError(ValueError):
    """Raised when a kernel file cannot be parsed."""


def write_kernel(path, kernel) -> None:
    """Write a kernel as KTEN binary, or JSON if the path ends in .json."""
    arr = as_dense_tensor(kernel, "kernel")
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        path.write_text(json.dumps(payload))
        return
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_F64_LE, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    path.write_bytes(header + dims + payload)


def _checked_kernel(data: np.ndarray, path) -> np.ndarray:
    """:func:`as_dense_tensor` for a kernel read from ``path``; an empty or
    non-finite kernel is a malformed file."""
    try:
        return as_dense_tensor(data, "kernel")
    except ValueError as exc:
        raise KernelFormatError(f"{path}: {exc}") from exc


def _read_kten(blob: bytes, path) -> np.ndarray:
    if len(blob) < _HEADER.size:
        raise KernelFormatError(f"{path}: truncated header")
    magic, version, dtype, ndim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise KernelFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise KernelFormatError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_F64_LE:
        raise KernelFormatError(f"{path}: unsupported dtype tag {dtype}")
    dims_end = _HEADER.size + 8 * ndim
    if len(blob) < dims_end:
        raise KernelFormatError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}Q", blob, _HEADER.size)
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    expected = dims_end + 8 * count
    if len(blob) != expected:
        raise KernelFormatError(
            f"{path}: payload has {len(blob) - dims_end} bytes, expected {8 * count}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=dims_end)
    return _checked_kernel(data.reshape(dims), path)


def _read_json(blob: bytes, path) -> np.ndarray:
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise KernelFormatError(f"{path}: not KTEN and not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "shape" not in payload or "data" not in payload:
        raise KernelFormatError(f"{path}: JSON kernel needs 'shape' and 'data' keys")
    shape = payload["shape"]
    if not (isinstance(shape, list) and all(type(s) is int and s >= 1 for s in shape)):
        raise KernelFormatError(
            f"{path}: shape must be a list of positive integers, got {shape!r}"
        )
    shape = tuple(shape)
    try:
        data = np.asarray(payload["data"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise KernelFormatError(f"{path}: data must be numbers ({exc})") from exc
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if data.size != count:
        raise KernelFormatError(
            f"{path}: data has {data.size} values, shape {shape} needs {count}"
        )
    return _checked_kernel(data.reshape(shape), path)


def read_kernel(path) -> np.ndarray:
    """Read a kernel from a KTEN or JSON file (sniffed by magic bytes)."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == MAGIC:
        return _read_kten(blob, path)
    return _read_json(blob, path)


def gaussian_kernel(shape, seed: int = 0) -> np.ndarray:
    """Kernel with i.i.d. standard normal entries."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(tuple(int(s) for s in shape))


def uniform_kernel(shape, seed: int = 0) -> np.ndarray:
    """Kernel with i.i.d. uniform entries on [-1, 1)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, tuple(int(s) for s in shape))


def delta_kernel(shape) -> np.ndarray:
    """Identity-convolution kernel: 1 at the center tap of each (a, a) pair.

    Requires c_out == c_in.  With centered offsets the resulting Jacobian is
    the identity for either padding.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 3:
        raise ValueError("delta kernel needs at least one spatial axis")
    if shape[0] != shape[1]:
        raise ValueError(
            f"delta kernel needs c_out == c_in, got {shape[0]} x {shape[1]}"
        )
    k = np.zeros(shape)
    center = tuple(s // 2 for s in shape[2:])
    for a in range(shape[0]):
        k[(a, a) + center] = 1.0
    return k


def complex_gap_kernel() -> np.ndarray:
    """A 2x2x2x2 kernel separating complex from real rank-1 values.

    Entry (i,j,k,l) is 2 * Re(i**(i+j+k+l)); equivalently twice the real part
    of the fourth tensor power of (1, i).  Its best complex rank-1 value is 4
    while the best real-restricted value is only 2, and the circular
    convolution it generates attains the full upper bound 2 * 4 = 8 whenever
    the input size is a multiple of 4.  Its row-major 2 x 8 reshape is
    [[2, 0, 0, -2, 0, -2, -2, 0], [0, -2, -2, 0, -2, 0, 0, 2]].
    """
    v = np.array([1.0, 1.0j])
    outer = np.einsum("a,b,c,d->abcd", v, v, v, v)
    return np.ascontiguousarray(2.0 * outer.real)
