"""Reference values the benchmark checks convnorm's outputs against.

Everything here is written from the definitions with numpy (and scipy's
ARPACK for the zero-padding oracle), without importing convnorm, so that a
change to the library cannot move its own yardstick:

* ``sigma``    best-known complex rank-1 value of a kernel (or of its
               stride-regrouped form, or of its self-gram residual), from a
               restart-batched higher-order power method run far longer than
               the library's defaults.  Any feasible point is a lower bound
               on the true value, so a reported sigma above it is fine and a
               reported sigma below it is a shortfall.
* ``power``    the Jacobian norm of a zero-padded convolution at input size
               n, by ARPACK on a matrix-free operator.
* ``circular`` the exact circular-convolution norm: the largest singular value
               of the FFT symbol over the n x n grid (n even).
* ``dense``    ``np.linalg.norm(T, 2)`` of an explicitly built Jacobian.

Run as a script it answers a request file written by ``run.py``:

    python3 perfbench/refs.py REQUEST.npz ANSWER.json
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

SIGMA_RESTARTS = 16
SIGMA_SWEEPS = 1000
SIGMA_TOL = 1e-13

METHODS = {
    "sigma": (f"restart-batched complex HOPM, {SIGMA_RESTARTS} restarts, "
              f"<= {SIGMA_SWEEPS} sweeps, tol {SIGMA_TOL:g}, max over restarts"),
    "power": "scipy ARPACK svds(k=1, tol=1e-13) on a matrix-free zero-padding operator",
    "circular": "max over the n x n FFT grid of the symbol's largest singular value (LAPACK)",
    "dense": "np.linalg.norm(T, 2) of the explicitly built Jacobian",
}


def ref_key(kind: str, params: dict, kernel: np.ndarray) -> str:
    """Content hash naming one reference: its kind, parameters and kernel bytes."""
    h = hashlib.sha256()
    h.update(json.dumps([kind, params], sort_keys=True).encode())
    h.update(json.dumps(list(kernel.shape)).encode())
    h.update(np.ascontiguousarray(kernel, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# kernel transforms


def regroup_stride(k: np.ndarray, s: int) -> np.ndarray:
    """Stride-s kernel as a stride-1 kernel: pad taps to multiples of s, fold
    each s x s cell of taps into the input-channel axis."""
    c_out, c_in, h, w = k.shape
    hq, wq = -(-h // s), -(-w // s)
    padded = np.zeros((c_out, c_in, hq * s, wq * s))
    padded[:, :, :h, :w] = k
    q = padded.reshape(c_out, c_in, hq, s, wq, s).transpose(0, 1, 3, 5, 2, 4)
    return q.reshape(c_out, c_in * s * s, hq, wq)


def gram_residual(k: np.ndarray) -> np.ndarray:
    """Self cross-correlation over output channels minus the identity kernel."""
    _, c_in, h, w = k.shape
    g = np.zeros((c_in, c_in, 2 * h - 1, 2 * w - 1))
    for p in range(h):
        for q in range(w):
            for p2 in range(h):
                for q2 in range(w):
                    g[:, :, p2 - p + h - 1, q2 - q + w - 1] += k[:, :, p, q].T @ k[:, :, p2, q2]
    g[np.arange(c_in), np.arange(c_in), h - 1, w - 1] -= 1.0
    return g


TRANSFORMS = {
    "none": lambda k: k,
    "stride2": lambda k: regroup_stride(k, 2),
    "gram_residual": gram_residual,
}


# ---------------------------------------------------------------------------
# best-known rank-1 value


def _contract_except(mats, shape, us, hole):
    """Batched partial contraction: (R, shape[hole]) over all restarts."""
    d = len(shape)
    order = sorted((ax for ax in range(d) if ax != hole), key=lambda ax: -shape[ax])
    first = order[0]
    u = us[first]
    r = u.shape[0]
    t = mats[first] @ np.concatenate([u.real, u.imag]).T  # (rest, 2R)
    rest = [ax for ax in range(d) if ax != first]
    t = (t[:, :r] + 1j * t[:, r:]).reshape([shape[ax] for ax in rest] + [r])
    labels = rest + [d]
    for ax in order[1:]:
        out = [lab for lab in labels if lab != ax]
        t = np.einsum(t, labels, us[ax], [d, ax], out)
        labels = out
    return t.T


def best_rank1(a: np.ndarray, seed: int, restarts: int = SIGMA_RESTARTS,
               sweeps: int = SIGMA_SWEEPS, tol: float = SIGMA_TOL) -> float:
    """Largest |[[a; u1..ud]]| found over complex unit vectors and restarts."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    d, shape = a.ndim, a.shape
    # mats[ax] @ x contracts axis ax; its rows follow the remaining axes in order.
    mats = [np.ascontiguousarray(np.moveaxis(a, ax, -1)).reshape(-1, shape[ax])
            for ax in range(d)]
    rng = np.random.default_rng(seed)
    us = []
    for n in shape:
        u = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
        us.append(u / np.linalg.norm(u, axis=1, keepdims=True))
    prev = np.full(restarts, -1.0)
    for _ in range(sweeps):
        for ax in range(d):
            v = _contract_except(mats, shape, us, ax)
            norm = np.linalg.norm(v, axis=1)
            norm[norm == 0.0] = 1.0
            us[ax] = np.conj(v) / norm[:, None]
        if np.all(np.abs(norm - prev) <= tol * norm):
            break
        prev = norm
    forms = np.einsum("ri,ri->r", _contract_except(mats, shape, us, 0), us[0])
    return float(np.abs(forms).max())


# ---------------------------------------------------------------------------
# Jacobian norms


def _offsets(size: int) -> tuple[int, int]:
    return size // 2, size - 1 - size // 2


def conv_forward(k, x, stride=1, circular=False):
    """y[o, p, q] = sum K[o, c, a, b] * x_pad[c, s*p + a, s*q + b], centered padding."""
    _, _, h, w = k.shape
    n = x.shape[1]
    n_out = n // stride
    xp = np.pad(x, ((0, 0), _offsets(h), _offsets(w)), mode="wrap" if circular else "constant")
    y = np.zeros((k.shape[0], n_out, n_out))
    for a in range(h):
        for b in range(w):
            window = xp[:, a:a + stride * n_out:stride, b:b + stride * n_out:stride]
            y += np.tensordot(k[:, :, a, b], window, axes=(1, 0))
    return y


def conv_adjoint_zero(k, y, n, stride=1):
    """Transpose of :func:`conv_forward` for zero padding."""
    _, c_in, h, w = k.shape
    (h1, h2), (w1, w2) = _offsets(h), _offsets(w)
    n_out = y.shape[1]
    buf = np.zeros((c_in, n + h1 + h2, n + w1 + w2))
    for a in range(h):
        for b in range(w):
            buf[:, a:a + stride * n_out:stride, b:b + stride * n_out:stride] += np.tensordot(
                k[:, :, a, b].T, y, axes=(1, 0))
    return buf[:, h1:h1 + n, w1:w1 + n]


def power_reference(k, n, stride, seed):
    from scipy.sparse.linalg import LinearOperator, svds

    c_out, c_in = k.shape[:2]
    n_out = n // stride
    op = LinearOperator(
        (c_out * n_out * n_out, c_in * n * n),
        matvec=lambda x: conv_forward(k, x.reshape(c_in, n, n), stride).ravel(),
        rmatvec=lambda y: conv_adjoint_zero(k, y.reshape(c_out, n_out, n_out), n, stride).ravel(),
        dtype=np.float64,
    )
    v0 = np.random.default_rng(seed).standard_normal(min(op.shape))
    s = svds(op, k=1, tol=1e-13, v0=v0, return_singular_vectors=False, maxiter=20000)
    return float(s[0])


def circular_reference(k, n):
    if n % 2:
        raise ValueError("the FFT grid matches the library's grid only for even n")
    c_out, c_in, h, w = k.shape
    padded = np.zeros((c_out, c_in, n, n))
    padded[:, :, :h, :w] = k
    symbol = np.fft.fft2(padded, axes=(2, 3)).transpose(2, 3, 0, 1).reshape(n * n, c_out, c_in)
    return float(np.linalg.svd(symbol, compute_uv=False)[:, 0].max())


def dense_reference(k, n, padding):
    c_in = k.shape[1]
    cols = c_in * n * n
    basis = np.eye(cols).reshape(cols, c_in, n, n)
    mat = np.stack([conv_forward(k, e, 1, padding == "circular").ravel() for e in basis], axis=1)
    return float(np.linalg.norm(mat, 2))


def compute(kind: str, params: dict, kernel: np.ndarray, key: str) -> float:
    seed = int(key[:8], 16)
    if kind == "sigma":
        return best_rank1(TRANSFORMS[params["transform"]](kernel), seed)
    if kind == "power":
        return power_reference(kernel, params["n"], params["stride"], seed)
    if kind == "circular":
        return circular_reference(kernel, params["n"])
    if kind == "dense":
        return dense_reference(kernel, params["n"], params["padding"])
    raise ValueError(f"unknown reference kind {kind!r}")


def main(argv) -> int:
    request, answer = argv
    with np.load(request) as data:
        specs = json.loads(str(data["specs"]))
        out = {}
        for spec in specs:
            kernel = data[spec["key"]]
            value = compute(spec["kind"], spec["params"], kernel, spec["key"])
            out[spec["key"]] = {
                "kind": spec["kind"], "params": spec["params"],
                "shape": list(kernel.shape), "value": value,
                "method": METHODS[spec["kind"]],
            }
    with open(answer, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
