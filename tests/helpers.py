"""Independent oracles for the test suite.

Everything here deliberately avoids the library code paths it is used to
check: nested loops instead of tensordot, LAPACK eigendecompositions and
SVDs instead of power iterations, damped simultaneous multi-start ascent
instead of alternating sweeps, one restart at a time through the public
partial contraction instead of the batched rank-1 engine, and plain central
differences for gradients.
"""

from __future__ import annotations

import itertools

import numpy as np

from convnorm.tensor_ops import multilinear_form, partial_contraction


def multilinear_loop(a, us) -> complex:
    """Brute-force nested-loop evaluation of the multilinear form."""
    total = 0j
    for idx in itertools.product(*(range(n) for n in a.shape)):
        term = complex(a[idx])
        for axis, i in enumerate(idx):
            term *= complex(us[axis][i])
        total += term
    return total


def partial_loop(a, us, hole: int) -> np.ndarray:
    """Brute-force partial contraction leaving axis ``hole`` free."""
    out = np.zeros(a.shape[hole], dtype=complex)
    for j in range(a.shape[hole]):
        basis = [np.zeros(n, dtype=complex) for n in a.shape]
        filled = list(us)
        basis[hole][j] = 1.0
        filled[hole] = basis[hole]
        out[j] = multilinear_loop(a, filled)
    return out


def dense_norm(m) -> float:
    """Largest singular value via LAPACK SVD (exact small-matrix reference)."""
    return float(np.linalg.norm(np.asarray(m), 2))


def gram_eig_norm(m) -> float:
    """Largest singular value via eigendecomposition of the Gram matrix."""
    mat = np.asarray(m)
    gram = mat.conj().T @ mat
    return float(np.sqrt(max(np.max(np.linalg.eigvalsh(gram)), 0.0)))


def fd_gradient(loss, kernel: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over every kernel entry."""
    grad = np.zeros_like(kernel)
    for idx in np.ndindex(kernel.shape):
        plus = kernel.copy()
        plus[idx] += step
        minus = kernel.copy()
        minus[idx] -= step
        grad[idx] = (loss(plus) - loss(minus)) / (2.0 * step)
    return grad


def rel_err_max(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entry deviation relative to the gradient's max-abs scale.

    Central differences cannot resolve entries far below the gradient scale
    to any fixed entrywise precision, so the standard check normalizes by
    the scale; a zero analytic gradient falls back to the absolute error.
    """
    scale = float(np.max(np.abs(analytic)))
    if scale == 0.0:
        return float(np.max(np.abs(numeric)))
    return float(np.max(np.abs(numeric - analytic)) / scale)


def multistart_rank1(a, n_starts: int = 4096, iters: int = 400, damping: float = 0.7,
                     seed: int = 0) -> float:
    """Best rank-1 value by damped simultaneous ascent from many random starts.

    All starts advance in parallel (Jacobi-style: every axis updated from the
    same snapshot, then blended with the previous iterate), which has the
    same fixed points as coordinate sweeps but different dynamics.  Returns
    the largest final objective across starts.
    """
    rng = np.random.default_rng(seed)
    arr = np.asarray(a, dtype=np.float64)
    d = arr.ndim
    letters = "abcdefg"[:d]
    us = []
    for n in arr.shape:
        v = rng.standard_normal((n_starts, n)) + 1j * rng.standard_normal((n_starts, n))
        us.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    for _ in range(iters):
        snapshot = us
        us = []
        for axis in range(d):
            operands, script = [arr], letters
            for j in range(d):
                if j != axis:
                    operands.append(snapshot[j])
                    script += f",B{letters[j]}"
            v = np.einsum(script + f"->B{letters[axis]}", *operands)
            nv = np.linalg.norm(v, axis=1, keepdims=True)
            nv[nv == 0.0] = 1.0
            mixed = (1.0 - damping) * snapshot[axis] + damping * np.conj(v) / nv
            mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
            us.append(mixed)
    script = letters + "".join(f",B{c}" for c in letters) + "->B"
    values = np.abs(np.einsum(script, arr, *us))
    return float(values.max())


def vec(field: np.ndarray) -> np.ndarray:
    """Flatten a (channels, spatial...) field channel-fastest (matches the
    dense Jacobian's vectorization order)."""
    d = field.ndim - 1
    perm = tuple(range(1, d + 1)) + (0,)
    return field.transpose(perm).ravel()


def random_kernel(rng: np.random.Generator, max_channels: int = 4,
                  max_spatial: int = 5, d: int = 2) -> np.ndarray:
    shape = (
        int(rng.integers(1, max_channels + 1)),
        int(rng.integers(1, max_channels + 1)),
    ) + tuple(int(rng.integers(1, max_spatial + 1)) for _ in range(d))
    return rng.standard_normal(shape)


def sequential_hopm(a, n_iters: int = 100, tol: float = 1e-10, restarts: int = 10,
                    seed: int = 0, warm_start=None, real_restricted: bool = False):
    """Reference HOPM: one restart at a time, one ``partial_contraction`` per axis.

    Same starting points (restart 0 takes ``warm_start``, a sequence of
    vectors, and draws nothing; every other restart draws per axis a real
    Gaussian, then an imaginary one unless ``real_restricted``), same update
    order and stopping test as the library's batched engine.  Returns one
    ``(sigma, factors, sweeps, converged, history)`` tuple per restart.
    """
    arr = np.asarray(a, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = []
    for restart in range(restarts):
        if restart == 0 and warm_start is not None:
            us = [np.asarray(f, dtype=complex) / np.linalg.norm(f) for f in warm_start]
        else:
            us = []
            for n in arr.shape:
                v = rng.standard_normal(n)
                if not real_restricted:
                    v = v + 1j * rng.standard_normal(n)
                us.append(np.asarray(v, dtype=complex) / np.linalg.norm(v))
        history: list[float] = []
        sigma_prev = -1.0
        converged = False
        for _ in range(n_iters):
            sigma_t = 0.0
            for axis in range(arr.ndim):
                v = partial_contraction(arr, us, axis)
                nv = np.linalg.norm(v)
                if nv == 0.0:
                    continue  # degenerate contraction; keep the previous vector
                us[axis] = np.conj(v) / nv
                sigma_t = float(nv)
            history.append(sigma_t)
            if sigma_prev >= 0.0 and abs(sigma_t - sigma_prev) <= tol * max(sigma_t, 1e-300):
                converged = True
                break
            sigma_prev = sigma_t
        sigma = abs(multilinear_form(arr, us))
        out.append((sigma, us, len(history), converged, history))
    return out
