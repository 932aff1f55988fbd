"""Independent oracles for the test suite.

Everything here deliberately avoids the library code paths it is used to
check: nested loops instead of tensordot, the dense Jacobian placed one
output position and tap at a time instead of one tap at a time, LAPACK
eigendecompositions and SVDs instead of iterative norms, damped
simultaneous multi-start ascent instead of alternating sweeps, one restart
at a time through a tensordot partial contraction instead of the batched
rank-1 engine, one einsum over every axis instead of the library's
multilinear form, per-offset correlation loops and sign-tensor expansions
instead of the per-tap matmuls and the closed-form sigma gradient,
unfoldings indexed entry by entry instead of permuted and reshaped, the two
power-iteration loops the shared Golub-Kahan-Lanczos loop replaced, that
loop as it was when it took sigma_max(B_j) at every step, and plain central
differences for gradients.
Two tools do not check values: ``count_calls`` counts how often the library
calls one of its functions, and ``matrix_handle`` wraps a dense matrix as
an explicit operator handle.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from convnorm.oracle import LinearOperatorHandle, PowerMethodResult


def multilinear_loop(a, us) -> complex:
    """Brute-force nested-loop evaluation of the multilinear form."""
    total = 0j
    for idx in itertools.product(*(range(n) for n in a.shape)):
        term = complex(a[idx])
        for axis, i in enumerate(idx):
            term *= complex(us[axis][i])
        total += term
    return total


def multilinear_einsum(a, us) -> complex:
    """The multilinear form [[A; u1, ..., ud]] by one einsum over every axis,
    with no conjugation."""
    arr = np.asarray(a, dtype=np.float64)
    letters = "abcdefghij"[: arr.ndim]
    script = letters + "".join(f",{c}" for c in letters) + "->"
    return complex(np.einsum(script, arr, *us))


def unfold(a, rows, cols) -> np.ndarray:
    """The matrix unfolding of ``a`` with the axes ``rows`` along its rows and
    ``cols`` along its columns: entry (i, j) is the entry of ``a`` whose
    ``rows`` indices number i and whose ``cols`` indices number j, each
    numbered row-major in the order listed.  Built entry by entry, so it
    shares no memory with ``a``."""
    arr = np.asarray(a)
    index = np.indices(arr.shape).reshape(arr.ndim, -1)
    row_shape = [arr.shape[i] for i in rows]
    col_shape = [arr.shape[i] for i in cols]
    out = np.empty((int(np.prod(row_shape)), int(np.prod(col_shape))), dtype=arr.dtype)
    out[np.ravel_multi_index(index[rows], row_shape),
        np.ravel_multi_index(index[cols], col_shape)] = arr.ravel()
    return out


def partial_contraction(a, us, hole: int) -> np.ndarray:
    """Contract every axis of ``a`` except ``hole``, one tensordot per axis;
    entry j is the form with e_j on axis ``hole``.  ``us[hole]`` is ignored."""
    result = np.asarray(a, dtype=np.float64)
    # Contracting highest axis first keeps original axis j at position j.
    for axis in range(result.ndim - 1, -1, -1):
        if axis != hole:
            result = np.tensordot(result, us[axis], axes=(axis, 0))
    return result


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


def dense_jacobian_loop(k, config) -> np.ndarray:
    """The dense Jacobian of the convolution ``config`` describes, built block
    by block: every output position, every tap and every axis in Python,
    the input index wrapped (circular) or dropped (zero padding) one at a
    time, then one transposed copy into the channel-fastest layout."""
    arr = np.asarray(k, dtype=np.float64)
    c_out, c_in = arr.shape[0], arr.shape[1]
    spatial = tuple(arr.shape[2:])
    pads = config.validate_for(arr.shape)
    n = config.input_size
    s = config.stride
    n_out = n // s
    d = len(spatial)
    rows = c_out * n_out**d
    cols = c_in * n**d
    circular = config.padding == "circular"
    lows = [lo for lo, _ in pads]

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


def sequential_hopm(a, n_iters: int = 100, tol: float = 1e-10, restarts: int = 10,
                    seed: int = 0, warm_start=None, real_restricted: bool = False):
    """Reference HOPM: one restart at a time, one ``partial_contraction`` per axis.

    Same starting points (restart 0 takes ``warm_start``, a sequence of
    vectors, and draws nothing; every other restart draws per axis a real
    Gaussian, then an imaginary one), same update order and stopping test as
    the library's batched engine.  ``real_restricted`` draws only the real
    Gaussians, so the iteration stays over real vectors: a mode the library
    does not have, kept here to show the gap between real and complex
    rank-1 values.  Returns one
    ``(sigma, factors, sweeps, converged, history)`` tuple per restart, with
    sigma read by ``multilinear_einsum`` at the final factors, independently of
    the sweep values the engine reports.
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
        sigma = abs(multilinear_einsum(arr, us))
        out.append((sigma, us, len(history), converged, history))
    return out


# Kernel shapes on which the per-tap and closed-form kernels are checked
# against the references below: square, pointwise, h != w and c_out != c_in.
REFERENCE_SHAPES = [(2, 3, 4, 3), (5, 7, 1, 1), (3, 4, 2, 5), (8, 16, 5, 5), (32, 32, 3, 3)]


def count_calls(monkeypatch, func) -> list:
    """Wrap ``func`` in every ``convnorm.*`` module that binds it; returns a
    list that gets one entry, the positional arguments, per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "convnorm" or name.startswith("convnorm."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def matrix_handle(m) -> LinearOperatorHandle:
    """A real matrix M as the operator x -> M x with adjoint y -> M^T y."""
    mat = np.asarray(m, dtype=np.float64)
    return LinearOperatorHandle((mat.shape[1],), (mat.shape[0],), lambda x: mat @ x,
                                lambda y: mat.T @ y)


def shape_id(shape) -> str:
    """Test id for a shape parameter, e.g. ``2x3x4x3``."""
    return "x".join(map(str, shape))


def self_gram_loop(k) -> np.ndarray:
    """Reference self-gram kernel: one einsum per (2h-1)(2w-1) offset.

    G[a, b, u, v] = sum_{c,p,q} K[c,a,p,q] * K[c,b,p+u-(h-1),q+v-(w-1)],
    out-of-range taps contributing zero.
    """
    arr = np.asarray(k, dtype=np.float64)
    _, c_in, h, w = arr.shape
    padded = np.pad(arr, ((0, 0), (0, 0), (h - 1, h - 1), (w - 1, w - 1)))
    gram = np.empty((c_in, c_in, 2 * h - 1, 2 * w - 1))
    for u in range(2 * h - 1):
        for v in range(2 * w - 1):
            gram[:, :, u, v] = np.einsum(
                "capq,cbpq->ab", arr, padded[:, :, u : u + h, v : v + w]
            )
    return gram


def gram_chain_loop(k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reference pullback d<W, G(K)>/dK of the self-gram map, per offset.

    The two appearances of K contribute a correlation with W and one with
    its transpose-flip, each accumulated one offset at a time.
    """
    _, c_in, h, w = k.shape
    padded = np.pad(k, ((0, 0), (0, 0), (h - 1, h - 1), (w - 1, w - 1)))
    flipped = weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    grad = np.zeros_like(k)
    for u in range(2 * h - 1):
        for v in range(2 * w - 1):
            window = padded[:, :, u : u + h, v : v + w]
            grad += np.einsum("eb,cbrt->cert", weights[:, :, u, v], window)
            grad += np.einsum("eb,cbrt->cert", flipped[:, :, u, v], window)
    return grad


# Expansion tensors for a product of four complex numbers in real arithmetic:
# entry (t1,t2,t3,t4) is Re respectively Im of i**(t1+t2+t3+t4), i.e. the sign
# with which (a,b)-component picks t_j=0 -> real part, t_j=1 -> imag part.
_V = np.array([1.0, 1.0j])
_OUTER = np.einsum("a,b,c,d->abcd", _V, _V, _V, _V)
P_REAL = np.ascontiguousarray(_OUTER.real)
P_IM = np.ascontiguousarray(_OUTER.imag)
del _V, _OUTER


def singular_value_gradient_signs(k, factors) -> np.ndarray:
    """Reference sigma gradient of a 4-axis tensor in real arithmetic.

    With u_j = a_j + i*b_j the value is sqrt(real^2 + im^2) where
    real/im are the parts of [[k; u1..u4]], each a signed sum of forms over
    the stacked real/imag columns; the signs are ``P_REAL`` and ``P_IM``.
    ``factors`` is a ``Rank1Factors``; the divisor is the value at those
    factors, sqrt(real^2 + im^2).
    """
    arr = np.asarray(k, dtype=np.float64)
    ms = []
    for f in factors.factors:
        v = np.asarray(f, dtype=np.complex128)
        ms.append(np.stack([v.real, v.imag], axis=1))  # (n_axis, 2)
    core = np.einsum("abcd,ap,bq,cr,ds->pqrs", arr, *ms)
    re_part = float(np.sum(P_REAL * core))
    im_part = float(np.sum(P_IM * core))
    weights = (re_part * P_REAL + im_part * P_IM) / np.hypot(re_part, im_part)
    return np.einsum("pqrs,ap,bq,cr,ds->abcd", weights, *ms)



def matrix_spectral_norm_loop(m, iters: int = 300, tol: float = 1e-12, seed: int = 0) -> float:
    """Reference matrix norm: the standalone Gram power iteration on M^H M.

    Starts from a seeded random vector (complex when ``m`` is complex) and
    stops when the singular-value estimate changes by at most ``tol``
    relative, or after ``iters`` iterations.  A zero matrix returns 0.
    """
    mat = np.asarray(m)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {mat.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not mat.any():
        return 0.0
    rng = np.random.default_rng(seed)
    n = mat.shape[1]
    if np.iscomplexobj(mat):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    sigma_prev = 0.0
    sigma = 0.0
    for _ in range(iters):
        w = mat @ v
        sigma = float(np.linalg.norm(w))  # sqrt of Rayleigh quotient at unit v
        z = mat.conj().T @ w
        zn = np.linalg.norm(z)
        if zn == 0.0:
            break
        v = z / zn
        if abs(sigma - sigma_prev) <= tol * sigma:
            break
        sigma_prev = sigma
    return sigma


def power_method_loop(handle: LinearOperatorHandle, iters: int = 500, tol: float = 1e-10,
                      seed: int = 0) -> PowerMethodResult:
    """Reference operator norm: the standalone power iteration on T^T T.

    Same seeds and stopping test as ``convnorm.oracle.power_method``.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(handle.input_shape)
    nx = np.linalg.norm(x)
    x = x / nx
    sigma_prev = -1.0
    sigma = 0.0
    converged = False
    used = 0
    for _ in range(iters):
        y = handle.forward(x)
        sigma = float(np.linalg.norm(y.ravel()))
        z = handle.adjoint(y)
        zn = np.linalg.norm(z.ravel())
        used += 1
        if zn == 0.0:
            converged = sigma == 0.0
            break
        x = z / zn
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            converged = True
            break
        sigma_prev = sigma
    return PowerMethodResult(norm=sigma, iterations=used, converged=converged)


def lanczos_every_step(forward, adjoint, v, iters: int, tol: float) -> tuple[float, int, bool]:
    """Reference Golub-Kahan-Lanczos loop: sigma_max(B_j) and the stopping test
    at every step.  Same recurrence, start vector and stopping test as
    ``convnorm.tensor_ops._lanczos_norm``; returns (sigma, steps, converged).
    """
    alphas = np.zeros(iters)
    betas = np.zeros(iters)

    def bidiagonal_norm(j):
        b = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1)
        return float(np.linalg.svd(b, compute_uv=False)[0])

    u, beta = 0.0, 0.0
    sigma_prev = -1.0
    sigma = 0.0
    for step in range(1, iters + 1):
        p = forward(v) - beta * u
        alpha = np.linalg.norm(p.ravel())
        alphas[step - 1] = alpha
        if alpha == 0.0:
            return bidiagonal_norm(step), step, True
        u = p / alpha
        w = adjoint(u) - alpha * v
        beta = np.linalg.norm(w.ravel())
        betas[step - 1] = beta
        sigma = bidiagonal_norm(step)
        if beta == 0.0:
            return sigma, step, True
        v = w / beta
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return sigma, step, True
        sigma_prev = sigma
    return sigma, iters, False
