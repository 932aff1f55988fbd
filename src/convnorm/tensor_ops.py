"""Dense-tensor arithmetic: multilinear forms, unfoldings, spectral norms.

Every quantity in this package reduces to a handful of primitives on dense
float64 tensors and complex vectors, collected here.

Conventions
-----------
Tensors are numpy arrays stored row-major (C layout); entries must be finite.
An *unfolding* ``unfold(A, row_axes, col_axes)`` first permutes the axes into
the order ``row_axes + col_axes`` and then reshapes to a matrix in
column-major (Fortran) order, so the first axis listed in each group varies
fastest along that group.  A plain row-major ``A.reshape(r, -1)`` is the same
matrix as ``unfold(A, [0], [d-1, ..., 1])``: reversing the column group
converts between the two displays.  Both conventions appear in the
literature; the test suite pins the mapping on a concrete 2x2x2x2 example.

The multilinear form ``[[A; u1, ..., ud]]`` contracts one vector per axis
*without* conjugating anything; conjugation, where an algorithm needs it, is
applied explicitly by the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_dense_tensor",
    "multilinear_form",
    "partial_contraction",
    "unfold",
    "matrix_spectral_norm",
    "frobenius",
]


def as_dense_tensor(a, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array and reject NaN/Inf entries."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_4d_kernel(k) -> np.ndarray:
    """:func:`as_dense_tensor` for a (c_out, c_in, h, w) kernel."""
    arr = as_dense_tensor(k, "kernel")
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got {arr.ndim} axes")
    return arr


def _check_vectors(shape: tuple[int, ...], us, skip: int | None = None) -> list[np.ndarray]:
    if len(us) != len(shape):
        raise ValueError(
            f"expected {len(shape)} vectors (one per axis), got {len(us)}"
        )
    out: list[np.ndarray] = []
    for axis, u in enumerate(us):
        if axis == skip:
            out.append(None)  # type: ignore[arg-type]
            continue
        v = np.asarray(u)
        if v.ndim != 1 or v.shape[0] != shape[axis]:
            raise ValueError(
                f"axis {axis}: vector of length "
                f"{v.shape[0] if v.ndim == 1 else v.shape} does not match "
                f"tensor dimension {shape[axis]}"
            )
        out.append(v)
    return out


def multilinear_form(a, us) -> complex:
    """Contract one vector per axis: sum_i A[i1..id] * u1[i1] * ... * ud[id].

    No conjugation is applied.  Vectors may be real or complex; the result is
    returned as a Python complex number.
    """
    arr = as_dense_tensor(a)
    vs = _check_vectors(arr.shape, us)
    # Axis 0 is contracted first, as one real matmul of stacked (Re, Im)
    # rows against the (n_0, rest) view, so the tensor is never copied to
    # complex and only the small remainder is contracted in complex.
    rows = np.stack([vs[0].real, vs[0].imag])
    pair = rows @ arr.reshape(arr.shape[0], -1)
    result = (pair[0] + 1j * pair[1]).reshape(arr.shape[1:])
    for axis in range(result.ndim - 1, -1, -1):
        result = np.tensordot(result, vs[axis + 1], axes=(axis, 0))
    return complex(result)


def partial_contraction(a, us, hole: int) -> np.ndarray:
    """Contract every axis except ``hole``; entry j is the form with e_j there.

    ``us`` must have one entry per axis; ``us[hole]`` is ignored (it may be
    None).  Returns a vector of length ``a.shape[hole]``.
    """
    arr = as_dense_tensor(a)
    if not 0 <= hole < arr.ndim:
        raise ValueError(f"hole axis {hole} out of range for {arr.ndim} axes")
    vs = _check_vectors(arr.shape, us, skip=hole)
    result = arr
    # Contracting highest axis first keeps original axis j at position j.
    for axis in range(arr.ndim - 1, -1, -1):
        if axis == hole:
            continue
        result = np.tensordot(result, vs[axis], axes=(axis, 0))
    return result


def unfold(a, row_axes, col_axes) -> np.ndarray:
    """Matrix unfolding: permute axes to ``row_axes + col_axes``, reshape
    column-major."""
    arr = as_dense_tensor(a)
    rows = [int(x) for x in row_axes]
    cols = [int(x) for x in col_axes]
    if sorted(rows + cols) != list(range(arr.ndim)):
        raise ValueError(
            f"row axes {rows} and column axes {cols} must partition "
            f"0..{arr.ndim - 1} with no repeats"
        )
    shape = arr.shape
    nrows = int(np.prod([shape[i] for i in rows], dtype=np.int64)) if rows else 1
    ncols = int(np.prod([shape[i] for i in cols], dtype=np.int64)) if cols else 1
    return arr.transpose(rows + cols).reshape(nrows, ncols, order="F")


def _bidiagonal_norm(alphas: np.ndarray, betas: np.ndarray, j: int) -> float:
    """Largest singular value of the j x j upper bidiagonal B_j: alphas on the
    diagonal, betas above it."""
    b = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1)
    return float(np.linalg.svd(b, compute_uv=False)[0])


def _lanczos_norm(forward, adjoint, v, iters: int, tol: float) -> tuple[float, int, bool]:
    """Golub-Kahan-Lanczos estimate of ||A|| from the unit start ``v``:
    (sigma, steps, converged).

    ``forward`` applies A and ``adjoint`` applies A^H; each step makes one
    call of each.  Step j extends the bidiagonalization A V_j = U_j B_j by
    alpha_j = ||A v_j - beta_{j-1} u_{j-1}|| and
    beta_j = ||A^H u_j - alpha_j v_j||, keeping only the current u and v
    (no stored basis, no reorthogonalization).  The estimate is the largest
    singular value of B_j, the maximum of ||A x|| / ||x|| over the Krylov
    space K_j(A^H A, v): it is nondecreasing in j, never above ||A||, and
    never below the power-iteration estimate after the same number of steps,
    so an early stop only under-reports.  Step 1 returns exactly ||A v||.
    Converged means the estimate changed by at most ``tol`` relative between
    two consecutive steps, or alpha_j or beta_j came out exactly 0 (the
    Krylov space is exhausted and the estimate is the B_j holding that entry).
    """
    alphas = np.zeros(iters)
    betas = np.zeros(iters)
    u, beta = 0.0, 0.0
    sigma_prev = -1.0
    sigma = 0.0
    for step in range(1, iters + 1):
        p = forward(v) - beta * u
        alpha = np.linalg.norm(p.ravel())
        alphas[step - 1] = alpha
        if alpha == 0.0:
            return _bidiagonal_norm(alphas, betas, step), step, True
        u = p / alpha
        w = adjoint(u) - alpha * v
        beta = np.linalg.norm(w.ravel())
        betas[step - 1] = beta
        sigma = _bidiagonal_norm(alphas, betas, step)
        if beta == 0.0:
            return sigma, step, True
        v = w / beta
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return sigma, step, True
        sigma_prev = sigma
    return sigma, iters, False


def matrix_spectral_norm(m, iters: int = 300, tol: float = 1e-12, seed: int = 0) -> float:
    """Largest singular value by Golub-Kahan-Lanczos bidiagonalization.

    Starts from a seeded random vector (complex when ``m`` is complex) and
    stops when the singular-value estimate changes by at most ``tol``
    relative, when the Krylov space is exhausted, or after ``iters`` steps of
    one product with M and one with M^H each.  The estimate is nondecreasing
    and never above the norm, so early termination can only under-report.
    A zero matrix returns 0.
    """
    mat = np.asarray(m)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {mat.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    n = mat.shape[1]
    if np.iscomplexobj(mat):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    mat_h = mat.conj().T
    sigma, _, _ = _lanczos_norm(
        lambda x: mat @ x, lambda y: mat_h @ y, v / np.linalg.norm(v), iters, tol
    )
    return sigma


def frobenius(a) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    arr = as_dense_tensor(a)
    return float(np.linalg.norm(arr.ravel()))
