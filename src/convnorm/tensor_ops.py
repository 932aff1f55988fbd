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

import math
import numbers

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


def _spatial_shape(shape) -> tuple[int, ...]:
    """The spatial sizes ``shape[2:]`` of a kernel shape; there must be one."""
    if len(shape) < 3:
        raise ValueError(
            f"expected a kernel with at least one spatial axis, got shape {tuple(shape)}"
        )
    return tuple(shape[2:])


def _integer(value, name: str) -> int:
    """``value`` as an int; anything but an integer (1.5, or even 2.0) is rejected."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    return _multilinear_form(arr, _check_vectors(arr.shape, us))


def _multilinear_form(arr: np.ndarray, vs) -> complex:
    """:func:`multilinear_form` of an array and vectors already checked."""
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
    return _unfold(as_dense_tensor(a), row_axes, col_axes)


def _unfold(arr: np.ndarray, row_axes, col_axes) -> np.ndarray:
    """:func:`unfold` of an array already checked by :func:`as_dense_tensor`."""
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


# The Lanczos loop's schedule for sigma_max(B_j) (see _lanczos_norm).
_EVERY_STEP_UNTIL = 24
_CHECK_EVERY = 4


def _bidiagonal_norm(alphas: np.ndarray, betas: np.ndarray, j: int) -> float:
    """Largest singular value of the j x j upper bidiagonal B_j: alphas on the
    diagonal, betas above it."""
    b = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1)
    return float(np.linalg.svd(b, compute_uv=False)[0])


def _lanczos_norm(
    forward, adjoint, v, iters: int, tol: float, cap: float = math.inf
) -> tuple[float, int, bool]:
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

    B_j's SVD costs O(j^3), so the estimate is taken, and the stopping test
    made, at every step up to step ``_EVERY_STEP_UNTIL``, then at every
    ``_CHECK_EVERY``-th step and at the last.  Where it runs, the test
    compares sigma_j with sigma_{j-1} as a test at every step would, so the
    loop never stops earlier than that and never reports less; once the
    relative change is below ``tol`` it normally stays there, and the loop
    stops at most ``_CHECK_EVERY - 1`` steps later.

    Converged means the estimate changed by at most ``tol`` relative between
    two consecutive steps -- it stopped moving, which does not bound its
    distance from ||A|| -- or alpha_j or beta_j came out exactly 0 (the
    Krylov space is exhausted and the estimate is the B_j holding that entry).

    ``cap`` serves a caller that wants only the smallest of several norms
    (``f4_bound``): the loop also stops, unconverged, at the first tested
    step whose estimate exceeds ``cap``.  The estimate never decreases, so
    that norm exceeds ``cap`` too, and the value returned is still a lower
    bound on it.  A loop whose estimate never exceeds ``cap`` -- any loop
    under the default, infinite cap -- runs exactly as without one.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    alphas = np.zeros(iters)
    betas = np.zeros(iters)
    u, beta = 0.0, 0.0
    sigma, sigma_step = 0.0, 0
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
        if beta == 0.0:
            return _bidiagonal_norm(alphas, betas, step), step, True
        v = w / beta
        if step > _EVERY_STEP_UNTIL and step % _CHECK_EVERY and step < iters:
            continue
        sigma_prev = sigma if sigma_step == step - 1 else _bidiagonal_norm(alphas, betas, step - 1)
        sigma, sigma_step = _bidiagonal_norm(alphas, betas, step), step
        if step > 1 and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return sigma, step, True
        if sigma > cap:
            return sigma, step, False
    return sigma, iters, False


def matrix_spectral_norm(
    m, iters: int = 300, tol: float = 1e-12, seed: int = 0, *, cap: float = math.inf
) -> float:
    """Largest singular value by Golub-Kahan-Lanczos bidiagonalization.

    Starts from a seeded random vector (complex when ``m`` is complex) and
    stops when the singular-value estimate changes by at most ``tol``
    relative, when the Krylov space is exhausted, or after ``iters`` steps of
    one product with M and one with M^H each.  The estimate is nondecreasing
    and never above the norm, so early termination can only under-report.
    A zero matrix returns 0.

    With a finite ``cap`` the loop also stops once the estimate exceeds
    ``cap`` (see ``_lanczos_norm``), returning a value above ``cap``: a
    caller taking a minimum with ``cap`` gets the same minimum as without
    one.  The default, infinite cap changes nothing.
    """
    mat = np.asarray(m)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {mat.shape}")
    rng = np.random.default_rng(seed)
    n = mat.shape[1]
    if np.iscomplexobj(mat):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    mat_h = mat.conj().T
    sigma, _, _ = _lanczos_norm(
        lambda x: mat @ x, lambda y: mat_h @ y, v / np.linalg.norm(v), iters, tol, cap
    )
    return sigma


def frobenius(a) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    arr = as_dense_tensor(a)
    return float(np.linalg.norm(arr.ravel()))
