"""Dense-tensor arithmetic: input checks, the Lanczos norm, Frobenius norms.

Every quantity in this package reduces to a handful of primitives on dense
float64 tensors and complex vectors, collected here.

Conventions
-----------
Tensors are numpy arrays stored row-major (C layout); entries must be finite.
A matrix a caller derives from a tensor -- an unfolding, a kernel view -- is
a row-major reshape, so it is a view wherever no axes move.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "as_dense_tensor",
    "matrix_spectral_norm",
    "frobenius",
]


def _real(a, name: str) -> np.ndarray:
    """``a`` as a float64 array, copied only to convert it.  A complex ``a``
    is rejected rather than cut to its real part: every quantity here is
    defined for real tensors only."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got a complex array")
    return arr.astype(np.float64, copy=False)


def as_dense_tensor(a, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array, rejecting complex input
    (see :func:`_real`) and NaN/Inf entries."""
    arr = np.ascontiguousarray(_real(a, name))
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
    """``value`` as an int; anything but an integer (1.5, or even 2.0 or
    True) is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """``value`` as a seed for ``np.random.default_rng``: a nonnegative integer."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _binary_exponent(arr: np.ndarray) -> int:
    """The e with max|arr| in [2**(e - 1), 2**e) (0 for a zero array): scaling
    by 2**-e, which is exact, brings the largest entry into [0.5, 1)."""
    return math.frexp(max(arr.max(), -arr.min()))[1]


class _Memo:
    """The last ``size`` results of an exact computation on a checked array.

    Each entry keeps a hashable key (the computation's other inputs), a
    private copy of the array and the result.  :meth:`get` returns a stored
    result when the key is equal and the array is bit for bit the copy
    (compared as integers, so -0.0 and 0.0 differ), and otherwise computes,
    stores and returns a new one, dropping the oldest entry when full.
    The array must be a C-contiguous float64 array, as :func:`as_dense_tensor`
    returns.  Entries are replaced by assigning a new tuple, never edited, so
    a reader in another thread sees one whole tuple or the next; two threads
    storing at once can drop one entry, which costs only a later recompute.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: tuple = ()

    def get(self, key, arr: np.ndarray, compute):
        bits = arr.view(np.int64)
        for k, stored, result in self.entries:
            if k == key and np.array_equal(stored.view(np.int64), bits):
                return result
        result = compute(arr)
        self.entries = ((key, arr.copy(), result),) + self.entries[: self.size - 1]
        return result

    def clear(self) -> None:
        self.entries = ()


def _check_vectors(shape: tuple[int, ...], us) -> list[np.ndarray]:
    if len(us) != len(shape):
        raise ValueError(
            f"expected {len(shape)} vectors (one per axis), got {len(us)}"
        )
    out: list[np.ndarray] = []
    for axis, u in enumerate(us):
        v = np.asarray(u)
        if v.ndim != 1 or v.shape[0] != shape[axis]:
            raise ValueError(
                f"axis {axis}: vector of length "
                f"{v.shape[0] if v.ndim == 1 else v.shape} does not match "
                f"tensor dimension {shape[axis]}"
            )
        out.append(v)
    return out


def _finite(value: float, what: str) -> float:
    """``value``; ValueError "WHAT overflows the float range" if it is inf or NaN."""
    if not value < math.inf:
        raise ValueError(f"{what} overflows the float range")
    return value


# _unit trusts the plain sum of squares while the norm lies in
# [2**-_NORM_EXPONENT, 2**_NORM_EXPONENT]: there the sum neither overflows
# nor loses a square that matters to the subnormals.
_NORM_EXPONENT = 500


def _unit(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``(x / ||x||, ||x||)`` for a real or complex array; ``(x, 0.0)`` when
    ``x`` is zero.

    A norm outside [2**-_NORM_EXPONENT, 2**_NORM_EXPONENT], including a sum
    of squares that came out 0 or infinite (the caller silences numpy's
    overflow warning), is taken again on the array scaled by the exact power
    of two that brings its largest real or imaginary part into [0.5, 1), and
    the scaled array is divided by it, so no division meets a subnormal
    norm.  A complex array is scaled as its real view, which has the same
    norm.  A norm beyond the float range raises ValueError.
    """
    r = float(np.linalg.norm(x.ravel()))
    if 2.0**-_NORM_EXPONENT <= r <= 2.0**_NORM_EXPONENT:
        return x / r, r
    is_complex = np.iscomplexobj(x)
    parts = np.ascontiguousarray(x).view(x.real.dtype) if is_complex else x
    e = _binary_exponent(parts)
    scaled = np.ldexp(parts, -e)
    r = float(np.linalg.norm(scaled.ravel()))
    if r == 0.0:
        return x, 0.0
    norm = _finite(float(np.ldexp(r, e)), "the norm")  # also an entry that overflowed to Inf
    scaled /= r
    return (scaled.view(x.dtype) if is_complex else scaled), norm


# The Lanczos loop's schedule for sigma_max(B_j) (see _lanczos_norm).
_EVERY_STEP_UNTIL = 24
_CHECK_EVERY = 4


def _bidiagonal_norm(alphas: np.ndarray, betas: np.ndarray, j: int) -> float:
    """Largest singular value of the j x j upper bidiagonal B_j: alphas on the
    diagonal, betas above it.  One beyond the float range raises ValueError."""
    b = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1)
    return _finite(float(np.linalg.svd(b, compute_uv=False)[0]), "the norm")


# _lanczos_norm scales the vectors it hands an operator whose products are
# subnormal by 2**_SUBNORMAL_SHIFT: their entries stay finite, and a first
# product whose largest entry was in [2**-1074, 2**-1022) has it in
# [2**-74, 2**-22), where _unit takes the plain norm.
_SUBNORMAL_SHIFT = 1000


@np.errstate(over="ignore")  # _unit takes again a sum of squares that overflowed
def _lanczos_norm(
    forward, adjoint, v, iters: int, tol: float, cap: float = math.inf
) -> tuple[float, int, bool]:
    """Golub-Kahan-Lanczos estimate of ||A|| from the unit start ``v``:
    (sigma, steps, converged).

    ``forward`` applies A and ``adjoint`` applies A^H; each step makes one
    call of each.  Step j extends the bidiagonalization A V_j = U_j B_j by
    alpha_j = ||A v_j - beta_{j-1} u_{j-1}|| and
    beta_j = ||A^H u_j - alpha_j v_j||, keeping only the current u and v
    (no stored basis, no reorthogonalization).  Both norms, and the
    divisions by them, are made by :func:`_unit`, so an operator of extreme
    magnitude is taken as it is.  The estimate is the largest singular
    value of B_j, the maximum of ||A x|| / ||x|| over the Krylov
    space K_j(A^H A, v): it is nondecreasing in j, never above ||A||, and
    never below the power-iteration estimate after the same number of steps,
    so an early stop only under-reports.  Step 1 returns exactly ||A v||.

    A first product A v that is not finite raises ValueError: a NaN or Inf
    entry of A always shows there (a random start has no zero entry).  So
    does a norm beyond the float range, of a vector or of B_j.

    An operator so small that its products with unit vectors are subnormal
    rounds them to a few bits, so ``forward`` and ``adjoint`` no longer
    apply one map and its adjoint, and the estimate can exceed ||A|| many
    times over.  So when the largest entry of A v is below 2**-1022 (or
    A v is zero), the loop runs on 2**c A, c = ``_SUBNORMAL_SHIFT``, by
    handing both the unit vectors scaled by 2**c, at the cost of one more
    call of ``forward``.  ``cap`` is multiplied by 2**c and sigma divided by
    it, which rounds only a subnormal sigma; such a sigma is accurate only
    to the subnormal spacing.  Every other operator runs unscaled, bit for
    bit.

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
    iters = _integer(iters, "iters")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    first = forward(v)
    peak = np.abs(first).max()
    if not np.isfinite(peak):
        raise ValueError(
            "matrix contains non-finite entries, or its product with a unit vector overflows"
        )
    if peak >= np.finfo(np.float64).tiny:
        return _lanczos_steps(forward, adjoint, v, first, iters, tol, cap)
    scale = 2.0**_SUBNORMAL_SHIFT
    sigma, steps, converged = _lanczos_steps(
        lambda x: forward(scale * x), lambda y: adjoint(scale * y), v,
        forward(scale * v), iters, tol, cap * scale,
    )
    return math.ldexp(sigma, -_SUBNORMAL_SHIFT), steps, converged


def _lanczos_steps(forward, adjoint, v, first, iters: int, tol: float, cap: float):
    """The loop of :func:`_lanczos_norm`, whose first product A v is ``first``."""
    alphas = np.zeros(iters)
    betas = np.zeros(iters)
    u, beta = 0.0, 0.0
    sigma, sigma_step = 0.0, 0
    for step in range(1, iters + 1):
        u, alpha = _unit(first if step == 1 else forward(v) - beta * u)
        alphas[step - 1] = alpha
        if alpha == 0.0:
            return _bidiagonal_norm(alphas, betas, step), step, True
        v, beta = _unit(adjoint(u) - alpha * v)
        betas[step - 1] = beta
        if beta == 0.0:
            return _bidiagonal_norm(alphas, betas, step), step, True
        if step > _EVERY_STEP_UNTIL and step % _CHECK_EVERY and step < iters:
            continue
        sigma_prev = sigma if sigma_step == step - 1 else _bidiagonal_norm(alphas, betas, step - 1)
        sigma, sigma_step = _bidiagonal_norm(alphas, betas, step), step
        if step > 1 and abs(sigma - sigma_prev) <= tol * sigma:
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

    A matrix with a NaN or Inf entry raises ValueError.  The entry is found
    in the first product with the start vector, so a caller whose matrix is
    already checked (``f4_bound``) pays no second scan.  A norm beyond the
    float range raises ValueError too.
    """
    mat = np.asarray(m)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {mat.shape}")
    rng = np.random.default_rng(_seed(seed))
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
