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


# The one magnitude rule: a float64 computation takes an array as it is while
# its largest entry lies in [2**-_SAFE_EXPONENT, 2**_SAFE_EXPONENT).  There no
# sum of squares it forms overflows, and no square that matters falls among
# the subnormals.
_SAFE_EXPONENT = 250


def _scale_exponent(e: int) -> int:
    """0 for a binary exponent ``e`` in (-_SAFE_EXPONENT, _SAFE_EXPONENT],
    else ``e``: the caller runs on its input scaled by 2**-e, exactly, and
    scales the result back through :func:`_finite`."""
    return 0 if -_SAFE_EXPONENT < e <= _SAFE_EXPONENT else e


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


def _finite(value: float, what: str, e: int = 0) -> float:
    """``value * 2**e``; ValueError "WHAT overflows the float range" if that
    is inf or NaN."""
    try:
        value = math.ldexp(value, e)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise ValueError(f"{what} overflows the float range")
    return value


def _unit(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``(x / ||x||, ||x||)`` for a real or complex array; ``(x, 0.0)`` when
    ``x`` is zero.  A norm beyond the float range raises ValueError (see
    :func:`_lanczos_norm` for why the plain norm is safe there)."""
    r = _finite(float(np.linalg.norm(x.ravel())), "the norm")
    return (x / r if r else x), r


# The Lanczos loop's schedule for sigma_max(B_j) (see _lanczos_norm).
_EVERY_STEP_UNTIL = 24
_CHECK_EVERY = 4


def _bidiagonal_norm(alphas: np.ndarray, betas: np.ndarray, j: int) -> float:
    """Largest singular value of the j x j upper bidiagonal B_j: alphas on the
    diagonal, betas above it.  One beyond the float range raises ValueError."""
    b = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1)
    return _finite(float(np.linalg.svd(b, compute_uv=False)[0]), "the norm")


def _lanczos_norm(
    forward, adjoint, v, iters: int, tol: float, cap: float = math.inf
) -> tuple[float, int, bool]:
    """Golub-Kahan-Lanczos estimate of ||A|| from the unit start ``v``:
    (sigma, steps, converged).

    ``forward`` applies A and ``adjoint`` applies A^H; each step makes one
    call of each.  Step j extends the bidiagonalization A V_j = U_j B_j by
    alpha_j = ||A v_j - beta_{j-1} u_{j-1}|| and
    beta_j = ||A^H u_j - alpha_j v_j||, keeping only the current u and v
    (no stored basis, no reorthogonalization); both norms, and the divisions
    by them, are made by :func:`_unit`.  The estimate is the largest
    singular value of B_j, the maximum of ||A x|| / ||x|| over the Krylov
    space K_j(A^H A, v): it is nondecreasing in j, never above ||A||, and
    never below the power-iteration estimate after the same number of steps,
    so an early stop only under-reports.  Step 1 returns exactly ||A v||.

    A first product A v that is not finite raises ValueError: a NaN or Inf
    entry of A always shows there (a random start has no zero entry).  So
    does a norm beyond the float range, of a vector, of B_j or of sigma.

    Magnitude: the rule of :func:`_scale_exponent` is applied once, to the
    largest entry of A v (a zero A v counts as 2**-1074), with e clamped to
    [-1023, 1022] so that 2**-e is normal.  For e = 0 the loop runs on A as
    it is; otherwise on 2**-e A, by handing both maps vectors scaled by
    2**-e (one more call of ``forward``), with ``cap`` scaled alike and sigma
    scaled back.  So no product keeps only the few bits of a subnormal,
    which over-reported the norm, and a plain :func:`_unit` is safe: for a
    random start every Lanczos vector's norm lies within about
    sqrt(rows * cols) of A v's peak, now in [2**-250, 2**250), far inside
    what a sum of squares holds; an overflow still raises through
    :func:`_finite`.  A subnormal sigma is accurate only to 2**-1074.

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
    peak = float(np.abs(first).max())
    if not peak < math.inf:
        raise ValueError(
            "matrix contains non-finite entries, or its product with a unit vector overflows"
        )
    e = min(max(_scale_exponent(math.frexp(peak or 2.0**-1074)[1]), -1023), 1022)
    if not e:
        return _lanczos_steps(forward, adjoint, v, first, iters, tol, cap)
    scale = 2.0**-e
    sigma, steps, converged = _lanczos_steps(
        lambda x: forward(scale * x), lambda y: adjoint(scale * y), v,
        forward(scale * v), iters, tol, cap * scale,
    )
    return _finite(sigma, "the norm", e), steps, converged


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
    """Frobenius norm.  The plain norm stands while :func:`_scale_exponent`
    passes its exponent; one outside, or 0 or infinite, is taken again on
    the array scaled by that rule.  One beyond the float range raises
    ValueError."""
    arr = as_dense_tensor(a)
    with np.errstate(over="ignore"):  # an overflowed sum of squares is taken again
        norm = float(np.linalg.norm(arr.ravel()))
    if 0.0 < norm < math.inf and not _scale_exponent(math.frexp(norm)[1]):
        return norm
    e = _scale_exponent(_binary_exponent(arr))
    return _finite(float(np.linalg.norm(np.ldexp(arr, -e).ravel())), "the norm", e)
