"""Certified, resolution-independent bounds on convolution Jacobian norms.

The spectral norm of the linear map realized by a convolutional layer is
sandwiched between the complex rank-1 value of its kernel tensor and the
square root of the product of its spatial sizes times that value, for zero
and circular padding alike.  ``tn_bound`` computes that sandwich with a
complex higher-order power method for kernels with any number of spatial
axes; a strided convolution is bounded by ``tn_bound`` on its regrouped
stride-1 kernel (``strided_kernel_transform``).  The package also evaluates
the competing four-unfolding bound, ships dense and matrix-free reference
oracles to certify everything at small sizes, and provides analytic
gradients plus orthogonality regularizers built on the same machinery.
"""

from .bounds import (
    BoundReport,
    ConvConfig,
    centered_offsets,
    f4_bound,
    make_bound_report,
    strided_kernel_transform,
)
from .hopm import (
    HopmConfig,
    Rank1Factors,
    SigmaEstimate,
    TnBound,
    hopm,
    singular_value_gradient,
    tn_bound,
    tn_gradient,
)
from .kernel_io import (
    complex_gap_kernel,
    delta_kernel,
    gaussian_kernel,
    read_kernel,
    uniform_kernel,
    write_kernel,
)
from .oracle import (
    LinearOperatorHandle,
    build_dense_jacobian,
    circular_exact_norm,
    conv_operator,
    power_method,
)
from .regularizers import (
    ocnn_loss,
    ratio_loss,
    regularizer_gradient,
    self_gram_kernel,
    twonorm_loss,
)
from .tensor_ops import (
    frobenius,
    matrix_spectral_norm,
    multilinear_form,
    partial_contraction,
    unfold,
)

__version__ = "0.1.0"

# The ``ladder`` workload in perfbench/workloads.py still calls
# cn.tn_bound_ddim; the alias goes once that workload calls tn_bound.  It is
# deliberately left out of __all__.
tn_bound_ddim = tn_bound

__all__ = [
    "BoundReport",
    "ConvConfig",
    "HopmConfig",
    "LinearOperatorHandle",
    "Rank1Factors",
    "SigmaEstimate",
    "TnBound",
    "build_dense_jacobian",
    "centered_offsets",
    "circular_exact_norm",
    "complex_gap_kernel",
    "conv_operator",
    "delta_kernel",
    "f4_bound",
    "frobenius",
    "gaussian_kernel",
    "hopm",
    "make_bound_report",
    "matrix_spectral_norm",
    "multilinear_form",
    "ocnn_loss",
    "partial_contraction",
    "power_method",
    "ratio_loss",
    "read_kernel",
    "regularizer_gradient",
    "self_gram_kernel",
    "singular_value_gradient",
    "strided_kernel_transform",
    "tn_bound",
    "tn_gradient",
    "twonorm_loss",
    "uniform_kernel",
    "unfold",
    "write_kernel",
]
