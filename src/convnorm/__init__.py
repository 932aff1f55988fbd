"""Certified, resolution-independent bounds on convolution Jacobian norms.

The spectral norm of the linear map realized by a convolutional layer is
sandwiched between the complex rank-1 value of its kernel tensor and
sqrt(h*w) times that value, for zero and circular padding alike.  This
package computes that sandwich via a complex higher-order power method,
extends it to strided and d-dimensional convolutions, evaluates the
competing four-unfolding bound, ships dense and matrix-free reference
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
    tn_bound_ddim,
    tn_bound_strided,
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
    spectral_density,
)
from .regularizers import (
    SelfGramKernel,
    TwoNormResult,
    ocnn_loss,
    ratio_loss,
    regularizer_gradient,
    self_gram_kernel,
    twonorm_loss,
)
from .tensor_ops import (
    fold,
    frobenius,
    frobenius_inner,
    matrix_spectral_norm,
    multilinear_form,
    partial_contraction,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConvConfig",
    "HopmConfig",
    "LinearOperatorHandle",
    "Rank1Factors",
    "SelfGramKernel",
    "SigmaEstimate",
    "TnBound",
    "TwoNormResult",
    "build_dense_jacobian",
    "centered_offsets",
    "circular_exact_norm",
    "complex_gap_kernel",
    "conv_operator",
    "delta_kernel",
    "f4_bound",
    "fold",
    "frobenius",
    "frobenius_inner",
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
    "spectral_density",
    "strided_kernel_transform",
    "tn_bound",
    "tn_bound_ddim",
    "tn_bound_strided",
    "tn_gradient",
    "twonorm_loss",
    "uniform_kernel",
    "unfold",
    "write_kernel",
]
