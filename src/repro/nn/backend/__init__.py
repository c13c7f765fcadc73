"""Compute backend: pure functional kernels plus the precision policy.

This package is the only place in ``repro`` allowed to spell out concrete
float dtypes.  Everything above it — layers, models, saliency, metrics,
serving — either asks the policy (:func:`resolve_dtype` / :func:`as_tensor`)
or follows the dtype of its inputs (:func:`result_dtype`).

Two modules:

* :mod:`repro.nn.backend.policy` — ``DTypePolicy`` and the coercion helpers.
* :mod:`repro.nn.backend.kernels` — stateless forward/backward kernels
  (im2col convolution, transposed convolution, dense, pooling, activations,
  and SSIM's window mean)
  that preserve the dtype of their inputs.  The stateful ``Layer`` classes
  in :mod:`repro.nn.layers` are thin wrappers over these functions, which is
  what lets alternative backends (threaded kernels, blocked GEMM) slot in
  behind one interface.
"""

from repro.nn.backend.kernels import (
    avgpool2d_backward,
    avgpool2d_forward,
    col2im,
    conv2d_backward,
    conv2d_forward,
    conv_output_size,
    conv_transpose2d,
    conv_transpose2d_backward,
    conv_transpose2d_forward,
    conv_transpose_output_size,
    dense_backward,
    dense_forward,
    im2col,
    leaky_relu_backward,
    leaky_relu_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
    tanh_backward,
    tanh_forward,
    window_mean,
)
from repro.nn.backend.policy import (
    FLOAT32,
    FLOAT64,
    SUPPORTED_DTYPES,
    DTypePolicy,
    as_tensor,
    default_policy,
    resolve_dtype,
    result_dtype,
)
from repro.nn.backend.profiler import (
    KernelProfiler,
    KernelStat,
    disable_kernel_profiler,
    enable_kernel_profiler,
    get_kernel_profiler,
    kernel_profile,
    profiled,
    render_profile_table,
)

__all__ = [
    "KernelProfiler",
    "KernelStat",
    "disable_kernel_profiler",
    "enable_kernel_profiler",
    "get_kernel_profiler",
    "kernel_profile",
    "profiled",
    "render_profile_table",
    "FLOAT32",
    "FLOAT64",
    "SUPPORTED_DTYPES",
    "DTypePolicy",
    "as_tensor",
    "default_policy",
    "resolve_dtype",
    "result_dtype",
    "avgpool2d_backward",
    "avgpool2d_forward",
    "col2im",
    "conv2d_backward",
    "conv2d_forward",
    "conv_output_size",
    "conv_transpose2d",
    "conv_transpose2d_backward",
    "conv_transpose2d_forward",
    "conv_transpose_output_size",
    "dense_backward",
    "dense_forward",
    "im2col",
    "leaky_relu_backward",
    "leaky_relu_forward",
    "maxpool2d_backward",
    "maxpool2d_forward",
    "relu_backward",
    "relu_forward",
    "sigmoid_backward",
    "sigmoid_forward",
    "tanh_backward",
    "tanh_forward",
    "window_mean",
]
