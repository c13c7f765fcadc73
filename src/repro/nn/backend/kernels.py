"""Pure functional kernels: the stateless half of every layer.

Each kernel takes pre-coerced arrays, performs one forward or backward
computation, and returns whatever the matching pass needs — no parameters,
no caches, no policy lookups.  Kernels *preserve the dtype of their inputs*
(all intermediate allocations derive from ``x.dtype``/``grad.dtype``), so
the same code path serves float64 training and float32 inference; the
stateful ``Layer`` wrappers in :mod:`repro.nn.layers` decide the dtype once
at their boundary and dispatch here.

The im2col transformation unrolls every receptive field of a ``(N, C, H,
W)`` batch into the columns of a channel-major ``(C*kh*kw, N*out_h*out_w)``
matrix, so convolution becomes one ``W @ cols`` matrix multiplication and
its result is already the output in ``(C_out, N, out_h, out_w)`` memory
order (handed out as a transposed ``(N, C_out, out_h, out_w)`` view, which
the next layer's im2col reads back channel-major without a copy).  This is
the only column layout: ``col2im`` is its adjoint (a scatter-add), which
gives both the convolution backward pass and the transposed-convolution
forward pass, and pooling and LRP consume the same matrix.
:func:`conv_transpose2d` is also used directly by :mod:`repro.saliency.vbp`:
VisualBackProp upscales averaged feature maps with a ones-kernel transposed
convolution matching each convolution layer's geometry.
:func:`window_mean` is SSIM's zero-padded local-mean operator
(:mod:`repro.metrics.ssim`): shifted-slice adds, no BLAS call.

Every public kernel is wrapped by :func:`repro.nn.backend.profiler.profiled`
— a no-op unless a kernel profiler is installed (``repro profile``, the
serving worker's ``profile_kernels`` flag), in which case calls are timed
and attributed per kernel.  ``im2col``/``col2im`` are not wrapped: they run
nested inside the convolution kernels and would double-count.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend.policy import FLOAT32, as_tensor
from repro.nn.backend.profiler import profiled

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair, name: str) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a validated (h, w) tuple."""
    if isinstance(value, int):
        pair = (value, value)
    else:
        pair = (int(value[0]), int(value[1]))
    if pair[0] < 0 or pair[1] < 0:
        raise ShapeError(f"{name} must be non-negative, got {pair}")
    return pair


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution produces non-positive output size "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def conv_transpose_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride + kernel - 2 * padding
    if out <= 0:
        raise ShapeError(
            f"transposed convolution produces non-positive output size "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> np.ndarray:
    """Unroll receptive fields of ``x`` into a channel-major 2-D matrix.

    Parameters
    ----------
    x:
        Input batch of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(C * kh * kw, N * out_h * out_w)`` where row
    ``(c * kh + i) * kw + j`` holds input channel ``c`` at kernel offset
    ``(i, j)`` and column ``(n * out_h + p) * out_w + q`` is output position
    ``(p, q)`` of sample ``n``.  The matrix is a plain reshape of the gather
    buffer, so the only allocation beyond a padded copy is the matrix itself.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    source = x.transpose(1, 0, 2, 3)
    if ph or pw:
        padded = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph : ph + h, pw : pw + w] = source
        source = padded

    # Gather into (C, kh, kw, N, out_h, out_w) with one strided slice per
    # kernel offset: O(kh*kw) slice operations instead of O(out_h*out_w).
    cols = np.empty((c, kh, kw, n, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            cols[:, i, j] = source[:, :, i:i_max:sh, j:j_max:sw]
    return cols.reshape(c * kh * kw, n * out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into image shape.

    Overlapping receptive fields accumulate, which is exactly the gradient of
    ``im2col`` — and the forward pass of a transposed convolution.  The
    result is an ``(N, C, H, W)`` view of a channel-major canvas.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    expected = (c * kh * kw, n * out_h * out_w)
    if cols.shape != expected:
        raise ShapeError(
            f"col2im expects cols of shape {expected}, got {cols.shape}"
        )

    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    canvas = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            canvas[:, :, i:i_max:sh, j:j_max:sw] += cols6[:, i, j]
    return canvas[:, :, ph : ph + h, pw : pw + w].transpose(1, 0, 2, 3)


def _channel_major(x: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)`` as the ``(C, N*H*W)`` matrix the GEMMs consume
    (free when ``x`` already sits in channel-major memory order)."""
    n, c, h, w = x.shape
    return x.transpose(1, 0, 2, 3).reshape(c, n * h * w)


# -- convolution ---------------------------------------------------------


@profiled
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution forward pass.

    Parameters
    ----------
    x:
        Input batch ``(N, C_in, H, W)``.
    weight:
        Kernel ``(C_out, C_in, kh, kw)``.

    Returns
    -------
    ``(out, cols)`` — the ``(N, C_out, out_h, out_w)`` output (a view of
    the channel-major ``W @ cols`` product) and the im2col matrix the
    backward pass reuses.
    """
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(x.shape[2], kh, stride[0], padding[0])
    out_w = conv_output_size(x.shape[3], kw, stride[1], padding[1])
    cols = im2col(x, (kh, kw), stride, padding)
    out = weight.reshape(c_out, -1) @ cols
    if bias is not None:
        out += bias[:, None]
    return out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3), cols


@profiled
def conv2d_backward(
    grad_output: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    with_bias: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Convolution backward pass.

    Returns ``(grad_x, grad_weight, grad_bias)`` given the upstream gradient,
    the im2col matrix cached by :func:`conv2d_forward`, and the layer
    geometry.  ``grad_bias`` is ``None`` when ``with_bias`` is false.
    """
    c_out = grad_output.shape[1]
    kh, kw = weight.shape[2], weight.shape[3]
    grad_mat = _channel_major(grad_output)

    grad_weight = (grad_mat @ cols.T).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=1) if with_bias else None

    grad_cols = weight.reshape(c_out, -1).T @ grad_mat
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


# -- transposed convolution ----------------------------------------------


@profiled
def conv_transpose2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Functional transposed convolution (used by VisualBackProp).

    Computes in the dtype of ``x`` (the kernel is cast to match), so a
    float32 saliency cascade stays float32 end to end.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_in, C_out, kh, kw)``.
    """
    x = np.asarray(x)
    if x.dtype != FLOAT32:
        x = as_tensor(x)  # lists / int arrays keep the float64 default
    if x.ndim != 4:
        raise ShapeError(
            f"conv_transpose2d input expects a 4-d batch, got shape {x.shape}"
        )
    weight = np.asarray(weight, dtype=x.dtype)
    if weight.ndim != 4 or weight.shape[0] != x.shape[1]:
        raise ShapeError(
            f"conv_transpose2d weight must be (C_in={x.shape[1]}, C_out, kh, kw), "
            f"got {weight.shape}"
        )
    stride_p = _pair(stride, "stride")
    padding_p = _pair(padding, "padding")
    n, c_in, h, w = x.shape
    _, c_out, kh, kw = weight.shape
    out_h = conv_transpose_output_size(h, kh, stride_p[0], padding_p[0])
    out_w = conv_transpose_output_size(w, kw, stride_p[1], padding_p[1])

    # Columns of `cols` correspond to input positions; scatter-add them into
    # the (larger) output canvas. This mirrors the conv backward-data pass.
    cols = weight.reshape(c_in, c_out * kh * kw).T @ _channel_major(x)
    return col2im(
        cols, (n, c_out, out_h, out_w), (kh, kw), stride_p, padding_p
    )


def conv_transpose2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Transposed-convolution forward pass (weight ``(C_in, C_out, kh, kw)``)."""
    out = conv_transpose2d(x, weight, stride, padding)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out


@profiled
def conv_transpose2d_backward(
    grad_output: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    with_bias: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Transposed-convolution backward pass.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    when ``with_bias`` is false.
    """
    n, _, h, w = x.shape
    c_in = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]

    # dL/dx: a plain convolution of grad_output with the same kernel.
    cols = im2col(grad_output, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_in, -1)  # (C_in, C_out*kh*kw)
    grad_x = (w_mat @ cols).reshape(c_in, n, h, w).transpose(1, 0, 2, 3)

    # dL/dW: correlate input channels with grad_output receptive fields.
    grad_weight = (_channel_major(x) @ cols.T).reshape(weight.shape)
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if with_bias else None
    return grad_x, grad_weight, grad_bias


# -- dense ----------------------------------------------------------------


@profiled
def dense_forward(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
) -> np.ndarray:
    """Affine map ``x @ W (+ b)`` on ``(N, in_features)`` batches."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


@profiled
def dense_backward(
    grad_output: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    with_bias: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Dense backward pass: ``(grad_x, grad_weight, grad_bias)``."""
    grad_weight = x.T @ grad_output
    grad_bias = grad_output.sum(axis=0) if with_bias else None
    return grad_output @ weight.T, grad_weight, grad_bias


# -- pooling --------------------------------------------------------------


def _pool_patches(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Pooling windows as ``(kh*kw, N, C, out_h, out_w)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])
    # Treat channels as independent single-channel images so each column
    # of the unrolled matrix is exactly one pooling window.
    cols = im2col(x.reshape(n * c, 1, h, w), kernel, stride, padding)
    return cols.reshape(kernel[0] * kernel[1], n, c, out_h, out_w)


@profiled
def maxpool2d_forward(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns ``(out, argmax)`` for the backward scatter."""
    patches = _pool_patches(x, kernel, stride, padding)
    return patches.max(axis=0), patches.argmax(axis=0)


@profiled
def maxpool2d_backward(
    grad_output: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Route each upstream gradient to the argmax position of its window."""
    n, c, h, w = x_shape
    out_h, out_w = grad_output.shape[2], grad_output.shape[3]
    kh, kw = kernel

    grad_patches = np.zeros((kh * kw, n, c, out_h, out_w), dtype=grad_output.dtype)
    np.put_along_axis(grad_patches, argmax[None], grad_output[None], axis=0)
    cols = grad_patches.reshape(kh * kw, n * c * out_h * out_w)
    grad_x = col2im(cols, (n * c, 1, h, w), kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


@profiled
def avgpool2d_forward(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Average pooling over spatial windows."""
    patches = _pool_patches(x, kernel, stride, padding)
    return patches.mean(axis=0)


@profiled
def avgpool2d_backward(
    grad_output: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Spread each upstream gradient uniformly over its window."""
    n, c, h, w = x_shape
    out_h, out_w = grad_output.shape[2], grad_output.shape[3]
    kh, kw = kernel

    window = float(kh * kw)
    grad_patches = np.broadcast_to(
        (grad_output / window)[None], (kh * kw, n, c, out_h, out_w)
    )
    cols = np.ascontiguousarray(grad_patches).reshape(kh * kw, n * c * out_h * out_w)
    grad_x = col2im(cols, (n * c, 1, h, w), kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


# -- window mean ----------------------------------------------------------

#: Bytes of padded images :func:`window_mean` filters per step.
_WINDOW_CHUNK_BYTES = 1 << 17


def _window_taps(
    source: np.ndarray, size: int, weights: Optional[np.ndarray], step: int, out: np.ndarray
) -> np.ndarray:
    """``out[m] = sum_k w[k] * source[m + k*step]`` for ``m < n``, where
    ``n = source.size - (size - 1) * step``; returns ``out[:n]``.

    Every tap is one contiguous 1-D operation.  The uniform box sums
    windows by doubling (runs of 2, 4, 8, ... taps, combined along the
    binary digits of ``size``), so an 11-tap box costs 5 adds, not 10.
    """
    n = source.size - (size - 1) * step
    total = out[:n]
    if weights is not None:
        np.multiply(source[:n], weights[0], out=total)
        for k in range(1, size):
            total += weights[k] * source[k * step : k * step + n]
        return total
    run, width, offset, remaining = source, 1, 0, size
    while True:
        if remaining & 1:
            part = run[offset * step : offset * step + n]
            if offset:
                total += part
            else:
                np.copyto(total, part)
            offset += width
        remaining >>= 1
        if not remaining:
            break
        run = run[: run.size - width * step] + run[width * step :]
        width *= 2
    total /= size
    return total


@profiled
def window_mean(
    x: np.ndarray,
    size: int,
    weights: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalized ``size x size`` window mean over the trailing two axes.

    Correlates ``x`` with the uniform box (``weights=None``) or with the
    separable window ``weights ⊗ weights`` (``weights`` a normalized 1-D
    kernel of length ``size``), reading zeros beyond the border.  Zero
    padding makes the operator self-adjoint, which SSIM's gradient relies
    on.  Leading axes are independent images, so callers stack several
    statistics into one call.  Computes in ``x``'s dtype; ``out`` may
    alias ``x``.
    """
    if size < 1 or size % 2 == 0:
        raise ShapeError(f"window size must be a positive odd integer, got {size}")
    if weights is not None:
        weights = np.asarray(weights, dtype=x.dtype)
        if weights.shape != (size,):
            raise ShapeError(f"window weights must have shape ({size},), got {weights.shape}")
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {x.shape} array")
    h, w = x.shape[-2:]
    half = size // 2
    padded_shape = (h + 2 * half, w + 2 * half)
    images, targets = x.reshape(-1, h, w), out.reshape(-1, h, w)
    # Work through the stack a few images at a time, so every temporary
    # stays in cache and in the allocator's reused heap.
    chunk = max(1, _WINDOW_CHUNK_BYTES // (padded_shape[0] * padded_shape[1] * x.itemsize))
    for start in range(0, len(images), chunk):
        block = images[start : start + chunk]
        padded = np.zeros((len(block),) + padded_shape, dtype=x.dtype)
        padded[:, half : half + h, half : half + w] = block
        # In the padded buffer's flat memory the window of padded position
        # (i, j) starts at (i, j) itself: the row pass sums taps 1 apart,
        # the column pass taps one padded row apart.  Windows that wrap into
        # the next row or image belong to positions outside [:h, :w], which
        # are dropped, and the column pass reads only what the row pass wrote.
        flat = padded.reshape(-1)
        rows = _window_taps(flat, size, weights, 1, np.empty_like(flat))
        means = np.empty_like(flat)
        _window_taps(rows, size, weights, padded_shape[1], means)
        targets[start : start + chunk] = means.reshape(padded.shape)[:, :h, :w]
    return out


# -- activations ----------------------------------------------------------


@profiled
def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``max(x, 0)``; returns ``(out, mask)`` with ``mask = x > 0``."""
    mask = x > 0
    return np.where(mask, x, 0.0), mask


@profiled
def relu_backward(grad_output: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gate the upstream gradient by the forward mask."""
    return np.where(mask, grad_output, 0.0)


@profiled
def leaky_relu_forward(
    x: np.ndarray, negative_slope: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaky ReLU; returns ``(out, mask)``."""
    mask = x > 0
    return np.where(mask, x, negative_slope * x), mask


@profiled
def leaky_relu_backward(
    grad_output: np.ndarray, mask: np.ndarray, negative_slope: float
) -> np.ndarray:
    """Leaky-ReLU gradient: slope 1 where positive, ``negative_slope`` else."""
    return np.where(mask, grad_output, negative_slope * grad_output)


@profiled
def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (returns the output, its cache)."""
    # Evaluate the two algebraically-equal branches on their stable side
    # to avoid overflow in exp().
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


@profiled
def sigmoid_backward(grad_output: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sigmoid gradient from the cached forward output."""
    return grad_output * out * (1.0 - out)


@profiled
def tanh_forward(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent (the output doubles as the backward cache)."""
    return np.tanh(x)


@profiled
def tanh_backward(grad_output: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Tanh gradient from the cached forward output."""
    return grad_output * (1.0 - out**2)
