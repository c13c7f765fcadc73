"""Spatial pooling layers dispatching to the backend pooling kernels."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend import kernels
from repro.nn.backend.kernels import IntPair, _pair, conv_output_size
from repro.nn.layers.base import Layer, as_batch


class _Pool2d(Layer):
    """Shared plumbing for 2-D pooling layers."""

    _cache_attrs = ("_x_shape",)

    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size, "kernel_size")
        self.stride = _pair(stride if stride is not None else kernel_size, "stride")
        if self.stride[0] == 0 or self.stride[1] == 0:
            raise ShapeError("pooling stride must be positive")
        self.padding = _pair(padding, "padding")
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Map an input ``(C, H, W)`` shape to the pooled ``(C, H, W)`` shape."""
        c, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        out_w = conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return (c, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class MaxPool2d(_Pool2d):
    """Max pooling over spatial windows."""

    _cache_attrs = ("_x_shape", "_argmax")

    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> None:
        super().__init__(kernel_size, stride, padding)
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, 4, "MaxPool2d input", self.dtype)
        self._x_shape = x.shape
        out, self._argmax = kernels.maxpool2d_forward(
            x, self.kernel_size, self.stride, self.padding
        )
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None:
            raise ShapeError("MaxPool2d.backward() called before forward()")
        grad_output = as_batch(grad_output, 4, "MaxPool2d grad_output", self.dtype)
        return kernels.maxpool2d_backward(
            grad_output,
            self._argmax,
            self._x_shape,
            self.kernel_size,
            self.stride,
            self.padding,
        )


class AvgPool2d(_Pool2d):
    """Average pooling over spatial windows."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, 4, "AvgPool2d input", self.dtype)
        self._x_shape = x.shape
        return kernels.avgpool2d_forward(x, self.kernel_size, self.stride, self.padding)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise ShapeError("AvgPool2d.backward() called before forward()")
        grad_output = as_batch(grad_output, 4, "AvgPool2d grad_output", self.dtype)
        return kernels.avgpool2d_backward(
            grad_output, self._x_shape, self.kernel_size, self.stride, self.padding
        )
