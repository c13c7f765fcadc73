"""2-D convolution and transposed convolution layers.

The heavy lifting — im2col/col2im and the matrix-multiply kernels — lives in
:mod:`repro.nn.backend.kernels`; these classes are the thin stateful
wrappers: they own the weights, validate shapes, cache what the backward
pass needs, and dispatch to the kernels in the layer's policy dtype.

``im2col``/``col2im``/``conv_transpose2d`` are re-exported here for
backwards compatibility — :mod:`repro.saliency.vbp` and the pooling layers
historically imported them from this module.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn import initializers
from repro.nn.backend.kernels import (  # noqa: F401 — re-exported API
    IntPair,
    _pair,
    col2im,
    conv_output_size,
    conv_transpose2d,
    conv_transpose_output_size,
    im2col,
)
from repro.nn.backend import kernels
from repro.nn.layers.base import Layer, Parameter, as_batch
from repro.utils.seeding import RngLike, derive_rng


class Conv2d(Layer):
    """2-D convolution on ``(N, C, H, W)`` batches.

    Parameters match the usual framework semantics: ``stride`` and
    ``padding`` may be ints or (h, w) pairs.  Weights are stored as
    ``(out_channels, in_channels, kh, kw)``.
    """

    _cache_attrs = ("_cols", "_x_shape")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        weight_init: Union[str, initializers.Initializer] = "he_normal",
        bias: bool = True,
        rng: RngLike = None,
        name: str = "conv",
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ShapeError(
                f"Conv2d channels must be positive, got {in_channels}->{out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size, "kernel_size")
        if self.kernel_size[0] == 0 or self.kernel_size[1] == 0:
            raise ShapeError("kernel_size must be positive")
        self.stride = _pair(stride, "stride")
        if self.stride[0] == 0 or self.stride[1] == 0:
            raise ShapeError("stride must be positive")
        self.padding = _pair(padding, "padding")

        generator = derive_rng(rng, stream=name)
        init = initializers.get(weight_init)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init((out_channels, in_channels, kh, kw), generator), f"{name}.weight"
        )
        self._params = [self.weight]
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(np.zeros(out_channels), f"{name}.bias")
            self._params.append(self.bias)

        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Map an input ``(C, H, W)`` shape to the output ``(C, H, W)`` shape."""
        c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(f"Conv2d expects {self.in_channels} channels, got {c}")
        out_h = conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        out_w = conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return (self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, 4, "Conv2d input", self.dtype)
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects {self.in_channels} input channels, got {x.shape[1]}"
            )
        self._x_shape = x.shape
        out, self._cols = kernels.conv2d_forward(
            x,
            self.weight.value,
            None if self.bias is None else self.bias.value,
            self.stride,
            self.padding,
        )
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise ShapeError("Conv2d.backward() called before forward()")
        grad_output = as_batch(grad_output, 4, "Conv2d grad_output", self.dtype)
        grad_x, grad_w, grad_b = kernels.conv2d_backward(
            grad_output,
            self._cols,
            self._x_shape,
            self.weight.value,
            self.stride,
            self.padding,
            with_bias=self.bias is not None,
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_x

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )


class ConvTranspose2d(Layer):
    """Transposed 2-D convolution (a.k.a. deconvolution).

    Weights are stored as ``(in_channels, out_channels, kh, kw)``.  The
    forward pass is the adjoint of a :class:`Conv2d` with the same geometry,
    so conv followed by conv-transpose restores spatial dimensions — the
    property VisualBackProp relies on to align feature maps across layers.
    """

    _cache_attrs = ("_x",)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        weight_init: Union[str, initializers.Initializer] = "he_normal",
        bias: bool = True,
        rng: RngLike = None,
        name: str = "convT",
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ShapeError(
                f"ConvTranspose2d channels must be positive, got {in_channels}->{out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size, "kernel_size")
        self.stride = _pair(stride, "stride")
        if self.stride[0] == 0 or self.stride[1] == 0:
            raise ShapeError("stride must be positive")
        self.padding = _pair(padding, "padding")

        generator = derive_rng(rng, stream=name)
        init = initializers.get(weight_init)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init((in_channels, out_channels, kh, kw), generator), f"{name}.weight"
        )
        self._params = [self.weight]
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(np.zeros(out_channels), f"{name}.bias")
            self._params.append(self.bias)
        self._x: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Map an input ``(C, H, W)`` shape to the output ``(C, H, W)`` shape."""
        c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(f"ConvTranspose2d expects {self.in_channels} channels, got {c}")
        out_h = conv_transpose_output_size(
            h, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_transpose_output_size(
            w, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return (self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, 4, "ConvTranspose2d input", self.dtype)
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"ConvTranspose2d expects {self.in_channels} input channels, "
                f"got {x.shape[1]}"
            )
        self._x = x
        return kernels.conv_transpose2d_forward(
            x,
            self.weight.value,
            None if self.bias is None else self.bias.value,
            self.stride,
            self.padding,
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeError("ConvTranspose2d.backward() called before forward()")
        grad_output = as_batch(grad_output, 4, "ConvTranspose2d grad_output", self.dtype)
        grad_x, grad_w, grad_b = kernels.conv_transpose2d_backward(
            grad_output,
            self._x,
            self.weight.value,
            self.stride,
            self.padding,
            with_bias=self.bias is not None,
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_x

    def __repr__(self) -> str:
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )
