"""Fully-connected (dense) layer."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn import initializers
from repro.nn.backend import kernels
from repro.nn.layers.base import Layer, Parameter, as_batch
from repro.utils.seeding import RngLike, derive_rng


class Dense(Layer):
    """Affine map ``y = x @ W + b`` on ``(N, in_features)`` batches.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    weight_init:
        Initializer name or callable (see :mod:`repro.nn.initializers`).
        Defaults to He-normal, appropriate for the ReLU networks used
        throughout the paper.
    bias:
        Whether to include the additive bias term.
    rng:
        Seed or generator for weight initialization.
    """

    _cache_attrs = ("_x",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init: Union[str, initializers.Initializer] = "he_normal",
        bias: bool = True,
        rng: RngLike = None,
        name: str = "dense",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"Dense features must be positive, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        generator = derive_rng(rng, stream=name)
        init = initializers.get(weight_init)
        self.weight = Parameter(init((in_features, out_features), generator), f"{name}.weight")
        self._params = [self.weight]
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(np.zeros(out_features), f"{name}.bias")
            self._params.append(self.bias)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, 2, "Dense input", self.dtype)
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense expects {self.in_features} input features, got {x.shape[1]}"
            )
        self._x = x
        return kernels.dense_forward(
            x, self.weight.value, None if self.bias is None else self.bias.value
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeError("Dense.backward() called before forward()")
        grad_output = as_batch(grad_output, 2, "Dense grad_output", self.dtype)
        grad_x, grad_w, grad_b = kernels.dense_backward(
            grad_output, self._x, self.weight.value, with_bias=self.bias is not None
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_x

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features}, bias={self.bias is not None})"
