"""Batch normalization for dense and convolutional activations."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer, Parameter, as_batch


class _BatchNorm(Layer):
    """Shared implementation normalizing over a set of axes.

    Subclasses fix the expected input rank and the reduction axes; the core
    normalizes with batch statistics at train time while tracking running
    moments for inference.
    """

    _cache_attrs = ("_cache",)

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: str = "bn",
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ShapeError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.num_features = num_features
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features), f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features), f"{name}.beta")
        self._params = [self.gamma, self.beta]
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._name = name
        self._cache: Optional[tuple] = None

    # -- subclass hooks ----------------------------------------------------
    _ndim: int = 2
    _axes: tuple = (0,)

    def _shape_params(self, arr: np.ndarray) -> np.ndarray:
        """Reshape per-feature vectors for broadcasting against inputs."""
        if self._ndim == 2:
            return arr
        return arr[None, :, None, None]

    def _cast_buffers(self, dtype: np.dtype) -> None:
        self.running_mean = self.running_mean.astype(dtype, copy=False)
        self.running_var = self.running_var.astype(dtype, copy=False)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_batch(x, self._ndim, f"{type(self).__name__} input", self.dtype)
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"{type(self).__name__} expects {self.num_features} features, "
                f"got {x.shape[1]}"
            )
        if training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._shape_params(mean)) * self._shape_params(inv_std)
        self._cache = (x_hat, inv_std, training)
        return self._shape_params(self.gamma.value) * x_hat + self._shape_params(
            self.beta.value
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError(f"{type(self).__name__}.backward() called before forward()")
        x_hat, inv_std, training = self._cache
        grad_output = as_batch(grad_output, self._ndim, "grad_output", self.dtype)

        self.gamma.grad += (grad_output * x_hat).sum(axis=self._axes)
        self.beta.grad += grad_output.sum(axis=self._axes)

        g = grad_output * self._shape_params(self.gamma.value)
        if not training:
            # Inference normalizes with constants, so the Jacobian is diagonal.
            return g * self._shape_params(inv_std)

        # Train-time statistics depend on the batch; use the standard
        # batch-norm backward formula over the reduction axes.
        m = float(np.prod([grad_output.shape[a] for a in self._axes]))
        sum_g = g.sum(axis=self._axes)
        sum_gx = (g * x_hat).sum(axis=self._axes)
        return (
            self._shape_params(inv_std)
            / m
            * (m * g - self._shape_params(sum_g) - x_hat * self._shape_params(sum_gx))
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state[f"{self._name}.running_mean"] = self.running_mean.copy()
        state[f"{self._name}.running_var"] = self.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        for attr in ("running_mean", "running_var"):
            key = f"{self._name}.{attr}"
            if key in state:
                value = np.asarray(state[key], dtype=self.dtype)
                if value.shape != (self.num_features,):
                    raise ShapeError(
                        f"{key} has shape {value.shape}, expected ({self.num_features},)"
                    )
                setattr(self, attr, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features}, momentum={self.momentum})"


class BatchNorm1d(_BatchNorm):
    """Batch normalization for ``(N, D)`` dense activations."""

    _ndim = 2
    _axes = (0,)


class BatchNorm2d(_BatchNorm):
    """Batch normalization for ``(N, C, H, W)`` convolutional activations."""

    _ndim = 4
    _axes = (0, 2, 3)
