"""Layer-wise Relevance Propagation (epsilon rule).

The paper motivates VBP over LRP-style methods on speed: VBP "has been
demonstrated to be order of magnitude faster than other network saliency
visualization methods (such as [LRP]) that produce comparable [results]"
(§III-B).  This module implements epsilon-rule LRP (Bach et al., 2015) for
the layer types PilotNet uses, so the benchmark harness can measure that
speed gap on identical models (see ``benchmarks/test_saliency_timing.py``).

The epsilon rule redistributes the relevance :math:`R_j` of each output
neuron to its inputs proportionally to their contributions
:math:`z_{ij} = x_i w_{ij}`:

.. math:: R_i = \\sum_j \\frac{z_{ij}}{z_j + \\epsilon\\,\\mathrm{sign}(z_j)} R_j

For ReLU/LeakyReLU the relevance passes through unchanged; Flatten only
reshapes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import Conv2d, Dense, Flatten, LeakyReLU, ReLU
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import col2im, im2col
from repro.nn.model import Sequential
from repro.saliency.base import SaliencyMethod


class LayerwiseRelevancePropagation(SaliencyMethod):
    """Epsilon-rule LRP over a Sequential of Conv2d/ReLU/Flatten/Dense.

    Parameters
    ----------
    model:
        The trained prediction network.
    epsilon:
        Stabilizer added to the denominators; larger values absorb more
        relevance and smooth the maps.
    """

    _SUPPORTED = (Conv2d, Dense, ReLU, LeakyReLU, Flatten)

    def __init__(self, model: Sequential, epsilon: float = 1e-6) -> None:
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        for layer in model.layers:
            if not isinstance(layer, self._SUPPORTED):
                raise ConfigurationError(
                    f"LRP supports {[c.__name__ for c in self._SUPPORTED]} layers, "
                    f"found {type(layer).__name__}"
                )
        self.model = model
        self.epsilon = float(epsilon)

    @staticmethod
    def _stabilize(z: np.ndarray, epsilon: float) -> np.ndarray:
        return z + epsilon * np.where(z >= 0, 1.0, -1.0)

    def _relevance_dense(self, layer: Dense, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        z = x @ layer.weight.value
        if layer.bias is not None:
            z = z + layer.bias.value
        s = r / self._stabilize(z, self.epsilon)
        return x * (s @ layer.weight.value.T)

    def _relevance_conv(self, layer: Conv2d, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        cols = im2col(x, layer.kernel_size, layer.stride, layer.padding)
        w_mat = layer.weight.value.reshape(layer.out_channels, -1)
        z = w_mat @ cols
        if layer.bias is not None:
            z += layer.bias.value[:, None]
        r_mat = r.transpose(1, 0, 2, 3).reshape(layer.out_channels, -1)
        s = r_mat / self._stabilize(z, self.epsilon)
        contrib_cols = (w_mat.T @ s) * cols
        return col2im(contrib_cols, x.shape, layer.kernel_size, layer.stride, layer.padding)

    def _compute(self, frames: np.ndarray) -> np.ndarray:
        # Forward pass, remembering every layer input.
        inputs: List[np.ndarray] = []
        out = frames
        for layer in self.model.layers:
            inputs.append(out)
            out = layer.forward(out, training=False)
        return self._relevance_from(inputs, out)

    def _compute_from_forward(
        self, frames: np.ndarray, output: np.ndarray, activations
    ) -> np.ndarray:
        """LRP over a cached forward: each layer's input is the previous
        layer's activation (the frames for the first layer), so the stage
        runtime's single ``cnn_forward`` pass replaces the one above."""
        inputs = [frames] + list(activations[:-1])
        return self._relevance_from(inputs, output)

    def _relevance_from(self, inputs: List[np.ndarray], output: np.ndarray) -> np.ndarray:
        # Seed relevance with the network output (a steering angle).
        relevance = output
        for layer, layer_input in zip(reversed(self.model.layers), reversed(inputs)):
            relevance = self._propagate(layer, layer_input, relevance)

        if relevance.ndim != 4:
            raise ShapeError(
                f"LRP produced relevance of shape {relevance.shape}, expected 4-d"
            )
        # Positive relevance supports the prediction; magnitude makes the
        # mask comparable to VBP's non-negative output.
        return np.abs(relevance).sum(axis=1)

    def _propagate(self, layer: Layer, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        if isinstance(layer, Dense):
            return self._relevance_dense(layer, x, r)
        if isinstance(layer, Conv2d):
            return self._relevance_conv(layer, x, r)
        if isinstance(layer, Flatten):
            return r.reshape(x.shape)
        if isinstance(layer, (ReLU, LeakyReLU)):
            return r
        raise ConfigurationError(f"unsupported layer in LRP: {type(layer).__name__}")
