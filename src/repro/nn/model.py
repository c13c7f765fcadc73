"""Sequential model container with (de)serialization.

``Sequential`` chains layers, exposes the concatenated parameter list, and
— crucially for VisualBackProp — can run a forward pass that records every
intermediate activation (:meth:`Sequential.forward_with_activations`).
Models round-trip through numpy ``.npz`` checkpoints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import SerializationError, ShapeError
from repro.nn.backend.policy import as_tensor, resolve_dtype
from repro.nn.layers.base import Layer, Parameter


class Sequential(Layer):
    """A linear chain of layers executed in order.

    Supports indexing/iteration over the contained layers, which the
    saliency algorithms use to locate convolution/activation pairs.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        super().__init__()
        if not layers:
            raise ShapeError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)

    def set_policy(self, dtype) -> "Sequential":
        """Switch the whole chain (and this container) to a policy dtype."""
        self._dtype = resolve_dtype(dtype)
        for layer in self.layers:
            layer.set_policy(self._dtype)
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = as_tensor(x, self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def forward_with_activations(
        self, x: np.ndarray, training: bool = False
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass returning the output and every layer's activation.

        ``activations[i]`` is the output of ``self.layers[i]``; VisualBackProp
        reads the post-ReLU feature maps from this list.
        """
        activations: List[np.ndarray] = []
        out = as_tensor(x, self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
            activations.append(out)
        return out, activations

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = as_tensor(grad_output, self.dtype)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (dropout off, batch-norm running stats)."""
        return self.forward(x, training=False)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def release_cache(self) -> None:
        for layer in self.layers:
            layer.release_cache()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Merged state of every layer, with indexed keys to avoid clashes."""
        state: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for key, value in layer.state_dict().items():
                state[f"{i}:{key}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            prefix = f"{i}:"
            layer_state = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            layer.load_state_dict(layer_state)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


def save_model(model: Sequential, path: Union[str, Path]) -> None:
    """Serialize a model's parameters and buffers to an ``.npz`` checkpoint.

    Only state (not architecture) is saved; loading requires constructing an
    identically-shaped model first, which keeps checkpoints forward
    compatible with code changes that don't alter shapes.  The write is
    atomic (temp file + fsync + rename), so a crash mid-save leaves any
    previous checkpoint at ``path`` intact.
    """
    from repro.utils.fileio import atomic_write, npz_path

    path = npz_path(path)
    try:
        with atomic_write(path) as handle:
            np.savez(handle, **model.state_dict())
    except OSError as exc:
        raise SerializationError(f"failed to save model to {path}: {exc}") from exc


def load_model(model: Sequential, path: Union[str, Path]) -> Sequential:
    """Load an ``.npz`` checkpoint into an architecture-matching model."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"checkpoint {path} does not exist")
    try:
        with np.load(path) as data:
            state = {key: data[key] for key in data.files}
    except (OSError, ValueError) as exc:
        raise SerializationError(f"failed to read checkpoint {path}: {exc}") from exc
    model.load_state_dict(state)
    return model
