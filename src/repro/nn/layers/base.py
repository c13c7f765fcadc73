"""Layer and Parameter abstractions.

Every layer implements

* ``forward(x, training)`` — compute outputs, caching whatever the backward
  pass needs on ``self``;
* ``backward(grad_output)`` — given dL/d(output), accumulate dL/d(param) into
  each parameter's ``.grad`` and return dL/d(input);
* ``parameters()`` — the list of trainable :class:`Parameter` objects.

Layers are single-use per step: ``backward`` consumes the cache left by the
most recent ``forward``.  :meth:`Layer.release_cache` drops that cache, which
is how the compiled scoring plan keeps no training state between requests.
The :class:`repro.nn.Sequential` container chains them and the
:class:`repro.nn.Trainer` drives the loop.

Every layer carries a dtype from the precision policy
(:mod:`repro.nn.backend.policy`), defaulting to float64 for training;
:meth:`Layer.set_policy` recasts parameters and buffers, which is how the
float32 inference path is switched on after a model is fitted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend.policy import as_tensor, default_policy, resolve_dtype


class Parameter:
    """A trainable array with an accumulated gradient.

    Attributes
    ----------
    value:
        The parameter tensor, updated in place by optimizers.
    grad:
        Gradient of the loss with respect to ``value``; same shape.
        Allocated as zeros on first use, so a model that only scores never
        holds gradient buffers.  Reset with :meth:`zero_grad` between steps.
    name:
        Human-readable identifier used in checkpoints and error messages.
    """

    def __init__(self, value: np.ndarray, name: str = "param", dtype: Any = None) -> None:
        self.value = as_tensor(value, dtype)
        self._grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient (zeros until a backward pass adds to it)."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        if self._grad is not None:
            self._grad.fill(0.0)

    def astype(self, dtype: Any) -> "Parameter":
        """Recast value and gradient to a policy dtype, in place."""
        target = resolve_dtype(dtype)
        if self.value.dtype != target:
            self.value = self.value.astype(target)
            if self._grad is not None:
                self._grad = self._grad.astype(target)
        return self

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying value array."""
        return self.value.dtype

    @property
    def shape(self) -> tuple:
        """Shape of the underlying value array."""
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`forward` and :meth:`backward`,
    register their :class:`Parameter` objects in ``self._params``, and name
    the attributes holding their backward cache in ``_cache_attrs``.
    """

    #: Attributes a forward pass fills for the following backward pass.
    _cache_attrs: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._params: List[Parameter] = []
        self._dtype: np.dtype = default_policy().dtype

    @property
    def dtype(self) -> np.dtype:
        """The dtype this layer computes in (float64 unless re-policied)."""
        return self._dtype

    def set_policy(self, dtype: Any) -> "Layer":
        """Switch the layer to a policy dtype, recasting params and buffers.

        Containers override this to propagate to their children; layers with
        non-parameter state override :meth:`_cast_buffers`.
        """
        self._dtype = resolve_dtype(dtype)
        for p in self._params:
            p.astype(self._dtype)
        self._cast_buffers(self._dtype)
        return self

    def _cast_buffers(self, dtype: np.dtype) -> None:
        """Hook for layers with persistent non-parameter arrays."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``.

        ``training`` toggles train-time behaviour (dropout masks, batch-norm
        batch statistics); inference-only layers ignore it.
        """
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` (dL/d output) through the layer.

        Accumulates parameter gradients into each ``Parameter.grad`` and
        returns dL/d input.  Must be called after :meth:`forward`.
        """
        raise NotImplementedError

    def release_cache(self) -> None:
        """Drop the backward cache of the last forward pass.

        A :meth:`backward` call after this raises ``ShapeError`` until the
        next forward pass refills the cache.
        """
        for attr in self._cache_attrs:
            setattr(self, attr, None)

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this layer."""
        return list(self._params)

    def zero_grad(self) -> None:
        """Reset gradients on all parameters of this layer."""
        for p in self._params:
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter values plus persistent buffers, keyed by name."""
        return {p.name: p.value.copy() for p in self._params}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (shape-checked).

        Arrays are restored in the owning parameter's dtype, so a model
        already switched to float32 inference stays float32 after loading a
        float64 checkpoint (and vice versa).
        """
        for p in self._params:
            if p.name not in state:
                raise ShapeError(f"missing parameter {p.name!r} in state dict")
            value = np.asarray(state[p.name], dtype=p.value.dtype)
            if value.shape != p.value.shape:
                raise ShapeError(
                    f"parameter {p.name!r} has shape {p.value.shape}, "
                    f"state dict provides {value.shape}"
                )
            p.value[...] = value

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def as_batch(x: np.ndarray, ndim: int, name: str, dtype: Any = None) -> np.ndarray:
    """Coerce ``x`` to a policy dtype (default float64) and validate rank."""
    x = as_tensor(x, dtype)
    if x.ndim != ndim:
        raise ShapeError(f"{name} expects a {ndim}-d batch, got shape {x.shape}")
    return x


def _cache_guard(cache: Optional[np.ndarray], layer: Layer) -> np.ndarray:
    """Raise a clear error when backward() is called before forward()."""
    if cache is None:
        raise ShapeError(
            f"{type(layer).__name__}.backward() called before forward(); "
            "each backward pass must follow a forward pass"
        )
    return cache
