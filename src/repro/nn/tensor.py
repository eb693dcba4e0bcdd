"""Reverse-mode automatic differentiation over numpy arrays.

This is the substrate that replaces PyTorch for the VeriBug model.  A
:class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order, each node adding its contribution directly into its
parents' ``grad`` arrays (gradients of ancestors are therefore complete
by the time their own backward rule runs).

Only the operations the VeriBug model needs are implemented, but each is
fully general (broadcasting-aware) and gradient-checked in the test suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


#: Global autograd switch.  When False (inside :func:`inference_mode`)
#: newly created tensors never require grad, retain no parents, and drop
#: their backward closures, so forward passes allocate nothing beyond the
#: result arrays.
_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    """Whether new operations record the autograd graph."""
    return _grad_enabled


class _GradMode:
    """Re-entrant context manager pinning the global autograd switch."""

    def __init__(self, enabled: bool):
        self._enabled = enabled
        self._stack: list[bool] = []

    def __enter__(self) -> "_GradMode":
        global _grad_enabled
        self._stack.append(_grad_enabled)
        _grad_enabled = self._enabled
        return self

    def __exit__(self, *exc) -> bool:
        global _grad_enabled
        _grad_enabled = self._stack.pop()
        return False

    def __call__(self) -> "_GradMode":
        # Allow both ``with inference_mode:`` and ``with inference_mode():``.
        return self


#: Disable graph construction for the enclosed forward passes (the
#: analogue of ``torch.inference_mode``).  Inference on a trained model
#: — prediction, evaluation, attention-map extraction — runs here.
inference_mode = _GradMode(False)

#: Re-enable graph construction inside an :data:`inference_mode` block
#: (the analogue of ``torch.enable_grad``).
enable_grad = _GradMode(True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _is_basic_key(key) -> bool:
    """Whether ``key`` is numpy basic indexing (ints, slices, ``...``, None)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


class Tensor:
    """A differentiable array.

    Attributes:
        data: The underlying float64 ndarray.
        grad: Accumulated gradient (same shape as ``data``) after backward.
        requires_grad: Whether this tensor participates in autograd.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return self._backward_fn

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None] | None) -> None:
        # Backward closures capture the op's parents; dropping them on
        # non-grad results (always the case under inference_mode) is what
        # actually frees the graph.
        if self.requires_grad or fn is None:
            self._backward_fn = fn

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """An all-zeros tensor."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """An all-ones tensor."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The scalar value of a 1-element tensor."""
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """A copy of the underlying data."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})\n{self.data}"

    # ------------------------------------------------------------------
    # Autograd engine
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        if not _grad_enabled:
            return Tensor(data)
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = parents
        return out

    def _accum(self, grad: np.ndarray) -> None:
        """Add a gradient contribution (no-op for non-grad tensors)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # Own a copy of the first contribution: later ones add into it.
            self.grad = np.array(grad, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                self.grad = np.array(np.broadcast_to(self.grad, self.data.shape))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: Seed gradient; defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on non-scalar tensor requires a gradient")
            grad = np.ones_like(self.data)

        # Iterative post-order topological sort (avoids recursion limits
        # on long LSTM chains).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if not node.requires_grad:
                continue
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accum(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data + other.data, (self, other))

        def backward(grad: np.ndarray) -> None:
            self._accum(_unbroadcast(grad, self.data.shape))
            other._accum(_unbroadcast(grad, other.data.shape))

        out._backward = backward
        return out

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        out._backward = lambda grad: self._accum(-grad)
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data - other.data, (self, other))

        def backward(grad: np.ndarray) -> None:
            self._accum(_unbroadcast(grad, self.data.shape))
            other._accum(_unbroadcast(-grad, other.data.shape))

        out._backward = backward
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data * other.data, (self, other))

        def backward(grad: np.ndarray) -> None:
            self._accum(_unbroadcast(grad * other.data, self.data.shape))
            other._accum(_unbroadcast(grad * self.data, other.data.shape))

        out._backward = backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data / other.data, (self, other))

        def backward(grad: np.ndarray) -> None:
            self._accum(_unbroadcast(grad / other.data, self.data.shape))
            other._accum(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out = self._make(self.data**exponent, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data @ other.data, (self, other))

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
                self._accum(grad * b)
                other._accum(grad * a)
            elif a.ndim == 1:  # (n,) @ (..., n, k) -> (..., k)
                grad2 = np.expand_dims(grad, -2)
                ga = (grad2 @ np.swapaxes(b, -1, -2)).reshape(-1, a.shape[0]).sum(0)
                gb = _unbroadcast(
                    np.expand_dims(a, -1) @ grad2, b.shape
                )
                self._accum(ga)
                other._accum(gb)
            elif b.ndim == 1:  # (..., m, n) @ (n,) -> (..., m)
                grad2 = np.expand_dims(grad, -1)
                ga = _unbroadcast(grad2 @ np.expand_dims(b, 0), a.shape)
                gb = (np.swapaxes(a, -1, -2) @ grad2)[..., 0]
                gb = gb.reshape(-1, b.shape[0]).sum(0)
                self._accum(ga)
                other._accum(gb)
            else:
                self._accum(_unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape))
                other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape))

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out = self._make(self.data.reshape(shape), (self,))
        out._backward = lambda grad: self._accum(grad.reshape(self.data.shape))
        return out

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        out = self._make(np.swapaxes(self.data, axis1, axis2), (self,))
        out._backward = lambda grad: self._accum(np.swapaxes(grad, axis1, axis2))
        return out

    def __getitem__(self, key) -> "Tensor":
        out = self._make(self.data[key], (self,))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if _is_basic_key(key):
                # A basic key selects each element at most once, so the
                # gradient adds straight into a view of ``self.grad``.
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[key] += grad
                return
            # Advanced keys may repeat an index (e.g. a gather with
            # duplicates); np.add.at accumulates every occurrence.
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accum(full)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions and elementwise functions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                self._accum(np.broadcast_to(grad, self.data.shape).copy())
                return
            grad_expanded = grad
            if not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad_expanded = np.expand_dims(grad_expanded, ax)
            self._accum(np.broadcast_to(grad_expanded, self.data.shape).copy())

        out._backward = backward
        return out

    def mean(
        self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        out = self._make(data, (self,))
        out._backward = lambda grad: self._accum(grad * data)
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        out._backward = lambda grad: self._accum(grad / self.data)
        return out

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        out = self._make(data, (self,))
        out._backward = lambda grad: self._accum(grad / (2.0 * data))
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = self._make(data, (self,))
        out._backward = lambda grad: self._accum(grad * (1.0 - data**2))
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        out = self._make(data, (self,))
        out._backward = lambda grad: self._accum(grad * data * (1.0 - data))
        return out

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))
        out._backward = lambda grad: self._accum(grad * (self.data > 0))
        return out

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        data = np.where(self.data > 0, self.data, slope * self.data)
        out = self._make(data, (self,))
        out._backward = lambda grad: self._accum(
            grad * np.where(self.data > 0, 1.0, slope)
        )
        return out
