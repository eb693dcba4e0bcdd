"""Optimizers: SGD (with momentum) and Adam.

Adam follows Kingma & Ba (the paper's optimizer choice, §V "Training
model": ``lr=1e-3``, ``weight_decay=1e-5``).  Weight decay is applied as
L2 regularization folded into the gradient, matching
``torch.optim.Adam(weight_decay=...)`` semantics.
"""

from __future__ import annotations

import numpy as np

from .layers import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: list[Parameter]):
        self.params = list(params)

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity += grad
            param.data = param.data - self.lr * velocity


class Adam(Optimizer):
    """Adam with bias correction and decoupled-from-nothing L2 decay.

    The moments live in two flat buffers over every parameter, and a step
    is one vectorized update over the concatenated gradients, written
    back per parameter: elementwise, so each weight is bit-identical to
    running the same update parameter by parameter.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        sizes = [p.data.size for p in self.params]
        #: Parameter ``i`` owns ``[_offsets[i], _offsets[i + 1])`` of the
        #: flat moment buffers.
        self._offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self._m = np.zeros(int(self._offsets[-1]))
        self._v = np.zeros(int(self._offsets[-1]))

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients.

        Parameters whose ``grad`` is None keep their data and moments.
        """
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        live = [param for param in self.params if param.grad is not None]
        if not live:
            return
        if len(live) == len(self.params):
            span = slice(None)
        else:
            offsets = self._offsets
            span = np.concatenate(
                [
                    np.arange(offsets[index], offsets[index + 1])
                    for index, param in enumerate(self.params)
                    if param.grad is not None
                ]
            )
        grad = np.concatenate([param.grad.ravel() for param in live])
        data = np.concatenate([param.data.ravel() for param in live])
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m = self._m[span]
        v = self._v[span]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        # An index span gathered copies; a full slice gathered views.
        self._m[span] = m
        self._v[span] = v
        m_hat = m / bias1
        v_hat = v / bias2
        data = data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        start = 0
        for param in live:
            stop = start + param.data.size
            param.data = data[start:stop].reshape(param.data.shape)
            start = stop
