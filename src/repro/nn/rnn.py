"""LSTM implementation (the paper's PathRNN backbone).

The cell follows the standard formulation with a fused gate projection:

.. math::

    i, f, g, o = \\mathrm{split}(x W_{ih} + h W_{hh} + b)

    c' = \\sigma(f) c + \\sigma(i) \\tanh(g), \\qquad
    h' = \\sigma(o) \\tanh(c')

:class:`LSTM` runs the cell over a padded batch of left-aligned
sequences with a step mask, so ragged path batches are processed fully
vectorized.  The forget-gate bias is initialized to 1, the usual trick
for gradient flow through time.

One packed kernel, :func:`lstm_forward_fused`, serves training and
inference.  Rows are sorted by descending length, so at every step the
still-live rows are a prefix of the batch: the input projection of every
live timestep is one time-major GEMM, each step fuses all four gates of
exactly the live rows, and finished rows are never touched again.  With
autograd off the kernel saves nothing.  With autograd on it keeps the
per-step gate activations, ``c_prev``, ``tanh(c)`` and ``h_prev`` in
packed ``[Σ active, ·]`` buffers and returns one Tensor node whose
backward is a hand-written BPTT over the same packed rows.
:class:`LSTMCell` holds the parameters (and runs one step of the
reference arithmetic).
"""

from __future__ import annotations

import numpy as np

from .layers import Module, Parameter, _glorot
from .tensor import Tensor, is_grad_enabled


def _sigmoid_inplace(a: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid, with the same clipping as Tensor.sigmoid."""
    np.clip(a, -60.0, 60.0, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)
    return a


def _data(value: Tensor | np.ndarray) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)


def lstm_forward_fused(
    w_ih: Tensor | np.ndarray,
    w_hh: Tensor | np.ndarray,
    bias: Tensor | np.ndarray,
    x: Tensor | np.ndarray,
    mask: np.ndarray,
) -> Tensor:
    """Packed LSTM forward over a padded batch, as one autograd node.

    Computes the hidden state after each sequence's last valid step:
    rows are packed by descending sequence length, the input projection
    of every live timestep is one time-major GEMM, and each step fuses
    all four gates of the still-live row block into a single ``[B_t, 4H]``
    projection, updating the state buffers in place.

    When autograd is enabled and any input requires grad, the result is
    a Tensor whose parents are ``x``, ``w_ih``, ``w_hh`` and ``bias``; its
    backward runs BPTT over the saved packed rows and then forms
    ``dW_ih``, ``dW_hh`` and ``dx`` with one GEMM each and ``dbias`` with
    one sum.  Otherwise nothing is saved and the result carries no graph.

    Args:
        w_ih / w_hh / bias: The cell parameters (``[I, 4H]``, ``[H, 4H]``,
            ``[4H]``), as Tensors or plain arrays.
        x: ``[B, T, I]`` padded input sequences.
        mask: ``[B, T]`` float/bool array, 1 for valid steps (sequences
            left-aligned: valid steps first, padding after).

    Returns:
        ``[B, H]`` final hidden states.

    Raises:
        ValueError: If the mask has an interior gap (not left-aligned);
            the packed representation cannot express resuming a frozen
            sequence, so the misuse fails loudly.
    """
    inputs = (x, w_ih, w_hh, bias)
    record = is_grad_enabled() and any(
        isinstance(value, Tensor) and value.requires_grad for value in inputs
    )
    data, w_ih, w_hh, bias = (_data(value) for value in inputs)
    mask = np.asarray(mask, dtype=np.float64)
    batch = len(data)
    hidden = w_hh.shape[0]

    valid = mask != 0.0
    if np.any(valid[:, 1:] & ~valid[:, :-1]):
        raise ValueError(
            "mask must be left-aligned (valid steps first, padding after); "
            "the packed kernel cannot represent interior gaps"
        )
    lengths = valid.sum(axis=1)
    max_len = int(lengths.max()) if batch else 0

    # Pack: rows sorted by descending length, so at step t exactly the
    # first `active[t]` rows are live and the mask vanishes from the loop
    # (a live row takes the new state outright; a finished row is simply
    # never touched again — the exact 0/1 mask update, minus the
    # multiplies).
    order = np.argsort(-lengths, kind="stable")
    active = np.searchsorted(-lengths[order], -np.arange(1, max_len + 1), "right")
    offsets = np.concatenate(([0], np.cumsum(active)))

    # Input projections of the live rows only — packing makes them a
    # prefix of every time-major block — in one GEMM; bias folded in
    # once.  After the loop this buffer holds the gate activations.
    live = np.arange(batch)[None, :] < active[:, None]  # [T, B]
    x_packed = data[order, :max_len].transpose(1, 0, 2)[live]  # [Σ active, I]
    gates_all = x_packed @ w_ih
    gates_all += bias

    if record:
        packed = len(x_packed)
        h_prev = np.empty((packed, hidden))
        c_prev = np.empty((packed, hidden))
        tanh_c = np.empty((packed, hidden))

    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    for t in range(max_len):
        n = int(active[t])
        span = slice(offsets[t], offsets[t + 1])
        gates = gates_all[span]
        if record:
            h_prev[span] = h[:n]
            c_prev[span] = c[:n]
        gates += h[:n] @ w_hh
        i_gate = _sigmoid_inplace(gates[:, 0 * hidden : 1 * hidden])
        f_gate = _sigmoid_inplace(gates[:, 1 * hidden : 2 * hidden])
        g_gate = np.tanh(gates[:, 2 * hidden : 3 * hidden], out=gates[:, 2 * hidden : 3 * hidden])
        o_gate = _sigmoid_inplace(gates[:, 3 * hidden : 4 * hidden])
        c_live = c[:n]
        c_live *= f_gate
        c_live += i_gate * g_gate
        np.tanh(c_live, out=h[:n])
        if record:
            tanh_c[span] = h[:n]
        h[:n] *= o_gate

    # Unpack to the caller's row order.
    out = np.empty_like(h)
    out[order] = h
    if not record:
        return Tensor(out)
    parents = tuple(v if isinstance(v, Tensor) else Tensor(v) for v in inputs)
    x_t, w_ih_t, w_hh_t, bias_t = parents

    def backward(grad: np.ndarray) -> None:
        dh = grad[order]  # packed row order
        dc = np.zeros_like(dh)
        d_gates = np.empty_like(gates_all)
        for t in range(max_len - 1, -1, -1):
            n = int(active[t])
            span = slice(offsets[t], offsets[t + 1])
            gates = gates_all[span]
            i_gate = gates[:, 0 * hidden : 1 * hidden]
            f_gate = gates[:, 1 * hidden : 2 * hidden]
            g_gate = gates[:, 2 * hidden : 3 * hidden]
            o_gate = gates[:, 3 * hidden : 4 * hidden]
            tc = tanh_c[span]
            dh_live = dh[:n]
            dc_live = dc[:n]
            dc_live += dh_live * o_gate * (1.0 - tc * tc)
            d_step = d_gates[span]
            d_step[:, 0 * hidden : 1 * hidden] = dc_live * g_gate * i_gate * (1.0 - i_gate)
            d_step[:, 1 * hidden : 2 * hidden] = dc_live * c_prev[span] * f_gate * (1.0 - f_gate)
            d_step[:, 2 * hidden : 3 * hidden] = dc_live * i_gate * (1.0 - g_gate * g_gate)
            d_step[:, 3 * hidden : 4 * hidden] = dh_live * tc * o_gate * (1.0 - o_gate)
            dc_live *= f_gate
            dh[:n] = d_step @ w_hh.T
        if x_t.requires_grad:
            # Packed row k of step t is padded entry (order[k], t).
            step_of, slot_of = np.nonzero(live)
            dx = np.zeros_like(data)
            dx[order[slot_of], step_of] = d_gates @ w_ih.T
            x_t._accum(dx)
        w_ih_t._accum(x_packed.T @ d_gates)
        w_hh_t._accum(h_prev.T @ d_gates)
        bias_t._accum(d_gates.sum(axis=0))

    result = x_t._make(out, parents)
    result._backward = backward
    return result


class LSTMCell(Module):
    """LSTM parameters, and one step of the reference arithmetic."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(_glorot(input_size, 4 * hidden_size, rng), name="w_ih")
        self.w_hh = Parameter(_glorot(hidden_size, 4 * hidden_size, rng), name="w_hh")
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step: inputs ``[B, I]``, state ``[B, H]`` -> new state."""
        gates = x @ self.w_ih + h @ self.w_hh + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f_gate * c + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new


class LSTM(Module):
    """Masked LSTM over padded sequences, returning the final hidden state.

    Sequences must be left-aligned: valid steps first, padding after.  The
    returned hidden state is the one after each sequence's last valid
    step (zeros for an empty sequence).  :meth:`forward` runs the packed
    kernel :func:`lstm_forward_fused` on the cell's parameters, recording
    one autograd node when grad is enabled.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor | np.ndarray, mask: np.ndarray) -> Tensor:
        """Run the LSTM.

        Args:
            x: ``[B, T, I]`` padded input sequences.
            mask: ``[B, T]`` float/bool array, 1 for valid steps.

        Returns:
            ``[B, H]`` final hidden states.
        """
        cell = self.cell
        return lstm_forward_fused(cell.w_ih, cell.w_hh, cell.bias, x, mask)
