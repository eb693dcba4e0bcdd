"""No-grad fused kernels for the model head (aggregation/attention/MLP).

The PathRNN encode stage runs on the packed kernel
:func:`repro.nn.rnn.lstm_forward_fused`; these are raw ``np.ndarray``
kernels for the *remaining* forward stages — segment
reductions, the ragged-segment masked softmax, and plain MLP stacks — so
that an inference forward pass can run without constructing a single
:class:`~repro.nn.tensor.Tensor` graph node.

Every kernel here replicates its autograd counterpart op for op (same
numpy calls, same operand order), so outputs are bit-identical to the
Tensor path evaluated under :func:`repro.nn.inference_mode`; the
autograd path stays the reference oracle.  Unlike the LSTM kernel,
which records its own autograd node, each kernel here refuses to run
while autograd is enabled: the outputs are plain arrays, and silently
detaching a training graph is the one failure mode these guards exist
to rule out.
"""

from __future__ import annotations

import numpy as np

from .layers import MLP, Linear
from .tensor import is_grad_enabled


def _require_inference(kernel: str) -> None:
    if is_grad_enabled():
        raise RuntimeError(
            f"{kernel} requires autograd to be disabled; wrap the call in "
            "repro.nn.inference_mode() (training must use the Tensor "
            "autograd path)"
        )


def segment_sum_fused(
    x: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Raw-array twin of :func:`repro.nn.functional.segment_sum`.

    Args:
        x: ``[N, ...]`` rows to reduce.
        segment_ids: ``[N]`` integer bucket per row.
        num_segments: Number of output rows.

    Returns:
        ``[num_segments, ...]`` float64 array; empty segments are zero.

    Raises:
        RuntimeError: If autograd is enabled (see module docstring).
    """
    _require_inference("segment_sum_fused")
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + x.shape[1:], dtype=np.float64)
    np.add.at(out, segment_ids, x)
    return out


def segment_softmax_fused(
    scores: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Masked softmax over ragged segments in one segment-reduce sweep.

    The raw twin of :func:`repro.nn.functional.segment_softmax`: one
    ``np.maximum.at`` for the per-segment max shift, one exp, one
    ``np.add.at`` for the denominators, one gathered divide — no
    per-segment Python loop and no Tensor graph.  The arithmetic (and
    its order) matches the autograd op exactly, so results are
    bit-identical under :func:`repro.nn.inference_mode`.

    Args:
        scores: ``[N]`` unnormalized scores.
        segment_ids: ``[N]`` bucket per score.
        num_segments: Number of softmax groups.

    Returns:
        ``[N]`` float64 array; scores in each segment sum to 1.

    Raises:
        RuntimeError: If autograd is enabled.
    """
    _require_inference("segment_softmax_fused")
    scores = np.asarray(scores, dtype=np.float64)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, scores)
    seg_max[~np.isfinite(seg_max)] = 0.0
    exp_scores = np.exp(scores - seg_max[segment_ids])
    denom = np.zeros(num_segments, dtype=np.float64)
    np.add.at(denom, segment_ids, exp_scores)
    return exp_scores / denom[segment_ids]


def linear_forward_fused(layer: Linear, x: np.ndarray) -> np.ndarray:
    """Raw affine forward ``x W + b`` over a :class:`Linear`'s weights.

    Raises:
        RuntimeError: If autograd is enabled.
    """
    _require_inference("linear_forward_fused")
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _activate_fused(x: np.ndarray, activation: str) -> np.ndarray:
    # Each branch mirrors the corresponding Tensor op's arithmetic.
    if activation == "leaky_relu":
        return np.where(x > 0, x, 0.01 * x)
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation {activation!r}")


def mlp_forward_fused(mlp: MLP, x: np.ndarray) -> np.ndarray:
    """Raw forward pass over an :class:`MLP`'s weights.

    Applies the hidden activation between layers but not after the last,
    exactly like :meth:`MLP.forward`; the activation arithmetic matches
    the Tensor ops (LeakyReLU slope 0.01), so outputs are bit-identical
    to the autograd path evaluated with grad off.

    Raises:
        RuntimeError: If autograd is enabled.
    """
    _require_inference("mlp_forward_fused")
    for index, layer in enumerate(mlp.layers):
        x = linear_forward_fused(layer, x)
        if index < len(mlp.layers) - 1:
            x = _activate_fused(x, mlp.activation)
    return x
