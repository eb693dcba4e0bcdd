"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Includes the segment (ragged-batch) operations the VeriBug model relies
on: statements have variable operand counts and operands have variable
path counts, so batches are flattened into row matrices with an integer
segment id per row, and reductions happen per segment.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(data, tuple(tensors))

    def backward(grad: np.ndarray) -> None:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accum(grad[tuple(index)])

    out._backward = backward
    return out


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    indices = np.asarray(indices, dtype=np.int64)
    out = table._make(table.data[indices], (table,))

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, indices, grad)
        table._accum(full)

    out._backward = backward
    return out


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    Args:
        x: ``[N, ...]`` tensor.
        segment_ids: ``[N]`` integer bucket per row.
        num_segments: Number of output rows.

    Returns:
        ``[num_segments, ...]`` tensor; empty segments are zero.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    data = np.zeros((num_segments,) + x.data.shape[1:], dtype=np.float64)
    np.add.at(data, segment_ids, x.data)
    out = x._make(data, (x,))
    out._backward = lambda grad: x._accum(grad[segment_ids])
    return out


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather ``x[indices]`` (differentiable)."""
    return embedding(x, indices)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of a flat score vector within each segment.

    Args:
        scores: ``[N]`` tensor of unnormalized scores.
        segment_ids: ``[N]`` bucket per score.
        num_segments: Number of softmax groups.

    Returns:
        ``[N]`` tensor; scores in each segment sum to 1.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Per-segment max as a constant for numerical stability.
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores - Tensor(seg_max[segment_ids])
    exp_scores = shifted.exp()
    denom = segment_sum(exp_scores, segment_ids, num_segments)
    return exp_scores / gather_rows(denom, segment_ids)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along an axis."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()
