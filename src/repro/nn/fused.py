"""Fused raw-array kernels for the model head, and the training node.

The PathRNN encode stage runs on the packed kernel
:func:`repro.nn.rnn.lstm_forward_fused`; the kernels here cover the
*remaining* stages — segment reductions, the ragged-segment masked
softmax, and plain MLP stacks — on ``np.ndarray`` inputs, without
constructing a single :class:`~repro.nn.tensor.Tensor` graph node.

Two callers build on them:

* the inference forward (``repro.core.model.model_forward_fused``) runs
  :func:`head_forward_fused` and returns detached outputs, so it alone
  refuses to run while autograd is enabled;
* training runs :func:`head_loss_fused`: the stage-1 fan-out, the head
  and the VeriBug loss as *one* autograd node whose backward is written
  by hand, as the LSTM kernel's BPTT is.

Every forward kernel replicates its autograd counterpart op for op (same
numpy calls, same operand order), so outputs are bit-identical to the
Tensor path.  ``VeriBugModel.forward`` with grad on, plus
:func:`repro.nn.loss.veribug_loss`, stays the reference oracle of both
the forward and the hand-written backward; the loss functions are read
by the tests only.
"""

from __future__ import annotations

import numpy as np

from .layers import MLP, Linear, Parameter
from .tensor import Tensor, is_grad_enabled

#: LeakyReLU slope of the hidden activations (as in :meth:`MLP._activate`).
_LEAKY_SLOPE = 0.01


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
    """
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
    bit-identical.

    Args:
        scores: ``[N]`` unnormalized scores.
        segment_ids: ``[N]`` bucket per score.
        num_segments: Number of softmax groups.

    Returns:
        ``[N]`` float64 array; scores in each segment sum to 1.
    """
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
    """Raw affine forward ``x W + b`` over a :class:`Linear`'s weights."""
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _activate_fused(x: np.ndarray, activation: str) -> np.ndarray:
    # Each branch mirrors the corresponding Tensor op's arithmetic.
    if activation == "leaky_relu":
        return np.where(x > 0, x, _LEAKY_SLOPE * x)
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_backward(
    grad: np.ndarray, pre: np.ndarray, out: np.ndarray, activation: str
) -> np.ndarray:
    """Gradient through one hidden activation, as the Tensor op computes it."""
    if activation == "leaky_relu":
        return grad * np.where(pre > 0, 1.0, _LEAKY_SLOPE)
    if activation == "relu":
        return grad * (pre > 0)
    return grad * (1.0 - out**2)  # tanh


def mlp_forward_fused(
    mlp: MLP, x: np.ndarray, tape: list[np.ndarray] | None = None
) -> np.ndarray:
    """Raw forward pass over an :class:`MLP`'s weights.

    Applies the hidden activation between layers but not after the last,
    exactly like :meth:`MLP.forward`; the activation arithmetic matches
    the Tensor ops (LeakyReLU slope 0.01), so outputs are bit-identical
    to the autograd path.

    Args:
        mlp: The weights to run.
        x: ``[N, in]`` inputs.
        tape: When given, receives what :func:`_mlp_backward` needs: each
            layer's input and, after each hidden layer, its
            pre-activation.
    """
    last = len(mlp.layers) - 1
    for index, layer in enumerate(mlp.layers):
        if tape is not None:
            tape.append(x)
        x = linear_forward_fused(layer, x)
        if index < last:
            if tape is not None:
                tape.append(x)
            x = _activate_fused(x, mlp.activation)
    return x


def _mlp_backward(mlp: MLP, tape: list[np.ndarray], grad: np.ndarray) -> np.ndarray:
    """Accumulate an MLP's parameter gradients; return ``d input``.

    ``tape`` is what :func:`mlp_forward_fused` recorded: per layer its
    input, and per hidden layer its pre-activation (whose activation is
    the next layer's input).
    """
    for index in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[index]
        layer_input = tape[2 * index]
        if index < len(mlp.layers) - 1:
            grad = _activation_backward(
                grad, tape[2 * index + 1], tape[2 * index + 2], mlp.activation
            )
        layer.weight._accum(layer_input.T @ grad)
        if layer.bias is not None:
            layer.bias._accum(grad.sum(axis=0))
        grad = grad @ layer.weight.data.T
    return grad


def _scatter_rows(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``segment_sum`` of 2-D rows for the backward pass.

    One weighted ``np.bincount`` over ``(segment, column)`` keys: several
    times cheaper than ``np.add.at`` on 2-D rows, and linear in the rows
    and segments, so time and memory grow with the batch as the Tensor
    graph's did.
    """
    width = values.shape[1]
    keys = (segment_ids[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(keys, weights=values.ravel(), minlength=num_segments * width)
    return sums.reshape(num_segments, width)


def head_forward_fused(
    x: np.ndarray,
    operand_stmt: np.ndarray,
    n_statements: int,
    aggregation: MLP,
    epsilon: Parameter,
    attention_vector: Parameter,
    predictor: MLP,
    tapes: tuple[list, list] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages 2 and 3 of the model on raw operand embeddings ``x``.

    Aggregation ``x*_i = MLP_θ1(Σ_j x_j + ε · x_i)``, attention
    ``w = softmax(a · x*ᵀ)`` within each statement, and the predictor
    over the attention-weighted statement sums, in the Tensor path's
    operand order.

    Args:
        x: ``[M, dc+dv]`` operand embeddings.
        operand_stmt: ``[M]`` owning statement per operand row.
        n_statements: Number of statements.
        tapes: ``(aggregation tape, predictor tape)`` lists to record
            into (see :func:`mlp_forward_fused`), or None.

    Returns:
        ``(updated, attention, logits)``: ``[M, da]``, ``[M]`` and
        ``[n_statements, 2]``.
    """
    aggregation_tape, predictor_tape = tapes if tapes is not None else (None, None)
    stmt_sum = segment_sum_fused(x, operand_stmt, n_statements)
    updated = mlp_forward_fused(
        aggregation, stmt_sum[operand_stmt] + epsilon.data * x, aggregation_tape
    )
    scores = updated @ attention_vector.data  # [M]
    attention = segment_softmax_fused(scores, operand_stmt, n_statements)
    statement = segment_sum_fused(
        attention.reshape(-1, 1) * x, operand_stmt, n_statements
    )
    logits = mlp_forward_fused(predictor, statement, predictor_tape)
    return updated, attention, logits


def head_loss_fused(
    path_embed: Tensor,
    batch,
    aggregation: MLP,
    epsilon: Parameter,
    attention_vector: Parameter,
    predictor: MLP,
    class_weights: np.ndarray | None = None,
    alpha: float = 0.1,
) -> tuple[Tensor, dict[str, float]]:
    """The VeriBug training loss from the PathRNN output, as one node.

    Forward: gather the distinct-path embeddings to every ``(operand,
    path)`` row and sum them per operand (the ``c_i``), append the value
    one-hot, run :func:`head_forward_fused`, then the class-weighted
    cross-entropy plus ``alpha`` times the attention-norm regularizer,
    with the arithmetic of :func:`repro.nn.loss.veribug_loss`.

    When autograd is enabled and any input requires grad, the loss is a
    Tensor whose parents are ``path_embed`` and the ten head parameters;
    its backward accumulates every parameter gradient and sends one
    ``[D, dc]`` gradient to ``path_embed``.  Otherwise nothing is
    recorded.

    Args:
        path_embed: ``[D, dc]`` PathRNN output, one row per distinct path.
        batch: An :class:`~repro.core.features.EncodedBatch` (its
            ``path_index``, ``path_operand``, ``value_onehot``,
            ``operand_stmt`` and ``labels`` are read).
        aggregation / epsilon / attention_vector / predictor: The head.
        class_weights: ``[2]`` per-class loss weights (default all-ones).
        alpha: Weight of the regularizer.

    Returns:
        ``(loss, {"ce": ..., "reg": ...})`` like ``veribug_loss``.
    """
    params = [*aggregation.parameters(), *predictor.parameters(), epsilon, attention_vector]
    record = is_grad_enabled() and (
        path_embed.requires_grad or any(param.requires_grad for param in params)
    )
    paths = path_embed.data
    operand_stmt = batch.operand_stmt
    labels = np.asarray(batch.labels, dtype=np.int64)
    n_statements = len(labels)
    dc = paths.shape[1]

    # Stage 1 fan-out: c_i = Σ of the operand's path embeddings.
    context = segment_sum_fused(
        paths[batch.path_index], batch.path_operand, len(batch.value_onehot)
    )
    x = np.concatenate([context, batch.value_onehot], axis=1)  # [M, dc+dv]
    tapes: tuple[list, list] = ([], [])
    updated, attention, logits = head_forward_fused(
        x,
        operand_stmt,
        n_statements,
        aggregation,
        epsilon,
        attention_vector,
        predictor,
        tapes if record else None,
    )

    # Weighted cross-entropy (weighted_cross_entropy's arithmetic).
    if class_weights is None:
        class_weights = np.ones(logits.shape[-1])
    rows = np.arange(n_statements)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp_shifted = np.exp(shifted)
    exp_total = exp_shifted.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(exp_total)
    sample_weights = class_weights[labels]
    weight_total = float(sample_weights.sum())
    ce = -(log_probs[rows, labels] * sample_weights).sum() / weight_total

    # Attention-norm regularizer (attention_norm_regularizer's arithmetic).
    squared = (updated * updated).sum(axis=1)
    per_stmt = segment_sum_fused(squared, operand_stmt, n_statements)
    norms = np.sqrt(per_stmt + 1e-8)
    reg = (1.0 / norms).sum() / float(n_statements)
    loss = ce + reg * alpha
    parts = {"ce": float(ce), "reg": float(reg)}
    if not record:
        return Tensor(loss), parts

    aggregation_tape, predictor_tape = tapes

    def backward(grad: np.ndarray) -> None:
        # Cross-entropy: d logits = w_i / W · (softmax - onehot(y_i)).
        d_picked = sample_weights * (-grad / weight_total)  # [B]
        d_logits = exp_shifted / exp_total * -d_picked[:, None]
        d_logits[rows, labels] += d_picked
        # Regularizer: d x*_i = 2 x*_i · d per_stmt(stmt_i).
        d_norms = -(grad * alpha / float(n_statements)) / (norms * norms)
        d_updated = updated * (d_norms / norms)[operand_stmt, None]

        # Predictor, then the attention-weighted statement sums.
        d_statement = _mlp_backward(predictor, predictor_tape, d_logits)
        d_weighted = d_statement[operand_stmt]  # [M, dc+dv]
        d_attention = (d_weighted * x).sum(axis=1)
        d_x = attention[:, None] * d_weighted
        # Segment softmax: d s_i = w_i (d w_i - Σ_seg w_k d w_k).
        seg_dot = np.bincount(
            operand_stmt, weights=attention * d_attention, minlength=n_statements
        )
        d_scores = attention * (d_attention - seg_dot[operand_stmt])
        attention_vector._accum(d_scores @ updated)
        d_updated += d_scores[:, None] * attention_vector.data

        # Aggregation: input Σ_j x_j (broadcast) + ε · x_i.
        d_input = _mlp_backward(aggregation, aggregation_tape, d_updated)
        epsilon._accum(np.asarray((d_input * x).sum()))
        d_x += epsilon.data * d_input
        d_x += _scatter_rows(d_input, operand_stmt, n_statements)[operand_stmt]

        # Stage 1 fan-out: each distinct path row collects the gradient
        # of every (operand, path) row gathered from it.
        if path_embed.requires_grad:
            path_embed._accum(
                _scatter_rows(d_x[batch.path_operand, :dc], batch.path_index, len(paths))
            )

    result = path_embed._make(np.asarray(loss), (path_embed, *params))
    result._backward = backward
    return result, parts
