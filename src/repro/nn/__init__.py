"""Minimal deep-learning substrate (numpy reverse-mode autograd).

Replaces PyTorch for the VeriBug model: tensors, layers, LSTM, attention
building blocks, optimizers, and the paper's loss.
"""

from .functional import (
    concat,
    embedding,
    gather_rows,
    log_softmax,
    segment_softmax,
    segment_sum,
)
from .fused import (
    head_forward_fused,
    head_loss_fused,
    linear_forward_fused,
    mlp_forward_fused,
    segment_softmax_fused,
    segment_sum_fused,
)
from .layers import MLP, Embedding, Linear, Module, Parameter
from .loss import (
    attention_norm_regularizer,
    class_weights_from_labels,
    veribug_loss,
    weighted_cross_entropy,
)
from .optim import SGD, Adam, Optimizer
from .rnn import LSTM, LSTMCell, lstm_forward_fused
from .serialization import load_state, save_state
from .tensor import Tensor, enable_grad, inference_mode, is_grad_enabled

__all__ = [
    "Adam",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "Tensor",
    "attention_norm_regularizer",
    "class_weights_from_labels",
    "concat",
    "embedding",
    "enable_grad",
    "gather_rows",
    "head_forward_fused",
    "head_loss_fused",
    "inference_mode",
    "is_grad_enabled",
    "linear_forward_fused",
    "load_state",
    "log_softmax",
    "lstm_forward_fused",
    "mlp_forward_fused",
    "segment_softmax",
    "segment_softmax_fused",
    "segment_sum",
    "segment_sum_fused",
    "veribug_loss",
    "weighted_cross_entropy",
]
