"""Configuration for the VeriBug model and localization pipeline.

Defaults follow the paper (§V "Training model"): ``da = 32`` for the
attention vector, ``dc = 16`` for the context embedding, Adam with
``lr = 1e-3`` and ``weight_decay = 1e-5``, regularization weight
``alpha = 0.1`` (the best predictor in Table II), and a suspiciousness
threshold of 0.10.

This class holds *model* hyper-parameters only.  System-level knobs —
engine selection, worker pools, localization batching, cache policy —
are consolidated in :class:`repro.api.SessionConfig`, which embeds a
``VeriBugConfig`` as its ``model`` field.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VeriBugConfig:
    """Hyper-parameters of the model and localization pipeline.

    Attributes:
        dc: Context (path) embedding dimension.
        dv: One-hot value-encoding dimension (value buckets).
        da: Attention / updated-operand-embedding dimension.
        node_embed_dim: AST node-type embedding dimension fed to PathRNN.
        predictor_hidden: Hidden width of the output MLP.
        alpha: Weight of the attention-norm regularizer in the loss.
        lr: Adam learning rate.
        weight_decay: Adam L2 weight decay.
        epochs: Training epochs.
        batch_size: Statements per minibatch.
        suspicious_threshold: Heatmap inclusion threshold on the
            normalized norm-1 distance between Ft and Ct (paper: 0.10).
        seed: RNG seed for parameter initialization and shuffling.
    """

    dc: int = 16
    dv: int = 4
    da: int = 32
    node_embed_dim: int = 16
    predictor_hidden: int = 32
    alpha: float = 0.10
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 30
    batch_size: int = 64
    suspicious_threshold: float = 0.10
    seed: int = 0

    @property
    def operand_dim(self) -> int:
        """Dimension of the operand embedding ``x_i = (c_i || v_i)``."""
        return self.dc + self.dv
