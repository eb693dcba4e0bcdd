"""Training loop and evaluation metrics for the VeriBug model.

Follows §V "Training model": Adam (lr 1e-3, weight decay 1e-5),
mini-batches of sampled statements, inverse-class-frequency loss weights,
and the α-weighted attention-norm regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import Adam, class_weights_from_labels
from .config import VeriBugConfig
from .features import BatchEncoder, Sample
from .model import VeriBugModel


@dataclass
class EvalMetrics:
    """Prediction quality on a sample set (paper Table II columns).

    ``precision``/``recall`` are per target bit value, indexed by class.
    """

    accuracy: float
    precision: tuple[float, float]
    recall: tuple[float, float]
    n_samples: int

    def row(self) -> str:
        """Format as a Table-II-style row fragment."""
        return (
            f"{self.accuracy * 100:5.1f} "
            f"{self.precision[0]:.2f}/{self.recall[0]:.2f} "
            f"{self.precision[1]:.2f}/{self.recall[1]:.2f}"
        )


@dataclass
class TrainHistory:
    """Per-epoch loss curve."""

    losses: list[float] = field(default_factory=list)
    ce_terms: list[float] = field(default_factory=list)
    reg_terms: list[float] = field(default_factory=list)


class Trainer:
    """Trains a :class:`VeriBugModel` on execution samples."""

    def __init__(
        self,
        model: VeriBugModel,
        encoder: BatchEncoder,
        config: VeriBugConfig | None = None,
    ):
        self.model = model
        self.encoder = encoder
        self.config = config or model.config
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.lr,
            weight_decay=self.config.weight_decay,
        )

    def train(
        self,
        samples: list[Sample],
        epochs: int | None = None,
        log: bool = False,
    ) -> TrainHistory:
        """Run minibatch SGD over the sample set.

        Args:
            samples: Training samples (statement executions).
            epochs: Override the configured epoch count.
            log: Print per-epoch losses.

        Returns:
            The loss history.
        """
        if not samples:
            raise ValueError("cannot train on an empty sample list")
        epochs = epochs if epochs is not None else self.config.epochs
        rng = np.random.default_rng(self.config.seed)
        labels = np.array([s.label for s in samples])
        class_weights = class_weights_from_labels(labels)
        history = TrainHistory()
        # Encode once; each minibatch is a row selection of this batch.
        encoded = self.encoder.encode(samples)
        try:
            for epoch in range(epochs):
                order = rng.permutation(len(samples))
                epoch_loss = 0.0
                epoch_ce = 0.0
                epoch_reg = 0.0
                n_batches = 0
                for start in range(0, len(samples), self.config.batch_size):
                    batch = encoded.select(order[start : start + self.config.batch_size])
                    loss, parts = self.model.training_loss(
                        batch, class_weights, self.config.alpha
                    )
                    self.optimizer.zero_grad()
                    loss.backward()
                    self.optimizer.step()
                    epoch_loss += loss.item()
                    epoch_ce += parts["ce"]
                    epoch_reg += parts["reg"]
                    n_batches += 1
                history.losses.append(epoch_loss / n_batches)
                history.ce_terms.append(epoch_ce / n_batches)
                history.reg_terms.append(epoch_reg / n_batches)
                if log:
                    print(
                        f"epoch {epoch + 1:3d}/{epochs}: "
                        f"loss={history.losses[-1]:.4f} "
                        f"ce={history.ce_terms[-1]:.4f} reg={history.reg_terms[-1]:.4f}"
                    )
        finally:
            # The weights changed — wholesale, or partly when a step
            # raised: flush memoized embeddings and attention rows and let
            # weight listeners (e.g. an execution runtime holding
            # read-only worker snapshots) version the new state.
            self.model._on_state_loaded()
        return history

    def evaluate(self, samples: list[Sample], batch_size: int = 512) -> EvalMetrics:
        """Compute accuracy and per-class precision/recall."""
        if not samples:
            raise ValueError("cannot evaluate on an empty sample list")
        predictions: list[int] = []
        labels: list[int] = []
        # predict() runs each forward pass under inference_mode; encoding
        # is pure numpy, so no outer no-grad scope is needed.
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            batch = self.encoder.encode(chunk)
            predictions.extend(self.model.predict(batch).tolist())
            labels.extend(batch.labels.tolist())
        return compute_metrics(np.array(labels), np.array(predictions))


def compute_metrics(labels: np.ndarray, predictions: np.ndarray) -> EvalMetrics:
    """Accuracy plus per-class precision/recall for binary targets."""
    accuracy = float((labels == predictions).mean())
    precision: list[float] = []
    recall: list[float] = []
    for cls in (0, 1):
        predicted = predictions == cls
        actual = labels == cls
        tp = float((predicted & actual).sum())
        precision.append(tp / predicted.sum() if predicted.sum() else 0.0)
        recall.append(tp / actual.sum() if actual.sum() else 0.0)
    return EvalMetrics(
        accuracy=accuracy,
        precision=(precision[0], precision[1]),
        recall=(recall[0], recall[1]),
        n_samples=len(labels),
    )
