"""VeriBug core: the paper's primary contribution.

Model, trainer, explainer, and the end-to-end bug localizer.
"""

from .config import VeriBugConfig
from .explainer import (
    FT_ONLY_SUSPICIOUSNESS,
    AttentionMap,
    Explainer,
    Heatmap,
    HeatmapEntry,
    normalized_l1_distance,
)
from .features import (
    BatchEncoder,
    EncodedBatch,
    Sample,
    ValueEncoder,
    build_samples,
    sample_from_execution,
    train_test_split,
)
from .heatmap import (
    execution_coverage,
    format_operand_scores,
    render_heatmap,
    score_bin,
    score_glyph,
)
from .localizer import (
    LocalizationEngine,
    LocalizationRequest,
    LocalizationResult,
)
from .model import (
    AttentionRowMemo,
    ContextEmbeddingCache,
    ModelOutput,
    VeriBugModel,
    model_forward_fused,
)
from .trainer import EvalMetrics, TrainHistory, Trainer, compute_metrics
from .vocab import PAD_TOKEN, UNK_TOKEN, Vocabulary

__all__ = [
    "AttentionMap",
    "AttentionRowMemo",
    "BatchEncoder",
    "ContextEmbeddingCache",
    "EncodedBatch",
    "EvalMetrics",
    "Explainer",
    "FT_ONLY_SUSPICIOUSNESS",
    "Heatmap",
    "HeatmapEntry",
    "LocalizationEngine",
    "LocalizationRequest",
    "LocalizationResult",
    "ModelOutput",
    "PAD_TOKEN",
    "Sample",
    "TrainHistory",
    "Trainer",
    "UNK_TOKEN",
    "ValueEncoder",
    "VeriBugConfig",
    "VeriBugModel",
    "Vocabulary",
    "build_samples",
    "compute_metrics",
    "execution_coverage",
    "format_operand_scores",
    "model_forward_fused",
    "normalized_l1_distance",
    "render_heatmap",
    "sample_from_execution",
    "score_bin",
    "score_glyph",
    "train_test_split",
]
