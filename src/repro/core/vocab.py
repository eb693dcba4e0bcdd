"""AST node-type vocabulary shared by all designs.

The vocabulary is *design-agnostic* by construction (paper §I: learned
features must generalize to unseen designs without retraining): it
enumerates AST node *types*, never signal names, so any design parsed by
the frontend maps onto the same token space.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..verilog.ast_nodes import BINARY_OP_NAMES, UNARY_OP_NAMES

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

#: Structural node types that can appear in leaf-to-leaf paths.
STRUCTURAL_TYPES = (
    "Identifier",
    "Constant",
    "Conditional",
    "BitSelect",
    "PartSelect",
    "Concat",
    "Repeat",
    "Rvalue",
    "Lvalue",
    "BlockingAssignment",
    "NonBlockingAssignment",
    "ContinuousAssign",
)


class Vocabulary:
    """Fixed, deterministic node-type token table.

    The token order is stable across runs and machines, so serialized
    models remain loadable.
    """

    def __init__(self):
        types = sorted(
            set(BINARY_OP_NAMES.values())
            | set(UNARY_OP_NAMES.values())
            | set(STRUCTURAL_TYPES)
        )
        self._tokens: list[str] = [PAD_TOKEN, UNK_TOKEN] + types
        self._index: dict[str, int] = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def pad_id(self) -> int:
        """Token id used for sequence padding."""
        return 0

    @property
    def unk_id(self) -> int:
        """Token id for unknown node types."""
        return 1

    def encode(self, node_type: str) -> int:
        """Token id for a node type (UNK when the type is unlisted)."""
        return self._index.get(node_type, self.unk_id)

    def encode_path(self, path: tuple[str, ...]) -> list[int]:
        """Token ids for a leaf-to-leaf path."""
        return [self.encode(node_type) for node_type in path]

    def decode(self, token_id: int) -> str:
        """Node-type name of a token id."""
        return self._tokens[token_id]

    def pad_paths(
        self, paths: Sequence[Sequence[int]], max_len: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pad token id sequences into (tokens, mask) matrices.

        Args:
            paths: Ragged list of token-id sequences.
            max_len: Pad target; defaults to the longest path.

        Returns:
            (``[P, T]`` int token matrix, ``[P, T]`` float mask).
        """
        if not paths:
            return np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1))
        max_len = max_len or max(len(p) for p in paths)
        max_len = max(max_len, 1)
        tokens = np.full((len(paths), max_len), self.pad_id, dtype=np.int64)
        mask = np.zeros((len(paths), max_len), dtype=np.float64)
        for row, path in enumerate(paths):
            clipped = path[:max_len]
            tokens[row, : len(clipped)] = clipped
            mask[row, : len(clipped)] = 1.0
        return tokens, mask
