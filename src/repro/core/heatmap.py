"""Text rendering of localization heatmaps (paper Figure 4).

The paper discretizes operand importance scores into bins and renders
them as color intensities — reds for the failing-trace map ``Ft`` (which
is what ``Ht`` stores) and blues for the correct-trace map ``Ct``.  In a
terminal we render the same information with intensity glyphs and
optional ANSI colors.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contexts import StatementContext
from ..analysis.index import design_index
from ..sim.trace import Trace
from ..verilog.ast_nodes import Module
from ..verilog.printer import statement_source
from .explainer import Heatmap

#: Five intensity bins over [0, 1], rendered light -> dark.
_BINS = " ░▒▓█"


def execution_coverage(traces: list[Trace]) -> dict[int, int]:
    """Per-statement execution counts across a trace set.

    The coverage query behind heatmap annotations, counted off each
    trace's lane of its event log (one ``np.unique`` per trace, no
    record objects).
    """
    counts: dict[int, int] = {}
    for trace in traces:
        log, lane = trace.execution_log()
        for stmt_id, count in log.stmt_counts(lane).items():
            counts[stmt_id] = counts.get(stmt_id, 0) + count
    return counts


def score_bin(score: float, n_bins: int = 5) -> int:
    """Discretize a score in [0, 1] into one of ``n_bins`` bins."""
    clipped = min(max(score, 0.0), 1.0)
    return min(int(clipped * n_bins), n_bins - 1)


def score_glyph(score: float) -> str:
    """Intensity glyph for a score in [0, 1]."""
    return _BINS[score_bin(score, len(_BINS))]


def _ansi(score: float, red: bool) -> str:
    """ANSI 256-color block for a score (reds for Ft, blues for Ct)."""
    level = score_bin(score, 5)
    reds = (224, 217, 210, 203, 196)
    blues = (195, 153, 111, 69, 27)
    color = (reds if red else blues)[level]
    return f"\x1b[48;5;{color}m  \x1b[0m"


def _aligned_names(
    names: tuple[str, ...], n_weights: int
) -> tuple[tuple[str, ...], bool]:
    """Pad (or trim) operand names to match the weight count.

    Returns the aligned names plus a flag marking a length mismatch.
    Missing names become ``op{i}`` placeholders so no weight is ever
    silently dropped from the rendering.
    """
    if len(names) == n_weights:
        return names, False
    padded = tuple(names[:n_weights]) + tuple(
        f"op{i}" for i in range(len(names), n_weights)
    )
    return padded, True


def format_operand_scores(
    names: tuple[str, ...], weights: np.ndarray, use_color: bool = False, red: bool = True
) -> str:
    """Render operand names with their importance scores.

    Example output: ``req1[0.82█] req2[0.18░]``.  When the name and
    weight counts disagree, every weight is still rendered — missing
    names are padded with ``op{i}`` placeholders and the mismatch is
    flagged at the end of the line.
    """
    aligned, mismatch = _aligned_names(names, len(weights))
    parts = []
    for name, weight in zip(aligned, weights):
        marker = _ansi(float(weight), red) if use_color else score_glyph(float(weight))
        parts.append(f"{name}[{weight:.2f}{marker}]")
    if mismatch:
        parts.append(f"(!name/weight mismatch: {len(names)} names, {len(weights)} weights)")
    return " ".join(parts)


def render_heatmap(
    module: Module,
    heatmap: Heatmap,
    contexts: dict[int, StatementContext],
    bug_stmt_id: int | None = None,
    use_color: bool = False,
    coverage: dict[int, int] | None = None,
) -> str:
    """Render a heatmap as a Figure-4-style text table.

    Each heatmap statement is shown with its source line, its ``Ft``
    operand scores (red scale), the corresponding ``Ct`` scores (blue
    scale) when available, and the suspiciousness score.  The statement
    containing the root cause is flagged with ``<-- lbug`` when known.

    Args:
        module: The buggy design (for source text).
        heatmap: The heatmap to render.
        contexts: Statement contexts (for operand names).
        bug_stmt_id: Ground-truth buggy statement, if known.
        use_color: Emit ANSI colors instead of glyphs.
        coverage: Optional per-statement execution counts (see
            :func:`execution_coverage`); when given, each entry is
            annotated with how often it executed in the failing set.

    Returns:
        A multi-line string.
    """
    lines = [f"Heatmap Ht for target {heatmap.target!r}"]
    lines.append("=" * 72)
    if not heatmap.entries:
        lines.append("(no statement exceeded the suspiciousness threshold)")
        return "\n".join(lines)

    index = design_index(module)
    for entry in heatmap.ranked():
        stmt = index.statement(entry.stmt_id)
        context = contexts.get(entry.stmt_id)
        names = context.operand_names() if context else tuple(
            f"op{i}" for i in range(len(entry.weights))
        )
        bug_tag = "  <-- lbug" if entry.stmt_id == bug_stmt_id else ""
        cover_tag = ""
        if coverage is not None:
            cover_tag = f" executed {coverage.get(entry.stmt_id, 0)}x"
        lines.append(
            f"[stmt {entry.stmt_id}] d={entry.suspiciousness:.3f} "
            f"({entry.case}){cover_tag}{bug_tag}"
        )
        lines.append(f"    {statement_source(stmt)}")
        lines.append(
            "    Ft: "
            + format_operand_scores(names, entry.weights, use_color, red=True)
        )
        ct_weights = heatmap.ct.weights.get(entry.stmt_id)
        if ct_weights is not None:
            lines.append(
                "    Ct: "
                + format_operand_scores(names, ct_weights, use_color, red=False)
            )
        lines.append("")
    return "\n".join(lines)
