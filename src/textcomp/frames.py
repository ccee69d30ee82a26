"""Reshaping between per-instance component sequences and per-frame grids.

A scene's predictions form a grid: n instances, each decomposed into t
ordered components. Viewed along the other axis, frame f collects the f-th
component of every instance, the form a sequential decoder consumes. Both
views hold the same array data; converting is a transpose, not a copy of
semantics, and must round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ComponentSequence, Polygon, _as_points, _as_scores, assemble

__all__ = ["FrameGrid", "InstancePrediction", "to_frames", "from_frames"]


@dataclass
class FrameGrid:
    """Component quads arranged frame-major: quads[f, i] is instance i at frame f.

    Quads are checked by ``geometry._as_points`` and scores by
    ``geometry._as_scores``, the validators ``ComponentSequence`` uses too;
    like a sequence, a grid holds at least one frame.
    """

    quads: np.ndarray  # (t, n, 4, 2)
    scores: np.ndarray | None = None  # (t, n)

    def __post_init__(self) -> None:
        self.quads = _as_points(self.quads, "quads", 1, (4, 2), ("t", "n"))
        if self.scores is not None:
            self.scores = _as_scores(self.scores, "scores", self.quads.shape[:2])

    @property
    def frame_count(self) -> int:
        return self.quads.shape[0]

    @property
    def slot_count(self) -> int:
        return self.quads.shape[1]


@dataclass
class InstancePrediction:
    """A detected instance: its outline, confidence, and source components."""

    polygon: Polygon
    score: float
    components: ComponentSequence = field(repr=False)

    def __post_init__(self) -> None:
        self.score = float(_as_scores(self.score, "score", ()))


def to_frames(sequences: list[ComponentSequence]) -> FrameGrid:
    """Stack instance sequences into a frame-major grid.

    All sequences must share one component count, and either all or none may
    carry scores.
    """
    if not sequences:
        raise ValueError("at least one sequence is required")
    counts = {len(s.quads) for s in sequences}
    if len(counts) > 1:
        raise ValueError(f"sequences must share one component count, got {sorted(counts)}")
    with_scores = [s.scores is not None for s in sequences]
    if any(with_scores) and not all(with_scores):
        raise ValueError("either every sequence carries scores or none does")
    quads = np.stack([s.quads for s in sequences], axis=1)
    scores = np.stack([s.scores for s in sequences], axis=1) if all(with_scores) else None
    return FrameGrid(quads, scores)


def from_frames(grid: FrameGrid, score_threshold: float = 0.5) -> list[InstancePrediction]:
    """Regroup a frame grid into instance predictions and filter by confidence.

    Each instance's confidence is the mean of its per-frame scores;
    instances strictly below score_threshold are dropped. Without scores
    every instance is kept with confidence 1.0. Instance order is preserved.
    """
    if not 0.0 <= score_threshold <= 1.0:
        raise ValueError(f"score_threshold must lie in [0, 1], got {score_threshold}")
    out: list[InstancePrediction] = []
    for i in range(grid.slot_count):
        seq_scores = grid.scores[:, i] if grid.scores is not None else None
        seq = ComponentSequence(quads=grid.quads[:, i].copy(), scores=seq_scores)
        confidence = 1.0 if seq_scores is None else float(seq_scores.mean())
        if confidence < score_threshold:
            continue
        polygon = assemble(seq)
        out.append(InstancePrediction(polygon=polygon, score=confidence, components=seq))
    return out
