"""Optimal assignment of predicted component sequences to ground truth.

Every prediction must receive a target, so the ground-truth side is padded
with "no object" entries up to the prediction count and the assignment is
solved on the square cost matrix. The pair cost sums a per-frame focal
classification term and (for real targets) a per-frame mean absolute corner
error; a padded target contributes only the background classification cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import ComponentSequence
from .losses import _focal_values

__all__ = [
    "MatchParams",
    "MatchResult",
    "CapacityError",
    "hungarian",
    "match_sequences",
]


class CapacityError(ValueError):
    """Raised when there are more ground-truth sequences than predictions."""


@dataclass(frozen=True)
class MatchParams:
    """Weights for the sequence matching cost."""

    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    cls_weight: float = 1.0
    reg_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.focal_alpha <= 1.0:
            raise ValueError(f"focal_alpha must lie in [0, 1], got {self.focal_alpha}")
        if self.focal_gamma < 0.0:
            raise ValueError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.cls_weight < 0.0 or self.reg_weight < 0.0:
            raise ValueError("cost weights must be >= 0")


@dataclass
class MatchResult:
    """Assignment of each prediction index to a target index or None."""

    assignment: dict[int, int | None]
    total_cost: float
    per_pair_cost: list[float]


def _pred_scores(pred: ComponentSequence) -> np.ndarray:
    if pred.scores is None:
        raise ValueError("predicted sequences must carry per-component scores")
    return pred.scores


def hungarian(cost: np.ndarray) -> MatchResult:
    """Minimum-cost perfect assignment on a square cost matrix."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite values")
    rows, cols = linear_sum_assignment(cost)
    assignment: dict[int, int | None] = {int(r): int(c) for r, c in zip(rows, cols)}
    per_pair = [float(cost[r, c]) for r, c in zip(rows, cols)]
    # fsum makes the reported total independent of row order, so reordering
    # the predictions of a scene cannot change it even in the last bit.
    return MatchResult(assignment, math.fsum(per_pair), per_pair)


def _cost_matrix(
    preds: list[ComponentSequence], gts: list[ComponentSequence], params: MatchParams
) -> np.ndarray:
    """Padded (n, n) pair costs; columns from len(gts) on are background."""
    n = len(preds)
    scores = np.stack([_pred_scores(p) for p in preds])  # (n, t)
    # one pass over both targets: terms[0] positive, terms[1] background, each (n, t)
    positive = np.array([True, False])[:, None, None]
    terms, _ = _focal_values(scores, positive, params.focal_alpha, params.focal_gamma)
    pos_cls, neg_cls = terms.sum(axis=2)  # (n,) each
    cost = np.tile((params.cls_weight * neg_cls)[:, None], (1, n))
    if gts:
        pred_quads = np.stack([p.quads for p in preds])  # (n, t, 4, 2)
        gt_quads = np.stack([g.quads for g in gts])  # (g, t, 4, 2)
        diff = np.abs(pred_quads[:, None] - gt_quads[None, :])  # (n, g, t, 4, 2)
        reg = diff.reshape(n, len(gts), diff.shape[2], -1).mean(axis=3).sum(axis=2)
        cost[:, : len(gts)] = params.cls_weight * pos_cls[:, None] + params.reg_weight * reg
    return cost


def match_sequences(
    preds: list[ComponentSequence], gts: list[ComponentSequence], params: MatchParams | None = None
) -> MatchResult:
    """Assign predictions to targets; surplus predictions map to None.

    Requires at least as many predictions as targets. All sequences must
    share one component count.
    """
    params = params or MatchParams()
    if len(gts) > len(preds):
        raise CapacityError(
            f"{len(gts)} targets cannot be covered by {len(preds)} predictions"
        )
    if not preds:
        return MatchResult({}, 0.0, [])
    counts = {len(s.quads) for s in preds} | {len(s.quads) for s in gts}
    if len(counts) > 1:
        raise ValueError(f"sequences must share one component count, got {sorted(counts)}")
    cost = _cost_matrix(preds, gts, params)
    result = hungarian(cost)
    result.assignment = {
        i: (j if j < len(gts) else None) for i, j in result.assignment.items()
    }
    return result
