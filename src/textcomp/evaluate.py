"""Detection quality scoring: precision, recall, F-measure.

Predictions and ground truth are annotation records keyed by image.
Within an image, predictions are visited in order of decreasing score
(ties keep input order) and greedily claim the unmatched ground-truth
instance of highest overlap at or above the threshold. Ground truth flagged
ignore=True never counts toward recall. A prediction that claims no
ground truth is discarded, rather than counted as a false positive, when
its overlap with some ignored instance is at or above the threshold;
otherwise it is a false positive, even if its best overlap below the
threshold is with an ignored instance.

Overlap kinds: the Polygon Monte-Carlo estimate ("piou-mc"), the exact
even-odd polygon IoU ("piou-exact"), or bounding-rectangle IoU ("biou").
Both polygon kinds use the even-odd rule: a bow-tie against its own square
scores 0.5 under piou-exact and about 0.5 under piou-mc (biou gives 1.0).
Instances whose bounding boxes are strictly apart on some axis score 0,
which is their exact IoU and also what piou_mc gives them, and the kernel
is not called for them. PMC is defined on component chains, so under
"piou-mc" every instance is taken as its component sequence (its own, else
its polygon decomposed into t quads) and assembled back into an outline
once per image, up front; an outline that cannot be split into two sides
therefore raises ValueError even when nothing is compared with it. An
overlap that comes out NaN (a kernel overflowed) raises ValueError rather
than counting as below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ComponentSequence, assemble, decompose, split_long_sides
from .ingest import AnnotationRecord, Instance
from .piou import PIoUConfig, biou, piou_exact, piou_mc

__all__ = ["EvalReport", "evaluate"]

_IOU_KINDS = ("piou-exact", "piou-mc", "biou")


@dataclass
class EvalReport:
    """Aggregate counts and derived rates over all images."""

    precision: float
    recall: float
    f_measure: float
    iou_threshold: float
    true_positives: int
    false_positives: int
    false_negatives: int
    per_image: dict[str, dict[str, int]] = field(default_factory=dict)


def _as_sequence(inst: Instance, t: int) -> ComponentSequence:
    """The instance's own components, else its polygon decomposed into t quads."""
    if inst.components is not None:
        return ComponentSequence(quads=inst.components)
    return decompose(split_long_sides(inst.polygon), t)


def _kernel_inputs(instances: list[Instance], iou_kind: str, t: int):
    """The polygon the overlap kernel compares for each instance, and its (lo, hi) boxes."""
    if iou_kind == "piou-mc":
        shapes = [assemble(_as_sequence(inst, t)) for inst in instances]
    else:
        shapes = [inst.polygon for inst in instances]
    boxes = np.array([(p.vertices.min(axis=0), p.vertices.max(axis=0)) for p in shapes])
    return shapes, boxes.reshape(-1, 2, 2)


def _overlap(iou_kind: str, pred, gt, config: PIoUConfig | None) -> float:
    if iou_kind == "piou-mc":
        value = piou_mc(pred, gt, config).value
    elif iou_kind == "piou-exact":
        value = piou_exact(pred, gt)
    else:
        value = biou(pred, gt)
    if np.isnan(value):
        raise ValueError(f"{iou_kind} overlap is NaN: the kernel overflowed on these coordinates")
    return value


def _score_order(instances: list[Instance]) -> list[int]:
    scores = np.asarray([1.0 if inst.score is None else inst.score for inst in instances])
    return list(np.argsort(-scores, kind="stable"))


def evaluate(
    pred_records: list[AnnotationRecord],
    gt_records: list[AnnotationRecord],
    iou_threshold: float = 0.5,
    iou_kind: str = "piou-exact",
    config: PIoUConfig | None = None,
    t: int = 6,
) -> EvalReport:
    """Score predictions against ground truth across a set of images.

    Under "piou-mc" each instance is assembled once per image and its
    outline is reused for every pair it enters, with about config's
    k_samples grid centres per pair.

    Rates use the conventions: no ground truth and no predictions anywhere
    gives precision = recall = f = 1.0; a zero denominator on one side gives
    that rate 0.0 unless its numerator demand is also zero.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    if iou_kind not in _IOU_KINDS:
        raise ValueError(f"unknown iou_kind {iou_kind!r}; expected one of {_IOU_KINDS}")
    preds_by_image = {r.image: r.instances for r in pred_records}
    gts_by_image = {r.image: r.instances for r in gt_records}
    images = list(dict.fromkeys([*gts_by_image, *preds_by_image]))

    tp = fp = fn = 0
    per_image: dict[str, dict[str, int]] = {}
    for image in images:
        preds = preds_by_image.get(image, [])
        gts = gts_by_image.get(image, [])
        pred_shapes, pred_boxes = _kernel_inputs(preds, iou_kind, t)
        gt_shapes, gt_boxes = _kernel_inputs(gts, iou_kind, t)
        apart = (
            (pred_boxes[:, None, 1] < gt_boxes[None, :, 0])
            | (gt_boxes[None, :, 1] < pred_boxes[:, None, 0])
        ).any(axis=2)
        ignored = np.array([g.ignore for g in gts], dtype=bool)
        claimed = np.zeros(len(gts), dtype=bool)
        img_tp = img_fp = 0
        for pi in _score_order(preds):
            row = np.zeros(len(gts))
            for j in np.flatnonzero(~(apart[pi] | claimed)):
                row[j] = _overlap(iou_kind, pred_shapes[pi], gt_shapes[j], config)
            unclaimed = np.where(ignored | claimed, -1.0, row)
            if unclaimed.size and unclaimed.max() >= iou_threshold:
                claimed[unclaimed.argmax()] = True
                img_tp += 1
            elif not (row[ignored] >= iou_threshold).any():
                img_fp += 1
        img_fn = int((~ignored & ~claimed).sum())
        per_image[image] = {"tp": img_tp, "fp": img_fp, "fn": img_fn}
        tp, fp, fn = tp + img_tp, fp + img_fp, fn + img_fn

    precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return EvalReport(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        iou_threshold=iou_threshold,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        per_image=per_image,
    )
