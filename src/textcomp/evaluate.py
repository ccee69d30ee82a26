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

Overlap kinds: the sequence-sampling estimate ("piou-mc"), the exact
even-odd polygon IoU ("piou-exact"), or bounding-rectangle IoU ("biou").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ComponentSequence, Polygon, decompose, split_long_sides
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


def _make_overlap(iou_kind: str, config: PIoUConfig | None, t: int):
    if iou_kind == "biou":
        return lambda a, b: biou(a.polygon, b.polygon)
    if iou_kind == "piou-exact":
        return lambda a, b: piou_exact(a.polygon, b.polygon)
    if iou_kind == "piou-mc":
        cfg = config or PIoUConfig()
        cache: dict[int, ComponentSequence] = {}

        def overlap(a: Instance, b: Instance) -> float:
            for inst in (a, b):
                if id(inst) not in cache:
                    cache[id(inst)] = _as_sequence(inst, t)
            return piou_mc(cache[id(a)], cache[id(b)], cfg).value

        return overlap
    raise ValueError(f"unknown iou_kind {iou_kind!r}; expected one of {_IOU_KINDS}")


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

    Rates use the conventions: no ground truth and no predictions anywhere
    gives precision = recall = f = 1.0; a zero denominator on one side gives
    that rate 0.0 unless its numerator demand is also zero.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    overlap = _make_overlap(iou_kind, config, t)
    preds_by_image = {r.image: r.instances for r in pred_records}
    gts_by_image = {r.image: r.instances for r in gt_records}
    images = list(dict.fromkeys([*gts_by_image, *preds_by_image]))

    tp = fp = fn = 0
    per_image: dict[str, dict[str, int]] = {}
    for image in images:
        preds = preds_by_image.get(image, [])
        gts = gts_by_image.get(image, [])
        live = [g for g in gts if not g.ignore]
        ignored = [g for g in gts if g.ignore]
        claimed = [False] * len(live)
        img_tp = img_fp = 0
        for pi in _score_order(preds):
            pred = preds[pi]
            best_iou, best_j = 0.0, -1
            for j, gt in enumerate(live):
                if claimed[j]:
                    continue
                value = overlap(pred, gt)
                if value > best_iou:
                    best_iou, best_j = value, j
            if best_j >= 0 and best_iou >= iou_threshold:
                claimed[best_j] = True
                img_tp += 1
                continue
            if any(overlap(pred, gt) >= iou_threshold for gt in ignored):
                continue
            img_fp += 1
        img_fn = claimed.count(False)
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
