"""Precision/recall/F-measure protocol: conventions, matching, and kinds."""

import numpy as np
import pytest

from textcomp import (
    AnnotationRecord,
    Instance,
    PIoUConfig,
    Polygon,
    contour_polygon,
    decompose,
    evaluate,
    gen_ribbon,
)


def rect(x0, y0, width=60.0, height=10.0):
    return Polygon(
        np.array(
            [
                [x0, y0],
                [x0 + width, y0],
                [x0 + width, y0 + height],
                [x0, y0 + height],
            ]
        )
    )


def record(image, *instances):
    return AnnotationRecord(image=image, instances=list(instances))


def test_identical_predictions_score_perfectly():
    gts = [record("img", Instance(polygon=rect(0, 0)), Instance(polygon=rect(0, 50)))]
    preds = [
        record(
            "img",
            Instance(polygon=rect(0, 0), score=1.0),
            Instance(polygon=rect(0, 50), score=1.0),
        )
    ]
    report = evaluate(preds, gts)
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)
    assert report.true_positives == 2


def test_no_predictions_against_real_truths():
    gts = [record("img", Instance(polygon=rect(0, 0)), Instance(polygon=rect(0, 50)))]
    preds = [record("img")]
    report = evaluate(preds, gts)
    assert (report.precision, report.recall, report.f_measure) == (0.0, 0.0, 0.0)
    assert report.false_negatives == 2


def test_empty_against_empty_is_perfect():
    report = evaluate([record("img")], [record("img")])
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)


def test_disjoint_predictions_score_zero():
    gts = [record("img", Instance(polygon=rect(0, 0)))]
    preds = [record("img", Instance(polygon=rect(500, 500), score=0.9))]
    report = evaluate(preds, gts)
    assert (report.precision, report.recall, report.f_measure) == (0.0, 0.0, 0.0)
    assert report.false_positives == 1 and report.false_negatives == 1


def test_one_of_two_scene_scores_half_exactly():
    gts = [record("img", Instance(polygon=rect(0, 0)), Instance(polygon=rect(0, 100)))]
    preds = [
        record(
            "img",
            Instance(polygon=rect(0, 0), score=0.9),
            Instance(polygon=rect(500, 500), score=0.8),
        )
    ]
    report = evaluate(preds, gts)
    assert (report.precision, report.recall, report.f_measure) == (0.5, 0.5, 0.5)


def test_ignored_truths_neither_reward_nor_punish():
    gts = [
        record(
            "img",
            Instance(polygon=rect(0, 0)),
            Instance(polygon=rect(0, 100), ignore=True),
        )
    ]
    preds = [
        record(
            "img",
            Instance(polygon=rect(0, 0), score=0.9),
            Instance(polygon=rect(0, 100), score=0.8),  # hits only the ignored one
        )
    ]
    report = evaluate(preds, gts)
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)
    assert report.false_positives == 0 and report.false_negatives == 0


def test_weak_overlap_with_ignored_truth_is_a_false_positive():
    # The prediction's best overlap is the ignored truth, but at IoU 1/3 it
    # is below the threshold, so it is not discarded: it counts as an FP.
    gts = [
        record(
            "img",
            Instance(polygon=rect(0, 0)),
            Instance(polygon=rect(0, 100), ignore=True),
        )
    ]
    preds = [record("img", Instance(polygon=rect(30, 100), score=0.9))]
    report = evaluate(preds, gts)
    assert report.false_positives == 1
    assert report.true_positives == 0 and report.false_negatives == 1


def test_one_to_one_matching_marks_duplicates_false():
    gts = [record("img", Instance(polygon=rect(0, 0)))]
    preds = [
        record(
            "img",
            Instance(polygon=rect(0, 0), score=0.9),
            Instance(polygon=rect(1, 0), score=0.8),  # near-duplicate of the same truth
        )
    ]
    report = evaluate(preds, gts)
    assert report.true_positives == 1
    assert report.false_positives == 1
    assert report.precision == 0.5 and report.recall == 1.0


def test_higher_score_claims_the_contested_truth():
    # Both predictions overlap the truth; the stronger one is visited first
    # and claims it, so exactly the weaker becomes the false positive.
    gts = [record("img", Instance(polygon=rect(0, 0)))]
    strong = Instance(polygon=rect(0, 0), score=0.9)
    weak = Instance(polygon=rect(2, 0), score=0.3)
    report = evaluate([record("img", weak, strong)], gts)
    assert report.true_positives == 1 and report.false_positives == 1


def test_multi_image_aggregation_and_per_image_counts():
    gts = [
        record("good", Instance(polygon=rect(0, 0))),
        record("missed", Instance(polygon=rect(0, 0))),
    ]
    preds = [record("good", Instance(polygon=rect(0, 0), score=1.0))]
    report = evaluate(preds, gts)
    assert report.per_image["good"] == {"tp": 1, "fp": 0, "fn": 0}
    assert report.per_image["missed"] == {"tp": 0, "fp": 0, "fn": 1}
    assert report.precision == 1.0 and report.recall == 0.5


def test_adding_a_matching_prediction_never_hurts_recall():
    gt_a, gt_b = Instance(polygon=rect(0, 0)), Instance(polygon=rect(0, 100))
    gts = [record("img", gt_a, gt_b)]
    partial = [record("img", Instance(polygon=rect(0, 0), score=0.9))]
    fuller = [
        record(
            "img",
            Instance(polygon=rect(0, 0), score=0.9),
            Instance(polygon=rect(0, 100), score=0.5),
        )
    ]
    assert (
        evaluate(fuller, gts).recall >= evaluate(partial, gts).recall
    )


def test_iou_kinds_agree_on_identical_scenes():
    contour = gen_ribbon(3)
    inst = Instance(polygon=contour_polygon(contour))
    gts = [record("img", inst)]
    preds = [record("img", Instance(polygon=contour_polygon(contour), score=1.0))]
    for kind in ("piou-exact", "piou-mc", "biou"):
        report = evaluate(preds, gts, iou_kind=kind)
        assert report.f_measure == 1.0, kind


def test_components_shortcut_is_honored():
    contour = gen_ribbon(4)
    quads = decompose(contour, 6).quads
    poly = contour_polygon(contour)
    gts = [record("img", Instance(polygon=poly, components=quads))]
    preds = [record("img", Instance(polygon=poly, score=1.0, components=quads))]
    report = evaluate(preds, gts, iou_kind="piou-mc", config=PIoUConfig(k_samples=2000))
    assert report.f_measure == 1.0


def test_threshold_and_kind_validation():
    with pytest.raises(ValueError):
        evaluate([], [], iou_threshold=0.0)
    with pytest.raises(ValueError):
        evaluate([], [], iou_threshold=1.0)
    with pytest.raises(ValueError):
        evaluate([], [], iou_kind="diou")


def test_report_echoes_threshold():
    report = evaluate([], [], iou_threshold=0.75)
    assert report.iou_threshold == 0.75


def test_rates_always_within_unit_interval():
    rng = np.random.default_rng(7)
    for trial in range(5):
        gts, preds = [], []
        for image in range(3):
            g_insts = [
                Instance(polygon=rect(100.0 * k, 0))
                for k in range(int(rng.integers(0, 3)))
            ]
            p_insts = [
                Instance(
                    polygon=rect(100.0 * k + float(rng.uniform(-30, 30)), 0),
                    score=float(rng.uniform(0.1, 1.0)),
                )
                for k in range(int(rng.integers(0, 3)))
            ]
            gts.append(record(f"im{image}", *g_insts))
            preds.append(record(f"im{image}", *p_insts))
        report = evaluate(preds, gts)
        for value in (report.precision, report.recall, report.f_measure):
            assert 0.0 <= value <= 1.0
