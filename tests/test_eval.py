"""Precision/recall/F-measure protocol: conventions, matching, and kinds."""

import importlib

import numpy as np
import pytest

from textcomp import (
    AnnotationRecord,
    Instance,
    PIoUConfig,
    Polygon,
    assemble,
    biou,
    contour_polygon,
    decompose,
    evaluate,
    gen_ribbon,
    gen_scene,
    perturb,
    piou_exact,
    piou_mc,
)
from textcomp.evaluate import _as_sequence, _score_order

# The package re-exports the function evaluate under the submodule's name.
evaluate_module = importlib.import_module("textcomp.evaluate")
piou_module = importlib.import_module("textcomp.piou")


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


# ------------------------------------------------- the per-pair loop oracle


def _oracle_per_image(pred_records, gt_records, iou_threshold, iou_kind, config, t=6):
    """The per-pair greedy loop that evaluate used before its row form.

    Each unclaimed live truth is scored against the prediction one pair at a
    time, then the ignored truths in a second pass; no box test is made.
    """
    cache = {}

    def overlap(a, b):
        if iou_kind == "biou":
            return biou(a.polygon, b.polygon)
        if iou_kind == "piou-exact":
            return piou_exact(a.polygon, b.polygon)
        for inst in (a, b):
            if id(inst) not in cache:
                cache[id(inst)] = _as_sequence(inst, t)
        return piou_mc(cache[id(a)], cache[id(b)], config).value

    preds_by_image = {r.image: r.instances for r in pred_records}
    gts_by_image = {r.image: r.instances for r in gt_records}
    per_image = {}
    for image in dict.fromkeys([*gts_by_image, *preds_by_image]):
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
        per_image[image] = {"tp": img_tp, "fp": img_fp, "fn": claimed.count(False)}
    return per_image


def _oracle_scenes(seed):
    """Crowded seeded scenes: ignored truths, near-duplicates, a distractor,
    tied and missing scores, an image without truths and one without
    predictions, and one with neither."""
    rng = np.random.default_rng(seed)
    canvas = (360.0, 260.0)
    contours = gen_scene(seed, 6, canvas)
    gts = [Instance(polygon=contour_polygon(c), ignore=bool(rng.random() < 0.3)) for c in contours]
    preds = []
    for j, contour in enumerate([*contours, *gen_scene(seed + 1000, 1, canvas)]):
        for copy in range(1 + int(rng.random() < 0.3)):
            if rng.random() < 0.2:
                continue
            seq = perturb(contour, float(rng.uniform(0.5, 12.0)), seed * 100 + 10 * j + copy)
            preds.append(
                Instance(
                    polygon=assemble(seq),
                    score=[0.9, 0.5, 0.5, None][int(rng.integers(4))],
                    components=seq.quads if rng.random() < 0.5 else None,
                )
            )
    lone = [Instance(polygon=contour_polygon(c)) for c in gen_scene(seed + 2000, 2, canvas)]
    pred_records = [
        AnnotationRecord("scene", preds),
        AnnotationRecord("no-truths", preds[:3]),
        AnnotationRecord("empty", []),
    ]
    gt_records = [
        AnnotationRecord("scene", gts),
        AnnotationRecord("no-predictions", lone),
        AnnotationRecord("empty", []),
    ]
    return pred_records, gt_records


@pytest.mark.parametrize(
    "iou_kind, seeds",
    [("piou-exact", range(8)), ("biou", range(8)), ("piou-mc", range(3))],
)
def test_row_form_matches_per_pair_loop_oracle(iou_kind, seeds):
    # 2000 grid centres per pair are few, so piou-mc is exercised off its default.
    config = PIoUConfig(k_samples=2000)
    totals = np.zeros(3, dtype=int)
    for seed in seeds:
        pred_records, gt_records = _oracle_scenes(seed)
        for threshold in (0.3, 0.5, 0.7):
            report = evaluate(pred_records, gt_records, threshold, iou_kind, config)
            expected = _oracle_per_image(pred_records, gt_records, threshold, iou_kind, config)
            assert report.per_image == expected, (seed, threshold)
            totals += [report.true_positives, report.false_positives, report.false_negatives]
    assert (totals > 0).all()  # the scenes exercise every decision


@pytest.mark.parametrize("config", [None, PIoUConfig(k_samples=2000)])
def test_piou_mc_assembles_each_instance_once_per_image(monkeypatch, config):
    assembled = []
    original = evaluate_module.assemble

    def counting(seq):
        assembled.append(len(seq.quads))
        return original(seq)

    pred_records, gt_records = _oracle_scenes(5)  # 2 of 6 truths ignored, 2 missed
    assert any(g.ignore for g in gt_records[0].instances)
    monkeypatch.setattr(evaluate_module, "assemble", counting)
    monkeypatch.setattr(piou_module, "assemble", lambda seq: pytest.fail("piou_mc assembled"))
    report = evaluate(pred_records, gt_records, 0.5, "piou-mc", config)
    monkeypatch.undo()
    instances = sum(len(r.instances) for r in [*pred_records, *gt_records])
    assert assembled == [6] * instances
    assert report.per_image["scene"]["fn"] > 0
    assert report.per_image == _oracle_per_image(pred_records, gt_records, 0.5, "piou-mc", config)


def test_piou_mc_decomposes_polygons_through_the_module_stages(monkeypatch):
    # Instances without components are split and decomposed by the
    # evaluate module's own split_long_sides and decompose, once each;
    # instances with components skip both.
    calls = []
    for name in ("split_long_sides", "decompose"):
        original = getattr(evaluate_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, name, counting)
    pred_records, gt_records = _oracle_scenes(5)
    instances = [i for r in [*pred_records, *gt_records] for i in r.instances]
    bare = sum(i.components is None for i in instances)
    assert 0 < bare < len(instances)
    evaluate(pred_records, gt_records, 0.5, "piou-mc")
    assert sorted(calls) == ["decompose"] * bare + ["split_long_sides"] * bare
    calls.clear()
    evaluate(pred_records, gt_records, 0.5, "piou-exact")
    assert calls == []


def test_strictly_apart_zero_area_outlines_do_not_match():
    # piou_exact scores two zero-area outlines 1.0 wherever they are; boxes
    # 100 px apart must still overlap 0.
    line = Polygon(np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0], [60.0, 0.0]]))
    far = Polygon(line.vertices + [100.0, 0.0])
    assert piou_exact(far, line) == 1.0
    preds = [record("img", Instance(polygon=far, score=1.0))]
    report = evaluate(preds, [record("img", Instance(polygon=line))])
    assert report.per_image["img"] == {"tp": 0, "fp": 1, "fn": 1}


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_STRIP = np.array([[1.002, 0.0], [101.002, 0.0], [101.002, 0.01], [1.002, 0.01]])


@pytest.mark.parametrize(
    "pred, gt",
    [
        # 60 x 0.1 px slivers 0.05 px apart in y, decomposed into chains
        (
            Instance(polygon=rect(0.0, 0.15, height=0.1), score=1.0),
            Instance(polygon=rect(0.0, 0.0, height=0.1)),
        ),
        # a strip 0.002 px right of a square, each its own one-quad chain
        (
            Instance(polygon=Polygon(_STRIP), components=_STRIP[None], score=1.0),
            Instance(polygon=Polygon(_SQUARE), components=_SQUARE[None]),
        ),
    ],
    ids=["slivers", "strip"],
)
def test_strictly_apart_pairs_score_0_under_piou_mc(pred, gt):
    # Gaps far narrower than a grid step: no centre lies in both outlines.
    est = piou_mc(_as_sequence(pred, 6), _as_sequence(gt, 6))
    assert est.value == 0.0 and est.intersection_cells == 0 < est.union_cells
    assert piou_exact(pred.polygon, gt.polygon) == 0.0
    report = evaluate(
        [record("img", pred)], [record("img", gt)], iou_threshold=0.004, iou_kind="piou-mc"
    )
    assert report.per_image["img"] == {"tp": 0, "fp": 1, "fn": 1}


def test_strictly_apart_pairs_never_reach_the_kernel(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((tuple(a.vertices[0]), tuple(b.vertices[0])))
        return piou_exact(a, b)

    monkeypatch.setattr(evaluate_module, "piou_exact", counting)
    gts = [
        Instance(polygon=rect(0, 0)),
        Instance(polygon=rect(200, 0)),  # apart in x from both predictions
        Instance(polygon=rect(62, 0)),  # touches the second prediction's box
        Instance(polygon=rect(0, 40), ignore=True),  # apart in y
        Instance(polygon=rect(0, 10), ignore=True),  # touches both boxes
    ]
    preds = [Instance(polygon=rect(0, 0), score=0.9), Instance(polygon=rect(2, 0), score=0.5)]
    report = evaluate([record("img", *preds)], [record("img", *gts)])
    assert report.per_image["img"] == {"tp": 1, "fp": 1, "fn": 2}
    # The first prediction claims rect(0, 0), which the second never sees.
    assert calls == [
        ((0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (0.0, 10.0)),
        ((2.0, 0.0), (62.0, 0.0)),
        ((2.0, 0.0), (0.0, 10.0)),
    ]


def test_piou_mc_converts_every_truth_up_front():
    triangle = Polygon(np.array([[0.0, 0.0], [60.0, 0.0], [30.0, 10.0]]))
    gts = [record("img", Instance(polygon=triangle))]
    with pytest.raises(ValueError, match="at least 4 vertices"):
        evaluate([record("img")], gts, iou_kind="piou-mc")
    assert evaluate([record("img")], gts).per_image["img"] == {"tp": 0, "fp": 0, "fn": 1}


def test_overlap_exactly_at_the_threshold_claims_and_discards():
    # rect(20, 0) covers 40 of the 80 px spanned with rect(0, 0): IoU 0.5.
    assert piou_exact(rect(20, 0), rect(0, 0)) == 0.5
    preds = [record("img", Instance(polygon=rect(20, 0), score=1.0))]
    claimed, discarded = {"tp": 1, "fp": 0, "fn": 0}, {"tp": 0, "fp": 0, "fn": 0}
    for ignore, counts in ((False, claimed), (True, discarded)):
        gts = [record("img", Instance(polygon=rect(0, 0), ignore=ignore))]
        assert evaluate(preds, gts, iou_threshold=0.5).per_image["img"] == counts
