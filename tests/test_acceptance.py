"""Whole-package acceptance checks.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints one summary line with the measured numbers, so a verbose run doubles
as an acceptance report. Tolerances and sample sizes are fixed; do not relax
them to make a failing build pass.
"""

import itertools
import math
import string
import time

import numpy as np

from test_ingest import random_record, records_equal
from textcomp import (
    AnnotationRecord,
    ComponentSequence,
    Instance,
    LossParams,
    PIoUConfig,
    ParseError,
    Polygon,
    RibbonParams,
    assemble,
    contour_polygon,
    decompose,
    evaluate,
    finite_diff_check,
    focal_loss,
    from_frames,
    gen_ribbon,
    hungarian,
    l1_loss,
    match_sequences,
    perturb,
    piou_exact,
    piou_mc,
    psc_loss,
    read_ctw1500,
    read_jsonl,
    resample_side,
    to_frames,
    write_jsonl,
)

HIGH_CURVATURE = RibbonParams(curvature=0.012)


def report(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")


# 1 ------------------------------------------------------------------------


def test_curved_reconstruction_ranks_spline_above_bezier():
    """On curved text, spline resampling reconstructs better than Bezier."""
    t0 = time.perf_counter()
    bspline, bezier = [], []
    for seed in range(200):
        contour = gen_ribbon(seed, HIGH_CURVATURE)
        reference = contour_polygon(contour)
        bspline.append(piou_exact(assemble(decompose(contour, 6)), reference))
        bezier.append(
            piou_exact(assemble(decompose(contour, 6, method="bezier")), reference)
        )
    elapsed = time.perf_counter() - t0
    bs, bz = float(np.mean(bspline)), float(np.mean(bezier))
    ok = bs > bz and bs >= 0.98 and elapsed < 60.0
    report(
        "A1 curved-reconstruction",
        ok,
        f"bspline_mean={bs:.5f} bezier_mean={bz:.5f} floor=0.98 runtime={elapsed:.1f}s",
    )
    assert bs > bz
    assert bs >= 0.98
    assert elapsed < 60.0


# 2 ------------------------------------------------------------------------


def test_sampled_iou_tracks_exact_iou():
    """Sampled IoU stays within 0.02 of exact IoU at the 95th percentile."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    errors, identities = [], []
    config = PIoUConfig()
    for i in range(500):
        kind = i % 4
        length = rng.uniform(260.0, 400.0)
        aspect = rng.uniform(6.0, 10.0)
        hw = length / (2.0 * aspect)
        params = RibbonParams(
            length=(length, length), half_width=(hw, hw), curvature=0.004
        )
        contour = gen_ribbon(int(rng.integers(2**63)), params)
        seq_a = decompose(contour, 6)
        if kind == 0:
            seq_b = ComponentSequence(quads=seq_a.quads.copy())
        elif kind == 1:
            seq_b = perturb(
                contour, float(rng.uniform(0.5, 1.5)), seed=int(rng.integers(2**63))
            )
        elif kind == 2:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            shift = (
                rng.uniform(0.5, 1.4)
                * 2.0
                * hw
                * np.array([np.cos(angle), np.sin(angle)])
            )
            seq_b = ComponentSequence(quads=seq_a.quads + shift)
        else:
            points = seq_a.quads.reshape(-1, 2)
            extent = points.max(axis=0) - points.min(axis=0)
            seq_b = ComponentSequence(quads=seq_a.quads + extent + 50.0)
        estimate = piou_mc(seq_a, seq_b, config).value
        exact = piou_exact(assemble(seq_a), assemble(seq_b))
        errors.append(abs(estimate - exact))
        if kind == 0:
            identities.append(estimate)
    elapsed = time.perf_counter() - t0
    p95 = float(np.percentile(errors, 95))
    all_one = all(value == 1.0 for value in identities)
    ok = p95 <= 0.02 and all_one and elapsed < 60.0
    report(
        "A2 sampled-iou-accuracy",
        ok,
        f"p95_error={p95:.4f} bound=0.02 identity_exact={all_one} "
        f"pairs=500 runtime={elapsed:.1f}s",
    )
    assert p95 <= 0.02
    assert all_one
    assert elapsed < 60.0


# 3 ------------------------------------------------------------------------


def _random_scene(rng, t=6):
    n_gts = int(rng.integers(1, 5))
    n_preds = n_gts + int(rng.integers(0, 4))
    contours = [gen_ribbon(int(rng.integers(2**63))) for _ in range(n_preds)]
    gts = [decompose(c, t) for c in contours[:n_gts]]
    preds = [
        perturb(c, 0.5, seed=int(rng.integers(2**63)), t=t) for c in contours
    ]
    return preds, gts


def test_assignment_is_optimal_and_order_invariant():
    """Assignment totals equal the brute-force minimum and ignore input order."""
    perms = np.array(list(itertools.permutations(range(7))))
    rows = np.arange(7)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        cost = rng.uniform(0.0, 10.0, (7, 7))
        best = perms[int(np.argmin(cost[rows, perms].sum(axis=1)))]
        brute = math.fsum(cost[i, best[i]] for i in range(7))
        assert hungarian(cost).total_cost == brute

    invariant = True
    for _ in range(100):
        preds, gts = _random_scene(rng)
        total = match_sequences(preds, gts).total_cost
        order = rng.permutation(len(preds))
        shuffled = [preds[i] for i in order]
        if match_sequences(shuffled, gts).total_cost != total:
            invariant = False
    report(
        "A3 assignment-optimality",
        invariant,
        f"matrices=1000 optimal=all scenes=100 shuffle_invariant={invariant}",
    )
    assert invariant


# 4 ------------------------------------------------------------------------


def test_loss_gradients_match_finite_differences():
    """Analytic gradients agree with central differences at every loss."""
    rng = np.random.default_rng(17)
    n = 1000

    scores = rng.uniform(0.05, 0.95, n)
    positive = rng.random(n) < 0.5
    err_focal = finite_diff_check(lambda s: focal_loss(s, positive), scores)

    pious = rng.uniform(0.05, 0.95, n // 2)
    mixed = rng.uniform(0.05, 0.95, n)
    err_psc = finite_diff_check(
        lambda s: psc_loss(s[: n // 2], pious, s[n // 2 :]), mixed
    )

    target = rng.uniform(-50.0, 50.0, n)
    offset = np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.1, 5.0, n)
    err_l1 = finite_diff_check(lambda p: l1_loss(p, target), target + offset)

    params = LossParams()
    anchors = rng.uniform(0.02, 0.98, n)
    stationary = float(
        np.max(
            np.abs(
                psc_loss(anchors**params.alpha, anchors, np.array([]), params).grad_scores
            )
        )
    )
    ok = max(err_focal, err_psc, err_l1) <= 1e-5 and stationary <= 1e-8
    report(
        "A4 gradient-correctness",
        ok,
        f"focal={err_focal:.2e} psc={err_psc:.2e} l1={err_l1:.2e} "
        f"bound=1e-5 stationarity={stationary:.2e} bound=1e-8",
    )
    assert err_focal <= 1e-5
    assert err_psc <= 1e-5
    assert err_l1 <= 1e-5
    assert stationary <= 1e-8


# 5 ------------------------------------------------------------------------


def test_frame_grid_round_trip_at_scale():
    """Regrouping frames recovers every instance bit for bit."""
    rng = np.random.default_rng(23)
    scenes = 0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        originals = [
            ComponentSequence(
                quads=rng.uniform(0.0, 1000.0, (6, 4, 2)),
                scores=rng.uniform(0.0, 1.0, 6),
            )
            for _ in range(n)
        ]
        restored = from_frames(to_frames(originals), 0.0)
        assert len(restored) == n
        for original, prediction in zip(originals, restored):
            assert np.array_equal(prediction.components.quads, original.quads)
            assert np.array_equal(prediction.components.scores, original.scores)
        scenes += 1
    report("A5 frame-round-trip", True, f"scenes={scenes} instances<=100 exact=all")


# 6 ------------------------------------------------------------------------


def test_decompose_assemble_fidelity():
    """Reassembly reproduces resampled vertices and nearly all the area."""
    values = []
    for seed in range(100):
        contour = gen_ribbon(seed)
        polygon = assemble(decompose(contour, 6))
        side_a = resample_side(contour.side_a, 7)
        side_b = resample_side(contour.side_b, 7)
        assert np.array_equal(
            polygon.vertices, np.concatenate([side_a, side_b[::-1]])
        )
        values.append(piou_exact(polygon, contour_polygon(contour)))
    mean = float(np.mean(values))

    rectangle = gen_ribbon(3, RibbonParams(curvature=0.0, half_width=(20.0, 20.0)))
    rect_value = piou_exact(
        assemble(decompose(rectangle, 6)), contour_polygon(rectangle)
    )
    ok = mean >= 0.98 and rect_value >= 0.999
    report(
        "A6 reconstruction-fidelity",
        ok,
        f"mean={mean:.5f} floor=0.98 rectangle={rect_value:.6f} floor=0.999 "
        f"vertices=exact",
    )
    assert mean >= 0.98
    assert rect_value >= 0.999


# 7 ------------------------------------------------------------------------


def _box(x0, y0, width=60.0, height=10.0):
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


def _record(image, *instances):
    return AnnotationRecord(image=image, instances=list(instances))


def test_evaluation_harness_sanity():
    """The scoring protocol lands exactly on its hand-computable cases."""
    perfect = [_record("img", Instance(polygon=_box(0.0, 0.0), score=0.9))]
    truth = [_record("img", Instance(polygon=_box(0.0, 0.0)))]
    exact = evaluate(perfect, truth)

    disjoint = [_record("img", Instance(polygon=_box(500.0, 500.0), score=0.9))]
    zero = evaluate(disjoint, truth)

    two_truths = [
        _record(
            "img",
            Instance(polygon=_box(0.0, 0.0)),
            Instance(polygon=_box(200.0, 200.0)),
        )
    ]
    one_hit = evaluate(perfect, two_truths)

    ok = (
        (exact.precision, exact.recall, exact.f_measure) == (1.0, 1.0, 1.0)
        and (zero.precision, zero.recall, zero.f_measure) == (0.0, 0.0, 0.0)
        and (one_hit.precision, one_hit.recall, one_hit.f_measure)
        == (1.0, 0.5, 2 / 3)
    )
    report(
        "A7 evaluation-sanity",
        ok,
        f"perfect={exact.f_measure} disjoint={zero.f_measure} "
        f"one_of_two_recall={one_hit.recall}",
    )
    assert (exact.precision, exact.recall, exact.f_measure) == (1.0, 1.0, 1.0)
    assert (zero.precision, zero.recall, zero.f_measure) == (0.0, 0.0, 0.0)
    assert one_hit.recall == 0.5
    assert one_hit.precision == 1.0


# 8 ------------------------------------------------------------------------


def test_reconstruction_improves_with_component_count():
    """More components never reconstruct curved text worse."""
    contours = [gen_ribbon(1000 + seed, HIGH_CURVATURE) for seed in range(80)]
    references = [contour_polygon(c) for c in contours]
    means = []
    for t in (4, 6, 8):
        values = [
            piou_exact(assemble(decompose(c, t)), ref)
            for c, ref in zip(contours, references)
        ]
        means.append(float(np.mean(values)))
    ok = means[0] <= means[1] <= means[2]
    report(
        "A8 component-count-monotone",
        ok,
        f"t4={means[0]:.5f} t6={means[1]:.5f} t8={means[2]:.5f} non_decreasing={ok}",
    )
    assert means[0] <= means[1] <= means[2]


# 9 ------------------------------------------------------------------------


def test_serialization_round_trip_and_parser_fuzz(tmp_path):
    """Canonical files survive a round trip; the parser never fails unstructured."""
    rng = np.random.default_rng(2026)
    records = [random_record(rng, f"img-{i:04d}") for i in range(1000)]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_jsonl(records, first)
    restored = read_jsonl(first)
    lossless = len(restored) == 1000 and all(
        records_equal(a, b) for a, b in zip(records, restored)
    )
    write_jsonl(restored, second)
    stable = first.read_bytes() == second.read_bytes()

    alphabet = list(string.printable)
    structured = 0
    parsed = 0
    for _ in range(10_000):
        choice = rng.random()
        if choice < 0.4:
            count = int(rng.integers(0, 40))
            fields = [str(rng.integers(-1000, 1000)) for _ in range(count)]
            if rng.random() < 0.5 and fields:
                fields[int(rng.integers(0, len(fields)))] = "abc"
            line = ",".join(fields)
        elif choice < 0.7:
            line = "".join(rng.choice(alphabet, int(rng.integers(0, 60))))
        else:
            line = ",".join(str(rng.uniform(-10, 10)) for _ in range(28))
        try:
            read_ctw1500(line)
            parsed += 1
        except ParseError:
            structured += 1
    ok = lossless and stable
    report(
        "A9 format-round-trip",
        ok,
        f"records=1000 lossless={lossless} byte_stable={stable} "
        f"fuzz=10000 structured_errors={structured} parsed={parsed} unstructured=0",
    )
    assert lossless
    assert stable
