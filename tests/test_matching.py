"""The padded matching cost, the exact assignment solver, and scene matching."""

import itertools
import math

import numpy as np
import pytest

from textcomp import (
    CapacityError,
    ComponentSequence,
    MatchParams,
    decompose,
    gen_ribbon,
    hungarian,
    match_sequences,
    perturb,
)
from textcomp.losses import _focal_terms
from textcomp.matching import _cost_matrix

FOCAL_06_POSITIVE = 0.020433024950639634  # alpha 0.25, gamma 2, by hand


def scored(quads, score):
    quads = np.asarray(quads, dtype=float)
    return ComponentSequence(quads, scores=np.full(len(quads), score))


def scene(seed, n_preds, n_gts, t=3):
    rng = np.random.default_rng(seed)
    gts = [decompose(gen_ribbon(int(rng.integers(2**63))), t) for _ in range(n_gts)]
    preds = []
    for i in range(n_preds):
        contour = gen_ribbon(int(rng.integers(2**63)))
        preds.append(perturb(contour, 0.5, seed=1000 + i, t=t))
    return preds, gts


def seq_match_cost(pred, gt, params):
    """Test-only oracle: the cost of one prediction against one target.

    gt=None is a padding ("no object") target, which costs only the focal
    term against background. A real target adds, per frame, the mean
    absolute difference of the eight corner coordinates, summed over frames.
    """
    if pred.scores is None:
        raise ValueError("predicted sequences must carry per-component scores")
    positive = gt is not None
    cls_terms, _ = _focal_terms(pred.scores, positive, params.focal_alpha, params.focal_gamma)
    cost = params.cls_weight * float(cls_terms.sum())
    if positive:
        if gt.quads.shape != pred.quads.shape:
            raise ValueError("prediction and target must have the same component count")
        per_frame = np.abs(pred.quads - gt.quads).reshape(len(pred.quads), -1).mean(axis=1)
        cost += params.reg_weight * float(per_frame.sum())
    return cost


def oracle_matrix(preds, gts, params):
    n = len(preds)
    return np.array(
        [
            [seq_match_cost(pred, gts[j] if j < len(gts) else None, params) for j in range(n)]
            for pred in preds
        ]
    )


# ----------------------------------------------------------------- pair cost


def test_cost_zero_for_perfect_prediction():
    quads = decompose(gen_ribbon(1), 3).quads
    pred = scored(quads, 1.0)
    gt = ComponentSequence(quads)
    assert _cost_matrix([pred], [gt], MatchParams())[0, 0] == 0.0
    assert match_sequences([pred], [gt], MatchParams()).total_cost == 0.0


def test_cost_zero_for_confident_background():
    pred = scored(np.zeros((3, 4, 2)), 0.0)
    assert _cost_matrix([pred], [], MatchParams())[0, 0] == 0.0
    result = match_sequences([pred], [], MatchParams())
    assert result.assignment == {0: None}
    assert result.total_cost == 0.0


def test_cost_frozen_single_frame_example():
    # One frame, confidence 0.6, every coordinate off by one pixel: the
    # classification part is the positive focal value at 0.6 and the
    # regression part averages eight unit errors to exactly 1.
    pred = scored(np.zeros((1, 4, 2)), 0.6)
    gt = ComponentSequence(np.ones((1, 4, 2)))
    expected = FOCAL_06_POSITIVE + 1.0
    assert _cost_matrix([pred], [gt], MatchParams())[0, 0] == pytest.approx(expected, abs=1e-12)
    assert seq_match_cost(pred, gt, MatchParams()) == pytest.approx(expected, abs=1e-12)
    result = match_sequences([pred], [gt], MatchParams())
    assert result.total_cost == pytest.approx(expected, abs=1e-12)


def test_cost_requires_equal_length():
    preds = [scored(np.zeros((2, 4, 2)), 0.5)]
    gt = ComponentSequence(np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        match_sequences(preds, [gt], MatchParams())
    with pytest.raises(ValueError):
        match_sequences(preds + [scored(np.zeros((3, 4, 2)), 0.5)], [], MatchParams())


def test_cost_requires_prediction_scores():
    pred = ComponentSequence(np.zeros((2, 4, 2)))
    gt = ComponentSequence(np.zeros((2, 4, 2)))
    with pytest.raises(ValueError):
        match_sequences([pred], [gt], MatchParams())
    with pytest.raises(ValueError):
        match_sequences([pred], [], MatchParams())


def test_cost_strictly_increases_with_coordinate_error():
    gt = ComponentSequence(np.zeros((2, 4, 2)))
    preds = [scored(np.full((2, 4, 2), offset), 0.9) for offset in (0.5, 1.0, 2.0, 4.0)]
    costs = _cost_matrix(preds, [gt], MatchParams())[:, 0]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_cost_weights_select_terms():
    pred = scored(np.ones((1, 4, 2)), 0.6)
    gt = ComponentSequence(np.zeros((1, 4, 2)))
    cls_only = _cost_matrix([pred], [gt], MatchParams(reg_weight=0.0))[0, 0]
    reg_only = _cost_matrix([pred], [gt], MatchParams(cls_weight=0.0))[0, 0]
    assert cls_only == pytest.approx(FOCAL_06_POSITIVE, abs=1e-12)
    assert reg_only == pytest.approx(1.0, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        MatchParams(focal_alpha=-0.1)
    with pytest.raises(ValueError):  # focal_loss refuses alpha 0 too
        MatchParams(focal_alpha=0.0)
    with pytest.raises(ValueError):
        MatchParams(focal_gamma=-1.0)
    with pytest.raises(ValueError):
        MatchParams(cls_weight=-0.5)


# ----------------------------------------------------------------- hungarian


def brute_force_total(cost):
    n = len(cost)
    return min(
        math.fsum(cost[row][col] for row, col in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )


def test_hungarian_known_2x2():
    result = hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert result.assignment == {0: 0, 1: 1}
    assert result.total_cost == 2.0
    result = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert result.assignment == {0: 1, 1: 0}
    assert result.total_cost == 3.0


def test_hungarian_matches_brute_force_exactly():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        cost = rng.uniform(-5.0, 5.0, (n, n))
        assert hungarian(cost).total_cost == brute_force_total(cost)


def test_hungarian_assignment_is_permutation():
    rng = np.random.default_rng(3)
    cost = rng.uniform(0.0, 1.0, (6, 6))
    result = hungarian(cost)
    assert sorted(result.assignment) == list(range(6))
    assert sorted(result.assignment.values()) == list(range(6))
    assert result.total_cost == math.fsum(result.per_pair_cost)


def test_hungarian_validation():
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hungarian(np.array([[0.0, np.nan], [1.0, 2.0]]))


# ------------------------------------------------------------ match_sequences


def test_match_perfect_scene_costs_zero():
    rng = np.random.default_rng(12)
    gts = [decompose(gen_ribbon(int(rng.integers(2**63))), 3) for _ in range(4)]
    preds = [scored(g.quads, 1.0) for g in gts]
    result = match_sequences(preds, gts, MatchParams())
    assert result.total_cost == 0.0
    assert result.assignment == {i: i for i in range(4)}


def test_match_pads_spare_predictions_with_none():
    preds, gts = scene(5, n_preds=3, n_gts=1)
    result = match_sequences(preds, gts, MatchParams())
    values = list(result.assignment.values())
    assert values.count(None) == 2
    assert sorted(v for v in values if v is not None) == [0]


def test_match_empty_ground_truth_all_none():
    preds, _ = scene(6, n_preds=3, n_gts=0)
    result = match_sequences(preds, [], MatchParams())
    assert all(v is None for v in result.assignment.values())
    assert len(result.assignment) == 3


def test_match_empty_predictions():
    result = match_sequences([], [], MatchParams())
    assert result.assignment == {}
    assert result.total_cost == 0.0


def test_match_capacity_error():
    preds, gts = scene(7, n_preds=1, n_gts=2)
    with pytest.raises(CapacityError):
        match_sequences(preds, gts, MatchParams())


def test_match_total_invariant_under_prediction_shuffle():
    preds, gts = scene(9, n_preds=6, n_gts=4)
    base = match_sequences(preds, gts, MatchParams())
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(len(preds))
        shuffled = [preds[i] for i in perm]
        result = match_sequences(shuffled, gts, MatchParams())
        assert result.total_cost == base.total_cost
        # the same prediction keeps the same partner, wherever it sits
        for new_index, old_index in enumerate(perm):
            assert result.assignment[new_index] == base.assignment[old_index]


def test_match_total_invariant_under_ground_truth_shuffle():
    preds, gts = scene(10, n_preds=5, n_gts=3)
    base = match_sequences(preds, gts, MatchParams()).total_cost
    rng = np.random.default_rng(1)
    for _ in range(5):
        perm = rng.permutation(len(gts))
        shuffled = [gts[i] for i in perm]
        assert match_sequences(preds, shuffled, MatchParams()).total_cost == base


def test_match_agrees_with_pairwise_costs_and_solver():
    # Rebuild the padded cost matrix one pair at a time with the oracle: it
    # must agree with _cost_matrix entry by entry, and solving it
    # independently must give the same total.
    for seed, n_preds, n_gts in ((11, 5, 3), (12, 4, 0), (13, 4, 4)):
        preds, gts = scene(seed, n_preds, n_gts)
        for params in (MatchParams(), MatchParams(focal_alpha=0.6, focal_gamma=0.5, reg_weight=0.3)):
            expected = oracle_matrix(preds, gts, params)
            got = _cost_matrix(preds, gts, params)
            assert got.shape == expected.shape == (n_preds, n_preds)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            total = match_sequences(preds, gts, params).total_cost
            assert total == pytest.approx(hungarian(expected).total_cost, rel=1e-12, abs=1e-12)
