"""Calibrated classification losses, their gradients, and the checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textcomp import (
    LossParams,
    LossValue,
    finite_diff_check,
    focal_loss,
    l1_loss,
    psc_loss,
)

# Scalar values computed by hand from the closed forms (alpha 0.25, gamma 2).
FOCAL_06_POS = 0.020433024950639634
FOCAL_03_POS = 0.14748666852992715
FOCAL_03_NEG = 0.02407555871586444
FOCAL_09_NEG = 1.398820443993883


# ---------------------------------------------------------------- focal_loss


def test_focal_frozen_scalar_values():
    cases = [
        (0.6, True, FOCAL_06_POS),
        (0.3, True, FOCAL_03_POS),
        (0.3, False, FOCAL_03_NEG),
        (0.9, False, FOCAL_09_NEG),
    ]
    for score, positive, expected in cases:
        value = focal_loss(np.array([score]), np.array([positive])).value
        assert value == pytest.approx(expected, abs=1e-12)


def test_focal_saturated_predictions_cost_nothing():
    assert focal_loss(np.array([1.0]), np.array([True])).value == 0.0
    assert focal_loss(np.array([0.0]), np.array([False])).value == 0.0


def test_focal_sums_over_elements():
    scores = np.array([0.6, 0.3, 0.3, 0.9])
    positive = np.array([True, True, False, False])
    expected = FOCAL_06_POS + FOCAL_03_POS + FOCAL_03_NEG + FOCAL_09_NEG
    result = focal_loss(scores, positive)
    assert result.value == pytest.approx(expected, abs=1e-12)
    assert len(result.grad_scores) == 4


def test_focal_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    positive = np.arange(200) % 2 == 0
    x = rng.uniform(0.05, 0.95, 200)
    err = finite_diff_check(lambda s: focal_loss(s, positive), x)
    assert err <= 1e-5


@given(score=st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
@settings(max_examples=100, deadline=None)
def test_focal_never_negative(score):
    for positive in (True, False):
        value = focal_loss(np.array([score]), np.array([positive])).value
        assert value >= 0.0


# ------------------------------------------------------------------ psc_loss


def test_psc_frozen_scalar_value():
    # Unit overlap, alpha 0.25, confidence 0.5, gamma 2:
    # |1 - 0.5|^2 * BCE(0.5, 1) = 0.25 * ln 2.
    result = psc_loss(np.array([0.5]), np.array([1.0]), np.array([]))
    assert result.value == pytest.approx(0.25 * math.log(2.0), abs=1e-15)


def test_psc_zero_exactly_at_targets():
    scores = np.array([0.7, 0.3]) ** 0.25
    pious = np.array([0.7, 0.3])
    result = psc_loss(scores, pious, np.array([0.0]))
    assert result.value == 0.0
    assert np.all(result.grad_scores == 0.0)


def test_psc_negative_term_vanishes_at_zero_confidence():
    result = psc_loss(np.array([]), np.array([]), np.array([0.0, 1e-7]))
    assert result.value == pytest.approx(0.0, abs=1e-12)


def test_psc_reduces_to_focal_at_unit_overlap():
    # With every overlap equal to 1 the positive target saturates and the
    # whole loss collapses to the alpha=1 focal form, pointwise.
    rng = np.random.default_rng(1)
    pos = rng.uniform(0.02, 0.98, 100)
    neg = rng.uniform(0.02, 0.98, 100)
    via_psc = psc_loss(pos, np.ones(100), neg)
    pos_focal = focal_loss(pos, np.ones(100, dtype=bool), alpha=1.0)
    # closed form of the background half: score^2 * -ln(1 - score)
    neg_direct = np.sum(neg**2 * -np.log1p(-neg))
    neg_grads = -2.0 * neg * np.log1p(-neg) + neg**2 / (1.0 - neg)
    assert via_psc.value == pytest.approx(pos_focal.value + neg_direct, abs=1e-12)
    combined = np.concatenate([pos_focal.grad_scores, neg_grads])
    assert np.allclose(via_psc.grad_scores, combined, atol=1e-12)


def test_psc_stationary_at_soft_targets():
    rng = np.random.default_rng(2)
    pious = rng.uniform(0.05, 0.95, 50)
    params = LossParams()
    targets = pious**params.alpha
    result = psc_loss(targets, pious, np.array([]), params)
    assert np.max(np.abs(result.grad_scores)) <= 1e-8


def test_psc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    pious = rng.uniform(0.05, 0.95, 50)
    x = rng.uniform(0.05, 0.95, 100)
    err = finite_diff_check(
        lambda s: psc_loss(s[:50], pious, s[50:]), x
    )
    assert err <= 1e-5


def test_psc_rejects_length_mismatch():
    with pytest.raises(ValueError):
        psc_loss(np.array([0.5, 0.6]), np.array([0.9]), np.array([]))


def test_loss_params_validation():
    with pytest.raises(ValueError):
        LossParams(alpha=0.0)
    with pytest.raises(ValueError):
        LossParams(alpha=1.5)
    with pytest.raises(ValueError):
        LossParams(gamma=-0.1)
    LossParams(alpha=1.0)  # boundary allowed


@given(
    piou=st.floats(min_value=0.01, max_value=0.99),
    score=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=100, deadline=None)
def test_psc_positive_term_never_negative(piou, score):
    value = psc_loss(np.array([score]), np.array([piou]), np.array([])).value
    assert value >= 0.0


# ------------------------------------------------------------------- l1_loss


def test_l1_known_values():
    assert l1_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])).value == 0.0
    assert l1_loss(np.array([2.0, 3.0]), np.array([1.0, 2.0])).value == 1.0
    assert l1_loss(np.array([1.0, 3.0]), np.array([0.0, 0.0])).value == 2.0


def test_l1_matches_direct_formula():
    rng = np.random.default_rng(4)
    pred, target = rng.normal(size=64), rng.normal(size=64)
    expected = float(np.mean(np.abs(pred - target)))
    assert l1_loss(pred, target).value == pytest.approx(expected, rel=1e-12)


def test_l1_gradient_signs_and_tie_subgradient():
    result = l1_loss(np.array([2.0, -1.0, 5.0]), np.array([1.0, 1.0, 5.0]))
    assert np.array_equal(result.grad_scores, np.array([1.0, -1.0, 0.0]) / 3.0)


def test_l1_gradient_matches_finite_differences_away_from_ties():
    rng = np.random.default_rng(5)
    target = rng.normal(size=100)
    x = target + rng.uniform(0.5, 1.5, 100) * rng.choice([-1.0, 1.0], 100)
    err = finite_diff_check(lambda p: l1_loss(p, target), x)
    assert err <= 1e-7


def test_l1_rejects_length_mismatch():
    with pytest.raises(ValueError):
        l1_loss(np.array([1.0]), np.array([1.0, 2.0]))


# --------------------------------------------------------- finite_diff_check


def test_finite_diff_check_linear_function_is_machine_exact():
    weights = np.array([2.0, -1.0, 0.5])

    def linear(x):
        return LossValue(value=float(weights @ x), grad_scores=weights.copy())

    err = finite_diff_check(linear, np.array([1.0, 2.0, 3.0]))
    assert err <= 1e-9


def test_finite_diff_check_flags_wrong_gradient():
    def wrong(x):
        return LossValue(value=float(np.sum(x**2)), grad_scores=np.ones_like(x))

    err = finite_diff_check(wrong, np.array([2.0, 3.0]))
    assert err > 1e-2


def test_finite_diff_check_rejects_bad_epsilon():
    def quadratic(x):
        return LossValue(value=float(np.sum(x**2)), grad_scores=2.0 * x)

    with pytest.raises(ValueError):
        finite_diff_check(quadratic, np.array([1.0]), epsilon=0.0)
