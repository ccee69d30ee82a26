"""Calibrated classification losses, their gradients, and the checker."""

import math
import warnings

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
from textcomp.losses import EPSILON, _focal_terms

# Scalar values computed by hand from the closed forms (alpha 0.25, gamma 2).
FOCAL_06_POS = 0.020433024950639634
FOCAL_03_POS = 0.14748666852992715
FOCAL_03_NEG = 0.02407555871586444
FOCAL_09_NEG = 1.398820443993883




def _log(x):
    return np.log(np.maximum(x, EPSILON))


def two_branch_focal_terms(p, positive, alpha, gamma):
    """Test-only oracle: both focal branches on every element, one kept.

    Its gradients are NaN where a discarded branch or a saturated score hits
    0 * inf at gamma < 1, so it is compared only at gamma >= 1.
    """
    pos_val = -alpha * (1.0 - p) ** gamma * _log(p)
    pos_grad = alpha * gamma * (1.0 - p) ** (gamma - 1.0) * _log(p) - alpha * (
        1.0 - p
    ) ** gamma / np.maximum(p, EPSILON)
    neg_val = -(1.0 - alpha) * p**gamma * _log(1.0 - p)
    neg_grad = -(1.0 - alpha) * gamma * p ** (gamma - 1.0) * _log(1.0 - p) + (
        1.0 - alpha
    ) * p**gamma / np.maximum(1.0 - p, EPSILON)
    return np.where(positive, pos_val, neg_val), np.where(positive, pos_grad, neg_grad)


def oracle_psc(cp, s, cn, params):
    """Test-only oracle: psc_loss with the two-branch negative terms."""
    q = s**params.alpha
    gap = q - cp
    bce = -(q * _log(cp) + (1.0 - q) * _log(1.0 - cp))
    pos_val = np.abs(gap) ** params.gamma * bce
    bce_grad = -q / np.maximum(cp, EPSILON) + (1.0 - q) / np.maximum(1.0 - cp, EPSILON)
    pos_grad = (
        params.gamma * np.abs(gap) ** (params.gamma - 1.0) * np.sign(-gap) * bce
        + np.abs(gap) ** params.gamma * bce_grad
    )
    neg_val, neg_grad = two_branch_focal_terms(cn, np.False_, 0.0, params.gamma)
    return float(pos_val.sum() + neg_val.sum()), np.concatenate([pos_grad, neg_grad])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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


SATURATED = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9])


def test_focal_terms_bitwise_equal_to_two_branch_oracle_at_gamma_from_one():
    rng = np.random.default_rng(10)
    p = np.concatenate([rng.uniform(0.0, 1.0, 2000), SATURATED])
    masks = (np.True_, np.False_, rng.uniform(size=p.size) < 0.5)
    for gamma in (1.0, 2.0, 3.7):
        for alpha in (0.0, 0.25, 1.0):
            for positive in masks:
                value, grad = _focal_terms(p, positive, alpha, gamma)
                want_value, want_grad = two_branch_focal_terms(p, positive, alpha, gamma)
                assert same_bits(value, want_value)
                assert same_bits(grad, want_grad)


def test_focal_exact_gradients_at_saturated_scores_below_gamma_one():
    # Where the target class has probability 1, r = 0 and the term
    # gamma * r**(gamma - 1) * log(q) tends to 0 because log(q) ~ -r.
    at_zero = focal_loss([0.0, 1.0], [False, True], gamma=0.0)
    assert at_zero.value == 0.0
    assert np.array_equal(at_zero.grad_scores, [0.75, -0.25])
    at_half = focal_loss([0.0, 1.0], [False, True], gamma=0.5)
    assert at_half.value == 0.0
    assert np.array_equal(at_half.grad_scores, [0.0, 0.0])
    for gamma in (0.0, 0.5):
        for positive in (True, False):
            grads = focal_loss(SATURATED, np.full(4, positive), gamma=gamma).grad_scores
            assert np.isfinite(grads).all()


def test_losses_raise_no_runtime_warning_at_saturated_scores():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (0.0, 0.5, 1.0, 2.0):
            focal_loss(SATURATED, [True, False, True, False], gamma=gamma)
            psc_loss([0.5, 1.0, 0.0], [0.5, 1.0, 0.0], [0.0, 1.0], LossParams(gamma=gamma))


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


def test_finite_diff_check_propagates_nan():
    x = np.linspace(0.1, 0.9, 5)

    def nan_gradient(s):
        return LossValue(float(s.sum()), np.where(np.arange(s.size) == 2, np.nan, 1.0))

    def nan_value(s):
        return LossValue(float("nan") if s[0] > 0.1 else float(s.sum()), np.ones(s.size))

    assert np.isnan(finite_diff_check(nan_gradient, x))
    assert np.isnan(finite_diff_check(nan_value, x))
    assert finite_diff_check(lambda s: LossValue(float(s.sum()), np.ones(s.size)), x) < 1e-6


def test_psc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    pious = rng.uniform(0.05, 0.95, 50)
    x = rng.uniform(0.05, 0.95, 100)
    err = finite_diff_check(
        lambda s: psc_loss(s[:50], pious, s[50:]), x
    )
    assert err <= 1e-5


def test_psc_exact_gradients_below_gamma_one():
    # A negative entry at confidence 0 and a positive entry on its target
    # both have true gradient 0; at gamma 0.5 the parent formulas gave NaN.
    result = psc_loss([0.5], [0.5], [0.0], LossParams(gamma=0.5))
    assert np.isfinite(result.value)
    assert np.array_equal(result.grad_scores[1:], [0.0])
    pious = np.array([0.7, 0.3])
    on_target = psc_loss(pious**0.25, pious, [0.0], LossParams(gamma=0.5))
    assert on_target.value == 0.0
    assert np.array_equal(on_target.grad_scores, [0.0, 0.0, 0.0])
    at_zero = psc_loss(pious**0.25, pious, [0.0, 1.0], LossParams(gamma=0.0))
    assert np.isfinite(at_zero.grad_scores).all()
    assert at_zero.grad_scores[2] == 1.0  # d/dp of -log(1 - p) at p = 0


def test_psc_bitwise_equal_to_oracle_at_gamma_from_one():
    rng = np.random.default_rng(11)
    pious = np.concatenate([rng.uniform(0.0, 1.0, 500), [0.0, 1.0, 0.5]])
    cp = np.concatenate([rng.uniform(0.0, 1.0, 500), [0.0, 1.0, 0.5**0.25]])
    cp[:20] = pious[:20] ** 0.25  # exactly on target
    cn = np.concatenate([rng.uniform(0.0, 1.0, 500), SATURATED])
    for gamma in (1.0, 2.0, 3.7):
        params = LossParams(gamma=gamma)
        result = psc_loss(cp, pious, cn, params)
        want_value, want_grad = oracle_psc(cp, pious, cn, params)
        assert same_bits(result.value, want_value)
        assert same_bits(result.grad_scores, want_grad)


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
