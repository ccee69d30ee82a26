"""Training losses with analytic gradients.

The classification target for a predicted component is not a hard label but
the overlap quality of its instance: positive scores regress toward s**alpha
where s is the instance's sampled IoU against its matched ground truth
(``psc_loss``). With s = 1 this reduces exactly to the unweighted focal loss
with positive targets. Gradients are taken with respect to the predicted
scores only; quality values are treated as constants.

Logarithms are clamped at EPSILON to stay finite at saturated scores; the
polynomial modulating factors use the raw inputs, so exact zeros at perfect
predictions are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _as_scores

__all__ = [
    "EPSILON",
    "LossParams",
    "LossValue",
    "focal_loss",
    "psc_loss",
    "l1_loss",
    "finite_diff_check",
]

EPSILON = 1e-7


@dataclass(frozen=True)
class LossParams:
    """Focusing parameters shared by the classification losses."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class LossValue:
    """A scalar loss and its gradient with respect to the scores passed in.

    For l1_loss the differentiated inputs are coordinates rather than
    scores; grad_scores then matches the shape of the predicted coordinates.
    """

    value: float
    grad_scores: np.ndarray


def _scores(arr, name: str) -> np.ndarray:
    x = np.atleast_1d(arr)
    return _as_scores(x, name, (x.size,))  # one axis of any length


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, EPSILON))


def _focal_values(scores: np.ndarray, positive: np.ndarray, alpha: float, gamma: float):
    """Per-element focal values -w * r**gamma * log(q), and (q, r, w).

    q is the probability the score gives the target class, r = 1 - q, and
    the weight w is alpha (positive) or 1 - alpha (background).
    """
    one_minus_p = 1.0 - scores
    q = np.where(positive, scores, one_minus_p)
    r = np.where(positive, one_minus_p, scores)
    w = np.where(positive, alpha, 1.0 - alpha)
    return -w * r**gamma * _log(q), (q, r, w)


def _focal_terms(scores: np.ndarray, positive: np.ndarray, alpha: float, gamma: float):
    """Per-element focal values (see _focal_values) and d(value)/d(score).

    r**(gamma - 1) is formed only where q < 1; at q == 1 its product with
    log(q) tends to 0 for every gamma >= 0, because log(q) ~ -r.
    """
    value, (q, r, w) = _focal_values(scores, positive, alpha, gamma)
    log_q = _log(q)
    r_gamma = r**gamma
    r_slope = np.power(r, gamma - 1.0, out=np.zeros_like(r), where=q < 1.0)
    a = w * gamma * r_slope * log_q
    b = w * r_gamma / np.maximum(q, EPSILON)
    return value, np.where(positive, a - b, b - a)


def focal_loss(scores, positive, alpha: float = 0.25, gamma: float = 2.0) -> LossValue:
    """Alpha-balanced focal loss summed over entries.

    positive marks which scores have a positive (real object) target; the
    rest are scored against the background target.
    """
    LossParams(alpha, gamma)
    p = _scores(scores, "scores")
    pos = np.broadcast_to(np.asarray(positive, dtype=bool), p.shape)
    values, grads = _focal_terms(p, pos, alpha, gamma)
    return LossValue(float(values.sum()), grads)


def psc_loss(pos_scores, pos_pious, neg_scores, params: LossParams | None = None) -> LossValue:
    """Overlap-calibrated classification loss.

    Positive entries pull their score toward q = piou**alpha with weight
    |q - score|**gamma on the cross entropy; negative entries are pushed to
    zero with weight score**gamma. The gradient is with respect to the
    concatenated (positive, negative) score vector; the overlap values are
    constants (no gradient flows through them).
    """
    params = params or LossParams()
    cp = _scores(pos_scores, "pos_scores")
    s = _scores(pos_pious, "pos_pious")
    cn = _scores(neg_scores, "neg_scores")
    if cp.shape != s.shape:
        raise ValueError(
            f"pos_scores and pos_pious must have equal shapes, got {cp.shape} and {s.shape}"
        )
    q = s**params.alpha
    gap = q - cp
    abs_gap = np.abs(gap)
    bce = -(q * _log(cp) + (1.0 - q) * _log(1.0 - cp))
    pos_val = abs_gap**params.gamma * bce
    bce_grad = -q / np.maximum(cp, EPSILON) + (1.0 - q) / np.maximum(1.0 - cp, EPSILON)
    # At gap == 0 sign(-gap) picks the subgradient 0; the power is left at 0
    # there so that gamma < 1 does not turn it into 0 * inf.
    gap_slope = np.power(abs_gap, params.gamma - 1.0, out=np.zeros_like(abs_gap), where=gap != 0)
    pos_grad = (
        params.gamma * gap_slope * np.sign(-gap) * bce
        + abs_gap**params.gamma * bce_grad
    )
    neg_val, neg_grad = _focal_terms(cn, np.False_, 0.0, params.gamma)
    value = float(pos_val.sum() + neg_val.sum())
    return LossValue(value, np.concatenate([pos_grad, neg_grad]))


def l1_loss(pred, target) -> LossValue:
    """Mean absolute difference; subgradient 0 at exact ties."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"pred and target must have equal shapes, got {p.shape} and {t.shape}")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise ValueError("l1_loss inputs contain non-finite values")
    diff = p - t
    value = float(np.abs(diff).mean()) if diff.size else 0.0
    grad = np.sign(diff) / max(diff.size, 1)
    return LossValue(value, grad)


def finite_diff_check(loss_fn, x, epsilon: float = 1e-6) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    loss_fn maps a 1D score array to a LossValue; the deviation per
    coordinate is |analytic - numeric| / max(1, |analytic|). A NaN gradient
    or value makes the result NaN.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    x = np.asarray(x, dtype=float)
    analytic = loss_fn(x).grad_scores
    devs = np.empty(x.size)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += epsilon
        lo[i] -= epsilon
        numeric = (loss_fn(hi).value - loss_fn(lo).value) / (2.0 * epsilon)
        devs[i] = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
    return float(devs.max(initial=0.0))  # np.max propagates NaN, builtin max drops it
