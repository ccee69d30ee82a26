"""Synthetic curved-ribbon instances for tests and benchmarks.

A ribbon is built from a smooth centerline (a random piecewise-linear
heading profile integrated along arc length) plus a slowly varying
half-width profile swept along the normals. Both sides are sampled at a
fixed vertex count, giving a two-sided contour whose outline is validated to
be simple; degenerate draws are retried with derived seeds.

Default sizes mirror text-line annotations: a near-constant stroke width
and a heading that wanders through several gentle inflections, so the
two-sided outline stays simple while still exercising curved-shape code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ComponentSequence,
    TextContour,
    contour_polygon,
    decompose,
    is_simple,
)

__all__ = ["RibbonParams", "GenerationError", "gen_ribbon", "perturb", "gen_scene"]

# Confidence attached to a perturbed sequence drops linearly with jitter size.
SCORE_NOISE_SLOPE = 0.1

# Fewest centreline samples per ribbon; a ribbon takes one per side vertex when it has more.
_DENSE_STEPS = 256
# Knots of the piecewise-linear heading profile.
_HEADING_KNOTS = 16
# Draws per ribbon before gen_ribbon gives up.
_MAX_ATTEMPTS = 32


class GenerationError(RuntimeError):
    """Raised when no valid ribbon is found within the retry budget."""


@dataclass(frozen=True)
class RibbonParams:
    """Shape distribution for generated ribbons.

    curvature bounds |d(heading)/d(arc length)| in radians per unit length;
    length and half_width are uniform sampling ranges in pixels.
    """

    length: tuple[float, float] = (120.0, 200.0)
    half_width: tuple[float, float] = (16.0, 28.0)
    curvature: float = 0.006
    side_vertices: int = 7

    def __post_init__(self) -> None:
        for name in ("length", "half_width"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi):
                raise ValueError(f"{name} range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        if self.curvature < 0.0:
            raise ValueError(f"curvature must be >= 0, got {self.curvature}")
        if self.side_vertices < 2:
            raise ValueError(f"side_vertices must be >= 2, got {self.side_vertices}")


def _ribbon_attempt(rng: np.random.Generator, params: RibbonParams) -> TextContour:
    length = rng.uniform(*params.length)
    seg = length / (_HEADING_KNOTS - 1)
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    turns = rng.uniform(-params.curvature * seg, params.curvature * seg, _HEADING_KNOTS - 1)
    knot_s = np.linspace(0.0, length, _HEADING_KNOTS)
    knot_theta = theta0 + np.concatenate([[0.0], np.cumsum(turns)])

    dense = max(_DENSE_STEPS, params.side_vertices)
    s = np.linspace(0.0, length, dense)
    theta = np.interp(s, knot_s, knot_theta)
    step = np.diff(s)
    center = np.zeros((dense, 2))
    center[1:, 0] = np.cumsum(np.cos(theta[:-1]) * step)
    center[1:, 1] = np.cumsum(np.sin(theta[:-1]) * step)

    base_width = rng.uniform(*params.half_width)
    width_knots = np.clip(base_width * rng.uniform(0.9, 1.1, 4), *params.half_width)
    width = np.interp(s, np.linspace(0.0, length, 4), width_knots)
    normal = np.stack([-np.sin(theta), np.cos(theta)], axis=1)

    idx = np.round(np.linspace(0, dense - 1, params.side_vertices)).astype(int)
    side_a = center[idx] + width[idx, None] * normal[idx]
    side_b = center[idx] - width[idx, None] * normal[idx]
    return TextContour(side_a=side_a, side_b=side_b)


def gen_ribbon(seed: int, params: RibbonParams | None = None) -> TextContour:
    """Generate one ribbon contour whose outline is a simple polygon."""
    params = params or RibbonParams()
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        contour = _ribbon_attempt(rng, params)
        if is_simple(contour_polygon(contour)):
            return contour
    raise GenerationError(
        f"no simple ribbon outline found in {_MAX_ATTEMPTS} attempts for seed {seed}"
    )


def perturb(
    contour: TextContour, noise_px: float, seed: int, t: int = 6
) -> ComponentSequence:
    """Decompose a contour and jitter every corner, simulating a prediction.

    Corner offsets are uniform in [-noise_px, noise_px] per coordinate; the
    attached per-component confidence decays linearly with the noise level.
    """
    if noise_px < 0.0:
        raise ValueError(f"noise_px must be >= 0, got {noise_px}")
    seq = decompose(contour, t)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-noise_px, noise_px, seq.quads.shape)
    score = float(np.clip(1.0 - SCORE_NOISE_SLOPE * noise_px, 0.0, 1.0))
    return ComponentSequence(
        quads=seq.quads + jitter,
        scores=np.full(len(seq.quads), score),
    )


def gen_scene(
    seed: int,
    instance_count: int,
    canvas: tuple[float, float] = (1024.0, 768.0),
    params: RibbonParams | None = None,
) -> list[TextContour]:
    """Generate ribbons placed independently on a canvas.

    Each instance uses a seed derived from the scene seed, is scaled down if
    it would not fit, and is translated to a uniform position with its
    bounding box inside the canvas.
    """
    if instance_count < 0:
        raise ValueError(f"instance_count must be >= 0, got {instance_count}")
    w, h = canvas
    if not (w > 0 and h > 0):
        raise ValueError(f"canvas sides must be positive, got {canvas}")
    params = params or RibbonParams()
    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2**63, size=instance_count)
    scene: list[TextContour] = []
    for child in child_seeds:
        contour = gen_ribbon(int(child), params)
        pts = np.concatenate([contour.side_a, contour.side_b])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        extent = hi - lo
        scale = min(1.0, 0.9 * w / max(extent[0], 1e-9), 0.9 * h / max(extent[1], 1e-9))
        side_a = (contour.side_a - lo) * scale
        side_b = (contour.side_b - lo) * scale
        extent = extent * scale
        offset = rng.uniform([0.0, 0.0], [w - extent[0], h - extent[1]])
        scene.append(TextContour(side_a=side_a + offset, side_b=side_b + offset))
    return scene
