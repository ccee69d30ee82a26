"""Geometry for curved text regions.

A text region is bounded by two long sides (``TextContour``). Each side is
fitted with a clamped B-spline over its annotated vertices, resampled into
equal arc-length points, and the two resampled sides are zipped into a chain
of quadrilateral components (``ComponentSequence``). ``assemble`` closes a
sequence back into a polygon. ``is_simple`` tests an outline for self-crossings.

Conventions: points are float64 arrays of shape (2,), point lists are arrays
of shape (n, 2). Quad corners are ordered top-left, top-right, bottom-right,
bottom-left, where "top" is side_a. Both sides of a contour are stored
start-aligned: side_a[0] and side_b[0] sit at the same end of the text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

__all__ = [
    "Polygon",
    "TextContour",
    "ComponentSequence",
    "resample_side",
    "bezier_fit_side",
    "split_long_sides",
    "decompose",
    "assemble",
    "contour_polygon",
    "has_shared_edges",
    "is_simple",
]

# Segments per knot span when tabulating arc length for resampling.
TABLE_SEGMENTS_PER_SPAN = 1000


def _as_points(arr, name: str, min_points: int) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < min_points:
        raise ValueError(f"{name} needs at least {min_points} points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return pts


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


@dataclass
class Polygon:
    """Closed polygon given by its vertex ring (not repeated at the end)."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = _as_points(self.vertices, "vertices", 3)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class TextContour:
    """The two long sides of a text region, start-aligned.

    Traversing side_a forward and side_b backward yields the region's
    boundary polygon (see ``contour_polygon``); for meaningful decomposition
    that traversal should be a simple polygon.
    """

    side_a: np.ndarray
    side_b: np.ndarray

    def __post_init__(self) -> None:
        self.side_a = _as_points(self.side_a, "side_a", 2)
        self.side_b = _as_points(self.side_b, "side_b", 2)


@dataclass
class ComponentSequence:
    """Chain of quadrilateral components covering one text instance.

    quads has shape (t, 4, 2). Ground-truth chains share edges exactly:
    quads[i][1] == quads[i+1][0] and quads[i][2] == quads[i+1][3]; predicted
    chains may violate this and are reconciled by ``assemble``. scores, when
    present, holds one confidence per component.
    """

    quads: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.quads = np.asarray(self.quads, dtype=float)
        if self.quads.ndim != 3 or self.quads.shape[1:] != (4, 2):
            raise ValueError(f"quads must have shape (t, 4, 2), got {self.quads.shape}")
        if self.quads.shape[0] < 1:
            raise ValueError("sequence needs at least one component")
        if not np.isfinite(self.quads).all():
            raise ValueError("quads contain non-finite coordinates")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=float)
            if self.scores.shape != (len(self.quads),):
                raise ValueError(
                    f"scores must have shape ({len(self.quads)},), got {self.scores.shape}"
                )
            if not np.isfinite(self.scores).all():
                raise ValueError("scores contain non-finite values")
            if ((self.scores < 0) | (self.scores > 1)).any():
                raise ValueError("scores must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.quads)


def _arc_length_params(eval_fn, breakpoints: np.ndarray, m: int) -> np.ndarray | None:
    """Parameters of m equal arc-length points via a dense polyline table.

    The table uses TABLE_SEGMENTS_PER_SPAN segments per breakpoint interval
    and linear inversion of cumulative length. Returns None when the curve
    has zero total length.
    """
    pieces = []
    for s in range(len(breakpoints) - 1):
        seg = np.linspace(breakpoints[s], breakpoints[s + 1], TABLE_SEGMENTS_PER_SPAN + 1)
        pieces.append(seg if s == 0 else seg[1:])
    params = np.concatenate(pieces)
    pts = eval_fn(params)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if cum[-1] == 0.0:
        return None
    targets = np.linspace(0.0, cum[-1], m)
    return np.interp(targets, cum, params)


def resample_side(side, m: int) -> np.ndarray:
    """Resample a side into m points equally spaced along its B-spline fit.

    The fit is a clamped uniform B-spline with the side's vertices as control
    points: degree 3, lowered to len(side)-1 when the side has fewer than 4
    vertices. The first and last output points coincide exactly with the
    side's endpoints. m = 2 returns just the endpoints.
    """
    side = _as_points(side, "side", 2)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    n = len(side)
    degree = min(3, n - 1)
    interior = np.arange(1, n - degree) / (n - degree)
    knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    curve = BSpline(knots, side, degree)
    params = _arc_length_params(curve, np.concatenate([[0.0], interior, [1.0]]), m)
    if params is None:  # all vertices coincide
        return np.repeat(side[:1], m, axis=0)
    pts = curve(params)
    pts[[0, -1]] = side[[0, -1]]  # the evaluation can miss an endpoint by an ulp
    return pts


def _bezier_eval(ctrl: np.ndarray, t: np.ndarray) -> np.ndarray:
    t = t[:, None]
    s = 1.0 - t
    return (
        s**3 * ctrl[0]
        + 3.0 * t * s**2 * ctrl[1]
        + 3.0 * t**2 * s * ctrl[2]
        + t**3 * ctrl[3]
    )


def _bezier_fit(side: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Least-squares interior control points at fixed parameters t."""
    p0, p3 = side[0], side[-1]
    s = 1.0 - t
    bern = np.stack([s**3, 3.0 * t * s**2, 3.0 * t**2 * s, t**3], axis=1)
    rhs = side - np.outer(bern[:, 0], p0) - np.outer(bern[:, 3], p3)
    interior, *_ = np.linalg.lstsq(bern[:, 1:3], rhs, rcond=None)
    return np.vstack([p0, interior, p3])


def bezier_fit_side(side, m: int) -> np.ndarray:
    """Resample a side into m points along a least-squares cubic Bezier fit.

    Endpoints are pinned to the side's endpoints. Starting from chord-length
    parameters, the fit alternates solving for the two interior control
    points with Newton reprojection of the side's vertices onto the current
    curve (Hoschek-style parameter correction). Output points are equally
    spaced in arc length along the fitted curve.
    """
    side = _as_points(side, "side", 2)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    chord = np.linalg.norm(np.diff(side, axis=0), axis=1)
    total = chord.sum()
    if total == 0.0:
        raise ValueError("cannot fit a curve through coincident points")
    p0, p3 = side[0], side[-1]
    if len(side) == 2:
        ctrl = np.array([p0, p0 + (p3 - p0) / 3.0, p0 + 2.0 * (p3 - p0) / 3.0, p3])
    else:
        t = np.concatenate([[0.0], np.cumsum(chord)]) / total
        ctrl = _bezier_fit(side, t)
        for _ in range(32):
            t_old = t
            d1c = 3.0 * (ctrl[1:] - ctrl[:-1])
            d2c = 2.0 * (d1c[1:] - d1c[:-1])
            for _ in range(3):
                tt = t[:, None]
                ss = 1.0 - tt
                pos = _bezier_eval(ctrl, t) - side
                der1 = ss**2 * d1c[0] + 2.0 * tt * ss * d1c[1] + tt**2 * d1c[2]
                der2 = ss * d2c[0] + tt * d2c[1]
                f = (pos * der1).sum(axis=1)
                fp = (der1 * der1).sum(axis=1) + (pos * der2).sum(axis=1)
                step = np.where(np.abs(fp) > 1e-12, f / np.where(fp == 0.0, 1.0, fp), 0.0)
                t = np.clip(t - step, 0.0, 1.0)
            t[0], t[-1] = 0.0, 1.0
            ctrl = _bezier_fit(side, t)
            if np.abs(t - t_old).max() < 1e-10:
                break
    params = _arc_length_params(
        lambda tt: _bezier_eval(ctrl, np.asarray(tt)), np.array([0.0, 1.0]), m
    )
    if params is None:
        return np.repeat(side[:1], m, axis=0)
    return _bezier_eval(ctrl, params)


def _poly_vertices(poly) -> np.ndarray:
    if isinstance(poly, Polygon):
        return poly.vertices
    return _as_points(poly, "polygon", 3)


def split_long_sides(poly, format_hint: str | None = None) -> TextContour:
    """Split a simple annotation polygon into its two long sides.

    With format_hint="ctw1500-14pt" the fixed layout of 14-vertex annotations
    is used: vertices 0..6 are one side, vertices 13..7 (reversed into
    start-aligned order) the other. Otherwise the head and tail edges are
    found by corner sharpness: edge pairs are ranked by total exterior
    turning angle at their endpoints, ties broken toward equal side arc
    lengths, then toward shorter head/tail edges.
    """
    v = _poly_vertices(poly)
    n = len(v)
    if format_hint == "ctw1500-14pt":
        if n != 14:
            raise ValueError(f"ctw1500-14pt polygons have 14 vertices, got {n}")
        return TextContour(v[0:7], v[7:14][::-1])
    if format_hint is not None:
        raise ValueError(f"unknown format hint {format_hint!r}")
    if n < 4:
        raise ValueError("need at least 4 vertices to split into two sides")
    edges = np.roll(v, -1, axis=0) - v
    edge_len = np.linalg.norm(edges, axis=1)
    if (edge_len == 0.0).any():
        raise ValueError("polygon has a zero-length edge")
    prev = np.roll(edges, 1, axis=0)
    turn = np.abs(np.arctan2(_cross(prev, edges), (prev * edges).sum(axis=1)))
    score = turn + np.roll(turn, -1)  # sharpness of edge i = turn at both its endpoints

    # cum[k] is the polyline length from vertex 0 to vertex k
    cum = np.concatenate([[0.0], np.cumsum(edge_len)])
    i, j = np.triu_indices(n, 2)  # adjacent edges cannot bound two sides
    keep = (i > 0) | (j < n - 1)
    i, j = i[keep], j[keep]
    la = cum[j] - cum[i + 1]  # vertex i+1 to vertex j
    lb = cum[-1] - cum[j + 1] + cum[i]  # vertex j+1 round to vertex i
    balance = np.minimum(la, lb) / np.maximum(la, lb)
    # lexsort is stable, so ties go to the first pair in (i, j) order
    best = np.lexsort(
        (
            edge_len[i] + edge_len[j],
            -np.round(balance * 1e9),
            -np.round((score[i] + score[j]) * 1e9),
        )
    )[0]
    i, j = i[best], j[best]
    ring = np.roll(v, -(i + 1), axis=0)  # starts at vertex i+1
    return TextContour(ring[: j - i], ring[j - i :][::-1])


def decompose(contour: TextContour, t: int, method: str = "bspline") -> ComponentSequence:
    """Cut a contour into t quadrilateral components.

    Each side is resampled into t+1 equal arc-length points along its fitted
    curve ("bspline" default, "bezier" for the cubic Bezier alternative);
    consecutive point pairs are zipped into quads that share edges exactly.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if method == "bspline":
        a = resample_side(contour.side_a, t + 1)
        b = resample_side(contour.side_b, t + 1)
    elif method == "bezier":
        a = bezier_fit_side(contour.side_a, t + 1)
        b = bezier_fit_side(contour.side_b, t + 1)
    else:
        raise ValueError(f"unknown resampling method {method!r}")
    quads = np.stack([a[:-1], a[1:], b[1:], b[:-1]], axis=1)
    return ComponentSequence(quads=quads, scores=None)


def assemble(seq: ComponentSequence) -> Polygon:
    """Close a component sequence into its boundary polygon.

    Top points are traversed forward, bottom points backward, giving a
    2(t+1)-gon. Where adjacent quads disagree about a shared point (predicted
    chains), the midpoint of the two candidates is used; exact chains are
    reproduced vertex for vertex.
    """
    q = seq.quads
    t = len(q)
    top = np.empty((t + 1, 2))
    bot = np.empty((t + 1, 2))
    top[0], top[-1] = q[0, 0], q[-1, 1]
    bot[0], bot[-1] = q[0, 3], q[-1, 2]
    if t > 1:
        top[1:-1] = 0.5 * (q[:-1, 1] + q[1:, 0])
        bot[1:-1] = 0.5 * (q[:-1, 2] + q[1:, 3])
    return Polygon(np.concatenate([top, bot[::-1]], axis=0))


def contour_polygon(contour: TextContour) -> Polygon:
    """Boundary polygon of a contour: side_a forward, then side_b backward."""
    return Polygon(np.concatenate([contour.side_a, contour.side_b[::-1]], axis=0))


def has_shared_edges(seq: ComponentSequence, tol: float = 1e-6) -> bool:
    """True if adjacent quads agree about their shared edge within tol."""
    q = seq.quads
    if len(q) < 2:
        return True
    top = np.abs(q[:-1, 1] - q[1:, 0]).max()
    bot = np.abs(q[:-1, 2] - q[1:, 3]).max()
    return bool(max(top, bot) <= tol)


def is_simple(poly) -> bool:
    """True if the polygon has no duplicate vertices and no edge crossings.

    Non-adjacent edges may not meet at all; adjacent edges may meet only at
    their shared vertex (no collinear fold-backs).
    """
    v = _poly_vertices(poly)
    n = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    e = b - a
    if (np.linalg.norm(e, axis=1) == 0.0).any():
        return False
    # fold-back between consecutive edges: collinear and opposite direction
    nxt = np.roll(e, -1, axis=0)
    if ((_cross(e, nxt) == 0.0) & ((e * nxt).sum(axis=1) < 0.0)).any():
        return False
    # s1[i, j]: which side of edge i the start of edge j lies on
    rel_a = a[None, :, :] - a[:, None, :]
    rel_b = b[None, :, :] - a[:, None, :]
    s1 = _cross(e[:, None, :], rel_a)
    s2 = _cross(e[:, None, :], rel_b)
    straddle = s1 * s2 < 0.0
    proper = straddle & straddle.T
    # endpoint of edge j lying exactly on edge i
    lo = np.minimum(a, b)[:, None, :]
    hi = np.maximum(a, b)[:, None, :]
    on_a = (s1 == 0.0) & ((a[None] >= lo) & (a[None] <= hi)).all(axis=2)
    on_b = (s2 == 0.0) & ((b[None] >= lo) & (b[None] <= hi)).all(axis=2)
    touch = proper | on_a | on_b
    idx = np.arange(n)
    adjacent = (
        (idx[:, None] == idx[None, :])
        | ((idx[:, None] + 1) % n == idx[None, :])
        | ((idx[None, :] + 1) % n == idx[:, None])
    )
    return not (touch & ~adjacent).any()
