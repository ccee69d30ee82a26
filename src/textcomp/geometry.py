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

import math
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

# format_hint of 14-vertex benchmark annotations: 7 vertices per long side.
CTW1500_FORMAT_HINT = "ctw1500-14pt"

# Segments per knot span when tabulating arc length for resampling.
TABLE_SEGMENTS_PER_SPAN = 1000

# Powers 0..3 of the table's local parameter tau = k / TABLE_SEGMENTS_PER_SPAN.
_POWERS = np.arange(4)
_TABLE_TAU = np.arange(TABLE_SEGMENTS_PER_SPAN + 1) / TABLE_SEGMENTS_PER_SPAN
_TABLE_POWERS = _TABLE_TAU ** _POWERS[:, None]
_UNIT_SPAN = np.array([0.0, 1.0])

# Cubic Bezier control points to power coefficients: curve(t) = [1, t, t^2, t^3] @ (_BERN @ ctrl).
_BERN = np.array(
    [[1.0, 0.0, 0.0, 0.0], [-3.0, 3.0, 0.0, 0.0], [3.0, -6.0, 3.0, 0.0], [-1.0, 3.0, -3.0, 1.0]]
)
# Rows of t powers times multipliers for the curve and its first two derivatives:
# [1, t, t^2, t^3], [0, 1, 2t, 3t^2] and [0, 0, 2, 6t].
_NEWTON_EXP = np.array([0, 1, 2, 3, 0, 0, 1, 2, 0, 0, 0, 1])
_NEWTON_MUL = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 2.0, 6.0])


def _as_points(
    arr, name: str, min_len: int, trailing: tuple[int, ...] = (2,), lead: tuple[str, ...] = ("n",)
) -> np.ndarray:
    """arr as a float array of shape (*lead, *trailing) with finite entries.

    The one coordinate validator of the package: lead names the free axes
    for the error message, and the first axis needs at least min_len entries.
    """
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != len(lead) + len(trailing) or pts.shape[len(lead) :] != trailing:
        expected = ", ".join([*lead, *map(str, trailing)])
        raise ValueError(f"{name} must have shape ({expected}), got {pts.shape}")
    if pts.shape[0] < min_len:
        raise ValueError(f"{name} has {pts.shape[0]} entries, needs at least {min_len}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return pts


def _as_scores(arr, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """arr as a float array of the given shape with every entry in [0, 1].

    The one validator for confidence scores in the package; NaN and
    infinities fail the range test.
    """
    scores = np.asarray(arr, dtype=float)
    if scores.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {scores.shape}")
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        raise ValueError(f"{name} must be finite and lie in [0, 1]")
    return scores


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
    present, holds one confidence per component. Quads are checked by
    ``_as_points`` and scores by ``_as_scores``, the validators every
    constructor in the package shares.
    """

    quads: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.quads = _as_points(self.quads, "quads", 1, (4, 2), ("t",))
        if self.scores is not None:
            self.scores = _as_scores(self.scores, "scores", (len(self.quads),))

    def __len__(self) -> int:
        return len(self.quads)


def _arc_length_params(coef: np.ndarray, breakpoints: np.ndarray, m: int) -> np.ndarray | None:
    """Parameters of m equal arc-length points via a dense polyline table.

    coef holds each span's local power coefficients, shape (spans, k, 2):
    on [breakpoints[s], breakpoints[s+1]] the curve is sum_j coef[s, j] tau**j
    for the local parameter tau in [0, 1]. The table takes
    TABLE_SEGMENTS_PER_SPAN segments per span, all spans' points from one
    matmul with a constant matrix of tau powers, and inverts the cumulative
    polyline length linearly. Returns None when the curve has zero total
    length.
    """
    # (spans, 2, table points): x and y rows keep the step lengths elementwise
    d = np.diff(coef.transpose(0, 2, 1) @ _TABLE_POWERS[: coef.shape[1]], axis=2)
    d *= d
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt(d[:, 0] + d[:, 1]))])
    if cum[-1] == 0.0:
        return None
    tau = _TABLE_TAU[1:]
    # (1 - tau) a + tau b lands exactly on each span's end b
    params = breakpoints[:-1, None] * (1.0 - tau) + breakpoints[1:, None] * tau
    params = np.concatenate([breakpoints[:1], params.ravel()])
    return np.interp(np.linspace(0.0, cum[-1], m), cum, params)


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
    breakpoints = np.concatenate([[0.0], interior, [1.0]])
    # Taylor coefficients at each span start, scaled to the local parameter
    start, width = breakpoints[:-1], np.diff(breakpoints)[:, None]
    coef = np.stack(
        [curve(start, nu=j) * (width**j / math.factorial(j)) for j in range(degree + 1)], axis=1
    )
    params = _arc_length_params(coef, breakpoints, m)
    if params is None:  # all vertices coincide
        return np.repeat(side[:1], m, axis=0)
    pts = curve(params)
    pts[[0, -1]] = side[[0, -1]]  # the evaluation can miss an endpoint by an ulp
    return pts


def _bezier_control(sides: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Least-squares control points at fixed parameters t, shape (S, 4, 2).

    The end control points are pinned to each side's endpoints; the two
    interior ones are each side's lstsq solution, which is also defined for
    the rank-1 system of a 3-vertex side.
    """
    p0, p3 = sides[:, :1], sides[:, -1:]
    s = 1.0 - t
    basis = np.stack([3.0 * t * s**2, 3.0 * t**2 * s], axis=2)
    rhs = sides - (s**3)[..., None] * p0 - (t**3)[..., None] * p3
    interior = [np.linalg.lstsq(b, r, rcond=None)[0] for b, r in zip(basis, rhs)]
    return np.concatenate([p0, np.stack(interior), p3], axis=1)


def _bezier_fit_sides(sides: np.ndarray, m: int) -> np.ndarray:
    """Batched ``bezier_fit_side`` for S sides of equal vertex count, shape (S, m, 2).

    Every side runs the same fixed map: the chord-length start, then exactly
    32 rounds of three Newton steps and a refit. Sides in a batch do not
    interact, so each gets the result it would get alone.
    """
    chord = np.linalg.norm(np.diff(sides, axis=1), axis=2)
    total = chord.sum(axis=1)
    if (total == 0.0).any():
        raise ValueError("cannot fit a curve through coincident points")
    p0, p3 = sides[:, 0], sides[:, -1]
    if sides.shape[1] == 2:
        ctrl = np.stack([p0, p0 + (p3 - p0) / 3.0, p0 + 2.0 * (p3 - p0) / 3.0, p3], axis=1)
    else:
        t = np.concatenate([np.zeros((len(sides), 1)), np.cumsum(chord, axis=1)], axis=1)
        t /= total[:, None]
        ctrl = _bezier_control(sides, t)
        for _ in range(32):
            coef = (_BERN @ ctrl)[:, None]
            for _ in range(3):
                # offset from the vertex, first and second derivative at t from one matmul
                basis = t[..., None] ** _NEWTON_EXP * _NEWTON_MUL
                terms = basis.reshape(*t.shape, 3, 4) @ coef
                terms[:, :, 0] -= sides
                # dots[..., i, j]: term i . term j for j in (offset, first derivative)
                dots = terms @ terms[:, :, :2].swapaxes(2, 3)
                f = dots[..., 0, 1]
                fp = dots[..., 1, 1] + dots[..., 2, 0]
                step = np.divide(f, fp, out=np.zeros(f.shape), where=np.abs(fp) > 1e-12)
                t = np.minimum(np.maximum(t - step, 0.0), 1.0)
            t[:, 0], t[:, -1] = 0.0, 1.0
            ctrl = _bezier_control(sides, t)
    out = np.empty((len(sides), m, 2))
    for i, coef in enumerate(_BERN @ ctrl):
        params = _arc_length_params(coef[None], _UNIT_SPAN, m)
        if params is None:
            out[i] = sides[i, 0]
        else:
            out[i] = params[:, None] ** _POWERS @ coef
            out[i, [0, -1]] = sides[i, [0, -1]]  # the power basis can miss an endpoint by an ulp
    return out


def bezier_fit_side(side, m: int) -> np.ndarray:
    """Resample a side into m points along a least-squares cubic Bezier fit.

    Endpoints are pinned to the side's endpoints. Starting from chord-length
    parameters, the fit alternates solving for the two interior control
    points with Newton reprojection of the side's vertices onto the current
    curve (Hoschek-style parameter correction), for exactly 32 rounds of
    three Newton steps and a refit. Output points are equally
    spaced in arc length along the fitted curve (the polyline table of
    ``_arc_length_params`` on the single span [0, 1]), and the first and
    last coincide exactly with the side's endpoints. This is the one-side
    case of the batched fit that ``decompose`` runs on both sides at once.

    On scattered point clouds and on sides with runs of vertices equal to an
    endpoint the reprojection need not settle in 32 rounds, and the fit moves
    by up to about 0.15 of the side's scale under rounding-level changes of
    its input or arithmetic. There the points differ from those of earlier
    versions (which evaluated the curve in Bernstein form) by as much, while
    the vertices are fitted as closely on the whole.
    """
    side = _as_points(side, "side", 2)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return _bezier_fit_sides(side[None], m)[0]


def _poly_vertices(poly) -> np.ndarray:
    if isinstance(poly, Polygon):
        return poly.vertices
    return _as_points(poly, "polygon", 3)


def split_long_sides(poly, format_hint: str | None = None) -> TextContour:
    """Split a simple annotation polygon into its two long sides.

    With format_hint=CTW1500_FORMAT_HINT ("ctw1500-14pt") the fixed layout
    of 14-vertex annotations is used: vertices 0..6 are one side, vertices
    13..7 (reversed into start-aligned order) the other. Otherwise the head
    and tail edges are found by corner sharpness: edge pairs are ranked by
    total exterior turning angle at their endpoints, ties broken toward
    equal side arc lengths, then toward shorter head/tail edges.
    """
    v = _poly_vertices(poly)
    n = len(v)
    if format_hint == CTW1500_FORMAT_HINT:
        if n != 14:
            raise ValueError(f"{CTW1500_FORMAT_HINT} polygons have 14 vertices, got {n}")
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
    Both fits place the points with the polyline table of
    ``_arc_length_params``. Under "bezier", two sides with the same vertex
    count are fitted in one batch, each to what ``bezier_fit_side`` gives it
    alone; otherwise they are fitted one at a time.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if method == "bspline":
        a = resample_side(contour.side_a, t + 1)
        b = resample_side(contour.side_b, t + 1)
    elif method == "bezier":
        if len(contour.side_a) == len(contour.side_b):
            a, b = _bezier_fit_sides(np.stack([contour.side_a, contour.side_b]), t + 1)
        else:
            (a,) = _bezier_fit_sides(contour.side_a[None], t + 1)
            (b,) = _bezier_fit_sides(contour.side_b[None], t + 1)
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


def has_shared_edges(seq: ComponentSequence) -> bool:
    """True if adjacent quads agree about their shared edge within 1e-6."""
    q = seq.quads
    if len(q) < 2:
        return True
    top = np.abs(q[:-1, 1] - q[1:, 0]).max()
    bot = np.abs(q[:-1, 2] - q[1:, 3]).max()
    return bool(max(top, bot) <= 1e-6)


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
