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

# Interior chord parameters within this of 0 or 1 are snapped onto the
# endpoint by the Bezier fit. When every interior vertex sits near parameter
# t, the fit moves by about e / t**2 for an input error e (relative to the
# chord), so snapping below 1e-6 bounds that response near 1e12 e.
_ENDPOINT_SNAP = 1e-6

# Largest coordinate magnitude the package accepts. Two accepted coordinates
# differ by at most 2e150, so a squared difference or a product of two
# differences is at most 4e300: the squared steps of the arc-length table,
# piou_exact's crossing test, and its covered length times slab height all
# stay finite. That leaves a factor of
# about 4e7 below float64's 1.8e308 for the sums of such terms and for Bezier
# control points that lie outside the vertices' box.
COORD_BOUND = 1e150


def _as_points(
    arr, name: str, min_len: int, trailing: tuple[int, ...] = (2,), lead: tuple[str, ...] = ("n",)
) -> np.ndarray:
    """arr as a float array of shape (*lead, *trailing) with entries in [-COORD_BOUND, COORD_BOUND].

    The one coordinate validator of the package: lead names the free axes
    for the error message, and the first axis needs at least min_len entries.
    NaN and infinities fail the range test.
    """
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != len(lead) + len(trailing) or pts.shape[len(lead) :] != trailing:
        expected = ", ".join([*lead, *map(str, trailing)])
        raise ValueError(f"{name} must have shape ({expected}), got {pts.shape}")
    if pts.shape[0] < min_len:
        raise ValueError(f"{name} has {pts.shape[0]} entries, needs at least {min_len}")
    # max propagates NaN, and NaN compares false
    if pts.size and not np.abs(pts).max() <= COORD_BOUND:
        raise ValueError(f"{name} has coordinates that are not finite or exceed {COORD_BOUND:g}")
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


def bezier_fit_side(side, m: int) -> np.ndarray:
    """Resample a side into m points along its least-squares cubic Bezier fit.

    The fit is ABCNet's construction (Liu et al., CVPR 2020): every vertex
    gets its cumulative chord length over the total as its parameter, the
    end control points are the side's endpoints, and the two interior ones
    are the minimum-norm least-squares solution at those fixed parameters,
    solved as offsets from the straight chord. There is no parameter
    reprojection, so the fit is a closed form of its input; a 2-vertex side
    gives the straight segment. An interior vertex whose parameter lies
    within _ENDPOINT_SNAP of 0 or 1 is fitted as a copy of that endpoint.
    Output points are equally spaced in arc length along the fitted curve
    (the polyline table of ``_arc_length_params`` on the single span
    [0, 1]), and the first and last coincide exactly with the side's
    endpoints.
    """
    side = _as_points(side, "side", 2)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    chord = np.linalg.norm(np.diff(side, axis=0), axis=1)
    total = chord.sum()
    if total == 0.0:
        raise ValueError("cannot fit a curve through coincident points")
    t = np.concatenate([[0.0], np.cumsum(chord)]) / total
    # An interior vertex this close to an endpoint fixes no control point
    # beyond rounding; snapped onto it, its row vanishes as an exact copy's does.
    inner = t[1:-1]
    inner[inner < _ENDPOINT_SNAP] = 0.0
    inner[inner > 1.0 - _ENDPOINT_SNAP] = 1.0
    s = 1.0 - t
    p0, d = side[:1], side[-1:] - side[:1]
    # offsets from p0 + t d keep a rank-deficient side's fit the same under
    # translation and rotation
    basis = np.stack([3.0 * t * s**2, 3.0 * t**2 * s], axis=1)
    offset = np.linalg.lstsq(basis, side - p0 - t[:, None] * d, rcond=None)[0]
    interior = p0 + np.array([[1.0], [2.0]]) * d / 3.0 + offset
    coef = _BERN @ np.concatenate([p0, interior, side[-1:]])
    params = _arc_length_params(coef[None], _UNIT_SPAN, m)
    if params is None:
        return np.repeat(p0, m, axis=0)
    pts = params[:, None] ** _POWERS @ coef
    pts[[0, -1]] = side[[0, -1]]  # the power basis can miss an endpoint by an ulp
    return pts


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
    ``_arc_length_params``. Points a fit places beyond COORD_BOUND are
    clamped to it.
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
    # a fit can overshoot the vertices, so a contour near the bound still decomposes
    np.clip(quads, -COORD_BOUND, COORD_BOUND, out=quads)
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
    # signs, not the product: a product of two crosses can overflow or underflow
    straddle = np.sign(s1) * np.sign(s2) < 0.0
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
