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

import functools
from dataclasses import dataclass

import numpy as np

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

# Powers 0..3 of a span's local parameter tau, and the steps of powers 1..3
# between consecutive table points tau = k / TABLE_SEGMENTS_PER_SPAN (power 0
# takes no step).
_POWERS = np.arange(4)
_TABLE_TAU = np.arange(TABLE_SEGMENTS_PER_SPAN + 1) / TABLE_SEGMENTS_PER_SPAN
_TABLE_STEPS = np.diff(_TABLE_TAU ** _POWERS[1:, None])

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


def _arc_length_params(coef: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Spans and local parameters of m equal arc-length points via a dense polyline table.

    coef holds each span's local power coefficients, shape (spans, k, 2):
    on span s the curve is sum_j coef[s, j] tau**j for the local parameter
    tau in [0, 1]. The table takes TABLE_SEGMENTS_PER_SPAN segments per
    span, all spans' steps from one matmul with a constant matrix of steps
    of tau powers, and inverts the cumulative polyline length linearly at
    the m targets only: each target's table segment and its fraction of
    that segment give the span and local tau of its point. On a curve
    parametrised over breakpoints, the parameter is (1 - tau) a + tau b for
    the span [a, b]. A target at the length of a run of zero-length segments
    takes the run's last point, and the last target the curve's end.
    Returns (span, tau), or None when the curve has zero total length.
    """
    # (spans, 2, table steps): x and y rows keep the step lengths elementwise
    d = coef[:, 1:].transpose(0, 2, 1) @ _TABLE_STEPS[: coef.shape[1] - 1]
    d *= d
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt(d[:, 0] + d[:, 1]))])
    if cum[-1] == 0.0:
        return None
    targets = np.linspace(0.0, cum[-1], m)
    seg = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(cum) - 2)
    width = cum[seg + 1] - cum[seg]
    # only the last target can sit on a zero-length segment: it is the end
    frac = np.divide(targets - cum[seg], width, out=np.ones(m), where=width > 0.0)
    span, step = np.divmod(seg, TABLE_SEGMENTS_PER_SPAN)
    return span, (step + frac) / TABLE_SEGMENTS_PER_SPAN


@functools.lru_cache(maxsize=64)
def _span_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clamped uniform B-spline on n control points as per-span power-basis maps.

    The spline has degree min(3, n - 1), so k = degree + 1 control points
    act on each of its n - degree spans, and uniform knots, so span s covers
    [s, s + 1] / (n - degree) of its parameter. Returns (blocks, which,
    window): blocks[which[s]] @ side[window[s]] are span s's local power
    coefficients, sum_j coef[j] tau**j for tau in [0, 1], and window[s] is
    s..s+k-1. Every span's local knots, in units of the span width, are
    -degree..degree+1 clipped at the clamped ends, so only the degree - 1
    spans nearest each end differ from the interior ones and the entry takes
    O(n) memory. Its arrays are read-only.
    """
    degree = min(3, n - 1)
    s = np.arange(n - degree)
    # knots clamp at -lo and hi + 1 spans from the span start
    lo = np.minimum(s, degree - 1)
    hi = np.minimum(s[::-1], degree - 1)
    keys, which = np.unique(lo * degree + hi, return_inverse=True)
    blocks = np.stack([_span_block(degree, *divmod(int(key), degree)) for key in keys])
    window = s[:, None] + np.arange(degree + 1)
    for arr in (blocks, which, window):
        arr.flags.writeable = False
    return blocks, which, window


@functools.cache  # degree <= 3 and lo, hi < degree: at most 14 blocks
def _span_block(degree: int, lo: int, hi: int) -> np.ndarray:
    """Power coefficients of the degree + 1 B-splines alive on the span [0, 1].

    Cox-de Boor on polynomials in tau over the knots -degree..degree+1
    clipped to [-lo, hi + 1]; row j of the result holds the tau**j
    coefficient of each basis function, in control-point order.
    """
    t = np.clip(np.arange(-degree, degree + 2), -lo, hi + 1).astype(float)

    def ramp(p: np.ndarray, zero: float, one: float) -> np.ndarray:
        """p times the linear function that is 0 at tau = zero and 1 at tau = one."""
        out = -zero * p
        out[1:] += p[:-1]
        return out / (one - zero)

    # basis[i] holds the coefficients of the function starting at knot t[i]
    basis = np.zeros((2 * degree + 1, degree + 1))
    basis[degree, 0] = 1.0
    for r in range(1, degree + 1):
        nxt = np.zeros_like(basis)
        for i in range(2 * degree + 1 - r):
            if t[i + r] > t[i]:
                nxt[i] += ramp(basis[i], t[i], t[i + r])
            if t[i + r + 1] > t[i + 1]:
                nxt[i] += ramp(basis[i + 1], t[i + r + 1], t[i + 1])
        basis = nxt
    return basis[: degree + 1].T


def resample_side(side, m: int) -> np.ndarray:
    """Resample a side into m points equally spaced along its B-spline fit.

    The fit is a clamped uniform B-spline with the side's vertices as control
    points: degree 3, lowered to len(side)-1 when the side has fewer than 4
    vertices. Each span's power coefficients come from the per-vertex-count
    basis of ``_span_basis`` (cached) applied to the span's control points,
    ``_arc_length_params`` places the points, and each is evaluated on its
    span in the power basis. The first and last output points coincide
    exactly with the side's endpoints. m = 2 returns just the endpoints.
    """
    side = _as_points(side, "side", 2)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    blocks, which, window = _span_basis(len(side))
    coef = blocks[which] @ side[window]
    targets = _arc_length_params(coef, m)
    if targets is None:  # all vertices coincide
        return np.repeat(side[:1], m, axis=0)
    span, tau = targets
    pts = ((tau[:, None] ** _POWERS[: coef.shape[1]])[:, None] @ coef[span])[:, 0]
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
    targets = _arc_length_params(coef[None], m)
    if targets is None:
        return np.repeat(p0, m, axis=0)
    pts = targets[1][:, None] ** _POWERS @ coef
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
    equal side arc lengths, then toward shorter head/tail edges. The balance
    of two side lengths is the shorter over the longer, and 0 where both
    vanish.
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
    longer = np.maximum(la, lb)
    # both lengths cancel to 0 when a long edge dwarfs the sides' own lengths
    balance = np.divide(np.minimum(la, lb), longer, out=np.zeros_like(la), where=longer > 0.0)
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
