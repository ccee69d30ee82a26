"""Polygon IoU estimation by counting grid centres inside each outline.

``piou_mc`` is the Polygon Monte-Carlo (PMC) estimate: it lays one
near-square grid of about k cell centres over the joint bounding box of two
outlines and counts the centres each covers under the even-odd rule. Per
grid row, ``sample_interior`` finds where an outline's edges cross the row
and ``quantize`` turns each crossing into the number of the row's centres
left of it, so coverage is counted interval by interval, never point by
point. ``piou_exact`` gives the exact even-odd IoU by slab integration,
crossing the slab mid-heights with the same row crossings and even-odd
sweep, and ``biou`` the axis-aligned box baseline. All three take polygons
(or vertex arrays); ``piou_mc`` also takes a component sequence, which it
assembles first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ComponentSequence, _poly_vertices, assemble

__all__ = [
    "PIoUConfig",
    "PIoUEstimate",
    "sample_interior",
    "quantize",
    "piou_mc",
    "piou_exact",
    "biou",
]


@dataclass(frozen=True)
class PIoUConfig:
    """Sampling configuration: about k_samples grid centres per pair."""

    k_samples: int = 10_000

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")


@dataclass(frozen=True)
class PIoUEstimate:
    """IoU estimate with the grid centres covered by both and by either outline."""

    value: float
    intersection_cells: int
    union_cells: int


def sample_interior(vertices: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of a closed outline's edges with the rows at sorted heights ys.

    Returns (row, x): the row index and x of each crossing. Each edge is
    taken from its lower end (xa, ya) to its upper end (xb, yb), so an edge
    gives the same crossings in either direction, and it crosses row y when
    ya <= y < yb: horizontal edges cross nothing, and every row is crossed
    an even number of times. The crossing is xa + f (xb - xa) with f in
    [0, 1), so nothing overflows for coordinates within COORD_BOUND.
    """
    return _row_crossings(ys, *_edges(vertices))


def _edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower ends (xa, ya) and upper ends (xb, yb) of a closed outline's edges."""
    nxt = np.roll(vertices, -1, axis=0)
    up = (vertices[:, 1] <= nxt[:, 1])[:, None]
    return np.where(up, vertices, nxt).T, np.where(up, nxt, vertices).T


def _x_at(y, x0, y0, x1, y1):
    """x at heights y in [y0, y1] of the edges from (x0, y0) up to (x1, y1).

    The crossing is x0 + f (x1 - x0) with f in [0, 1]: no slope is formed,
    so nothing overflows for coordinates within COORD_BOUND, however flat
    the edge. Callers pass only heights within each edge's extent.
    """
    return x0 + (y - y0) / (y1 - y0) * (x1 - x0)


def _row_crossings(ys, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(row, x) where the edges from lower to upper cross the rows at sorted ys."""
    (xa, ya), (xb, yb) = lower, upper
    first = np.searchsorted(ys, ya)
    counts = np.searchsorted(ys, yb) - first
    edge = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(len(edge)) + np.repeat(first - np.cumsum(counts) + counts, counts)
    return row, _x_at(ys[row], xa[edge], ya[edge], xb[edge], yb[edge])


def quantize(row: np.ndarray, x: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Flat keys row * (len(xs) + 1) + q of crossings, q the number of the
    row's centres (at sorted xs) strictly left of the crossing."""
    return row * (len(xs) + 1) + np.searchsorted(xs, x)


def _even_odd(in_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the gaps inside A and B, and inside A or B, between crossings
    sorted by (row, x), in_a marking A's crossings."""
    # each outline crosses every row an even number of times, so its
    # running parity is 0 again at each row's end
    pa, pb = np.cumsum(in_a)[:-1] & 1, np.cumsum(~in_a)[:-1] & 1
    return pa & pb, pa | pb


def _outline(shape) -> np.ndarray:
    return assemble(shape).vertices if isinstance(shape, ComponentSequence) else _poly_vertices(shape)


def piou_mc(poly_a, poly_b, config: PIoUConfig | None = None) -> PIoUEstimate:
    """Polygon Monte-Carlo IoU: the share of covered grid centres covered by both.

    Takes polygons or vertex arrays; a component sequence is assembled into
    its outline first. The grid has rows x cols ~ k_samples centres, each
    count clamped to [1, k_samples], with near-square cells over the joint
    bounding box. A centre is inside an outline under the even-odd rule,
    taken along its row (see sample_interior), so a bow-tie covers both
    lobes and the estimate is symmetric in its arguments. Identical
    outlines give exactly 1.0, and outlines whose boxes are strictly apart
    on some axis exactly 0. When neither outline covers a centre (a
    zero-area outline, or one thinner than a grid step), the value is
    piou_exact's, with its empty conventions.
    """
    k = (config or PIoUConfig()).k_samples
    va, vb = _outline(poly_a), _outline(poly_b)
    pts = np.concatenate([va, vb])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    w, h = float(x1 - x0), float(y1 - y0)
    inter = union = 0
    if w > 0.0 and h > 0.0:
        # square roots first: k * h / w can overflow even when the ratio of roots cannot
        rows = min(k, max(1, round(math.sqrt(k) * math.sqrt(h) / math.sqrt(w))))
        cols = min(k, max(1, round(k / rows)))
        ys = y0 + (np.arange(rows) + 0.5) / rows * h
        xs = x0 + (np.arange(cols) + 0.5) / cols * w
        keys_a, keys_b = (quantize(*sample_interior(v, ys), xs) for v in (va, vb))
        keys = np.concatenate([keys_a, keys_b])
        order = np.argsort(keys, kind="stable")
        both, either = _even_odd(order < len(keys_a))
        steps = np.diff(keys[order])
        inter, union = int(steps @ both), int(steps @ either)
    value = inter / union if union > 0 else piou_exact(va, vb)
    return PIoUEstimate(value, inter, union)


# Elements per (rows x edges) block: bounds memory for inputs with many crossings.
_BLOCK = 1 << 16


def _crossing_heights(x0, y0, x1, y1) -> list[np.ndarray]:
    """Heights where two edges strictly swap x-order, over all edge pairs."""
    n = len(x0)
    out = [np.empty(0)]
    step = max(1, _BLOCK // max(n, 1))
    for s in range(0, n, step):
        block = slice(s, min(n, s + step))
        shared = np.maximum(y0[block, None], y0) < np.minimum(y1[block, None], y1)
        i, j = np.nonzero(shared & (np.arange(s, block.stop)[:, None] < np.arange(n)))
        i += s
        lo, hi = np.maximum(y0[i], y0[j]), np.minimum(y1[i], y1[j])
        edge_i, edge_j = (x0[i], y0[i], x1[i], y1[i]), (x0[j], y0[j], x1[j], y1[j])
        d_lo = _x_at(lo, *edge_i) - _x_at(lo, *edge_j)
        d_hi = _x_at(hi, *edge_i) - _x_at(hi, *edge_j)
        hit = d_lo * d_hi < 0.0
        out.append(lo[hit] + (hi - lo)[hit] * (d_lo[hit] / (d_lo - d_hi)[hit]))
    return out


def piou_exact(poly_a, poly_b) -> float:
    """Exact polygon IoU under the even-odd rule, by slab integration.

    A point is inside when a ray from it crosses the boundary an odd number
    of times, so a bow-tie covers both lobes and a zero-area outline covers
    nothing. Slabs are cut at every vertex height and every height where
    two edges of either polygon cross; inside a slab the edges' x-order is
    fixed, so covered lengths are linear in y and mid-height length times
    slab height is exact. Empty conventions: both areas zero -> 1.0, one
    zero -> 0.0.
    """
    edges = [_edges(_poly_vertices(p)) for p in (poly_a, poly_b)]
    (x0, y0), (x1, y1) = (np.concatenate(ends, axis=1) for ends in zip(*edges))
    ys = np.unique(np.concatenate([y0, y1, *_crossing_heights(x0, y0, x1, y1)]))
    mids, heights = 0.5 * (ys[:-1] + ys[1:]), np.diff(ys)
    inter = union = 0.0
    step = max(1, _BLOCK // len(x0))
    for s in range(0, len(mids), step):
        (row_a, x_a), (row_b, x_b) = (_row_crossings(mids[s : s + step], *e) for e in edges)
        row, x = np.concatenate([row_a, row_b]), np.concatenate([x_a, x_b])
        rank = np.empty_like(row)
        rank[np.argsort(x)] = np.arange(len(x))
        # each edge's crossings arrive as one run of rising keys, which a stable sort merges
        order = np.argsort(row * len(x) + rank, kind="stable")
        both, either = _even_odd(order < len(x_a))
        area = np.diff(x[order]) * heights[s + row[order[:-1]]]
        # einsum, not a float @, which would call BLAS and its thread pool
        inter += np.einsum("i,i", area, both)
        union += np.einsum("i,i", area, either)
    return float(inter / union) if union > 0.0 else 1.0


def biou(poly_a, poly_b) -> float:
    """IoU of the axis-aligned bounding boxes of two polygons."""
    va = _poly_vertices(poly_a)
    vb = _poly_vertices(poly_b)
    amin, amax = va.min(axis=0), va.max(axis=0)
    bmin, bmax = vb.min(axis=0), vb.max(axis=0)
    iw = max(0.0, float(min(amax[0], bmax[0]) - max(amin[0], bmin[0])))
    ih = max(0.0, float(min(amax[1], bmax[1]) - max(amin[1], bmin[1])))
    inter = iw * ih
    area_a = float((amax[0] - amin[0]) * (amax[1] - amin[1]))
    area_b = float((bmax[0] - bmin[0]) * (bmax[1] - bmin[1]))
    union = area_a + area_b - inter
    if union <= 0.0:
        return 1.0 if np.array_equal([amin, amax], [bmin, bmax]) else 0.0
    return inter / union
