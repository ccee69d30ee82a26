"""Polygon IoU estimation by structured interior sampling.

Instead of clipping polygons against each other, each component sequence is
covered with a deterministic grid of interior points (mapped through the
quads by bilinear interpolation, spread along the chain by arc length), the
points are quantized into tolerance-sized cells, and IoU is computed on the
two cell sets. A sequence compared many times can be sampled once with
``sample_sequence``; ``piou_mc`` takes either form. Samples and cells are
(n, 2) arrays stored column-major: each coordinate column is contiguous,
so the per-pair passes (scaling, flooring, column bounds, bitmap indices)
run over contiguous memory. Any layout is accepted and gives the same
values. ``piou_exact`` provides the reference value by exact even-odd slab
integration, and ``biou`` the axis-aligned box baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ComponentSequence, _poly_vertices

__all__ = [
    "PIoUConfig",
    "PIoUEstimate",
    "SampledSequence",
    "sample_interior",
    "sample_sequence",
    "quantize",
    "piou_mc",
    "piou_exact",
    "biou",
]

# Default quantization tolerance, as a fraction of the joint bbox diagonal.
TOLERANCE_DIAGONAL_FRACTION = 0.005


@dataclass(frozen=True)
class PIoUConfig:
    """Sampling configuration.

    tolerance=None derives the cell size from the compared pair at estimate
    time (TOLERANCE_DIAGONAL_FRACTION of the joint bounding-box diagonal).
    The sampler is a deterministic structured grid, so estimates are
    reproducible for any fixed configuration.
    """

    k_samples: int = 10_000
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class PIoUEstimate:
    """IoU estimate with its cell counts and the resolved configuration."""

    value: float
    intersection_cells: int
    union_cells: int
    config: PIoUConfig


def sample_interior(seq: ComponentSequence, k: int) -> np.ndarray:
    """k deterministic interior points of a component sequence, shape (k, 2).

    A centered grid over the unit square is mapped through the chain:
    columns follow normalized arc position along the sequence, rows run
    across each quad, and each unit cell (s, w) lands in its quad by
    bilinear interpolation of the four corners. Grid rows and columns are
    chosen so mapped spacing is roughly isotropic (near-square cells in
    image space). A folded (self-intersecting) quad is therefore sampled
    over the image of its bilinear map, not over its even-odd region.
    When the grid has more than k points, k of them are kept at evenly
    spaced row-major indices. The array is column-major (see the module
    docstring).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = seq.quads
    top = np.linalg.norm(q[:, 1] - q[:, 0], axis=1)
    bot = np.linalg.norm(q[:, 2] - q[:, 3], axis=1)
    left = np.linalg.norm(q[:, 3] - q[:, 0], axis=1)
    right = np.linalg.norm(q[:, 2] - q[:, 1], axis=1)
    arc = 0.5 * (top + bot)
    total_arc = arc.sum()
    width = float(np.mean(0.5 * (left + right)))
    if total_arc > 0.0 and width > 0.0:
        aspect = total_arc / width
    else:
        aspect = 1.0
    rows = max(1, int(round(math.sqrt(k / aspect))))
    cols = int(math.ceil(k / rows))
    total = rows * cols
    v = (np.arange(rows) + 0.5) / rows
    u = (np.arange(cols) + 0.5) / cols
    # map each column u along the chain: which quad, and where inside it
    if total_arc > 0.0:
        cum = np.concatenate([[0.0], np.cumsum(arc)]) / total_arc
    else:
        cum = np.arange(len(q) + 1) / len(q)
    f = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(q) - 1)
    span = cum[f + 1] - cum[f]
    s = np.where(span > 0.0, (u - cum[f]) / np.where(span == 0.0, 1.0, span), 0.0)
    s1 = np.clip(s, 0.0, 1.0)
    qs = np.ascontiguousarray(q[f].transpose(1, 2, 0))  # (corner, coordinate, column)
    top_pt = (1.0 - s1) * qs[0] + s1 * qs[1]
    bot_pt = (1.0 - s1) * qs[3] + s1 * qs[2]
    # then each row v across it: x and y grids, grid points in row-major order
    v1 = v[:, None]
    pts = ((1.0 - v1) * top_pt[:, None] + v1 * bot_pt[:, None]).reshape(2, total)
    if total > k:
        pts = pts.take(np.floor(np.arange(k) * (total / k)).astype(int), axis=1)
    return pts.T


@dataclass(frozen=True)
class SampledSequence:
    """A component sequence with its interior samples, made once for reuse.

    points are the sequence's sample_interior points; piou_mc accepts it in
    place of the sequence when its configuration asks for that many samples.
    """

    quads: np.ndarray
    points: np.ndarray


def sample_sequence(seq: ComponentSequence, k: int) -> SampledSequence:
    """The sequence's quads with its k interior samples (see sample_interior)."""
    return SampledSequence(seq.quads, sample_interior(seq, k))


# Largest cell box quantize (and piou_mc, for a pair's shared cells) marks in
# a dense bitmap; larger boxes are sorted. Under the default tolerance a
# pair's cells span at most ~201 per axis and ~20 000 in all, so only an
# explicit fine tolerance reaches the sorted path.
_GRID_CELLS = 1 << 22
_INT64_BOUND = 2.0**63


def _flat_index(ci, cj, i0, j0, nj):
    """Row-major index of cells (ci, cj) in a bitmap nj cells wide whose first
    cell is (i0, j0). The origin is subtracted before scaling or adding, so
    every intermediate stays below the box's cell count (at most _GRID_CELLS)
    and is exact in float64 and int64 alike, wherever the box lies."""
    index = ci - i0
    index *= nj
    index += cj - j0
    return index


def quantize(points, tolerance: float) -> np.ndarray:
    """Distinct tolerance-sized grid cells hit by points.

    Cell (i, j) holds the points with floor(x / tolerance) = i and
    floor(y / tolerance) = j. Returns an (n, 2) int64 array of distinct
    cells sorted by (i, j), stored column-major (its i and j columns are
    each contiguous); points may come in any memory layout. When the cells'
    bounding box holds at most _GRID_CELLS cells they are marked in a dense
    boolean grid read back in (i, j) order; otherwise they are sorted and
    deduplicated. Both paths return the same array. Raises ValueError when
    some |point / tolerance| is not below 2**63 (including inf and NaN),
    since its cell index would not fit in int64.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if len(pts) == 0:
        return np.empty((0, 2), dtype=np.int64)
    cells = np.divide(pts.T, tolerance, order="C")  # the x and y rows, each contiguous
    np.floor(cells, out=cells)
    ci, cj = cells
    lo_i, hi_i, lo_j, hi_j = ci.min(), ci.max(), cj.min(), cj.max()
    # floor keeps |x| < 2**63 exactly when x had it; NaN fails every comparison
    b = _INT64_BOUND
    if not (-b < lo_i <= hi_i < b and -b < lo_j <= hi_j < b):
        raise ValueError(
            f"|points / tolerance| must be below 2**63 for int64 cells (tolerance {tolerance})"
        )
    i0, j0 = int(lo_i), int(lo_j)
    ni, nj = int(hi_i) - i0 + 1, int(hi_j) - j0 + 1
    if ni * nj > _GRID_CELLS:
        return np.asfortranarray(np.unique(cells.T.astype(np.int64), axis=0))
    hit = np.zeros(ni * nj, dtype=bool)
    hit[_flat_index(ci, cj, lo_i, lo_j, nj).astype(np.intp)] = True
    flat = np.flatnonzero(hit)
    out = np.empty((2, len(flat)), dtype=np.int64)
    i, j = out
    np.floor_divide(flat, nj, out=i)  # far faster than np.divmod by a scalar
    np.multiply(i, nj, out=j)
    np.subtract(flat, j, out=j)
    i += i0
    j += j0
    return out.T


def _samples(seq: ComponentSequence | SampledSequence, k: int) -> np.ndarray:
    if not isinstance(seq, SampledSequence):
        return sample_interior(seq, k)
    if len(seq.points) != k:
        raise ValueError(f"sequence carries {len(seq.points)} samples, config asks for {k}")
    return seq.points


def _shared_cells(a: np.ndarray, b: np.ndarray) -> int | None:
    """Cells in both sorted distinct cell arrays, or None past _GRID_CELLS."""
    (ai, aj), (bi, bj) = a.T, b.T  # contiguous columns of quantize's output
    i0, j0 = min(ai[0], bi[0]), min(aj.min(), bj.min())
    ni = int(max(ai[-1], bi[-1])) - int(i0) + 1  # rows are sorted by i
    nj = int(max(aj.max(), bj.max())) - int(j0) + 1
    if ni * nj > _GRID_CELLS:
        return None
    hit = np.zeros(ni * nj, dtype=bool)
    hit[_flat_index(ai, aj, i0, j0, nj)] = True
    return int(np.count_nonzero(hit[_flat_index(bi, bj, i0, j0, nj)]))


def piou_mc(
    gt: ComponentSequence | SampledSequence,
    pred: ComponentSequence | SampledSequence,
    config: PIoUConfig | None = None,
) -> PIoUEstimate:
    """Sampled polygon IoU between two component sequences.

    Both sequences are sampled with the same configuration, or passed
    already sampled (sample_sequence) with its k_samples points, else
    ValueError; the estimate is the IoU of their quantized cell sets. Each
    side is quantized once; the intersection is counted on one bitmap over
    the joint cell box, and the union is the two sets' sizes minus it. When
    that box holds more than _GRID_CELLS cells (only a fine explicit
    tolerance gets there), the union is counted as the cells of the joined
    samples instead. Identical sequences yield exactly 1.0. When the joint
    extent of the quads is degenerate (all points coincide) the cell sets
    are equal and the value is 1.0 by the same rule. Each quad counts the
    image of its bilinear map (see sample_interior): a folded bow-tie quad
    covers less than its even-odd region, so against its own square it
    scores about 0.26 where piou_exact gives 0.5.
    """
    cfg = config or PIoUConfig()
    tol = cfg.tolerance
    if tol is None:
        pts = np.concatenate([gt.quads.reshape(-1, 2), pred.quads.reshape(-1, 2)])
        diag = math.hypot(*(pts.max(axis=0) - pts.min(axis=0)))
        tol = TOLERANCE_DIAGONAL_FRACTION * diag if diag > 0.0 else 1.0
    resolved = replace(cfg, tolerance=tol)
    pts_gt, pts_pred = _samples(gt, cfg.k_samples), _samples(pred, cfg.k_samples)
    cells_gt, cells_pred = quantize(pts_gt, tol), quantize(pts_pred, tol)
    inter = _shared_cells(cells_gt, cells_pred)
    if inter is None:
        union = len(quantize(np.concatenate([pts_gt, pts_pred]), tol))
        inter = len(cells_gt) + len(cells_pred) - union
    else:
        union = len(cells_gt) + len(cells_pred) - inter
    value = inter / union if union > 0 else 1.0
    return PIoUEstimate(value, inter, union, resolved)


# Elements per (rows x edges) block: bounds memory for inputs with many crossings.
_BLOCK = 1 << 16


def _crossing_heights(y0, y1, x0, k) -> list[np.ndarray]:
    """Heights where two edges strictly swap x-order, over all edge pairs."""
    n = len(k)
    out = [np.empty(0)]
    step = max(1, _BLOCK // max(n, 1))
    for s in range(0, n, step):
        i = np.arange(s, min(n, s + step))[:, None]
        lo, hi = np.maximum(y0[i], y0), np.minimum(y1[i], y1)
        d_lo = (x0[i] + (lo - y0[i]) * k[i]) - (x0 + (lo - y0) * k)
        d_hi = (x0[i] + (hi - y0[i]) * k[i]) - (x0 + (hi - y0) * k)
        hit = (i < np.arange(n)) & (lo < hi) & (d_lo * d_hi < 0.0)
        out.append(lo[hit] + (hi - lo)[hit] * (d_lo[hit] / (d_lo - d_hi)[hit]))
    return out


def piou_exact(poly_a, poly_b) -> float:
    """Exact polygon IoU under the even-odd rule, by slab integration.

    A point is inside when a ray from it crosses the boundary an odd number
    of times, so a bow-tie covers both lobes and a zero-area outline covers
    nothing. Slabs are cut at every vertex height and every height where
    two edges of either polygon cross; inside a slab the edges' x-order is
    fixed, so the covered lengths of A, B, A and B, and A or B are linear
    in y and mid-height length times slab height is exact. Empty
    conventions: both areas zero -> 1.0, one zero -> 0.0.
    """
    va, vb = _poly_vertices(poly_a), _poly_vertices(poly_b)
    start = np.concatenate([va, vb])
    end = np.concatenate([np.roll(va, -1, axis=0), np.roll(vb, -1, axis=0)])
    up = (start[:, 1] < end[:, 1])[:, None]
    lo, hi = np.where(up, start, end), np.where(up, end, start)
    keep = lo[:, 1] < hi[:, 1]  # horizontal edges never cross a mid-height
    in_a = (np.arange(len(start)) < len(va))[keep]
    (x0, y0), (x1, y1) = lo[keep].T, hi[keep].T
    k = (x1 - x0) / (y1 - y0)
    ys = np.unique(np.concatenate([start[:, 1], *_crossing_heights(y0, y1, x0, k)]))
    mids, heights = 0.5 * (ys[:-1] + ys[1:]), np.diff(ys)
    area = np.zeros(4)  # integrals of the covered lengths of A, B, A and B, A or B
    step = max(1, _BLOCK // max(len(k), 1))
    for s in range(0, len(mids), step):
        y = mids[s : s + step, None]
        active = (y0 < y) & (y < y1)
        x = np.where(active, x0 + (y - y0) * k, start[:, 0].max())
        order = np.argsort(x, axis=1)
        crossed = np.take_along_axis(active, order, axis=1)
        pa = np.cumsum(crossed & in_a[order], axis=1)[:, :-1] & 1
        pb = np.cumsum(crossed & ~in_a[order], axis=1)[:, :-1] & 1
        seg = np.diff(np.take_along_axis(x, order, axis=1), axis=1) * heights[s : s + step, None]
        area += [np.sum(seg * c) for c in (pa, pb, pa & pb, pa | pb)]
    area_a, area_b, inter, union = area
    if area_a == 0.0 or area_b == 0.0:
        return float(area_a == area_b)
    return float(inter / union)


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
