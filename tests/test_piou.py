"""Row crossings, centre counting, and the overlap estimators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from textcomp import (
    ComponentSequence,
    PIoUConfig,
    PIoUEstimate,
    Polygon,
    RibbonParams,
    assemble,
    biou,
    decompose,
    gen_ribbon,
    perturb,
    piou_exact,
    piou_mc,
    quantize,
    sample_interior,
    contour_polygon,
)
from textcomp import piou as piou_module
from textcomp.geometry import COORD_BOUND

UNIT_QUAD = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
BOW_TIE = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def square_chain(x0, y0, size, t=2):
    """An axis-aligned square split into t equal vertical slices."""
    xs = np.linspace(x0, x0 + size, t + 1)
    quads = [
        [[xs[i], y0], [xs[i + 1], y0], [xs[i + 1], y0 + size], [xs[i], y0 + size]]
        for i in range(t)
    ]
    return ComponentSequence(np.array(quads))


# ------------------------------------------------- sample_interior, quantize


def test_sample_interior_rows_are_half_open():
    # A row at the square's bottom edge is crossed by both vertical edges, a
    # row at its top edge by neither, and the horizontal edges cross nothing.
    ys = np.array([-0.5, 0.0, 0.5, 1.0])
    row, x = sample_interior(np.array(SQUARE), ys)
    assert sorted(zip(row.tolist(), x.tolist())) == [(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=3, max_value=30),
    integer=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sample_interior_is_even_and_direction_free(seed, n, integer):
    # Random outlines, self-intersecting ones included; integer vertices put
    # vertices and horizontal edges exactly on rows.
    rng = np.random.default_rng(seed)
    v = rng.uniform(-20.0, 20.0, (n, 2))
    if integer:
        v = np.rint(v)
    ys = np.arange(-20.0, 20.5, 0.5)
    row, x = sample_interior(v, ys)
    assert (np.bincount(row, minlength=len(ys)) % 2 == 0).all()
    assert ((x >= v[:, 0].min()) & (x <= v[:, 0].max())).all()
    # the same edges in reverse order and from another start give the same crossings
    back = sample_interior(np.roll(v[::-1], 2, axis=0), ys)
    assert sorted(zip(row.tolist(), x.tolist())) == sorted(zip(*(a.tolist() for a in back)))


def test_sample_interior_is_finite_on_a_nearly_flat_edge():
    # 1e150 wide and 1e-200 tall: a slope would overflow, f in [0, 1] cannot.
    flat = np.array([[0.0, 0.0], [1e150, 1e-200], [1e150, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row, x = sample_interior(flat, np.array([5e-201, 0.5]))
    assert sorted(zip(row.tolist(), x.tolist())) == [(0, 0.0), (0, 5e149), (1, 0.0), (1, 1e150)]


def _per_edge_crossings(v, ys):
    """Oracle crossings: each edge against each row on its own, in Python."""
    out = []
    for a, b in zip(v.tolist(), np.roll(v, -1, axis=0).tolist()):
        (xa, ya), (xb, yb) = (a, b) if a[1] <= b[1] else (b, a)
        out += [(r, xa + (y - ya) / (yb - ya) * (xb - xa)) for r, y in enumerate(ys) if ya <= y < yb]
    return sorted(out)


@pytest.mark.parametrize("t", [1, 3, 6, 9])
def test_sample_interior_matches_per_edge_oracle_bitwise(t):
    # Random folded outlines and an assembled ribbon, on a centre grid with
    # every vertex height added, so rows also pass exactly through vertices.
    rng = np.random.default_rng(t)
    outlines = [rng.uniform(-50.0, 50.0, (2 * t + 2, 2)) for _ in range(3)]
    outlines.append(assemble(decompose(gen_ribbon(t, RibbonParams(curvature=0.012)), t)).vertices)
    for v in outlines:
        lo, hi = v[:, 1].min(), v[:, 1].max()
        ys = np.unique(np.concatenate([lo + (np.arange(97) + 0.5) / 97 * (hi - lo), v[:, 1]]))
        row, x = sample_interior(v, ys)
        assert sorted(zip(row.tolist(), x.tolist())) == _per_edge_crossings(v, ys)


def test_sample_interior_at_the_coordinate_bound_is_finite():
    # An outline spanning [-COORD_BOUND, COORD_BOUND] on both axes, with a
    # slanted edge; x differences reach 2 COORD_BOUND and stay finite.
    v = np.array([[-1.0, -1.0], [1.0, -1.0], [0.5, 1.0], [-1.0, 1.0]]) * COORD_BOUND
    ys = np.linspace(-1.0, 1.0, 9)[:-1] * COORD_BOUND
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row, x = sample_interior(v, ys)
        big, small = piou_mc(v, v), piou_mc(v, v * 0.5)
    assert np.isfinite(x).all()
    assert (np.bincount(row, minlength=len(ys)) == 2).all()
    assert big.value == 1.0
    assert small.value == pytest.approx(piou_exact(v, v * 0.5), abs=0.01)


def test_sample_interior_on_degenerate_outlines():
    ys = np.array([-0.5, 0.0, 0.5, 1.0])
    point, flat = np.full((4, 2), 0.5), np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]])
    for v in (point, flat):
        row, x = sample_interior(v, ys)
        assert row.size == x.size == 0
    # a vertical segment is two coincident edges: each row it spans, twice
    row, x = sample_interior(np.array([[2.0, 0.0], [2.0, 1.0]]), ys)
    assert sorted(zip(row.tolist(), x.tolist())) == [(1, 2.0), (1, 2.0), (2, 2.0), (2, 2.0)]
    # zero-area outlines cover no centre and take piou_exact's conventions
    assert piou_mc(point, point) == PIoUEstimate(1.0, 0, 0)
    est = piou_mc(point, SQUARE)
    assert est.value == 0.0 and est.intersection_cells == 0 < est.union_cells


def test_quantize_counts_the_centres_left_of_each_crossing():
    xs = np.array([0.5, 1.5, 2.5])
    keys = quantize(np.array([0, 0, 1, 2]), np.array([0.5, 0.6, -1.0, 9.0]), xs)
    # keys are row * 4 + q; a crossing at a centre has that centre on its right
    assert keys.tolist() == [0, 1, 4, 11]


def test_quantize_on_negative_coordinates():
    xs = np.array([-2.5, -1.5, -0.5])
    keys = quantize(np.array([0, 0, 0, 0]), np.array([-3.0, -1.5, -1.4999, -0.05]), xs)
    assert keys.tolist() == [0, 1, 2, 3]


_xs = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20)
_crossings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.floats(min_value=-2e3, max_value=2e3)),
    min_size=1,
    max_size=40,
)


@given(xs=_xs, crossings=_crossings)
@settings(max_examples=80, deadline=None)
def test_quantize_keys_stay_in_their_row(xs, crossings):
    # Keys of a row fill [row * (cols + 1), row * (cols + 1) + cols], past
    # the last centre included, so rows never interleave.
    xs = np.sort(np.asarray(xs))
    row, x = (np.array(c) for c in zip(*crossings))
    keys = quantize(row, x, xs)
    cols = len(xs)
    assert (keys // (cols + 1) == row).all()
    assert (keys % (cols + 1) == [(xs < xi).sum() for xi in x]).all()


@given(xs=_xs, crossings=_crossings)
@settings(max_examples=80, deadline=None)
def test_quantize_orders_keys_like_row_then_x(xs, crossings):
    # piou_mc sorts keys in place of (row, x) pairs: the order must agree.
    xs = np.sort(np.asarray(xs))
    row, x = (np.array(c) for c in zip(*crossings))
    keys = quantize(row, x, xs)
    by_pair = np.lexsort((x, row))
    assert (np.diff(keys[by_pair]) >= 0).all()


# ------------------------------------------------------------------- piou_mc


@pytest.mark.parametrize(
    "w, h, k, rows, cols",
    [
        (1.0, 1.0, 10_000, 100, 100),
        (4.0, 1.0, 10_000, 50, 200),
        (1.0, 4.0, 10_000, 200, 50),
        (3.0, 1.0, 7, 2, 4),
        (1e6, 1.0, 10_000, 1, 10_000),  # rows clamped up to 1
        (1.0, 1e6, 10_000, 10_000, 1),  # rows clamped down to k
    ],
    ids=["square", "wide", "tall", "small-k", "flat", "thin"],
)
def test_mc_grid_shape(monkeypatch, w, h, k, rows, cols):
    # The rectangle covers every centre of the grid on its own box; the
    # grid runs through the module's sample_interior and quantize, once per
    # outline, as profilers that patch those names expect.
    seen = []
    sample, quant = piou_module.sample_interior, piou_module.quantize

    def sampling(v, ys):
        seen.append(("rows", len(ys)))
        return sample(v, ys)

    def quantizing(row, x, xs):
        seen.append(("cols", len(xs)))
        return quant(row, x, xs)

    monkeypatch.setattr(piou_module, "sample_interior", sampling)
    monkeypatch.setattr(piou_module, "quantize", quantizing)
    box = [[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]
    est = piou_mc(box, box, PIoUConfig(k_samples=k))
    assert seen == [("rows", rows), ("cols", cols)] * 2
    assert est == PIoUEstimate(1.0, rows * cols, rows * cols)


@pytest.mark.parametrize("form", ["list", "array", "polygon", "sequence"])
def test_mc_accepts_every_outline_form(form):
    seq = decompose(gen_ribbon(11, RibbonParams(curvature=0.012)), 6)
    other = assemble(perturb(gen_ribbon(11, RibbonParams(curvature=0.012)), 2.0, seed=11))
    v = assemble(seq).vertices
    shape = {"list": v.tolist(), "array": v, "polygon": Polygon(v), "sequence": seq}[form]
    expected = piou_mc(v, other.vertices)
    assert 0.0 < expected.value < 1.0
    assert piou_mc(shape, other) == expected
    assert piou_mc(other, shape) == expected


def test_mc_error_falls_as_k_grows():
    # Finer grids count the same outlines more accurately against the exact
    # kernel: the median error over 20 ribbon pairs falls with k.
    rng = np.random.default_rng(20)
    pairs = []
    for i in range(20):
        contour = gen_ribbon(int(rng.integers(2**31)))
        pairs.append((assemble(decompose(contour, 6)), assemble(perturb(contour, 2.0, seed=i))))
    exact = [piou_exact(a, b) for a, b in pairs]
    medians = [
        np.median([abs(piou_mc(a, b, PIoUConfig(k_samples=k)).value - e) for (a, b), e in zip(pairs, exact)])
        for k in (300, 3000, 30_000)
    ]
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] <= 0.002


def _dense_piou(poly_a, poly_b, k=10_000):
    """Oracle counts: every grid centre piou_mc documents, tested on its own.

    The centre (x, y) is inside an outline when an odd number of its edges,
    each taken from its lower end, cross height y (ya <= y < yb) at or left
    of x. Returns (value, covered by both, covered by either), the value
    being piou_exact's when no centre is covered.
    """
    va, vb = (np.asarray(getattr(p, "vertices", p), dtype=float) for p in (poly_a, poly_b))
    pts = np.concatenate([va, vb])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    w, h = x1 - x0, y1 - y0
    rows = min(k, max(1, round(math.sqrt(k) * math.sqrt(h) / math.sqrt(w))))
    cols = min(k, max(1, round(k / rows)))
    xs = x0 + (np.arange(cols) + 0.5) / cols * w
    ys = y0 + (np.arange(rows) + 0.5) / rows * h

    def inside(v):
        mask = np.zeros((rows, cols), dtype=bool)
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            (xa, ya), (xb, yb) = (a, b) if a[1] <= b[1] else (b, a)
            hit = (ya <= ys) & (ys < yb)
            x = xa + (ys[hit] - ya) / (yb - ya) * (xb - xa)
            mask[hit] ^= x[:, None] <= xs
        return mask

    in_a, in_b = inside(va), inside(vb)
    inter, union = int((in_a & in_b).sum()), int((in_a | in_b).sum())
    return (inter / union if union else piou_exact(va, vb)), inter, union


def _mc_pairs():
    rng = np.random.default_rng(2413)
    params = RibbonParams(curvature=0.012)
    for i in range(8):
        contour = gen_ribbon(int(rng.integers(2**31)), params)
        gt = assemble(decompose(contour, 6))
        yield gt, assemble(perturb(contour, 3.0, seed=i))  # curved, overlapping
        yield gt, Polygon(gt.vertices + 1e4)  # disjoint
        yield gt, gt  # identical
    for n in (5, 17, 40):  # self-intersecting, some on integer vertices
        a, b = rng.uniform(0.0, 30.0, (2, n, 2))
        yield a, b
        yield np.rint(a), np.rint(b)
    yield np.array(BOW_TIE), np.array(SQUARE)
    yield np.array(SQUARE), np.array([[1.002, 0.0], [101.002, 0.0], [101.002, 0.01], [1.002, 0.01]])


@pytest.mark.parametrize("k", [10_000, 2000, 777, 1])
def test_mc_matches_dense_even_odd_oracle(k):
    for a, b in _mc_pairs():
        est = piou_mc(a, b, PIoUConfig(k_samples=k))
        assert (est.value, est.intersection_cells, est.union_cells) == _dense_piou(a, b, k)


def test_mc_identity_is_exactly_one():
    seq = decompose(gen_ribbon(2), 6)
    est = piou_mc(seq, seq)
    assert est.value == 1.0
    assert est.intersection_cells == est.union_cells > 0


def test_mc_symmetry_and_determinism():
    a = decompose(gen_ribbon(3), 6)
    b = ComponentSequence(a.quads + np.array([4.0, 2.0]))
    cfg = PIoUConfig(k_samples=4000)
    ab, ba = piou_mc(a, b, cfg), piou_mc(b, a, cfg)
    assert ab == ba
    assert piou_mc(a, b, cfg) == ab


def test_mc_disjoint_is_zero():
    a = square_chain(0.0, 0.0, 10.0)
    b = square_chain(1000.0, 1000.0, 10.0)
    assert piou_mc(a, b).value == 0.0


def test_mc_half_overlapping_unit_squares():
    # Analytic IoU of [0,1]^2 against the same square shifted by 0.5 is
    # 0.5 / 1.5 = 1/3.
    a = ComponentSequence(UNIT_QUAD)
    b = ComponentSequence(UNIT_QUAD + np.array([0.5, 0.0]))
    assert piou_mc(a, b).value == pytest.approx(1.0 / 3.0, abs=0.02)


def test_mc_range_and_counts():
    a = square_chain(0.0, 0.0, 20.0)
    b = square_chain(5.0, 3.0, 20.0)
    est = piou_mc(a, b, PIoUConfig(k_samples=5000))
    assert 0.0 <= est.value <= 1.0
    assert est.value == est.intersection_cells / est.union_cells
    assert est.union_cells <= 5000


def test_mc_assembles_sequences_first():
    contour = gen_ribbon(7, RibbonParams(curvature=0.012))
    a, b = decompose(contour, 6), perturb(contour, 2.0, seed=7)
    est = piou_mc(a, b)
    assert piou_mc(assemble(a), assemble(b)) == est
    assert piou_mc(assemble(a).vertices, b) == est


def test_mc_without_covered_centres_takes_the_exact_value():
    line = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]  # zero area
    assert piou_mc(line, line) == PIoUEstimate(1.0, 0, 0)
    # One centre, at (1, 1): the triangle has area but misses it.
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.001]]
    assert piou_mc(line, triangle, PIoUConfig(k_samples=1)) == PIoUEstimate(0.0, 0, 0)
    # A sliver 1e-200 wide beside a square that no grid row reaches.
    sliver = [[0.0, 0.0], [1e-200, 0.0], [1e-200, 1e150], [0.0, 1e150]]
    est = piou_mc(sliver, SQUARE)
    assert (est.intersection_cells, est.union_cells) == (0, 0)
    assert est.value == piou_exact(sliver, SQUARE) > 0.0


def test_mc_tracks_exact_on_default_ribbons():
    rng = np.random.default_rng(60)
    errors = []
    for i in range(60):
        contour = gen_ribbon(int(rng.integers(2**31)))
        a, b = decompose(contour, 6), perturb(contour, float(rng.uniform(1.0, 3.0)), seed=i)
        errors.append(abs(piou_mc(a, b).value - piou_exact(assemble(a), assemble(b))))
    assert np.percentile(errors, 95) <= 0.01


def test_mc_bow_tie_matches_the_even_odd_value():
    # Both kernels count the bow-tie's two lobes: half the square.
    est = piou_mc(BOW_TIE, SQUARE)
    assert piou_exact(BOW_TIE, SQUARE) == 0.5
    assert abs(est.value - 0.5) <= 0.01
    bow_tie, square = ComponentSequence(np.array([BOW_TIE])), ComponentSequence(np.array([SQUARE]))
    assert piou_mc(bow_tie, square) == est


@st.composite
def simple_polygons(draw):
    """Star-shaped, hence simple, polygons: sorted angles, positive radii."""
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(5.0, 40.0, n)
    center = rng.uniform(-50.0, 50.0, 2)
    return center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


@st.composite
def crossing_polygons(draw):
    """Random polygons, most of which cross themselves."""
    n = draw(st.integers(min_value=3, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    return rng.uniform(-50.0, 50.0, 2) + rng.uniform(-40.0, 40.0, (n, 2))


outlines = st.one_of(simple_polygons(), crossing_polygons())


@given(
    a=outlines,
    b=outlines,
    axis=st.integers(min_value=0, max_value=1),
    gap=st.floats(min_value=1e-12, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_mc_symmetry_identity_and_box_apart(a, b, axis, gap):
    assert piou_mc(a, b) == piou_mc(b, a)
    assert piou_mc(a, a).value == 1.0
    apart = b.copy()
    apart[:, axis] += a[:, axis].max() - b[:, axis].min() + gap
    assume(apart[:, axis].min() > a[:, axis].max())
    assert piou_mc(a, apart).value == 0.0
    assert piou_mc(apart, a).intersection_cells == 0


@given(
    a=outlines,
    b=outlines,
    ex=st.integers(min_value=-200, max_value=147),
    ey=st.integers(min_value=-200, max_value=147),
)
@settings(max_examples=80, deadline=None)
def test_mc_is_finite_at_extreme_aspect_ratios(a, b, ex, ey):
    # Outlines reach |coordinate| 90, so the scaled ones stay within COORD_BOUND.
    scale = np.array([10.0**ex, 10.0**ey])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = piou_mc(a * scale, b * scale)
        assert piou_mc(a * scale, a * scale).value == 1.0
    assert 0.0 <= est.value <= 1.0
    assert est.union_cells <= PIoUConfig().k_samples


def test_config_validation():
    with pytest.raises(ValueError):
        PIoUConfig(k_samples=0)


# ---------------------------------------------------------------- piou_exact


def test_exact_identity_and_disjoint():
    poly = assemble(decompose(gen_ribbon(4), 6))
    assert piou_exact(poly, poly) == 1.0
    far = Polygon(poly.vertices + np.array([1e5, 1e5]))
    assert piou_exact(poly, far) == 0.0


def test_exact_nested_squares():
    outer = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))
    inner = Polygon(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]]))
    assert piou_exact(outer, inner) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("dy", [1e-200, 1e-300, 5e-324])
def test_exact_is_finite_on_a_nearly_flat_edge(dy):
    # The edge's slope (x1 - x0) / (y1 - y0) overflows float64; x0 + f (x1 - x0)
    # with f in [0, 1] does not, and an inactive edge's f is never formed past 1.
    flat = [[0.0, 0.0], [1e150, dy], [1e150, 1.0], [0.0, 1.0]]
    half = [[0.0, 0.0], [1e150, 0.0], [1e150, 0.5], [0.0, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert piou_exact(flat, flat) == 1.0
        assert piou_exact(flat, half) == pytest.approx(0.5, abs=1e-12)
        assert piou_mc(flat, flat).value == 1.0


def _clip_convex(subject, clip):
    """Sutherland-Hodgman clip of polygon `subject` by convex CCW `clip`."""
    output = [np.asarray(p, dtype=float) for p in subject]
    n = len(clip)
    for i in range(n):
        a, b = np.asarray(clip[i]), np.asarray(clip[(i + 1) % n])
        edge = b - a
        polygon, output = output, []
        if not polygon:
            break
        for j, p in enumerate(polygon):
            q = polygon[(j + 1) % len(polygon)]
            side_p = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= 0.0
            side_q = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0]) >= 0.0
            if side_p:
                output.append(p)
            if side_p != side_q:
                dp = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
                dq = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0])
                t = dp / (dp - dq)
                output.append(p + t * (q - p))
    return output


def _shoelace(points):
    pts = np.asarray(points)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _random_convex(rng, shift):
    pts = rng.uniform(0.0, 60.0, (10, 2)) + shift
    hull = ConvexHull(pts)
    return pts[hull.vertices]  # counter-clockwise order


def test_exact_matches_convex_clipping_oracle():
    # Independent route: exact intersection area by half-plane clipping with
    # shoelace areas, versus slab integration.
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = _random_convex(rng, np.zeros(2))
        b = _random_convex(rng, rng.uniform(-20.0, 20.0, 2))
        clipped = _clip_convex(a, b)
        inter = abs(_shoelace(clipped)) if len(clipped) >= 3 else 0.0
        union = abs(_shoelace(a)) + abs(_shoelace(b)) - inter
        expected = inter / union if union > 0 else 1.0
        got = piou_exact(Polygon(a), Polygon(b))
        assert got == pytest.approx(expected, abs=1e-9)


def test_exact_range():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = Polygon(_random_convex(rng, np.zeros(2)))
        b = Polygon(_random_convex(rng, rng.uniform(-40.0, 40.0, 2)))
        assert 0.0 <= piou_exact(a, b) <= 1.0


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # even-odd covers both lobes of the bow-tie: half the square
        (BOW_TIE, SQUARE, 0.5),
        (BOW_TIE, BOW_TIE, 1.0),
        # collinear outline: zero even-odd area, so "one empty" -> 0.0
        ([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]], SQUARE, 0.0),
        # rectangles sharing one edge have zero-area intersection
        (SQUARE, [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]], 0.0),
        # extra collinear vertices do not change the region
        (SQUARE, [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0, 1], [0, 0.5]], 1.0),
    ],
)
def test_exact_even_odd_semantics_on_odd_inputs(a, b, expected):
    assert piou_exact(a, b) == expected
    assert piou_exact(b, a) == expected


def _rasterize(v, x0, y0, cell, rows, cols):
    """Even-odd scanline raster of a polygon on a fixed grid of cell centers."""
    a = v
    b = np.roll(v, -1, axis=0)
    ya, yb = a[:, 1], b[:, 1]
    ymin = np.minimum(ya, yb)
    ymax = np.maximum(ya, yb)
    r_lo = np.clip(np.ceil((ymin - y0) / cell - 0.5).astype(np.int64), 0, rows)
    r_hi = np.clip(np.ceil((ymax - y0) / cell - 0.5).astype(np.int64), 0, rows)
    counts = np.maximum(r_hi - r_lo, 0)
    total = int(counts.sum())
    mask = np.zeros((rows, cols), dtype=bool)
    if total == 0:
        return mask
    edge_idx = np.repeat(np.arange(len(v)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    row_idx = np.arange(total) - np.repeat(starts, counts) + np.repeat(r_lo, counts)
    yc = y0 + (row_idx + 0.5) * cell
    dy = yb - ya
    t = (yc - ya[edge_idx]) / dy[edge_idx]
    xc = a[edge_idx, 0] + t * (b[:, 0] - a[:, 0])[edge_idx]
    col0 = np.clip(np.floor((xc - x0) / cell + 0.5).astype(np.int64), 0, cols)
    delta = np.zeros((rows, cols + 1), dtype=np.int16)
    np.add.at(delta, (row_idx, col0), 1)
    np.cumsum(delta[:, :cols], axis=1, out=delta[:, :cols])
    np.bitwise_and(delta[:, :cols], 1, out=delta[:, :cols])
    return delta[:, :cols].astype(bool)


def _raster_iou(poly_a, poly_b, resolution=4096):
    """Oracle IoU of two even-odd rasters on a shared grid of cell centers.

    The grid places `resolution` cells along the longer side of the joint
    bounding box. Independent of slab integration, and approximate: its
    error shrinks with the cell size.
    """
    va = np.asarray(getattr(poly_a, "vertices", poly_a), dtype=float)
    vb = np.asarray(getattr(poly_b, "vertices", poly_b), dtype=float)
    pts = np.concatenate([va, vb])
    mn, mx = pts.min(axis=0), pts.max(axis=0)
    w, h = float(mx[0] - mn[0]), float(mx[1] - mn[1])
    cell = max(w, h) / resolution
    cols = max(1, int(math.ceil(w / cell - 1e-9)))
    rows = max(1, int(math.ceil(h / cell - 1e-9)))
    mask_a = _rasterize(va, float(mn[0]), float(mn[1]), cell, rows, cols)
    mask_b = _rasterize(vb, float(mn[0]), float(mn[1]), cell, rows, cols)
    return np.count_nonzero(mask_a & mask_b) / np.count_nonzero(mask_a | mask_b)


def test_exact_agrees_with_raster_oracle_on_curved_ribbons():
    # Non-convex inputs, which the convex clipping oracle cannot cover, and
    # one outline with 1000 vertices per side against a shifted copy.
    rng = np.random.default_rng(2412)
    params = RibbonParams(curvature=0.012)
    pairs = []
    for i in range(50):
        contour = gen_ribbon(int(rng.integers(2**31)), params)
        rebuilt = assemble(decompose(contour, 6))
        if i % 2:
            other = contour_polygon(contour)
        else:
            noisy = assemble(perturb(contour, 3.0, seed=i)).vertices
            other = Polygon(noisy + rng.uniform(-10.0, 10.0, 2))
        pairs.append((rebuilt, other))
    long = contour_polygon(gen_ribbon(0, RibbonParams(curvature=0.012, side_vertices=1000)))
    pairs.append((long, Polygon(long.vertices + [3.0, 2.0])))
    for a, b in pairs:
        assert piou_exact(a, b) == pytest.approx(_raster_iou(a, b), abs=1e-4)


def test_exact_agrees_with_raster_oracle_on_self_intersecting_polygons():
    # 400 edges with thousands of crossings: the slabs span several blocks.
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, (200, 2))
    b = rng.uniform(0.0, 1.0, (200, 2))
    assert piou_exact(a, b) == pytest.approx(_raster_iou(a, b), abs=1e-4)


def test_exact_does_not_depend_on_the_block_size(monkeypatch):
    # One slab per block: each block's rows must still find their own slab heights.
    rng = np.random.default_rng(7)
    tangled = rng.uniform(0.0, 1.0, (200, 2)), rng.uniform(0.0, 1.0, (200, 2))
    contour = gen_ribbon(11, RibbonParams(curvature=0.012))
    ribbons = assemble(decompose(contour, 6)), assemble(perturb(contour, 3.0, seed=1))
    expected = [piou_exact(*tangled), piou_exact(*ribbons)]
    monkeypatch.setattr(piou_module, "_BLOCK", 1)
    assert [piou_exact(*tangled), piou_exact(*ribbons)] == pytest.approx(expected, abs=1e-12)


@given(a=simple_polygons(), b=simple_polygons())
@settings(max_examples=60, deadline=None)
def test_exact_symmetry_identity_and_disjoint(a, b):
    assert piou_exact(a, b) == piou_exact(b, a)
    assert piou_exact(a, a) == 1.0
    shift = a.max(axis=0) - b.min(axis=0) + 1.0
    assert piou_exact(a, b + shift) == 0.0


@given(
    a=simple_polygons(),
    b=simple_polygons(),
    shift=st.tuples(
        st.floats(min_value=-500.0, max_value=500.0),
        st.floats(min_value=-500.0, max_value=500.0),
    ),
    scale=st.floats(min_value=0.01, max_value=100.0),
    roll=st.integers(min_value=1, max_value=11),
)
@settings(max_examples=60, deadline=None)
def test_exact_invariances(a, b, shift, scale, roll):
    value = piou_exact(a, b)
    assert 0.0 <= value <= 1.0
    moved = np.asarray(shift)
    assert piou_exact(a + moved, b + moved) == pytest.approx(value, abs=1e-9)
    assert piou_exact(a * scale, b * scale) == pytest.approx(value, abs=1e-9)
    assert piou_exact(np.roll(a, roll, axis=0), b) == pytest.approx(value, abs=1e-9)
    assert piou_exact(a[::-1], b) == pytest.approx(value, abs=1e-9)


# ---------------------------------------------------------------------- biou


def test_biou_analytic_cases():
    a = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
    b = Polygon(np.array([[1.0, 0.0], [3.0, 0.0], [3.0, 1.0], [1.0, 1.0]]))
    assert biou(a, a) == 1.0
    assert biou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    far = Polygon(b.vertices + np.array([100.0, 0.0]))
    assert biou(a, far) == 0.0


def test_biou_ignores_interior_shape():
    # Bounding boxes coincide even though the triangles differ.
    tri_a = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]]))
    tri_b = Polygon(np.array([[0.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))
    assert biou(tri_a, tri_b) == 1.0


# --------------------------------------------------- reconstruction fidelity


def test_rectangle_reconstruction_near_perfect():
    from textcomp import TextContour

    contour = TextContour(
        np.array([[0.0, 0.0], [60.0, 0.0]]), np.array([[0.0, 10.0], [60.0, 10.0]])
    )
    rebuilt = assemble(decompose(contour, 6))
    assert piou_exact(rebuilt, contour_polygon(contour)) >= 0.999
