"""Side resampling and splitting, contour decomposition/assembly, and the simplicity check."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from textcomp import (
    ComponentSequence,
    Polygon,
    RibbonParams,
    TextContour,
    assemble,
    bezier_fit_side,
    contour_polygon,
    decompose,
    gen_ribbon,
    has_shared_edges,
    is_simple,
    read_jsonl,
    resample_side,
    split_long_sides,
)
from textcomp.geometry import _BERN, COORD_BOUND, _arc_length_params, _span_basis

UNIT_SQUARE = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def rect_contour(width=60.0, height=10.0):
    """Axis-aligned rectangle as a two-sided contour (top side, bottom side)."""
    return TextContour(
        side_a=np.array([[0.0, 0.0], [width, 0.0]]),
        side_b=np.array([[0.0, height], [width, height]]),
    )


# ------------------------------------------------------------------ resample


def _basis_matrix(knots, degree, u):
    """Cox-de Boor basis values, shape (len(u), n_control); the last span is closed."""
    n_spans = len(knots) - 1
    basis = np.zeros((n_spans, len(u)))
    for j in range(n_spans):
        lo, hi = knots[j], knots[j + 1]
        if lo < hi:
            inside = (u >= lo) & (u < hi)
            if hi == knots[-1]:
                inside |= u == knots[-1]
            basis[j, inside] = 1.0
    for r in range(1, degree + 1):
        nxt = np.zeros((n_spans - r, len(u)))
        for j in range(n_spans - r):
            den_l = knots[j + r] - knots[j]
            if den_l > 0:
                nxt[j] += (u - knots[j]) / den_l * basis[j]
            den_r = knots[j + r + 1] - knots[j + 1]
            if den_r > 0:
                nxt[j] += (knots[j + r + 1] - u) / den_r * basis[j + 1]
        basis = nxt
    return basis.T


def _clamped_knots(n):
    """Degree, knots and breakpoints of the clamped uniform B-spline on n control points."""
    degree = min(3, n - 1)
    interior = np.arange(1, n - degree) / (n - degree)
    knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return degree, knots, np.concatenate([[0.0], interior, [1.0]])


def _curve_oracle(knots, degree, side, u):
    """sum_j B_j(u) side[j], by Cox-de Boor over the 2 * degree + 2 knots of each u's span.

    Only the degree + 1 basis functions alive on a span are evaluated there,
    so memory stays O(len(u)) for any number of control points.
    """
    n_spans = len(side) - degree
    span = np.clip(np.searchsorted(knots[degree:-degree], u, side="right") - 1, 0, n_spans - 1)
    order = np.argsort(span, kind="stable")
    bounds = np.searchsorted(span[order], np.arange(n_spans + 1))
    out = np.empty((len(u), 2))
    for s in range(n_spans):
        at = order[bounds[s] : bounds[s + 1]]
        if len(at):
            local = _basis_matrix(knots[s : s + 2 * degree + 2], degree, u[at])
            out[at] = local @ side[s : s + degree + 1]
    return out


def _resample_oracle(side, m):
    """Independent resampler: the same fit and arc-length table, evaluated by Cox-de Boor."""
    degree, knots, breaks = _clamped_knots(len(side))
    spans = [np.linspace(lo, hi, 1001) for lo, hi in zip(breaks, breaks[1:])]
    params = np.concatenate([spans[0]] + [span[1:] for span in spans[1:]])
    table = _curve_oracle(knots, degree, side, params)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(table, axis=0), axis=1))])
    u = np.interp(np.linspace(0.0, cum[-1], m), cum, params)
    return _curve_oracle(knots, degree, side, u)


def _arc_length_params_oracle(eval_fn, breakpoints, m):
    """The arc-length table evaluated point by point through eval_fn, span by span."""
    pieces = []
    for s in range(len(breakpoints) - 1):
        seg = np.linspace(breakpoints[s], breakpoints[s + 1], 1001)
        pieces.append(seg if s == 0 else seg[1:])
    params = np.concatenate(pieces)
    pts = eval_fn(params)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    if cum[-1] == 0.0:
        return None
    return np.interp(np.linspace(0.0, cum[-1], m), cum, params)


def _resample_table_oracle(side, m):
    """resample_side with scipy evaluating every table point."""
    degree, knots, breaks = _clamped_knots(len(side))
    curve = BSpline(knots, side, degree)
    params = _arc_length_params_oracle(curve, breaks, m)
    if params is None:
        return np.repeat(side[:1], m, axis=0)
    pts = curve(params)
    pts[[0, -1]] = side[[0, -1]]
    return pts


def test_resample_straight_side_is_uniform():
    pts = resample_side(np.array([[0.0, 0.0], [10.0, 0.0]]), 5)
    expected = np.array([[0.0, 0.0], [2.5, 0.0], [5.0, 0.0], [7.5, 0.0], [10.0, 0.0]])
    assert np.allclose(pts, expected, atol=1e-9)


def test_resample_chords_equal_on_smooth_side():
    theta = np.linspace(0.0, np.pi / 2, 7)
    side = 100.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = resample_side(side, 9)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.allclose(chords, chords.mean(), rtol=1e-3)


def test_resample_endpoints_are_exact():
    rng = np.random.default_rng(4)
    for _ in range(300):
        side = rng.uniform(-100.0, 100.0, (int(rng.integers(2, 61)), 2))
        pts = resample_side(side, int(rng.integers(2, 12)))
        assert np.array_equal(pts[0], side[0])
        assert np.array_equal(pts[-1], side[-1])


def test_resample_collinear_side_stays_on_its_line():
    side = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [4.5, 0.0], [6.0, 0.0]])
    pts = resample_side(side, 33)
    assert np.all(np.abs(pts[:, 1]) <= 1e-12)
    assert pts[:, 0].min() >= -1e-12 and pts[:, 0].max() <= 6.0 + 1e-12
    assert (np.diff(pts[:, 0]) > 0.0).all()
    direction = np.array([3.0, 4.0]) / 5.0
    slanted = resample_side(np.array([7.0, -2.0]) + np.outer([0.0, 2.0, 2.5, 9.0], direction), 17)
    offset = slanted - np.array([7.0, -2.0])
    assert np.all(np.abs(offset[:, 0] * direction[1] - offset[:, 1] * direction[0]) <= 1e-12)


def test_resample_matches_cox_de_boor_oracle():
    # Sides of 2, 3 and 4+ vertices fit at degrees 1, 2 and 3.
    rng = np.random.default_rng(8)
    for n in [2, 3, 4, 5, 7, 14, 25, 50]:
        for _ in range(3):
            side = np.cumsum(rng.uniform(-5.0, 20.0, (n, 2)), axis=0)
            for m in (2, 7, 30):
                got = resample_side(side, m)
                expected = _resample_oracle(side, m)
                scale = np.abs(expected).max()
                assert np.abs(got - expected).max() <= 1e-12 * scale


def test_span_local_oracle_matches_dense_cox_de_boor():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5, 8, 14):
        side = np.cumsum(rng.uniform(-5.0, 20.0, (n, 2)), axis=0)
        degree, knots, breaks = _clamped_knots(n)
        u = np.concatenate([rng.uniform(0.0, 1.0, 300), breaks])
        dense = _basis_matrix(knots, degree, u) @ side
        local = _curve_oracle(knots, degree, side, u)
        assert np.abs(local - dense).max() <= 1e-14 * np.abs(side).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 200, 2000])
def test_cached_basis_matches_cox_de_boor_oracle(n):
    rng = np.random.default_rng(n)
    side = np.cumsum(rng.uniform(-5.0, 20.0, (n, 2)), axis=0)
    for m in (2, 7, 30):
        expected = _resample_oracle(side, m)
        assert np.abs(resample_side(side, m) - expected).max() <= 1e-12 * np.abs(expected).max()
    # scaled to the coordinate bound, the power basis stays finite
    big = side * (COORD_BOUND / np.abs(side).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (2, 7, 30):
            pts = resample_side(big, m)
            assert np.isfinite(pts).all()
            assert np.array_equal(pts[[0, -1]], big[[0, -1]])
    assert np.abs(pts - _resample_oracle(big, 30)).max() <= 1e-12 * COORD_BOUND


_ORIGIN_RUN = [[0.0, 0.0]] * 4


@pytest.mark.parametrize(
    ("side", "constant_spans"),
    [
        (np.cumsum(np.random.default_rng(5).uniform(-5.0, 20.0, (9, 2)), axis=0), 0),
        (_ORIGIN_RUN + [[3.0, 1.0], [7.0, -2.0], [12.0, 0.0]], 1),
        # the last target sits on zero-length table steps: its divisor is 0
        ([[12.0, 0.0], [7.0, -2.0], [3.0, 1.0]] + _ORIGIN_RUN, 1),
        # lopsided, so that no target lands within rounding of the run's length, where
        # any parameter on the run is the same point
        ([[-9.0, 4.0], [-5.0, 1.0]] + _ORIGIN_RUN + [[0.0, 0.0], [6.0, 1.0], [13.0, 5.0]], 2),
        ([[0.0, 0.0], [0.0, 0.0], [4.0, 3.0], [4.0, 3.0], [8.0, 0.0], [8.0, 0.0]], 0),
        ([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]], 0),
        ([[0.0, 0.0], [10.0, 0.0]], 0),
    ],
    ids=["walk", "leading-run", "trailing-run", "middle-run", "doubled", "quadratic", "line"],
)
def test_arc_length_params_match_table_oracle(side, constant_spans):
    side = np.asarray(side, dtype=float)
    degree, knots, breaks = _clamped_knots(len(side))
    blocks, which, window = _span_basis(len(side))
    coef = blocks[which] @ side[window]
    # a span on copies of one point is constant: every table step on it is exactly 0
    assert (~coef[:, 1:].any(axis=(1, 2))).sum() == constant_spans
    curve = BSpline(knots, side, degree)
    for m in (2, 7, 30):
        span, tau = _arc_length_params(coef, m)
        got = breaks[span] * (1.0 - tau) + breaks[span + 1] * tau
        assert np.abs(got - _arc_length_params_oracle(curve, breaks, m)).max() <= 1e-12


@pytest.mark.parametrize(
    "ctrl",
    [
        [[0.0, 0.0], [3.0, 8.0], [9.0, -4.0], [12.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [6.0, 3.0]],
        [[0.0, 0.0], [0.0, 0.0], [6.0, 3.0], [6.0, 3.0]],
        _ORIGIN_RUN,
    ],
    ids=["curve", "triple-start", "doubled-ends", "point"],
)
def test_arc_length_params_on_a_bezier_span_match_table_oracle(ctrl):
    ctrl = np.asarray(ctrl)
    for m in (2, 7, 30):
        targets = _arc_length_params((_BERN @ ctrl)[None], m)
        expected = _arc_length_params_oracle(
            lambda t: _bezier_eval_oracle(ctrl, t), np.array([0.0, 1.0]), m
        )
        if expected is None:
            assert targets is None
            continue
        span, tau = targets
        assert not span.any()
        assert np.abs(tau - expected).max() <= 1e-12


def test_span_basis_cache_is_read_only_and_linear_in_n():
    for n in (2, 3, 4, 7, 50):
        for arr in _span_basis(n):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
    # interior spans share one block, so a long side's entry stays O(n)
    assert sum(arr.nbytes for arr in _span_basis(20_000)) < 2_000_000


def test_resample_results_share_no_memory():
    rng = np.random.default_rng(12)
    for side in (rng.uniform(-50.0, 50.0, (7, 2)), np.ones((5, 2))):
        first, second = resample_side(side, 9), resample_side(side, 9)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        for arr in _span_basis(len(side)):
            assert not np.shares_memory(first, arr)
        first[:] = np.nan
        assert np.array_equal(resample_side(side, 9), second)


# --------------------------------------------------------- decompose/assemble


def test_decompose_rectangle_gives_congruent_quads():
    seq = decompose(rect_contour(60.0, 10.0), 6)
    assert seq.quads.shape == (6, 4, 2)
    for i, quad in enumerate(seq.quads):
        expected = np.array(
            [
                [10.0 * i, 0.0],
                [10.0 * (i + 1), 0.0],
                [10.0 * (i + 1), 10.0],
                [10.0 * i, 10.0],
            ]
        )
        assert np.allclose(quad, expected, atol=1e-9)


def test_decompose_shares_edges_exactly():
    seq = decompose(gen_ribbon(11), 6)
    for i in range(len(seq.quads) - 1):
        assert np.array_equal(seq.quads[i][1], seq.quads[i + 1][0])
        assert np.array_equal(seq.quads[i][2], seq.quads[i + 1][3])
    assert has_shared_edges(seq)


def test_has_shared_edges_tolerance():
    seq = decompose(gen_ribbon(11), 6)
    assert has_shared_edges(ComponentSequence(quads=seq.quads[:1]))
    for shift, shared in ((1e-3, False), (1e-9, True)):
        quads = seq.quads.copy()
        quads[3, 0, 1] += shift  # the top corner quad 3 shares with quad 2
        assert has_shared_edges(ComponentSequence(quads=quads)) is shared


def test_decompose_single_component():
    seq = decompose(rect_contour(), 1)
    assert seq.quads.shape == (1, 4, 2)


def test_decompose_rejects_bad_t():
    with pytest.raises(ValueError):
        decompose(rect_contour(), 0)


def test_decompose_rigid_equivariance():
    contour = gen_ribbon(23)
    angle, shift = 0.7, np.array([13.0, -4.0])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = TextContour(contour.side_a @ rot.T + shift, contour.side_b @ rot.T + shift)
    direct = decompose(moved, 6).quads
    mapped = decompose(contour, 6).quads @ rot.T + shift
    assert np.allclose(direct, mapped, atol=1e-9)


def test_assemble_round_trip_vertices_exact():
    seq = decompose(gen_ribbon(7), 6)
    poly = assemble(seq)
    top = np.concatenate([seq.quads[:, 0], seq.quads[-1:, 1]])
    bottom = np.concatenate([seq.quads[:, 3], seq.quads[-1:, 2]])
    expected = np.concatenate([top, bottom[::-1]])
    assert np.array_equal(poly.vertices, expected)
    assert len(poly) == 2 * (len(seq.quads) + 1)


def test_assemble_single_quad():
    quad = np.array([[[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]])
    poly = assemble(ComponentSequence(quads=quad))
    assert np.array_equal(poly.vertices, quad[0])


def test_assemble_averages_mismatched_junctions():
    quads = np.array(
        [
            [[0.0, 0.0], [1.0, -1.0], [1.0, 9.0], [0.0, 10.0]],
            [[1.0, 1.0], [2.0, 0.0], [2.0, 10.0], [1.0, 11.0]],
        ]
    )
    poly = assemble(ComponentSequence(quads=quads))
    expected = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 10.0], [1.0, 10.0], [0.0, 10.0]]
    )
    assert np.array_equal(poly.vertices, expected)


# ---------------------------------------------------------- split_long_sides


def _split_oracle(v):
    """The pairwise search spelled out as loops: chain lengths summed edge by edge."""
    n = len(v)
    edges = np.roll(v, -1, axis=0) - v
    edge_len = np.linalg.norm(edges, axis=1)
    prev = np.roll(edges, 1, axis=0)
    cross = prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0]
    turn = np.abs(np.arctan2(cross, (prev * edges).sum(axis=1)))
    score = turn + np.roll(turn, -1)

    def chain_len(first, last):
        k, total = first, 0.0
        while k != last:
            total += edge_len[k]
            k = (k + 1) % n
        return total

    best_key, best_pair = None, None
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            la = chain_len((i + 1) % n, j)
            lb = chain_len((j + 1) % n, i)
            key = (
                round((score[i] + score[j]) * 1e9),
                round(min(la, lb) / max(la, lb) * 1e9),
                -(edge_len[i] + edge_len[j]),
            )
            if best_key is None or key > best_key:
                best_key, best_pair = key, (i, j)
    i, j = best_pair
    idx_a = [(i + 1 + k) % n for k in range((j - i - 1) % n + 1)]
    idx_b = [(j + 1 + k) % n for k in range((i - j - 1) % n + 1)]
    return v[idx_a], v[idx_b][::-1]


def _assert_split_matches_oracle(vertices):
    got = split_long_sides(Polygon(vertices))
    side_a, side_b = _split_oracle(vertices)
    assert np.array_equal(got.side_a, side_a)
    assert np.array_equal(got.side_b, side_b)


def test_split_matches_loop_oracle_on_ribbons():
    for side_vertices in range(2, 50, 3):
        for seed in range(2):
            contour = gen_ribbon(seed, RibbonParams(side_vertices=side_vertices, curvature=0.012))
            ring = contour_polygon(contour).vertices
            for shift in (0, side_vertices // 2 + 1):
                _assert_split_matches_oracle(np.roll(ring, -shift, axis=0))


def test_split_ties_go_to_the_first_pair():
    # Every edge pair of a square ties on all three keys; pair (0, 2) comes first.
    square = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    _assert_split_matches_oracle(square)
    got = split_long_sides(Polygon(square))
    assert np.array_equal(got.side_a, square[1:3])
    for n in (6, 8, 12):
        angle = 2.0 * np.pi * np.arange(n) / n
        _assert_split_matches_oracle(np.stack([np.cos(angle), np.sin(angle)], axis=1))


def test_split_matches_loop_oracle_on_golden_file():
    golden = Path(__file__).parent / "data" / "golden.jsonl"
    for record in read_jsonl(golden):
        for instance in record.instances:
            _assert_split_matches_oracle(instance.polygon.vertices)



def test_split_flat_quad_takes_no_invalid_step():
    # The unit sides cancel to length 0 beside cumulative lengths near 2e150;
    # a split between two vanishing sides has balance 0, not 0 / 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        contour = split_long_sides([[0.0, 0.0], [1e150, 1e-200], [1e150, 1.0], [0.0, 1.0]])
    assert np.array_equal(contour.side_a, [[1e150, 1.0], [0.0, 1.0]])
    assert np.array_equal(contour.side_b, [[1e150, 1e-200], [0.0, 0.0]])


def test_split_fixed_14pt_layout():
    rng = np.random.default_rng(9)
    verts = rng.uniform(0.0, 50.0, (14, 2))
    contour = split_long_sides(Polygon(verts), format_hint="ctw1500-14pt")
    assert np.array_equal(contour.side_a, verts[0:7])
    assert np.array_equal(contour.side_b, verts[7:14][::-1])


def test_split_fixed_14pt_rejects_other_counts():
    with pytest.raises(ValueError):
        split_long_sides(UNIT_SQUARE, format_hint="ctw1500-14pt")
    with pytest.raises(ValueError):
        split_long_sides(UNIT_SQUARE, format_hint="no-such-format")


def test_split_rectangle_into_long_edges():
    poly = Polygon(np.array([[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]))
    contour = split_long_sides(poly)
    sides = {tuple(map(tuple, contour.side_a)), tuple(map(tuple, contour.side_b))}
    top = {((0.0, 0.0), (60.0, 0.0)), ((60.0, 0.0), (0.0, 0.0))}
    bottom = {((0.0, 10.0), (60.0, 10.0)), ((60.0, 10.0), (0.0, 10.0))}
    assert len(sides & top) == 1 and len(sides & bottom) == 1


def test_split_recovers_generator_sides():
    # The boundary ring loses which end is the head, so recovery is exact up
    # to traversing the region from the other end (both sides reversed and
    # swapped).
    for seed in range(10):
        contour = gen_ribbon(seed)
        got = split_long_sides(contour_polygon(contour))
        forward = np.array_equal(got.side_a, contour.side_a) and np.array_equal(
            got.side_b, contour.side_b
        )
        backward = np.array_equal(got.side_a, contour.side_b[::-1]) and np.array_equal(
            got.side_b, contour.side_a[::-1]
        )
        assert forward or backward


# -------------------------------------------------------- polygon primitives


def test_is_simple():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    # a product of two cross products underflows at 1e-100 and overflows at the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e-100, COORD_BOUND):
            assert is_simple(Polygon(UNIT_SQUARE.vertices * scale))
            assert not is_simple(Polygon(bowtie * scale))


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Polygon(np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]]))


def test_contour_validation():
    with pytest.raises(ValueError):
        TextContour(np.array([[0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_component_sequence_validation():
    with pytest.raises(ValueError):
        ComponentSequence(np.zeros((0, 4, 2)))
    with pytest.raises(ValueError):
        ComponentSequence(np.zeros((2, 4, 2)), scores=np.array([0.5]))
    with pytest.raises(ValueError):
        ComponentSequence(np.zeros((2, 4, 2)), scores=np.array([0.5, 1.5]))


# ------------------------------------------------------------- bezier fitting


def test_bezier_straight_side_matches_resample():
    side = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
    fitted = bezier_fit_side(side, 7)
    direct = resample_side(side, 7)
    assert np.allclose(fitted, direct, atol=1e-9)


def test_bezier_quarter_circle_stays_near_arc():
    # The chord-length fit keeps its parameters fixed, so it is not the
    # near-optimal cubic (about 2.7e-4 of the radius); on a 7-point quarter
    # arc its maximum radial error measures 2.46e-3 of the radius.
    theta = np.linspace(0.0, np.pi / 2, 7)
    side = 100.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = bezier_fit_side(side, 25)
    assert np.abs(pts - _bezier_fit_side_oracle(side, 25)).max() <= 1e-9 * 100.0
    radial_error = np.abs(np.linalg.norm(pts, axis=1) - 100.0)
    assert radial_error.max() < 2.5e-3 * 100.0


def test_bezier_s_shape_reconstructs_worse_than_bspline():
    params_high = dict(curvature=0.012)
    from textcomp import RibbonParams, piou_exact

    params = RibbonParams(**params_high)
    deltas = []
    for seed in range(12):
        contour = gen_ribbon(seed, params)
        original = contour_polygon(contour)
        rebuilt_bs = assemble(decompose(contour, 6, method="bspline"))
        rebuilt_bz = assemble(decompose(contour, 6, method="bezier"))
        deltas.append(piou_exact(rebuilt_bs, original) - piou_exact(rebuilt_bz, original))
    assert np.mean(deltas) > 0.0


def test_bezier_rejects_degenerate_side():
    with pytest.raises(ValueError):
        bezier_fit_side(np.array([[1.0, 1.0], [1.0, 1.0]]), 5)


def test_bezier_endpoints_are_exact():
    rng = np.random.default_rng(4)
    for _ in range(200):
        side = rng.uniform(-100.0, 100.0, (int(rng.integers(2, 61)), 2))
        pts = bezier_fit_side(side, int(rng.integers(2, 12)))
        assert np.array_equal(pts[0], side[0])
        assert np.array_equal(pts[-1], side[-1])


def _bezier_eval_oracle(ctrl, t):
    t = t[:, None]
    s = 1.0 - t
    return s**3 * ctrl[0] + 3.0 * t * s**2 * ctrl[1] + 3.0 * t**2 * s * ctrl[2] + t**3 * ctrl[3]


def _bezier_fit_side_oracle(side, m):
    """The one-side fit in Bernstein form: one lstsq at chord-length parameters.

    The interior control points are solved as minimum-norm offsets from the
    straight-segment controls, against the residual of the straight cubic.
    """
    chord = np.linalg.norm(np.diff(side, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(chord)]) / chord.sum()
    p0, p3 = side[0], side[-1]
    straight = np.array([p0, (2.0 * p0 + p3) / 3.0, (p0 + 2.0 * p3) / 3.0, p3])
    s = 1.0 - t
    bern = np.stack([3.0 * t * s**2, 3.0 * t**2 * s], axis=1)
    offset, *_ = np.linalg.lstsq(bern, side - _bezier_eval_oracle(straight, t), rcond=None)
    ctrl = straight + np.vstack([[0.0, 0.0], offset, [0.0, 0.0]])
    params = _arc_length_params_oracle(
        lambda tt: _bezier_eval_oracle(ctrl, tt), np.array([0.0, 1.0]), m
    )
    if params is None:
        return np.repeat(side[:1], m, axis=0)
    return _bezier_eval_oracle(ctrl, params)


def _side(n, kind, rng):
    """A text-like side of n vertices: a random walk, a ribbon side, collinear
    points, or a walk with two equal interior vertices.

    Scattered point clouds are checked by ``test_bezier_fit_is_stable_on_point_clouds``.
    """
    if kind == "collinear":
        offsets = np.sort(rng.uniform(0.0, 80.0, n))
        return rng.uniform(-50.0, 50.0, 2) + np.outer(offsets, rng.normal(size=2))
    if kind == "ribbon":
        params = RibbonParams(side_vertices=max(n, 3), curvature=0.012)
        return gen_ribbon(int(rng.integers(1 << 30)), params).side_a[:n]
    side = np.cumsum(rng.uniform(-5.0, 20.0, (n, 2)), axis=0)
    if kind == "duplicate" and n >= 4:  # two equal interior vertices
        k = int(rng.integers(1, n - 2))
        side[k + 1] = side[k]
    return side


side_kinds = st.sampled_from(["walk", "ribbon", "collinear", "duplicate"])


@given(
    n_a=st.one_of(st.just(3), st.integers(2, 60)),
    n_b=st.one_of(st.none(), st.integers(2, 60)),
    kind_a=side_kinds,
    kind_b=side_kinds,
    t=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fits_match_one_side_oracles(n_a, n_b, kind_a, kind_b, t, seed):
    # n_b None gives both sides the same vertex count, as annotated contours usually have.
    rng = np.random.default_rng(seed)
    contour = TextContour(_side(n_a, kind_a, rng), _side(n_a if n_b is None else n_b, kind_b, rng))
    fits = []
    for side in (contour.side_a, contour.side_b):
        scale = np.abs(side).max()
        fit = bezier_fit_side(side, t + 1)
        assert np.abs(fit - _bezier_fit_side_oracle(side, t + 1)).max() <= 1e-9 * scale
        resampled = resample_side(side, t + 1)
        assert np.abs(resampled - _resample_table_oracle(side, t + 1)).max() <= 1e-12 * scale
        fits.append(fit)
    a, b = fits
    alone = np.stack([a[:-1], a[1:], b[1:], b[:-1]], axis=1)
    scale = max(np.abs(contour.side_a).max(), np.abs(contour.side_b).max())
    assert np.abs(decompose(contour, t, "bezier").quads - alone).max() <= 1e-12 * scale


@given(
    n=st.one_of(st.just(3), st.integers(2, 60)),
    kind=side_kinds,
    shift=st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)),
    angle=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bezier_fit_is_equivariant(n, kind, shift, angle, seed):
    # The interior controls are offsets from the chord, so a rank-deficient
    # side (3 vertices, or two equal interior ones) fits the same wherever
    # it sits; an lstsq in absolute coordinates bends toward the origin.
    side = _side(n, kind, np.random.default_rng(seed))
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array(shift)
    tol = 1e-9 * (np.abs(side).max() + np.abs(shift).max())
    fit = bezier_fit_side(side, 9)
    assert np.abs(bezier_fit_side(side + shift, 9) - (fit + shift)).max() <= tol
    assert np.abs(bezier_fit_side(side @ rot.T, 9) - fit @ rot.T).max() <= tol


def test_bezier_fit_off_origin_three_point_side():
    # An lstsq in absolute coordinates bent the first side out to about
    # (793, 760), and the second, whose middle vertex repeats an endpoint,
    # off its straight segment.
    bent = bezier_fit_side([[1000.0, 1000.0], [1020.0, 1010.0], [1100.0, 1000.0]], 5)
    assert (bent[:, 0] >= 1000.0).all() and (bent[:, 0] <= 1100.0).all()
    assert (bent[:, 1] >= 1000.0).all() and (bent[:, 1] <= 1012.0).all()
    straight = bezier_fit_side([[1000.0, 1000.0], [1000.0, 1000.0], [1100.0, 1050.0]], 5)
    expected = np.linspace([1000.0, 1000.0], [1100.0, 1050.0], 5)
    assert np.abs(straight - expected).max() <= 1e-9 * 1100.0


def test_bezier_fit_is_stable_on_point_clouds():
    # One lstsq at fixed chord-length parameters is a continuous map of the
    # side, so a 1e-15 relative change of a scattered cloud barely moves it.
    rng = np.random.default_rng(0)
    for _ in range(200):
        side = rng.uniform(-50.0, 50.0, (int(rng.integers(3, 31)), 2))
        nudged = side * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, side.shape))
        scale = np.abs(side).max()
        fit = bezier_fit_side(side, 1001)
        assert np.isfinite(fit).all()
        assert np.array_equal(fit[[0, -1]], side[[0, -1]])
        assert np.abs(bezier_fit_side(nudged, 1001) - fit).max() <= 1e-9 * scale
    # Integer sides with runs of endpoint copies: finite points through the
    # exact endpoints (their response to near-copies is checked below).
    for _ in range(40):
        side = np.rint(np.cumsum(rng.uniform(-5.0, 20.0, (int(rng.integers(3, 41)), 2)), axis=0))
        k = int(rng.integers(1, len(side) - 1))
        if rng.integers(2):
            side[1 : k + 1] = side[0]
        else:
            side[k:-1] = side[-1]
        fit = bezier_fit_side(side, 1001)
        assert np.isfinite(fit).all()
        assert np.array_equal(fit[[0, -1]], side[[0, -1]])


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    head=st.integers(min_value=0, max_value=3),
    tail=st.integers(min_value=0, max_value=3),
    middle=st.integers(min_value=0, max_value=3),
    log_offset=st.floats(min_value=-16.0, max_value=-7.0),
    far=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_bezier_fit_treats_near_copies_of_an_endpoint_as_copies(
    seed, head, tail, middle, log_offset, far
):
    # Copies of an endpoint moved by up to 1e-7 of the chord used to make the
    # lstsq rows nearly singular: the fit moved by up to 1e27 times the move.
    # Snapped onto the endpoint, they move it about as far as they moved.
    rng = np.random.default_rng(seed)
    p0, p1 = rng.uniform(-100.0, 100.0, (2, 2)) + far * rng.uniform(-1e4, 1e4, 2)
    inner = list(rng.uniform(-100.0, 100.0, (middle, 2)))
    head += head + tail == 0
    exact = np.array([p0] * (1 + head) + inner + [p1] * (1 + tail))
    offset = np.linalg.norm(p1 - p0) * 10.0**log_offset
    nudged = exact.copy()
    nudged[1 : 1 + head] += offset * rng.uniform(-0.5, 0.5, (head, 2))
    nudged[len(exact) - 1 - tail : -1] += offset * rng.uniform(-0.5, 0.5, (tail, 2))
    scale = np.abs(exact).max()
    moved = np.abs(bezier_fit_side(nudged, 9) - bezier_fit_side(exact, 9)).max()
    assert moved <= 1e4 * (offset + 1e-15 * scale)


@pytest.mark.parametrize("method", ["bspline", "bezier"])
@pytest.mark.parametrize("curvature", [RibbonParams().curvature, 0.012])
def test_decompose_emits_no_folded_quads(method, curvature):
    # Every quad of a ribbon's chain is a simple quadrilateral, so the three
    # overlap kernels only disagree on hand-made folded quads.
    params = RibbonParams(curvature=curvature)
    for seed in range(100):
        for t in (6, 12):
            for quad in decompose(gen_ribbon(seed, params), t, method).quads:
                assert is_simple(quad), (seed, t)


@pytest.mark.parametrize("method", ["bspline", "bezier"])
def test_decompose_at_the_coordinate_bound(method):
    # A ribbon scaled out to the bound decomposes like its small copy: the
    # squared steps of the arc-length table stay finite, and points a fit
    # places past the bound are clamped to it.
    contour = gen_ribbon(3, RibbonParams(curvature=0.012))
    pts = np.concatenate([contour.side_a, contour.side_b])
    center = pts.mean(axis=0)
    factor = COORD_BOUND / np.abs(pts - center).max()
    big = TextContour((contour.side_a - center) * factor, (contour.side_b - center) * factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quads = decompose(big, 6, method).quads
    assert np.abs(quads).max() <= COORD_BOUND
    small = decompose(contour, 6, method).quads
    assert np.abs(quads / factor + center - small).max() <= 1e-9 * np.abs(pts).max()
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) * COORD_BOUND
    assert np.abs(decompose(split_long_sides(square), 3, method).quads).max() == COORD_BOUND
