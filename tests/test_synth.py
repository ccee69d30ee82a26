"""Synthetic ribbon and scene generation: determinism, validity, noise model."""

import numpy as np
import pytest

from textcomp import (
    PIoUConfig,
    RibbonParams,
    TextContour,
    assemble,
    contour_polygon,
    decompose,
    gen_ribbon,
    gen_scene,
    is_simple,
    perturb,
    piou_exact,
    piou_mc,
)


# ---------------------------------------------------------------- gen_ribbon


def test_ribbon_is_deterministic():
    a, b = gen_ribbon(123), gen_ribbon(123)
    assert np.array_equal(a.side_a, b.side_a)
    assert np.array_equal(a.side_b, b.side_b)


def test_different_seeds_differ():
    a, b = gen_ribbon(1), gen_ribbon(2)
    assert not np.array_equal(a.side_a, b.side_a)


def test_ribbon_side_vertex_counts():
    contour = gen_ribbon(5)
    assert contour.side_a.shape == (7, 2)
    assert contour.side_b.shape == (7, 2)
    custom = gen_ribbon(5, RibbonParams(side_vertices=10))
    assert custom.side_a.shape == (10, 2)


@pytest.mark.parametrize("n", [300, 1000])
def test_ribbon_has_more_side_vertices_than_dense_steps(n):
    contour = gen_ribbon(3, RibbonParams(side_vertices=n))
    assert contour.side_a.shape == contour.side_b.shape == (n, 2)
    assert is_simple(contour_polygon(contour))


def test_every_ribbon_boundary_is_simple():
    for seed in range(50):
        assert is_simple(contour_polygon(gen_ribbon(seed)))


def test_straight_constant_width_ribbon_is_the_rectangle_limit():
    params = RibbonParams(curvature=0.0, half_width=(20.0, 20.0))
    for seed in (3, 9):
        contour = gen_ribbon(seed, params)
        rebuilt = assemble(decompose(contour, 6))
        assert piou_exact(rebuilt, contour_polygon(contour)) >= 0.999


def test_straight_ribbons_reconstruct_well_despite_width_profile():
    params = RibbonParams(curvature=0.0)
    values = []
    for seed in range(10):
        contour = gen_ribbon(seed, params)
        rebuilt = assemble(decompose(contour, 6))
        values.append(piou_exact(rebuilt, contour_polygon(contour)))
    assert float(np.mean(values)) >= 0.99


def test_params_validation():
    with pytest.raises(ValueError):
        RibbonParams(curvature=-0.001)
    with pytest.raises(ValueError):
        RibbonParams(half_width=(0.0, 5.0))
    with pytest.raises(ValueError):
        RibbonParams(length=(200.0, 100.0))
    with pytest.raises(ValueError):
        RibbonParams(side_vertices=1)


# ------------------------------------------------------------------- perturb


def test_perturb_zero_noise_is_the_decomposition():
    contour = gen_ribbon(2)
    clean = decompose(contour, 6)
    jittered = perturb(contour, 0.0, seed=5)
    assert np.array_equal(jittered.quads, clean.quads)
    assert piou_mc(clean, jittered).value == 1.0


def test_perturb_scores_follow_noise_level():
    contour = gen_ribbon(3)
    assert np.all(perturb(contour, 0.0, seed=1).scores == 1.0)
    assert np.allclose(perturb(contour, 2.0, seed=1).scores, 0.8)
    assert np.all(perturb(contour, 50.0, seed=1).scores == 0.0)  # clamped


def test_perturb_deterministic_and_bounded():
    contour = gen_ribbon(4)
    a = perturb(contour, 1.5, seed=7)
    b = perturb(contour, 1.5, seed=7)
    assert np.array_equal(a.quads, b.quads)
    clean = decompose(contour, 6)
    assert np.max(np.abs(a.quads - clean.quads)) <= 1.5


def test_perturb_rejects_negative_noise():
    with pytest.raises(ValueError):
        perturb(gen_ribbon(1), -0.5, seed=0)


def test_perturb_overlap_decays_with_noise_on_average():
    # Average overlap against the clean decomposition must not increase as
    # jitter grows.
    config = PIoUConfig(k_samples=4000)
    means = []
    for noise in (0.0, 1.0, 2.0, 4.0):
        values = []
        for seed in range(100):
            contour = gen_ribbon(seed)
            clean = decompose(contour, 6)
            noisy = perturb(contour, noise, seed=seed + 10_000)
            values.append(piou_mc(clean, noisy, config).value)
        means.append(float(np.mean(values)))
    assert all(a >= b for a, b in zip(means, means[1:]))
    assert means[0] == 1.0


# ----------------------------------------------------------------- gen_scene


def test_scene_count_and_determinism():
    scene = gen_scene(11, 3)
    again = gen_scene(11, 3)
    assert len(scene) == 3
    for a, b in zip(scene, again):
        assert np.array_equal(a.side_a, b.side_a)
        assert np.array_equal(a.side_b, b.side_b)


def test_scene_empty():
    assert gen_scene(0, 0) == []


def test_scene_contours_stay_on_canvas():
    canvas = (1024.0, 768.0)
    for seed in range(10):
        for contour in gen_scene(seed, 5, canvas=canvas):
            points = np.concatenate([contour.side_a, contour.side_b])
            assert points[:, 0].min() >= 0.0 and points[:, 0].max() <= canvas[0]
            assert points[:, 1].min() >= 0.0 and points[:, 1].max() <= canvas[1]


def test_scene_instances_are_valid_ribbons():
    for contour in gen_scene(21, 4):
        assert isinstance(contour, TextContour)
        assert is_simple(contour_polygon(contour))


def test_scene_rejects_negative_count():
    with pytest.raises(ValueError):
        gen_scene(0, -1)
