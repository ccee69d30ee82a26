"""Frame-grid layout: transposing instance sequences and assembling them back."""

import numpy as np
import pytest

from textcomp import (
    ComponentSequence,
    FrameGrid,
    InstancePrediction,
    Polygon,
    decompose,
    from_frames,
    gen_ribbon,
    to_frames,
)


def random_scene(seed, n, t=6, with_scores=True):
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(n):
        quads = rng.uniform(0.0, 500.0, (t, 4, 2))
        scores = rng.uniform(0.0, 1.0, t) if with_scores else None
        sequences.append(ComponentSequence(quads, scores=scores))
    return sequences


# ----------------------------------------------------------------- to_frames


def test_to_frames_is_a_transpose():
    sequences = random_scene(0, n=5, t=4)
    grid = to_frames(sequences)
    assert grid.frame_count == 4
    assert grid.slot_count == 5
    for f in range(4):
        for j in range(5):
            assert np.array_equal(grid.quads[f, j], sequences[j].quads[f])
            assert grid.scores[f, j] == sequences[j].scores[f]


def test_to_frames_single_instance():
    sequences = random_scene(1, n=1, t=6)
    grid = to_frames(sequences)
    assert grid.quads.shape == (6, 1, 4, 2)


def test_to_frames_single_frame():
    sequences = random_scene(2, n=7, t=1)
    grid = to_frames(sequences)
    assert grid.quads.shape == (1, 7, 4, 2)


def test_to_frames_rejects_ragged_lengths():
    a = ComponentSequence(np.zeros((2, 4, 2)))
    b = ComponentSequence(np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        to_frames([a, b])


def test_to_frames_rejects_mixed_scoring():
    a = ComponentSequence(np.zeros((2, 4, 2)), scores=np.array([0.5, 0.5]))
    b = ComponentSequence(np.zeros((2, 4, 2)))
    with pytest.raises(ValueError):
        to_frames([a, b])


def test_to_frames_rejects_empty_scene():
    with pytest.raises(ValueError):
        to_frames([])


def test_grid_validation():
    with pytest.raises(ValueError):
        FrameGrid(np.zeros((2, 3, 4)))  # wrong rank
    with pytest.raises(ValueError):
        FrameGrid(np.zeros((2, 3, 4, 2)), scores=np.zeros((3, 2)))  # transposed scores
    with pytest.raises(ValueError):
        FrameGrid(np.zeros((2, 3, 4, 2)), scores=np.full((2, 3), 1.5))  # out of range


# --------------------------------------------------------------- from_frames


def test_round_trip_is_exact():
    sequences = random_scene(3, n=9, t=6)
    grid = to_frames(sequences)
    rebuilt = from_frames(grid, score_threshold=0.0)
    assert len(rebuilt) == len(sequences)
    for original, prediction in zip(sequences, rebuilt):
        assert np.array_equal(prediction.components.quads, original.quads)
        assert np.array_equal(prediction.components.scores, original.scores)


def test_from_frames_mean_score_example():
    quads = np.zeros((6, 1, 4, 2))
    scores = np.array([[1.0], [0.8], [0.6], [0.6], [0.8], [1.0]])
    predictions = from_frames(FrameGrid(quads, scores), score_threshold=0.0)
    assert predictions[0].score == pytest.approx(0.8, abs=1e-12)


def test_from_frames_drops_only_strictly_below_threshold():
    quads = np.zeros((2, 3, 4, 2))
    scores = np.array([[0.2, 0.5, 0.9], [0.2, 0.5, 0.9]])
    kept = from_frames(FrameGrid(quads, scores), score_threshold=0.5)
    assert [round(p.score, 6) for p in kept] == [0.5, 0.9]


def test_from_frames_all_confident():
    sequences = random_scene(4, n=4, t=6, with_scores=False)
    grid = to_frames(sequences)
    confident = FrameGrid(grid.quads, np.ones((6, 4)))
    predictions = from_frames(confident, score_threshold=0.5)
    assert len(predictions) == 4
    assert all(p.score == 1.0 for p in predictions)


def test_from_frames_all_rejected():
    quads = np.zeros((2, 3, 4, 2))
    scores = np.zeros((2, 3))
    assert from_frames(FrameGrid(quads, scores), score_threshold=0.5) == []


def test_from_frames_polygon_shape_and_order():
    sequences = [decompose(gen_ribbon(s), 6) for s in (0, 1, 2)]
    scored = [
        ComponentSequence(seq.quads, scores=np.full(6, 0.9)) for seq in sequences
    ]
    predictions = from_frames(to_frames(scored), score_threshold=0.5)
    assert len(predictions) == 3  # never merges or splits instances
    for original, prediction in zip(sequences, predictions):
        assert isinstance(prediction.polygon, Polygon)
        assert len(prediction.polygon) == 2 * (6 + 1)
        # slot order is preserved
        assert np.array_equal(prediction.components.quads, original.quads)


def test_instance_prediction_validation():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    seq = ComponentSequence(np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        InstancePrediction(polygon=poly, score=1.5, components=seq)
