"""Every constructor that takes coordinates or scores rejects the same inputs.

Coordinates are validated by ``geometry._as_points`` and scores by
``geometry._as_scores``; each row below reaches one of them through a
public constructor or function.
"""

import numpy as np
import pytest

from textcomp import (
    ComponentSequence,
    FrameGrid,
    Instance,
    InstancePrediction,
    Polygon,
    SchemaError,
    TextContour,
    focal_loss,
    psc_loss,
    record_from_dict,
)
from textcomp.geometry import COORD_BOUND

SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
QUADS = np.stack([SQUARE, SQUARE + [4.0, 0.0]])  # (2, 4, 2)
SCORES = np.array([0.5, 0.25])


def _record(instance: dict):
    return record_from_dict({"image": "a", "instances": [instance]}, line=5)


# name -> (valid coordinates, build from coordinates)
COORD_TARGETS = {
    "Polygon": (SQUARE, Polygon),
    "TextContour": (SQUARE, lambda c: TextContour(c, SQUARE)),
    "ComponentSequence": (QUADS, ComponentSequence),
    "FrameGrid": (QUADS, lambda q: FrameGrid(q[:, None])),
    "Instance": (QUADS, lambda q: Instance(Polygon(SQUARE), components=q)),
    "record_from_dict.polygon": (SQUARE, lambda c: _record({"polygon": c.tolist()})),
    "record_from_dict.components": (
        QUADS,
        lambda q: _record({"polygon": SQUARE.tolist(), "components": q.tolist()}),
    ),
}

# name -> build from a valid score array of shape (2,)
SCORE_TARGETS = {
    "ComponentSequence": lambda s: ComponentSequence(QUADS, s),
    "FrameGrid": lambda s: FrameGrid(QUADS[:, None], s[:, None]),
    "Instance": lambda s: Instance(Polygon(SQUARE), score=s[0]),
    "InstancePrediction": lambda s: InstancePrediction(
        Polygon(SQUARE), s[0], ComponentSequence(QUADS)
    ),
    "focal_loss": lambda s: focal_loss(s, [True, False]),
    "psc_loss.pos_scores": lambda s: psc_loss(s, SCORES, SCORES),
    "psc_loss.pos_pious": lambda s: psc_loss(SCORES, s, SCORES),
    "psc_loss.neg_scores": lambda s: psc_loss(SCORES, SCORES, s),
    "record_from_dict": lambda s: _record({"polygon": SQUARE.tolist(), "score": s[0]}),
}

# Just past the bound either way; COORD_BOUND itself is accepted.
PAST_BOUND = np.nextafter(COORD_BOUND, np.inf)
COORD_FAULTS = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "past_bound": PAST_BOUND,
    "-past_bound": -PAST_BOUND,
    "shape": None,
}
SCORE_FAULTS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "below": -0.1, "above": 1.5}


def _expect_rejection(name: str, build, bad) -> None:
    expected = SchemaError if name.startswith("record_from_dict") else ValueError
    with pytest.raises(expected) as info:
        build(bad)
    if expected is SchemaError:
        assert str(info.value).startswith("line 5: instances[0]")


@pytest.mark.parametrize("fault", COORD_FAULTS)
@pytest.mark.parametrize("name", COORD_TARGETS)
def test_coordinate_constructors_reject_bad_coordinates(name, fault):
    good, build = COORD_TARGETS[name]
    build(good)
    if fault == "shape":  # one extra value per point
        bad = np.concatenate([good, np.zeros((*good.shape[:-1], 1))], axis=-1)
    else:
        bad = good.copy()
        bad.flat[-1] = COORD_FAULTS[fault]
    _expect_rejection(name, build, bad)


@pytest.mark.parametrize("value", [COORD_BOUND, -COORD_BOUND])
@pytest.mark.parametrize("name", COORD_TARGETS)
def test_coordinate_constructors_accept_the_bound(name, value):
    good, build = COORD_TARGETS[name]
    edge = good.copy()
    edge.flat[-1] = value
    build(edge)


@pytest.mark.parametrize("fault", SCORE_FAULTS)
@pytest.mark.parametrize("name", SCORE_TARGETS)
def test_score_constructors_reject_bad_scores(name, fault):
    build = SCORE_TARGETS[name]
    build(SCORES)
    bad = SCORES.copy()
    bad[0] = SCORE_FAULTS[fault]
    _expect_rejection(name, build, bad)
