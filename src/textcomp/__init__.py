"""Curved-text detection geometry toolkit.

Text instances are modeled as two-sided contours decomposed into ordered
quadrilateral component sequences; the package provides the decomposition
and assembly geometry, a sampled polygon-overlap measure with an exact
oracle, sequence-level optimal matching, the frame-grid layout, calibrated
classification losses, an evaluation harness, a synthetic-scene generator,
annotation I/O, and a command-line front end.
"""

from .evaluate import EvalReport, evaluate
from .frames import FrameGrid, InstancePrediction, from_frames, to_frames
from .geometry import (
    ComponentSequence,
    Polygon,
    TextContour,
    assemble,
    bezier_fit_side,
    contour_polygon,
    decompose,
    has_shared_edges,
    is_simple,
    resample_side,
    split_long_sides,
)
from .ingest import (
    AnnotationRecord,
    Instance,
    ParseError,
    SchemaError,
    read_ctw1500,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    write_jsonl,
)
from .losses import (
    EPSILON,
    LossParams,
    LossValue,
    finite_diff_check,
    focal_loss,
    l1_loss,
    psc_loss,
)
from .matching import (
    CapacityError,
    MatchParams,
    MatchResult,
    hungarian,
    match_sequences,
)
from .piou import PIoUConfig, PIoUEstimate, biou, piou_exact, piou_mc, quantize, sample_interior
from .synth import GenerationError, RibbonParams, gen_ribbon, gen_scene, perturb

__version__ = "0.1.0"

__all__ = [
    "AnnotationRecord",
    "CapacityError",
    "ComponentSequence",
    "EPSILON",
    "EvalReport",
    "FrameGrid",
    "GenerationError",
    "Instance",
    "InstancePrediction",
    "LossParams",
    "LossValue",
    "MatchParams",
    "MatchResult",
    "PIoUConfig",
    "PIoUEstimate",
    "ParseError",
    "Polygon",
    "RibbonParams",
    "SchemaError",
    "TextContour",
    "assemble",
    "bezier_fit_side",
    "biou",
    "contour_polygon",
    "decompose",
    "evaluate",
    "finite_diff_check",
    "focal_loss",
    "from_frames",
    "gen_ribbon",
    "gen_scene",
    "has_shared_edges",
    "hungarian",
    "is_simple",
    "l1_loss",
    "match_sequences",
    "perturb",
    "piou_exact",
    "piou_mc",
    "psc_loss",
    "quantize",
    "read_ctw1500",
    "read_jsonl",
    "record_from_dict",
    "record_to_dict",
    "resample_side",
    "sample_interior",
    "split_long_sides",
    "to_frames",
    "write_jsonl",
    "__version__",
]
