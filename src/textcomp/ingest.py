"""Reading and writing annotation data.

Two formats are supported: the 14-points-per-curve benchmark text format
(one instance per line, 28 or 32 comma-separated integers whose last 28
values are x,y pairs tracing the top side left-to-right then the bottom side
right-to-left), and a line-delimited JSON interchange format used by the
command-line tools. Parse failures report 1-based line numbers.

The JSON schema per line is
    {"image": str, "instances": [{"polygon": [[x, y], ...],
                                  "score"?: float, "ignore"?: bool,
                                  "components"?: [[[x, y] * 4], ...]}]}
with unknown keys tolerated on read and coordinates written at full
round-trip precision. Files are written with LF line endings; CRLF input is
accepted.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from .geometry import Polygon, _as_points, _as_scores

__all__ = [
    "ParseError",
    "SchemaError",
    "Instance",
    "AnnotationRecord",
    "read_ctw1500",
    "read_jsonl",
    "write_jsonl",
    "record_to_dict",
    "record_from_dict",
]

_CTW1500_FIELD_COUNTS = (28, 32)


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SchemaError(ParseError):
    """Well-formed input whose content violates the expected schema."""


@dataclass
class Instance:
    """One annotated or predicted text instance.

    score is checked by ``geometry._as_scores`` and components by
    ``geometry._as_points``, the validators ``ComponentSequence`` uses too.
    """

    polygon: Polygon
    score: float | None = None
    ignore: bool = False
    components: np.ndarray | None = None  # (t, 4, 2)

    def __post_init__(self) -> None:
        if self.score is not None:
            self.score = float(_as_scores(self.score, "score", ()))
        if self.components is not None:
            self.components = _as_points(self.components, "components", 0, (4, 2), ("t",))


@dataclass
class AnnotationRecord:
    """All instances of one image."""

    image: str
    instances: list[Instance] = field(default_factory=list)


def read_ctw1500(content: str, image: str = "") -> AnnotationRecord:
    """Parse one image's annotation file content in the 14-point benchmark format.

    Each non-empty line must hold 28 or 32 comma-separated integers; the
    last 28 are the x,y pairs of the 14 outline points.
    """
    instances: list[Instance] = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) not in _CTW1500_FIELD_COUNTS:
            raise ParseError(
                f"expected {' or '.join(map(str, _CTW1500_FIELD_COUNTS))} comma-separated "
                f"fields, got {len(fields)}",
                lineno,
            )
        values = []
        for pos, item in enumerate(fields, start=1):
            try:
                values.append(int(item.strip()))
            except ValueError:
                raise ParseError(f"field {pos} is not an integer: {item.strip()!r}", lineno) from None
        try:
            coords = np.asarray(values[-28:], dtype=float).reshape(14, 2)
            instances.append(Instance(polygon=Polygon(coords)))
        except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
            raise SchemaError(str(exc), lineno) from None
    return AnnotationRecord(image=image, instances=instances)


def _require(condition: bool, message: str, line: int | None) -> None:
    if not condition:
        raise SchemaError(message, line)


def _parse_points(obj: Any, what: str, line: int | None) -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) > 0, f"{what} must be a non-empty list", line)
    for pt in obj:
        _require(
            isinstance(pt, list) and len(pt) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pt),
            f"{what} entries must be [x, y] number pairs",
            line,
        )
    return np.asarray(obj, dtype=float)


def _instance_from_dict(obj: Any, where: str, line: int | None) -> Instance:
    _require(isinstance(obj, dict), f"{where} must be an object", line)
    _require("polygon" in obj, f"{where} is missing 'polygon'", line)
    pts = _parse_points(obj["polygon"], f"{where}.polygon", line)
    _require(len(pts) >= 3, f"{where}.polygon needs at least 3 points", line)
    score = obj.get("score")
    if score is not None:
        _require(
            isinstance(score, (int, float)) and not isinstance(score, bool),
            f"{where}.score must be a number",
            line,
        )
    ignore = obj.get("ignore", False)
    _require(isinstance(ignore, bool), f"{where}.ignore must be a boolean", line)
    components = None
    if obj.get("components") is not None:
        raw = obj["components"]
        _require(isinstance(raw, list) and len(raw) > 0, f"{where}.components must be a non-empty list", line)
        quads = []
        for qi, quad in enumerate(raw):
            q = _parse_points(quad, f"{where}.components[{qi}]", line)
            _require(q.shape == (4, 2), f"{where}.components[{qi}] must hold exactly 4 points", line)
            quads.append(q)
        components = np.stack(quads)
    try:
        return Instance(
            polygon=Polygon(pts),
            score=score,
            ignore=ignore,
            components=components,
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}", line) from None


def record_from_dict(obj: Any, line: int | None = None) -> AnnotationRecord:
    """Build a record from one decoded JSON object, validating the schema."""
    _require(isinstance(obj, dict), "record must be an object", line)
    _require(isinstance(obj.get("image"), str), "record needs a string 'image'", line)
    _require(isinstance(obj.get("instances"), list), "record needs a list 'instances'", line)
    instances = [
        _instance_from_dict(inst, f"instances[{i}]", line)
        for i, inst in enumerate(obj["instances"])
    ]
    return AnnotationRecord(image=obj["image"], instances=instances)


def record_to_dict(record: AnnotationRecord) -> dict:
    """Canonical JSON object for one record; optional fields appear only when set."""
    out_instances = []
    for inst in record.instances:
        entry: dict[str, Any] = {"polygon": [[float(x), float(y)] for x, y in inst.polygon.vertices]}
        if inst.score is not None:
            entry["score"] = float(inst.score)
        if inst.ignore:
            entry["ignore"] = True
        if inst.components is not None:
            entry["components"] = [
                [[float(x), float(y)] for x, y in quad] for quad in inst.components
            ]
        out_instances.append(entry)
    return {"image": record.image, "instances": out_instances}


def _json_objects(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (line number, parsed value) per non-blank line of a JSON-lines file.

    Integer literals are read as floats, like every other number: one beyond
    float range becomes inf, as a float literal beyond it already does, and
    fails the constructors' range check (``geometry.COORD_BOUND`` for
    coordinates, [0, 1] for scores) instead of overflowing later.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                obj = json.loads(text, parse_int=float)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
            yield lineno, obj


def read_jsonl(path: str | Path) -> list[AnnotationRecord]:
    """Read records from a line-delimited JSON file; blank lines are skipped."""
    return [record_from_dict(obj, lineno) for lineno, obj in _json_objects(path)]


def write_jsonl(records: Iterable[AnnotationRecord], dest: str | os.PathLike | TextIO) -> None:
    """Write records as line-delimited JSON with LF endings.

    dest is a path, which is created or truncated, or an open text stream,
    which is written to and left open.
    """
    if isinstance(dest, (str, os.PathLike)):
        stream = open(dest, "w", encoding="utf-8", newline="\n")
    else:
        stream = contextlib.nullcontext(dest)
    with stream as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), separators=(",", ":")) + "\n")
