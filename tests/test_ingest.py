"""Annotation readers and the canonical line-delimited interchange format."""

import json
import string
from pathlib import Path

import numpy as np
import pytest

from textcomp import (
    AnnotationRecord,
    Instance,
    ParseError,
    Polygon,
    SchemaError,
    read_ctw1500,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    write_jsonl,
)

GOLDEN = Path(__file__).parent / "data" / "golden.jsonl"


def random_record(rng, image):
    instances = []
    for _ in range(int(rng.integers(0, 4))):
        n = int(rng.integers(3, 15))
        instance = Instance(
            polygon=Polygon(rng.uniform(-100.0, 1000.0, (n, 2))),
            score=float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else None,
            ignore=bool(rng.random() < 0.2),
            components=rng.uniform(0.0, 500.0, (int(rng.integers(1, 7)), 4, 2))
            if rng.random() < 0.3
            else None,
        )
        instances.append(instance)
    return AnnotationRecord(image=image, instances=instances)


def records_equal(a, b):
    if a.image != b.image or len(a.instances) != len(b.instances):
        return False
    for x, y in zip(a.instances, b.instances):
        if not np.array_equal(x.polygon.vertices, y.polygon.vertices):
            return False
        if (x.score is None) != (y.score is None):
            return False
        if x.score is not None and x.score != y.score:
            return False
        if x.ignore != y.ignore:
            return False
        if (x.components is None) != (y.components is None):
            return False
        if x.components is not None and not np.array_equal(x.components, y.components):
            return False
    return True


# ------------------------------------------------------------------- ctw1500


def test_ctw_28_field_line():
    line = ",".join(str(v) for v in range(28))
    record = read_ctw1500(line, image="sample")
    assert record.image == "sample"
    polygon = record.instances[0].polygon
    assert polygon.vertices.shape == (14, 2)
    assert polygon.vertices[0].tolist() == [0.0, 1.0]
    assert polygon.vertices[-1].tolist() == [26.0, 27.0]


def test_ctw_32_field_line_skips_leading_box():
    line = ",".join(str(v) for v in range(32))
    polygon = read_ctw1500(line).instances[0].polygon
    assert polygon.vertices.shape == (14, 2)
    assert polygon.vertices[0].tolist() == [4.0, 5.0]  # first point after the box


def test_ctw_multiple_lines_and_blanks():
    line = ",".join(str(v) for v in range(28))
    record = read_ctw1500(f"\n{line}\n\n{line}\n")
    assert len(record.instances) == 2


def test_ctw_empty_input():
    assert read_ctw1500("").instances == []


def test_ctw_wrong_field_count_names_the_line():
    line = ",".join(str(v) for v in range(28))
    with pytest.raises(ParseError) as info:
        read_ctw1500(f"{line}\n1,2,3")
    assert info.value.line == 2
    assert "line 2" in str(info.value)


def test_ctw_non_integer_field_names_the_field():
    bad = ",".join(["7"] * 27 + ["oops"])
    with pytest.raises(ParseError) as info:
        read_ctw1500(bad)
    assert "field 28" in str(info.value)


def test_ctw_fuzz_never_raises_anything_unstructured():
    rng = np.random.default_rng(99)
    alphabet = string.printable
    for _ in range(500):
        choice = rng.random()
        if choice < 0.4:
            n = int(rng.integers(0, 40))
            fields = [str(rng.integers(-1000, 1000)) for _ in range(n)]
            if rng.random() < 0.5 and fields:
                fields[int(rng.integers(0, len(fields)))] = "abc"
            line = ",".join(fields)
        elif choice < 0.7:
            length = int(rng.integers(0, 60))
            line = "".join(rng.choice(list(alphabet), length))
        else:
            line = ",".join(str(rng.uniform(-10, 10)) for _ in range(28))
        try:
            read_ctw1500(line)
        except ParseError:
            pass  # structured failure is the only acceptable failure


# ---------------------------------------------------------------- validation


def test_instance_validation():
    square = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Instance(polygon=square, score=1.5)
    with pytest.raises(ValueError):
        Instance(polygon=square, components=np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        Instance(polygon=square, components=np.full((1, 4, 2), np.nan))


def test_schema_errors_name_the_offending_path():
    with pytest.raises(SchemaError, match=r"instances\[0\] is missing 'polygon'"):
        record_from_dict({"image": "a", "instances": [{}]})
    with pytest.raises(SchemaError, match=r"instances\[1\]\.polygon"):
        record_from_dict(
            {
                "image": "a",
                "instances": [
                    {"polygon": [[0, 0], [1, 0], [1, 1]]},
                    {"polygon": [[0, 0], [1, 0]]},
                ],
            }
        )
    with pytest.raises(SchemaError):
        record_from_dict({"instances": []})
    with pytest.raises(SchemaError):
        record_from_dict({"image": "a", "instances": [{"polygon": "nope"}]})
    with pytest.raises(SchemaError):
        record_from_dict(
            {"image": "a", "instances": [{"polygon": [[0, 0], [1, 0], [1, 1]], "score": 2.0}]}
        )
    with pytest.raises(SchemaError):
        record_from_dict([])


# ----------------------------------------------------------- canonical JSONL


def test_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(12)
    records = [random_record(rng, f"img-{i:03d}") for i in range(50)]
    path = tmp_path / "records.jsonl"
    write_jsonl(records, path)
    loaded = read_jsonl(path)
    assert len(loaded) == len(records)
    for original, reloaded in zip(records, loaded):
        assert records_equal(original, reloaded)


def test_write_then_write_again_is_stable(tmp_path):
    rng = np.random.default_rng(13)
    records = [random_record(rng, f"img-{i}") for i in range(10)]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_jsonl(records, first)
    write_jsonl(read_jsonl(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_golden_file_reads_as_expected():
    records = read_jsonl(GOLDEN)
    assert [r.image for r in records] == ["scene-001", "scene-002", "scene-003"]
    assert records[0].instances[0].score is None
    assert records[1].instances[0].score == 0.875
    assert records[1].instances[1].ignore is True
    components = records[2].instances[0].components
    assert components.shape == (2, 4, 2)
    assert components[1][0].tolist() == [30.0, 0.0]


def test_golden_file_round_trips_byte_for_byte(tmp_path):
    out = tmp_path / "rewrite.jsonl"
    write_jsonl(read_jsonl(GOLDEN), out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_optional_keys_appear_only_when_set():
    square = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    bare = record_to_dict(AnnotationRecord("a", [Instance(polygon=square)]))
    assert set(bare["instances"][0]) == {"polygon"}
    rich = record_to_dict(
        AnnotationRecord(
            "a",
            [
                Instance(
                    polygon=square,
                    score=0.5,
                    ignore=True,
                    components=np.zeros((1, 4, 2)),
                )
            ],
        )
    )
    assert set(rich["instances"][0]) == {"polygon", "score", "ignore", "components"}


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    body = '{"image":"a","instances":[]}\n\n\n{"image":"b","instances":[]}\n'
    path.write_text(body, encoding="utf-8")
    assert [r.image for r in read_jsonl(path)] == ["a", "b"]


def test_read_jsonl_reports_bad_json_with_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"image":"a","instances":[]}\n{oops}\n', encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_jsonl(path)
    assert info.value.line == 2


def test_read_jsonl_reports_schema_violation_with_line_number(tmp_path):
    path = tmp_path / "schema.jsonl"
    path.write_text('{"image":"a"}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1"):
        read_jsonl(path)


def test_crlf_input_tolerated(tmp_path):
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(b'{"image":"a","instances":[]}\r\n{"image":"b","instances":[]}\r\n')
    assert [r.image for r in read_jsonl(path)] == ["a", "b"]
