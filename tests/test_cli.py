"""Command-line surface: subcommand behavior, formats, and exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textcomp import (
    AnnotationRecord,
    Instance,
    Polygon,
    read_jsonl,
    write_jsonl,
)
from textcomp.cli import CURVATURE_LEVELS, run
from textcomp.evaluate import _IOU_KINDS
from textcomp.losses import LossValue


def rect_record(image="img", x0=0.0, y0=0.0, score=None):
    polygon = Polygon(
        np.array(
            [[x0, y0], [x0 + 60.0, y0], [x0 + 60.0, y0 + 10.0], [x0, y0 + 10.0]]
        )
    )
    return AnnotationRecord(image=image, instances=[Instance(polygon=polygon, score=score)])


@pytest.fixture
def rect_file(tmp_path):
    path = tmp_path / "rects.jsonl"
    write_jsonl([rect_record()], path)
    return path


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------- decompose/assemble


def test_decompose_then_assemble_round_trip(tmp_path, rect_file):
    decomposed = tmp_path / "seqs.jsonl"
    assert run(["decompose", "--in", str(rect_file), "--out", str(decomposed)]) == 0
    records = read_jsonl(decomposed)
    assert records[0].instances[0].components.shape == (6, 4, 2)

    assembled = tmp_path / "polys.jsonl"
    assert run(["assemble", "--in", str(decomposed), "--out", str(assembled)]) == 0
    polygon = read_jsonl(assembled)[0].instances[0].polygon
    assert len(polygon) == 2 * (6 + 1)
    xs, ys = polygon.vertices[:, 0], polygon.vertices[:, 1]
    assert xs.min() == pytest.approx(0.0, abs=1e-6)
    assert xs.max() == pytest.approx(60.0, abs=1e-6)
    assert ys.min() == pytest.approx(0.0, abs=1e-6)
    assert ys.max() == pytest.approx(10.0, abs=1e-6)


def test_decompose_t_flag(tmp_path, rect_file):
    out = tmp_path / "seqs.jsonl"
    assert run(["decompose", "--in", str(rect_file), "--t", "4", "--out", str(out)]) == 0
    assert read_jsonl(out)[0].instances[0].components.shape == (4, 4, 2)


def test_decompose_ctw_format_hint(tmp_path):
    raw = tmp_path / "annots.txt"
    coords = []
    for i in range(7):
        coords += [10 * i, 0]
    for i in range(6, -1, -1):
        coords += [10 * i, 12]
    raw.write_text(",".join(map(str, coords)) + "\n", encoding="utf-8")
    out = tmp_path / "seqs.jsonl"
    code = run(
        ["decompose", "--in", str(raw), "--format-hint", "ctw1500-14pt", "--out", str(out)]
    )
    assert code == 0
    assert read_jsonl(out)[0].instances[0].components.shape == (6, 4, 2)


@pytest.mark.parametrize("command", ["decompose", "assemble", "synth"])
def test_records_on_stdout_match_records_in_a_file(tmp_path, rect_file, capsys, command):
    decomposed = tmp_path / "seqs.jsonl"
    assert run(["decompose", "--in", str(rect_file), "--out", str(decomposed)]) == 0
    argv = {
        "decompose": ["decompose", "--in", str(rect_file)],
        "assemble": ["assemble", "--in", str(decomposed)],
        "synth": ["synth", "--seed", "3", "--images", "2", "--count", "2"],
    }[command]
    capsys.readouterr()
    assert run([*argv, "--out", "-"]) == 0
    stdout = capsys.readouterr().out
    if command == "synth":  # its summary line follows the records
        stdout = stdout[: stdout.rstrip("\n").rfind("\n") + 1]
    out = tmp_path / "out.jsonl"
    assert run([*argv, "--out", str(out)]) == 0
    assert stdout.encode("utf-8") == out.read_bytes()
    assert out.read_bytes().count(b"\n") == (1 if command != "synth" else 2)


def test_assemble_requires_components(rect_file, capsys):
    assert run(["assemble", "--in", str(rect_file)]) == 1
    assert "no components" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["score", "coordinate"])
def test_number_beyond_float_range_is_input_error(tmp_path, capsys, field):
    # A 401-digit JSON integer does not fit a float; converting it raised
    # OverflowError, which the CLI reported as an internal error (exit 2).
    big = "9" * 401
    polygon = f"[[0,0],[{big},0],[1,1]]" if field == "coordinate" else "[[0,0],[1,0],[1,1]]"
    score = f',"score":{big}' if field == "score" else ""
    path = tmp_path / "big.jsonl"
    path.write_text('{"image":"a","instances":[]}\n'
                    f'{{"image":"b","instances":[{{"polygon":{polygon}{score}}}]}}\n')
    for argv in (["assemble", "--in", str(path)], ["eval", "--preds", str(path), "--gts", str(path)]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("textcomp: line 2: instances[0]")


def test_ctw_integer_beyond_float_range_is_input_error(tmp_path, capsys):
    raw = tmp_path / "annots.txt"
    raw.write_text(",".join(["9" * 401] + ["1"] * 27) + "\n", encoding="utf-8")
    assert run(["decompose", "--in", str(raw), "--format-hint", "ctw1500-14pt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("textcomp: line 1:")


# ---------------------------------------------------------------------- piou


def test_piou_identical_pair_scores_one(tmp_path, capsys):
    polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon}}) + "\n",
        encoding="utf-8",
    )
    code, payload = run_json(capsys, ["piou", "--pairs", str(pairs)])
    assert code == 0
    assert "seed" not in payload
    assert payload["pairs"][0]["value"] == 1.0

    code, payload = run_json(capsys, ["piou", "--pairs", str(pairs), "--exact"])
    assert code == 0
    assert payload["pairs"][0]["value"] == 1.0
    assert payload["pairs"][0]["kind"] == "exact"


def test_piou_csv_format(tmp_path, capsys):
    polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon}}) + "\n",
        encoding="utf-8",
    )
    assert run(["piou", "--pairs", str(pairs), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,value"
    assert lines[1].startswith("0,")


def test_piou_malformed_pair_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"a": {"polygon": [[0,0],[1,0],[1,1]]}}\n', encoding="utf-8")
    assert run(["piou", "--pairs", str(pairs)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_piou_schema_error_names_the_side(tmp_path, capsys):
    polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon[:2]}}) + "\n",
        encoding="utf-8",
    )
    assert run(["piou", "--pairs", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert "line 1: b.polygon has 2 entries, needs at least 3" in err
    assert "instances" not in err


def test_piou_invalid_json_names_its_line(tmp_path, capsys):
    polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon}}) + "\n{not json\n",
        encoding="utf-8",
    )
    assert run(["piou", "--pairs", str(pairs)]) == 1
    assert "line 2: invalid JSON" in capsys.readouterr().err


def test_piou_non_finite_value_fails_without_printing_json(tmp_path, capsys, monkeypatch):
    # Strict JSON has no NaN, so a kernel value that is not finite is an
    # input error and nothing is written to stdout.
    monkeypatch.setattr("textcomp.cli.piou_exact", lambda a, b: float("nan"))
    polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, 10.0], [0.0, 10.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon}}) + "\n",
        encoding="utf-8",
    )
    code = run(["piou", "--pairs", str(pairs), "--exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "JSON" in captured.err


def test_piou_nearly_flat_edge_scores_one(tmp_path, capsys):
    # An edge 1e150 wide and 1e-200 tall has a slope past float64; both
    # kernels place its crossings as x0 + f (x1 - x0) and stay finite. The
    # quad is its own one-component chain, so the mc run decomposes nothing.
    polygon = [[0.0, 0.0], [1e150, 1e-200], [1e150, 1.0], [0.0, 1.0]]
    instance = {"polygon": polygon, "components": [polygon]}
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"a": instance, "b": instance}) + "\n", encoding="utf-8")
    for extra in ([], ["--exact"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_json(capsys, ["piou", "--pairs", str(pairs), *extra])
        assert code == 0
        assert payload["pairs"][0]["value"] == 1.0


def test_piou_decomposes_a_flat_quad_without_warnings(tmp_path, capsys):
    # Without components the mc run splits and decomposes the quad itself.
    polygon = [[0.0, 0.0], [1e150, 1e-200], [1e150, 1.0], [0.0, 1.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": polygon}, "b": {"polygon": polygon}}) + "\n", encoding="utf-8"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, ["piou", "--pairs", str(pairs)])
    assert code == 0
    assert np.isfinite(payload["pairs"][0]["value"])


def test_piou_reports_covered_centres_and_has_no_tolerance(tmp_path, capsys):
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    bow_tie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"a": {"polygon": bow_tie, "components": [bow_tie]}, "b": {"polygon": square}})
        + "\n",
        encoding="utf-8",
    )
    code, payload = run_json(capsys, ["piou", "--pairs", str(pairs)])
    assert code == 0
    (row,) = payload["pairs"]
    assert set(row) == {"index", "value", "kind", "intersection_cells", "union_cells"}
    assert row["value"] == row["intersection_cells"] / row["union_cells"]
    assert abs(row["value"] - 0.5) <= 0.01
    records = tmp_path / "records.jsonl"
    write_jsonl([rect_record()], records)
    for argv in (["piou", "--pairs", pairs], ["eval", "--preds", records, "--gts", records]):
        assert run([*map(str, argv), "--tolerance", "1"]) == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


# --------------------------------------------------------------------- match


def test_match_reports_assignment(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    gts = tmp_path / "gts.jsonl"
    write_jsonl([rect_record(score=0.9)], preds)
    write_jsonl([rect_record()], gts)
    code, payload = run_json(capsys, ["match", "--preds", str(preds), "--gts", str(gts)])
    assert code == 0
    report = payload["images"][0]
    assert report["image"] == "img"
    assert report["assignment"] == {"0": 0}
    assert report["total_cost"] < 0.1


def test_match_caps_predictions_at_n_max(tmp_path, capsys):
    instances = [
        Instance(
            polygon=Polygon(
                np.array(
                    [
                        [100.0 * k, 0.0],
                        [100.0 * k + 60.0, 0.0],
                        [100.0 * k + 60.0, 10.0],
                        [100.0 * k, 10.0],
                    ]
                )
            ),
            score=0.5 + 0.1 * k,
        )
        for k in range(4)
    ]
    preds = tmp_path / "preds.jsonl"
    gts = tmp_path / "gts.jsonl"
    write_jsonl([AnnotationRecord(image="img", instances=instances)], preds)
    write_jsonl([rect_record()], gts)
    code, payload = run_json(
        capsys, ["match", "--preds", str(preds), "--gts", str(gts), "--n-max", "2"]
    )
    assert code == 0
    assert len(payload["images"][0]["assignment"]) == 2


def test_match_negative_n_max_is_usage_error(tmp_path, capsys):
    # order[:-1] would silently drop the lowest-scored prediction
    records = tmp_path / "records.jsonl"
    write_jsonl([rect_record(score=0.9)], records)
    argv = ["match", "--preds", str(records), "--gts", str(records), "--n-max", "-1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-max: must be >= 0, got -1" in captured.err


# ---------------------------------------------------------------------- eval


def test_eval_perfect_match(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    gts = tmp_path / "gts.jsonl"
    write_jsonl([rect_record(score=1.0)], preds)
    write_jsonl([rect_record()], gts)
    code, payload = run_json(capsys, ["eval", "--preds", str(preds), "--gts", str(gts)])
    assert code == 0
    assert payload["precision"] == payload["recall"] == payload["f_measure"] == 1.0
    assert payload["iou_threshold"] == 0.5
    assert payload["per_image"]["img"] == {"tp": 1, "fp": 0, "fn": 0}


def test_eval_csv_format(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    gts = tmp_path / "gts.jsonl"
    write_jsonl([rect_record(score=1.0)], preds)
    write_jsonl([rect_record()], gts)
    code = run(
        ["eval", "--preds", str(preds), "--gts", str(gts), "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "image,tp,fp,fn"
    assert lines[1] == "img,1,0,0"


def test_eval_rejects_bad_threshold(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    write_jsonl([rect_record(score=1.0)], preds)
    assert run(["eval", "--preds", str(preds), "--gts", str(preds), "--iou", "1.5"]) == 1


def test_eval_has_no_seed_flag(tmp_path, capsys):
    # eval is deterministic; a --seed it would never read is a usage error.
    preds = tmp_path / "preds.jsonl"
    write_jsonl([rect_record(score=1.0)], preds)
    assert run(["eval", "--preds", str(preds), "--gts", str(preds), "--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_eval_mc_rejects_unsplittable_truth_without_predictions(tmp_path, capsys):
    # Every instance is converted up front, so a triangle fails the run even
    # though no prediction would be compared with it.
    preds = tmp_path / "preds.jsonl"
    gts = tmp_path / "gts.jsonl"
    write_jsonl([], preds)
    triangle = Polygon(np.array([[0.0, 0.0], [60.0, 0.0], [30.0, 10.0]]))
    write_jsonl([AnnotationRecord(image="img", instances=[Instance(polygon=triangle)])], gts)
    argv = ["eval", "--preds", str(preds), "--gts", str(gts), "--iou-kind", "piou-mc"]
    assert run(argv) == 1
    assert "at least 4 vertices" in capsys.readouterr().err


def test_decompose_bezier_near_copies_of_a_corner_stay_bounded(tmp_path, capsys):
    # A 200 x 30 box with two copies of one corner off by about 1e-13: its
    # Bezier fit reached coordinates of 7.1e15 before near-copies were
    # snapped onto the endpoint.
    polygon = [[0, 0], [3e-13, 1e-13], [6e-13, -5e-13], [200, 0], [200, 30], [0, 30]]
    path = tmp_path / "box.jsonl"
    path.write_text(
        json.dumps({"image": "box", "instances": [{"polygon": polygon}]}) + "\n",
        encoding="utf-8",
    )
    code = run(["decompose", "--in", str(path), "--method", "bezier"])
    assert code == 0
    quads = np.array(json.loads(capsys.readouterr().out)["instances"][0]["components"])
    assert quads[..., 0].min() >= -1e-9 and quads[..., 0].max() <= 200.0 + 1e-9
    assert quads[..., 1].min() >= -1e-9 and quads[..., 1].max() <= 30.0 + 1e-9


@pytest.mark.parametrize("kind", ["piou-exact", "biou"])
def test_eval_nan_overlap_is_input_error(tmp_path, capsys, monkeypatch, kind):
    # A kernel that overflows returns NaN (piou_exact does on an edge whose
    # slope passes float64). Scored as below the threshold it would report
    # precision 0 and recall 0 with exit 0.
    # the package's evaluate function shadows its module
    module = sys.modules["textcomp.evaluate"]
    monkeypatch.setattr(module, kind.replace("-", "_"), lambda a, b: float("nan"))
    path = tmp_path / "rects.jsonl"
    write_jsonl([rect_record()], path)
    code = run(["eval", "--preds", str(path), "--gts", str(path), "--iou-kind", kind])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "NaN" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--in", "{path}"],
        ["decompose", "--in", "{path}", "--method", "bezier"],
        ["eval", "--preds", "{path}", "--gts", "{path}", "--iou-kind", "piou-mc"],
        ["piou", "--pairs", "{pairs}", "--exact"],
    ],
    ids=["decompose", "decompose-bezier", "eval-mc", "piou"],
)
def test_coordinates_past_the_bound_are_input_errors(tmp_path, capsys, argv):
    # A square at 1e300 used to decompose into collapsed quads with exit 0,
    # and to overflow the kernels; now its line is rejected as it is read.
    square = [[0.0, 0.0], [1e300, 0.0], [1e300, 1e300], [0.0, 1e300]]
    path, pairs = tmp_path / "huge.jsonl", tmp_path / "pairs.jsonl"
    path.write_text(json.dumps({"image": "a", "instances": [{"polygon": square}]}) + "\n")
    pairs.write_text(json.dumps({"a": {"polygon": square}, "b": {"polygon": square}}) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([arg.format(path=path, pairs=pairs) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "line 1:" in captured.err and "exceed 1e+150" in captured.err
    assert caught == []


# --------------------------------------------------------------------- synth


def test_synth_writes_scene_and_echoes_seed(tmp_path, capsys):
    out = tmp_path / "scene.jsonl"
    code, summary = run_json(
        capsys,
        ["synth", "--seed", "7", "--count", "3", "--images", "2", "--out", str(out)],
    )
    assert code == 0
    assert summary["seed"] == 7
    records = read_jsonl(out)
    assert [r.image for r in records] == ["synth-7-0000", "synth-7-0001"]
    assert all(len(r.instances) == 3 for r in records)


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["synth", "--seed", "5", "--out", str(a)]) == 0
    assert run(["synth", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_requires_seed(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "--seed" in capsys.readouterr().err


def test_synth_validates_canvas(tmp_path, capsys):
    code = run(["synth", "--seed", "1", "--canvas", "wide", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--canvas" in capsys.readouterr().err


def test_synth_negative_images_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert run(["synth", "--seed", "1", "--images", "-2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--images: must be >= 0, got -2" in captured.err
    assert not out.exists()


def test_synth_curvature_levels_exposed():
    assert set(CURVATURE_LEVELS) == {"low", "medium", "high"}
    assert CURVATURE_LEVELS["low"] < CURVATURE_LEVELS["medium"] < CURVATURE_LEVELS["high"]


# ---------------------------------------------------------------- grad-check


def test_grad_check_passes_and_reports(capsys):
    code, payload = run_json(capsys, ["grad-check", "--points", "100"])
    assert code == 0
    assert payload["pass"] is True
    assert payload["seed"] == 0
    for value in payload["max_relative_error"].values():
        assert value <= payload["tolerance"]


def test_grad_check_impossible_tolerance_is_invariant_failure(capsys):
    code = run(["grad-check", "--points", "50", "--tolerance", "1e-18"])
    assert code == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_grad_check_nan_gradient_fails_with_strict_json(capsys, monkeypatch):
    def nan_focal(x, positive):
        return LossValue(float("nan"), np.full(x.shape, np.nan))

    monkeypatch.setattr("textcomp.cli.focal_loss", nan_focal)
    assert run(["grad-check", "--points", "10"]) == 2
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["pass"] is False
    assert payload["max_relative_error"]["focal_loss"] is None


# ------------------------------------------------------------ interp-compare


def test_interp_compare_reports_both_methods(capsys):
    code, payload = run_json(
        capsys, ["interp-compare", "--seed", "7", "--count", "5", "--curvature", "high"]
    )
    assert code == 0
    assert payload["seed"] == 7
    assert 0.0 < payload["bezier_mean_piou"] <= 1.0
    assert 0.0 < payload["bspline_mean_piou"] <= 1.0
    assert payload["delta"] == pytest.approx(
        payload["bspline_mean_piou"] - payload["bezier_mean_piou"], abs=1e-12
    )


def test_interp_compare_requires_seed(capsys):
    assert run(["interp-compare"]) == 1


# -------------------------------------------------------------------- render


def test_render_writes_svg(tmp_path, rect_file):
    decomposed = tmp_path / "seqs.jsonl"
    run(["decompose", "--in", str(rect_file), "--out", str(decomposed)])
    svg_path = tmp_path / "scene.svg"
    assert run(["render", "--in", str(decomposed), "--out", str(svg_path)]) == 0
    body = svg_path.read_text(encoding="utf-8")
    assert body.startswith("<svg")
    assert "<polygon" in body


def test_render_unknown_image_is_input_error(tmp_path, rect_file, capsys):
    assert run(["render", "--in", str(rect_file), "--image", "missing"]) == 1


# ----------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run(["synth", "--seed", "1", "--out", str(tmp_path / "x"), "--frob"]) == 1


def test_missing_input_file_is_input_error(capsys):
    assert run(["decompose", "--in", "/nonexistent/file.jsonl"]) == 1


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "textcomp.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "usage" in result.stdout.lower()


# ------------------------------------------------- exit-code contract, fuzzed

# Coordinates: small integers (repeated and collinear points), ordinary
# floats, and hostile values at and past the coordinate bound.
_plain_coord = st.one_of(st.integers(0, 3), st.floats(min_value=-100.0, max_value=100.0))
_hostile_coord = st.one_of(
    _plain_coord,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([-0.0, 1e-300, 1e-200, 2.0**63, 1e150, -1e150, 1e151, 1e300]),
)


def _instances(coord, min_points, quad_sizes, min_quads, score):
    point = st.lists(coord, min_size=2, max_size=2)
    quad = st.lists(point, min_size=quad_sizes[0], max_size=quad_sizes[1])
    return st.fixed_dictionaries(
        {"polygon": st.lists(point, min_size=min_points, max_size=12)},
        optional={
            "score": score,
            "ignore": st.booleans(),
            "components": st.lists(quad, min_size=min_quads, max_size=7),
        },
    )


# Three instances in four are well-formed, so that many runs get past validation.
_plain_instance = _instances(_plain_coord, 4, (4, 4), 1, st.floats(min_value=0.0, max_value=1.0))
_hostile_instance = _instances(
    _hostile_coord,
    0,
    (3, 5),
    0,
    st.one_of(st.floats(min_value=-1.0, max_value=2.0), st.booleans(), st.text(max_size=3)),
)
_fuzz_instance = st.one_of(_plain_instance, _plain_instance, _plain_instance, _hostile_instance)
# Lines that no structured draw produces: broken JSON, non-standard
# constants, numbers past float range, and arbitrary text.
_broken_json_line = st.one_of(
    st.sampled_from(
        [
            "{",
            "[]",
            "null",
            "NaN",
            '{"image": "x", "instances": [{"polygon": [[1e400, 0], [0, 0], [0, 1], [1, 1]]}]}',
            '{"image": "x", "instances": [{"polygon": [[NaN, 0], [0, 0], [0, 1], [1, 1]]}]}',
            '{"a": {"polygon": [[0, 0], [1, 0], [1, Infinity], [0, 1]]}, "b": {}}',
        ]
    ),
    st.text(max_size=20),
)
_ctw_value = st.one_of(st.integers(0, 3), st.integers(-(10**4), 10**4))
_ctw_values = st.sampled_from([28, 32]).flatmap(
    lambda n: st.lists(_ctw_value, min_size=n, max_size=n)
)
# input kind -> (lines of the expected form, lines that break it)
_FUZZ_LINES = {
    "records": (
        st.fixed_dictionaries(
            {"image": st.sampled_from("ab"), "instances": st.lists(_fuzz_instance, max_size=3)}
        ).map(json.dumps),
        _broken_json_line,
    ),
    "pairs": (
        st.fixed_dictionaries({"a": _fuzz_instance, "b": _fuzz_instance}).map(json.dumps),
        _broken_json_line,
    ),
    "ctw": (
        _ctw_values.map(lambda values: ",".join(map(str, values))),
        st.sampled_from(["1,2,3", ",".join(["9" * 400] * 28), ",".join(["x"] * 28)]),
    ),
}

# (input kind, argv with {path} for the input file); eval reads it as both sides
_FUZZ_COMMANDS = [
    ("records", ["decompose", "--in", "{path}"]),
    ("ctw", ["decompose", "--in", "{path}", "--format-hint", "ctw1500-14pt"]),
    ("records", ["decompose", "--in", "{path}", "--method", "bezier"]),
    *(
        ("records", ["eval", "--preds", "{path}", "--gts", "{path}", "--k", "500", "--iou-kind", k])
        for k in _IOU_KINDS
    ),
    ("pairs", ["piou", "--pairs", "{path}", "--k", "500"]),
    ("pairs", ["piou", "--pairs", "{path}", "--exact"]),
]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@given(data=st.data(), command=st.sampled_from(_FUZZ_COMMANDS))
@settings(max_examples=150, deadline=None)
def test_fuzzed_inputs_never_exit_2_and_print_strict_json(tmp_path_factory, data, command):
    kind, argv = command
    good, broken = _FUZZ_LINES[kind]
    lines = data.draw(st.lists(good, min_size=1, max_size=3), label="lines")
    if data.draw(st.booleans(), label="break a line"):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(broken, label="broken line"))
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = run([arg.format(path=path) for arg in argv])
    assert code in (0, 1), stderr.getvalue()
    if code == 0:
        text = stdout.getvalue()
        if argv[0] == "decompose":
            for line in text.splitlines():
                _strict_json(line)
        else:
            _strict_json(text)
