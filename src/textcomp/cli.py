"""Command-line surface for every pipeline stage.

Subcommands operate on the line-delimited JSON annotation format (see
ingest) and print JSON summaries to standard output unless --out names a
file. Every randomized subcommand takes a --seed and echoes it in its
output so results are reproducible from the command line alone.

Exit codes: 0 on success, 1 on input or usage errors, 2 on internal
invariant failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evaluate import _IOU_KINDS, _as_sequence, _score_order, evaluate
from .geometry import (
    CTW1500_FORMAT_HINT,
    ComponentSequence,
    assemble,
    contour_polygon,
    decompose,
    split_long_sides,
)
from .ingest import (
    AnnotationRecord,
    Instance,
    ParseError,
    _instance_from_dict,
    _json_objects,
    read_ctw1500,
    read_jsonl,
    write_jsonl,
)
from .losses import finite_diff_check, focal_loss, l1_loss, psc_loss
from .matching import MatchParams, match_sequences
from .piou import PIoUConfig, piou_exact, piou_mc
from .synth import RibbonParams, gen_ribbon, gen_scene

__all__ = ["run", "main", "CURVATURE_LEVELS"]

# Named curvature levels (radians of heading change per pixel of arc length).
CURVATURE_LEVELS = {"low": 0.002, "medium": 0.006, "high": 0.012}


class _UsageError(Exception):
    """Bad flags or inconsistent inputs: reported on stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _emit(payload: dict, fmt: str, out: str | None, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        _write_output(json.dumps(payload, indent=2, allow_nan=False), out)
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(csv_header)
    writer.writerows(csv_rows)
    _write_output(buffer.getvalue(), out)


def _write_records(records, out: str | None) -> None:
    write_jsonl(records, sys.stdout if out is None or out == "-" else out)


def _read_records(path: str, format_hint: str | None = None) -> list[AnnotationRecord]:
    if format_hint == CTW1500_FORMAT_HINT:
        content = Path(path).read_text(encoding="utf-8")
        return [read_ctw1500(content, image=Path(path).stem)]
    return read_jsonl(path)


def _scored_sequence(inst: Instance, t: int) -> ComponentSequence:
    seq = _as_sequence(inst, t)
    score = 1.0 if inst.score is None else inst.score
    return ComponentSequence(quads=seq.quads, scores=np.full(len(seq.quads), score))


# ---------------------------------------------------------------- decompose

def _cmd_decompose(args) -> int:
    out_records = []
    for record in _read_records(args.infile, args.format_hint):
        new_instances = []
        for inst in record.instances:
            contour = split_long_sides(inst.polygon, format_hint=args.format_hint)
            seq = decompose(contour, args.t, method=args.method)
            new_instances.append(replace(inst, components=seq.quads))
        out_records.append(replace(record, instances=new_instances))
    _write_records(out_records, args.out)
    return 0


def _cmd_assemble(args) -> int:
    out_records = []
    for record in read_jsonl(args.infile):
        new_instances = []
        for inst in record.instances:
            if inst.components is None:
                raise _UsageError(
                    f"image {record.image!r}: instance has no components to assemble"
                )
            polygon = assemble(ComponentSequence(quads=inst.components))
            new_instances.append(replace(inst, polygon=polygon, components=None))
        out_records.append(replace(record, instances=new_instances))
    _write_records(out_records, args.out)
    return 0


# --------------------------------------------------------------------- piou

def _cmd_piou(args) -> int:
    rows = []
    for lineno, obj in _json_objects(args.pairs):
        if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
            raise ParseError("each pair line needs objects 'a' and 'b'", lineno)
        rows.append([_instance_from_dict(obj[key], key, lineno) for key in ("a", "b")])

    config = PIoUConfig(k_samples=args.k)
    results = []
    for index, (a, b) in enumerate(rows):
        if args.exact:
            value = piou_exact(a.polygon, b.polygon)
            results.append({"index": index, "value": value, "kind": "exact"})
        else:
            est = piou_mc(_as_sequence(a, args.t), _as_sequence(b, args.t), config)
            results.append(
                {
                    "index": index,
                    "value": est.value,
                    "kind": "mc",
                    "intersection_cells": est.intersection_cells,
                    "union_cells": est.union_cells,
                }
            )
    payload = {
        "k": args.k,
        "exact": bool(args.exact),
        "pairs": results,
    }
    _emit(
        payload,
        args.format,
        args.out,
        csv_rows=[[r["index"], r["value"]] for r in results],
        csv_header=["index", "value"],
    )
    return 0


# -------------------------------------------------------------------- match

def _cmd_match(args) -> int:
    pred_records = {r.image: r for r in read_jsonl(args.preds)}
    gt_records = {r.image: r for r in read_jsonl(args.gts)}
    params = MatchParams(
        focal_alpha=args.alpha,
        focal_gamma=args.gamma,
        cls_weight=args.cls_weight,
        reg_weight=args.reg_weight,
    )
    reports = []
    for image in dict.fromkeys([*gt_records, *pred_records]):
        pred_instances = pred_records[image].instances if image in pred_records else []
        gt_instances = gt_records[image].instances if image in gt_records else []
        if len(pred_instances) > args.n_max:
            order = _score_order(pred_instances)[: args.n_max]
            pred_instances = [pred_instances[i] for i in sorted(order)]
        preds = [_scored_sequence(p, args.t) for p in pred_instances]
        gts = [_as_sequence(g, args.t) for g in gt_instances]
        result = match_sequences(preds, gts, params)
        reports.append(
            {
                "image": image,
                "assignment": {str(k): v for k, v in sorted(result.assignment.items())},
                "total_cost": result.total_cost,
                "per_pair_cost": result.per_pair_cost,
            }
        )
    payload = {"n_max": args.n_max, "images": reports}
    _emit(
        payload,
        args.format,
        args.out,
        csv_rows=[[r["image"], r["total_cost"]] for r in reports],
        csv_header=["image", "total_cost"],
    )
    return 0


# --------------------------------------------------------------------- eval

def _cmd_eval(args) -> int:
    preds = read_jsonl(args.preds)
    gts = read_jsonl(args.gts)
    config = PIoUConfig(k_samples=args.k)
    report = evaluate(
        preds,
        gts,
        iou_threshold=args.iou,
        iou_kind=args.iou_kind,
        config=config,
        t=args.t,
    )
    payload = {
        "precision": report.precision,
        "recall": report.recall,
        "f_measure": report.f_measure,
        "iou_threshold": report.iou_threshold,
        "iou_kind": args.iou_kind,
        "true_positives": report.true_positives,
        "false_positives": report.false_positives,
        "false_negatives": report.false_negatives,
        "per_image": report.per_image,
    }
    _emit(
        payload,
        args.format,
        args.out,
        csv_rows=[
            [image, counts["tp"], counts["fp"], counts["fn"]]
            for image, counts in report.per_image.items()
        ],
        csv_header=["image", "tp", "fp", "fn"],
    )
    return 0


# -------------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    params = RibbonParams(curvature=CURVATURE_LEVELS[args.curvature])
    try:
        width, height = (float(v) for v in args.canvas.split("x"))
    except ValueError:
        raise _UsageError(f"--canvas must look like 1024x768, got {args.canvas!r}") from None
    records = []
    for index in range(args.images):
        contours = gen_scene(
            args.seed + index, args.count, canvas=(width, height), params=params
        )
        instances = [Instance(polygon=contour_polygon(c)) for c in contours]
        records.append(
            AnnotationRecord(image=f"synth-{args.seed}-{index:04d}", instances=instances)
        )
    _write_records(records, args.out)
    summary = {
        "seed": args.seed,
        "images": args.images,
        "instances_per_image": args.count,
        "curvature": args.curvature,
        "out": args.out,
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


# --------------------------------------------------------------- grad-check

def _cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    lo, hi = 0.05, 0.95
    n = args.points

    pious = rng.uniform(lo, hi, n)

    def psc_fn(x):
        return psc_loss(x[: n // 2], pious[: n // 2], x[n // 2 :])

    def focal_fn(x):
        return focal_loss(x, np.arange(x.size) % 2 == 0)

    target = rng.uniform(-10.0, 10.0, n)

    def l1_fn(x):
        return l1_loss(x, target)

    checks = {
        "psc_loss": finite_diff_check(psc_fn, rng.uniform(lo, hi, n), args.epsilon),
        "focal_loss": finite_diff_check(focal_fn, rng.uniform(lo, hi, n), args.epsilon),
        "l1_loss": finite_diff_check(l1_fn, target + rng.uniform(0.5, 1.5, n), args.epsilon),
    }
    passed = all(v <= args.tolerance for v in checks.values())
    payload = {
        "seed": args.seed,
        "points": n,
        "epsilon": args.epsilon,
        "tolerance": args.tolerance,
        # a NaN or infinite error is reported as null and fails the check
        "max_relative_error": {k: v if np.isfinite(v) else None for k, v in checks.items()},
        "pass": passed,
    }
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    if not passed:
        raise AssertionError("analytic gradients disagree with finite differences")
    return 0


# ----------------------------------------------------------- interp-compare

def _cmd_interp_compare(args) -> int:
    params = RibbonParams(curvature=CURVATURE_LEVELS[args.curvature])
    rng = np.random.default_rng(args.seed)
    seeds = rng.integers(0, 2**63, size=args.count)
    means = {}
    for method in ("bspline", "bezier"):
        values = []
        for child in seeds:
            contour = gen_ribbon(int(child), params)
            original = contour_polygon(contour)
            seq = decompose(contour, args.t, method=method)
            rebuilt = assemble(seq)
            values.append(piou_exact(rebuilt, original))
        means[method] = float(np.mean(values))
    payload = {
        "seed": args.seed,
        "count": args.count,
        "curvature": args.curvature,
        "t": args.t,
        "bspline_mean_piou": means["bspline"],
        "bezier_mean_piou": means["bezier"],
        "delta": means["bspline"] - means["bezier"],
    }
    _emit(
        payload,
        args.format,
        args.out,
        csv_rows=[[m, means[m]] for m in ("bspline", "bezier")],
        csv_header=["method", "mean_piou"],
    )
    return 0


# ------------------------------------------------------------------- render

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _svg_polygon(points, color: str, width: float = 1.5, dashed: bool = False) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<polygon points="{coords}" fill="{color}" fill-opacity="0.12" '
        f'stroke="{color}" stroke-width="{width}"{dash} />'
    )


def _cmd_render(args) -> int:
    records = read_jsonl(args.infile)
    if args.image is not None:
        records = [r for r in records if r.image == args.image]
        if not records:
            raise _UsageError(f"no record for image {args.image!r}")
    shapes: list[str] = []
    all_points: list[np.ndarray] = []
    for record in records:
        for index, inst in enumerate(record.instances):
            color = _SVG_COLORS[index % len(_SVG_COLORS)]
            if args.which in ("polygons", "all"):
                shapes.append(_svg_polygon(inst.polygon.vertices, color))
                all_points.append(inst.polygon.vertices)
            if inst.components is not None and args.which in ("components", "all"):
                for quad in inst.components:
                    shapes.append(_svg_polygon(quad, color, width=0.8, dashed=True))
                    all_points.append(quad)
            if inst.components is not None and args.which == "frames":
                for f, quad in enumerate(inst.components):
                    frame_color = _SVG_COLORS[f % len(_SVG_COLORS)]
                    shapes.append(_svg_polygon(quad, frame_color, width=0.8))
                    all_points.append(quad)
    if not all_points:
        raise _UsageError("nothing to render: no polygons or components found")
    pts = np.concatenate(all_points)
    lo = pts.min(axis=0) - 10.0
    hi = pts.max(axis=0) + 10.0
    body = "\n".join(shapes)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{lo[0]:.2f} {lo[1]:.2f} {hi[0] - lo[0]:.2f} {hi[1] - lo[1]:.2f}">\n'
        f"{body}\n</svg>"
    )
    _write_output(svg, args.out)
    return 0


# ------------------------------------------------------------------ parsing

def _count(text: str) -> int:
    """An argparse type: a non-negative integer, so a negative count is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common_io(parser):
    parser.add_argument("--in", dest="infile", required=True, help="input JSONL file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


# Built once: building costs about as much as an eval op, and each discarded
# parser is a cyclic graph that forces full garbage collections in callers
# that run many commands in one process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="textcomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="annotations -> component sequences")
    _add_common_io(p)
    p.add_argument("--t", type=int, default=6, help="components per instance (default 6)")
    p.add_argument("--method", choices=("bspline", "bezier"), default="bspline")
    p.add_argument("--format-hint", choices=(CTW1500_FORMAT_HINT,), default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("assemble", help="component sequences -> polygons")
    _add_common_io(p)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("piou", help="overlap estimates for instance pairs")
    p.add_argument("--pairs", required=True, help='JSONL of {"a": instance, "b": instance}')
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=10_000, help="grid centres per pair (default 10000)")
    p.add_argument("--t", type=int, default=6)
    p.add_argument("--exact", action="store_true", help="use the exact even-odd polygon IoU")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_piou)

    p = sub.add_parser("match", help="assign predictions to ground truths")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--n-max", type=_count, default=100, help="prediction capacity (default 100)")
    p.add_argument("--t", type=int, default=6)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--cls-weight", type=float, default=1.0)
    p.add_argument("--reg-weight", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="precision/recall/F-measure")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--iou-kind", choices=_IOU_KINDS, default="piou-exact")
    p.add_argument("--k", type=int, default=10_000)
    p.add_argument("--t", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic scenes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=5, help="instances per image")
    p.add_argument("--images", type=_count, default=1)
    p.add_argument("--canvas", default="1024x768")
    p.add_argument("--curvature", choices=tuple(CURVATURE_LEVELS), default="medium")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("grad-check", help="verify loss gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("interp-compare", help="curve-fit comparison on synthetic ribbons")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--curvature", choices=tuple(CURVATURE_LEVELS), default="high")
    p.add_argument("--t", type=int, default=6)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_interp_compare)

    p = sub.add_parser("render", help="SVG overlay of polygons/components/frames")
    _add_common_io(p)
    p.add_argument("--which", choices=("polygons", "components", "frames", "all"), default="all")
    p.add_argument("--image", default=None, help="render only this image id")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help and friends
        return int(exc.code or 0)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"textcomp: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as internal failure
        sys.stderr.write(f"textcomp: internal error: {exc!r}\n")
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
