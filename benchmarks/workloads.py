"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload builds a pool of scenes from its seed with ``textcomp.synth``,
writes them as shards into a work directory, and defines one operation
("op") per call index. An op calls textcomp's public entry points, mostly
``textcomp.cli.run`` in process; ``check`` compares the op's output with how
the scene was built and returns the bytes that feed the output digest.

Every textcomp function an op uses is looked up as a module attribute at
call time (``cli.run``, ``matching.match_sequences``, ...), so the traced
run sees the wrapped versions that ``tracing`` installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from textcomp import cli, frames, geometry, ingest, losses, matching, piou, synth
from textcomp.geometry import ComponentSequence, Polygon
from textcomp.ingest import AnnotationRecord, Instance

T = 6  # components per instance, the CLI default
# Instances of one scene overlap each other by less than this IoU, so every
# prediction's best match is the instance it was built from.
MAX_PAIR_IOU = 0.3
RASTER_CELL = 2.0  # pixels per cell of the placement check's raster


class CheckError(Exception):
    """An op's output disagrees with how its inputs were constructed."""


def _derive(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(2**62))


def _outline(contour) -> np.ndarray:
    return np.concatenate([contour.side_a, contour.side_b[::-1]])


class _Raster:
    """Even-odd coverage of one outline on a global RASTER_CELL grid.

    Independent of textcomp so that the placement check does not rely on
    the code under test.
    """

    def __init__(self, vertices: np.ndarray):
        lo = np.floor(vertices.min(axis=0) / RASTER_CELL).astype(int)
        hi = np.ceil(vertices.max(axis=0) / RASTER_CELL).astype(int)
        xs = (np.arange(lo[0], hi[0]) + 0.5) * RASTER_CELL
        ys = (np.arange(lo[1], hi[1]) + 0.5) * RASTER_CELL
        gx, gy = np.meshgrid(xs, ys)
        inside = np.zeros(gx.shape, dtype=bool)
        for (xa, ya), (xb, yb) in zip(vertices, np.roll(vertices, -1, axis=0)):
            if ya == yb:
                continue
            crosses = (ya > gy) != (yb > gy)
            inside ^= crosses & (gx < xa + (gy - ya) * (xb - xa) / (yb - ya))
        self.lo, self.hi, self.mask = lo, hi, inside
        self.area = int(inside.sum())

    def iou(self, other: "_Raster") -> float:
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if (hi <= lo).any():
            return 0.0

        def window(raster: "_Raster") -> np.ndarray:
            (x0, y0), (x1, y1) = lo - raster.lo, hi - raster.lo
            return raster.mask[y0:y1, x0:x1]

        inter = int((window(self) & window(other)).sum())
        return inter / (self.area + other.area - inter)


def place_ribbons(seed: int, count: int, canvas, params) -> list:
    """count ribbons from ``synth.gen_scene`` whose pairwise IoU stays below MAX_PAIR_IOU.

    Candidates come from successive scenes with derived seeds and are kept
    in order when they overlap every kept ribbon little enough.
    """
    kept, rasters = [], []
    for attempt in range(1000):
        for contour in synth.gen_scene(_derive(seed, attempt), count - len(kept), canvas, params):
            raster = _Raster(_outline(contour))
            if all(raster.iou(other) < MAX_PAIR_IOU for other in rasters):
                kept.append(contour)
                rasters.append(raster)
        if len(kept) == count:
            return kept
    raise RuntimeError(f"could not place {count} ribbons on {canvas} for seed {seed}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


# ------------------------------------------------------------------ eval ops

EVAL_POOL = 32  # scenes per eval workload; ops cycle through them

@dataclass(frozen=True)
class EvalSpec:
    iou_kind: str
    canvas: tuple[float, float]
    curvature: float
    gts: int  # ground-truth instances per image, one ignored and one missed
    components: bool  # predictions carry their component chains


class EvalWorkload:
    """One ``textcomp eval`` call per op on a one-image pair of JSONL shards.

    Each image has ``gts`` ground-truth ribbons. One is flagged ignore and
    has a prediction on it, one has no prediction (a false negative), the
    rest carry a perturbed, assembled copy of their own chain, and one
    distractor ribbon that overlaps no ground truth is predicted (a false
    positive). The expected counts follow from that construction.
    """

    cycle = 1

    def __init__(self, spec: EvalSpec, seed: int, workdir: Path):
        self.spec = spec
        self.expected = {"tp": spec.gts - 2, "fp": 1, "fn": 1}
        params = synth.RibbonParams(curvature=spec.curvature)
        self.shards = []
        for index in range(EVAL_POOL):
            rng = np.random.default_rng([seed, index])
            contours = place_ribbons(_derive(seed, index), spec.gts + 1, spec.canvas, params)
            ignored, missed = (int(j) for j in rng.choice(spec.gts, 2, replace=False))
            gts = [
                Instance(polygon=geometry.contour_polygon(c), ignore=j == ignored)
                for j, c in enumerate(contours[:-1])
            ]
            preds = []
            for j, contour in enumerate(contours):
                if j == missed:
                    continue
                # Noisier predictions score lower: the two that match no live
                # ground truth come last, so every image takes the same
                # number of overlap calls.
                noise = rng.uniform(2.5, 3.0) if j in (ignored, spec.gts) else rng.uniform(0.5, 2.0)
                seq = synth.perturb(contour, noise, _derive(seed, index, j), T)
                preds.append(
                    Instance(
                        polygon=geometry.assemble(seq),
                        score=float(seq.scores[0]),
                        components=seq.quads if spec.components else None,
                    )
                )
            image = f"scene-{index:03d}"
            pred_path, gt_path = workdir / f"{image}.pred.jsonl", workdir / f"{image}.gt.jsonl"
            ingest.write_jsonl([AnnotationRecord(image, preds)], pred_path)
            ingest.write_jsonl([AnnotationRecord(image, gts)], gt_path)
            self.shards.append((image, str(pred_path), str(gt_path)))

    def op(self, i: int):
        _, pred_path, gt_path = self.shards[i % len(self.shards)]
        return _run_cli(
            ["eval", "--preds", pred_path, "--gts", gt_path, "--iou-kind", self.spec.iou_kind]
        )

    def check(self, i: int, output) -> bytes:
        code, text = output
        if code != 0:
            raise CheckError(f"eval exited {code}")
        image = self.shards[i % len(self.shards)][0]
        per_image = json.loads(text)["per_image"]
        if per_image != {image: self.expected}:
            raise CheckError(f"{image}: got {per_image}, built {self.expected}")
        return text.encode()


# ----------------------------------------------------------- train-target ops

CTW_LINES = 4  # 14-point lines per CTW shard
LONG_OUTLINES = 2  # outlines per long-outline shard
LONG_SIDE_VERTICES = (25, 50)  # per side, so outlines have 50 to 100 vertices
SURPLUS = 4  # predictions beyond the instance count, matched to background
TRAIN_POOL = 16  # scenes of each kind; ops cycle through them
KINDS = ("ctw", "long")
METHODS = ("bspline", "bezier")


@dataclass
class _TrainScene:
    kind: str
    shard: str
    # Prediction items are the n instances, then the SURPLUS background
    # predictions; perm[item] is the item's slot in the prediction list.
    perm: np.ndarray
    jitter: np.ndarray  # (n, T, 4, 2) offsets from the decomposed chains
    scores: np.ndarray  # (n + SURPLUS,) confidence per item
    surplus: np.ndarray  # (SURPLUS, T, 4, 2) background prediction chains


class TrainWorkload:
    """Training-target preparation for one scene per op.

    An op runs ``textcomp decompose`` (alternating 14-point CTW shards read
    with the ctw1500 hint and JSONL shards of 50-100 vertex outlines, and
    alternating bspline and bezier resampling), then ``textcomp assemble``,
    then in the library: reads the chains back, matches them against
    perturbed predictions padded to n_max, round-trips the predictions
    through the frame grid, scores matched pairs with ``piou_mc`` and
    computes the psc, focal and l1 losses.
    """

    cycle = len(KINDS) * len(METHODS)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.scenes: dict[str, list[_TrainScene]] = {kind: [] for kind in KINDS}
        for index in range(TRAIN_POOL):
            for kind in KINDS:
                self.scenes[kind].append(self._build(seed, index, kind))

    def _build(self, seed: int, index: int, kind: str) -> _TrainScene:
        rng = np.random.default_rng([seed, index, KINDS.index(kind)])
        name = f"{kind}-{index:03d}"
        if kind == "ctw":
            contours = place_ribbons(_derive(seed, index, 0), CTW_LINES, (1024.0, 768.0), None)
            shard = self.workdir / f"{name}.txt"
            lines = [
                ",".join(str(int(v)) for v in np.rint(_outline(c)).astype(int).ravel())
                for c in contours
            ]
            shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            # A golden-ratio sequence spreads the vertex counts evenly over any
            # prefix of the pool, so short runs see the same mix as long ones.
            lo, hi = LONG_SIDE_VERTICES
            side_vertices = lo + int((index * 0.6180339887) % 1.0 * (hi - lo + 1))
            params = synth.RibbonParams(side_vertices=side_vertices)
            contours = place_ribbons(_derive(seed, index, 1), LONG_OUTLINES, (1024.0, 768.0), params)
            shard = self.workdir / f"{name}.jsonl"
            record = AnnotationRecord(name, [Instance(polygon=Polygon(_outline(c))) for c in contours])
            ingest.write_jsonl([record], shard)
        n = len(contours)
        return _TrainScene(
            kind=kind,
            shard=str(shard),
            perm=rng.permutation(n + SURPLUS),
            jitter=rng.uniform(-0.5, 0.5, (n, T, 4, 2)),
            scores=np.concatenate([rng.uniform(0.8, 0.95, n), rng.uniform(0.02, 0.2, SURPLUS)]),
            surplus=rng.uniform(0.0, 768.0, (SURPLUS, T, 4, 2)),
        )

    def _scene(self, i: int) -> tuple[_TrainScene, str]:
        scenes = self.scenes[KINDS[i % 2]]
        return scenes[(i // self.cycle) % len(scenes)], METHODS[(i // 2) % 2]

    def op(self, i: int):
        scene, method = self._scene(i)
        decomposed = str(self.workdir / "decomposed.jsonl")
        assembled = str(self.workdir / "assembled.jsonl")
        argv = ["decompose", "--in", scene.shard, "--out", decomposed, "--t", str(T), "--method", method]
        if scene.kind == "ctw":
            argv += ["--format-hint", "ctw1500-14pt"]
        codes = (_run_cli(argv)[0], _run_cli(["assemble", "--in", decomposed, "--out", assembled])[0])

        records = ingest.read_jsonl(decomposed)
        gts = [ComponentSequence(quads=inst.components) for inst in records[0].instances]
        items = [g.quads + jitter for g, jitter in zip(gts, scene.jitter)] + list(scene.surplus)
        preds = [
            ComponentSequence(quads=items[item], scores=np.full(T, scene.scores[item]))
            for item in np.argsort(scene.perm)
        ]
        result = matching.match_sequences(preds, gts)
        back = frames.from_frames(frames.to_frames(preds), score_threshold=0.0)
        pairs = sorted((p, g) for p, g in result.assignment.items() if g is not None)
        pious = np.array([piou.piou_mc(gts[g], preds[p]).value for p, g in pairs])
        matched = np.array([p for p, _ in pairs], dtype=int)
        background = np.array(sorted(p for p, g in result.assignment.items() if g is None), dtype=int)
        all_scores = np.stack([p.scores for p in preds])
        loss = {
            "psc": losses.psc_loss(
                all_scores[matched].ravel(), np.repeat(pious, T), all_scores[background].ravel()
            ),
            "focal": losses.focal_loss(
                all_scores.ravel(), np.repeat(np.isin(np.arange(len(preds)), matched), T)
            ),
            "l1": losses.l1_loss(
                np.stack([preds[p].quads for p, _ in pairs]), np.stack([gts[g].quads for _, g in pairs])
            ),
        }
        return {
            "codes": codes,
            "scene": scene,
            "gts": gts,
            "preds": preds,
            "assignment": result.assignment,
            "back": back,
            "pious": pious,
            "loss": loss,
            "files": (decomposed, assembled),
        }

    def check(self, i: int, out) -> bytes:
        if out["codes"] != (0, 0):
            raise CheckError(f"decompose/assemble exited {out['codes']}")
        scene, gts, preds = out["scene"], out["gts"], out["preds"]
        n = len(scene.jitter)
        if len(gts) != n:
            raise CheckError(f"{len(gts)} chains decomposed, {n} instances built")
        if not all(geometry.has_shared_edges(g) for g in gts):
            raise CheckError("a decomposed chain does not share its edges")
        expected = {int(slot): (item if item < n else None) for item, slot in enumerate(scene.perm)}
        if out["assignment"] != expected:
            raise CheckError(f"assignment {out['assignment']} != construction {expected}")
        back = out["back"]
        if len(back) != len(preds) or not all(
            np.array_equal(b.components.quads, p.quads) and np.array_equal(b.components.scores, p.scores)
            for b, p in zip(back, preds)
        ):
            raise CheckError("frames do not round-trip")
        for name, value in out["loss"].items():
            if not (np.isfinite(value.value) and np.isfinite(value.grad_scores).all()):
                raise CheckError(f"{name} loss is not finite")
        decomposed, assembled = (Path(f).read_bytes() for f in out["files"])
        rebuilt = json.loads(assembled)["instances"]
        if len(rebuilt) != len(gts) or any("components" in inst for inst in rebuilt):
            raise CheckError("assemble did not return one polygon per chain")
        summary = {
            "assignment": sorted(out["assignment"].items()),
            "pious": out["pious"].tolist(),
            "loss": {name: value.value for name, value in out["loss"].items()},
        }
        return decomposed + assembled + json.dumps(summary).encode()


WORKLOADS = {
    "eval-exact": lambda seed, workdir: EvalWorkload(
        EvalSpec("piou-exact", (1024.0, 768.0), 0.006, gts=4, components=False), seed, workdir
    ),
    "eval-mc-crowded": lambda seed, workdir: EvalWorkload(
        EvalSpec("piou-mc", (400.0, 300.0), 0.012, gts=9, components=True), seed, workdir
    ),
    "train-targets": lambda seed, workdir: TrainWorkload(seed, workdir),
}
