"""Self-test of the benchmark's output checks, tracing and metric names.

    python3 benchmarks/selftest.py

For every workload it builds the inputs from a fixed seed and confirms that:
correct outputs pass their checks; outputs corrupted after the op are
counted as failed; an op that raises is counted as failed without stopping
the run; and a traced op records calls in the layers the workload is meant
to exercise and none in the layers it is meant to bypass. It also confirms
that BENCHMARK.json names exactly the workloads and metrics run.py emits.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEED = 1


def _corrupt_eval(output):
    code, text = output
    report = json.loads(text)
    for counts in report["per_image"].values():
        counts["tp"] += 1
    return code, json.dumps(report)


def _corrupt_train(output):
    assignment = dict(output["assignment"])
    matched = next(p for p, g in assignment.items() if g is not None)
    background = next(p for p, g in assignment.items() if g is None)
    assignment[matched], assignment[background] = None, assignment[matched]
    return {**output, "assignment": assignment}


CORRUPT = {
    "eval-exact": _corrupt_eval,
    "eval-mc-crowded": _corrupt_eval,
    "train-targets": _corrupt_train,
}

# Spans each workload's first op must enter, and spans it must not.
_TRAIN_ONLY = [
    "matching.match_sequences", "matching.hungarian", "frames.to_frames", "frames.from_frames",
    "losses.psc_loss", "losses.focal_loss", "losses.l1_loss",
]
SHAPE = {
    "eval-exact": (
        ["cli.run", "evaluate.evaluate", "piou.piou_exact", "ingest.read_jsonl"],
        ["piou.piou_mc", "piou.sample_interior", "geometry.split_long_sides", *_TRAIN_ONLY],
    ),
    "eval-mc-crowded": (
        ["evaluate.evaluate", "piou.piou_mc", "piou.sample_interior", "piou.quantize",
         "geometry.split_long_sides", "geometry.decompose.bspline"],
        ["piou.piou_exact", *_TRAIN_ONLY],
    ),
    "train-targets": (
        ["cli.run", "ingest.read_ctw1500", "geometry.decompose.bspline", "geometry.assemble",
         "ingest.write_jsonl", "piou.piou_mc", *_TRAIN_ONLY],
        ["piou.piou_exact", "evaluate.evaluate"],
    ),
}


class _Raising:
    """A workload whose ops raise, to show a crash is counted, not fatal."""

    def op(self, i):
        raise RuntimeError("injected failure")

    def check(self, i, output):
        raise AssertionError("unreachable")


def main() -> int:
    run.load_textcomp()
    import tracing
    import workloads

    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER,
           "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    expect({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    raising = run.Tally(_Raising())
    raising.run(0)
    raising.run(1)
    expect((raising.attempted, raising.failed) == (2, 2), "raising ops were not both counted as failed")

    workdir = run.ROOT / "benchmarks" / ".work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, build in workloads.WORKLOADS.items():
            workload = build(SEED, workdir)
            good = run.Tally(workload)
            good.run(0)
            expect(good.failed == 0, f"{name}: a correct output failed its check: {good.errors}")
            bad = run.Tally(workload, corrupt=CORRUPT[name])
            bad.run(0)
            bad.run(1)
            expect(
                (bad.attempted, bad.failed) == (2, 2),
                f"{name}: corrupted outputs were not counted as failed",
            )

            rec = tracing.Recorder()
            with tracing.installed(rec, tracing.SPANS):
                run.Tally(workload).run(0)
            entered, bypassed = SHAPE[name]
            expect(all(rec.calls[s] > 0 for s in entered), f"{name}: traced op missed one of {entered}")
            expect(not any(rec.calls[s] for s in bypassed), f"{name}: traced op entered one of {bypassed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("failed" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
