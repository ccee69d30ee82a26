"""Run one textcomp benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload eval-exact --seed 1 --seconds 30 --trace 0

Run from any directory of a source checkout; textcomp is imported from the
checkout's src/ and nowhere else. The workload's inputs are generated from
--seed. Ops run one after another in this single-threaded process (a closed
loop with one client) for --seconds of wall time, finishing the current
cycle of op kinds, and every op's output is checked.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
separate traced run: it runs each op twice, once untraced and once with
spans installed, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is a JSON
record of the run (environment, seeds, output digest, tail percentile,
failed-op ratio).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A second seed, never used while the benchmark or a change is tuned, on
# which a claimed gain is confirmed.
HELD_OUT_SEED = 7919
SETUP_PROBES = 3  # fresh-interpreter set-ups per timed run; setup_s is their median
DIGEST_OPS = 8  # the output digest covers ops 0..DIGEST_OPS-1
END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_textcomp() -> None:
    """Import textcomp from this checkout's src/ or exit with an error."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import textcomp
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import textcomp from {ROOT / 'src'}: {exc}")
    if not Path(textcomp.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"benchmark: textcomp was imported from {textcomp.__file__}, not {ROOT / 'src'}")


class Tally:
    """Runs and checks ops, counting attempts, failures and digested outputs."""

    def __init__(self, workload, corrupt=None):
        self.workload = workload
        self.corrupt = corrupt  # applied to each output before its check (self-test only)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[int, bytes] = {}

    def run(self, i: int) -> float:
        """Run op i, check its output, and return the op's wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.workload.op(i)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self._fail(i, exc)
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            if self.corrupt is not None:
                output = self.corrupt(output)
            data = self.workload.check(i, output)
        except Exception as exc:  # noqa: BLE001
            self._fail(i, exc)
        else:
            if i < DIGEST_OPS:
                self.outputs.setdefault(i, data)
        return elapsed

    def _fail(self, i: int, exc: Exception) -> None:
        self.failed += 1
        if i < DIGEST_OPS:
            self.outputs.setdefault(i, b"")  # a failed op digests as empty
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {exc!r}")

    def run_for(self, seconds: float) -> list[float]:
        """Run ops from index 0 until seconds have passed and a cycle is complete."""
        durations = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(durations) % self.workload.cycle:
            durations.append(self.run(len(durations)))
        return durations

    def digest(self) -> str:
        """SHA-256 over the outputs of ops 0..DIGEST_OPS-1, running any not yet run."""
        for i in range(DIGEST_OPS):
            if i not in self.outputs:
                self.run(i)
        return hashlib.sha256(b"".join(self.outputs[i] for i in range(DIGEST_OPS))).hexdigest()


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Op time at the highest percentile with at least ten ops beyond it.

    Returns (seconds, percentile, ops beyond). With ten ops or fewer the
    slowest op is reported and fewer ops lie beyond it.
    """
    ordered = sorted(durations)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "textcomp").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def timed_run(args, workloads, workdir: Path):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally(workload)
    tally.run(0)  # warm-up, untimed
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    durations = tally.run_for(args.seconds)
    tail_s, tail_pct, beyond = tail(durations)
    metrics = {
        "throughput_ops_per_s": len(durations) / sum(durations),
        "op_ms_p50": 1000.0 * statistics.median(durations),
        "op_ms_tail": 1000.0 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "timed_ops": len(durations),
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_ops_beyond": beyond,
        "setup_s_samples": setup,
    }
    return tally, {name: (value, END_TO_END[name]) for name, value in metrics.items()}, extra


def traced_run(args, workloads, tracing, workdir: Path):
    setup = tracing.Recorder()
    with tracing.installed(setup, tracing.SETUP_SPANS, tracing.SETUP_COUNTERS):
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally(workload)
    tally.run(0)  # warm-up, untraced
    # Each op runs once untraced and once traced. Which goes first alternates
    # from one cycle of op kinds to the next, so that every kind runs in both
    # orders and neither side profits from the other having warmed up.
    ops = tracing.Recorder()
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) % (2 * workload.cycle):
        i = len(traced)
        traced_first = (i // workload.cycle) % 2 == 1
        for with_spans in (traced_first, not traced_first):
            if with_spans:
                with tracing.installed(ops, tracing.SPANS):
                    traced.append(tally.run(i))
            else:
                untraced.append(tally.run(i))
    values = tracing.layer_metrics(ops, setup, len(traced), sum(traced), sum(untraced))
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}
    return tally, metrics, {"traced_ops": len(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    load_textcomp()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / "benchmarks" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            Tally(workloads.WORKLOADS[args.workload](args.seed, workdir)).run(0)
            print("ready", flush=True)
            return 0
        if args.trace:
            tally, metrics, extra = traced_run(args, workloads, tracing, workdir)
        else:
            tally, metrics, extra = timed_run(args, workloads, workdir)
        digest = tally.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in tally.errors:
        print(f"benchmark: failed {error}", file=sys.stderr)
    failed_ratio = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'failed_ops_ratio':42s} {failed_ratio:14.6g} ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_ops_ratio": failed_ratio,
        "output_sha256": digest,
        "digest_ops": DIGEST_OPS,
        **extra,
        "environment": environment(),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
