"""prcbench benchmark: one command for every workload.

    python3 benchmarks/run.py --workload walkthrough --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports prcbench from the
checkout's `src/`.  The workload runs in this one process with one BLAS
thread and `jobs=1`; only the import part of set-up time is also measured
in fresh interpreters.

--trace 0 times the workload with tracing off and reports the end-to-end
metrics.  --trace 1 alternates untraced iterations with traced passes (set-up
plus one timed iteration, every prcbench layer wrapped at its module
boundary) and reports the per-layer metrics.  Either way every iteration's
output is checked; the last line of standard output is one JSON object, and
the exit code is 0 only if every check passed.

Artifacts, the result document and the spans go to benchmarks/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before numpy loads: one BLAS thread, in this process only.  Default
# threading made deep_gradient no faster and noisier on a 2-core VM.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK = BENCH_DIR / "_work"

DEFAULT_SEED = 7  # claims are checked again on the held-out seed 2027
DEFAULT_SECONDS = 30
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # a second iteration checks that artifacts are byte-identical
QUALITY = ("mean_final_p", "min_final_p", "identified_cells", "qasm_cnots")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("walkthrough", "wide_readout", "deep_gradient"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_prcbench():
    """Import prcbench from this checkout's src/, or fail."""
    if not (SRC / "prcbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no prcbench sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import prcbench

    if Path(prcbench.__file__).resolve().parent != SRC / "prcbench":
        raise SystemExit(f"error: imported prcbench from {prcbench.__file__}, not from {SRC}")
    return prcbench


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import prcbench.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import prcbench (numpy and scipy with it) in a fresh
    interpreter, like the one that runs the benchmark."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=REPO, capture_output=True, text=True, timeout=120, check=True
    )
    return float(probe.stdout.strip())


def git_commit() -> str:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


class Runner:
    """Runs one workload: repeated set-up, timed iterations, checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.ops: list[tuple[str, bool, str]] = []
        self.setup_digest = None
        self.digest = None
        self.quality: dict[str, float] = {}

    def record(self, name, ok, message=""):
        self.ops.append((name, bool(ok), message))
        if not ok:
            print(f"FAILED {name}: {message}", file=sys.stderr)

    def setup(self):
        start = time.perf_counter()
        inputs, digest = self.workload.setup(self.seed, self.work)
        return inputs, digest, time.perf_counter() - start

    def iterate(self, inputs, before=None, after=None) -> float:
        """One timed iteration and its checks; returns the timed seconds.
        `before`/`after` bracket the timed section (the tracer uses them)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if before:
            before()
        start = time.perf_counter()
        try:
            result = self.workload.run(inputs, self.out)
        finally:
            elapsed = time.perf_counter() - start
            if after:
                after()
        checked = self.workload.check(inputs, result, self.out)
        for op in checked.ops:
            self.record(*op)
        if self.digest is None:
            self.digest = checked.digest
        else:
            self.record("artifacts identical across iterations", checked.digest == self.digest,
                        "artifacts differ from the first iteration")
        self.quality = checked.quality
        return elapsed


def run_untraced(runner, inputs, seconds: float) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_ITERATIONS or time.perf_counter() - start + times[-1] <= seconds:
        times.append(runner.iterate(inputs))
    return times


def run_traced(runner, inputs, seconds: float, setup_times):
    """Alternate untraced iterations with traced passes (set-up + timed
    iteration under the tracer, run ids 2k and 2k+1)."""
    from spans import Counters, Tracer, layer_metrics

    tracer = Tracer()
    untraced: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + untraced[-1] + passes[-1]["wall_s"] <= seconds:
        untraced.append(runner.iterate(inputs))
        k = len(passes)
        tracer.counters = counters = Counters()
        tracer.run_id = 2 * k
        tracer.install()
        try:
            traced_inputs, digest, setup_wall = runner.setup()
        finally:
            tracer.uninstall()
        runner.record("set-up identical when traced", digest == runner.setup_digest, "inputs differ")
        tracer.run_id = 2 * k + 1
        timed_wall = runner.iterate(traced_inputs, before=tracer.install, after=tracer.uninstall)
        passes.append({"runs": (2 * k, 2 * k + 1), "wall_s": setup_wall + timed_wall, "counters": counters})
    chosen = sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]
    metrics = layer_metrics(tracer, chosen["runs"], chosen["counters"], chosen["wall_s"])
    untraced_total = statistics.median(setup_times) + statistics.median(untraced)
    metrics["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in passes) / untraced_total
    fired = {name.rsplit(".", 1)[0] for name, v in metrics.items() if name.endswith(".calls") and v > 0}
    return tracer, metrics, untraced, passes, chosen, fired


def main(argv=None) -> int:
    args = parse_args(argv)
    import_prcbench()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workloads.WORKLOADS[args.workload](REPO), args.seed, work)

    setup_times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        candidate, digest, seconds = runner.setup()
        setup_times.append(seconds)
        if inputs is None:
            inputs, runner.setup_digest = candidate, digest
        else:
            runner.record("set-up repeats identical", digest == runner.setup_digest, "inputs differ")

    info = provenance(args.seed)
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    metrics: dict[str, float] = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.trace == 0:
            times = run_untraced(runner, inputs, args.seconds)
            print(f"timed iterations: {len(times)}, seconds: {' '.join(f'{t:.4f}' for t in times)}")
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            imports = [import_seconds() for _ in range(SETUP_REPEATS)]
            metrics = {
                "wall_s": statistics.median(times),
                "setup_s": statistics.median(imports) + statistics.median(setup_times),
                "peak_rss_mib": peak_rss,
            }
            print(f"setup: import {' '.join(f'{t:.4f}' for t in imports)} s in fresh interpreters, "
                  f"input generation {' '.join(f'{t:.4f}' for t in setup_times)} s")
        else:
            tracer, metrics, untraced, passes, chosen, fired = run_traced(runner, inputs, args.seconds, setup_times)
            for name in runner.workload.expected_spans:
                runner.record(f"span {name} fired", name in fired, "never fired in the traced pass")
            traced = " ".join(f"{p['wall_s']:.4f}" for p in passes)
            print(f"untraced iterations: {' '.join(f'{t:.4f}' for t in untraced)} s; traced passes: {traced} s")
            spans_path = work / "spans.jsonl"
            tracer.write(spans_path, {"workload": args.workload, "provenance": info,
                                      "reported_runs": list(chosen["runs"])})
            print(f"spans: {spans_path}")
    except Exception:  # one failed iteration ends the run; it is reported, not raised
        traceback.print_exc()
        runner.record("iteration", False, "raised")

    quality = runner.quality
    if args.trace == 1:
        for name in QUALITY:
            metrics[f"quality.{name}"] = quality.get(name, 0)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    runner.record("every metric measured", not missing, f"missing {missing}")
    reported = {name: {"value": float(metrics[name]), "unit": units[name]} for name in wanted if name in metrics}

    failed = sum(1 for _, ok, _ in runner.ops if not ok)
    attempted = len(runner.ops)
    for name, value in quality.items():  # only the figures that apply
        print(f"{name} = {value:.6g}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} (failed / attempted ops)")
    for name, entry in reported.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info, "quality": quality,
                    "failures": [op for op in runner.ops if not op[1]]}, indent=2),
        encoding="utf-8",
    )
    shutil.rmtree(runner.out, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
