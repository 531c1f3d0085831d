"""Command-line pipeline: generate a circuit suite, benchmark it against a
simulated noisy backend, render reports, and export OpenQASM.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, metrics, qasm, report
from .circuits import BitString
from .errors import InvalidDimensionError, SchemaError, read_fields, read_json
from .harness import BenchConfig
from .optimize import OptimizerConfig, _require_scannable
from .suite import generate_suite, load_suite, save_suite, suite_hash

ENV_OUTPUT_DIR = "PRCBENCH_OUTPUT_DIR"


class UsageError(Exception):
    pass


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUTPUT_DIR, ".")


def _parse_range(text: str) -> list[int]:
    """'2..6' (inclusive), '2,3,5', or a single integer."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise UsageError(f"empty range {text!r}")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise UsageError(f"cannot parse range {text!r}: {exc}") from exc


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)`` when ``ok`` holds for it, else a
    usage error (exit 2) saying the value must be ``what``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_AT_LEAST_0 = _checked(int, lambda v: v >= 0, "at least 0")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_FINITE = _checked(float, math.isfinite, "a finite number")


def _cmd_generate(args) -> int:
    qubits = _parse_range(args.qubits)
    depths = _parse_range(args.depths)
    if min(qubits) < 2 or min(depths) < 2:
        raise UsageError("qubit counts and depths must be at least 2")
    optimizer = None if args.no_optimize else OptimizerConfig(
        stage1_iters=args.stage1_iters,
        stage2_iters=args.stage2_iters,
        adam_step=args.adam_step,
        stop_tol=args.stop_tol,
    )
    # An --out-dir that cannot be made fails before any cell is optimized,
    # and a grid too wide to profile before the directory is made.
    _require_scannable(max(qubits))
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    suite = generate_suite(qubits, depths, seed=args.seed, optimizer=optimizer, jobs=args.jobs)
    manifest = save_suite(suite, args.out_dir)
    for (n, d), cell in suite.cells.items():
        print(f"n={n:2d} d={d:2d}  p_peak={cell.profile.p_peak:.6f}  r_p={cell.profile.r_p:.1f}")
    print(f"wrote {len(suite.cells)} circuits and manifest {manifest}")
    return 0


def _cmd_bench(args) -> int:
    try:
        config_doc = read_json(args.config)
        config = read_fields(BenchConfig, config_doc, f"{args.config}: ")
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {args.config}") from exc
    except SchemaError as exc:
        raise UsageError(f"malformed config {exc}") from exc

    suite = load_suite(args.suite)
    # A config without a grid runs the suite's.
    grid = {name: getattr(suite, name) for name in ("qubits", "depths") if name not in config_doc}
    config = replace(config, **grid)
    for (n, d), cell in suite.cells.items():
        if cell.profile.target_mismatch and n in config.qubits and d in config.depths:
            print(
                f"warning: cell n={n} d={d}: target {cell.profile.target.text} is not the most "
                f"likely outcome {cell.profile.argmax.text} (target_mismatch)",
                file=sys.stderr,
            )

    provenance = {"suite": str(args.suite), "suite_hash": suite_hash(args.suite)}
    matrix = harness.run_matrix(
        suite.as_mapping(), config, jobs=args.jobs, provenance=provenance
    )
    harness.persist_matrix(matrix, args.out)
    if args.csv:
        Path(args.csv).write_text(harness.matrix_to_csv(matrix), encoding="utf-8")
    for n in matrix.qubits:
        row = [matrix.cells[(n, d)] for d in matrix.depths]
        identified = sum(1 for c in row if c.status == harness.STATUS_IDENTIFIED)
        skipped = sum(1 for c in row if c.status == harness.STATUS_SKIPPED)
        f_vals = [c.mean_f for c in row if c.mean_f is not None]
        mean_f = f"{sum(f_vals) / len(f_vals):.4f}" if f_vals else "n/a"
        print(
            f"n={n:2d}: identified {identified}/{len(row)} cells, "
            f"skipped {skipped}, mean F {mean_f}"
        )
    print(f"wrote matrix {args.out}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out)
    if args.mode == "heatmap":
        if len(args.inputs) != 1:
            raise UsageError("heatmap mode takes exactly one matrix file")
        matrix = harness.load_matrix(args.inputs[0])
        out.write_text(report.render_matrix_heatmap(matrix), encoding="utf-8")
        out.with_suffix(".csv").write_text(harness.matrix_to_csv(matrix), encoding="utf-8")
    elif args.mode == "delta":
        if len(args.inputs) != 2:
            raise UsageError("delta mode takes exactly two matrix files (A minus B)")
        ma = harness.load_matrix(args.inputs[0])
        mb = harness.load_matrix(args.inputs[1])
        delta = metrics.delta_matrix(ma, mb)
        out.write_text(report.render_delta_heatmap(delta), encoding="utf-8")
        out.with_suffix(".csv").write_text(report.delta_to_csv(delta), encoding="utf-8")
    else:  # histogram
        if len(args.inputs) != 1:
            raise UsageError("histogram mode takes exactly one matrix file")
        if not args.cell:
            raise UsageError("histogram mode needs --cell n,d")
        try:
            n_text, d_text = args.cell.split(",")
            key = (int(n_text), int(d_text))
        except ValueError as exc:
            raise UsageError(f"cannot parse --cell {args.cell!r}") from exc
        matrix = harness.load_matrix(args.inputs[0])
        if key not in matrix.cells:
            raise KeyError(f"cell {key} not present in matrix")
        cell = matrix.cells[key]
        if args.rep >= len(cell.records):
            raise KeyError(f"cell {key} has no record for rep {args.rep}")
        record = cell.records[args.rep]
        if not record.top_counts:
            raise ValueError(f"cell {key} rep {args.rep} carries no histogram entries")
        top_counts = [(BitString.from_text(t), c) for t, c in record.top_counts]
        target = BitString.from_text(record.target)
        svg = report.render_histogram(top_counts, target, record.shots, args.top_k)
        out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _cmd_export_qasm(args) -> int:
    suite = load_suite(args.suite)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed_hash = hashlib.sha256(str(suite.seed).encode()).hexdigest()[:8]
    lines = ["n,d,file,two_qubit,single_qubit"]
    for (n, d), cell in suite.cells.items():
        name = qasm.qasm_filename(n, d, seed_hash)
        ops = qasm.circuit_native_ops(cell.circuit)  # decompose each gate once
        (out_dir / name).write_text(qasm.qasm_from_ops(n, ops), encoding="utf-8")
        counts = qasm.count_ops(ops)
        lines.append(f"{n},{d},{name},{counts['two_qubit']},{counts['single_qubit']}")
    csv_path = out_dir / "gate_counts.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(suite.cells)} qasm files and {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prcbench",
        description="Peaked random circuit fidelity benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build and optimize a circuit suite")
    gen.add_argument("--qubits", required=True, help="range like 2..6 or list 2,3,5")
    gen.add_argument("--depths", required=True, help="range like 2..10 or list 2,6,10")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=_default_out_dir())
    gen.add_argument("--stage1-iters", type=_AT_LEAST_0, default=OptimizerConfig.stage1_iters)
    gen.add_argument("--stage2-iters", type=_AT_LEAST_0, default=OptimizerConfig.stage2_iters)
    gen.add_argument("--adam-step", type=_POSITIVE, default=OptimizerConfig.adam_step)
    gen.add_argument("--stop-tol", type=_FINITE, default=OptimizerConfig.stop_tol)
    gen.add_argument("--jobs", type=_AT_LEAST_1, default=1)
    gen.add_argument("--no-optimize", action="store_true", help="skip peaking optimization")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="run the benchmark matrix over a suite")
    bench.add_argument("--suite", required=True, help="suite manifest path")
    bench.add_argument("--config", required=True, help="benchmark config JSON")
    bench.add_argument("--out", required=True, help="matrix JSON output path")
    bench.add_argument("--csv", default=None, help="optional flat CSV output path")
    bench.add_argument("--jobs", type=_AT_LEAST_1, default=1)
    bench.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report", help="render SVG reports from matrix files")
    rep.add_argument("--mode", choices=("heatmap", "delta", "histogram"), required=True)
    rep.add_argument("inputs", nargs="+", help="matrix JSON file(s)")
    rep.add_argument("--out", required=True, help="SVG output path")
    rep.add_argument("--cell", default=None, help="histogram mode: cell as n,d")
    rep.add_argument("--rep", type=_AT_LEAST_0, default=0,
                     help="histogram mode: repetition index")
    rep.add_argument("--top-k", type=_AT_LEAST_1, default=10,
                     help="histogram mode: bars to draw")
    rep.set_defaults(func=_cmd_report)

    exp = sub.add_parser("export-qasm", help="emit OpenQASM 2.0 files plus gate counts")
    exp.add_argument("--suite", required=True, help="suite manifest path")
    exp.add_argument("--out-dir", default=_default_out_dir())
    exp.set_defaults(func=_cmd_export_qasm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative number in exponent form, such as -1e-3, as an
    # option, so --stop-tol, the one flag that takes negative values, gets
    # the next argument attached; so does each abbreviation argparse accepts.
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > len("--st") and "--stop-tol".startswith(argv[i]):
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, InvalidDimensionError) as exc:  # ahead of ValueError, its base
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        # A KeyError's str() is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
