"""The benchmark's workloads.  Each one makes its inputs from a seed
(`setup`), runs the timed section against prcbench's public API (`run`),
and checks what the program produced (`check`).

prcbench modules are looked up by attribute at call time, never bound with
`from ... import`, so a traced pass sees every call the workload makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qasm_reader import replay_distribution

circuits = importlib.import_module("prcbench.circuits")
cli = importlib.import_module("prcbench.cli")
harness = importlib.import_module("prcbench.harness")
noise = importlib.import_module("prcbench.noise")
opt = importlib.import_module("prcbench.optimize")
sim = importlib.import_module("prcbench.sim")
suite_mod = importlib.import_module("prcbench.suite")

QUALITY_P_FLOOR = 0.95
QASM_TV_LIMIT = 1e-6


@dataclass
class Checked:
    """Outcome of one timed iteration: (operation, ok, message) per
    operation, the quality figures that apply to the workload, and a digest
    of every artifact."""

    ops: list[tuple[str, bool, str]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def op(self, name: str, ok: bool, message: str = "") -> None:
        self.ops.append((name, bool(ok), message))


def digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_text(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Walkthrough:
    """The README pipeline, in process through `prcbench.cli.main`:
    generate, bench with both demo configs, report, export-qasm."""

    name = "walkthrough"
    qubits = "2..5"
    depths = "4,10"
    histogram_cell = "5,10"
    # --stop-tol 0 keeps Adam from stopping early, so the number of
    # objective evaluations, and with it the run time, barely depends on
    # the seed.
    generate_flags = ["--stage1-iters", "120", "--stage2-iters", "80", "--stop-tol", "0", "--jobs", "1"]
    # Spans that must fire in a traced pass (set-up plus one timed iteration).
    expected_spans = (
        "cli.generate", "cli.bench", "cli.report", "cli.export_qasm",
        "suite.generate_suite", "suite.save_suite", "suite.load_suite",
        "circuits.build_reference_circuit", "circuits.derive_subcircuit",
        "gates.GateParams.matrix", "gates.kak_decompose",
        "sim.PeakObjective.init", "sim.PeakObjective.value_and_gradient",
        "sim.apply_gate_matrix", "sim.run", "sim.sample",
        "optimize.optimize", "optimize.peak_profile",
        "noise.readout_flip", "noise.depolarize", "metrics.run_metrics",
        "harness.run_matrix", "harness.run_cell", "harness.persist_matrix", "harness.load_matrix",
        "qasm.decompose_gate", "report.render",
    )

    def __init__(self, repo: Path):
        self.repo = repo

    def setup(self, seed: int, work: Path):
        """The two demo bench configs of the repository, reseeded."""
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        configs = {}
        for label in ("depth", "width"):
            doc = json.loads((self.repo / "configs" / f"demo_{label}_noise.json").read_text(encoding="utf-8"))
            doc["master_seed"] = seed
            path = inputs / f"{label}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
            configs[label] = path
        return {"seed": seed, "configs": configs}, digest_tree(inputs)

    def commands(self, inputs, out: Path) -> list[list[str]]:
        suite_dir, manifest = out / "suite", str(out / "suite" / "suite.json")
        depth, width = str(out / "depth.json"), str(out / "width.json")
        return [
            ["generate", "--qubits", self.qubits, "--depths", self.depths, "--seed", str(inputs["seed"]),
             "--out-dir", str(suite_dir), *self.generate_flags],
            ["bench", "--suite", manifest, "--config", str(inputs["configs"]["depth"]), "--out", depth,
             "--csv", str(out / "depth.csv")],
            ["bench", "--suite", manifest, "--config", str(inputs["configs"]["width"]), "--out", width],
            ["report", "--mode", "heatmap", depth, "--out", str(out / "depth.svg")],
            ["report", "--mode", "delta", depth, width, "--out", str(out / "delta.svg")],
            ["report", "--mode", "histogram", depth, "--cell", self.histogram_cell, "--out", str(out / "cell.svg")],
            ["export-qasm", "--suite", manifest, "--out-dir", str(out / "qasm")],
        ]

    def run(self, inputs, out: Path):
        results = []
        for argv in self.commands(inputs, out):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(argv)
            except Exception as exc:  # the check reports it as a failed command
                rc, sink = None, io.StringIO(f"{type(exc).__name__}: {exc}")
            results.append((argv[0], rc, sink.getvalue()))
        return results

    def check(self, inputs, results, out: Path) -> Checked:
        c = Checked()
        for command, rc, output in results:
            c.op(f"cli {command}", rc == 0, "" if rc == 0 else f"returned {rc}: {output.strip()[-300:]}")
        manifest = out / "suite" / "suite.json"
        if not manifest.exists():
            c.op("suite", False, "no suite manifest was written")
            return c
        suite = suite_mod.load_suite(manifest)
        finals = []
        for (n, d), cell in suite.cells.items():
            finals.append(cell.final_objective)
            c.op(f"optimize ({n}, {d})", cell.final_objective >= QUALITY_P_FLOOR,
                 f"final p {cell.final_objective:.6f} < {QUALITY_P_FLOOR}")
        c.quality["mean_final_p"] = float(np.mean(finals))
        c.quality["min_final_p"] = float(np.min(finals))

        identified = 0
        for label in ("depth", "width"):
            path = out / f"{label}.json"
            if not path.exists():
                c.op(f"matrix {label}", False, "not written")
                continue
            matrix = harness.load_matrix(path)
            c.op(f"matrix {label} round trip", harness.matrix_to_json(matrix) == path.read_text(encoding="utf-8"),
                 "load_matrix does not reproduce the file")
            for (n, d), cell in matrix.cells.items():
                ok = cell.status == harness.STATUS_SKIPPED or len(cell.records) == matrix.config.reps
                c.op(f"bench {label} ({n}, {d})", ok, f"{cell.status} with {len(cell.records)} records")
                identified += cell.status == harness.STATUS_IDENTIFIED
        c.quality["identified_cells"] = identified

        cnots = 0
        gate_counts = out / "qasm" / "gate_counts.csv"
        rows = gate_counts.read_text(encoding="utf-8").splitlines()[1:] if gate_counts.exists() else []
        for row in rows:
            n, d, name = row.split(",")[:3]
            key = (int(n), int(d))
            text = (out / "qasm" / name).read_text(encoding="utf-8")
            cnots += sum(1 for line in text.splitlines() if line.startswith("cx "))
            try:
                replayed = replay_distribution(text)
                expected = sim.full_distribution(suite.cells[key].circuit).probs
                tv = 0.5 * float(np.abs(replayed - expected).sum())
                c.op(f"qasm {key}", tv <= QASM_TV_LIMIT, f"total variation {tv:.3g} > {QASM_TV_LIMIT}")
            except (ValueError, KeyError) as exc:
                c.op(f"qasm {key}", False, f"{type(exc).__name__}: {exc}")
        if len(rows) != len(suite.cells):
            c.op("qasm files", False, f"{len(rows)} files for {len(suite.cells)} cells")
        c.quality["qasm_cnots"] = cnots
        c.digest = digest_tree(out)
        return c


class WideReadout:
    """`harness.run_matrix` over exact-inverse (mirror) circuits with seeded
    targets: the bench path with wide shot histograms, no optimizer."""

    name = "wide_readout"
    qubits = (10, 12, 14)
    depths = (8, 16)
    noise_spec = {"p2": 0.01, "readout_eps": 0.02, "coherent_delta": 0.02}
    reps = 5
    expected_spans = (
        "circuits.build_reference_circuit", "circuits.derive_subcircuit",
        "circuits.build_exact_inverse_peaking", "circuits.retarget",
        "gates.GateParams.matrix", "gates.kak_decompose", "optimize.peak_profile",
        "sim.apply_gate_matrix", "sim.run", "sim.sample",
        "noise.readout_flip", "noise.depolarize", "noise.perturb_coherent",
        "metrics.run_metrics", "harness.run_matrix", "harness.run_cell",
    )

    def __init__(self, repo: Path):
        self.repo = repo

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        reference = circuits.build_reference_circuit(max(self.qubits), max(self.depths), seed)
        cells = {}
        for n in self.qubits:
            for d in self.depths:
                mirror = circuits.build_exact_inverse_peaking(circuits.derive_subcircuit(reference, n, d))
                target = circuits.BitString(tuple(int(b) for b in rng.integers(0, 2, n)))
                circuit = circuits.retarget(mirror, target)
                cells[(n, d)] = (circuit, opt.peak_profile(circuit))
        config = harness.BenchConfig(
            qubits=self.qubits,
            depths=self.depths,
            reps=self.reps,
            noise=noise.NoiseSpec(**self.noise_spec),
            master_seed=seed,
        )
        digest = digest_text(
            json.dumps(config.to_dict(), sort_keys=True),
            *(circuits.circuit_to_json(c, opt.profile_to_dict(p)) for c, p in cells.values()),
        )
        return {"cells": cells, "config": config}, digest

    def run(self, inputs, out: Path):
        return harness.run_matrix(inputs["cells"], inputs["config"], jobs=1)

    def check(self, inputs, matrix, out: Path) -> Checked:
        c = Checked()
        config = inputs["config"]
        identified = 0
        for (n, d), (_, profile) in inputs["cells"].items():
            cell = matrix.cells[(n, d)]
            # The documented shot policy, computed here rather than through
            # harness.shot_policy so that a change to it shows.
            raw = config.shot_base * 2.0 ** (n / 2.0) * (1.0 + d / 25.0)
            shots = int(min(config.max_shots, max(config.min_shots, raw)))
            problems = []
            if abs(profile.p_peak - 1.0) > 1e-9 or profile.target_mismatch:
                problems.append(f"profile p_peak {profile.p_peak!r}")
            if len(cell.records) != config.reps or any(r.shots != shots for r in cell.records):
                problems.append(f"shots {[r.shots for r in cell.records]} != {shots} x {config.reps}")
            if cell.status != harness.STATUS_IDENTIFIED:
                problems.append(f"status {cell.status}")
            identified += cell.status == harness.STATUS_IDENTIFIED
            c.op(f"bench ({n}, {d})", not problems, "; ".join(problems))
        c.quality["identified_cells"] = identified
        harness.persist_matrix(matrix, out / "matrix.json")
        c.digest = digest_tree(out)
        return c


class DeepGradient:
    """`optimize` on one (16, 10) cell: every evaluation is a forward pass,
    an adjoint reverse sweep and an environment contraction over 2^16
    amplitudes."""

    name = "deep_gradient"
    n, d = 16, 10
    # Adam only: a fixed number of objective evaluations per call (two plus
    # one per step), where L-BFGS line searches vary with the seed.
    optimizer = {"stage1_iters": 0, "stage2_iters": 16}
    expected_spans = (
        "circuits.build_reference_circuit", "circuits.derive_subcircuit",
        "gates.GateParams.matrix", "gates.kak_decompose",
        "sim.PeakObjective.init", "sim.PeakObjective.value_and_gradient",
        "sim.apply_gate_matrix", "optimize.optimize",
    )

    def __init__(self, repo: Path):
        self.repo = repo

    def setup(self, seed: int, work: Path):
        reference = circuits.build_reference_circuit(self.n, self.d, seed)
        cell = circuits.derive_subcircuit(reference, self.n, self.d)
        config = opt.OptimizerConfig(**self.optimizer)
        return {"circuit": cell, "config": config}, digest_text(circuits.circuit_to_json(cell))

    def run(self, inputs, out: Path):
        return opt.optimize(inputs["circuit"], inputs["config"])

    def check(self, inputs, result, out: Path) -> Checked:
        c = Checked()
        circuit, trace = result
        config = inputs["config"]
        problems = []
        if trace.final_objective < trace.objective_values[0]:
            problems.append(f"final p {trace.final_objective} < initial p {trace.objective_values[0]}")
        # Stage 1 is off; Adam can only stop early once the gradient norm
        # drops below stop_tol, which a (16, 10) cell never reaches here.
        if trace.iterations_stage1 != config.stage1_iters or trace.iterations_stage2 != config.stage2_iters:
            problems.append(
                f"iterations {trace.iterations_stage1}/{trace.iterations_stage2}, "
                f"budget {config.stage1_iters}/{config.stage2_iters}"
            )
        c.op(f"optimize ({self.n}, {self.d})", not problems, "; ".join(problems))
        c.quality = {"mean_final_p": trace.final_objective, "min_final_p": trace.final_objective}
        (out / "circuit.json").write_text(circuits.circuit_to_json(circuit), encoding="utf-8")
        (out / "objective.json").write_text(json.dumps(list(trace.objective_values)), encoding="utf-8")
        c.digest = digest_tree(out)
        return c


WORKLOADS = {w.name: w for w in (Walkthrough, WideReadout, DeepGradient)}
