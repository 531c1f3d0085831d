"""Benchmark protocol: per-cell repetitions with derived seeds, the shot
policy, adaptive row skipping, aggregation, and matrix persistence."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import noise as noise_mod
from . import sim
from .circuits import Circuit
from .errors import SchemaError
from .metrics import RunMetrics
from .noise import NoiseSpec
from .optimize import PeakProfile

MATRIX_SCHEMA = "prc-matrix/1"

STATUS_IDENTIFIED = "identified"
STATUS_NON_IDENTIFIED = "non_identified"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class BenchConfig:
    qubits: tuple[int, ...] = tuple(range(2, 21))
    depths: tuple[int, ...] = tuple(range(2, 51))
    reps: int = 5
    threshold: int = 3  # identified reps needed for a cell to count as identified
    skip_window: int = 5  # consecutive non-identified cells before a row is abandoned
    shot_base: float = 250.0
    min_shots: int = 200
    max_shots: int = 1_000_000
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    master_seed: int = 0
    exact: bool = False  # infinite-shot mode: metrics from the exact noisy distribution
    top_k: int = 5
    deterministic: bool = True  # exclude wall-clock fields from serialization

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 1 <= self.threshold <= self.reps:
            raise ValueError("threshold must lie in 1..reps")
        if self.skip_window < 1:
            raise ValueError("skip window must be at least 1")
        if not self.qubits or not self.depths:
            raise ValueError("qubit and depth lists must be non-empty")

    def to_dict(self) -> dict:
        return {
            "qubits": list(self.qubits),
            "depths": list(self.depths),
            "reps": self.reps,
            "threshold": self.threshold,
            "skip_window": self.skip_window,
            "shot_base": self.shot_base,
            "min_shots": self.min_shots,
            "max_shots": self.max_shots,
            "noise": self.noise.to_dict(),
            "master_seed": self.master_seed,
            "exact": self.exact,
            "top_k": self.top_k,
            "deterministic": self.deterministic,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        try:
            kwargs = dict(doc)
            if "qubits" in kwargs:
                kwargs["qubits"] = tuple(int(q) for q in kwargs["qubits"])
            if "depths" in kwargs:
                kwargs["depths"] = tuple(int(d) for d in kwargs["depths"])
            if "noise" in kwargs:
                kwargs["noise"] = NoiseSpec.from_dict(kwargs["noise"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed benchmark config: {exc}") from exc


@dataclass(frozen=True)
class RunRecord:
    n: int
    d: int
    rep: int
    seed: int  # derived from (master_seed, n, d, rep)
    shots: int
    target: str
    metrics: RunMetrics
    top_counts: tuple[tuple[str, int], ...]
    wall_time: float | None = None


@dataclass(frozen=True)
class CellResult:
    status: str
    records: tuple[RunRecord, ...]
    mean_f: float | None  # mean clamped f over identified reps only
    identified_reps: int


@dataclass(frozen=True)
class BenchmarkMatrix:
    config: BenchConfig
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    cells: dict[tuple[int, int], CellResult]
    provenance: dict


def shot_policy(n: int, d: int, config: BenchConfig) -> int:
    """clamp(base * 2^(n/2) * (1 + d/25), min_shots, max_shots); monotone
    non-decreasing in both n and d by construction."""
    raw = config.shot_base * 2.0 ** (n / 2.0) * (1.0 + d / 25.0)
    return int(min(config.max_shots, max(config.min_shots, raw)))


def _rep_seed_sequence(config: BenchConfig, n: int, d: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(config.master_seed), int(n), int(d), int(rep)])


def derived_seed(config: BenchConfig, n: int, d: int, rep: int) -> int:
    return int(_rep_seed_sequence(config, n, d, rep).generate_state(1, np.uint64)[0])


def _run_rep(
    circuit: Circuit,
    profile: PeakProfile,
    config: BenchConfig,
    rep: int,
    shots: int,
    base_dist: sim.ProbabilityDistribution | None,
) -> RunRecord:
    t0 = time.perf_counter()
    spec = config.noise
    rng = np.random.default_rng(_rep_seed_sequence(config, circuit.n, circuit.d, rep))
    if base_dist is not None:
        dist = base_dist
    else:
        perturbed = noise_mod.perturb_coherent(circuit, spec.coherent_delta, rng)
        dist = noise_mod.depolarize(
            sim.full_distribution(perturbed),
            noise_mod.effective_fidelity(perturbed, spec.p1, spec.p2),
        )
    if config.exact:
        run_metrics = metrics_mod.exact_metrics(
            noise_mod.readout_confusion(dist, spec.readout_eps), circuit.target, profile.c_max
        )
        shots_used = 0
        top: tuple[tuple[str, int], ...] = ()
    else:
        hist = sim.sample(dist, shots, rng)
        hist = noise_mod.readout_flip(hist, spec.readout_eps, rng)
        run_metrics = metrics_mod.run_metrics(hist, circuit.target, profile.c_max)
        shots_used = shots
        top = tuple((bs.text, c) for bs, c in hist.top(config.top_k))
    return RunRecord(
        n=circuit.n,
        d=circuit.d,
        rep=rep,
        seed=derived_seed(config, circuit.n, circuit.d, rep),
        shots=shots_used,
        target=circuit.target.text,
        metrics=run_metrics,
        top_counts=top,
        wall_time=None if config.deterministic else time.perf_counter() - t0,
    )


def run_cell(circuit: Circuit, profile: PeakProfile, config: BenchConfig) -> CellResult:
    """Execute the full per-cell pipeline for `reps` repetitions: coherent
    perturbation, exact distribution, depolarizing, sampling, readout flips,
    metrics; then aggregate with the threshold rule."""
    if circuit.target != profile.target:
        raise ValueError("circuit and profile disagree on the target bitstring")
    shots = shot_policy(circuit.n, circuit.d, config)
    base_dist = None
    if config.noise.coherent_delta == 0.0:
        # Without per-rep coherent noise the ideal distribution is shared.
        base_dist = noise_mod.depolarize(
            sim.full_distribution(circuit),
            noise_mod.effective_fidelity(circuit, config.noise.p1, config.noise.p2),
        )
    records = tuple(
        _run_rep(circuit, profile, config, rep, shots, base_dist) for rep in range(config.reps)
    )
    identified = sum(1 for r in records if r.metrics.identified)
    f_values = [r.metrics.f for r in records if r.metrics.identified]
    mean_f = sum(f_values) / len(f_values) if f_values else None
    status = STATUS_IDENTIFIED if identified >= config.threshold else STATUS_NON_IDENTIFIED
    return CellResult(status=status, records=records, mean_f=mean_f, identified_reps=identified)


def run_matrix(
    suite_cells,
    config: BenchConfig,
    jobs: int = 1,
    cell_runner=None,
    provenance: dict | None = None,
) -> BenchmarkMatrix:
    """Run the whole grid.  Within a qubit row, depths ascend and after
    `skip_window` consecutive non-identified cells the remainder of the row
    is marked skipped without execution (an identified cell resets the
    counter).  Rows are independent, so they may run in parallel; every
    record's randomness comes from its own derived seed, making the output
    invariant to scheduling.
    """
    qubits = tuple(sorted(config.qubits))
    depths = tuple(sorted(config.depths))
    missing = [(n, d) for n in qubits for d in depths if (n, d) not in suite_cells]
    if missing:
        raise KeyError(f"suite is missing circuits for cells {missing[:5]}")
    runner = cell_runner if cell_runner is not None else run_cell

    def run_row(n: int) -> dict[tuple[int, int], CellResult]:
        out: dict[tuple[int, int], CellResult] = {}
        misses = 0
        for d in depths:
            if misses >= config.skip_window:
                out[(n, d)] = CellResult(STATUS_SKIPPED, (), None, 0)
                continue
            circuit, profile = suite_cells[(n, d)]
            cell = runner(circuit, profile, config)
            out[(n, d)] = cell
            misses = 0 if cell.status == STATUS_IDENTIFIED else misses + 1
        return out

    cells: dict[tuple[int, int], CellResult] = {}
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for row in pool.map(run_row, qubits):
                cells.update(row)
    else:
        for n in qubits:
            cells.update(run_row(n))
    cells = {key: cells[key] for key in sorted(cells)}
    return BenchmarkMatrix(
        config=config,
        qubits=qubits,
        depths=depths,
        cells=cells,
        provenance=dict(provenance or {}),
    )


def _metrics_to_dict(m: RunMetrics) -> dict:
    return {
        "identified": m.identified,
        "p_hat_peak": m.p_hat_peak,
        "p_hat_second": m.p_hat_second,
        "c_exp": m.c_exp,
        "f": m.f,
        "f_raw": m.f_raw,
    }


def _record_to_dict(r: RunRecord) -> dict:
    doc = {
        "n": r.n,
        "d": r.d,
        "rep": r.rep,
        "seed": r.seed,
        "shots": r.shots,
        "target": r.target,
        "metrics": _metrics_to_dict(r.metrics),
        "top_counts": [[text, count] for text, count in r.top_counts],
    }
    if r.wall_time is not None:
        doc["wall_time"] = r.wall_time
    return doc


def matrix_to_dict(matrix: BenchmarkMatrix) -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "config": matrix.config.to_dict(),
        "qubits": list(matrix.qubits),
        "depths": list(matrix.depths),
        "provenance": matrix.provenance,
        "cells": [
            {
                "n": n,
                "d": d,
                "status": cell.status,
                "identified_reps": cell.identified_reps,
                "mean_f": cell.mean_f,
                "records": [_record_to_dict(r) for r in cell.records],
            }
            for (n, d), cell in matrix.cells.items()
        ],
    }


def matrix_to_json(matrix: BenchmarkMatrix) -> str:
    return json.dumps(matrix_to_dict(matrix), indent=2, sort_keys=True)


def persist_matrix(matrix: BenchmarkMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_to_json(matrix))


def _parse_metrics(doc: dict, path: str) -> RunMetrics:
    try:
        return RunMetrics(
            identified=bool(doc["identified"]),
            p_hat_peak=float(doc["p_hat_peak"]),
            p_hat_second=float(doc["p_hat_second"]),
            c_exp=float(doc["c_exp"]),
            f=float(doc["f"]),
            f_raw=float(doc["f_raw"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix document at {path}: {exc}") from exc


def matrix_from_dict(doc: dict) -> BenchmarkMatrix:
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SchemaError("matrix document lacks a schema field")
    if doc["schema"] != MATRIX_SCHEMA:
        raise SchemaError(
            f"unsupported matrix schema {doc['schema']!r}; expected {MATRIX_SCHEMA!r}"
        )
    config = BenchConfig.from_dict(doc.get("config", {}))
    cells: dict[tuple[int, int], CellResult] = {}
    for i, cd in enumerate(doc.get("cells", [])):
        path = f"cells[{i}]"
        try:
            records = tuple(
                RunRecord(
                    n=int(rd["n"]),
                    d=int(rd["d"]),
                    rep=int(rd["rep"]),
                    seed=int(rd["seed"]),
                    shots=int(rd["shots"]),
                    target=str(rd["target"]),
                    metrics=_parse_metrics(rd["metrics"], f"{path}.records[{j}].metrics"),
                    top_counts=tuple((str(t), int(c)) for t, c in rd.get("top_counts", [])),
                    wall_time=rd.get("wall_time"),
                )
                for j, rd in enumerate(cd["records"])
            )
            cell = CellResult(
                status=str(cd["status"]),
                records=records,
                mean_f=None if cd["mean_f"] is None else float(cd["mean_f"]),
                identified_reps=int(cd["identified_reps"]),
            )
            cells[(int(cd["n"]), int(cd["d"]))] = cell
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed matrix document at {path}: {exc}") from exc
    return BenchmarkMatrix(
        config=config,
        qubits=tuple(int(q) for q in doc.get("qubits", [])),
        depths=tuple(int(d) for d in doc.get("depths", [])),
        cells={key: cells[key] for key in sorted(cells)},
        provenance=dict(doc.get("provenance", {})),
    )


def load_matrix(path) -> BenchmarkMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return matrix_from_dict(doc)


def matrix_to_csv(matrix: BenchmarkMatrix) -> str:
    """Flat companion table: one row per cell."""
    lines = ["n,d,status,identified_reps,mean_f,shots"]
    for (n, d), cell in matrix.cells.items():
        if cell.status == STATUS_SKIPPED:
            shots = ""
        else:
            shots = str(cell.records[0].shots) if cell.records else ""
        mean_f = "" if cell.mean_f is None else f"{cell.mean_f:.6f}"
        lines.append(f"{n},{d},{cell.status},{cell.identified_reps},{mean_f},{shots}")
    return "\n".join(lines) + "\n"
