"""Suite generation: carve every (n, d) cell out of one reference circuit,
optimize the peaking half, and persist circuit+profile files plus a
manifest consumed by the bench and export commands."""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from .circuits import (
    Circuit,
    build_reference_circuit,
    circuit_from_dict,
    circuit_to_dict,
    derive_subcircuit,
)
from .errors import SchemaError, read_fields, read_json, read_tagged, read_value
from .harness import map_cells
from .optimize import (
    _PROBABILITY_SLACK,
    OptimizerConfig,
    PeakProfile,
    _require_scannable,
    objective,
    optimize,
    peak_profile,
    profile_from_dict,
    profile_to_dict,
)
from .sim import NUMERICS, read_numerics

SUITE_SCHEMA = "prc-suite/1"
_CELL_KEY = re.compile(r"([0-9]+)x([0-9]+)")


@dataclass(frozen=True)
class SuiteCell:
    circuit: Circuit
    profile: PeakProfile
    final_objective: float


@dataclass(frozen=True)
class Suite:
    seed: int
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    cells: dict[tuple[int, int], SuiteCell]
    optimizer: OptimizerConfig | None  # None when the cells were not optimized
    numerics: int = NUMERICS  # simulator numerics the cells were optimized under

    def as_mapping(self) -> dict[tuple[int, int], tuple[Circuit, PeakProfile]]:
        return {key: (c.circuit, c.profile) for key, c in self.cells.items()}


def _build_cell(reference: Circuit, optimizer: OptimizerConfig | None, key) -> SuiteCell:
    """Cell `key` = (n, d) of the reference, optimized unless `optimizer` is None."""
    circuit = derive_subcircuit(reference, *key)
    if optimizer is not None:
        circuit, trace = optimize(circuit, optimizer)
        final = trace.final_objective
    else:
        final = objective(circuit)
    return SuiteCell(circuit=circuit, profile=peak_profile(circuit), final_objective=final)


def generate_suite(
    qubits,
    depths,
    seed: int,
    optimizer: OptimizerConfig | None = OptimizerConfig(),
    jobs: int = 1,
) -> Suite:
    """Build the reference circuit at the grid's maximum size, then derive
    every requested cell and optimize it with ``optimizer``, or not at all
    when it is None.  Deterministic for a fixed seed regardless of job
    count; too wide a grid to profile raises first."""
    qubits = tuple(sorted(set(int(q) for q in qubits)))
    depths = tuple(sorted(set(int(d) for d in depths)))
    _require_scannable(max(qubits))
    reference = build_reference_circuit(max(qubits), max(depths), seed)
    keys = [(n, d) for n in qubits for d in depths]
    build = partial(_build_cell, reference, optimizer)
    return Suite(int(seed), qubits, depths, dict(zip(keys, map_cells(build, keys, jobs))), optimizer)


def _cell_filename(n: int, d: int) -> str:
    return f"prc_n{n}_d{d}.json"


def save_suite(suite: Suite, out_dir) -> Path:
    """Write one circuit+profile JSON per cell plus the manifest; returns
    the manifest path.  The manifest names the suite's optimizer, if any.
    Rerunning with identical inputs reproduces every byte, and so does
    saving a loaded suite."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for (n, d), cell in sorted(suite.cells.items()):
        name = _cell_filename(n, d)
        doc = circuit_to_dict(cell.circuit, profile=profile_to_dict(cell.profile))
        doc["final_objective"] = cell.final_objective
        (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        files[f"{n}x{d}"] = name
    manifest = {
        "schema": SUITE_SCHEMA,
        "seed": suite.seed,
        "qubits": list(suite.qubits),
        "depths": list(suite.depths),
        "circuits": files,
        "numerics": suite.numerics,
    }
    if suite.optimizer is not None:
        manifest["optimizer"] = asdict(suite.optimizer)
    path = out / "suite.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


@dataclass(frozen=True)
class _Manifest:
    """A suite manifest's fields; ``circuits`` maps "<n>x<d>" to a cell file."""

    seed: int
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    circuits: dict
    numerics: int = 1  # manifests written before numerics 2 carry none
    optimizer: OptimizerConfig | None = None


def _load_cell(path: Path, key: str, n: int, d: int) -> SuiteCell:
    where = f"{path}: "
    doc = read_json(path)
    circuit = circuit_from_dict(doc, where)
    if (circuit.n, circuit.d) != (n, d):
        raise SchemaError(f"suite key {key!r} disagrees with {path}: n={circuit.n}, d={circuit.d}")
    profile = profile_from_dict(doc.get("profile"), where=f"{where}profile", target=circuit.target)
    if "final_objective" not in doc:
        raise SchemaError(f"{where}final_objective: missing")
    final = read_value(float, doc["final_objective"], f"{where}final_objective")
    # final_objective is the target's probability, so it is p_peak, or at
    # most p_peak when the target is not the argmax.
    low = -math.inf if profile.target_mismatch else profile.p_peak - _PROBABILITY_SLACK
    if not low <= final <= profile.p_peak + _PROBABILITY_SLACK:
        relation = "above" if profile.target_mismatch else "away from"
        raise SchemaError(
            f"{where}final_objective: {final!r} is {relation} profile.p_peak {profile.p_peak!r}"
        )
    return SuiteCell(circuit, profile, final)


def load_suite(manifest_path) -> Suite:
    manifest_path = Path(manifest_path)
    where = f"{manifest_path}: "
    body = read_tagged(read_json(manifest_path), SUITE_SCHEMA, where)
    # A manifest names its optimizer or has no optimizer key; null is neither.
    optimizer = partial(read_value, OptimizerConfig)
    manifest = read_fields(_Manifest, body, where, numerics=read_numerics, optimizer=optimizer)
    cells: dict[tuple[int, int], SuiteCell] = {}
    for key, name in manifest.circuits.items():
        match = _CELL_KEY.fullmatch(key)
        if match is None:
            raise SchemaError(f"{where}suite key {key!r} is not <n>x<d> with integer n and d")
        n, d = int(match[1]), int(match[2])
        if (n, d) in cells:
            raise SchemaError(f"{where}suite key {key!r} repeats cell ({n}, {d})")
        cell_path = manifest_path.parent / read_value(str, name, f"{where}circuits.{key}")
        if not cell_path.exists():
            raise FileNotFoundError(f"suite cell ({n}, {d}) missing: {cell_path}")
        cells[(n, d)] = _load_cell(cell_path, key, n, d)
    grid = {(n, d) for n in manifest.qubits for d in manifest.depths}
    if set(cells) != grid:
        raise SchemaError(
            f"{where}circuits: the cells are not qubits x depths; missing "
            f"{sorted(grid - set(cells))}, extra {sorted(set(cells) - grid)}"
        )
    cells = dict(sorted(cells.items()))
    return Suite(
        manifest.seed, manifest.qubits, manifest.depths, cells, manifest.optimizer, manifest.numerics
    )


def suite_hash(manifest_path) -> str:
    """Provenance hash over the manifest bytes."""
    data = Path(manifest_path).read_bytes()
    return hashlib.sha256(data).hexdigest()
