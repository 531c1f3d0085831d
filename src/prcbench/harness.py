"""Benchmark protocol: per-cell repetitions with derived seeds, the shot
policy, adaptive row skipping, aggregation, and matrix persistence."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import metrics as metrics_mod
from . import noise as noise_mod
from . import sim
from .circuits import BitString, Circuit
from .errors import check_fields, read_fields, read_json, read_tagged
from .metrics import RunMetrics
from .noise import NoiseSpec
from .optimize import PeakProfile

MATRIX_SCHEMA = "prc-matrix/1"

STATUS_IDENTIFIED = "identified"
STATUS_NON_IDENTIFIED = "non_identified"
STATUS_SKIPPED = "skipped"
_STATUSES = (STATUS_IDENTIFIED, STATUS_NON_IDENTIFIED, STATUS_SKIPPED)


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

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("qubits", "depths"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if min(values) < 2:
                raise ValueError(f"{name}: {min(values)} is below 2")
            if len(set(values)) != len(values):
                raise ValueError(f"{name}: {values} lists a value twice")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 1 <= self.threshold <= self.reps:
            raise ValueError("threshold must lie in 1..reps")
        if self.skip_window < 1:
            raise ValueError("skip_window must be at least 1")
        if self.shot_base < 0.0:
            raise ValueError(f"shot_base must be non-negative, got {self.shot_base}")
        if self.min_shots < 1:
            raise ValueError("min_shots must be at least 1")
        if self.max_shots < self.min_shots:
            raise ValueError(f"max_shots: {self.max_shots} is below min_shots {self.min_shots}")
        if self.max_shots > sim.MAX_SHOTS:
            raise ValueError(f"max_shots: {self.max_shots} exceeds sim.MAX_SHOTS = {sim.MAX_SHOTS}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.top_k < 0:
            raise ValueError("top_k must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        return read_fields(cls, doc, "")


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


@dataclass(frozen=True)
class CellResult:
    status: str
    records: tuple[RunRecord, ...]
    mean_f: float | None  # mean clamped f over identified reps only
    identified_reps: int

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status: unknown status {self.status!r}; expected one of {_STATUSES}")


@dataclass(frozen=True)
class BenchmarkMatrix:
    config: BenchConfig
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    cells: dict[tuple[int, int], CellResult]
    provenance: dict


@dataclass(frozen=True)
class _StoredCell(CellResult):
    """A cell as a matrix document stores it, with its grid position."""

    n: int = field(kw_only=True)
    d: int = field(kw_only=True)


def _is_bits(text: str, n: int) -> bool:
    return len(text) == n and set(text) <= {"0", "1"}


def _record_problem(r: RunRecord, j: int, cell: _StoredCell, config: BenchConfig) -> str | None:
    """What is wrong with record j of a stored cell, as "field: reason".  A
    record belongs to its cell, reps count 0, 1, ... in order, its seed is
    derived_seed's, sampled records draw shot_policy's shots and exact-mode
    ones none, bitstrings are n characters of 0 and 1, top_counts is what
    ShotHistogram.top could have written (none in exact mode, else at most top_k distinct outcomes
    with counts in 1..shots and a sum of at most shots, ranked by count
    descending and then by basis index ascending), and the metrics do not
    contradict them (_counted_metrics_problem)."""
    if (r.n, r.d) != (cell.n, cell.d):
        name, value, want = ("n", r.n, cell.n) if r.n != cell.n else ("d", r.d, cell.d)
        return f"{name}: {value} is not the cell's {name} {want}"
    if r.rep != j:
        return f"rep: {r.rep}, but record {j} holds rep {j}"
    if config.exact and r.shots != 0:
        return f"shots: {r.shots}, but an exact-mode matrix draws no shots"
    if not config.exact and r.shots < 1:
        return f"shots: {r.shots} is below 1"
    shots, seed = shot_policy(cell.n, cell.d, config), derived_seed(config, cell.n, cell.d, j)
    if not config.exact and r.shots != shots:
        return f"shots: {r.shots}, but shot_policy gives {shots}"
    if r.seed != seed:
        return f"seed: {r.seed}, but derived_seed gives {seed}"
    if not _is_bits(r.target, cell.n):
        return f"target: {r.target!r} is not {cell.n} characters of 0 and 1"
    total, seen, previous = 0, set(), ()
    for k, (text, count) in enumerate(r.top_counts):
        if config.exact:
            return f"top_counts[{k}]: an exact-mode record stores no counts"
        if k >= config.top_k:
            return f"top_counts[{k}]: more than top_k = {config.top_k} entries"
        if not _is_bits(text, cell.n):
            return f"top_counts[{k}][0]: {text!r} is not {cell.n} characters of 0 and 1"
        if text in seen:
            return f"top_counts[{k}][0]: {text!r} is listed twice"
        if not 1 <= count <= r.shots:
            return f"top_counts[{k}][1]: count {count} is outside 1..{r.shots}"
        total += count
        if total > r.shots:
            return f"top_counts[{k}][1]: the counts sum to {total}, past shots {r.shots}"
        rank = (-count, BitString.from_text(text).index)
        if rank < previous:
            return f"top_counts[{k}]: out of rank order (count descending, then basis index)"
        seen.add(text)
        previous = rank
    f = metrics_mod.clamp_fidelity_error(r.metrics.f_raw)
    if r.metrics.f != f:
        return f"metrics.f: {r.metrics.f!r}, but its f_raw clamps to {f!r}"
    return None if config.exact else _counted_metrics_problem(r, config.top_k, total)


def _counted_metrics_problem(r: RunRecord, top_k: int, total: int) -> str | None:
    """What a sampled record's metrics contradict in its own top_counts.

    With fewer than top_k entries, every outcome seen is listed, so the
    counts sum to shots.  The counts fix the metrics when every outcome is
    listed, or when the target and another outcome are (the strongest
    competitor then ranks among them): identified, p_hat_peak, p_hat_second
    and c_exp are then exactly what metrics._metrics gives, as the writer
    divides the same integers.  A target missing from top_k >= 1 entries
    out-counts none of them, so it is not identified."""
    complete = len(r.top_counts) < top_k
    if complete and total != r.shots:
        return (f"top_counts: the counts sum to {total}, but fewer than top_k = {top_k} "
                f"entries list all {r.shots} shots")
    counts = dict(r.top_counts)
    others = [count for text, count in r.top_counts if text != r.target]
    if complete or (r.target in counts and others):
        want = metrics_mod._metrics(counts.get(r.target, 0), max(others, default=0), r.shots, 1.0)
        for name in ("identified", "p_hat_peak", "p_hat_second", "c_exp"):
            stored, given = getattr(r.metrics, name), getattr(want, name)
            if stored != given:
                return f"metrics.{name}: {stored!r}, but its top_counts give {given!r}"
    elif counts and r.target not in counts and r.metrics.identified:
        return f"metrics.identified: True, but the target is not among its top_k = {top_k} top_counts"
    return None


def _cell_problem(cell: _StoredCell, config: BenchConfig) -> str | None:
    """What is wrong with a stored cell's summary, as "field: reason".  A
    skipped cell holds no records, 0 identified reps and no mean f; an
    executed one holds `reps` records and the summary they give (_aggregate)."""
    if cell.status == STATUS_SKIPPED:
        if cell.records:
            return f"records: {len(cell.records)} records, but a skipped cell holds none"
        want, source = CellResult(STATUS_SKIPPED, (), None, 0), "a skipped cell has"
    elif len(cell.records) != config.reps:
        return f"records: {len(cell.records)} records, but config.reps is {config.reps}"
    else:
        want, source = _aggregate(cell.records, config.threshold), "its records give"
    for name in ("identified_reps", "mean_f", "status"):
        if getattr(cell, name) != getattr(want, name):
            return f"{name}: {getattr(cell, name)!r}, but {source} {getattr(want, name)!r}"
    return None


@dataclass(frozen=True)
class _StoredMatrix:
    """A matrix document's fields: cells cover qubits x depths, the config's
    grid, once each; each cell's records fit it (_record_problem) and its
    summary fits them (_cell_problem); and each row skips the cells that
    _run_row skips, replayed on the row's executed cells."""

    config: BenchConfig
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    provenance: dict
    cells: tuple[_StoredCell, ...]

    def __post_init__(self) -> None:
        keys = [(c.n, c.d) for c in self.cells]
        if len(set(keys)) != len(keys):
            i = next(i for i, key in enumerate(keys) if key in keys[:i])
            raise ValueError(f"cells[{i}]: duplicate cell {keys[i]}")
        grid = {(n, d) for n in self.qubits for d in self.depths}
        if set(keys) != grid:
            raise ValueError(
                f"cells: the grid is not qubits x depths; missing {sorted(grid - set(keys))}, "
                f"extra {sorted(set(keys) - grid)}"
            )
        config_grid = (tuple(sorted(self.config.qubits)), tuple(sorted(self.config.depths)))
        if config_grid != (self.qubits, self.depths):
            raise ValueError(f"config: qubits x depths {config_grid} is not the matrix grid")
        for i, cell in enumerate(self.cells):
            for j, record in enumerate(cell.records):
                problem = _record_problem(record, j, cell, self.config)
                if problem:
                    raise ValueError(f"cells[{i}].records[{j}].{problem}")
            problem = _cell_problem(cell, self.config)
            if problem:
                raise ValueError(f"cells[{i}].{problem}")
        index = {key: i for i, key in enumerate(keys)}
        missed = CellResult(STATUS_NON_IDENTIFIED, (), None, 0)
        for n in self.qubits:
            row = [index[(n, d)] for d in self.depths]
            # A cell the row skipped, but the replay runs, counts as a miss.
            ran = iter([self.cells[i] for i in row if self.cells[i].status != STATUS_SKIPPED])
            replay = _run_row(self.config, lambda *_: next(ran, missed), [(None, None)] * len(row))
            for i, d, want in zip(row, self.depths, replay):
                if self.cells[i].status != want.status:
                    act = "skips" if want.status == STATUS_SKIPPED else "runs"
                    raise ValueError(f"cells[{i}].status: {self.cells[i].status!r} at depth {d}, but "
                                     f"skip_window = {self.config.skip_window} {act} it in row n={n}")


def shot_policy(n: int, d: int, config: BenchConfig) -> int:
    """clamp(base * 2^(n/2) * (1 + d/25), min_shots, max_shots); monotone
    non-decreasing in both n and d by construction."""
    raw = config.shot_base * 2.0 ** (n / 2.0) * (1.0 + d / 25.0)
    return int(min(config.max_shots, max(config.min_shots, raw)))


def _rep_seed_sequence(config: BenchConfig, n: int, d: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(config.master_seed), int(n), int(d), int(rep)])


def derived_seed(config: BenchConfig, n: int, d: int, rep: int) -> int:
    return int(_rep_seed_sequence(config, n, d, rep).generate_state(1, np.uint64)[0])


def _noisy_distribution(circuit: Circuit, spec: NoiseSpec) -> sim.ProbabilityDistribution:
    """The circuit's exact distribution, depolarized to its effective fidelity."""
    return noise_mod.depolarize(
        sim.full_distribution(circuit), noise_mod.effective_fidelity(circuit, spec.p1, spec.p2)
    )


def _run_rep(
    circuit: Circuit,
    profile: PeakProfile,
    config: BenchConfig,
    rep: int,
    shots: int,
    base_dist: sim.ProbabilityDistribution | None,
) -> RunRecord:
    spec = config.noise
    rng = np.random.default_rng(_rep_seed_sequence(config, circuit.n, circuit.d, rep))
    if base_dist is not None:
        dist = base_dist
    else:
        dist = _noisy_distribution(noise_mod.perturb_coherent(circuit, spec.coherent_delta, rng), spec)
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
        base_dist = _noisy_distribution(circuit, config.noise)
    records = tuple(
        _run_rep(circuit, profile, config, rep, shots, base_dist) for rep in range(config.reps)
    )
    return _aggregate(records, config.threshold)


def _aggregate(records: tuple[RunRecord, ...], threshold: int) -> CellResult:
    """The executed cell its records give: identified reps, mean clamped f
    over them, and identified when at least `threshold` reps are."""
    identified = sum(1 for r in records if r.metrics.identified)
    f_values = [r.metrics.f for r in records if r.metrics.identified]
    mean_f = sum(f_values) / len(f_values) if f_values else None
    status = STATUS_IDENTIFIED if identified >= threshold else STATUS_NON_IDENTIFIED
    return CellResult(status=status, records=records, mean_f=mean_f, identified_reps=identified)


def map_cells(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on min(jobs, CPU count, len(items)) worker
    processes when that is above 1, so ``fn`` and the items must pickle."""
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    from unittest import mock

    # Spawn, not fork: forking a process that runs BLAS threads can deadlock.
    # A spawned worker reads these variables when it imports numpy; the
    # workers fill the CPUs, so more than one BLAS thread each oversubscribes.
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    with mock.patch.dict(os.environ, dict.fromkeys(blas_vars, "1")):
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(fn, items))


def _run_row(config: BenchConfig, runner, row) -> list[CellResult]:
    """A qubit row's cells from its (circuit, profile) pairs, depths ascending:
    after `skip_window` consecutive non-identified cells (an identified one
    resets the count) the rest of the row is skipped without execution."""
    out: list[CellResult] = []
    misses = 0
    for circuit, profile in row:
        if misses >= config.skip_window:
            out.append(CellResult(STATUS_SKIPPED, (), None, 0))
        else:
            out.append(runner(circuit, profile, config))
            misses = 0 if out[-1].status == STATUS_IDENTIFIED else misses + 1
    return out


def run_matrix(
    suite_cells,
    config: BenchConfig,
    jobs: int = 1,
    cell_runner=None,
    provenance: dict | None = None,
) -> BenchmarkMatrix:
    """Run the whole grid row by row (_run_row).  Rows are independent, so
    with `jobs` > 1 they run on worker processes (map_cells), and then
    `cell_runner` must be picklable.  Every record draws from its own
    derived seed, so the output is the same for any `jobs`."""
    qubits = tuple(sorted(config.qubits))
    depths = tuple(sorted(config.depths))
    missing = [(n, d) for n in qubits for d in depths if (n, d) not in suite_cells]
    if missing:
        raise KeyError(f"suite is missing circuits for cells {missing[:5]}")
    rows = [[suite_cells[(n, d)] for d in depths] for n in qubits]
    results = map_cells(partial(_run_row, config, cell_runner or run_cell), rows, jobs)
    cells = {(n, d): cell for n, row in zip(qubits, results) for d, cell in zip(depths, row)}
    return BenchmarkMatrix(
        config=config,
        qubits=qubits,
        depths=depths,
        cells=cells,
        provenance={**(provenance or {}), "numerics": sim.NUMERICS},
    )


def matrix_to_dict(matrix: BenchmarkMatrix) -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "config": matrix.config.to_dict(),
        "qubits": matrix.qubits,
        "depths": matrix.depths,
        "provenance": matrix.provenance,
        "cells": [{"n": n, "d": d, **asdict(cell)} for (n, d), cell in matrix.cells.items()],
    }


def matrix_to_json(matrix: BenchmarkMatrix) -> str:
    return json.dumps(matrix_to_dict(matrix), indent=2, sort_keys=True)


def persist_matrix(matrix: BenchmarkMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_to_json(matrix))


def matrix_from_dict(doc: dict) -> BenchmarkMatrix:
    # Older files carry the wall-clock switch `deterministic` in the config
    # and `wall_time` in each record; both are dropped.
    legacy = {BenchConfig: ("deterministic",), RunRecord: ("wall_time",)}
    stored = read_fields(_StoredMatrix, read_tagged(doc, MATRIX_SCHEMA, ""), "", legacy)
    cells = {(c.n, c.d): CellResult(c.status, c.records, c.mean_f, c.identified_reps)
             for c in stored.cells}
    numerics = sim.read_numerics(stored.provenance.get("numerics", 1), "provenance.numerics")
    provenance = {**stored.provenance, "numerics": numerics}
    return BenchmarkMatrix(stored.config, stored.qubits, stored.depths, dict(sorted(cells.items())),
                           provenance)


def load_matrix(path) -> BenchmarkMatrix:
    return matrix_from_dict(read_json(path))


def matrix_to_csv(matrix: BenchmarkMatrix) -> str:
    """Flat companion table: one row per cell."""
    lines = ["n,d,status,identified_reps,mean_f,shots"]
    for (n, d), cell in matrix.cells.items():
        shots = str(cell.records[0].shots) if cell.records else ""
        mean_f = "" if cell.mean_f is None else f"{cell.mean_f:.6f}"
        lines.append(f"{n},{d},{cell.status},{cell.identified_reps},{mean_f},{shots}")
    return "\n".join(lines) + "\n"
