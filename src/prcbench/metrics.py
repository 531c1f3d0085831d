"""Peak identification, relative peakedness, fidelity error, and the
matrix difference used for cross-configuration comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import BitString
from .errors import DomainMismatchError, UndefinedMetricError
from .sim import ProbabilityDistribution, ShotHistogram


@dataclass(frozen=True)
class RunMetrics:
    """Per-run outcome: identification flag, empirical frequencies of the
    target and of its strongest competitor, the contrast c_exp, and the
    fidelity error (f clamped for reports, f_raw as computed)."""

    identified: bool
    p_hat_peak: float
    p_hat_second: float
    c_exp: float
    f: float
    f_raw: float


def _peak_and_second(weights: np.ndarray, position: int | None) -> tuple:
    """weights[position] (0 when position is None) and the largest weight at
    any other position (0 when there is none)."""
    if position is None:
        return 0, weights.max(initial=0).item()
    peak = weights[position].item()
    second = max(weights[:position].max(initial=0), weights[position + 1 :].max(initial=0))
    return peak, second.item()


def _counts_peak_and_second(hist: ShotHistogram, target: BitString) -> tuple[int, int]:
    if hist.shots == 0:
        raise UndefinedMetricError("empty histogram")
    return _peak_and_second(hist.tallies, hist.position(target.index))


def identify(hist: ShotHistogram, target: BitString) -> bool:
    """True iff the target strictly out-counts every other outcome.

    A tie means the device failed to make the peak distinguishable, so
    ties are failures; this keeps the predicate deterministic.
    """
    peak, second = _counts_peak_and_second(hist, target)
    return peak > second


def relative_peakedness(hist: ShotHistogram, target: BitString) -> float:
    """(p_peak - p_second) / (p_peak + p_second) over empirical frequencies,
    with p_peak the target's frequency; negative when a competitor wins."""
    return contrast_from_probabilities(*_counts_peak_and_second(hist, target))


def contrast_from_probabilities(p_peak: float, p_second: float) -> float:
    """Relative peakedness evaluated on exact probabilities (the
    infinite-shot limit)."""
    if p_peak + p_second <= 0:
        raise UndefinedMetricError("target and strongest competitor both have zero mass")
    return (p_peak - p_second) / (p_peak + p_second)


def fidelity_error(c_exp: float, c_max: float) -> float:
    """Raw fidelity error 1 - c_exp / c_max (no clamping)."""
    if c_max <= 0:
        raise UndefinedMetricError("c_max must be positive")
    return 1.0 - c_exp / c_max


def clamp_fidelity_error(f_raw: float) -> float:
    """Display value confined to [0, 1]; sampling noise can push c_exp a
    hair above c_max, and non-identified runs can push it below 0."""
    return min(1.0, max(0.0, f_raw))


def _metrics(peak, second, total, c_max: float) -> RunMetrics:
    """The run metrics from the target's weight, its strongest competitor's
    weight and the total weight, as shot counts or as probabilities."""
    c_exp = contrast_from_probabilities(peak, second)
    f_raw = fidelity_error(c_exp, c_max)
    return RunMetrics(
        identified=peak > second,
        p_hat_peak=peak / total,
        p_hat_second=second / total,
        c_exp=c_exp,
        f=clamp_fidelity_error(f_raw),
        f_raw=f_raw,
    )


def run_metrics(hist: ShotHistogram, target: BitString, c_max: float) -> RunMetrics:
    """Metrics of one run from its shot counts."""
    peak, second = _counts_peak_and_second(hist, target)
    return _metrics(peak, second, hist.shots, c_max)


def exact_metrics(dist: ProbabilityDistribution, target: BitString, c_max: float) -> RunMetrics:
    """Metrics of one run in the infinite-shot limit, from the exact
    probabilities of the observed distribution."""
    peak, second = _peak_and_second(dist.probs, target.index)
    return _metrics(peak, second, 1, c_max)


def delta_matrix(a, b) -> "DeltaGrid":
    """Cell-wise fidelity-error difference F_a - F_b over the shared grid.

    Only cells identified in both matrices carry a value; everything else
    is absent (None).  Inputs are BenchmarkMatrix objects.
    """
    if a.qubits != b.qubits or a.depths != b.depths:
        raise DomainMismatchError("benchmark matrices cover different (n, d) grids")
    values: dict[tuple[int, int], float | None] = {}
    for key, cell_a in a.cells.items():
        cell_b = b.cells[key]
        if cell_a.status == "identified" and cell_b.status == "identified":
            values[key] = cell_a.mean_f - cell_b.mean_f
        else:
            values[key] = None
    return DeltaGrid(qubits=tuple(a.qubits), depths=tuple(a.depths), values=values)


@dataclass(frozen=True)
class DeltaGrid:
    qubits: tuple[int, ...]
    depths: tuple[int, ...]
    values: dict[tuple[int, int], float | None]
