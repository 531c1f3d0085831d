"""Simulated-hardware noise: global depolarizing, readout bit flips, and
coherent over-rotation of the entangling angles.

Channels compose in a fixed order per run: coherent perturbation of the
circuit, then the depolarizing mixture of the exact distribution, then
per-shot readout flips.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .circuits import Circuit
from .errors import SchemaError
from .sim import ProbabilityDistribution, ShotHistogram

_READOUT_CHUNK = 1 << 15  # shots per mask draw


@dataclass(frozen=True)
class NoiseSpec:
    """p1/p2: per-gate depolarizing error rates (single-/two-qubit),
    readout_eps: per-bit flip probability, coherent_delta: fractional
    perturbation of entangling angles."""

    p1: float = 0.0
    p2: float = 0.0
    readout_eps: float = 0.0
    coherent_delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "readout_eps"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.coherent_delta < 0:
            raise ValueError("coherent_delta must be non-negative")

    def is_noiseless(self) -> bool:
        return self.p1 == 0 and self.p2 == 0 and self.readout_eps == 0 and self.coherent_delta == 0

    def to_dict(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "readout_eps": self.readout_eps,
            "coherent_delta": self.coherent_delta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NoiseSpec":
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise SchemaError(
                f"unknown noise key(s) {', '.join(map(repr, unknown))}; expected {', '.join(names)}"
            )
        return cls(**{name: float(doc[name]) for name in names if name in doc})


def effective_fidelity(circuit: Circuit, p1: float, p2: float) -> float:
    """(1-p1)^(standalone single-qubit gates) * (1-p2)^(two-qubit gates)."""
    return (1.0 - p1) ** len(circuit.final_x) * (1.0 - p2) ** circuit.num_placements()


def depolarize(dist: ProbabilityDistribution, f: float) -> ProbabilityDistribution:
    """p'(x) = f * p(x) + (1 - f) / 2^n."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    uniform = (1.0 - f) / len(dist.probs)
    return ProbabilityDistribution(f * dist.probs + uniform, dist.n)


def readout_flip(hist: ShotHistogram, eps: float, rng: np.random.Generator) -> ShotHistogram:
    """Flip each bit of each recorded shot independently with probability eps.

    Shots are laid out in ascending outcome order and draw their flip masks
    row by row from one uniform stream, so the result depends on the rng
    state alone; the chunk size only bounds the size of each draw.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 0.0:
        return hist
    n = hist.n
    weights = 1 << np.arange(n, dtype=np.int64)
    shots = np.repeat(hist.outcomes, hist.tallies)
    for start in range(0, len(shots), _READOUT_CHUNK):
        rows = shots[start : start + _READOUT_CHUNK]
        rows ^= (rng.random((len(rows), n)) < eps) @ weights
    values, counts = np.unique(shots, return_counts=True)
    return ShotHistogram.from_arrays(n, values, counts)


def readout_confusion(dist: ProbabilityDistribution, eps: float) -> ProbabilityDistribution:
    """Exact (infinite-shot) readout channel: convolve the distribution with
    the independent per-bit flip kernel, one qubit at a time."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 0.0:
        return dist
    probs = dist.probs.copy()
    for q in range(dist.n):
        p = probs.reshape(-1, 2, 1 << q)
        probs = ((1 - eps) * p + eps * p[:, ::-1, :]).reshape(-1)
    return ProbabilityDistribution(probs, dist.n)


def perturb_coherent(circuit: Circuit, delta: float, rng: np.random.Generator) -> Circuit:
    """Scale every gate's three entangling angles by independent (1 + delta*g)
    factors with g standard normal; placements and structure unchanged."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta == 0.0:
        return circuit
    layers = []
    for layer in circuit.layers:
        row = []
        for g in layer:
            factors = 1.0 + delta * rng.standard_normal(3)
            ent = tuple(float(a * s) for a, s in zip(g.params.entangling, factors))
            row.append(replace(g, params=replace(g.params, entangling=ent)))
        layers.append(tuple(row))
    return replace(circuit, layers=tuple(layers))
