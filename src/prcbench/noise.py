"""Simulated-hardware noise: global depolarizing, readout bit flips, and
coherent over-rotation of the entangling angles.

Channels compose in a fixed order per run: coherent perturbation of the
circuit, then the depolarizing mixture of the exact distribution, then
per-shot readout flips.  The sampled readout channel draws the gaps between
flipped bits rather than one uniform per bit (readout_flip), so its cost
grows with eps * n per shot; sim.NUMERICS names that stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .circuits import Circuit, _layout, _place
from .errors import check_fields, read_fields
from .gates import GateParams
from .sim import ProbabilityDistribution, ShotHistogram

_MAX_GAP_BATCH = 1 << 16  # 512 KiB of int64 gaps per draw


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
        check_fields(self)
        for name in ("p1", "p2", "readout_eps"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.coherent_delta < 0.0:
            raise ValueError(f"coherent_delta must be non-negative, got {self.coherent_delta}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "NoiseSpec":
        return read_fields(cls, doc, "")


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

    Shots are laid out in ascending outcome order, and bit b of shot s is
    slot s * n + b of one Bernoulli(eps) process over the shots x n grid.
    The gaps between flipped slots are i.i.d. geometric(eps), drawn in
    batches of _gap_batch(r, eps) for the r slots not yet covered until one
    reaches past the last slot, so the result depends on the rng state alone;
    the batch size only sets how far past the end the last batch draws.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 0.0:
        return hist
    n = hist.n
    shots = np.repeat(hist.outcomes, hist.tallies)
    slots = len(shots) * n
    last = -1  # the slot the gaps drawn so far reach
    while last < slots - 1:
        r = slots - 1 - last
        # A gap beyond r lands past the end whatever its size; clipping it
        # there keeps the sum from overflowing when eps is tiny and
        # rng.geometric returns INT64_MAX.
        reach = last + np.minimum(rng.geometric(eps, _gap_batch(r, eps)), r + 1).cumsum()
        shot, bit = np.divmod(reach[: reach.searchsorted(slots)], n)
        # Slots ascend, so each shot's flipped bits form one run.
        starts = np.flatnonzero(np.diff(shot, prepend=-1))
        shots[shot[starts]] ^= np.add.reduceat(np.left_shift(1, bit), starts)
        last = int(reach[-1])
    values, counts = np.unique(shots, return_counts=True)
    return ShotHistogram(n, values, counts)


def _gap_batch(r: int, eps: float) -> int:
    """Gaps to draw for r uncovered slots: their mean count r * eps of flips,
    six standard deviations and 16 more, so one batch nearly always
    suffices, but at most _MAX_GAP_BATCH, so that a large eps costs
    memory in proportion to the shots, not to the flips."""
    mean = r * eps
    return min(int(mean + 6 * math.sqrt(mean) + 16), _MAX_GAP_BATCH)


def readout_confusion(dist: ProbabilityDistribution, eps: float) -> ProbabilityDistribution:
    """Exact (infinite-shot) readout channel: convolve the distribution with
    the independent per-bit flip kernel, one qubit at a time."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 0.0:
        return dist
    probs = dist.probs
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
    # One (G, 3) draw takes the same normals, in placement order, as G
    # draws of 3 would.
    factors = (1.0 + delta * rng.standard_normal((circuit.num_placements(), 3))).tolist()
    params = (
        GateParams(g.params.pre, tuple(float(a * s) for a, s in zip(g.params.entangling, f)),
                   g.params.post, g.params.phase)
        for g, f in zip(circuit.placements(), factors)
    )
    return replace(circuit, layers=_place(_layout(circuit.layers), params))
