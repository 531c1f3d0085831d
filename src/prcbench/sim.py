"""Exact dense statevector simulation: circuit execution, distributions,
sampling, and the analytic (adjoint reverse-sweep) gradient of the peak
probability with respect to the peaking-half parameters.

Qubit 0 is the least significant bit of every amplitude index.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit, peaking_rows, peaking_vector
from .errors import CapacityError
from .gates import PARAMS_PER_GATE, gate_matrices

MAX_QUBITS = 26  # memory guard: 2**26 complex amplitudes = 1 GiB


@dataclass(frozen=True)
class Statevector:
    amplitudes: np.ndarray
    n: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class ProbabilityDistribution:
    probs: np.ndarray
    n: int

    def total(self) -> float:
        return float(self.probs.sum())


class ShotHistogram:
    """Sampled outcome counts as two aligned int64 arrays: the distinct basis
    indices in ascending order (`outcomes`) and how often each was seen
    (`tallies`).  `counts` offers the same data as a read-only mapping."""

    __slots__ = ("n", "outcomes", "tallies", "shots")

    def __init__(self, n: int, counts: Mapping[int, int]) -> None:
        items = sorted(counts.items())
        self._init(
            n,
            np.array([idx for idx, _ in items], dtype=np.int64),
            np.array([c for _, c in items], dtype=np.int64),
        )

    @classmethod
    def from_arrays(cls, n: int, outcomes: np.ndarray, tallies: np.ndarray) -> "ShotHistogram":
        """Wrap distinct ascending outcomes and their tallies, e.g. the two
        arrays `np.unique(..., return_counts=True)` returns."""
        hist = cls.__new__(cls)
        hist._init(n, np.asarray(outcomes, dtype=np.int64), np.asarray(tallies, dtype=np.int64))
        return hist

    def _init(self, n: int, outcomes: np.ndarray, tallies: np.ndarray) -> None:
        self.n = n
        self.outcomes = outcomes
        self.tallies = tallies
        self.shots = int(tallies.sum())

    @property
    def counts(self) -> Mapping[int, int]:
        return _CountsView(self)

    def position(self, idx: int) -> int | None:
        """Array position of basis index idx, or None if it was never seen."""
        i = int(np.searchsorted(self.outcomes, idx))
        return i if i < len(self.outcomes) and self.outcomes[i] == idx else None

    def count(self, outcome: BitString | int) -> int:
        idx = outcome.index if isinstance(outcome, BitString) else int(outcome)
        i = self.position(idx)
        return 0 if i is None else int(self.tallies[i])

    def top(self, k: int) -> list[tuple[BitString, int]]:
        """k most frequent outcomes, ties broken by basis index."""
        if k < 0:
            raise ValueError("k must be non-negative")
        tallies = self.tallies
        # Only tallies at least as large as the k-th largest can rank; the
        # stable sort keeps tied candidates in ascending index order.
        candidates = np.arange(len(tallies))
        if 0 < k < len(tallies):
            kth = np.partition(tallies, len(tallies) - k)[len(tallies) - k]
            candidates = np.flatnonzero(tallies >= kth)
        ranked = candidates[np.argsort(-tallies[candidates], kind="stable")][:k]
        return [
            (BitString.from_index(int(self.outcomes[i]), self.n), int(tallies[i])) for i in ranked
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShotHistogram):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.tallies, other.tallies)
        )

    def __repr__(self) -> str:
        return f"ShotHistogram({self.n}, {dict(self.counts)!r})"


class _CountsView(Mapping):
    """{basis index: count} view of a ShotHistogram's arrays."""

    __slots__ = ("_hist",)

    def __init__(self, hist: ShotHistogram) -> None:
        self._hist = hist

    def __getitem__(self, idx: int) -> int:
        i = self._hist.position(idx)
        if i is None:
            raise KeyError(idx)
        return int(self._hist.tallies[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self._hist.outcomes.tolist())

    def __len__(self) -> int:
        return len(self._hist.outcomes)


def apply_gate_matrix(state: np.ndarray, u: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    """Apply a 4x4 unitary on (qubit_low, qubit_low + 1) to a flat state.

    The pair's bits are contiguous in the index, so a single reshape exposes
    them as one axis of length 4 with the low qubit least significant.
    """
    blocks = 1 << (n - qubit_low - 2)
    inner = 1 << qubit_low
    psi = state.reshape(blocks, 4, inner)
    return np.einsum("ij,ajb->aib", u, psi).reshape(-1)


def apply_single_qubit(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    psi = state.reshape(-1, 2, 1 << qubit)
    return np.einsum("ij,ajb->aib", u, psi).reshape(-1)


def _apply_x(state: np.ndarray, qubit: int) -> np.ndarray:
    psi = state.reshape(-1, 2, 1 << qubit)
    return np.ascontiguousarray(psi[:, ::-1, :]).reshape(-1)


def _zero_state(n: int) -> np.ndarray:
    """|0^n> as a flat amplitude vector, within the memory guard."""
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit memory guard")
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _apply_gates(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply (4x4 unitary, qubit_low) pairs in order."""
    for u, q in gates:
        state = apply_gate_matrix(state, u, q, n)
    return state


def _placed_unitaries(placements) -> list[tuple[np.ndarray, int]]:
    """(4x4 unitary, qubit_low) for each placement, built in one batch."""
    placements = list(placements)
    rows = np.array([g.params.to_vector() for g in placements]).reshape(-1, PARAMS_PER_GATE)
    return list(zip(gate_matrices(rows), (g.qubit_low for g in placements)))


def _apply_final_x(state: np.ndarray, final_x) -> np.ndarray:
    for q in final_x:
        state = _apply_x(state, q)
    return state


def run(circuit: Circuit) -> Statevector:
    """C|0^n> with every gate applied as its 4x4 unitary, layers in order."""
    gates = _placed_unitaries(circuit.placements())
    state = _apply_gates(_zero_state(circuit.n), gates, circuit.n)
    return Statevector(_apply_final_x(state, circuit.final_x), circuit.n)


def peak_amplitude(circuit: Circuit) -> complex:
    """<s|C|0^n> for the circuit's target bitstring s."""
    return complex(run(circuit).amplitudes[circuit.target.index])


def full_distribution(circuit: Circuit) -> ProbabilityDistribution:
    amps = run(circuit).amplitudes
    return ProbabilityDistribution(np.abs(amps) ** 2, circuit.n)


def sample(dist: ProbabilityDistribution, shots: int, rng: np.random.Generator) -> ShotHistogram:
    """shots i.i.d. draws from the distribution, deterministic per rng state."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = dist.probs / dist.probs.sum()  # absorb 1e-12 simulation drift
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    return ShotHistogram.from_arrays(dist.n, values, counts)


def _pair_environment(b: np.ndarray, k: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    """env[i, j] = sum_rest conj(b)_(rest, i) k_(rest, j) over the gate pair,
    so <b|A|k> = sum_ij A[i, j] env[i, j] for any pair operator A."""
    blocks = 1 << (n - qubit_low - 2)
    inner = 1 << qubit_low
    bm = b.reshape(blocks, 4, inner)
    km = k.reshape(blocks, 4, inner)
    return np.einsum("aib,ajb->ij", bm.conj(), km)


class PeakObjective:
    """Peak probability and exact gradient as a function of the flat
    peaking-parameter vector.

    The random half never changes during optimization, so its output state
    is computed once; each evaluation replays only the peaking half forward
    and runs the adjoint reverse sweep over it (one bra and one ket vector,
    two gate applications and a 4x4 environment contraction per gate).
    """

    def __init__(self, circuit: Circuit):
        self.n = circuit.n
        self.target_index = circuit.target.index
        self.final_x = circuit.final_x
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        random_half = (g for layer in circuit.layers[: circuit.random_depth] for g in layer)
        gates = _placed_unitaries(random_half)
        self._psi_random = _apply_gates(_zero_state(circuit.n), gates, circuit.n)

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        rows = peaking_rows(vec, len(self.positions))
        mats, derivs = gate_matrices(rows, derivatives=True)
        k = _apply_gates(self._psi_random, zip(mats, self.positions), self.n)
        psi = _apply_final_x(k, self.final_x)
        amp = psi[self.target_index]
        p_val = float(np.abs(amp) ** 2)
        if not self.positions:
            return p_val, np.zeros(0)

        # Bra side starts from |s><s| psi with the trailing NOTs peeled off
        # (they commute, so order does not matter); the ket is already the
        # pre-NOT state.
        b = np.zeros_like(psi)
        b[self.target_index] = amp
        b = _apply_final_x(b, self.final_x)

        # The sweep only moves the bra and the ket back through each gate
        # and records the pair environment there; dp/dtheta = 2 Re <b|dU|k>
        # is then one contraction over all gates.
        envs = np.empty((len(self.positions), 4, 4), dtype=complex)
        for idx in range(len(self.positions) - 1, -1, -1):
            q = self.positions[idx]
            ud = mats[idx].conj().T
            k = apply_gate_matrix(k, ud, q, self.n)
            envs[idx] = _pair_environment(b, k, q, self.n)
            b = apply_gate_matrix(b, ud, q, self.n)
        return p_val, 2.0 * np.real(np.einsum("gij,gmij->gm", envs, derivs)).reshape(-1)


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    return PeakObjective(circuit).value_and_gradient(peaking_vector(circuit))


def peak_gradient(circuit: Circuit) -> np.ndarray:
    return peak_value_and_gradient(circuit)[1]
