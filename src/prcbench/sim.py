"""Exact dense statevector simulation: circuit execution, distributions,
sampling, and the analytic (adjoint reverse-sweep) gradient of the peak
probability with respect to the peaking-half parameters.

Qubit 0 is the least significant bit of every amplitude index.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit
from .errors import CapacityError
from .gates import (
    PARAMS_PER_GATE,
    XX,
    YY,
    ZZ,
    GateParams,
    entangling_core,
    ry_matrix,
    rz_matrix,
    su2_from_zyz,
)

MAX_QUBITS = 26  # memory guard: 2**26 complex amplitudes = 1 GiB

_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_MHY = -0.5j * _Y2  # d/dtheta generator of Ry
_MHZ = -0.5j * _Z2  # d/dtheta generator of Rz


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


def _check_capacity(n: int) -> None:
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit memory guard")


def run(circuit: Circuit) -> Statevector:
    """C|0^n> with every gate applied as its 4x4 unitary, layers in order."""
    _check_capacity(circuit.n)
    state = np.zeros(1 << circuit.n, dtype=complex)
    state[0] = 1.0
    for g in circuit.placements():
        state = apply_gate_matrix(state, g.params.matrix(), g.qubit_low, circuit.n)
    for q in circuit.final_x:
        state = _apply_x(state, q)
    return Statevector(state, circuit.n)


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


def _zyz_triple_derivs(triple, u: np.ndarray) -> np.ndarray:
    rz0 = rz_matrix(triple[0])
    ry1 = ry_matrix(triple[1])
    rz2 = rz_matrix(triple[2])
    return np.stack((u @ _MHZ, rz2 @ _MHY @ ry1 @ rz0, _MHZ @ u))


def _kron_right(a: np.ndarray, b_stack: np.ndarray) -> np.ndarray:
    """kron(a, b) for a single 2x2 and a stack of 2x2s."""
    return np.einsum("ab,jcd->jacbd", a, b_stack).reshape(-1, 4, 4)


def _kron_left(a_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("jab,cd->jacbd", a_stack, b).reshape(-1, 4, 4)


def _gate_derivatives(p: GateParams) -> np.ndarray:
    """dU/dtheta for all 16 parameters as a (16, 4, 4) stack, in
    to_vector() order."""
    q_lo = su2_from_zyz(p.pre[0:3])
    q_hi = su2_from_zyz(p.pre[3:6])
    p_lo = su2_from_zyz(p.post[0:3])
    p_hi = su2_from_zyz(p.post[3:6])
    core = entangling_core(*p.entangling)
    phase = np.exp(1j * p.phase)
    pre = np.kron(q_hi, q_lo)
    post = np.kron(p_hi, p_lo)

    left = phase * (post @ core)  # left @ d(pre)
    right = core @ pre  # phase * d(post) @ right

    out = np.empty((PARAMS_PER_GATE, 4, 4), dtype=complex)
    out[0:3] = left @ _kron_right(q_hi, _zyz_triple_derivs(p.pre[0:3], q_lo))
    out[3:6] = left @ _kron_left(_zyz_triple_derivs(p.pre[3:6], q_hi), q_lo)
    sigmas = np.stack((XX @ core, YY @ core, ZZ @ core))
    out[6:9] = (phase * post) @ (1j * sigmas) @ pre
    out[9:12] = phase * (_kron_right(p_hi, _zyz_triple_derivs(p.post[0:3], p_lo)) @ right)
    out[12:15] = phase * (_kron_left(_zyz_triple_derivs(p.post[3:6], p_hi), p_lo) @ right)
    out[15] = 1j * (left @ pre)
    return out


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
        _check_capacity(circuit.n)
        self.n = circuit.n
        self.target_index = circuit.target.index
        self.final_x = circuit.final_x
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        state = np.zeros(1 << circuit.n, dtype=complex)
        state[0] = 1.0
        for layer in circuit.layers[: circuit.random_depth]:
            for g in layer:
                state = apply_gate_matrix(state, g.params.matrix(), g.qubit_low, circuit.n)
        self._psi_random = state

    def _params(self, vec: np.ndarray) -> list[GateParams]:
        if len(vec) != self.num_params:
            raise ValueError("parameter vector length does not match the peaking half")
        return [
            GateParams.from_vector(vec[i * PARAMS_PER_GATE : (i + 1) * PARAMS_PER_GATE])
            for i in range(len(self.positions))
        ]

    def value(self, vec: np.ndarray) -> float:
        k = self._psi_random.copy()
        for p, q in zip(self._params(vec), self.positions):
            k = apply_gate_matrix(k, p.matrix(), q, self.n)
        for q in self.final_x:
            k = _apply_x(k, q)
        return float(np.abs(k[self.target_index]) ** 2)

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        params = self._params(vec)
        mats = [p.matrix() for p in params]
        k = self._psi_random.copy()
        for u, q in zip(mats, self.positions):
            k = apply_gate_matrix(k, u, q, self.n)
        psi = k
        for q in self.final_x:
            psi = _apply_x(psi, q)
        amp = psi[self.target_index]
        p_val = float(np.abs(amp) ** 2)
        if not self.positions:
            return p_val, np.zeros(0)

        # Bra side starts from |s><s| psi with the trailing NOTs peeled off;
        # the ket is already the pre-NOT state.
        b = np.zeros_like(psi)
        b[self.target_index] = amp
        for q in reversed(self.final_x):
            b = _apply_x(b, q)

        grads = np.zeros(self.num_params)
        for idx in range(len(self.positions) - 1, -1, -1):
            q = self.positions[idx]
            ud = mats[idx].conj().T
            k = apply_gate_matrix(k, ud, q, self.n)
            env = _pair_environment(b, k, q, self.n)
            derivs = _gate_derivatives(params[idx])
            base = idx * PARAMS_PER_GATE
            grads[base : base + PARAMS_PER_GATE] = 2.0 * np.real(
                np.einsum("ij,mij->m", env, derivs)
            )
            b = apply_gate_matrix(b, ud, q, self.n)
        return p_val, grads


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    peaking = list(circuit.peaking_placements())
    obj = PeakObjective(circuit)
    if not peaking:
        return obj.value(np.zeros(0)), np.zeros(0)
    vec = np.concatenate([g.params.to_vector() for g in peaking])
    return obj.value_and_gradient(vec)


def peak_gradient(circuit: Circuit) -> np.ndarray:
    return peak_value_and_gradient(circuit)[1]
