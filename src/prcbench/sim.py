"""Exact dense statevector simulation: circuit execution, distributions,
sampling, and the analytic (adjoint reverse-sweep) gradient of the peak
probability with respect to the peaking-half parameters.

Qubit 0 is the least significant bit of every amplitude index, so a gate on
(q, q + 1) sees the state as a stack of (4, 2**q) blocks.  The pair kernel
picks a layout by position (after Haener & Steiger, arXiv:1704.01127, and
qsim, arXiv:2111.02396):

- q <= 3 on a state of at least 64 rows of 4 * 2**q amplitudes: the blocks
  are too short for a matmul per block, so the state is read as those rows
  and multiplied by kron(u, I_(2**q)).T in one GEMM;
- anywhere else: np.matmul(u, blocks).

The gradient's pair environment follows the same split: one
(4 * 2**q)-square GEMM over the rows and a trace over the inner index, else
a batched matmul summed over blocks, and one einsum on states below 2**10
amplitudes.  Both write into buffers the caller owns where it can:
``run`` ping-pongs between the zero state and one more vector, and
``PeakObjective`` keeps two ket and two bra buffers across evaluations.
Its working set is five state vectors, which sets MAX_QUBITS.  NUMERICS
names these kernels' rounding and the optimizer's path; it changes
whenever either changes a result in the last bit.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit, peaking_rows, peaking_vector
from .errors import CapacityError, SchemaError
from .gates import PARAMS_PER_GATE, gate_matrices

# Version of the simulator's and optimizer's floating-point results.
# 1: every gate applied by one einsum; 2: the position-aware kernels below;
# 3: the same kernels as 2, with stage 1 on prcbench's own L-BFGS
# (optimize._lbfgs) instead of scipy's L-BFGS-B.  Suite manifests and matrix
# provenance record it; documents without it are numerics 1.
NUMERICS = 3

# Memory guard.  A gradient evaluation holds five state vectors (the random
# half's output, two ket and two bra buffers): 5 * 2**24 * 16 B = 1.25 GiB.
MAX_QUBITS = 24

# Kernel cut-overs, measured per call on one BLAS thread.  The kron(u, I)
# GEMM and the environment GEMM cost 4 * 2**qubit_low multiply-adds per
# amplitude, which pays only for short blocks (qubit_low <= 3) on states
# with at least 64 rows of 4 * 2**qubit_low amplitudes.  Below 2**10
# amplitudes the environment's per-call overhead decides, where one einsum
# is cheapest.
_GEMM_MAX_QUBIT = 3
_GEMM_MIN_ROWS = 64
_EINSUM_MAX_AMPLITUDES = 1 << 10
_EYES = [np.eye(1 << q) for q in range(_GEMM_MAX_QUBIT + 1)]


def read_numerics(value, path: str) -> int:
    """A persisted numerics version, read as a field; a version this code
    does not know raises SchemaError naming ``path``."""
    if type(value) is not int or not 1 <= value <= NUMERICS:
        raise SchemaError(f"{path}: {value!r} is not a numerics version 1..{NUMERICS}")
    return value


def _use_gemm(size: int, qubit_low: int) -> bool:
    return qubit_low <= _GEMM_MAX_QUBIT and size >= _GEMM_MIN_ROWS * (4 << qubit_low)


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


def apply_gate_matrix(
    state: np.ndarray, u: np.ndarray, qubit_low: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a 4x4 unitary on (qubit_low, qubit_low + 1) to a flat state,
    writing into ``out`` (a new array if None), which must not overlap
    ``state``.

    The pair's bits are contiguous in the index, so the state is a stack of
    (4, 2**qubit_low) blocks with the low qubit least significant.  Near
    the bottom of a large state those blocks are short, so the state is
    read as rows of 4 * 2**qubit_low amplitudes and multiplied by
    kron(u, I).T in one GEMM; elsewhere u multiplies every block.
    """
    inner = 1 << qubit_low
    if out is None:
        out = np.empty_like(state)
    if _use_gemm(state.size, qubit_low):
        width = 4 * inner
        # kron(u, I).T without np.kron: [(j, b'), (i, b)] = u[i, j] * (b == b').
        kron_t = (u.T[:, None, :, None] * _EYES[qubit_low][None, :, None, :]).reshape(width, width)
        np.matmul(state.reshape(-1, width), kron_t, out=out.reshape(-1, width))
    else:
        np.matmul(u, state.reshape(-1, 4, inner), out=out.reshape(-1, 4, inner))
    return out


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


def _apply_gates(state: np.ndarray, gates, n: int, buffers) -> np.ndarray:
    """Apply (4x4 unitary, qubit_low) pairs in order, gate i writing into
    buffers[i % 2]; state must not be buffers[0].  Returns the final
    state, which is state itself when there are no gates."""
    for i, (u, q) in enumerate(gates):
        state = apply_gate_matrix(state, u, q, n, out=buffers[i % 2])
    return state


def _placed_unitaries(placements) -> list[tuple[np.ndarray, int]]:
    """(4x4 unitary, qubit_low) for each placement, built in one batch."""
    placements = list(placements)
    rows = np.array([g.params.to_vector() for g in placements]).reshape(-1, PARAMS_PER_GATE)
    return list(zip(gate_matrices(rows), (g.qubit_low for g in placements)))


def _run_from_zero(gates, n: int) -> np.ndarray:
    """The gates applied to |0^n>, ping-ponging between the zero state and
    one more vector."""
    zero = _zero_state(n)
    return _apply_gates(zero, gates, n, (np.empty_like(zero), zero))


def _apply_final_x(state: np.ndarray, final_x) -> np.ndarray:
    for q in final_x:
        state = _apply_x(state, q)
    return state


def run(circuit: Circuit) -> Statevector:
    """C|0^n> with every gate applied as its 4x4 unitary, layers in order."""
    state = _run_from_zero(_placed_unitaries(circuit.placements()), circuit.n)
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


def _pair_environment(bc: np.ndarray, k: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    """env[i, j] = sum_rest bc_(rest, i) k_(rest, j) over the gate pair, for
    a bra held conjugated, bc = conj(b), so <b|A|k> = sum_ij A[i, j] env[i, j]
    for any pair operator A."""
    inner = 1 << qubit_low
    if bc.size < _EINSUM_MAX_AMPLITUDES:
        return np.einsum("aib,ajb->ij", bc.reshape(-1, 4, inner), k.reshape(-1, 4, inner))
    if _use_gemm(bc.size, qubit_low):
        # One (4 * inner)-square GEMM over the rows, then the trace over the
        # inner index pairs up b and k at equal positions.
        width = 4 * inner
        m = bc.reshape(-1, width).T @ k.reshape(-1, width)
        return np.trace(m.reshape(4, inner, 4, inner), axis1=1, axis2=3)
    return np.matmul(bc.reshape(-1, 4, inner), k.reshape(-1, 4, inner).transpose(0, 2, 1)).sum(0)


class PeakObjective:
    """Peak probability and exact gradient as a function of the flat
    peaking-parameter vector.

    The random half never changes during optimization, so its output state
    is computed once and kept read-only; each evaluation replays only the
    peaking half forward and runs the adjoint reverse sweep over it (one
    bra and one ket vector, two gate applications and a 4x4 environment
    contraction per gate).  The kets and bras ping-pong between buffers the
    objective owns, so one object must not evaluate in two threads at once.
    """

    def __init__(self, circuit: Circuit):
        self.n = circuit.n
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        random_half = (g for layer in circuit.layers[: circuit.random_depth] for g in layer)
        self._psi_random = _run_from_zero(_placed_unitaries(random_half), circuit.n)
        self._psi_random.flags.writeable = False
        # The trailing NOTs only permute amplitudes: <s|X psi> = psi[s ^ mask].
        self._pre_x_index = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
        self._kets = np.empty((2, 1 << self.n), dtype=complex)
        self._bras = np.empty((2, 1 << self.n), dtype=complex)

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        rows = peaking_rows(vec, len(self.positions))
        mats, derivs = gate_matrices(rows, derivatives=True)
        k = _apply_gates(self._psi_random, zip(mats, self.positions), self.n, self._kets)
        amp = k[self._pre_x_index]
        p_val = float(np.abs(amp) ** 2)
        if not self.positions:
            return p_val, np.zeros(0)

        # Bra side starts from |s><s| psi with the trailing NOTs peeled off
        # (they commute, so order does not matter); the ket is already the
        # pre-NOT state.  The bra is held conjugated, so it moves back
        # through a gate u by conj(u^dag) = u.T; conjugation only flips
        # signs, so every result keeps the bits of an unconjugated sweep.
        bc, spare_b = self._bras
        bc.fill(0)
        bc[self._pre_x_index] = amp.conjugate()
        spare_k = self._kets[len(self.positions) % 2]

        # The sweep only moves the bra and the ket back through each gate
        # and records the pair environment there; dp/dtheta = 2 Re <b|dU|k>
        # is then one contraction over all gates.
        envs = np.empty((len(self.positions), 4, 4), dtype=complex)
        for idx in range(len(self.positions) - 1, -1, -1):
            q, u = self.positions[idx], mats[idx]
            k, spare_k = apply_gate_matrix(k, u.conj().T, q, self.n, out=spare_k), k
            envs[idx] = _pair_environment(bc, k, q, self.n)
            bc, spare_b = apply_gate_matrix(bc, u.T, q, self.n, out=spare_b), bc
        return p_val, 2.0 * np.real(np.einsum("gij,gmij->gm", envs, derivs)).reshape(-1)


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    return PeakObjective(circuit).value_and_gradient(peaking_vector(circuit))


def peak_gradient(circuit: Circuit) -> np.ndarray:
    return peak_value_and_gradient(circuit)[1]
