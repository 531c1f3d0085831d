"""Exact dense statevector simulation: circuit execution, distributions,
sampling, and the analytic (adjoint reverse-sweep) gradient of the peak
probability with respect to the peaking-half parameters.

Qubit 0 is the least significant bit of every amplitude index.  Layers run
as a list of ops (after Haener & Steiger, arXiv:1704.01127, and qsim's
fuser, arXiv:2111.02396): on states of at least 2**10 amplitudes, a gate at
qubit_low q and the next gate of its layer at q + 2 form one 16x16 block,
kron(u_high, u_low), on qubits q..q + 3; every other gate is a 4x4 op.  An
op of width d at q sees the state as a stack of (d, 2**q) blocks, and the
kernels pick a layout by position:

- d * 2**q <= 32 on a state of at least 64 rows of d * 2**q amplitudes:
  the blocks are too short for a matmul per block, so the state is read as
  those rows and multiplied by kron(u, I_(2**q)).T in one GEMM;
- anywhere else: np.matmul(u, blocks).

The gradient's environment follows the same split: one (d * 2**q)-square
GEMM over the rows and a trace over the inner index, else a batched matmul
summed over blocks, and one einsum on states below 2**10 amplitudes.  A
block's 16x16 environment gives each of its gates' 4x4 environments by a
contraction with the other gate.  Both kernels write into buffers the
caller owns where they can: ``run`` ping-pongs between the zero state and
one more vector, and ``PeakObjective`` keeps two ket and two bra buffers
across evaluations.  Its working set is five state vectors, which sets
MAX_QUBITS.  NUMERICS names these kernels' rounding and the optimizer's
path; it changes whenever either changes a result in the last bit.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit, peaking_rows, peaking_vector
from .errors import CapacityError, SchemaError
from .gates import PARAMS_PER_GATE, _kron, gate_matrices

# Version of the simulator's and optimizer's floating-point results.
# 1: every gate applied by one einsum; 2: the position-aware kernels below;
# 3: the same kernels as 2, with stage 1 on prcbench's own L-BFGS
# (optimize._lbfgs) instead of scipy's L-BFGS-B; 4: as 3, with side-by-side
# gates of a layer fused into 16x16 blocks on states of at least 2**10
# amplitudes.  Suite manifests and matrix provenance record it; documents
# without it are numerics 1.
NUMERICS = 4

# Memory guard.  A gradient evaluation holds five state vectors (the random
# half's output, two ket and two bra buffers): 5 * 2**24 * 16 B = 1.25 GiB.
MAX_QUBITS = 24

# Kernel cut-overs, measured per call on one BLAS thread.  For an op of
# width d at qubit_low q, the kron(u, I) GEMM and the environment GEMM cost
# d * 2**q multiply-adds per amplitude, which pays only for short blocks
# (d * 2**q <= 32) on states with at least 64 rows of d * 2**q amplitudes.
# Below 2**10 amplitudes per-call overhead decides: the environment is one
# einsum, and gates are not fused, since a block costs more to build than
# the pass it saves.
_GEMM_MAX_WIDTH = 32
_GEMM_MIN_ROWS = 64
_EINSUM_MAX_AMPLITUDES = 1 << 10
_EYES = [np.eye(1 << q) for q in range(4)]  # I_(2**q) at every GEMM position


def read_numerics(value, path: str) -> int:
    """A persisted numerics version, read as a field; a version this code
    does not know raises SchemaError naming ``path``."""
    if type(value) is not int or not 1 <= value <= NUMERICS:
        raise SchemaError(f"{path}: {value!r} is not a numerics version 1..{NUMERICS}")
    return value


def _use_gemm(size: int, width: int) -> bool:
    """Whether an op whose (d, 2**qubit_low) blocks hold ``width``
    amplitudes runs as one GEMM over rows of that many amplitudes."""
    return width <= _GEMM_MAX_WIDTH and size >= _GEMM_MIN_ROWS * width


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
    """Apply an op to a flat state, writing into ``out`` (a new array if
    None), which must not overlap ``state``: a 4x4 gate on (qubit_low,
    qubit_low + 1), or a 16x16 block on qubit_low..qubit_low + 3.

    The op's d = len(u) amplitudes per index are contiguous bits, so the
    state is a stack of (d, 2**qubit_low) blocks with the low qubit least
    significant.  Near the bottom of a large state those blocks are short,
    so the state is read as rows of d * 2**qubit_low amplitudes and
    multiplied by kron(u, I).T in one GEMM; elsewhere u multiplies every
    block.
    """
    d, inner = len(u), 1 << qubit_low
    if out is None:
        out = np.empty_like(state)
    width = d * inner
    if _use_gemm(state.size, width):
        # kron(u, I).T = kron(u.T, I): [(j, b'), (i, b)] = u[i, j] * (b == b').
        np.matmul(state.reshape(-1, width), _kron(u.T, _EYES[qubit_low]), out=out.reshape(-1, width))
    else:
        np.matmul(u, state.reshape(-1, d, inner), out=out.reshape(-1, d, inner))
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


class OpList:
    """How some layers run on n qubits: a list of ops, each one gate or a
    block of two.

    On states of at least _EINSUM_MAX_AMPLITUDES amplitudes, a gate and the
    next gate of its layer two qubits up form a block, kron(high, low), on
    the low gate's qubit_low; every other gate is an op of its own.  Gates
    are numbered in placement order.  ``gates[i]`` holds op i's gate
    numbers, low gate first, and ``qubits[i]`` its qubit_low.
    """

    def __init__(self, layers, n: int) -> None:
        fuse = 1 << n >= _EINSUM_MAX_AMPLITUDES
        self.gates: list[tuple[int, ...]] = []
        self.qubits: list[int] = []
        start = 0
        for layer in layers:
            i = 0
            while i < len(layer):
                q = layer[i].qubit_low
                width = 2 if fuse and i + 1 < len(layer) and layer[i + 1].qubit_low == q + 2 else 1
                self.gates.append(tuple(range(start + i, start + i + width)))
                self.qubits.append(q)
                i += width
            start += len(layer)
        self.num_gates = start
        blocks = [g for g in self.gates if len(g) == 2]
        self._low = np.array([g[0] for g in blocks], dtype=int)
        self._high = np.array([g[1] for g in blocks], dtype=int)

    def matrices(self, mats: np.ndarray) -> Iterator[np.ndarray]:
        """Each op's matrix in order, from the (G, 4, 4) stack of gate
        unitaries; a block is built only when it is reached."""
        for g in self.gates:
            yield mats[g[0]] if len(g) == 1 else _kron(mats[g[1]], mats[g[0]])

    def gate_environments(self, op_envs, mats: np.ndarray) -> np.ndarray:
        """The (G, 4, 4) gate environments from each op's environment.

        Read a block's environment as E[i_high, i_low, j_high, j_low].
        Since <b|kron(u_high, du_low)|k> = sum E * u_high * du_low, the low
        gate's environment is E contracted with u_high over the high
        indices, and the high gate's is E contracted with u_low over the
        low ones.
        """
        envs = np.empty((self.num_gates, 4, 4), dtype=complex)
        blocks = []
        for g, env in zip(self.gates, op_envs):
            if len(g) == 1:
                envs[g[0]] = env
            else:
                blocks.append(env)
        if blocks:
            blocks = np.reshape(blocks, (-1, 4, 4, 4, 4))
            envs[self._low] = np.einsum("bhk,bhlkm->blm", mats[self._high], blocks)
            envs[self._high] = np.einsum("blm,bhlkm->bhk", mats[self._low], blocks)
        return envs


def _apply_ops(state: np.ndarray, matrices, qubits, n: int, buffers) -> np.ndarray:
    """Apply ops in order, op i writing into buffers[i % 2]; state must not
    be buffers[0].  Returns the final state, which is state itself when
    there are no ops."""
    for i, (u, q) in enumerate(zip(matrices, qubits)):
        state = apply_gate_matrix(state, u, q, n, out=buffers[i % 2])
    return state


def _run_layers(layers, n: int) -> np.ndarray:
    """The layers applied to |0^n> as one OpList, ping-ponging between the
    zero state and one more vector."""
    ops = OpList(layers, n)
    rows = np.array([g.params.to_vector() for layer in layers for g in layer])
    mats = gate_matrices(rows.reshape(-1, PARAMS_PER_GATE))
    zero = _zero_state(n)
    return _apply_ops(zero, ops.matrices(mats), ops.qubits, n, (np.empty_like(zero), zero))


def _apply_final_x(state: np.ndarray, final_x) -> np.ndarray:
    for q in final_x:
        state = _apply_x(state, q)
    return state


def run(circuit: Circuit) -> Statevector:
    """C|0^n>, layers in order, each gate applied as its 4x4 unitary or
    within a 16x16 block (see OpList)."""
    state = _run_layers(circuit.layers, circuit.n)
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


def _pair_environment(
    bc: np.ndarray, k: np.ndarray, qubit_low: int, n: int, d: int = 4
) -> np.ndarray:
    """env[i, j] = sum_rest bc_(rest, i) k_(rest, j) over the d amplitudes
    of an op at qubit_low (d = 4 for a gate, 16 for a block), for a bra held
    conjugated, bc = conj(b), so <b|A|k> = sum_ij A[i, j] env[i, j] for any
    operator A on those qubits."""
    inner = 1 << qubit_low
    width = d * inner
    if bc.size < _EINSUM_MAX_AMPLITUDES:
        return np.einsum("aib,ajb->ij", bc.reshape(-1, d, inner), k.reshape(-1, d, inner))
    if _use_gemm(bc.size, width):
        # One width-square GEMM over the rows, then the trace over the
        # inner index pairs up b and k at equal positions.
        m = bc.reshape(-1, width).T @ k.reshape(-1, width)
        return np.trace(m.reshape(d, inner, d, inner), axis1=1, axis2=3)
    # A batched matmul over the blocks, summed.  Its products hold d * d
    # entries per block, so they are summed in chunks that keep that
    # scratch within a quarter of the state (one chunk for a gate from
    # qubit_low 4 up).
    bc3, k3 = bc.reshape(-1, d, inner), k.reshape(-1, d, inner).transpose(0, 2, 1)
    step = max(1, bc.size // (4 * d * d))
    parts = [np.matmul(bc3[i : i + step], k3[i : i + step]).sum(0) for i in range(0, len(bc3), step)]
    return parts[0] if len(parts) == 1 else np.sum(parts, axis=0)


class PeakObjective:
    """Peak probability and exact gradient as a function of the flat
    peaking-parameter vector.

    The random half never changes during optimization, so its output state
    is computed once and kept read-only; each evaluation replays only the
    peaking half's ops forward and runs the adjoint reverse sweep over them
    (one bra and one ket vector; per op, two applications and one
    environment contraction, 16x16 for a block and 4x4 for a lone gate).
    The kets and bras ping-pong between buffers the objective owns, so one
    object must not evaluate in two threads at once.
    """

    def __init__(self, circuit: Circuit):
        self.n = circuit.n
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        self.ops = OpList(circuit.layers[circuit.random_depth :], circuit.n)
        self._psi_random = _run_layers(circuit.layers[: circuit.random_depth], circuit.n)
        self._psi_random.flags.writeable = False
        # The trailing NOTs only permute amplitudes: <s|X psi> = psi[s ^ mask].
        self._pre_x_index = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
        self._kets = np.empty((2, 1 << self.n), dtype=complex)
        self._bras = np.empty((2, 1 << self.n), dtype=complex)

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        rows = peaking_rows(vec, len(self.positions))
        mats, derivs = gate_matrices(rows, derivatives=True)
        matrices, qubits = list(self.ops.matrices(mats)), self.ops.qubits
        k = _apply_ops(self._psi_random, matrices, qubits, self.n, self._kets)
        amp = k[self._pre_x_index]
        p_val = float(np.abs(amp) ** 2)
        if not matrices:
            return p_val, np.zeros(0)

        # Bra side starts from |s><s| psi with the trailing NOTs peeled off
        # (they commute, so order does not matter); the ket is already the
        # pre-NOT state.  The bra is held conjugated, so it moves back
        # through an op u by conj(u^dag) = u.T; conjugation only flips
        # signs, so every result keeps the bits of an unconjugated sweep.
        bc, spare_b = self._bras
        bc.fill(0)
        bc[self._pre_x_index] = amp.conjugate()
        spare_k = self._kets[len(matrices) % 2]

        # The sweep only moves the bra and the ket back through each op and
        # records the op's environment there; dp/dtheta = 2 Re <b|dU|k> is
        # then one contraction over all gates.
        op_envs = [None] * len(matrices)
        for idx in range(len(matrices) - 1, -1, -1):
            q, u = qubits[idx], matrices[idx]
            k, spare_k = apply_gate_matrix(k, u.conj().T, q, self.n, out=spare_k), k
            op_envs[idx] = _pair_environment(bc, k, q, self.n, len(u))
            bc, spare_b = apply_gate_matrix(bc, u.T, q, self.n, out=spare_b), bc
        envs = self.ops.gate_environments(op_envs, mats)
        return p_val, 2.0 * np.real(np.einsum("gij,gmij->gm", envs, derivs)).reshape(-1)


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    return PeakObjective(circuit).value_and_gradient(peaking_vector(circuit))


def peak_gradient(circuit: Circuit) -> np.ndarray:
    return peak_value_and_gradient(circuit)[1]
