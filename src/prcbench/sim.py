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

The gradient's overlaps follow the same split: one (d * 2**q)-square GEMM
over the rows and a trace over the inner index, else a batched matmul
summed over blocks, and one einsum on states below 2**10 amplitudes.  A
block's 16x16 overlap gives each of its gates' 4x4 overlaps by a partial
trace, and gates.gate_gradients turns the gates' environments into the
gradient.

The gradient never applies the peaking half's last two layers: the
target bra is a product state until it meets a gate, and through two
layers of disjoint gates it stays a chain with at most one open wire of
dimension 2.  So the amplitude, both layers' environments and the bra
entering them come in closed form from the ket before them
(_closed_layers), by small GEMMs over shrinking views of that ket.  The
rest, the body, is swept layer by layer, each gate's environment taken at
a boundary of its layer (PeakObjective): 20 state passes per evaluation on
a (16, 10) cell's body of three 4-op layers, and none for a peaking half
of one or two layers.  Both kernels write into buffers the caller owns
where they can: ``run`` ping-pongs between the zero state and one more
vector, and ``PeakObjective`` keeps three ket and two bra buffers across
evaluations, and takes the closed form inside the bra buffers.  Its
working set is six state vectors, which sets MAX_QUBITS.  NUMERICS names
the rounding of these kernels, of the gate construction, gradient and KAK
decomposition in gates, and of the optimizer's path, and the random stream
of the sampled readout channel (noise.readout_flip); it changes whenever
any of them changes a result in the last bit or a sampled histogram.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit, peaking_rows, peaking_vector
from .errors import CapacityError, SchemaError
from .gates import PARAMS_PER_GATE, _kron, gate_factors, gate_gradients, gate_matrices

# Version of the simulator's and optimizer's floating-point results, as the
# module docstring defines them; README's "Conventions worth knowing" gives
# what each version changed.  Suite manifests and matrix provenance record
# it; documents without it are numerics 1.
NUMERICS = 10

# Memory guard.  A gradient evaluation holds six state vectors (the random
# half's output, three ket and two bra buffers): 6 * 2**24 * 16 B = 1.5 GiB.
MAX_QUBITS = 24
# Shot guard.  sample holds 8 B per shot beyond its CDF once shots outnumber
# outcomes (about 36 B per distinct draw below that), so 2**27 shots keep a
# rep near MAX_QUBITS' 1.5 GiB.  BenchConfig caps max_shots at it.
MAX_SHOTS = 2**27

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
class ProbabilityDistribution:
    probs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        shape = np.shape(self.probs)
        if shape != (2**self.n,):
            raise ValueError(f"probs has shape {shape}, not ({2**self.n},) for n = {self.n}")


class ShotHistogram(Mapping):
    """Sampled outcome counts as two aligned int64 arrays: the distinct basis
    indices in ascending order (`outcomes`) and how often each was seen
    (`tallies`), which must already be in that form (nothing is sorted or
    merged here).  It is a read-only mapping {basis index: count}."""

    __slots__ = ("n", "outcomes", "tallies", "shots")

    def __init__(self, n: int, outcomes, tallies) -> None:
        self.n = n
        self.outcomes = np.asarray(outcomes, dtype=np.int64)
        self.tallies = np.asarray(tallies, dtype=np.int64)
        self.shots = int(self.tallies.sum())

    @property
    def counts(self) -> Mapping[int, int]:
        """The histogram itself, under the name benchmarks/spans.py reads."""
        return self

    def __getitem__(self, idx: int) -> int:
        i = self.position(idx)
        if i is None:
            raise KeyError(idx)
        return int(self.tallies[i])

    def __iter__(self):
        return iter(self.outcomes.tolist())

    def __len__(self) -> int:
        return len(self.outcomes)

    def position(self, idx: int) -> int | None:
        """Array position of basis index idx, or None if it was never seen."""
        i = int(np.searchsorted(self.outcomes, idx))
        return i if i < len(self.outcomes) and self.outcomes[i] == idx else None

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
        # A histogram compares its arrays; any other mapping, its counts.
        if not isinstance(other, ShotHistogram):
            return super().__eq__(other)
        return (
            self.n == other.n
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.tallies, other.tallies)
        )

    def __repr__(self) -> str:
        return f"ShotHistogram({self.n}, {dict(self)!r})"


def apply_gate_matrix(
    state: np.ndarray, u: np.ndarray, qubit_low: int, out: np.ndarray | None = None
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
        self.layers: list[range] = []  # each layer's op numbers
        start = 0
        for layer in layers:
            first, i = len(self.gates), 0
            while i < len(layer):
                q = layer[i].qubit_low
                width = 2 if fuse and i + 1 < len(layer) and layer[i + 1].qubit_low == q + 2 else 1
                self.gates.append(tuple(range(start + i, start + i + width)))
                self.qubits.append(q)
                i += width
            start += len(layer)
            self.layers.append(range(first, len(self.gates)))
        blocks = [g for g in self.gates if len(g) == 2]
        self._low = np.array([g[0] for g in blocks], dtype=int)
        self._high = np.array([g[1] for g in blocks], dtype=int)

    def matrices(self, mats: np.ndarray) -> list[np.ndarray]:
        """Every op's matrix, in order, from the (G, 4, 4) stack of gate
        unitaries; the blocks are built by one stacked _kron."""
        kron = iter(_kron(mats[self._high], mats[self._low]) if len(self._low) else ())
        return [mats[g[0]] if len(g) == 1 else next(kron) for g in self.gates]

    def gate_overlaps(self, op_overlaps) -> np.ndarray:
        """The (G, 4, 4) overlaps of every op's gates (_pair_environment on
        each gate's two qubits), from each op's.

        Read a block's 16x16 overlap as Y[i_high, i_low, j_high, j_low].
        The other gate's qubits pair up like the rest of the state, so the
        low gate's overlap is the trace over the high indices and the high
        gate's the trace over the low ones.
        """
        overlaps = np.empty((len(self.gates) + len(self._low), 4, 4), dtype=complex)
        blocks = []
        for g, y in zip(self.gates, op_overlaps):
            if len(g) == 1:
                overlaps[g[0]] = y
            else:
                blocks.append(y)
        if blocks:
            blocks = np.reshape(blocks, (-1, 4, 4, 4, 4))
            overlaps[self._low] = np.einsum("bhlhm->blm", blocks)
            overlaps[self._high] = np.einsum("bhlkl->bhk", blocks)
        return overlaps


def _apply_ops(state: np.ndarray, matrices, qubits, buffers) -> np.ndarray:
    """Apply ops in order, op i writing into buffers[i % 2]; state must not
    be buffers[0].  Returns the final state, which is state itself when
    there are no ops."""
    for i, (u, q) in enumerate(zip(matrices, qubits)):
        state = apply_gate_matrix(state, u, q, out=buffers[i % 2])
    return state


def _run_layers(layers, n: int) -> np.ndarray:
    """The layers applied to |0^n> as one OpList, ping-ponging between the
    zero state and one more vector."""
    ops = OpList(layers, n)
    rows = np.array([g.params.to_vector() for layer in layers for g in layer])
    mats = gate_matrices(rows.reshape(-1, PARAMS_PER_GATE))
    zero = _zero_state(n)
    return _apply_ops(zero, ops.matrices(mats), ops.qubits, (np.empty_like(zero), zero))


def run(circuit: Circuit) -> np.ndarray:
    """C|0^n> as a flat amplitude vector: layers in order, each gate applied
    as its 4x4 unitary or within a 16x16 block (see OpList), then the
    trailing NOTs, which only permute amplitudes: (X psi)[i] = psi[i ^ mask]."""
    state = _run_layers(circuit.layers, circuit.n)
    mask = sum(1 << q for q in circuit.final_x)
    return state[np.arange(state.size) ^ mask] if mask else state


def peak_amplitude(circuit: Circuit) -> complex:
    """<s|C|0^n> for the circuit's target bitstring s."""
    return complex(run(circuit)[circuit.target.index])


def full_distribution(circuit: Circuit) -> ProbabilityDistribution:
    return ProbabilityDistribution(np.abs(run(circuit)) ** 2, circuit.n)


def sample(dist: ProbabilityDistribution, shots: int, rng: np.random.Generator) -> ShotHistogram:
    """shots i.i.d. draws from the distribution, deterministic per rng state.

    The draws are one `rng.random(shots)` call, sorted, read through the
    inverse CDF: a uniform u lands on the first outcome whose normalised
    cumulative probability exceeds u.  That is the stream and the rule
    `rng.choice(len(probs), shots, p=probs)` uses, so histograms and the
    generator state afterwards are the same as counting its draws.  With no
    more outcomes than shots, the sorted draws are counted at the CDF's
    edges instead (one binary search per outcome); otherwise each draw is
    looked up in the CDF and the sorted outcomes are run-length encoded.
    Both give the same histogram, and memory stays O(shots) beyond the
    CDF.  Negative or NaN probabilities, or a total that is not finite and
    positive, raise ValueError.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = dist.probs
    if not (probs >= 0).all():
        raise ValueError("probabilities must be non-negative and not NaN")
    total = probs.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"probabilities must have a finite, positive total, not {total}")
    cdf = np.cumsum(probs / total, dtype=np.float64)  # the division absorbs 1e-12 drift
    cdf /= cdf[-1]
    draws = rng.random(shots)
    draws.sort()
    if cdf.size <= shots:
        # Count at the CDF's edges: draws below cdf[i], less those below
        # cdf[i - 1], land on outcome i.
        tallies = np.diff(draws.searchsorted(cdf, side="left"), prepend=0)
        outcomes = np.flatnonzero(tallies)
        return ShotHistogram(dist.n, outcomes, tallies[outcomes])
    drawn = cdf.searchsorted(draws, side="right")
    starts = np.flatnonzero(np.diff(drawn, prepend=-1))
    return ShotHistogram(dist.n, drawn[starts], np.diff(starts, append=shots))


def _pair_environment(bc: np.ndarray, k: np.ndarray, qubit_low: int, d: int = 4) -> np.ndarray:
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


_UNITS = np.eye(2, dtype=complex)  # <0| and <1| on an idle qubit
_BASIS = [_UNITS[b].reshape(1, 2, 1) for b in (0, 1)]  # <b| as a bra factor
_WIRE = _UNITS.reshape(1, 2, 2)  # an L_b gate's top qubit, passed down as the open wire
_ENTRIES = np.eye(4, dtype=complex).reshape(4, 2, 2, 1)  # each entry of a row, as a bra factor


def _pair(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The bra factors of an L_a gate's two qubits as one matrix,
    P[(o, i), (a, b)] = sum_m top[i, a, m] bottom[m, b, o]."""
    return np.einsum("iam,mbo->oiab", top, bottom).reshape(-1, 4)


def _chain(first, last, target: int, n: int) -> list[tuple]:
    """The steps of _closed_layers for layers L_a and L_b with gates at
    qubit_lows ``first`` and ``last`` and the bitstring ``target``: L_a's
    gates and idle qubits from the top down, as (gate, row, pair, wire).

    <s|L_b is a chain of factors M[i, x, o] on qubit x, with wires i in and
    o out: <b| (1, 2, 1) on an idle qubit whose target bit is b; the
    identity (1, 2, 2) on an L_b gate's top qubit, passing its index down as
    the wire; and the gate's row r_j[(i, x)] (2, 2, 1) on its bottom qubit.
    ``gate`` is the L_a gate's number (-1 for an idle qubit) and ``row`` the
    j of the one row among the step's factors (-1 for none).  A gate's
    ``pair`` is its two factors as P (_pair), or with a row, the (4, P.size)
    map r_j -> P, and ``wire`` the dimension of o.  An idle qubit under the
    identity is no step, as the next step reads the wire as the top bit of
    its ket; one under <b| has ``pair`` <b| as (1, 2), a GEMM like a row's."""
    gates = {q + 1: a for a, q in enumerate(first)}
    tops = {q + 1 for q in last}
    bottoms = {q: j for j, q in enumerate(last)}

    def factor(q):
        return _WIRE if q in tops else bottoms.get(q, _BASIS[target >> q & 1])

    steps, q = [], n - 1
    while q >= 0:
        if q in gates:
            factors = factor(q), factor(q - 1)
            row = next((f for f in factors if isinstance(f, int)), -1)
            if row < 0:
                pair = _pair(*factors)
            else:
                entries = [[e if isinstance(f, int) else f for f in factors] for e in _ENTRIES]
                pair = np.array([_pair(*m).reshape(-1) for m in entries])
            steps.append((gates[q], row, pair, 2 if factors[1] is _WIRE else 1))
            q -= 2
            continue
        f = factor(q)
        if isinstance(f, int):
            steps.append((-1, f, None, 1))
        elif f is not _WIRE:
            steps.append((-1, -1, _UNITS[target >> q & 1][None], 1))
        q -= 1
    return steps


def _closed_layers(
    ket: np.ndarray, mats: np.ndarray, rows: np.ndarray, steps: list[tuple], buffers: np.ndarray, envs
) -> tuple[complex, np.ndarray]:
    """<s|L_b L_a|ket> for two layers of disjoint gates, L_a's unitaries
    ``mats`` and L_b's rows r_j = u_j[s_j, :] ``rows``, taken in closed
    form as a chain (_chain) from the top qubit down.

    <s| is a product state until it meets L_b, so <s|L_b is a chain of
    one-qubit factors, and through L_a the chain keeps at most one open
    wire of dimension 2: only an L_b gate that straddles two L_a steps
    crosses the boundary between them, and gates of both layers on the same
    two qubits meet inside one step.  Step i takes the ket as contracted
    with every step above it, t_i of shape (w_in, 2**m), to t_(i + 1) =
    G_i t_i by one small GEMM, with G_i[o, (i, k)] = (P u)[(o, i), k] for
    an L_a gate u and its qubits' factors P, r_j for an idle qubit under
    r_j, or <b| for one under <b|; the last t is the amplitude.
    Going back up, below_i is conj(amp) times the contraction of every
    step below i, so d_i = below_i t_i^T is conj(amp) times the derivative
    of the amplitude by G_i.  That gives gate u's environment P^T d_i and
    the environment of r_j, by P's map, from d_i u^T; and
    below_(i - 1) = G_i^T below_i.  Writes L_a's 4x4 environments into
    ``envs``, returns the amplitude and the (len(rows), 4) environments of
    L_b's rows, and leaves the conjugated bra entering L_a, below_(-1), in
    buffers[0].

    buffers[1] is scratch: the GEMMs' outputs fill it from the front (each
    at most half the t it reads, so less than all of it), and the belows
    alternate between its back and the front of buffers[0], so the last
    lands in buffers[0] and nothing state-sized is allocated.  With L_a
    empty, the chain is the last layer's alone.
    """
    out, scratch = buffers
    tops, gs, ps = [], [], []
    t, free = ket.reshape(1, -1), scratch
    for gate, row, pair, wire in steps:
        tops.append(t)
        p = None
        if gate >= 0:
            p = pair if row < 0 else (rows[row] @ pair).reshape(-1, 4)
            g = (p @ mats[gate]).reshape(wire, -1)
        else:
            g = pair if row < 0 else rows[row][None]
        ps.append(p)
        gs.append(g)
        size = len(g) * (t.size // g.shape[1])
        product = free[:size].reshape(len(g), -1)
        t, free = np.matmul(g, t.reshape(g.shape[1], -1), out=product), free[size:]
    amp = t[0, 0]
    c = np.empty((len(rows), 4), dtype=complex)
    # Step i's below lands in buffers[0] for even i, so the first (the
    # bottom step's) starts in the other buffer.
    below = (scratch[-1:] if len(steps) % 2 else out[:1]).reshape(1, 1)
    below[0, 0] = amp.conjugate()
    for i in range(len(steps) - 1, -1, -1):
        gate, row, pair, _ = steps[i]
        top, g, p = tops[i], gs[i], ps[i]
        if gate >= 0 or row >= 0:
            d = below @ top.reshape(g.shape[1], -1).T
            if gate < 0:
                c[row] = d.reshape(4)
            else:
                d = d.reshape(-1, 4)
                envs[gate] = p.T @ d
                if row >= 0:
                    c[row] = pair @ (d @ mats[gate].T).reshape(-1)
        size = g.shape[1] * below.shape[1]
        product = out[:size] if i % 2 == 0 else scratch[scratch.size - size :]
        below = np.matmul(g.T, below, out=product.reshape(g.shape[1], -1)).reshape(len(top), -1)
    return amp, c


class PeakObjective:
    """Peak probability and exact gradient as a function of the flat
    peaking-parameter vector.

    The random half never changes during optimization, so its output state
    is computed once and kept read-only.  Each evaluation replays the
    peaking half's body, every op but the last two layers', forward; takes
    those two layers, L_a and L_b, in closed form as one chain
    (_closed_layers), which gives the amplitude, both layers' gate
    environments and the conjugated bra entering L_a; and runs the adjoint
    reverse sweep over the body's layers.

    The gates of one layer act on disjoint qubits and commute, so a gate
    u's environment comes from a bra and a ket held at either boundary of
    its layer (boundary j is the state after body layer j, boundary 0 the
    random half's output): E = Y conj(u) from their overlap Y
    (_pair_environment, split into gates by OpList.gate_overlaps) at the
    boundary after it, or E = conj(u) X from their overlap X at the one
    before it.  Body layer j takes its overlaps at boundary j when it is
    the last layer or odd, else at boundary j - 1: layers 1 and 2 at
    boundary 1, 3 and 4 at boundary 3, and so on.  The forward pass keeps
    the ket at boundary 1 in a third buffer, so the bra moves back through
    every body layer but the first and the ket only to the odd boundaries
    from 3 up.  For body layers of B_1, .., B_L ops that is B_1 + .. + B_L
    forward passes, B_2 + .. + B_L bra passes, B_4 + .. + B_L ket passes
    and one overlap per op.  The gradient then comes from every gate's 4x4
    environment at once, taken through the gate's local factors
    (gates.gate_gradients), so no derivative matrices are built.  The kets
    and bras ping-pong between buffers the objective owns, so one object
    must not evaluate in two threads at once.
    """

    def __init__(self, circuit: Circuit):
        self.n = circuit.n
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        peaking = circuit.layers[circuit.random_depth :]
        # The body's ops: every peaking layer but the last two.  Fusion
        # never crosses a layer, so they number gates as the peaking half does.
        body = peaking[:-2]
        self.ops = OpList(body, circuit.n)
        # Whether each body gate's environment is taken after its layer (the
        # last and the odd ones) or before it, as a (G_body, 1, 1) mask.
        after = [j == len(body) or j % 2 for j, layer in enumerate(body, 1) for _ in layer]
        self._after = np.array(after, dtype=bool).reshape(-1, 1, 1)
        self._psi_random = _run_layers(circuit.layers[: circuit.random_depth], circuit.n)
        self._psi_random.flags.writeable = False
        # The trailing NOTs only permute amplitudes: <s|X psi> = psi[s ^ mask].
        self._pre_x_index = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
        # The last two layers, L_a and L_b, are taken in closed form; L_a is
        # empty when the peaking half has one layer.
        first, last = [[g.qubit_low for g in layer] for layer in ((), (), *peaking)[-2:]]
        body_gates = len(self.positions) - len(first) - len(last)
        self._first = slice(body_gates, body_gates + len(first))
        self._last = np.arange(body_gates + len(first), len(self.positions))
        self._last_rows = np.array([self._pre_x_index >> q & 3 for q in last], dtype=int)
        self._steps = _chain(first, last, self._pre_x_index, self.n)
        # Two ket buffers for the forward pass and, from two body layers,
        # a third that keeps the ket at boundary 1.
        self._kets = [np.empty(1 << self.n, dtype=complex) for _ in range(2 + (len(body) >= 2))]
        self._bras = np.empty((2, 1 << self.n), dtype=complex)

    def _closed_form(self, ket: np.ndarray, mats: np.ndarray, bras) -> tuple[complex, np.ndarray]:
        """The amplitude and the peaking gates' environments that the last
        two layers give (zero for the body's gates), from the ket entering
        them; writes the conjugated bra entering L_a into bras[0]
        (_closed_layers)."""
        envs = np.zeros((len(mats), 4, 4), dtype=complex)
        rows = mats[self._last, self._last_rows]
        amp, c = _closed_layers(ket, mats[self._first], rows, self._steps, bras, envs[self._first])
        envs[self._last, self._last_rows] = c
        return amp, envs

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        rows = peaking_rows(vec, len(self.positions))
        if not len(rows):
            return float(np.abs(self._psi_random[self._pre_x_index]) ** 2), np.zeros(0)
        factors = gate_factors(rows)
        mats = factors.unitaries
        ops, kets = self.ops, self._kets
        matrices, qubits = ops.matrices(mats), ops.qubits
        # The first layer's last op writes into kets[-1], which keeps the
        # ket at boundary 1 for the rest of the evaluation.
        first = len(ops.layers[0]) if ops.layers else 0
        buffers = (kets[-1], kets[0]) if first % 2 else (kets[0], kets[-1])
        k1 = _apply_ops(self._psi_random, matrices[:first], qubits[:first], buffers)
        k = _apply_ops(k1, matrices[first:], qubits[first:], kets[:2])

        # The bra is held conjugated, so it moves back through an op u by
        # conj(u^dag) = u.T; conjugation only flips signs, so every result
        # keeps the bits of an unconjugated sweep.
        bc, spare_b = self._bras
        amp, envs = self._closed_form(k, mats, self._bras)
        spare_k = kets[1] if k is kets[0] else kets[0]
        overlaps = [None] * len(matrices)
        last = len(ops.layers)
        for j in range(last, 0, -1):
            # Bra and ket are at boundary j: body layer j takes its overlaps
            # here if it is the last or odd, and so does an even layer j + 1
            # below the last.  Then both move back through layer j, the ket
            # only while it is needed above boundary 1, whose ket is kept.
            if j == last or j % 2:
                stop = ops.layers[j if j + 1 < last else j - 1].stop
                for i in range(ops.layers[j - 1].start, stop):
                    overlaps[i] = _pair_environment(bc, k, qubits[i], len(matrices[i]))
            for i in reversed(ops.layers[j - 1] if j > 1 else ()):
                u, q = matrices[i], qubits[i]
                bc, spare_b = apply_gate_matrix(bc, u.T, q, out=spare_b), bc
                if j > 3:
                    k, spare_k = apply_gate_matrix(k, u.conj().T, q, out=spare_k), k
            if j == 2:
                k = k1
        # A gate's environment is Y conj(u) from an overlap taken after its
        # layer, conj(u) X from one taken before; dp/dtheta = 2 Re <b|dU|k>
        # is then taken through every gate's factors at once.
        y = ops.gate_overlaps(overlaps)
        u = mats[: len(y)].conj()
        envs[: len(y)] = np.where(self._after, y @ u, u @ y)
        return float(np.abs(amp) ** 2), gate_gradients(factors, envs).reshape(-1)


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    return PeakObjective(circuit).value_and_gradient(peaking_vector(circuit))
