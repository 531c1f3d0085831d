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
contraction with the other gate, and gates.gate_gradients turns the 4x4
environments into the gradient.

The gradient never applies the peaking half's last layer: the target bra
is a product state until it meets a gate, so the amplitude, that layer's
environments and the bra entering it come in closed form from the ket
before it (_closed_layer), by GEMVs over shrinking views of that ket.  For
a body (every peaking op but the last layer's) of B >= 2 ops, an
evaluation makes B forward passes, B - 2 ket passes, B - 1 bra passes and
B environment contractions.  Both kernels write into buffers the caller
owns where they can: ``run`` ping-pongs between the zero state and one
more vector, and ``PeakObjective`` keeps two ket and two bra buffers
across evaluations, and takes the closed form inside the bra buffers.  Its
working set is five state vectors, which sets MAX_QUBITS.  NUMERICS names
the rounding of these kernels, of the gate construction, gradient and KAK
decomposition in gates, and of the optimizer's path, and the random stream
of the sampled readout channel (noise.readout_flip); it changes whenever
any of them changes a result in the last bit or a sampled histogram.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import BitString, Circuit, peaking_rows, peaking_vector
from .errors import CapacityError, SchemaError
from .gates import PARAMS_PER_GATE, _kron, gate_factors, gate_gradients, gate_matrices

# Version of the simulator's and optimizer's floating-point results.
# 1: every gate applied by one einsum; 2: the position-aware kernels below;
# 3: the same kernels as 2, with stage 1 on prcbench's own L-BFGS
# (optimize._lbfgs) instead of scipy's L-BFGS-B; 4: as 3, with side-by-side
# gates of a layer fused into 16x16 blocks on states of at least 2**10
# amplitudes; 5: as 4, with gates built in closed form and the gradient
# taken through their local factors (gates.gate_gradients); 6: as 5, with
# the peaking half's last layer taken in closed form, the sweep's known kets
# reused instead of recomputed, and gates.gate_gradients row-invariant; 7:
# as 6, with gates.kak_decompose in plain stacked numpy (one ZYZ split, the
# global phase read from the reconstruction), so the version now also names
# the rounding of every decomposed gate; 8: as 7, with noise.readout_flip
# drawing geometric gaps between flipped bits instead of one uniform per
# bit, so the version now also names the sampled-readout stream (optimizer
# results and exact-mode matrices are as at 7).  Suite manifests and matrix
# provenance record it; documents without it are numerics 1.
NUMERICS = 8

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
class ProbabilityDistribution:
    probs: np.ndarray
    n: int


class ShotHistogram:
    """Sampled outcome counts as two aligned int64 arrays: the distinct basis
    indices in ascending order (`outcomes`) and how often each was seen
    (`tallies`), which must already be in that form (nothing is sorted or
    merged here).  `counts` offers the same data as a read-only mapping."""

    __slots__ = ("n", "outcomes", "tallies", "shots")

    def __init__(self, n: int, outcomes, tallies) -> None:
        self.n = n
        self.outcomes = np.asarray(outcomes, dtype=np.int64)
        self.tallies = np.asarray(tallies, dtype=np.int64)
        self.shots = int(self.tallies.sum())

    @property
    def counts(self) -> Mapping[int, int]:
        return _CountsView(self)

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
        blocks = [g for g in self.gates if len(g) == 2]
        self._low = np.array([g[0] for g in blocks], dtype=int)
        self._high = np.array([g[1] for g in blocks], dtype=int)

    def matrices(self, mats: np.ndarray, count: int | None = None) -> list[np.ndarray]:
        """The first ``count`` ops' matrices (every op's by default), in
        order, from the (G, 4, 4) stack of gate unitaries; their blocks are
        built by one stacked _kron."""
        ops = self.gates[:count]
        blocks = sum(len(g) == 2 for g in ops)
        kron = iter(_kron(mats[self._high[:blocks]], mats[self._low[:blocks]]) if blocks else ())
        return [mats[g[0]] if len(g) == 1 else next(kron) for g in ops]

    def gate_environments(self, op_envs, mats: np.ndarray, envs: np.ndarray) -> None:
        """Write the 4x4 environments of the first len(op_envs) ops' gates
        into the (G, 4, 4) array ``envs``, from each op's environment.

        Read a block's environment as E[i_high, i_low, j_high, j_low].
        Since <b|kron(u_high, du_low)|k> = sum E * u_high * du_low, the low
        gate's environment is E contracted with u_high over the high
        indices, and the high gate's is E contracted with u_low over the
        low ones.
        """
        blocks = []
        for g, env in zip(self.gates, op_envs):
            if len(g) == 1:
                envs[g[0]] = env
            else:
                blocks.append(env)
        if blocks:
            blocks = np.reshape(blocks, (-1, 4, 4, 4, 4))
            low, high = self._low[: len(blocks)], self._high[: len(blocks)]
            envs[low] = np.einsum("bhk,bhlkm->blm", mats[high], blocks)
            envs[high] = np.einsum("blm,bhlkm->bhk", mats[low], blocks)


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


def _segments(qubit_lows, target: int, n: int) -> list[tuple[int, int]]:
    """The qubits of a layer from the top down, as (gate, bit) segments:
    (j, 0) for the layer's gate j, which covers two qubits, and (-1, b) for
    an idle qubit, whose bit of ``target`` is b."""
    high = {q + 1: j for j, q in enumerate(qubit_lows)}
    segments, q = [], n - 1
    while q >= 0:
        if q in high:
            segments.append((high[q], 0))
            q -= 2
        else:
            segments.append((-1, target >> q & 1))
            q -= 1
    return segments


_UNITS = np.eye(2, dtype=complex)  # <0| and <1| on an idle qubit


def _closed_layer(
    ket: np.ndarray, rows: np.ndarray, segments: list[tuple[int, int]], buffers: np.ndarray
) -> tuple[complex, np.ndarray]:
    """<s|L|ket> for a layer L of disjoint gates, taken in closed form.

    <s| is a product state until it meets L, and so is <s|L: gate j's
    factor is its row r_j = u_j[s_j, :] and an idle qubit's is <s_q|.  So
    the amplitude is the ket contracted with every factor, top segment
    first (a row selection for an idle qubit, a GEMV for a gate), and the
    derivative of the amplitude by u_j[s_j, :] is C_j, the ket contracted
    with every factor but r_j: the ket as contracted down to gate j's
    segment, times the product of the factors below it.  Returns the
    amplitude and the (len(rows), 4) stack of C_j, and writes the
    conjugated bra that enters the layer, conj(amp) times the product of
    all factors, into buffers[0].

    buffers[1] is scratch: the GEMVs' outputs fill it from the front (at
    most a third of it), and the products of the factors below each
    segment alternate between its back and the front of buffers[0], so
    the last product lands in buffers[0] and nothing state-sized is
    allocated.
    """
    out, scratch = buffers
    tops = []  # the ket contracted with the factors above each segment
    t, free = ket, scratch
    for j, bit in segments:
        tops.append(t)
        if j < 0:
            t = t.reshape(2, -1)[bit]
        else:
            t, free = np.matmul(rows[j], t.reshape(4, -1), out=free[: t.size // 4]), free[t.size // 4 :]
    amp = t[0]
    c = np.empty((len(rows), 4), dtype=complex)
    below = out[:1] if len(segments) % 2 == 0 else scratch[-1:]
    below[0] = 1.0
    for i in range(len(segments) - 1, -1, -1):
        j, bit = segments[i]
        top = tops.pop()
        factor = _UNITS[bit] if j < 0 else rows[j]
        if j >= 0:
            c[j] = top.reshape(4, -1) @ below
        if i == 0:
            factor = amp.conjugate() * factor
        size = len(factor) * below.size
        product = out[:size] if i % 2 == 0 else scratch[scratch.size - size :]
        np.multiply(factor[:, None], below, out=product.reshape(len(factor), -1))
        below = product
    return amp, c


class PeakObjective:
    """Peak probability and exact gradient as a function of the flat
    peaking-parameter vector.

    The random half never changes during optimization, so its output state
    is computed once and kept read-only.  Each evaluation replays the
    peaking half's body, every op but the last layer's, forward; takes the
    last layer in closed form (_closed_layer), which gives the amplitude,
    the last layer's gate environments and the conjugated bra entering it;
    and runs the adjoint reverse sweep over the body.  The sweep takes
    every op's environment, 16x16 for a block and 4x4 for a lone gate, and
    moves the ket and the bra back only where it must: the ket before the
    first op is the random half's output, the ket before the last body op
    is still in the forward pass's spare buffer, and no bra move follows
    the first op.  For a body of B >= 2 ops that is B forward passes, B - 2
    ket passes and B - 1 bra passes.  The gradient then comes from every
    gate's 4x4 environment at once, taken through the gate's local factors
    (gates.gate_gradients), so no derivative matrices are built.
    The kets and bras ping-pong between buffers the objective owns, so one
    object must not evaluate in two threads at once.
    """

    def __init__(self, circuit: Circuit):
        self.n = circuit.n
        self.positions = [g.qubit_low for g in circuit.peaking_placements()]
        self.num_params = len(self.positions) * PARAMS_PER_GATE
        peaking = circuit.layers[circuit.random_depth :]
        self.ops = OpList(peaking, circuit.n)
        self._psi_random = _run_layers(circuit.layers[: circuit.random_depth], circuit.n)
        self._psi_random.flags.writeable = False
        # The trailing NOTs only permute amplitudes: <s|X psi> = psi[s ^ mask].
        self._pre_x_index = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
        last = [g.qubit_low for g in peaking[-1]] if peaking else []
        body_gates = len(self.positions) - len(last)
        self._body_ops = sum(g[0] < body_gates for g in self.ops.gates)
        self._last = np.arange(body_gates, len(self.positions))
        self._last_rows = np.array([self._pre_x_index >> q & 3 for q in last], dtype=int)
        self._segments = _segments(last, self._pre_x_index, self.n)
        self._kets = np.empty((2, 1 << self.n), dtype=complex)
        self._bras = np.empty((2, 1 << self.n), dtype=complex)

    def value_and_gradient(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        rows = peaking_rows(vec, len(self.positions))
        if not len(rows):
            return float(np.abs(self._psi_random[self._pre_x_index]) ** 2), np.zeros(0)
        factors = gate_factors(rows)
        mats = factors.unitaries
        matrices, qubits, n = self.ops.matrices(mats, self._body_ops), self.ops.qubits, self.n
        body = len(matrices)
        k = _apply_ops(self._psi_random, matrices, qubits, n, self._kets)

        # The bra is held conjugated, so it moves back through an op u by
        # conj(u^dag) = u.T; conjugation only flips signs, so every result
        # keeps the bits of an unconjugated sweep.
        bc, spare_b = self._bras
        amp, c = _closed_layer(k, mats[self._last, self._last_rows], self._segments, self._bras)
        envs = np.zeros((len(rows), 4, 4), dtype=complex)
        envs[self._last, self._last_rows] = amp.conjugate() * c

        # Op idx's environment pairs the bra after it with the ket before it:
        # the random half's output for the first op, the forward pass's
        # spare buffer for the last, and the ket moved back otherwise.
        # dp/dtheta = 2 Re <b|dU|k> is then taken through every gate's
        # factors at once.
        k, spare_k = self._kets[body % 2], self._kets[(body - 1) % 2]
        op_envs = [None] * body
        for idx in range(body - 1, -1, -1):
            q, u = qubits[idx], matrices[idx]
            if idx == 0:
                k = self._psi_random
            elif idx < body - 1:
                k, spare_k = apply_gate_matrix(k, u.conj().T, q, n, out=spare_k), k
            op_envs[idx] = _pair_environment(bc, k, q, n, len(u))
            if idx:
                bc, spare_b = apply_gate_matrix(bc, u.T, q, n, out=spare_b), bc
        self.ops.gate_environments(op_envs, mats, envs)
        return float(np.abs(amp) ** 2), gate_gradients(factors, envs).reshape(-1)


def peak_value_and_gradient(circuit: Circuit) -> tuple[float, np.ndarray]:
    """p = |<s|C|0^n>|^2 and its exact gradient over all peaking-half
    parameters (16 per gate, placement order)."""
    return PeakObjective(circuit).value_and_gradient(peaking_vector(circuit))
