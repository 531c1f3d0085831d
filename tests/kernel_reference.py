"""Reference kernels: the single-einsum forms of numerics 1, for a 4x4 gate
or a 16x16 block.  sim.apply_gate_matrix and sim._pair_environment pick a
layout by op width, qubit position and state size, and must match these
within rounding.

The unconjugated sweep below is PeakObjective.value_and_gradient as it
would run with the bra not held conjugated: the bra moves by u^dag and
each overlap is taken on a conjugated copy of it.  It takes the last two
layers in closed form by the engine's own chain (sim._closed_layers),
walks the engine's own op list on the same layer-boundary schedule with
the same kept ket, splits blocks by OpList.gate_overlaps and takes the
gradient through gates.gate_gradients, as the engine does, and the
conjugated sweep must match it bit for bit.

The per-gate sweep is the gradient with no fused ops: every gate applied
and its environment taken on its own by the einsum kernels.  The fused
sweep must match it within rounding."""

import numpy as np

from prcbench import sim
from prcbench.circuits import Circuit, peaking_rows
from prcbench.gates import gate_factors, gate_gradients, gate_matrices


def _blocks(state: np.ndarray, d: int, qubit_low: int) -> np.ndarray:
    return state.reshape(state.size // (d << qubit_low), d, 1 << qubit_low)


def reference_apply_gate_matrix(state: np.ndarray, u: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    return np.einsum("ij,ajb->aib", u, _blocks(state, len(u), qubit_low)).reshape(-1)


def reference_pair_environment(
    b: np.ndarray, k: np.ndarray, qubit_low: int, n: int, d: int = 4
) -> np.ndarray:
    return np.einsum("aib,ajb->ij", _blocks(b, d, qubit_low).conj(), _blocks(k, d, qubit_low))


def unconjugated_value_and_gradient(engine: sim.PeakObjective, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """engine.value_and_gradient(vec) with the bra swept unconjugated."""
    n = engine.n
    factors = gate_factors(peaking_rows(vec, len(engine.positions)))
    mats = factors.unitaries
    ops = engine.ops
    matrices, qubits = ops.matrices(mats), ops.qubits
    k, boundaries = engine._psi_random, []
    for layer in ops.layers:
        for i in layer:
            k = sim.apply_gate_matrix(k, matrices[i], qubits[i])
        boundaries.append(k)
    bras = np.empty((2, 1 << n), dtype=complex)
    amp, envs = engine._closed_form(k, mats, bras)
    b = bras[0].conj()
    # Body layer j takes its overlaps at boundary j when it is the last or
    # odd, else at boundary j - 1.  The bra moves back through every layer
    # but the first, the ket to the odd boundaries from 3 up; boundary 1's
    # ket is the forward pass's.
    last = len(ops.layers)
    overlaps = [None] * len(matrices)
    after = [j == last or j % 2 for j in range(1, last + 1)]
    for j in range(last, 0, -1):
        # At boundary j: layer j if it takes its overlaps after itself, and
        # layer j + 1 if it takes them before.
        for t in (j, j + 1):
            if t <= last and after[t - 1] == (t == j):
                for i in ops.layers[t - 1]:
                    overlaps[i] = sim._pair_environment(b.conj(), k, qubits[i], len(matrices[i]))
        for i in reversed(ops.layers[j - 1] if j > 1 else ()):
            ud = matrices[i].conj().T
            b = sim.apply_gate_matrix(b, ud, qubits[i])
            if j > 3:
                k = sim.apply_gate_matrix(k, ud, qubits[i])
        if j == 2:
            k = boundaries[0]
    y = ops.gate_overlaps(overlaps)
    for j, layer in enumerate(ops.layers, 1):
        for g in (g for i in layer for g in ops.gates[i]):
            u = mats[g].conj()
            envs[g] = y[g] @ u if after[j - 1] else u @ y[g]
    return float(np.abs(amp) ** 2), gate_gradients(factors, envs).reshape(-1)


def _per_gate_forward(state: np.ndarray, mats, placements, n: int) -> np.ndarray:
    for u, g in zip(mats, placements):
        state = reference_apply_gate_matrix(state, u, g.qubit_low, n)
    return state


def _zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _unitaries(placements) -> np.ndarray:
    return gate_matrices(np.array([g.params.to_vector() for g in placements]).reshape(-1, 16))


def reverse_qubits(state: np.ndarray, qubits) -> np.ndarray:
    """X on each listed qubit, one qubit at a time: the state's halves
    along that qubit swapped."""
    for q in qubits:
        state = state.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)
    return state


def per_gate_run(circuit: Circuit) -> np.ndarray:
    """C|0^n> with every gate applied on its own by the einsum kernel."""
    placements = list(circuit.placements())
    state = _per_gate_forward(_zero_state(circuit.n), _unitaries(placements), placements, circuit.n)
    return reverse_qubits(state, circuit.final_x)


def per_gate_value_and_gradient(circuit: Circuit, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """p and its gradient over the peaking half at vec, by a reverse sweep
    that moves the bra and the ket back through one gate at a time."""
    n = circuit.n
    random_half = [g for layer in circuit.layers[: circuit.random_depth] for g in layer]
    peaking = list(circuit.peaking_placements())
    factors = gate_factors(peaking_rows(vec, len(peaking)))
    mats = factors.unitaries
    k = _per_gate_forward(_zero_state(n), _unitaries(random_half), random_half, n)
    k = _per_gate_forward(k, mats, peaking, n)
    s = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
    amp = k[s]
    b = np.zeros_like(k)
    b[s] = amp
    envs = np.empty((len(peaking), 4, 4), dtype=complex)
    for idx in range(len(peaking) - 1, -1, -1):
        q, ud = peaking[idx].qubit_low, mats[idx].conj().T
        k = reference_apply_gate_matrix(k, ud, q, n)
        envs[idx] = reference_pair_environment(b, k, q, n)
        b = reference_apply_gate_matrix(b, ud, q, n)
    return float(np.abs(amp) ** 2), gate_gradients(factors, envs).reshape(-1)


def per_gate_closed_form(circuit: Circuit, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ket entering the peaking half's last two layers (its only layer
    when it has one) and the bra entering them, as the per-gate sweep holds
    it: amp |s> moved back by u^dag one gate at a time."""
    n = circuit.n
    random_half = [g for layer in circuit.layers[: circuit.random_depth] for g in layer]
    peaking = list(circuit.peaking_placements())
    body = len(peaking) - sum(len(layer) for layer in circuit.layers[circuit.random_depth :][-2:])
    mats = gate_factors(peaking_rows(vec, len(peaking))).unitaries
    k = _per_gate_forward(_zero_state(n), _unitaries(random_half), random_half, n)
    ket = _per_gate_forward(k, mats[:body], peaking[:body], n)
    k = _per_gate_forward(ket, mats[body:], peaking[body:], n)
    s = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
    b = np.zeros_like(k)
    b[s] = k[s]
    for idx in range(len(peaking) - 1, body - 1, -1):
        b = reference_apply_gate_matrix(b, mats[idx].conj().T, peaking[idx].qubit_low, n)
    return ket, b
