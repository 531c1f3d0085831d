"""Reference kernels and the schedule-free gradient oracle.

reference_apply_gate_matrix and reference_pair_environment are the
single-einsum forms of numerics 1, for a 4x4 gate or a 16x16 block.
sim.apply_gate_matrix and sim._pair_environment pick a layout by op width,
qubit position and state size, and must match them within rounding.

per_gate_value_and_gradient is the gradient with no fused ops, no closed
form and no layer schedule: every gate applied, and its environment taken,
on its own by the einsum kernels, one gate at a time.  PeakObjective must
match it within rounding.  sweep_passes states PeakObjective's cost model,
the sim.apply_gate_matrix calls one evaluation makes, and is the only
place in the tests that knows the schedule."""

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


def per_gate_value_and_gradient(
    circuit: Circuit, vec: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """p and its gradient over the peaking half at vec, by a reverse sweep
    that moves the bra and the ket back through one gate at a time, with
    the ket and the bra entering the peaking half's last two layers (its
    only layer when it has one): the bra as amp <s| moved back by u^dag."""
    n = circuit.n
    random_half = [g for layer in circuit.layers[: circuit.random_depth] for g in layer]
    peaking = list(circuit.peaking_placements())
    body = len(peaking) - sum(len(layer) for layer in circuit.layers[circuit.random_depth :][-2:])
    factors = gate_factors(peaking_rows(vec, len(peaking)))
    mats = factors.unitaries
    k = _per_gate_forward(_zero_state(n), _unitaries(random_half), random_half, n)
    ket = _per_gate_forward(k, mats[:body], peaking[:body], n)
    k = _per_gate_forward(ket, mats[body:], peaking[body:], n)
    s = circuit.target.index ^ sum(1 << q for q in circuit.final_x)
    amp = k[s]
    b = np.zeros_like(k)
    b[s] = amp
    bra = b
    envs = np.empty((len(peaking), 4, 4), dtype=complex)
    for idx in range(len(peaking) - 1, -1, -1):
        q, ud = peaking[idx].qubit_low, mats[idx].conj().T
        k = reference_apply_gate_matrix(k, ud, q, n)
        envs[idx] = reference_pair_environment(b, k, q, n)
        b = reference_apply_gate_matrix(b, ud, q, n)
        if idx == body:
            bra = b
    return float(np.abs(amp) ** 2), gate_gradients(factors, envs).reshape(-1), ket, bra


def sweep_passes(circuit: Circuit) -> int:
    """sim.apply_gate_matrix calls one PeakObjective.value_and_gradient
    makes, from each body layer's op count (the body is every peaking layer
    but the last two, which are taken in closed form): every body op
    forward, the bra back through every body layer but the first and the
    ket back through every body layer from the fourth."""
    peaking = circuit.layers[circuit.random_depth :]
    ops = [len(sim.OpList([layer], circuit.n).gates) for layer in peaking[:-2]]
    return sum(ops) + sum(ops[1:]) + sum(ops[3:])
