"""Reference pair kernels: the single-einsum forms of numerics 1.
sim.apply_gate_matrix and sim._pair_environment pick a layout by qubit
position and state size, and must match these within rounding.

The unconjugated sweep below is PeakObjective.value_and_gradient as it ran
before the bra was held conjugated: the bra moves by u^dag and each
environment conjugates a copy of it.  The conjugated sweep must match it
bit for bit."""

import numpy as np

from prcbench import sim
from prcbench.circuits import peaking_rows
from prcbench.gates import gate_matrices


def reference_apply_gate_matrix(state: np.ndarray, u: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    psi = state.reshape(1 << (n - qubit_low - 2), 4, 1 << qubit_low)
    return np.einsum("ij,ajb->aib", u, psi).reshape(-1)


def reference_pair_environment(b: np.ndarray, k: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    shape = (1 << (n - qubit_low - 2), 4, 1 << qubit_low)
    return np.einsum("aib,ajb->ij", b.reshape(shape).conj(), k.reshape(shape))


def unconjugated_pair_environment(b: np.ndarray, k: np.ndarray, qubit_low: int) -> np.ndarray:
    """sim._pair_environment's layouts, for a bra b that is not conjugated."""
    inner = 1 << qubit_low
    if b.size < sim._EINSUM_MAX_AMPLITUDES:
        return np.einsum("aib,ajb->ij", b.reshape(-1, 4, inner).conj(), k.reshape(-1, 4, inner))
    bc = b.conj()
    if sim._use_gemm(b.size, qubit_low):
        width = 4 * inner
        m = bc.reshape(-1, width).T @ k.reshape(-1, width)
        return np.trace(m.reshape(4, inner, 4, inner), axis1=1, axis2=3)
    return np.matmul(bc.reshape(-1, 4, inner), k.reshape(-1, 4, inner).transpose(0, 2, 1)).sum(0)


def unconjugated_value_and_gradient(engine: sim.PeakObjective, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """engine.value_and_gradient(vec) with the bra swept unconjugated."""
    n, positions = engine.n, engine.positions
    mats, derivs = gate_matrices(peaking_rows(vec, len(positions)), derivatives=True)
    k = engine._psi_random
    for u, q in zip(mats, positions):
        k = sim.apply_gate_matrix(k, u, q, n)
    amp = k[engine._pre_x_index]
    b = np.zeros_like(k)
    b[engine._pre_x_index] = amp
    envs = np.empty((len(positions), 4, 4), dtype=complex)
    for idx in range(len(positions) - 1, -1, -1):
        q, ud = positions[idx], mats[idx].conj().T
        k = sim.apply_gate_matrix(k, ud, q, n)
        envs[idx] = unconjugated_pair_environment(b, k, q)
        b = sim.apply_gate_matrix(b, ud, q, n)
    grad = 2.0 * np.real(np.einsum("gij,gmij->gm", envs, derivs)).reshape(-1)
    return float(np.abs(amp) ** 2), grad
