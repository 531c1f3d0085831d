"""Reference pair kernels: the single-einsum forms of numerics 1.
sim.apply_gate_matrix and sim._pair_environment pick a layout by qubit
position and state size, and must match these within rounding."""

import numpy as np


def reference_apply_gate_matrix(state: np.ndarray, u: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    psi = state.reshape(1 << (n - qubit_low - 2), 4, 1 << qubit_low)
    return np.einsum("ij,ajb->aib", u, psi).reshape(-1)


def reference_pair_environment(b: np.ndarray, k: np.ndarray, qubit_low: int, n: int) -> np.ndarray:
    shape = (1 << (n - qubit_low - 2), 4, 1 << qubit_low)
    return np.einsum("aib,ajb->ij", b.reshape(shape).conj(), k.reshape(shape))
