"""Minimal OpenQASM 2.0 subset reader that replays an exported gate stream
through raw matrices, used as the round-trip oracle for the emitter."""

from __future__ import annotations

import numpy as np

from prcbench.gates import ry_matrix, rz_matrix


def _apply_single_qubit(state: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    psi = state.reshape(-1, 2, 1 << qubit)
    return np.einsum("ij,ajb->aib", u, psi).reshape(-1)


def _apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    idx = np.arange(len(state))
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return state[src]


def replay_statevector(qasm_text: str) -> np.ndarray:
    """Rebuild the statevector from rz / ry / cx lines."""
    n = None
    state = None
    for raw in qasm_text.splitlines():
        line = raw.strip()
        if (
            not line
            or line.startswith("//")
            or line.startswith("OPENQASM")
            or line.startswith("include")
            or line.startswith("creg")
            or line.startswith("measure")
        ):
            continue
        if line.startswith("qreg"):
            n = int(line[line.index("[") + 1 : line.index("]")])
            state = np.zeros(1 << n, dtype=complex)
            state[0] = 1.0
        elif line.startswith("cx"):
            args = line[2:].strip().rstrip(";")
            a, b = (int(x[x.index("[") + 1 : x.index("]")]) for x in args.split(","))
            state = _apply_cx(state, a, b)
        elif line.startswith(("rz(", "ry(")):
            name = line[:2]
            angle = float(line[3 : line.index(")")])
            tail = line[line.index(")") :]
            q = int(tail[tail.index("[") + 1 : tail.index("]")])
            mat = rz_matrix(angle) if name == "rz" else ry_matrix(angle)
            state = _apply_single_qubit(state, mat, q)
        else:
            raise ValueError(f"unsupported qasm line: {line!r}")
    if state is None:
        raise ValueError("qasm text declares no quantum register")
    return state


def replay_distribution(qasm_text: str) -> np.ndarray:
    return np.abs(replay_statevector(qasm_text)) ** 2
