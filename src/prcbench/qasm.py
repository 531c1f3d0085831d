"""OpenQASM 2.0 export: every two-qubit gate synthesized into the fixed
native set {rz, ry, cx} from its KAK form, plus post-decomposition gate
counts.

Synthesis works in "slot" space for a gate pair (slot 0 = low qubit, the
less significant bit; slot 1 = high qubit).  ``gates.kak_decompose`` writes
the gate as local ZYZ layers around the core exp(i*(a XX + b YY + c ZZ)),
and GateParams stores a gate in that form.  Entangling angles outside the
Weyl chamber (optimized parameters, or the rare kak_decompose output on a
degenerate gate) are folded back in by local Pauli and Clifford moves
(``_fold``), and the chamber angles alone give the CNOT count
(Shende, Markov & Bullock, quant-ph/0308033): 0 at (0, 0, 0), 1 at
(pi/4, 0, 0), 2 when c = 0 and 3 otherwise.  Each class replaces the core
with a fixed-shape circuit whose angles are linear in (a, b, c) (Vatan &
Williams, quant-ph/0308006), and the KAK layers become its outer local
steps.  Every sequence is verified against the gate matrix before it is
emitted, to within ``gates.ATOL`` up to global phase; one that falls short
raises DecompositionError, so the emitted CNOT count is always the
classified one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .errors import DecompositionError
from .gates import (
    ATOL,
    GateParams,
    kak_decompose,
    ry_matrix,
    rz_matrix,
    su2_from_zyz,
    zyz_angles,
)

QASM_SCHEMA_HEADER = "OPENQASM 2.0;"

LOW, HIGH = 0, 1

# Slot-space constants (first kron factor = high slot).
CNOT_HL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)  # control high, target low
CNOT_LH = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # control low, target high

_H = math.pi / 2


def _layer(high, low) -> tuple[np.ndarray, np.ndarray]:
    """Single-qubit gates (high, low) from their ZYZ triples."""
    return su2_from_zyz(high), su2_from_zyz(low)


# Fixed Clifford layers that turn each CNOT circuit into the core, up to
# global phase: core(pi/4, 0, 0) = POST_1 CX PRE_1 and core(a, b, 0) =
# K_2 CX kron(ry(2a), rz(2b)) CX K_2^dag.  The three-CNOT circuit is run at
# (pi/2 - a, b, -c), which PRE_3 and POST_3 map back onto core(a, b, c);
# that keeps both of its middle ry angles in [0, pi/2] for Weyl-chamber
# angles, so each is emitted as one rotation.
_PRE_1 = _layer((0.0, -_H, -_H), (_H, -_H, -_H))
_POST_1 = _layer((0.0, _H, 0.0), (0.0, 0.0, 0.0))
_K_2 = _layer((0.0, _H, _H), (_H, _H, -_H))
_K_2_DAG = tuple(m.conj().T for m in _K_2)
_PRE_3 = _layer((-_H, 0.0, 0.0), (0.0, math.pi, 0.0))
_POST_3 = _layer((math.pi, math.pi, 0.0), (math.pi, 0.0, 0.0))


@dataclass(frozen=True)
class NativeOp:
    """One native gate: rz/ry rotate q0 by angle, cx has control q0 and
    target q1.  decompose_gate numbers qubits by slot; circuit_native_ops
    by global qubit index."""

    name: str
    q0: int
    q1: int = -1
    angle: float = 0.0


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# _SWAPS[i, j] is a Clifford C with C P_i C^dag = +-P_j and C P_j C^dag =
# +-P_i (S, H and rx(pi/2)); applied to both slots it swaps the i and j
# terms of the core, because the signs cancel between the slots.
_SWAPS = {
    (0, 1): np.diag([1.0, 1j]),
    (0, 2): np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    (1, 2): np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2),
}


def _fold(a: float, b: float, c: float):
    """Weyl-chamber angles (pi/4 >= a' >= b' >= |c'|) of core(a, b, c) and
    the local steps around it: the product of ``before``, core(a', b', c')
    and ``after`` equals core(a, b, c) up to global phase.  Angles already
    in the chamber come back unchanged with no steps.

    The moves are: a shift of one angle by pi/2, which multiplies the core
    by the commuting local i P(x)P; a sign flip of two angles, which is a
    conjugation by the third Pauli on one slot; and a swap of two angles,
    a conjugation by the matching _SWAPS Clifford on both slots.  A shift
    by pi is the global phase -1 alone.
    """
    if math.pi / 4 >= a >= b >= abs(c):
        return (a, b, c), [], []
    x = [a, b, c]
    eye = np.eye(2, dtype=complex)
    before, after = [eye, eye], [eye, eye]  # (high, low) layers
    for i in range(3):
        if abs(x[i]) > math.pi / 4:
            k = round(x[i] / _H)
            x[i] -= k * _H
            if k % 2:
                before = [_PAULIS[i] @ m for m in before]
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if abs(x[i]) < abs(x[j]):
            x[i], x[j] = x[j], x[i]
            swap = _SWAPS[i, j]
            before = [swap @ m for m in before]
            after = [m @ swap.conj().T for m in after]
    for i in (0, 1):
        if x[i] < 0:
            x[i], x[2] = -x[i], -x[2]
            pauli = _PAULIS[1 - i]  # anticommutes with P_i and P_2
            before[0] = pauli @ before[0]
            after[0] = after[0] @ pauli
    return tuple(x), _locals(before), _locals(after)


def _cnot_class(a: float, b: float, c: float) -> int:
    """CNOTs needed for core(a, b, c), read off its Weyl-chamber angles.  An
    angle within ATOL / 8 of a class boundary counts as on it, which keeps
    the template's error well inside the ATOL that synthesis verifies."""
    (a, b, c), _, _ = _fold(a, b, c)
    tol = ATOL / 8
    if max(abs(a), abs(b), abs(c)) <= tol:
        return 0
    if max(abs(a - math.pi / 4), abs(b), abs(c)) <= tol:
        return 1
    if abs(c) <= tol:
        return 2
    return 3


def num_cnots_required(u: np.ndarray) -> int:
    """Minimum CNOTs for a two-qubit unitary, from its Weyl-chamber angles."""
    return _cnot_class(*kak_decompose(u).entangling)


def _locals(layer) -> list:
    high, low = layer
    return [("local", HIGH, high), ("local", LOW, low)]


def _core_steps(cnots: int, a: float, b: float, c: float) -> list:
    """Steps whose product is core(a, b, c) up to global phase, with the
    given number of CNOTs; exact for angles of that class."""
    if cnots == 0:
        return []
    if cnots == 1:
        return [*_locals(_PRE_1), ("cx", HIGH, LOW), *_locals(_POST_1)]
    if cnots == 2:
        middle = [("local", HIGH, ry_matrix(2 * a)), ("local", LOW, rz_matrix(2 * b))]
        return [*_locals(_K_2_DAG), ("cx", HIGH, LOW), *middle, ("cx", HIGH, LOW), *_locals(_K_2)]
    return [
        *_locals(_PRE_3),
        ("cx", HIGH, LOW),
        ("local", LOW, rz_matrix(_H + 2 * c)),
        ("local", HIGH, ry_matrix(_H - 2 * a)),
        ("cx", LOW, HIGH),
        ("local", HIGH, ry_matrix(_H - 2 * b)),
        ("cx", HIGH, LOW),
        ("local", LOW, rz_matrix(_H)),
        *_locals(_POST_3),
    ]


def _steps_matrix(steps) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    for kind, *rest in steps:
        if kind == "cx":
            m = (CNOT_LH if rest == [LOW, HIGH] else CNOT_HL) @ m
            continue
        slot, mat = rest
        # Row index = 2 * high + low: kron(mat, I) @ m or kron(I, mat) @ m.
        m = (mat @ (m.reshape(2, 8) if slot == HIGH else m.reshape(2, 2, 4))).reshape(4, 4)
    return m


def _phase_aligned_error(m: np.ndarray, u: np.ndarray) -> float:
    tr = complex(np.trace(u.conj().T @ m))
    if abs(tr) < 1e-12:
        return float("inf")
    return float(np.max(np.abs(m * (tr.conjugate() / abs(tr)) - u)))


def _merge_locals(steps):
    """Fuse consecutive single-qubit steps per slot between CNOTs."""
    merged = []
    pending = {LOW: None, HIGH: None}

    def flush():
        for slot in (HIGH, LOW):
            if pending[slot] is not None:
                merged.append(("local", slot, pending[slot]))
                pending[slot] = None

    for kind, *rest in steps:
        if kind == "cx":
            flush()
            merged.append(("cx", *rest))
        else:
            slot, mat = rest
            pending[slot] = mat if pending[slot] is None else mat @ pending[slot]
    flush()
    return merged


def _emit_local(slot: int, a0: float, a1: float, a2: float) -> list[NativeOp]:
    ops = []
    if abs(a0) > 1e-12:
        ops.append(NativeOp("rz", slot, angle=a0))
    if abs(a1) > 1e-12:
        ops.append(NativeOp("ry", slot, angle=a1))
    if abs(a2) > 1e-12:
        ops.append(NativeOp("rz", slot, angle=a2))
    return ops


def decompose_gate(params: GateParams) -> list[NativeOp]:
    """Native-gate sequence (rz/ry/cx over two slots) whose product equals
    the gate unitary up to global phase within ATOL, with
    num_cnots_required CNOTs.

    The parameters already write the gate as local layers around a core, so
    they are used as they are; entangling angles outside the Weyl chamber
    are folded into it.
    """
    angles, before, after = _fold(*params.entangling)
    steps = _merge_locals([
        *_locals(_layer(params.pre[3:], params.pre[:3])),
        *before,
        *_core_steps(_cnot_class(*angles), *angles),
        *after,
        *_locals(_layer(params.post[3:], params.post[:3])),
    ])
    error = _phase_aligned_error(_steps_matrix(steps), params.matrix())
    if not error <= ATOL:  # also catches NaN from non-finite parameters
        raise DecompositionError(f"gate synthesis failed to verify: error {error:.2e} > {ATOL:.2e}")
    # One ZYZ split for all the gate's single-qubit steps: a stacked split
    # costs about what one step's does.
    a0, a1, a2, _ = zyz_angles(np.array([rest[1] for kind, *rest in steps if kind == "local"]))
    angles = zip(a0.tolist(), a1.tolist(), a2.tolist())
    ops: list[NativeOp] = []
    for kind, *rest in steps:
        if kind == "cx":
            ops.append(NativeOp("cx", rest[0], rest[1]))
        else:
            ops.extend(_emit_local(rest[0], *next(angles)))
    return ops


def circuit_native_ops(circuit: Circuit) -> list[NativeOp]:
    """Whole-circuit native stream in global qubit indices, layer order."""
    stream: list[NativeOp] = []
    for g in circuit.placements():
        lo = g.qubit_low
        for op in decompose_gate(g.params):
            if op.name == "cx":
                stream.append(NativeOp("cx", lo + op.q0, lo + op.q1))
            else:
                stream.append(NativeOp(op.name, lo + op.q0, angle=op.angle))
    for q in circuit.final_x:
        # X up to phase in the native set.
        stream.append(NativeOp("rz", q, angle=math.pi))
        stream.append(NativeOp("ry", q, angle=math.pi))
    return stream


def count_ops(ops) -> dict[str, int]:
    """Counts over a native stream; two_qubit counts CNOTs."""
    two = sum(1 for op in ops if op.name == "cx")
    return {"two_qubit": two, "single_qubit": len(ops) - two}


def gate_count(circuit: Circuit) -> dict[str, int]:
    """Counts over the decomposed native stream; two_qubit counts CNOTs."""
    return count_ops(circuit_native_ops(circuit))


def qasm_from_ops(n: int, ops) -> str:
    """OpenQASM 2.0 text of an n-qubit native stream, as emit_qasm writes it."""
    lines = [
        QASM_SCHEMA_HEADER,
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    for op in ops:
        if op.name == "cx":
            lines.append(f"cx q[{op.q0}], q[{op.q1}];")
        else:
            lines.append(f"{op.name}({op.angle:.17g}) q[{op.q0}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def emit_qasm(circuit: Circuit) -> str:
    """Well-formed OpenQASM 2.0 with one quantum and one classical register,
    the decomposed gate stream in layer order, and a terminal full-register
    measurement.  Byte-stable for a fixed circuit."""
    return qasm_from_ops(circuit.n, circuit_native_ops(circuit))


def qasm_filename(n: int, d: int, seed_hash: str) -> str:
    return f"prc_n{n}_d{d}_s{seed_hash}.qasm"
