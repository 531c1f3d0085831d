"""Per-gate reference for the batched gate algebra: the GateParams unitary
and its 16 parameter derivatives, built one gate at a time with np.kron and
2x2/4x4 matmuls.  gates.gate_matrices must reproduce these bit for bit."""

import numpy as np

from prcbench.gates import (
    PARAMS_PER_GATE,
    XX,
    YY,
    ZZ,
    GateParams,
    entangling_core,
    ry_matrix,
    rz_matrix,
    su2_from_zyz,
)

_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_MHY = -0.5j * _Y2  # d/dtheta generator of Ry
_MHZ = -0.5j * _Z2  # d/dtheta generator of Rz


def reference_matrix(p: GateParams) -> np.ndarray:
    pre = np.kron(su2_from_zyz(p.pre[3:6]), su2_from_zyz(p.pre[0:3]))
    post = np.kron(su2_from_zyz(p.post[3:6]), su2_from_zyz(p.post[0:3]))
    core = entangling_core(*p.entangling)
    return np.exp(1j * p.phase) * (post @ core @ pre)


def _zyz_triple_derivs(triple, u: np.ndarray) -> np.ndarray:
    rz0 = rz_matrix(triple[0])
    ry1 = ry_matrix(triple[1])
    rz2 = rz_matrix(triple[2])
    return np.stack((u @ _MHZ, rz2 @ _MHY @ ry1 @ rz0, _MHZ @ u))


def _kron_right(a: np.ndarray, b_stack: np.ndarray) -> np.ndarray:
    """kron(a, b) for a single 2x2 and a stack of 2x2s."""
    return np.einsum("ab,jcd->jacbd", a, b_stack).reshape(-1, 4, 4)


def _kron_left(a_stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("jab,cd->jacbd", a_stack, b).reshape(-1, 4, 4)


def reference_derivatives(p: GateParams) -> np.ndarray:
    """dU/dtheta for all 16 parameters as a (16, 4, 4) stack, in
    to_vector() order."""
    q_lo = su2_from_zyz(p.pre[0:3])
    q_hi = su2_from_zyz(p.pre[3:6])
    p_lo = su2_from_zyz(p.post[0:3])
    p_hi = su2_from_zyz(p.post[3:6])
    core = entangling_core(*p.entangling)
    phase = np.exp(1j * p.phase)
    pre = np.kron(q_hi, q_lo)
    post = np.kron(p_hi, p_lo)

    left = phase * (post @ core)  # left @ d(pre)
    right = core @ pre  # phase * d(post) @ right

    out = np.empty((PARAMS_PER_GATE, 4, 4), dtype=complex)
    out[0:3] = left @ _kron_right(q_hi, _zyz_triple_derivs(p.pre[0:3], q_lo))
    out[3:6] = left @ _kron_left(_zyz_triple_derivs(p.pre[3:6], q_hi), q_lo)
    sigmas = np.stack((XX @ core, YY @ core, ZZ @ core))
    out[6:9] = (phase * post) @ (1j * sigmas) @ pre
    out[9:12] = phase * (_kron_right(p_hi, _zyz_triple_derivs(p.post[0:3], p_lo)) @ right)
    out[12:15] = phase * (_kron_left(_zyz_triple_derivs(p.post[3:6], p_hi), p_lo) @ right)
    out[15] = 1j * (left @ pre)
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bytes, so 0.0 and -0.0 count as different."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
