"""Per-gate references for the batched gate algebra, built one gate at a
time with np.kron, 2x2/4x4 matmuls and complex scalars:

* the entangling core exp(i*(a XX + b YY + c ZZ)), as a commuting product;
* the GateParams unitary and its 16 parameter derivatives, which
  gates.gate_factors and gates.gate_gradients must match within rounding;
* the KAK decomposition of one 4x4 unitary, with a scalar ZYZ split of its
  own, whose reconstruction and entangling angles gates.kak_decompose must
  match within tolerance for every gate of a stack.
"""

import math

import numpy as np

from prcbench.errors import DecompositionError
from prcbench.gates import (
    MAGIC,
    MAGIC_DAG,
    PARAMS_PER_GATE,
    XX,
    YY,
    ZZ,
    GateParams,
    ry_matrix,
    rz_matrix,
    su2_from_zyz,
)

_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_MHY = -0.5j * _Y2  # d/dtheta generator of Ry
_MHZ = -0.5j * _Z2  # d/dtheta generator of Rz


def entangling_core(a: float, b: float, c: float) -> np.ndarray:
    """exp(i*(a XX + b YY + c ZZ)), evaluated as a commuting product."""
    eye = np.eye(4, dtype=complex)
    m = math.cos(a) * eye + 1j * math.sin(a) * XX
    m = m @ (math.cos(b) * eye + 1j * math.sin(b) * YY)
    m = m @ (math.cos(c) * eye + 1j * math.sin(c) * ZZ)
    return m


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


_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_IPX = 1j * _X2
_IPY = 1j * _Y2
_IPZ = 1j * _Z2


def _diagonalize_complex_symmetric(m2: np.ndarray, atol: float = 1e-11):
    rng = np.random.default_rng(2020)
    for attempt in range(40):
        if attempt == 0:
            wr, wi = 1.0, 0.0
        elif attempt == 1:
            wr, wi = 0.0, 1.0
        elif attempt == 2:
            wr, wi = 1.0, 1.0
        else:
            wr, wi = rng.normal(), rng.normal()
        mix = wr * m2.real + wi * m2.imag
        _, p = np.linalg.eigh(mix)
        d = p.T @ m2 @ p
        if np.max(np.abs(d - np.diag(np.diagonal(d)))) <= atol:
            return p, np.diagonal(d).copy()
    raise DecompositionError("failed to diagonalize the symmetric magic-basis product")


def _split_product_gate(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    r = m[:2, :2].copy()
    det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        r = m[2:, :2].copy()
        det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        raise DecompositionError("gate is not a tensor product of single-qubit gates")
    r /= np.sqrt(det_r)

    temp = m @ np.kron(np.eye(2), r.conj().T)
    left = temp[::2, ::2].copy()
    det_l = left[0, 0] * left[1, 1] - left[0, 1] * left[1, 0]
    if abs(det_l) < 0.9:
        raise DecompositionError("gate is not a tensor product of single-qubit gates")
    left /= np.sqrt(det_l)
    phase = float(np.angle(det_l)) / 2.0

    deviation = abs(abs(np.trace(np.kron(left, r).conj().T @ m)) - 4.0)
    if deviation > 1e-11:
        raise DecompositionError(f"tensor-product split failed (deviation {deviation:.2e})")
    return left, r, phase


def _weyl_decompose(u: np.ndarray, atol: float = 1e-10):
    """(k1l, k1r, a, b, c, k2l, k2r, global_phase) of one 4x4 unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DecompositionError("expected a 4x4 matrix")
    if float(np.max(np.abs(u.conj().T @ u - np.eye(4)))) > 1e-10:
        raise DecompositionError("input matrix is not unitary")

    pi, pi2, pi4 = np.pi, np.pi / 2, np.pi / 4

    det_u = complex(np.linalg.det(u))
    su = u * det_u ** (-0.25)
    phase = float(np.angle(det_u)) / 4.0

    up = MAGIC_DAG @ su @ MAGIC
    m2 = up.T @ up

    p, d_diag = _diagonalize_complex_symmetric(m2)
    d = -np.angle(d_diag) / 2.0
    d[3] = -d[0] - d[1] - d[2]
    cs = np.mod((d[:3] + d[3]) / 2.0, 2.0 * pi)

    cstemp = np.mod(cs, pi2)
    np.minimum(cstemp, pi2 - cstemp, out=cstemp)
    order = np.argsort(cstemp)[[1, 2, 0]]
    cs = cs[order]
    d[:3] = d[order]
    p[:, :3] = p[:, order]
    if np.real(np.linalg.det(p)) < 0:
        p[:, -1] = -p[:, -1]

    k1 = MAGIC @ (up @ p @ np.diag(np.exp(1j * d))) @ MAGIC_DAG
    k2 = MAGIC @ p.T @ MAGIC_DAG

    k1l, k1r, phase_l = _split_product_gate(k1)
    k2l, k2r, phase_r = _split_product_gate(k2)
    phase += phase_l + phase_r

    if cs[0] > pi2:
        cs[0] -= 3 * pi2
        k1l = k1l @ _IPY
        k1r = k1r @ _IPY
        phase += pi2
    if cs[1] > pi2:
        cs[1] -= 3 * pi2
        k1l = k1l @ _IPX
        k1r = k1r @ _IPX
        phase += pi2
    conjs = 0
    if cs[0] > pi4:
        cs[0] = pi2 - cs[0]
        k1l = k1l @ _IPY
        k2r = _IPY @ k2r
        conjs += 1
        phase -= pi2
    if cs[1] > pi4:
        cs[1] = pi2 - cs[1]
        k1l = k1l @ _IPX
        k2r = _IPX @ k2r
        conjs += 1
        phase += pi2
        if conjs == 1:
            phase -= pi
    if cs[2] > pi2:
        cs[2] -= 3 * pi2
        k1l = k1l @ _IPZ
        k1r = k1r @ _IPZ
        phase += pi2
        if conjs == 1:
            phase -= pi
    if conjs == 1:
        cs[2] = pi2 - cs[2]
        k1l = k1l @ _IPZ
        k2r = _IPZ @ k2r
        phase += pi2
    if cs[2] > pi4:
        cs[2] -= pi2
        k1l = k1l @ _IPZ
        k1r = k1r @ _IPZ
        phase -= pi2

    a, b, c = float(cs[1]), float(cs[0]), float(cs[2])
    core = entangling_core(a, b, c)
    rebuilt = np.exp(1j * phase) * (np.kron(k1l, k1r) @ core @ np.kron(k2l, k2r))
    if np.max(np.abs(rebuilt - u)) > atol:
        raise DecompositionError("Weyl decomposition failed to reconstruct the input")
    return k1l, k1r, a, b, c, k2l, k2r, phase


def _zyz_angles(k: np.ndarray) -> tuple[float, float, float, float]:
    """(a0, a1, a2, phase) of one 2x2 unitary k, so that
    k = exp(i*phase) * Rz(a2) @ Ry(a1) @ Rz(a0)."""
    c_abs = abs(k[0, 0])
    s_abs = abs(k[1, 0])
    a1 = 2.0 * math.atan2(s_abs, c_abs)
    if c_abs >= s_abs:
        total = float(np.angle(k[1, 1] * np.conj(k[0, 0])))  # a0 + a2
        if s_abs > 1e-12:
            a2 = float(np.angle(k[1, 0] * np.conj(k[0, 0])))
            a0 = total - a2
        else:
            a2 = 0.0
            a0 = total
        phase = float(np.angle(k[0, 0])) + 0.5 * (a0 + a2)
    else:
        diff = float(np.angle(-k[0, 1] * np.conj(k[1, 0])))  # a0 - a2
        if c_abs > 1e-12:
            a0 = float(np.angle(k[1, 1] * np.conj(k[1, 0])))
            a2 = a0 - diff
        else:
            a2 = 0.0
            a0 = diff
        phase = float(np.angle(k[1, 0])) + 0.5 * (a0 - a2)
    return a0, a1, a2, phase


def reference_kak_decompose(u: np.ndarray, atol: float = 1e-10) -> GateParams:
    """The magic-basis KAK decomposition of one 4x4 unitary (Kraus & Cirac,
    quant-ph/0011050), one gate at a time."""
    k1l, k1r, a, b, c, k2l, k2r, global_phase = _weyl_decompose(u, atol)
    pre_low = _zyz_angles(k2r)
    pre_high = _zyz_angles(k2l)
    post_low = _zyz_angles(k1r)
    post_high = _zyz_angles(k1l)
    phase = global_phase + pre_low[3] + pre_high[3] + post_low[3] + post_high[3]
    params = GateParams(
        pre=(*pre_low[:3], *pre_high[:3]),
        entangling=(a, b, c),
        post=(*post_low[:3], *post_high[:3]),
        phase=phase,
    )
    if np.max(np.abs(reference_matrix(params) - u)) > atol:
        raise DecompositionError("KAK parameter extraction failed to reconstruct the input")
    return params
