"""Two-qubit gate mathematics: 15-parameter gate form, Haar sampling, and
the Cartan/Weyl-chamber decomposition that expresses any 4x4 unitary in it.

Conventions used throughout the package:

* Within a gate pair, the lower qubit is the less significant bit of the
  4-dimensional basis index, so a product of single-qubit operations has
  the matrix ``kron(U_high, U_low)``.
* Single-qubit rotations are ZYZ Euler triples,
  ``u(t) = Rz(t[2]) @ Ry(t[1]) @ Rz(t[0])`` (``t[0]`` applied first).
* The entangling core is ``exp(i*(a XX + b YY + c ZZ))`` with canonical
  angles ``pi/4 >= a >= b >= |c|`` (Weyl chamber).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
XX = np.kron(_X, _X)
YY = np.kron(_Y, _Y)
ZZ = np.kron(_Z, _Z)

# Magic (Bell-phase) basis; conjugating by it maps SU(2) x SU(2) onto SO(4).
MAGIC = np.array(
    [
        [1, 1j, 0, 0],
        [0, 0, 1j, 1],
        [0, 0, 1j, -1],
        [1, -1j, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)
MAGIC_DAG = MAGIC.conj().T

# i*Pauli "flippers" used by the Weyl-chamber reduction.
_ipx = 1j * _X
_ipy = 1j * _Y
_ipz = 1j * _Z


def rz_matrix(theta: float) -> np.ndarray:
    e = np.exp(-0.5j * theta)
    return np.array([[e, 0], [0, e.conjugate()]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def unitarity_defect(u: np.ndarray) -> float:
    """Max absolute deviation of u^dag u from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def su2_from_zyz(triple) -> np.ndarray:
    a0, a1, a2 = triple
    return rz_matrix(a2) @ ry_matrix(a1) @ rz_matrix(a0)


def zyz_angles(k: np.ndarray) -> tuple[float, float, float, float]:
    """Split a 2x2 unitary as exp(i*phase) * Rz(a2) @ Ry(a1) @ Rz(a0).

    Returns (a0, a1, a2, phase).  The middle angle lands in [0, pi]; the
    branch choices keep every entry phase-consistent so the reconstruction
    is exact to rounding, not just up to phase.
    """
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


def entangling_core(a: float, b: float, c: float) -> np.ndarray:
    """exp(i*(a XX + b YY + c ZZ)), evaluated as a commuting product."""
    eye = np.eye(4, dtype=complex)
    m = math.cos(a) * eye + 1j * math.sin(a) * XX
    m = m @ (math.cos(b) * eye + 1j * math.sin(b) * YY)
    m = m @ (math.cos(c) * eye + 1j * math.sin(c) * ZZ)
    return m


@dataclass(frozen=True)
class GateParams:
    """One two-qubit gate: 15 structural angles plus a global phase.

    ``pre`` and ``post`` each hold six ZYZ angles, the low qubit's triple
    first; ``entangling`` holds the (a, b, c) interaction angles.  The gate
    unitary is ``exp(i*phase) * kron(post_high, post_low) @ core(a, b, c)
    @ kron(pre_high, pre_low)``.
    """

    pre: tuple[float, ...]
    entangling: tuple[float, float, float]
    post: tuple[float, ...]
    phase: float = 0.0

    def __post_init__(self) -> None:
        if len(self.pre) != 6 or len(self.post) != 6 or len(self.entangling) != 3:
            raise ValueError("GateParams needs 6 + 3 + 6 angles")

    def matrix(self) -> np.ndarray:
        pre = np.kron(su2_from_zyz(self.pre[3:6]), su2_from_zyz(self.pre[0:3]))
        post = np.kron(su2_from_zyz(self.post[3:6]), su2_from_zyz(self.post[0:3]))
        core = entangling_core(*self.entangling)
        return np.exp(1j * self.phase) * (post @ core @ pre)

    def to_vector(self) -> np.ndarray:
        return np.array([*self.pre, *self.entangling, *self.post, self.phase])

    @classmethod
    def from_vector(cls, vec) -> "GateParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (16,):
            raise ValueError("parameter vector must have 16 entries")
        return cls(
            pre=tuple(vec[0:6]),
            entangling=tuple(vec[6:9]),
            post=tuple(vec[9:15]),
            phase=float(vec[15]),
        )

    @classmethod
    def identity(cls) -> "GateParams":
        return cls(pre=(0.0,) * 6, entangling=(0.0, 0.0, 0.0), post=(0.0,) * 6)


PARAMS_PER_GATE = 16


def haar_random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(4) sample: complex Ginibre + QR with the R diagonal
    phase-normalized, which removes the QR gauge bias."""
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _diagonalize_complex_symmetric(m2: np.ndarray, atol: float = 1e-11):
    """Real orthogonal P with P.T @ m2 @ P diagonal, for complex-symmetric
    unitary m2.

    Re(m2) and Im(m2) commute, so a real linear mix of the two separates
    degenerate eigenspaces; a few deterministic mixes followed by seeded
    random ones cover the pathological cases.
    """
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


def split_product_gate(m: np.ndarray):
    """Split m ~ kron(L, R) with m in SU(4) into SU(2) factors plus the
    residual phase, so m = exp(i*phase) * kron(L, R)."""
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


@dataclass(frozen=True)
class WeylDecomposition:
    """u = exp(i*global_phase) * kron(k1l, k1r) @ core(a, b, c) @ kron(k2l, k2r)
    with pi/4 >= a >= b >= |c|.  The ``l`` factors act on the high qubit."""

    k1l: np.ndarray
    k1r: np.ndarray
    a: float
    b: float
    c: float
    k2l: np.ndarray
    k2r: np.ndarray
    global_phase: float

    def matrix(self) -> np.ndarray:
        core = entangling_core(self.a, self.b, self.c)
        m = np.kron(self.k1l, self.k1r) @ core @ np.kron(self.k2l, self.k2r)
        return np.exp(1j * self.global_phase) * m


def weyl_decompose(u: np.ndarray, atol: float = 1e-10) -> WeylDecomposition:
    """Cartan decomposition of a 4x4 unitary with Weyl-chamber canonical
    interaction angles.

    Follows the magic-basis construction: bring u into SU(4), diagonalize
    the complex-symmetric product M^T M of its magic-basis image over SO(4),
    read the interaction angles off the eigenvalue phases, then fold the
    angles into the chamber pi/4 >= a >= b >= |c| while pushing the
    compensating sign flips into the local factors and the global phase.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DecompositionError("expected a 4x4 matrix")
    if unitarity_defect(u) > 1e-10:
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

    # Reorder the eigenvalues so the angles land near the Weyl chamber.
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

    k1l, k1r, phase_l = split_product_gate(k1)
    k2l, k2r, phase_r = split_product_gate(k2)
    phase += phase_l + phase_r

    # Fold into the chamber; each move is a local operation plus a phase.
    if cs[0] > pi2:
        cs[0] -= 3 * pi2
        k1l = k1l @ _ipy
        k1r = k1r @ _ipy
        phase += pi2
    if cs[1] > pi2:
        cs[1] -= 3 * pi2
        k1l = k1l @ _ipx
        k1r = k1r @ _ipx
        phase += pi2
    conjs = 0
    if cs[0] > pi4:
        cs[0] = pi2 - cs[0]
        k1l = k1l @ _ipy
        k2r = _ipy @ k2r
        conjs += 1
        phase -= pi2
    if cs[1] > pi4:
        cs[1] = pi2 - cs[1]
        k1l = k1l @ _ipx
        k2r = _ipx @ k2r
        conjs += 1
        phase += pi2
        if conjs == 1:
            phase -= pi
    if cs[2] > pi2:
        cs[2] -= 3 * pi2
        k1l = k1l @ _ipz
        k1r = k1r @ _ipz
        phase += pi2
        if conjs == 1:
            phase -= pi
    if conjs == 1:
        cs[2] = pi2 - cs[2]
        k1l = k1l @ _ipz
        k2r = _ipz @ k2r
        phase += pi2
    if cs[2] > pi4:
        cs[2] -= pi2
        k1l = k1l @ _ipz
        k1r = k1r @ _ipz
        phase -= pi2

    result = WeylDecomposition(
        k1l=k1l,
        k1r=k1r,
        a=float(cs[1]),
        b=float(cs[0]),
        c=float(cs[2]),
        k2l=k2l,
        k2r=k2r,
        global_phase=phase,
    )
    if np.max(np.abs(result.matrix() - u)) > atol:
        raise DecompositionError("Weyl decomposition failed to reconstruct the input")
    return result


def kak_decompose(u: np.ndarray, atol: float = 1e-10) -> GateParams:
    """Express a 4x4 unitary as GateParams with canonical entangling angles.

    The reconstruction ``kak_decompose(u).matrix()`` matches ``u`` exactly
    (including global phase) to within ``atol``.
    """
    w = weyl_decompose(u, atol=atol)
    pre_low = zyz_angles(w.k2r)
    pre_high = zyz_angles(w.k2l)
    post_low = zyz_angles(w.k1r)
    post_high = zyz_angles(w.k1l)
    phase = (
        w.global_phase
        + pre_low[3]
        + pre_high[3]
        + post_low[3]
        + post_high[3]
    )
    params = GateParams(
        pre=(*pre_low[:3], *pre_high[:3]),
        entangling=(w.a, w.b, w.c),
        post=(*post_low[:3], *post_high[:3]),
        phase=phase,
    )
    if np.max(np.abs(params.matrix() - u)) > atol:
        raise DecompositionError("KAK parameter extraction failed to reconstruct the input")
    return params
