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

One batched constructor, ``gate_factors``, builds every gate matrix in the
package from a ``(G, 16)`` array of ``GateParams.to_vector()`` rows, in
closed form: each ZYZ factor's entries straight from its angles, and the
core as a diagonal in the magic basis (Kraus & Cirac, quant-ph/0011050).
``gate_matrices`` returns its unitaries, and ``GateParams.matrix`` is the
one-row case.  The optimizer's gradient goes through the same factors:
``gate_gradients`` turns the gates' (G, 4, 4) environments into every
parameter derivative of the peak probability without forming any dU/dtheta
matrix.  One batched decomposition, ``kak_decompose``, turns a
``(G, 4, 4)`` stack of unitaries into G GateParams with one ZYZ split of
all their local factors, and a single 4x4 matrix is its one-element stack.
Construction and decomposition give each gate the bits of a one-gate call,
so circuit builders build and decompose all their gates at once without
changing artifacts.  ``kak_decompose`` checks its input's unitarity and
its own reconstruction entry-wise to within ``ATOL``, the one tolerance
that QASM synthesis verifies against too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError

ATOL = 1e-10

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
    """Max absolute deviation of u^dag u from the identity, over every
    matrix of a stack; NaN when an entry is not finite."""
    u = np.asarray(u)
    with np.errstate(invalid="ignore"):  # inf * 0 in the product: the NaN is the answer
        return float(np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1]))))


def su2_from_zyz(triple) -> np.ndarray:
    a0, a1, a2 = triple
    return rz_matrix(a2) @ ry_matrix(a1) @ rz_matrix(a0)


def zyz_angles(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split each 2x2 unitary of a (..., 2, 2) stack as
    exp(i*phase) * Rz(a2) @ Ry(a1) @ Rz(a0).

    Returns the arrays (a0, a1, a2, phase), each of the stack's shape.  The
    middle angle lands in [0, pi].  The larger of |k00| and |k10| fixes the
    phase, so the reconstruction is exact to rounding, not just up to
    phase.  Every step is elementwise, so a matrix's angles do not depend on
    the stack.
    """
    k00, k01, k10, k11 = k[..., 0, 0], k[..., 0, 1], k[..., 1, 0], k[..., 1, 1]
    c_abs, s_abs = np.abs(k00), np.abs(k10)
    a1 = 2.0 * np.arctan2(s_abs, c_abs)
    cos = c_abs >= s_abs
    # |c| >= |s|: a0 + a2 = arg(k11 / k00), and a2 = arg(k10 / k00), or 0
    # when k10 vanishes.  |c| < |s|: a0 - a2 = arg(-k01 / k10), and a0 =
    # arg(k11 / k10), or a0 - a2 when k00 vanishes.
    lead = np.where(cos, k00, k10)
    known = np.angle(np.where(cos, k11, -k01) * lead.conj())
    free = np.angle(np.where(cos, k10, k11) * lead.conj())
    free = np.where(np.where(cos, s_abs, c_abs) > 1e-12, free, np.where(cos, 0.0, known))
    a0 = np.where(cos, known - free, free)
    a2 = np.where(cos, free, free - known)
    phase = np.angle(lead) + 0.5 * np.where(cos, a0 + a2, a0 - a2)
    return a0, a1, a2, phase


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
        return gate_matrices(self.to_vector()[None])[0]

    def to_vector(self) -> np.ndarray:
        return np.array([*self.pre, *self.entangling, *self.post, self.phase])

    @classmethod
    def from_vector(cls, vec) -> "GateParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (16,):
            raise ValueError("parameter vector must have 16 entries")
        row = vec.tolist()  # Python floats, with the array's bits
        return cls(pre=tuple(row[0:6]), entangling=tuple(row[6:9]), post=tuple(row[9:15]), phase=row[15])

    @classmethod
    def identity(cls) -> "GateParams":
        return cls(pre=(0.0,) * 6, entangling=(0.0, 0.0, 0.0), post=(0.0,) * 6)


PARAMS_PER_GATE = 16

_EYE2 = np.eye(2)
_DIAG = np.arange(4)
# The diagonals of MAGIC^dag {XX, YY, ZZ} MAGIC, which are +-1: the core is
# diagonal in MAGIC, core(a, b, c) = MAGIC diag(lam) MAGIC^dag with
# lam = exp(i (a, b, c) @ _SIGNS).
_SIGNS = np.rint(np.diagonal(MAGIC_DAG @ np.stack((XX, YY, ZZ)) @ MAGIC, axis1=1, axis2=2).real)
# Columns of a parameter row holding the ZYZ triples, in the order pre low,
# pre high, post low, post high.
_TRIPLE_COLUMNS = np.r_[0:6, 9:15]


def _angle_sources() -> tuple[np.ndarray, np.ndarray]:
    """The angles that gate_factors exponentiates, each a weighted sum of
    at most three parameters: (25, 3) arrays of parameter columns and their
    weights, padded with weight 0.

    Per ZYZ triple (t0, t1, t2), five angles: t1/2, then the phases of u's
    entries 00, 01, 10 and 11, -(t0 + t2)/2, (t0 - t2)/2, -(t0 - t2)/2 and
    (t0 + t2)/2.  Then the four phases (a, b, c) @ _SIGNS of the core's
    magic-basis diagonal, and last the global phase.
    """
    angles = []
    for t0 in _TRIPLE_COLUMNS[::3]:
        t1, t2 = t0 + 1, t0 + 2
        angles.append(((t1, t1, t1), (0.5, 0.0, 0.0)))
        for w0, w2 in ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)):
            angles.append(((t0, t2, t0), (w0, w2, 0.0)))
    angles += [((6, 7, 8), tuple(signs)) for signs in _SIGNS.T]
    angles.append(((15, 15, 15), (1.0, 0.0, 0.0)))
    columns, weights = zip(*angles)
    return np.array(columns), np.array(weights)


_ANGLE_SOURCES, _ANGLE_WEIGHTS = _angle_sources()
# A triple's exp(i t1/2) = c + i s is entry 5j of the exponentials, so c and
# s are 10j and 10j + 1 of their real view.  Per entry 00, 01, 10, 11 of u,
# these pick its t1-derivative times 2, (-s, -c, c, -s), and its modulus,
# (c, -s, s, c), interleaved.
_MODULI_INDEX = 10 * np.arange(4)[:, None] + [1, 0, 0, 1, 0, 1, 1, 0]
_MODULI_SIGNS = np.array([-1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _gradient_weights() -> tuple[np.ndarray, np.ndarray]:
    """The constant maps of gate_gradients' last steps.

    Per triple, (8, 3): from Re(r) * d(moduli) and Im(r) * moduli,
    interleaved per entry, to (t0, t1, t2).  d/dt0 scales u's columns and
    d/dt2 its rows by (-i/2, i/2), and 2 Re(-i/2 z) = Im(z).

    Per gate, (32, 4): from the real view of y = phase pre F post core to
    (a, b, c, phase).  With m = diag(MAGIC^dag y MAGIC), the core angles'
    derivatives are 2 Re(i m @ _SIGNS.T) and the phase's 2 Re(i tr y), both
    in Im(m), and Im(m[k]) = sum(Re(K[k]) Im(y) + Im(K[k]) Re(y)) with
    K[k][i, j] = conj(MAGIC[i, k]) MAGIC[j, k].
    """
    triples = np.zeros((8, 3))
    triples[0::2, 1] = 1.0
    triples[1::2, 0] = (1.0, -1.0, 1.0, -1.0)
    triples[1::2, 2] = (1.0, 1.0, -1.0, -1.0)
    k = np.einsum("ik,jk->kij", MAGIC.conj(), MAGIC).reshape(4, 16)
    k = (np.rint(2 * k.real) + 1j * np.rint(2 * k.imag)) / 2  # exactly 0, +-1/2 or +-i/2
    im_m = np.empty((32, 4))
    im_m[0::2], im_m[1::2] = k.imag.T, k.real.T
    signs = np.vstack((_SIGNS, np.ones(4)))
    return triples, -2.0 * im_m @ signs.T


_TRIPLE_WEIGHTS, _CORE_WEIGHTS = _gradient_weights()


def _kron(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """kron(high, low) over stacks of matrices, as np.kron forms it."""
    prod = high[..., :, None, :, None] * low[..., None, :, None, :]
    rows, cols = high.shape[-2] * low.shape[-2], high.shape[-1] * low.shape[-1]
    return prod.reshape(prod.shape[:-4] + (rows, cols))


def _magic_core(lam: np.ndarray) -> np.ndarray:
    """MAGIC diag(lam) MAGIC^dag over the last axis of lam."""
    return (MAGIC * lam[..., None, :]) @ MAGIC_DAG


class GateFactors(NamedTuple):
    """G gates' unitaries, U = phase * post @ core @ pre, and the factors
    that gate_gradients reads."""

    unitaries: np.ndarray  # (G, 4, 4)
    local: np.ndarray  # (G, 4, 2, 2) ZYZ factors: pre low, pre high, post low, post high
    local_phases: np.ndarray  # (G, 4, 4) phases of their entries
    local_moduli: np.ndarray  # (G, 4, 8) their t1-derivatives times 2 and moduli, interleaved
    pre: np.ndarray  # (G, 4, 4) kron(pre high, pre low)
    post: np.ndarray  # (G, 4, 4) kron(post high, post low)
    core: np.ndarray  # (G, 4, 4) core(a, b, c)
    core_pre: np.ndarray  # (G, 4, 4) core @ pre
    phase: np.ndarray  # (G, 1, 1) exp(i phase)


def gate_factors(params: np.ndarray) -> GateFactors:
    """G gates from their (G, 16) parameter rows, each in to_vector() order.

    Every angle goes through one complex exponential: each entry of a ZYZ
    triple is c = cos(t1/2) or s = sin(t1/2) times exp(-+i(t0 +- t2)/2), and
    the core is MAGIC diag(lam) MAGIC^dag.  Every step is elementwise, a sum
    within a gate's row or a matmul per gate, so a gate's bits do not depend
    on G.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != PARAMS_PER_GATE:
        raise ValueError(f"gate parameters must have shape (G, {PARAMS_PER_GATE})")
    g = len(params)
    exps = np.exp(1j * (np.take(params, _ANGLE_SOURCES, axis=1) * _ANGLE_WEIGHTS).sum(2))
    moduli = exps.view(float)[:, _MODULI_INDEX] * _MODULI_SIGNS
    phases = exps[:, :20].reshape(g, 4, 5)[..., 1:]
    local = (moduli[..., 1::2] * phases).reshape(g, 4, 2, 2)
    pre_post = _kron(local[:, 1::2], local[:, 0::2])
    pre, post = pre_post[:, 0], pre_post[:, 1]
    core = _magic_core(exps[:, 20:24])
    core_pre = core @ pre
    phase = exps[:, 24, None, None]
    return GateFactors(phase * (post @ core_pre), local, phases, moduli, pre, post, core, core_pre, phase)


def gate_matrices(params: np.ndarray) -> np.ndarray:
    """Unitaries of G gates from their (G, 16) parameter rows, each in
    to_vector() order, as a (G, 4, 4) stack (see gate_factors)."""
    return gate_factors(params).unitaries


def gate_gradients(factors: GateFactors, envs: np.ndarray) -> np.ndarray:
    """2 Re sum(E * dU/dtheta) for all 16 parameters of every gate, as a
    (G, 16) array in to_vector() order, from the gates' factors and their
    (G, 4, 4) environments E.

    With F = E.T the sum is 2 Re tr(F dU), so each factor of U takes its
    derivative against the rest of the product: x_pre = phase F post core
    against d(pre), x_post = phase core pre F against d(post).  Against a
    kron(A, B), tr(x kron(A, dB)) = sum(W * dB) with W[b, d] =
    sum x[(c, d), (a, b)] A[a, c], and likewise for dA: two partial traces.
    Each ZYZ factor's derivatives are elementwise in its entries, and the
    core's and the phase's are linear in y = pre @ x_pre (see
    _gradient_weights).
    """
    g = len(envs)
    f, phase = np.swapaxes(envs, 1, 2), factors.phase
    x = np.empty((g, 2, 4, 4), dtype=complex)
    np.matmul(f, factors.post @ (phase * factors.core), out=x[:, 0])
    np.matmul(phase * factors.core_pre, f, out=x[:, 1])
    x6 = x.reshape(g, 2, 2, 2, 2, 2)
    w = np.empty((g, 2, 2, 2, 2), dtype=complex)  # pre, post; low, high; 2x2
    np.einsum("gkcdab,gkac->gkbd", x6, factors.local[:, 1::2], out=w[:, :, 0])
    np.einsum("gkcdab,gkbd->gkac", x6, factors.local[:, 0::2], out=w[:, :, 1])
    r = (w.reshape(g, 4, 4) * factors.local_phases).view(float)
    triples = ((r * factors.local_moduli) @ _TRIPLE_WEIGHTS).reshape(g, 12)
    # a, b, c and the phase, by one (1, 32) @ (32, 4) product per gate: as a
    # (G, 32) GEMM, a gate's bits would depend on G.
    y = (factors.pre @ x[:, 0]).reshape(g, 1, 16).view(float)
    rest = (y @ _CORE_WEIGHTS).reshape(g, 4)
    return np.concatenate((triples[:, :6], rest[:, :3], triples[:, 6:], rest[:, 3:]), axis=1)


def haar_random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(4) sample: complex Ginibre + QR with the R diagonal
    phase-normalized, which removes the QR gauge bias."""
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _mixes():
    """The real mixes wr * Re(m2) + wi * Im(m2) that _diagonalize_stack
    tries in turn: three fixed ones, then seeded random ones for the
    pathological cases, drawn only once those are reached."""
    yield from ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    yield from np.random.default_rng(2020).normal(size=(37, 2))


def _diagonalize_stack(m2: np.ndarray):
    """Real orthogonal P with P.T @ m2 @ P diagonal, and that diagonal, for
    each complex-symmetric unitary m2 of a (G, 4, 4) stack.

    Re(m2) and Im(m2) commute, so a real linear mix of the two separates
    degenerate eigenspaces.  Each mix of _mixes runs once, over the gates
    whose off-diagonal residual every earlier mix left above 1e-11.
    """
    p = np.empty(m2.shape)
    diag = np.empty(m2.shape[:2], dtype=complex)
    todo = np.arange(len(m2))
    for wr, wi in _mixes():
        sub = m2[todo]
        _, q = np.linalg.eigh(wr * sub.real + wi * sub.imag)
        d = np.swapaxes(q, 1, 2) @ sub @ q
        p[todo], diag[todo] = q, np.diagonal(d, axis1=1, axis2=2)
        d[:, _DIAG, _DIAG] = 0.0
        todo = todo[np.max(np.abs(d), axis=(1, 2)) > 1e-11]
        if not len(todo):
            return p, diag
    raise DecompositionError("failed to diagonalize the symmetric magic-basis product")


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a (G, 2, 2) stack."""
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]


def split_product_gate(m: np.ndarray):
    """Split each m ~ kron(L, R) of a (G, 4, 4) stack in SU(4) into SU(2)
    factors, so m = kron(L, R) up to a global phase.  Returns the (G, 2, 2)
    stacks L and R."""
    r = m[:, :2, :2].copy()
    det_r = _det2(r)
    lower = np.abs(det_r) < 0.1
    if lower.any():
        r[lower] = m[lower, 2:, :2]
        det_r[lower] = _det2(r[lower])
    if (np.abs(det_r) < 0.1).any():
        raise DecompositionError("gate is not a tensor product of single-qubit gates")
    r /= np.sqrt(det_r)[:, None, None]

    temp = m @ _kron(_EYE2, np.swapaxes(r.conj(), 1, 2))
    left = temp[:, ::2, ::2].copy()
    det_l = _det2(left)
    if (np.abs(det_l) < 0.9).any():
        raise DecompositionError("gate is not a tensor product of single-qubit gates")
    left /= np.sqrt(det_l)[:, None, None]

    overlap = np.trace(np.swapaxes(_kron(left, r).conj(), 1, 2) @ m, axis1=1, axis2=2)
    deviation = np.max(np.abs(np.abs(overlap) - 4.0))
    if deviation > 1e-11:
        raise DecompositionError(f"tensor-product split failed (deviation {deviation:.2e})")
    return left, r


def _weyl_stack(u: np.ndarray):
    """Cartan decomposition of each unitary of a (G, 4, 4) stack,
    u = exp(i*phase) * kron(k1l, k1r) @ core(a, b, c) @ kron(k2l, k2r) with
    pi/4 >= a >= b >= |c|, where the ``l`` factors act on the high qubit.
    Returns the (G, 2, 2) stacks k1l, k1r, k2l, k2r, the (G, 3) angles
    (a, b, c) and the (G,) phases.

    Follows the magic-basis construction: bring u into SU(4), diagonalize
    the complex-symmetric product M^T M of its magic-basis image over SO(4),
    read the interaction angles off the eigenvalue phases, then fold the
    angles into the chamber while pushing the compensating sign flips into
    the local factors.  The global phase is read once, from the overlap of
    u with the rebuilt product.

    Every step is elementwise, a reduction within one gate, a matmul or
    LAPACK call per gate, or a chamber move under a mask, so a gate's result
    does not depend on the stack.
    """
    if not unitarity_defect(u) <= ATOL:  # also catches NaN from non-finite input
        raise DecompositionError("input matrix is not unitary")

    pi2, pi4 = np.pi / 2, np.pi / 4

    det_u = np.linalg.det(u)
    su = u * (det_u ** -0.25)[:, None, None]
    up = MAGIC_DAG @ su @ MAGIC
    m2 = np.swapaxes(up, 1, 2) @ up

    p, d_diag = _diagonalize_stack(m2)
    d = -np.angle(d_diag) / 2.0
    d[:, 3] = -d[:, 0] - d[:, 1] - d[:, 2]
    cs = np.mod((d[:, :3] + d[:, 3:]) / 2.0, 2.0 * np.pi)

    # Reorder the eigenvalues so the angles land near the Weyl chamber.
    cstemp = np.mod(cs, pi2)
    np.minimum(cstemp, pi2 - cstemp, out=cstemp)
    order = np.argsort(cstemp, axis=1)[:, [1, 2, 0]]
    cs = np.take_along_axis(cs, order, axis=1)
    d[:, :3] = np.take_along_axis(d[:, :3], order, axis=1)
    p[:, :, :3] = np.take_along_axis(p[:, :, :3], order[:, None, :], axis=2)
    flip = np.real(np.linalg.det(p)) < 0
    p[flip, :, -1] = -p[flip, :, -1]

    phases = np.zeros(d.shape + (4,), dtype=complex)
    phases[:, _DIAG, _DIAG] = np.exp(1j * d)
    k1l, k1r = split_product_gate(MAGIC @ (up @ p @ phases) @ MAGIC_DAG)
    k2l, k2r = split_product_gate(MAGIC @ np.swapaxes(p, 1, 2) @ MAGIC_DAG)

    # Fold into the chamber; each move is a local operation up to a phase.
    # A move at column col sets cs[:, col] to value, right-multiplies k1l
    # and either right-multiplies k1r or left-multiplies k2r by a flipper,
    # in the gates whose mask is set.
    def move(mask, col, value, flipper, on_k1r):
        if not mask.any():
            return
        cs[mask, col] = value[mask]
        k1l[mask] = k1l[mask] @ flipper
        if on_k1r:
            k1r[mask] = k1r[mask] @ flipper
        else:
            k2r[mask] = flipper @ k2r[mask]

    move(cs[:, 0] > pi2, 0, cs[:, 0] - 3 * pi2, _ipy, True)
    move(cs[:, 1] > pi2, 1, cs[:, 1] - 3 * pi2, _ipx, True)
    conjs = np.zeros(len(u), dtype=int)
    for col, flipper in ((0, _ipy), (1, _ipx)):
        mask = cs[:, col] > pi4
        move(mask, col, pi2 - cs[:, col], flipper, False)
        conjs += mask
    move(cs[:, 2] > pi2, 2, cs[:, 2] - 3 * pi2, _ipz, True)
    move(conjs == 1, 2, pi2 - cs[:, 2], _ipz, False)
    move(cs[:, 2] > pi4, 2, cs[:, 2] - pi2, _ipz, True)

    angles = cs[:, [1, 0, 2]]
    core = _magic_core(np.exp(1j * (angles[:, :, None] * _SIGNS).sum(1)))
    rebuilt = _kron(k1l, k1r) @ core @ _kron(k2l, k2r)
    phase = np.angle(np.sum(rebuilt.conj() * u, axis=(1, 2)))
    if np.max(np.abs(np.exp(1j * phase)[:, None, None] * rebuilt - u)) > ATOL:
        raise DecompositionError("Weyl decomposition failed to reconstruct the input")
    return k1l, k1r, k2l, k2r, angles, phase


def kak_decompose(u: np.ndarray):
    """Express a 4x4 unitary as GateParams with canonical entangling angles,
    or a (G, 4, 4) stack as a tuple of G GateParams.

    A matrix is the one-element stack, and each gate's parameters are bit
    for bit those of its own one-matrix call.  The reconstruction
    ``kak_decompose(u).matrix()`` matches ``u`` exactly (including global
    phase) to within ATOL.
    """
    stack = np.asarray(u, dtype=complex)
    if stack.ndim not in (2, 3) or stack.shape[-2:] != (4, 4):
        raise DecompositionError("expected a 4x4 matrix or a (G, 4, 4) stack")
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if not len(stack):
        return ()
    k1l, k1r, k2l, k2r, angles, weyl_phase = _weyl_stack(stack)
    # One ZYZ split for all four local factors, in to_vector() order: pre
    # low, pre high, post low, post high.
    *triples, local_phase = zyz_angles(np.stack((k2r, k2l, k1r, k1l), axis=1))
    triples = np.stack(triples, axis=2).reshape(len(stack), 12)
    phase = weyl_phase + local_phase.sum(1)
    rows = np.concatenate((triples[:, :6], angles, triples[:, 6:], phase[:, None]), axis=1)
    out = []
    for ug, row in zip(stack, rows.tolist()):
        params = GateParams(tuple(row[0:6]), tuple(row[6:9]), tuple(row[9:15]), row[15])
        if np.max(np.abs(params.matrix() - ug)) > ATOL:
            raise DecompositionError("KAK parameter extraction failed to reconstruct the input")
        out.append(params)
    return out[0] if single else tuple(out)
