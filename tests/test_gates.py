import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_reference import (
    entangling_core,
    reference_derivatives,
    reference_kak_decompose,
    reference_matrix,
    same_bits,
)
from prcbench.errors import DecompositionError
from prcbench.gates import (
    ATOL,
    GateParams,
    gate_factors,
    gate_gradients,
    gate_matrices,
    haar_random_unitary,
    kak_decompose,
    su2_from_zyz,
    unitarity_defect,
    zyz_angles,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def test_haar_unitarity_and_determinism():
    u1 = haar_random_unitary(np.random.default_rng(0))
    u2 = haar_random_unitary(np.random.default_rng(0))
    assert unitarity_defect(u1) <= 1e-12
    assert np.array_equal(u1, u2)


def test_haar_trace_moment():
    # Monte Carlo check of the Haar moment E|tr U|^2 = 1; |tr U|^2 has unit
    # variance, so 10^4 draws put the standard error at 0.01.
    rng = np.random.default_rng(7)
    vals = [abs(np.trace(haar_random_unitary(rng))) ** 2 for _ in range(10_000)]
    assert abs(np.mean(vals) - 1.0) < 0.03


def test_zyz_roundtrip_random(rng):
    # Haar-random unitaries take both branches, |c| >= |s| and |c| < |s|.
    # Diagonal and anti-diagonal ones, times a phase, take the degenerate
    # sub-branches, where |s| or |c| is at most 1e-12.
    haar = []
    for _ in range(100):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        haar.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    t = rng.uniform(-np.pi, np.pi, (40, 3))
    t[:20, 1], t[20:, 1] = 0.0, np.pi
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, (40, 1, 1)))
    ks = np.concatenate((haar, phases * np.array([su2_from_zyz(row) for row in t])))
    c_abs, s_abs = np.abs(ks[:, 0, 0]), np.abs(ks[:, 1, 0])
    assert (c_abs[:100] >= s_abs[:100]).any() and (c_abs[:100] < s_abs[:100]).any()
    assert (s_abs[100:120] <= 1e-12).all() and (c_abs[120:] <= 1e-12).all()
    for k in ks:
        a0, a1, a2, phase = zyz_angles(k)
        rebuilt = np.exp(1j * phase) * su2_from_zyz((a0, a1, a2))
        assert np.max(np.abs(rebuilt - k)) <= 1e-14
    # There, only a0 + a2 or a0 - a2 is fixed; a2 is pinned to 0, so QASM
    # export emits one Rz for the pair.
    assert not zyz_angles(ks[100:])[2].any()
    # A (3, 4, 2, 2) stack gives each matrix the bits of its own call.
    stack = np.concatenate((ks[:6], ks[100:103], ks[120:123])).reshape(3, 4, 2, 2)
    angles = np.stack(zyz_angles(stack), axis=-1)
    assert angles.shape == (3, 4, 4)
    for i, j in np.ndindex(3, 4):
        assert same_bits(np.stack(zyz_angles(stack[i, j]), axis=-1), angles[i, j])


def test_kak_identity():
    p = kak_decompose(np.eye(4, dtype=complex))
    assert np.allclose(p.entangling, (0.0, 0.0, 0.0), atol=1e-12)
    assert np.max(np.abs(p.matrix() - np.eye(4))) < 1e-12


def test_kak_cnot_canonical_coordinates():
    p = kak_decompose(CNOT)
    assert np.allclose(p.entangling, (np.pi / 4, 0.0, 0.0), atol=1e-10)
    assert np.max(np.abs(p.matrix() - CNOT)) < 1e-10


@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_kak_reconstruction_haar(seed):
    u = haar_random_unitary(np.random.default_rng(seed))
    p = kak_decompose(u)
    assert np.max(np.abs(p.matrix() - u)) <= 1e-10


def test_kak_weyl_chamber_ordering(rng):
    for _ in range(50):
        p = kak_decompose(haar_random_unitary(rng))
        a, b, c = p.entangling
        assert np.pi / 4 + 1e-9 >= a >= b >= abs(c) - 1e-12


def test_kak_rejects_non_unitary():
    with pytest.raises(DecompositionError):
        kak_decompose(np.ones((4, 4), dtype=complex))


def test_kak_of_reconstruction_is_stable(rng):
    # decompose(reconstruct(params)) preserves the canonical interaction
    # angles and the gate matrix.
    for _ in range(20):
        p = kak_decompose(haar_random_unitary(rng))
        p2 = kak_decompose(p.matrix())
        assert np.allclose(p.entangling, p2.entangling, atol=1e-10)
        assert np.max(np.abs(p.matrix() - p2.matrix())) < 1e-10


def test_gate_params_vector_roundtrip(rng):
    p = kak_decompose(haar_random_unitary(rng))
    p2 = GateParams.from_vector(p.to_vector())
    assert p == p2
    assert unitarity_defect(p.matrix()) <= 1e-12


def test_entangling_core_matches_expm():
    from scipy.linalg import expm

    from prcbench.gates import XX, YY, ZZ

    a, b, c = 0.31, 0.17, -0.05
    direct = entangling_core(a, b, c)
    reference = expm(1j * (a * XX + b * YY + c * ZZ))
    assert np.max(np.abs(direct - reference)) < 1e-12


_ANGLE = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)
# Cores on the Weyl chamber's faces and edges, c < 0 among them.
_FACE_CORES = [
    (np.pi / 4, 0.0, 0.0), (np.pi / 4, np.pi / 4, 0.0), (np.pi / 4, np.pi / 4, np.pi / 4),
    (np.pi / 4, np.pi / 4, -np.pi / 4), (0.3, 0.3, -0.3), (np.pi / 4, 0.2, -0.2), (0.4, 0.1, -0.1),
    (0.3, 0.2, -0.1),
]


@st.composite
def _row(draw) -> list[float]:
    """A parameter row: random angles, the identity gate, or random local
    layers around a core on the chamber's boundary."""
    kind = draw(st.sampled_from(["random", "identity", "face"]))
    if kind == "identity":
        return [0.0] * 16
    row = draw(st.lists(_ANGLE, min_size=16, max_size=16))
    if kind == "face":
        row[6:9] = draw(st.sampled_from(_FACE_CORES))
    return row


_ROWS = st.sampled_from([1, 2, 7]).flatmap(lambda g: st.lists(_row(), min_size=g, max_size=g))


def _random_environments(seed: int, g: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((g, 4, 4)) + 1j * rng.standard_normal((g, 4, 4))


def _check_against_reference(rows: np.ndarray, envs: np.ndarray) -> None:
    """Unitaries within 1e-14 of the per-gate formula, and the gradient
    within 1e-12 of 2 Re sum(E * dU) over the reference derivatives."""
    factors = gate_factors(rows)
    grads = gate_gradients(factors, envs)
    assert factors.unitaries.shape == (len(rows), 4, 4)
    assert grads.shape == (len(rows), 16) and grads.dtype == np.float64
    for row, u, env, grad in zip(rows, factors.unitaries, envs, grads):
        p = GateParams.from_vector(row)
        assert np.max(np.abs(u - reference_matrix(p))) <= 1e-14
        want = 2.0 * np.real(np.einsum("ij,mij->m", env, reference_derivatives(p)))
        assert np.max(np.abs(grad - want)) <= 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(_ROWS, st.integers(0, 2**32 - 1))
def test_batched_gate_algebra_rows_match_one_row_calls(rows, seed):
    rows = np.array(rows)
    unitaries = gate_matrices(rows)
    assert same_bits(gate_factors(rows).unitaries, unitaries)
    for row, u in zip(rows, unitaries):
        assert same_bits(GateParams.from_vector(row).matrix(), u)
    # The gradient of a gate keeps its bits whatever stack it is taken in.
    envs = _random_environments(seed, len(rows))
    grads = gate_gradients(gate_factors(rows), envs)
    for i in range(len(rows)):
        assert same_bits(gate_gradients(gate_factors(rows[i : i + 1]), envs[i : i + 1])[0], grads[i])


@settings(max_examples=60, deadline=None, database=None)
@given(_ROWS, st.integers(0, 2**32 - 1))
def test_batched_gate_algebra_matches_per_gate_reference(rows, seed):
    rows = np.array(rows)
    _check_against_reference(rows, _random_environments(seed, len(rows)))


def test_batched_identity_gate():
    rows = np.zeros((3, 16))
    u = gate_matrices(rows)
    assert same_bits(u[1], GateParams.identity().matrix())
    assert np.max(np.abs(u - np.eye(4))) <= 1e-15
    _check_against_reference(rows, _random_environments(0, 3))


def test_a_complex_value_written_into_a_float_array_fails():
    # conftest turns ComplexWarning into an error, so a gradient that kept
    # an imaginary part cannot be cast silently into the float result.
    out = np.zeros(2)
    with pytest.raises(np.exceptions.ComplexWarning):
        out[:] = np.array([1.0 + 1e-3j, 2.0])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GateParams((0.0,) * 5, (0.0,) * 3, (0.0,) * 6), "GateParams needs 6 + 3 + 6 angles"),
        (lambda: GateParams.from_vector(np.zeros(15)), "parameter vector must have 16 entries"),
    ],
    ids=["five_pre_angles", "fifteen_entries"],
)
def test_gate_params_refuse_wrong_angle_counts(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("shape", [(16,), (2, 15), (1, 17)])
def test_batched_gate_algebra_rejects_bad_shape(shape):
    with pytest.raises(ValueError, match=r"\(G, 16\)"):
        gate_matrices(np.zeros(shape))


# Degenerate gates for the stacked decomposition: named gates, products of
# single-qubit gates, cores on the Weyl chamber's faces and edges (the
# CNOT-class ones, dressed or not, fail the first diagonalizing mix and go
# through the retry loop), and small perturbations of all of these.
_NAMED = {"I": np.eye(4, dtype=complex), "CNOT": CNOT, "SWAP": SWAP}
_BOUNDARY_CORES = [
    (0.0, 0.0, 0.0), (np.pi / 4, 0.0, 0.0), (np.pi / 4, np.pi / 4, 0.0),
    (np.pi / 4, np.pi / 4, np.pi / 4), (np.pi / 4, np.pi / 4, -np.pi / 4),
    (np.pi / 2, np.pi / 4, 0.0), (0.3, 0.3, 0.0), (np.pi / 4, 0.2, 0.2), (0.4, 0.1, 0.1),
]


def _local(rng) -> np.ndarray:
    high, low = (su2_from_zyz(rng.uniform(-np.pi, np.pi, 3)) for _ in range(2))
    return np.kron(high, low)


@st.composite
def _gate(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["haar", "named", "kron", "core", "dressed", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return haar_random_unitary(rng)
    if kind == "kron":
        return _local(rng)
    if kind == "named" or (kind == "perturbed" and draw(st.booleans())):
        base = _NAMED[draw(st.sampled_from(sorted(_NAMED)))]
    else:
        base = entangling_core(*draw(st.sampled_from(_BOUNDARY_CORES)))
    if kind in ("named", "core"):
        return base
    if kind == "dressed" or draw(st.booleans()):
        base = _local(rng) @ base @ _local(rng)
    if kind == "dressed":
        return base
    # exp(i * eps * H) for a random Hermitian H, eps in 1e-12..1e-6.
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh(h + h.conj().T)
    eps = 10.0 ** -draw(st.floats(6, 12))
    return base @ ((v * np.exp(1j * eps * w)) @ v.conj().T)


def _check_kak_against_reference(u: np.ndarray, p: GateParams, want: GateParams) -> None:
    """Both decompositions rebuild u within ATOL, by the per-gate formula,
    and agree on the entangling angles.  Their local angles may differ by
    2 pi branches, so they are not compared."""
    assert np.max(np.abs(reference_matrix(p) - u)) <= ATOL
    assert np.max(np.abs(reference_matrix(want) - u)) <= ATOL
    assert np.max(np.abs(np.subtract(p.entangling, want.entangling))) <= 1e-9


@settings(max_examples=80, deadline=None, database=None)
@given(st.lists(_gate(), min_size=1, max_size=8))
def test_stacked_kak_matches_per_gate_reference(mats):
    stack = np.stack(mats)
    try:
        expected = [reference_kak_decompose(u) for u in stack]
    except DecompositionError:
        with pytest.raises(DecompositionError):
            kak_decompose(stack)
        return
    got = kak_decompose(stack)
    assert isinstance(got, tuple) and len(got) == len(stack)
    for u, p, want in zip(stack, got, expected):
        _check_kak_against_reference(u, p, want)
        # Byte equality with the one-matrix call: also tells 0.0 from -0.0.
        assert same_bits(kak_decompose(u).to_vector(), p.to_vector())


def test_stack_reaches_the_retry_loop_and_stays_bit_exact(monkeypatch):
    rng = np.random.default_rng(5)
    stack = np.stack([
        haar_random_unitary(rng), CNOT, entangling_core(np.pi / 2, np.pi / 4, 0.0),
        _local(rng) @ CNOT @ _local(rng), np.kron(su2_from_zyz((0.1, 0.2, 0.3)), np.eye(2)),
        haar_random_unitary(rng),
    ])
    mixed = []  # gates per eigh call, one call per mix
    original = np.linalg.eigh

    def counting(a):
        mixed.append(len(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    got = kak_decompose(stack)
    assert mixed[:2] == [6, 3]  # the second mix runs on three gates
    mixed.clear()
    kak_decompose(stack[[0, 4, 5]])
    assert mixed == [3]  # the others pass the first, so those three are the CNOT-class gates
    monkeypatch.undo()
    for u, p in zip(stack, got):
        _check_kak_against_reference(u, p, reference_kak_decompose(u))
        assert same_bits(kak_decompose(u).to_vector(), p.to_vector())


def test_kak_stack_shapes():
    u = haar_random_unitary(np.random.default_rng(3))
    assert isinstance(kak_decompose(u), GateParams)
    assert kak_decompose(u[None]) == (kak_decompose(u),)
    assert kak_decompose(np.zeros((0, 4, 4))) == ()
    for shape in [(4,), (3, 4), (2, 4, 3), (1, 1, 4, 4)]:
        with pytest.raises(DecompositionError, match="4x4"):
            kak_decompose(np.zeros(shape))


def test_kak_stack_rejects_one_non_unitary_gate():
    rng = np.random.default_rng(4)
    stack = np.stack([haar_random_unitary(rng), np.ones((4, 4)), haar_random_unitary(rng)])
    with pytest.raises(DecompositionError, match="not unitary"):
        kak_decompose(stack)


@pytest.mark.parametrize("kind", ["nan", "nan_diagonal", "inf"])
def test_kak_rejects_non_finite_input(kind):
    # A NaN unitarity defect must fail the check, not slip past it into eigh.
    rng = np.random.default_rng(6)
    u = {
        "nan": np.full((4, 4), np.nan),
        "nan_diagonal": haar_random_unitary(rng) + np.diag(np.full(4, np.nan)),
        "inf": np.full((4, 4), np.inf),
    }[kind]
    with pytest.raises(DecompositionError, match="not unitary"):
        kak_decompose(u)
    stack = np.stack([haar_random_unitary(rng), u, haar_random_unitary(rng)])
    with pytest.raises(DecompositionError, match="not unitary"):
        kak_decompose(stack)
