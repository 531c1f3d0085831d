import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_reference import (
    reference_derivatives,
    reference_kak_decompose,
    reference_matrix,
    same_bits,
)
from prcbench.errors import DecompositionError
from prcbench.gates import (
    GateParams,
    entangling_core,
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
    for _ in range(100):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        k = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a0, a1, a2, phase = zyz_angles(k)
        rebuilt = np.exp(1j * phase) * su2_from_zyz((a0, a1, a2))
        assert np.max(np.abs(rebuilt - k)) < 1e-12


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
@given(_ROWS)
def test_batched_gate_algebra_rows_match_one_row_calls(rows):
    rows = np.array(rows)
    unitaries = gate_matrices(rows)
    assert same_bits(gate_factors(rows).unitaries, unitaries)
    for row, u in zip(rows, unitaries):
        assert same_bits(GateParams.from_vector(row).matrix(), u)


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


@settings(max_examples=80, deadline=None, database=None)
@given(st.lists(_gate(), min_size=1, max_size=8))
def test_stacked_kak_matches_per_gate_reference_bit_for_bit(mats):
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
        # Byte equality: also tells 0.0 from -0.0.
        assert same_bits(p.to_vector(), want.to_vector())
        assert same_bits(kak_decompose(u).to_vector(), want.to_vector())


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
        assert same_bits(p.to_vector(), reference_kak_decompose(u).to_vector())


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
