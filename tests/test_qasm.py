import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_state
from gate_reference import entangling_core
from qasm_reader import replay_distribution

from prcbench import sim
from prcbench.circuits import (
    BitString,
    Circuit,
    brickwall_layout,
    build_exact_inverse_peaking,
    build_reference_circuit,
    derive_subcircuit,
    retarget,
)
from prcbench.errors import DecompositionError
from prcbench.gates import (
    GateParams,
    haar_random_unitary,
    kak_decompose,
    su2_from_zyz,
)
from prcbench.qasm import (
    CNOT_HL,
    decompose_gate,
    emit_qasm,
    gate_count,
    num_cnots_required,
    qasm_filename,
)


def cnots(ops):
    return sum(1 for op in ops if op.name == "cx")


def ops_to_matrix(ops):
    from prcbench.gates import ry_matrix, rz_matrix
    from prcbench.qasm import CNOT_LH, HIGH

    m = np.eye(4, dtype=complex)
    for op in ops:
        if op.name == "cx":
            m = (CNOT_LH if (op.q0, op.q1) == (0, 1) else CNOT_HL) @ m
        else:
            g = rz_matrix(op.angle) if op.name == "rz" else ry_matrix(op.angle)
            m = (np.kron(g, np.eye(2)) if op.q0 == HIGH else np.kron(np.eye(2), g)) @ m
    return m


def phase_aligned_error(m, u):
    tr = np.trace(u.conj().T @ m)
    return float(np.max(np.abs(m * (tr.conjugate() / abs(tr)) - u)))


class TestDecomposeGate:
    def test_identity_zero_cnots(self):
        ops = decompose_gate(GateParams.identity())
        assert cnots(ops) == 0

    def test_cnot_core_at_most_two(self):
        params = kak_decompose(entangling_core(np.pi / 4, 0, 0))
        ops = decompose_gate(params)
        assert cnots(ops) <= 2
        assert phase_aligned_error(ops_to_matrix(ops), params.matrix()) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_generic_gate_exactly_three(self, seed):
        u = haar_random_unitary(np.random.default_rng(seed))
        params = kak_decompose(u)
        ops = decompose_gate(params)
        assert cnots(ops) == 3
        assert phase_aligned_error(ops_to_matrix(ops), u) <= 1e-10

    @pytest.mark.parametrize(
        "ent,max_cx",
        [
            ((0.0, 0.0, 0.0), 0),
            ((np.pi / 4, 0.0, 0.0), 2),
            ((0.37, 0.0, 0.0), 2),
            ((0.37, 0.21, 0.0), 2),
            ((np.pi / 4, np.pi / 4, 0.0), 2),
            ((0.37, 0.21, 0.11), 3),
            ((np.pi / 4, np.pi / 4, np.pi / 4), 3),
        ],
    )
    def test_core_classes(self, ent, max_cx):
        params = kak_decompose(entangling_core(*ent))
        ops = decompose_gate(params)
        assert cnots(ops) <= max_cx
        assert phase_aligned_error(ops_to_matrix(ops), params.matrix()) <= 1e-10

    def test_noncanonical_params_accepted(self):
        # Entangling angles far outside the Weyl chamber still synthesize.
        params = GateParams(
            pre=(0.3, 1.1, -0.4, 0.0, 0.2, 0.9),
            entangling=(2.9, -1.3, 5.0),
            post=(0.1, -0.7, 0.2, 1.4, 0.0, -0.2),
            phase=0.77,
        )
        ops = decompose_gate(params)
        assert phase_aligned_error(ops_to_matrix(ops), params.matrix()) <= 1e-10

    def test_native_set_only(self):
        u = haar_random_unitary(np.random.default_rng(5))
        ops = decompose_gate(kak_decompose(u))
        assert {op.name for op in ops} <= {"rz", "ry", "cx"}


def test_num_cnots_matches_known_gates():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert num_cnots_required(np.eye(4, dtype=complex)) == 0
    assert num_cnots_required(CNOT_HL) == 1
    assert num_cnots_required(swap) == 3
    assert num_cnots_required(haar_random_unitary(np.random.default_rng(0))) == 3


def test_num_cnots_rejects_non_finite_input():
    with pytest.raises(DecompositionError, match="not unitary"):
        num_cnots_required(np.full((4, 4), np.nan))


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_NAMED = {"I": np.eye(4, dtype=complex), "CNOT": CNOT_HL, "SWAP": SWAP}
# Class boundaries of the Weyl chamber mixed with generic angles.
_ANGLE = st.one_of(
    st.sampled_from([0.0, np.pi / 4, -np.pi / 4, np.pi / 2]),
    st.floats(-np.pi, np.pi, allow_nan=False),
)


# On the (pi/2, b, b) line, kak_decompose returns c = -pi for this b.
_B_OFF_CHAMBER = 1.3637501761749167


def _perturbation(rng, eps):
    """exp(i * eps * H) for a random Hermitian H of unit scale."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def _dressing(rng):
    return np.kron(
        su2_from_zyz(rng.uniform(-np.pi, np.pi, 3)), su2_from_zyz(rng.uniform(-np.pi, np.pi, 3))
    )


@settings(max_examples=200, deadline=None, database=None)
@given(
    base=st.one_of(st.sampled_from(sorted(_NAMED)), st.tuples(_ANGLE, _ANGLE, _ANGLE)),
    exponent=st.one_of(st.none(), st.floats(6, 12)),
    dressed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# kak_decompose returns the angles (0.207, 0.207, -pi) here: c is outside the
# chamber, and the gate is class 2 because core(a, b, c + pi) = -core(a, b, c).
@example(base=(np.pi / 2, _B_OFF_CHAMBER, _B_OFF_CHAMBER), exponent=None, dressed=False, seed=0)
def test_synthesis_replays_gate_with_classified_cnots(base, exponent, dressed, seed):
    rng = np.random.default_rng(seed)
    u = _NAMED[base] if isinstance(base, str) else entangling_core(*base)
    if exponent is not None:
        u = _perturbation(rng, 10.0**-exponent) @ u
    if dressed:
        u = _dressing(rng) @ u @ _dressing(rng)
    ops = decompose_gate(kak_decompose(u))
    assert phase_aligned_error(ops_to_matrix(ops), u) <= 1e-10
    assert cnots(ops) == num_cnots_required(u)


@settings(max_examples=50, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_haar_gates_need_exactly_three_cnots(seed):
    u = haar_random_unitary(np.random.default_rng(seed))
    assert num_cnots_required(u) == 3
    assert cnots(decompose_gate(kak_decompose(u))) == 3


@pytest.mark.parametrize(
    "u,expected",
    [
        (np.eye(4, dtype=complex), 0),
        (CNOT_HL, 1),
        (entangling_core(0.3, 0.0, 0.0), 2),
        (entangling_core(0.4, 0.1, 0.0), 2),
        (entangling_core(np.pi / 4, np.pi / 4, 0.0), 2),
        (SWAP, 3),
        (entangling_core(np.pi / 2, _B_OFF_CHAMBER, _B_OFF_CHAMBER), 2),
    ],
)
def test_near_degenerate_gates_emit_the_classified_count(u, expected):
    # A 1e-6 perturbation moves each gate off its class boundary: it is
    # classified as needing 3 CNOTs and emitted with exactly 3.
    assert cnots(decompose_gate(kak_decompose(u))) == num_cnots_required(u) == expected
    bumped = _perturbation(np.random.default_rng(3), 1e-6) @ u
    ops = decompose_gate(kak_decompose(bumped))
    assert cnots(ops) == num_cnots_required(bumped) == 3
    assert phase_aligned_error(ops_to_matrix(ops), bumped) <= 1e-10


class TestEmitQasm:
    def test_empty_circuit_header_registers_measure(self):
        circ = Circuit(n=2, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(2))
        text = emit_qasm(circ)
        assert text.splitlines() == [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
            "measure q -> c;",
        ]

    def test_byte_stability(self):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=2), 4, 6)
        assert emit_qasm(circ) == emit_qasm(circ)

    def test_mirror_replay_recovers_point_mass(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=7))
        probs = replay_distribution(emit_qasm(circ))
        assert abs(probs[circ.target.index] - 1.0) < 1e-9

    @pytest.mark.parametrize("n,d,seed", [(3, 4, 1), (4, 5, 2), (5, 6, 3), (2, 4, 4)])
    def test_replay_total_variation(self, n, d, seed):
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        replayed = replay_distribution(emit_qasm(circ))
        exact = sim.full_distribution(circ).probs
        assert 0.5 * np.sum(np.abs(replayed - exact)) <= 1e-9

    def test_replay_with_final_x(self):
        circ = retarget(
            derive_subcircuit(build_reference_circuit(3, 4, seed=6), 3, 4),
            BitString.from_text("001"),
        )
        assert circ.final_x
        replayed = replay_distribution(emit_qasm(circ))
        exact = sim.full_distribution(circ).probs
        assert 0.5 * np.sum(np.abs(replayed - exact)) <= 1e-9

    def test_replay_agrees_with_brute_force(self):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=9), 3, 4)
        brute = np.abs(brute_force_state(circ)) ** 2
        replayed = replay_distribution(emit_qasm(circ))
        assert np.max(np.abs(brute - replayed)) < 1e-9


class TestGateCount:
    def test_brickwall_generic_count(self):
        circ = derive_subcircuit(build_reference_circuit(6, 10, seed=0), 6, 10)
        placements = sum(len(row) for row in brickwall_layout(6, 10))
        counts = gate_count(circ)
        assert counts["two_qubit"] == 3 * placements

    def test_mirror_inverse_same_cnot_count(self):
        ref = build_reference_circuit(6, 10, seed=0)
        circ = derive_subcircuit(ref, 6, 10)
        mirror = build_exact_inverse_peaking(circ)
        assert gate_count(mirror)["two_qubit"] == gate_count(circ)["two_qubit"]

    def test_empty_circuit(self):
        circ = Circuit(n=2, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(2))
        assert gate_count(circ) == {"two_qubit": 0, "single_qubit": 0}

    def test_retarget_fusion_preserves_cnot_count(self):
        # Even n and even d: the final layer covers every qubit, so all
        # NOTs fuse and the CNOT count is unchanged.
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=4), 4, 6)
        fused = retarget(circ, BitString.from_text("1111"))
        assert not fused.final_x
        assert gate_count(fused)["two_qubit"] == gate_count(circ)["two_qubit"]

    def test_standalone_x_counts_as_singles(self):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=4), 3, 4)
        rt = retarget(circ, BitString.from_text("001"))
        assert rt.final_x == (2,)
        base = gate_count(circ)
        with_x = gate_count(rt)
        assert with_x["two_qubit"] == base["two_qubit"]
        assert with_x["single_qubit"] == base["single_qubit"] + 2  # rz + ry


def test_qasm_filename():
    assert qasm_filename(5, 10, "abc123") == "prc_n5_d10_sabc123.qasm"
