import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prcbench.circuits import (
    ROLE_PEAKING,
    ROLE_RANDOM,
    BitString,
    GatePlacement,
    brickwall_layout,
    build_exact_inverse_peaking,
    build_reference_circuit,
    circuit_from_dict,
    circuit_to_dict,
    circuit_to_json,
    derive_subcircuit,
    peaking_vector,
    random_depth_for,
    retarget,
)
from prcbench.errors import InvalidDimensionError, SchemaError
from prcbench.noise import perturb_coherent
from prcbench.optimize import with_peaking_vector
from prcbench import sim


def alignments(layout):
    return ["even" if row[0] == 0 else "odd" for row in layout]


class TestBrickwallLayout:
    def test_fig_mirror_case_6_10(self):
        # Random half alternates from even; peaking half mirrors it, so the
        # two layers at the junction share their alignment.
        lay = brickwall_layout(6, 10)
        assert alignments(lay) == [
            "even", "odd", "even", "odd", "even",
            "even", "odd", "even", "odd", "even",
        ]

    def test_two_qubit_sequential(self):
        assert brickwall_layout(2, 4) == [[0], [0], [0], [0]]

    def test_three_qubit_depth_two(self):
        assert brickwall_layout(3, 2) == [[0], [0]]

    def test_dimension_errors(self):
        with pytest.raises(InvalidDimensionError):
            brickwall_layout(1, 4)
        with pytest.raises(InvalidDimensionError):
            brickwall_layout(4, 1)

    @pytest.mark.parametrize("n,d", [(3, 6), (4, 8), (5, 10), (6, 9), (7, 7)])
    def test_layers_partition_disjoint_and_in_bounds(self, n, d):
        for row in brickwall_layout(n, d):
            qubits = [q for low in row for q in (low, low + 1)]
            assert len(set(qubits)) == len(qubits)
            assert all(0 <= q < n for q in qubits)

    @pytest.mark.parametrize("n,d", [(4, 8), (5, 10), (6, 12), (7, 9)])
    def test_consecutive_coverage_within_each_half(self, n, d):
        # Inside either half the alignments alternate strictly, so two
        # consecutive layers touch every qubit.
        lay = brickwall_layout(n, d)
        rd = random_depth_for(d)
        for half in (lay[:rd], lay[rd:]):
            for a, b in zip(half, half[1:]):
                touched = {q for low in a + b for q in (low, low + 1)}
                assert touched == set(range(n))

    def test_odd_depth_split(self):
        assert random_depth_for(10) == 5
        assert random_depth_for(11) == 5  # peaking half gets the extra layer


class TestReferenceCircuit:
    def test_dimensions_and_determinism(self):
        a = build_reference_circuit(6, 9, seed=42)
        b = build_reference_circuit(6, 9, seed=42)
        assert a.n == 6 and a.d == 9 and a.random_depth == 4
        assert circuit_to_json(a) == circuit_to_json(b)

    def test_seed_changes_gates(self):
        a = build_reference_circuit(4, 4, seed=1)
        b = build_reference_circuit(4, 4, seed=2)
        assert circuit_to_json(a) != circuit_to_json(b)

    def test_two_qubit_two_layers(self):
        c = build_reference_circuit(2, 2, seed=1)
        assert c.d == 2
        assert all(len(layer) == 1 for layer in c.layers)

    def test_full_benchmark_scale(self):
        c = build_reference_circuit(20, 50, seed=42)
        assert c.n == 20 and c.d == 50 and c.random_depth == 25
        assert len(c.layers) == 50
        # even-aligned layers carry 10 gates, odd-aligned 9
        assert {len(layer) for layer in c.layers} == {9, 10}

    def test_target_all_zero(self):
        c = build_reference_circuit(3, 4, seed=0)
        assert c.target == BitString.zeros(3)


class TestDeriveSubcircuit:
    def test_identity_when_full_size(self):
        ref = build_reference_circuit(5, 8, seed=3)
        assert circuit_to_json(derive_subcircuit(ref, 5, 8)) == circuit_to_json(ref)

    def test_restriction_matches_reference_slots(self):
        ref = build_reference_circuit(8, 10, seed=11)
        sub = derive_subcircuit(ref, 5, 10)
        ref_slots = {
            (t, g.qubit_low): g.params for t, layer in enumerate(ref.layers) for g in layer
        }
        for t, layer in enumerate(sub.layers):
            if t < sub.random_depth:
                src = t
            else:
                src = ref.random_depth + (t - sub.random_depth)
            for g in layer:
                expected = ref_slots.get((src, g.qubit_low))
                if expected is not None:
                    assert np.array_equal(expected.to_vector(), g.params.to_vector())

    def test_monotone_in_depth(self):
        ref = build_reference_circuit(6, 12, seed=5)
        small = derive_subcircuit(ref, 4, 6)
        large = derive_subcircuit(ref, 4, 10)
        for t in range(small.random_depth):
            vecs_small = [(g.qubit_low, tuple(g.params.to_vector())) for g in small.layers[t]]
            vecs_large = [(g.qubit_low, tuple(g.params.to_vector())) for g in large.layers[t]]
            assert vecs_small == vecs_large

    def test_two_qubit_sequential_case(self):
        ref = build_reference_circuit(20, 8, seed=2)
        sub = derive_subcircuit(ref, 2, 4)
        assert all(len(layer) == 1 and layer[0].qubit_low == 0 for layer in sub.layers)

    def test_dimension_overflow(self):
        ref = build_reference_circuit(4, 4, seed=0)
        with pytest.raises(InvalidDimensionError):
            derive_subcircuit(ref, 5, 4)
        with pytest.raises(InvalidDimensionError):
            derive_subcircuit(ref, 4, 6)


class TestExactInversePeaking:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_mass_at_zero(self, seed):
        circ = build_exact_inverse_peaking(build_reference_circuit(6, 10, seed=seed))
        prob = abs(sim.peak_amplitude(circ)) ** 2
        assert abs(prob - 1.0) < 1e-12

    def test_odd_depth_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_exact_inverse_peaking(build_reference_circuit(4, 7, seed=0))

    def test_random_half_untouched(self):
        ref = build_reference_circuit(4, 6, seed=9)
        mir = build_exact_inverse_peaking(ref)
        for t in range(ref.random_depth):
            for a, b in zip(ref.layers[t], mir.layers[t]):
                assert np.array_equal(a.params.to_vector(), b.params.to_vector())


class TestRetarget:
    def test_all_zero_is_identity(self):
        circ = build_reference_circuit(4, 4, seed=1)
        assert retarget(circ, BitString.zeros(4)) is circ or circuit_to_json(
            retarget(circ, BitString.zeros(4))
        ) == circuit_to_json(circ)

    def test_ones_on_mirror_gives_point_mass(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=4))
        s = BitString.from_text("1111")
        rt = retarget(circ, s)
        dist = sim.full_distribution(rt)
        assert abs(dist.probs[s.index] - 1.0) < 1e-12

    @pytest.mark.parametrize("text", ["0101", "1010", "0011", "1001"])
    def test_distribution_is_xor_permutation(self, text):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=8), 4, 6)
        s = BitString.from_text(text)
        base = sim.full_distribution(circ).probs
        moved = sim.full_distribution(retarget(circ, s)).probs
        perm = np.arange(16) ^ s.index
        assert np.max(np.abs(moved[perm] - base)) < 1e-12

    def test_uncovered_qubit_gets_standalone_x(self):
        # Even depth on odd n: the final layer is even-aligned and misses
        # the top qubit.
        circ = build_reference_circuit(3, 4, seed=8)
        rt = retarget(circ, BitString.from_text("001"))
        assert rt.final_x == (2,)

    @pytest.mark.parametrize("n,d,seed", [(3, 4, 0), (4, 5, 1), (5, 6, 2), (6, 5, 3)])
    def test_involution_on_distribution(self, n, d, seed):
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        bits = BitString.from_index((seed * 2779) % (1 << n), n)
        base = sim.full_distribution(circ).probs
        twice = sim.full_distribution(retarget(retarget(circ, bits), bits)).probs
        assert np.max(np.abs(twice - base)) < 1e-12

    def test_length_mismatch(self):
        circ = build_reference_circuit(4, 4, seed=1)
        with pytest.raises(ValueError):
            retarget(circ, BitString.from_text("011"))

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 6), d=st.integers(2, 6), seed=st.integers(0, 2**16),
           s_bits=st.integers(0, 63))
    @example(n=2, d=2, seed=0, s_bits=0b11)  # both qubits of the one pair fuse
    @example(n=4, d=4, seed=1, s_bits=0b1111)  # both qubits of every pair fuse
    @example(n=3, d=4, seed=8, s_bits=0b100)  # qubit 2 needs a standalone NOT
    @example(n=5, d=3, seed=2, s_bits=0b10011)  # fused pairs and a standalone NOT
    def test_xor_permutation_and_involution(self, n, d, seed, s_bits):
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        s = BitString.from_index(s_bits % (1 << n), n)
        base = sim.full_distribution(circ).probs
        moved = retarget(circ, s)
        covered = {q for g in circ.layers[-1] for q in (g.qubit_low, g.qubit_low + 1)}
        assert set(moved.final_x) == {q for q in range(n) if s.bits[q]} - covered
        perm = np.arange(1 << n) ^ s.index
        assert np.max(np.abs(sim.full_distribution(moved).probs[perm] - base)) < 1e-12
        twice = sim.full_distribution(retarget(moved, s)).probs
        assert np.max(np.abs(twice - base)) < 1e-12


def _built_circuits() -> dict:
    """One output of every circuit builder, by builder."""
    ref = build_reference_circuit(5, 7, seed=4)
    sub = derive_subcircuit(ref, 4, 6)
    return {
        "reference": ref,
        "subcircuit": sub,
        "exact_inverse": build_exact_inverse_peaking(sub),
        # Sub's last layer covers all four qubits; ref's misses qubit 0.
        "retarget_fused": retarget(sub, BitString.from_text("1111")),
        "retarget_standalone": retarget(ref, BitString.from_text("10001")),
        "peaking_vector": with_peaking_vector(sub, peaking_vector(sub) + 0.25),
        "perturb_coherent": perturb_coherent(sub, 0.1, np.random.default_rng(0)),
    }


def _angles(circuit):
    for g in circuit.placements():
        yield from (*g.params.pre, *g.params.entangling, *g.params.post, g.params.phase)


class TestSerialization:
    @pytest.mark.parametrize("builder", sorted(_built_circuits()))
    def test_every_builder_round_trips_by_position(self, builder):
        circ = _built_circuits()[builder]
        doc = circuit_to_dict(circ)
        loaded = circuit_from_dict(doc)
        assert loaded == circ
        for c in (circ, loaded):
            assert all(type(g) is GatePlacement for g in c.placements())
            assert all(type(a) is float for a in _angles(c))
        for t, layer in enumerate(doc["layers"]):
            role = ROLE_RANDOM if t < circ.random_depth else ROLE_PEAKING
            assert [(g["layer"], g["role"]) for g in layer] == [(t, role)] * len(layer)

    def test_roundtrip_bytes(self):
        circ = retarget(
            build_reference_circuit(3, 4, seed=8), BitString.from_text("101")
        )
        text = circuit_to_json(circ)
        again = circuit_to_json(circuit_from_dict(json.loads(text)))
        assert text == again

    def test_schema_version_guard(self):
        circ = build_reference_circuit(2, 2, seed=0)
        doc = json.loads(circuit_to_json(circ))
        doc["schema"] = "prc-circuit/0"
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    def test_malformed_document(self):
        circ = build_reference_circuit(2, 2, seed=0)
        doc = json.loads(circuit_to_json(circ))
        del doc["layers"]
        with pytest.raises(SchemaError):
            circuit_from_dict(doc)

    @staticmethod
    def _load_edited(edit):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=0), 3, 4)
        doc = json.loads(circuit_to_json(circ))
        edit(doc)
        return circuit_from_dict(doc)

    def test_final_x_outside_register(self):
        with pytest.raises(SchemaError, match=r"final_x\[0\]: qubit 7 is outside 0\.\.2"):
            self._load_edited(lambda doc: doc.update(final_x=[7]))

    def test_final_x_listed_twice(self):
        with pytest.raises(SchemaError, match=r"final_x\[1\]: qubit 1 is listed twice"):
            self._load_edited(lambda doc: doc.update(final_x=[1, 1]))
        # A circuit built in code obeys the same rule: sim.run takes the
        # trailing NOTs as one XOR mask, which a repeated qubit would break.
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=0), 3, 4)
        with pytest.raises(ValueError, match=r"^final_x\[1\]: qubit 1 is listed twice"):
            replace(circ, final_x=(1, 1))

    def test_layer_field_differs_from_position(self):
        def edit(doc):
            doc["layers"][0][0]["layer"] = 3

        with pytest.raises(SchemaError, match=r"layers\[0\]\[0\]\.layer"):
            self._load_edited(edit)

    def test_random_role_in_peaking_layer(self):
        def edit(doc):
            doc["layers"][3][0]["role"] = "random-half"

        with pytest.raises(SchemaError, match=r"layers\[3\]\[0\]\.role"):
            self._load_edited(edit)

    def test_peaking_role_in_random_layer(self):
        def edit(doc):
            doc["layers"][0][0]["role"] = "peaking-half"

        with pytest.raises(SchemaError, match=r"layers\[0\]\[0\]\.role"):
            self._load_edited(edit)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gate_parameter(self, value):
        def edit(doc):
            doc["layers"][2][0]["params"][0] = value

        with pytest.raises(SchemaError, match=r"layers\[2\]\[0\]\.params\[0\]: .* is not finite"):
            self._load_edited(edit)

    def test_random_depth_disagreeing_with_roles(self):
        with pytest.raises(SchemaError, match=r"layers\[2\]\[0\]\.role"):
            self._load_edited(lambda doc: doc.update(random_depth=3))


class TestBitString:
    def test_index_little_endian(self):
        # qubit 0 is the least significant bit
        assert BitString.from_text("100").index == 1
        assert BitString.from_text("001").index == 4
        assert BitString.from_index(5, 4).text == "1010"

    def test_xor(self):
        a = BitString.from_text("1100")
        b = BitString.from_text("1010")
        assert (a ^ b).text == "0110"
