import re
import warnings
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import brute_force_state, histogram, reference_sample
from gate_reference import reference_derivatives, reference_matrix, same_bits
from kernel_reference import (
    per_gate_run,
    per_gate_value_and_gradient,
    reverse_qubits,
    reference_apply_gate_matrix,
    reference_pair_environment,
    sweep_passes,
)
from prcbench import sim
from prcbench.circuits import (
    BitString,
    Circuit,
    GatePlacement,
    build_exact_inverse_peaking,
    build_reference_circuit,
    derive_subcircuit,
    peaking_params,
    peaking_rows,
    retarget,
)
from prcbench.errors import CapacityError
from prcbench.gates import GateParams, gate_factors, haar_random_unitary, kak_decompose
from prcbench.optimize import peaking_vector, with_peaking_vector


def test_empty_circuit_is_all_zero_state():
    circ = Circuit(
        n=3, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(3)
    )
    state = sim.run(circ)
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1


def test_capacity_guard():
    circ = Circuit(
        n=27, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(27)
    )
    with pytest.raises(CapacityError):
        sim.run(circ)


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_mirror_inverse_amplitude(seed):
    circ = build_exact_inverse_peaking(build_reference_circuit(5, 8, seed=seed))
    assert abs(abs(sim.peak_amplitude(circ)) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("n,d,seed", [(3, 4, 5), (4, 6, 1), (2, 4, 2)])
def test_matches_brute_force_matrix_chain(n, d, seed):
    circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
    expected = brute_force_state(circ)
    got = sim.run(circ)
    assert np.max(np.abs(expected - got)) < 1e-10
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_norm_preserved_on_larger_circuit():
    circ = derive_subcircuit(build_reference_circuit(10, 20, seed=4), 10, 20)
    assert abs(np.linalg.norm(sim.run(circ)) - 1.0) < 1e-10


def test_distribution_nonnegative_and_normalized(small_circuit):
    dist = sim.full_distribution(small_circuit)
    assert np.all(dist.probs >= 0)
    assert abs(dist.probs.sum() - 1.0) < 1e-10


def test_balanced_gate_hand_computation():
    # H (x) H on |00>: all four outcomes carry probability 1/4.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    params = kak_decompose(np.kron(h, h))
    circ = Circuit(
        n=2,
        d=2,
        random_depth=1,
        layers=((), (GatePlacement(0, params),)),
        target=BitString.zeros(2),
    )
    dist = sim.full_distribution(circ)
    assert np.max(np.abs(dist.probs - 0.25)) < 1e-12


@pytest.mark.parametrize(
    "n,d,seed,target,empty_last,nots",
    [(5, 5, 2, "10101", False, 1), (6, 5, 3, "111111", False, 2), (5, 4, 1, "10101", True, 3),
     (12, 5, 1, "100000000001", False, 2), (11, 4, 0, "11011000101", True, 6)],
)
def test_trailing_nots_permute_the_state_bit_for_bit(n, d, seed, target, empty_last, nots):
    # The trailing NOTs are one index permutation; the reference swaps the
    # state's halves along one qubit at a time.  An empty last layer leaves
    # every flipped qubit to a trailing NOT.
    circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
    if empty_last:
        circ = replace(circ, layers=circ.layers[:-1] + ((),))
    circ = retarget(circ, BitString.from_text(target))
    assert len(circ.final_x) == nots
    plain = sim.run(replace(circ, final_x=()))
    assert np.array_equal(sim.run(circ), reverse_qubits(plain, circ.final_x))


class TestSampling:
    @pytest.mark.parametrize("probs", [np.eye(8)[7], np.full(2, 0.5), np.full((2, 2), 0.25)],
                             ids=["three_bits", "one_bit", "matrix"])
    def test_distribution_must_hold_2_to_the_n_entries(self, probs):
        # Eight entries on two qubits once sampled outcome 7 and labelled it 11.
        message = f"probs has shape {probs.shape}, not (4,) for n = 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.ProbabilityDistribution(probs, 2)

    def test_point_mass(self, rng):
        dist = sim.ProbabilityDistribution(np.array([0.0, 0.0, 1.0, 0.0]), 2)
        hist = sim.sample(dist, 100, rng)
        assert hist.counts == {2: 100}
        assert hist.shots == 100

    def test_uniform_four_outcomes_frequency_bound(self):
        # Binomial 5-sigma bound at 10^6 shots is ~0.0022 around 0.25.
        dist = sim.ProbabilityDistribution(np.full(4, 0.25), 2)
        hist = sim.sample(dist, 1_000_000, np.random.default_rng(9))
        for idx in range(4):
            assert abs(hist.counts[idx] / 1_000_000 - 0.25) < 0.0022

    def test_determinism(self, small_circuit):
        dist = sim.full_distribution(small_circuit)
        h1 = sim.sample(dist, 500, np.random.default_rng(5))
        h2 = sim.sample(dist, 500, np.random.default_rng(5))
        assert h1.counts == h2.counts

    def test_zero_shots_rejected(self, small_circuit):
        dist = sim.full_distribution(small_circuit)
        with pytest.raises(ValueError):
            sim.sample(dist, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2)])
    def test_total_variation_sanity(self, n, seed):
        circ = derive_subcircuit(build_reference_circuit(n, 6, seed=seed), n, 6)
        dist = sim.full_distribution(circ)
        hist = sim.sample(dist, 100_000, np.random.default_rng(seed))
        emp = np.zeros(1 << n)
        for idx, c in hist.counts.items():
            emp[idx] = c / 100_000
        tv = 0.5 * np.sum(np.abs(emp - dist.probs))
        assert tv <= 0.05

    def test_top_k_ordering(self):
        hist = histogram(2, {0: 5, 1: 10, 2: 5, 3: 1})
        top = hist.top(3)
        assert [b.index for b, _ in top] == [1, 0, 2]

    def test_negative_top_k_rejected(self):
        hist = histogram(2, {0: 5, 1: 10, 2: 5, 3: 1})
        with pytest.raises(ValueError):
            hist.top(-1)


@st.composite
def _sampling_cases(draw):
    """(distribution, shots) with shots from 1 to 4 * 2**n, the edges around
    2**n included, and weights with zero runs at the start, the end or
    inside, point masses, or a total off 1 by 1e-12."""
    n = draw(st.integers(1, 12))
    size = 1 << n
    shots = draw(st.sampled_from([1, size - 1, size, size + 1]) | st.integers(1, 4 * size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(size) ** draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["dense", "zeros_start", "zeros_end", "zeros_inside", "point_mass"]))
    if shape == "point_mass":
        probs[:] = 0.0
        probs[draw(st.integers(0, size - 1))] = 1.0
    elif shape != "dense":
        start = draw(st.integers(0, size - 1))
        length = draw(st.integers(1, size - 1))
        run = {
            "zeros_start": slice(0, length),
            "zeros_end": slice(size - length, size),
            "zeros_inside": slice(start, min(size - 1, start + length)),
        }[shape]
        probs[run] = 0.0
    probs /= probs.sum()
    probs *= draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]))
    event(f"{shape}, {'shots >= 2**n' if shots >= size else 'shots < 2**n'}")
    return sim.ProbabilityDistribution(probs, n), shots


@settings(max_examples=200, deadline=None, database=None)
@given(case=_sampling_cases(), seed=st.integers(0, 2**32 - 1))
def test_sample_matches_choice_and_unique(case, seed):
    dist, shots = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    hist = sim.sample(dist, shots, rng)
    outcomes, tallies = reference_sample(dist, shots, ref_rng)
    assert hist.outcomes.dtype == np.int64 and hist.tallies.dtype == np.int64
    np.testing.assert_array_equal(hist.outcomes, outcomes)
    np.testing.assert_array_equal(hist.tallies, tallies)
    assert hist.shots == shots
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampleRejectsBadProbabilities:
    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, -0.1, 0.6, 0.0],
            [0.5, np.nan, 0.5, 0.0],
            [0.5, np.inf, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        ids=["negative", "nan", "inf", "all_zero"],
    )
    def test_value_error_without_a_runtime_warning(self, probs):
        dist = sim.ProbabilityDistribution(np.array(probs), 2)
        rng = np.random.default_rng(3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                sim.sample(dist, 10, rng)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # Nothing was drawn from the stream.
        assert rng.random() == np.random.default_rng(3).random()


class TestShotHistogramArrays:
    def test_top_matches_sorted_reference_with_ties(self, rng):
        for k in (0, 1, 3, 5, 40, 100):
            counts = {int(i): int(c) for i, c in enumerate(rng.integers(0, 4, size=64)) if c}
            hist = histogram(6, counts)
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            assert [(b.index, c) for b, c in hist.top(k)] == ranked

    def test_from_arrays_equals_mapping_constructor(self):
        # The package builds histograms from arrays only; tests build them
        # from {index: count} mappings with conftest.histogram.
        a = sim.ShotHistogram(3, np.array([1, 4, 6]), np.array([2, 7, 1]))
        assert a == histogram(3, {6: 1, 1: 2, 4: 7})
        assert a.counts == {1: 2, 4: 7, 6: 1} and len(a.counts) == 3
        assert a.shots == 10 and a.position(4) == 1 and a.position(5) is None
        with pytest.raises(KeyError):
            a.counts[5]


    def test_histogram_is_its_own_count_mapping(self):
        a = sim.ShotHistogram(3, np.array([1, 4, 6]), np.array([2, 7, 1]))
        assert isinstance(a, Mapping) and a.counts is a
        assert len(a) == 3 and 4 in a and 5 not in a and list(a) == [1, 4, 6]
        assert a == {1: 2, 4: 7, 6: 1} == a and a != {1: 2, 4: 7}
        assert dict(a) == {1: 2, 4: 7, 6: 1} and all(type(c) is int for c in a.values())
        # Against another histogram, n counts too.
        assert a != sim.ShotHistogram(4, a.outcomes, a.tallies)


class TestPeakGradient:
    def test_stationary_at_mirror_optimum(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=2))
        grad = sim.peak_value_and_gradient(circ)[1]
        assert np.linalg.norm(grad) <= 1e-8

    def test_empty_for_zero_peaking_layers(self):
        # All layers counted as random: nothing to differentiate.
        ref = build_reference_circuit(3, 4, seed=0)
        stripped = Circuit(
            n=3, d=4, random_depth=4, layers=ref.layers, target=ref.target
        )
        assert sim.peak_value_and_gradient(stripped)[1].size == 0

    @pytest.mark.parametrize("n,d,seed", [(3, 4, 0), (4, 4, 7), (2, 4, 3)])
    def test_matches_central_finite_differences(self, n, d, seed):
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        p, grad = sim.peak_value_and_gradient(circ)
        vec = peaking_vector(circ)
        h = 1e-5
        for j in range(len(vec)):
            up = vec.copy()
            up[j] += h
            down = vec.copy()
            down[j] -= h
            fp = abs(sim.peak_amplitude(with_peaking_vector(circ, up))) ** 2
            fm = abs(sim.peak_amplitude(with_peaking_vector(circ, down))) ** 2
            fd = (fp - fm) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-2)

    def test_gradient_on_retargeted_circuit_with_final_x(self):
        from prcbench.circuits import retarget

        circ = retarget(
            derive_subcircuit(build_reference_circuit(3, 4, seed=5), 3, 4),
            BitString.from_text("001"),
        )
        assert circ.final_x  # the standalone NOT path is exercised
        p, grad = sim.peak_value_and_gradient(circ)
        vec = peaking_vector(circ)
        h = 1e-5
        for j in range(0, len(vec), 5):
            up = vec.copy()
            up[j] += h
            down = vec.copy()
            down[j] -= h
            fp = abs(sim.peak_amplitude(with_peaking_vector(circ, up))) ** 2
            fm = abs(sim.peak_amplitude(with_peaking_vector(circ, down))) ** 2
            fd = (fp - fm) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-2)

    def test_wrong_length_vector_rejected(self):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=0), 3, 4)
        engine = sim.PeakObjective(circ)
        for size in (engine.num_params - 1, engine.num_params + 16, 0):
            with pytest.raises(ValueError, match="does not match the peaking half"):
                engine.value_and_gradient(np.zeros(size))

    @pytest.mark.parametrize("n,d,seed", [(2, 4, 3), (5, 10, 7), (6, 7, 1)])
    def test_matches_per_gate_sweep_within_rounding(self, n, d, seed):
        # The reverse sweep of the per-gate algorithm: each gate's matrix and
        # derivatives come from the reference formula where the sweep
        # reaches it and are contracted with that gate's environment alone.
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        assert not circ.final_x
        x0 = peaking_vector(circ)
        vec = x0 + np.random.default_rng(seed).uniform(-1, 1, len(x0))
        engine = sim.PeakObjective(circ)
        params = peaking_params(vec, len(engine.positions))
        mats = [reference_matrix(p) for p in params]
        k = sim.run(with_peaking_vector(circ, vec))
        b = np.zeros_like(k)
        b[circ.target.index] = k[circ.target.index]
        p_ref = float(np.abs(k[circ.target.index]) ** 2)
        ref = np.zeros(engine.num_params)
        for idx in range(len(engine.positions) - 1, -1, -1):
            q = engine.positions[idx]
            ud = mats[idx].conj().T
            k = sim.apply_gate_matrix(k, ud, q)
            env = sim._pair_environment(b.conj(), k, q)
            ref[16 * idx : 16 * idx + 16] = 2.0 * np.real(
                np.einsum("ij,mij->m", env, reference_derivatives(params[idx]))
            )
            b = sim.apply_gate_matrix(b, ud, q)
        p, grad = engine.value_and_gradient(vec)
        # p is the last layer's closed-form contraction, not sim.run's
        # amplitude, so the two agree within rounding.
        assert abs(p - p_ref) <= 1e-15
        assert np.max(np.abs(grad - ref)) <= 1e-12


def _circuit(n: int, layouts, random_depth: int, final_x, rng) -> Circuit:
    """Random gates at the qubit_lows of ``layouts``, one list per layer,
    the first ``random_depth`` of them the random half, a random target and
    trailing NOTs on ``final_x``."""
    layers = tuple(
        tuple(GatePlacement(q, GateParams.from_vector(rng.uniform(-np.pi, np.pi, 16))) for q in layout)
        for layout in layouts
    )
    return Circuit(
        n=n, d=len(layers), random_depth=random_depth, layers=layers,
        target=BitString.from_index(int(rng.integers(1 << n)), n), final_x=tuple(final_x),
    )


def _brick(n: int, depth: int, last: int) -> list[list[int]]:
    """qubit_lows of ``depth`` brick layers, the last starting at ``last``."""
    return [list(range((last + depth - 1 - t) % 2, n - 1, 2)) for t in range(depth)]


# The adjoint sweep's schedule cases: (n, peaking layouts, trailing NOTs).
# Brick peaking halves of depth 1 to 7 at n = 5 (no fused ops) and n = 12
# (fused blocks) give bodies of 0 to 5 layers: both parities, a ket moved
# back from four body layers, and blocks in after-form (odd or last) and
# before-form (even, not last) layers.  Their last two layers, L_a and L_b,
# swap offsets with the depth, so the top and bottom qubits are idle in L_a
# only, in L_b only, or, at depth 1 where L_a is empty, in both, and from
# depth 2 L_a gates straddle two L_b gates.  The hand-laid layouts add an
# L_a gate on the same qubits as an L_b gate, and qubits idle in both layers
# below the top.
SWEEP_CASES = {
    **{
        f"brick-n{n}-depth{depth}": (n, _brick(n, depth, depth % 2), (0,) if depth % 2 else ())
        for n in (5, 12)
        for depth in range(1, 8)
    },
    "same-qubits": (6, [[0, 2, 4], [1, 3], [0, 3], [0, 2, 4]], (1, 5)),
    "idle-in-both": (11, [[0, 2, 4, 6, 8], [1, 5], [0, 6, 8]], (3, 10)),
}


@pytest.mark.parametrize("n,peaking,final_x", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
def test_sweep_case_matches_the_per_gate_oracle(monkeypatch, n, peaking, final_x):
    circ = _circuit(n, _brick(n, 2, 0) + peaking, 2, final_x, np.random.default_rng(len(peaking)))
    engine = sim.PeakObjective(circ)
    vec = peaking_vector(circ)
    calls = []
    kernel = sim.apply_gate_matrix
    monkeypatch.setattr(sim, "apply_gate_matrix", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
    p, grad = engine.value_and_gradient(vec)
    assert len(calls) == sweep_passes(circ)
    p_ref, grad_ref, ket, bra = per_gate_value_and_gradient(circ, vec)
    assert abs(p - p_ref) <= 1e-12
    assert np.max(np.abs(grad - grad_ref)) <= 1e-12
    # The conjugated bra the chain writes is the oracle's bra entering L_a,
    # conjugated.
    bras = np.empty((2, 1 << n), dtype=complex)
    engine._closed_form(ket, gate_factors(peaking_rows(vec, len(engine.positions))).unitaries, bras)
    assert np.max(np.abs(bras[0] - bra.conj())) <= 1e-12


def _draw_layer(data, n: int) -> list[int]:
    """qubit_lows of one layer: gates apart by gaps of 0 to 2 qubits, so a
    layer holds side-by-side pairs, lone gates and gaps."""
    gaps = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=n // 2))
    layer, q = [], 0
    for gap in gaps:
        q += gap
        if q + 1 >= n:
            break
        layer.append(q)
        q += 2
    return layer


def _draw_circuit(data, n: int, pair_first: bool = False) -> Circuit:
    """Zero to two random and one to seven peaking layers at random layouts,
    with random parameters, target and trailing NOTs; with ``pair_first``
    the first peaking layer starts with a side-by-side pair."""
    random_depth = data.draw(st.integers(0, 2))
    layouts = [_draw_layer(data, n) for _ in range(random_depth + data.draw(st.integers(1, 7)))]
    if pair_first:
        layouts[random_depth] = [0, 2] + [q for q in layouts[random_depth] if q > 3]
    final_x = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return _circuit(n, layouts, random_depth, final_x, rng)


def _assert_matches_the_per_gate_oracle(circ: Circuit) -> None:
    """p, the gradient, the bra entering L_a and the run's state agree with
    the schedule-free per-gate oracle."""
    engine = sim.PeakObjective(circ)
    vec = peaking_vector(circ)
    p, grad = engine.value_and_gradient(vec)
    p_ref, grad_ref, ket, bra = per_gate_value_and_gradient(circ, vec)
    assert abs(p - p_ref) <= 1e-12
    assert np.max(np.abs(grad - grad_ref), initial=0) <= 1e-12
    bras = np.empty((2, 1 << circ.n), dtype=complex)
    engine._closed_form(ket, gate_factors(peaking_rows(vec, len(engine.positions))).unitaries, bras)
    assert np.max(np.abs(bras[0] - bra.conj())) <= 1e-12
    assert np.max(np.abs(sim.run(circ) - per_gate_run(circ))) <= 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from([2, 3, 5, 9, 12, 16]), data=st.data())
def test_closed_form_last_layer_matches_the_per_gate_sweep(n, data):
    # Random layouts of the last two peaking layers and of the body before
    # them, on both sides of the fusion cut-over; SWEEP_CASES holds the
    # schedule's corner cases.
    _assert_matches_the_per_gate_oracle(_draw_circuit(data, n))


@settings(max_examples=10, deadline=None, database=None)
@given(n=st.sampled_from([10, 12, 16]), data=st.data())
def test_fused_ops_match_the_per_gate_sweep(n, data):
    circ = _draw_circuit(data, n, pair_first=True)
    assert any(len(gates) == 2 for gates in sim.OpList(circ.layers[circ.random_depth :], n).gates)
    _assert_matches_the_per_gate_oracle(circ)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_gates_are_not_fused_below_the_cut_over(n):
    circ = build_reference_circuit(n, 8, seed=n)
    ops = sim.OpList(circ.layers, n)
    assert ops.gates == [(i,) for i in range(circ.num_placements())]
    assert ops.qubits == [g.qubit_low for g in circ.placements()]


def test_side_by_side_gates_of_a_layer_fuse_from_the_cut_over():
    # 10 qubits: a layer at 0, 2, .., 8 and one at 1, 3, .., 7 become two
    # blocks and a lone gate, then two blocks.
    layers = tuple(
        tuple(GatePlacement(q, GateParams.identity()) for q in range(start, 9, 2)) for start in (0, 1)
    )
    ops = sim.OpList(layers, 10)
    assert ops.gates == [(0, 1), (2, 3), (4,), (5, 6), (7, 8)]
    assert ops.qubits == [0, 4, 8, 1, 5]
    mats = np.arange(9 * 16, dtype=complex).reshape(9, 4, 4)
    matrices = list(ops.matrices(mats))
    assert np.array_equal(matrices[0], np.kron(mats[1], mats[0]))
    assert np.array_equal(matrices[2], mats[4])
    assert np.array_equal(matrices[4], np.kron(mats[8], mats[7]))


def _random_state(rng, n):
    state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return state / np.linalg.norm(state)


def _conjugation_keeps_bits(b: np.ndarray, u: np.ndarray, q: int) -> bool:
    """Whether the bra PeakObjective holds conjugated moves back through u
    by u.T to the bits of b moved by u^dag, conjugated, so the sweep's
    results keep the bits of an unconjugated one."""
    return same_bits(sim.apply_gate_matrix(b.conj(), u.T, q), sim.apply_gate_matrix(b, u.conj().T, q).conj())


class TestPairKernels:
    # An op of width d takes the GEMM layout at qubit_low q only when
    # d * 2**q <= 32 and the state holds 64 rows of d * 2**q amplitudes, so
    # n = 10..12 puts a 4x4 gate (q <= 3) and a 16x16 block (q <= 1) on
    # both sides of the cut-over.
    @settings(max_examples=16, deadline=None, database=None)
    @given(n=st.sampled_from([10, 11, 12]), d=st.sampled_from([4, 16]), seed=st.integers(0, 2**32 - 1))
    def test_match_einsum_reference_at_every_position(self, n, d, seed):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        state, bra = _random_state(rng, n), _random_state(rng, n)
        before, bra_before = state.copy(), bra.copy()
        positions = range(n - d.bit_length() + 2)  # every q with q + log2(d) <= n
        assert {sim._use_gemm(state.size, d << q) for q in positions} == {True, False}
        for q in positions:
            expected = reference_apply_gate_matrix(state, u, q, n)
            out = np.full_like(state, np.nan)
            assert sim.apply_gate_matrix(state, u, q, out=out) is out
            assert np.max(np.abs(out - expected)) <= 1e-13
            fresh = sim.apply_gate_matrix(state, u, q)
            assert not np.shares_memory(fresh, state)
            assert np.max(np.abs(fresh - expected)) <= 1e-13
            env = sim._pair_environment(bra.conj(), state, q, d)
            assert np.max(np.abs(env - reference_pair_environment(bra, state, q, n, d))) <= 1e-13
            assert _conjugation_keeps_bits(bra, u, q)
        assert np.array_equal(state, before) and np.array_equal(bra, bra_before)

    @pytest.mark.parametrize("n", [4, 9])
    def test_small_states_match_reference(self, n):
        rng = np.random.default_rng(n)
        u = haar_random_unitary(rng)
        state, bra = _random_state(rng, n), _random_state(rng, n)
        for q in range(n - 1):
            got = sim.apply_gate_matrix(state, u, q)
            assert np.max(np.abs(got - reference_apply_gate_matrix(state, u, q, n))) <= 1e-13
            env = sim._pair_environment(bra.conj(), state, q)
            assert np.max(np.abs(env - reference_pair_environment(bra, state, q, n))) <= 1e-13
            assert _conjugation_keeps_bits(bra, u, q)


class TestPeakObjectiveBuffers:
    def test_repeated_evaluations_agree(self):
        # An odd register leaves a qubit uncovered by the last layer, so
        # the retargeted circuit keeps a standalone NOT.
        from prcbench.circuits import retarget

        circ = derive_subcircuit(build_reference_circuit(11, 6, seed=2), 11, 6)
        circ = retarget(circ, BitString.from_index(0b10000000001, 11))
        assert circ.final_x
        engine = sim.PeakObjective(circ)
        random_out = engine._psi_random.copy()
        x0 = peaking_vector(circ)
        points = (x0, x0 + np.random.default_rng(1).uniform(-0.1, 0.1, len(x0)))
        first = [engine.value_and_gradient(x) for x in points]
        again = [engine.value_and_gradient(x) for x in points]
        for (p, grad), (p_again, grad_again) in zip(first, again):
            assert p == p_again and same_bits(grad, grad_again)
        assert np.array_equal(engine._psi_random, random_out)
        assert abs(first[0][0] - abs(sim.peak_amplitude(circ)) ** 2) <= 1e-15

    def test_gradient_matches_central_finite_differences_at_12_6(self):
        circ = derive_subcircuit(build_reference_circuit(12, 6, seed=5), 12, 6)
        engine = sim.PeakObjective(circ)
        vec = peaking_vector(circ)
        _, grad = engine.value_and_gradient(vec)
        h = 1e-5
        for j in range(0, len(vec), 3):
            up = vec.copy()
            up[j] += h
            down = vec.copy()
            down[j] -= h
            fd = (engine.value_and_gradient(up)[0] - engine.value_and_gradient(down)[0]) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-2)
