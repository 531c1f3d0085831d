import numpy as np
import pytest

from conftest import brute_force_state
from prcbench import sim
from prcbench.circuits import (
    ROLE_PEAKING,
    BitString,
    Circuit,
    GatePlacement,
    build_exact_inverse_peaking,
    build_reference_circuit,
    derive_subcircuit,
)
from prcbench.errors import CapacityError
from prcbench.gates import kak_decompose
from prcbench.optimize import peaking_vector, with_peaking_vector


def test_empty_circuit_is_all_zero_state():
    circ = Circuit(
        n=3, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(3)
    )
    state = sim.run(circ)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


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
    got = sim.run(circ).amplitudes
    assert np.max(np.abs(expected - got)) < 1e-10
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_norm_preserved_on_larger_circuit():
    circ = derive_subcircuit(build_reference_circuit(10, 20, seed=4), 10, 20)
    assert abs(sim.run(circ).norm() - 1.0) < 1e-10


def test_distribution_nonnegative_and_normalized(small_circuit):
    dist = sim.full_distribution(small_circuit)
    assert np.all(dist.probs >= 0)
    assert abs(dist.total() - 1.0) < 1e-10


def test_balanced_gate_hand_computation():
    # H (x) H on |00>: all four outcomes carry probability 1/4.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    params = kak_decompose(np.kron(h, h))
    circ = Circuit(
        n=2,
        d=2,
        random_depth=1,
        layers=((), (GatePlacement(1, 0, params, ROLE_PEAKING),)),
        target=BitString.zeros(2),
    )
    dist = sim.full_distribution(circ)
    assert np.max(np.abs(dist.probs - 0.25)) < 1e-12


class TestSampling:
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
            assert abs(hist.count(idx) / 1_000_000 - 0.25) < 0.0022

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
        hist = sim.ShotHistogram(2, {0: 5, 1: 10, 2: 5, 3: 1})
        top = hist.top(3)
        assert [b.index for b, _ in top] == [1, 0, 2]


class TestShotHistogramArrays:
    def test_top_matches_sorted_reference_with_ties(self, rng):
        for k in (0, 1, 3, 5, 40, 100):
            counts = {int(i): int(c) for i, c in enumerate(rng.integers(0, 4, size=64)) if c}
            hist = sim.ShotHistogram(6, counts)
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            assert [(b.index, c) for b, c in hist.top(k)] == ranked

    def test_from_arrays_equals_mapping_constructor(self):
        a = sim.ShotHistogram.from_arrays(3, np.array([1, 4, 6]), np.array([2, 7, 1]))
        b = sim.ShotHistogram(3, {6: 1, 1: 2, 4: 7})
        assert a == b
        assert a.counts == {1: 2, 4: 7, 6: 1} and len(a.counts) == 3
        assert a.shots == 10 and a.count(4) == 7 and a.count(5) == 0
        assert a.count(BitString.from_index(6, 3)) == 1
        with pytest.raises(KeyError):
            a.counts[5]


class TestPeakGradient:
    def test_stationary_at_mirror_optimum(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=2))
        grad = sim.peak_gradient(circ)
        assert np.linalg.norm(grad) <= 1e-8

    def test_empty_for_zero_peaking_layers(self):
        # All layers counted as random: nothing to differentiate.
        ref = build_reference_circuit(3, 4, seed=0)
        stripped = Circuit(
            n=3, d=4, random_depth=4, layers=ref.layers, target=ref.target
        )
        assert sim.peak_gradient(stripped).size == 0

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
