import numpy as np
import pytest

from prcbench import noise, sim
from prcbench.circuits import (
    BitString,
    build_exact_inverse_peaking,
    build_reference_circuit,
    retarget,
)
from prcbench.errors import SchemaError
from prcbench.harness import BenchConfig
from prcbench.metrics import contrast_from_probabilities
from prcbench.noise import (
    NoiseSpec,
    depolarize,
    effective_fidelity,
    perturb_coherent,
    readout_confusion,
    readout_flip,
)
from prcbench.sim import ProbabilityDistribution, ShotHistogram


class TestEffectiveFidelity:
    def test_noiseless(self, small_circuit):
        assert effective_fidelity(small_circuit, 0.0, 0.0) == 1.0

    def test_two_qubit_product(self, small_circuit):
        g = small_circuit.num_placements()
        assert effective_fidelity(small_circuit, 0.0, 0.01) == pytest.approx(0.99**g)

    def test_ten_gate_example(self):
        circ = build_reference_circuit(5, 5, seed=0)
        assert circ.num_placements() == 10
        assert effective_fidelity(circ, 0.0, 0.01) == pytest.approx(0.99**10)

    def test_standalone_x_counted_as_single_qubit(self):
        circ = retarget(build_reference_circuit(3, 4, seed=8), BitString.from_text("001"))
        assert circ.final_x == (2,)
        g = circ.num_placements()
        assert effective_fidelity(circ, 0.5, 0.0) == pytest.approx(0.5)
        assert effective_fidelity(circ, 0.1, 0.01) == pytest.approx(0.9 * 0.99**g)


class TestDepolarize:
    def test_identity_at_f_one(self):
        dist = ProbabilityDistribution(np.array([0.7, 0.1, 0.1, 0.1]), 2)
        out = depolarize(dist, 1.0)
        assert np.array_equal(out.probs, dist.probs)

    def test_uniform_at_f_zero(self):
        dist = ProbabilityDistribution(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        out = depolarize(dist, 0.0)
        assert np.allclose(out.probs, 0.25)

    def test_point_mass_half(self):
        dist = ProbabilityDistribution(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        out = depolarize(dist, 0.5)
        assert np.allclose(out.probs, [0.625, 0.125, 0.125, 0.125])

    def test_preserves_argmax_and_normalization(self, small_circuit):
        dist = sim.full_distribution(small_circuit)
        for f in (0.9, 0.5, 0.1, 0.01):
            noisy = depolarize(dist, f)
            assert np.argmax(noisy.probs) == np.argmax(dist.probs)
            assert noisy.total() == pytest.approx(1.0, abs=1e-10)

    def test_contrast_strictly_decreasing_in_noise(self):
        # Exact-distribution contrast between the top two outcomes shrinks
        # as the mixture weight moves toward uniform.
        probs = np.array([0.5, 0.3, 0.1, 0.1])
        dist = ProbabilityDistribution(probs, 2)
        contrasts = []
        for f in (1.0, 0.8, 0.6, 0.4, 0.2):
            noisy = depolarize(dist, f).probs
            contrasts.append(contrast_from_probabilities(noisy[0], noisy[1]))
        assert all(a > b for a, b in zip(contrasts, contrasts[1:]))


class TestReadoutFlip:
    def test_zero_eps_identity(self, rng):
        hist = ShotHistogram(3, {0: 10, 5: 3})
        assert readout_flip(hist, 0.0, rng) is hist

    def test_eps_one_complements_every_bitstring(self, rng):
        hist = ShotHistogram(3, {0b000: 10, 0b101: 3})
        flipped = readout_flip(hist, 1.0, rng)
        assert flipped.counts == {0b111: 10, 0b010: 3}

    def test_shots_preserved(self, rng):
        hist = ShotHistogram(4, {0: 500, 7: 250, 11: 250})
        flipped = readout_flip(hist, 0.3, rng)
        assert flipped.shots == 1000

    def test_survival_rate_bound(self):
        # Point mass on 0^5 at eps=0.01: survival 0.99^5 ~ 0.951, and the
        # 5-sigma binomial band at 1e5 shots is ~0.0034 wide.
        hist = ShotHistogram(5, {0: 100_000})
        flipped = readout_flip(hist, 0.01, np.random.default_rng(3))
        assert abs(flipped.count(0) / 100_000 - 0.99**5) < 0.005

    def test_determinism(self):
        hist = ShotHistogram(4, {3: 1000, 9: 500})
        a = readout_flip(hist, 0.1, np.random.default_rng(11))
        b = readout_flip(hist, 0.1, np.random.default_rng(11))
        assert a.counts == b.counts

    def test_half_eps_uniformizes_marginals(self):
        # eps = 0.5 makes each output bit a fair coin regardless of input.
        hist = ShotHistogram(3, {0b010: 100_000})
        flipped = readout_flip(hist, 0.5, np.random.default_rng(5))
        for q in range(3):
            ones = sum(c for idx, c in flipped.counts.items() if (idx >> q) & 1)
            assert abs(ones / 100_000 - 0.5) < 0.01


def reference_readout_flip(hist, eps, rng):
    """Per-outcome loop: each distinct outcome in ascending order draws the
    flip masks of its own shots, then its flipped shots are tallied."""
    weights = 1 << np.arange(hist.n, dtype=np.int64)
    out: dict[int, int] = {}
    for outcome, count in sorted(hist.counts.items()):
        masks = (rng.random((count, hist.n)) < eps) @ weights
        values, counts = np.unique(masks ^ outcome, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            out[v] = out.get(v, 0) + c
    return out


class TestReadoutFlipMatchesReference:
    CASES = [
        (3, {0: 10, 5: 3}, 0.2),
        (6, {1: 1, 17: 400, 63: 2, 40: 77}, 0.05),
        (10, {3: 1}, 0.5),
        (4, {0: 0, 9: 12}, 0.3),
    ]

    @pytest.mark.parametrize("seed", [0, 7, 2027])
    @pytest.mark.parametrize("n,counts,eps", CASES)
    def test_count_for_count(self, n, counts, eps, seed):
        hist = ShotHistogram(n, counts)
        got = readout_flip(hist, eps, np.random.default_rng(seed))
        want = reference_readout_flip(hist, eps, np.random.default_rng(seed))
        assert got.counts == want
        assert got.shots == hist.shots

    def test_empty_histogram(self):
        rng = np.random.default_rng(4)
        flipped = readout_flip(ShotHistogram(5, {}), 0.1, rng)
        assert flipped.shots == 0 and len(flipped.counts) == 0
        # Nothing was drawn from the stream.
        assert rng.random() == np.random.default_rng(4).random()

    def test_shots_cross_chunk_boundary(self):
        # Outcome 6's shots straddle the first chunk boundary.
        chunk = noise._READOUT_CHUNK
        hist = ShotHistogram(8, {2: chunk - 5, 6: 11, 200: chunk + 3})
        got = readout_flip(hist, 0.07, np.random.default_rng(19))
        want = reference_readout_flip(hist, 0.07, np.random.default_rng(19))
        assert got.counts == want

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_size_does_not_change_stream(self, monkeypatch, chunk):
        hist = ShotHistogram(5, {0: 50, 7: 9, 30: 21})
        want = readout_flip(hist, 0.15, np.random.default_rng(8))
        monkeypatch.setattr(noise, "_READOUT_CHUNK", chunk)
        assert readout_flip(hist, 0.15, np.random.default_rng(8)) == want

    def test_leaves_rng_where_reference_does(self):
        hist = ShotHistogram(6, {5: 300, 12: 41})
        rng_a, rng_b = np.random.default_rng(23), np.random.default_rng(23)
        readout_flip(hist, 0.1, rng_a)
        reference_readout_flip(hist, 0.1, rng_b)
        assert rng_a.random() == rng_b.random()


class TestReadoutConfusion:
    def test_matches_sampled_channel(self):
        # The exact channel is the infinite-shot limit of readout_flip.
        probs = np.array([0.6, 0.25, 0.1, 0.05])
        exact = readout_confusion(ProbabilityDistribution(probs, 2), 0.1)
        shots = 400_000
        rng = np.random.default_rng(17)
        hist = sim.sample(ProbabilityDistribution(probs, 2), shots, rng)
        flipped = readout_flip(hist, 0.1, rng)
        emp = np.zeros(4)
        for idx, c in flipped.counts.items():
            emp[idx] = c / shots
        assert np.max(np.abs(emp - exact.probs)) < 0.005
        assert exact.total() == pytest.approx(1.0, abs=1e-12)


class TestPerturbCoherent:
    def test_zero_delta_identity(self, small_circuit, rng):
        assert perturb_coherent(small_circuit, 0.0, rng) is small_circuit

    def test_determinism(self, small_circuit):
        a = perturb_coherent(small_circuit, 0.05, np.random.default_rng(2))
        b = perturb_coherent(small_circuit, 0.05, np.random.default_rng(2))
        for la, lb in zip(a.layers, b.layers):
            for ga, gb in zip(la, lb):
                assert np.array_equal(ga.params.to_vector(), gb.params.to_vector())

    def test_structure_unchanged(self, small_circuit, rng):
        pert = perturb_coherent(small_circuit, 0.05, rng)
        assert pert.n == small_circuit.n and pert.d == small_circuit.d
        for la, lb in zip(small_circuit.layers, pert.layers):
            assert [g.qubit_low for g in la] == [g.qubit_low for g in lb]
            for ga, gb in zip(la, lb):
                assert ga.params.pre == gb.params.pre
                assert ga.params.post == gb.params.post

    @pytest.mark.parametrize("seed", range(20))
    def test_small_delta_keeps_target_argmax(self, seed):
        circ = build_exact_inverse_peaking(build_reference_circuit(5, 6, seed=seed))
        pert = perturb_coherent(circ, 0.05, np.random.default_rng(seed))
        probs = sim.full_distribution(pert).probs
        assert probs[0] < 1.0
        assert int(np.argmax(probs)) == circ.target.index


def test_noise_spec_validation_and_roundtrip():
    spec = NoiseSpec(p1=0.01, p2=0.02, readout_eps=0.005, coherent_delta=0.03)
    assert NoiseSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        NoiseSpec(p2=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(coherent_delta=-0.1)


def test_noise_spec_rejects_unknown_key():
    with pytest.raises(SchemaError, match="'p_2'"):
        NoiseSpec.from_dict({"p_2": 0.05})
    with pytest.raises(SchemaError, match="'p_2'"):
        BenchConfig.from_dict({"noise": {"p2": 0.01, "p_2": 0.05}})
