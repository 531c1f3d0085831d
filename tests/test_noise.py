import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import histogram
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
from prcbench.sim import ProbabilityDistribution


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
            assert noisy.probs.sum() == pytest.approx(1.0, abs=1e-10)

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
        hist = histogram(3, {0: 10, 5: 3})
        assert readout_flip(hist, 0.0, rng) is hist

    def test_eps_one_complements_every_bitstring(self, rng):
        hist = histogram(3, {0b000: 10, 0b101: 3})
        flipped = readout_flip(hist, 1.0, rng)
        assert flipped.counts == {0b111: 10, 0b010: 3}

    def test_shots_preserved(self, rng):
        hist = histogram(4, {0: 500, 7: 250, 11: 250})
        flipped = readout_flip(hist, 0.3, rng)
        assert flipped.shots == 1000

    def test_survival_rate_bound(self):
        # Point mass on 0^5 at eps=0.01: survival 0.99^5 ~ 0.951, and the
        # 5-sigma binomial band at 1e5 shots is ~0.0034 wide.
        hist = histogram(5, {0: 100_000})
        flipped = readout_flip(hist, 0.01, np.random.default_rng(3))
        assert abs(flipped.counts[0] / 100_000 - 0.99**5) < 0.005

    def test_determinism(self):
        hist = histogram(4, {3: 1000, 9: 500})
        a = readout_flip(hist, 0.1, np.random.default_rng(11))
        b = readout_flip(hist, 0.1, np.random.default_rng(11))
        assert a.counts == b.counts

    def test_half_eps_uniformizes_marginals(self):
        # eps = 0.5 makes each output bit a fair coin regardless of input.
        hist = histogram(3, {0b010: 100_000})
        flipped = readout_flip(hist, 0.5, np.random.default_rng(5))
        for q in range(3):
            ones = sum(c for idx, c in flipped.counts.items() if (idx >> q) & 1)
            assert abs(ones / 100_000 - 0.5) < 0.01


def reference_batch(r, eps):
    mean = r * eps
    return min(int(mean + 6 * math.sqrt(mean) + 16), 1 << 16)


def reference_readout_flip(hist, eps, rng, batch=reference_batch):
    """Scalar loop over the gap stream: shot s of the shots in ascending
    outcome order holds slots s * n .. s * n + n - 1; geometric(eps) gaps
    between flipped slots are drawn one at a time, `batch(r, eps)` of them
    for the r slots not yet covered, until a batch ends past the last slot."""
    n = hist.n
    shots = [outcome for outcome, count in sorted(hist.counts.items()) for _ in range(count)]
    slots = len(shots) * n
    last = -1
    while last < slots - 1:
        for _ in range(batch(slots - 1 - last, eps)):
            last += int(rng.geometric(eps))
            if last < slots:
                shots[last // n] ^= 1 << (last % n)
    out: dict[int, int] = {}
    for shot in shots:
        out[shot] = out.get(shot, 0) + 1
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
        hist = histogram(n, counts)
        got = readout_flip(hist, eps, np.random.default_rng(seed))
        want = reference_readout_flip(hist, eps, np.random.default_rng(seed))
        assert got.counts == want
        assert got.shots == hist.shots

    def test_empty_histogram(self):
        rng = np.random.default_rng(4)
        flipped = readout_flip(histogram(5, {}), 0.1, rng)
        assert flipped.shots == 0 and len(flipped.counts) == 0
        # Nothing was drawn from the stream.
        assert rng.random() == np.random.default_rng(4).random()

    def test_shots_cross_chunk_boundary(self, monkeypatch):
        # Batches of 3 gaps cover about 10 slots each, so many shots'
        # flipped bits fall in two batches of the stream.
        def batch(r, eps):
            return 3

        monkeypatch.setattr(noise, "_gap_batch", batch)
        hist = histogram(8, {2: 45, 6: 11, 200: 38})
        got = readout_flip(hist, 0.3, np.random.default_rng(19))
        want = reference_readout_flip(hist, 0.3, np.random.default_rng(19), batch)
        assert got.counts == want

    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_chunk_size_does_not_change_stream(self, monkeypatch, batch):
        # The batch slack does not change the flips: the gaps are one
        # stream whatever size of chunk draws them, and only how far the
        # last batch draws past the end changes.
        hist = histogram(5, {0: 50, 7: 9, 30: 21})
        want = readout_flip(hist, 0.15, np.random.default_rng(8))
        monkeypatch.setattr(noise, "_gap_batch", lambda r, eps: batch)
        assert readout_flip(hist, 0.15, np.random.default_rng(8)) == want

    def test_batch_size_rule(self):
        assert noise._gap_batch(1000, 0.02) == int(20 + 6 * math.sqrt(20) + 16) == 62
        assert noise._gap_batch(0, 0.5) == 16
        assert noise._gap_batch(10**9, 0.5) == 1 << 16

    def test_leaves_rng_where_reference_does(self):
        hist = histogram(6, {5: 300, 12: 41})
        rng_a, rng_b = np.random.default_rng(23), np.random.default_rng(23)
        readout_flip(hist, 0.1, rng_a)
        reference_readout_flip(hist, 0.1, rng_b)
        assert rng_a.random() == rng_b.random()


class TestReadoutFlipDistribution:
    """Properties of the channel that hold whatever stream draws it."""

    @pytest.mark.parametrize("eps", [0.02, 0.3, 0.5])
    def test_bits_flip_at_eps_independently(self, eps):
        n, shots, outcome = 14, 100_000, 0b10110011100101
        hist = histogram(n, {outcome: shots})
        flipped = readout_flip(hist, eps, np.random.default_rng(31))
        assert flipped.shots == shots
        bits = ((flipped.outcomes[:, None] ^ outcome) >> np.arange(n)) & 1
        weighted = bits * flipped.tallies[:, None]
        rates = weighted.sum(0) / shots
        both = (weighted.T @ bits) / shots  # both[a, b]: bits a and b flipped
        # Five binomial standard deviations.
        assert np.all(np.abs(rates - eps) < 5 * math.sqrt(eps * (1 - eps) / shots))
        pairs = both[~np.eye(n, dtype=bool)]
        assert np.all(np.abs(pairs - eps**2) < 5 * math.sqrt(eps**2 * (1 - eps**2) / shots))

    def test_tiny_eps_flips_nothing_and_does_not_overflow(self):
        # rng.geometric returns INT64_MAX at eps this small; a sum of such
        # gaps must not wrap around into the grid.
        hist = histogram(20, {5: 1000, (1 << 20) - 1: 700})
        assert readout_flip(hist, 1e-300, np.random.default_rng(2)) == hist

    @pytest.mark.parametrize("n", [2, 14])
    def test_eps_one_complements_every_shot(self, n):
        counts = {0: 40, 1: 3, (1 << n) - 1: 25}
        flipped = readout_flip(histogram(n, counts), 1.0, np.random.default_rng(6))
        assert flipped.counts == {outcome ^ ((1 << n) - 1): c for outcome, c in counts.items()}

    def test_empty_histogram_draws_nothing(self):
        for eps in (0.02, 0.5, 1.0):
            rng = np.random.default_rng(9)
            flipped = readout_flip(histogram(14, {}), eps, rng)
            assert flipped.shots == 0
            assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state


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
        assert exact.probs.sum() == pytest.approx(1.0, abs=1e-12)


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

    @pytest.mark.parametrize("n,d,seed", [(2, 4, 0), (5, 6, 1), (9, 12, 2)])
    def test_one_draw_matches_the_per_gate_loop(self, n, d, seed):
        # The per-gate loop perturb_coherent once ran: three normals per
        # gate in placement order.  The single draw must leave the same
        # angles, bit for bit, and the generator in the same state.
        circ = build_reference_circuit(n, d, seed=seed)
        rng_ref = np.random.default_rng(seed)
        layers = []
        for layer in circ.layers:
            row = []
            for g in layer:
                factors = 1.0 + 0.07 * rng_ref.standard_normal(3)
                ent = tuple(float(a * s) for a, s in zip(g.params.entangling, factors))
                row.append(replace(g, params=replace(g.params, entangling=ent)))
            layers.append(tuple(row))
        rng = np.random.default_rng(seed)
        pert = perturb_coherent(circ, 0.07, rng)
        assert pert == replace(circ, layers=tuple(layers))
        for got, ref in zip(pert.placements(), (g for layer in layers for g in layer)):
            assert got.params.to_vector().tobytes() == ref.params.to_vector().tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_small_delta_keeps_target_argmax(self, seed):
        circ = build_exact_inverse_peaking(build_reference_circuit(5, 6, seed=seed))
        pert = perturb_coherent(circ, 0.05, np.random.default_rng(seed))
        probs = sim.full_distribution(pert).probs
        assert probs[0] < 1.0
        assert int(np.argmax(probs)) == circ.target.index


@pytest.mark.parametrize(
    "channel,message",
    [
        (lambda: depolarize(ProbabilityDistribution(np.full(4, 0.25), 2), 1.5),
         "fidelity must lie in [0, 1]"),
        (lambda: readout_flip(histogram(2, {0: 3}), -0.1, np.random.default_rng(0)), "eps must lie in [0, 1]"),
        (lambda: readout_flip(histogram(2, {0: 3}), 1.5, np.random.default_rng(0)), "eps must lie in [0, 1]"),
        (lambda: readout_confusion(ProbabilityDistribution(np.full(4, 0.25), 2), -0.1),
         "eps must lie in [0, 1]"),
        (lambda: readout_confusion(ProbabilityDistribution(np.full(4, 0.25), 2), 1.5),
         "eps must lie in [0, 1]"),
        (lambda: perturb_coherent(build_reference_circuit(2, 2, seed=0), -0.1, np.random.default_rng(0)),
         "delta must be non-negative"),
    ],
    ids=["depolarize_fidelity", "readout_flip_negative", "readout_flip_above_1",
         "readout_confusion_negative", "readout_confusion_above_1", "perturb_negative_delta"],
)
def test_channels_refuse_parameters_out_of_range(channel, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        channel()


def test_noise_spec_validation_and_roundtrip():
    spec = NoiseSpec(p1=0.01, p2=0.02, readout_eps=0.005, coherent_delta=0.03)
    assert NoiseSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        NoiseSpec(p2=1.5)
    with pytest.raises(ValueError, match="^coherent_delta must be non-negative, got -0.1$"):
        NoiseSpec(coherent_delta=-0.1)


def test_noise_spec_rejects_unknown_key():
    with pytest.raises(SchemaError, match="'p_2'"):
        NoiseSpec.from_dict({"p_2": 0.05})
    with pytest.raises(SchemaError, match="'p_2'"):
        BenchConfig.from_dict({"noise": {"p2": 0.01, "p_2": 0.05}})
