import numpy as np
import pytest

from prcbench.circuits import BitString
from prcbench.errors import DomainMismatchError, UndefinedMetricError
from prcbench.metrics import (
    clamp_fidelity_error,
    contrast_from_probabilities,
    delta_matrix,
    exact_metrics,
    fidelity_error,
    identify,
    relative_peakedness,
    run_metrics,
    strongest_competitor,
)
from prcbench.sim import ProbabilityDistribution, ShotHistogram

T = BitString.from_text("00")
OTHER = BitString.from_text("10")


def hist(counts):
    return ShotHistogram(2, counts)


class TestIdentify:
    def test_sole_outcome(self):
        assert identify(hist({T.index: 100}), T)

    def test_tie_is_failure(self):
        assert not identify(hist({T.index: 50, OTHER.index: 50}), T)

    def test_dominant_competitor(self):
        assert not identify(hist({T.index: 10, OTHER.index: 60, 3: 30}), T)

    def test_empty_histogram(self):
        with pytest.raises(UndefinedMetricError):
            identify(hist({}), T)


class TestRelativePeakedness:
    def test_all_on_target(self):
        assert relative_peakedness(hist({T.index: 77}), T) == 1.0

    def test_direct_evaluation(self):
        # freq(target)=0.6, strongest competitor 0.2 -> 0.5
        h = hist({T.index: 60, OTHER.index: 20, 3: 20})
        assert relative_peakedness(h, T) == pytest.approx(0.5)

    def test_negative_when_competitor_dominates(self):
        h = hist({T.index: 20, OTHER.index: 60, 3: 20})
        assert relative_peakedness(h, T) == pytest.approx(-0.5)

    def test_undefined_when_both_zero(self):
        with pytest.raises(UndefinedMetricError):
            relative_peakedness(hist({}), T)

    def test_scaling_invariance_exact(self):
        h1 = hist({T.index: 12, OTHER.index: 5, 3: 2})
        h2 = hist({T.index: 120, OTHER.index: 50, 3: 20})
        assert relative_peakedness(h1, T) == relative_peakedness(h2, T)

    def test_xor_relabeling_invariance(self):
        counts = {0: 55, 1: 20, 2: 15, 3: 10}
        mask = 0b11
        relabeled = {idx ^ mask: c for idx, c in counts.items()}
        target = BitString.from_index(1, 2)
        moved_target = BitString.from_index(1 ^ mask, 2)
        assert relative_peakedness(hist(counts), target) == relative_peakedness(
            hist(relabeled), moved_target
        )
        assert identify(hist(counts), target) == identify(hist(relabeled), moved_target)


class TestFidelityError:
    def test_perfect_recovery(self):
        assert fidelity_error(0.9995, 0.9995) == pytest.approx(0.0)

    def test_no_contrast(self):
        assert fidelity_error(0.0, 0.87) == pytest.approx(1.0)

    def test_paper_scale_example(self):
        assert fidelity_error(0.5, 0.9995) == pytest.approx(0.4998, abs=1e-4)

    def test_monotone_decreasing_in_c_exp(self):
        values = [fidelity_error(c, 0.99) for c in np.linspace(-1, 1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_c_max(self):
        with pytest.raises(UndefinedMetricError):
            fidelity_error(0.5, 0.0)

    def test_clamping(self):
        assert clamp_fidelity_error(-0.2) == 0.0
        assert clamp_fidelity_error(1.7) == 1.0
        assert clamp_fidelity_error(0.3) == 0.3


def test_identified_run_has_nonnegative_contrast(rng):
    for _ in range(50):
        counts = {i: int(c) for i, c in enumerate(rng.integers(0, 40, size=4)) if c > 0}
        if not counts:
            continue
        h = hist(counts)
        for idx in range(4):
            target = BitString.from_index(idx, 2)
            if identify(h, target):
                assert relative_peakedness(h, target) >= 0


def test_run_metrics_bundle():
    h = hist({T.index: 70, OTHER.index: 20, 3: 10})
    m = run_metrics(h, T, c_max=0.998)
    assert m.identified
    assert m.p_hat_peak == pytest.approx(0.7)
    assert m.p_hat_second == pytest.approx(0.2)
    assert m.c_exp == pytest.approx(5 / 9)
    assert m.f_raw == pytest.approx(1 - (5 / 9) / 0.998)
    assert m.f == clamp_fidelity_error(m.f_raw)


class TestTargetNotRecorded:
    # n = 2: index 3 ("11") lies above every recorded outcome, index 1 ("10")
    # between two of them and index 0 ("00") below both.
    @pytest.mark.parametrize(
        "counts,target_index",
        [({1: 5, 2: 3}, 3), ({0: 5, 3: 2}, 1), ({2: 4, 3: 6}, 0)],
    )
    def test_absent_target(self, counts, target_index):
        h = hist(counts)
        target = BitString.from_index(target_index, 2)
        best = max(counts.values())
        assert h.count(target) == 0
        assert not identify(h, target)
        assert strongest_competitor(h, target) == best
        assert relative_peakedness(h, target) == -1.0
        m = run_metrics(h, target, c_max=0.9)
        assert not m.identified
        assert m.p_hat_peak == 0.0
        assert m.p_hat_second == best / sum(counts.values())
        assert m.c_exp == -1.0

    def test_target_is_last_outcome(self):
        h = hist({0: 1, 1: 2, 3: 9})
        assert identify(h, BitString.from_index(3, 2))
        assert strongest_competitor(h, BitString.from_index(3, 2)) == 2

    def test_competitor_of_empty_histogram(self):
        assert strongest_competitor(hist({}), T) == 0


def reference_metrics(counts, target_index, c_max):
    """Dict scan over every recorded outcome."""
    shots = sum(counts.values())
    peak = counts.get(target_index, 0)
    second = max((c for idx, c in counts.items() if idx != target_index), default=0)
    identified = all(c < peak for idx, c in counts.items() if idx != target_index)
    c_exp = (peak - second) / (peak + second)
    f_raw = 1.0 - c_exp / c_max
    return identified, peak / shots, second / shots, c_exp, clamp_fidelity_error(f_raw), f_raw


def test_run_metrics_match_dict_scan(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        size = int(rng.integers(1, 1 << n))
        outcomes = rng.choice(1 << n, size=size, replace=False)
        counts = {int(i): int(c) for i, c in zip(outcomes, rng.integers(1, 30, size=size))}
        h = ShotHistogram(n, counts)
        for t in range(1 << n):
            m = run_metrics(h, BitString.from_index(t, n), c_max=0.97)
            assert (m.identified, m.p_hat_peak, m.p_hat_second, m.c_exp, m.f, m.f_raw) == (
                reference_metrics(counts, t, 0.97)
            )


def test_exact_metrics_from_probabilities(rng):
    probs = rng.random(16)
    probs /= probs.sum()
    target = BitString.from_index(int(np.argmax(probs)), 4)
    masked = probs.copy()
    masked[target.index] = -1.0
    p_second = float(masked.max())
    m = exact_metrics(ProbabilityDistribution(probs, 4), target, c_max=0.8)
    assert m.identified
    assert m.p_hat_peak == float(probs[target.index])
    assert m.p_hat_second == p_second
    assert m.c_exp == contrast_from_probabilities(m.p_hat_peak, p_second)
    assert m.f_raw == fidelity_error(m.c_exp, 0.8)
    other = BitString.from_index((target.index + 1) % 16, 4)
    assert not exact_metrics(ProbabilityDistribution(probs, 4), other, c_max=0.8).identified


class TestDeltaMatrix:
    @staticmethod
    def _matrix(cells):
        from prcbench.harness import BenchConfig, BenchmarkMatrix, CellResult

        qubits = sorted({n for n, _ in cells})
        depths = sorted({d for _, d in cells})
        config = BenchConfig(qubits=tuple(qubits), depths=tuple(depths), reps=1, threshold=1)
        built = {
            key: CellResult(status=status, records=(), mean_f=f, identified_reps=reps)
            for key, (status, f, reps) in cells.items()
        }
        return BenchmarkMatrix(config, tuple(qubits), tuple(depths), built, {})

    def test_identical_matrices_give_zero(self):
        cells = {(2, 2): ("identified", 0.25, 5), (2, 3): ("identified", 0.5, 4)}
        delta = delta_matrix(self._matrix(cells), self._matrix(cells))
        assert all(v == 0.0 for v in delta.values.values())

    def test_cell_missing_in_one_side_absent(self):
        a = self._matrix({(2, 2): ("identified", 0.25, 5), (2, 3): ("identified", 0.4, 5)})
        b = self._matrix({(2, 2): ("identified", 0.35, 5), (2, 3): ("non_identified", None, 1)})
        delta = delta_matrix(a, b)
        assert delta.values[(2, 2)] == pytest.approx(-0.1)
        assert delta.values[(2, 3)] is None

    def test_arithmetic(self):
        a = self._matrix({(2, 2): ("identified", 0.3, 5)})
        b = self._matrix({(2, 2): ("identified", 0.5, 5)})
        assert delta_matrix(a, b).values[(2, 2)] == pytest.approx(-0.2)

    def test_domain_mismatch(self):
        a = self._matrix({(2, 2): ("identified", 0.3, 5)})
        b = self._matrix({(3, 2): ("identified", 0.3, 5)})
        with pytest.raises(DomainMismatchError):
            delta_matrix(a, b)
