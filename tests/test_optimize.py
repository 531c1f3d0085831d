import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prcbench import sim
from prcbench.circuits import (
    BitString,
    Circuit,
    build_exact_inverse_peaking,
    build_reference_circuit,
    derive_subcircuit,
    retarget,
)
from prcbench.errors import NothingToOptimizeError, SchemaError, UndefinedMetricError
from prcbench.optimize import (
    OptimizerConfig,
    c_max_from_dominance,
    objective,
    optimize,
    peak_profile,
    peaking_vector,
    profile_from_dict,
    profile_to_dict,
    with_peaking_vector,
)

FAST = OptimizerConfig(stage1_iters=300, stage2_iters=200)


def test_objective_mirror_is_one():
    circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=1))
    assert abs(objective(circ) - 1.0) < 1e-12


def test_objective_zero_peaking_depth_is_random_half_amplitude():
    ref = build_reference_circuit(3, 4, seed=6)
    stripped = Circuit(n=3, d=4, random_depth=4, layers=ref.layers, target=ref.target)
    assert objective(stripped) == pytest.approx(
        abs(sim.run(ref)[0]) ** 2, abs=1e-15
    )


def test_unoptimized_objective_is_porter_thomas_small():
    # Random circuits put ~2^-n mass on any one bitstring; check the order
    # of magnitude of the mean over ten seeds at (10, 20).
    n, d = 10, 20
    vals = [
        objective(derive_subcircuit(build_reference_circuit(n, d, seed=s), n, d))
        for s in range(10)
    ]
    mean = np.mean(vals)
    assert 0.1 * 2**-n < mean < 10 * 2**-n


class TestOptimize:
    def test_mirror_start_returns_immediately(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=0))
        opt, trace = optimize(circ)
        assert trace.final_objective > 1 - 1e-12
        assert trace.iterations_stage1 == 0
        assert trace.iterations_stage2 == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_two_qubit_depth_two_exactly_solvable(self, seed):
        circ = derive_subcircuit(build_reference_circuit(2, 2, seed=seed), 2, 2)
        _, trace = optimize(circ, OptimizerConfig(stage1_iters=2000, stage2_iters=2000))
        assert trace.final_objective >= 0.999

    def test_requires_peaking_layers(self):
        ref = build_reference_circuit(3, 4, seed=0)
        stripped = Circuit(n=3, d=4, random_depth=4, layers=ref.layers, target=ref.target)
        with pytest.raises(NothingToOptimizeError):
            optimize(stripped)

    def test_trace_monotone_and_final_not_below_initial(self):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=3), 4, 6)
        _, trace = optimize(circ, FAST)
        values = np.array(trace.objective_values)
        assert np.all(np.diff(values) >= 0)
        assert trace.final_objective >= values[0]

    def test_optimized_gates_hold_python_floats(self):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=3), 3, 4)
        opt, _ = optimize(circ, OptimizerConfig(stage1_iters=5, stage2_iters=0))
        for g in opt.placements():
            p = g.params
            assert all(type(a) is float for a in (*p.pre, *p.entangling, *p.post, p.phase))

    def test_random_half_bit_identical(self):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=3), 4, 6)
        opt, _ = optimize(circ, FAST)
        for t in range(circ.random_depth):
            for a, b in zip(circ.layers[t], opt.layers[t]):
                assert np.array_equal(a.params.to_vector(), b.params.to_vector())

    def test_deterministic(self):
        circ = derive_subcircuit(build_reference_circuit(3, 4, seed=9), 3, 4)
        a, _ = optimize(circ, FAST)
        b, _ = optimize(circ, FAST)
        assert np.array_equal(peaking_vector(a), peaking_vector(b))

    def test_objective_improves_on_random_start(self):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=12), 4, 6)
        before = objective(circ)
        opt, trace = optimize(circ, FAST)
        assert trace.final_objective > before
        assert objective(opt) == pytest.approx(trace.final_objective, abs=1e-12)


class TestStageTwoRule:
    """Adam runs only where L-BFGS stopped on its cap or made no iteration."""

    CELL = (3, 4, 9)

    def _optimize(self, config):
        n, d, seed = self.CELL
        return optimize(derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d), config)[1]

    def test_no_adam_after_lbfgs_converges(self):
        # With the gradient test off, the relative reduction ends stage 1
        # before its cap, and then stage 2 makes no step.
        trace = self._optimize(OptimizerConfig(stage1_iters=300, stage2_iters=200, stop_tol=0.0))
        assert 0 < trace.iterations_stage1 < 300
        assert trace.iterations_stage2 == 0
        assert len(trace.objective_values) == trace.iterations_stage1 + 1

    def test_adam_runs_its_budget_after_the_cap(self):
        trace = self._optimize(OptimizerConfig(stage1_iters=3, stage2_iters=20, stop_tol=0.0))
        assert (trace.iterations_stage1, trace.iterations_stage2) == (3, 20)
        assert len(trace.objective_values) == 1 + 3 + 20

    def test_adam_alone_without_stage_one(self):
        # deep_gradient's configuration: no L-BFGS, a fixed number of Adam steps.
        trace = self._optimize(OptimizerConfig(stage1_iters=0, stage2_iters=20, stop_tol=0.0))
        assert (trace.iterations_stage1, trace.iterations_stage2) == (0, 20)
        assert len(trace.objective_values) == 1 + 20


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(stage1_iters=-1)
    with pytest.raises(ValueError, match="^adam_step must be positive, got 0.0$"):
        OptimizerConfig(adam_step=0.0)
    # Zero or below runs every iteration; a manifest may record either.
    assert OptimizerConfig(stop_tol=0.0).stop_tol == 0.0
    assert OptimizerConfig(stop_tol=-1.0).stop_tol == -1.0
    assert [f.name for f in fields(OptimizerConfig)] == [
        "stage1_iters", "stage2_iters", "adam_step", "stop_tol"]


@pytest.mark.slow
def test_width_scaling_trend():
    """At a fixed depth and a fixed iteration budget, the attainable peak
    probability is non-increasing in register width over {5, 10, 15, 20}
    (rank correlation <= 0).  The n=20 point runs on 2^20 amplitudes, so
    this test takes some 15 to 20 s."""
    ref = build_reference_circuit(20, 8, seed=9)
    config = OptimizerConfig(stage1_iters=15, stage2_iters=0)
    widths = (5, 10, 15, 20)
    peaks = []
    for n in widths:
        _, trace = optimize(derive_subcircuit(ref, n, 8), config)
        peaks.append(trace.final_objective)
    # Spearman rank correlation between width and achieved peak.
    order = np.argsort(np.argsort(peaks))
    ranks_n = np.arange(len(widths))
    rho = np.corrcoef(ranks_n, order)[0, 1]
    assert rho <= 0
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))


class TestWithPeakingVector:
    def test_roundtrip(self, small_circuit):
        vec = peaking_vector(small_circuit)
        rebuilt = with_peaking_vector(small_circuit, vec)
        assert np.array_equal(peaking_vector(rebuilt), vec)

    def test_length_check(self, small_circuit):
        with pytest.raises(ValueError):
            with_peaking_vector(small_circuit, np.zeros(3))


class TestPeakProfile:
    def test_point_mass(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(4, 6, seed=2))
        prof = peak_profile(circ)
        assert prof.p_peak == pytest.approx(1.0, abs=1e-12)
        assert prof.c_max == pytest.approx(1.0, abs=1e-9)
        assert not prof.target_mismatch

    def test_mismatch_flagged_for_unoptimized(self):
        # An unoptimized random circuit peaks almost surely away from 0^n.
        circ = derive_subcircuit(build_reference_circuit(6, 10, seed=1), 6, 10)
        prof = peak_profile(circ)
        assert prof.p_peak >= prof.p_second >= 0
        if prof.argmax != circ.target:
            assert prof.target_mismatch

    def test_contrast_identity(self):
        circ = derive_subcircuit(build_reference_circuit(4, 6, seed=5), 4, 6)
        prof = peak_profile(circ)
        assert prof.c_max == pytest.approx(c_max_from_dominance(prof.r_p), abs=1e-12)

    @pytest.mark.parametrize(
        "r_p,c_max",
        [(3840, 0.9995), (9990, 0.9998)],
    )
    def test_paper_scale_dominance_to_contrast(self, r_p, c_max):
        assert c_max_from_dominance(r_p) == pytest.approx(c_max, abs=5e-5)

    def test_dominance_contrast_is_the_contrast_of_r_p_and_1(self):
        for r_p in (1.0, 1.5, 3840.0, 0.25, -0.5):
            assert c_max_from_dominance(r_p) == (r_p - 1.0) / (r_p + 1.0)
        assert c_max_from_dominance(math.inf) == 1.0
        for r_p in (-1.0, -3.0):
            with pytest.raises(UndefinedMetricError, match="both have zero mass"):
                c_max_from_dominance(r_p)

    def test_profile_dict_roundtrip(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(3, 4, seed=3))
        prof = peak_profile(circ)
        again = profile_from_dict(profile_to_dict(prof))
        assert again == prof

    @settings(max_examples=30, deadline=None, database=None)
    @given(n=st.integers(2, 5), d=st.integers(2, 6), seed=st.integers(0, 2**16),
           mirror=st.booleans(), target=st.integers(0, 31))
    def test_profile_dict_matches_the_deep_copied_fields(self, n, d, seed, mirror, target):
        # profile_to_dict reads the fields off the profile; it writes the
        # bytes that dataclasses.asdict's deep copy of them gave.
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        if mirror and d % 2 == 0:
            circ = build_exact_inverse_peaking(circ)
        prof = peak_profile(retarget(circ, BitString.from_index(target % (1 << n), n)))
        copied = asdict(prof) | {"target": prof.target.text, "argmax": prof.argmax.text}
        copied |= {"r_p": None if math.isinf(prof.r_p) else prof.r_p}
        doc = profile_to_dict(prof)
        assert json.dumps(doc) == json.dumps(copied)
        assert list(doc) == [f.name for f in fields(prof)]

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 5), d=st.integers(2, 6), seed=st.integers(0, 2**16),
           mirror=st.booleans(), target=st.integers(0, 31))
    def test_profile_loads_only_with_its_derived_fields(self, n, d, seed, mirror, target):
        # A profile of a random circuit, peaked (mirror) or not, round-trips;
        # moving any one derived field off what the others give fails to load.
        circ = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
        if mirror and d % 2 == 0:
            circ = build_exact_inverse_peaking(circ)
        circ = retarget(circ, BitString.from_index(target % (1 << n), n))
        prof = peak_profile(circ)
        doc = profile_to_dict(prof)
        assert profile_from_dict(doc) == prof
        r_p = doc["r_p"]
        edits = [
            ("c_max", math.nextafter(doc["c_max"], -1)),
            ("r_p", 2.0 if r_p is None else math.nextafter(r_p, math.inf)),
            ("target_mismatch", not doc["target_mismatch"]),
        ]
        if r_p is not None:
            edits.append(("r_p", None))
        for field, value in edits:
            with pytest.raises(SchemaError, match=rf"^profile\.{field}: "):
                profile_from_dict(doc | {field: value})

    @pytest.mark.parametrize(
        "values,message",
        [
            ({"c_max": 0.2}, r"c_max: 0\.2, but p_peak and p_second give 0\.5"),
            ({"r_p": None}, r"r_p: null, but p_peak and p_second give 3\.0"),
            ({"p_second": 0.0, "c_max": 1.0}, r"r_p: 3\.0, but p_peak and p_second give null"),
            ({"target_mismatch": True},
             r"target_mismatch: true, but argmax and target give false"),
            ({"p_peak": 0.0, "p_second": 0.0, "r_p": None, "c_max": 0.0},
             r"c_max: target and strongest competitor both have zero mass"),
            # p_second may round below 0 by the slack, and then the contrast
            # is no probability.
            ({"p_peak": 5e-10, "p_second": -1e-10}, r"c_max: 1\.5 is outside \[0, 1\]"),
        ],
        ids=["c_max", "r_p_null", "r_p_not_null", "target_mismatch", "no_mass", "negative_p_second"],
    )
    def test_contradictory_profile_names_the_field(self, values, message):
        doc = {"target": "000", "p_peak": 0.75, "p_second": 0.25, "r_p": 3.0,
               "c_max": 0.5, "argmax": "000", "target_mismatch": False}
        assert profile_from_dict(doc).c_max == 0.5
        with pytest.raises(SchemaError, match=rf"^cell\.profile\.{message}$"):
            profile_from_dict(doc | values, where="cell.profile")

    @pytest.mark.parametrize(
        "probs",
        [[0.1, 0.4, 0.4, 0.1], [0.3, 0.2, 0.2, 0.3], [0.3, 0.1, 0.3, 0.3], [0.5, 0.2, 0.2, 0.1]],
    )
    def test_ties_rank_as_a_stable_sort_ranks_them(self, monkeypatch, probs):
        # The last of tied maxima is the argmax, and a tie leaves p_second
        # equal to p_peak, as the last two places of a stable argsort give.
        probs = np.array(probs)
        monkeypatch.setattr(sim, "full_distribution", lambda c: sim.ProbabilityDistribution(probs, 2))
        circ = Circuit(n=2, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(2))
        prof = peak_profile(circ)
        order = np.argsort(probs, kind="stable")
        assert prof.argmax.index == order[-1] == np.flatnonzero(probs == probs.max())[-1]
        assert (prof.p_peak, prof.p_second) == (probs[order[-1]], probs[order[-2]])
        assert (prof.p_second == prof.p_peak) == (np.sum(probs == probs.max()) > 1)
        assert prof.target_mismatch == (order[-1] != 0)

    def test_degenerate_second_probability(self):
        # Point mass with an exactly-zero second probability reports an
        # infinite dominance and c_max = 1.
        circ = Circuit(n=2, d=2, random_depth=1, layers=((), ()), target=BitString.zeros(2))
        prof = peak_profile(circ)
        assert np.isinf(prof.r_p)
        assert prof.c_max == 1.0
