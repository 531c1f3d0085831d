import concurrent.futures
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import reference_sample
from prcbench import sim
from prcbench.circuits import build_exact_inverse_peaking, build_reference_circuit
from prcbench.errors import SchemaError
from prcbench.harness import (
    STATUS_IDENTIFIED,
    STATUS_NON_IDENTIFIED,
    STATUS_SKIPPED,
    BenchConfig,
    CellResult,
    derived_seed,
    load_matrix,
    map_cells,
    matrix_to_csv,
    matrix_to_json,
    persist_matrix,
    run_cell,
    run_matrix,
    shot_policy,
)
from prcbench.noise import NoiseSpec
from prcbench.optimize import OptimizerConfig, peak_profile
from prcbench.suite import generate_suite


def small_config(**kw):
    base = dict(qubits=(3,), depths=(4,), reps=5, threshold=3, master_seed=1)
    base.update(kw)
    return BenchConfig(**base)


@pytest.fixture(scope="module")
def mirror_cell():
    circ = build_exact_inverse_peaking(build_reference_circuit(5, 6, seed=3))
    return circ, peak_profile(circ)


class TestShotPolicy:
    def test_minimum_floor(self):
        config = BenchConfig(qubits=(2,), depths=(2,), shot_base=1.0)
        assert shot_policy(2, 2, config) == 200

    def test_maximum_cell_within_ceiling(self):
        config = BenchConfig()
        assert shot_policy(20, 50, config) <= 1_000_000

    def test_ceiling_clamps(self):
        config = BenchConfig(shot_base=5000.0)
        assert shot_policy(20, 50, config) == 1_000_000

    def test_monotone_in_n_and_d(self):
        config = BenchConfig()
        for d in (2, 10, 30, 50):
            values = [shot_policy(n, d, config) for n in range(2, 21)]
            assert values == sorted(values)
        for n in (2, 10, 20):
            values = [shot_policy(n, d, config) for d in range(2, 51)]
            assert values == sorted(values)


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            BenchConfig(reps=3, threshold=4)
        with pytest.raises(ValueError):
            BenchConfig(skip_window=0)

    def test_dict_roundtrip(self):
        config = BenchConfig(
            qubits=(2, 3),
            depths=(2, 4),
            noise=NoiseSpec(p2=0.01, readout_eps=0.002),
            master_seed=9,
            exact=True,
        )
        assert BenchConfig.from_dict(config.to_dict()) == config

    def test_malformed_dict(self):
        with pytest.raises(SchemaError):
            BenchConfig.from_dict({"reps": "many"})

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k"):
            BenchConfig(top_k=-1)
        with pytest.raises(SchemaError, match="top_k"):
            BenchConfig.from_dict({"top_k": -1})

    def test_wall_clock_switch_is_an_unknown_key(self):
        with pytest.raises(SchemaError, match="deterministic"):
            BenchConfig.from_dict({"deterministic": True})


class TestRunCell:
    def test_noiseless_identifies_all_reps(self, mirror_cell):
        circ, prof = mirror_cell
        config = small_config(qubits=(5,), depths=(6,))
        cell = run_cell(circ, prof, config)
        assert cell.status == STATUS_IDENTIFIED
        assert cell.identified_reps == 5
        assert cell.mean_f == pytest.approx(0.0, abs=1e-6)
        assert len(cell.records) == 5

    def test_mean_f_is_mean_over_identified(self, mirror_cell):
        circ, prof = mirror_cell
        config = small_config(qubits=(5,), depths=(6,), noise=NoiseSpec(p2=0.02))
        cell = run_cell(circ, prof, config)
        f_values = [r.metrics.f for r in cell.records if r.metrics.identified]
        if f_values:
            assert cell.mean_f == pytest.approx(float(np.mean(f_values)), abs=1e-12)

    def test_fully_mixed_fails_identification(self):
        circ = build_exact_inverse_peaking(build_reference_circuit(8, 4, seed=2))
        prof = peak_profile(circ)
        config = small_config(qubits=(8,), depths=(4,), noise=NoiseSpec(p2=1.0))
        cell = run_cell(circ, prof, config)
        assert cell.status == STATUS_NON_IDENTIFIED
        assert cell.identified_reps == 0

    @pytest.mark.parametrize("p2", [0.0, 0.3, 0.8, 1.0])
    def test_threshold_rule_consistency(self, mirror_cell, p2):
        # Whatever the per-rep outcomes, the cell status is exactly the
        # threshold predicate over identified reps.
        circ, prof = mirror_cell
        for threshold in (1, 3, 5):
            config = small_config(
                qubits=(5,), depths=(6,), threshold=threshold, noise=NoiseSpec(p2=p2)
            )
            cell = run_cell(circ, prof, config)
            assert (cell.status == STATUS_IDENTIFIED) == (
                cell.identified_reps >= threshold
            )

    def test_profile_target_mismatch_rejected(self, mirror_cell):
        from prcbench.circuits import BitString

        circ, prof = mirror_cell
        bad = replace(circ, target=BitString.from_text("10000"))
        with pytest.raises(ValueError):
            run_cell(bad, prof, small_config())

    def test_exact_mode_metrics(self, mirror_cell):
        circ, prof = mirror_cell
        config = small_config(qubits=(5,), depths=(6,), exact=True, noise=NoiseSpec(p2=0.01))
        cell = run_cell(circ, prof, config)
        assert cell.status == STATUS_IDENTIFIED
        for r in cell.records:
            assert r.shots == 0
            assert r.metrics.identified

    def test_derived_seed_pure_function(self):
        config = small_config()
        assert derived_seed(config, 3, 4, 2) == derived_seed(config, 3, 4, 2)
        assert derived_seed(config, 3, 4, 2) != derived_seed(config, 3, 4, 1)


def _fake_runner(statuses):
    """Cell runner driven by a scripted status table keyed on (n, d)."""

    def runner(circuit, profile, config):
        status = statuses[(circuit.n, circuit.d)]
        identified = config.reps if status == STATUS_IDENTIFIED else 0
        return CellResult(
            status=status,
            records=(),
            mean_f=0.1 if status == STATUS_IDENTIFIED else None,
            identified_reps=identified,
        )

    return runner


@pytest.fixture(scope="module")
def scripted_suite():
    ref = build_reference_circuit(3, 16, seed=0)
    from prcbench.circuits import derive_subcircuit

    cells = {}
    for d in range(2, 17, 2):
        circ = derive_subcircuit(ref, 3, d)
        cells[(3, d)] = (circ, peak_profile(circ))
    return cells


@pytest.fixture(scope="module")
def grid_suite():
    optimizer = OptimizerConfig(stage1_iters=30, stage2_iters=20)
    return generate_suite((2, 3, 4), (2, 4, 6), seed=13, optimizer=optimizer).as_mapping()


class TestSkipProtocol:
    def test_forced_failures_yield_window_then_skip(self, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))
        config = BenchConfig(qubits=(3,), depths=depths, reps=5, threshold=3, skip_window=5)
        statuses = {(3, d): STATUS_NON_IDENTIFIED for d in depths}
        matrix = run_matrix(scripted_suite, config, cell_runner=_fake_runner(statuses))
        row = [matrix.cells[(3, d)].status for d in depths]
        assert row[:5] == [STATUS_NON_IDENTIFIED] * 5
        assert all(s == STATUS_SKIPPED for s in row[5:])

    def test_identification_resets_counter(self, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))
        config = BenchConfig(qubits=(3,), depths=depths, reps=5, threshold=3, skip_window=3)
        statuses = {(3, d): STATUS_NON_IDENTIFIED for d in depths}
        statuses[(3, 6)] = STATUS_IDENTIFIED  # two misses, a hit, then misses
        matrix = run_matrix(scripted_suite, config, cell_runner=_fake_runner(statuses))
        row = [matrix.cells[(3, d)].status for d in depths]
        # depths: 2,4 miss; 6 identified; 8,10,12 miss -> 14,16 skipped
        assert row == [
            STATUS_NON_IDENTIFIED,
            STATUS_NON_IDENTIFIED,
            STATUS_IDENTIFIED,
            STATUS_NON_IDENTIFIED,
            STATUS_NON_IDENTIFIED,
            STATUS_NON_IDENTIFIED,
            STATUS_SKIPPED,
            STATUS_SKIPPED,
        ]

    def test_skip_soundness_invariant(self, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))
        config = BenchConfig(qubits=(3,), depths=depths, reps=5, threshold=3, skip_window=2)
        statuses = {(3, d): STATUS_NON_IDENTIFIED for d in depths}
        statuses[(3, 4)] = STATUS_IDENTIFIED
        matrix = run_matrix(scripted_suite, config, cell_runner=_fake_runner(statuses))
        row = [matrix.cells[(3, d)].status for d in depths]
        for i, status in enumerate(row):
            if status == STATUS_SKIPPED:
                executed_before = [s for s in row[:i] if s != STATUS_SKIPPED]
                assert len(executed_before) >= config.skip_window
                assert all(
                    s == STATUS_NON_IDENTIFIED
                    for s in executed_before[-config.skip_window:]
                )

    def test_missing_cell_raises(self, scripted_suite):
        config = BenchConfig(qubits=(3,), depths=(2, 4, 99), reps=5, threshold=3)
        with pytest.raises(KeyError):
            run_matrix(scripted_suite, config)


class TestMatrixDeterminism:
    def test_same_seed_same_bytes_and_jobs_invariance(self, scripted_suite, monkeypatch):
        depths = tuple(sorted(d for _, d in scripted_suite))[:3]
        config = BenchConfig(
            qubits=(3,),
            depths=depths,
            reps=3,
            threshold=2,
            noise=NoiseSpec(p2=0.01, readout_eps=0.01, coherent_delta=0.02),
            master_seed=77,
        )
        m1 = run_matrix(scripted_suite, config, jobs=1)
        m2 = run_matrix(scripted_suite, config, jobs=4)
        assert matrix_to_json(m1) == matrix_to_json(m2)

        # The same bytes when shots come from rng.choice and np.unique.
        def choice_sample(dist, shots, rng):
            return sim.ShotHistogram(dist.n, *reference_sample(dist, shots, rng))

        monkeypatch.setattr(sim, "sample", choice_sample)
        assert matrix_to_json(run_matrix(scripted_suite, config, jobs=1)) == matrix_to_json(m1)

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    # No shrinking: each example starts two process pools, so shrinking a
    # failure would take minutes, and the examples are small already.
    @settings(max_examples=3, deadline=None, database=None, phases=[Phase.generate])
    @given(
        qubits=st.lists(st.sampled_from((2, 3, 4)), min_size=2, max_size=3, unique=True),
        reps_threshold=st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r))),
        skip_window=st.integers(1, 2),
        noise=st.builds(NoiseSpec, *[st.floats(1e-3, 0.1)] * 4),
        master_seed=st.integers(0, 2**32),
    )
    def test_bytes_do_not_depend_on_jobs(self, grid_suite, exact, qubits, reps_threshold,
                                         skip_window, noise, master_seed):
        # With two or more rows, jobs 2 and 3 run the rows on worker processes.
        reps, threshold = reps_threshold
        config = BenchConfig(qubits=tuple(qubits), depths=(2, 4, 6), reps=reps, threshold=threshold,
                             skip_window=skip_window, noise=noise, master_seed=master_seed,
                             exact=exact)
        texts = [matrix_to_json(run_matrix(grid_suite, config, jobs=jobs)) for jobs in (1, 2, 3)]
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_seed_isolation(self, scripted_suite):
        # Rerunning a single cell reproduces the records of the full run.
        depths = tuple(sorted(d for _, d in scripted_suite))[:2]
        config = BenchConfig(
            qubits=(3,), depths=depths, reps=3, threshold=2,
            noise=NoiseSpec(coherent_delta=0.05), master_seed=5,
        )
        matrix = run_matrix(scripted_suite, config)
        circ, prof = scripted_suite[(3, depths[1])]
        alone = run_cell(circ, prof, config)
        assert matrix_to_json(matrix) is not None
        assert [r.seed for r in alone.records] == [
            r.seed for r in matrix.cells[(3, depths[1])].records
        ]
        assert [r.metrics for r in alone.records] == [
            r.metrics for r in matrix.cells[(3, depths[1])].records
        ]


class TestPersistence:
    def test_roundtrip(self, scripted_suite, tmp_path):
        depths = tuple(sorted(d for _, d in scripted_suite))[:2]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1, master_seed=3)
        matrix = run_matrix(scripted_suite, config, provenance={"suite": "inline"})
        path = tmp_path / "m.json"
        persist_matrix(matrix, path)
        again = load_matrix(path)
        assert matrix_to_json(again) == matrix_to_json(matrix)

    def test_fresh_matrix_config_has_no_deterministic_key(self, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))[:1]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1)
        doc = json.loads(matrix_to_json(run_matrix(scripted_suite, config)))
        assert "deterministic" not in doc["config"]
        assert all("wall_time" not in r for cell in doc["cells"] for r in cell["records"])

    def test_older_file_with_wall_clock_fields_loads(self, scripted_suite, tmp_path):
        depths = tuple(sorted(d for _, d in scripted_suite))[:2]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1)
        fresh = matrix_to_json(run_matrix(scripted_suite, config))
        doc = json.loads(fresh)
        doc["config"]["deterministic"] = False
        records = [r for cell in doc["cells"] for r in cell["records"]]
        assert records
        for i, record in enumerate(records):
            record["wall_time"] = 0.25 + i
        path = tmp_path / "older.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert matrix_to_json(load_matrix(path)) == fresh

    def test_version_error(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"schema": "prc-matrix/0", "cells": []}))
        with pytest.raises(SchemaError, match="schema"):
            load_matrix(path)

    def test_corrupted_file_names_path(self, tmp_path, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))[:1]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1)
        matrix = run_matrix(scripted_suite, config)
        doc = json.loads(matrix_to_json(matrix))
        del doc["cells"][0]["status"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"cells\[0\]"):
            load_matrix(path)

    @staticmethod
    def _load_edited(scripted_suite, tmp_path, edit):
        depths = tuple(sorted(d for _, d in scripted_suite))[:2]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1)
        doc = json.loads(matrix_to_json(run_matrix(scripted_suite, config)))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return load_matrix(path)

    def test_unknown_status_names_cell(self, scripted_suite, tmp_path):
        def edit(doc):
            doc["cells"][1]["status"] = "bogus"

        with pytest.raises(SchemaError, match=r"cells\[1\]\.status: unknown status 'bogus'"):
            self._load_edited(scripted_suite, tmp_path, edit)

    def test_duplicate_cell_names_cell(self, scripted_suite, tmp_path):
        def edit(doc):
            doc["cells"].append(dict(doc["cells"][0]))

        with pytest.raises(SchemaError, match=r"cells\[2\]: duplicate cell \(3, "):
            self._load_edited(scripted_suite, tmp_path, edit)

    def test_missing_cell_is_not_the_grid(self, scripted_suite, tmp_path):
        def edit(doc):
            del doc["cells"][1]

        with pytest.raises(SchemaError, match=r"cells: the grid is not qubits x depths; missing \[\(3, "):
            self._load_edited(scripted_suite, tmp_path, edit)

    def test_cell_outside_the_grid(self, scripted_suite, tmp_path):
        def edit(doc):
            doc["cells"][1]["n"] = 4

        with pytest.raises(SchemaError, match=r"extra \[\(4, "):
            self._load_edited(scripted_suite, tmp_path, edit)

    def test_provenance_records_numerics(self, scripted_suite, tmp_path):
        matrix = self._load_edited(scripted_suite, tmp_path, lambda doc: None)
        assert matrix.provenance == {"numerics": 10}
        older = self._load_edited(scripted_suite, tmp_path, lambda doc: doc["provenance"].clear())
        assert older.provenance == {"numerics": 1}

    @pytest.mark.parametrize("value", [0, 11, "2", True])
    def test_unknown_numerics_names_field(self, scripted_suite, tmp_path, value):
        def edit(doc):
            doc["provenance"]["numerics"] = value

        with pytest.raises(SchemaError, match=r"provenance\.numerics: .* is not a numerics version"):
            self._load_edited(scripted_suite, tmp_path, edit)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{{{{")
        with pytest.raises(SchemaError, match="JSON"):
            load_matrix(path)

    def test_csv_columns(self, scripted_suite):
        depths = tuple(sorted(d for _, d in scripted_suite))[:2]
        config = BenchConfig(qubits=(3,), depths=depths, reps=2, threshold=1)
        matrix = run_matrix(scripted_suite, config)
        csv = matrix_to_csv(matrix)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,d,status,identified_reps,mean_f,shots"
        assert len(lines) == 1 + len(depths)


@pytest.fixture
def inline_pools(monkeypatch):
    """Two CPUs, two BLAS threads, and a process pool that records its
    worker count and the BLAS threads its workers would start with, and
    maps inline, so no process starts."""
    workers = []

    class InlinePool:
        def __init__(self, max_workers, **_):
            workers.append(max_workers)
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return workers


class TestMapCells:
    def test_workers_are_capped_and_start_with_one_blas_thread(self, inline_pools):
        assert map_cells(abs, [-1, 2, -3], jobs=10**6) == [1, 2, 3]
        assert map_cells(abs, [-4, 5], jobs=10**6) == [4, 5]
        assert inline_pools == [2, 2]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_one_job_or_one_item_starts_no_pool(self, inline_pools):
        assert map_cells(abs, [-1, 2, -3], jobs=1) == [1, 2, 3]
        assert map_cells(abs, [-4], jobs=10**6) == [4]
        assert map_cells(abs, [], jobs=10**6) == []
        assert inline_pools == []
