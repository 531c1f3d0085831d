import json
import re

import pytest

from prcbench.circuits import circuit_to_json
from prcbench.errors import CapacityError, SchemaError
from prcbench.optimize import PROFILE_SCAN_LIMIT, OptimizerConfig, objective
from prcbench.sim import NUMERICS
from prcbench.suite import generate_suite, load_suite, save_suite


@pytest.fixture
def saved_suite(tmp_path):
    suite = generate_suite((2, 3), (4,), seed=5, optimizer=None)
    return suite, save_suite(suite, tmp_path)


def test_round_trip(saved_suite):
    suite, manifest = saved_suite
    loaded = load_suite(manifest)
    assert loaded.cells.keys() == suite.cells.keys()
    for key, cell in suite.cells.items():
        assert circuit_to_json(loaded.cells[key].circuit) == circuit_to_json(cell.circuit)
        assert loaded.cells[key].profile == cell.profile
        assert loaded.cells[key].final_objective == cell.final_objective == objective(cell.circuit)


def test_key_disagreeing_with_cell_file_names_both(saved_suite):
    _, manifest = saved_suite
    doc = json.loads(manifest.read_text())
    files = doc["circuits"]
    files["2x4"], files["3x4"] = files["3x4"], files["2x4"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"'2x4'.*prc_n3_d4\.json"):
        load_suite(manifest)


def test_cell_file_not_json_names_file(saved_suite):
    _, manifest = saved_suite
    (manifest.parent / "prc_n2_d4.json").write_text("{oops")
    with pytest.raises(SchemaError, match=r"prc_n2_d4\.json"):
        load_suite(manifest)


@pytest.mark.parametrize("bad_key", ["2by4", "2x", "axb", "x4", "2x4x4", "-2x4"])
def test_malformed_manifest_key_names_key_and_manifest(saved_suite, bad_key):
    _, manifest = saved_suite
    doc = json.loads(manifest.read_text())
    doc["circuits"][bad_key] = doc["circuits"].pop("2x4")
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"suite\.json: suite key '{re.escape(bad_key)}'"):
        load_suite(manifest)


@pytest.mark.parametrize("field", ["target", "p_peak", "p_second", "r_p", "c_max", "argmax", "target_mismatch"])
def test_missing_profile_field_names_file_and_path(saved_suite, field):
    _, manifest = saved_suite
    cell_path = manifest.parent / "prc_n2_d4.json"
    doc = json.loads(cell_path.read_text())
    del doc["profile"][field]
    cell_path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"prc_n2_d4\.json: profile\.{field}: missing"):
        load_suite(manifest)


@pytest.mark.parametrize(
    "field,value",
    [
        ("c_max", "0.5"),
        ("p_peak", None),
        ("p_second", True),
        ("r_p", [2.0]),
        ("target", 0),
        ("argmax", "0a"),
        ("target_mismatch", 0),
    ],
)
def test_ill_typed_profile_field_names_file_and_path(saved_suite, field, value):
    _, manifest = saved_suite
    cell_path = manifest.parent / "prc_n2_d4.json"
    doc = json.loads(cell_path.read_text())
    doc["profile"][field] = value
    cell_path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"prc_n2_d4\.json: profile\.{field}: expected"):
        load_suite(manifest)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("p_peak", 5.0, "is outside"),
        ("p_peak", -0.5, "is outside"),
        ("p_second", 1.5, "is outside"),
        ("p_second", -0.25, "is outside"),
        ("c_max", -3.0, "is outside"),
        ("c_max", 1.25, "is outside"),
        ("r_p", 0.5, "is below 1"),
    ],
)
def test_out_of_range_profile_field_names_file_and_path(saved_suite, field, value, message):
    _, manifest = saved_suite
    cell_path = manifest.parent / "prc_n2_d4.json"
    doc = json.loads(cell_path.read_text())
    doc["profile"][field] = value
    cell_path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"prc_n2_d4\.json: profile\.{field}: .* {message}"):
        load_suite(manifest)


def test_second_probability_above_peak_names_file_and_path(saved_suite):
    _, manifest = saved_suite
    cell_path = manifest.parent / "prc_n2_d4.json"
    doc = json.loads(cell_path.read_text())
    doc["profile"].update(p_peak=0.25, p_second=0.5)
    cell_path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"prc_n2_d4\.json: profile\.p_second: 0\.5 exceeds p_peak"):
        load_suite(manifest)


def test_peak_probability_rounded_above_one_loads(saved_suite):
    # Squared amplitudes of an exact peak can land a few ulps above 1.
    _, manifest = saved_suite
    cell_path = manifest.parent / "prc_n2_d4.json"
    doc = json.loads(cell_path.read_text())
    doc["profile"].update(p_peak=1.000000000000003, p_second=0.0, r_p=None, c_max=1.0)
    doc["final_objective"] = 1.000000000000003  # the target's probability is p_peak
    cell_path.write_text(json.dumps(doc))
    assert load_suite(manifest).cells[(2, 4)].profile.p_peak == 1.000000000000003


def test_manifest_records_numerics_and_older_manifests_load_as_numerics_1(saved_suite):
    suite, manifest = saved_suite
    doc = json.loads(manifest.read_text())
    assert doc["numerics"] == NUMERICS == suite.numerics == 10
    assert load_suite(manifest).numerics == 10
    del doc["numerics"]
    manifest.write_text(json.dumps(doc))
    assert load_suite(manifest).numerics == 1


@pytest.mark.parametrize("value", [0, 11, "2", 2.0, True, None])
def test_unknown_numerics_names_manifest(saved_suite, value):
    _, manifest = saved_suite
    doc = json.loads(manifest.read_text())
    doc["numerics"] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"suite\.json: numerics: .* is not a numerics version 1\.\.10"):
        load_suite(manifest)


def test_saved_bytes_do_not_depend_on_jobs(tmp_path):
    # jobs=2 builds the cells on two worker processes.
    optimizer = OptimizerConfig(stage1_iters=30, stage2_iters=20)
    dirs = []
    for jobs in (1, 2):
        suite = generate_suite((2, 3), (2, 5), seed=8, optimizer=optimizer, jobs=jobs)
        dirs.append(save_suite(suite, tmp_path / f"jobs{jobs}").parent)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[1] / name).read_bytes() == (dirs[0] / name).read_bytes()


@pytest.mark.parametrize("optimizer", [OptimizerConfig(stage1_iters=3, stage2_iters=2, stop_tol=-1e-3), None,
                                       OptimizerConfig(stage1_iters=3, stage2_iters=2, adam_step=1)],
                         ids=["optimized", "no_optimize", "integer_adam_step"])
def test_saving_a_loaded_suite_writes_the_same_bytes(tmp_path, optimizer):
    # The manifest's optimizer comes from the suite, so it survives a load.
    suite = generate_suite((2, 3), (4,), seed=4, optimizer=optimizer)
    assert suite.optimizer == optimizer
    first = save_suite(suite, tmp_path / "first")
    loaded = load_suite(first)
    assert loaded.optimizer == suite.optimizer
    second = save_suite(loaded, tmp_path / "second")
    names = sorted(p.name for p in first.parent.iterdir())
    assert names == sorted(p.name for p in second.parent.iterdir())
    for name in names:
        assert (second.parent / name).read_bytes() == (first.parent / name).read_bytes()


def test_a_grid_past_the_profile_scan_limit_fails_before_any_optimization(optimize_calls):
    # The (21, 2) cell could not be profiled, so no smaller cell is
    # optimized first.
    assert PROFILE_SCAN_LIMIT == 20
    with pytest.raises(CapacityError, match=r"^peak profile scans the full distribution; 21 > 20 qubits$"):
        generate_suite((2, 21), (2,), seed=0, optimizer=OptimizerConfig(stage1_iters=0, stage2_iters=0))
    assert optimize_calls == []
