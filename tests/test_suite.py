import json

import pytest

from prcbench.circuits import circuit_to_json
from prcbench.errors import SchemaError
from prcbench.optimize import objective
from prcbench.suite import generate_suite, load_suite, save_suite


@pytest.fixture
def saved_suite(tmp_path):
    suite = generate_suite((2, 3), (4,), seed=5, optimize_cells=False)
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
