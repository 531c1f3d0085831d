"""Strict loading of every persisted document: the value rules the
dataclasses enforce, the checks across documents, inputs that once loaded
or crashed, and a fuzz property over single-field mutations."""

import copy
import json
import math
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prcbench.circuits import (
    ROLE_PEAKING,
    ROLE_RANDOM,
    BitString,
    build_reference_circuit,
    circuit_from_dict,
    circuit_to_dict,
    derive_subcircuit,
    retarget,
)
from prcbench.errors import SchemaError, read_fields
from prcbench.harness import BenchConfig, matrix_from_dict, matrix_to_json, run_matrix
from prcbench.noise import NoiseSpec
from prcbench.optimize import OptimizerConfig, profile_from_dict, profile_to_dict
from prcbench.suite import generate_suite, load_suite, save_suite

UNKNOWN = "zz_unknown"
REPLACEMENTS = ["text", 0.5, True, None, [1], math.nan]
_HUGE = "100000000000000000...0000000000000000000"  # reprlib's abbreviation of 10**400


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    # Unoptimized cells under a named optimizer, so the manifest fuzz has an
    # optimizer object to mutate without paying for optimization.
    suite = generate_suite((2, 3), (2, 4), seed=3, optimizer=None)
    suite = replace(suite, optimizer=OptimizerConfig(stage1_iters=10, stage2_iters=5))
    return suite, save_suite(suite, tmp_path_factory.mktemp("suite"))


@pytest.fixture(scope="module")
def matrices(saved):
    suite, _ = saved
    noise = NoiseSpec(p2=0.05, readout_eps=0.02, coherent_delta=0.01)
    grid = dict(qubits=(3, 2), depths=(2, 4), reps=2, threshold=1, top_k=2, noise=noise)
    return [run_matrix(suite.as_mapping(), BenchConfig(**grid, exact=exact)) for exact in (False, True)]


@pytest.fixture(scope="module")
def skipping(saved):
    # Exact mode at p2 = 1 leaves the uniform distribution, which identifies
    # no rep, so skip_window = 1 skips each row's second depth; the same
    # config with skip_window = 2 runs it.
    suite, _ = saved
    grid = dict(qubits=(2, 3), depths=(2, 4), reps=2, threshold=1, exact=True, noise=NoiseSpec(p2=1.0))
    return [json.loads(matrix_to_json(run_matrix(suite.as_mapping(), BenchConfig(**grid, skip_window=w))))
            for w in (1, 2)]


@pytest.fixture(scope="module")
def circuit_doc():
    circuit = derive_subcircuit(build_reference_circuit(3, 5, seed=2), 3, 5)
    return circuit_to_dict(retarget(circuit, BitString.from_text("101")))


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


class TestBenchConfigRules:
    @pytest.mark.parametrize(
        "values,path",
        [
            ({"min_shots": 500, "max_shots": 100}, "max_shots: 100 is below min_shots 500"),
            ({"min_shots": 0}, "min_shots must be at least 1"),
            ({"master_seed": -1}, "master_seed must be non-negative"),
            ({"qubits": [1, 3]}, r"qubits: 1 is below 2"),
            ({"depths": [4, 1]}, r"depths: 1 is below 2"),
            ({"qubits": [3, 2, 3]}, r"qubits: \(3, 2, 3\) lists a value twice"),
            ({"depths": [2, 2]}, r"depths: \(2, 2\) lists a value twice"),
            ({"shot_base": -250}, "shot_base must be non-negative, got -250"),
            ({"qubits": []}, "qubits must be non-empty"),
            ({"reps": 0}, "reps must be at least 1"),
            # A larger one once loaded and died inside numpy's sampler.
            ({"max_shots": 10**23, "shot_base": 1e300},
             "max_shots: 100000000000000000000000 exceeds sim.MAX_SHOTS = 134217728"),
        ],
        ids=["min_above_max", "min_below_1", "negative_seed", "qubit_below_2", "depth_below_2",
             "duplicate_qubit", "duplicate_depth", "negative_shot_base", "empty_qubits", "zero_reps",
             "max_shots_above_cap"],
    )
    def test_programmatic_and_loaded_configs_agree(self, values, path):
        with pytest.raises(ValueError, match=f"^{path}"):
            BenchConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
        with pytest.raises(SchemaError, match=f"^{path}"):
            BenchConfig.from_dict(values)


@pytest.mark.parametrize(
    "cls,values,message,read_message",
    [
        (OptimizerConfig, {"stage1_iters": 3.0}, "stage1_iters: expected an integer, got 3.0", None),
        (BenchConfig, {"master_seed": 1.5}, "master_seed: expected an integer, got 1.5", None),
        (BenchConfig, {"reps": 2.0}, "reps: expected an integer, got 2.0", None),
        (BenchConfig, {"threshold": True}, "threshold: expected an integer, got True", None),
        (BenchConfig, {"exact": 1}, "exact: expected a boolean, got 1", None),
        (BenchConfig, {"qubits": (2, 3.0)}, "qubits[1]: expected an integer, got 3.0", None),
        (BenchConfig, {"qubits": 5}, "qubits: expected a list, got 5", None),
        (NoiseSpec, {"p2": True}, "p2: expected a number, got True", None),
        # Numbers past float range, NaN and infinities, whichever field.
        (BenchConfig, {"shot_base": 10**400}, f"shot_base: {_HUGE} is not finite", None),
        (BenchConfig, {"shot_base": math.nan}, "shot_base: nan is not finite", None),
        (BenchConfig, {"shot_base": math.inf}, "shot_base: inf is not finite", None),
        (OptimizerConfig, {"adam_step": 10**400}, f"adam_step: {_HUGE} is not finite", None),
        (OptimizerConfig, {"adam_step": math.nan}, "adam_step: nan is not finite", None),
        (OptimizerConfig, {"adam_step": math.inf}, "adam_step: inf is not finite", None),
        (OptimizerConfig, {"stop_tol": 10**400}, f"stop_tol: {_HUGE} is not finite", None),
        (OptimizerConfig, {"stop_tol": math.nan}, "stop_tol: nan is not finite", None),
        (OptimizerConfig, {"stop_tol": math.inf}, "stop_tol: inf is not finite", None),
        (OptimizerConfig, {"stop_tol": -math.inf}, "stop_tol: -inf is not finite", None),
        (NoiseSpec, {"coherent_delta": 10**400}, f"coherent_delta: {_HUGE} is not finite", None),
        (NoiseSpec, {"coherent_delta": math.nan}, "coherent_delta: nan is not finite", None),
        (NoiseSpec, {"coherent_delta": math.inf}, "coherent_delta: inf is not finite", None),
        # JSON holds a nested config as an object, so the reader asks for one.
        (BenchConfig, {"noise": None}, "noise: expected a NoiseSpec, got None",
         "noise: expected an object, got None"),
        (BenchConfig, {"noise": "x"}, "noise: expected a NoiseSpec, got 'x'",
         "noise: expected an object, got 'x'"),
    ],
    ids=["float_iters", "float_seed", "float_reps", "bool_threshold", "int_exact", "float_qubit",
         "int_qubits", "bool_rate", "huge_shot_base", "nan_shot_base", "inf_shot_base", "huge_adam_step",
         "nan_adam_step", "inf_adam_step", "huge_stop_tol", "nan_stop_tol", "inf_stop_tol",
         "minus_inf_stop_tol", "huge_coherent_delta", "nan_coherent_delta", "inf_coherent_delta",
         "none_noise", "str_noise"],
)
def test_configs_built_in_code_take_the_kinds_the_reader_takes(cls, values, message, read_message):
    # Such a config once wrote a document its loader refused, or crashed a
    # run.  The reader's message is the constructor's where read_message is
    # None.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**values)
    with pytest.raises(SchemaError, match=f"^{re.escape(read_message or message)}$"):
        read_fields(cls, values, "")


class TestRejectedInputs:
    """Inputs that loaded, or failed with another exception, before every
    loader went through one reader; each now names its path."""

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"exact": "false"}, "exact: expected a boolean"),
            ({"threshold": True}, "threshold: expected an integer"),
            ({"qubits": [2.7]}, r"qubits\[0\]: expected an integer"),
            ({"shot_base": "250"}, "shot_base: expected a number"),
            ({"noise": {"p1": "0.1"}}, r"noise\.p1: expected a number"),
            ({"noise": {"p1": True}}, r"noise\.p1: expected a number"),
            ({"noise": {"coherent_delta": math.nan}}, r"noise\.coherent_delta: nan is not finite"),
            ({"noise": {"coherent_delta": math.inf}}, r"noise\.coherent_delta: inf is not finite"),
            ({"shot_base": 10**400}, r"shot_base: .* is not finite"),
        ],
    )
    def test_bench_config(self, doc, message):
        with pytest.raises(SchemaError, match=f"^{message}"):
            BenchConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["cells"][0]["records"][0]["metrics"].update(identified="false"),
             r"cells\[0\]\.records\[0\]\.metrics\.identified: expected a boolean"),
            (lambda d: d["cells"][0]["records"][0].update(shots="12"),
             r"cells\[0\]\.records\[0\]\.shots: expected an integer"),
            (lambda d: d["cells"][1].update(identified_reps=1.7),
             r"cells\[1\]\.identified_reps: expected an integer"),
            (lambda d: d["cells"][0]["records"][1].update(target=101),
             r"cells\[0\]\.records\[1\]\.target: expected a string"),
            (lambda d: d["cells"][0]["records"][0]["metrics"].update(f=math.nan),
             r"cells\[0\]\.records\[0\]\.metrics\.f: nan is not finite"),
            (lambda d: d.update(extra=1), r"document: unknown key\(s\) 'extra'"),
            (lambda d: d["cells"][2].update(extra=1), r"cells\[2\]: unknown key\(s\) 'extra'"),
        ],
        ids=["identified_str", "shots_str", "identified_reps_float", "target_int", "f_nan",
             "unknown_top_level_key", "unknown_cell_key"],
    )
    def test_matrix(self, matrices, edit, message):
        doc = _edited(json.loads(matrix_to_json(matrices[0])), edit)
        with pytest.raises(SchemaError, match=f"^{message}"):
            matrix_from_dict(doc)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(n=2.9), "n: expected an integer"),
            (lambda d: d.update(final_x=[True]), r"final_x\[0\]: expected an integer"),
            (lambda d: d["layers"][1][0]["params"].__setitem__(3, "0.5"),
             r"layers\[1\]\[0\]\.params\[3\]: expected a number"),
            (lambda d: d["layers"][0][0]["params"].pop(), r"layers\[0\]\[0\]\.params: expected 16"),
            (lambda d: d.update(extra=1), r"document: unknown key\(s\) 'extra'"),
            (lambda d: d["layers"][2][0].update(extra=1), r"layers\[2\]\[0\]: unknown key\(s\)"),
            (lambda d: d.update(seed="1"), "seed: expected an integer"),
            (lambda d: d.update(n=1), "n: need at least 2 qubits, got 1"),
            (lambda d: d["layers"].pop(), "layers: 4 layers do not match depth 5"),
            (lambda d: d.update(target="10"), "target: 2 bits do not match 3 qubits"),
            (lambda d: d["layers"][0][0].update(qubit_low=2),
             r"layers\[0\]\[0\]\.qubit_low: gate leaves the register"),
            (lambda d: d["layers"][0].append(copy.deepcopy(d["layers"][0][0])),
             r"layers\[0\]\[1\]\.qubit_low: gate overlaps another"),
        ],
        ids=["n_float", "final_x_bool", "param_str", "params_short", "unknown_key",
             "unknown_gate_key", "seed_str", "n_below_2", "layer_count", "target_length",
             "gate_leaves_register", "gates_overlap"],
    )
    def test_circuit(self, circuit_doc, edit, message):
        with pytest.raises(SchemaError, match=f"^{message}"):
            circuit_from_dict(_edited(circuit_doc, edit))

    @pytest.mark.parametrize("random_depth", [-1, 0, 5, 6])
    def test_circuit_random_depth_within_the_layers(self, circuit_doc, random_depth):
        # The roles follow random_depth, so only its range can reject the
        # document; outside 0..d, Circuit.role and peaking_placements would
        # disagree about which gates are peaking.
        def edit(doc):
            doc["random_depth"] = random_depth
            for t, layer in enumerate(doc["layers"]):
                for g in layer:
                    g["role"] = ROLE_RANDOM if t < random_depth else ROLE_PEAKING

        assert circuit_doc["d"] == 5
        doc = _edited(circuit_doc, edit)
        if 0 <= random_depth <= 5:
            circuit = circuit_from_dict(doc)
            assert len(list(circuit.peaking_placements())) == sum(map(len, doc["layers"][random_depth:]))
        else:
            with pytest.raises(SchemaError, match=rf"^random_depth: {random_depth} is outside 0\.\.5"):
                circuit_from_dict(doc)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(seed="1"), "seed: expected an integer"),
            (lambda d: d.update(seed=1.5), "seed: expected an integer"),
            (lambda d: d.update(qubits=[2]), r"circuits: the cells are not qubits x depths; "
                                             r"missing \[\], extra \[\(3, 2\), \(3, 4\)\]"),
            (lambda d: d["circuits"].update({"2x2": 7}), r"circuits\.2x2: expected a string"),
            (lambda d: d["optimizer"].update(stage1_iters=1.0),
             r"optimizer\.stage1_iters: expected an integer"),
            (lambda d: d.update(optimizer=None), r"optimizer: expected an object, got None"),
            (lambda d: d["circuits"].update({"02x4": d["circuits"]["2x4"]}),
             r"suite key '02x4' repeats cell \(2, 4\)"),
        ],
        ids=["seed_str", "seed_float", "qubits_disagree_with_circuits", "file_name_int",
             "optimizer_float", "optimizer_null", "two_keys_one_cell"],
    )
    def test_suite_manifest(self, saved, edit, message):
        _, manifest = saved
        mutant = manifest.parent / "mutant.json"
        mutant.write_text(json.dumps(_edited(json.loads(manifest.read_text()), edit)))
        with pytest.raises(SchemaError, match=rf"mutant\.json: {message}"):
            load_suite(mutant)


class TestRecordRules:
    """A matrix record belongs to its cell: its n and d are the cell's, reps
    count 0, 1, ... in order, its seed is derived_seed's, sampled records
    draw shot_policy's shots, its bitstrings are n characters of 0 and 1,
    and its top counts are what
    ShotHistogram.top(top_k) could have written.  Each rule names the
    record's field.  The edited record holds 580 shots and top counts
    [["01", 408], ["10", 68]] under top_k = 2."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r.update(n=99), r"records\[1\]\.n: 99 is not the cell's n 2"),
            (lambda r: r.update(d=9), r"records\[1\]\.d: 9 is not the cell's d 4"),
            (lambda r: r.update(rep=0), r"records\[1\]\.rep: 0, but record 1 holds rep 1"),
            (lambda r: r.update(shots=-5), r"records\[1\]\.shots: -5 is below 1"),
            (lambda r: r.update(shots=0), r"records\[1\]\.shots: 0 is below 1"),
            # Both loaded before the loader called the writer's rules.
            (lambda r: r.update(shots=r["shots"] + 1000),
             r"records\[1\]\.shots: 1580, but shot_policy gives 580$"),
            (lambda r: r.update(seed=12345), r"records\[1\]\.seed: 12345, but derived_seed gives [0-9]+$"),
            (lambda r: r.update(target="2x"),
             r"records\[1\]\.target: '2x' is not 2 characters of 0 and 1"),
            (lambda r: r.update(target="001"), r"records\[1\]\.target: '001' is not 2 characters"),
            (lambda r: r["top_counts"][0].__setitem__(0, "1"),
             r"records\[1\]\.top_counts\[0\]\[0\]: '1' is not 2 characters of 0 and 1"),
            (lambda r: r["top_counts"][0].__setitem__(1, -3),
             r"records\[1\]\.top_counts\[0\]\[1\]: count -3 is outside 1\.\.580"),
            (lambda r: r["top_counts"].append(["11", 1]),
             r"records\[1\]\.top_counts\[2\]: more than top_k = 2 entries"),
            (lambda r: r["top_counts"][1].__setitem__(0, "01"),
             r"records\[1\]\.top_counts\[1\]\[0\]: '01' is listed twice"),
            (lambda r: r["top_counts"][1].__setitem__(1, 0),
             r"records\[1\]\.top_counts\[1\]\[1\]: count 0 is outside 1\.\.580"),
            (lambda r: r["top_counts"][0].__setitem__(1, 581),
             r"records\[1\]\.top_counts\[0\]\[1\]: count 581 is outside 1\.\.580"),
            (lambda r: r["top_counts"][1].__setitem__(1, 200),
             r"records\[1\]\.top_counts\[1\]\[1\]: the counts sum to 608, past shots 580"),
            (lambda r: r["top_counts"].reverse(),
             r"records\[1\]\.top_counts\[1\]: out of rank order"),
            # "01" is basis index 2 and "10" index 1, so a tie ranks "10" first.
            (lambda r: r.update(top_counts=[["01", 100], ["10", 100]]),
             r"records\[1\]\.top_counts\[1\]: out of rank order"),
        ],
        ids=["n", "d", "rep", "negative_shots", "zero_shots", "shots_off_policy", "seed", "target_chars",
             "target_length",
             "top_counts_key", "top_counts_count", "top_counts_past_top_k",
             "top_counts_listed_twice", "top_counts_zero_count", "top_counts_above_shots",
             "top_counts_sum_past_shots", "top_counts_count_order", "top_counts_tie_order"],
    )
    def test_sampled_record(self, matrices, edit, message):
        doc = json.loads(matrix_to_json(matrices[0]))
        assert (doc["cells"][1]["n"], doc["cells"][1]["d"]) == (2, 4)
        edit(doc["cells"][1]["records"][1])
        with pytest.raises(SchemaError, match=rf"^cells\[1\]\.{message}"):
            matrix_from_dict(doc)

    @pytest.mark.parametrize(
        "cell,edit,message",
        [
            # The target is listed with a competitor, so the counts fix the
            # metrics; this record once loaded claiming p_hat_peak 0.739.
            (0, lambda r: r.update(top_counts=[["11", 399], ["00", 61]]),
             r"metrics\.identified: True, but its top_counts give False"),
            (0, lambda r: r["metrics"].update(p_hat_peak=0.5),
             r"metrics\.p_hat_peak: 0\.5, but its top_counts give 0\.7388888888888889"),
            (0, lambda r: r["metrics"].update(p_hat_second=0.5),
             r"metrics\.p_hat_second: 0\.5, but its top_counts give 0\.11296296296296296"),
            (0, lambda r: r["metrics"].update(c_exp=0.5),
             r"metrics\.c_exp: 0\.5, but its top_counts give 0\.7347826086956522"),
            # Fewer than top_k entries list every shot; then they fix the
            # metrics even with the target alone.
            (0, lambda r: r.update(top_counts=[["00", 399]]),
             r"top_counts: the counts sum to 399, but fewer than top_k = 2 entries list all 540 shots"),
            (0, lambda r: r.update(top_counts=[["00", 540]]),
             r"metrics\.p_hat_peak: 0\.7388888888888889, but its top_counts give 1\.0"),
            # A target missing from top_k entries out-counts none of them.
            (1, lambda r: r["metrics"].update(identified=True),
             r"metrics\.identified: True, but the target is not among its top_k = 2 top_counts"),
            (0, lambda r: r["metrics"].update(f=0.5), r"metrics\.f: 0\.5, but its f_raw clamps to 0\.0"),
        ],
        ids=["found_swapped_counts", "p_hat_peak", "p_hat_second", "c_exp", "complete_counts_sum",
             "complete_counts_fix_metrics", "unlisted_target_identified", "f_is_clamped_f_raw"],
    )
    def test_metrics_follow_from_top_counts(self, matrices, cell, edit, message):
        doc = json.loads(matrix_to_json(matrices[0]))
        record = doc["cells"][cell]["records"][cell]
        assert record["target"] == "00" and len(record["top_counts"]) == 2
        assert (record["top_counts"][0][0] == "00") == (cell == 0)
        edit(record)
        with pytest.raises(SchemaError, match=rf"^cells\[{cell}\]\.records\[{cell}\]\.{message}"):
            matrix_from_dict(doc)

    @pytest.mark.parametrize("top_k", [0, 1, 3, 8])
    def test_written_records_load_at_every_top_k(self, saved, top_k):
        # No entries, the target alone, and every outcome listed (8 covers
        # all of a 3-qubit cell's outcomes) all pass the metrics rules.
        suite, _ = saved
        config = BenchConfig(qubits=(2, 3), depths=(2, 4), reps=2, threshold=1, top_k=top_k,
                             noise=NoiseSpec(p2=0.05, readout_eps=0.02))
        matrix = run_matrix(suite.as_mapping(), config)
        assert matrix_from_dict(json.loads(matrix_to_json(matrix))) == matrix

    def test_exact_record_f_is_clamped_f_raw(self, matrices):
        doc = json.loads(matrix_to_json(matrices[1]))
        doc["cells"][0]["records"][0]["metrics"]["f"] = 0.5
        with pytest.raises(SchemaError, match=r"^cells\[0\]\.records\[0\]\.metrics\.f: 0\.5, but"):
            matrix_from_dict(doc)

    def test_counts_in_rank_order_load(self, matrices):
        doc = json.loads(matrix_to_json(matrices[0]))
        doc["cells"][1]["records"][1]["top_counts"] = [["10", 290], ["01", 290]]
        assert matrix_from_dict(doc).cells[(2, 4)].records[1].top_counts == (("10", 290), ("01", 290))

    def test_exact_record_stores_no_counts(self, matrices):
        doc = json.loads(matrix_to_json(matrices[1]))
        doc["cells"][0]["records"][0]["top_counts"] = [["00", 1]]
        message = r"^cells\[0\]\.records\[0\]\.top_counts\[0\]: an exact-mode record stores no counts"
        with pytest.raises(SchemaError, match=message):
            matrix_from_dict(doc)

    def test_exact_record_draws_no_shots(self, matrices):
        doc = json.loads(matrix_to_json(matrices[1]))
        doc["cells"][0]["records"][0]["shots"] = 5
        message = r"^cells\[0\]\.records\[0\]\.shots: 5, but an exact-mode matrix"
        with pytest.raises(SchemaError, match=message):
            matrix_from_dict(doc)


def _skip(cell):
    cell.update(status="skipped", records=[], identified_reps=0, mean_f=None)


class TestCellSummaryRules:
    """A stored cell's summary is what its records give: an executed cell
    holds `reps` records, and its identified reps, mean f and status follow
    from them by the threshold rule; a skipped cell holds no records, 0
    identified reps and no mean f; and each row skips the cells the skip rule
    skips.  Each rule names the cell's field."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: c.update(identified_reps=0), r"identified_reps: 0, but its records give 2"),
            (lambda c: c.update(mean_f=None), r"mean_f: None, but its records give {mean_f}$"),
            (lambda c: c.update(mean_f=7.5), r"mean_f: 7\.5, but its records give {mean_f}$"),
            (lambda c: c.update(status="non_identified"),
             r"status: 'non_identified', but its records give 'identified'"),
            (lambda c: c["records"].pop(), r"records: 1 records, but config\.reps is 2"),
        ],
        ids=["identified_reps", "mean_f_null", "mean_f_out_of_range", "status", "records"],
    )
    def test_executed_cell(self, matrices, edit, message):
        doc = json.loads(matrix_to_json(matrices[0]))
        assert doc["cells"][0]["identified_reps"] == 2
        # The stored mean f, which loading checks against the cell's records.
        message = message.replace("{mean_f}", re.escape(repr(doc["cells"][0]["mean_f"])))
        edit(doc["cells"][0])
        with pytest.raises(SchemaError, match=rf"^cells\[0\]\.{message}"):
            matrix_from_dict(doc)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c, _: c.update(identified_reps=1), r"identified_reps: 1, but a skipped cell has 0"),
            (lambda c, _: c.update(mean_f=0.5), r"mean_f: 0\.5, but a skipped cell has None"),
            (lambda c, records: c.update(records=records),
             r"records: 2 records, but a skipped cell holds none"),
        ],
        ids=["identified_reps", "mean_f", "records"],
    )
    def test_skipped_cell(self, skipping, edit, message):
        # A cell the writer skipped; the records edit takes those of the
        # same cell run under skip_window 2.
        doc, unskipped = copy.deepcopy(skipping[0]), skipping[1]
        cell = doc["cells"][1]
        assert (cell["n"], cell["d"], cell["status"]) == (2, 4, "skipped")
        assert matrix_from_dict(doc).cells[(2, 4)].status == "skipped"
        edit(cell, unskipped["cells"][1]["records"])
        with pytest.raises(SchemaError, match=rf"^cells\[1\]\.{message}"):
            matrix_from_dict(doc)

    def test_executed_cell_after_a_skipped_one(self, matrices):
        doc = json.loads(matrix_to_json(matrices[0]))
        _skip(doc["cells"][0])
        message = r"^cells\[0\]\.status: 'skipped' at depth 2, but skip_window = 5 runs it in row n=2$"
        with pytest.raises(SchemaError, match=message):
            matrix_from_dict(doc)

    def test_skipped_cell_the_protocol_runs(self, matrices):
        # Cell (2, 4) follows one identified cell, so skip_window 5 runs it;
        # marked skipped, it once loaded and drew a staircase no run made.
        doc = json.loads(matrix_to_json(matrices[0]))
        assert doc["cells"][0]["status"] == "identified"
        _skip(doc["cells"][1])
        message = r"^cells\[1\]\.status: 'skipped' at depth 4, but skip_window = 5 runs it in row n=2$"
        with pytest.raises(SchemaError, match=message):
            matrix_from_dict(doc)

    def test_executed_cell_the_protocol_skips(self, skipping):
        # The (2, 4) cell run under skip_window 2, put where skip_window 1
        # skipped it.
        doc = copy.deepcopy(skipping[0])
        doc["cells"][1] = skipping[1]["cells"][1]
        message = r"^cells\[1\]\.status: 'non_identified' at depth 4, but skip_window = 1 skips it in row n=2$"
        with pytest.raises(SchemaError, match=message):
            matrix_from_dict(doc)


class TestCrossDocumentChecks:
    def test_profile_target_differs_from_circuit(self, saved, tmp_path):
        _, manifest = saved
        for path in manifest.parent.glob("prc_*.json"):
            doc = json.loads(path.read_text())
            if path.name == "prc_n3_d4.json":
                doc["profile"]["target"] = "110"
            (tmp_path / path.name).write_text(json.dumps(doc))
        (tmp_path / "suite.json").write_text(manifest.read_text())
        with pytest.raises(SchemaError, match=r"prc_n3_d4\.json: profile\.target: 110 differs from "
                                              r"the circuit's target 000"):
            load_suite(tmp_path / "suite.json")

    def test_manifest_grid_differs_from_circuits(self, saved):
        _, manifest = saved
        mutant = manifest.parent / "mutant.json"
        doc = json.loads(manifest.read_text())
        del doc["circuits"]["3x4"]
        mutant.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"mutant\.json: circuits: .* missing \[\(3, 4\)\]"):
            load_suite(mutant)

    @pytest.mark.parametrize(
        "name,final,message",
        [
            ("prc_n2_d2.json", lambda p: p - 1e-6, "is away from profile.p_peak"),
            ("prc_n2_d2.json", lambda p: p + 2e-9, "is away from profile.p_peak"),
            ("prc_n2_d4.json", lambda p: p + 1e-6, "is above profile.p_peak"),
        ],
        ids=["below_p_peak", "above_p_peak", "mismatch_above_p_peak"],
    )
    def test_final_objective_contradicts_profile(self, saved, tmp_path, name, final, message):
        # final_objective is the target's probability: p_peak when the target
        # is the argmax (n2_d2), and at most p_peak when it is not (n2_d4).
        _, manifest = saved
        for path in manifest.parent.glob("prc_*.json"):
            doc = json.loads(path.read_text())
            if path.name == name:
                assert doc["profile"]["target_mismatch"] == (name == "prc_n2_d4.json")
                doc["final_objective"] = final(doc["profile"]["p_peak"])
            (tmp_path / path.name).write_text(json.dumps(doc))
        (tmp_path / "suite.json").write_text(manifest.read_text())
        with pytest.raises(SchemaError, match=rf"{re.escape(name)}: final_objective: .* {message}"):
            load_suite(tmp_path / "suite.json")

    def test_matrix_config_grid_differs_from_matrix_grid(self, matrices):
        doc = json.loads(matrix_to_json(matrices[0]))
        doc["config"]["depths"] = [2, 6]
        with pytest.raises(SchemaError, match=r"^config: qubits x depths .* is not the matrix grid"):
            matrix_from_dict(doc)


class TestErrorPathCrashes:
    """Malformed documents whose error path itself raised AttributeError,
    KeyError or ValueError; each must raise SchemaError."""

    def test_circuit_document_that_is_a_list(self):
        with pytest.raises(SchemaError, match=r"^document: expected a prc-circuit/1 object"):
            circuit_from_dict([1])

    def test_manifest_that_is_a_list(self, saved):
        _, manifest = saved
        mutant = manifest.parent / "mutant.json"
        mutant.write_text(json.dumps([json.loads(manifest.read_text())]))
        with pytest.raises(SchemaError, match=r"mutant\.json: expected a prc-suite/1 object"):
            load_suite(mutant)

    def test_manifest_without_circuits(self, saved):
        _, manifest = saved
        mutant = manifest.parent / "mutant.json"
        mutant.write_text(json.dumps(_edited(json.loads(manifest.read_text()),
                                             lambda d: d.pop("circuits"))))
        with pytest.raises(SchemaError, match=r"mutant\.json: circuits: missing"):
            load_suite(mutant)

    def test_final_objective_not_a_number(self, saved, tmp_path):
        _, manifest = saved
        for path in manifest.parent.glob("prc_*.json"):
            doc = json.loads(path.read_text())
            if path.name == "prc_n2_d4.json":
                doc["final_objective"] = "x"
            (tmp_path / path.name).write_text(json.dumps(doc))
        (tmp_path / "suite.json").write_text(manifest.read_text())
        with pytest.raises(SchemaError, match=r"prc_n2_d4\.json: final_objective: expected a number"):
            load_suite(tmp_path / "suite.json")

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("final_objective"), "final_objective: missing"),
        (lambda d: d.update(final_objective=None), "final_objective: expected a number, got None"),
    ], ids=["missing", "null"])
    def test_final_objective_is_required(self, saved, tmp_path, edit, message):
        # No fallback: the profile's p_peak is the argmax's probability,
        # not the target's.
        _, manifest = saved
        for path in manifest.parent.glob("prc_*.json"):
            doc = json.loads(path.read_text())
            if path.name == "prc_n3_d2.json":
                edit(doc)
            (tmp_path / path.name).write_text(json.dumps(doc))
        (tmp_path / "suite.json").write_text(manifest.read_text())
        with pytest.raises(SchemaError, match=rf"prc_n3_d2\.json: {message}"):
            load_suite(tmp_path / "suite.json")


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutant(data, doc):
    """doc with one field deleted or replaced, or one unknown key added."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    ops = [("replace", value) for value in REPLACEMENTS] if path else []
    ops += [("delete", None)] if isinstance(parent, dict) else []
    ops += [("add", None)] if isinstance(node, dict) else []
    op, value = data.draw(st.sampled_from(ops))
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    else:
        node[UNKNOWN] = 1
    return doc


def _agrees(doc, written) -> bool:
    """Every value in doc is in written, the same in JSON; written may add
    keys (defaults for deleted fields)."""
    if isinstance(doc, dict):
        return isinstance(written, dict) and all(k in written and _agrees(v, written[k])
                                                 for k, v in doc.items())
    if isinstance(doc, list):
        return (isinstance(written, list) and len(doc) == len(written)
                and all(_agrees(a, b) for a, b in zip(doc, written)))
    numbers = {type(doc), type(written)} <= {int, float}
    return doc == written and (type(doc) is type(written) or numbers and type(doc) is int)


def _check_faithful(load, write, doc):
    """A mutated document raises SchemaError or loads to what it says."""
    try:
        loaded = load(doc)
    except SchemaError:
        return
    written = json.loads(json.dumps(write(loaded)))
    assert _agrees(doc, written), (doc, written)
    assert load(written) == loaded


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_circuit_loads_faithfully_or_raises_schema_error(circuit_doc, data):
    _check_faithful(circuit_from_dict, circuit_to_dict, _mutant(data, circuit_doc))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_mutated_profile_loads_faithfully_or_raises_schema_error(saved, data):
    _, manifest = saved
    doc = json.loads((manifest.parent / "prc_n3_d4.json").read_text())["profile"]
    _check_faithful(profile_from_dict, profile_to_dict, _mutant(data, doc))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_mutated_bench_config_loads_faithfully_or_raises_schema_error(matrices, data):
    doc = json.loads(matrix_to_json(matrices[0]))["config"]
    _check_faithful(BenchConfig.from_dict, BenchConfig.to_dict, _mutant(data, doc))


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_matrix_loads_faithfully_or_raises_schema_error(matrices, data):
    doc = json.loads(matrix_to_json(matrices[data.draw(st.sampled_from([0, 1]))]))
    _check_faithful(matrix_from_dict, lambda m: json.loads(matrix_to_json(m)), _mutant(data, doc))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_mutated_suite_manifest_loads_faithfully_or_raises_schema_error(saved, data):
    suite, manifest = saved
    doc = _mutant(data, json.loads(manifest.read_text()))
    mutant = manifest.parent / "mutant.json"
    mutant.write_text(json.dumps(doc))
    try:
        loaded = load_suite(mutant)
    except SchemaError:
        return
    except FileNotFoundError:  # a file name replaced by one that names no file
        assert not all((manifest.parent / str(name)).exists() for name in doc["circuits"].values())
        return
    assert (loaded.seed, list(loaded.qubits), list(loaded.depths)) == (doc["seed"], doc["qubits"],
                                                                       doc["depths"])
    assert loaded.numerics == doc.get("numerics", 1)
    if "optimizer" in doc:
        assert _agrees(doc["optimizer"], asdict(loaded.optimizer))
    else:
        assert loaded.optimizer is None
    assert loaded.cells == suite.cells


# Grids are drawn as the lists a caller passes, and numbers as ints or
# floats: a config holds what the reader builds from either.
_NUMBERS = st.one_of(st.floats(0, 1e9), st.integers(0, 10**9))
_CONFIGS = st.builds(
    lambda grid, reps, threshold, shots, noise, **rest: BenchConfig(
        qubits=grid[0], depths=grid[1], reps=reps, threshold=min(threshold, reps),
        min_shots=min(shots), max_shots=max(shots), noise=noise, **rest),
    grid=st.tuples(*[st.lists(st.integers(2, 40), min_size=1, max_size=4, unique=True)] * 2),
    reps=st.integers(1, 9),
    threshold=st.integers(1, 9),
    shots=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
    noise=st.builds(NoiseSpec, *[st.floats(0, 1)] * 3, st.floats(0, 10)),
    skip_window=st.integers(1, 99),
    shot_base=_NUMBERS,
    master_seed=st.integers(0, 2**64),
    exact=st.booleans(),
    top_k=st.integers(0, 50),
)


@settings(max_examples=100, deadline=None, database=None)
@given(config=_CONFIGS)
def test_bench_config_json_round_trip(config):
    text = json.dumps(config.to_dict())
    loaded = BenchConfig.from_dict(json.loads(text))
    assert loaded == config and hash(loaded) == hash(config)
    assert json.dumps(loaded.to_dict()) == text


@pytest.mark.parametrize(
    "config",
    [
        OptimizerConfig(stage1_iters=3, stage2_iters=2, adam_step=1, stop_tol=0),
        BenchConfig(qubits=[2, 3], depths=[4, 2], shot_base=250, noise=NoiseSpec(p2=0, coherent_delta=1)),
        NoiseSpec(p1=0, p2=1, readout_eps=0, coherent_delta=2),
    ],
    ids=["optimizer", "bench", "noise"],
)
def test_configs_built_in_code_hold_what_the_reader_builds(config):
    # Lists become tuples and integers in number fields floats, so a config
    # hashes, equals its loaded copy and writes the same JSON again.
    text = json.dumps(asdict(config))
    loaded = read_fields(type(config), json.loads(text), "")
    assert loaded == config and hash(loaded) == hash(config)
    assert json.dumps(asdict(loaded)) == text
    for name, value in vars(config).items():
        assert type(value) is type(getattr(loaded, name)), name


def test_matrix_json_round_trip(matrices):
    for matrix in matrices:
        text = matrix_to_json(matrix)
        assert matrix_from_dict(json.loads(text)) == matrix
        assert matrix_to_json(matrix_from_dict(json.loads(text))) == text


def test_matrix_of_a_config_with_an_integer_shot_base_loads_to_the_same_bytes(saved):
    # The stored config once read 250 where the loaded one wrote 250.0.
    suite, _ = saved
    config = BenchConfig(qubits=[2], depths=[2, 4], reps=2, threshold=1, shot_base=250)
    text = matrix_to_json(run_matrix(suite.as_mapping(), config))
    assert '"shot_base": 250.0' in text
    assert matrix_to_json(matrix_from_dict(json.loads(text))) == text
