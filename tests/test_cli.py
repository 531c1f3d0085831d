import json
import xml.etree.ElementTree as ET

import pytest

from prcbench.cli import main, _parse_range, build_parser, UsageError
from prcbench.optimize import OptimizerConfig
from prcbench.report import COLOR_TARGET_BAR


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    code = main(
        [
            "generate",
            "--qubits", "2..3",
            "--depths", "2..4",
            "--seed", "42",
            "--out-dir", str(out),
            "--stage1-iters", "150",
            "--stage2-iters", "50",
        ]
    )
    assert code == 0
    return out


def test_parse_range_forms():
    assert _parse_range("2..6") == [2, 3, 4, 5, 6]
    assert _parse_range("2,5,9") == [2, 5, 9]
    assert _parse_range("7") == [7]
    with pytest.raises(UsageError):
        _parse_range("5..2")
    with pytest.raises(UsageError):
        _parse_range("two")


def test_generate_writes_expected_files(tiny_suite):
    files = sorted(p.name for p in tiny_suite.iterdir())
    assert "suite.json" in files
    # 2 qubit counts x 3 depths
    assert sum(1 for f in files if f.startswith("prc_n")) == 6


def test_generate_rerun_identical_bytes(tiny_suite, tmp_path):
    out2 = tmp_path / "again"
    code = main(
        [
            "generate",
            "--qubits", "2..3",
            "--depths", "2..4",
            "--seed", "42",
            "--out-dir", str(out2),
            "--stage1-iters", "150",
            "--stage2-iters", "50",
        ]
    )
    assert code == 0
    for name in sorted(p.name for p in tiny_suite.iterdir()):
        assert (out2 / name).read_bytes() == (tiny_suite / name).read_bytes()


def test_generate_usage_errors(tmp_path):
    assert main(["generate", "--qubits", "2..3", "--depths", "1..3",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", "--qubits", "1..3", "--depths", "2..3",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", "--qubits", "x", "--depths", "2..3",
                 "--out-dir", str(tmp_path)]) == 2


def test_bench_report_export_pipeline(tiny_suite, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 3, "threshold": 2, "master_seed": 5}))
    matrix = tmp_path / "matrix.json"
    csv = tmp_path / "matrix.csv"
    code = main(
        [
            "bench",
            "--suite", str(tiny_suite / "suite.json"),
            "--config", str(config),
            "--out", str(matrix),
            "--csv", str(csv),
        ]
    )
    assert code == 0
    assert matrix.exists() and csv.exists()
    assert csv.read_text().startswith("n,d,status,")

    heat = tmp_path / "heat.svg"
    assert main(["report", "--mode", "heatmap", str(matrix), "--out", str(heat)]) == 0
    assert heat.exists() and heat.with_suffix(".csv").exists()

    hist = tmp_path / "hist.svg"
    assert main(
        ["report", "--mode", "histogram", str(matrix), "--cell", "3,4", "--out", str(hist)]
    ) == 0
    assert "<svg" in hist.read_text()

    delta = tmp_path / "delta.svg"
    assert main(
        ["report", "--mode", "delta", str(matrix), str(matrix), "--out", str(delta)]
    ) == 0
    assert delta.exists()

    qdir = tmp_path / "qasm"
    assert main(["export-qasm", "--suite", str(tiny_suite / "suite.json"),
                 "--out-dir", str(qdir)]) == 0
    qasm_files = sorted(p.name for p in qdir.iterdir())
    assert "gate_counts.csv" in qasm_files
    assert sum(1 for f in qasm_files if f.endswith(".qasm")) == 6

    # export determinism
    qdir2 = tmp_path / "qasm2"
    assert main(["export-qasm", "--suite", str(tiny_suite / "suite.json"),
                 "--out-dir", str(qdir2)]) == 0
    for name in qasm_files:
        assert (qdir2 / name).read_bytes() == (qdir / name).read_bytes()


def test_bench_deterministic_across_jobs(tiny_suite, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 2, "threshold": 1, "master_seed": 9}))
    outs = []
    for jobs, name in ((1, "a.json"), (3, "b.json")):
        out = tmp_path / name
        assert main(
            [
                "bench",
                "--suite", str(tiny_suite / "suite.json"),
                "--config", str(config),
                "--out", str(out),
                "--jobs", str(jobs),
            ]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_warns_about_target_mismatch_cells(tiny_suite, tmp_path, capsys):
    # An unoptimized (3, 4) cell at seed 0 stores a profile whose target is
    # not its argmax: bench names it in one stderr warning and otherwise
    # runs as it would; the optimized tiny suite gives no warning.
    suite_dir = tmp_path / "suite"
    assert main(["generate", "--qubits", "3", "--depths", "4", "--seed", "0", "--no-optimize",
                 "--out-dir", str(suite_dir)]) == 0
    assert json.loads((suite_dir / "prc_n3_d4.json").read_text())["profile"]["target_mismatch"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 2, "threshold": 1, "master_seed": 5}))
    capsys.readouterr()
    for suite, warnings in ((suite_dir, 1), (tiny_suite, 0)):
        out = tmp_path / f"matrix{warnings}.json"
        assert main(["bench", "--suite", str(suite / "suite.json"), "--config", str(config),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == warnings
        assert all(line.startswith("warning: cell n=3 d=4: target ") for line in lines)
        assert "(target_mismatch)" in captured.err or not warnings
        assert "warning" not in captured.out and captured.out.endswith(f"wrote matrix {out}\n")


def test_bench_malformed_config_exit_2(tiny_suite, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{nope")
    out = tmp_path / "m.json"
    assert main(
        ["bench", "--suite", str(tiny_suite / "suite.json"),
         "--config", str(config), "--out", str(out)]
    ) == 2
    config.write_text(json.dumps({"reps": "many"}))
    assert main(
        ["bench", "--suite", str(tiny_suite / "suite.json"),
         "--config", str(config), "--out", str(out)]
    ) == 2


def test_bench_missing_suite_file_exit_1(tiny_suite, tmp_path):
    manifest = json.loads((tiny_suite / "suite.json").read_text())
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    (broken_dir / "suite.json").write_text(json.dumps(manifest))
    for name in manifest["circuits"].values():
        if name != "prc_n2_d2.json":
            (broken_dir / name).write_text((tiny_suite / name).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 2, "threshold": 1}))
    out = tmp_path / "m.json"
    code = main(
        ["bench", "--suite", str(broken_dir / "suite.json"),
         "--config", str(config), "--out", str(out)]
    )
    assert code == 1


@pytest.mark.parametrize(
    "config,code,message",
    [
        (None, 2, "config file not found: {config}"),
        ("{nope", 2, "malformed config {config}: not valid JSON: Expecting property name enclosed "
                     "in double quotes: line 1 column 2 (char 1)"),
        ('{"reps": "many"}', 2, "malformed config {config}: reps: expected an integer, got 'many'"),
        ('{"qubits": [9], "depths": [2, 4]}', 1, "suite is missing circuits for cells [(9, 2), (9, 4)]"),
        # Once loaded, then died inside numpy's sampler with exit 1.
        ('{"max_shots": 100000000000000000000000, "shot_base": 1e300}', 2,
         "malformed config {config}: max_shots: 100000000000000000000000 exceeds sim.MAX_SHOTS = 134217728"),
    ],
    ids=["missing_config", "invalid_json", "malformed_config", "grid_wider_than_suite", "max_shots_above_cap"],
)
def test_bench_failure_prints_one_error_line(tiny_suite, tmp_path, capsys, config, code, message):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config)
    assert main(["bench", "--suite", str(tiny_suite / "suite.json"), "--config", str(path),
                 "--out", str(tmp_path / "m.json")]) == code
    assert capsys.readouterr().err == f"error: {message.format(config=path)}\n"


@pytest.fixture(scope="module")
def bare_matrix(tiny_suite, tmp_path_factory):
    # top_k 0 keeps no histogram entries in any record.
    out = tmp_path_factory.mktemp("bare")
    (out / "config.json").write_text(json.dumps({"reps": 2, "threshold": 1, "top_k": 0}))
    assert main(["bench", "--suite", str(tiny_suite / "suite.json"), "--config",
                 str(out / "config.json"), "--out", str(out / "m.json")]) == 0
    return out / "m.json"


@pytest.mark.parametrize(
    "mode,files,flags,code,message",
    [
        ("histogram", 1, ["--cell", "9,9"], 1, "cell (9, 9) not present in matrix"),
        ("histogram", 1, ["--cell", "2,2", "--rep", "2"], 1, "cell (2, 2) has no record for rep 2"),
        ("histogram", 1, ["--cell", "2,2"], 1, "cell (2, 2) rep 0 carries no histogram entries"),
        ("heatmap", 2, [], 2, "heatmap mode takes exactly one matrix file"),
        ("histogram", 2, ["--cell", "2,2"], 2, "histogram mode takes exactly one matrix file"),
        ("histogram", 1, [], 2, "histogram mode needs --cell n,d"),
        ("histogram", 1, ["--cell", "2"], 2, "cannot parse --cell '2'"),
    ],
    ids=["missing_cell", "missing_rep", "no_histogram_entries", "heatmap_two_files",
         "histogram_two_files", "histogram_without_cell", "cell_without_depth"],
)
def test_report_failure_prints_one_error_line(bare_matrix, tmp_path, capsys, mode, files, flags, code,
                                              message):
    out = tmp_path / "h.svg"
    assert main(["report", "--mode", mode, *[str(bare_matrix)] * files, "--out", str(out), *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_report_delta_wrong_arity_exit_2(tiny_suite, tmp_path):
    out = tmp_path / "d.svg"
    assert main(["report", "--mode", "delta", "whatever.json", "--out", str(out)]) == 2


def test_report_on_cell_summary_its_records_contradict_exit_1(tiny_suite, tmp_path, capsys):
    # A null mean_f on an identified cell once reached report's delta
    # arithmetic and died with a TypeError.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 2, "threshold": 1, "master_seed": 9}))
    matrix = tmp_path / "m.json"
    assert main(["bench", "--suite", str(tiny_suite / "suite.json"), "--config", str(config),
                 "--out", str(matrix)]) == 0
    doc = json.loads(matrix.read_text())
    i = next(i for i, cell in enumerate(doc["cells"]) if cell["status"] == "identified")
    doc["cells"][i]["mean_f"] = None
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    out = tmp_path / "d.svg"
    assert main(["report", "--mode", "delta", str(edited), str(matrix), "--out", str(out)]) == 1
    assert f"cells[{i}].mean_f: None, but its records give" in capsys.readouterr().err


def test_missing_subcommand_exit_2():
    assert main([]) == 2


def test_output_dir_env_default(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("PRCBENCH_OUTPUT_DIR", str(target))
    code = main(
        [
            "generate",
            "--qubits", "2",
            "--depths", "2",
            "--seed", "1",
            "--stage1-iters", "30",
            "--stage2-iters", "0",
        ]
    )
    assert code == 0
    assert (target / "suite.json").exists()


def test_report_histogram_labels_frequency_over_all_shots(tiny_suite, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "reps": 1, "threshold": 1, "master_seed": 5, "top_k": 2,
        "noise": {"p2": 0.05, "readout_eps": 0.05},
    }))
    matrix = tmp_path / "matrix.json"
    assert main(["bench", "--suite", str(tiny_suite / "suite.json"),
                 "--config", str(config), "--out", str(matrix)]) == 0
    cell = next(c for c in json.loads(matrix.read_text())["cells"] if (c["n"], c["d"]) == (3, 4))
    record = cell["records"][0]
    # The record keeps only the top two outcomes, so their counts do not
    # add up to the run's shots.
    assert sum(count for _, count in record["top_counts"]) < record["shots"]
    assert record["target"] in [text for text, _ in record["top_counts"]]

    out = tmp_path / "hist.svg"
    assert main(["report", "--mode", "histogram", str(matrix), "--cell", "3,4",
                 "--out", str(out)]) == 0
    elements = list(ET.fromstring(out.read_text()))
    bar = next(i for i, e in enumerate(elements) if e.get("fill") == COLOR_TARGET_BAR)
    assert elements[bar + 1].text == f"{record['metrics']['p_hat_peak']:.4f}"


def test_export_qasm_decomposes_each_gate_once(tiny_suite, tmp_path, monkeypatch):
    from prcbench import qasm
    from prcbench.suite import load_suite

    calls = []
    decompose = qasm.decompose_gate

    def counting(params, *args, **kwargs):
        calls.append(params)
        return decompose(params, *args, **kwargs)

    monkeypatch.setattr(qasm, "decompose_gate", counting)
    qdir = tmp_path / "qasm"
    assert main(["export-qasm", "--suite", str(tiny_suite / "suite.json"),
                 "--out-dir", str(qdir)]) == 0
    suite = load_suite(tiny_suite / "suite.json")
    assert len(calls) == sum(c.circuit.num_placements() for c in suite.cells.values())

    # The file text and the CSV counts match the one-circuit entry points.
    monkeypatch.setattr(qasm, "decompose_gate", decompose)
    rows = (qdir / "gate_counts.csv").read_text().splitlines()[1:]
    for row, cell in zip(rows, suite.cells.values()):
        _, _, name, two, single = row.split(",")
        assert (qdir / name).read_text() == qasm.emit_qasm(cell.circuit)
        assert qasm.gate_count(cell.circuit) == {"two_qubit": int(two), "single_qubit": int(single)}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tiny_suite, tmp_path, capsys, jobs):
    assert main(["generate", "--qubits", "2", "--depths", "2", "--out-dir", str(tmp_path),
                 "--jobs", jobs]) == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert main(["bench", "--suite", str(tiny_suite / "suite.json"), "--config", "unused.json",
                 "--out", str(tmp_path / "m.json"), "--jobs", jobs]) == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--qubits", "2", "--depths", "2", "--stage1-iters", "-1"],
         "--stage1-iters: must be at least 0"),
        (["generate", "--qubits", "2", "--depths", "2", "--stage2-iters", "-1"],
         "--stage2-iters: must be at least 0"),
        (["generate", "--qubits", "2", "--depths", "2", "--adam-step", "0"],
         "--adam-step: must be a positive finite number"),
        (["generate", "--qubits", "2", "--depths", "2", "--adam-step", "nan"],
         "--adam-step: must be a positive finite number"),
        (["generate", "--qubits", "2", "--depths", "2", "--adam-step", "inf"],
         "--adam-step: must be a positive finite number"),
        (["generate", "--qubits", "2", "--depths", "2", "--stop-tol", "nan"],
         "--stop-tol: must be a finite number"),
        (["generate", "--qubits", "2", "--depths", "2", "--stop-tol", "inf"],
         "--stop-tol: must be a finite number"),
        (["generate", "--qubits", "2", "--depths", "2", "--stop-tol", "-inf"],
         "--stop-tol: must be a finite number"),
        (["report", "--mode", "heatmap", "m.json", "--top-k", "-2"], "--top-k: must be at least 1"),
        (["report", "--mode", "histogram", "m.json", "--cell", "2,2", "--top-k", "0"],
         "--top-k: must be at least 1"),
        (["report", "--mode", "histogram", "m.json", "--cell", "2,2", "--rep", "-1"],
         "--rep: must be at least 0"),
    ],
    ids=["stage1_iters", "stage2_iters", "adam_step_0", "adam_step_nan", "adam_step_inf",
         "stop_tol_nan", "stop_tol_inf", "stop_tol_minus_inf", "top_k", "top_k_0", "rep"],
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    if argv[0] == "generate":
        argv = argv + ["--out-dir", str(tmp_path)]
    else:
        argv = argv + ["--out", str(tmp_path / "r.svg")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generate_flag_defaults_are_the_optimizer_defaults():
    args = build_parser().parse_args(["generate", "--qubits", "2", "--depths", "2"])
    flags = (args.stage1_iters, args.stage2_iters, args.adam_step, args.stop_tol)
    assert OptimizerConfig(*flags) == OptimizerConfig()


def test_generate_without_optimizing_records_no_optimizer(tmp_path):
    argv = ["generate", "--qubits", "2..3", "--depths", "4", "--seed", "1", "--no-optimize"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert "optimizer" not in json.loads((tmp_path / "suite.json").read_text())
    assert main(["export-qasm", "--suite", str(tmp_path / "suite.json"),
                 "--out-dir", str(tmp_path / "qasm")]) == 0


@pytest.mark.parametrize("tol", ["0", "-1e-3"])
def test_stop_tol_zero_or_below_is_valid(tmp_path, tol):
    argv = ["generate", "--qubits", "2", "--depths", "4", "--stage1-iters", "3",
            "--stage2-iters", "2", f"--stop-tol={tol}", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "suite.json").read_text())
    assert manifest["optimizer"]["stop_tol"] == float(tol)
    assert main(["export-qasm", "--suite", str(tmp_path / "suite.json"),
                 "--out-dir", str(tmp_path / "qasm")]) == 0


@pytest.mark.parametrize("flag,tol", [("--stop-tol", "-1e-3"), ("--stop-tol", "-1E-3"),
                                      ("--stop-tol", "-.001"), ("--stop", "-1e-3")])
def test_negative_stop_tol_after_a_space(tmp_path, flag, tol):
    # argparse alone reads "-1e-3" after a space as an option.
    argv = ["generate", "--qubits", "2", "--depths", "4", "--stage1-iters", "3",
            "--stage2-iters", "2", flag, tol, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "suite.json").read_text())["optimizer"]["stop_tol"] == -0.001


def test_generate_past_the_profile_scan_limit_exits_1_and_writes_nothing(tmp_path, capsys, optimize_calls):
    out = tmp_path / "suite"
    assert main(["generate", "--qubits", "2,21", "--depths", "2", "--stage1-iters", "0",
                 "--stage2-iters", "0", "--out-dir", str(out)]) == 1
    assert "21 > 20 qubits" in capsys.readouterr().err
    assert optimize_calls == [] and not out.exists()


def test_generate_into_a_file_exits_1_before_optimizing(tmp_path, capsys, monkeypatch):
    # The output directory is made before generate_suite runs, so a path
    # that names a file costs no optimization.
    from prcbench import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("generate_suite ran")

    monkeypatch.setattr(cli, "generate_suite", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["generate", "--qubits", "2..5", "--depths", "4,10", "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert taken.read_text() == ""


def test_filesystem_errors_exit_1_without_a_traceback(tiny_suite, tmp_path, capsys):
    # An --out-dir that is a file, and a matrix path that is a directory.
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["generate", "--qubits", "2", "--depths", "2", "--stage1-iters", "0",
                  "--stage2-iters", "0", "--out-dir", str(taken)],
                 ["report", "--mode", "heatmap", str(tiny_suite), "--out", str(tmp_path / "h.svg")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
