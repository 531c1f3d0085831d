"""The benchmark's tracer names prcbench functions by module and attribute
path.  These checks make a rename of a traced function, or a set-up span
that stops firing, fail the test suite instead of a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

from kernel_reference import sweep_passes

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_modules():
    # tests/conftest.py puts benchmarks/ on the path.
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_span_target_resolves(bench_modules):
    spans, _ = bench_modules
    for span_name, module_name, path in spans.SPAN_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            # The tracer patches the class attribute itself, so it must be
            # defined on the class, not inherited.
            assert attr in vars(getattr(module, cls_name)), (span_name, module_name, path)
        else:
            assert callable(getattr(module, path, None)), (span_name, module_name, path)


def test_every_expected_span_is_traced(bench_modules):
    spans, workloads = bench_modules
    for name, workload in workloads.WORKLOADS.items():
        unknown = set(workload.expected_spans) - set(spans.SPAN_NAMES)
        assert not unknown, (name, sorted(unknown))


def test_decompose_gate_result_fits_the_cnot_hook(bench_modules):
    # The traced qasm.decompose_gate span counts emitted CNOTs by reading
    # `.name` off each returned op.
    from gate_reference import entangling_core
    from prcbench.gates import GateParams, kak_decompose
    from prcbench.qasm import decompose_gate

    spans, _ = bench_modules
    counters = spans.Counters()
    for params in (GateParams.identity(), kak_decompose(entangling_core(0.4, 0.2, 0.1))):
        ops = decompose_gate(params)
        assert all(isinstance(op.name, str) for op in ops)
        spans.HOOKS["qasm.decompose_gate"](counters, (params,), {}, ops)
    assert counters["qasm.cnots_emitted"] == 3
    assert len(counters.decomposed) == 2


def _pair_kernel_calls(monkeypatch, n, d=8):
    """sim.apply_gate_matrix calls made by PeakObjective's set-up, one
    value_and_gradient and one run, on a derived (n, d) cell."""
    from prcbench import sim
    from prcbench.circuits import build_reference_circuit, derive_subcircuit
    from prcbench.optimize import peaking_vector

    calls = []
    original = sim.apply_gate_matrix

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "apply_gate_matrix", counting)
    circ = derive_subcircuit(build_reference_circuit(n, d, seed=1), n, d)
    engine = sim.PeakObjective(circ)
    counts = [len(calls)]
    engine.value_and_gradient(peaking_vector(circ))
    counts.append(len(calls) - sum(counts))
    sim.run(circ)
    counts.append(len(calls) - sum(counts))
    return circ, engine, counts


def test_pair_kernel_calls_count_gates(monkeypatch):
    # The benchmark counts sim.apply_gate_matrix calls as pair-kernel work
    # through the module attribute: one call per op (a lone gate, or two
    # side-by-side gates of a layer fused into a block) in run and in the
    # random half PeakObjective replays once.  Each value_and_gradient
    # applies only the body, whose gates take their environments at layer
    # boundaries (kernel_reference.sweep_passes).
    from prcbench import sim

    circ, engine, counts = _pair_kernel_calls(monkeypatch, 12)
    random_ops = len(sim.OpList(circ.layers[: circ.random_depth], circ.n).gates)
    peaking_ops = len(sim.OpList(circ.layers[circ.random_depth :], circ.n).gates)
    body = len(sim.OpList(circ.layers[circ.random_depth : -2], circ.n).gates)
    assert peaking_ops < len(engine.positions) and 2 <= body < peaking_ops
    assert len(engine.ops.gates) == body
    assert counts == [random_ops, sweep_passes(circ), random_ops + peaking_ops]


def test_pair_kernel_calls_count_gates_below_the_fusion_cut_over(monkeypatch):
    # Below 2**10 amplitudes no gates are fused: one call per gate.
    circ, engine, counts = _pair_kernel_calls(monkeypatch, 9)
    gates, peaking = circ.num_placements(), len(engine.positions)
    body = peaking - len(circ.layers[-1]) - len(circ.layers[-2])
    assert body >= 2
    assert counts == [gates - peaking, sweep_passes(circ), gates]


def test_deep_gradient_cell_makes_20_passes_per_evaluation(monkeypatch):
    # The (16, 10) cell's body is three brick layers of four ops each
    # (fused blocks, and a lone gate at the top of each odd-qubit layer):
    # 12 forward and 8 bra passes, and no ket pass.
    circ, engine, counts = _pair_kernel_calls(monkeypatch, 16, d=10)
    assert [len(layer) for layer in engine.ops.layers] == [4, 4, 4]
    assert counts[1] == sweep_passes(circ) == 20


@pytest.mark.parametrize("n", [5, 12])
def test_one_layer_body_makes_only_its_forward_passes(monkeypatch, n):
    # A body of one layer takes its environments at the boundary after it,
    # where the forward pass and the closed form leave the ket and the bra.
    circ, engine, counts = _pair_kernel_calls(monkeypatch, n, d=6)
    assert len(engine.ops.layers) == 1
    assert counts[1] == len(engine.ops.gates) == sweep_passes(circ)


@pytest.mark.parametrize("n", [5, 12])
def test_two_layer_peaking_half_makes_no_pair_kernel_call(monkeypatch, n):
    # A peaking half of two layers is all closed form: value_and_gradient
    # applies no op at all, on either side of the fusion cut-over.
    from prcbench import sim

    circ, engine, counts = _pair_kernel_calls(monkeypatch, n, d=4)
    random_ops = len(sim.OpList(circ.layers[: circ.random_depth], circ.n).gates)
    peaking_ops = len(sim.OpList(circ.layers[circ.random_depth :], circ.n).gates)
    assert circ.d - circ.random_depth == 2 and peaking_ops and not engine.ops.gates
    assert counts == [random_ops, 0, random_ops + peaking_ops]


@pytest.mark.parametrize("name", ["wide_readout", "deep_gradient"])
def test_setup_spans_fire(bench_modules, tmp_path, name):
    # Each set-up span the workload expects (gate decomposition and
    # construction, circuit building) is still called when it builds its
    # inputs, so batching cannot silence one.
    spans, workloads = bench_modules
    workload = workloads.WORKLOADS[name](BENCH_DIR.parent)
    expected = [s for s in workload.expected_spans if s.split(".")[0] in ("gates", "circuits")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup(7, tmp_path)
    finally:
        tracer.uninstall()
    calls = tracer.summarize([0])
    assert "gates.kak_decompose" in expected and "gates.GateParams.matrix" in expected
    assert [s for s in expected if not calls[f"{s}.calls"]] == []


@pytest.fixture(scope="module")
def walkthrough_run(bench_modules, tmp_path_factory):
    """One set-up and one run of the README pipeline at seed 7 under the
    tracer: the workload, its output directory, the commands' results and
    the traced call counts."""
    spans, workloads = bench_modules
    workload = workloads.WORKLOADS["walkthrough"](BENCH_DIR.parent)
    work = tmp_path_factory.mktemp("walkthrough")
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs, _ = workload.setup(7, work / "work")
        results = workload.run(inputs, work / "out")
    finally:
        tracer.uninstall()
    return workload, work / "out", results, tracer.summarize([0])


def test_walkthrough_spans_fire(walkthrough_run):
    # Every span the walkthrough expects fires, so no span is silenced by a
    # call that stops reaching a traced function.
    workload, _, results, calls = walkthrough_run
    assert [(command, rc) for command, rc, _ in results if rc != 0] == []
    assert [s for s in workload.expected_spans if not calls[f"{s}.calls"]] == []


def test_walkthrough_makes_736_evaluations(walkthrough_run):
    # generate's grid (qubits 2..5, depths 4 and 10, seed 7, 120 L-BFGS and
    # 80 Adam iterations, no gradient test): 6 of its 8 cells converge in
    # L-BFGS and make no Adam step, and the two that reach the cap run all
    # 80.
    _, _, _, calls = walkthrough_run
    assert calls["optimize.optimize.calls"] == 8
    assert calls["sim.PeakObjective.value_and_gradient.calls"] == 736


def test_walkthrough_matrices_load(walkthrough_run):
    # The depth and width matrices the walkthrough writes at seed 7 pass
    # every load check, their records' metrics against their top counts
    # included, and load back to the same bytes.
    from prcbench import harness

    _, out, _, _ = walkthrough_run
    for label in ("depth", "width"):
        path = out / f"{label}.json"
        matrix = harness.load_matrix(path)
        assert any(cell.records for cell in matrix.cells.values())
        assert harness.matrix_to_json(matrix) == path.read_text(encoding="utf-8")
