"""In-memory span tracer that wraps prcbench's public functions at their
module boundaries, for the benchmark's traced runs.

A span records (run id, name, parent span, start, end).  Wrappers are only
installed for the duration of a traced pass; untraced passes run the
unmodified functions.  Counters are recorded by small hooks at the same
boundaries, after the span has been closed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, defining module, attribute path).  Several functions may share
# one span name; every binding of a function in any prcbench module is
# patched, so names imported with `from ... import` are traced as well.
SPAN_TARGETS = (
    ("cli.generate", "prcbench.cli", "_cmd_generate"),
    ("cli.bench", "prcbench.cli", "_cmd_bench"),
    ("cli.report", "prcbench.cli", "_cmd_report"),
    ("cli.export_qasm", "prcbench.cli", "_cmd_export_qasm"),
    ("suite.generate_suite", "prcbench.suite", "generate_suite"),
    ("suite.save_suite", "prcbench.suite", "save_suite"),
    ("suite.load_suite", "prcbench.suite", "load_suite"),
    ("circuits.build_reference_circuit", "prcbench.circuits", "build_reference_circuit"),
    ("circuits.derive_subcircuit", "prcbench.circuits", "derive_subcircuit"),
    ("circuits.build_exact_inverse_peaking", "prcbench.circuits", "build_exact_inverse_peaking"),
    ("circuits.retarget", "prcbench.circuits", "retarget"),
    ("gates.GateParams.matrix", "prcbench.gates", "GateParams.matrix"),
    ("gates.kak_decompose", "prcbench.gates", "kak_decompose"),
    ("sim.PeakObjective.init", "prcbench.sim", "PeakObjective.__init__"),
    ("sim.PeakObjective.value_and_gradient", "prcbench.sim", "PeakObjective.value_and_gradient"),
    ("sim.apply_gate_matrix", "prcbench.sim", "apply_gate_matrix"),
    ("sim.run", "prcbench.sim", "run"),
    ("sim.sample", "prcbench.sim", "sample"),
    ("optimize.optimize", "prcbench.optimize", "optimize"),
    ("optimize.peak_profile", "prcbench.optimize", "peak_profile"),
    ("noise.readout_flip", "prcbench.noise", "readout_flip"),
    ("noise.depolarize", "prcbench.noise", "depolarize"),
    ("noise.perturb_coherent", "prcbench.noise", "perturb_coherent"),
    ("metrics.run_metrics", "prcbench.metrics", "run_metrics"),
    ("harness.run_matrix", "prcbench.harness", "run_matrix"),
    ("harness.run_cell", "prcbench.harness", "run_cell"),
    ("harness.persist_matrix", "prcbench.harness", "persist_matrix"),
    ("harness.load_matrix", "prcbench.harness", "load_matrix"),
    ("qasm.decompose_gate", "prcbench.qasm", "decompose_gate"),
    ("report.render", "prcbench.report", "render_matrix_heatmap"),
    ("report.render", "prcbench.report", "render_delta_heatmap"),
    ("report.render", "prcbench.report", "render_histogram"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))

# Spans whose inclusive time is reported as `<name>.s` as well.
INCLUSIVE_SPANS = ("cli.generate", "cli.bench", "cli.report", "cli.export_qasm")


def _hook_apply_gate_matrix(c, args, kwargs, result):
    # One read and one write of every complex128 amplitude.
    c["sim.apply_gate_matrix.bytes_computed"] += 2 * 16 * args[0].size


def _hook_sample(c, args, kwargs, result):
    c["sim.sample.shots"] += args[1] if len(args) > 1 else kwargs["shots"]


def _hook_readout_flip(c, args, kwargs, result):
    hist = args[0]
    c["noise.readout_flip.shots"] += hist.shots
    c["noise.readout_flip.outcomes_in"] += len(hist.counts)


def _hook_run_metrics(c, args, kwargs, result):
    c["metrics.histogram_outcomes"] += len(args[0].counts)


def _hook_run_cell(c, args, kwargs, result):
    c["harness.reps_run"] += len(result.records)
    c["harness.reps_identified"] += result.identified_reps


def _hook_run_matrix(c, args, kwargs, result):
    c["harness.cells_skipped"] += sum(1 for cell in result.cells.values() if cell.status == "skipped")


def _hook_optimize(c, args, kwargs, result):
    trace = result[1]
    c["optimize.iters_stage1"] += trace.iterations_stage1
    c["optimize.iters_stage2"] += trace.iterations_stage2


def _hook_decompose_gate(c, args, kwargs, result):
    c["qasm.cnots_emitted"] += sum(1 for op in result if op.name == "cx")
    c.decomposed.append(args[0])


def _hook_render(c, args, kwargs, result):
    c["report.svg_bytes"] += len(result.encode("utf-8"))


def _hook_save_suite(c, args, kwargs, result):
    c["suite.bytes_written"] += sum(p.stat().st_size for p in result.parent.iterdir() if p.is_file())


HOOKS = {
    "sim.apply_gate_matrix": _hook_apply_gate_matrix,
    "sim.sample": _hook_sample,
    "noise.readout_flip": _hook_readout_flip,
    "metrics.run_metrics": _hook_run_metrics,
    "harness.run_cell": _hook_run_cell,
    "harness.run_matrix": _hook_run_matrix,
    "optimize.optimize": _hook_optimize,
    "qasm.decompose_gate": _hook_decompose_gate,
    "report.render": _hook_render,
    "suite.save_suite": _hook_save_suite,
}


COUNTERS = (
    "sim.apply_gate_matrix.bytes_computed",
    "sim.sample.shots",
    "noise.readout_flip.shots",
    "noise.readout_flip.outcomes_in",
    "metrics.histogram_outcomes",
    "harness.reps_run",
    "harness.reps_identified",
    "harness.cells_skipped",
    "optimize.iters_stage1",
    "optimize.iters_stage2",
    "qasm.cnots_emitted",
    "report.svg_bytes",
    "suite.bytes_written",
)


class Counters(dict):
    """Counter totals of one traced pass, plus the gate parameters QASM
    synthesis saw, whose required CNOT counts are computed afterwards."""

    def __init__(self):
        super().__init__(dict.fromkeys(COUNTERS, 0))
        self.decomposed = []


class Tracer:
    """Spans of every traced pass, kept in compact arrays until written."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.run = array("H")
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self.counters = Counters()  # replaced at the start of every traced pass
        self._restore: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn, span_name: str):
        name_id = self.name_ids[span_name]
        hook = HOOKS.get(span_name)
        runs, names, parents, starts, ends = self.run, self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            runs.append(tracer.run_id)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every span target in every prcbench module that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "prcbench" or key.startswith("prcbench."))
        ]
        for span_name, module_name, path in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span_name))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, span_name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading spans -------------------------------------------------------

    def span_range(self, run_ids) -> list[int]:
        wanted = set(run_ids)
        return [i for i in range(len(self.start)) if self.run[i] in wanted]

    def summarize(self, run_ids) -> dict[str, float]:
        """calls, self_s (and inclusive s for INCLUSIVE_SPANS) per span name,
        plus the total of root-span time under "_root_s"."""
        idx = self.span_range(run_ids)
        child_time = defaultdict(float)
        for i in idx:
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name in INCLUSIVE_SPANS:
            out[f"{name}.s"] = 0.0
        root = 0.0
        for i in idx:
            name = SPAN_NAMES[self.name[i]]
            dur = self.end[i] - self.start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if name in INCLUSIVE_SPANS:
                out[f"{name}.s"] += dur
            if self.parent[i] < 0:
                root += dur
        out["_root_s"] = root
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span:
        [run, span index, parent index, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_names": list(SPAN_NAMES)}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.run[i]},{i},{self.parent[i]},{self.name[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}]\n"
                )


def layer_metrics(tracer: Tracer, runs, counters: Counters, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time is `wall_s`.
    The self times of all spans plus trace.untraced_s add up to wall_s."""
    from prcbench.qasm import num_cnots_required

    m = tracer.summarize(runs)
    c = dict(counters)
    reps_run, reps_identified = c.pop("harness.reps_run"), c.pop("harness.reps_identified")
    m.update(c)
    m["trace.wall_s"] = wall_s
    m["trace.untraced_s"] = wall_s - m.pop("_root_s")
    evals = m["sim.PeakObjective.value_and_gradient.calls"]
    iters = c["optimize.iters_stage1"] + c["optimize.iters_stage2"]
    m["optimize.evals"] = evals
    m["optimize.evals_per_iter"] = evals / iters if iters else 0.0
    m["harness.cells_run"] = m["harness.run_cell.calls"]
    m["harness.reps_identified_ratio"] = reps_identified / reps_run if reps_run else 0.0
    required = sum(num_cnots_required(p.matrix()) for p in counters.decomposed)
    m["qasm.cnots_required"] = required
    m["qasm.cnot_excess_ratio"] = (c["qasm.cnots_emitted"] - required) / required if required else 0.0
    return m
