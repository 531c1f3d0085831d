import os
import sys
from pathlib import Path

# One BLAS thread, as benchmarks/run.py uses: the pair kernels' GEMMs are
# otherwise threaded, and a test's time then depends on what else runs on
# the machine.  It only takes effect if numpy has not been imported yet.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

# tests/ holds the reference modules, and benchmarks/ the QASM reader the
# exporter's round trips replay through.
sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "benchmarks")]

from prcbench.circuits import build_reference_circuit, derive_subcircuit
from prcbench.sim import ShotHistogram


def pytest_configure(config):
    # A complex result written into a float array silently drops its
    # imaginary part with only a ComplexWarning; make that a failure.  The
    # filter is added here because naming the class in pyproject.toml would
    # import numpy before the BLAS pin above.
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def optimize_calls(monkeypatch) -> list:
    """The calls suite generation makes to optimize, which is patched to
    record each one and fail it, so a cell that reaches it costs nothing."""
    from prcbench import suite

    calls = []

    def counting(*args):
        calls.append(args)
        raise AssertionError("optimize ran")

    monkeypatch.setattr(suite, "optimize", counting)
    return calls


@pytest.fixture(scope="session")
def small_circuit():
    """Unoptimized (4, 6) circuit derived from a reference."""
    return derive_subcircuit(build_reference_circuit(4, 6, seed=11), 4, 6)


def brute_force_state(circuit) -> np.ndarray:
    """Independent oracle: full 2^n x 2^n layer matrices via explicit kron
    chains, multiplied in order, applied to |0...0>."""
    n = circuit.n
    dim = 1 << n
    total = np.eye(dim, dtype=complex)
    for layer in circuit.layers:
        m = np.eye(dim, dtype=complex)
        for g in layer:
            ops = []
            q = 0
            while q < n:
                if q == g.qubit_low:
                    ops.append(g.params.matrix())
                    q += 2
                else:
                    ops.append(np.eye(2, dtype=complex))
                    q += 1
            full = ops[-1]
            for op in reversed(ops[:-1]):
                full = np.kron(full, op)
            m = full @ m
        total = m @ total
    x2 = np.array([[0, 1], [1, 0]], dtype=complex)
    for q in circuit.final_x:
        ops = [x2 if i == q else np.eye(2, dtype=complex) for i in range(n)]
        full = ops[-1]
        for op in reversed(ops[:-1]):
            full = np.kron(full, op)
        total = full @ total
    return total[:, 0]


def reference_sample(dist, shots: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for sim.sample: one rng.choice over the normalised
    probabilities, tallied by np.unique. Returns the distinct outcomes and
    their tallies."""
    probs = dist.probs / dist.probs.sum()
    drawn = rng.choice(len(probs), size=shots, p=probs)
    return np.unique(drawn, return_counts=True)


def histogram(n: int, counts) -> ShotHistogram:
    """A ShotHistogram from a {basis index: count} mapping."""
    items = sorted(counts.items())
    return ShotHistogram(n, [i for i, _ in items], [c for _, c in items])
