"""Stage 1's L-BFGS: its line search, its stop rules, its path against
scipy's L-BFGS-B, and a run of the CLI with scipy unavailable."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from prcbench import sim
from prcbench.circuits import build_reference_circuit, derive_subcircuit, peaking_vector
from prcbench.optimize import LBFGS_FTOL, OptimizerConfig, _lbfgs, _line_search, optimize

optimize_module = sys.modules["prcbench.optimize"]

SRC = Path(__file__).resolve().parents[1] / "src"


def _more_thuente_1(a, beta=2.0):
    return -a / (a * a + beta), (a * a - beta) / (a * a + beta) ** 2


def _more_thuente_2(a, beta=0.004):
    return (a + beta) ** 5 - 2 * (a + beta) ** 4, 5 * (a + beta) ** 4 - 8 * (a + beta) ** 3


def _more_thuente_3(a, beta=0.01, ell=39):
    wave = 2 * (1 - beta) / (ell * math.pi) * math.sin(ell * math.pi * a / 2)
    slope = (1 - beta) * math.cos(ell * math.pi * a / 2)
    if a <= 1 - beta:
        return 1 - a + wave, -1 + slope
    if a >= 1 + beta:
        return a - 1 + wave, 1 + slope
    return (a - 1) ** 2 / (2 * beta) + beta / 2 + wave, (a - 1) / beta + slope


MORE_THUENTE = [_more_thuente_1, _more_thuente_2, _more_thuente_3]
FIRST_STEPS = [1e-3, 1e-1, 1e1, 1e3]


def _search(phi, first_step):
    def fun(x):
        value, slope = phi(float(x[0]))
        return value, np.array([slope])

    f0, g0 = phi(0.0)
    found = _line_search(fun, np.zeros(1), f0, g0, np.ones(1), first_step)
    assert found is not None
    stp, x, f, g, gd = found
    assert x[0] == stp and gd == g[0] and (f, gd) == phi(stp)
    return stp, f0, g0


@pytest.mark.parametrize("phi", MORE_THUENTE)
@pytest.mark.parametrize("first_step", FIRST_STEPS)
def test_line_search_meets_both_wolfe_conditions(phi, first_step, monkeypatch):
    # Moré & Thuente (1994), functions 1-3, with L-BFGS-B's sufficient
    # decrease (1e-3) and curvature (0.9).  L-BFGS-B also ends a search once
    # the bracket is within 10% of its end, which on functions 2 and 3
    # comes first; the paper's runs keep narrowing, as here.
    monkeypatch.setattr(optimize_module, "_SEARCH_XTOL", 1e-10)
    stp, f0, g0 = _search(phi, first_step)
    f, gd = phi(stp)
    assert f <= f0 + 1e-3 * stp * g0
    assert abs(gd) <= 0.9 * abs(g0)


def _wavy(seed):
    """A descent direction of a rational function with a random ripple."""
    rng = np.random.default_rng(seed)
    while True:
        b, k, c = rng.uniform(0.01, 3), rng.uniform(1, 60), rng.uniform(0, 0.2)

        def phi(a):
            return -a / (a * a + b) + c * math.sin(k * a), (a * a - b) / (a * a + b) ** 2 + c * k * math.cos(k * a)

        if phi(0.0)[1] < 0:
            return phi, 10 ** rng.uniform(-3, 3)


def test_line_search_takes_scipys_steps():
    # Moré & Thuente's functions 1-3, and enough rippled functions that the
    # bisection safeguard fires on several.
    dcsrch = pytest.importorskip("scipy.optimize._dcsrch").DCSRCH
    cases = [(phi, step) for phi in MORE_THUENTE for step in FIRST_STEPS] + [_wavy(seed) for seed in range(400)]
    for phi, first_step in cases:
        stp, f0, g0 = _search(phi, first_step)
        search = dcsrch(lambda a: phi(a)[0], lambda a: phi(a)[1], 1e-3, 0.9, 0.1, 0.0, 1e10)
        expected, *_ = search(first_step, f0, g0, maxiter=20)
        # Where the bracket test ends a search, scipy reports no step; the
        # last trial there is the best end of the bracket, stx.
        expected = expected if expected is not None else search.stx
        assert stp == pytest.approx(expected, rel=1e-12), (phi, first_step)
        assert phi(stp)[0] <= f0 + 1e-3 * stp * g0


class _Recorder:
    """A quadratic 0.5 (x - x*)' A (x - x*) that records every evaluation
    and, through ``accepted``, the value at the end of each iteration.  A's
    eigenvalues start at 1e4, so the relative-reduction stop comes after
    x is within 1e-10 of x*."""

    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        self.a = (q * np.linspace(1e4, 5e5, n)) @ q.T
        self.x_star = rng.standard_normal(n)
        self.x0 = self.x_star + rng.standard_normal(n)
        self.last = None
        self.values = [self(self.x0)[0]]

    def __call__(self, x):
        e = x - self.x_star
        self.last = (x, 0.5 * float(e @ self.a @ e), self.a @ e)
        return self.last[1:]

    def accepted(self):
        self.values.append(self.last[1])


@pytest.mark.parametrize("seed", range(4))
def test_reaches_the_minimizer_of_a_convex_quadratic(seed):
    quad = _Recorder(12, seed)
    f0, g0 = quad(quad.x0)
    iterations, reason = _lbfgs(quad, quad.x0, f0, g0, 200, 0.0, quad.accepted)
    assert iterations == len(quad.values) - 1 < 200
    # With the gradient test off, the run ends on the relative reduction.
    assert reason == "ftol"
    assert np.max(np.abs(quad.last[0] - quad.x_star)) <= 1e-10


def test_honours_maxiter():
    quad = _Recorder(12, 0)
    f0, g0 = quad(quad.x0)
    assert _lbfgs(quad, quad.x0, f0, g0, 3, 0.0, quad.accepted) == (3, "cap")
    assert len(quad.values) == 4


def test_stops_on_the_relative_reduction():
    # With the gradient test off, the run ends at the first iteration that
    # lowers f by at most LBFGS_FTOL relative, and at no earlier one.
    quad = _Recorder(12, 1)
    f0, g0 = quad(quad.x0)
    iterations, reason = _lbfgs(quad, quad.x0, f0, g0, 10_000, -1.0, quad.accepted)
    assert iterations < 10_000 and reason == "ftol"
    small = [a - b <= LBFGS_FTOL * max(abs(a), abs(b), 1.0) for a, b in zip(quad.values, quad.values[1:])]
    assert small[-1] and not any(small[:-1])


PARITY_CELLS = [(3, 4, 9), (4, 6, 3), (5, 10, 7), (6, 10, 7)]


@pytest.mark.parametrize("iters", [20, 60])
@pytest.mark.parametrize("n,d,seed", PARITY_CELLS)
def test_stage1_follows_scipy_lbfgsb(n, d, seed, iters):
    minimize = pytest.importorskip("scipy.optimize").minimize
    circuit = derive_subcircuit(build_reference_circuit(n, d, seed=seed), n, d)
    engine = sim.PeakObjective(circuit)
    best = [0.0]

    def neg(x):
        p, grad = engine.value_and_gradient(x)
        best[0] = max(best[0], p)
        return -p, -grad

    result = minimize(neg, peaking_vector(circuit), jac=True, method="L-BFGS-B",
                      options={"maxiter": iters, "gtol": 0.0, "ftol": 1e-15, "maxcor": 20})
    _, trace = optimize(circuit, OptimizerConfig(stage1_iters=iters, stage2_iters=0, stop_tol=0.0))
    if "REDUCTION OF F" in result.message.replace("_", " "):
        # The relative-reduction stop compares changes of a few ulps once p
        # is within 1e-15 of 1, so the last bits of either implementation
        # decide it: the runs may stop one iteration apart, at the same p.
        assert abs(trace.iterations_stage1 - result.nit) <= 1
        assert abs(trace.final_objective - best[0]) <= 1e-12
    else:
        assert trace.iterations_stage1 == result.nit
        assert abs(trace.final_objective - best[0]) <= 1e-9


def test_cli_runs_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 2, "threshold": 1, "master_seed": 3}))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {str(SRC)!r})
        from prcbench.cli import main
        out = {str(tmp_path)!r}
        assert main(["generate", "--qubits", "2..3", "--depths", "4", "--seed", "5", "--out-dir", out + "/suite",
                     "--stage1-iters", "20", "--stage2-iters", "5"]) == 0
        assert main(["bench", "--suite", out + "/suite/suite.json", "--config", {str(config)!r},
                     "--out", out + "/matrix.json"]) == 0
        assert not [name for name in sys.modules if name.startswith("scipy.")]
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    manifest = json.loads((tmp_path / "suite" / "suite.json").read_text())
    assert manifest["optimizer"]["stage1_iters"] == 20
