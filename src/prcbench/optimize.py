"""Peaking-half optimization (limited-memory quasi-Newton followed by Adam)
and circuit-intrinsic peak profiles."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import sim
from .circuits import ROLE_PEAKING, BitString, Circuit
from .errors import CapacityError, NothingToOptimizeError
from .gates import PARAMS_PER_GATE, GateParams
from .metrics import contrast_from_probabilities

PROFILE_SCAN_LIMIT = 20  # full-distribution scan caps at 2**20 entries


@dataclass(frozen=True)
class OptimizerConfig:
    stage1_iters: int = 5000
    stage2_iters: int = 10000
    adam_step: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    stop_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stage1_iters < 0 or self.stage2_iters < 0:
            raise ValueError("iteration budgets must be non-negative")
        if self.adam_step <= 0:
            raise ValueError("adam_step must be positive")


@dataclass(frozen=True)
class OptimizationTrace:
    """Best-so-far objective per recorded iteration (monotone by construction)."""

    objective_values: tuple[float, ...]
    final_objective: float
    iterations_stage1: int
    iterations_stage2: int
    wall_time: float


def peaking_vector(circuit: Circuit) -> np.ndarray:
    """Flat parameter vector over the peaking half, placement order."""
    gates = list(circuit.peaking_placements())
    if not gates:
        return np.zeros(0)
    return np.concatenate([g.params.to_vector() for g in gates])


def with_peaking_vector(circuit: Circuit, vec: np.ndarray) -> Circuit:
    """Circuit with peaking-half parameters replaced; random half untouched."""
    gates = list(circuit.peaking_placements())
    if len(vec) != len(gates) * PARAMS_PER_GATE:
        raise ValueError("parameter vector length does not match the peaking half")
    new_params = {}
    for i, g in enumerate(gates):
        chunk = vec[i * PARAMS_PER_GATE : (i + 1) * PARAMS_PER_GATE]
        new_params[(g.layer_index, g.qubit_low)] = GateParams.from_vector(chunk)
    layers = tuple(
        tuple(
            replace(g, params=new_params[(g.layer_index, g.qubit_low)])
            if g.role == ROLE_PEAKING
            else g
            for g in layer
        )
        for layer in circuit.layers
    )
    return replace(circuit, layers=layers)


def objective(circuit: Circuit) -> float:
    """Peak probability p = |<s|C|0^n>|^2."""
    return float(abs(sim.peak_amplitude(circuit)) ** 2)


def optimize(
    circuit: Circuit, config: OptimizerConfig | None = None
) -> tuple[Circuit, OptimizationTrace]:
    """Maximize the target-bitstring probability over the peaking half.

    Stage 1 runs unconstrained limited-memory BFGS on -p (the parameters are
    periodic angles, so box constraints would be vacuous); stage 2 polishes
    with Adam.  Both stages stop early once the gradient norm falls below
    ``stop_tol``, and the best parameters seen anywhere are returned, so the
    reported objective can never decrease.
    """
    config = config or OptimizerConfig()
    if not any(True for _ in circuit.peaking_placements()):
        raise NothingToOptimizeError("circuit has no peaking layers")

    t_start = time.perf_counter()
    engine = sim.PeakObjective(circuit)
    x0 = peaking_vector(circuit)
    best_x = x0.copy()
    p0, g0 = engine.value_and_gradient(x0)
    best_p = p0
    trace_vals = [p0]

    def eval_at(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_p, best_x
        p, grad = engine.value_and_gradient(x)
        if p > best_p:
            best_p = p
            best_x = x.copy()
        return p, grad

    iterations_stage1 = 0
    x = x0
    gnorm = float(np.linalg.norm(g0))
    if gnorm > config.stop_tol and config.stage1_iters > 0:

        def neg_value_and_grad(xk: np.ndarray):
            p, grad = eval_at(xk)
            return -p, -grad

        result = minimize(
            neg_value_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            callback=lambda xk: trace_vals.append(best_p),
            options={
                "maxiter": config.stage1_iters,
                "gtol": config.stop_tol,
                "ftol": 1e-15,
                "maxcor": 20,
            },
        )
        iterations_stage1 = int(result.nit)
        x = best_x.copy()

    iterations_stage2 = 0
    if config.stage2_iters > 0:
        p, grad = eval_at(x)
        if float(np.linalg.norm(grad)) > config.stop_tol:
            m = np.zeros_like(x)
            v = np.zeros_like(x)
            b1, b2 = config.adam_beta1, config.adam_beta2
            for step in range(1, config.stage2_iters + 1):
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad * grad
                m_hat = m / (1 - b1**step)
                v_hat = v / (1 - b2**step)
                x = x + config.adam_step * m_hat / (np.sqrt(v_hat) + config.adam_eps)
                iterations_stage2 = step
                p, grad = eval_at(x)
                trace_vals.append(best_p)
                if float(np.linalg.norm(grad)) <= config.stop_tol:
                    break

    final_circuit = with_peaking_vector(circuit, best_x)
    trace = OptimizationTrace(
        objective_values=tuple(trace_vals),
        final_objective=best_p,
        iterations_stage1=iterations_stage1,
        iterations_stage2=iterations_stage2,
        wall_time=time.perf_counter() - t_start,
    )
    return final_circuit, trace


@dataclass(frozen=True)
class PeakProfile:
    """Circuit-intrinsic peak quantities from the exact output distribution."""

    target: BitString
    p_peak: float
    p_second: float
    r_p: float
    c_max: float
    argmax: BitString
    target_mismatch: bool


def c_max_from_dominance(r_p: float) -> float:
    """Best-case contrast implied by a dominance ratio: (r - 1) / (r + 1)."""
    if np.isinf(r_p):
        return 1.0
    return (r_p - 1.0) / (r_p + 1.0)


def peak_profile(circuit: Circuit) -> PeakProfile:
    """Scan the full distribution for the two largest probabilities.

    If the most likely outcome is not the circuit's target the profile keeps
    the actual argmax and flags the mismatch; an under-optimized circuit is
    data, not an error.
    """
    if circuit.n > PROFILE_SCAN_LIMIT:
        raise CapacityError(
            f"peak profile scans the full distribution; {circuit.n} > {PROFILE_SCAN_LIMIT} qubits"
        )
    probs = sim.full_distribution(circuit).probs
    order = np.argsort(probs, kind="stable")
    i_peak = int(order[-1])
    i_second = int(order[-2])
    p_peak = float(probs[i_peak])
    p_second = float(probs[i_second])
    r_p = float("inf") if p_second == 0.0 else p_peak / p_second
    return PeakProfile(
        target=circuit.target,
        p_peak=p_peak,
        p_second=p_second,
        r_p=r_p,
        c_max=contrast_from_probabilities(p_peak, p_second),
        argmax=BitString.from_index(i_peak, circuit.n),
        target_mismatch=(i_peak != circuit.target.index),
    )


def profile_to_dict(profile: PeakProfile) -> dict:
    return {
        "target": profile.target.text,
        "p_peak": profile.p_peak,
        "p_second": profile.p_second,
        "r_p": None if np.isinf(profile.r_p) else profile.r_p,
        "c_max": profile.c_max,
        "argmax": profile.argmax.text,
        "target_mismatch": profile.target_mismatch,
    }


def profile_from_dict(doc: dict) -> PeakProfile:
    r_p = doc["r_p"]
    return PeakProfile(
        target=BitString.from_text(doc["target"]),
        p_peak=float(doc["p_peak"]),
        p_second=float(doc["p_second"]),
        r_p=float("inf") if r_p is None else float(r_p),
        c_max=float(doc["c_max"]),
        argmax=BitString.from_text(doc["argmax"]),
        target_mismatch=bool(doc["target_mismatch"]),
    )
