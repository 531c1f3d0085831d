"""Peaking-half optimization (limited-memory quasi-Newton followed by Adam)
and circuit-intrinsic peak profiles."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import sim
from .circuits import (BitString, Circuit, _layout, _place, peaking_params, peaking_vector,
                       read_bitstring)
from .errors import CapacityError, NothingToOptimizeError, read_fields, read_value
from .metrics import contrast_from_probabilities

PROFILE_SCAN_LIMIT = 20  # full-distribution scan caps at 2**20 entries
# Peak probabilities are squared statevector amplitudes, which rounding can
# push past 1 (1 + 3e-15 on mirror circuits), so a profile allows this much.
_PROBABILITY_SLACK = 1e-9
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    stage1_iters: int = 5000
    stage2_iters: int = 10000
    adam_step: float = 0.01
    stop_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.stage1_iters < 0 or self.stage2_iters < 0:
            raise ValueError("stage1_iters and stage2_iters must be non-negative")
        if not 0.0 < self.adam_step < math.inf:
            raise ValueError(f"adam_step must be positive and finite, got {self.adam_step}")
        # A NaN tolerance would stop both stages before they start.  Zero or
        # below is valid: it turns the gradient test off.
        if not math.isfinite(self.stop_tol):
            raise ValueError(f"stop_tol must be finite, got {self.stop_tol}")


@dataclass(frozen=True)
class OptimizationTrace:
    """Best-so-far objective per recorded iteration (monotone by construction)."""

    objective_values: tuple[float, ...]
    final_objective: float
    iterations_stage1: int
    iterations_stage2: int


def with_peaking_vector(circuit: Circuit, vec: np.ndarray) -> Circuit:
    """Circuit with peaking-half parameters replaced; random half untouched."""
    rd = circuit.random_depth
    layout = _layout(circuit.layers[rd:])
    params = peaking_params(vec, sum(map(len, layout)))
    return replace(circuit, layers=circuit.layers[:rd] + _place(layout, params))


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
        # Imported here: scipy.optimize takes most of the package's import
        # time, and only this branch needs it.
        from scipy.optimize import minimize

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
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            for step in range(1, config.stage2_iters + 1):
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad * grad
                m_hat = m / (1 - b1**step)
                v_hat = v / (1 - b2**step)
                x = x + config.adam_step * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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

    def __post_init__(self) -> None:
        for name in ("p_peak", "p_second", "c_max"):
            value = getattr(self, name)
            if not -_PROBABILITY_SLACK <= value <= 1 + _PROBABILITY_SLACK:
                raise ValueError(f"{name}: {value!r} is outside [0, 1]")
        if self.p_second > self.p_peak:
            raise ValueError(f"p_second: {self.p_second!r} exceeds p_peak {self.p_peak!r}")
        if not self.r_p >= 1:
            raise ValueError(f"r_p: {self.r_p!r} is below 1")


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
    doc = asdict(profile) | {"target": profile.target.text, "argmax": profile.argmax.text}
    return doc | {"r_p": None if np.isinf(profile.r_p) else profile.r_p}


def _read_dominance(value, path: str) -> float:
    """r_p, which profile_to_dict stores as null when nothing competes."""
    return float("inf") if value is None else read_value(float, value, path)


def profile_from_dict(doc: dict, where: str = "profile") -> PeakProfile:
    """Inverse of profile_to_dict; errors name their path, ``<where>.<field>``."""
    bits = read_bitstring
    return read_fields(PeakProfile, doc, f"{where}.", target=bits, argmax=bits, r_p=_read_dominance)
