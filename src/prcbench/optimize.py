"""Peaking-half optimization (limited-memory BFGS, then Adam where L-BFGS
ran out of iterations) and circuit-intrinsic peak profiles.

Stage 1 is L-BFGS as L-BFGS-B runs it on a problem without bounds (Byrd,
Lu, Nocedal & Zhu 1995): memory 20, the compact form of the inverse
Hessian, and Moré & Thuente's line search (1994) with L-BFGS-B's settings.
It follows scipy's ``minimize(method="L-BFGS-B")`` on the same problem,
apart from the gradient-norm test, so the package needs only numpy.

Stage 2 is Adam, and it runs only when stage 1 stopped on its iteration
cap or made no iteration.  Adam moves each parameter by about
``adam_step`` whatever the gradient's size (Kingma & Ba 2015), so after
L-BFGS has converged it would circle the maximum without raising the best
p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sim
from .circuits import (BitString, Circuit, _layout, _place, peaking_params, peaking_vector,
                       read_bitstring)
from .errors import (CapacityError, NothingToOptimizeError, SchemaError, UndefinedMetricError,
                     check_fields, read_fields, read_value)
from .metrics import _peak_and_second, contrast_from_probabilities

PROFILE_SCAN_LIMIT = 20  # full-distribution scan caps at 2**20 entries
# Peak probabilities are squared statevector amplitudes, which rounding can
# push past 1 (1 + 3e-15 on mirror circuits), so a profile allows this much.
_PROBABILITY_SLACK = 1e-9
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Stage 1 keeps this many L-BFGS pairs, and stops once an iteration lowers
# -p by no more than this fraction of max(|p_old|, |p|, 1).
LBFGS_MEMORY = 20
LBFGS_FTOL = 1e-15
# L-BFGS-B's line search settings: sufficient decrease, curvature, relative
# bracket width, largest step and trials per search.
_SEARCH_FTOL = 1e-3
_SEARCH_GTOL = 0.9
_SEARCH_XTOL = 0.1
_SEARCH_STPMAX = 1e10
_SEARCH_EVALS = 20
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimizerConfig:
    stage1_iters: int = 5000
    stage2_iters: int = 10000
    adam_step: float = 0.01
    stop_tol: float = 1e-8  # zero or below is valid: it turns the gradient test off

    def __post_init__(self) -> None:
        check_fields(self)
        if self.stage1_iters < 0 or self.stage2_iters < 0:
            raise ValueError("stage1_iters and stage2_iters must be non-negative")
        if self.adam_step <= 0.0:
            raise ValueError(f"adam_step must be positive, got {self.adam_step}")


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
    periodic angles, so box constraints would be vacuous).  Stage 2 polishes
    with Adam from the best point for up to ``stage2_iters`` steps, but only
    when stage 1 ended on ``stage1_iters`` or made no iteration; after any
    other stop (converged, or a failed search) it makes none.  Both stages
    stop early once the Euclidean norm of the gradient, ||g||_2, is at most
    ``stop_tol``, and the best parameters seen anywhere are returned, so the
    reported objective can never decrease.
    """
    config = config or OptimizerConfig()
    if not any(True for _ in circuit.peaking_placements()):
        raise NothingToOptimizeError("circuit has no peaking layers")

    engine = sim.PeakObjective(circuit)
    x0 = peaking_vector(circuit)
    p0, g0 = engine.value_and_gradient(x0)
    # The best point seen, with its gradient, so stage 2 starts there
    # without evaluating it again.
    best_p, best_x, best_grad = p0, x0.copy(), g0
    trace_vals = [p0]

    def eval_at(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_p, best_x, best_grad
        p, grad = engine.value_and_gradient(x)
        if p > best_p:
            best_p, best_x, best_grad = p, x.copy(), grad
        return p, grad

    def neg_value_and_grad(xk: np.ndarray) -> tuple[float, np.ndarray]:
        p, grad = eval_at(xk)
        return -p, -grad

    iterations_stage1, reason = _lbfgs(
        neg_value_and_grad, x0, -p0, -g0, config.stage1_iters, config.stop_tol,
        lambda: trace_vals.append(best_p),
    )
    stage2_iters = config.stage2_iters if reason == "cap" or not iterations_stage1 else 0

    x, grad = best_x.copy(), best_grad
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step = 0
    while step < stage2_iters and float(np.linalg.norm(grad)) > config.stop_tol:
        step += 1
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        x = x + config.adam_step * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p, grad = eval_at(x)
        trace_vals.append(best_p)

    final_circuit = with_peaking_vector(circuit, best_x)
    trace = OptimizationTrace(
        objective_values=tuple(trace_vals),
        final_objective=best_p,
        iterations_stage1=iterations_stage1,
        iterations_stage2=step,
    )
    return final_circuit, trace


def _lbfgs(fun, x: np.ndarray, f: float, g: np.ndarray, maxiter: int, gtol: float,
           callback) -> tuple[int, str]:
    """Minimize ``fun`` (value and gradient of one vector) from x, where
    (f, g) = fun(x), on L-BFGS-B's path for a problem without bounds, and
    return (iterations made, why the run ended).  ``callback()`` runs after
    each iteration.

    Each iteration searches along -H g for the compact-form H of the newest
    pairs; the first one starts at the step 1 / ||g||, later ones at 1.  A
    failed search leaves x where it was: with pairs in memory, they are
    dropped and the iteration retries along -g, and with none, the run ends
    ("search").  Before each iteration, the run ends after ``maxiter``
    iterations ("cap"), once ||g||_2 <= gtol ("gradient"), or once the last
    iteration's relative reduction of f fell to LBFGS_FTOL ("ftol"), tested
    in that order: scipy's ``minimize`` stops on its iteration limit before
    L-BFGS-B's own tests see the iteration.
    """
    memory = _Memory(x.size)
    iterations = 0
    reduced = True
    while True:
        if iterations >= maxiter:
            return iterations, "cap"
        if float(np.linalg.norm(g)) <= gtol:
            return iterations, "gradient"
        if not reduced:
            return iterations, "ftol"
        d = memory.direction(g) if memory.k else -g
        gd = float(g @ d)
        found = None
        if gd < 0:
            stp = 1.0 if iterations else min(1.0 / math.sqrt(float(d @ d)), _SEARCH_STPMAX)
            found = _line_search(fun, x, f, gd, d, stp)
        if found is None:
            if not memory.k:
                return iterations, "search"
            memory.k = 0
            continue
        stp, x, f_new, g_new, gd_new = found
        iterations += 1
        callback()
        f_old, f, y, g = f, f_new, g_new - g, g_new
        reduced = f_old - f > LBFGS_FTOL * max(abs(f_old), abs(f), 1.0)
        # s.y through the search's directional derivatives, as L-BFGS-B
        # takes it; the Wolfe curvature condition keeps it positive.
        sy = (gd_new - gd) * stp
        if sy > _EPS * -gd * stp:
            memory.push(stp * d, y, sy)


class _Memory:
    """The newest L-BFGS pairs (s, y), oldest first, and the inverse Hessian
    approximation they define in compact form (Byrd, Nocedal & Schnabel
    1994, Thm. 2.2):

        H = gamma I + [S  gamma Y] [[R^-T (D + gamma Y^T Y) R^-1, -R^-T],
                                    [-R^-1,                        0   ]] [S  gamma Y]^T

    with S, Y the pairs as columns, R the upper triangle of S^T Y, D its
    diagonal and gamma = s.y / y.y of the newest pair.  R^-1 and Y^T Y are
    kept up to date one pair at a time."""

    def __init__(self, n: int) -> None:
        m = LBFGS_MEMORY
        self.k = 0  # pairs held
        self.s = np.empty((m, n))
        self.y = np.empty((m, n))
        self.sy = np.empty(m)  # D
        self.yy = np.empty((m, m))
        self.rinv = np.zeros((m, m))
        self.gamma = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        k = self.k
        if k == LBFGS_MEMORY:
            # Dropping the oldest pair drops R^-1's first row and column.
            for a in (self.s, self.y, self.sy):
                a[:-1] = a[1:]
            for a in (self.yy, self.rinv):
                a[:-1, :-1] = a[1:, 1:]
            k -= 1
        self.s[k], self.y[k], self.sy[k] = s, y, sy
        # R gains the column (s_i.y, i < k; sy), so R^-1 gains
        # (-R^-1 (s_i.y) / sy; 1 / sy).
        self.rinv[:k, k] = self.rinv[:k, :k] @ (self.s[:k] @ y) / -sy
        self.rinv[k, k] = 1.0 / sy
        yy = self.y[: k + 1] @ y
        self.yy[k, : k + 1] = self.yy[: k + 1, k] = yy
        self.gamma = sy / float(yy[k])
        self.k = k + 1

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g."""
        k, gamma = self.k, self.gamma
        s, y, rinv = self.s[:k], self.y[:k], self.rinv[:k, :k]
        t = rinv @ (s @ g)
        u = rinv.T @ (self.sy[:k] * t + gamma * (self.yy[:k, :k] @ t - y @ g))
        return (gamma * t) @ y - u @ s - gamma * g


def _line_search(fun, x: np.ndarray, f: float, gd: float, d: np.ndarray, stp: float):
    """Moré & Thuente's search (MINPACK-2's dcsrch) along d from x, where f
    is the value at x, gd < 0 the derivative along d there, and stp the
    first trial step.

    Returns (stp, x + stp d, value, gradient, derivative along d) at the
    trial that ends the search: one with sufficient decrease and curvature,
    or one where rounding leaves the bracket no room.  Returns None when
    _SEARCH_EVALS trials end none.  Scalars are Python floats.
    """
    finit, ginit = f, gd
    gtest = _SEARCH_FTOL * ginit
    width, width1 = _SEARCH_STPMAX, 2.0 * _SEARCH_STPMAX
    stx = sty = 0.0
    fx = fy = finit
    gx = gy = ginit
    stmin, stmax = 0.0, stp + 4.0 * stp
    brackt = False
    stage1 = True
    for _ in range(_SEARCH_EVALS):
        x_new = x + stp * d
        f, g = fun(x_new)
        gd = float(g @ d)
        ftest = finit + stp * gtest
        stage1 = stage1 and not (f <= ftest and gd >= 0)
        if (
            (f <= ftest and abs(gd) <= _SEARCH_GTOL * -ginit)
            or (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _SEARCH_XTOL * stmax))
            or (stp == _SEARCH_STPMAX and f <= ftest and gd <= gtest)
            or (stp == 0.0 and (f > ftest or gd >= gtest))
        ):
            return stp, x_new, f, g, gd
        if stage1 and ftest < f <= fx:
            # Until a step meets sufficient decrease with gd >= 0, take
            # steps on psi(stp) = f - gtest * stp, which has a minimizer
            # that meets both conditions.
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, gd - gtest, brackt, stmin, stmax,
            )
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, gd, brackt, stmin, stmax
            )
        if brackt:
            # Bisect when the bracket has not shrunk enough in two steps.
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _SEARCH_STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _SEARCH_XTOL * stmax):
            stp = stx
    return None


def _cubic_gamma(theta: float, a: float, b: float) -> float:
    """sqrt(theta**2 - a * b), scaled against overflow; 0 where rounding
    makes the radicand negative."""
    s = max(abs(theta), abs(a), abs(b))
    return s * math.sqrt(max(0.0, (theta / s) ** 2 - (a / s) * (b / s)))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of Moré & Thuente's search (MINPACK-2's dcstep).

    stx is the step with the least value so far, sty the other end of the
    interval, and stp the trial just evaluated; f* and d* are the values
    and derivatives there.  Returns the updated (stx, fx, dx, sty, fy, dy),
    the next trial step and whether a minimizer is bracketed.
    """
    opposite = (dp < 0 < dx) or (dx < 0 < dp)
    if fp > fx:
        # Higher value: the minimizer is bracketed.  Take the cubic step,
        # or halfway to the quadratic step if that one is closer to stx.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # Lower value, derivative changes sign: bracketed.  Take whichever
        # of the cubic and secant steps is farther from stp.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Lower value, same sign, smaller derivative.  The cubic step is
        # used only if it heads away from stx and the cubic's minimum lies
        # beyond stp; then the closer (bracketed) or farther (not) of it
        # and the secant step, safeguarded.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # Lower value, same sign, no smaller derivative, bracketed: the
        # cubic step through stp and sty.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


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
    """Best-case contrast implied by a dominance ratio: the contrast of
    p_peak = r_p * p_second, that is (r - 1) / (r + 1)."""
    if np.isinf(r_p):
        return 1.0
    return contrast_from_probabilities(r_p, 1.0)


def peak_profile(circuit: Circuit) -> PeakProfile:
    """Scan the full distribution for the two largest probabilities.

    If the most likely outcome is not the circuit's target the profile keeps
    the actual argmax and flags the mismatch; an under-optimized circuit is
    data, not an error.
    """
    _require_scannable(circuit.n)
    probs = sim.full_distribution(circuit).probs
    # The last maximum, as a stable sort ranks tied maxima.
    i_peak = probs.size - 1 - int(np.argmax(probs[::-1]))
    p_peak, p_second = _peak_and_second(probs, i_peak)
    return _profile(circuit.target, p_peak, p_second, BitString.from_index(i_peak, circuit.n))


def _require_scannable(n: int) -> None:
    """Raise CapacityError when peak_profile cannot scan n qubits."""
    if n > PROFILE_SCAN_LIMIT:
        raise CapacityError(f"peak profile scans the full distribution; {n} > {PROFILE_SCAN_LIMIT} qubits")


def _profile(target: BitString, p_peak: float, p_second: float, argmax: BitString) -> PeakProfile:
    """The profile with r_p (p_peak / p_second, infinite when p_second is 0),
    c_max and target_mismatch derived from the other four fields."""
    r_p = math.inf if p_second == 0.0 else p_peak / p_second
    c_max = contrast_from_probabilities(p_peak, p_second)
    return PeakProfile(target, p_peak, p_second, r_p, c_max, argmax, argmax != target)


def profile_to_dict(profile: PeakProfile) -> dict:
    """The profile's fields in order, its bitstrings as text and an
    infinite r_p as None; read from the instance, with no deep copy."""
    return vars(profile) | {
        "target": profile.target.text, "argmax": profile.argmax.text,
        "r_p": None if np.isinf(profile.r_p) else profile.r_p,
    }


def _read_dominance(value, path: str) -> float:
    """r_p, which profile_to_dict stores as null when nothing competes."""
    return float("inf") if value is None else read_value(float, value, path)


def profile_from_dict(doc: dict, where: str = "profile", target: BitString | None = None) -> PeakProfile:
    """Inverse of profile_to_dict; errors name their path, ``<where>.<field>``.

    The profile's target must be ``target`` when one is given (its circuit's),
    and its derived fields c_max, r_p and target_mismatch what _profile
    derives from the others, compared as profile_to_dict writes them.  The
    writer calls _profile too and a JSON float round trip is exact, so each
    check is exact.
    """
    bits = read_bitstring
    profile = read_fields(PeakProfile, doc, f"{where}.", target=bits, argmax=bits, r_p=_read_dominance)
    if target is not None and profile.target != target:
        raise SchemaError(
            f"{where}.target: {profile.target.text} differs from the circuit's target {target.text}"
        )
    try:
        derived = _profile(profile.target, profile.p_peak, profile.p_second, profile.argmax)
    except UndefinedMetricError as exc:
        raise SchemaError(f"{where}.c_max: {exc}") from exc
    except ValueError as exc:  # a p_second below 0, within the slack, can push c_max past 1
        raise SchemaError(f"{where}.{exc}") from exc
    stored, want = profile_to_dict(profile), profile_to_dict(derived)
    for name, sources in (("c_max", "p_peak and p_second"), ("r_p", "p_peak and p_second"),
                          ("target_mismatch", "argmax and target")):
        if stored[name] != want[name]:
            raise SchemaError(f"{where}.{name}: {json.dumps(stored[name])}, but {sources} give "
                              f"{json.dumps(want[name])}")
    return profile
