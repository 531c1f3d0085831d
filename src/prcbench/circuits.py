"""Circuit structures: the mirrored brick-wall layout, reference-circuit
construction, sub-circuit derivation, exact-inverse peaking, retargeting,
and the JSON interchange format.

Global bit convention: qubit 0 is the least significant bit of a basis
index, and the text form of a bitstring lists qubit 0 first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidDimensionError, SchemaError, read_fields, read_tagged, read_value
from .gates import PARAMS_PER_GATE, GateParams, gate_matrices, haar_random_unitary, kak_decompose

ROLE_RANDOM = "random-half"
ROLE_PEAKING = "peaking-half"

CIRCUIT_SCHEMA = "prc-circuit/1"


@dataclass(frozen=True)
class BitString:
    """Ordered bits, bits[i] being qubit i's value."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Basis index with qubit 0 as the least significant bit."""
        return sum(b << i for i, b in enumerate(self.bits))

    @property
    def text(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls((0,) * n)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def from_index(cls, index: int, n: int) -> "BitString":
        return cls(tuple((index >> i) & 1 for i in range(n)))

    def __xor__(self, other: "BitString") -> "BitString":
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return BitString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))


@dataclass(frozen=True)
class GatePlacement:
    """A two-qubit gate at (qubit_low, qubit_low + 1).  Its layer is where
    the circuit holds it, and that layer's half is Circuit.role."""

    qubit_low: int
    params: GateParams


@dataclass(frozen=True)
class Circuit:
    """A brick-wall circuit split into a random half and a peaking half.

    ``final_x`` lists qubits that receive a standalone NOT after the last
    layer (produced by retargeting when the final layer's alignment skips
    a flipped qubit).  ``seed`` records the reference-circuit seed so that
    derived circuits can fill layout slots deterministically.
    """

    n: int
    d: int
    random_depth: int
    layers: tuple[tuple[GatePlacement, ...], ...]
    target: BitString
    final_x: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidDimensionError(f"n: need at least 2 qubits, got {self.n}")
        if len(self.layers) != self.d:
            raise ValueError(f"layers: {len(self.layers)} layers do not match depth {self.d}")
        if not 0 <= self.random_depth <= self.d:
            raise ValueError(f"random_depth: {self.random_depth} is outside 0..{self.d}")
        if len(self.target) != self.n:
            raise ValueError(f"target: {len(self.target)} bits do not match {self.n} qubits")
        for t, layer in enumerate(self.layers):
            used: set[int] = set()
            for i, g in enumerate(layer):
                if g.qubit_low < 0 or g.qubit_low + 1 >= self.n:
                    raise ValueError(f"layers[{t}][{i}].qubit_low: gate leaves the register")
                if g.qubit_low in used or g.qubit_low + 1 in used:
                    raise ValueError(f"layers[{t}][{i}].qubit_low: gate overlaps another")
                used.update((g.qubit_low, g.qubit_low + 1))
        # Distinct qubits, so the trailing NOTs are one XOR mask (sim.run).
        for i, q in enumerate(self.final_x):
            if not 0 <= q < self.n:
                raise ValueError(f"final_x[{i}]: qubit {q} is outside 0..{self.n - 1}")
            if q in self.final_x[:i]:
                raise ValueError(f"final_x[{i}]: qubit {q} is listed twice")

    def role(self, t: int) -> str:
        """The half layer t belongs to."""
        return ROLE_RANDOM if t < self.random_depth else ROLE_PEAKING

    def placements(self):
        for layer in self.layers:
            yield from layer

    def peaking_placements(self):
        for layer in self.layers[self.random_depth:]:
            yield from layer

    def num_placements(self) -> int:
        return sum(len(layer) for layer in self.layers)


def peaking_vector(circuit: Circuit) -> np.ndarray:
    """Flat parameter vector over the peaking half, placement order."""
    gates = list(circuit.peaking_placements())
    if not gates:
        return np.zeros(0)
    return np.concatenate([g.params.to_vector() for g in gates])


def peaking_rows(vec: np.ndarray, num_gates: int) -> np.ndarray:
    """Inverse of peaking_vector as a (num_gates, 16) array of to_vector()
    rows, one per gate."""
    if len(vec) != num_gates * PARAMS_PER_GATE:
        raise ValueError("parameter vector length does not match the peaking half")
    return np.reshape(vec, (num_gates, PARAMS_PER_GATE))


def peaking_params(vec: np.ndarray, num_gates: int) -> list[GateParams]:
    """Inverse of peaking_vector: the parameters of each of num_gates gates."""
    return [GateParams.from_vector(row) for row in peaking_rows(vec, num_gates)]


def random_depth_for(d: int) -> int:
    """Layer count of the random half: d/2 for even d, (d-1)/2 for odd d
    (the peaking half gets the extra layer)."""
    return d // 2


def _row_pairs(n: int, even: bool) -> list[int]:
    start = 0 if even else 1
    return list(range(start, n - 1, 2))


def _layer_even(t: int, random_depth: int) -> bool:
    """Alignment of layer t: the random half alternates starting even at
    layer 0; the peaking half mirrors the sequence at the midpoint, i.e.
    layer random_depth + j matches layer random_depth - 1 - j (extended by
    parity for the odd-depth overhang)."""
    if t < random_depth:
        m = t
    else:
        m = random_depth - 1 - (t - random_depth)
    return m % 2 == 0


def brickwall_layout(n: int, d: int) -> list[list[int]]:
    """Per-layer qubit_low positions of the mirrored brick-wall pattern.

    For n = 2 every layer is the single pair (0, 1).
    """
    if n < 2 or d < 2:
        raise InvalidDimensionError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    rd = random_depth_for(d)
    if n == 2:
        return [[0] for _ in range(d)]
    return [_row_pairs(n, _layer_even(t, rd)) for t in range(d)]


def _place(layout, params) -> tuple[tuple[GatePlacement, ...], ...]:
    """Layers with a gate at each qubit_low of ``layout`` (one list per
    layer), taking ``params`` in layout order."""
    params = iter(params)
    return tuple(tuple(GatePlacement(q, next(params)) for q in row) for row in layout)


def _layout(layers) -> list[list[int]]:
    """Per-layer qubit_low positions of ``layers``, the inverse of _place."""
    return [[g.qubit_low for g in layer] for layer in layers]


def _by_slot(layers) -> dict[tuple[int, int], GateParams]:
    """Each gate's parameters keyed by its (layer, qubit_low) slot."""
    return {(t, g.qubit_low): g.params for t, layer in enumerate(layers) for g in layer}


def _fill_rng(seed: int, role_tag: int, layer_in_half: int, qubit_low: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), role_tag, layer_in_half, qubit_low])
    )


def build_reference_circuit(n_max: int, d_max: int, seed: int) -> Circuit:
    """Full-size circuit whose gates are all Haar random; smaller benchmark
    circuits are carved out of it so difficulty grows incrementally."""
    layout = brickwall_layout(n_max, d_max)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    rd = random_depth_for(d_max)
    # Every Haar gate is drawn in layout order, then all are decomposed at once.
    unitaries = np.stack([haar_random_unitary(rng) for row in layout for _ in row])
    return Circuit(
        n=n_max,
        d=d_max,
        random_depth=rd,
        layers=_place(layout, kak_decompose(unitaries)),
        target=BitString.zeros(n_max),
        seed=int(seed),
    )


def derive_subcircuit(reference: Circuit, n: int, d: int) -> Circuit:
    """Carve an (n, d) circuit out of the reference.

    The layout is re-mirrored for (n, d); each slot takes the gate at the
    same (layer-within-half, qubit) position of the reference, restricted
    to qubits 0..n-1.  Slots whose reference layer has no gate there (the
    halves' mirror alignments can disagree between sizes) are filled with
    a fresh Haar gate drawn from a seed derived from the slot position, so
    the fill is deterministic and independent of d.
    """
    if n > reference.n or d > reference.d:
        raise InvalidDimensionError("requested size exceeds the reference circuit")
    layout = brickwall_layout(n, d)
    rd = random_depth_for(d)
    rd_ref = reference.random_depth
    fill_seed = reference.seed if reference.seed is not None else 0

    by_slot = _by_slot(reference.layers)
    slots, fills = [], []
    for t, row in enumerate(layout):
        tag, j = (0, t) if t < rd else (1, t - rd)
        src_layer = j if t < rd else rd_ref + j
        for q in row:
            params = by_slot.get((src_layer, q))
            if params is None:
                fills.append(haar_random_unitary(_fill_rng(fill_seed, tag, j, q)))
            slots.append(params)
    # Empty slots take the fills in the order they were drawn.
    filled = iter(kak_decompose(np.stack(fills)) if fills else ())
    return Circuit(
        n=n,
        d=d,
        random_depth=rd,
        layers=_place(layout, (p if p is not None else next(filled) for p in slots)),
        target=BitString.zeros(n),
        seed=reference.seed,
    )


def build_exact_inverse_peaking(circuit: Circuit) -> Circuit:
    """Replace the peaking half with the layer-reversed inverse of the
    random half, making the circuit map the all-zero state to itself."""
    if circuit.d % 2 != 0 or circuit.random_depth != circuit.d // 2:
        raise InvalidDimensionError("mirror inverse requires even depth with equal halves")
    rd = circuit.random_depth
    by_slot = _by_slot(circuit.layers[:rd])
    layout = _layout(circuit.layers[rd:])
    sources = []
    # Peaking layer rd + j inverts random layer rd - 1 - j.
    for j, row in enumerate(layout):
        for q in row:
            params = by_slot.get((rd - 1 - j, q))
            if params is None:
                raise InvalidDimensionError(
                    "peaking layer alignment does not mirror the random half"
                )
            sources.append(params.to_vector())
    forward = gate_matrices(np.stack(sources))
    inverses = kak_decompose(np.swapaxes(forward.conj(), 1, 2))
    return replace(
        circuit,
        layers=circuit.layers[:rd] + _place(layout, inverses),
        target=BitString.zeros(circuit.n),
        final_x=(),
    )


def retarget(circuit: Circuit, s: BitString) -> Circuit:
    """Move the peak from the all-zero bitstring to s by fusing NOT gates
    into the final layer (or appending standalone ones for qubits the last
    layer does not touch).  The output distribution is the old one with
    indices XORed by s."""
    if len(s) != circuit.n:
        raise ValueError("target length does not match qubit count")
    flips = {i for i, b in enumerate(s.bits) if b == 1}
    if not flips:
        return replace(circuit, target=s)

    last = circuit.layers[-1]
    fused, masks = [], []
    for i, g in enumerate(last):
        lo, hi = g.qubit_low, g.qubit_low + 1
        mask = (lo in flips) | (hi in flips) << 1
        flips.discard(lo)
        flips.discard(hi)
        if mask:
            fused.append(i)
            masks.append(mask)
    new_last = list(last)
    if fused:
        # NOTs after a gate only permute its rows: (X m)[i] = m[i ^ mask].
        rows = np.stack([last[i].params.to_vector() for i in fused])
        permuted = [m[np.arange(4) ^ mask] for m, mask in zip(gate_matrices(rows), masks)]
        for i, params in zip(fused, kak_decompose(np.stack(permuted))):
            new_last[i] = replace(last[i], params=params)
    layers = circuit.layers[:-1] + (tuple(new_last),)

    # Unfused flips toggle the standalone NOT set (X is self-inverse).
    final_x = set(circuit.final_x) ^ flips
    return replace(circuit, layers=layers, target=s, final_x=tuple(sorted(final_x)))


def _placement_to_json(g: GatePlacement, t: int, role: str) -> dict:
    """A gate as circuit documents store it, with its layer t and role."""
    return {
        "layer": t,
        "qubit_low": g.qubit_low,
        "role": role,
        "params": [float(v) for v in g.params.to_vector()],
    }


def circuit_to_dict(circuit: Circuit, profile: dict | None = None) -> dict:
    doc = {
        "schema": CIRCUIT_SCHEMA,
        "n": circuit.n,
        "d": circuit.d,
        "random_depth": circuit.random_depth,
        "target": circuit.target.text,
        "final_x": list(circuit.final_x),
        "seed": circuit.seed,
        "layers": [
            [_placement_to_json(g, t, circuit.role(t)) for g in layer]
            for t, layer in enumerate(circuit.layers)
        ],
    }
    if profile is not None:
        doc["profile"] = profile
    return doc


def circuit_to_json(circuit: Circuit, profile: dict | None = None) -> str:
    return json.dumps(circuit_to_dict(circuit, profile), indent=2, sort_keys=True)


def read_bitstring(value, path: str) -> BitString:
    """A bitstring field, stored as its text."""
    if type(value) is not str or not set(value) <= {"0", "1"}:
        raise SchemaError(f"{path}: expected a bitstring, got {value!r}")
    return BitString.from_text(value)


def _read_params(value, path: str) -> GateParams:
    vector = read_value(tuple[float, ...], value, path)
    if len(vector) != PARAMS_PER_GATE:
        raise SchemaError(f"{path}: expected {PARAMS_PER_GATE} numbers, got {len(vector)}")
    return GateParams.from_vector(vector)


@dataclass(frozen=True)
class _StoredPlacement(GatePlacement):
    """A gate as a circuit document stores it, with its layer and role."""

    layer: int = field(kw_only=True)
    role: str = field(kw_only=True)


def _read_layers(value, path: str) -> tuple[tuple[_StoredPlacement, ...], ...]:
    return tuple(
        tuple(
            read_fields(_StoredPlacement, g, f"{path}[{t}][{i}].", params=_read_params)
            for i, g in enumerate(layer)
        )
        for t, layer in enumerate(read_value(tuple[tuple[dict, ...], ...], value, path))
    )


def circuit_from_dict(doc: dict, where: str = "") -> Circuit:
    """Inverse of circuit_to_dict.  The embedded profile and a suite's
    final_objective are left to suite.load_suite; ``where`` prefixes
    every error's path."""
    body = read_tagged(doc, CIRCUIT_SCHEMA, where)
    ignore = {Circuit: ("profile", "final_objective")}
    circuit = read_fields(Circuit, body, where, ignore, layers=_read_layers, target=read_bitstring)
    return _check_loaded(circuit, where)


def _check_loaded(circuit: Circuit, where: str) -> Circuit:
    """What a circuit document must agree on beyond what Circuit checks:
    each gate's layer field and role match its position.  Returns the
    circuit with plain GatePlacements, which hold neither field."""
    for t, layer in enumerate(circuit.layers):
        role = circuit.role(t)
        for i, g in enumerate(layer):
            if g.layer != t:
                raise SchemaError(
                    f"{where}layers[{t}][{i}].layer: {g.layer} differs from its position {t}"
                )
            if g.role != role:
                raise SchemaError(
                    f"{where}layers[{t}][{i}].role: {g.role!r}, but random_depth "
                    f"{circuit.random_depth} makes layer {t} {role!r}"
                )
    params = (g.params for g in circuit.placements())
    return replace(circuit, layers=_place(_layout(circuit.layers), params))
