"""Replays the OpenQASM 2.0 subset prcbench exports ({rz, ry, cx}, one
register) on a dense statevector, independently of the exporter, so the
benchmark can check every exported file against the simulator."""

from __future__ import annotations

import re

import numpy as np

_ROTATION = re.compile(r"^(rz|ry)\(([^)]+)\)\s*q\[(\d+)\];$")
_CX = re.compile(r"^cx\s+q\[(\d+)\],\s*q\[(\d+)\];$")
_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")
_SKIP = ("OPENQASM", "include", "creg", "measure", "//")


def _rotation(name: str, theta: float) -> np.ndarray:
    if name == "rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def replay_distribution(text: str) -> np.ndarray:
    """Outcome probabilities of the program, qubit 0 least significant."""
    state = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(_SKIP):
            continue
        if m := _QREG.match(line):
            n = int(m.group(1))
            state = np.zeros(1 << n, dtype=complex)
            state[0] = 1.0
        elif state is None:
            raise ValueError(f"gate before qreg: {line!r}")
        elif m := _ROTATION.match(line):
            u = _rotation(m.group(1), float(m.group(2)))
            q = int(m.group(3))
            psi = state.reshape(-1, 2, 1 << q)
            state = np.einsum("ij,ajb->aib", u, psi).reshape(-1)
        elif m := _CX.match(line):
            control, target = int(m.group(1)), int(m.group(2))
            idx = np.arange(len(state))
            state = state[np.where((idx >> control) & 1, idx ^ (1 << target), idx)]
        else:
            raise ValueError(f"unsupported QASM line: {line!r}")
    if state is None:
        raise ValueError("program declares no quantum register")
    return np.abs(state) ** 2
