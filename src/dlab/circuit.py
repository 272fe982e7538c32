"""Gate-level IR and builders for the purified and condensed collision circuits.

Both builders lay out their register by `ScmParams.system` and
`ScmParams.units`; :mod:`dlab.scm` states the layout.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kernels import apply_matrix
from .qstate import _check_integer, _read_only
from .scm import THETA_PI_ATOL, Scenario, ScmParams, prep_angle

UNITARY_MAX_QUBITS = 6


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    RY = "RY"
    CNOT = "CNOT"
    CZ = "CZ"
    SWAP = "SWAP"


GATE_ARITY = {
    GateKind.X: 1,
    GateKind.H: 1,
    GateKind.RY: 1,
    GateKind.CNOT: 2,
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
}

_SQRT2_INV = 1 / math.sqrt(2)
# Every gate kind is real, so its matrix is float64: statevector, unitary and
# noisy density runs all evolve real arrays (see `run_density`). `Gate.matrix`
# hands out these arrays themselves, so they are read-only.
_FIXED_MATRICES = {
    GateKind.X: _read_only(np.array([[0, 1], [1, 0]], dtype=float)),
    GateKind.H: _read_only(np.array([[1, 1], [1, -1]], dtype=float) * _SQRT2_INV),
    GateKind.CNOT: _read_only(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)),
    GateKind.CZ: _read_only(np.diag([1.0, 1.0, 1.0, -1.0])),
    GateKind.SWAP: _read_only(np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)),
}


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = GATE_ARITY[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate qubits must be distinct, got {self.qubits}")
        if (self.kind is GateKind.RY) != (self.angle is not None):
            raise ValueError("angle is required for RY and forbidden otherwise")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"RY angle must be finite, got {self.angle!r}")

    def matrix(self) -> np.ndarray:
        if self.kind is GateKind.RY:
            h = self.angle / 2.0
            return np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]])
        return _FIXED_MATRICES[self.kind]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a register of at least one logical qubit."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _check_integer(self.num_qubits, "num_qubits", 1))
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(not 0 <= q < self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside register of {self.num_qubits} qubits")


def build_full_circuit(t: float, p: ScmParams) -> Circuit:
    """Purified circuit: per pair Ry(2a) on emitter, CNOT(E->A), X on emitter;
    then H on the system and one CZ(system, ancilla) per pair."""
    if p.scenario is not Scenario.FULL:
        raise ValueError("params are not for the full scenario")
    if abs(p.theta - math.pi) > THETA_PI_ATOL:
        raise ValueError("circuit construction requires theta = pi (non-entangling collisions)")
    return _collision_circuit(t, p)


def build_condensed_circuit(t: float, p: ScmParams) -> Circuit:
    """Condensed circuit: Ry(2a) on each pair qubit, H on the system, then CZs."""
    if p.scenario is not Scenario.CONDENSED:
        raise ValueError("params are not for the condensed scenario")
    return _collision_circuit(t, p)


def _collision_circuit(t: float, p: ScmParams) -> Circuit:
    """Per unit Ry(2a) on its first qubit, and for an (emitter, ancilla) pair
    CNOT(E->A) then X on the emitter; then H on the system and one
    CZ(system, last qubit) per unit."""
    alpha = prep_angle(t, p)
    gates = []
    for unit in p.units:
        gates.append(Gate(GateKind.RY, unit[:1], 2 * alpha))
        if len(unit) == 2:
            gates += [Gate(GateKind.CNOT, unit), Gate(GateKind.X, unit[:1])]
    gates.append(Gate(GateKind.H, p.system))
    gates += [Gate(GateKind.CZ, (*p.system, unit[-1])) for unit in p.units]
    return Circuit(p.num_qubits, tuple(gates))


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary by gate composition, a float64 matrix because
    every gate kind is real; dense-matrix guard at 6 qubits."""
    if c.num_qubits > UNITARY_MAX_QUBITS:
        raise ValueError(f"unitary_of supports at most {UNITARY_MAX_QUBITS} qubits")
    n = c.num_qubits
    u = np.eye(2**n).reshape(-1)
    for g in c.gates:
        apply_matrix(u, g.matrix(), g.qubits, 2 * n)
    return u.reshape(2**n, 2**n)


def circuit_to_text(c: Circuit) -> str:
    """One gate per line: `KIND q0 [q1] [angle]`."""
    lines = []
    for g in c.gates:
        parts = [g.kind.value] + [str(q) for q in g.qubits]
        if g.angle is not None:
            parts.append(repr(g.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str, num_qubits: int | None = None) -> Circuit:
    gates = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            kind = GateKind(parts[0].upper())
        except ValueError:
            raise ValueError(f"line {lineno}: unknown gate kind {parts[0]!r}") from None
        arity = GATE_ARITY[kind]
        expected = 1 + arity + (1 if kind is GateKind.RY else 0)
        if len(parts) != expected:
            raise ValueError(f"line {lineno}: expected {expected} fields, got {len(parts)}")
        qubits = tuple(int(tok) for tok in parts[1 : 1 + arity])
        angle = float(parts[1 + arity]) if kind is GateKind.RY else None
        try:
            gates.append(Gate(kind, qubits, angle))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if num_qubits is None:
        num_qubits = 1 + max((q for g in gates for q in g.qubits), default=-1)
    return Circuit(num_qubits, tuple(gates))
