"""Circuit execution: exact statevector runs, noisy density-matrix runs,
measurement-basis rotation and seeded shot sampling.

Measurement settings always cover every qubit of the state they are applied
to; reduce with `partial_trace` first to measure a subsystem.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuit import Circuit
from .kernels import apply_matrix
from .qstate import (
    DensityMatrix,
    PureState,
    _superop,
    amplitude_damping_channel,
    depolarizing_channel,
)

STATEVECTOR_MAX_QUBITS = 16
DENSITY_MAX_QUBITS = 10

_SQRT2_INV = 1 / math.sqrt(2)
_PAULI_ROTATIONS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) * _SQRT2_INV,
}


def basis_rotation(phi: float, xi: float) -> np.ndarray:
    """Rotation into the basis |0'> = cos(phi/2)|0> + e^{i xi} sin(phi/2)|1>,
    |1'> = sin(phi/2)|0> - e^{i xi} cos(phi/2)|1> (rows are the new bras)."""
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    ph = cmath.exp(-1j * xi)
    return np.array([[c, ph * s], [s, -ph * c]], dtype=complex)


@dataclass(frozen=True)
class MeasSetting:
    """Per-qubit measurement bases: 'X'/'Y'/'Z' or an (phi, xi) angle pair."""

    bases: tuple

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.bases:
            raise ValueError("a measurement setting needs at least one qubit")
        for b in self.bases:
            if isinstance(b, str):
                if b not in _PAULI_ROTATIONS:
                    raise ValueError(f"unknown Pauli basis {b!r}")
            else:
                if len(b) != 2:
                    raise ValueError(f"angle basis must be (phi, xi), got {b!r}")
                phi, xi = b
                if not 0 <= phi <= math.pi:
                    raise ValueError("phi must lie in [0, pi]")
                if not 0 <= xi < 2 * math.pi:
                    raise ValueError("xi must lie in [0, 2*pi)")

    @classmethod
    def pauli(cls, letters: str) -> "MeasSetting":
        return cls(tuple(letters.upper()))

    @classmethod
    def angles(cls, phi: float, xi: float, num_qubits: int) -> "MeasSetting":
        return cls(((phi, xi),) * num_qubits)

    @classmethod
    def computational(cls, num_qubits: int) -> "MeasSetting":
        return cls(("Z",) * num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.bases)

    @property
    def is_pauli(self) -> bool:
        return all(isinstance(b, str) for b in self.bases)

    def rotation(self, i: int) -> np.ndarray:
        b = self.bases[i]
        if isinstance(b, str):
            return _PAULI_ROTATIONS[b]
        return basis_rotation(*b)

    def label(self) -> str:
        if self.is_pauli:
            return "".join(self.bases)
        return ";".join(f"({b[0]:.6f},{b[1]:.6f})" if not isinstance(b, str) else b for b in self.bases)

    def to_json_obj(self):
        return [b if isinstance(b, str) else [float(b[0]), float(b[1])] for b in self.bases]

    @classmethod
    def from_json_obj(cls, obj) -> "MeasSetting":
        return cls(tuple(b if isinstance(b, str) else (float(b[0]), float(b[1])) for b in obj))


@dataclass(frozen=True)
class MeasRecord:
    """Shot counts for one setting. Bitstrings read qubit 0 on the left."""

    setting: MeasSetting
    counts: dict[str, int]
    shots: int
    seed: int | None = None

    def __post_init__(self):
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        total = 0
        for bits, c in self.counts.items():
            if len(bits) != self.setting.num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad bitstring {bits!r}")
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"bad count for {bits!r}")
            total += c
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")

    def frequencies(self) -> np.ndarray:
        """Empirical outcome distribution over all 2^n bitstrings."""
        n = self.setting.num_qubits
        freq = np.zeros(2**n)
        for bits, c in self.counts.items():
            freq[int(bits, 2)] = c / self.shots
        return freq

    def to_json_obj(self) -> dict:
        return {
            "setting": self.setting.to_json_obj(),
            "shots": self.shots,
            "seed": self.seed,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MeasRecord":
        return cls(
            setting=MeasSetting.from_json_obj(obj["setting"]),
            counts={str(k): int(v) for k, v in obj["counts"].items()},
            shots=int(obj["shots"]),
            seed=None if obj.get("seed") is None else int(obj["seed"]),
        )


@dataclass(frozen=True)
class NoiseModel:
    depol_1q: float = 0.0
    depol_2q: float = 0.0
    amp_damp_gamma: float = 0.0
    readout_flip: float = 0.0
    idle_noise: bool = False

    def __post_init__(self):
        for name in ("depol_1q", "depol_2q", "amp_damp_gamma", "readout_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def is_trivial(self) -> bool:
        return (
            self.depol_1q == 0.0
            and self.depol_2q == 0.0
            and self.amp_damp_gamma == 0.0
            and self.readout_flip == 0.0
        )

    @classmethod
    def placeholder(cls) -> "NoiseModel":
        """Mild default strengths for qualitative noise studies."""
        return cls(depol_1q=0.001, depol_2q=0.01, readout_flip=0.02)


def run_statevector(c: Circuit) -> PureState:
    if c.num_qubits > STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"statevector runs support at most {STATEVECTOR_MAX_QUBITS} qubits")
    psi = np.zeros(2**c.num_qubits, dtype=complex)
    psi[0] = 1.0
    for g in c.gates:
        apply_matrix(psi, g.matrix(), g.qubits, c.num_qubits)
    return PureState(c.num_qubits, psi)


def run_density(c: Circuit, noise: NoiseModel | None = None) -> DensityMatrix:
    """Evolve |0..0><0..0| through the circuit, interleaving noise channels
    after each gate: depolarizing on the gate qubits, then amplitude damping,
    then (optionally) single-qubit noise on every idle qubit.

    Each gate and its noise are one superoperator on the gate qubits' row
    and column axes, so a gate costs one kernel sweep, and idle noise one
    sweep per idle qubit."""
    if c.num_qubits > DENSITY_MAX_QUBITS:
        raise ValueError(f"density runs support at most {DENSITY_MAX_QUBITS} qubits")
    n = c.num_qubits
    rho = np.zeros(4**n, dtype=complex)
    rho[0] = 1.0
    noise = noise or NoiseModel()
    gate_noise = {
        1: _noise_superop(noise.depol_1q, noise.amp_damp_gamma, 1),
        2: _noise_superop(noise.depol_2q, noise.amp_damp_gamma, 2),
    }
    idle = gate_noise[1] if noise.idle_noise else None
    for g in c.gates:
        sup = _superop((g.matrix(),))
        after = gate_noise[len(g.qubits)]
        if after is not None:
            sup = after @ sup
        apply_matrix(rho, sup, g.qubits + tuple(n + q for q in g.qubits), 2 * n)
        if idle is not None:
            for q in range(n):
                if q not in g.qubits:
                    apply_matrix(rho, idle, (q, n + q), 2 * n)
    return DensityMatrix(n, rho.reshape(2**n, 2**n))


def _noise_superop(p: float, gamma: float, k: int) -> np.ndarray | None:
    """Superoperator of k-qubit depolarizing at `p`, then amplitude damping at
    `gamma` on each of the k qubits; None when both are zero."""
    sup = None
    if p > 0:
        sup = _superop(depolarizing_channel(p, k).operators)
    if gamma > 0:
        # damping channels on different qubits commute: one set of tensor products
        damp = amplitude_damping_channel(gamma).operators
        damp_k = _superop([reduce(np.kron, ks) for ks in itertools.product(damp, repeat=k)])
        sup = damp_k if sup is None else damp_k @ sup
    return sup


def born_distribution(state, setting: MeasSetting) -> np.ndarray:
    """Exact outcome probabilities of `state` measured in `setting`, indexed
    by bitstring value (qubit 0 = most significant bit)."""
    n = state.num_qubits
    if setting.num_qubits != n:
        raise ValueError(
            f"basis arity mismatch: setting covers {setting.num_qubits} qubits, state has {n}"
        )
    if isinstance(state, PureState):
        psi = state.amplitudes.copy()
        for q in range(n):
            apply_matrix(psi, setting.rotation(q), (q,), n)
        probs = np.abs(psi) ** 2
    else:
        rho = state.matrix.reshape(-1).copy()
        for q in range(n):
            r = setting.rotation(q)
            apply_matrix(rho, r, (q,), 2 * n)
            apply_matrix(rho, r.conj(), (n + q,), 2 * n)
        probs = np.real(np.diag(rho.reshape(2**n, 2**n))).copy()
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _fold_readout_flip(probs: np.ndarray, n: int, r: float) -> np.ndarray:
    """Push independent per-bit classical flips into the distribution."""
    t = probs.reshape([2] * n)
    for q in range(n):
        t = (1 - r) * t + r * np.flip(t, axis=q)
    return t.reshape(-1)


def sample(state, setting: MeasSetting, shots: int, seed: int, readout_flip: float = 0.0) -> MeasRecord:
    """Multinomial shot sampling with a seeded generator; `readout_flip` is
    folded into the outcome distribution before drawing."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = born_distribution(state, setting)
    if readout_flip > 0.0:
        probs = _fold_readout_flip(probs, state.num_qubits, readout_flip)
        probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    n = state.num_qubits
    counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}
    return MeasRecord(setting=setting, counts=counts, shots=shots, seed=seed)
