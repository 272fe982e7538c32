"""Circuit execution: exact statevector runs, noisy density-matrix runs,
measurement-basis rotation and seeded shot sampling.

Measurement settings always cover every qubit of the state they are applied
to; reduce with `partial_trace` first to measure a subsystem.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .circuit import _FIXED_MATRICES, _SQRT2_INV, Circuit, GateKind
from .kernels import apply_matrix
from .qstate import (
    PAULIS,
    _CUTOFF,
    DensityMatrix,
    PureState,
    _check_probability,
    _read_only,
    _superop,
    amplitude_damping_channel,
    depolarizing_channel,
)

STATEVECTOR_MAX_QUBITS = 16
DENSITY_MAX_QUBITS = 10

_PAULI_BASIS = _read_only(np.stack([PAULIS[m] for m in "IXYZ"]))
# _PAULI_TRACE[mu, 2a + b] = sigma_mu[b, a]: one qubit's tr(rho sigma_mu) from its (row, column) pair
_PAULI_TRACE = _read_only(_PAULI_BASIS.transpose(0, 2, 1).reshape(4, 4))

# `MeasSetting.rotations` hands out these arrays themselves
_PAULI_ROTATIONS = {
    "Z": _read_only(np.eye(2, dtype=complex)),
    "X": _FIXED_MATRICES[GateKind.H],
    "Y": _read_only(np.array([[1, -1j], [1, 1j]], dtype=complex) * _SQRT2_INV),
}
# The bases of a complete Pauli measurement set, in the order in which
# `pauli_settings` runs through each qubit's basis.
_PAULI_SET = "XYZ"


def basis_rotation(phi, xi) -> np.ndarray:
    """Rotation into the basis |0'> = cos(phi/2)|0> + e^{i xi} sin(phi/2)|1>,
    |1'> = sin(phi/2)|0> - e^{i xi} cos(phi/2)|1> (rows are the new bras).

    Angles broadcast: arrays of phi and xi give one 2x2 per broadcast
    element, on the last two axes; scalars give a single 2x2."""
    half = np.asarray(phi, dtype=float) / 2
    ph = np.exp(-1j * np.asarray(xi, dtype=float))
    c, s = np.cos(half), np.sin(half)
    u = np.empty(np.broadcast_shapes(half.shape, ph.shape) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1] = c, ph * s
    u[..., 1, 0], u[..., 1, 1] = s, -ph * c
    return u


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
    def computational(cls, num_qubits: int) -> "MeasSetting":
        return cls(("Z",) * num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.bases)

    @property
    def is_pauli(self) -> bool:
        return all(isinstance(b, str) for b in self.bases)

    def rotations(self) -> list[np.ndarray]:
        """Each qubit's rotation into its measurement basis, in qubit order."""
        return [_PAULI_ROTATIONS[b] if isinstance(b, str) else basis_rotation(*b) for b in self.bases]

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
    """Shot counts for one setting, bitstrings reading qubit 0 on the left.
    `seed` seeded the call that drew it: a Pauli set's records share one."""

    setting: MeasSetting
    counts: dict[str, int]
    shots: int
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "shots", _check_integer(self.shots, "shots", 1))
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_integer(self.seed, "seed", 0))
        total = 0
        for bits, c in self.counts.items():
            if len(bits) != self.setting.num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad bitstring {bits!r}")
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
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
            # as read, so that the constructor sees a bool or a float and refuses it
            counts={str(k): v for k, v in obj["counts"].items()},
            shots=obj["shots"],
            seed=obj.get("seed"),
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
            _check_probability(getattr(self, name), name)

    @property
    def is_mixing(self) -> bool:
        """Whether gate noise can leave the state mixed, so that runs need a
        density matrix; readout flips act only on sampled records."""
        return self.depol_1q > 0.0 or self.depol_2q > 0.0 or self.amp_damp_gamma > 0.0


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

    Each gate is one superoperator on its qubits' row and column axes (the
    gate, then its depolarizing, then its damping) and costs one kernel
    sweep. Channels on disjoint qubits commute, so a qubit the gate leaves
    alone only owes one idle step. A qubit owing k steps gets S_idle^k
    folded in at the start of its next gate, and the steps it owes after
    its last gate are folded in at the end of that gate; a qubit no gate
    touches takes all of them in one sweep of its own.

    The state is a product of factors, each a density matrix over a sorted
    tuple of qubits. Every qubit starts as its own |0><0| factor, a gate
    whose qubits sit in two factors first merges them into one, and the
    gate's sweep covers that factor only. The factors left at the end are
    merged in qubit order.

    Every gate kind and both noise channels have real superoperators, so
    the state is float64 and every sweep is real. A superoperator with a
    nonzero imaginary part is refused with a ValueError."""
    if c.num_qubits > DENSITY_MAX_QUBITS:
        raise ValueError(f"density runs support at most {DENSITY_MAX_QUBITS} qubits")
    n = c.num_qubits
    noise = noise or NoiseModel()
    gate_noise = {
        1: _noise_superop(noise.depol_1q, noise.amp_damp_gamma, 1),
        2: _noise_superop(noise.depol_2q, noise.amp_damp_gamma, 2),
    }
    idle = gate_noise[1] if noise.idle_noise else None
    last = {q: i for i, g in enumerate(c.gates) for q in g.qubits}
    # qubit -> the factor (qubits, flattened density matrix) that holds it
    factors = {q: ((q,), np.array([1.0, 0.0, 0.0, 0.0])) for q in range(n)}
    paid = [0] * n  # qubit q owes one idle step per gate from gate paid[q] on
    for i, g in enumerate(c.gates):
        sup = _gate_superop(g, gate_noise)
        if idle is not None:
            tail = [len(c.gates) - 1 - i if last[q] == i else 0 for q in g.qubits]
            sup = _idle_power(idle, tail) @ sup @ _idle_power(idle, [i - paid[q] for q in g.qubits])
            for q in g.qubits:
                paid[q] = i + 1
        if factors[g.qubits[0]] is not factors[g.qubits[-1]]:
            merged = _product([factors[q] for q in g.qubits])
            factors.update(dict.fromkeys(merged[0], merged))
        held, rho = factors[g.qubits[0]]
        pos = [held.index(q) for q in g.qubits]
        apply_matrix(rho, sup, tuple(ax for p in pos for ax in (p, len(held) + p)), 2 * len(held))
    if idle is not None:
        for q in [q for q in range(n) if q not in last]:
            apply_matrix(factors[q][1], _idle_power(idle, [len(c.gates)]), (0, 1), 2)
    _, rho = _product([f for q, f in factors.items() if f[0][0] == q])
    return DensityMatrix(n, rho.reshape(2**n, 2**n))


def _product(factors) -> tuple[tuple[int, ...], np.ndarray]:
    """The tensor product of density-matrix factors on disjoint qubits, as one
    factor over their qubits in ascending order, written once; a single
    factor is returned as it is."""
    if len(factors) == 1:
        return factors[0]
    qubits = tuple(sorted(q for held, _ in factors for q in held))
    k = len(qubits)
    operands = []
    for held, rho in factors:
        pos = [qubits.index(q) for q in held]
        operands += [rho.reshape([2] * (2 * len(held))), pos + [k + i for i in pos]]
    return qubits, np.einsum(*operands, list(range(2 * k)), order="C").reshape(-1)


def _gate_superop(g, gate_noise) -> np.ndarray:
    """Gate `g`, then its noise, as one superoperator on the gate's qubits,
    each qubit's (row, column) axis pair adjacent, in gate order."""
    sup = _real(_superop((g.matrix(),)), f"{g.kind.value} gate")
    after = gate_noise[len(g.qubits)]
    if after is not None:
        sup = after @ sup
    if len(g.qubits) == 1:
        return sup
    # (row g0, row g1, column g0, column g1) -> (row g0, column g0, row g1, column g1)
    return sup.reshape([2] * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def _idle_power(idle: np.ndarray, steps) -> np.ndarray:
    """steps[j] idle steps on the j-th of some qubits, as one superoperator
    with each qubit's (row, column) axis pair adjacent."""
    return reduce(np.kron, [np.linalg.matrix_power(idle, k) for k in steps])


@lru_cache(maxsize=None)
def _noise_superop(p: float, gamma: float, k: int) -> np.ndarray | None:
    """Superoperator of k-qubit depolarizing at `p`, then amplitude damping at
    `gamma` on each of the k qubits, as a read-only real matrix; None when
    both are zero. Built once per (p, gamma, k): every density run with the
    same noise shares it."""
    sup = None
    if p > 0:
        sup = _superop(depolarizing_channel(p, k).operators)
    if gamma > 0:
        # damping channels on different qubits commute: one set of tensor products
        damp = amplitude_damping_channel(gamma).operators
        damp_k = _superop([reduce(np.kron, ks) for ks in itertools.product(damp, repeat=k)])
        sup = damp_k if sup is None else damp_k @ sup
    return None if sup is None else _read_only(_real(sup, "noise channel"))


def _real(sup: np.ndarray, what: str) -> np.ndarray:
    """The real part of a superoperator whose imaginary part is exactly zero.
    Kraus operators such as Pauli Y are complex even where the map they make
    is real; a map that is not real is refused."""
    if np.any(sup.imag != 0.0):
        raise ValueError(f"{what} superoperator is not real: density runs are float64")
    return np.ascontiguousarray(sup.real)


def _local_apply(mats, t: np.ndarray) -> np.ndarray:
    """out[o_0, ..., o_{m-1}, ...] = sum_a prod_i mats[i][o_i, a_i] t[a_0, ..., a_{m-1}, ...]:
    matrix i acts on leading axis i of `t`, and the result keeps the axis order."""
    m = len(mats)
    for mat in reversed(mats):  # each pass contracts the last untouched leading axis, in front
        t = np.tensordot(mat, t, axes=([1], [m - 1]))
    return t


def _bloch_rows(rotations) -> np.ndarray:
    """v[..., o, mu] = Re(u[o] sigma_mu u[o]^dag) for rotations u[..., o, :]
    (rows are the new bras): outcome o projects onto sum_mu v[o, mu] sigma_mu / 2."""
    u = np.asarray(rotations)
    return np.einsum("...oa,mab,...ob->...om", u, _PAULI_BASIS, u.conj()).real


def _pair_axes(t: np.ndarray, k: int) -> np.ndarray:
    """Axes q and k + q of a 2k-axis `t` merged into axis q, in that order:
    a matrix reshaped to [2] * 2k gets one (row bit, column bit) axis per qubit."""
    order = [ax for q in range(k) for ax in (q, k + q)]
    return t.transpose(order).reshape([t.shape[q] * t.shape[k + q] for q in range(k)])


def _pauli_expansion(mat: np.ndarray, k: int) -> np.ndarray:
    """T[mu_0, ..., mu_{k-1}] = tr(rho sigma_mu_0 x ... x sigma_mu_{k-1})."""
    return _local_apply([_PAULI_TRACE] * k, _pair_axes(mat.reshape([2] * (2 * k)), k)).real


def born_distribution(state, setting: MeasSetting) -> np.ndarray:
    """Exact outcome probabilities of `state` measured in `setting`, indexed
    by bitstring value (qubit 0 = most significant bit)."""
    n = state.num_qubits
    if setting.num_qubits != n:
        raise ValueError(
            f"basis arity mismatch: setting covers {setting.num_qubits} qubits, state has {n}"
        )
    return _normalised(_local_probabilities(state, setting.rotations()).reshape(1, -1))[0]


def _local_probabilities(state, rotations) -> np.ndarray:
    """p[o_0, ..., o_{n-1}] = <o_0 ... o_{n-1}| (x_q U_q) rho (x_q U_q)^dag |o_0 ... o_{n-1}>
    for rotations U_q = rotations[q] of any number of rows (the new bras).
    A pure state's amplitudes are rotated qubit by qubit; a density matrix's
    Pauli expansion is contracted with each qubit's Bloch rows."""
    n = state.num_qubits
    if isinstance(state, PureState):
        return np.abs(_local_apply(rotations, state.amplitudes.reshape([2] * n))) ** 2
    return _local_apply(_bloch_rows(rotations), _pauli_expansion(state.matrix, n)) / 2**n


def _normalised(probs: np.ndarray) -> np.ndarray:
    """Each row of `probs` with rounding below zero clipped, scaled to sum to 1."""
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def _fold_readout_flip(probs: np.ndarray, n: int, r: float) -> np.ndarray:
    """Push independent per-bit classical flips into the distribution over
    the 2^n outcomes on the first axis of `probs`; further axes are kept."""
    flip = np.array([[1 - r, r], [r, 1 - r]])
    return _local_apply([flip] * n, probs.reshape([2] * n + list(probs.shape[1:]))).reshape(probs.shape)


def _check_integer(value, name: str, least: int) -> int:
    """`value` as an int: an integer, a numpy one included, of at least
    `least`; a bool, a float and anything else are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least == 1 else 'non-negative'}, got {value}")
    return int(value)


def _shot_probabilities(probs: np.ndarray, readout_flip: float = 0.0) -> np.ndarray:
    """Each row of `probs` (outcomes of n qubits in register order) as every
    draw takes it: per-bit flips at rate `readout_flip` folded in, then
    outcomes at or below _CUTOFF, negative rounding included, dropped
    (noise on an outcome that cannot occur would still consume random
    numbers), then scaled to sum to 1. A row comes out the same in any batch."""
    if readout_flip > 0.0:
        n = probs.shape[-1].bit_length() - 1
        # contiguous rows, so that a row sums the same way in any batch
        probs = np.ascontiguousarray(_fold_readout_flip(probs.T, n, readout_flip).T)
    p = np.where(probs > _CUTOFF, probs, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _draw(probs: np.ndarray, shots: int, rng: np.random.Generator, readout_flip: float = 0.0) -> np.ndarray:
    """Multinomial counts of `shots` over each row of `_shot_probabilities`,
    the rows drawn in order from the one generator `rng`: a row's counts
    depend on the rows drawn before it from `rng`, but not on how the rows
    are split between calls. Callers run `_check_sampling` first."""
    return rng.multinomial(shots, _shot_probabilities(probs, readout_flip))


def _check_sampling(shots, readout_flip, exact_ok: bool = False) -> int | None:
    """`shots` checked as `MeasRecord` checks it; with `exact_ok`, None (an
    exact value) is passed through. The flip rate is checked either way."""
    _check_probability(readout_flip, "readout_flip")
    return None if exact_ok and shots is None else _check_integer(shots, "shots", 1)


def sample(state, setting: MeasSetting, shots: int, seed: int, readout_flip: float = 0.0) -> MeasRecord:
    """Multinomial shot sampling with a generator seeded with `seed`: `_draw`
    of the Born distribution, with `readout_flip` folded in before drawing."""
    shots = _check_sampling(shots, readout_flip)
    draws = _draw(born_distribution(state, setting)[None], shots, np.random.default_rng(seed), readout_flip)[0]
    return _record(setting, draws, shots, seed)


def pauli_settings(num_qubits: int) -> list[MeasSetting]:
    """All 3^n products of X/Y/Z bases, in lexicographic order."""
    return [MeasSetting.pauli("".join(c)) for c in itertools.product(_PAULI_SET, repeat=num_qubits)]


def sample_pauli_set(state, shots: int, seed: int, readout_flip: float = 0.0) -> list[MeasRecord]:
    """A record per setting of `pauli_settings`, drawn in that order by one
    `_draw` from one generator seeded with `seed`, which every record stores:
    record 0 equals `sample`'s, and a later record depends on those before it.
    One contraction with all three bases of each qubit gives every row."""
    shots = _check_sampling(shots, readout_flip)
    n = state.num_qubits
    # basis b's rotation rows at 2b and 2b + 1
    rotations = np.concatenate([_PAULI_ROTATIONS[b] for b in _PAULI_SET])
    probs = _local_probabilities(state, [rotations] * n).reshape([3, 2] * n)
    probs = probs.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(3**n, 2**n)
    draws = _draw(_normalised(probs), shots, np.random.default_rng(seed), readout_flip)
    return [_record(s, d, shots, seed) for s, d in zip(pauli_settings(n), draws)]


def _record(setting: MeasSetting, draws: np.ndarray, shots: int, seed: int) -> MeasRecord:
    """The record of one drawn row, indexed by bitstring value."""
    counts = {format(i, f"0{setting.num_qubits}b"): int(c) for i, c in enumerate(draws) if c > 0}
    return MeasRecord(setting=setting, counts=counts, shots=shots, seed=seed)
