"""States, channels and information primitives over an ordered qubit register.

Register order (fixed, big-endian): qubit 0 is the most-significant bit.
The basis index of |b0 b1 ... b_{n-1}> is sum_q b_q * 2**(n-1-q), i.e.
``amplitudes.reshape([2]*n)[b0, b1, ...]``.  Bitstrings are written left to
right as qubit 0 to qubit n-1.  All embedding, partial-trace and measurement
code in the package derives from this single order.

A density matrix reshaped to ``[2]*(2n)`` has row bits on axes ``0..n-1`` and
column bits on axes ``n..2n-1``; axis ``q`` / ``n+q`` belongs to qubit q.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .kernels import apply_matrix

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9  # floating-point eigenvalues of a valid state can dip just below 0
EIG_CUTOFF = 1e-12  # 0*log(0) guard
CHANNEL_ATOL = 1e-10

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over 2**num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(f"expected 2**{self.num_qubits} amplitudes, got shape {amps.shape}")
        _check_finite(amps, "amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amps) -> PureState:
        amps = np.asarray(amps, dtype=complex)
        n = int(round(math.log2(amps.size)))
        return cls(n, amps)

    @classmethod
    def zero(cls, num_qubits: int) -> PureState:
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerance) matrix over the register.

    `spectrum` holds the ascending eigenvalues that the PSD check computed,
    read-only, so that entropies of the whole state need no second
    eigendecomposition."""

    num_qubits: int
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = 2**self.num_qubits
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        _check_finite(mat, "matrix")
        dev = np.max(np.abs(mat - mat.conj().T))
        if dev > HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev}")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        spectrum = np.linalg.eigvalsh(mat)
        if spectrum[0] < -PSD_ATOL:
            raise ValueError(f"matrix has eigenvalue {spectrum[0]} below -{PSD_ATOL}")
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> DensityMatrix:
        dim = 2**num_qubits
        return cls(num_qubits, np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class KrausChannel:
    """Set of Kraus operators K_i with sum K_i^dag K_i = I."""

    operators: tuple

    def __post_init__(self):
        ops = [np.ascontiguousarray(k, dtype=complex) for k in self.operators]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(k.shape != (dim, dim) for k in ops):
            raise ValueError("Kraus operators must be square and of equal dimension")
        for k in ops:
            _check_finite(k, "Kraus operator")
        complete = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(complete - np.eye(dim)))
        if dev > CHANNEL_ATOL:
            raise ValueError(f"channel is not trace preserving: sum K^dag K deviates by {dev}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _check_finite(arr: np.ndarray, what: str) -> None:
    """Refuse NaN or infinite entries: the constructors' tolerance checks
    would let NaN through, since every comparison with NaN is False."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")


def _check_probability(value: float, name: str) -> None:
    """Refuse a rate outside [0, 1]; written so that NaN fails the test too."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def depolarizing_channel(p: float, num_qubits: int = 1) -> KrausChannel:
    """rho -> (1-p) rho + p I/2^k on k qubits, as a Pauli Kraus set; qubit 0's
    Pauli varies fastest along the operator list."""
    _check_probability(p, "depolarizing probability")
    d2 = 4**num_qubits
    ops = [reduce(np.kron, ps[::-1]) for ps in itertools.product(PAULIS.values(), repeat=num_qubits)]
    weights = [1.0 - p + p / d2] + [p / d2] * (d2 - 1)
    return KrausChannel(tuple(math.sqrt(w) * op for w, op in zip(weights, ops)))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    _check_probability(gamma, "damping probability")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1))


def apply_channel(rho: DensityMatrix, ch: KrausChannel, targets: list[int]) -> DensityMatrix:
    """Apply the channel embedded on `targets`: rho' = sum_i (K_i x I) rho (K_i^dag x I)."""
    n = rho.num_qubits
    targets = list(targets)
    if len(set(targets)) != len(targets) or any(not 0 <= q < n for q in targets):
        raise ValueError(f"targets {targets} must be distinct and in range 0..{n - 1}")
    if ch.dim != 2 ** len(targets):
        raise ValueError(f"operator dim {ch.dim} does not match 2^{len(targets)} targets")
    flat = rho.matrix.reshape(-1).copy()
    axes = tuple(targets) + tuple(n + q for q in targets)
    apply_matrix(flat, _superop(ch.operators), axes, 2 * n)
    return DensityMatrix(n, flat.reshape(2**n, 2**n))


def _superop(ops) -> np.ndarray:
    """sum_i K_i x conj(K_i): the map rho -> sum_i K_i rho K_i^dag as one
    matrix on the channel qubits' row axes followed by their column axes."""
    return sum(np.kron(k, k.conj()) for k in ops)


def partial_trace(state: PureState | DensityMatrix, keep: list[int]) -> DensityMatrix:
    """Reduced density matrix on `keep`, ordered by ascending register index."""
    n = state.num_qubits
    keep = sorted(keep)
    if not keep:
        raise ValueError("keep list must be non-empty")
    if len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise ValueError(f"keep {keep} must be distinct and in range 0..{n - 1}")
    return DensityMatrix(len(keep), _reduce(state, keep))


def _reduce(state: PureState | DensityMatrix, keep) -> np.ndarray:
    """Reduced matrix on `keep` of a validated state, as a bare array. `keep`
    must be sorted, distinct and in range: nothing here checks it or the result."""
    n = state.num_qubits
    keep = list(keep)
    dk = 2 ** len(keep)
    if isinstance(state, PureState):
        rest = [q for q in range(n) if q not in keep]
        psi = np.transpose(state.amplitudes.reshape([2] * n), keep + rest).reshape(dk, -1)
        return psi @ psi.conj().T
    subs = list(range(n)) + [n + q if q in keep else q for q in range(n)]
    out_subs = keep + [n + q for q in keep]
    return np.einsum(state.matrix.reshape([2] * (2 * n)), subs, out_subs).reshape(dk, dk)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum eig*log2(eig) over eigenvalues above the cutoff, in bits, read
    from the spectrum `rho` was validated with."""
    return _spectrum_entropy(rho.spectrum)


def _entropy(mat: np.ndarray) -> float:
    """von_neumann_entropy of a bare Hermitian matrix."""
    return _spectrum_entropy(np.linalg.eigvalsh(mat))


def _spectrum_entropy(eigs: np.ndarray) -> float:
    eigs = eigs[eigs > EIG_CUTOFF]
    return float(-np.sum(eigs * np.log(eigs)) / math.log(2))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2, clipped to [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    w, v = np.linalg.eigh(a.matrix)
    sqrt_a = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(sqrt_a @ b.matrix @ sqrt_a)
    f = float(np.sum(np.sqrt(np.clip(inner, 0, None))) ** 2)
    return min(max(f, 0.0), 1.0)

