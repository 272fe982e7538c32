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
CHANNEL_ATOL = 1e-10
_BLOCK_MIN_ROWS = 128  # smallest matrix that `_eigvalsh` splits into blocks
# Eigenvalues and outcome probabilities at or below this are rounding noise,
# dropped by every entropy and draw; at small t real eigenvalues are 1e-12.
_CUTOFF = 1e-15


def _read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, made read-only: module constants and cached arrays are shared
    by every caller, so a caller's write would reach all the others."""
    arr.setflags(write=False)
    return arr


PAULIS = {
    "I": _read_only(np.eye(2, dtype=complex)),
    "X": _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def _state_array(data) -> np.ndarray:
    """`data` as a C-contiguous array, float64 when it is real and complex128
    otherwise: the dtype rule of both state classes. The state makes it
    read-only, so a writable array that already has that layout is copied
    and a read-only one, handed over by its maker, is kept as it is."""
    arr = np.ascontiguousarray(data, dtype=float if np.isrealobj(data) else complex)
    return arr.copy() if arr is data and arr.flags.writeable else arr


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over 2**num_qubits basis states. A real
    input is kept as float64, anything else as complex128 (`_state_array`):
    statevector runs are real, so are their reductions and entropies. A
    writable input array is copied, a read-only one kept."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _state_array(self.amplitudes)
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
        return cls(int(round(math.log2(np.size(amps)))), amps)

    @classmethod
    def zero(cls, num_qubits: int) -> PureState:
        amps = np.zeros(2**num_qubits)
        amps[0] = 1.0
        return cls(num_qubits, _read_only(amps))

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.num_qubits, _read_only(np.outer(self.amplitudes, self.amplitudes.conj())))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerance) matrix over the register.

    A real input is kept as a float64 matrix, anything else as complex128
    (`_state_array`); a writable input array is copied, a read-only one
    kept. Noisy density runs are real symmetric, so their checks, partial
    traces and entropies run on real arrays, where LAPACK's real symmetric
    eigensolver does about a quarter of the complex one's arithmetic.

    `spectrum` holds the ascending eigenvalues that the PSD check computed,
    read-only, so that entropies of the whole state need no second
    eigendecomposition."""

    num_qubits: int
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = 2**self.num_qubits
        mat = _state_array(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        _check_finite(mat, "matrix")
        # 64 rows against 64 columns at a time: the transposed operand of a
        # whole 512-row matrix misses the cache on every read (4.2 ms, in
        # strips 1.4 ms); the largest deviation is the same either way
        dev = max(np.max(np.abs(mat[i : i + 64] - mat[:, i : i + 64].conj().T)) for i in range(0, dim, 64))
        if dev > HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev}")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        spectrum = _eigvalsh(mat)
        if spectrum[0] < -PSD_ATOL:
            raise ValueError(f"matrix has eigenvalue {spectrum[0]} below -{PSD_ATOL}")
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> DensityMatrix:
        dim = 2**num_qubits
        return cls(num_qubits, _read_only(np.eye(dim) / dim))


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


def _check_qubits(qubits, num_qubits: int, what: str) -> list[int]:
    """`qubits` as a list, refused if it is empty, repeats a qubit or names one
    outside the register: the reductions would fail later, inside numpy."""
    qubits = list(qubits)
    if not qubits or len(set(qubits)) != len(qubits) or any(not 0 <= q < num_qubits for q in qubits):
        raise ValueError(f"{what} {qubits} must be non-empty, distinct and in range 0..{num_qubits - 1}")
    return qubits


def _check_integer(value, name: str, least: int) -> int:
    """`value` as an int: an integer, a numpy one included, of at least
    `least`; a bool, a float and anything else are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least == 1 else 'non-negative'}, got {value}")
    return int(value)


def _check_probability(value: float, name: str) -> None:
    """Refuse a bool and a rate outside [0, 1]; written so that NaN fails the
    test too."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
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
    """Apply the channel embedded on `targets`: rho' = sum_i (K_i x I) rho (K_i^dag x I).
    The result is complex, as Kraus operators are."""
    n = rho.num_qubits
    targets = _check_qubits(targets, n, "targets")
    if ch.dim != 2 ** len(targets):
        raise ValueError(f"operator dim {ch.dim} does not match 2^{len(targets)} targets")
    flat = rho.matrix.reshape(-1).astype(complex)
    axes = tuple(targets) + tuple(n + q for q in targets)
    apply_matrix(flat, _superop(ch.operators), axes, 2 * n)
    return DensityMatrix(n, _read_only(flat.reshape(2**n, 2**n)))


def _superop(ops) -> np.ndarray:
    """sum_i K_i x conj(K_i): the map rho -> sum_i K_i rho K_i^dag as one
    matrix on the channel qubits' row axes followed by their column axes."""
    return sum(np.kron(k, k.conj()) for k in ops)


def partial_trace(state: PureState | DensityMatrix, keep: list[int]) -> DensityMatrix:
    """Reduced density matrix on `keep`, ordered by ascending register index."""
    keep = _check_qubits(sorted(keep), state.num_qubits, "keep")
    return DensityMatrix(len(keep), _read_only(_reduce(state, keep)))


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
    return _spectrum_entropy(_eigvalsh(mat))


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, solved block by block
    over the connected components of its exact nonzero pattern.

    Noisy density runs and their reductions split into many small blocks:
    the full n=4 state at t_max (512 rows, 2% of entries nonzero) has 81 of
    at most 32 rows. Blocks of equal size go to LAPACK as one stacked call.
    A matrix whose first row has no zero is one block, and so is any matrix
    below _BLOCK_MIN_ROWS rows: either goes to LAPACK as it is.

    The components come from min-label propagation over the nonzero
    entries, each row its own neighbour, with pointer jumping: every row
    ends labelled with the smallest row of its component. The sweeps grow
    with a component's diameter; noisy density matrices take two.

    The cutoff was measured on the matrices the benchmark workloads
    diagonalise (2 vCPUs, one BLAS thread, numpy 2.4.6; block path time
    over dense `eigvalsh` time): 32 rows 1.35-2.07, 64 rows 0.37-1.06,
    128 rows 0.26-0.28, 256 rows 0.11-0.12, 512 rows 0.05-0.06 (15-16 ms
    dense, 0.7-0.95 ms blocked). At 64 rows the noisy full n=4 fraction
    reduction only breaks even, and a block solve moves eigenvalues in
    their last bits, so 64-row matrices stay dense."""
    n = len(mat)
    if n < _BLOCK_MIN_ROWS or (mat[0] != 0).all():
        return np.linalg.eigvalsh(mat)
    pattern = mat != 0
    np.fill_diagonal(pattern, True)  # a row with no nonzero entry labels itself
    flat = np.flatnonzero(pattern)
    cols = flat % n
    starts = np.searchsorted(flat, np.arange(0, n * n, n))
    labels = np.arange(n)
    while True:
        hooked = np.minimum.reduceat(labels[cols], starts)
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    counts = np.bincount(labels, minlength=n)  # component sizes, at their smallest rows
    parts = []
    for size in sorted(set(counts[counts > 0].tolist())):
        # rows by mask rather than `argsort`, and an in-place stable sort
        # below: the code of `argsort` and of the default float sort, loaded
        # on first use, raised a noisy run's peak RSS by 0.3 MB
        roots = np.flatnonzero(counts == size)
        idx = np.flatnonzero(labels == roots[:, None]).reshape(-1, size) % n
        parts.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).reshape(-1))
    spectrum = np.concatenate(parts)
    spectrum.sort(kind="stable")
    return spectrum


def _entropies(probs: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, dropping p <= _CUTOFF."""
    logs = np.log(probs, where=probs > _CUTOFF, out=np.zeros_like(probs))
    return -np.sum(np.multiply(logs, probs, out=logs), axis=-1)


def _spectrum_entropy(eigs: np.ndarray) -> float:
    """`_entropies` of the eigenvalues above the cutoff, in bits. They are
    picked out before the sum: zero terms would regroup numpy's pairwise
    sum and move its last bits."""
    return float(_entropies(eigs[eigs > _CUTOFF]) / math.log(2))


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

