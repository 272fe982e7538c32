"""State tomography from complete Pauli measurement sets: linear inversion
projected onto the density matrices (Smolin, Gambetta and Smith, PRL 108,
070502, 2012), and maximum likelihood by accelerated projected gradient
(Shang, Zhang and Ng, PRA 95, 062336, 2017) that stops on the concavity
certificate LL* - LL(rho) <= lambda_max(R(rho)) - 1, R(rho) = sum_k (f_k / p_k)
Pi_k (Glancy, Knill and Girard, NJP 14, 095017, 2012).
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, _check_integer, _read_only
from .simulator import _PAULI_SET_ROTATIONS, MeasRecord, _pair_axes, pauli_settings

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
_PROB_FLOOR = 1e-300
_RATIO_CAP = 1e12
# The step floor ends backtracking that rounding in eigh would keep going;
# the cap keeps the step finite where every step is accepted (at an optimum).
_MIN_STEP = 1e-12
_MAX_STEP = 1e6


# _PROJECTORS[2b + o] = Pi_{b,o} for b in X, Y, Z: rotation row 2b + o is the bra.
_PROJECTORS = _read_only(_PAULI_SET_ROTATIONS.conj()[:, :, None] * _PAULI_SET_ROTATIONS[:, None, :])
# On one qubit's (row, column) pair p = 2r + c: frame[p, k] = Pi_k[r, c]; the
# dual frame 3 Pi_k - I inverts frequencies weighted 1/3 per basis.
_FRAMES = {
    "frame": _PROJECTORS.reshape(6, 4).T,
    "dual": _read_only((3 * _PROJECTORS - np.eye(2)).reshape(6, 4).T),
}


@functools.lru_cache(maxsize=None)
def _frame_power(name: str, m: int) -> np.ndarray:
    """The frame `name` on m qubits: out[(r, c), k] = prod_q frame[2 r_q + c_q, k_q],
    rows ordered by the m row bits then the m column bits, columns by k;
    read-only, as every caller shares the cached array."""
    power = functools.reduce(np.kron, [_FRAMES[name]] * m, np.ones((1, 1)))
    order = [*range(0, 2 * m, 2), *range(1, 2 * m, 2), 2 * m]
    return _read_only(power.reshape([2] * (2 * m) + [6**m]).transpose(order).reshape(4**m, 6**m))


def _halves(name: str, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """n // 2, and the frame `name` on the first n // 2 qubits and on the rest:
    on n qubits the frame is their Kronecker product, so it acts on a
    coefficient matrix C as two matmuls, (A x B) vec(C) = vec(A C B^T)."""
    h = n // 2
    return h, _frame_power(name, h), _frame_power(name, n - h)


def _pauli_order(settings, num_qubits: int) -> list[int]:
    """Indices that put `settings` in `pauli_settings` order; raises unless each
    of those appears exactly once (no angle basis or other arity matches a label)."""
    labels = [s.label() for s in settings]
    if sorted(labels) != [s.label() for s in pauli_settings(num_qubits)]:
        raise ValueError(f"settings must be each of the {3**num_qubits} Pauli settings on {num_qubits} qubits, once")
    return sorted(range(len(labels)), key=labels.__getitem__)


def _frequency_tensor(settings, frequencies, num_qubits: int) -> np.ndarray:
    """f[k_0, ..., k_{n-1}] with k_q = 2 b_q + o_q, weighted 1/3^n per setting
    so that the whole tensor sums to 1; each frequency vector, indexed by
    bitstring value, must be a distribution."""
    order = _pauli_order(settings, num_qubits)
    if len(frequencies) != len(order):
        raise ValueError("one frequency vector per setting is required")
    f = np.array([frequencies[i] for i in order], dtype=float)
    if f.shape[1:] != (2**num_qubits,):
        raise ValueError(f"frequency vectors must have length {2**num_qubits}")
    if f.min() < 0 or np.abs(f.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("frequencies must be distributions over outcomes")
    return _pair_axes((f / len(order)).reshape([3] * num_qubits + [2] * num_qubits), num_qubits)


def _operator(name: str, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] (Pi_{k_0} x ... x Pi_{k_{n-1}}) with each Pi_k read
    from frame `name`, as a 2^n x 2^n matrix."""
    n = coeffs.ndim
    h, a, b = _halves(name, n)
    t = a @ coeffs.reshape(6**h, -1) @ b.T
    return t.reshape(2**h, 2**h, 2 ** (n - h), 2 ** (n - h)).transpose(0, 2, 1, 3).reshape(2**n, 2**n)


def _probabilities(rho: np.ndarray, num_qubits: int) -> np.ndarray:
    """p[k] = tr(rho (Pi_{k_0} x ... x Pi_{k_{n-1}})) = sum_{r, c} conj(rho[r, c]) Pi_k[r, c],
    as rho and Pi_k are Hermitian."""
    h, a, b = _halves("frame", num_qubits)
    rest = 2 ** (num_qubits - h)
    pairs = rho.conj().reshape(2**h, rest, 2**h, rest).transpose(0, 2, 1, 3).reshape(4**h, rest * rest)
    return (a.T @ pairs @ b).real.reshape([6] * num_qubits)


def _project(mat: np.ndarray) -> np.ndarray:
    """The density matrix nearest a Hermitian `mat` in Frobenius norm: its
    eigenvalues projected onto the probability simplex."""
    vals, vecs = np.linalg.eigh(mat)
    desc = vals[::-1]
    excess = (np.cumsum(desc) - 1.0) / np.arange(1, len(desc) + 1)
    shift = excess[desc > excess][-1]
    return (vecs * np.maximum(vals - shift, 0.0)) @ vecs.conj().T


def _check_stopping(tol, max_iters) -> tuple[float, int]:
    """The MLE's stopping rule as it runs, refused before any work unless
    `tol` is a finite number of at least 0 (never a bool) and `max_iters`
    an integer of at least 1."""
    number = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (number and 0.0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite number of at least 0, got {tol!r}")
    return float(tol), _check_integer(max_iters, "max_iters", 1)


@dataclass(frozen=True)
class TomographyJob:
    """A complete Pauli measurement set for one register."""

    num_qubits: int
    records: tuple[MeasRecord, ...]
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _check_integer(self.num_qubits, "num_qubits", 1))
        tol, max_iters = _check_stopping(self.tol, self.max_iters)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iters", max_iters)
        object.__setattr__(self, "records", tuple(self.records))
        _pauli_order([r.setting for r in self.records], self.num_qubits)
        if len({r.shots for r in self.records}) > 1:
            raise ValueError("all records must use the same shot count")

    @property
    def shots(self) -> int:
        return self.records[0].shots


@dataclass(frozen=True)
class MleResult:
    """`stop_reason` is "tol" (`ll_gap_bound`, the certified gap to the maximum
    log-likelihood, fell to tol), "max_iters" (budget spent) or "stalled" (no ascent
    above the step floor). `log_likelihoods`: the start, then one per iteration, never falling."""

    state: DensityMatrix
    stop_reason: str
    log_likelihoods: tuple[float, ...]
    ll_gap_bound: float

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


def _log_likelihood(weights: np.ndarray, probs: np.ndarray) -> float:
    """sum_k f_k log p_k over the observed outcomes: their frequencies
    `weights` and probabilities `probs`."""
    return float(np.sum(weights * np.log(np.maximum(probs, _PROB_FLOOR))))


def _gradient(freqs: np.ndarray, observed: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """R = sum_k (f_k / p_k) Pi_k over the `observed` (f_k > 0) outcomes, each
    ratio capped at _RATIO_CAP."""
    capped = np.maximum(probs, freqs / _RATIO_CAP)
    return _operator("frame", np.divide(freqs, capped, out=np.zeros_like(freqs), where=observed))


def _mle(freqs: np.ndarray, tol: float, max_iters: int):
    """The state, stop reason, log-likelihoods and certified gap of an
    accelerated projected-gradient ascent from the projected inversion."""
    n = freqs.ndim
    observed = freqs > 0
    weights = freqs[observed]
    rho = _project(_operator("dual", freqs))
    probs = _probabilities(rho, n)
    history = [_log_likelihood(weights, probs[observed])]
    # the momentum point; a restart puts it back on the last accepted iterate
    point, point_probs, momentum, step = rho, probs, 1.0, 1.0
    while True:
        bound = float(np.linalg.eigvalsh(_gradient(freqs, observed, probs))[-1]) - 1.0
        if bound <= tol or len(history) > max_iters:
            return rho, "tol" if bound <= tol else "max_iters", history, bound
        point_ll = _log_likelihood(weights, point_probs[observed])
        grad = _gradient(freqs, observed, point_probs)
        while True:
            cand = _project(point + step * grad)
            diff = cand - point
            cand_probs = _probabilities(cand, n)
            cand_ll = _log_likelihood(weights, cand_probs[observed])
            if cand_ll >= point_ll + np.vdot(grad, diff).real - np.vdot(diff, diff).real / (2 * step):
                break
            step /= 2
            if step < _MIN_STEP:
                return rho, "stalled", history, bound
        if cand_ll < history[-1]:
            history.append(history[-1])
            point, point_probs, momentum = rho, probs, 1.0
            continue
        next_momentum = (1 + math.sqrt(1 + 4 * momentum**2)) / 2
        beta = (momentum - 1) / next_momentum
        point, point_probs = cand + beta * (cand - rho), cand_probs + beta * (cand_probs - probs)
        rho, probs, momentum = cand, cand_probs, next_momentum
        history.append(cand_ll)
        step = min(2 * step, _MAX_STEP)


def mle_reconstruct_from_frequencies(
    num_qubits: int,
    settings,
    frequencies,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MleResult:
    """MLE from exact (or empirical) outcome distributions, one per setting of
    a complete Pauli set in any order (see `_frequency_tensor`)."""
    tol, max_iters = _check_stopping(tol, max_iters)
    freqs = _frequency_tensor(settings, frequencies, num_qubits)
    rho, stop_reason, history, bound = _mle(freqs, tol, max_iters)
    return MleResult(DensityMatrix(num_qubits, _read_only(rho)), stop_reason, tuple(history), bound)


def mle_reconstruct(job: TomographyJob) -> MleResult:
    """MLE from a complete Pauli measurement job."""
    settings = [r.setting for r in job.records]
    frequencies = [r.frequencies() for r in job.records]
    return mle_reconstruct_from_frequencies(job.num_qubits, settings, frequencies, job.tol, job.max_iters)


def qubit_tomography(records) -> DensityMatrix:
    """Single-qubit state from one X, one Y and one Z record: the projected
    linear inversion."""
    records = list(records)
    freqs = _frequency_tensor([r.setting for r in records], [r.frequencies() for r in records], 1)
    return DensityMatrix(1, _read_only(_project(_operator("dual", freqs))))


def save_state_text(matrix, path) -> None:
    """Plain-text matrix dump: one row per line, `re im` pairs, row-major."""
    mat = matrix.matrix if isinstance(matrix, DensityMatrix) else np.asarray(matrix)
    lines = []
    for row in mat:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_state_text(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(tok) for tok in line.split()]
            if len(vals) % 2:
                raise ValueError("expected re/im pairs")
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    mat = np.array(rows, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("state dump is not a square matrix")
    return mat


def _json_text(obj) -> str:
    """The one JSON file layout: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_tomography_job(job: TomographyJob, dirpath) -> None:
    """Job directory: records/setting_<label>.json plus manifest.json. The
    directory holds one job: a record file of an earlier job that this one
    does not name is removed."""
    records = os.path.join(dirpath, "records")
    os.makedirs(records, exist_ok=True)
    names = {f"setting_{r.setting.label()}.json": r for r in job.records}
    for name in os.listdir(records):
        if name.startswith("setting_") and name.endswith(".json") and name not in names:
            os.remove(os.path.join(records, name))
    for name, r in names.items():
        with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
            fh.write(_json_text(r.to_json_obj()))
    manifest = {
        "num_qubits": job.num_qubits,
        "shots": job.shots,
        "tol": job.tol,
        "max_iters": job.max_iters,
        "records": sorted(os.path.join("records", name) for name in names),
    }
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))


def load_tomography_job(dirpath) -> TomographyJob:
    with open(os.path.join(dirpath, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    records = []
    for rel in manifest["records"]:
        with open(os.path.join(dirpath, rel), "r", encoding="utf-8") as fh:
            records.append(MeasRecord.from_json_obj(json.load(fh)))
    return TomographyJob(
        num_qubits=manifest["num_qubits"],
        records=tuple(records),
        tol=manifest["tol"],
        max_iters=manifest["max_iters"],
    )
