"""Maximum-likelihood state tomography with diluted fixed-point iteration.

The update rho <- N[(I + eps R) rho (I + eps R)] with
R = sum_j (f_j / p_j) Pi_j never decreases the log-likelihood for small
enough eps; the dilution parameter is halved adaptively whenever numerics
say otherwise.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qstate import DensityMatrix, PAULIS
from .simulator import MeasRecord, MeasSetting

DEFAULT_DILUTION = 0.1
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
_MIN_DILUTION = 1e-8
_MAX_DILUTION = 1e6
_PROB_FLOOR = 1e-300
_RATIO_CAP = 1e12


def pauli_settings(num_qubits: int) -> list[MeasSetting]:
    """All 3^n products of X/Y/Z bases, in lexicographic order."""
    return [MeasSetting.pauli("".join(c)) for c in itertools.product("XYZ", repeat=num_qubits)]


def setting_unitary(setting: MeasSetting) -> np.ndarray:
    return reduce(np.kron, (setting.rotation(i) for i in range(setting.num_qubits)))


@dataclass(frozen=True)
class TomographyJob:
    """A complete Pauli measurement set for one register."""

    num_qubits: int
    records: tuple[MeasRecord, ...]
    dilution: float = DEFAULT_DILUTION
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not 0 < self.dilution <= 1:
            raise ValueError("dilution must lie in (0, 1]")
        labels = []
        shots = set()
        for r in self.records:
            if not r.setting.is_pauli:
                raise ValueError("tomography records must use Pauli settings")
            if r.setting.num_qubits != self.num_qubits:
                raise ValueError("record arity does not match the job register")
            labels.append(r.setting.label())
            shots.add(r.shots)
        expected = {"".join(c) for c in itertools.product("XYZ", repeat=self.num_qubits)}
        if sorted(labels) != sorted(expected):
            raise ValueError(
                f"records must cover each of the {len(expected)} Pauli settings exactly once"
            )
        if len(shots) > 1:
            raise ValueError("all records must use the same shot count")

    @property
    def shots(self) -> int:
        return self.records[0].shots


@dataclass(frozen=True)
class MleResult:
    """`stop_reason`: "tol" (the step fell below tol), "max_iters" (budget
    spent) or "stalled" (no ascending step at any dilution above the floor)."""

    state: DensityMatrix
    iterations: int
    stop_reason: str
    log_likelihoods: tuple[float, ...]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


def _log_likelihood(freqs: np.ndarray, probs: np.ndarray) -> float:
    mask = freqs > 0
    return float(np.sum(freqs[mask] * np.log(np.maximum(probs[mask], _PROB_FLOOR))))


def _trace_distance_raw(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _mle_core(num_qubits, vectors, freqs, dilution, tol, max_iters):
    dim = 2**num_qubits
    rho = np.eye(dim, dtype=complex) / dim
    eye = np.eye(dim, dtype=complex)
    eps = dilution
    vectors_c = vectors.conj()
    # Born probabilities <v_j|rho|v_j> as one matmul and a row sum
    probs = ((vectors_c @ rho) * vectors).sum(axis=1).real
    history = [_log_likelihood(freqs, probs)]
    iterations = 0
    mask = freqs > 0
    while iterations < max_iters:
        iterations += 1
        weights = np.zeros_like(freqs)
        weights[mask] = freqs[mask] / np.maximum(probs[mask], freqs[mask] / _RATIO_CAP)
        r_op = (weights[:, None] * vectors).T @ vectors_c
        # trust-region dilution: shrink eps until the step ascends, regrow after
        while True:
            gain = eye + eps * r_op
            cand = gain @ rho @ gain.conj().T
            cand = (cand + cand.conj().T) / 2
            cand /= np.trace(cand).real
            cand_probs = ((vectors_c @ cand) * vectors).sum(axis=1).real
            ll = _log_likelihood(freqs, cand_probs)
            if ll >= history[-1] - 1e-12:
                break
            eps /= 2
            if eps < _MIN_DILUTION:
                # no ascending step left at any dilution: a stall, not convergence
                return rho, iterations, "stalled", tuple(history)
        step = _trace_distance_raw(cand, rho)
        rho = cand
        probs = cand_probs
        history.append(ll)
        if step < tol:
            return rho, iterations, "tol", tuple(history)
        eps = min(eps * 2, _MAX_DILUTION)
    return rho, iterations, "max_iters", tuple(history)


def mle_reconstruct_from_frequencies(
    num_qubits: int,
    settings,
    frequencies,
    dilution: float = DEFAULT_DILUTION,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MleResult:
    """MLE from exact (or empirical) outcome distributions, one per setting.

    Each frequency vector is indexed by bitstring value and must sum to 1;
    the uniform setting weight 1/S is folded in here.
    """
    settings = list(settings)
    if len(settings) != len(frequencies):
        raise ValueError("one frequency vector per setting is required")
    dim = 2**num_qubits
    blocks_v, blocks_f = [], []
    for setting, freq in zip(settings, frequencies):
        if setting.num_qubits != num_qubits:
            raise ValueError("setting arity does not match the register")
        freq = np.asarray(freq, dtype=float)
        if freq.shape != (dim,):
            raise ValueError(f"frequency vector must have length {dim}")
        if abs(freq.sum() - 1.0) > 1e-9 or np.any(freq < 0):
            raise ValueError("frequencies must be a distribution over outcomes")
        blocks_v.append(setting_unitary(setting).conj())
        blocks_f.append(freq / len(settings))
    vectors = np.concatenate(blocks_v, axis=0)
    freqs = np.concatenate(blocks_f)
    rho, iters, stop_reason, history = _mle_core(
        num_qubits, vectors, freqs, dilution, tol, max_iters
    )
    return MleResult(DensityMatrix(num_qubits, rho), iters, stop_reason, history)


def mle_reconstruct(job: TomographyJob) -> MleResult:
    """MLE from a complete Pauli measurement job."""
    settings = [r.setting for r in job.records]
    frequencies = [r.frequencies() for r in job.records]
    return mle_reconstruct_from_frequencies(
        job.num_qubits, settings, frequencies, job.dilution, job.tol, job.max_iters
    )


def _psd_project(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    return out / np.trace(out).real


def qubit_tomography_from_means(mx: float, my: float, mz: float) -> DensityMatrix:
    """Single-qubit state from the three Pauli expectation values, projected
    back onto the physical set when sampling noise pushes it outside."""
    rho = 0.5 * (PAULIS["I"] + mx * PAULIS["X"] + my * PAULIS["Y"] + mz * PAULIS["Z"])
    if np.linalg.eigvalsh(rho).min() < 0:
        rho = _psd_project(rho)
    return DensityMatrix(1, rho)


def qubit_tomography(records) -> DensityMatrix:
    """Single-qubit tomography from one X, one Y and one Z record."""
    means = {}
    for r in records:
        if r.setting.num_qubits != 1 or not r.setting.is_pauli:
            raise ValueError("expected single-qubit Pauli records")
        freq = r.frequencies()
        means[r.setting.label()] = float(freq[0] - freq[1])
    if sorted(means) != ["X", "Y", "Z"]:
        raise ValueError("expected exactly one record per X, Y, Z basis")
    return qubit_tomography_from_means(means["X"], means["Y"], means["Z"])


def coherence_from_tomo(rho: DensityMatrix) -> float:
    """Off-diagonal coherence 2 Re <0|rho|1> of a single-qubit state."""
    if rho.num_qubits != 1:
        raise ValueError("coherence readout expects a single-qubit state")
    return float(2 * rho.matrix[0, 1].real)


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


def save_tomography_job(job: TomographyJob, dirpath) -> None:
    """Job directory: records/setting_<label>.json plus manifest.json."""
    os.makedirs(os.path.join(dirpath, "records"), exist_ok=True)
    rel_paths = []
    for r in job.records:
        rel = os.path.join("records", f"setting_{r.setting.label()}.json")
        rel_paths.append(rel)
        with open(os.path.join(dirpath, rel), "w", encoding="utf-8") as fh:
            json.dump(r.to_json_obj(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    manifest = {
        "num_qubits": job.num_qubits,
        "shots": job.shots,
        "dilution": job.dilution,
        "tol": job.tol,
        "max_iters": job.max_iters,
        "records": sorted(rel_paths),
    }
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_tomography_job(dirpath) -> TomographyJob:
    with open(os.path.join(dirpath, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    records = []
    for rel in manifest["records"]:
        with open(os.path.join(dirpath, rel), "r", encoding="utf-8") as fh:
            records.append(MeasRecord.from_json_obj(json.load(fh)))
    return TomographyJob(
        num_qubits=int(manifest["num_qubits"]),
        records=tuple(records),
        dilution=float(manifest["dilution"]),
        tol=float(manifest["tol"]),
        max_iters=int(manifest["max_iters"]),
    )
