"""Correctness gate for one experiment's output directory.

Seed-independent numbers are compared with a reference recorded at a
trusted commit (`reference.json`), within a relative tolerance loose enough for
ulp-level moves from reordered arithmetic. Sampled numbers change with the
workload seed, so they are checked against oracles instead: exact values
recorded beside the reference, physical constraints and statistical bounds.
"""
from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-10
ORACLE_TOL = 1e-12  # simulated coherence vs coherence_finite
ORDER_TOL = 1e-9  # cmi_max <= holevo <= qmi
PLATEAU_TOL = 1e-9
STATE_TOL = 1e-9  # Hermiticity, trace and PSD of the reconstructed state
# Plug-in MI of one grid cell vs the exact Born value; the worst cell over
# 40 seeds (100 at smoke size) moved by 0.06 bits.
CMI_CELL_TOL = 0.15
COHERENCE_SIGMAS = 6.0
FIDELITY_FLOOR = 0.9  # reconstruction vs the noisy state that was sampled


def read_csv(path: str) -> tuple[list[str], list[list[float]], dict[str, str]]:
    """Header, numeric rows and `# key: value` comments of a dlab CSV."""
    header: list[str] = []
    rows: list[list[float]] = []
    comments: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                comments[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, rows, comments


def _mi_files(outdir: str) -> list[str]:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(outdir, "mi_*.csv")))


def _cmi_files(outdir: str) -> list[str]:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(outdir, "cmi_*.csv")))


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def deterministic_numbers(command: str, outdir: str) -> dict[str, list[float]]:
    """Numbers of the output that do not depend on the workload seed."""
    if command == "compare":
        return {"compare.csv": [v for row in read_csv(os.path.join(outdir, "compare.csv"))[1] for v in row]}
    if command == "darwinism":
        return {
            name: [v for row in read_csv(os.path.join(outdir, name))[1] for v in row]
            for name in _mi_files(outdir)
        }
    if command == "coherence":
        rows = read_csv(os.path.join(outdir, "coherence.csv"))[1]
        return {"coherence.csv": [v for row in rows for v in row[:3]]}  # time, analytic, simulated
    if command == "cmi":
        return {}  # sampled grids: checked against the exact grid instead
    if command == "route":
        rep = _load_json(os.path.join(outdir, "route_report.json"))
        return {
            "route_report.json": [
                rep["num_logical"],
                rep["num_physical"],
                rep["swap_count"],
                rep["cnot_count"],
                rep["peephole"]["swap_count"],
                rep["peephole"]["cnot_count"],
                *(rep["placement"][k] for k in sorted(rep["placement"], key=int)),
            ]
        }
    if command == "tomo":
        rep = _load_json(os.path.join(outdir, "tomo_report.json"))
        return {"tomo_report.json": [rep["time"], rep["num_qubits"]]}
    raise ValueError(f"unknown command {command!r}")


def _compare_numbers(name: str, got: list[float], want: list[float], problems: list[str]) -> None:
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} numbers, reference has {len(want)}")
        return
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= REL_TOL * max(abs(g), abs(w)) + ABS_TOL:
            problems.append(f"{name}[{i}] = {g!r}, reference {w!r}")
            return


def _check_compare(rows, problems):
    for t, size, q, chi, cmi in rows:
        if not (cmi <= chi + ORDER_TOL and chi <= q + ORDER_TOL):
            problems.append(f"compare t={t!r} size={int(size)}: cmi {cmi!r} <= holevo {chi!r} <= qmi {q!r} fails")


def _check_cmi_sampled(outdir, oracle, problems):
    exact = oracle["exact_grid"]
    if _cmi_files(outdir) != sorted(exact):
        problems.append(f"cmi files {_cmi_files(outdir)} differ from the oracle's {sorted(exact)}")
        return
    for name, want in exact.items():
        _, rows, comments = read_csv(os.path.join(outdir, name))
        got = np.array([row[2] for row in rows])
        if got.shape != (len(want),) or not np.all(np.isfinite(got)):
            problems.append(f"{name}: {got.size} finite cells expected {len(want)}")
            continue
        dev = float(np.max(np.abs(got - np.array(want))))
        if dev > CMI_CELL_TOL or got.min() < -ORDER_TOL:
            problems.append(f"{name}: sampled grid is {dev:.3g} bits from the exact grid")
        peak = float(comments.get("argmax", "nan,nan,nan").split(",")[2])
        if peak != got.max():
            problems.append(f"{name}: argmax footer {peak!r} is not the grid maximum {got.max()!r}")


def _check_darwinism(config, outdir, problems):
    noisy = "noise" in config
    for name in _mi_files(outdir):
        values = [row[1] for row in read_csv(os.path.join(outdir, name))[1]]
        if any(not -PLATEAU_TOL <= v <= 2 + PLATEAU_TOL for v in values):
            problems.append(f"{name}: mutual information outside [0, 2]: {values}")
    if noisy != any(name.endswith("_noisy.csv") for name in _mi_files(outdir)):
        problems.append("noisy curves present exactly when the config has noise")
    if config["scenario"] == "condensed" and config["times"] == "t_max":
        values = [row[1] for row in read_csv(os.path.join(outdir, "mi_t00_ideal.csv"))[1]]
        want = [1.0] * (config["n"] - 1) + [2.0]
        if len(values) != len(want) or any(abs(v - w) > PLATEAU_TOL for v, w in zip(values, want)):
            problems.append(f"condensed plateau at t_max is {values}, expected {want}")


def _check_coherence(config, outdir, problems):
    shots = config.get("shots", 4096)
    for t, analytic, simulated, sampled, _ in read_csv(os.path.join(outdir, "coherence.csv"))[1]:
        if abs(analytic - simulated) > ORACLE_TOL:
            problems.append(f"coherence t={t!r}: simulated {simulated!r} vs coherence_finite {analytic!r}")
        sigma = math.sqrt(max(0.0, 1.0 - simulated**2) / shots)
        # PSD projection of the one-qubit estimate can shrink it by O(1/shots)
        if abs(sampled - simulated) > COHERENCE_SIGMAS * sigma + 20.0 / shots:
            problems.append(f"coherence t={t!r}: sampled {sampled!r} is {COHERENCE_SIGMAS} sigma off {simulated!r}")


def _check_route(outdir, problems):
    rep = _load_json(os.path.join(outdir, "route_report.json"))
    if rep["equivalent_statevector"] is not True or rep["equivalent_statevector_peephole"] is not True:
        problems.append("routed circuit is not statevector-equivalent to the original")
    if rep["equivalent_unitary"] is False:
        problems.append("routed circuit is not unitary-equivalent to the original")


def _read_state(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            vals = [float(v) for v in line.split()]
            if vals:
                rows.append([complex(re, im) for re, im in zip(vals[::2], vals[1::2])])
    return np.array(rows)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ b @ root)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)


def _check_tomo(config, outdir, oracle, problems):
    rep = _load_json(os.path.join(outdir, "tomo_report.json"))
    if rep["log_likelihood_monotone"] is not True:
        problems.append("MLE log-likelihood is not monotone")
    if not 1 <= rep["iterations"] <= config.get("max_iters", 5000):
        problems.append(f"MLE ran {rep['iterations']} iterations")
    rho = _read_state(os.path.join(outdir, "state.txt"))
    if rho.shape != (2 ** rep["num_qubits"],) * 2:
        problems.append(f"reconstructed state has shape {rho.shape}")
        return
    if (
        np.max(np.abs(rho - rho.conj().T)) > STATE_TOL
        or abs(np.trace(rho).real - 1.0) > STATE_TOL
        or np.linalg.eigvalsh(rho)[0] < -STATE_TOL
    ):
        problems.append("reconstructed state is not a density matrix")
    noisy = np.array(oracle["noisy_state_re"]) + 1j * np.array(oracle["noisy_state_im"])
    fid = _fidelity(rho, noisy)
    if not fid >= FIDELITY_FLOOR:
        problems.append(f"fidelity {fid!r} to the sampled noisy state is below {FIDELITY_FLOOR}")
    records = glob.glob(os.path.join(outdir, "job", "records", "setting_*.json"))
    if len(records) != 3 ** rep["num_qubits"]:
        problems.append(f"{len(records)} measurement records, expected {3 ** rep['num_qubits']}")
    for path in records:
        rec = _load_json(path)
        if sum(rec["counts"].values()) != config.get("shots", 4096):
            problems.append(f"{os.path.basename(path)}: counts do not sum to the shot count")


def check(command: str, config: dict, outdir: str, reference: dict) -> list[str]:
    """Problems found in one experiment's outputs; empty when it passes."""
    problems: list[str] = []
    manifest = _load_json(os.path.join(outdir, "manifest.json"))
    missing = [a for a in manifest["artifacts"] if not os.path.exists(os.path.join(outdir, a))]
    if manifest["command"] != command or missing:
        problems.append(f"manifest names command {manifest['command']!r}, missing artifacts {missing}")
    got = deterministic_numbers(command, outdir)
    want = reference["numbers"]
    if sorted(got) != sorted(want):
        problems.append(f"output files {sorted(got)} differ from the reference's {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        _compare_numbers(name, got[name], want[name], problems)
    if command == "compare":
        _check_compare(read_csv(os.path.join(outdir, "compare.csv"))[1], problems)
    elif command == "cmi":
        _check_cmi_sampled(outdir, reference["oracle"], problems)
    elif command == "darwinism":
        _check_darwinism(config, outdir, problems)
    elif command == "coherence":
        _check_coherence(config, outdir, problems)
    elif command == "route":
        _check_route(outdir, problems)
    elif command == "tomo":
        _check_tomo(config, outdir, reference["oracle"], problems)
    return problems
