"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Every test computes its metric from scratch (no frozen intermediate state)
and prints a single machine-readable summary line before asserting.
"""
import json
import math
import time

import numpy as np

from dlab import (
    CouplingMap,
    Scenario,
    SchemeMode,
    ScmParams,
    TomographyJob,
    averaged_qmi,
    blp_witness,
    build_condensed_circuit,
    build_full_circuit,
    builtin_coupling_map,
    canonical_times,
    cmi_grid,
    coherence_finite,
    coherence_markovian,
    fidelity,
    holevo_bound,
    ideal_global_state,
    mle_reconstruct,
    mle_reconstruct_from_frequencies,
    partition_scheme,
    pauli_cmi_scan,
    pauli_settings,
    peephole_zero_swap,
    qmi,
    route,
    routed_statevector_equivalent,
    routed_unitary_equivalent,
    run_statevector,
    sample,
    system_coherence,
)
from dlab.cli import main as cli_main
from dlab.simulator import born_distribution
from dlab.qstate import PureState

T_MAX, T_CLOSE, T_REC = canonical_times()
COND6 = ScmParams(theta=math.pi, lam=1.0, n=6)
FULL3 = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)


def verdict(name: str, detail: str, ok: bool) -> None:
    print(f"criterion {name}: {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_01_coherence_oracle_match():
    start = time.perf_counter()
    times = np.linspace(0.0, math.log(6), 31)
    worst = 0.0
    for p, build in ((COND6, build_condensed_circuit), (FULL3, build_full_circuit)):
        for t in times:
            simulated = system_coherence(run_statevector(build(t, p)))
            oracle = (2 * math.exp(-t) - 1) ** p.n
            worst = max(worst, abs(simulated - oracle))
    elapsed = time.perf_counter() - start
    verdict(
        "01 coherence-oracle-match",
        f"max deviation {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (cap 10s)",
        worst < 1e-10 and elapsed < 10.0,
    )


def test_criterion_02_non_markovianity():
    times = np.linspace(0.0, math.log(6), 31)
    finite = blp_witness([(t, coherence_finite(t, COND6)) for t in times])
    markov = blp_witness([(t, coherence_markovian(t, COND6)) for t in times])
    verdict(
        "02 non-markovianity",
        f"finite-n witness {finite:.6f} (> 0.05), markovian witness {markov!r} (== 0)",
        finite > 0.05 and markov == 0.0,
    )


def test_criterion_03_darwinism_plateau():
    psi = ideal_global_state(T_MAX, COND6)
    scheme = partition_scheme(COND6, SchemeMode.PER_PAIR)
    curve = averaged_qmi(psi, (0,), scheme)
    plateau_dev = max(abs(v - 1.0) for f, v, _ in curve.points if f <= 5)
    full_dev = abs(curve.points[-1][1] - 2.0)
    worst_se = max(se for _, _, se in curve.points)
    verdict(
        "03 darwinism-plateau",
        f"plateau dev {plateau_dev:.3e}, f=6 dev {full_dev:.3e} (tol 1e-6), "
        f"max stderr {worst_se:.3e} (tol 1e-9)",
        plateau_dev < 1e-6 and full_dev < 1e-6 and worst_se < 1e-9,
    )


def test_criterion_04_partition_dependence():
    start = time.perf_counter()
    psi = ideal_global_state(T_MAX, FULL3)
    pair = averaged_qmi(psi, (0,), partition_scheme(FULL3, SchemeMode.PER_PAIR)).values()
    anc = averaged_qmi(psi, (0,), partition_scheme(FULL3, SchemeMode.ANCILLAE_ONLY)).values()
    per_q = averaged_qmi(psi, (0,), partition_scheme(FULL3, SchemeMode.PER_QUBIT)).values()
    pair_ok = all(abs(v - 1.0) < 1e-6 for v in pair[:2])
    anc_ok = all(abs(v) < 1e-9 for v in anc[:2])
    at_one = [abs(v - 1.0) < 0.01 for v in per_q]
    no_plateau = not any(a and b for a, b in zip(at_one, at_one[1:]))
    elapsed = time.perf_counter() - start
    verdict(
        "04 partition-dependence",
        f"per-pair {pair}, ancillae-only head {anc[:2]}, per-qubit {per_q}, "
        f"runtime {elapsed:.2f}s (cap 30s)",
        pair_ok and anc_ok and no_plateau and elapsed < 30.0,
    )


def test_criterion_05_cmi_peak():
    peaks = []
    argmax_ok = True
    peak_dev = None
    for k in (1, 2, 3, 4):
        psi = ideal_global_state(k * T_MAX, COND6)
        grid = cmi_grid(psi, (0,), (1,))
        phi, xi, peak = grid.argmax()
        peaks.append(peak)
        if k == 1:
            phi_cell = math.pi / 60
            xi_cell = 2 * math.pi / 61
            xi_dist = min(xi, 2 * math.pi - xi)
            argmax_ok = abs(phi - math.pi / 2) <= phi_cell + 1e-12 and xi_dist <= xi_cell + 1e-12
            peak_dev = abs(peak - 1.0)
    decreasing = all(a > b for a, b in zip(peaks, peaks[1:]))
    verdict(
        "05 cmi-peak",
        f"argmax within one cell of (pi/2, 0): {argmax_ok}, peak dev {peak_dev:.3e} "
        f"(tol 1e-6), peaks {[round(v, 6) for v in peaks]} strictly decreasing: {decreasing}",
        argmax_ok and peak_dev < 1e-6 and decreasing,
    )


def _compare_columns(psi, scheme, size):
    qs, chis, cms = [], [], []
    for frac in scheme.fractions(size):
        qs.append(qmi(psi, (0,), frac))
        chis.append(holevo_bound(psi, (0,), frac))
        cms.append(cmi_grid(psi, (0,), frac).max_value)
    return float(np.mean(qs)), float(np.mean(chis)), float(np.mean(cms))


def test_criterion_06_information_ordering():
    scheme = partition_scheme(FULL3, SchemeMode.PER_PAIR)
    rec = ideal_global_state(T_REC, FULL3)
    ordered = True
    gaps = None
    for size in (1, 2, 3):
        q, chi, cm = _compare_columns(rec, scheme, size)
        ordered = ordered and cm <= chi + 1e-9 and chi <= q + 1e-9
        if size == 1:
            gaps = (chi - cm, q - chi)
    # at t_max the three agree on every proper fraction; the full environment
    # doubles the QMI by purity, so it is excluded from the agreement check
    peak = ideal_global_state(T_MAX, FULL3)
    agree_dev = 0.0
    for size in (1, 2):
        q, chi, cm = _compare_columns(peak, scheme, size)
        agree_dev = max(agree_dev, abs(q - chi), abs(chi - cm))
    verdict(
        "06 information-ordering",
        f"t_rec ordering CMI<=chi<=QMI: {ordered}, size-1 gaps {tuple(round(g, 4) for g in gaps)} "
        f"(> 0.01), t_max proper-fraction spread {agree_dev:.3e} (tol 1e-6)",
        ordered and gaps[0] > 0.01 and gaps[1] > 0.01 and agree_dev < 1e-6,
    )


def test_criterion_07_non_local_encoding():
    psi = ideal_global_state(T_MAX, FULL3)
    singles = pauli_cmi_scan(psi, (0,), 1, partition_scheme(FULL3, SchemeMode.PER_QUBIT))
    doubles = pauli_cmi_scan(psi, (0,), 2, partition_scheme(FULL3, SchemeMode.PER_PAIR))
    max1 = max(e.value for e in singles)
    max2 = max(e.value for e in doubles)
    verdict(
        "07 non-local-encoding",
        f"size-1 max {max1:.3e} (tol 1e-10), size-2 max {max2:.4f} (> 0.4)",
        max1 < 1e-10 and max2 > 0.4,
    )


def test_criterion_08_tomography():
    start = time.perf_counter()
    exact_cases = [
        run_statevector(build_condensed_circuit(T_MAX, ScmParams(theta=math.pi, lam=1.0, n=1))),
        run_statevector(build_condensed_circuit(T_MAX, ScmParams(theta=math.pi, lam=1.0, n=2))),
        run_statevector(
            build_full_circuit(T_MAX, ScmParams(theta=math.pi, lam=1.0, n=1, scenario=Scenario.FULL))
        ),
        PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2)),
        PureState.zero(2),
    ]
    worst_exact = 1.0
    monotone = True
    for psi in exact_cases:
        settings = pauli_settings(psi.num_qubits)
        freqs = [born_distribution(psi, s) for s in settings]
        res = mle_reconstruct_from_frequencies(psi.num_qubits, settings, freqs)
        worst_exact = min(worst_exact, fidelity(res.state, psi.density_matrix()))
        diffs = np.diff(np.asarray(res.log_likelihoods))
        monotone = monotone and bool(np.all(diffs >= -1e-9))
    cond3 = ScmParams(theta=math.pi, lam=1.0, n=3)
    target = run_statevector(build_condensed_circuit(T_MAX, cond3))
    settings = pauli_settings(4)
    records = tuple(
        sample(target, s, shots=4096, seed=1000 + j) for j, s in enumerate(settings)
    )
    res = mle_reconstruct(TomographyJob(4, records))
    sampled_fid = fidelity(res.state, target.density_matrix())
    diffs = np.diff(np.asarray(res.log_likelihoods))
    monotone = monotone and bool(np.all(diffs >= -1e-9))
    elapsed = time.perf_counter() - start
    verdict(
        "08 tomography",
        f"exact worst fidelity {worst_exact:.8f} (>= 1-1e-5), 4q sampled fidelity "
        f"{sampled_fid:.6f} (>= 0.99), log-likelihood monotone: {monotone}, "
        f"runtime {elapsed:.2f}s (cap 120s)",
        worst_exact >= 1 - 1e-5 and sampled_fid >= 0.99 and monotone and elapsed < 120.0,
    )


def test_criterion_09_routing_soundness():
    t7 = builtin_coupling_map("t7")
    full_c = build_full_circuit(T_MAX, FULL3)
    rc_full = route(full_c, t7)
    pp = peephole_zero_swap(rc_full)
    full_sv = routed_statevector_equivalent(rc_full, full_c)
    full_sv_pp = routed_statevector_equivalent(pp, full_c)
    strict = pp.cnot_count < rc_full.cnot_count
    cond_c = build_condensed_circuit(T_MAX, COND6)
    rc_cond = route(cond_c, t7)
    cond_sv = routed_statevector_equivalent(rc_cond, cond_c)
    sub_map = CouplingMap(5, frozenset({(0, 1), (1, 2), (1, 3), (3, 4)}))
    sub_full = build_full_circuit(T_MAX, ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL))
    sub_cond = build_condensed_circuit(T_MAX, ScmParams(theta=math.pi, lam=1.0, n=4))
    unitary_ok = all(routed_unitary_equivalent(route(c, sub_map), c) for c in (sub_full, sub_cond))
    verdict(
        "09 routing-soundness",
        f"7q statevector equivalence full/condensed/peephole: {full_sv}/{cond_sv}/{full_sv_pp}, "
        f"5q subcircuit unitary equivalence: {unitary_ok}, peephole CNOTs "
        f"{rc_full.cnot_count} -> {pp.cnot_count} strictly fewer: {strict}",
        full_sv and cond_sv and full_sv_pp and unitary_ok and strict,
    )


def _run_and_snapshot(cfg_path, out_dir):
    assert cli_main(["coherence", "--config", str(cfg_path)]) == 0
    files = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            files[str(p.relative_to(out_dir))] = p.read_bytes()
    return files


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "scenario": "condensed",
        "n": 2,
        "times": [0.0, T_MAX, T_REC],
        "shots": 1024,
        "seed": 3,
        "outputs": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    first = _run_and_snapshot(cfg_path, out)
    second = _run_and_snapshot(cfg_path, out)
    tomo_cfg = dict(cfg, times=["t_max"], n=1, shots=512, outputs=str(tmp_path / "tout"))
    tomo_path = tmp_path / "tomo.json"
    tomo_path.write_text(json.dumps(tomo_cfg))
    assert cli_main(["tomo", "--config", str(tomo_path)]) == 0
    tomo_first = {
        str(p.relative_to(tmp_path / "tout")): p.read_bytes()
        for p in sorted((tmp_path / "tout").rglob("*"))
        if p.is_file()
    }
    assert cli_main(["tomo", "--config", str(tomo_path)]) == 0
    tomo_second = {
        str(p.relative_to(tmp_path / "tout")): p.read_bytes()
        for p in sorted((tmp_path / "tout").rglob("*"))
        if p.is_file()
    }
    coherence_ok = first == second
    tomo_ok = tomo_first == tomo_second
    verdict(
        "10 determinism",
        f"coherence rerun byte-identical ({len(first)} files): {coherence_ok}, "
        f"tomo rerun byte-identical ({len(tomo_first)} files): {tomo_ok}",
        coherence_ok and tomo_ok,
    )
