"""Tomography: the projected linear inversion, the certified MLE against the
diluted fixed-point iteration it replaced, and file round trips."""
import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from hypothesis.extra import numpy as hnp

from dlab import (
    DensityMatrix,
    MeasRecord,
    MeasSetting,
    PureState,
    ScmParams,
    TomographyJob,
    born_distribution,
    build_condensed_circuit,
    fidelity,
    load_state_text,
    load_tomography_job,
    mle_reconstruct,
    mle_reconstruct_from_frequencies,
    pauli_settings,
    qubit_tomography,
    run_statevector,
    sample,
    save_state_text,
    save_tomography_job,
)
from dlab import tomography
from dlab.qstate import PAULIS
from dlab.simulator import _local_apply, _pair_axes

PLUS = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2))
# X, Y and Z frequencies whose linear inversion has Bloch norm above 1
UNPHYSICAL = [np.array([0.9, 0.1]), np.array([0.8, 0.2]), np.array([0.7, 0.3])]


def exact_frequencies(state, settings):
    return [born_distribution(state, s) for s in settings]


def assert_monotone(history):
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs >= -1e-9)


def test_pauli_settings_enumeration():
    one = pauli_settings(1)
    assert [s.label() for s in one] == ["X", "Y", "Z"]
    two = pauli_settings(2)
    assert len(two) == 9 and two[0].label() == "XX" and two[-1].label() == "ZZ"
    assert len(pauli_settings(7)) == 3**7


def test_job_validation():
    settings = pauli_settings(1)
    psi = PLUS
    records = [sample(psi, s, shots=100, seed=i) for i, s in enumerate(settings)]
    job = TomographyJob(1, tuple(records))
    assert job.shots == 100
    with pytest.raises(ValueError):
        TomographyJob(1, tuple(records[:2]))  # Z missing
    with pytest.raises(ValueError):
        TomographyJob(1, tuple(records) + (records[0],))  # X twice
    with pytest.raises(ValueError):
        TomographyJob(1, (records[0], records[1], sample(psi, MeasSetting(((1.0, 0.0),)), 100, 3)))
    with pytest.raises(ValueError):
        TomographyJob(2, tuple(records))  # one-qubit settings on a two-qubit register
    uneven = records[:2] + [sample(psi, settings[2], shots=50, seed=9)]
    with pytest.raises(ValueError):
        TomographyJob(1, tuple(uneven))


BAD_STOPPING = [(-1.0, 10), (math.nan, 10), (math.inf, 10), (True, 10), (1e-7, 0), (1e-7, 2.5), (1e-7, True)]


@pytest.mark.parametrize("tol, max_iters", BAD_STOPPING)
def test_stopping_rule_is_refused_before_any_work(tol, max_iters, monkeypatch):
    settings = pauli_settings(1)
    records = tuple(sample(PLUS, s, shots=100, seed=i) for i, s in enumerate(settings))
    with pytest.raises(ValueError, match="tol|max_iters"):
        TomographyJob(1, records, tol=tol, max_iters=max_iters)
    freqs = exact_frequencies(PLUS, settings)

    def no_work(*args):
        raise AssertionError("the frequencies were read before the stopping rule was checked")

    monkeypatch.setattr(tomography, "_frequency_tensor", no_work)
    with pytest.raises(ValueError, match="tol|max_iters"):
        mle_reconstruct_from_frequencies(1, settings, freqs, tol=tol, max_iters=max_iters)


@pytest.mark.parametrize("key, value", [("max_iters", 2.5), ("max_iters", 0), ("tol", -1.0)])
def test_saved_stopping_rule_loads_as_written(tmp_path, key, value):
    records = tuple(sample(PLUS, s, shots=100, seed=i) for i, s in enumerate(pauli_settings(1)))
    save_tomography_job(TomographyJob(1, records, tol=1e-6, max_iters=99), tmp_path / "job")
    manifest_path = tmp_path / "job" / "manifest.json"
    manifest_path.write_text(json.dumps(dict(json.loads(manifest_path.read_text()), **{key: value})))
    with pytest.raises(ValueError, match=key):
        load_tomography_job(tmp_path / "job")


@pytest.mark.parametrize("num_qubits, n", [(2.5, 2), (True, 1)])
def test_job_refuses_a_qubit_count_that_is_no_integer(tmp_path, num_qubits, n):
    # records of int(num_qubits) qubits, so that a coercing check would pass
    state = PureState.zero(n)
    records = tuple(sample(state, s, shots=100, seed=i) for i, s in enumerate(pauli_settings(n)))
    with pytest.raises(ValueError, match="num_qubits"):
        TomographyJob(num_qubits, records)
    save_tomography_job(TomographyJob(n, records), tmp_path / "job")
    manifest_path = tmp_path / "job" / "manifest.json"
    manifest_path.write_text(json.dumps(dict(json.loads(manifest_path.read_text()), num_qubits=num_qubits)))
    with pytest.raises(ValueError, match="num_qubits"):
        load_tomography_job(tmp_path / "job")


def test_job_takes_a_numpy_qubit_count():
    records = tuple(sample(PLUS, s, shots=100, seed=i) for i, s in enumerate(pauli_settings(1)))
    assert type(TomographyJob(np.int64(1), records).num_qubits) is int


def test_mle_recovers_plus_state():
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(1, settings, exact_frequencies(PLUS, settings))
    assert fidelity(res.state, PLUS.density_matrix()) >= 1 - 1e-6
    assert res.converged and res.stop_reason == "tol"
    assert_monotone(res.log_likelihoods)


def test_mle_stall_is_not_convergence(monkeypatch):
    # after three evaluations no candidate passes the ascent test, so
    # backtracking shrinks the step below its floor: the run stops early,
    # without converging
    real = tomography._log_likelihood
    calls = []

    def undefined_after_three(freqs, probs):
        calls.append(None)
        return real(freqs, probs) if len(calls) <= 3 else math.nan

    monkeypatch.setattr(tomography, "_log_likelihood", undefined_after_three)
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(1, settings, UNPHYSICAL, tol=0.0, max_iters=100)
    assert res.converged is False and res.stop_reason == "stalled"
    assert res.iterations == 1 and res.ll_gap_bound > 0
    assert len(res.log_likelihoods) == 2
    assert_monotone(res.log_likelihoods)


def test_mle_budget_is_not_convergence():
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(1, settings, UNPHYSICAL, tol=0.0, max_iters=7)
    assert res.converged is False and res.stop_reason == "max_iters"
    assert res.iterations == 7 and len(res.log_likelihoods) == 8
    assert res.ll_gap_bound > 0


def test_mle_recovers_maximally_mixed():
    settings = pauli_settings(1)
    freqs = [np.array([0.5, 0.5])] * 3
    res = mle_reconstruct_from_frequencies(1, settings, freqs)
    assert np.max(np.abs(res.state.matrix - np.eye(2) / 2)) < 1e-6


def test_mle_exact_battery():
    # circuit states at maximal mixing plus simple product states
    cases = []
    for n in (1, 2):
        p = ScmParams(theta=math.pi, lam=1.0, n=n)
        cases.append(run_statevector(build_condensed_circuit(math.log(2), p)))
    cases.append(PLUS)
    cases.append(PureState.zero(2))
    for psi in cases:
        settings = pauli_settings(psi.num_qubits)
        res = mle_reconstruct_from_frequencies(
            psi.num_qubits, settings, exact_frequencies(psi, settings)
        )
        fid = fidelity(res.state, psi.density_matrix())
        assert fid >= 1 - 1e-5, f"fidelity {fid} too low for {psi.num_qubits}q state"
        assert_monotone(res.log_likelihoods)


def test_mle_sampled_three_qubits():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    psi = run_statevector(build_condensed_circuit(math.log(2), p))
    settings = pauli_settings(3)
    records = tuple(
        sample(psi, s, shots=4096, seed=100 + i) for i, s in enumerate(settings)
    )
    res = mle_reconstruct(TomographyJob(3, records))
    assert fidelity(res.state, psi.density_matrix()) >= 0.99
    assert_monotone(res.log_likelihoods)


def test_mle_input_validation():
    settings = pauli_settings(1)
    with pytest.raises(ValueError):
        mle_reconstruct_from_frequencies(1, settings, [np.array([0.5, 0.5])] * 2)
    with pytest.raises(ValueError):
        mle_reconstruct_from_frequencies(1, settings, [np.array([0.5, 0.5, 0.0])] * 3)
    with pytest.raises(ValueError):
        mle_reconstruct_from_frequencies(1, settings, [np.array([0.9, 0.9])] * 3)
    with pytest.raises(ValueError):
        mle_reconstruct_from_frequencies(2, settings, [np.array([0.5, 0.5])] * 3)
    with pytest.raises(ValueError):  # ragged
        mle_reconstruct_from_frequencies(1, settings, [np.array([0.5, 0.5])] * 2 + [np.array([1.0, 0, 0])])
    with pytest.raises(ValueError):  # a setting twice, another missing
        mle_reconstruct_from_frequencies(1, settings[:2] + settings[:1], [np.array([0.5, 0.5])] * 3)


def qubit_records(counts0, shots=100):
    """One X, Y and Z record with the given counts of outcome 0."""
    return [
        MeasRecord(MeasSetting.pauli(basis), {"0": int(c), "1": shots - int(c)}, shots)
        for basis, c in zip("XYZ", counts0)
    ]


def clip_and_renormalise(mx, my, mz):
    """1/2 (I + m.sigma) with its negative eigenvalue clipped and the trace
    restored: the one-qubit projection the simplex projection replaced."""
    rho = 0.5 * (PAULIS["I"] + mx * PAULIS["X"] + my * PAULIS["Y"] + mz * PAULIS["Z"])
    vals, vecs = np.linalg.eigh(rho)
    out = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    return out / np.trace(out).real


def test_qubit_tomography_inversion():
    for counts0 in ((60, 35, 70), (50, 50, 50), (80, 50, 25)):
        mx, my, mz = (2 * c / 100 - 1 for c in counts0)
        expect = 0.5 * np.array([[1 + mz, mx - 1j * my], [mx + 1j * my, 1 - mz]])
        records = qubit_records(counts0)
        freqs = tomography._frequency_tensor([r.setting for r in records], [r.frequencies() for r in records], 1)
        assert np.max(np.abs(tomography._operator("dual", freqs) - expect)) < 1e-15
        assert np.max(np.abs(qubit_tomography(records).matrix - expect)) < 1e-12


def local_operator(frame, coeffs):
    """Reference: sum_k coeffs[k] (Pi_{k_0} x ... x Pi_{k_{n-1}}), one qubit's
    frame contracted at a time."""
    n = coeffs.ndim
    t = _local_apply([frame] * n, coeffs).reshape([2] * (2 * n))
    return t.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(2**n, 2**n)


def local_probabilities(rho, n):
    """Reference: tr(rho Pi_k) for every k, one qubit's frame contracted at a time."""
    pairs = _pair_axes(rho.reshape([2] * (2 * n)), n)
    return _local_apply([tomography._FRAMES["frame"].conj().T] * n, pairs).real


@pytest.mark.parametrize("n", range(1, 6))
def test_frame_matmuls_match_the_per_qubit_contraction(n):
    rng = np.random.default_rng(n)
    coeffs = rng.random([6] * n)
    for name in ("frame", "dual"):
        want = local_operator(tomography._FRAMES[name], coeffs)
        assert np.max(np.abs(tomography._operator(name, coeffs) - want)) < 1e-12
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    got = tomography._probabilities(rho, n)
    assert got.shape == (6,) * n
    assert np.max(np.abs(got - local_probabilities(rho, n))) < 1e-12


def test_qubit_tomography_projects_unphysical_means():
    rho = qubit_tomography(qubit_records((95, 95, 95)))  # Bloch norm > 1
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals.min() >= -1e-12 and abs(vals.sum() - 1.0) < 1e-12
    # the simplex projection of one qubit is clip and renormalise
    rng = np.random.default_rng(5)
    for counts0 in rng.integers(0, 101, size=(300, 3)):
        mx, my, mz = (2 * c / 100 - 1 for c in counts0)
        got = qubit_tomography(qubit_records(counts0)).matrix
        assert np.max(np.abs(got - clip_and_renormalise(mx, my, mz))) < 1e-14


def test_qubit_tomography_from_records():
    records = [
        MeasRecord(MeasSetting.pauli("X"), {"0": 75, "1": 25}, 100),
        MeasRecord(MeasSetting.pauli("Y"), {"0": 50, "1": 50}, 100),
        MeasRecord(MeasSetting.pauli("Z"), {"0": 100}, 100),
    ]
    rho = qubit_tomography(records)
    assert np.max(np.abs(rho.matrix - clip_and_renormalise(0.5, 0.0, 1.0))) < 1e-14
    assert np.max(np.abs(qubit_tomography(records[::-1]).matrix - rho.matrix)) < 1e-15
    with pytest.raises(ValueError):
        qubit_tomography(records[:2])
    with pytest.raises(ValueError):
        qubit_tomography(records[:2] + [MeasRecord(MeasSetting.pauli("X"), {"0": 100}, 100)])
    with pytest.raises(ValueError):
        qubit_tomography(records[:2] + [MeasRecord(MeasSetting.pauli("ZZ"), {"00": 100}, 100)])


hermitian_parts = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 3), st.just(2)).map(lambda s: (2**s[0], 2**s[0], s[1])),
    elements=st.floats(-10, 10),
)


@given(hermitian_parts)
@hyp_settings(max_examples=200, deadline=None)
def test_project_is_a_density_matrix_and_idempotent(parts):
    a = parts[..., 0] + 1j * parts[..., 1]
    proj = tomography._project((a + a.conj().T) / 2)
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
    assert abs(np.trace(proj).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(proj)[0] > -1e-12
    assert np.max(np.abs(tomography._project(proj) - proj)) < 1e-12


def diluted_mle(num_qubits, settings, frequencies, tol, max_iters):
    """Reference: the diluted fixed-point iteration rho <- N[(I + eps R) rho
    (I + eps R)] from the maximally mixed state, with eps halved until the step
    ascends and doubled after; it stops when the trace-distance step falls
    below tol. Returns the final state and log-likelihood."""
    dim = 2**num_qubits
    vectors = np.concatenate([reduce(np.kron, s.rotations()).conj() for s in settings])
    freqs = np.concatenate([np.asarray(f) / len(settings) for f in frequencies])
    vectors_c = vectors.conj()
    eye = np.eye(dim, dtype=complex)
    mask = freqs > 0

    def log_likelihood(probs):
        return float(np.sum(freqs[mask] * np.log(np.maximum(probs[mask], 1e-300))))

    rho = eye / dim
    probs = ((vectors_c @ rho) * vectors).sum(axis=1).real
    ll, eps = log_likelihood(probs), 0.1
    for _ in range(max_iters):
        weights = np.zeros_like(freqs)
        weights[mask] = freqs[mask] / np.maximum(probs[mask], freqs[mask] / 1e12)
        r_op = (weights[:, None] * vectors).T @ vectors_c
        while True:
            gain = eye + eps * r_op
            cand = gain @ rho @ gain.conj().T
            cand = (cand + cand.conj().T) / 2
            cand /= np.trace(cand).real
            cand_probs = ((vectors_c @ cand) * vectors).sum(axis=1).real
            cand_ll = log_likelihood(cand_probs)
            if cand_ll >= ll - 1e-12:
                break
            eps /= 2
            assert eps >= 1e-8, "reference stalled"
        step = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(cand - rho)))
        rho, probs, ll = cand, cand_probs, cand_ll
        if step < tol:
            break
        eps = min(eps * 2, 1e6)
    return rho, ll


def referee_problems():
    """Sampled records of circuit states of two and three qubits with some
    white noise mixed in. Their optima are not at the warm start, and the
    momentum overshoots (and restarts) on the way."""
    problems = []
    for n, t, shots in ((1, 0.4, 200), (2, math.log(2), 1000)):
        pure = run_statevector(build_condensed_circuit(t, ScmParams(theta=math.pi, lam=1.0, n=n)))
        dim = 2**pure.num_qubits
        state = DensityMatrix(pure.num_qubits, 0.95 * pure.density_matrix().matrix + 0.05 * np.eye(dim) / dim)
        settings = pauli_settings(state.num_qubits)
        freqs = [sample(state, s, shots, seed=40 + j).frequencies() for j, s in enumerate(settings)]
        problems.append((state.num_qubits, settings, freqs))
    return problems


@pytest.mark.parametrize("problem", referee_problems())
def test_mle_matches_the_diluted_reference(problem):
    nq, settings, freqs = problem
    _, ref_ll = diluted_mle(nq, settings, freqs, tol=1e-9, max_iters=50_000)
    tol = 1e-7
    res = mle_reconstruct_from_frequencies(nq, settings, freqs, tol=tol)
    assert res.stop_reason == "tol" and res.ll_gap_bound <= tol
    assert res.log_likelihoods[-1] >= ref_ll - tol
    assert_monotone(res.log_likelihoods)
    assert len(res.log_likelihoods) == res.iterations + 1
    # restarts repeat the last accepted value; these problems need some
    assert res.iterations > 10 and np.any(np.diff(res.log_likelihoods) == 0)


@pytest.mark.parametrize("problem", referee_problems())
def test_certified_bound_covers_the_true_gap(problem):
    # against a long reference run, whose log-likelihood is at most the maximum
    nq, settings, freqs = problem
    _, best = diluted_mle(nq, settings, freqs, tol=1e-12, max_iters=50_000)
    for max_iters in (1, 3, 10, 30, 5000):
        res = mle_reconstruct_from_frequencies(nq, settings, freqs, tol=1e-10, max_iters=max_iters)
        gap = best - res.log_likelihoods[-1]
        assert res.ll_gap_bound >= gap - 1e-12, (max_iters, res.ll_gap_bound, gap)
        best = max(best, res.log_likelihoods[-1])


def test_state_text_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a @ a.conj().T
    m /= np.trace(m)
    path = tmp_path / "state.txt"
    save_state_text(DensityMatrix(2, m), path)
    back = load_state_text(path)
    assert back.shape == (4, 4) and np.array_equal(back, m)
    (tmp_path / "bad.txt").write_text("1.0 0.0 0.0\n")
    with pytest.raises(ValueError):
        load_state_text(tmp_path / "bad.txt")


def test_job_directory_round_trip(tmp_path):
    settings = pauli_settings(2)
    psi = PureState.zero(2)
    records = tuple(sample(psi, s, shots=64, seed=i) for i, s in enumerate(settings))
    job = TomographyJob(2, records, tol=1e-6, max_iters=99)
    save_tomography_job(job, tmp_path / "job")
    back = load_tomography_job(tmp_path / "job")
    assert back == job
    # a manifest written with the dilution parameter the MLE no longer takes still loads
    manifest_path = tmp_path / "job" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "dilution" not in manifest
    manifest_path.write_text(json.dumps(dict(manifest, dilution=0.1)))
    assert load_tomography_job(tmp_path / "job") == job
    assert (tmp_path / "job" / "manifest.json").exists()
    assert sorted(p.name for p in (tmp_path / "job" / "records").iterdir())[0].startswith(
        "setting_"
    )
