"""Diluted-MLE tomography: exact recovery, sampled runs, file round trips."""
import math

import numpy as np
import pytest

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
    qubit_tomography_from_means,
    run_statevector,
    sample,
    save_state_text,
    save_tomography_job,
)
from dlab import tomography

PLUS = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2))


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
        TomographyJob(1, tuple(records), dilution=0.0)
    uneven = records[:2] + [sample(psi, settings[2], shots=50, seed=9)]
    with pytest.raises(ValueError):
        TomographyJob(1, tuple(uneven))


def test_mle_recovers_plus_state():
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(1, settings, exact_frequencies(PLUS, settings))
    assert fidelity(res.state, PLUS.density_matrix()) >= 1 - 1e-6
    assert res.converged and res.stop_reason == "tol"
    assert_monotone(res.log_likelihoods)


def test_mle_stall_is_not_convergence(monkeypatch):
    # after three accepted steps every candidate descends, so the dilution
    # halves below its floor: the run stops early, without converging
    real = tomography._log_likelihood
    calls = []

    def descending_after_three(freqs, probs):
        calls.append(None)
        return real(freqs, probs) if len(calls) <= 4 else -math.inf

    monkeypatch.setattr(tomography, "_log_likelihood", descending_after_three)
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(
        1, settings, exact_frequencies(PLUS, settings), tol=0.0, max_iters=100
    )
    assert res.converged is False and res.stop_reason == "stalled"
    assert res.iterations < 100
    assert len(res.log_likelihoods) == 4
    assert_monotone(res.log_likelihoods)


def test_mle_budget_is_not_convergence():
    settings = pauli_settings(1)
    res = mle_reconstruct_from_frequencies(
        1, settings, exact_frequencies(PLUS, settings), tol=0.0, max_iters=7
    )
    assert res.converged is False and res.stop_reason == "max_iters"
    assert res.iterations == 7 and len(res.log_likelihoods) == 8


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


def test_qubit_tomography_inversion():
    for mx, my, mz in ((0.2, -0.3, 0.4), (0.0, 0.0, 0.0), (0.6, 0.0, -0.5)):
        rho = qubit_tomography_from_means(mx, my, mz)
        expect = 0.5 * np.array([[1 + mz, mx - 1j * my], [mx + 1j * my, 1 - mz]])
        assert np.max(np.abs(rho.matrix - expect)) < 1e-10


def test_qubit_tomography_projects_unphysical_means():
    rho = qubit_tomography_from_means(0.9, 0.9, 0.9)  # Bloch norm > 1
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals.min() >= -1e-12 and abs(vals.sum() - 1.0) < 1e-12


def test_qubit_tomography_from_records():
    records = [
        MeasRecord(MeasSetting.pauli("X"), {"0": 75, "1": 25}, 100),
        MeasRecord(MeasSetting.pauli("Y"), {"0": 50, "1": 50}, 100),
        MeasRecord(MeasSetting.pauli("Z"), {"0": 100}, 100),
    ]
    rho = qubit_tomography(records)
    expect = qubit_tomography_from_means(0.5, 0.0, 1.0)
    assert np.max(np.abs(rho.matrix - expect.matrix)) < 1e-12
    with pytest.raises(ValueError):
        qubit_tomography(records[:2])
    with pytest.raises(ValueError):
        qubit_tomography(records[:2] + [MeasRecord(MeasSetting.pauli("X"), {"0": 100}, 100)])


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
    job = TomographyJob(2, records, dilution=0.2, tol=1e-6, max_iters=99)
    save_tomography_job(job, tmp_path / "job")
    back = load_tomography_job(tmp_path / "job")
    assert back == job
    assert (tmp_path / "job" / "manifest.json").exists()
    assert sorted(p.name for p in (tmp_path / "job" / "records").iterdir())[0].startswith(
        "setting_"
    )
