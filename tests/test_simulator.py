"""Statevector and density-matrix execution, measurement settings, sampling."""
import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dlab.circuit
import dlab.simulator
import dlab.tomography
from dlab import (
    Circuit,
    DensityMatrix,
    Gate,
    GateKind,
    MeasRecord,
    MeasSetting,
    NoiseModel,
    PureState,
    Scenario,
    ScmParams,
    amplitude_damping_channel,
    basis_rotation,
    born_distribution,
    build_condensed_circuit,
    build_full_circuit,
    canonical_times,
    cmi_grid,
    cmi_joint,
    depolarizing_channel,
    partial_trace,
    pauli_settings,
    run_density,
    run_statevector,
    sample,
    sample_pauli_set,
    trace_distance,
)
from dlab.circuit import GATE_ARITY
from dlab.kernels import apply_matrix
from dlab.qstate import PAULIS, PSD_ATOL
from dlab.simulator import _fold_readout_flip

PLUS = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2))
BELL_CIRCUIT = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))))


def test_basis_rotation_unitarity_and_paulis():
    angles = ((0.3, 0.9), (math.pi / 2, 0.0), (math.pi, 1.1))
    for phi, xi in angles:
        u = basis_rotation(phi, xi)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14
    # arrays of angles broadcast to one rotation per pair, equal to the scalar calls
    phis, xis = np.array(angles).T
    grid = basis_rotation(phis[:, None], xis[None, :])
    assert grid.shape == (3, 3, 2, 2)
    for i, phi in enumerate(phis):
        for j, xi in enumerate(xis):
            assert np.array_equal(grid[i, j], basis_rotation(float(phi), float(xi)))
    # phi=0 is the computational basis, (pi/2, 0) the X basis up to row phases
    assert np.allclose(basis_rotation(0.0, 0.0), np.array([[1, 0], [0, -1]]))
    x = basis_rotation(math.pi / 2, 0.0)
    probs = np.abs(x @ PLUS.amplitudes) ** 2
    assert probs[0] == pytest.approx(1.0, abs=1e-14)


def test_meas_setting_validation():
    with pytest.raises(ValueError):
        MeasSetting(())
    with pytest.raises(ValueError):
        MeasSetting(("Q",))
    with pytest.raises(ValueError):
        MeasSetting(((4.0, 0.0),))  # phi out of range
    with pytest.raises(ValueError):
        MeasSetting(((0.5, -0.1),))  # xi out of range
    s = MeasSetting.pauli("xyz")
    assert s.bases == ("X", "Y", "Z") and s.is_pauli and s.num_qubits == 3
    assert MeasSetting.computational(2).bases == ("Z", "Z")


def test_meas_setting_label_and_json():
    s = MeasSetting.pauli("XZ")
    assert s.label() == "XZ"
    mixed = MeasSetting(("Z", (math.pi / 2, 0.0)))
    assert mixed.label() == "Z;(1.570796,0.000000)"
    for setting in (s, mixed):
        back = MeasSetting.from_json_obj(setting.to_json_obj())
        assert back == setting


def test_born_distribution_examples():
    psi = run_statevector(BELL_CIRCUIT)
    probs = born_distribution(psi, MeasSetting.computational(2))
    assert np.allclose(probs, [0.5, 0, 0, 0.5])
    # Bell state in XX: correlated outcomes again
    probs = born_distribution(psi, MeasSetting.pauli("XX"))
    assert np.allclose(probs, [0.5, 0, 0, 0.5])
    # density input agrees with the pure-state path
    probs_rho = born_distribution(psi.density_matrix(), MeasSetting.pauli("XX"))
    assert np.max(np.abs(probs_rho - probs)) < 1e-12
    with pytest.raises(ValueError):
        born_distribution(psi, MeasSetting.computational(3))


def test_born_distribution_bit_order():
    # qubit 0 is the most significant bit of the outcome index
    c = Circuit(2, (Gate(GateKind.X, (0,)),))
    probs = born_distribution(run_statevector(c), MeasSetting.computational(2))
    assert probs[0b10] == pytest.approx(1.0, abs=1e-14)


# Reference: the kernel sweeps and the per-axis flip loop that the shared
# local contraction replaced.


def loop_born_distribution(state, setting):
    """Rotate each qubit with one kernel sweep (a density matrix: one on its
    row axis, one on its column axis) and read the diagonal."""
    n = state.num_qubits
    if isinstance(state, PureState):
        psi = state.amplitudes.copy()
        for q in range(n):
            apply_matrix(psi, setting.rotations()[q], (q,), n)
        probs = np.abs(psi) ** 2
    else:
        rho = state.matrix.reshape(-1).copy()
        for q in range(n):
            r = setting.rotations()[q]
            apply_matrix(rho, r, (q,), 2 * n)
            apply_matrix(rho, r.conj(), (n + q,), 2 * n)
        probs = np.real(np.diag(rho.reshape(2**n, 2**n))).copy()
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def loop_fold_readout_flip(probs, n, r):
    t = probs.reshape([2] * n)
    for q in range(n):
        t = (1 - r) * t + r * np.flip(t, axis=q)
    return t.reshape(-1)


_BASES = st.one_of(
    st.sampled_from("XYZ"),
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True)),
)


@st.composite
def measured_states(draw):
    """A random pure or mixed (random rank) state on 1-6 qubits, a Pauli or
    (phi, xi) basis per qubit, and a readout flip rate."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = PureState(n, psi / np.linalg.norm(psi))
    else:
        rank = draw(st.integers(1, 2**n))
        g = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
        rho = g @ g.conj().T
        state = DensityMatrix(n, rho / np.trace(rho).real)
    setting = MeasSetting(tuple(draw(st.lists(_BASES, min_size=n, max_size=n))))
    return state, setting, draw(st.floats(0.0, 0.5))


@settings(max_examples=80, deadline=None)
@given(measured_states())
def test_born_distribution_matches_the_loop_and_the_dense_rotation(problem):
    state, setting, r = problem
    n = state.num_qubits
    got = born_distribution(state, setting)
    assert np.max(np.abs(got - loop_born_distribution(state, setting))) < 1e-12
    u = reduce(np.kron, setting.rotations())
    rho = state.density_matrix().matrix if isinstance(state, PureState) else state.matrix
    assert np.max(np.abs(got - np.diag(u @ rho @ u.conj().T).real)) < 1e-12
    folded = _fold_readout_flip(got, n, r)
    assert np.max(np.abs(folded - loop_fold_readout_flip(got, n, r))) < 1e-12


def test_run_statevector_guard():
    with pytest.raises(ValueError):
        run_statevector(Circuit(17, ()))


def test_noiseless_density_equals_projector():
    p = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    c = build_full_circuit(0.8, p)  # 7 qubits
    rho = run_density(c)
    psi = run_statevector(c)
    assert np.max(np.abs(rho.matrix - psi.density_matrix().matrix)) < 1e-12


def test_run_density_guard():
    with pytest.raises(ValueError):
        run_density(Circuit(11, ()))


def loop_apply_kraus(rho, ops, targets, n):
    """sum_i (K_i x I) rho (K_i^dag x I) on a flattened n-qubit density
    matrix, one copy and two kernel sweeps per Kraus operator."""
    col = tuple(n + q for q in targets)
    out = np.zeros(4**n, dtype=complex)
    for k in ops:
        work = rho.copy()
        apply_matrix(work, k, targets, 2 * n)
        apply_matrix(work, k.conj(), col, 2 * n)
        out += work
    return out


def loop_run_density(c, noise):
    """The per-Kraus density evolution: gate, depolarizing on the gate
    qubits, damping on each gate qubit, then idle noise qubit by qubit."""
    n = c.num_qubits
    rho = np.zeros(4**n, dtype=complex)
    rho[0] = 1.0
    depol1 = depolarizing_channel(noise.depol_1q).operators if noise.depol_1q > 0 else None
    depol2 = depolarizing_channel(noise.depol_2q, 2).operators if noise.depol_2q > 0 else None
    damp = (
        amplitude_damping_channel(noise.amp_damp_gamma).operators
        if noise.amp_damp_gamma > 0
        else None
    )
    for g in c.gates:
        mat = g.matrix()
        apply_matrix(rho, mat, g.qubits, 2 * n)
        apply_matrix(rho, mat.conj(), tuple(n + q for q in g.qubits), 2 * n)
        if len(g.qubits) == 2 and depol2 is not None:
            rho = loop_apply_kraus(rho, depol2, g.qubits, n)
        elif len(g.qubits) == 1 and depol1 is not None:
            rho = loop_apply_kraus(rho, depol1, g.qubits, n)
        if damp is not None:
            for q in g.qubits:
                rho = loop_apply_kraus(rho, damp, (q,), n)
        if noise.idle_noise:
            for q in [q for q in range(n) if q not in g.qubits]:
                if depol1 is not None:
                    rho = loop_apply_kraus(rho, depol1, (q,), n)
                if damp is not None:
                    rho = loop_apply_kraus(rho, damp, (q,), n)
    return DensityMatrix(n, rho.reshape(2**n, 2**n))


_STRENGTHS = st.one_of(st.just(0.0), st.floats(0.01, 0.5))


@st.composite
def noisy_circuits(draw):
    """A random circuit over every GateKind on 1-5 qubits, with each noise
    strength zero or not and idle noise on or off.

    Gates act within a working set of qubits that moves now and then: one
    qubit, a pair or the whole register. So runs of gates share qubits,
    `run_density`'s factors grow from one qubit to several, and idle steps
    are owed before a qubit's next gate, while a last working set that is
    not the whole register leaves idle noise owed at the end."""
    n = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        if not gates or draw(st.integers(0, 3)) == 0:
            width = min(n, draw(st.sampled_from((1, 2, 2, n))))
            active = draw(st.permutations(range(n)))[:width]
        kinds = [k for k in GateKind if len(active) >= GATE_ARITY[k]]
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(active))[: GATE_ARITY[kind]])
        angle = draw(st.floats(-math.pi, math.pi)) if kind is GateKind.RY else None
        gates.append(Gate(kind, qubits, angle))
    noise = NoiseModel(
        depol_1q=draw(_STRENGTHS),
        depol_2q=draw(_STRENGTHS),
        amp_damp_gamma=draw(_STRENGTHS),
        idle_noise=draw(st.booleans()),
    )
    return Circuit(n, tuple(gates)), noise


@settings(max_examples=80, deadline=None)
@given(noisy_circuits())
def test_run_density_matches_the_kraus_loop(problem):
    # the run is real from end to end; the loop evolves a complex matrix
    c, noise = problem
    rho = run_density(c, noise)
    assert rho.matrix.dtype == np.float64 and rho.spectrum.dtype == np.float64
    assert rho.spectrum[0] >= -PSD_ATOL
    assert np.max(np.abs(rho.matrix - loop_run_density(c, noise).matrix)) < 1e-12


def _sweep_sizes(monkeypatch, c, noise):
    """The `n_axes` of every kernel sweep of `run_density(c, noise)`, in
    order, and the largest deviation from the Kraus loop."""
    sizes = []

    def counted(flat, mat, axes, n_axes):
        sizes.append(n_axes)
        apply_matrix(flat, mat, axes, n_axes)

    monkeypatch.setattr(dlab.simulator, "apply_matrix", counted)
    got = run_density(c, noise).matrix
    return sizes, np.max(np.abs(got - loop_run_density(c, noise).matrix))


@pytest.mark.parametrize(
    "scenario, n, idle_noise, sizes",
    [
        # 17 gates: 4 x (Ry, CNOT, X) on a fresh pair, then H on the system
        # and 4 CZs, each joining the system's factor to a pair's
        (Scenario.FULL, 4, False, [2, 4, 4] * 4 + [2, 6, 10, 14, 18]),
        # 13 gates; each qubit's idle steps after its last gate are folded
        # into that gate, so nothing is left to sweep at the end
        (Scenario.FULL, 3, True, [2, 4, 4] * 3 + [2, 6, 10, 14]),
        # the Ry layer sweeps each qubit alone before the CZs join them
        (Scenario.CONDENSED, 3, True, [2, 2, 2, 2, 4, 6, 8]),
    ],
    ids=["full-4-False-17", "full-3-True-13", "condensed-3-True-7"],
)
def test_run_density_sweeps_once_per_gate(monkeypatch, scenario, n, idle_noise, sizes):
    # each gate sweeps once, on the smallest factor that holds its qubits
    build = build_full_circuit if scenario is Scenario.FULL else build_condensed_circuit
    c = build(canonical_times().t_max, ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario))
    noise = NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.002, idle_noise=idle_noise)
    got, err = _sweep_sizes(monkeypatch, c, noise)
    assert got == sizes
    assert err < 1e-12


_FACTOR_NOISE = NoiseModel(depol_1q=0.03, depol_2q=0.05, amp_damp_gamma=0.1, idle_noise=True)


def test_run_density_keeps_disjoint_factors_apart(monkeypatch):
    # pairs (0, 1) and (3, 4) never meet, and qubits 2 and 5 see no gate:
    # each sweep covers one qubit or one pair, and each untouched qubit
    # takes all six idle steps in one sweep of its own
    c = Circuit(
        6,
        (
            Gate(GateKind.RY, (1,), 0.7),
            Gate(GateKind.CNOT, (1, 0)),
            Gate(GateKind.X, (0,)),
            Gate(GateKind.H, (3,)),
            Gate(GateKind.CZ, (4, 3)),
            Gate(GateKind.RY, (4,), -1.2),
        ),
    )
    sizes, err = _sweep_sizes(monkeypatch, c, _FACTOR_NOISE)
    assert sizes == [2, 4, 4, 2, 4, 4, 2, 2]
    assert err < 1e-12


def test_run_density_merges_factors_out_of_register_order(monkeypatch):
    # (3, 1) and (2, 0) each merge two fresh qubits; (1, 2) then merges both
    # pairs, whose qubits interleave in the register; qubit 4 sees no gate
    c = Circuit(
        5,
        (
            Gate(GateKind.H, (3,)),
            Gate(GateKind.CNOT, (3, 1)),
            Gate(GateKind.RY, (2,), 0.4),
            Gate(GateKind.CZ, (2, 0)),
            Gate(GateKind.SWAP, (1, 2)),
            Gate(GateKind.RY, (2,), 1.9),
        ),
    )
    sizes, err = _sweep_sizes(monkeypatch, c, _FACTOR_NOISE)
    assert sizes == [2, 4, 2, 4, 8, 8, 2]
    assert err < 1e-12


def test_run_density_spectrum_matches_the_dense_solver():
    # the full n=4 state at t_max splits into 81 blocks of at most 32 rows
    p = ScmParams(theta=math.pi, lam=1.0, n=4, scenario=Scenario.FULL)
    noise = NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.001)
    rho = run_density(build_full_circuit(canonical_times().t_max, p), noise)
    assert rho.spectrum.dtype == np.float64 and not rho.spectrum.flags.writeable
    assert np.max(np.abs(rho.spectrum - np.linalg.eigvalsh(rho.matrix))) < 1e-12


def test_shared_arrays_are_read_only():
    # module constants and cached arrays reach every caller as they are: a
    # write through one would change every later gate, rotation or frame
    simulator, tomography = dlab.simulator, dlab.tomography
    shared = [Gate(kind, tuple(range(GATE_ARITY[kind]))).matrix() for kind in GateKind if kind is not GateKind.RY]
    shared += MeasSetting.pauli("XYZ").rotations() + list(PAULIS.values())
    shared += [simulator._PAULI_BASIS, simulator._PAULI_TRACE, simulator._noise_superop(0.01, 0.001, 2)]
    shared += [tomography._PROJECTORS, *tomography._FRAMES.values(), tomography._frame_power("dual", 2)]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 5
    assert Gate(GateKind.X, (0,)).matrix()[0, 0] == 0
    # one superoperator per noise setting, however many runs use it
    assert simulator._noise_superop(0.01, 0.001, 2) is simulator._noise_superop(0.01, 0.001, 2)


def test_run_density_refuses_a_superoperator_that_is_not_real(monkeypatch):
    c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.X, (1,))))
    noise = NoiseModel(depol_1q=0.1)
    want = run_density(c, noise).matrix
    # a complex gate matrix whose superoperator is real runs as before: the
    # global phase i drops out of X rho X^dag
    monkeypatch.setitem(dlab.circuit._FIXED_MATRICES, GateKind.X, 1j * PAULIS["X"])
    assert np.array_equal(run_density(c, noise).matrix, want)
    # an S gate's superoperator is not real
    monkeypatch.setitem(dlab.circuit._FIXED_MATRICES, GateKind.X, np.diag([1, 1j]))
    with pytest.raises(ValueError, match="X gate superoperator is not real"):
        run_density(c, noise)


def test_run_density_matches_the_kraus_loop_on_circuits():
    # every gate kind in every noise combination, on the workbench circuits
    p = ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL)
    c = build_full_circuit(0.7, p)
    strong = NoiseModel(depol_1q=0.05, depol_2q=0.1, amp_damp_gamma=0.2, idle_noise=True)
    for noise in (strong, NoiseModel(depol_2q=0.1), NoiseModel(amp_damp_gamma=0.2, idle_noise=True)):
        got = run_density(c, noise).matrix
        assert np.max(np.abs(got - loop_run_density(c, noise).matrix)) < 1e-12


def test_depolarizing_limit_is_maximally_mixed():
    c = Circuit(1, (Gate(GateKind.H, (0,)),))
    rho = run_density(c, NoiseModel(depol_1q=1.0))
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-12


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(depol_1q=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(readout_flip=1.5)
    assert not NoiseModel().is_mixing and NoiseModel(depol_1q=0.001, depol_2q=0.01, readout_flip=0.02).is_mixing
    assert not NoiseModel(readout_flip=0.1, idle_noise=True).is_mixing


def _bad_inputs():
    """(call, message) for every rate and shot count the package must refuse:
    each noise rate, both channel constructors, and each sampler's flip
    rate and shots."""
    bell = run_statevector(BELL_CIRCUIT)
    z = MeasSetting.pauli("Z")
    samplers = {
        "sample": lambda shots, r: sample(bell, MeasSetting.computational(2), shots, 0, readout_flip=r),
        "cmi_joint": lambda shots, r: cmi_joint(bell, (0,), (1,), z, shots=shots, readout_flip=r),
        "cmi_grid": lambda shots, r: cmi_grid(bell, (0,), (1,), 2, 2, shots=shots, readout_flip=r),
        "sample_pauli_set": lambda shots, r: sample_pauli_set(bell, shots, 0, readout_flip=r),
    }
    rates = {
        name: (lambda v, name=name: NoiseModel(**{name: v}), name)
        for name in ("depol_1q", "depol_2q", "amp_damp_gamma", "readout_flip")
    }
    rates["depolarizing_channel"] = (depolarizing_channel, "depolarizing probability")
    rates["amplitude_damping_channel"] = (amplitude_damping_channel, "damping probability")
    for name, draw in samplers.items():
        rates[f"{name}.readout_flip"] = (lambda v, draw=draw: draw(16, v), "readout_flip")
    # the exact CMI reads no flips, but refuses a rate no sampled run would take
    for name in ("cmi_joint", "cmi_grid"):
        rates[f"{name}.exact.readout_flip"] = (lambda v, draw=samplers[name]: draw(None, v), "readout_flip")
    for name, (make, label) in rates.items():
        for v in (-0.2, 1.5, math.nan):
            yield pytest.param(lambda make=make, v=v: make(v), f"{label} must lie in", id=f"{name}={v}")
    for name, draw in samplers.items():
        for shots in (0, -1):
            yield pytest.param(
                lambda draw=draw, shots=shots: draw(shots, 0.0), "shots must be positive", id=f"{name}.shots={shots}"
            )
        for shots in (2.5, True, 4.0):
            yield pytest.param(
                lambda draw=draw, shots=shots: draw(shots, 0.0), "shots must be an integer", id=f"{name}.shots={shots}"
            )
    # None asks the CMI for its exact value; a sampler has no exact record to give
    for name in ("sample", "sample_pauli_set"):
        yield pytest.param(
            lambda draw=samplers[name]: draw(None, 0.0), "shots must be an integer, got None", id=f"{name}.shots=None"
        )


@pytest.mark.parametrize("call, message", _bad_inputs())
def test_rates_and_shot_counts_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_samplers_refuse_missing_shots_before_any_contraction(monkeypatch):
    def contracted(*args):
        raise AssertionError("the Born probabilities were computed before shots was checked")

    monkeypatch.setattr(dlab.simulator, "_local_probabilities", contracted)
    bell = run_statevector(BELL_CIRCUIT)
    for call in (
        lambda: sample(bell, MeasSetting.computational(2), None, 0),
        lambda: sample_pauli_set(bell, None, 0),
    ):
        with pytest.raises(ValueError, match="shots must be an integer, got None"):
            call()


def test_numpy_integer_shots_draw_like_int():
    bell = run_statevector(BELL_CIRCUIT)
    setting = MeasSetting.computational(2)
    want = sample(bell, setting, 64, 3)
    got = sample(bell, setting, np.int64(64), 3)
    # the record holds a Python int, so it serialises like any other
    assert got == want and type(got.shots) is int
    assert MeasRecord.from_json_obj(json.loads(json.dumps(got.to_json_obj()))) == want
    assert cmi_joint(bell, (0,), (1,), MeasSetting.pauli("Z"), shots=np.int32(64), seed=3) == cmi_joint(
        bell, (0,), (1,), MeasSetting.pauli("Z"), shots=64, seed=3
    )


def test_numpy_multinomial_draws_rows_in_order():
    # a sampled grid draws its cells with one 2-D multinomial call per chunk
    # from one generator, a Pauli set its rows with one 2-D call, and `sample`
    # one row with a seed of its own; all three rest on numpy drawing the rows
    # of a 2-D call in order, as one 1-D call each would, zero-probability
    # outcomes included
    probs = np.random.default_rng(0).random((40, 16))
    probs[:, [0, 5, 15]] = 0.0
    probs[3] = np.eye(16)[2]
    probs /= probs.sum(axis=1, keepdims=True)
    batch = np.random.default_rng(3).multinomial(1000, probs)
    rng = np.random.default_rng(3)
    assert np.array_equal(batch, [rng.multinomial(1000, p) for p in probs])
    rng = np.random.default_rng(3)
    assert np.array_equal(batch, np.concatenate([rng.multinomial(1000, probs[lo : lo + 7]) for lo in range(0, 40, 7)]))
    assert np.array_equal(batch[0], np.random.default_rng(3).multinomial(1000, probs[0]))


def test_noise_monotonicity():
    # stronger noise pulls the output further from the ideal state
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    c = build_condensed_circuit(0.5, p)
    ideal = run_density(c)
    for maker in (
        lambda s: NoiseModel(depol_1q=s),
        lambda s: NoiseModel(depol_2q=s),
        lambda s: NoiseModel(amp_damp_gamma=s),
    ):
        dists = [trace_distance(run_density(c, maker(s)), ideal) for s in (0.01, 0.05, 0.2)]
        assert dists[0] < dists[1] < dists[2]


def test_idle_noise_acts_on_spectators():
    c = Circuit(2, (Gate(GateKind.H, (0,)),))
    busy_only = run_density(c, NoiseModel(depol_1q=0.3))
    with_idle = run_density(c, NoiseModel(depol_1q=0.3, idle_noise=True))
    # qubit 1 never sees a gate, so only idle noise can touch it... but it
    # stays |0> under depolarizing only in the idle-free run
    assert np.max(np.abs(busy_only.matrix[1::2, 1::2])) < 1e-14 or np.max(
        np.abs(partial_trace(busy_only, [1]).matrix - np.diag([1.0, 0.0]))
    ) < 1e-12
    assert partial_trace(with_idle, [1]).matrix[1, 1].real > 0.01


def test_sample_determinism_and_edge_cases():
    psi = run_statevector(BELL_CIRCUIT)
    setting = MeasSetting.computational(2)
    a = sample(psi, setting, shots=500, seed=11)
    b = sample(psi, setting, shots=500, seed=11)
    assert a.counts == b.counts and a.seed == 11
    c = sample(psi, setting, shots=500, seed=12)
    assert c.counts != a.counts
    z = sample(PureState.zero(2), setting, shots=100, seed=0)
    assert z.counts == {"00": 100}
    with pytest.raises(ValueError):
        sample(psi, setting, shots=0, seed=1)


def test_sample_matches_born_within_3_sigma():
    psi = run_statevector(BELL_CIRCUIT)
    setting = MeasSetting.pauli("ZX")
    probs = born_distribution(psi, setting)
    shots = 1_000_000
    freq = sample(psi, setting, shots=shots, seed=7).frequencies()
    for k in range(4):
        sigma = math.sqrt(probs[k] * (1 - probs[k]) / shots)
        assert abs(freq[k] - probs[k]) < 3 * sigma + 1e-9


def test_sample_chi_square_goodness_of_fit():
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    psi = run_statevector(build_condensed_circuit(0.9, p))
    setting = MeasSetting.pauli("XYZ")
    probs = born_distribution(psi, setting)
    shots = 100_000
    rec = sample(psi, setting, shots=shots, seed=21)
    freq = rec.frequencies()
    mask = probs > 1e-12
    chi2 = shots * np.sum((freq[mask] - probs[mask]) ** 2 / probs[mask])
    pval = stats.chi2.sf(chi2, df=int(mask.sum()) - 1)
    assert pval > 0.001
    # impossible outcomes never get a count
    assert freq[~mask].sum() == 0.0


def test_sample_drops_rounding_noise_like_every_draw():
    # condensed n=2 at t_max in XXX puts ~1e-34 on outcomes that cannot occur;
    # every draw, sample's included, drops outcomes <= 1e-15 before drawing
    p = ScmParams(theta=math.pi, lam=1.0, n=2)
    psi = run_statevector(build_condensed_circuit(canonical_times().t_max, p))
    setting = MeasSetting.pauli("XXX")
    probs = born_distribution(psi, setting)
    assert np.any((probs > 0) & (probs <= 1e-15))
    kept = np.where(probs > 1e-15, probs, 0.0)
    for seed in range(20):
        draws = np.random.default_rng(seed).multinomial(4096, kept / kept.sum())
        want = {format(i, "03b"): int(c) for i, c in enumerate(draws) if c > 0}
        assert sample(psi, setting, 4096, seed).counts == want, seed


def test_readout_flip_folding():
    z = PureState.zero(1)
    rec = sample(z, MeasSetting.computational(1), shots=200_000, seed=5, readout_flip=0.1)
    freq = rec.frequencies()
    assert abs(freq[1] - 0.1) < 0.01
    # flip folding is symmetric on a uniform state
    probs = born_distribution(PLUS, MeasSetting.computational(1))
    assert np.allclose(probs, [0.5, 0.5])


def test_meas_record_validation_and_json():
    setting = MeasSetting.computational(2)
    with pytest.raises(ValueError):
        MeasRecord(setting, {"00": 5, "0": 5}, 10)
    with pytest.raises(ValueError):
        MeasRecord(setting, {"00": 5}, 10)  # counts do not sum to shots
    with pytest.raises(ValueError):
        MeasRecord(setting, {"02": 10}, 10)
    # a record refuses what the draw refuses: a bool or a float for shots,
    # and a bool count, though each of them sums like an integer
    for shots, message in ((True, "an integer"), (1.0, "an integer"), (0, "positive")):
        with pytest.raises(ValueError, match=f"shots must be {message}"):
            MeasRecord(MeasSetting.computational(1), {"0": 1}, shots)
    with pytest.raises(ValueError, match="bad count"):
        MeasRecord(MeasSetting.computational(1), {"0": True}, 1)
    for shots, counts in ((True, {"0": 1}), (3.0, {"0": 3}), (2, {"0": 1.5, "1": 0.5})):
        with pytest.raises(ValueError):
            MeasRecord.from_json_obj({"setting": ["Z"], "shots": shots, "counts": counts})
    numpy_shots = MeasRecord(setting, {"00": 4, "11": 6}, np.int64(10))
    assert type(numpy_shots.shots) is int and json.dumps(numpy_shots.to_json_obj())
    # a seed is None or a non-negative integer, checked as shots are, and
    # loaded as read rather than coerced
    for seed, message in ((2.5, "an integer"), (True, "an integer"), ("7", "an integer"), (-1, "non-negative")):
        with pytest.raises(ValueError, match=f"seed must be {message}"):
            MeasRecord(setting, {"00": 10}, 10, seed=seed)
    for seed in (1.7, True, "7"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            MeasRecord.from_json_obj({"setting": ["Z"], "shots": 1, "seed": seed, "counts": {"0": 1}})
    numpy_seed = MeasRecord(setting, {"00": 10}, 10, seed=np.uint32(7))
    assert type(numpy_seed.seed) is int and numpy_seed.seed == 7
    assert MeasRecord(setting, {"00": 10}, 10, seed=0).seed == 0
    assert MeasRecord.from_json_obj({"setting": ["Z"], "shots": 1, "seed": None, "counts": {"0": 1}}).seed is None
    rec = MeasRecord(setting, {"00": 4, "11": 6}, 10, seed=3)
    assert np.allclose(rec.frequencies(), [0.4, 0, 0, 0.6])
    back = MeasRecord.from_json_obj(rec.to_json_obj())
    assert back == rec


@st.composite
def pauli_set_problems(draw):
    """A state on 1-4 qubits: pure, mixed of random rank (complex or real,
    as density runs make it), maximally mixed, or a basis state, whose X and
    Y outcomes all sit at exactly 0.5; shots, a seed and a flip rate."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("pure", "mixed", "real", "maximally mixed", "basis")))
    if kind == "pure":
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = PureState(n, psi / np.linalg.norm(psi))
    elif kind in ("mixed", "real"):
        rank = draw(st.integers(1, 2**n))
        g = rng.normal(size=(2**n, rank))
        if kind == "mixed":
            g = g + 1j * rng.normal(size=(2**n, rank))
        rho = g @ g.conj().T
        state = DensityMatrix(n, rho / np.trace(rho).real)
    elif kind == "maximally mixed":
        state = DensityMatrix(n, np.eye(2**n) / 2**n)
    else:
        state = PureState(n, np.eye(2**n)[draw(st.integers(0, 2**n - 1))])
    shots = draw(st.integers(1, 5000))
    return state, shots, draw(st.integers(0, 2**32)), draw(st.sampled_from((0.0, 0.02, 0.5)))


@settings(max_examples=80, deadline=None)
@given(pauli_set_problems())
def test_sample_pauli_set_is_one_draw_of_every_setting(problem):
    # one contraction for all 3^n settings gives each setting's Born row, and
    # one generator seeded with `seed` draws the rows in `pauli_settings`
    # order, ties at 0.5 included: record 0 is `sample`'s with that seed, and
    # every record stores the seed of its set
    state, shots, seed, flip = problem
    n = state.num_qubits
    settings_ = pauli_settings(n)
    rows = np.stack([born_distribution(state, s) for s in settings_])
    draws = dlab.simulator._draw(rows, shots, np.random.default_rng(seed), flip)
    got = sample_pauli_set(state, shots, seed, flip)
    assert [r.setting for r in got] == settings_ and {r.seed for r in got} == {seed}
    assert np.array_equal([[r.counts.get(format(i, f"0{n}b"), 0) for i in range(2**n)] for r in got], draws)
    assert got[0] == sample(state, settings_[0], shots, seed, flip)
