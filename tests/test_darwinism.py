"""Mutual-information curves, basis grids, Holevo bounds, scans, backflow."""
import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlab.darwinism
from dlab import (
    BasisGrid,
    DensityMatrix,
    MeasSetting,
    NoiseModel,
    PartitionScheme,
    PureState,
    Scenario,
    SchemeMode,
    ScmParams,
    averaged_qmi,
    blp_witness,
    build_condensed_circuit,
    build_full_circuit,
    canonical_times,
    cmi_grid,
    cmi_joint,
    coherence_finite,
    coherence_markovian,
    holevo_bound,
    ideal_global_state,
    orbit_fractions,
    partial_trace,
    partition_scheme,
    pauli_cmi_scan,
    qmi,
    run_density,
    run_statevector,
    system_coherence,
    von_neumann_entropy,
)
from dlab.darwinism import basis_grid_to_csv, mi_curve_to_csv
from dlab.kernels import apply_matrix
from dlab.simulator import basis_rotation, sample

T_MAX, T_CLOSE, T_REC = canonical_times()
FULL2 = ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL)
COND2 = ScmParams(theta=math.pi, lam=1.0, n=2)
COND3 = ScmParams(theta=math.pi, lam=1.0, n=3)


# Reference: the per-cell loop the Pauli-expansion path replaced. Each cell
# rotates the reduced state qubit by qubit and reads diag(U rho U^dag).


def loop_joint_probs(mat, k, rotations):
    flat = mat.reshape(-1).copy()
    for pos, u in enumerate(rotations):
        apply_matrix(flat, u, (pos,), 2 * k)
    u_full = reduce(np.kron, rotations)
    probs = np.einsum("ob,ob->o", flat.reshape(2**k, 2**k), u_full.conj()).real
    return np.clip(probs, 0.0, None)


def loop_shannon_mi(probs, k, sys_pos, frac_pos):
    joint = probs.reshape([2] * k).transpose(sys_pos + frac_pos)
    joint = joint.reshape(2 ** len(sys_pos), 2 ** len(frac_pos))
    joint = joint / joint.sum()

    def h(p):
        p = p[p > 1e-15]
        return float(-np.sum(p * np.log(p)) / math.log(2))

    return h(joint.sum(axis=1)) + h(joint.sum(axis=0)) - h(joint.reshape(-1))


def loop_cell(state, sys_q, frac_q, sys_rotations, frac_rotations):
    """cmi_joint of one cell, by the loop."""
    sys_q, frac_q = tuple(sorted(sys_q)), tuple(sorted(frac_q))
    kept = tuple(sorted(sys_q + frac_q))
    mat = partial_trace(state, kept).matrix
    sys_pos = tuple(kept.index(q) for q in sys_q)
    frac_pos = tuple(kept.index(q) for q in frac_q)
    rotations = [None] * len(kept)
    for pos, u in zip(sys_pos + frac_pos, list(sys_rotations) + list(frac_rotations)):
        rotations[pos] = u
    probs = loop_joint_probs(mat, len(kept), rotations)
    return loop_shannon_mi(probs, len(kept), sys_pos, frac_pos)


def loop_grid(state, sys_q, frac_q, phi_steps, xi_steps, sys_basis):
    sys_rot = sys_basis.rotations()
    phis = np.linspace(0.0, math.pi, phi_steps)
    xis = np.linspace(0.0, 2 * math.pi, xi_steps, endpoint=False)
    return np.array(
        [
            [
                loop_cell(state, sys_q, frac_q, sys_rot, [basis_rotation(phi, xi)] * len(frac_q))
                for xi in xis
            ]
            for phi in phis
        ]
    )


_BASES = st.one_of(
    st.sampled_from("XYZ"),
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True)),
)


@st.composite
def basis_problems(draw):
    """A random k-qubit density matrix of random rank, a system anywhere in
    the register, a disjoint fraction, and Pauli or angle bases on both."""
    k = draw(st.integers(2, 5))
    rank = draw(st.integers(1, 2**k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(2**k, rank)) + 1j * rng.normal(size=(2**k, rank))
    rho = g @ g.conj().T
    state = DensityMatrix(k, rho / np.trace(rho).real)
    qubits = draw(st.permutations(range(k)))
    s = draw(st.integers(1, k - 1))
    f = draw(st.integers(1, k - s))
    sys_basis = MeasSetting(tuple(draw(st.lists(_BASES, min_size=s, max_size=s))))
    env_basis = MeasSetting(tuple(draw(st.lists(_BASES, min_size=f, max_size=f))))
    return state, tuple(qubits[:s]), tuple(qubits[s : s + f]), sys_basis, env_basis


@settings(max_examples=60, deadline=None)
@given(basis_problems())
def test_basis_cmi_matches_the_loop(problem):
    state, sys_q, frac_q, sys_basis, env_basis = problem
    sys_rot = sys_basis.rotations()
    env_rot = env_basis.rotations()
    want = loop_cell(state, sys_q, frac_q, sys_rot, env_rot)
    got = cmi_joint(state, sys_q, frac_q, env_basis, sys_basis)
    assert abs(got - want) < 1e-12
    grid = cmi_grid(state, sys_q, frac_q, 3, 4, sys_basis)
    assert np.max(np.abs(grid.values - loop_grid(state, sys_q, frac_q, 3, 4, sys_basis))) < 1e-12


@st.composite
def shared_basis_problems(draw):
    """A random pure state or mixed state of random rank on s + f qubits and
    up to one more, f = 1-6, a system of one or two qubits anywhere in the
    register, any basis on the system, and a small (phi, xi) grid: its first
    and last rows are phi = 0 and phi = pi."""
    f = draw(st.integers(1, 6))
    s = draw(st.integers(1, 2))
    k = s + f + draw(st.integers(0, 1 if s + f < 8 else 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        state = PureState(k, amps / np.linalg.norm(amps))
    else:
        rank = draw(st.integers(1, 2**k))
        g = rng.normal(size=(2**k, rank)) + 1j * rng.normal(size=(2**k, rank))
        rho = g @ g.conj().T
        state = DensityMatrix(k, rho / np.trace(rho).real)
    qubits = draw(st.permutations(range(k)))
    sys_basis = MeasSetting(tuple(draw(st.lists(_BASES, min_size=s, max_size=s))))
    steps = (draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    return state, tuple(qubits[:s]), tuple(qubits[s : s + f]), sys_basis, steps


def _grid_against_cmi_joint(state, sys_q, frac_q, steps, sys_basis):
    """The grid's values, each cell checked against cmi_joint to 1e-12."""
    grid = cmi_grid(state, sys_q, frac_q, *steps, sys_basis)
    for i, phi in enumerate(grid.phis):
        for j, xi in enumerate(grid.xis):
            setting = MeasSetting(((phi, xi),) * len(frac_q))
            assert abs(grid.values[i, j] - cmi_joint(state, sys_q, frac_q, setting, sys_basis)) < 1e-12
    return grid.values


@settings(max_examples=40, deadline=None)
@given(shared_basis_problems())
def test_class_sums_match_cmi_joint_per_cell(problem):
    # the grid sums Pauli-weight classes; cmi_joint contracts qubit by qubit
    state, sys_q, frac_q, sys_basis, steps = problem
    _grid_against_cmi_joint(state, sys_q, frac_q, steps, sys_basis)


@pytest.mark.parametrize("f", range(1, 7))
def test_pauli_weight_classes(f):
    classes, raised = dlab.darwinism._classes(f)
    assert len(classes) == math.comb(f + 3, 3) == len(set(map(tuple, classes.tolist())))
    weights = classes.sum(axis=1)
    assert weights.max() == f and np.all(np.diff(weights) >= 0)
    # raising a class below weight f adds one Pauli of that axis
    below = math.comb(f + 2, 3)
    assert raised.shape == (3, below)
    for axis in range(3):
        assert np.array_equal(classes[raised[axis]], classes[:below] + np.eye(3, dtype=int)[axis])


# Reference: the QMI loop the entropy table replaced. Every side is reduced
# through the checked `partial_trace` and diagonalised at its own size.


def loop_qmi(state, sys_q, frac_q):
    def h(qubits):
        return von_neumann_entropy(partial_trace(state, qubits))

    return h(sys_q) + h(frac_q) - h(tuple(sorted(sys_q + frac_q)))


def loop_averaged_qmi(state, sys_q, scheme):
    points = []
    for f in range(1, scheme.num_units + 1):
        arr = np.array([loop_qmi(state, sys_q, frac) for frac in scheme.fractions(f)])
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        points.append((f, float(arr.mean()), stderr))
    return points


@st.composite
def qmi_problems(draw):
    """A random k-qubit pure or mixed state, a system anywhere in the
    register, and environment units of one or more qubits over some or all
    of the rest."""
    k = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        state = PureState(k, amps / np.linalg.norm(amps))
    else:
        rank = draw(st.integers(1, 2**k))
        g = rng.normal(size=(2**k, rank)) + 1j * rng.normal(size=(2**k, rank))
        rho = g @ g.conj().T
        state = DensityMatrix(k, rho / np.trace(rho).real)
    qubits = draw(st.permutations(range(k)))
    s = draw(st.integers(1, k - 1))
    env = qubits[s : s + draw(st.integers(1, k - s))]
    cuts = sorted(draw(st.sets(st.integers(1, len(env) - 1)))) if len(env) > 1 else []
    units = tuple(env[a:b] for a, b in zip([0] + cuts, cuts + [len(env)]))
    return state, tuple(qubits[:s]), PartitionScheme(units)


@settings(max_examples=60, deadline=None)
@given(qmi_problems())
def test_qmi_matches_the_loop(problem):
    state, sys_q, scheme = problem
    for f in range(1, scheme.num_units + 1):
        for frac in scheme.fractions(f):
            assert abs(qmi(state, sys_q, frac) - loop_qmi(state, sys_q, frac)) < 1e-12
    got = averaged_qmi(state, sys_q, scheme).points
    want = loop_averaged_qmi(state, sys_q, scheme)
    assert [f for f, _, _ in got] == [f for f, _, _ in want]
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


def test_mixed_whole_register_entropy_reads_the_spectrum(monkeypatch):
    # units cover the rest of the register, so the last fraction's H(SF) is
    # the state's own entropy: it comes from the validation spectrum, and
    # only the 14 proper sides are diagonalised, none of them 32x32
    rng = np.random.default_rng(6)
    g = rng.normal(size=(32, 5)) + 1j * rng.normal(size=(32, 5))
    rho = g @ g.conj().T
    state = DensityMatrix(5, rho / np.trace(rho).real)
    scheme = PartitionScheme(((1, 2), (3,), (4,)))
    want = loop_averaged_qmi(state, (0,), scheme)
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    got = averaged_qmi(state, (0,), scheme).points
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
    assert len(sizes) == 14 and max(sizes) < 32


def test_noisy_curve_splits_every_matrix_above_the_cutoff(monkeypatch):
    # noisy full n=4 at t_max: the 512-row state, its 256-row fraction and
    # the 128-row sides go to the eigensolver in blocks of at most 32 rows;
    # only the 64-row sides, below the block cutoff, go whole
    params = ScmParams(theta=math.pi, lam=1.0, n=4, scenario=Scenario.FULL)
    noise = NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.001)
    scheme = partition_scheme(params, SchemeMode.PER_PAIR)
    want = loop_averaged_qmi(_circuit_state(params, T_MAX, noise), (0,), scheme)
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(a.shape[-1]) or eigvalsh(a))
    got = averaged_qmi(_circuit_state(params, T_MAX, noise), (0,), scheme).points
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
    assert max(rows) == 64
    assert max(r for r in rows if r != 64) == 32


def _circuit_state(params, t, noise=None):
    build = build_full_circuit if params.scenario is Scenario.FULL else build_condensed_circuit
    circuit = build(t, params)
    return run_statevector(circuit) if noise is None else run_density(circuit, noise)


def _eig_calls(fn):
    """fn(), and how many times it called np.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    np.linalg.eigvalsh = lambda a: calls.append(len(a)) or eigvalsh(a)
    try:
        result = fn()
    finally:
        np.linalg.eigvalsh = eigvalsh
    return result, len(calls)


@st.composite
def ideal_runs(draw):
    """An ideal circuit run at any time, full n <= 5 or condensed n <= 9,
    with every partition mode the scenario takes."""
    scenario = draw(st.sampled_from(Scenario))
    n = draw(st.integers(1, 5 if scenario is Scenario.FULL else 9))
    modes = [m for m in SchemeMode if scenario is Scenario.FULL or m is not SchemeMode.ANCILLAE_ONLY]
    params = ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario)
    t = draw(st.floats(0.0, 3.0))
    return params, t, draw(st.sampled_from(modes))


@settings(max_examples=10, deadline=None)
@given(ideal_runs())
# full per_qubit is the mode whose orbits differ in size, so the weights matter
@example((ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL), T_REC, SchemeMode.PER_QUBIT))
# reduced spectra at t = 1e-12 hold real eigenvalues of about 1e-12, which
# an entropy cutoff at that size would drop from some sides and not others
@example((ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL), 1e-12, SchemeMode.PER_QUBIT))
def test_orbit_average_matches_the_loop(run):
    params, t, mode = run
    state = _circuit_state(params, t)
    scheme = partition_scheme(params, mode)
    got, orbit_eigs = _eig_calls(lambda: averaged_qmi(state, (0,), scheme).points)
    # the same units without their collisions take every fraction
    every = PartitionScheme(scheme.units)
    all_fractions, all_eigs = _eig_calls(lambda: averaged_qmi(state, (0,), every).points)
    # the loop diagonalises every side at full size: 2-13 s on 10 and 11
    # qubits, where the all-fractions path (itself checked against the loop
    # by test_qmi_matches_the_loop) referees instead
    want = loop_averaged_qmi(state, (0,), scheme) if state.num_qubits <= 9 else all_fractions
    assert [f for f, _, _ in got] == [f for f, _, _ in want]
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
    # from three collisions on, the orbit path diagonalises fewer sides (with
    # two, the entropy table already shares the sides the orbits would save)
    assert orbit_eigs < all_eigs if params.n > 2 else orbit_eigs <= all_eigs
    pairs = orbit_fractions(state, (0,), scheme, range(1, scheme.num_units + 1))
    for f, weighted in pairs.items():
        assert sum(w for _, w in weighted) == math.comb(scheme.num_units, f)


def test_orbit_labels_count_pairs_and_lone_qubits():
    params = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    state = _circuit_state(params, T_REC)
    per_pair = orbit_fractions(state, (0,), partition_scheme(params, SchemeMode.PER_PAIR), (1, 2, 3))
    assert per_pair == {1: (((1, 2), 3),), 2: (((1, 2, 3, 4), 3),), 3: (((1, 2, 3, 4, 5, 6), 1),)}
    # two qubits of three pairs: one whole pair (3 ways), two emitters, two
    # ancillae, or an emitter and another pair's ancilla (6 ways)
    per_qubit = orbit_fractions(state, (0,), partition_scheme(params, SchemeMode.PER_QUBIT), (2,))
    assert per_qubit == {2: (((1, 2), 3), ((1, 3), 3), ((1, 4), 6), ((2, 4), 3))}


def loop_orbit_fractions(state, sys_qubits, scheme, sizes):
    """`orbit_fractions` by labelling every fraction: a symmetric state's
    orbit is the sorted tuple of a fraction's per-collision position
    patterns, represented by its first fraction and weighted by its count."""
    collisions = scheme.collisions
    collision_qubits = {q for c in collisions for q in c}
    symmetric = (
        len(collisions) > 1
        and not collision_qubits & set(sys_qubits)
        and collision_qubits <= set(range(state.num_qubits))
        and dlab.darwinism._unchanged_by_collision_swaps(state, collisions)
    )
    position = {q: (c, i) for c, coll in enumerate(collisions) for i, q in enumerate(coll)}

    def orbit(frac):
        if not symmetric:
            return frac
        patterns = [[] for _ in collisions]
        for q in frac:
            c, i = position[q]
            patterns[c].append(i)
        return tuple(sorted(tuple(sorted(p)) for p in patterns))

    out = {}
    for size in sizes:
        orbits = {}
        for frac in scheme.fractions(size):
            orbits.setdefault(orbit(frac), [frac, 0])[1] += 1
        out[size] = tuple(map(tuple, orbits.values()))
    return out


@pytest.mark.parametrize("scenario, max_n", [(Scenario.CONDENSED, 9), (Scenario.FULL, 5)])
def test_dealt_orbits_match_the_labelled_fractions(scenario, max_n):
    # pairs, weights and order, for every mode and size 0 to one past the units
    modes = [m for m in SchemeMode if scenario is Scenario.FULL or m is not SchemeMode.ANCILLAE_ONLY]
    for n in range(1, max_n + 1):
        params = ScmParams(theta=math.pi, lam=1.0, n=n, scenario=scenario)
        for t in (0.0, 0.3, T_MAX, T_REC):
            state = _circuit_state(params, t)
            for mode in modes:
                scheme = partition_scheme(params, mode)
                sizes = range(scheme.num_units + 2)
                assert orbit_fractions(state, (0,), scheme, sizes) == loop_orbit_fractions(state, (0,), scheme, sizes)


def test_asymmetric_states_take_every_fraction():
    params = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    scheme = partition_scheme(params, SchemeMode.PER_PAIR)
    every = PartitionScheme(scheme.units)
    sizes = range(1, scheme.num_units + 1)
    unit_weights = {f: tuple((frac, 1) for frac in scheme.fractions(f)) for f in sizes}
    # hardware-like noise acts on the system between its CZs, so the noisy
    # state tells the collisions apart: every fraction, and the very curve
    # of a scheme that records no collisions
    noisy = _circuit_state(params, T_REC, NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.001))
    assert orbit_fractions(noisy, (0,), scheme, sizes) == unit_weights
    assert averaged_qmi(noisy, (0,), scheme) == averaged_qmi(noisy, (0,), every)
    # a phase on one pair leaves the diagonal symmetric, not the amplitudes
    ideal = _circuit_state(params, T_REC)
    phase = np.where(np.arange(2**7) & 1, 1j, 1.0)  # i on qubit 6 = |1>
    shifted = PureState(7, ideal.amplitudes * phase)
    assert orbit_fractions(shifted, (0,), scheme, sizes) == unit_weights
    # a system inside the collisions, or a scheme without them
    assert orbit_fractions(ideal, (1,), partition_scheme(params, SchemeMode.ANCILLAE_ONLY), (1,)) == {
        1: (((2,), 1), ((4,), 1), ((6,), 1))
    }
    assert orbit_fractions(ideal, (0,), every, sizes) == unit_weights
    assert orbit_fractions(ideal, (0,), scheme, sizes) != unit_weights


def test_collisions_must_hold_the_units_alike():
    assert partition_scheme(FULL2, SchemeMode.ANCILLAE_ONLY).collisions == ((1, 2), (3, 4))
    assert PartitionScheme(((1,), (2,))).collisions == ()
    for units, collisions in (
        (((1,), (3,)), ((1, 2), (3, 4, 5))),  # collisions of two sizes
        (((1,), (4,)), ((1, 2), (3, 4))),  # an emitter in one, an ancilla in the other
        (((1, 3),), ((1, 2), (3, 4))),  # a unit across two collisions
        (((1,), (3,), (5,)), ((1, 2), (3, 4))),  # a unit outside every collision
        (((1,), (2,)), ((1, 2), (2, 3))),  # collisions that overlap
    ):
        with pytest.raises(ValueError, match="collisions must"):
            PartitionScheme(units, collisions)


def loop_holevo(state, sys_q, frac_q):
    """chi = H(F) - sum_i p_i H(F | system outcome i), each conditional state
    projected explicitly and reduced through `partial_trace`."""
    both = sorted(sys_q + frac_q)
    rho = partial_trace(state, both).matrix
    k = len(both)
    bits = (np.arange(2**k)[:, None] >> (k - 1 - np.arange(k))) & 1
    sys_pos = [both.index(q) for q in sorted(sys_q)]
    frac_pos = [both.index(q) for q in sorted(frac_q)]
    chi = von_neumann_entropy(partial_trace(state, frac_q))
    for outcome in np.unique(bits[:, sys_pos], axis=0):
        proj = np.diag(np.all(bits[:, sys_pos] == outcome, axis=1).astype(float))
        cond = proj @ rho @ proj
        p_i = np.trace(cond).real
        if p_i < 1e-15:
            continue
        reduced = partial_trace(DensityMatrix(k, cond / p_i), frac_pos)
        chi -= p_i * von_neumann_entropy(reduced)
    return chi


@settings(max_examples=60, deadline=None)
@given(qmi_problems())
def test_holevo_matches_the_loop(problem):
    state, sys_q, scheme = problem
    for f in range(1, scheme.num_units + 1):
        for frac in scheme.fractions(f):
            want = loop_holevo(state, sys_q, frac)
            assert abs(holevo_bound(state, sys_q, frac) - want) < 1e-12


def test_construction_still_checks_what_reductions_skip():
    # the QMI path reads bare reduced arrays of validated states; a matrix
    # with a negative eigenvalue is still refused where it is built
    rho = partial_trace(ideal_global_state(T_REC, COND3), (0, 1, 2))
    w, v = np.linalg.eigh(rho.matrix)
    w[0] -= 1e-6  # a rank-2 state: this eigenvalue was 0
    w[-1] += 1e-6
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(3, (v * w) @ v.conj().T)


def test_partition_scheme_layouts():
    full = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    assert partition_scheme(full, SchemeMode.PER_PAIR).units == ((1, 2), (3, 4), (5, 6))
    assert partition_scheme(full, SchemeMode.PER_QUBIT).units == tuple(
        (q,) for q in range(1, 7)
    )
    assert partition_scheme(full, SchemeMode.ANCILLAE_ONLY).units == ((2,), (4,), (6,))
    cond = ScmParams(theta=math.pi, lam=1.0, n=6)
    assert partition_scheme(cond, SchemeMode.PER_QUBIT).units == tuple(
        (q,) for q in range(1, 7)
    )
    with pytest.raises(ValueError):
        partition_scheme(cond, SchemeMode.ANCILLAE_ONLY)
    # each collision's qubits, written out, and the schemes built from them
    for n, full_units, cond_units in (
        (1, ((1, 2),), ((1,),)),
        (3, ((1, 2), (3, 4), (5, 6)), ((1,), (2,), (3,))),
    ):
        full = ScmParams(theta=math.pi, lam=1.0, n=n, scenario=Scenario.FULL)
        cond = ScmParams(theta=math.pi, lam=1.0, n=n)
        assert full.units == full_units and cond.units == cond_units
        assert partition_scheme(full, SchemeMode.PER_PAIR).units == full_units
        assert partition_scheme(full, SchemeMode.PER_QUBIT).units == tuple(
            (q,) for q in range(1, 2 * n + 1)
        )
        assert partition_scheme(full, SchemeMode.ANCILLAE_ONLY).units == tuple((a,) for _, a in full_units)
        for mode in (SchemeMode.PER_PAIR, SchemeMode.PER_QUBIT):
            assert partition_scheme(cond, mode).units == cond_units


def test_partition_scheme_validation_and_fractions():
    with pytest.raises(ValueError):
        PartitionScheme(((),))
    with pytest.raises(ValueError):
        PartitionScheme(((1,), (1, 2)))
    scheme = partition_scheme(ScmParams(theta=math.pi, lam=1.0, n=6), SchemeMode.PER_QUBIT)
    assert len(list(scheme.fractions(2))) == 15  # C(6, 2)
    assert list(scheme.fractions(6)) == [(1, 2, 3, 4, 5, 6)]


def test_qmi_symmetry_and_purity():
    psi = ideal_global_state(T_CLOSE, COND2)
    assert abs(qmi(psi, (0,), (1, 2)) - qmi(psi, (1, 2), (0,))) < 1e-10
    # pure global state: I(S : everything else) = 2 H(S)
    h_s = von_neumann_entropy(partial_trace(psi, (0,)))
    assert abs(qmi(psi, (0,), (1, 2)) - 2 * h_s) < 1e-10


def test_qmi_monotone_under_enlargement():
    psi = ideal_global_state(T_CLOSE, COND3)
    assert qmi(psi, (0,), (1,)) <= qmi(psi, (0,), (1, 2)) + 1e-10
    assert qmi(psi, (0,), (1, 2)) <= qmi(psi, (0,), (1, 2, 3)) + 1e-10


def test_qmi_errors():
    psi = ideal_global_state(0.5, COND2)
    with pytest.raises(ValueError):
        qmi(psi, (0,), (0, 1))
    with pytest.raises(ValueError):
        qmi(psi, (), (1,))
    with pytest.raises(ValueError):
        qmi(psi, (0,), (7,))


def test_averaged_qmi_plateau():
    # classical plateau at 1 bit for proper fractions, 2 bits for the whole;
    # n=12 is 4095 fractions of a 13-qubit state
    for n in (3, 12):
        params = ScmParams(theta=math.pi, lam=1.0, n=n)
        psi = ideal_global_state(T_MAX, params)
        curve = averaged_qmi(psi, (0,), partition_scheme(params, SchemeMode.PER_QUBIT))
        assert [f for f, _, _ in curve.points] == list(range(1, n + 1))
        for f, v, se in curve.points[:-1]:
            assert abs(v - 1.0) < 1e-9 and se < 1e-9
        assert abs(curve.points[-1][1] - 2.0) < 1e-9
        assert curve.values() == [v for _, v, _ in curve.points]


def test_averaged_qmi_spread_detects_unit_mixing():
    # with three pairs, tracing out a whole spectator pair kills the branch
    # cross term, so intact pairs (1 bit) and mixed doubles (0) disagree
    full3 = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    psi = ideal_global_state(T_MAX, full3)
    scheme = partition_scheme(full3, SchemeMode.PER_QUBIT)
    curve = averaged_qmi(psi, (0,), scheme)
    assert curve.points[1][2] > 1e-3
    pair_scheme = partition_scheme(full3, SchemeMode.PER_PAIR)
    pair_curve = averaged_qmi(psi, (0,), pair_scheme)
    assert pair_curve.points[0][2] < 1e-9  # pairs are exchangeable


def test_system_coherence_tracks_oracle():
    for p in (COND3, FULL2):
        for t in np.linspace(0.0, T_REC, 12):
            psi = ideal_global_state(t, p)
            assert abs(system_coherence(psi) - coherence_finite(t, p)) < 1e-12
    # the readout of a reconstructed qubit, and of the system of a mixed register
    plus = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2))
    assert system_coherence(plus.density_matrix()) == pytest.approx(1.0, abs=1e-14)
    assert system_coherence(PureState.zero(1).density_matrix()) == 0.0
    assert system_coherence(DensityMatrix.maximally_mixed(2)) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_system_coherence_reads_the_checked_reduction(k, seed, pure, data):
    # the bare 2x2 reduction gives exactly what the checked partial trace reads
    rng = np.random.default_rng(seed)
    if pure:
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        state = PureState(k, amps / np.linalg.norm(amps))
    else:
        rank = data.draw(st.integers(1, 2**k))
        g = rng.normal(size=(2**k, rank)) + 1j * rng.normal(size=(2**k, rank))
        rho = g @ g.conj().T
        state = DensityMatrix(k, rho / np.trace(rho).real)
    q = data.draw(st.integers(0, k - 1))
    assert system_coherence(state, q) == 2 * partial_trace(state, [q]).matrix[0, 1].real
    for outside in (-1, k):
        with pytest.raises(ValueError):
            system_coherence(state, outside)


def test_cmi_joint_matched_bases():
    # at t_max the pointer records are perfect: Z on the system against X on
    # the pair qubits reads out one full bit
    psi = ideal_global_state(T_MAX, COND2)
    assert abs(cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X")) - 1.0) < 1e-10
    assert abs(cmi_joint(psi, (0,), (1, 2), MeasSetting.pauli("XX")) - 1.0) < 1e-10
    # mismatched basis reads nothing
    assert cmi_joint(psi, (0,), (1,), MeasSetting.pauli("Z")) < 1e-10


def test_cmi_joint_errors():
    psi = ideal_global_state(T_MAX, COND2)
    with pytest.raises(ValueError):
        cmi_joint(psi, (0,), (1, 2), MeasSetting.pauli("X"))
    with pytest.raises(ValueError):
        cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"), sys_basis=MeasSetting.pauli("ZZ"))


@pytest.mark.parametrize("sys_q, frac_q", [((0, 0), (1,)), ((0,), (1, 1))])
def test_repeated_qubits_are_refused_before_any_work(monkeypatch, sys_q, frac_q):
    def reduce_nothing(*args):
        raise AssertionError("the state was reduced before its qubit lists were checked")

    monkeypatch.setattr(dlab.darwinism, "_reduce", reduce_nothing)
    psi = ideal_global_state(T_MAX, COND2)
    for call in (
        lambda: qmi(psi, sys_q, frac_q),
        lambda: holevo_bound(psi, sys_q, frac_q),
        lambda: cmi_joint(psi, sys_q, frac_q, MeasSetting.pauli("X" * len(frac_q))),
        lambda: cmi_grid(psi, sys_q, frac_q, 3, 3),
    ):
        with pytest.raises(ValueError, match="distinct"):
            call()


def test_cmi_joint_sampled_consistency():
    psi = ideal_global_state(T_MAX, COND2)
    exact = cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"))
    est = cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"), shots=100_000, seed=4)
    assert abs(est - exact) < 0.02
    again = cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"), shots=100_000, seed=4)
    assert est == again


def test_cmi_joint_sampled_errors():
    psi = ideal_global_state(T_MAX, COND2)
    with pytest.raises(ValueError):
        cmi_joint(psi, (0,), (1, 2), MeasSetting.pauli("X"), shots=100, seed=0)
    with pytest.raises(ValueError):
        cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"), MeasSetting.pauli("ZZ"), shots=100, seed=0)


def _sampled_grid_problems():
    noise = NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.001)
    states = (
        ideal_global_state(T_REC, FULL2),
        run_density(build_condensed_circuit(T_MAX, COND3), noise),
    )
    for state, flip in itertools.product(states, (0.0, 0.05)):
        for sys_q, frac in (((0,), (1, 2)), ((0,), (1, 2, 3)), ((2,), (0, 3))):
            yield state, sys_q, frac, flip


def test_sampled_grid_first_cell_is_cmi_joint():
    # the grid's one generator is seeded with `seed`, and cell (0, 0) is
    # drawn first, so it is cmi_joint sampled with that seed, flips included.
    # A later cell is not compared with a per-cell loop: numpy's binomial
    # sampler branches on floor((n + 1) p) and on p > 0.5, so an ulp in a
    # Born probability can change a draw
    for state, sys_q, frac, flip in _sampled_grid_problems():
        grid = cmi_grid(state, sys_q, frac, 5, 4, shots=1000, seed=7, readout_flip=flip)
        setting = MeasSetting(((0.0, 0.0),) * len(frac))
        assert grid.values[0, 0] == cmi_joint(state, sys_q, frac, setting, shots=1000, seed=7, readout_flip=flip)


def test_sampled_grid_stream_crosses_chunks(monkeypatch):
    # the cells draw from one stream that carries on from chunk to chunk, so
    # the grid does not depend on how many cells a chunk holds
    problems = list(_sampled_grid_problems())
    whole = [cmi_grid(state, s, f, 9, 8, shots=1000, seed=7, readout_flip=r).values for state, s, f, r in problems]
    draws, draw = [], dlab.darwinism._draw

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(dlab.darwinism, "_CHUNK_BYTES", 4096)
    monkeypatch.setattr(dlab.darwinism, "_draw", counted)
    for want, (state, s, f, r) in zip(whole, problems):
        draws.clear()
        got = cmi_grid(state, s, f, 9, 8, shots=1000, seed=7, readout_flip=r).values
        assert len(draws) > 1
        assert np.array_equal(got, want)


def test_sampled_cmi_checks_shots_before_any_work(monkeypatch):
    # a bad shot count is refused on entry, before the state is reduced
    def reduced(*args):
        raise AssertionError("reduced before shots was checked")

    monkeypatch.setattr(dlab.darwinism, "_reduced_parts", reduced)
    psi = ideal_global_state(T_MAX, COND2)
    for shots in (0, 2.5):
        with pytest.raises(ValueError, match="shots"):
            cmi_joint(psi, (0,), (1,), MeasSetting.pauli("X"), shots=shots)
        with pytest.raises(ValueError, match="shots"):
            cmi_grid(psi, (0,), (1,), 3, 3, shots=shots)


def test_sampled_cmi_draws_like_sample():
    # the draw runs over outcomes in register order, as `sample` does, so a
    # system at the end of the register sees the same counts for a seed, and
    # readout flips are folded in as `sample` folds them
    g = np.random.default_rng(5).normal(size=(8, 8, 2)) @ np.array([1, 1j])
    state = DensityMatrix(3, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    setting = MeasSetting(("X", "Y", (0.4, 1.1)))
    sys_basis = MeasSetting(((0.4, 1.1),))
    env_basis = MeasSetting.pauli("XY")
    exact = cmi_joint(state, (2,), (0, 1), env_basis, sys_basis)
    for flip in (0.0, 0.3):
        freqs = sample(state, setting, 1000, seed=9, readout_flip=flip).frequencies()
        want = loop_shannon_mi(freqs, 3, (2,), (0, 1))
        got = cmi_joint(state, (2,), (0, 1), env_basis, sys_basis, shots=1000, seed=9, readout_flip=flip)
        assert abs(got - want) < 1e-12
        # the exact value has no flips
        assert cmi_joint(state, (2,), (0, 1), env_basis, sys_basis, readout_flip=flip) == exact


def test_cmi_grid_peak_location():
    psi = ideal_global_state(T_MAX, COND2)
    grid = cmi_grid(psi, (0,), (1,), phi_steps=13, xi_steps=12)
    assert grid.values.shape == (13, 12)
    phi, xi, peak = grid.argmax()
    assert abs(phi - math.pi / 2) < 1e-12 and xi == 0.0
    assert abs(peak - 1.0) < 1e-6
    assert grid.max_value == peak
    # a later snapshot has already lost part of the record
    later = cmi_grid(ideal_global_state(2 * T_MAX, COND2), (0,), (1,), phi_steps=13, xi_steps=12)
    assert later.max_value < peak - 0.01


def test_cmi_grid_validation():
    psi = ideal_global_state(T_MAX, COND2)
    with pytest.raises(ValueError):
        cmi_grid(psi, (0,), (1,), phi_steps=1)
    with pytest.raises(ValueError):
        BasisGrid((0.0, 1.0), (0.0,), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        BasisGrid((0.0, 1.0), (0.0,), np.array([[-1.0], [0.0]]))
    with pytest.raises(ValueError):
        BasisGrid((0.0, 1.0), (0.0,), np.array([[np.nan], [0.0]]))


def test_cmi_grid_checks_steps_before_any_work(monkeypatch):
    # a step count is refused on entry, before the state is reduced; 4.0
    # must not reach the cached table of the 4-step grid
    psi = ideal_global_state(T_MAX, COND2)
    cmi_grid(psi, (0,), (1,), 4, 4)

    def reduced(*args):
        raise AssertionError("reduced before the steps were checked")

    monkeypatch.setattr(dlab.darwinism, "_reduced_parts", reduced)
    refusals = [(bad, "must be an integer") for bad in (True, 2.5, 4.0, "5")]
    for bad, message in refusals + [(1, "must be at least 2, got 1"), (-3, "must be at least 2, got -3")]:
        with pytest.raises(ValueError, match=f"phi_steps {message}"):
            cmi_grid(psi, (0,), (1,), bad, 4)
        with pytest.raises(ValueError, match=f"xi_steps {message}"):
            cmi_grid(psi, (0,), (1,), 4, bad)


def test_basis_grid_keeps_its_callers_array():
    # a writable input is copied and left writable; a read-only one is kept
    values = np.zeros((2, 2))
    grid = BasisGrid([0.0, 1.0], [0.0, 1.0], values)
    assert values.flags.writeable and grid.values is not values
    values[0, 0] = 1.0
    assert grid.values[0, 0] == 0.0 and not grid.values.flags.writeable
    assert grid.phis == (0.0, 1.0) and isinstance(grid.phis, tuple) and isinstance(grid.xis, tuple)
    values.setflags(write=False)
    assert BasisGrid((0.0, 1.0), (0.0, 1.0), values).values is values


def test_grid_table_is_read_only():
    phis, xis, every, mirror = dlab.darwinism._grid_table(5, 6)
    assert isinstance(phis, tuple) and isinstance(xis, tuple)
    for arr in (*every, *mirror):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0


_REAL_SYSTEM_BASES = st.one_of(
    st.sampled_from("ZX"),
    st.tuples(st.floats(0.0, math.pi), st.sampled_from((0.0, math.pi))),
)


@st.composite
def real_mirror_problems(draw):
    """A random real pure state or real mixed state of random rank (real
    symmetric PSD) on s + f qubits and up to one more, a system of one or two
    qubits anywhere in the register in Y-free bases, and a grid with 2-7 xi
    steps, odd and even."""
    f = draw(st.integers(1, 4))
    s = draw(st.integers(1, 2))
    k = s + f + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        amps = rng.normal(size=2**k)
        state = PureState(k, amps / np.linalg.norm(amps))
    else:
        g = rng.normal(size=(2**k, draw(st.integers(1, 2**k))))
        rho = g @ g.T
        state = DensityMatrix(k, rho / np.trace(rho))
    qubits = draw(st.permutations(range(k)))
    sys_basis = MeasSetting(tuple(draw(st.lists(_REAL_SYSTEM_BASES, min_size=s, max_size=s))))
    steps = (draw(st.integers(2, 4)), draw(st.integers(2, 7)))
    return state, tuple(qubits[:s]), tuple(qubits[s : s + f]), sys_basis, steps


@settings(max_examples=40, deadline=None)
@given(real_mirror_problems())
def test_real_grids_mirror_xi(problem):
    # CMI(phi, 2 pi - xi) = CMI(phi, xi) for a real state and a Y-free
    # system basis: column xi_steps - j is column j, bit for bit
    state, sys_q, frac_q, sys_basis, steps = problem
    values = _grid_against_cmi_joint(state, sys_q, frac_q, steps, sys_basis)
    assert np.array_equal(values[:, 1:], values[:, :0:-1])


def test_complex_states_and_y_bases_keep_every_cell():
    # (|0>|0> + |1>|b>) / sqrt 2 with b's Bloch vector in the x-y plane is
    # complex; a real state seen through a system basis with a Y component
    # is not mirrored either. Each cell keeps its own value
    b = np.array([1, np.exp(1j * math.pi / 3)]) / math.sqrt(2)
    amps = np.random.default_rng(3).normal(size=8)
    cases = (
        (PureState(2, np.concatenate([[1, 0], b]) / math.sqrt(2)), (0,), (1,), None),
        (PureState(3, amps / np.linalg.norm(amps)), (0,), (1, 2), MeasSetting(((0.9, 1.2),))),
    )
    for state, sys_q, frac_q, sys_basis in cases:
        values = _grid_against_cmi_joint(state, sys_q, frac_q, (5, 6), sys_basis)
        assert np.max(np.abs(values[:, 1:] - values[:, :0:-1])) > 1e-6


def test_sampled_grid_draws_every_cell_from_its_own_probabilities():
    # a sampled grid of a mirrored state still computes every cell
    rng = np.random.default_rng(8)
    g = rng.normal(size=(16, 5))
    state = DensityMatrix(4, g @ g.T / np.trace(g @ g.T))
    phis = np.linspace(0.0, math.pi, 5)
    xis = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    blochs = dlab.darwinism._bloch_rows(basis_rotation(phis[:, None], xis[None, :]).reshape(-1, 2, 2))[:, 0, 1:]
    for sys_q, frac_q, flip in (((0,), (1, 2), 0.0), ((2,), (0, 1, 3), 0.05)):
        rows = dlab.darwinism._system_rows(None, len(sys_q))
        system, order = dlab.darwinism._system_side(state, sys_q, frac_q, rows)
        chunks = dlab.darwinism._class_chunks(system, blochs)
        want = dlab.darwinism._basis_cmi(chunks, order, 1000, 7, flip).reshape(5, 6)
        got = cmi_grid(state, sys_q, frac_q, 5, 6, shots=1000, seed=7, readout_flip=flip).values
        assert np.array_equal(got, want)


def test_holevo_bound_values():
    psi = ideal_global_state(T_MAX, COND2)
    # pointer branches are orthogonal: the fraction carries the full bit
    assert abs(holevo_bound(psi, (0,), (1,)) - 1.0) < 1e-9
    assert abs(holevo_bound(psi, (0,), (1, 2)) - 1.0) < 1e-9
    # no collisions yet, nothing recorded
    assert holevo_bound(ideal_global_state(0.0, COND2), (0,), (1,)) < 1e-12


def test_holevo_bound_drops_a_branch_of_probability_zero():
    # the system in a pointer state: the other outcome's block is all zero
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    for bit in (0, 1):
        psi = PureState(3, reduce(np.kron, [np.eye(2)[bit], plus, plus]))
        for state in (psi, psi.density_matrix()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for frac in ((1,), (1, 2)):
                    assert abs(holevo_bound(state, (0,), frac)) < 1e-12


def test_information_chain_ordering():
    # accessible (fixed-basis) <= Holevo <= quantum mutual information
    psi = ideal_global_state(T_REC, COND2)
    for frac in ((1,), (1, 2)):
        env = MeasSetting.pauli("X" * len(frac))
        acc = cmi_joint(psi, (0,), frac, env)
        chi = holevo_bound(psi, (0,), frac)
        both = qmi(psi, (0,), frac)
        assert acc <= chi + 1e-9
        assert chi <= both + 1e-9


def test_pauli_scan_single_qubits_are_blank():
    # one qubit of a purified pair holds no correlation with the system
    psi = ideal_global_state(T_MAX, FULL2)
    scheme = partition_scheme(FULL2, SchemeMode.PER_QUBIT)
    entries = pauli_cmi_scan(psi, (0,), 1, scheme)
    assert len(entries) == 9
    assert max(e.value for e in entries) < 1e-10


def test_pauli_scan_pairs_recover_the_bit():
    psi = ideal_global_state(T_MAX, FULL2)
    scheme = partition_scheme(FULL2, SchemeMode.PER_PAIR)
    entries = pauli_cmi_scan(psi, (0,), 2, scheme)
    assert len(entries) == 27
    best = max(entries, key=lambda e: e.value)
    assert best.value > 0.4
    assert best.sys_basis == "Z"
    for e in entries:
        sys_rot = MeasSetting.pauli(e.sys_basis).rotations()
        env_rot = MeasSetting.pauli(e.env_basis).rotations()
        loop = [loop_cell(psi, (0,), frac, sys_rot, env_rot) for frac in scheme.fractions(1)]
        assert abs(e.value - np.mean(loop)) < 1e-12


def test_pauli_scan_averages_over_orbits(monkeypatch):
    params = ScmParams(theta=math.pi, lam=1.0, n=3, scenario=Scenario.FULL)
    reduced = []
    reduced_parts = dlab.darwinism._reduced_parts
    monkeypatch.setattr(dlab.darwinism, "_reduced_parts", lambda *a: reduced.append(1) or reduced_parts(*a))

    def scan(state, size, scheme):
        reduced.clear()
        entries = pauli_cmi_scan(state, (0,), size, scheme)
        return np.array([e.value for e in entries]), len(reduced)

    ideal = _circuit_state(params, T_REC)
    noisy = _circuit_state(params, T_REC, NoiseModel(depol_1q=0.001, depol_2q=0.01, amp_damp_gamma=0.001))
    # per_qubit orbits of two qubits differ in size, so the weights matter
    for mode, size in ((SchemeMode.PER_QUBIT, 2), (SchemeMode.PER_PAIR, 4)):
        scheme = partition_scheme(params, mode)
        every = PartitionScheme(scheme.units)  # no collisions: every fraction
        got, orbit_count = scan(ideal, size, scheme)
        want, every_count = scan(ideal, size, every)
        assert np.max(np.abs(got - want)) < 1e-12 and orbit_count < every_count
        # the noisy state tells the collisions apart: every fraction, same bytes
        assert pauli_cmi_scan(noisy, (0,), size, scheme) == pauli_cmi_scan(noisy, (0,), size, every)


def test_pauli_scan_expands_each_fraction_once(monkeypatch):
    # every system setting contracts the one expansion of the fraction's reduction
    expanded = []
    expansion = dlab.darwinism._pauli_expansion
    monkeypatch.setattr(dlab.darwinism, "_pauli_expansion", lambda *a: expanded.append(1) or expansion(*a))
    psi = ideal_global_state(T_REC, FULL2)
    for sys_q in ((0,), (0, 1)):
        # every single qubit outside the system is a unit, and no collisions: every fraction
        every = PartitionScheme(tuple((q,) for q in range(len(sys_q), 5)))
        for size in (1, 2):
            expanded.clear()
            pauli_cmi_scan(psi, sys_q, size, every)
            assert len(expanded) == math.comb(every.num_units, size)


def test_pauli_scan_system_off_the_start():
    # a two-qubit system behind and between fraction qubits: the settings and
    # outcome axes of both sides come back in register order
    rng = np.random.default_rng(11)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    g = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
    rho = g @ g.conj().T
    states = (PureState(5, amps / np.linalg.norm(amps)), DensityMatrix(5, rho / np.trace(rho).real))
    scheme = PartitionScheme(((0,), (2,), (4,)))
    for state in states:
        for size in (1, 2):
            entries = pauli_cmi_scan(state, (3, 1), size, scheme)
            assert len(entries) == 9 * 3**size
            for e in entries:
                sys_rot = MeasSetting.pauli(e.sys_basis).rotations()
                env_rot = MeasSetting.pauli(e.env_basis).rotations()
                loop = [loop_cell(state, (3, 1), frac, sys_rot, env_rot) for frac in scheme.fractions(size)]
                assert abs(e.value - np.mean(loop)) < 1e-12


def test_pauli_scan_errors(monkeypatch):
    psi = ideal_global_state(T_MAX, FULL2)
    scheme = partition_scheme(FULL2, SchemeMode.PER_PAIR)
    with pytest.raises(ValueError):
        pauli_cmi_scan(psi, (0,), 0, scheme)
    with pytest.raises(ValueError):
        pauli_cmi_scan(psi, (0,), 3, scheme)  # pairs cannot sum to 3 qubits
    with pytest.raises(ValueError, match="system and fraction must be non-empty"):
        pauli_cmi_scan(psi, (), 2, scheme)
    # a system qubit inside the last unit is refused before any fraction is reduced
    reduced = []
    reduced_parts = dlab.darwinism._reduced_parts
    monkeypatch.setattr(dlab.darwinism, "_reduced_parts", lambda *a: reduced.append(1) or reduced_parts(*a))
    with pytest.raises(ValueError, match="distinct"):
        pauli_cmi_scan(psi, (scheme.units[-1][0],), 2, scheme)
    assert reduced == []


def test_blp_witness():
    p = ScmParams(theta=math.pi, lam=1.0, n=1)
    ts = np.linspace(0.0, T_REC, 31)
    finite = [(t, coherence_finite(t, p)) for t in ts]
    markov = [(t, coherence_markovian(t, p)) for t in ts]
    assert blp_witness(finite) > 0.05  # recoherence after the zero crossing
    assert blp_witness(markov) == 0.0
    assert blp_witness([(0.0, 0.3), (1.0, 0.3)]) == 0.0
    with pytest.raises(ValueError):
        blp_witness([(0.0, 1.0)])
    with pytest.raises(ValueError):
        blp_witness([(0.0, 1.0), (0.0, 0.5)])


def test_csv_writers_round_trip():
    psi = ideal_global_state(T_MAX, COND2)
    scheme = partition_scheme(COND2, SchemeMode.PER_QUBIT)
    curve = averaged_qmi(psi, (0,), scheme)
    text = mi_curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "f,value,stderr" and len(lines) == 3
    f, v, se = lines[1].split(",")
    assert int(f) == 1 and float(v) == curve.points[0][1]
    grid = cmi_grid(psi, (0,), (1,), phi_steps=3, xi_steps=4)
    glines = basis_grid_to_csv(grid).strip().split("\n")
    assert glines[0] == "phi,xi,value" and len(glines) == 1 + 12
