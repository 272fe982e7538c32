"""States, channels, partial trace and the information-theoretic metrics."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlab import (
    DensityMatrix,
    KrausChannel,
    PureState,
    Scenario,
    ScmParams,
    amplitude_damping_channel,
    apply_channel,
    depolarizing_channel,
    fidelity,
    ideal_global_state,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from dlab.qstate import _BLOCK_MIN_ROWS, _eigvalsh
from test_kernels import dense_operator

BELL = PureState.from_amplitudes(np.array([1, 0, 0, 1]) / math.sqrt(2))
PLUS = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2))


def random_density(num_qubits, rng):
    dim = 2**num_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m))


def random_pure(num_qubits, rng):
    v = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length
    s = PureState.zero(3)
    assert s.amplitudes[0] == 1.0


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.6, 0.1], [0.3, 0.4]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    m = DensityMatrix.maximally_mixed(2)
    assert np.allclose(m.matrix, np.eye(4) / 4)


def test_pure_state_refuses_non_finite_amplitudes():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(1, np.array([bad, 1.0]))


def test_density_matrix_refuses_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, np.array([[bad, 0.0], [0.0, 1.0]]))


def test_kraus_channel_refuses_non_finite_operators():
    with pytest.raises(ValueError, match="non-finite"):
        KrausChannel((np.array([[1.0, 0.0], [0.0, np.nan]]),))


def test_density_matrix_keeps_its_validation_spectrum():
    rho = random_density(3, np.random.default_rng(3))
    assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
    assert not rho.spectrum.flags.writeable
    with pytest.raises(ValueError):
        rho.spectrum[0] = 0.5
    # a field of the state, but not a constructor argument, not shown and not compared
    with pytest.raises(TypeError):
        DensityMatrix(1, np.eye(2) / 2, np.array([0.5, 0.5]))
    assert "spectrum" not in repr(DensityMatrix.maximally_mixed(1))


def test_entropy_reads_the_spectrum(monkeypatch):
    rho = random_density(3, np.random.default_rng(4))
    want = von_neumann_entropy(rho)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    assert von_neumann_entropy(rho) == want
    assert not calls
    eigs = eigvalsh(rho.matrix)
    eigs = eigs[eigs > 1e-12]
    assert abs(want + np.sum(eigs * np.log2(eigs))) < 1e-12


def _permuted(mat, rng):
    perm = rng.permutation(len(mat))
    return mat[np.ix_(perm, perm)]


@st.composite
def permuted_block_hermitians(draw):
    """A real or complex Hermitian matrix of _BLOCK_MIN_ROWS to 512 rows,
    block diagonal under a random permutation: blocks of up to 40 rows,
    some all zero (rows with no nonzero entry) and some with entries zeroed
    inside; or a fully diagonal matrix; or one dense block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([float, complex]))
    layout = draw(st.sampled_from(["blocks", "diagonal", "dense"]))
    n = draw(st.integers(_BLOCK_MIN_ROWS, 512))
    sizes = {"diagonal": [1] * n, "dense": [n]}.get(layout, [])
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 41)), n - sum(sizes)))
    mat = np.zeros((n, n), dtype=dtype)
    start = 0
    for size in sizes:
        a = rng.standard_normal((size, size)) + (1j * rng.standard_normal((size, size)) if dtype is complex else 0)
        a = a + a.conj().T
        if layout == "blocks" and rng.random() < 0.2:
            a[:] = 0
        elif rng.random() < 0.3:
            keep = rng.random((size, size)) < 0.5
            a *= keep | keep.T
        mat[start : start + size, start : start + size] = a
        start += size
    return _permuted(mat, rng) / n


@settings(max_examples=60, deadline=None)
@given(permuted_block_hermitians())
@example(np.diag(np.r_[np.zeros(100), np.linspace(-1, 1, 412)]))  # fully diagonal, isolated zero rows
@example(_permuted(np.kron(np.eye(128), [[0.5, 0.25], [0.25, 0.0]]), np.random.default_rng(1)))  # one stacked call
@example(np.ones((256, 256), dtype=complex) / 256)  # one dense block
def test_block_eigvalsh_matches_the_dense_solver(mat):
    got = _eigvalsh(mat)
    assert got.dtype == np.float64 and got.shape == (len(mat),)
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - np.linalg.eigvalsh(mat))) < 1e-12


def test_block_path_still_refuses_one_negative_eigenvalue():
    # 254 isolated rows and one 2x2 block whose eigenvalues are -1e-6 and 0.1:
    # the whole spectrum's smallest eigenvalue comes from that block alone
    rng = np.random.default_rng(12)
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    mat = np.zeros((256, 256))
    mat[:2, :2] = rot @ np.diag([-1e-6, 0.1]) @ rot.T
    mat[range(2, 256), range(2, 256)] = (1 - 0.1 + 1e-6) / 254
    mat = _permuted(mat, rng)
    assert len(mat) >= _BLOCK_MIN_ROWS and not np.all(mat[0] != 0)
    with pytest.raises(ValueError, match=r"eigenvalue -1\.0+\d*e-06 below"):
        DensityMatrix(8, mat)


def random_real_density(num_qubits, rank, rng):
    a = rng.standard_normal((2**num_qubits, rank))
    m = a @ a.T
    return m / np.trace(m)


def test_real_states_stay_real():
    # the real symmetric solver reads the same spectrum as the complex one
    rng = np.random.default_rng(8)
    for num_qubits, rank in ((1, 2), (3, 2), (4, 16), (5, 7)):
        m = random_real_density(num_qubits, rank, rng)
        real, cplx = DensityMatrix(num_qubits, m), DensityMatrix(num_qubits, m.astype(complex))
        assert real.matrix.dtype == np.float64 and cplx.matrix.dtype == np.complex128
        assert np.max(np.abs(real.spectrum - cplx.spectrum)) < 1e-12
        assert abs(von_neumann_entropy(real) - von_neumann_entropy(cplx)) < 1e-12
        keep = list(range(0, num_qubits, 2))
        part_real, part_cplx = partial_trace(real, keep), partial_trace(cplx, keep)
        assert part_real.matrix.dtype == np.float64
        assert np.max(np.abs(part_real.matrix - part_cplx.matrix)) < 1e-12
        assert abs(von_neumann_entropy(part_real) - von_neumann_entropy(part_cplx)) < 1e-12
    # integer input counts as real
    assert DensityMatrix(1, [[1, 0], [0, 0]]).matrix.dtype == np.float64


def test_apply_channel_promotes_a_real_state():
    rng = np.random.default_rng(9)
    m = random_real_density(3, 4, rng)
    for ch, targets in ((random_channel(2, 3, rng), [2, 0]), (depolarizing_channel(0.3), [1])):
        got = apply_channel(DensityMatrix(3, m), ch, targets)
        want = apply_channel(DensityMatrix(3, m.astype(complex)), ch, targets)
        assert got.matrix.dtype == np.complex128
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


def test_kraus_channel_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel((np.array([[1.0, 0.0], [0.0, 0.5]]),))
    ch = depolarizing_channel(0.3)
    total = sum(k.conj().T @ k for k in ch.operators)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_depolarizing_channel_limits():
    rho = PLUS.density_matrix()
    out = apply_channel(rho, depolarizing_channel(1.0), [0])
    assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12
    out = apply_channel(rho, depolarizing_channel(0.0), [0])
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_amplitude_damping_limits():
    rho = DensityMatrix(1, np.array([[0.0, 0.0], [0.0, 1.0]]))
    out = apply_channel(rho, amplitude_damping_channel(1.0), [0])
    assert np.max(np.abs(out.matrix - np.diag([1.0, 0.0]))) < 1e-12


def test_apply_channel_embedding_and_trace():
    rng = np.random.default_rng(5)
    rho = random_density(3, rng)
    out = apply_channel(rho, depolarizing_channel(0.2, 2), [0, 2])
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    # acting on disjoint qubits commutes
    a = apply_channel(apply_channel(rho, amplitude_damping_channel(0.3), [0]),
                      depolarizing_channel(0.2), [2])
    b = apply_channel(apply_channel(rho, depolarizing_channel(0.2), [2]),
                      amplitude_damping_channel(0.3), [0])
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def random_channel(num_qubits, num_ops, rng):
    """Kraus operators cut from a random isometry, so sum K^dag K = I."""
    dim = 2**num_qubits
    m = rng.standard_normal((num_ops * dim, dim)) + 1j * rng.standard_normal((num_ops * dim, dim))
    iso, _ = np.linalg.qr(m)
    return KrausChannel(tuple(iso[i * dim : (i + 1) * dim] for i in range(num_ops)))


def test_apply_channel_matches_explicit_kraus_sum():
    rng = np.random.default_rng(17)
    rho = random_density(5, rng)
    for targets in ([2], [4], [0, 3], [4, 1], [3, 0]):
        for ch in (random_channel(len(targets), 3, rng), depolarizing_channel(0.3, len(targets))):
            expected = sum(
                dense_operator(k, targets, 5) @ rho.matrix @ dense_operator(k, targets, 5).conj().T
                for k in ch.operators
            )
            out = apply_channel(rho, ch, targets)
            assert np.max(np.abs(out.matrix - expected)) < 1e-12, targets


def test_apply_channel_errors():
    rho = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError):
        apply_channel(rho, depolarizing_channel(0.1, 2), [0])  # dim mismatch
    with pytest.raises(ValueError):
        apply_channel(rho, depolarizing_channel(0.1), [5])  # out of range
    with pytest.raises(ValueError, match="distinct"):
        apply_channel(rho, depolarizing_channel(0.1, 2), [1, 1])


def test_partial_trace_refuses_a_bad_keep_list():
    for keep in ([], [0, 0], [2], [-1]):
        with pytest.raises(ValueError, match="non-empty, distinct and in range"):
            partial_trace(BELL, keep)


def test_partial_trace_bell_and_product():
    assert np.allclose(partial_trace(BELL, [0]).matrix, np.eye(2) / 2)
    prod = PureState.from_amplitudes(np.kron([1, 0], [1, 1]) / math.sqrt(2))
    assert np.max(np.abs(partial_trace(prod, [1]).matrix - PLUS.density_matrix().matrix)) < 1e-12


def test_partial_trace_pointer_state_maximally_mixed():
    # theta=pi at p=1/2: the system decoheres completely
    p = ScmParams(theta=math.pi, lam=1.0, n=1, scenario=Scenario.FULL)
    rho = partial_trace(ideal_global_state(math.log(2), p), [0])
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_composition():
    rng = np.random.default_rng(7)
    rho = random_density(4, rng)
    step = partial_trace(partial_trace(rho, [0, 2, 3]), [0, 2])
    direct = partial_trace(rho, [0, 3])
    assert np.max(np.abs(step.matrix - direct.matrix)) < 1e-10


def test_entropy_examples():
    assert von_neumann_entropy(PLUS.density_matrix()) < 1e-12
    assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(1)) - 1.0) < 1e-12
    skew = DensityMatrix(1, np.diag([0.25, 0.75]).astype(complex))
    assert abs(von_neumann_entropy(skew) - 0.8112781244591328) < 1e-12


def test_entropy_basis_invariance():
    rng = np.random.default_rng(9)
    rho = random_density(2, rng)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(m)
    rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


def test_entropy_subadditivity():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        rho = random_density(2, rng)
        joint = von_neumann_entropy(rho)
        margins = von_neumann_entropy(partial_trace(rho, [0])) + von_neumann_entropy(
            partial_trace(rho, [1])
        )
        assert joint <= margins + 1e-9


def test_trace_distance_examples():
    z0 = PureState.zero(1).density_matrix()
    z1 = DensityMatrix(1, np.diag([0.0, 1.0]))
    assert trace_distance(z0, z0) == 0.0
    assert abs(trace_distance(z0, z1) - 1.0) < 1e-12
    assert abs(trace_distance(z0, PLUS.density_matrix()) - 1 / math.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        trace_distance(z0, DensityMatrix.maximally_mixed(2))


def test_fidelity_examples():
    z0 = PureState.zero(1).density_matrix()
    assert abs(fidelity(z0, z0) - 1.0) < 1e-12
    assert abs(fidelity(z0, PLUS.density_matrix()) - 0.5) < 1e-12
    assert abs(fidelity(DensityMatrix.maximally_mixed(1), z0) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity(z0, DensityMatrix.maximally_mixed(2))


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = random_density(2, rng), random_density(2, rng)
        d = trace_distance(a, b)
        f = fidelity(a, b)
        assert 1 - math.sqrt(f) <= d + 1e-9
        assert d <= math.sqrt(1 - f) + 1e-9

