"""The gate kernel against an explicit 2^n x 2^n operator."""
import numpy as np

import dlab
from dlab.kernels import apply_matrix


def random_state(num_qubits, rng):
    v = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).astype(np.complex128)


def dense_operator(mat, axes, n):
    """`mat` on `axes` (axes[0] most significant), identity elsewhere, as a
    full matrix in register order (qubit 0 most significant)."""
    rest = [q for q in range(n) if q not in axes]
    op = np.kron(mat, np.eye(2 ** len(rest))).reshape([2] * (2 * n))
    # op acts on the register reordered as axes + rest; put each qubit back
    back = list(np.argsort(list(axes) + rest))
    return op.transpose(back + [n + i for i in back]).reshape(2**n, 2**n)


def axis_cases(k, n, rng):
    spread = tuple(int(q) for q in np.linspace(0, n - 1, k))
    cases = {
        tuple(range(k)),
        tuple(range(n - 1, n - 1 - k, -1)),  # reversed
        spread,  # non-adjacent once n > k
        spread[::-1],
        tuple(int(q) for q in rng.permutation(n)[:k]),
    }
    return sorted(cases)


def test_implementation_reported():
    assert dlab.KERNEL_IMPLEMENTATION == "python"


def test_matches_dense_operator():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        for n in sorted({k, k + 1, 5, 9}):
            for axes in axis_cases(k, n, rng):
                psi = random_state(n, rng)
                m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
                expected = dense_operator(m, axes, n) @ psi
                apply_matrix(psi, m, axes, n)
                assert np.max(np.abs(psi - expected)) < 1e-12, (k, n, axes)


def test_dispatch_unitarity_preserves_norm():
    rng = np.random.default_rng(13)
    psi = random_state(7, rng)
    apply_matrix(psi, random_unitary(4, rng), (2, 5), 7)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_dispatch_accepts_readonly_matrix():
    # frozen channel operators arrive write-protected
    rng = np.random.default_rng(14)
    psi = random_state(4, rng)
    u = random_unitary(2, rng)
    u.setflags(write=False)
    expected = dense_operator(u, (1,), 4) @ psi
    apply_matrix(psi, u, (1,), 4)
    assert np.max(np.abs(psi - expected)) < 1e-13


def test_axis_order_is_significant():
    # CNOT with control on axes[0]: order must not commute
    rng = np.random.default_rng(15)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )
    psi = random_state(3, rng)
    a, b = psi.copy(), psi.copy()
    apply_matrix(a, cnot, (0, 2), 3)
    apply_matrix(b, cnot, (2, 0), 3)
    assert np.max(np.abs(a - b)) > 1e-3
