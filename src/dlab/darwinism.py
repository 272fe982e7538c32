"""Information-theoretic analyses over system/environment splits: mutual
information curves, measurement-basis grids, Holevo bounds, Pauli correlation
scans and a backflow witness that sums increases of |coherence| over time.

Environment fractions are unions of partition-scheme units; averages are
over every same-size fraction (unordered, exhaustive). `partition_scheme`
builds its units from each collision's qubits, `ScmParams.units` (the
register layout is stated in :mod:`dlab.scm`), and records those collisions
on the scheme. Every collision is identical, so an ideal state is unchanged
when whole collisions are permuted, and same-size fractions that such a
permutation maps onto each other share every value computed here.
`orbit_fractions` checks that symmetry on each state and then averages over
one fraction per orbit, weighted by the orbit's size; a state that fails
the check, or a scheme without collisions, is averaged over every fraction.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import PureState, _check_qubits, _entropies, _entropy, _read_only, _reduce, _spectrum_entropy
from .scm import Scenario, ScmParams
from .simulator import (
    _PAULI_SET_ROTATIONS,
    MeasSetting,
    _bloch_rows,
    _by_setting,
    _check_sampling,
    _draw,
    _local_apply,
    _pauli_expansion,
    basis_rotation,
    pauli_settings,
)

DEFAULT_PHI_STEPS = 61
DEFAULT_XI_STEPS = 61
# Basis-grid cells are computed in chunks sized to this many bytes (256 KiB),
# so memory does not grow with the grid. A chunk counts each cell's monomials
# and four arrays of its outcome probabilities, as many as the MI tail holds
# at once: 4.7 KiB for a 6-qubit fraction and one system qubit, 54 cells
# per chunk.
_CHUNK_BYTES = 1 << 18
# A state counts as unchanged by a swap of two collisions when no entry of
# its amplitude vector or density matrix moves by more than this.
SYMMETRY_ATOL = 1e-12


class SchemeMode(enum.Enum):
    PER_PAIR = "per_pair"
    PER_QUBIT = "per_qubit"
    ANCILLAE_ONLY = "ancillae_only"


@dataclass(frozen=True)
class PartitionScheme:
    """Disjoint environment units; fractions are unions of whole units.

    `collisions`, when given, are the equal-size qubit tuples the units are
    cut from, one per collision (`ScmParams.units`): each unit lies in one
    collision, at the same positions in every collision, so a permutation
    of whole collisions maps units onto units. A scheme without collisions
    is averaged over every fraction."""

    units: tuple[tuple[int, ...], ...]
    collisions: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        units = tuple(tuple(sorted(u)) for u in self.units)
        object.__setattr__(self, "units", units)
        if not units or any(not u for u in units):
            raise ValueError("every unit must be a non-empty qubit tuple")
        flat = [q for u in units for q in u]
        if len(set(flat)) != len(flat):
            raise ValueError("units must be disjoint")
        collisions = tuple(tuple(c) for c in self.collisions)
        object.__setattr__(self, "collisions", collisions)
        if collisions and not self._units_sit_alike():
            raise ValueError(
                "collisions must be disjoint, of one size, and hold the units at the same positions in each"
            )

    def _units_sit_alike(self) -> bool:
        """Whether the collisions are disjoint and of one size, each unit lies
        in one collision, and every collision holds units at the same positions."""
        position = {q: (c, i) for c, coll in enumerate(self.collisions) for i, q in enumerate(coll)}
        if len(position) != sum(map(len, self.collisions)) or len({len(c) for c in self.collisions}) != 1:
            return False
        patterns = [set() for _ in self.collisions]
        for unit in self.units:
            places = [position.get(q) for q in unit]
            if None in places or len({c for c, _ in places}) != 1:
                return False
            patterns[places[0][0]].add(tuple(sorted(i for _, i in places)))
        return all(p == patterns[0] for p in patterns)

    @property
    def num_units(self) -> int:
        return len(self.units)

    def fractions(self, num_units: int):
        """All unordered unions of `num_units` units, as sorted qubit tuples."""
        for combo in itertools.combinations(self.units, num_units):
            yield tuple(sorted(q for u in combo for q in u))


def partition_scheme(params: ScmParams, mode: SchemeMode) -> PartitionScheme:
    """Environment partition over the collisions' units: per pair, the
    units themselves; per qubit, each of their qubits alone; ancillae only,
    each unit's last qubit (its ancilla). The collisions are recorded on the
    scheme."""
    if mode is SchemeMode.PER_PAIR:
        units = params.units
    elif mode is SchemeMode.PER_QUBIT:
        units = tuple((q,) for unit in params.units for q in unit)
    elif params.scenario is Scenario.FULL:
        units = tuple(unit[-1:] for unit in params.units)
    else:
        raise ValueError("the condensed register has no emitters to trace out")
    return PartitionScheme(units, params.units)


@dataclass(frozen=True)
class MiCurve:
    """Averaged mutual information vs fraction size (in units)."""

    points: tuple[tuple[int, float, float], ...]

    def values(self) -> list[float]:
        return [v for _, v, _ in self.points]


@dataclass(frozen=True)
class BasisGrid:
    """CMI over the (phi, xi) measurement-basis grid."""

    phis: tuple[float, ...]
    xis: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.phis), len(self.xis)):
            raise ValueError("grid shape does not match the axes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("mutual information must be finite")
        if vals.min() < -1e-9:
            raise ValueError("mutual information cannot be negative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def argmax(self) -> tuple[float, float, float]:
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.phis[i]), float(self.xis[j]), float(self.values[i, j])

    @property
    def max_value(self) -> float:
        return float(self.values.max())


def _check_parts(state, sys_qubits, frac_qubits):
    sys_q = tuple(sorted(sys_qubits))
    frac_q = tuple(sorted(frac_qubits))
    if not sys_q or not frac_q:
        raise ValueError("system and fraction must be non-empty")
    _check_qubits(sys_q + frac_q, state.num_qubits, "system and fraction qubits")
    return sys_q, frac_q


def system_coherence(state, system_qubit: int = 0) -> float:
    """Signed coherence factor 2 Re <0|rho_S|1> of the designated qubit.

    `state` was validated when it was built, so the qubit's 2x2 reduction
    is read as a bare array: no reduced `DensityMatrix` is built or checked.
    """
    _check_qubits((system_qubit,), state.num_qubits, "system qubit")
    return float(2 * _reduce(state, (system_qubit,))[0, 1].real)


def _entropy_table(state):
    """H(X) of `state` in bits for sorted qubit tuples X, each side computed once.

    Reductions are bare arrays: `state` was validated when it was built, so
    no reduced `DensityMatrix` is constructed or checked. A pure state has
    H(X) = H(complement of X) and is reduced onto the smaller side, so no
    matrix above 2^(n/2) x 2^(n/2) is diagonalised; a mixed state is reduced
    onto X itself, except for the whole register, whose entropy comes from
    the spectrum the state was validated with.
    """
    pure = isinstance(state, PureState)
    cache: dict[tuple[int, ...], float] = {}
    if not pure:
        cache[tuple(range(state.num_qubits))] = _spectrum_entropy(state.spectrum)

    def entropy(qubits: tuple[int, ...]) -> float:
        if pure:
            rest = tuple(q for q in range(state.num_qubits) if q not in qubits)
            if len(rest) < len(qubits):
                qubits = rest
            if not qubits:
                return 0.0
        if qubits not in cache:
            cache[qubits] = _entropy(_reduce(state, qubits))
        return cache[qubits]

    return entropy


def _qmi(entropy, sys_q, frac_q) -> float:
    return entropy(sys_q) + entropy(frac_q) - entropy(tuple(sorted(sys_q + frac_q)))


def qmi(state, sys_qubits, frac_qubits) -> float:
    """I(S:F) = H(S) + H(F) - H(SF), in bits."""
    return _qmi(_entropy_table(state), *_check_parts(state, sys_qubits, frac_qubits))


def _unchanged_by_collision_swaps(state, collisions) -> bool:
    """Whether swapping each two adjacent collisions, qubit for qubit, moves
    no entry of `state` by more than SYMMETRY_ATOL. The 2^n diagonal is
    checked first, so most asymmetric states are refused without touching
    the amplitude vector or density matrix."""
    n = state.num_qubits
    pure = isinstance(state, PureState)
    data = state.amplitudes if pure else state.matrix
    diagonal = np.abs(data) ** 2 if pure else data.diagonal().real
    for arr, copies in ((diagonal, 1), (data, 1 if pure else 2)):
        t = arr.reshape([2] * (copies * n))
        for a, b in zip(collisions, collisions[1:]):
            axes = list(range(copies * n))
            for offset in range(0, copies * n, n):
                for qa, qb in zip(a, b):
                    axes[offset + qa], axes[offset + qb] = offset + qb, offset + qa
            if np.max(np.abs(t - t.transpose(axes))) > SYMMETRY_ATOL:
                return False
    return True


def orbit_fractions(state, sys_qubits, scheme: PartitionScheme, sizes) -> dict[int, tuple]:
    """For each fraction size in `sizes`, (fraction, weight) pairs: the
    weights sum to the number of fractions of that size, and a weighted
    mean of QMI, Holevo bound or basis-grid CMI over the pairs equals its
    mean over every fraction.

    When `scheme` records its collisions, the system lies outside them and
    `state` is unchanged by each swap of two adjacent collisions (checked
    once, for all sizes), every permutation of collisions fixes the state
    and the system. Fractions it maps onto each other share their QMI,
    Holevo bound and basis grid, so each orbit is represented by one
    fraction, weighted by the orbit's size. A collision's share of a
    fraction is a subset of collision 0's units, as positions in it; an
    orbit is a multiset of n shares, one per collision, and holds
    n! / prod(count!) fractions. Its representative deals the shares to the
    collisions in order, sorted by position with an end marker that sorts
    last ((e, a) < (e,) < (a,) < ()): with units laid out collision by
    collision, as `partition_scheme` does, that is the orbit's first
    fraction, and the orbits keep the order of `scheme.fractions`. In every
    other case each fraction comes with weight 1.
    """
    collisions = scheme.collisions
    collision_qubits = {q for c in collisions for q in c}
    symmetric = (
        len(collisions) > 1
        and not collision_qubits & set(sys_qubits)
        and collision_qubits <= set(range(state.num_qubits))
        and _unchanged_by_collision_swaps(state, collisions)
    )
    if not symmetric:
        return {size: tuple((frac, 1) for frac in scheme.fractions(size)) for size in sizes}
    first = [tuple(collisions[0].index(q) for q in u) for u in scheme.units if u[0] in collisions[0]]
    shares = [share for k in range(len(first) + 1) for share in itertools.combinations(first, k)]
    shares.sort(key=lambda share: [*sorted(i for u in share for i in u), math.inf])
    n = len(collisions)
    out = {size: [] for size in sizes}
    for dealt in itertools.combinations_with_replacement(shares, n):
        size = sum(map(len, dealt))
        if size in out:
            frac = tuple(sorted(c[i] for c, share in zip(collisions, dealt) for u in share for i in u))
            repeats = [len(list(group)) for _, group in itertools.groupby(dealt)]
            out[size].append((frac, math.factorial(n) // math.prod(map(math.factorial, repeats))))
    return {size: tuple(pairs) for size, pairs in out.items()}


def _orbit_mean(pairs, measure):
    """Weighted mean of `measure(fraction)`, a number or an array, over the
    (fraction, weight) pairs of `orbit_fractions`, and its ddof=1 standard
    error over every fraction, sqrt(sum w (v - m)^2 / (N - 1) / N), N = sum w.
    Each entry is summed along one contiguous row: with unit weights these
    are numpy's mean and std(ddof=1) / sqrt(N) step for step, which a sum
    over axis 0 is not once there are more than 8 fractions."""
    weights = np.array([w for _, w in pairs], dtype=float)
    values = np.array([measure(frac) for frac, _ in pairs], dtype=float)
    rows = np.ascontiguousarray(values.reshape(len(values), -1).T)
    count = weights.sum()
    mean = np.sum(weights * rows, axis=1) / count
    var = np.sum(weights * (rows - mean[:, None]) ** 2, axis=1) / (count - 1) if count > 1 else 0 * mean
    return mean.reshape(values.shape[1:]), (np.sqrt(var) / math.sqrt(count)).reshape(values.shape[1:])


def averaged_qmi(state, sys_qubits, scheme: PartitionScheme) -> MiCurve:
    """QMI in bits averaged over all same-size fractions, with the standard
    error of the mean as the spread measure: `_orbit_mean` over the
    fractions of `orbit_fractions`. H(S), and any side two fractions share,
    is computed once per call."""
    sys_q, _ = _check_parts(state, sys_qubits, tuple(q for u in scheme.units for q in u))
    entropy = _entropy_table(state)
    points = []
    for f, pairs in orbit_fractions(state, sys_q, scheme, range(1, scheme.num_units + 1)).items():
        mean, stderr = _orbit_mean(pairs, lambda frac: _qmi(entropy, sys_q, frac))
        points.append((f, float(mean), float(stderr)))
    return MiCurve(tuple(points))


def _reduced_parts(state, sys_q, frac_q):
    kept = tuple(sorted(sys_q + frac_q))
    mat = _reduce(state, kept)
    sys_pos = tuple(kept.index(q) for q in sys_q)
    frac_pos = tuple(kept.index(q) for q in frac_q)
    return mat, sys_pos, frac_pos, len(kept)


def _system_side(state, sys_q, frac_q, sys_rows):
    """2^-k T_S[o_S, mu_F] of shape (r^s,) + (4,) * f, and `order`, the register
    positions in the reduction of the system's qubits and then the fraction's.

    T[mu] = tr(rho sigma_mu) is the Pauli expansion of `state` reduced onto
    system and fraction; `_local_apply` contracts its system axes with the r
    Bloch rows sys_rows[i] of each system qubit i. The expansion is dropped
    before any cell is computed."""
    mat, sys_pos, frac_pos, k = _reduced_parts(state, sys_q, frac_q)
    order = sys_pos + frac_pos
    t = _pauli_expansion(mat, k).transpose(order)
    return _local_apply(sys_rows, t).reshape((-1,) + (4,) * len(frac_q)) / 2**k, order


def _fraction_side(system, frac_rows) -> np.ndarray:
    """p[o_S, o_F] = sum_mu system[o_S, mu] prod_j frac_rows[j][o_j, mu_j] for a
    `_system_side`, the outcomes o_F of the fraction qubits flattened: its
    fraction axes are moved in front and contracted by `_local_apply`."""
    return _local_apply(frac_rows, np.moveaxis(system, 0, -1)).reshape(-1, len(system)).T


@lru_cache(maxsize=None)
def _classes(f: int) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli-weight classes of f qubits and the table that raises them.

    Class (a, b, c) holds the Pauli strings with a X's, b Y's and c Z's; there
    are C(f + 3, 3) with a + b + c <= f, ordered by weight a + b + c, so the
    classes of the first j qubits are the first C(j + 3, 3) rows.
    raised[axis, i] is the row of class i with one more X, Y or Z (axis 0,
    1, 2), for the C(f + 2, 3) classes of weight below f."""
    classes = sorted((c for c in itertools.product(range(f + 1), repeat=3) if sum(c) <= f), key=sum)
    row = {c: i for i, c in enumerate(classes)}
    below = classes[: math.comb(f + 2, 3)]
    raised = [[row[tuple(x + (i == axis) for i, x in enumerate(c))] for c in below] for axis in range(3)]
    return _read_only(np.array(classes)), _read_only(np.array(raised))


def _class_sums(system) -> np.ndarray:
    """W[class, (o_S, o_F)] = sum of (-1)^(sum_j o_j [mu_j != I]) system[o_S, mu]
    over the Pauli strings mu of the fraction in that class of `_classes`.

    One pass per fraction qubit turns its Pauli axis into an outcome axis:
    I goes to both outcomes in the same class, and X, Y or Z goes to outcome
    0 with sign + and outcome 1 with sign -, one class up along its axis."""
    f = system.ndim - 1
    _, raised = _classes(f)
    w = system.reshape(len(system), 1, 1, -1)  # (o_S, o_F so far, class so far, mu of the qubits left)
    for j in range(f):
        w = w.reshape(w.shape[:3] + (4, -1))
        done = w.shape[2]
        out = np.zeros(w.shape[:2] + (2, math.comb(j + 4, 3), w.shape[-1]))
        out[:, :, :, :done] = w[:, :, None, :, 0]
        for axis in range(3):
            up = raised[axis, :done]
            out[:, :, 0, up] += w[:, :, :, axis + 1]
            out[:, :, 1, up] -= w[:, :, :, axis + 1]
        w = out.reshape(len(system), -1, *out.shape[3:])
    return np.ascontiguousarray(w.reshape(-1, w.shape[2]).T)


def _class_chunks(system, blochs):
    """p[c, o_S, o_F] for cells c that measure every fraction qubit along the
    one Bloch vector n = blochs[c]. Outcome o_j projects onto
    (I + (-1)^o_j n.sigma) / 2, so p = sum_class n_x^a n_y^b n_z^c W[class]
    with W the `_class_sums`: one matrix product per chunk of cells."""
    f = system.ndim - 1
    classes, _ = _classes(f)
    sums = _class_sums(system)
    step = max(1, _CHUNK_BYTES // (8 * (len(classes) + 4 * sums.shape[1])))
    for lo in range(0, len(blochs), step):
        n = blochs[lo : lo + step, :, None]
        powers = np.ones((len(n), 3, f + 1))  # (C, axis, exponent), by products: `**` is several times slower
        np.cumprod(np.broadcast_to(n, (len(n), 3, f)), axis=-1, out=powers[:, :, 1:])
        monomials = powers[:, 0, classes[:, 0]]
        monomials *= powers[:, 1, classes[:, 1]]
        monomials *= powers[:, 2, classes[:, 2]]
        yield (monomials @ sums).reshape(len(n), len(system), 2**f)


def _basis_cmi(chunks, order, shots=None, seed=0, readout_flip=0.0) -> np.ndarray:
    """Shannon MI in bits between system and fraction outcomes, one value per
    cell of `chunks`, in order: the one tail of every basis analysis.

    Each chunk holds the Born probabilities p[c, o_S, o_F] of some cells, the
    outcomes those of the register positions `order` of the reduction, system
    first: `cmi_joint`'s one cell and `pauli_cmi_scan`'s settings as one
    chunk from `_fraction_side`, a grid's cells from `_class_chunks`.
    Rounding below zero is clipped. With `shots`, cell c is the plug-in MI of
    `sample`'s draw over outcomes in register order, after `sample`'s
    per-bit `readout_flip` is folded in. The cells are drawn in order from
    one generator seeded with `seed`, whose stream carries on from chunk to
    chunk: cell 0 draws as `sample` with `seed` would, and a later cell's
    counts depend on the cells drawn before it, not on the chunk size.
    """
    k = len(order)
    to_register = (0,) + tuple(1 + np.argsort(order))
    from_register = (0,) + tuple(1 + q for q in order)
    rng = None if shots is None else np.random.default_rng(seed)
    out = []
    for p in chunks:
        cells = len(p)
        p = np.clip(p, 0.0, None, out=p)
        if shots is not None:
            probs = p.reshape((cells,) + (2,) * k).transpose(to_register).reshape(cells, -1)
            draws = _draw(probs, shots, rng, readout_flip)
            p = (draws / shots).reshape((cells,) + (2,) * k).transpose(from_register).reshape(p.shape)
        joint = np.divide(p, p.sum(axis=(1, 2), keepdims=True), out=p)
        out.append(
            (_entropies(joint.sum(axis=2)) + _entropies(joint.sum(axis=1)) - _entropies(joint.reshape(cells, -1)))
            / math.log(2)
        )
    return np.concatenate(out)


def _system_rows(sys_basis: MeasSetting | None, num_qubits: int) -> np.ndarray:
    """The Bloch rows of `sys_basis`, computational when None, one 2x4 per system qubit."""
    if sys_basis is None:
        sys_basis = MeasSetting.computational(num_qubits)
    if sys_basis.num_qubits != num_qubits:
        raise ValueError("basis arity mismatch on the system side")
    return _bloch_rows(sys_basis.rotations())


def cmi_joint(
    state,
    sys_qubits,
    frac_qubits,
    env_basis: MeasSetting,
    sys_basis: MeasSetting | None = None,
    shots: int | None = None,
    seed: int = 0,
    readout_flip: float = 0.0,
) -> float:
    """Shannon MI in bits between system and fraction outcomes under fixed
    local measurement bases, from the exact Born distribution. With `shots`,
    the plug-in MI of `shots` seeded multinomial counts instead, with
    `sample`'s per-bit `readout_flip` folded in before the draw: a
    finite-shot estimate of the same quantity. The exact value has no flips,
    but the rate is checked either way, as is `shots`, before any work."""
    shots = _check_sampling(shots, readout_flip, exact_ok=True)
    sys_q, frac_q = _check_parts(state, sys_qubits, frac_qubits)
    if env_basis.num_qubits != len(frac_q):
        raise ValueError(
            f"basis arity mismatch: {env_basis.num_qubits} bases for {len(frac_q)} fraction qubits"
        )
    system, order = _system_side(state, sys_q, frac_q, _system_rows(sys_basis, len(sys_q)))
    p = _fraction_side(system, _bloch_rows(env_basis.rotations()))
    return float(_basis_cmi([p[None]], order, shots, seed, readout_flip)[0])


def cmi_grid(
    state,
    sys_qubits,
    frac_qubits,
    phi_steps: int = DEFAULT_PHI_STEPS,
    xi_steps: int = DEFAULT_XI_STEPS,
    sys_basis: MeasSetting | None = None,
    shots: int | None = None,
    seed: int = 0,
    readout_flip: float = 0.0,
) -> BasisGrid:
    """cmi_joint over the uniform basis grid phi in [0, pi], xi in [0, 2*pi),
    with the same (phi, xi) basis on every fraction qubit.

    That shared basis is what the grid is computed from: the state is reduced
    and expanded once, its Pauli expansion summed once into the C(f + 3, 3)
    Pauli-weight classes of `_class_sums`, and each chunk of cells is one
    (cells x classes) @ (classes x 2^k) product. The cells agree with
    cmi_joint's, from the same `_system_side`, to rounding, not bit for bit.

    With `shots`, each cell is instead a sampled estimate as cmi_joint's, the
    cells drawn row-major from one generator seeded with `seed`, as
    `sample_pauli_set` draws its records: cell (0, 0) draws as cmi_joint's
    with that seed, from probabilities equal to rounding, and a later cell
    depends on those before it. `shots` and the flip rate are checked before
    any work."""
    if phi_steps < 2 or xi_steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    shots = _check_sampling(shots, readout_flip, exact_ok=True)
    sys_q, frac_q = _check_parts(state, sys_qubits, frac_qubits)
    system, order = _system_side(state, sys_q, frac_q, _system_rows(sys_basis, len(sys_q)))
    phis = np.linspace(0.0, math.pi, phi_steps)
    xis = np.linspace(0.0, 2 * math.pi, xi_steps, endpoint=False)
    # each cell's Bloch vector n: the outcome-0 Bloch row without its identity entry
    blochs = _bloch_rows(basis_rotation(phis[:, None], xis[None, :]).reshape(-1, 2, 2))[:, 0, 1:]
    values = _basis_cmi(_class_chunks(system, blochs), order, shots, seed, readout_flip)
    return BasisGrid(tuple(phis.tolist()), tuple(xis.tolist()), values.reshape(phi_steps, xi_steps))


def holevo_bound(state, sys_qubits, frac_qubits) -> float:
    """chi = H(rho_F) - sum_i p_i H(rho_F|i) in bits, over the system's pointer
    outcomes i. The sum is H(the eigenvalues of all blocks <i|_S rho |i>_S =
    p_i rho_F|i together) - H(p), so one call diagonalises every block, and
    a branch of probability 0 drops out through its zero eigenvalues."""
    sys_q, frac_q = _check_parts(state, sys_qubits, frac_qubits)
    mat, sys_pos, frac_pos, k = _reduced_parts(state, sys_q, frac_q)
    cols = [a if a in sys_pos else k + a for a in range(k)]
    out = list(sys_pos) + list(frac_pos) + [k + a for a in frac_pos]
    d = 2 ** len(frac_pos)
    blocks = np.einsum(mat.reshape([2] * (2 * k)), list(range(k)) + cols, out).reshape(-1, d, d)
    probs = np.trace(blocks, axis1=1, axis2=2).real
    branches = _spectrum_entropy(np.linalg.eigvalsh(blocks).reshape(-1)) - _spectrum_entropy(probs)
    return _entropy(blocks.sum(axis=0)) - branches


@dataclass(frozen=True)
class ScanEntry:
    sys_basis: str
    env_basis: str
    value: float


def pauli_cmi_scan(state, sys_qubits, frac_size: int, scheme: PartitionScheme) -> tuple[ScanEntry, ...]:
    """CMI in bits for every Pauli basis combination on system and fraction, averaged
    over all unordered fractions of `frac_size` qubits built from whole
    scheme units: `_orbit_mean` over the fractions of `orbit_fractions`,
    with the bases of both sides in `pauli_settings` order."""
    if frac_size < 1:
        raise ValueError("fraction size must be positive")
    sys_q, _ = _check_parts(state, sys_qubits, tuple(q for u in scheme.units for q in u))
    orbits = orbit_fractions(state, sys_q, scheme, range(1, scheme.num_units + 1))
    fractions = [(frac, w) for pairs in orbits.values() for frac, w in pairs if len(frac) == frac_size]
    if not fractions:
        raise ValueError(f"no fraction of {frac_size} qubits fits whole units")
    s, f = len(sys_q), frac_size
    rows = _bloch_rows(_PAULI_SET_ROTATIONS)

    def scan(frac):
        # all 3^s x 3^f settings in one pass, six Bloch rows per qubit
        system, order = _system_side(state, sys_q, frac, [rows] * s)
        p = _by_setting(_fraction_side(system, [rows] * f), s + f).reshape(-1, 2**s, 2**f)
        return _basis_cmi([p], order).reshape(3**s, 3**f)

    values, _ = _orbit_mean(fractions, scan)
    env_labels = [e.label() for e in pauli_settings(f)]
    return tuple(
        ScanEntry(a.label(), e, v)
        for a, row in zip(pauli_settings(s), values.tolist())
        for e, v in zip(env_labels, row)
    )


def blp_witness(curve) -> float:
    """Sum of coherence-magnitude increases along the time grid; positive
    exactly when |c(t)| is non-monotone there."""
    pts = list(curve)
    if len(pts) < 2:
        raise ValueError("witness needs at least 2 points")
    times = [t for t, _ in pts]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    total = 0.0
    for (_, c1), (_, c2) in zip(pts, pts[1:]):
        total += max(0.0, abs(c2) - abs(c1))
    return total


def mi_curve_to_csv(curve: MiCurve) -> str:
    lines = ["f,value,stderr"]
    for f, v, se in curve.points:
        lines.append(f"{f},{float(v)!r},{float(se)!r}")
    return "\n".join(lines) + "\n"


def basis_grid_to_csv(grid: BasisGrid) -> str:
    # each axis value is formatted once per grid, not once per cell
    xis = [repr(float(xi)) for xi in grid.xis]
    lines = ["phi,xi,value"]
    for phi, row in zip(grid.phis, grid.values.tolist()):
        phi = repr(float(phi))
        lines += [f"{phi},{xi},{value!r}" for xi, value in zip(xis, row)]
    return "\n".join(lines) + "\n"

