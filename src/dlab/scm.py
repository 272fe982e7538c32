"""Closed-form analytics of the stochastic collision model.

A single qubit, initially |+>, dephases through instantaneous collisions of
strength theta with n ancillae; collision times are Poisson with per-ancilla
rate lam, so each ancilla has collided by time t with probability
p(t) = 1 - exp(-lam*t).  The purified picture adds one emitter per ancilla
(Full scenario); at theta = pi each emitter-ancilla pair spans a 2-dimensional
subspace and is remapped onto one qubit (Condensed scenario).

Register layout.  This module is the one statement of it; the circuit
builders, the partition schemes and the CLI read it from `ScmParams`:
  Full:      qubit 0 = system, then one (emitter, ancilla) unit per
             collision: (1, 2), (3, 4), ..., (2n - 1, 2n).
  Condensed: qubit 0 = system, then one pair-qubit unit per collision:
             (1,), (2,), ..., (n,).
`ScmParams.units` lists those units in register order.  The ideal state
factorises over them once the system's pointer state is fixed.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .qstate import KrausChannel, PureState


class Scenario(enum.Enum):
    FULL = "full"
    CONDENSED = "condensed"


THETA_PI_ATOL = 1e-12


@dataclass(frozen=True)
class ScmParams:
    """Collision strength theta, per-ancilla rate lam, pair count n, scenario."""

    theta: float
    lam: float
    n: int
    scenario: Scenario = Scenario.CONDENSED

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"rate lam must be positive and finite, got {self.lam}")
        if self.n < 1:
            raise ValueError(f"need at least one ancilla-emitter pair, got n={self.n}")
        if not 0 <= self.theta < 2 * math.pi:
            raise ValueError(f"theta {self.theta} outside [0, 2*pi)")
        if self.scenario is Scenario.CONDENSED and abs(self.theta - math.pi) > THETA_PI_ATOL:
            raise ValueError("condensed scenario requires theta = pi (non-entangling collisions)")

    @property
    def units(self) -> tuple[tuple[int, ...], ...]:
        """Each collision's qubits in register order: an (emitter, ancilla)
        pair in the full scenario, one pair qubit in the condensed one."""
        if self.scenario is Scenario.CONDENSED:
            return tuple((1 + i,) for i in range(self.n))
        return tuple((1 + 2 * i, 2 + 2 * i) for i in range(self.n))

    @property
    def num_qubits(self) -> int:
        """Register size: the system plus n (condensed) or 2n (full) environment qubits."""
        return 1 + (self.n if self.scenario is Scenario.CONDENSED else 2 * self.n)


class CanonicalTimes(NamedTuple):
    t_max: float
    t_close: float
    t_rec: float


def canonical_times() -> CanonicalTimes:
    """(ln 2, ln(2/1.3), ln 6): maximal mixing, near-maximal, recoherence regime."""
    return CanonicalTimes(math.log(2.0), math.log(2.0 / 1.3), math.log(6.0))


def collision_probability(t: float, p: ScmParams) -> float:
    """Probability that a given ancilla has collided by time t: 1 - exp(-lam*t)."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    return 1.0 - math.exp(-p.lam * t)


def prep_angle(t: float, p: ScmParams) -> float:
    """Rotation half-angle alpha = arccos(exp(-lam*t/2)); sin^2(alpha) = p(t)."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    return math.acos(math.exp(-p.lam * t / 2.0))


def coherence_markovian(t: float, p: ScmParams) -> float:
    """Infinite-environment coherence factor exp[-lam*(1 - cos theta)*t]."""
    return math.exp(-p.lam * (1.0 - math.cos(p.theta)) * t)


def coherence_finite(t: float, p: ScmParams) -> float:
    """Finite-n coherence factor [1 + (cos theta - 1) p(t)]^n, with p(t) the
    per-ancilla `collision_probability` (so a negative time is refused); the
    theta=pi, n-pair factor is zero at t = ln 2. With lam replaced by lam/n
    it converges to the Markovian factor pointwise as n grows.
    """
    return (1.0 + (math.cos(p.theta) - 1.0) * collision_probability(t, p)) ** p.n


def collision_channel(theta: float) -> KrausChannel:
    """Single-collision map: equal-weight Kraus pair K = diag(e^{-i theta/2}, e^{i theta/2}), K^dag."""
    k = np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    half = math.sqrt(0.5)
    return KrausChannel((half * k, half * k.conj().T))


def ideal_global_state(t: float, p: ScmParams) -> PureState:
    """Exact purified global state at time t.

    Full: per pair the emitted/unemitted superposition of the three-branch
    purification, with the emitted branch carrying the phase factor i; at
    theta = pi the branch phases cancel and the state is real.  Condensed:
    (|0>_S prod(sqrt(1-p)|0> + sqrt(p)|1>) + |1>_S prod(sqrt(1-p)|0> - sqrt(p)|1>))/sqrt(2).
    """
    prob = collision_probability(t, p)
    sq, sp = math.sqrt(1.0 - prob), math.sqrt(prob)
    if p.scenario is Scenario.CONDENSED:
        branches = (np.array([sq, sp], dtype=complex), np.array([sq, -sp], dtype=complex))
    else:
        c, s = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
        # Pair basis |E A>: amplitudes on |00>, |01>, |10>, |11>.
        branches = (
            np.array([1j * sp * c, sp * s, sq, 0.0], dtype=complex),
            np.array([1j * sp * c, -sp * s, sq, 0.0], dtype=complex),
        )
    amps = np.concatenate([reduce(np.kron, [b] * p.n) for b in branches]) / math.sqrt(2.0)
    return PureState(p.num_qubits, amps)
