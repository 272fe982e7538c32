"""Closed-form collision-model analytics used as oracles everywhere else."""
import dataclasses
import math

import numpy as np
import pytest

from dlab import (
    KrausChannel,
    PureState,
    Scenario,
    ScmParams,
    apply_channel,
    canonical_times,
    coherence_finite,
    coherence_markovian,
    collision_probability,
    ideal_global_state,
    partial_trace,
    prep_angle,
)


def test_canonical_times_values():
    tm = canonical_times()
    assert tm.t_max == pytest.approx(0.6931471805599453, abs=1e-15)
    assert tm.t_close == pytest.approx(0.4307829160924542, abs=1e-15)
    assert tm.t_rec == pytest.approx(1.791759469228055, abs=1e-15)
    assert tm.t_close < tm.t_max < tm.t_rec


def test_params_validation():
    with pytest.raises(ValueError):
        ScmParams(theta=math.pi, lam=0.0, n=1)
    with pytest.raises(ValueError):
        ScmParams(theta=math.pi, lam=math.inf, n=1)
    with pytest.raises(ValueError):
        ScmParams(theta=math.pi, lam=1.0, n=0)
    with pytest.raises(ValueError):
        ScmParams(theta=-0.1, lam=1.0, n=1)
    with pytest.raises(ValueError):
        ScmParams(theta=math.pi / 2, lam=1.0, n=2, scenario=Scenario.CONDENSED)
    ScmParams(theta=math.pi / 2, lam=1.0, n=2, scenario=Scenario.FULL)


def test_collision_probability():
    p = ScmParams(theta=math.pi, lam=1.0, n=3)
    assert collision_probability(0.0, p) == 0.0
    assert collision_probability(math.log(2), p) == pytest.approx(0.5, abs=1e-15)
    assert collision_probability(50.0, p) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        collision_probability(-0.1, p)


def test_prep_angle_matches_probability():
    p = ScmParams(theta=math.pi, lam=0.7, n=2)
    assert prep_angle(0.0, p) == 0.0
    for t in np.linspace(0.0, 3.0, 20):
        assert math.sin(prep_angle(t, p)) ** 2 == pytest.approx(
            collision_probability(t, p), abs=1e-14
        )


def test_coherence_markovian():
    p = ScmParams(theta=math.pi, lam=1.0, n=1)
    for t in (0.0, 0.3, 1.0):
        assert coherence_markovian(t, p) == pytest.approx(math.exp(-2 * t), abs=1e-15)
    flat = ScmParams(theta=0.0, lam=1.0, n=1, scenario=Scenario.FULL)
    assert coherence_markovian(5.0, flat) == 1.0


def test_coherence_finite_theta_pi_form():
    # theta=pi collapses the factor to (2 exp(-t) - 1)^n
    for n in (1, 3, 6):
        p = ScmParams(theta=math.pi, lam=1.0, n=n)
        for t in np.linspace(0.0, math.log(6), 31):
            expect = (2 * math.exp(-t) - 1) ** n
            assert coherence_finite(t, p) == pytest.approx(expect, abs=1e-13)
        assert abs(coherence_finite(math.log(2), p)) < 1e-14


def test_coherence_finite_rejects_negative_time():
    # p(t) is collision_probability's, which has no negative times
    with pytest.raises(ValueError, match="negative time"):
        coherence_finite(-1.0, ScmParams(theta=math.pi, lam=1.0, n=2))


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_coherence_markovian_refuses_a_negative_or_nan_time(t):
    # at t = -1 and theta = pi the closed form would return e^2
    with pytest.raises(ValueError, match="negative time"):
        coherence_markovian(t, ScmParams(theta=math.pi, lam=1.0, n=1))


def test_shared_rate_reconciliation():
    # dividing the rate across n ancillae recovers the Markovian curve as n grows
    p = ScmParams(theta=math.pi, lam=1.0, n=1000)
    shared = dataclasses.replace(p, lam=p.lam / p.n)
    dev = max(
        abs(coherence_finite(t, shared) - coherence_markovian(t, p))
        for t in np.linspace(0.0, 3.0, 50)
    )
    assert dev < 1e-3


def test_collision_channel_shrinks_coherence():
    # one collision is the equal-weight Kraus pair K = diag(e^{-i theta/2},
    # e^{i theta/2}), K^dag: it shrinks the coherence of |+> by cos theta, so
    # a collision that has happened with probability p(t) leaves the n = 1
    # factor 1 + (cos theta - 1) p(t) of `coherence_finite`
    plus = PureState.from_amplitudes(np.array([1, 1]) / math.sqrt(2)).density_matrix()
    for theta in (math.pi, 2 * math.pi / 3, 0.4):
        k = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        collided = apply_channel(plus, KrausChannel((k / math.sqrt(2), k.conj().T / math.sqrt(2))), [0])
        assert collided.matrix[0, 1] == pytest.approx(0.5 * math.cos(theta), abs=1e-14)
        assert collided.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)
        p = ScmParams(theta=theta, lam=1.0, n=1, scenario=Scenario.FULL)
        for t in (*canonical_times(), 0.3):
            prob = collision_probability(t, p)
            coherence = 2 * ((1 - prob) * plus.matrix[0, 1] + prob * collided.matrix[0, 1])
            assert coherence.real == pytest.approx(coherence_finite(t, p), abs=1e-14)


def test_global_state_at_time_zero():
    cond = ScmParams(theta=math.pi, lam=1.0, n=2)
    amps = ideal_global_state(0.0, cond).amplitudes
    expect = np.zeros(8, dtype=complex)
    expect[0b000] = expect[0b100] = 1 / math.sqrt(2)
    assert np.max(np.abs(amps - expect)) < 1e-15
    # full scenario starts with each emitter flipped to |1>, ancilla |0>
    full = ScmParams(theta=math.pi, lam=1.0, n=1, scenario=Scenario.FULL)
    amps = ideal_global_state(0.0, full).amplitudes
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = expect[0b110] = 1 / math.sqrt(2)
    assert np.max(np.abs(amps - expect)) < 1e-15


def test_global_state_oracle_consistency():
    # system off-diagonal equals half the closed-form coherence factor
    cases = [
        ScmParams(theta=math.pi, lam=1.0, n=3),
        ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL),
        ScmParams(theta=2 * math.pi / 3, lam=1.0, n=2, scenario=Scenario.FULL),
    ]
    for p in cases:
        for t in np.linspace(0.0, math.log(6), 50):
            rho = partial_trace(ideal_global_state(t, p), [0])
            assert abs(abs(rho.matrix[0, 1]) - abs(coherence_finite(t, p)) / 2) < 1e-12


def test_global_state_phases():
    # theta=pi branch phases cancel and the state is real
    p = ScmParams(theta=math.pi, lam=1.0, n=2, scenario=Scenario.FULL)
    amps = ideal_global_state(0.9, p).amplitudes
    assert np.max(np.abs(amps.imag)) < 1e-15
    tilted = ScmParams(theta=math.pi / 2, lam=1.0, n=2, scenario=Scenario.FULL)
    amps = ideal_global_state(0.9, tilted).amplitudes
    assert np.max(np.abs(amps.imag)) > 0.1
    with pytest.raises(ValueError):
        ideal_global_state(-0.5, p)


def test_global_state_maximal_mixing():
    # at t_max the condensed n=1 state is Bell-like: reduced system is I/2
    p = ScmParams(theta=math.pi, lam=1.0, n=1)
    rho = partial_trace(ideal_global_state(math.log(2), p), [0])
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-14
