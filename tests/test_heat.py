"""Heat-flow checks: kernel identities, energy balance, log-convexity and
the potential (Duhamel) solver.

Closed-form oracles: the s = 1/2 kernel from special.half_kernel_explicit,
mass and weighted-mass exponentials, and the integrating-factor solution for
a constant potential.
"""
import math
import time

import numpy as np
import pytest

from fracrel.errors import (ConfigError, DomainError, PreconditionError,
                            SeamLeakError)
from fracrel.grid import (GridFunction, SpaceTimeFunction,
                          band_limited_noise, fourier_mode, gaussian,
                          smooth_window, trapezoid)
from fracrel.heat import (PotentialField,
                          backward_uc_check, energy_identity_check,
                          evolve_free, evolve_with_potential,
                          fundamental_solution, log_convexity_check,
                          shifted_kernel, weighted_decay_check,
                          weighted_l1_kernel, weighted_l2)
from fracrel.operator import OperatorParams, frequencies, symbol
from fracrel.special import half_kernel_explicit

P_HALF = OperatorParams(0.5, 1.0)


def windowed_gaussian(L=40.0, n=4096, sigma=1.0):
    w = smooth_window(L, n, inner=8.0, outer=12.0)
    return w.with_values(w.values * np.exp(-0.5 * (w.x / sigma) ** 2))


# ---------------------------------------------------------------- kernel

def test_explicit_kernel_match():
    for t in (0.25, 1.0):
        K = fundamental_solution(t, P_HALF, 40.0, 4096)
        mask = np.abs(K.x) <= 10.0
        want = half_kernel_explicit(t, np.abs(K.x[mask]), 1.0)
        rel = np.max(np.abs(K.values[mask] - want) / np.abs(want))
        assert rel <= 1e-4


def test_kernel_mass_decay():
    for s, m, t in [(0.3, 0.5, 1.0), (0.5, 1.0, 0.7), (0.7, 2.0, 0.4),
                    (1.0, 1.0, 0.5)]:
        K = fundamental_solution(t, OperatorParams(s, m))
        assert abs(trapezoid(K) - math.exp(-t * m ** (2 * s))) <= 1e-12


def test_kernel_positive_and_even():
    K = fundamental_solution(0.5, P_HALF)
    assert K.values.min() >= -1e-15
    # x = 0 sits at index n/2; the seam cell at index 0 has no mirror
    np.testing.assert_allclose(K.values[1:], K.values[1:][::-1],
                               rtol=0.0, atol=1e-15)


def test_kernel_tail_exponential():
    # log K + m x should drift only by the power-law factor over [5, 10]
    K = fundamental_solution(0.1, P_HALF, 40.0, 4096)
    mask = (K.x >= 5.0) & (K.x <= 10.0)
    q = np.log(K.values[mask]) + 1.0 * K.x[mask]
    assert q.max() - q.min() <= 3.0


def test_kernel_rejects_bad_time():
    with pytest.raises(DomainError):
        fundamental_solution(0.0, P_HALF)
    with pytest.raises(DomainError):
        fundamental_solution(-1.0, P_HALF)


def test_shifted_kernel_consistent_with_plain():
    # same function through two different multipliers, compared where the
    # plain route is still above its rounding floor
    for t, mu in [(0.5, 0.4), (1.0, -0.5)]:
        K = fundamental_solution(t, P_HALF, 160.0, 16384)
        W = shifted_kernel(t, mu, P_HALF, 160.0, 16384)
        mask = np.abs(K.x) <= 10.0
        want = np.exp(mu * K.x[mask]) * K.values[mask]
        rel = np.max(np.abs(W.values[mask] - want) / np.abs(want))
        assert rel <= 1e-6


def test_shifted_kernel_rejects_shift_at_mass():
    with pytest.raises(PreconditionError):
        shifted_kernel(0.5, 1.0, P_HALF, 40.0, 1024)


# ---------------------------------------------------- weighted L1 identity

def test_weighted_l1_identity():
    for lam in (0.0, 0.5, 0.9):
        for t in (0.5, 1.0):
            rep = weighted_l1_kernel(t, lam, P_HALF)
            assert rep.passed, (lam, t, rep.measured)
            assert rep.measured["rel_error"] <= 1e-3


def test_weighted_l1_at_mass_edge():
    # at lam = m the closed form is 1 but the integrand tail is a bare
    # power law; the box only truncates it, so the value approaches 1
    # from below at the truncation level
    rep = weighted_l1_kernel(0.5, 1.0, P_HALF, tolerance=0.1)
    assert abs(rep.measured["value"] - 1.0) <= 0.1
    assert rep.measured["value"] < 1.0


def test_weighted_l1_short_time_near_one():
    rep = weighted_l1_kernel(0.02, 0.5, P_HALF)
    assert rep.passed
    assert abs(rep.measured["value"] - 1.0) <= 0.02


def test_weighted_l1_rejects_super_mass():
    with pytest.raises(PreconditionError):
        weighted_l1_kernel(0.5, 1.1, P_HALF)


# ------------------------------------------------------------- evolution

def test_evolve_free_zero_time_is_identity():
    u0 = gaussian(40.0, 4096)
    traj = evolve_free(u0, [0.0], P_HALF)
    np.testing.assert_allclose(traj.values[0], u0.values, atol=1e-14)


def test_evolve_free_semigroup():
    u0 = gaussian(40.0, 4096, sigma=2.0)
    hop = evolve_free(u0, [0.3], P_HALF)
    two_hops = evolve_free(hop.slice(0), [0.7], P_HALF)
    one_hop = evolve_free(u0, [1.0], P_HALF)
    assert np.max(np.abs(two_hops.values[0] - one_hop.values[0])) <= 1e-12


def test_evolve_free_rows_are_single_time_evolutions():
    u0 = gaussian(40.0, 2048, sigma=1.5)
    times = np.linspace(0.0, 1.0, 6)
    traj = evolve_free(u0, times, P_HALF)
    assert isinstance(traj, SpaceTimeFunction)
    assert np.array_equal(traj.times, times)
    for t, row in zip(times, traj.values):
        assert np.array_equal(row, evolve_free(u0, [t], P_HALF).values[0])


def test_evolution_mass_decay():
    u0 = gaussian(40.0, 4096, sigma=1.5)
    base = trapezoid(u0)
    for s, m in [(0.3, 1.0), (0.5, 1.0), (0.7, 2.0)]:
        traj = evolve_free(u0, [0.8], OperatorParams(s, m))
        want = math.exp(-(m ** (2 * s)) * 0.8) * base
        assert abs(trapezoid(traj.slice(0)) - want) <= 1e-12


def test_evolve_free_rejects_negative_time():
    with pytest.raises(DomainError):
        evolve_free(gaussian(40.0, 1024), [-0.1], P_HALF)


def test_evolve_free_rejects_bad_times():
    u0 = gaussian(40.0, 1024)
    for bad in ([0.0, -1.0], [float("nan")], [float("inf")]):
        with pytest.raises(DomainError):
            evolve_free(u0, bad, P_HALF)
    # the trajectory type refuses times that do not increase
    for bad in ([0.5, 0.2], [0.3, 0.3]):
        with pytest.raises(ConfigError):
            evolve_free(u0, bad, P_HALF)


# --------------------------------------------------------- energy balance

def test_energy_identity():
    u0 = gaussian(40.0, 4096, sigma=1.0)
    for s in (0.3, 0.5, 0.7):
        rep = energy_identity_check(u0, OperatorParams(s, 1.0))
        assert rep.passed, rep.measured
        assert rep.measured["max_residual"] <= 1e-4


def test_energy_identity_high_mass_needs_finer_steps():
    # trapezoid residual scales like (m^2 dt)^2; at m = 2 the default 100
    # steps land just above 1e-4, double resolution brings it back
    u0 = gaussian(40.0, 4096, sigma=1.0)
    p = OperatorParams(0.5, 2.0)
    coarse = energy_identity_check(u0, p, steps=100)
    fine = energy_identity_check(u0, p, steps=200)
    assert fine.passed
    assert fine.measured["max_residual"] < coarse.measured["max_residual"]


def test_energy_identity_rejects_bad_horizon():
    with pytest.raises(DomainError):
        energy_identity_check(gaussian(40.0, 1024), P_HALF, T=-1.0)


# ------------------------------------------------------- weighted decay

def test_weighted_decay_nonneg_slack():
    u0 = windowed_gaussian()
    for lam in (0.0, 0.5, 1.0):
        rep = weighted_decay_check(u0, lam, P_HALF)
        assert rep.passed, (lam, rep.measured)


def test_weighted_decay_rejects_beyond_two_mass():
    with pytest.raises(PreconditionError):
        weighted_decay_check(windowed_gaussian(), 2.5, P_HALF)


def test_weighted_l2_seam_guard():
    flat = SpaceTimeFunction(40.0, 1024, [0.0], np.ones((1, 1024)))
    with pytest.raises(SeamLeakError):
        weighted_l2(flat, 0.5)
    # unweighted integrals are periodic and exempt
    assert weighted_l2(flat, 0.0) == pytest.approx([40.0])


# -------------------------------------------------------- log-convexity

def test_log_convexity_gaussian():
    rep = log_convexity_check(gaussian(40.0, 4096), 0.0, P_HALF,
                              tolerance=1e-8)
    assert rep.passed
    assert rep.measured["max_ratio"] <= 1.0 + 1e-8


def test_log_convexity_pure_mode_equality():
    # single frequency: log H is exactly linear in t
    rep = log_convexity_check(fourier_mode(40.0, 4096, 5), 0.0, P_HALF,
                              tolerance=1e-8)
    assert abs(rep.measured["max_ratio"] - 1.0) <= 1e-12


def test_log_convexity_weighted_sweep():
    rng = np.random.default_rng(515)
    for _ in range(10):
        u0 = band_limited_noise(80.0, 2048, k_max=40, rng=rng)
        for lam in (0.0, 0.5):
            rep = log_convexity_check(u0, lam, P_HALF)
            assert rep.passed, (lam, rep.measured)


def test_log_convexity_rejects_super_mass():
    with pytest.raises(PreconditionError):
        log_convexity_check(windowed_gaussian(), 1.5, P_HALF)


def test_log_convexity_zero_data_trivial():
    rep = log_convexity_check(GridFunction(40.0, 1024, np.zeros(1024)),
                              0.0, P_HALF)
    assert rep.passed


# ------------------------------------------------------- potential solver

def test_picard_zero_potential_matches_free():
    u0 = gaussian(40.0, 4096, sigma=2.0)
    traj = evolve_with_potential(u0, PotentialField.constant(0.0), 1.0,
                                 P_HALF)
    free = evolve_free(u0, [1.0], P_HALF)
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.max(np.abs(traj.values[-1] - free.values[-1])) <= 1e-9


def test_picard_constant_potential_oracle():
    # exact solution e^{ct} K_t u0 since constants commute with the flow
    u0 = gaussian(40.0, 4096, sigma=2.0)
    free = evolve_free(u0, [1.0], P_HALF).values[-1]
    for c in (1.0, -1.0, 0.5):
        traj = evolve_with_potential(u0, PotentialField.constant(c), 1.0,
                                     P_HALF, dt=5e-3)
        want = math.exp(c) * free
        rel = np.max(np.abs(traj.values[-1] - want)) / np.max(np.abs(want))
        assert rel <= 1e-5, (c, rel)


def test_step_solves_duhamel_equation():
    # every step: u1 = K_dt(u0 + dt/2 V u0) + dt/2 V u1 to roundoff
    rng = np.random.default_rng(90)
    u0 = gaussian(40.0, 2048, sigma=2.0)
    sig = symbol(P_HALF, frequencies(40.0, 2048))
    for _ in range(5):
        prof = band_limited_noise(40.0, 2048, k_max=30, rng=rng,
                                  windowed=False)
        v = prof.values
        traj = evolve_with_potential(u0, PotentialField.static(prof), 0.5,
                                     P_HALF)
        assert traj.nt == 51
        for k, dt in enumerate(np.diff(traj.times)):
            now, nxt = traj.values[k], traj.values[k + 1]
            flow = np.fft.irfft(np.fft.rfft(now + 0.5 * dt * v * now)
                                * np.exp(-dt * sig), 2048)
            res = np.max(np.abs(nxt - flow - 0.5 * dt * v * nxt))
            assert res <= 1e-12 * np.max(np.abs(nxt)), (k, res)


def test_picard_preconditions():
    u0 = gaussian(40.0, 1024)
    with pytest.raises(PreconditionError):
        evolve_with_potential(u0, PotentialField.constant(2.0), 1.0, P_HALF,
                              dt=0.3)
    with pytest.raises(DomainError):
        evolve_with_potential(u0, PotentialField.constant(0.1), -1.0, P_HALF)


def test_positivity_preserved():
    u0 = gaussian(40.0, 4096, sigma=1.0)
    traj = evolve_with_potential(u0, PotentialField.constant(0.3), 1.0,
                                 P_HALF)
    assert traj.values.min() >= -1e-10


def test_evolution_trajectory_layout_and_single_sampling():
    # one (nt, n) array on the solver's step grid, with V sampled once
    u0 = gaussian(40.0, 1024, sigma=2.0)
    calls = []

    def evaluator(x):
        calls.append(x.size)
        return 0.2 * np.cos(x)

    traj = evolve_with_potential(u0, PotentialField(evaluator, 0.2), 0.25,
                                 P_HALF, dt=0.1)
    assert calls == [1024]
    assert traj.values.shape == (4, 1024)
    np.testing.assert_array_equal(traj.times, [0.0, 0.1, 0.2, 0.25])
    np.testing.assert_array_equal(traj.values[0], u0.values)


def test_potential_field_contract():
    with pytest.raises(ConfigError):
        PotentialField(lambda x: x, -1.0)
    lying = PotentialField(lambda x: np.full_like(x, 3.0), 1.0)
    with pytest.raises(DomainError):
        lying.sample(gaussian(40.0, 1024))
    broken = PotentialField(lambda x: np.full_like(x, np.inf), 1.0)
    with pytest.raises(DomainError):
        broken.sample(gaussian(40.0, 1024))
    const = PotentialField.constant(-0.7)
    assert const.sup_norm == pytest.approx(0.7)
    prof = gaussian(40.0, 1024, sigma=3.0)
    static = PotentialField.static(prof)
    np.testing.assert_array_equal(static.sample(prof), prof.values)
    assert static.sup_norm == np.max(np.abs(prof.values))
    # the samples define the potential only on the profile's own grid
    for other in (gaussian(40.0, 2048), gaussian(80.0, 1024)):
        with pytest.raises(PreconditionError):
            static.sample(other)


def test_step_size_validation():
    u0 = gaussian(40.0, 1024)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            evolve_with_potential(u0, PotentialField.constant(0.1), 1.0,
                                  P_HALF, dt=dt)


# -------------------------------------------------- backward uniqueness

def test_backward_uc_free():
    traj = evolve_with_potential(gaussian(40.0, 4096),
                                 PotentialField.constant(0.0), 1.0, P_HALF)
    rep = backward_uc_check(traj, None, P_HALF)
    assert rep.passed
    assert rep.measured["kappa"] <= 1.0 + 1e-8


def test_backward_uc_with_potential_reports_kappa():
    rng = np.random.default_rng(11)
    V = PotentialField.static(band_limited_noise(40.0, 4096, k_max=20,
                                                 rng=rng, windowed=False))
    traj = evolve_with_potential(gaussian(40.0, 4096), V, 1.0, P_HALF)
    rep = backward_uc_check(traj, V, P_HALF)
    assert rep.passed  # report-only path
    assert math.isfinite(rep.measured["kappa"])
    assert rep.measured["kappa"] >= 0.9
