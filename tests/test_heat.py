"""Heat-flow checks: kernel identities, energy balance, log-convexity and
the potential (Duhamel) solver.

Closed-form oracles: the s = 1/2 kernel from oracles.half_kernel_explicit,
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
                          band_limited_noise, gaussian, smooth_window)
from fracrel import heat
from fracrel.heat import (CHUNK_ROWS, PotentialField, energy_identity_check,
                          evolve_free, evolve_with_potential,
                          log_convexity_check, weighted_decay_check)
from fracrel.operator import OperatorParams, frequencies, symbol
from oracles import (backward_uc_check, collect, energy_identity_loop,
                     fourier_mode, fundamental_solution,
                     half_kernel_explicit, shifted_kernel, state_at,
                     trapezoid, weighted_l1_kernel, weighted_l2,
                     windowed_noise)

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

def free_states(u0, times, p=P_HALF):
    """The free flow at ``times``, its stream read into one trajectory."""
    return collect(u0, evolve_free(u0, times, p))


def test_evolve_free_zero_time_is_identity():
    u0 = gaussian(40.0, 4096)
    traj = free_states(u0, [0.0])
    np.testing.assert_allclose(traj.values[0], u0.values, atol=1e-14)


def test_evolve_free_semigroup():
    u0 = gaussian(40.0, 4096, sigma=2.0)
    hop = free_states(u0, [0.3])
    two_hops = free_states(state_at(hop, 0), [0.7])
    one_hop = free_states(u0, [1.0])
    assert np.max(np.abs(two_hops.values[0] - one_hop.values[0])) <= 1e-12


def test_evolve_free_rows_are_single_time_evolutions():
    u0 = gaussian(40.0, 2048, sigma=1.5)
    times = np.linspace(0.0, 1.0, 6)
    chunks = list(evolve_free(u0, times, P_HALF))
    # chunks of CHUNK_ROWS states, the last one shorter
    assert [len(rows) for _, rows in chunks] == [CHUNK_ROWS, 2]
    traj = collect(u0, chunks)
    assert np.array_equal(traj.times, times)
    for t, row in zip(times, traj.values):
        assert np.array_equal(row, free_states(u0, [t]).values[0])


def test_evolve_free_rows_are_the_per_time_transforms():
    # the batched decay equals one transform per time, bit for bit
    u0 = gaussian(40.0, 4096, sigma=1.5)
    times = np.linspace(0.0, 2.0, 21)
    spec = np.fft.rfft(u0.values)
    sig = symbol(P_HALF, frequencies(40.0, 4096))
    traj = free_states(u0, times)
    for t, row in zip(times, traj.values):
        assert np.array_equal(row, np.fft.irfft(spec * np.exp(-t * sig),
                                                4096))


def test_evolution_mass_decay():
    u0 = gaussian(40.0, 4096, sigma=1.5)
    base = trapezoid(u0)
    for s, m in [(0.3, 1.0), (0.5, 1.0), (0.7, 2.0)]:
        traj = free_states(u0, [0.8], OperatorParams(s, m))
        want = math.exp(-(m ** (2 * s)) * 0.8) * base
        assert abs(trapezoid(state_at(traj, 0)) - want) <= 1e-12


def test_evolve_free_rejects_negative_time():
    with pytest.raises(DomainError):
        next(evolve_free(gaussian(40.0, 1024), [-0.1], P_HALF))


def test_evolve_free_rejects_bad_times():
    u0 = gaussian(40.0, 1024)
    for bad in ([0.0, -1.0], [float("nan")], [float("inf")]):
        with pytest.raises(DomainError):
            next(evolve_free(u0, bad, P_HALF))
    # times that do not increase, even past the first chunk, are refused
    # at it
    for bad in ([0.5, 0.2], [0.3, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5, 0.5]):
        with pytest.raises(ConfigError):
            next(evolve_free(u0, bad, P_HALF))


# --------------------------------------------------------- energy balance

def test_energy_identity():
    u0 = gaussian(40.0, 4096, sigma=1.0)
    for s in (0.3, 0.5, 0.7):
        rep = energy_identity_check(u0, OperatorParams(s, 1.0))
        assert rep.passed, rep.measured
        assert rep.measured["max_residual"] <= 1e-4


def test_energy_identity_high_mass_needs_finer_steps():
    # negative control: the trapezoid residual scales like (m^2 dt)^2, and
    # at m = 2 the check's 100 steps land just above its 1e-4 tolerance
    # (max_residual 1.478e-4), so the check fails
    u0 = gaussian(40.0, 4096, sigma=1.0)
    rep = energy_identity_check(u0, OperatorParams(0.5, 2.0))
    assert rep.passed is False
    assert rep.measured["violation"] > rep.tolerance
    assert rep.measured["max_residual"] == pytest.approx(1.478e-4, rel=1e-3)


@pytest.mark.parametrize("s, m", [(0.5, 1.0), (0.3, 2.0), (0.9, 0.5)])
def test_energy_identity_is_the_per_time_loop(s, m):
    # the semigroup core's chunks, summed row-wise, give the numbers of the
    # loop over one time at a time bit for bit; tolerance 0 keeps the
    # witness
    u0 = gaussian(40.0, 4096, sigma=2.0)
    rep = energy_identity_check(u0, OperatorParams(s, m), tolerance=0.0)
    want = energy_identity_loop(u0, OperatorParams(s, m))
    assert rep.measured["max_residual"] == want["max_residual"]
    assert rep.measured["initial_energy"] == want["initial_energy"]
    assert rep.witness["t"] == want["t"]


def parseval_gap(u0):
    """Relative gap between the energy identity's initial energy (Parseval)
    and the spatial trapezoid of u0^2."""
    energy = energy_identity_check(u0, P_HALF).measured["initial_energy"]
    want = trapezoid(u0.with_values(u0.values ** 2))
    return abs(energy - want) / want


def test_energy_identity_initial_energy_is_the_trapezoid():
    assert parseval_gap(gaussian(40.0, 4096, sigma=2.0)) <= 1e-13


def test_energy_identity_parseval_catches_a_miscount(monkeypatch):
    # negative control: counting the interior bins once miscounts the
    # energy and the dissipation alike, so the identity still balances
    # (max_residual 3.24e-5), but the initial energy reads 2.087, not 3.545
    monkeypatch.setattr(heat, "_mode_quadratic",
                        lambda power, L, n: power.sum(axis=-1) * L / n ** 2)
    u0 = gaussian(40.0, 4096, sigma=2.0)
    assert energy_identity_check(u0, P_HALF).passed
    assert parseval_gap(u0) > 0.1


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
        u0 = windowed_noise(80.0, 2048, k_max=40, rng=rng)
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
    # the early return echoes the inputs every other report echoes
    full = log_convexity_check(gaussian(40.0, 1024), 0.0, P_HALF)
    assert rep.inputs.keys() == full.inputs.keys()


# ------------------------------------------------------- potential solver

def test_picard_zero_potential_matches_free():
    u0 = gaussian(40.0, 4096, sigma=2.0)
    traj = collect(u0, evolve_with_potential(
        [u0], np.full(u0.n, 0.0), 1.0, P_HALF))
    free = free_states(u0, [1.0])
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.max(np.abs(traj.values[-1] - free.values[-1])) <= 1e-9
    # on the linear suite's grid, every one of the 1001 states of the
    # exact free flow matches the zero-potential steps at dt = 1e-3 (the
    # largest gap is 1.6e-14 of max |u0|)
    u0 = gaussian(128.0, 4096, sigma=2.0)
    traj = collect(u0, evolve_with_potential(
        [u0], np.full(u0.n, 0.0), 1.0, P_HALF, dt=1e-3))
    free = free_states(u0, np.linspace(0.0, 1.0, 1001))
    assert traj.nt == free.nt == 1001
    np.testing.assert_allclose(traj.times, free.times, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(traj.values - free.values)) <= 1e-13 * np.max(
        np.abs(u0.values))


def test_steps_are_the_closed_form_bit_for_bit():
    # full steps share their factors and the shorter final step has its
    # own; each state is the closed-form step of the one before it
    rng = np.random.default_rng(5)
    u0 = gaussian(40.0, 1024, sigma=2.0)
    prof = band_limited_noise(40.0, 1024, k_max=20, rng=rng)
    v = prof.values
    sig = symbol(P_HALF, frequencies(40.0, 1024))
    traj = collect(u0, evolve_with_potential(
        [u0], prof.values, 0.305, P_HALF))
    # the step grid: dt until the horizon is within one step
    steps = [min(1e-2, 0.305 - t) for t in traj.times[:-1]]
    assert steps[0] == 1e-2 and steps[-1] < 1e-2
    for k, step in enumerate(steps):
        u = traj.values[k]
        want = np.fft.irfft(np.fft.rfft(u + 0.5 * step * v * u)
                            * np.exp(-step * sig), 1024) \
            / (1.0 - 0.5 * step * v)
        assert np.array_equal(traj.values[k + 1], want), k


def test_picard_constant_potential_oracle():
    # exact solution e^{ct} K_t u0 since constants commute with the flow
    u0 = gaussian(40.0, 4096, sigma=2.0)
    free = free_states(u0, [1.0]).values[-1]
    for c in (1.0, -1.0, 0.5):
        traj = collect(u0, evolve_with_potential(
            [u0], np.full(u0.n, c), 1.0, P_HALF,
            dt=5e-3))
        want = math.exp(c) * free
        rel = np.max(np.abs(traj.values[-1] - want)) / np.max(np.abs(want))
        assert rel <= 1e-5, (c, rel)


def test_step_solves_duhamel_equation():
    # every step: u1 = K_dt(u0 + dt/2 V u0) + dt/2 V u1 to roundoff
    rng = np.random.default_rng(90)
    u0 = gaussian(40.0, 2048, sigma=2.0)
    sig = symbol(P_HALF, frequencies(40.0, 2048))
    for _ in range(5):
        prof = band_limited_noise(40.0, 2048, k_max=30, rng=rng)
        v = prof.values
        traj = collect(u0, evolve_with_potential(
            [u0], prof.values, 0.5, P_HALF))
        assert traj.nt == 51
        for k, dt in enumerate(np.diff(traj.times)):
            now, nxt = traj.values[k], traj.values[k + 1]
            flow = np.fft.irfft(np.fft.rfft(now + 0.5 * dt * v * now)
                                * np.exp(-dt * sig), 2048)
            res = np.max(np.abs(nxt - flow - 0.5 * dt * v * nxt))
            assert res <= 1e-12 * np.max(np.abs(nxt)), (k, res)


def test_picard_preconditions():
    # the stream raises when its first chunk is asked for
    u0 = gaussian(40.0, 1024)
    with pytest.raises(PreconditionError):
        next(evolve_with_potential(
            [u0], np.full(u0.n, 2.0), 1.0, P_HALF,
            dt=0.3))
    with pytest.raises(DomainError):
        next(evolve_with_potential(
            [u0], np.full(u0.n, 0.1), -1.0, P_HALF))


def test_positivity_preserved():
    u0 = gaussian(40.0, 4096, sigma=1.0)
    traj = collect(u0, evolve_with_potential(
        [u0], np.full(u0.n, 0.3), 1.0, P_HALF))
    assert traj.values.min() >= -1e-10


def test_evolution_trajectory_layout_and_single_sampling(monkeypatch):
    # one state of the group per chunk, on the solver's step grid: the
    # first is u0 as one row, before any transform, and each further chunk
    # costs one rfft, stepped only when it is asked for and written into an
    # array of its own, so a chunk held on is not overwritten by the next;
    # V is sampled once, by the caller, and the stepper reads the samples
    u0 = gaussian(40.0, 1024, sigma=2.0)
    calls, steps = [], []
    real_sample, real_rfft = PotentialField.sample, np.fft.rfft
    monkeypatch.setattr(PotentialField, "sample", lambda self, grid: (
        calls.append(grid.n) or real_sample(self, grid)))
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *a, **k: steps.append(1) or real_rfft(*a, **k))
    v = PotentialField(u0.with_values(0.2 * np.cos(u0.x))).sample(u0)
    stream = evolve_with_potential([u0], v, 0.22, P_HALF, dt=0.04)
    assert calls == [1024] and steps == []
    chunks = [next(stream)]
    assert steps == []
    np.testing.assert_array_equal(chunks[0][0], [0.0])
    np.testing.assert_array_equal(chunks[0][1], [u0.values])
    for chunk in stream:
        chunks.append(chunk)
        assert len(steps) == len(chunks) - 1
    assert calls == [1024]
    assert [(t.shape, r.shape) for t, r in chunks] == [((1,), (1, 1024))] * 7
    np.testing.assert_allclose(np.concatenate([t for t, _ in chunks]),
                               [0.0, 0.04, 0.08, 0.12, 0.16, 0.2, 0.22],
                               rtol=1e-14)
    # the first chunk, held while the stream stepped on, is still u0
    np.testing.assert_array_equal(chunks[0][1], [u0.values])
    assert not any(np.shares_memory(a, b)
                   for (_, a), (_, b) in zip(chunks, chunks[1:]))


def test_potential_field_contract():
    # V is its samples: each sample is a copy of them, so mutating one
    # leaves the next unchanged, and sup_norm is their largest magnitude
    prof = gaussian(40.0, 1024, sigma=3.0)
    prof = prof.with_values(-0.7 * prof.values)
    V = PotentialField(prof)
    first = V.sample(prof)
    np.testing.assert_array_equal(first, prof.values)
    first[:] = 5.0
    np.testing.assert_array_equal(V.sample(prof), prof.values)
    assert V.sup_norm == np.max(np.abs(prof.values)) == 0.7
    # the samples define the potential only on the profile's own grid
    for other in (gaussian(40.0, 2048), gaussian(80.0, 1024)):
        with pytest.raises(PreconditionError):
            V.sample(other)
    # a non-finite profile is refused when it is built
    with pytest.raises(ConfigError):
        PotentialField(GridFunction(40.0, 1024, np.full(1024, np.inf)))


def test_step_size_validation():
    u0 = gaussian(40.0, 1024)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            next(evolve_with_potential(
                [u0], np.full(u0.n, 0.1), 1.0, P_HALF,
                dt=dt))


# -------------------------------------------------- backward uniqueness

def test_backward_uc_free():
    u0 = gaussian(40.0, 4096)
    traj = collect(u0, evolve_with_potential(
        [u0], np.full(u0.n, 0.0), 1.0, P_HALF))
    rep = backward_uc_check(traj, None, P_HALF)
    assert rep.passed
    assert rep.measured["kappa"] <= 1.0 + 1e-8


def test_backward_uc_with_potential_reports_kappa():
    rng = np.random.default_rng(11)
    V = PotentialField(band_limited_noise(40.0, 4096, k_max=20, rng=rng))
    u0 = gaussian(40.0, 4096)
    traj = collect(u0, evolve_with_potential([u0], V.sample(u0), 1.0,
                                             P_HALF))
    rep = backward_uc_check(traj, V, P_HALF)
    assert rep.passed  # report-only path
    assert math.isfinite(rep.measured["kappa"])
    assert rep.measured["kappa"] >= 0.9
