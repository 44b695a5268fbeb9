"""Tilted-weight functionals: closed-form oracles and inequality checks.

Oracles: the tilted Gaussian integral int e^(lam x) e^(-x^2/sig^2)
= sig sqrt(pi) e^((lam sig)^2 / 4), single Fourier modes (for which the
free flow and every functional are elementary exponentials), wide-plateau
data (for which the quadratic forms reduce to -m^(2s) u^2 and -m^(4s) u^2
pointwise), and polynomial mass histories for the tent identity.
"""
import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from fracrel.errors import (AdmissibilityError, CalibrationError,
                            ConfigError, OverflowGuardError,
                            PreconditionError, SeamLeakError)
from fracrel.grid import (GridFunction, SpaceTimeFunction, gaussian,
                          smooth_window)
from fracrel import heat
from fracrel.heat import evolve_with_potential, tilted_integrals
from fracrel import linear_carleman
from fracrel.linear_carleman import (LinearWeight, TILTED_MASS_COEFF,
                                     _ledger, _production_rate,
                                     _tent_residuals,
                                     calibrate_constants,
                                     carleman_corpus, carleman_linear_check,
                                     ledger_series,
                                     load_calibration, monotonicity_check,
                                     tent_identity_check, tilted_series)
from fracrel import operator as op
from fracrel.operator import OperatorParams, apply_spectral
from oracles import (carre_du_champ, collect, constant_potential,
                     ddot_lower_bound_check, fourier_mode, functional_D,
                     functional_H, ledger_check, ledger_terms,
                     mass_series,
                     spectral_carre, state_at, stored_chunks,
                     stored_evolution, stored_series,
                     trapezoid, weighted_integral, weighted_l2,
                     windowed_exponential)

P_HALF = OperatorParams(0.5, 1.0)
W_MAIN = LinearWeight(0.5, -11.0)          # the operating drift -(m^(2s)+10)
MU_MAIN = 0.75 ** 0.5                      # (m^2 - lam^2)^s at lam = 1/2


def plateau(L=256.0, n=8192):
    return smooth_window(L, n, inner=50.0, outer=60.0)


@functools.lru_cache(maxsize=None)
def corpus_draw(i, L=128.0, n=4096):
    pairs = list(carleman_corpus(L, n, draws=i + 1, seed=20260822))
    return pairs[i]


def fine_stream(u0, V, T):
    """The stream of the flow under V (None for none) at the fine step
    1e-3."""
    v = np.full(u0.n, 0.0) if V is None else V.sample(u0)
    return evolve_with_potential([u0], v, T, P_HALF, dt=1e-3)


def fine_flow(u0, V, T):
    """The flow under V (None for none) at the fine step 1e-3, stored."""
    return collect(u0, fine_stream(u0, V, T))


def fine_series(u0, V, T, lam):
    """The tilted series without the energy terms, integrated as the flow
    is stepped: the input of the monotonicity and tent checks."""
    [flow] = tilted_series(u0, fine_stream(u0, V, T), lam, P_HALF,
                           None if V is None else V.sample(u0),
                           with_energy=False)
    return flow


def stored_input(traj, lam):
    """The same input from a stored free trajectory."""
    [flow] = tilted_series(traj, stored_chunks(traj), lam, P_HALF, None,
                           with_energy=False)
    return flow


def one_row(g, t=0.0):
    """g as the one-state trajectory at time t."""
    return SpaceTimeFunction(g.L, g.n, [t], g.values[None, :])


def kernel_cell_production(g, w, p):
    """D at t = 0 from the kernel-cell quadratic form rather than the
    transform, a genuinely different discretization:
    (drift - mu) H + int e^(lam x) H(u, u)."""
    form = carre_du_champ(g, g, p)
    return w.drift_gap(p) * functional_H(one_row(g), w)[0] \
        + weighted_integral(g, form.values, w.lam, "quadratic-form integrand")


def rows(traj, picks):
    """The sub-trajectory of the given states."""
    return SpaceTimeFunction(traj.L, traj.n, traj.times[picks],
                             traj.values[picks])


@functools.lru_cache(maxsize=None)
def free_gaussian_unit_series():
    return fine_series(gaussian(128.0, 4096, sigma=2.0), None, 1.0, 0.5)


# ---------------------------------------------------------------- weight

def test_weight_eigenvalue_and_gap():
    w = LinearWeight(0.5, -11.0)
    assert math.isclose(w.eigenvalue(P_HALF), MU_MAIN, rel_tol=1e-14)
    assert math.isclose(w.drift_gap(P_HALF), -11.0 - MU_MAIN,
                        rel_tol=1e-14)
    assert LinearWeight(0.0, 0.0).eigenvalue(P_HALF) == 1.0


def test_weight_tilt_must_stay_subcritical():
    with pytest.raises(PreconditionError):
        LinearWeight(1.0, -5.0).eigenvalue(P_HALF)
    with pytest.raises(PreconditionError):
        LinearWeight(-1.3, -5.0).require_tilt(P_HALF)
    with pytest.raises(ConfigError):
        LinearWeight(math.nan, 0.0)


def test_weight_admissibility_gate():
    c2 = 4.0
    LinearWeight(0.5, -11.0).require_admissible(P_HALF, c2)
    # drift above -m^(2s)
    with pytest.raises(AdmissibilityError):
        LinearWeight(0.5, -0.5).require_admissible(P_HALF, c2)
    # below -m^(2s) but inside the calibrated gap
    with pytest.raises(AdmissibilityError):
        LinearWeight(0.5, -1.05).require_admissible(P_HALF, c2)


# ---------------------------------------------------------------- mass

def test_tilted_mass_gaussian_oracle():
    # int e^(lam x) e^(-x^2/sig^2) dx = sig sqrt(pi) exp((lam sig)^2/4)
    sig = 2.0
    g = gaussian(64.0, 2048, sigma=sig)
    for lam, drift, t in [(0.0, 0.0, 0.0), (0.5, -3.0, 0.3),
                          (-0.4, 2.0, 0.1)]:
        w = LinearWeight(lam, drift)
        want = (sig * math.sqrt(math.pi) * math.exp((lam * sig) ** 2 / 4.0)
                * math.exp(drift * t))
        got = functional_H(one_row(g, t), w)[0]
        assert math.isclose(got, want, rel_tol=1e-10)
        assert got >= 0.0


def test_tilted_mass_rejects_seam_leak():
    flat = GridFunction(64.0, 1024, np.ones(1024))
    with pytest.raises(SeamLeakError):
        functional_H(one_row(flat), LinearWeight(0.5, 0.0))


def test_tilted_mass_is_the_series_mass_column():
    # the tent reads exp(drift t) times the series' mass: bit for bit the
    # mass of one pass of its own and the mass term the monotonicity
    # check weighs
    traj, _ = fine_trajectory("gaussian")
    flow = stored_series(traj, W_MAIN.lam, P_HALF, None)
    want = np.exp(W_MAIN.drift * flow.times) * flow.terms["mass"]
    assert np.array_equal(functional_H(traj, W_MAIN), want)
    assert np.array_equal(flow.weighted(W_MAIN.drift)["mass"], want)
    mass = mass_series(traj, stored_chunks(traj), W_MAIN.lam).checked()
    assert np.array_equal(mass.terms["mass"], flow.terms["mass"])


# ---------------------------------------------------------------- chunked series

def per_row_series(traj, lam, p, V, with_energy):
    """The tilted series of tilted_series, one state and one
    weighted_integral at a time: the oracle of the chunked engine."""
    mu = LinearWeight(lam, 0.0).eigenvalue(p)
    names = ("mass", "op_pair", "form_s", "forcing_sq", "cross")
    if with_energy:
        names += ("kinetic", "form_2s")
    series = {name: np.zeros(traj.nt) for name in names}
    v = None if V is None else V.sample(traj)
    for i in range(traj.nt):
        g = state_at(traj, i)
        u = g.values

        def integral(values, what):
            return weighted_integral(g, values, lam, what)

        lsu = apply_spectral(g, p).values
        f_vals = None if v is None else v * u
        mass = integral(u ** 2, "tilted mass integrand")
        op_pair = integral(u * lsu, "production integrand")
        series["mass"][i] = mass
        series["op_pair"][i] = op_pair
        series["form_s"][i] = mu * mass - 2.0 * op_pair
        if with_energy:
            u_t = -lsu if f_vals is None else f_vals - lsu
            series["kinetic"][i] = integral(u_t * u_t, "kinetic integrand")
            l2su = apply_spectral(g, OperatorParams(2.0 * p.s, p.m)).values
            series["form_2s"][i] = mu * mu * mass - 2.0 * integral(
                u * l2su, "order-2s pairing integrand")
        if f_vals is not None:
            series["forcing_sq"][i] = integral(f_vals * f_vals,
                                               "forcing integrand")
            series["cross"][i] = 2.0 * integral(u * f_vals,
                                                "cross integrand")
    return series


@functools.lru_cache(maxsize=None)
def small_draw():
    """A corpus draw on a small box."""
    (u0, V), = carleman_corpus(64.0, 512, draws=1, seed=3)
    return u0, V


def assert_streamed_series_equal_the_stored_route(T, dt, forced,
                                                  with_energy, lam):
    """The series integrated as the small draw's flow is stepped, against
    the whole trajectory stepped into one array and integrated afterwards,
    and against one state and one integral at a time; returns the number
    of states."""
    u0, V = small_draw()
    pot = V if forced else constant_potential(u0, 0.0)
    V = V if forced else None
    v = pot.sample(u0)
    [flow] = tilted_series(u0, evolve_with_potential([u0], v, T, P_HALF,
                                                     dt=dt),
                           lam, P_HALF, v if forced else None, with_energy)
    traj = stored_evolution(u0, pot, T, P_HALF, dt)
    stored = stored_series(traj, lam, P_HALF, V, with_energy)
    want = per_row_series(traj, lam, P_HALF, V, with_energy)
    assert flow.failures == []
    assert np.array_equal(flow.times, traj.times)
    assert list(flow.terms) == list(stored.terms) == list(want)
    for name in want:
        assert np.array_equal(flow.terms[name], stored.terms[name]), name
        assert np.array_equal(flow.terms[name], want[name]), name
    assert np.array_equal(collect(u0, evolve_with_potential(
        [u0], v, T, P_HALF, dt=dt)).values, traj.values)
    assert np.array_equal(
        weighted_l2(traj, lam),
        [weighted_integral(state_at(traj, i), row ** 2, lam)
         for i, row in enumerate(traj.values)])
    return traj.nt


@pytest.mark.parametrize("nt", [heat.CHUNK_ROWS - 1, heat.CHUNK_ROWS, 101,
                                1001, heat.CHUNK_ROWS + 1])
@pytest.mark.parametrize("forced", [True, False])
@pytest.mark.parametrize("with_energy", [True, False])
@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_chunked_series_equal_the_per_row_loop(nt, forced, with_energy,
                                               lam):
    # the stepper's chunks are one state each, so the nt either side of
    # CHUNK_ROWS probe the chunk boundaries of the stored route
    # (oracles.stored_chunks); 101 and 1001 states make many chunks
    assert assert_streamed_series_equal_the_stored_route(
        (nt - 1) * 1e-3, 1e-3, forced, with_energy, lam) == nt


@pytest.mark.parametrize("forced", [True, False])
@pytest.mark.parametrize("with_energy", [True, False])
@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_chunked_series_after_a_shorter_final_step(forced, with_energy,
                                                   lam):
    # 30 steps of dt and a final one of dt / 2, with factors of its own
    assert assert_streamed_series_equal_the_stored_route(
        0.305, 1e-2, forced, with_energy, lam) == 32


@pytest.mark.parametrize("draws", [1, 2, 3, heat.CHUNK_ROWS])
@pytest.mark.parametrize("T", [0.1, 0.305])
def test_group_stream_is_its_draws_streams(draws, T):
    # a group stepped together, one chunk per state and a row per draw,
    # holds each draw's states and series bit for bit as the state-by-state
    # reference steps and integrates them, a group of one and a partial
    # group of three too, after 0.305's shorter final step too
    group = list(carleman_corpus(64.0, 512, draws=draws, seed=3))
    u0s = [u0 for u0, _ in group]
    v = np.array([V.sample(u0) for u0, V in group])
    chunks = list(evolve_with_potential(u0s, v, T, P_HALF, dt=1e-2))
    assert {(len(t), len(rows)) for t, rows in chunks} == {(1, draws)}
    flows = tilted_series(u0s[0], iter(chunks), 0.5, P_HALF, v)
    assert len(flows) == draws
    for d, (u0, V) in enumerate(group):
        traj = stored_evolution(u0, V, T, P_HALF, 1e-2)
        assert np.array_equal(np.concatenate([t for t, _ in chunks]),
                              traj.times)
        assert np.array_equal([rows[d] for _, rows in chunks], traj.values)
        want = stored_series(traj, 0.5, P_HALF, V)
        assert flows[d].failures == want.failures == []
        assert np.array_equal(flows[d].times, want.times)
        assert list(flows[d].terms) == list(want.terms)
        for name in want.terms:
            assert np.array_equal(flows[d].terms[name],
                                  want.terms[name]), name


def indexed_states(nt, L=64.0, n=512):
    """nt constant states whose values are their indices 0, 1, ..., so a
    chunk's rows name their states."""
    return SpaceTimeFunction(L, n, np.arange(float(nt)),
                             np.repeat(np.arange(float(nt))[:, None], n, 1))


def integrate(traj, lam, what, integrands):
    """tilted_integrals over a stored trajectory, CHUNK_ROWS states at a
    time."""
    [flow] = tilted_integrals(traj, stored_chunks(traj), lam, what,
                              integrands)
    return flow


def by_state(integrands):
    """The integrands callback that serves a chunk of indexed_states its
    rows of each (nt, n) array in ``integrands``."""
    def chunk_rows(chunk):
        first, last = int(chunk[0, 0]), int(chunk[-1, 0])
        return [values[first:last + 1] for values in integrands]
    return chunk_rows


def leaky_integrands(traj, leaks):
    """Two integrands on traj's states: a decayed profile, except that
    integrand j of state i is flat (so it leaks at any tilt) for each
    (i, j) in ``leaks``."""
    flat = np.ones(traj.n)
    decayed = gaussian(traj.L, traj.n, sigma=2.0).values
    return [np.array([flat if (i, j) in leaks else decayed
                      for i in range(traj.nt)]) for j in range(2)]


def test_chunk_failure_is_the_first_in_state_order():
    # state 2 leaks in its second integrand, state 3 in its first: a
    # state-by-state loop meets state 2 first, and so must the chunk; the
    # first integrand goes on, to its own failure at state 3
    assert 2 // heat.CHUNK_ROWS == 3 // heat.CHUNK_ROWS
    traj = indexed_states(6)
    what = ("tilted mass integrand", "production integrand")
    values = leaky_integrands(traj, {(2, 1), (3, 0)})
    flow = integrate(traj, 0.5, what, by_state(values))
    assert [j for j, _ in flow.failures] == [1, 0]
    for count, (state, j) in ((None, (2, 1)), (1, (3, 0))):
        with pytest.raises(SeamLeakError) as chunked:
            flow.checked(count)
        with pytest.raises(SeamLeakError) as one_state:
            weighted_integral(state_at(traj, state), values[j][state], 0.5,
                              what[j])
        assert str(chunked.value) == str(one_state.value)
    assert str(chunked.value).startswith("tilted mass integrand has ")


def test_later_integrand_failure_leaves_the_first_whole():
    # a leak in the second integrand alone: the pass over both fails, the
    # first integrand's integrals are those of a pass of its own
    traj = indexed_states(9)
    what = ("tilted mass integrand", "production integrand")
    values = leaky_integrands(traj, {(1, 1), (6, 1)})
    flow = integrate(traj, 0.5, what, by_state(values))
    alone = integrate(traj, 0.5, what[:1], by_state(values[:1])).checked()
    assert [j for j, _ in flow.failures] == [1]
    assert str(flow.failures[0][1]).startswith("production integrand has ")
    assert np.array_equal(flow.checked(1).terms[what[0]],
                          alone.terms[what[0]])


def test_tent_reads_past_a_production_failure():
    # the free series with a production leak recorded: the monotonicity
    # check, which reads the production, fails on it; the tent, which
    # reads only the mass, keeps its report
    flow = free_gaussian_unit_series()
    leak = SeamLeakError("production integrand has relative magnitude 1")
    leaky = flow._replace(failures=[(1, leak)])
    with pytest.raises(SeamLeakError, match="^production integrand has "):
        monotonicity_check(leaky, None, W_MAIN, P_HALF)
    rep, want = (tent_identity_check(f, W_MAIN) for f in (leaky, flow))
    assert rep.passed and (rep.measured, rep.witness) == (want.measured,
                                                          want.witness)


@pytest.mark.parametrize("nonfinite_first", [True, False])
def test_chunk_nonfinite_values_raise_in_state_order(nonfinite_first):
    traj = indexed_states(6)
    bad, leak = ((1, 1), (2, 0)) if nonfinite_first else ((2, 0), (1, 1))
    values = leaky_integrands(traj, {leak})
    values[bad[1]][bad[0], 100] = math.nan
    flow = integrate(traj, 0.5, ("a", "b"), by_state(values))
    with pytest.raises(ConfigError if nonfinite_first else SeamLeakError):
        flow.checked()
    # untilted, the seam is exempt and only the values are checked
    flow = integrate(traj, 0.0, ("a", "b"), by_state(values))
    with pytest.raises(ConfigError, match="^values must be finite$"):
        flow.checked()


def test_chunk_sum_overflow_stays_inf():
    # finite values whose sum overflows are not an error, as for one state
    traj = indexed_states(2)
    big = np.full((2, traj.n), 1e306)
    with np.errstate(over="ignore"):
        got = integrate(traj, 0.0, ("big",), by_state([big])).checked()
        one_state = weighted_integral(state_at(traj, 0), big[0], 0.0)
    assert one_state == math.inf
    assert np.array_equal(got.terms["big"], [math.inf, math.inf])


def test_chunked_series_share_one_forward_transform(monkeypatch):
    # one forward transform per chunk serves both orders, against two per
    # state when every state was its own call
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        real = getattr(np.fft, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    u0, V = small_draw()
    traj = stored_evolution(u0, V, 0.1, P_HALF, 1e-3)
    counts.update(rfft=0, irfft=0)
    stored_series(traj, 0.5, P_HALF, V)
    chunks = math.ceil(101 / heat.CHUNK_ROWS)
    assert counts["rfft"] <= chunks
    assert counts["irfft"] <= 2 * chunks


# ---------------------------------------------------------------- production

@pytest.fixture
def tight_kernel(monkeypatch):
    """The kernel cells at a wider cutoff, more corrected cells and a higher
    order than the production constants (there the routes differ by 4e-6)."""
    monkeypatch.setattr(op, "KERNEL_FAR_CUTOFF", 45.0)
    monkeypatch.setattr(op, "KERNEL_NEAR_CELLS", 64)
    monkeypatch.setattr(op, "KERNEL_GL", np.polynomial.legendre.leggauss(24))
    op._kernel_weights.cache_clear()
    yield
    op._kernel_weights.cache_clear()


def test_production_routes_agree(tight_kernel):
    # kernel-cell route vs the spectral route, mild tilt so the tilted
    # far field stays above the kernel transform's roundoff floor
    g = gaussian(64.0, 2048, sigma=2.0)
    for lam in (0.25, 0.0):
        w = LinearWeight(lam, -5.0)
        d_direct = functional_D(one_row(g), w, P_HALF)[0]
        d_kernel = kernel_cell_production(g, w, P_HALF)
        assert abs(d_direct - d_kernel) <= 1e-6 * abs(d_direct)


def test_production_kernel_route_refuses_strong_tilt():
    # at lam L / 2 = 32 the tilt amplifies the kernel route's far-field
    # floor past the seam budget; the guard must refuse, not mislead
    g = gaussian(128.0, 4096, sigma=2.0)
    with pytest.raises(SeamLeakError):
        kernel_cell_production(g, W_MAIN, P_HALF)


def test_production_difference_is_the_production_rate():
    # the centered difference of D along the trajectory is exactly the
    # ddot the production-rate bound is checked against
    traj, _ = fine_trajectory("gaussian")
    d = functional_D(traj, W_MAIN, P_HALF)
    flow = stored_series(traj, W_MAIN.lam, P_HALF, None)
    times = flow.times
    ddot = _production_rate(flow, W_MAIN, P_HALF, 1.0)[0]
    assert np.array_equal((d[2:] - d[:-2]) / (2.0 * (times[1] - times[0])),
                          ddot)


def test_production_plateau_reduction():
    # on a wide plateau D/H -> drift - 2 (m^2 - lam^2)^s: the zero-order
    # form contributes -m^(2s) u^2 and the transfer identity another -mu H
    st = one_row(plateau())
    for lam in (0.0, 0.02):
        w = LinearWeight(lam, -11.0)
        mu = w.eigenvalue(P_HALF)
        ratio = functional_D(st, w, P_HALF)[0] / functional_H(st, w)[0]
        assert abs(ratio - (-11.0 - 2.0 * mu)) <= 5e-3


def test_production_windowed_exponential_degenerate():
    # the pure eigenfunction would give D/H = drift - 2 mu, but the
    # window ramp dominates the e^(3 lam x) weighted integrals at this
    # tilt; only the one-sided bound D/H <= drift - mu - m^(2s) survives
    st = one_row(windowed_exponential(128.0, 4096, 0.5))
    w = LinearWeight(0.5, -11.0)
    ratio = functional_D(st, w, P_HALF)[0] / functional_H(st, w)[0]
    assert math.isfinite(ratio)
    assert ratio <= -11.0 - MU_MAIN - 1.0 + 1e-6


def test_production_vanishes_with_data():
    z = GridFunction(64.0, 1024, np.zeros(1024))
    assert functional_H(one_row(z), W_MAIN)[0] == 0.0
    assert functional_D(one_row(z), W_MAIN, P_HALF)[0] == 0.0
    assert kernel_cell_production(z, W_MAIN, P_HALF) == 0.0


def test_production_transfer_identity_is_exact_untilted():
    # at lam = 0 the transfer of L^s onto the weight is the statement
    # that the transform's zero mode integrates L^s(u^2) to m^(2s) |u|^2,
    # so the assembled form integral matches the pointwise one exactly
    u0, _ = corpus_draw(0)
    st = one_row(u0)
    w0 = LinearWeight(0.0, -11.0)
    form_integral = trapezoid(spectral_carre(u0, P_HALF))
    assembled = functional_D(st, w0, P_HALF)[0] \
        - (w0.drift - 1.0) * functional_H(st, w0)[0]
    assert assembled == pytest.approx(form_integral, rel=1e-12)


def test_spectral_carre_plateau_core_values():
    # constant-data reduction, pointwise on the plateau core:
    # H_s(u, u) -> -m^(2s), H_2s(u, u) -> -m^(4s) for unit data
    wide = plateau()
    core = np.abs(wide.x) <= 30.0
    hs = spectral_carre(wide, P_HALF).values
    h2s = spectral_carre(wide, OperatorParams(1.0, 1.0)).values
    assert np.max(np.abs(hs[core] + 1.0)) <= 1e-3
    assert np.max(np.abs(h2s[core] + 1.0)) <= 1e-3
    assert np.max(hs) <= 1e-10  # nonpositive everywhere


# ---------------------------------------------------------------- persistence

def test_monotonicity_single_mode_oracle():
    # one Fourier mode: the free flow is u0 e^(-sig t) with
    # sig = (xi^2 + m^2)^s, so the tilted mass decays at drift - 2 sig
    L, n, k = 40.0, 1024, 3
    u0 = fourier_mode(L, n, k)
    xi = 2.0 * math.pi * k / L
    sig = (xi * xi + 1.0) ** 0.5
    w = LinearWeight(0.0, -2.0)
    rep = monotonicity_check(fine_series(u0, None, 0.2, w.lam), None, w,
                             P_HALF)
    assert rep.passed
    assert rep.measured["violation"] <= 1e-5
    assert rep.measured["identity_violation"] <= 1e-5
    assert rep.measured["mass_ratio"] == pytest.approx(
        math.exp((-2.0 - 2.0 * sig) * 0.2), rel=1e-10)
    # the variant with the time factors dropped from the integrals fails
    # even here: its min slack is genuinely negative, not noise
    assert rep.measured["claimed_slack_min"] < -0.01


def test_monotonicity_energy_identity_reduction():
    # F = 0, lam = 0, drift = 0: the balance is the plain energy identity
    u0 = gaussian(40.0, 1024, sigma=1.5)
    rep = monotonicity_check(fine_series(u0, None, 0.25, 0.0), None,
                             LinearWeight(0.0, 0.0), P_HALF)
    assert rep.passed
    assert rep.measured["identity_violation"] <= 1e-6
    assert rep.measured["groenwall_violation"] <= 0.0


def test_monotonicity_forced_draws():
    worst = 0.0
    for i in range(4):
        u0, V = corpus_draw(i)
        rep = monotonicity_check(fine_series(u0, V, 0.25, W_MAIN.lam), V,
                                 W_MAIN, P_HALF)
        assert rep.passed
        worst = max(worst, rep.measured["violation"])
    assert worst <= 1e-5


def test_monotonicity_rejects_overflowing_drift():
    u0 = gaussian(40.0, 1024, sigma=1.5)
    traj = fine_flow(u0, None, 1.0)
    with pytest.raises(OverflowGuardError):
        monotonicity_check(stored_input(traj, 0.0), None,
                           LinearWeight(0.0, -3000.0), P_HALF)
    # the balance is anchored at H(0): a trajectory starting later is refused
    with pytest.raises(PreconditionError, match="starts at t = 0"):
        monotonicity_check(stored_input(rows(traj, slice(1, None)), 0.0),
                           None, LinearWeight(0.0, -2.0), P_HALF)
    with pytest.raises(PreconditionError, match="uniform time grid"):
        monotonicity_check(stored_input(rows(traj, [0, 1, 3]), 0.0), None,
                           LinearWeight(0.0, -2.0), P_HALF)


def test_monotonicity_tilted_mode_leaks():
    u0 = fourier_mode(40.0, 1024, 2)
    with pytest.raises(SeamLeakError):
        monotonicity_check(fine_series(u0, None, 0.05, 0.5), None,
                           LinearWeight(0.5, -11.0), P_HALF)


# ---------------------------------------------------------------- dD/dt

@functools.lru_cache(maxsize=None)
def fine_trajectory(which):
    if which == "gaussian":
        u0 = gaussian(128.0, 4096, sigma=2.0)
        V = None
    else:
        u0, V = corpus_draw(int(which))
    return fine_flow(u0, V, 0.05), V


def test_ddot_bound_free_gaussian():
    traj, _ = fine_trajectory("gaussian")
    rep = ddot_lower_bound_check(traj, W_MAIN, P_HALF)
    assert rep.passed
    assert rep.measured["worst_slack"] > 0.05


def test_ddot_bound_forced_draws():
    for i in range(2):
        traj, V = fine_trajectory(str(i))
        rep = ddot_lower_bound_check(traj, W_MAIN, P_HALF, V=V)
        assert rep.passed
        assert rep.measured["worst_slack"] > 0.0


def test_ddot_bound_plateau_margin():
    # for near-constant data every term is an explicit multiple of the
    # mass: dD/dt is about (drift - 2)^2 H against a right side of
    # (3/4 (mu - drift)^2 + 2 + |drift + 1| + 1) H, so the normalized
    # slack lands near 48/290
    wide = plateau()
    traj = fine_flow(wide, None, 0.05)
    w0 = LinearWeight(0.0, -11.0)
    rep = ddot_lower_bound_check(traj, w0, P_HALF, constants=(1.0, 4.0))
    assert rep.passed
    assert 0.12 <= rep.measured["worst_slack"] <= 0.21


def test_ddot_bound_zero_data():
    traj = SpaceTimeFunction(128.0, 4096, np.arange(5) * 1e-3,
                             np.zeros((5, 4096)))
    rep = ddot_lower_bound_check(traj, W_MAIN, P_HALF)
    assert rep.passed


def test_ddot_bound_gatekeeping():
    traj, _ = fine_trajectory("gaussian")
    with pytest.raises(AdmissibilityError):
        ddot_lower_bound_check(traj, LinearWeight(0.5, -1.2), P_HALF)
    with pytest.raises(PreconditionError):
        ddot_lower_bound_check(traj, W_MAIN, OperatorParams(0.7, 1.0))
    coarse = rows(traj, slice(None, None, 10))
    with pytest.raises(PreconditionError):
        ddot_lower_bound_check(coarse, W_MAIN, P_HALF)
    with pytest.raises(PreconditionError):
        ddot_lower_bound_check(rows(traj, [0, 1, 3]), W_MAIN, P_HALF)


# ---------------------------------------------------------------- tent

def test_tent_residual_polynomial_histories():
    times = np.linspace(0.0, 1.0, 201)
    # linear mass: both tent legs cancel exactly
    lin = 0.3 + 0.9 * times
    assert np.max(np.abs(_tent_residuals(times, lin))) <= 1e-13
    # quadratic mass t^2: difference quotients are exact for parabolas,
    # so the reconstruction (1-t) * 0 + t * 1 + t(1-t) * (-1) = t^2 is too
    quad = times ** 2
    assert np.max(np.abs(_tent_residuals(times, quad))) <= 1e-12


def test_tent_identity_free_flow():
    flow = free_gaussian_unit_series()
    for drift in (-2.0, -11.0):
        rep = tent_identity_check(flow, LinearWeight(0.5, drift))
        assert rep.passed
        assert rep.measured["max_residual"] <= 1e-4


def test_tent_identity_needs_unit_interval():
    half = fine_series(gaussian(128.0, 4096, sigma=2.0), None, 0.5, 0.5)
    with pytest.raises(PreconditionError, match="unit interval"):
        tent_identity_check(half, LinearWeight(0.5, -2.0))


# ---------------------------------------------------------------- ledger

def test_ledger_zero_data():
    z = GridFunction(128.0, 4096, np.zeros(4096))
    zero = constant_potential(z, 0.0)
    rep = ledger_check(z, zero, W_MAIN, P_HALF)
    assert rep.passed and rep.witness is None
    assert rep.measured["flagged"] == []
    led = ledger_terms(z, zero, W_MAIN, P_HALF)
    assert sum(led["lhs_terms"].values()) == 0.0
    assert sum(led["rhs_terms"].values()) == 0.0
    parsed = json.loads(json.dumps(led))
    assert parsed["constants"]["C1"] >= 1.0


def test_ledger_free_flow_floor():
    u0, _ = corpus_draw(0)
    zero = constant_potential(u0, 0.0)
    assert ledger_check(u0, zero, W_MAIN, P_HALF).passed
    led = ledger_terms(u0, zero, W_MAIN, P_HALF)
    assert led["passed"] and led["corollary_passed"]
    assert led["rhs_terms"]["forcing"] == 0.0
    assert led["constants"]["C1"] >= 1.0
    assert all(v >= 0.0 for v in led["lhs_terms"].values())


def test_ledger_forced_draw():
    u0, V = corpus_draw(1)
    rep = ledger_check(u0, V, W_MAIN, P_HALF)
    assert rep.passed and rep.witness is None
    assert rep.inputs == {"lam": 0.5, "drift": -11.0, "s": 0.5, "m": 1.0}
    assert rep.tolerance == 0.0
    assert rep.measured["flagged"] == []
    assert rep.measured["slack"] > 0.0
    assert rep.measured["corollary_slack"] > 0.0
    # the ledger of the same flow, which a passing report leaves out
    led = ledger_terms(u0, V, W_MAIN, P_HALF)
    assert led["slack"] == rep.measured["slack"]
    assert led["corollary_slack"] == rep.measured["corollary_slack"]
    # corollary trades the final mass for 1/|gap| more forcing weight
    gap = abs(W_MAIN.drift_gap(P_HALF))
    base = led["rhs_terms"]["forcing"] / led["constants"]["C1"]
    want = (led["constants"]["C1"] + 1.0 / gap) * base
    assert led["corollary_rhs_terms"]["forcing"] == pytest.approx(want,
                                                                  rel=1e-12)
    assert "final_mass" not in led["corollary_rhs_terms"]


# the keys of the ledger a failing report carries as its witness
LEDGER_KEYS = {"lhs_terms", "rhs_terms", "corollary_lhs_terms",
               "corollary_rhs_terms", "constants", "inputs", "flagged",
               "slack", "corollary_slack", "c1_need", "passed",
               "corollary_passed"}


def test_failing_ledger_report_carries_the_whole_ledger(monkeypatch):
    # a negative forcing constant turns the forced draw's forcing term
    # against the inequality: both forms fail, the term is flagged, and
    # the report carries every key of the ledger
    u0, V = corpus_draw(1)
    frozen = load_calibration(P_HALF, W_MAIN.lam)
    monkeypatch.setattr(linear_carleman, "load_calibration",
                        lambda p, lam: dict(frozen, C1=-1e6))
    rep = ledger_check(u0, V, W_MAIN, P_HALF)
    assert not rep.passed
    assert set(rep.measured) == {"slack", "corollary_slack", "flagged",
                                 "c1_need"}
    led = rep.witness
    assert set(led) == LEDGER_KEYS
    assert not led["passed"] and not led["corollary_passed"]
    assert led["slack"] == rep.measured["slack"] < 0.0
    assert led["corollary_slack"] == rep.measured["corollary_slack"] < 0.0
    assert led["flagged"] == rep.measured["flagged"] == ["forcing"]
    assert led["constants"]["C1"] == -1e6
    assert led["constants"]["C2"] == frozen["C2"]
    assert set(led["inputs"]) == {"s", "m", "lam", "drift", "L", "n", "dt",
                                  "sup_v"}
    assert set(led["lhs_terms"]) == {"mass_integral", "tilted_mass",
                                     "energy_kinetic", "energy_order_2s",
                                     "energy_order_s"}
    assert set(led["rhs_terms"]) == {"initial_mass", "final_mass", "forcing"}


def test_c1_needs_are_the_least_forcing_constants(monkeypatch):
    # negative control of the needs the ledger and the production-rate
    # bound report on a forced draw: at C1 = need the inequality holds with
    # one form tight, and a thousandth below the need it fails
    u0, V = corpus_draw(0)
    need = ledger_check(u0, V, W_MAIN, P_HALF).measured["c1_need"]
    frozen = load_calibration(P_HALF, W_MAIN.lam)
    for c1, holds in ((need, True), (need - 1e-3 * (1.0 + abs(need)), False)):
        monkeypatch.setattr(linear_carleman, "load_calibration",
                            lambda p, lam: dict(frozen, C1=c1))
        rep = ledger_check(u0, V, W_MAIN, P_HALF)
        worst = min(rep.measured["slack"], rep.measured["corollary_slack"])
        assert rep.passed is holds
        assert rep.measured["c1_need"] == need
        assert abs(worst) <= 1e-12 if holds else worst < -1e-5

    traj, V = fine_trajectory("0")
    flow = stored_series(traj, W_MAIN.lam, P_HALF, V)
    need = _production_rate(flow, W_MAIN, P_HALF, 0.0)[4]
    for c1, holds in ((need, True), (need - 1e-3 * (1.0 + abs(need)), False)):
        *_, slack, at_c1 = _production_rate(flow, W_MAIN, P_HALF, c1)
        assert at_c1 == pytest.approx(need, rel=1e-12)
        assert abs(np.min(slack)) <= 1e-12 if holds \
            else np.min(slack) < -1e-5


def test_ledger_check_peak_memory():
    # a ledger check at the default linear config keeps one tilted buffer
    # for its stream and writes each state into its chunk: it peaks below
    # 2.2 MiB (2.7 MiB with a buffer per chunk, made while the last one
    # still lived, and states copied from a list into each chunk)
    u0, V = corpus_draw(1)
    ledger_check(u0, V, W_MAIN, P_HALF)
    tracemalloc.start()
    try:
        rep = ledger_check(u0, V, W_MAIN, P_HALF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 2.2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_ledger_group_peak_memory():
    # a group of four draws is stepped together, one state of each per
    # chunk, and its series are integrated as it is stepped: series and
    # checks peak at 2.13 MiB, where the group's 101 states stored
    # (101 x 4 x 4096 doubles, 12.6 MiB) peak at 14.4 MiB
    group = [corpus_draw(i) for i in range(heat.CHUNK_ROWS)]

    def checks():
        flows = ledger_series(group, W_MAIN, P_HALF)
        return [carleman_linear_check(flow, V, W_MAIN, P_HALF)
                for flow, (_, V) in zip(flows, group)]

    checks()
    tracemalloc.start()
    try:
        reports = checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak <= 3.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_ledger_scaling_covariance():
    # u -> 3 u scales every term by 9: the flow is linear and every
    # ledger entry is quadratic in the solution
    u0, V = corpus_draw(2)
    led1 = ledger_terms(u0, V, W_MAIN, P_HALF)
    led9 = ledger_terms(u0.with_values(3.0 * u0.values), V, W_MAIN, P_HALF)
    for name, val in led1["lhs_terms"].items():
        assert led9["lhs_terms"][name] == pytest.approx(9.0 * val, rel=1e-8)
    for name, val in led1["rhs_terms"].items():
        assert led9["rhs_terms"][name] == pytest.approx(9.0 * val, rel=1e-8,
                                                        abs=1e-280)


def test_ledger_corpus_sweep():
    t0 = time.perf_counter()
    min_slack = math.inf
    for i in range(6):
        u0, V = corpus_draw(i)
        rep = ledger_check(u0, V, W_MAIN, P_HALF)
        assert rep.passed, f"draw {i}"
        assert rep.measured["flagged"] == [], f"draw {i}"
        min_slack = min(min_slack, rep.measured["slack"],
                        rep.measured["corollary_slack"])
    assert min_slack > 0.0
    assert time.perf_counter() - t0 < 30.0


def test_ledger_gatekeeping():
    u0, _ = corpus_draw(0)
    zero = constant_potential(u0, 0.0)
    with pytest.raises(AdmissibilityError):
        ledger_check(u0, zero, LinearWeight(0.5, -0.9), P_HALF)
    with pytest.raises(PreconditionError):
        ledger_check(u0, zero, W_MAIN, OperatorParams(0.6, 1.0))
    with pytest.raises(CalibrationError):
        ledger_check(u0, zero, LinearWeight(0.3, -11.0), P_HALF)


def test_ledger_rejects_nonfinite_terms():
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones_like(times)
    series = {"mass": math.nan * ones, "kinetic": ones, "form_s": -ones,
              "form_2s": -ones, "forcing_sq": 0.0 * ones}
    with pytest.raises(ConfigError, match="ledger term 'mass_integral'"):
        _ledger(times, series, W_MAIN, P_HALF, 1.0, 4.0, {})


def test_ledger_flags_negative_required_terms():
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones_like(times)
    series = {"mass": ones, "kinetic": -ones, "form_s": -ones,
              "form_2s": -ones, "forcing_sq": 0.0 * ones}
    led = _ledger(times, series, W_MAIN, P_HALF, 1.0, 4.0, {})
    assert "energy_kinetic" in led["flagged"]


# ---------------------------------------------------------------- calibration

def test_calibration_frozen_values():
    entry = load_calibration(P_HALF, 0.5)
    assert entry["C1"] == 1.0
    assert entry["C2"] == pytest.approx(4.4775635094610955, rel=1e-12)
    assert entry["A_threshold"] == pytest.approx(-1.25, rel=1e-12)
    assert entry["corpus"]["draws"] == 50
    with pytest.raises(CalibrationError):
        load_calibration(OperatorParams(0.3, 1.0), 0.5)


def test_calibration_sweep_small_corpus():
    entry = calibrate_constants(P_HALF, 0.5, draws=2)
    assert entry["C1"] >= 1.0
    assert entry["C2"] > 0.0
    assert entry["A_threshold"] <= -1.0
    assert entry["empirical"]["threshold_gap"] > 0.0


def test_ledger_records_constants():
    u0, _ = corpus_draw(0)
    led = ledger_terms(u0, constant_potential(u0, 0.0), W_MAIN, P_HALF)
    for key in ("A", "C1", "C2", "lam", "s", "m"):
        assert key in led["constants"]
    assert led["constants"]["tilted_mass_coeff"] == TILTED_MASS_COEFF
