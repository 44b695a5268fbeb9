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

import numpy as np
import pytest

from fracrel.errors import (AdmissibilityError, CalibrationError,
                            ConfigError, OverflowGuardError,
                            PreconditionError, SeamLeakError)
from fracrel.grid import (GridFunction, SpaceTimeFunction, fourier_mode,
                          gaussian, smooth_window, trapezoid,
                          windowed_exponential)
from fracrel.heat import (PotentialField, evolve_with_potential,
                          weighted_integral)
from fracrel.linear_carleman import (CarlemanLedger, LinearWeight,
                                     TILTED_MASS_COEFF, _assemble_ledger,
                                     _production_rate, _tent_residuals,
                                     _tilted_series, _weighted,
                                     calibrate_constants,
                                     carleman_corpus, carleman_linear_check,
                                     ddot_lower_bound_check, functional_D,
                                     functional_H, load_calibration,
                                     monotonicity_check, spectral_carre,
                                     tent_identity_check)
from fracrel.operator import (OperatorParams, SingularQuadConfig,
                              carre_du_champ)

P_HALF = OperatorParams(0.5, 1.0)
W_MAIN = LinearWeight(0.5, -11.0)          # the operating drift -(m^(2s)+10)
MU_MAIN = 0.75 ** 0.5                      # (m^2 - lam^2)^s at lam = 1/2


def plateau(L=256.0, n=8192):
    return smooth_window(L, n, inner=50.0, outer=60.0)


@functools.lru_cache(maxsize=None)
def corpus_draw(i, L=128.0, n=4096):
    pairs = carleman_corpus(L, n, draws=i + 1, seed=20260822)
    return pairs[i]


def fine_flow(u0, V, T):
    """The flow under V (None for none) at the fine step 1e-3."""
    pot = PotentialField.constant(0.0) if V is None else V
    return evolve_with_potential(u0, pot, T, P_HALF, dt=1e-3)


def one_row(g, t=0.0):
    """g as the one-state trajectory at time t."""
    return SpaceTimeFunction(g.L, g.n, [t], g.values[None, :])


def kernel_cell_production(g, w, p, **quad):
    """D at t = 0 from the kernel-cell quadratic form rather than the
    transform, a genuinely different discretization:
    (drift - mu) H + int e^(lam x) H(u, u)."""
    form = carre_du_champ(g, g, p, **quad)
    return w.drift_gap(p) * functional_H(one_row(g), w)[0] \
        + weighted_integral(g, form.values, w.lam, "quadratic-form integrand")


def rows(traj, picks):
    """The sub-trajectory of the given states."""
    return SpaceTimeFunction(traj.L, traj.n, traj.times[picks],
                             traj.values[picks])


@functools.lru_cache(maxsize=None)
def free_gaussian_unit_trajectory():
    return fine_flow(gaussian(128.0, 4096, sigma=2.0), None, 1.0)


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
    traj, _ = fine_trajectory("gaussian")
    times, series = _tilted_series(traj, W_MAIN.lam, P_HALF, None)
    want = np.exp(W_MAIN.drift * times) * series["mass"]
    assert np.array_equal(functional_H(traj, W_MAIN), want)


# ---------------------------------------------------------------- production

def test_production_routes_agree():
    # kernel-cell route vs the spectral route, mild tilt so the tilted
    # far field stays above the kernel transform's roundoff floor
    g = gaussian(64.0, 2048, sigma=2.0)
    tight = SingularQuadConfig(far_cutoff=45.0, near_cells=64, gl_nodes=24)
    for lam in (0.25, 0.0):
        w = LinearWeight(lam, -5.0)
        d_direct = functional_D(one_row(g), w, P_HALF)[0]
        d_kernel = kernel_cell_production(g, w, P_HALF, quad=tight)
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
    times, series = _tilted_series(traj, W_MAIN.lam, P_HALF, None)
    ddot, _, _ = _production_rate(
        times, _weighted(times, series, W_MAIN.drift), W_MAIN, P_HALF, 1.0)
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
    rep = monotonicity_check(fine_flow(u0, None, 0.2), None, w, P_HALF,
                             tolerance=1e-5)
    assert rep.passed
    assert rep.measured["identity_violation"] <= 1e-5
    assert rep.measured["mass_ratio"] == pytest.approx(
        math.exp((-2.0 - 2.0 * sig) * 0.2), rel=1e-10)
    # the variant with the time factors dropped from the integrals fails
    # even here: its min slack is genuinely negative, not noise
    assert rep.measured["claimed_slack_min"] < -0.01


def test_monotonicity_energy_identity_reduction():
    # F = 0, lam = 0, drift = 0: the balance is the plain energy identity
    u0 = gaussian(40.0, 1024, sigma=1.5)
    rep = monotonicity_check(fine_flow(u0, None, 0.25), None,
                             LinearWeight(0.0, 0.0), P_HALF)
    assert rep.passed
    assert rep.measured["identity_violation"] <= 1e-6
    assert rep.measured["groenwall_violation"] <= 0.0


def test_monotonicity_forced_draws():
    worst = 0.0
    for i in range(4):
        u0, V = corpus_draw(i)
        rep = monotonicity_check(fine_flow(u0, V, 0.25), V, W_MAIN, P_HALF)
        assert rep.passed
        worst = max(worst, rep.measured["violation"])
    assert worst <= 1e-5


def test_monotonicity_rejects_overflowing_drift():
    u0 = gaussian(40.0, 1024, sigma=1.5)
    traj = fine_flow(u0, None, 1.0)
    with pytest.raises(OverflowGuardError):
        monotonicity_check(traj, None, LinearWeight(0.0, -3000.0), P_HALF)
    # the balance is anchored at H(0): a trajectory starting later is refused
    with pytest.raises(PreconditionError):
        monotonicity_check(rows(traj, slice(1, None)), None,
                           LinearWeight(0.0, -2.0), P_HALF)


def test_monotonicity_tilted_mode_leaks():
    u0 = fourier_mode(40.0, 1024, 2)
    with pytest.raises(SeamLeakError):
        monotonicity_check(fine_flow(u0, None, 0.05), None,
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
    traj = free_gaussian_unit_trajectory()
    for drift in (-2.0, -11.0):
        rep = tent_identity_check(traj, LinearWeight(0.5, drift))
        assert rep.passed
        assert rep.measured["max_residual"] <= 1e-4


def test_tent_identity_needs_unit_interval():
    traj = free_gaussian_unit_trajectory()
    with pytest.raises(PreconditionError):
        tent_identity_check(rows(traj, slice(0, 500)),
                            LinearWeight(0.5, -2.0))


# ---------------------------------------------------------------- ledger

def test_ledger_zero_data():
    z = GridFunction(128.0, 4096, np.zeros(4096))
    led = carleman_linear_check(z, None, W_MAIN, P_HALF)
    assert led.passed and led.corollary_passed
    assert led.flagged == []
    assert led.lhs_total == 0.0 and led.rhs_total == 0.0
    parsed = json.loads(led.to_json())
    assert parsed["constants"]["C1"] >= 1.0


def test_ledger_free_flow_floor():
    u0, _ = corpus_draw(0)
    led = carleman_linear_check(u0, None, W_MAIN, P_HALF)
    assert led.passed and led.corollary_passed
    assert led.rhs_terms["forcing"] == 0.0
    assert led.constants["C1"] >= 1.0
    assert all(v >= 0.0 for v in led.lhs_terms.values())


def test_ledger_forced_draw():
    u0, V = corpus_draw(1)
    led = carleman_linear_check(u0, V, W_MAIN, P_HALF)
    assert led.passed and led.corollary_passed
    assert led.flagged == []
    assert led.slack > 0.0 and led.corollary_slack > 0.0
    # corollary trades the final mass for 1/|gap| more forcing weight
    gap = abs(W_MAIN.drift_gap(P_HALF))
    base = led.rhs_terms["forcing"] / led.constants["C1"]
    want = (led.constants["C1"] + 1.0 / gap) * base
    assert led.corollary_rhs_terms["forcing"] == pytest.approx(want,
                                                               rel=1e-12)
    assert "final_mass" not in led.corollary_rhs_terms


def test_ledger_scaling_covariance():
    # u -> 3 u scales every term by 9: the flow is linear and every
    # ledger entry is quadratic in the solution
    u0, V = corpus_draw(2)
    led1 = carleman_linear_check(u0, V, W_MAIN, P_HALF)
    led9 = carleman_linear_check(u0.with_values(3.0 * u0.values), V,
                                 W_MAIN, P_HALF)
    for name, val in led1.lhs_terms.items():
        assert led9.lhs_terms[name] == pytest.approx(9.0 * val, rel=1e-8)
    for name, val in led1.rhs_terms.items():
        assert led9.rhs_terms[name] == pytest.approx(9.0 * val, rel=1e-8,
                                                     abs=1e-280)


def test_ledger_corpus_sweep():
    t0 = time.perf_counter()
    min_slack = math.inf
    for i in range(6):
        u0, V = corpus_draw(i)
        led = carleman_linear_check(u0, V, W_MAIN, P_HALF)
        assert led.passed and led.corollary_passed, f"draw {i}"
        assert led.flagged == [], f"draw {i}"
        min_slack = min(min_slack, led.slack, led.corollary_slack)
    assert min_slack > 0.0
    assert time.perf_counter() - t0 < 30.0


def test_ledger_gatekeeping():
    u0, _ = corpus_draw(0)
    with pytest.raises(AdmissibilityError):
        carleman_linear_check(u0, None, LinearWeight(0.5, -0.9), P_HALF)
    with pytest.raises(PreconditionError):
        carleman_linear_check(u0, None, W_MAIN, OperatorParams(0.6, 1.0))
    with pytest.raises(CalibrationError):
        carleman_linear_check(u0, None, LinearWeight(0.3, -11.0), P_HALF)


def test_ledger_rejects_nonfinite_terms():
    with pytest.raises(ConfigError):
        CarlemanLedger(lhs_terms={"mass_integral": math.nan},
                       rhs_terms={}, corollary_lhs_terms={},
                       corollary_rhs_terms={}, constants={})


def test_ledger_flags_negative_required_terms():
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones_like(times)
    series = {"mass": ones, "kinetic": -ones, "form_s": -ones,
              "form_2s": -ones, "forcing_sq": 0.0 * ones}
    led = _assemble_ledger(times, series, W_MAIN, P_HALF, 1.0, 4.0, {})
    assert "energy_kinetic" in led.flagged


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
    entry = calibrate_constants(P_HALF, 0.5, draws=2, fine_T=0.01)
    assert entry["C1"] >= 1.0
    assert entry["C2"] > 0.0
    assert entry["A_threshold"] <= -1.0
    assert entry["empirical"]["threshold_gap"] > 0.0


def test_ledger_records_constants():
    u0, _ = corpus_draw(0)
    led = carleman_linear_check(u0, None, W_MAIN, P_HALF)
    for key in ("A", "C1", "C2", "lam", "s", "m"):
        assert key in led.constants
    assert led.constants["tilted_mass_coeff"] == TILTED_MASS_COEFF
