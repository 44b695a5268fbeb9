"""Acceptance suite: one test, and one printed pass/fail line, per criterion.

Each criterion is pinned to the tolerances it was frozen with; nothing here
loosens a bound to make a run green.  Slow sweeps carry their wall-clock
budget as part of the assertion.  Run with ``pytest -v`` to get the
one-line-per-criterion view, or ``-s`` for the printed summary lines.
"""
import json
import math
import time

import numpy as np

from fracrel.cli import main as cli_main
from fracrel.grid import (SpaceTimeFunction, band_limited_noise, gaussian,
                          smooth_window)
from fracrel.heat import (energy_identity_check, evolve_free,
                          evolve_with_potential, log_convexity_check,
                          weighted_decay_check)
from fracrel.linear_carleman import (LinearWeight, calibrate_constants,
                                     carleman_corpus, carleman_linear_check,
                                     draw_groups, ledger_series,
                                     load_calibration, tent_identity_check)
from fracrel.operator import (OperatorParams, apply_singular_integral,
                              apply_spectral, apply_subordination,
                              frequencies, symbol)
from fracrel.special import macdonald_k
from fracrel.symbols import (QuadraticWeight, appendix_conjugation_check,
                             carleman_quadratic_check, elliptic_test_family,
                             parabolic_test_family, positivity_constants,
                             positivity_sweep, quadratic_constants,
                             s1_commutator_check)
from oracles import (SymbolPoint, bessel_identity_check, bracket_singular,
                     collect, ddot_lower_bound_check, eigenfunction_residual,
                     fundamental_solution, half_kernel_explicit, mass_series,
                     poisson_bracket, poisson_bracket_fd,
                     refined_quadratic_constant, trapezoid,
                     weighted_l1_kernel, windowed_noise)

P_HALF = OperatorParams(0.5, 1.0)
SEED = 20260822


def _conclude(num, slug, bad):
    status = "FAIL" if bad else "PASS"
    print(f"\ncriterion {num:02d} {slug}: {status}")
    assert not bad, f"criterion {num:02d} {slug}: " + "; ".join(bad)


def test_criterion_01_definition_equivalence():
    """Spectral, singular-integral and subordination routes agree to 1e-3
    relative on the central half box for nine (s, m) pairs."""
    t0 = time.perf_counter()
    bad = []
    f = gaussian(40.0, 4096, sigma=1.0)
    mid = np.abs(f.x) <= 10.0
    for s in (0.3, 0.5, 0.7):
        for m in (0.5, 1.0, 2.0):
            p = OperatorParams(s, m)
            a = apply_spectral(f, p).values[mid]
            b = apply_singular_integral(f, p).values[mid]
            c = apply_subordination(f, p).values[mid]
            ref = np.max(np.abs(a))
            for route, vals in (("singular", b), ("subordination", c)):
                rel = np.max(np.abs(vals - a)) / ref
                if rel >= 1e-3:
                    bad.append(f"s={s} m={m} {route} rel={rel:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append(f"runtime {elapsed:.1f}s >= 30s")
    _conclude(1, "definition_equivalence", bad)


def test_criterion_02_macdonald_closed_form_and_asymptotics():
    bad = []
    z = np.logspace(-4, math.log10(40.0), 600)
    want = np.sqrt(0.5 * math.pi / z) * np.exp(-z)
    rel = np.max(np.abs(macdonald_k(0.5, z) - want) / want)
    if rel >= 1e-10:
        bad.append(f"K_half rel={rel:.2e}")
    for nu, z_small in ((0.0, 0.005), (0.3, 1e-4), (0.5, 0.01),
                        (1.0, 0.02), (1.5, 0.05), (2.5, 0.1)):
        got = macdonald_k(nu, z_small)
        if nu == 0.0:
            ref = -math.log(0.5 * z_small) - np.euler_gamma
        else:
            ref = math.gamma(nu) * 2.0 ** (nu - 1.0) * z_small ** (-nu)
        if abs(got / ref - 1.0) >= 0.05:
            bad.append(f"small-z nu={nu}")
    for nu in (0.0, 0.5, 1.0, 2.2):
        got = macdonald_k(nu, 60.0)
        ref = math.sqrt(0.5 * math.pi / 60.0) * math.exp(-60.0)
        if abs(got / ref - 1.0) >= 0.05:
            bad.append(f"large-z nu={nu}")
    _conclude(2, "macdonald_asymptotics", bad)


def test_criterion_03_bessel_identities():
    bad = []
    for s in (0.3, 0.5, 0.7):
        for lam in (0.0, 0.3, 0.6, 0.9):
            rep = bessel_identity_check(lam, 1, s, tolerance=1e-5)
            if not rep.passed:
                bad.append(f"lam={lam} s={s} "
                           f"err={abs(rep.measured['lhs'] - rep.measured['rhs']):.2e}")
    edge = bessel_identity_check(1.0, 1, 0.5, tolerance=1e-4)
    if abs(edge.measured["lhs"] + 1.0) >= 1e-4:
        bad.append(f"edge lhs={edge.measured['lhs']:.8f}")
    _conclude(3, "bessel_identities", bad)


def test_criterion_04_windowed_eigenfunctions():
    bad = []
    window = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    for s in (0.3, 0.5):
        rep = eigenfunction_residual(0.5, OperatorParams(s, 1.0), window)
        if rep.measured["max_rel_residual"] > 1e-3:
            bad.append(f"s={s} residual="
                       f"{rep.measured['max_rel_residual']:.2e}")
    _conclude(4, "windowed_eigenfunctions", bad)


def test_criterion_05_kernel_identities():
    bad = []
    for t in (0.25, 1.0):
        K = fundamental_solution(t, P_HALF, 40.0, 4096)
        mask = np.abs(K.x) <= 10.0
        want = half_kernel_explicit(t, np.abs(K.x[mask]), 1.0)
        rel = np.max(np.abs(K.values[mask] - want) / np.abs(want))
        if rel > 1e-4:
            bad.append(f"explicit kernel t={t} rel={rel:.2e}")
    for lam in (0.0, 0.5, 0.9):
        for t in (0.5, 1.0):
            rep = weighted_l1_kernel(t, lam, P_HALF, tolerance=1e-3)
            if rep.measured["rel_error"] > 1e-3:
                bad.append(f"weighted L1 lam={lam} t={t} "
                           f"rel={rep.measured['rel_error']:.2e}")
    for s, m, t in ((0.3, 0.5, 1.0), (0.5, 1.0, 0.7), (0.7, 2.0, 0.4)):
        K = fundamental_solution(t, OperatorParams(s, m))
        drift = abs(trapezoid(K) - math.exp(-t * m ** (2 * s)))
        if drift > 1e-12:
            bad.append(f"mass decay s={s} m={m} drift={drift:.2e}")
    _conclude(5, "kernel_identities", bad)


def test_criterion_06_energy_identity_and_weighted_decay():
    bad = []
    u0 = gaussian(40.0, 4096, sigma=1.0)
    for s in (0.3, 0.5, 0.7):
        rep = energy_identity_check(u0, OperatorParams(s, 1.0),
                                    tolerance=1e-4)
        if rep.measured["max_residual"] > 1e-4:
            bad.append(f"energy s={s} "
                       f"residual={rep.measured['max_residual']:.2e}")
    win = smooth_window(40.0, 4096, inner=8.0, outer=12.0)
    wg = win.with_values(win.values * np.exp(-0.5 * win.x ** 2))
    for lam in (0.0, 0.5, 1.0):
        rep = weighted_decay_check(wg, lam, P_HALF)
        if not rep.passed:
            bad.append(f"decay lam={lam} slack={rep.measured['min_slack']}")
    _conclude(6, "energy_and_weighted_decay", bad)


def test_criterion_07_log_convexity_sweep():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(100):
        u0 = windowed_noise(80.0, 2048, k_max=40, rng=rng)
        for lam in (0.0, 0.5):
            rep = log_convexity_check(u0, lam, P_HALF, tolerance=1e-6)
            worst = max(worst, rep.measured["max_ratio"])
            if not rep.passed:
                bad.append(f"draw {i} lam={lam} "
                           f"ratio={rep.measured['max_ratio']:.9f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.1f}s >= 60s")
    _conclude(7, "log_convexity", bad)


def _duhamel_residuals(traj, v, p):
    """Per step, sup |u_{k+1} - K_dt(u_k + dt/2 V u_k) - dt/2 V u_{k+1}|
    relative to max |u_{k+1}|, with K_dt applied through its own rfft."""
    sig = symbol(p, frequencies(traj.L, traj.n))
    out = []
    for k, dt in enumerate(np.diff(traj.times)):
        u, nxt = traj.values[k], traj.values[k + 1]
        flow = np.fft.irfft(np.fft.rfft(u + 0.5 * dt * v * u)
                            * np.exp(-dt * sig), traj.n)
        res = nxt - flow - 0.5 * dt * v * nxt
        out.append(np.max(np.abs(res)) / np.max(np.abs(nxt)))
    return np.array(out)


def _residual_draws(count):
    """(trajectory, V samples) for seeded static potentials, n = 2048,
    dt = 1e-2, T = 0.5."""
    rng = np.random.default_rng(SEED)
    u0 = gaussian(40.0, 2048, sigma=2.0)
    for _ in range(count):
        prof = band_limited_noise(40.0, 2048, k_max=30, rng=rng)
        yield (collect(u0, evolve_with_potential(
            [u0], prof.values, 0.5, P_HALF,
            dt=1e-2)),
            prof.values)


def test_criterion_08_mild_solution():
    bad = []
    u0 = gaussian(40.0, 4096, sigma=2.0)
    free = collect(u0, evolve_free(u0, [1.0], P_HALF)).values[-1]
    for c in (1.0, -1.0, 0.5):
        traj = collect(u0, evolve_with_potential(
            [u0], np.full(u0.n, c), 1.0, P_HALF,
            dt=5e-3))
        want = math.exp(c) * free
        rel = np.max(np.abs(traj.values[-1] - want)) / np.max(np.abs(want))
        if rel > 1e-5:
            bad.append(f"constant oracle c={c} rel={rel:.2e}")
    for i, (traj, v) in enumerate(_residual_draws(20)):
        worst = float(np.max(_duhamel_residuals(traj, v, P_HALF)))
        if worst > 1e-12:
            bad.append(f"potential {i} Duhamel residual {worst:.2e}")
    _conclude(8, "mild_solution", bad)


def test_criterion_08_residual_flags_a_perturbed_row():
    # negative control: one state off by 1e-9 relative must be caught
    traj, v = next(_residual_draws(1))
    bent = traj.values.copy()
    bent[25] *= 1.0 + 1e-9
    bent_traj = SpaceTimeFunction(traj.L, traj.n, traj.times, bent)
    assert np.max(_duhamel_residuals(traj, v, P_HALF)) <= 1e-12
    assert np.max(_duhamel_residuals(bent_traj, v, P_HALF)) > 1e-12


def test_criterion_09_linear_carleman():
    bad = []
    w = LinearWeight(0.5, -11.0)
    corpus = carleman_corpus(128.0, 4096, 50, SEED)
    # the draws in the runner's groups, the last of two
    draws = [(draw, flow) for group in draw_groups(corpus)
             for draw, flow in zip(group, ledger_series(group, w, P_HALF))]
    for i, ((u0, V), flow) in enumerate(draws):
        led = carleman_linear_check(flow, V, w, P_HALF)
        if not led.passed:
            bad.append(f"ledger draw {i} slack={led.measured['slack']:.3e}")
        traj = collect(u0, evolve_with_potential([u0], V.sample(u0), 0.05,
                                                 P_HALF, dt=1e-3))
        rep = ddot_lower_bound_check(traj, w, P_HALF, V=V)
        if not rep.passed:
            bad.append(f"production-rate bound draw {i}")
    u0 = gaussian(128.0, 4096, sigma=2.0)
    mass = mass_series(u0, evolve_with_potential(
        [u0], np.full(u0.n, 0.0), 1.0, P_HALF,
        dt=1e-3), w.lam)
    tent = tent_identity_check(mass, w, tolerance=1e-4)
    if tent.measured["max_residual"] > 1e-4:
        bad.append(f"tent residual {tent.measured['max_residual']:.2e}")
    frozen = load_calibration(P_HALF, 0.5)
    fine = calibrate_constants(P_HALF, 0.5, n=8192, draws=50)
    for key in ("C1", "C2"):
        ratio = fine[key] / frozen[key]
        if not 0.5 <= ratio <= 2.0:
            bad.append(f"{key} refinement ratio {ratio:.3f}")
    _conclude(9, "linear_carleman", bad)


def _bracket_points(count, seed):
    # random admissible configurations; modulus floor enforced by the
    # singular-point gate, so every kept point is a fair comparison
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        alpha = float(rng.uniform(0.2, 8.0))
        R = float(rng.uniform(0.5, 3.0))
        w = QuadraticWeight.decaying(alpha, R)
        p = OperatorParams(float(rng.uniform(0.05, 1.0)),
                           float(rng.uniform(0.0, 2.0 * alpha / R)))
        t = float(rng.uniform(0.0, 2.0))
        sig = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0))
        x = (sig - float(w.psi_at(t))) * R
        xi = float(rng.choice([-1.0, 1.0])
                   * rng.uniform(1e-3, 1e3) * alpha / R)
        pt = SymbolPoint(x=x, xi=xi, t=t)
        if not bracket_singular(pt, w, p):
            kept.append((pt, w, p))
    return kept


def test_criterion_10_symbol_layer():
    bad = []
    worst = 0.0
    for pt, w, p in _bracket_points(1000, seed=SEED):
        closed = poisson_bracket(pt, w, p)
        fd = poisson_bracket_fd(pt, w, p)
        worst = max(worst, abs(closed - fd) / max(abs(closed), 1e-30))
    if worst > 1e-5:
        bad.append(f"bracket fd rel={worst:.2e}")

    comm = s1_commutator_check(256, 1e-8)
    if not comm.passed:
        bad.append(f"s=1 commutator rel={comm.measured['rel_error']:.2e}")

    c_hyp, c_min = positivity_constants(0.75, 0.0)
    if not c_min > 0.0:
        bad.append("frozen positivity floor is not positive")
    admissible = [(a, 0.0) for a in (215.0, 430.0, 860.0)] \
        + [(a, 1.0) for a in (215.0, 430.0)]
    for alpha, m_ratio in admissible:
        w = QuadraticWeight.decaying(alpha, 1.0)
        p = OperatorParams(0.75, m_ratio * 2.0 * alpha)
        rep = positivity_sweep(w, p)
        floor = positivity_constants(0.75, m_ratio)[1]
        if not (rep.passed and rep.measured["ratio_min"] >= floor):
            bad.append(f"positivity alpha={alpha} m_ratio={m_ratio} "
                       f"min={rep.measured['ratio_min']:.3f}")
    wob = QuadraticWeight.oscillating(2.0, 1.0, rate=3.0)
    neg = positivity_sweep(wob, OperatorParams(0.75, 0.0),
                           constants=(c_hyp, 1.0))
    if neg.measured["ratio_min"] >= 0.0 or neg.witness is None:
        bad.append("falsification configuration did not go negative")
    _conclude(10, "symbol_layer", bad)


def test_criterion_11_quadratic_carleman():
    bad = []
    for mode, s_values in (("elliptic", (0.5, 0.75)), ("parabolic", (0.75,))):
        for s in s_values:
            for m_ratio in (0.0, 1.0):
                entry = quadratic_constants(mode, s, m_ratio)
                alpha = entry["corpus"]["alpha"]
                p = OperatorParams(s, m_ratio * 2.0 * alpha)
                rng = np.random.default_rng(SEED)
                if mode == "elliptic":
                    w = QuadraticWeight.constant(alpha, 1.0, 3.0)
                    fs = elliptic_test_family(w, 8.0, 512, 20, rng)
                else:
                    w = QuadraticWeight.decaying(alpha, 1.0)
                    fs = parabolic_test_family(
                        w, 8.0, 512, np.linspace(0.0, 1.0, 48), 20, rng)
                rep = carleman_quadratic_check(fs, w, p, mode)
                if not rep.passed:
                    bad.append(f"{mode} s={s} m_ratio={m_ratio} "
                               f"slack={rep.measured['min_slack']:.3e}")
    coarse = quadratic_constants("elliptic", 0.75, 0.0)
    fine = refined_quadratic_constant(coarse, 1024)
    for key in ("c1", "c2"):
        ratio = fine / coarse[key]
        if not 0.5 <= ratio <= 2.0:
            bad.append(f"{key} refinement ratio {ratio:.3f}")
    _conclude(11, "quadratic_carleman", bad)


def test_criterion_12_matrix_conjugation():
    bad = []
    rng = np.random.default_rng(SEED)
    for s in (-0.5, 0.3, 0.5, 1.0):
        phi = 0.2 * rng.standard_normal(64)
        rep = appendix_conjugation_check(64, s, phi, tolerance=1e-10)
        if rep.measured["rel_frobenius"] > 1e-10:
            bad.append(f"s={s} rel={rep.measured['rel_frobenius']:.2e}")
    _conclude(12, "matrix_conjugation", bad)


def test_criterion_13_cli_contract(tmp_path):
    bad = []

    def config(name, **overrides):
        overrides.setdefault("suite", "symbol")
        overrides.setdefault("output.dir", str(tmp_path / name))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(overrides))
        return path

    if cli_main(["run", str(config("one"))]) != 0:
        bad.append("pass fixture exited nonzero")
    if cli_main(["run", str(config("two"))]) != 0:
        bad.append("pass fixture rerun exited nonzero")
    bodies = []
    for name in ("one", "two"):
        bundle = json.loads((tmp_path / name / "report.json").read_text())
        body = bundle["body"]
        body["config"].pop("output.dir")
        bodies.append(json.dumps(body, sort_keys=True))
    if bodies[0] != bodies[1]:
        bad.append("identical seeds gave different report bodies")
    if (tmp_path / "one" / "reports.csv").read_bytes() != \
            (tmp_path / "two" / "reports.csv").read_bytes():
        bad.append("identical seeds gave different CSV bytes")

    failing = config("failing", **{"tolerance.commutator": 1e-18})
    if cli_main(["run", str(failing)]) != 1:
        bad.append("fail fixture did not exit 1")
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"tolernace.commutator": 1e-8}))
    if cli_main(["run", str(malformed)]) != 2:
        bad.append("malformed fixture did not exit 2")
    _conclude(13, "cli_contract", bad)
