"""Conjugated-symbol calculus: closed forms against independent oracles.

Oracles: the complex power ((xi^2+m^2-phi_x^2) + 2i xi phi_x)^s evaluated
with complex arithmetic (symbols a, b are its real and imaginary parts),
high-order central differences for every derivative and bracket, the s=1
case where all symbols are polynomials and the operator commutator has an
elementary closed form, and exact scaling laws of the quadratic weight.
"""
import math

import numpy as np
import pytest

from fracrel.errors import (AdmissibilityError, CalibrationError,
                            ConditioningError, ConfigError, DomainError,
                            OverflowGuardError, PreconditionError,
                            SupportError)
from fracrel.grid import GridFunction, SpaceTimeFunction
from fracrel.operator import OperatorParams
from fracrel.symbols import (QuadraticWeight, SymbolPoint,
                             SupportAnnulus, appendix_conjugation_check,
                             bracket_singular, carleman_quadratic_check,
                             conjugated_operator_matrix, conjugated_symbol,
                             default_xi_grid, elliptic_test_family,
                             garding_constants, garding_hypothesis_check,
                             matrix_parts, parabolic_bracket_terms,
                             parabolic_poisson_bracket, parabolic_test_family,
                             poisson_bracket, poisson_bracket_fd,
                             positivity_constants, positivity_sweep,
                             quadratic_constants, require_admissible_weight,
                             s1_commutator_target, spectral_operator_matrix,
                             symbol_gradient, _bracket_at_offset,
                             _time_derivative)

W_STEEP = QuadraticWeight.decaying(215.0, 1.0)
P_34 = OperatorParams(0.75, 0.0)


def oracle_ab(xi, px, m, s):
    w = complex(xi * xi + m * m - px * px, 2.0 * xi * px)
    z = w ** s
    return z.real, z.imag


def random_points(count, seed, alpha_hi=8.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = float(rng.uniform(0.2, alpha_hi))
        R = float(rng.uniform(0.5, 3.0))
        w = QuadraticWeight.decaying(alpha, R)
        s = float(rng.uniform(0.05, 1.0))
        m = float(rng.uniform(0.0, 2.0 * alpha / R))
        t = float(rng.uniform(0.0, 2.0))
        sig = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0))
        x = (sig - float(w.psi_at(t))) * R
        xi = float(rng.choice([-1.0, 1.0])
                   * rng.uniform(1e-3, 1e3) * alpha / R)
        out.append((SymbolPoint(x=x, xi=xi, t=t), w, OperatorParams(s, m)))
    return out


# ------------------------------------------------------------- weight

def test_weight_phi_derivatives_match_differences():
    w = QuadraticWeight.decaying(3.0, 1.5)
    t, x, h = 0.7, 0.4, 1e-5
    assert w.phi_x(t, x) == pytest.approx(
        (w.phi(t, x + h) - w.phi(t, x - h)) / (2 * h), rel=1e-8)
    assert w.phi_t(t, x) == pytest.approx(
        (w.phi(t + h, x) - w.phi(t - h, x)) / (2 * h), rel=1e-8)
    assert w.phi_xx == pytest.approx(
        (w.phi(t, x + h) - 2 * w.phi(t, x) + w.phi(t, x - h)) / h ** 2,
        rel=1e-5)
    assert w.phi_tx(t) == pytest.approx(
        (w.phi_x(t + h, x) - w.phi_x(t - h, x)) / (2 * h), rel=1e-7)
    assert w.phi_tt(t, x) == pytest.approx(
        (w.phi_t(t + h, x) - w.phi_t(t - h, x)) / (2 * h), rel=1e-6)


def test_weight_validation():
    with pytest.raises(ConfigError):
        QuadraticWeight.constant(-1.0, 1.0)
    with pytest.raises(ConfigError):
        QuadraticWeight.constant(1.0, 0.0)
    # profile values must stay inside [0, 3]
    bad = QuadraticWeight(1.0, 1.0, lambda t: 4.0, lambda t: 0.0,
                          lambda t: 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        bad.psi_at(0.0)


def test_profile_norms_and_ratios():
    w = QuadraticWeight.decaying(2.0, 1.0, scale=3.0)
    # psi = 3/(1+t): psi' = -3/(1+t)^2, sup 3; psi'' sup 6
    assert w.psi_d1_sup == pytest.approx(3.0)
    assert w.psi_d2_sup == pytest.approx(6.0)
    assert w.profile_norm() == pytest.approx(3.0 + math.sqrt(6.0))
    assert w.m_ratio(4.0) == pytest.approx(1.0)
    assert w.slope(0.75) == pytest.approx(0.75 * 2.0 ** 0.5)
    wo = QuadraticWeight.oscillating(2.0, 1.0, amplitude=1.4, rate=2.0)
    assert wo.psi_d1_sup == pytest.approx(2.8)
    assert wo.psi_d2_sup == pytest.approx(5.6)
    assert 0.0 <= wo.psi_at(1.3) <= 3.0


def test_symbol_point_validation():
    with pytest.raises(ConfigError):
        SymbolPoint(x=math.nan, xi=1.0)
    with pytest.raises(ConfigError):
        SymbolPoint(x=0.0, xi=1.0, t=-1.0)


# ------------------------------------------------------------- symbols

def test_symbol_matches_complex_power_oracle():
    worst = 0.0
    for pt, w, p in random_points(500, seed=11):
        a, b = conjugated_symbol(pt, w, p)
        px = w.phi_x(pt.t, pt.x)
        ar, br = oracle_ab(pt.xi, px, p.m, p.s)
        scale = max(math.hypot(ar, br), 1e-30)
        worst = max(worst, math.hypot(a - ar, b - br) / scale)
    assert worst < 1e-12


def test_symbol_special_points():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    # phi_x = 0 at offset 0: real symbol
    pt = SymbolPoint(x=-3.0, xi=1.7)
    a, b = conjugated_symbol(pt, w, OperatorParams(0.3, 1.2))
    assert a == pytest.approx((1.7 ** 2 + 1.2 ** 2) ** 0.3, rel=1e-14)
    assert b == 0.0
    # s = 1 is the plain complex number
    pt = SymbolPoint(x=-2.5, xi=0.9)
    a, b = conjugated_symbol(pt, w, OperatorParams(1.0, 0.7))
    px = w.phi_x(0.0, -2.5)
    assert a == pytest.approx(0.9 ** 2 + 0.7 ** 2 - px ** 2, rel=1e-14)
    assert b == pytest.approx(2.0 * 0.9 * px, rel=1e-14)


def test_symbol_half_power_on_imaginary_axis():
    """Vanishing real part with xi phi_x > 0 puts theta at pi/2, where the
    square root has equal real and imaginary parts."""
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    x = -2.0                                  # offset 1, phi_x = 4
    px = w.phi_x(0.0, x)
    xi = 1.3
    m = math.sqrt(px ** 2 - xi ** 2)
    a, b = conjugated_symbol(SymbolPoint(x=x, xi=xi), w,
                             OperatorParams(0.5, m))
    expect = math.sqrt(2.0 * xi * px) / math.sqrt(2.0)
    assert a == pytest.approx(expect, rel=1e-12)
    assert b == pytest.approx(expect, rel=1e-12)


def test_symbol_zero_modulus_returns_zero():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    x = -2.0
    m = w.phi_x(0.0, x)
    a, b = conjugated_symbol(SymbolPoint(x=x, xi=0.0), w,
                             OperatorParams(0.5, m))
    assert (a, b) == (0.0, 0.0)


def test_gradient_matches_finite_differences():
    worst = 0.0
    for pt, w, p in random_points(120, seed=23):
        g = symbol_gradient(pt, w, p)
        hxi = 1e-6 * max(abs(pt.xi), 2.0 * w.alpha / w.R)
        hx = 1e-6 * w.R
        ht = 1e-6
        fd = {}
        a_m, b_m = conjugated_symbol(SymbolPoint(pt.x, pt.xi - hxi, pt.t), w, p)
        a_p, b_p = conjugated_symbol(SymbolPoint(pt.x, pt.xi + hxi, pt.t), w, p)
        fd["a_xi"] = (a_p - a_m) / (2 * hxi)
        fd["b_xi"] = (b_p - b_m) / (2 * hxi)
        a_m, b_m = conjugated_symbol(SymbolPoint(pt.x - hx, pt.xi, pt.t), w, p)
        a_p, b_p = conjugated_symbol(SymbolPoint(pt.x + hx, pt.xi, pt.t), w, p)
        fd["a_x"] = (a_p - a_m) / (2 * hx)
        fd["b_x"] = (b_p - b_m) / (2 * hx)
        a_m, b_m = conjugated_symbol(SymbolPoint(pt.x, pt.xi, pt.t + ht), w, p)
        a_p, b_p = conjugated_symbol(SymbolPoint(pt.x, pt.xi, max(pt.t - ht, 0.0)), w, p)
        fd["a_t"] = (a_m - a_p) / (ht + min(pt.t, ht))
        fd["b_t"] = (b_m - b_p) / (ht + min(pt.t, ht))
        scale = max(abs(g["a_xi"]), abs(g["b_xi"]), 1e-30)
        for key in ("a_xi", "b_xi", "a_x", "b_x"):
            worst = max(worst, abs(g[key] - fd[key]) / scale)
        tscale = max(abs(g["a_t"]), abs(g["b_t"]), scale * 1e-3)
        for key in ("a_t", "b_t"):
            worst = max(worst, abs(g[key] - fd[key]) / tscale)
    assert worst < 1e-5


def test_gradient_transport_identity():
    # a_t = -phi_tx b_xi and b_t = phi_tx a_xi hold exactly, not just to
    # truncation order: both sides are evaluated from the same xi-gradient
    for pt, w, p in random_points(50, seed=31):
        g = symbol_gradient(pt, w, p)
        tx = w.phi_tx(pt.t)
        assert g["a_t"] == pytest.approx(-tx * g["b_xi"], abs=1e-300)
        assert g["b_t"] == pytest.approx(tx * g["a_xi"], abs=1e-300)


# ------------------------------------------------------------- brackets

def test_bracket_closed_form_against_differences():
    """1000 random admissible points, modulus bounded away from zero."""
    pts = random_points(1000, seed=47)
    worst = 0.0
    kept = 0
    for pt, w, p in pts:
        if bracket_singular(pt, w, p):
            continue
        kept += 1
        closed = poisson_bracket(pt, w, p)
        fd = poisson_bracket_fd(pt, w, p)
        worst = max(worst, abs(closed - fd) / max(abs(closed), 1e-30))
    assert kept > 900
    assert worst < 1e-5


def test_bracket_s1_closed_form():
    for pt, w, _ in random_points(40, seed=5):
        p1 = OperatorParams(1.0, 0.9)
        px = w.phi_x(pt.t, pt.x)
        expect = 4.0 * w.phi_xx * (pt.xi ** 2 + px ** 2)
        assert poisson_bracket(pt, w, p1) == pytest.approx(expect, rel=1e-13)


def test_bracket_singular_point_flagged():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    x = -2.0                                  # phi_x = 4
    m = w.phi_x(0.0, x)
    pt = SymbolPoint(x=x, xi=0.0)
    assert bracket_singular(pt, w, OperatorParams(0.75, m))
    assert poisson_bracket(pt, w, OperatorParams(0.75, m)) == math.inf
    assert poisson_bracket(pt, w, OperatorParams(0.4, m)) == math.inf
    assert not bracket_singular(pt, w, OperatorParams(1.0, m))


def test_bracket_fully_degenerate_limit():
    # xi = 0, m = 0 at the annulus center: modulus and prefactor both
    # vanish; the limit is 0 for s > 1/2 and diverges below
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    pt = SymbolPoint(x=-3.0, xi=0.0)
    assert poisson_bracket(pt, w, OperatorParams(0.75, 0.0)) == 0.0
    assert poisson_bracket(pt, w, OperatorParams(0.4, 0.0)) == math.inf


def test_parabolic_terms_match_differences():
    pts = random_points(120, seed=59)
    worst = 0.0
    from fracrel.symbols import parabolic_bracket_terms_fd
    for pt, w, p in pts:
        if bracket_singular(pt, w, p):
            continue
        terms = parabolic_bracket_terms(pt, w, p)
        fd = parabolic_bracket_terms_fd(pt, w, p)
        for key in ("base", "mixed", "curvature", "transport"):
            scale = max(abs(terms[key]), abs(terms["base"]), 1e-30)
            worst = max(worst, abs(terms[key] - fd[key]) / scale)
    assert worst < 1e-5


def test_parabolic_decomposition_is_exact():
    for pt, w, p in random_points(60, seed=61):
        if bracket_singular(pt, w, p):
            continue
        terms = parabolic_bracket_terms(pt, w, p)
        total = parabolic_poisson_bracket(pt, w, p)
        assert total == pytest.approx(
            terms["base"] + terms["mixed"] + terms["curvature"]
            + terms["transport"], rel=1e-14, abs=1e-300)
        # transport term is -a_t, which collapses onto the mixed term
        assert terms["transport"] == pytest.approx(terms["mixed"], rel=1e-14,
                                                   abs=1e-300)


def test_parabolic_constant_profile_reduces_to_bracket():
    w = QuadraticWeight.constant(3.0, 1.0, 3.0)
    for pt, _, p in random_points(30, seed=67):
        if bracket_singular(pt, w, p):
            continue
        assert parabolic_poisson_bracket(pt, w, p) == poisson_bracket(pt, w, p)


def test_parabolic_s1_hand_expansion():
    """At s = 1 every term is elementary: the full bracket is
    4 phi_xx (xi^2 + phi_x^2) + 4 phi_x phi_tx + phi_tt."""
    w = QuadraticWeight(2.0, 1.0, lambda t: np.minimum(t, 3.0),
                        lambda t: 1.0, lambda t: 0.0, 1.0, 0.0)
    p = OperatorParams(1.0, 1.3)
    for t, x, xi in ((0.3, 0.8, 2.0), (1.1, -1.5, -0.7), (2.0, 0.1, 11.0)):
        pt = SymbolPoint(x=x, xi=xi, t=t)
        px = w.phi_x(t, x)
        expect = (4.0 * w.phi_xx * (xi ** 2 + px ** 2)
                  + 4.0 * px * w.phi_tx(t) + w.phi_tt(t, x))
        assert parabolic_poisson_bracket(pt, w, p) == pytest.approx(
            expect, rel=1e-12)


def test_dual_time_variable_cancels():
    # the dual time variable enters only through a unit-slope shift that
    # the bracket differentiates away
    for pt, w, p in random_points(20, seed=71):
        shifted = SymbolPoint(x=pt.x, xi=pt.xi, t=pt.t, tau=5.5)
        assert parabolic_poisson_bracket(shifted, w, p) == \
            parabolic_poisson_bracket(pt, w, p)


def test_bracket_scaling_laws():
    """Scaling (alpha, R) -> (2 alpha, 2R) at fixed offset and xi divides
    the massless bracket by 2; restoring the claimed 2^(2s-1) growth
    requires rescaling frequency by sqrt(2) and R by sqrt(2) only."""
    rng = np.random.default_rng(73)
    for _ in range(25):
        alpha, R = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 2.0))
        s = float(rng.uniform(0.55, 1.0))
        sig = float(rng.uniform(1.0, 4.0))
        xi = float(rng.uniform(0.1, 10.0)) * alpha / R
        p = OperatorParams(s, 0.0)

        def val(a_, r_, xi_):
            w_ = QuadraticWeight.constant(a_, r_, 3.0)
            x_ = (sig - 3.0) * r_
            return poisson_bracket(SymbolPoint(x=x_, xi=xi_), w_, p)

        base = val(alpha, R, xi)
        assert val(2 * alpha, 2 * R, xi) == pytest.approx(base / 2.0,
                                                          rel=1e-10)
        assert val(2 * alpha, math.sqrt(2.0) * R, math.sqrt(2.0) * xi) == \
            pytest.approx(2.0 ** (2 * s - 1) * base, rel=1e-10)


# ------------------------------------------------------------- sweeps

def test_admissibility_gate():
    w = QuadraticWeight.decaying(215.0, 1.0)
    require_admissible_weight(w, OperatorParams(0.75, 1.0), 1.9685)
    with pytest.raises(AdmissibilityError):
        require_admissible_weight(w, OperatorParams(0.75, 500.0), 1.9685)
    with pytest.raises(AdmissibilityError):
        require_admissible_weight(QuadraticWeight.decaying(1.0, 1.0),
                                  OperatorParams(0.75, 0.0), 1.9685)


def test_positivity_constant_profile_ratio_is_eight():
    """With a steady profile the extra terms vanish and the ratio
    8 (xi^2 + phi_x^2)^(2s-1) / (xi^2 + (2 alpha/R)^2)^(2s-1) has an exact
    minimum of 8 along phi_x = 2 alpha/R."""
    w = QuadraticWeight.constant(50.0, 1.0, 1.0)
    rep = positivity_sweep(w, OperatorParams(0.75, 0.0),
                           constants=(1.9685, 1.0))
    assert rep.passed
    assert rep.measured["ratio_min"] == pytest.approx(8.0, abs=1e-6)
    w3 = QuadraticWeight.constant(50.0, 1.0, 3.0)
    rep3 = positivity_sweep(w3, OperatorParams(0.75, 0.0),
                            constants=(1.9685, 1.0))
    assert rep3.measured["ratio_min"] == pytest.approx(8.0, abs=1e-3)


def test_positivity_admissible_configurations_pass():
    c_hyp, c_min = positivity_constants(0.75, 0.0)
    for alpha in (215.0, 430.0, 860.0):
        w = QuadraticWeight.decaying(alpha, 1.0)
        rep = positivity_sweep(w, OperatorParams(0.75, 0.0))
        assert rep.passed
        assert rep.measured["ratio_min"] >= c_min
        assert min(rep.measured["margins"].values()) >= -1e-9
    c_hyp1, c_min1 = positivity_constants(0.75, 1.0)
    for alpha in (215.0, 430.0):
        w = QuadraticWeight.decaying(alpha, 1.0)
        rep = positivity_sweep(w, OperatorParams(0.75, 2.0 * alpha))
        assert rep.passed
        assert rep.measured["ratio_min"] >= c_min1


def test_positivity_rejects_violated_gate():
    w = QuadraticWeight.decaying(1.0, 1.0)
    with pytest.raises(AdmissibilityError):
        positivity_sweep(w, OperatorParams(0.75, 0.0))


def test_positivity_falsification_witness():
    """An oscillating profile with negative curvature phases drives the
    parabolic bracket negative; the sweep reports the witness point."""
    w = QuadraticWeight.oscillating(2.0, 1.0, amplitude=1.4, rate=3.0)
    rep = positivity_sweep(w, OperatorParams(0.75, 0.0),
                           constants=(1.9685, 1.0), enforce=False)
    assert not rep.passed
    assert not rep.measured["gate_ok"]
    assert rep.measured["ratio_min"] < 0.0
    assert rep.witness is not None
    assert rep.witness["ratio"] == pytest.approx(rep.measured["ratio_min"])


def test_positivity_requires_interior_exponent():
    with pytest.raises(PreconditionError):
        positivity_sweep(W_STEEP, OperatorParams(0.5, 0.0),
                         constants=(1.9685, 1.0))
    with pytest.raises(PreconditionError):
        positivity_sweep(W_STEEP, OperatorParams(1.0, 0.0),
                         constants=(1.9685, 1.0))


def test_positivity_argmin_stable_under_refinement():
    wit = []
    for tn, sn, xn in ((11, 17, 200), (21, 33, 400), (41, 65, 800)):
        rep = positivity_sweep(W_STEEP, P_34,
                               t_grid=np.linspace(0.0, 2.0, tn),
                               sigma_nodes=sn,
                               xi_grid=default_xi_grid(W_STEEP, xn))
        wit.append(rep.witness)

    def dist(a, b):
        return (abs(a["sigma"] - b["sigma"]) + abs(a["t"] - b["t"])
                + abs(math.log10(abs(a["xi"])) - math.log10(abs(b["xi"]))))

    d01 = dist(wit[0], wit[1])
    d12 = dist(wit[1], wit[2])
    assert d12 <= d01 + 1e-12
    assert d12 <= 0.05


def test_xi_grid_covers_range_and_split():
    w = QuadraticWeight.constant(5.0, 2.0, 3.0)
    grid = default_xi_grid(w)
    unit = w.alpha / w.R
    assert grid[0] <= 1e-3 * unit * (1 + 1e-12)
    assert grid[-1] >= 1e3 * unit * (1 - 1e-12)
    assert np.all(np.diff(grid) > 0)
    # dense sampling around the case split at 2 alpha/R
    near = grid[(grid > 1.5 * unit) & (grid < 2.5 * unit)]
    assert near.size >= 40


def test_annulus_membership_and_leaks():
    w = QuadraticWeight.decaying(2.0, 1.0)
    ann = SupportAnnulus(w)
    assert ann.contains(0.0, -1.0)            # offset 2
    assert not ann.contains(0.0, -2.5)        # offset 0.5
    g = GridFunction(8.0, 256, np.ones(256))
    assert 0.0 < ann.leak_fraction(g) < 1.0
    zero = GridFunction(8.0, 256, np.zeros(256))
    assert ann.leak_fraction(zero) == 0.0


# ------------------------------------------------------------- garding

def test_garding_bound_holds_with_frozen_constant():
    entry = garding_constants(0.75, 0.0)
    ratios = []
    for alpha in (40.0, 160.0):
        w = QuadraticWeight.constant(alpha, 1.0, 3.0)
        rep = garding_hypothesis_check(w, OperatorParams(0.75, 0.0))
        assert rep.passed
        ratios.append(rep.measured["measured"] / rep.measured["bound"])
    # the envelope exponent makes the ratio steepness-invariant
    assert ratios[0] == pytest.approx(ratios[1], rel=0.01)
    assert ratios[0] == pytest.approx(1.0 / entry["C_ref"] * 2.9881,
                                      rel=0.01)


def test_garding_doubling_scales_by_envelope_exponent():
    vals = []
    for alpha in (60.0, 120.0):
        w = QuadraticWeight.constant(alpha, 1.0, 3.0)
        rep = garding_hypothesis_check(w, OperatorParams(0.75, 0.0),
                                       constants=1.0)
        vals.append(rep.measured["measured"])
    assert vals[1] / vals[0] == pytest.approx(2.0 ** (2 * (2 * 0.75 - 3)),
                                              rel=1e-3)


def test_garding_extra_derivatives_decay_better():
    w = QuadraticWeight.constant(80.0, 1.0, 3.0)
    rep = garding_hypothesis_check(w, OperatorParams(0.75, 0.0),
                                   constants=1.0, probe_order_8=True)
    assert rep.measured["order8_over_order7"] <= 1.0


def test_garding_requires_interior_exponent():
    w = QuadraticWeight.constant(80.0, 1.0, 3.0)
    with pytest.raises(PreconditionError):
        garding_hypothesis_check(w, OperatorParams(0.5, 0.0), constants=1.0)


def test_garding_bracket_matches_parabolic_bracket():
    # the differenced bracket carries the mixed term 2 phi_tx b_xi, so it
    # must equal the pointwise parabolic bracket off R = 1 as well
    ts = np.array([0.0, 0.5, 0.5, 1.5])
    sigmas = np.array([1.2, 2.5, 3.9, 2.0])
    for R in (1.0, 2.0):
        w = QuadraticWeight.decaying(30.0, R)
        xis = (2.0 * w.alpha / w.R) * np.array([0.3, 7.0 * R / 60.0, -1.5,
                                                4.0])
        got = _bracket_at_offset(w, P_34, sigmas, ts, xis)
        for k, (t, sig, xi) in enumerate(zip(ts, sigmas, xis)):
            x = R * (sig - float(w.psi_at(t)))
            want = parabolic_poisson_bracket(SymbolPoint(x, xi, t), w, P_34)
            assert abs(got[k] - want) <= 1e-12 * abs(want), (R, t, sig, xi)


# ------------------------------------------------------------- matrices

def test_unweighted_matrix_is_spectral_operator():
    p = OperatorParams(0.6, 1.0)
    w = QuadraticWeight.constant(1e-14, 1.0, 0.0)
    M = conjugated_operator_matrix(w, p, 8.0, 128)
    W = spectral_operator_matrix(8.0, 128, p)
    assert np.max(np.abs(M - W)) < 1e-8 * np.max(np.abs(W))
    assert np.max(np.abs(W - W.T)) < 1e-10 * np.max(np.abs(W))


def test_matrix_overflow_guard():
    w = QuadraticWeight.constant(50.0, 1.0, 3.0)
    with pytest.raises(OverflowGuardError):
        conjugated_operator_matrix(w, OperatorParams(0.75, 0.0), 8.0, 128)


def test_matrix_parts_recompose():
    w = QuadraticWeight.constant(0.2, 1.0, 0.0)
    M = conjugated_operator_matrix(w, OperatorParams(0.75, 1.0), 8.0, 128)
    S, A = matrix_parts(M)
    assert np.array_equal(S, S.T)
    assert np.max(np.abs(A + A.T)) < 1e-14 * np.max(np.abs(M))
    assert np.max(np.abs(S + A - M)) < 1e-12 * np.max(np.abs(M))


def commutator_operands(n, L=8.0):
    x = -L / 2 + (L / n) * np.arange(n)
    core = np.exp(-((x / 0.35) ** 2))
    ops = [core]
    for k in (1, 2, 3):
        ops.append(core * np.cos(2 * np.pi * k * x / 3.0))
        ops.append(core * np.sin(2 * np.pi * k * x / 3.0))
    return ops


def test_s1_commutator_matches_closed_form():
    """[sym, antisym] applied to analytic operands concentrated where the
    weight is moderate; centered profiles keep the periodic seam quiet."""
    n, L = 256, 8.0
    for alpha, level in ((0.05, 0.0), (0.2, 0.0), (0.4, 0.0), (0.05, 3.0)):
        w = QuadraticWeight.constant(alpha, 1.0, level)
        p = OperatorParams(1.0, 1.0)
        M = conjugated_operator_matrix(w, p, L, n)
        S, A = matrix_parts(M)
        comm = S @ A - A @ S
        T = s1_commutator_target(w, p, L, n)
        worst = max(
            np.linalg.norm(comm @ f - T @ f) / np.linalg.norm(T @ f)
            for f in commutator_operands(n, L))
        assert worst < 1e-8


def test_s1_commutator_target_rejects_fractional_s():
    w = QuadraticWeight.constant(0.1, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        s1_commutator_target(w, OperatorParams(0.75, 1.0), 8.0, 128)


def test_decomposition_identity():
    """|| (S+A) f ||^2 = ||S f||^2 + ||A f||^2 + <[S,A] f, f> is exact
    linear algebra; verified for s = 1 and a fractional exponent."""
    n, L = 256, 8.0
    rng = np.random.default_rng(83)
    for s in (1.0, 0.75):
        w = QuadraticWeight.constant(0.15, 1.0, 0.0)
        M = conjugated_operator_matrix(w, OperatorParams(s, 1.0), L, n)
        S, A = matrix_parts(M)
        comm = S @ A - A @ S
        for f in (commutator_operands(n, L)[0],
                  rng.standard_normal(n) * commutator_operands(n, L)[0]):
            lhs = float(np.sum((M @ f) ** 2))
            rhs = (float(np.sum((S @ f) ** 2)) + float(np.sum((A @ f) ** 2))
                   + float(f @ (comm @ f)))
            assert lhs == pytest.approx(rhs, rel=1e-8)


# ------------------------------------------------------------- quadratic

def test_time_derivative_exact_on_cubics():
    times = np.linspace(0.0, 1.0, 24)
    vals = (times ** 3)[:, None] * np.ones((1, 8))
    d = _time_derivative(vals, float(times[1] - times[0]))
    expect = 3.0 * times ** 2
    assert np.max(np.abs(d[4:-4, 0] - expect[4:-4])) < 1e-12


def test_parabolic_check_needs_a_uniform_time_window():
    # the eighth-order time stencil needs 9 uniform samples; a trajectory
    # with fewer, or with uneven steps, is a valid SpaceTimeFunction but
    # not a parabolic operand
    w = QuadraticWeight.decaying(2.0, 1.0)
    con = {"c1": 0.1, "c2": 0.1, "C_weight": 1.0}
    times = np.linspace(0.0, 1.0, 12)
    for ts in (times[:5], np.concatenate([times[:6], times[7:]])):
        f = SpaceTimeFunction(8.0, 16, ts, np.zeros((ts.size, 16)))
        with pytest.raises(ConfigError):
            carleman_quadratic_check([f], w, OperatorParams(0.75, 0.0),
                                     "parabolic", constants=con)


def test_quadratic_elliptic_inequality_on_fresh_corpus():
    entry = quadratic_constants("elliptic", 0.5, 0.0)
    alpha = entry["corpus"]["alpha"]
    w = QuadraticWeight.constant(alpha, 1.0, 3.0)
    p = OperatorParams(0.5, 0.0)
    fs = elliptic_test_family(w, 8.0, 512, 8, np.random.default_rng(101))
    rep = carleman_quadratic_check(fs, w, p, "elliptic")
    assert rep.passed
    assert rep.measured["min_slack"] >= 0.999
    assert rep.measured["c1"] == entry["c1"]


def test_quadratic_parabolic_inequality_on_fresh_corpus():
    entry = quadratic_constants("parabolic", 0.75, 1.0)
    alpha = entry["corpus"]["alpha"]
    w = QuadraticWeight.decaying(alpha, 1.0)
    p = OperatorParams(0.75, 2.0 * alpha)
    fs = parabolic_test_family(w, 8.0, 512, np.linspace(0.0, 1.0, 48), 4,
                               np.random.default_rng(103))
    rep = carleman_quadratic_check(fs, w, p, "parabolic")
    assert rep.passed
    assert rep.measured["min_slack"] >= 0.999


def test_quadratic_zero_operand_trivially_passes():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    zero = GridFunction(8.0, 256, np.zeros(256))
    rep = carleman_quadratic_check([zero], w, OperatorParams(0.5, 0.0),
                                   "elliptic")
    assert rep.passed
    assert rep.measured["min_slack"] == 0.0


def test_quadratic_support_violations():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    x = -4.0 + (8.0 / 512) * np.arange(512)
    wide = GridFunction(8.0, 512, np.exp(-x ** 2))
    con = {"c1": 0.1, "c2": 0.1, "C_weight": 1.0}
    with pytest.raises(SupportError):
        carleman_quadratic_check([wide], w, OperatorParams(0.5, 0.0),
                                 "elliptic", constants=con)
    wp = QuadraticWeight.decaying(2.0, 1.0)
    times = np.linspace(0.0, 1.0, 48)
    fam = parabolic_test_family(wp, 8.0, 512, times, 1,
                                np.random.default_rng(0))
    vals = fam[0].values.copy()
    vals[0] = vals[24]
    with pytest.raises(SupportError):
        carleman_quadratic_check([SpaceTimeFunction(8.0, 512, times, vals)],
                                 wp, OperatorParams(0.75, 0.0), "parabolic",
                                 constants=con)


def test_quadratic_admissibility_errors():
    con = {"c1": 0.1, "c2": 0.1, "C_weight": 1.0}
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    with pytest.raises(AdmissibilityError):
        carleman_quadratic_check([], w, OperatorParams(0.5, 10.0),
                                 "elliptic", constants=con)
    with pytest.raises(AdmissibilityError):
        carleman_quadratic_check([], QuadraticWeight.constant(0.5, 1.0, 3.0),
                                 OperatorParams(0.5, 0.0), "elliptic",
                                 constants=con)
    with pytest.raises(PreconditionError):
        carleman_quadratic_check([], w, OperatorParams(0.5, 0.0), "parabolic",
                                 constants=con)
    with pytest.raises(PreconditionError):
        carleman_quadratic_check([], QuadraticWeight.decaying(2.0, 1.0),
                                 OperatorParams(0.5, 0.0), "elliptic",
                                 constants=con)


def test_quadratic_refinement_keeps_constants():
    from fracrel.symbols import calibrate_quadratic
    coarse = quadratic_constants("elliptic", 0.75, 0.0)
    fine = calibrate_quadratic("elliptic", 0.75, 0.0, n=1024)
    assert 0.5 <= fine["c1"] / coarse["c1"] <= 2.0


# ------------------------------------------------------------- appendix

def test_appendix_conjugation_passes():
    rng = np.random.default_rng(20260822)
    for s in (-0.5, 0.3, 0.5, 1.0):
        phi = 0.2 * rng.standard_normal(64)
        rep = appendix_conjugation_check(64, s, phi)
        assert rep.passed
        assert rep.measured["rel_frobenius"] < 1e-10
        assert rep.measured["eig_recovery"] < 1e-10


def test_appendix_zero_weight_is_exact():
    rep = appendix_conjugation_check(32, 0.5, np.zeros(32))
    assert rep.passed
    assert rep.measured["rel_frobenius"] < 1e-13


def test_appendix_domain_and_conditioning_guards():
    with pytest.raises(DomainError):
        appendix_conjugation_check(16, 0.0, np.zeros(16))
    with pytest.raises(DomainError):
        appendix_conjugation_check(16, 1.5, np.zeros(16))
    with pytest.raises(DomainError):
        appendix_conjugation_check(16, -1.0, np.zeros(16))
    phi = np.linspace(0.0, 20.0, 16)
    with pytest.raises(ConditioningError):
        appendix_conjugation_check(16, 0.5, phi)


# ------------------------------------------------------------- tables

def test_calibration_loaders():
    c_hyp, c_min = positivity_constants(0.75, 0.0)
    assert c_hyp > 0 and c_min > 0
    entry = quadratic_constants("parabolic", 0.75, 0.0)
    assert entry["headroom"] > 1e6
    with pytest.raises(CalibrationError):
        positivity_constants(0.6, 0.0)
    with pytest.raises(CalibrationError):
        quadratic_constants("parabolic", 0.5, 0.0)
