"""Conjugated-symbol calculus: closed forms against independent oracles.

Oracles: the complex power ((xi^2+m^2-phi_x^2) + 2i xi phi_x)^s evaluated
with complex arithmetic (symbols a, b are its real and imaginary parts),
high-order central differences for every derivative and bracket, the s=1
case where all symbols are polynomials and the operator commutator has an
elementary closed form, and exact scaling laws of the quadratic weight.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fracrel.errors import (AdmissibilityError, CalibrationError,
                            ConditioningError, ConfigError, DomainError,
                            FracrelError, OverflowGuardError,
                            PreconditionError, SupportError)
from fracrel import symbols
from fracrel.grid import GridFunction, SpaceTimeFunction, grid_points
from fracrel.operator import OperatorParams
from fracrel.symbols import (QuadraticWeight, appendix_conjugation_check,
                             calibrate_garding, calibrate_positivity,
                             calibrate_quadratic, carleman_quadratic_check,
                             conjugated_operator_matrix, default_xi_grid,
                             elliptic_test_family, garding_constants,
                             garding_hypothesis_check, matrix_parts,
                             parabolic_bracket, parabolic_test_family,
                             positivity_constants, positivity_sweep,
                             quadratic_constants, require_admissible_weight,
                             s1_commutator_target, spectral_operator_matrix,
                             _bracket_ab, _mixed_pieces, _symbol_ab,
                             _symbol_b_xi, _symbol_core, _time_derivative)
import oracles
from oracles import (SymbolPoint, _core_at, _symbol_xi_grad,
                     bracket_singular, calibration_tables, garding_order_max,
                     leak_fraction, loop_sweep_minima, operand_terms,
                     parabolic_bracket_terms_fd, phase_bracket_fd,
                     poisson_bracket, poisson_bracket_fd, quadratic_headroom,
                     refined_quadratic_constant, tilde_symbols)

W_STEEP = QuadraticWeight.decaying(215.0, 1.0)
P_34 = OperatorParams(0.75, 0.0)


def profile_weight(profile, alpha):
    """The decaying weight, or the oscillating one at rate 2, at R = 1."""
    if profile == "oscillating":
        return QuadraticWeight.oscillating(alpha, 1.0, rate=2.0)
    return QuadraticWeight.decaying(alpha, 1.0)


def oracle_ab(xi, px, m, s):
    w = complex(xi * xi + m * m - px * px, 2.0 * xi * px)
    z = w ** s
    return z.real, z.imag


def oracle_parabolic_bracket(x, t, xi, w, p):
    """{a~, b~} at a physical point by complex arithmetic.  With
    g = d_xi w^s = s w^(s-1) (2 xi + 2 i phi_x): {a, b} = phi_xx |g|^2,
    b_xi = Im g, and phi_tt = 2 alpha psi'^2 + 2 alpha (x/R + psi) psi''."""
    px = w.phi_x(t, x)
    z = complex(xi * xi + p.m * p.m - px * px, 2.0 * xi * px)
    g = p.s * z ** (p.s - 1.0) * complex(2.0 * xi, 2.0 * px)
    phi_tt = 2.0 * w.alpha * (w.psi_d1(t) ** 2
                              + (x / w.R + w.psi(t)) * w.psi_d2(t))
    return w.phi_xx * abs(g) ** 2 + 2.0 * w.phi_tx(t) * g.imag + phi_tt


def point_ab(pt, w, p):
    """(a, b) = (rho^s cos(s theta), rho^s sin(s theta)) at the point."""
    a, b = _symbol_ab(_core_at(pt, w, p))
    return float(a), float(b)


def point_gradient(pt, w, p):
    """Every first derivative of (a, b): the xi-gradient in closed form,
    and the x and t derivatives through d_x w = i phi_xx d_xi w and
    d_t w = i phi_tx d_xi w."""
    a_xi, b_xi = (float(v) for v in _symbol_xi_grad(_core_at(pt, w, p)))
    ptx = float(w.phi_tx(pt.t))
    return {"a_xi": a_xi, "b_xi": b_xi,
            "a_x": -w.phi_xx * b_xi, "b_x": w.phi_xx * a_xi,
            "a_t": -ptx * b_xi, "b_t": ptx * a_xi}


def bracket_at(pt, w, p):
    """The one parabolic bracket at a phase-space point."""
    return parabolic_bracket(w, p, w.offset(pt.t, pt.x), pt.t, pt.xi)


def bracket_terms(pt, w, p):
    """The four pieces of {a~, b~}: base {a, b}, mixed phi_tx b_xi,
    curvature phi_tt and transport -a_t."""
    br = bracket_at(pt, w, p)
    d1 = float(w.psi_d1(pt.t))
    return {"base": float(br.base), "mixed": float(br.mixed),
            "curvature": float(2.0 * w.alpha * d1 * d1 + br.curv_psi2),
            "transport": -point_gradient(pt, w, p)["a_t"]}


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
    # phi_tt, in the two pieces the parabolic bracket sums
    phi_tt = (2.0 * w.alpha * w.psi_d1(t) ** 2
              + 2.0 * w.alpha * w.offset(t, x) * w.psi_d2(t))
    assert phi_tt == pytest.approx(
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
    w = QuadraticWeight.decaying(2.0, 1.0)
    # psi = 3/(1+t): psi' = -3/(1+t)^2, sup 3; psi'' sup 6
    assert w.psi_d1_sup == pytest.approx(3.0)
    assert w.psi_d2_sup == pytest.approx(6.0)
    assert w.profile_norm() == pytest.approx(3.0 + math.sqrt(6.0))
    assert w.m_ratio(4.0) == pytest.approx(1.0)
    assert w.slope(0.75) == pytest.approx(0.75 * 2.0 ** 0.5)
    wo = QuadraticWeight.oscillating(2.0, 1.0, rate=2.0)
    assert wo.psi_d1_sup == pytest.approx(2.8)
    assert wo.psi_d2_sup == pytest.approx(5.6)
    assert 0.0 <= wo.psi_at(1.3) <= 3.0


# ------------------------------------------------------------- symbols

def test_symbol_matches_complex_power_oracle():
    worst = 0.0
    for pt, w, p in random_points(500, seed=11):
        a, b = point_ab(pt, w, p)
        px = w.phi_x(pt.t, pt.x)
        ar, br = oracle_ab(pt.xi, px, p.m, p.s)
        scale = max(math.hypot(ar, br), 1e-30)
        worst = max(worst, math.hypot(a - ar, b - br) / scale)
    assert worst < 1e-12


def test_symbol_special_points():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    # phi_x = 0 at offset 0: real symbol
    pt = SymbolPoint(x=-3.0, xi=1.7)
    a, b = point_ab(pt, w, OperatorParams(0.3, 1.2))
    assert a == pytest.approx((1.7 ** 2 + 1.2 ** 2) ** 0.3, rel=1e-14)
    assert b == 0.0
    # s = 1 is the plain complex number
    pt = SymbolPoint(x=-2.5, xi=0.9)
    a, b = point_ab(pt, w, OperatorParams(1.0, 0.7))
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
    a, b = point_ab(SymbolPoint(x=x, xi=xi), w,
                             OperatorParams(0.5, m))
    expect = math.sqrt(2.0 * xi * px) / math.sqrt(2.0)
    assert a == pytest.approx(expect, rel=1e-12)
    assert b == pytest.approx(expect, rel=1e-12)


def test_symbol_zero_modulus_returns_zero():
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    x = -2.0
    m = w.phi_x(0.0, x)
    a, b = point_ab(SymbolPoint(x=x, xi=0.0), w,
                             OperatorParams(0.5, m))
    assert (a, b) == (0.0, 0.0)


def test_gradient_matches_finite_differences():
    worst = 0.0
    for pt, w, p in random_points(120, seed=23):
        g = point_gradient(pt, w, p)
        hxi = 1e-6 * max(abs(pt.xi), 2.0 * w.alpha / w.R)
        hx = 1e-6 * w.R
        ht = 1e-6
        fd = {}
        a_m, b_m = point_ab(SymbolPoint(pt.x, pt.xi - hxi, pt.t), w, p)
        a_p, b_p = point_ab(SymbolPoint(pt.x, pt.xi + hxi, pt.t), w, p)
        fd["a_xi"] = (a_p - a_m) / (2 * hxi)
        fd["b_xi"] = (b_p - b_m) / (2 * hxi)
        a_m, b_m = point_ab(SymbolPoint(pt.x - hx, pt.xi, pt.t), w, p)
        a_p, b_p = point_ab(SymbolPoint(pt.x + hx, pt.xi, pt.t), w, p)
        fd["a_x"] = (a_p - a_m) / (2 * hx)
        fd["b_x"] = (b_p - b_m) / (2 * hx)
        a_m, b_m = point_ab(SymbolPoint(pt.x, pt.xi, pt.t + ht), w, p)
        a_p, b_p = point_ab(SymbolPoint(pt.x, pt.xi, max(pt.t - ht, 0.0)), w, p)
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
    # truncation order: d_t w = i phi_tx d_xi w as complex numbers, and the
    # bracket's mixed term is the transport term -a_t to the bit
    for pt, w, p in random_points(50, seed=31):
        px, tx = float(w.phi_x(pt.t, pt.x)), float(w.phi_tx(pt.t))
        d_t = complex(-2.0 * px * tx, 2.0 * pt.xi * tx)
        d_xi = complex(2.0 * pt.xi, 2.0 * px)
        assert abs(d_t - 1j * tx * d_xi) <= 1e-14 * abs(d_t)
        g = point_gradient(pt, w, p)
        assert float(bracket_at(pt, w, p).mixed) == pytest.approx(
            -g["a_t"], abs=1e-300)
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
    # vanish; the limit of 4 s^2 phi_xx (xi^2 + phi_x^2)^(2s-1) is 0 for
    # s > 1/2, phi_xx at s = 1/2, and diverges below
    w = QuadraticWeight.constant(2.0, 1.0, 3.0)
    pt = SymbolPoint(x=-3.0, xi=0.0)
    assert poisson_bracket(pt, w, OperatorParams(0.75, 0.0)) == 0.0
    assert poisson_bracket(pt, w, OperatorParams(0.5, 0.0)) == w.phi_xx
    near = poisson_bracket(SymbolPoint(x=-3.0, xi=1e-8), w,
                           OperatorParams(0.5, 0.0))
    assert near == pytest.approx(w.phi_xx, rel=1e-12)
    assert poisson_bracket(pt, w, OperatorParams(0.4, 0.0)) == math.inf


def test_parabolic_terms_match_differences():
    pts = random_points(120, seed=59)
    # t = 0, the first of SWEEP_TIMES, and a time within one step of it,
    # where a centred t difference would take psi out of [0, 3]
    pts += [(SymbolPoint(pt.x, pt.xi, t), w, p) for pt, w, p in pts[:10]
            for t in (0.0, 5e-5)]
    worst = 0.0
    for pt, w, p in pts:
        if bracket_singular(pt, w, p):
            continue
        terms = bracket_terms(pt, w, p)
        fd = parabolic_bracket_terms_fd(pt, w, p)
        for key in ("base", "mixed", "curvature", "transport"):
            scale = max(abs(terms[key]), abs(terms["base"]), 1e-30)
            worst = max(worst, abs(terms[key] - fd[key]) / scale)
    assert worst < 1e-5


def test_parabolic_decomposition_is_exact():
    for pt, w, p in random_points(60, seed=61):
        if bracket_singular(pt, w, p):
            continue
        terms = bracket_terms(pt, w, p)
        br = bracket_at(pt, w, p)
        total = float(br.total)
        assert total == pytest.approx(
            terms["base"] + terms["mixed"] + terms["curvature"]
            + terms["transport"], rel=1e-14, abs=1e-300)
        # transport term is -a_t, which collapses onto the mixed term
        assert terms["transport"] == pytest.approx(terms["mixed"], rel=1e-14,
                                                   abs=1e-300)
        # one order of additions, and the pieces 2 alpha psi'^2 and
        # 2 alpha sigma psi''
        d1, d2 = float(w.psi_d1(pt.t)), float(w.psi_d2(pt.t))
        sigma = float(w.offset(pt.t, pt.x))
        assert float(br.curv_psi1) == 2.0 * w.alpha * d1 * d1
        assert float(br.curv_psi2) == 2.0 * w.alpha * sigma * d2
        assert total == float(br.base + 2.0 * br.mixed
                              + 2.0 * w.alpha * d1 * d1 + br.curv_psi2)


def test_parabolic_constant_profile_reduces_to_bracket():
    w = QuadraticWeight.constant(3.0, 1.0, 3.0)
    for pt, _, p in random_points(30, seed=67):
        if bracket_singular(pt, w, p):
            continue
        assert float(bracket_at(pt, w, p).total) == poisson_bracket(pt, w, p)


def test_parabolic_s1_hand_expansion():
    """At s = 1 every term is elementary: the full bracket is
    4 phi_xx (xi^2 + phi_x^2) + 4 phi_x phi_tx + phi_tt."""
    w = QuadraticWeight(2.0, 1.0, lambda t: np.minimum(t, 3.0),
                        lambda t: 1.0, lambda t: 0.0, 1.0, 0.0)
    p = OperatorParams(1.0, 1.3)
    for t, x, xi in ((0.3, 0.8, 2.0), (1.1, -1.5, -0.7), (2.0, 0.1, 11.0)):
        pt = SymbolPoint(x=x, xi=xi, t=t)
        px = w.phi_x(t, x)
        phi_tt = 2.0 * w.alpha                 # psi' = 1, psi'' = 0
        expect = (4.0 * w.phi_xx * (xi ** 2 + px ** 2)
                  + 4.0 * px * w.phi_tx(t) + phi_tt)
        assert float(bracket_at(pt, w, p).total) == pytest.approx(
            expect, rel=1e-12)


def test_dual_time_variable_cancels():
    # the dual time variable enters b~ = tau + b only through a unit-slope
    # shift: differenced in all four variables, the bracket of a~ and b~
    # is the same at tau = 0 and tau = 5.5, and it is the closed form
    kept, off = 0, []
    for pt, w, p in random_points(20, seed=71):
        if bracket_singular(pt, w, p):
            continue
        kept += 1
        total = float(bracket_at(pt, w, p).total)
        a_tilde, b_tilde = tilde_symbols(w, p)
        at_zero = phase_bracket_fd(pt, w, a_tilde, b_tilde)
        at_tau = phase_bracket_fd(pt._replace(tau=5.5), w, a_tilde, b_tilde)
        assert at_tau == pytest.approx(at_zero, rel=1e-10)
        assert at_zero == pytest.approx(total, rel=1e-6)
        assert at_tau == pytest.approx(total, rel=1e-6)
        # negative control: b~ = 2 tau + b doubles the -a~_t pair
        doubled = phase_bracket_fd(
            pt._replace(tau=5.5), w, a_tilde,
            lambda x, t, xi, tau: tau + b_tilde(x, t, xi, tau))
        off.append(abs(doubled - total) / abs(total))
    assert kept == 20
    assert max(off) > 1.0, max(off)


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


def test_positivity_failing_gate_fails_the_report():
    # a weight under the steepness floor is still swept: the gate failure
    # is a measured failure next to the ratio, not an exception
    w = QuadraticWeight.decaying(1.0, 1.0)
    rep = positivity_sweep(w, OperatorParams(0.75, 0.0))
    assert not rep.passed
    assert rep.measured["gate_ok"] is False
    assert rep.measured["violation"] == "inf"
    assert rep.measured["gate_message"].startswith(
        "weight steepness 0.75 is under the calibrated floor 10.7273")
    assert math.isfinite(rep.measured["ratio_min"])


def test_positivity_falsification_witness():
    """An oscillating profile with negative curvature phases drives the
    parabolic bracket negative; the sweep reports the witness point."""
    w = QuadraticWeight.oscillating(2.0, 1.0, rate=3.0)
    rep = positivity_sweep(w, OperatorParams(0.75, 0.0),
                           constants=(1.9685, 1.0))
    assert not rep.passed
    assert not rep.measured["gate_ok"]
    assert rep.measured["ratio_min"] < 0.0
    assert rep.witness is not None
    assert rep.witness["ratio"] == pytest.approx(rep.measured["ratio_min"])


@pytest.mark.parametrize("profile, m_ratio", [
    ("decaying", 0.0), ("decaying", 1.0), ("oscillating", 0.0)])
def test_positivity_witness_ratio_is_the_shared_bracket(profile, m_ratio):
    """One bracket: the shared bracket at the sweep's witness (sigma, t, xi)
    over the envelope is the sweep's ratio_min, bit for bit."""
    w = profile_weight(profile, 30.0)
    p = OperatorParams(0.75, m_ratio * 2.0 * w.alpha / w.R)
    rep = positivity_sweep(w, p, constants=(0.0, 0.0))
    wit = rep.witness
    xi = np.array([wit["xi"]])
    total = parabolic_bracket(w, p, np.array([wit["sigma"]]),
                              wit["t"], xi).total
    s = p.s
    envelope = (s * s * (w.alpha / w.R ** 2)
                * (xi * xi + 4.0 * w.alpha ** 2 / w.R ** 2) ** (2.0 * s - 1.0))
    assert float((total / envelope)[0]) == rep.measured["ratio_min"]


def test_positivity_requires_interior_exponent():
    with pytest.raises(PreconditionError):
        positivity_sweep(W_STEEP, OperatorParams(0.5, 0.0),
                         constants=(1.9685, 1.0))
    with pytest.raises(PreconditionError):
        positivity_sweep(W_STEEP, OperatorParams(1.0, 0.0),
                         constants=(1.9685, 1.0))


def final_minima(w, p, xi_mag, t_grid, sigma_nodes):
    """The positivity sweep's (ratio_min, witness, margins, singular_count,
    nonfinite_count) after its last block, on the given grids."""
    *_, last = symbols._sweep_minima(w, p, xi_mag, t_grid, sigma_nodes)
    return last


def test_positivity_argmin_stable_under_refinement():
    wit = []
    for tn, sn, xn in ((11, 17, 200), (21, 33, 400), (41, 65, 800)):
        wit.append(final_minima(W_STEEP, P_34,
                                default_xi_grid(W_STEEP, xn),
                                np.linspace(0.0, 2.0, tn), sn)[1])

    def dist(a, b):
        return (abs(a["sigma"] - b["sigma"]) + abs(a["t"] - b["t"])
                + abs(math.log10(abs(a["xi"])) - math.log10(abs(b["xi"]))))

    d01 = dist(wit[0], wit[1])
    d12 = dist(wit[1], wit[2])
    assert d12 <= d01 + 1e-12
    assert d12 <= 0.05


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_bitwise_even(at_xi, at_minus_xi):
    np.testing.assert_array_equal(_bits(at_xi), _bits(at_minus_xi))


@pytest.mark.parametrize("profile", ["decaying", "oscillating"])
@pytest.mark.parametrize("branch", [1.0, -1.0])
@pytest.mark.parametrize("m_ratio", [0.0, 1.0])
@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_sweep_terms_are_bitwise_even_in_xi(s, m_ratio, branch, profile):
    """The half-grid positivity sweep rests on every swept term taking the
    same bits at xi and -xi (and sin(s theta) being exactly negated)."""
    w = profile_weight(profile, 30.0)
    m = m_ratio * 2.0 * w.alpha / w.R
    sigma = branch * np.linspace(1.0, 4.0, 33)[:, None]
    px = 2.0 * (w.alpha / w.R) * sigma
    xi = default_xi_grid(w, 120)[None, :]
    for t in (0.0, 0.35, 1.3):
        ptx = float(w.phi_tx(t))
        pos = _symbol_core(xi, px, m, s)
        neg = _symbol_core(-xi, px, m, s)
        for field in ("rho2", "cos_s", "grad_scale"):
            assert_bitwise_even(getattr(pos, field), getattr(neg, field))
        np.testing.assert_array_equal(_bits(pos.sin_s), _bits(-neg.sin_s))
        for field in ("local", "xp"):
            assert_bitwise_even(getattr(pos, field), getattr(neg, field))
        assert_bitwise_even(_symbol_b_xi(pos), _symbol_b_xi(neg))
        # b_xi alone holds the bits of the (a_xi, b_xi) pair's b_xi
        assert_bitwise_even(_symbol_b_xi(pos), _symbol_xi_grad(pos)[1])
        assert_bitwise_even(_bracket_ab(pos, w.phi_xx),
                            _bracket_ab(neg, w.phi_xx))
        for piece_pos, piece_neg in zip(_mixed_pieces(pos, ptx),
                                        _mixed_pieces(neg, ptx)):
            assert_bitwise_even(piece_pos, piece_neg)
        # negative control: a_xi is odd in xi, and the assertion sees it
        with pytest.raises(AssertionError):
            assert_bitwise_even(_symbol_xi_grad(pos)[0],
                                _symbol_xi_grad(neg)[0])


def test_positivity_sweep_evaluates_the_half_grid(monkeypatch):
    widths = []
    real = symbols._symbol_core

    def recording(xi, px, m, s):
        widths.append(np.shape(xi)[-1])
        return real(xi, px, m, s)

    monkeypatch.setattr(symbols, "_symbol_core", recording)
    grid = default_xi_grid(W_STEEP, 60)
    final_minima(W_STEEP, P_34, grid, np.linspace(0.0, 2.0, 5), 9)
    assert widths and set(widths) == {len(grid)}


def sweep_and_loop(kind, alpha, m_ratio):
    """The final (ratio_min, witness, margins, singular_points,
    nonfinite_points) of the sweep and of the loop oracle, on the default
    grids, or on the grid with 6 singular points for kind "singular"."""
    profile = "oscillating" if kind == "oscillating" else "decaying"
    w = profile_weight(profile, alpha)
    p = OperatorParams(0.75, m_ratio * 2.0 * w.alpha / w.R)
    if kind == "singular":
        grids = ((w.alpha / w.R) * np.array([1e-9, 1e-2, 1.0]),
                 np.array([0.5, 1.0, 2.0]), 5)
        *minima, singular, nonfinite = final_minima(w, p, *grids)
        return ((*minima, int(singular), int(nonfinite)),
                loop_sweep_minima(w, p, *grids))
    rep = positivity_sweep(w, p, constants=(0.0, 0.0))
    m = rep.measured
    loop = loop_sweep_minima(w, p, default_xi_grid(w), symbols.SWEEP_TIMES,
                             symbols.SWEEP_SIGMA_NODES)
    return (m["ratio_min"], rep.witness, m["margins"], m["singular_points"],
            m["nonfinite_points"]), loop


# the bisection's probes and the ends of its steepness grid at both mass
# ratios, the masked path and an oscillating weight
@pytest.mark.parametrize("kind, alpha, m_ratio", [
    ("grid", float(np.geomspace(0.5, 400.0, 40)[i]), mr)
    for mr in (0.0, 1.0) for i in (0, 20, 25, 26, 27, 28, 30, 39)] + [
    ("singular", 30.0, 1.0), ("oscillating", 30.0, 0.0)],
    ids=lambda v: f"{v:g}" if isinstance(v, float) else v)
def test_positivity_sweep_matches_the_loop_oracle_bit_for_bit(kind, alpha,
                                                              m_ratio):
    # the shared sums, b_xi alone and the in-place, masked minima give the
    # measured values and the witness of the term-by-term loop; repr
    # tells every bit apart
    new, loop = sweep_and_loop(kind, alpha, m_ratio)
    assert repr(new) == repr(loop)
    assert (new[3] == 6) is (kind == "singular")


def test_loop_oracle_comparison_sees_one_ulp(monkeypatch):
    # negative control: dividing the two sides of a margin apart,
    # tenth/env - |term|/env, moves its last bits, and the comparison
    # fails
    monkeypatch.setattr(oracles, "_loop_margin",
                        lambda tenth, term, env:
                        tenth / env - np.abs(term) / env)
    new, loop = sweep_and_loop("grid", float(np.geomspace(0.5, 400.0, 40)[27]),
                               0.0)
    assert repr(new) != repr(loop)


def test_positivity_counts_singular_points_over_the_signed_grid():
    # at m = 2 alpha/R the modulus vanishes at sigma = 1, xi -> 0; the
    # scalar flag, applied at every signed grid point, is the reference
    w = QuadraticWeight.decaying(30.0, 1.0)
    p = OperatorParams(0.75, 2.0 * w.alpha / w.R)
    grid = (w.alpha / w.R) * np.array([1e-9, 1e-2, 1.0])
    t_grid = np.array([0.5, 1.0, 2.0])
    singular_count = final_minima(w, p, grid, t_grid, 5)[3]
    want = 0
    for t in t_grid:
        psi = float(w.psi_at(t))
        for lo, hi in symbols._sigma_branches(psi):
            for sig in np.linspace(lo, hi, 5):
                for xi in np.concatenate([-grid, grid]):
                    pt = SymbolPoint(w.R * (sig - psi), float(xi), float(t))
                    want += bracket_singular(pt, w, p)
    assert want == 6
    assert singular_count == want


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

    def spike(x):
        # all the mass on the grid node at x (the nodes are -4 + j/32)
        g = GridFunction(8.0, 256, np.zeros(256))
        g.values[g.x == x] = 1.0
        assert np.sum(g.values) == 1.0
        return g

    assert leak_fraction(w, spike(-1.0), 0.0) == 0.0      # offset 2
    assert leak_fraction(w, spike(-2.5), 0.0) == 1.0      # offset 0.5
    g = GridFunction(8.0, 256, np.ones(256))
    assert 0.0 < leak_fraction(w, g, 0.0) < 1.0
    zero = GridFunction(8.0, 256, np.zeros(256))
    assert leak_fraction(w, zero, 0.0) == 0.0


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
    # the envelope decays with each order, so order 8 stays near or below
    # order 7
    w = QuadraticWeight.constant(80.0, 1.0, 3.0)
    order_max = garding_order_max(w, OperatorParams(0.75, 0.0), True)
    assert order_max["8"] / order_max["7"] <= 1.0


def test_garding_evaluates_each_stencil_point_once(monkeypatch):
    # 575 distinct (depth, time, frequency) offset triples over orders
    # 4..7, evaluated in chunks: one bracket call per chunk of triples
    calls = []
    real = symbols.parabolic_bracket

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symbols, "parabolic_bracket", counting)
    w = QuadraticWeight.decaying(80.0, 1.0)
    chunk = symbols._GARDING_CHUNK_TRIPLES
    garding_hypothesis_check(w, P_34, constants=1.0)
    assert 0 < len(calls) <= math.ceil(575 / chunk)
    # every chunk but the last is full, and no triple repeats
    shapes = [np.shape(args[2]) for args in calls]
    assert all(sh == (chunk, 225) for sh in shapes[:-1])
    assert sum(sh[0] for sh in shapes) == 575


def oracle_orders_4_to_7(w, p, probe_order_8):
    """The per-triple oracle's order_max over orders 4..7.  With order 8
    assembled too, the orders the package measures must keep their bits,
    so the oracle's order 8 comes from the package's assembly."""
    order_max = garding_order_max(w, p, probe_order_8)
    order_max.pop("8", None)
    return order_max


@pytest.mark.parametrize("probe", [False, True])
def test_garding_chunked_table_matches_per_triple_oracle(probe):
    w = QuadraticWeight.decaying(80.0, 1.0)
    rep = garding_hypothesis_check(w, P_34, constants=1.0)
    # repr tells every bit apart, the sign of a zero too
    assert (repr(rep.measured["order_max"])
            == repr(oracle_orders_4_to_7(w, P_34, probe)))


@pytest.mark.parametrize("m_ratio, probe", [(0.0, False), (1.0, False),
                                            (0.0, True)])
def test_garding_gathers_match_the_loop_on_steady_profiles(m_ratio, probe):
    # the calibration's steady profiles: there a stencil sum taken in
    # another order moves the last bits of order_max
    w = QuadraticWeight.constant(40.0, 1.0, 3.0)
    p = OperatorParams(0.75, m_ratio * 2.0 * w.alpha / w.R)
    rep = garding_hypothesis_check(w, p, constants=1.0)
    assert (repr(rep.measured["order_max"])
            == repr(oracle_orders_4_to_7(w, p, probe)))


def test_garding_requires_interior_exponent():
    w = QuadraticWeight.constant(80.0, 1.0, 3.0)
    with pytest.raises(PreconditionError):
        garding_hypothesis_check(w, OperatorParams(0.5, 0.0), constants=1.0)


def test_garding_bracket_matches_parabolic_bracket():
    # the bracket Garding differences, taken at annulus offsets, carries
    # the mixed term 2 phi_tx b_xi, so it must equal the complex-arithmetic
    # bracket at the physical point off R = 1 as well
    ts = np.array([0.0, 0.5, 0.5, 1.5])
    sigmas = np.array([1.2, 2.5, 3.9, 2.0])
    for R in (1.0, 2.0):
        w = QuadraticWeight.decaying(30.0, R)
        xis = (2.0 * w.alpha / w.R) * np.array([0.3, 7.0 * R / 60.0, -1.5,
                                                4.0])
        got = parabolic_bracket(w, P_34, sigmas, ts, xis).total
        for k, (t, sig, xi) in enumerate(zip(ts, sigmas, xis)):
            x = R * (sig - float(w.psi_at(t)))
            want = oracle_parabolic_bracket(x, t, xi, w, P_34)
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


def test_s1_commutator_matches_closed_form():
    assert symbols.s1_commutator_check(256, 1e-8).measured["rel_error"] < 1e-8


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
        core = np.exp(-((grid_points(L, n) / 0.35) ** 2))
        for f in (core, rng.standard_normal(n) * core):
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
    # no operand has a left side to bound, so nothing limits the constants
    assert rep.measured["headroom"] == "inf"


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
    fam = list(parabolic_test_family(wp, 8.0, 512, times, 1,
                                     np.random.default_rng(0)))
    vals = fam[0].values.copy()
    vals[0] = vals[24]
    with pytest.raises(SupportError):
        carleman_quadratic_check([SpaceTimeFunction(8.0, 512, times, vals)],
                                 wp, OperatorParams(0.75, 0.0), "parabolic",
                                 constants=con)


QUAD_CON = {"c1": 0.0, "c2": 0.0, "C_weight": 1.0}


def quadratic_operands(mode, s, m_ratio):
    """(weight, operator, five operands) at alpha = 2 on the 512-node box."""
    alpha = 2.0
    p = OperatorParams(s, m_ratio * 2.0 * alpha)
    rng = np.random.default_rng(20260822)
    if mode == "elliptic":
        w = QuadraticWeight.constant(alpha, 1.0, 3.0)
        return w, p, list(elliptic_test_family(w, 8.0, 512, 5, rng))
    w = QuadraticWeight.decaying(alpha, 1.0)
    return w, p, list(parabolic_test_family(
        w, 8.0, 512, np.linspace(0.0, 1.0, 48), 5, rng))


@pytest.mark.parametrize("mode,s", [("elliptic", 0.5), ("elliptic", 0.75),
                                    ("parabolic", 0.75)])
@pytest.mark.parametrize("m_ratio", [0.0, 1.0])
def test_quadratic_operand_terms_match_slice_oracle(mode, s, m_ratio):
    # the batched blocks give every operand's terms bit for bit as the
    # slice-by-slice loop does
    w, p, fs = quadratic_operands(mode, s, m_ratio)
    # the check reads its operands once, as they come, and counts them
    rep = carleman_quadratic_check(iter(fs), w, p, mode, constants=QUAD_CON)
    assert rep.measured["count"] == len(fs)
    assert symbols._operand_terms(iter(fs), w, p, mode) == [
        operand_terms(i, f, w, p, mode) for i, f in enumerate(fs)]


@pytest.mark.parametrize("mode,s", [("elliptic", 0.5), ("elliptic", 0.75),
                                    ("parabolic", 0.75)])
@pytest.mark.parametrize("m_ratio", [0.0, 1.0])
def test_quadratic_headroom_is_the_least_operand_ratio(mode, s, m_ratio):
    # the reported headroom is the per-operand oracle's minimum, bit for
    # bit, whatever constants the check runs with
    w, p, fs = quadratic_operands(mode, s, m_ratio)
    want = quadratic_headroom(fs, w, p, mode)
    assert 0.0 < want < math.inf
    for con in (QUAD_CON, {"c1": 0.3, "c2": 7.0, "C_weight": 1.0}):
        rep = carleman_quadratic_check(iter(fs), w, p, mode, constants=con)
        assert rep.measured["headroom"] == want


def test_quadratic_calibration_halves_the_headroom(monkeypatch):
    entry = calibrate_quadratic("elliptic", 0.75, 1.0)
    corpus = entry["corpus"]
    w, p, fs = symbols.quadratic_corpus(
        "elliptic", 0.75, 1.0, corpus["alpha"], corpus["count"],
        np.random.default_rng(corpus["seed"]), corpus["n"])
    rep = carleman_quadratic_check(fs, w, p, "elliptic", constants=QUAD_CON)
    assert entry["headroom"] == rep.measured["headroom"]
    assert entry["c1"] == entry["c2"] == min(1.0, entry["headroom"] / 2)
    # below the cap the constant is half the reported headroom, and an
    # infinite headroom (reported as "inf") caps it at 1
    real = symbols.carleman_quadratic_check
    for reported, c_joint in ((0.75, 0.375), ("inf", 1.0)):
        def reporting(*args, _reported=reported, **kwargs):
            rep = real(*args, **kwargs)
            rep.measured["headroom"] = _reported
            return rep

        monkeypatch.setattr(symbols, "carleman_quadratic_check", reporting)
        entry = calibrate_quadratic("elliptic", 0.75, 1.0)
        assert entry["c1"] == entry["c2"] == c_joint
        assert entry["headroom"] == float(reported)


def _first_failure(call):
    with pytest.raises(FracrelError) as exc:
        call()
    return type(exc.value), str(exc.value)


def _rising_weight(alpha):
    # psi(t) = 3t lifts max phi over the box with time, so the e^phi cap
    # is first passed in the middle of the window
    return QuadraticWeight(alpha, 1.0, psi=lambda t: 3.0 * np.asarray(t),
                           psi_d1=lambda t: 3.0 + 0.0 * np.asarray(t),
                           psi_d2=lambda t: 0.0 * np.asarray(t),
                           psi_d1_sup=3.0, psi_d2_sup=0.0)


@pytest.mark.parametrize("first_row,expect", [
    (10, SupportError),          # the leak comes before the capped slice
    (21, SupportError),          # leak and cap on the same slice
    (25, OverflowGuardError),    # the leak comes after the capped slice
])
def test_quadratic_guards_raise_the_first_failing_slice(first_row, expect):
    w = _rising_weight(25.0)
    p = OperatorParams(0.75, 0.0)
    times = np.linspace(0.0, 1.0, 48)
    x = -4.0 + (8.0 / 512) * np.arange(512)
    phi_top = np.max(w.phi(times[:, None], x), axis=1)
    assert np.flatnonzero(phi_top > symbols.PHI_CAP)[0] == 21
    vals = np.zeros((48, 512))
    vals[first_row:44] = np.exp(-x ** 2)   # straddles |x/R + psi| = 1
    f = SpaceTimeFunction(8.0, 512, times, vals)
    got = _first_failure(lambda: carleman_quadratic_check(
        [f], w, p, "parabolic", constants=QUAD_CON))
    want = _first_failure(lambda: operand_terms(0, f, w, p, "parabolic"))
    assert got == want
    assert got[0] is expect
    if expect is SupportError:
        assert f"at t={times[first_row]:g}" in got[1]
    else:
        assert f"{phi_top[21]:.4g}" in got[1]


def test_quadratic_operand_guards_keep_their_order():
    # operand-level errors come before any slice guard, operand by operand
    w = _rising_weight(25.0)
    p = OperatorParams(0.75, 0.0)
    times = np.linspace(0.0, 1.0, 48)
    x = -4.0 + (8.0 / 512) * np.arange(512)
    leaky = np.zeros((48, 512))
    leaky[10:44] = np.exp(-x ** 2)
    at_ends = leaky.copy()
    at_ends[0] = at_ends[20]
    uneven = np.concatenate([times[:6], times[7:]])
    cases = [
        [SpaceTimeFunction(8.0, 512, times[:8], leaky[10:18])],
        [SpaceTimeFunction(8.0, 512, uneven, leaky[1:])],
        [SpaceTimeFunction(8.0, 512, times, at_ends)],
        [SpaceTimeFunction(8.0, 512, times, leaky), GridFunction(8.0, 512, x)],
        [SpaceTimeFunction(8.0, 512, times, np.zeros((48, 512))),
         SpaceTimeFunction(8.0, 512, times, leaky)],
    ]
    kinds = []
    for fs in cases:
        got = _first_failure(lambda: carleman_quadratic_check(
            fs, w, p, "parabolic", constants=QUAD_CON))
        want = _first_failure(lambda: [operand_terms(i, f, w, p, "parabolic")
                                       for i, f in enumerate(fs)])
        assert got == want
        kinds.append(got[0])
    assert kinds == [ConfigError, ConfigError, SupportError, SupportError,
                     OverflowGuardError]


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
    coarse = quadratic_constants("elliptic", 0.75, 0.0)
    fine = refined_quadratic_constant(coarse, 1024)
    assert 0.5 <= fine / coarse["c1"] <= 2.0


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


def spectral_apply_faults(sources: dict) -> list:
    """The numpy.linalg routines other than norm that the modules of
    ``sources`` (name -> text) call, and the matrix products in
    appendix_conjugation_check: the operators the run applies go through
    their known spectra, so no LAPACK eigensolver or matrix-matrix BLAS
    call is on its path."""
    faults = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"
                    or isinstance(node.value, ast.Name)
                    and node.value.id == "linalg"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "numpy.linalg":
                names = [alias.name for alias in node.names]
            else:
                continue
            faults += [f"{module} calls numpy.linalg.{name}"
                       for name in names if name != "norm"]
    fn = next(node for node in ast.walk(ast.parse(sources["symbols"]))
              if isinstance(node, ast.FunctionDef)
              and node.name == "appendix_conjugation_check")
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            faults.append("appendix_conjugation_check uses @")
        elif isinstance(node, ast.Attribute) and node.attr in ("matmul",
                                                               "dot"):
            faults.append(f"appendix_conjugation_check uses {node.attr}")
    return faults


def _package_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(Path(symbols.__file__).parent.glob("*.py"))}


def test_spectral_applies_call_no_eigensolver_and_no_matrix_product():
    assert spectral_apply_faults(_package_sources()) == []


@pytest.mark.parametrize("line, fault", [
    ("vals, V = np.linalg.eigh(A)", "symbols calls numpy.linalg.eigh"),
    ("rhs = EV @ EV_inv", "appendix_conjugation_check uses @"),
    ("rhs = np.dot(EV, EV_inv)", "appendix_conjugation_check uses dot")])
def test_negative_control_an_eigensolver_or_product_fails(line, fault):
    sources = _package_sources()
    anchor = "    diff = float(np.linalg.norm(lhs - rhs)"
    assert sources["symbols"].count(anchor) == 1
    sources["symbols"] = sources["symbols"].replace(
        anchor, f"    {line}\n{anchor}")
    assert spectral_apply_faults(sources) == [fault]


# ------------------------------------------------------------- tables

def test_symbol_tables_recalibrate_to_the_frozen_constants():
    frozen = calibration_tables()
    garding = [e for e in frozen["garding"]
               if e["s"] == 0.75 and e["m_ratio"] == 0.0]
    assert ([calibrate_positivity(0.75, mr) for mr in (0.0, 1.0)]
            == frozen["positivity"])
    assert [calibrate_garding(0.75, 0.0)] == garding
    quadratic = [calibrate_quadratic(mode, s, mr)
                 for mode, svals in (("elliptic", (0.5, 0.75)),
                                     ("parabolic", (0.75,)))
                 for s in svals for mr in (0.0, 1.0)]
    assert quadratic == frozen["quadratic"]


def test_positivity_calibration_scans_the_steepness_grid_upward(
        monkeypatch):
    # the scan probes the 40-point grid from its shallowest point up and
    # stops at the first that passes, which is the floor: grid[0..27]
    probes = []
    real = symbols._ladder_holds

    def counting(w, p):
        holds = real(w, p)
        probes.append((w.alpha, holds))
        return holds

    monkeypatch.setattr(symbols, "_ladder_holds", counting)
    floor = calibrate_positivity(0.75, 1.0)["alpha_floor"]
    grid = np.geomspace(0.5, 400.0, 40)
    assert [alpha for alpha, _ in probes] == grid[:28].tolist()
    assert [holds for _, holds in probes] == [False] * 27 + [True]
    assert floor == grid[27]


def test_positivity_calibration_refuses_an_operating_gate_failure(
        monkeypatch):
    # the operating sweeps no longer raise on a failed gate, so the
    # calibration checks each one's gate_ok itself
    def failing(w, p, c_hyp):
        raise AdmissibilityError("probe gate failure")

    monkeypatch.setattr(symbols, "require_admissible_weight", failing)
    with pytest.raises(CalibrationError, match="^an operating steepness "
                       "fails the gate: probe gate failure$"):
        calibrate_positivity(0.75, 1.0)


def test_positivity_calibration_without_a_passing_steepness(monkeypatch):
    probes = []

    def failing(w, p):
        probes.append(w.alpha)
        return False

    monkeypatch.setattr(symbols, "_ladder_holds", failing)
    with pytest.raises(CalibrationError,
                       match="^no alpha in the scan satisfied the ladder$"):
        calibrate_positivity(0.75, 1.0)
    # the scan probes every grid point once, ascending, and goes no further
    grid = np.geomspace(0.5, 400.0, 40)
    assert probes == grid.tolist()


@pytest.mark.parametrize("m_ratio", [0.0, 1.0])
def test_early_stopping_probe_is_the_full_sweep_verdict(m_ratio):
    # the upward scan probes indices 0 to 27 on both frozen tables and
    # stops at 27, the first that passes; 0 and 39 are the ends of the
    # grid, and 28 and 30 lie past the floor, where the scan never probes
    grid = np.geomspace(0.5, 400.0, 40)
    indices = [0, 20, 25, 26, 27, 28, 30, 39]
    verdicts = []
    for i in indices:
        w = QuadraticWeight.decaying(float(grid[i]), symbols.CALIBRATION_R)
        p = OperatorParams(0.75, m_ratio * 2.0 * w.alpha / w.R)
        rep = positivity_sweep(w, p, constants=(0.0, 0.0))
        holds = (rep.measured["ratio_min"] > 0.0
                 and min(rep.measured["margins"].values())
                 >= -symbols._DOMINANCE_SLACK)
        assert symbols._ladder_holds(w, p) is holds, i
        verdicts.append(holds)
    # 27 failures, then passes
    assert verdicts == [i >= 27 for i in indices]


def test_positivity_calibration_counts_its_blocks(monkeypatch):
    # 21 blocks per full sweep: the 27 failing probes stop after their
    # first block, the 1 passing probe and the 3 operating sweeps do not
    counts = {"parabolic_bracket": 0, "positivity_sweep": 0}
    for name in counts:
        real = getattr(symbols, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(symbols, name, counting)
    calibrate_positivity(0.75, 1.0)
    assert counts == {"parabolic_bracket": 111, "positivity_sweep": 3}


def test_cached_stencils_are_read_only():
    offsets, weights = symbols._fd_stencil(3)
    assert symbols._fd_stencil(3)[0] is offsets
    for array in (offsets, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    triples, gathers = symbols._garding_triples()
    assert symbols._garding_triples()[1] is gathers
    with pytest.raises(TypeError):
        triples[0] = (0.0, 0.0, 0.0)
    for _, index in gathers:
        with pytest.raises(ValueError):
            index[0, 0] = 0


def test_calibration_loaders():
    c_hyp, c_min = positivity_constants(0.75, 0.0)
    assert c_hyp > 0 and c_min > 0
    entry = quadratic_constants("parabolic", 0.75, 0.0)
    assert entry["headroom"] > 1e6
    with pytest.raises(CalibrationError):
        positivity_constants(0.6, 0.0)
    with pytest.raises(CalibrationError):
        quadratic_constants("parabolic", 0.5, 0.0)
