import math

import numpy as np
import pytest

from fracrel.errors import ConfigError, PreconditionError, QuadratureError
from fracrel.grid import (
    GridFunction,
    band_limited_noise,
    fourier_mode,
    gaussian,
    smooth_window,
)
from fracrel import operator as op

L, N = 40.0, 4096


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_three_route_equivalence(s, m):
    """Spectral, singular-integral and subordination applications agree on
    a Gaussian to 1e-3 relative over the central half box."""
    f = gaussian(L, N, sigma=1.0)
    p = op.OperatorParams(s=s, m=m)
    a = op.apply_spectral(f, p).values
    b = op.apply_singular_integral(f, p).values
    c = op.apply_subordination(f, p).values
    mid = np.abs(f.x) <= L / 4
    ref = np.max(np.abs(a[mid]))
    assert np.max(np.abs(b[mid] - a[mid])) / ref < 1e-3
    assert np.max(np.abs(c[mid] - a[mid])) / ref < 1e-6


def test_spectral_on_pure_mode_exact():
    # single Fourier mode: the multiplier acts as a scalar
    for k, kind in [(3, "cos"), (17, "sin")]:
        f = fourier_mode(L, N, k, kind=kind)
        p = op.OperatorParams(s=0.6, m=1.5)
        xi = 2.0 * math.pi * k / L
        want = (xi * xi + p.m * p.m) ** p.s * f.values
        got = op.apply_spectral(f, p).values
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_singular_on_constant_returns_mass_power():
    one = GridFunction(L, N, np.ones(N))
    p = op.OperatorParams(s=0.5, m=2.0)
    got = op.apply_singular_integral(one, p).values
    np.testing.assert_allclose(got, p.m ** (2 * p.s), rtol=0, atol=1e-12)


def test_singular_on_low_mode():
    f = fourier_mode(L, N, 2, kind="cos")
    p = op.OperatorParams(s=0.4, m=1.0)
    xi = 4.0 * math.pi / L
    want = (xi * xi + 1.0) ** p.s * f.values
    got = op.apply_singular_integral(f, p).values
    assert np.max(np.abs(got - want)) < 2e-4


def test_s_equal_one_is_local():
    f = gaussian(L, N, sigma=1.2)
    p = op.OperatorParams(s=1.0, m=1.3)
    got = op.apply_spectral(f, p).values
    spec_d2 = np.fft.irfft(
        -(op.frequencies(L, N) ** 2) * np.fft.rfft(f.values), N)
    want = -spec_d2 + p.m * p.m * f.values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_apply_singular_at_matches_fft_route():
    f = gaussian(L, N, sigma=1.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    idx = np.arange(1500, 2600)
    direct = op.apply_singular_at(f, p, idx)
    full = op.apply_singular_integral(f, p).values[idx]
    assert np.max(np.abs(direct - full)) < 1e-11


def test_subordination_multiplier_matches_power():
    gam = np.array([0.25, 1.0, 7.3, 1.4e5])
    for s in (0.1, 0.45, 0.9):
        got = op.subordination_multiplier(gam, s,
                                          op.DEFAULT_SUBORDINATION_QUAD)
        np.testing.assert_allclose(got, gam**s, rtol=5e-10)
    # frozen spot value (mpmath): 7.3^0.45
    got = op.subordination_multiplier(np.array([7.3]), 0.45,
                                      op.DEFAULT_SUBORDINATION_QUAD)
    assert got[0] == pytest.approx(2.4462187296425368975, rel=1e-9)


def test_subordination_zero_mode_massless():
    f = fourier_mode(L, N, 1, kind="cos")
    shifted = f.with_values(f.values + 5.0)
    p = op.OperatorParams(s=0.5, m=0.0)
    got = op.apply_subordination(shifted, p).values
    want = op.apply_spectral(f, p).values  # constant must be annihilated
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_subordination_node_cap_raises():
    q = op.SubordinationQuad(rel_tol=1e-10, initial_spacing=0.002,
                             max_refinements=2, max_nodes=1024)
    with pytest.raises(QuadratureError):
        op.subordination_multiplier(np.array([1.0, 1e8]), 0.5, q)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_carre_du_champ_nonpositive_on_diagonal(s):
    rng = np.random.default_rng(1234 + int(100 * s))
    p = op.OperatorParams(s=s, m=1.0)
    cases = [
        gaussian(L, N, sigma=1.5),
        gaussian(L, N, sigma=0.7, center=-3.0),
        fourier_mode(L, N, 5, kind="cos"),
        band_limited_noise(L, N, k_max=60, rng=rng),
        band_limited_noise(L, N, k_max=200, rng=rng),
    ]
    for f in cases:
        h = op.carre_du_champ(f, f, p).values
        assert h.max() <= 1e-10 * np.max(np.abs(h))


def test_carre_du_champ_matches_definition():
    f = gaussian(L, N, sigma=1.5)
    g = gaussian(L, N, sigma=0.8, center=2.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    got = op.carre_du_champ(f, g, p).values
    fg = f.with_values(f.values * g.values)
    want = (op.apply_singular_integral(fg, p).values
            - f.values * op.apply_singular_integral(g, p).values
            - g.values * op.apply_singular_integral(f, p).values)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-6


def test_carre_du_champ_local_limit():
    """At s = 1 the form collapses to -2 f'g' - m^2 fg; check it through
    the spectral route on a band-limited product."""
    f = fourier_mode(L, N, 4, kind="cos")
    p = op.OperatorParams(s=1.0, m=1.2)
    lf = op.apply_spectral(f, p).values
    f2 = f.with_values(f.values**2)
    lf2 = op.apply_spectral(f2, p).values
    h = lf2 - 2.0 * f.values * lf
    xi = 8.0 * math.pi / L
    fprime = -xi * np.sin(xi * f.x)
    want = -2.0 * fprime**2 - p.m**2 * f.values**2
    np.testing.assert_allclose(h, want, atol=1e-10)


def test_carre_requires_shared_grid():
    f = gaussian(L, N, sigma=1.0)
    g = gaussian(L, 2 * N, sigma=1.0)
    with pytest.raises(PreconditionError):
        op.carre_du_champ(f, g, op.OperatorParams(s=0.5, m=1.0))


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_bessel_identity_interior(lam, s):
    rep = op.bessel_identity_check(lam, 1, s)
    assert rep.passed, f"violation {rep.measured['violation']:.2e}"
    assert rep.measured["violation"] < 1e-5


def test_bessel_identity_edge():
    rep = op.bessel_identity_check(1.0, 1, 0.5, tolerance=1e-4)
    assert rep.passed
    assert rep.measured["lhs"] == pytest.approx(-1.0, abs=1e-4)


@pytest.mark.parametrize("lam,N_dim,s", [
    (0.5, 2, 0.5), (0.9, 2, 0.75), (1.0, 2, 0.75),
    (0.5, 3, 0.5), (0.9, 3, 0.3),
])
def test_bessel_identity_higher_dim(lam, N_dim, s):
    rep = op.bessel_identity_check(lam, N_dim, s)
    assert rep.passed, f"violation {rep.measured['violation']:.2e}"


def test_bessel_identity_preconditions():
    with pytest.raises(PreconditionError):
        op.bessel_identity_check(1.0, 2, 0.3)  # needs N - 2s < 1
    from fracrel.errors import DomainError
    with pytest.raises(DomainError):
        op.bessel_identity_check(1.5, 1, 0.5)
    with pytest.raises(DomainError):
        op.bessel_identity_check(0.5, 4, 0.5)


@pytest.mark.parametrize("s", [0.3, 0.5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_eigenfunction_residual_half_mass(s, sign):
    """lambda = m/2 must reproduce the eigenvalue to 1e-3 in the core."""
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=s, m=1.0)
    rep = op.eigenfunction_residual(sign * 0.5, p, w)
    assert rep.passed
    assert rep.measured["max_rel_residual"] < 1e-3


def test_eigenfunction_residual_near_mass_edge():
    # lambda -> m converges slowly through the kernel tail; the bound is
    # truncation-limited, so only a loose ceiling is asserted
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    rep = op.eigenfunction_residual(0.9, p, w, tolerance=2e-2)
    assert rep.passed


def test_eigenfunction_rejects_super_mass():
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    with pytest.raises(PreconditionError):
        op.eigenfunction_residual(1.0, p, w)


def test_param_validation():
    for bad in ({"s": 0.0, "m": 1.0}, {"s": 1.2, "m": 1.0},
                {"s": 0.5, "m": -1.0}):
        with pytest.raises(ConfigError):
            op.OperatorParams(**bad)
    with pytest.raises(ConfigError):
        op.SingularQuadConfig(far_cutoff=5.0)
    with pytest.raises(ConfigError):
        op.SubordinationQuad(rel_tol=0.5)


def test_singular_needs_positive_mass_and_fractional_power():
    f = gaussian(L, N, sigma=1.0)
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=1.0, m=1.0))
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=0.5, m=0.0))


def test_grid_too_coarse_for_kernel():
    f = gaussian(L, 64, sigma=1.0)
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=0.5, m=8.0))
