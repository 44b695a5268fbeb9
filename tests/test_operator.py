import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from fracrel.errors import ConfigError, PreconditionError, QuadratureError
from fracrel.grid import (
    GridFunction,
    gaussian,
    grid_points,
    smooth_window,
)
from fracrel import operator as op
from fracrel import special
import oracles

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
        f = oracles.fourier_mode(L, N, k, kind=kind)
        p = op.OperatorParams(s=0.6, m=1.5)
        xi = 2.0 * math.pi * k / L
        want = (xi * xi + p.m * p.m) ** p.s * f.values
        got = op.apply_spectral(f, p).values
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_spectral_multiplier_is_cached_and_read_only():
    p = op.OperatorParams(s=0.6, m=1.5)
    mult = op._spectral_multiplier(p, L, N)
    assert op._spectral_multiplier(p, L, N) is mult
    assert np.array_equal(mult, op.symbol(p, op.frequencies(L, N)))
    with pytest.raises(ValueError):
        mult[0] = 0.0
    for i in range(20):
        op._spectral_multiplier(op.OperatorParams(0.6, 1.0 + 0.01 * i), L, N)
    assert op._spectral_multiplier.cache_info().currsize <= 16


def test_singular_on_constant_returns_mass_power():
    one = GridFunction(L, N, np.ones(N))
    p = op.OperatorParams(s=0.5, m=2.0)
    got = op.apply_singular_integral(one, p).values
    np.testing.assert_allclose(got, p.m ** (2 * p.s), rtol=0, atol=1e-12)


def test_singular_on_low_mode():
    f = oracles.fourier_mode(L, N, 2, kind="cos")
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


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_apply_singular_at_matches_fft_route(s, m):
    # at m <= 1 the kernel reaches L/2, where the antipodal cell is one
    # point and must carry its weight once
    f = gaussian(L, N, sigma=1.0)
    p = op.OperatorParams(s=s, m=m)
    idx = np.arange(1500, 2600)
    direct = oracles.apply_singular_at(f, p, idx)
    full = op.apply_singular_integral(f, p).values[idx]
    assert np.max(np.abs(direct - full)) < 1e-12


def test_subordination_multiplier_matches_power():
    gam = np.array([0.25, 1.0, 7.3, 1.4e5])
    for s in (0.1, 0.45, 0.9):
        got = op.subordination_multiplier(gam, s)
        np.testing.assert_allclose(got, gam**s, rtol=5e-10)
    # frozen spot value (mpmath): 7.3^0.45
    got = op.subordination_multiplier(np.array([7.3]), 0.45)
    assert got[0] == pytest.approx(2.4462187296425368975, rel=1e-9)


def test_subordination_zero_mode_massless():
    f = oracles.fourier_mode(L, N, 1, kind="cos")
    shifted = f.with_values(f.values + 5.0)
    p = op.OperatorParams(s=0.5, m=0.0)
    got = op.apply_subordination(shifted, p).values
    want = op.apply_spectral(f, p).values  # constant must be annihilated
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_subordination_node_cap_raises(monkeypatch):
    # the window for gam up to 1e8 needs 318 nodes at the starting spacing;
    # the nested level after them would hold 635, past the lowered cap
    monkeypatch.setattr(op, "SUBORDINATION_MAX_NODES", 512)
    with pytest.raises(QuadratureError):
        op.subordination_multiplier(np.array([1.0, 1e8]), 0.5)


@pytest.fixture
def row_tile_widths(monkeypatch):
    # the node count of every quadrature level, read from its row tiles
    widths = []
    row_tiles = special._row_tiles

    def spy(n_rows, n_cols):
        widths.append(n_cols)
        return row_tiles(n_rows, n_cols)

    monkeypatch.setattr(special, "_row_tiles", spy)
    return widths


def test_subordination_reuses_its_coarse_level(row_tile_widths):
    # nested doubling: the second level of s = 0.7, m = 0.5 evaluates only
    # the 376 new odd nodes between the first level's 377, not 753 afresh
    xi = op.frequencies(L, N)
    op.subordination_multiplier(xi * xi + 0.25, 0.7)
    assert row_tile_widths == [377, 376]


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_subordination_row_tiles_match_the_untiled_oracle(
        s, monkeypatch, row_tile_widths):
    # each mode's row is written and summed as on the whole (modes x nodes)
    # matrix, so the multiplier agrees bit for bit on one mode, on the
    # default grid's 2049 modes, and one row either side of each level's
    # tile size.  Every subset keeps the grid's last mode, so its window
    # and node counts are the full grid's (377 and 376 at s = 0.7, tiles
    # of 173 and 174 rows)
    xi = op.frequencies(L, N)
    gam = xi * xi + 0.25
    op.subordination_multiplier(gam, s)
    tiles = {special._TILE_ELEMS // w for w in row_tile_widths}
    counts = {1, gam.size} | {t + d for t in tiles for d in (-1, 0, 1)}
    for rows in sorted(counts):
        modes = np.append(gam[: rows - 1], gam[-1])
        got = op.subordination_multiplier(modes, s)
        with monkeypatch.context() as m:
            m.setattr(op, "_refined_trapezoid",
                      oracles.refined_trapezoid_untiled)
            want = op.subordination_multiplier(modes, s)
        assert np.array_equal(got, want), rows


SUITE_PAIRS = [(s, m) for s in (0.3, 0.5, 0.7) for m in (0.5, 1.0, 2.0)]


def shuffled_gammas(first_mode=0):
    # the suite grid's xi^2 + m^2 from first_mode on, with zeros, in no order
    xi = op.frequencies(L, N)[first_mode:]
    gam = np.concatenate([xi * xi + 0.25, np.zeros(5)])
    np.random.default_rng(30).shuffle(gam)
    return gam


def mutated_multiplier(old, new):
    # subordination_multiplier with one piece of its source replaced
    text = inspect.getsource(op.subordination_multiplier)
    assert text.count(old) == 1
    scope = dict(vars(op))
    exec(text.replace(old, new), scope)
    return scope["subordination_multiplier"]


def test_expm1_is_minus_one_past_the_saturation_threshold():
    # the filled tail is exact: every x from the threshold down to -1e300
    # rounds to -1 (e^-40 < 2^-54)
    top = op._EXPM1_SATURATED
    x = np.concatenate([np.linspace(top, 2.0 * top, 400_001),
                        -np.logspace(np.log10(-top), 300.0, 400_001)])
    assert np.all(np.expm1(x) == -1.0)
    assert np.expm1(-30.0) != -1.0


def test_subordination_multiplier_matches_the_dense_oracle():
    # expm1 on every node gives the same bits as the filled tail, on the
    # nine suite pairs and on unsorted input with zeros
    xi = op.frequencies(L, N)
    for s, m in SUITE_PAIRS:
        gam = xi * xi + m * m
        assert np.array_equal(op.subordination_multiplier(gam, s),
                              oracles.subordination_multiplier_dense(gam, s))
    gam = shuffled_gammas()
    got = op.subordination_multiplier(gam, 0.5)
    assert np.array_equal(got, oracles.subordination_multiplier_dense(gam, 0.5))
    assert np.all(got[gam == 0.0] == 0.0)


def test_negative_control_low_saturation_threshold(monkeypatch):
    # at -30 the filled tail takes entries whose expm1 is not yet -1
    monkeypatch.setattr(op, "_EXPM1_SATURATED", -30.0)
    xi = op.frequencies(L, N)
    assert not all(np.array_equal(
        op.subordination_multiplier(xi * xi + m * m, s),
        oracles.subordination_multiplier_dense(xi * xi + m * m, s))
        for s, m in SUITE_PAIRS)


def test_negative_control_first_row_as_tile_minimum():
    # on unsorted input the tile's first gam is not its smallest, so the
    # tail it saturates is too long for the tile's other rows; on the upper
    # modes it still converges (on all of them it raises QuadratureError)
    first_row = mutated_multiplier("gpos[rows].min()", "gpos[rows.start]")
    gam = shuffled_gammas(first_mode=1500)
    assert not np.array_equal(
        first_row(gam, 0.5), oracles.subordination_multiplier_dense(gam, 0.5))


def test_kernel_gl_tables_are_leggauss():
    # the packaged literals are numpy's rules bit for bit, and read-only
    for (nodes, weights), order in ((op.KERNEL_GL, 12), (op._FAR_GL, 4)):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable


def test_subordination_memory_is_one_row_tile():
    # the whole (2049 x nodes) matrix and its temporaries peaked at 47 MB
    xi = op.frequencies(L, N)
    gam = xi * xi + 0.25
    tracemalloc.start()
    try:
        op.subordination_multiplier(gam, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MB"


def shifted_gaussian(center, sigma):
    x = grid_points(L, N)
    return GridFunction(L, N, np.exp(-0.5 * ((x - center) / sigma) ** 2))


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_carre_du_champ_nonpositive_on_diagonal(s):
    rng = np.random.default_rng(1234 + int(100 * s))
    p = op.OperatorParams(s=s, m=1.0)
    cases = [
        gaussian(L, N, sigma=1.5),
        shifted_gaussian(-3.0, 0.7),
        oracles.fourier_mode(L, N, 5, kind="cos"),
        oracles.windowed_noise(L, N, k_max=60, rng=rng),
        oracles.windowed_noise(L, N, k_max=200, rng=rng),
    ]
    for f in cases:
        h = oracles.carre_du_champ(f, f, p).values
        assert h.max() <= 1e-10 * np.max(np.abs(h))


def test_carre_du_champ_matches_definition():
    f = gaussian(L, N, sigma=1.5)
    g = shifted_gaussian(2.0, 0.8)
    p = op.OperatorParams(s=0.5, m=1.0)
    got = oracles.carre_du_champ(f, g, p).values
    fg = f.with_values(f.values * g.values)
    want = (op.apply_singular_integral(fg, p).values
            - f.values * op.apply_singular_integral(g, p).values
            - g.values * op.apply_singular_integral(f, p).values)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-6


def test_carre_du_champ_local_limit():
    """At s = 1 the form collapses to -2 f'g' - m^2 fg; check it through
    the spectral route on a band-limited product."""
    f = oracles.fourier_mode(L, N, 4, kind="cos")
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
        oracles.carre_du_champ(f, g, op.OperatorParams(s=0.5, m=1.0))


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_bessel_identity_interior(lam, s):
    rep = oracles.bessel_identity_check(lam, 1, s)
    assert rep.passed, f"violation {rep.measured['violation']:.2e}"
    assert rep.measured["violation"] < 1e-5


def test_bessel_identity_edge():
    rep = oracles.bessel_identity_check(1.0, 1, 0.5, tolerance=1e-4)
    assert rep.passed
    assert rep.measured["lhs"] == pytest.approx(-1.0, abs=1e-4)


@pytest.mark.parametrize("lam,N_dim,s", [
    (0.5, 2, 0.5), (0.9, 2, 0.75), (1.0, 2, 0.75),
    (0.5, 3, 0.5), (0.9, 3, 0.3),
])
def test_bessel_identity_higher_dim(lam, N_dim, s):
    rep = oracles.bessel_identity_check(lam, N_dim, s)
    assert rep.passed, f"violation {rep.measured['violation']:.2e}"


def test_bessel_identity_preconditions():
    with pytest.raises(PreconditionError):
        oracles.bessel_identity_check(1.0, 2, 0.3)  # needs N - 2s < 1
    from fracrel.errors import DomainError
    with pytest.raises(DomainError):
        oracles.bessel_identity_check(1.5, 1, 0.5)
    with pytest.raises(DomainError):
        oracles.bessel_identity_check(0.5, 4, 0.5)


@pytest.mark.parametrize("s", [0.3, 0.5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_eigenfunction_residual_half_mass(s, sign):
    """lambda = m/2 must reproduce the eigenvalue to 1e-3 in the core."""
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=s, m=1.0)
    rep = oracles.eigenfunction_residual(sign * 0.5, p, w)
    assert rep.passed
    assert rep.measured["max_rel_residual"] < 1e-3


def test_eigenfunction_residual_near_mass_edge():
    # lambda -> m converges slowly through the kernel tail; the bound is
    # truncation-limited, so only a loose ceiling is asserted
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    rep = oracles.eigenfunction_residual(0.9, p, w, tolerance=2e-2)
    assert rep.passed


def test_eigenfunction_rejects_super_mass():
    w = smooth_window(80.0, 8192, inner=30.0, outer=40.0)
    p = op.OperatorParams(s=0.5, m=1.0)
    with pytest.raises(PreconditionError):
        oracles.eigenfunction_residual(1.0, p, w)


def test_param_validation():
    for bad in ({"s": 0.0, "m": 1.0}, {"s": 1.2, "m": 1.0},
                {"s": 0.5, "m": -1.0}):
        with pytest.raises(ConfigError):
            op.OperatorParams(**bad)


def test_singular_needs_positive_mass_and_fractional_power():
    f = gaussian(L, N, sigma=1.0)
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=1.0, m=1.0))
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=0.5, m=0.0))
    # the subordination route refuses s = 1 through its multiplier
    with pytest.raises(PreconditionError, match=r"requires s in \(0, 1\)"):
        op.apply_subordination(f, op.OperatorParams(1.0, 1.0))


def test_grid_too_coarse_for_kernel():
    f = gaussian(L, 64, sigma=1.0)
    with pytest.raises(PreconditionError):
        op.apply_singular_integral(f, op.OperatorParams(s=0.5, m=8.0))


# ------------------------------------------------------------------ kernel
# cell weights: tiered order, bounded cache, bounded memory


def _build_weights(s, m, n=N):
    return op._kernel_weights(op.OperatorParams(s, m), L, n)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_tiered_cell_weights_match_full_order(s, m):
    # reference: the near-tier order on every cell, kernel from scipy's K_nu
    w = _build_weights(s, m)["w"]
    h, nu = L / N, 0.5 + s
    nodes, gl_w = np.polynomial.legendre.leggauss(op.KERNEL_GL[0].size)
    z = np.arange(1, len(w) + 1)[:, None] * h + 0.5 * h * nodes[None, :]
    ref = 0.5 * h * (z ** (-nu) * sp.kv(nu, m * z) * gl_w).sum(axis=1)
    rel = np.max(np.abs(w - ref) / ref)
    assert rel <= 1e-13, f"max rel deviation {rel:.3e}"


def test_kernel_weights_cache_is_bounded():
    first = _build_weights(0.5, 1.0, n=256)
    assert _build_weights(0.5, 1.0, n=256) is first
    for i in range(20):
        _build_weights(0.5, 1.0 + 0.01 * i, n=256)
    assert op._kernel_weights.cache_info().currsize <= 16


def test_cold_kernel_build_memory_is_bounded():
    # the dense (points x nodes) quadrature matrix used to peak at 384 MB
    tracemalloc.start()
    try:
        op._kernel_weights.__wrapped__(op.OperatorParams(0.5, 0.5), L, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_cold_kernel_build_sizes_quadrature_levels_to_the_integrand(
        row_tile_widths):
    # each Macdonald block starts from w_max / 0.25 nodes with no 256-node
    # floor; its levels then hold 12 to 65 nodes, not 256 and 255
    op._kernel_weights.cache_clear()
    op._kernel_weights(op.OperatorParams(0.5, 1.0), L, N)
    assert row_tile_widths and max(row_tile_widths) <= 128, row_tile_widths


def test_cold_kernel_build_tiles_by_element_count(monkeypatch):
    # a tile holds _TILE_ELEMS // nodes rows, so no tile buffer passes
    # _TILE_ELEMS doubles, and a 2048-point Macdonald level of at most 80
    # nodes (819-row tiles) takes at most 3 tiles, not the 32 that 64-row
    # tiles took
    levels = []
    row_tiles = special._row_tiles

    def spy(n_rows, n_cols):
        tiles = []
        levels.append((n_rows, tiles))
        for rows, v in row_tiles(n_rows, n_cols):
            tiles.append(v.base.size)
            yield rows, v

    monkeypatch.setattr(special, "_row_tiles", spy)
    op._kernel_weights.__wrapped__(op.OperatorParams(0.5, 1.0), L, N)
    full = [tiles for n_rows, tiles in levels
            if n_rows == special._QUAD_BLOCK]
    assert full, [n_rows for n_rows, _ in levels]
    assert max(max(tiles) for _, tiles in levels) <= special._TILE_ELEMS
    assert max(map(len, full)) <= 3, [len(tiles) for tiles in full]


def test_cold_kernel_weights_match_the_untiled_oracle(monkeypatch):
    # the singular route's multiplier, built from every Macdonald block in
    # tiles, is the one built from whole (points x nodes) matrices
    p = op.OperatorParams(0.5, 1.0)
    got = op._kernel_weights.__wrapped__(p, L, N)["multiplier"]
    monkeypatch.setattr(special, "_refined_trapezoid",
                        oracles.refined_trapezoid_untiled)
    want = op._kernel_weights.__wrapped__(p, L, N)["multiplier"]
    assert np.array_equal(got, want)
