import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from fracrel import special
from fracrel.errors import DomainError, QuadratureError
from fracrel.special import _kv_quadrature, frac_power_constant, macdonald_k
import oracles
from oracles import frac_power_constant_nd, half_kernel_explicit


def test_k_half_closed_form():
    """The half-integer orders reproduce sqrt(pi/2z) e^-z times their
    polynomial in 1/z to 5e-14 on [1e-26, 1e27]."""
    z = np.logspace(-26, 27, 2000)
    for nu, poly in ((0.5, 1.0), (1.5, 1.0 + 1.0 / z),
                     (2.5, 1.0 + 3.0 / z + 3.0 / z**2)):
        got = _kv_quadrature(nu, z)
        want = np.sqrt(0.5 * math.pi / z) * poly
        rel = np.max(np.abs(got - want) / want)
        assert rel <= 5e-14, f"nu={nu}: max rel err {rel:.3e}"


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0 / 3.0, 0.5, 0.98, 1.0, 1.02,
                                1.2, 1.5, 2.0, 2.5, 3.0, 3.7])
def test_against_scipy_sweep(nu):
    z = np.logspace(-3, math.log10(600.0), 200)
    got = _kv_quadrature(nu, z)
    want = sp.kve(nu, z)
    rel = np.max(np.abs(got - want) / want)
    assert rel <= 2e-13, f"nu={nu}: max rel err {rel:.3e}"


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.0])
def test_integer_order_quadrature_is_exact_order(nu):
    # integer orders run the quadrature at nu itself; averaging nu +- eps
    # would leave an O(eps^2) bias near 1e-11
    z = np.linspace(0.01, 30.0, 2002)[1:-1]
    got = _kv_quadrature(nu, z)
    want = sp.kve(nu, z)
    rel = np.max(np.abs(got - want) / want)
    assert rel <= 1e-13, f"nu={nu}: max rel err {rel:.3e}"


@pytest.mark.parametrize("nu,z,want", [
    # frozen mpmath 30-digit references
    (0.8, 0.37, 1.8768930091575145067),
    (1.5, 2.5, 0.091092320415613984504),
    (0.0, 1.0, 0.42102443824070833334),
    (2.0, 7.3, 3.9845591081006230372e-4),
    (1.0 / 3.0, 25.0, 3.4717201424907064296e-12),
])
def test_frozen_spot_values(nu, z, want):
    assert abs(macdonald_k(nu, z) - want) < 1e-10 * abs(want)


def test_scaled_matches_unscaled():
    # K_nu is the scaled quadrature times exp(-z), bit for bit
    z = np.linspace(0.2, 30.0, 57)
    assert np.array_equal(macdonald_k(0.7, z), _kv_quadrature(0.7, z)
                          * np.exp(-z))


def test_scaled_survives_large_argument():
    # unscaled underflows near z ~ 740; the scaled value stays O(z^-1/2)
    val = _kv_quadrature(1.5, np.array([5000.0]))[0]
    want = math.sqrt(0.5 * math.pi / 5000.0)
    assert abs(val / want - 1.0) < 1e-3


def test_scalar_in_scalar_out():
    v = macdonald_k(0.5, 1.0)
    assert isinstance(v, float)
    arr = macdonald_k(0.5, np.array([1.0, 2.0]))
    assert arr.shape == (2,)


@pytest.mark.parametrize("nu,z_small", [
    (0.0, 0.005), (0.3, 1e-4), (0.5, 0.01), (1.0, 0.02),
    (1.5, 0.05), (2.5, 0.1),
])
def test_small_argument_law(nu, z_small):
    """Leading small-z behaviour within 5%: Gamma(nu) 2^(nu-1) z^-nu,
    and -log(z/2) - euler_gamma at nu = 0."""
    got = macdonald_k(nu, z_small)
    if nu == 0.0:
        want = -math.log(0.5 * z_small) - np.euler_gamma
    else:
        want = math.gamma(nu) * 2.0 ** (nu - 1.0) * z_small ** (-nu)
    assert abs(got / want - 1.0) < 0.05


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.2])
def test_large_argument_law(nu):
    # first correction is (4 nu^2 - 1)/8z, so z = 60 keeps every order
    # of interest inside the 5% band
    z = 60.0
    got = macdonald_k(nu, z)
    want = math.sqrt(0.5 * math.pi / z) * math.exp(-z)
    assert abs(got / want - 1.0) < 0.05


def test_domain_errors():
    with pytest.raises(DomainError):
        macdonald_k(-0.5, 1.0)
    with pytest.raises(DomainError):
        macdonald_k(0.5, 0.0)
    with pytest.raises(DomainError):
        macdonald_k(0.5, np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        macdonald_k(0.5, float("nan"))
    for nu in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            macdonald_k(nu, 1.0)
    # subnormal arguments are refused, alone or in an array
    for z in (1e-308, 1e-310, 5e-324):
        with pytest.raises(DomainError, match="positive and normal"):
            macdonald_k(0.3, z)
        with pytest.raises(DomainError):
            macdonald_k(0.3, np.array([1.0, z]))


@pytest.mark.parametrize("z", [1e-300, 1e-306, 1e-307, sys.float_info.min])
@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5])
def test_tiniest_normal_arguments(nu, z):
    # the window reaches w = 710 and past it, where sinh(w/2)^2 overflows,
    # and below z = 1.7e-307 (nu + 30) / z overflows too; the value and no
    # warning come back, and K_nu is its leading small-z law to far below
    # the tolerance
    got = macdonald_k(nu, z)
    if nu == 0.0:
        want = -math.log(0.5 * z) - np.euler_gamma
    else:
        want = 0.5 * math.gamma(nu) * (0.5 * z) ** (-nu)
    assert abs(got / want - 1.0) <= 1e-13


def test_quadrature_node_cap_raises(monkeypatch):
    # the cap sits below the first level's 19 nodes, so no level runs and
    # no unconverged value may come back
    monkeypatch.setattr(special, "MAX_QUAD_NODES", 16)
    with pytest.raises(QuadratureError, match="nu=0.7"):
        macdonald_k(0.7, np.array([5.0]))


@pytest.mark.parametrize("z", [30.0, 1e2, 1e3, 1e4, 1e5, 1e8, 1e16, 1e26])
def test_quadrature_exponent_does_not_cancel_at_large_argument(z):
    # z (1 - cosh w) rounded as 1 - cosh(w) carries noise of order 1e-16 z
    # near the peak, where 1 - cosh w is about 1/z: z = 1e4 landed 3.1e-13
    # from the exact value and z = 1e5 hit the node cap.  A window and first
    # spacing fixed for z <= 30 hit the cap from z = 1e8 on as well.
    got = special._kv_quadrature_block(1.5, np.array([z]))[0]
    want = math.sqrt(0.5 * math.pi / z) * (1.0 + 1.0 / z)
    assert abs(got - want) <= 1e-15 * want, f"rel err {abs(got/want - 1):.3e}"


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


def test_quadrature_blocks_follow_their_z_range(row_tile_widths):
    # each block's window and first spacing come from its own z range, so
    # 53 decades of z converge with no level near the node cap
    got = _kv_quadrature(1.5, np.logspace(-26, 27, 6000))
    assert np.all(np.isfinite(got))
    assert max(row_tile_widths) <= 512, (
        f"widest level {max(row_tile_widths)} nodes")


@pytest.mark.parametrize("nu", [0.8, 1.0, 1.2])
def test_quadrature_matches_scipy_at_the_suite_orders(nu):
    # the orders 1/2 + s of the equivalence suite, over the arguments its
    # kernel cells reach; the bound is set by kve itself, which is 7.0e-14
    # off a 30-digit mpmath value at nu = 0.8, z = 2, where the quadrature
    # matches it to the last bit
    z = np.linspace(2.0, 25.0, 4000)
    got = _kv_quadrature(nu, z)
    want = sp.kve(nu, z)
    rel = np.max(np.abs(got - want) / want)
    assert rel <= 2e-13, f"nu={nu}: max rel err {rel:.3e}"


def test_frac_power_constant_values():
    # closed form at s = 1/2 in one dimension
    assert frac_power_constant(0.5) == pytest.approx(1.0 / math.pi,
                                                     rel=1e-14)
    # frozen mpmath references
    assert frac_power_constant(0.3) == pytest.approx(
        0.22702679034253217103, rel=1e-14)
    assert frac_power_constant_nd(2, 0.5) == pytest.approx(
        0.12698727186848193957, rel=1e-14)
    assert frac_power_constant_nd(3, 0.7) == pytest.approx(
        0.048270323308272449112, rel=1e-14)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_oracle_constant_is_the_package_constant_in_one_dimension(s):
    # the suite's powers; the oracle's C(N, s) at N = 1 and the package's
    # C(1, s) are the same operations, so any drift in either shows here
    assert frac_power_constant_nd(1, s) == frac_power_constant(s)


def test_frac_power_constant_domain():
    with pytest.raises(DomainError):
        frac_power_constant(0.0)
    with pytest.raises(DomainError):
        frac_power_constant(1.0)
    with pytest.raises(DomainError):
        frac_power_constant_nd(0, 0.5)


def test_half_kernel_spot_values():
    # frozen mpmath references for the explicit s = 1/2 kernel
    assert half_kernel_explicit(1.0, 0.5, 1.0) == pytest.approx(
        0.14095150533303624959, rel=1e-10)
    assert half_kernel_explicit(0.5, 2.0, 2.0) == pytest.approx(
        0.0016747880117118471137, rel=1e-10)


@pytest.mark.parametrize("t,m", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0)])
def test_half_kernel_mass(t, m):
    """The kernel carries total mass e^(-mt)."""
    x = np.linspace(-60.0, 60.0, 200001)
    vals = half_kernel_explicit(t, x, m)
    mass = np.trapezoid(vals, x) if hasattr(np, "trapezoid") \
        else np.trapz(vals, x)
    assert mass == pytest.approx(math.exp(-m * t), rel=1e-8)


@pytest.mark.parametrize("t,m", [(0.7, 1.3), (1.0, 0.5)])
def test_half_kernel_mass_in_three_dimensions(t, m):
    """In R^3 the radial kernel integrates to e^(-mt) over the shells
    4 pi r^2 dr, which pins the dimension-dependent normalization."""
    r = np.linspace(0.0, 80.0, 200001)
    vals = 4.0 * math.pi * r * r * half_kernel_explicit(t, r, m, N=3)
    mass = (r[1] - r[0]) * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    assert mass == pytest.approx(math.exp(-m * t), rel=1e-8)


def test_half_kernel_domain():
    for t, m in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                 (math.inf, 1.0), (math.nan, 1.0),
                 (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(DomainError):
            half_kernel_explicit(t, 1.0, m)


def test_half_kernel_positive_even():
    x = np.linspace(-10.0, 10.0, 101)
    vals = half_kernel_explicit(0.7, x, 1.3)
    assert np.all(vals > 0.0)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-13)


def test_quadrature_longer_than_one_block_matches_scipy():
    # 5,000 unsorted points, cut into several sorted blocks
    z = np.linspace(0.01, 30.0, 5000)[::-1]
    got = _kv_quadrature(1.0, z)
    want = sp.kve(1.0, z)
    rel = np.max(np.abs(got - want) / want)
    assert rel < 1e-8, f"max rel err {rel:.3e}"


def test_large_evaluation_memory_is_bounded():
    # the dense (points x nodes) matrix used to peak at 1.56 GB here
    z = np.linspace(0.01, 30.0, 100_000)
    tracemalloc.start()
    try:
        macdonald_k(1.0, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("nu", [0.8, 1.0, 1.2])
def test_quadrature_row_tiles_match_the_untiled_oracle(
        nu, monkeypatch, row_tile_widths):
    # each point's row is written and summed as on the whole (points x
    # nodes) matrix, so the values agree bit for bit on one point, on a
    # full block, and one row either side of each level's tile size that
    # fits in a block.  Every count spans z in [2, 29], so its levels have
    # the full block's node counts: 22, 21 and 42, whose last takes tiles
    # of 1560 rows
    macdonald_k(nu, np.linspace(2.0, 29.0, special._QUAD_BLOCK))
    tiles = {special._TILE_ELEMS // w for w in row_tile_widths}
    tiles = {t for t in tiles if t < special._QUAD_BLOCK}
    assert tiles, row_tile_widths
    counts = {1, special._QUAD_BLOCK} | {
        t + d for t in tiles for d in (-1, 0, 1)}
    for count in sorted(counts):
        z = np.linspace(2.0, 29.0, count)
        got = macdonald_k(nu, z)
        with monkeypatch.context() as m:
            m.setattr(special, "_refined_trapezoid",
                      oracles.refined_trapezoid_untiled)
            want = macdonald_k(nu, z)
        assert np.array_equal(got, want), count


def test_quadrature_block_memory_is_one_row_tile():
    # one whole (2048 x nodes) matrix per level peaked at 8.2 MB here
    z = np.linspace(2.0, 29.0, 2048)
    tracemalloc.start()
    try:
        macdonald_k(1.2, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MB"
